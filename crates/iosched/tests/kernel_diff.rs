//! Differential oracle for the slab pool kernel (PR 7 playbook).
//!
//! Every elevator is generic over [`PoolKernel`]; here each one runs
//! twice over identical randomized op traces — once on the production
//! slab [`RqPool`], once on the naive `BTreeMap` + linear-scan-merge
//! [`NaiveRqPool`] oracle — asserting bitwise-identical add outcomes,
//! dispatch sequences, completion handling, and drain contents after
//! every single op. Noop keeps its own inlined slab, so it is checked
//! against a test-local naive FIFO reference instead.
//!
//! Each elevator sees ≥ 20k ops (several seeds × ops-per-seed), per
//! the issue's acceptance bar; a pool-level suite exercises the raw
//! kernel API (including `prev_before`, `has_stream`,
//! `closest_from_stream`) beyond what the elevators reach.

use iosched::anticipatory::{Anticipatory, AsConfig};
use iosched::cfq::{Cfq, CfqConfig};
use iosched::deadline::{DeadlineConfig, DeadlineSched};
use iosched::noop::Noop;
use iosched::pool::{add_with_merge, PoolKernel, Qid, RqPool};
use iosched::request::{AddOutcome, Dir, IoRequest, QueuedRq};
use iosched::{Dispatch, Elevator};
use simcore::check::Gen;
use simcore::{SimDuration, SimTime};

mod naive_pool;
use naive_pool::NaiveRqPool;

const MAX_MERGE: u64 = 1024;

fn gen_request(g: &mut Gen, id: u64, now: SimTime) -> IoRequest {
    let dir = if g.bool() { Dir::Read } else { Dir::Write };
    // Mostly 8-sector-aligned extents in a narrow band so merges and
    // duplicate boundary sectors actually happen.
    let sector = g.u64_in(0, 4_000) * 8;
    let sectors = g.u64_in(1, 16) * 8;
    IoRequest {
        id,
        stream: g.u32_in(0, 5),
        sector,
        sectors,
        dir,
        // Async reads don't exist in the stack; async writes do.
        sync: dir == Dir::Read || g.bool(),
        submitted: now,
    }
}

/// Drive two elevator instances through one identical randomized op
/// trace, asserting equality after every op. Returns ops performed.
fn drive_pair(fast: &mut dyn Elevator, naive: &mut dyn Elevator, seed: u64, ops: usize) -> usize {
    let mut g = Gen::from_seed(seed);
    let mut now = SimTime::ZERO;
    let mut next_id = 1u64;
    // Dispatched-but-uncompleted requests (identical on both sides by
    // induction, so one stash serves both).
    let mut in_flight: Vec<QueuedRq> = Vec::new();
    for op in 0..ops {
        now += SimDuration::from_micros(g.u64_in(0, 2_000));
        match g.u32_in(0, 100) {
            // Add the same request to both.
            0..=44 => {
                let r = gen_request(&mut g, next_id, now);
                next_id += 1;
                let oa = fast.add(r.clone(), now);
                let ob = naive.add(r, now);
                assert_eq!(oa, ob, "add outcome diverged at op {op} (seed {seed})");
                assert_eq!(fast.queued(), naive.queued());
            }
            // Dispatch from both.
            45..=84 => {
                let da = fast.dispatch(now);
                let db = naive.dispatch(now);
                assert_eq!(da, db, "dispatch diverged at op {op} (seed {seed})");
                match da {
                    Dispatch::Request(rq) => in_flight.push(rq),
                    Dispatch::Idle { until } => {
                        // Sometimes honour the idle window, sometimes
                        // let new arrivals preempt it.
                        if g.bool() {
                            now = now.max(until);
                        }
                    }
                    Dispatch::Empty => {}
                }
            }
            // Complete a previously dispatched request on both.
            85..=96 => {
                if !in_flight.is_empty() {
                    let i = g.usize_in(0, in_flight.len());
                    let rq = in_flight.swap_remove(i);
                    fast.completed(&rq, now);
                    naive.completed(&rq, now);
                    let da = fast.dispatch(now);
                    let db = naive.dispatch(now);
                    assert_eq!(da, db, "post-completion dispatch diverged at op {op}");
                    if let Dispatch::Request(rq) = da {
                        in_flight.push(rq);
                    }
                }
            }
            // Hot-switch drain on both.
            _ => {
                let va = fast.drain();
                let vb = naive.drain();
                assert_eq!(va, vb, "drain diverged at op {op} (seed {seed})");
                assert_eq!(fast.queued(), 0);
                in_flight.clear();
            }
        }
    }
    // Final drain must agree too.
    assert_eq!(fast.drain(), naive.drain(), "final drain diverged (seed {seed})");
    ops
}

#[test]
fn deadline_matches_naive_oracle() {
    let mut total = 0;
    for seed in 0..4u64 {
        let mut fast: DeadlineSched<RqPool> = DeadlineSched::new(DeadlineConfig::default(), MAX_MERGE);
        let mut naive: DeadlineSched<NaiveRqPool> =
            DeadlineSched::new(DeadlineConfig::default(), MAX_MERGE);
        total += drive_pair(&mut fast, &mut naive, 0xD15C0 + seed, 6_000);
    }
    assert!(total >= 20_000);
}

#[test]
fn anticipatory_matches_naive_oracle() {
    let mut total = 0;
    for seed in 0..4u64 {
        let mut fast: Anticipatory<RqPool> = Anticipatory::new(AsConfig::default(), MAX_MERGE);
        let mut naive: Anticipatory<NaiveRqPool> = Anticipatory::new(AsConfig::default(), MAX_MERGE);
        total += drive_pair(&mut fast, &mut naive, 0xA5A5 + seed, 6_000);
    }
    assert!(total >= 20_000);
}

#[test]
fn cfq_matches_naive_oracle() {
    let mut total = 0;
    for seed in 0..4u64 {
        let mut fast: Cfq<RqPool> = Cfq::new(CfqConfig::default(), MAX_MERGE);
        let mut naive: Cfq<NaiveRqPool> = Cfq::new(CfqConfig::default(), MAX_MERGE);
        total += drive_pair(&mut fast, &mut naive, 0xCF9 + seed, 6_000);
    }
    assert!(total >= 20_000);
}

// ---------------------------------------------------------------------------
// Noop reference
// ---------------------------------------------------------------------------

/// Trivially correct noop: FIFO of requests, back merges by linear scan
/// over the whole queue picking the oldest eligible extent.
#[derive(Default)]
struct NaiveNoop {
    fifo: Vec<QueuedRq>,
}

impl NaiveNoop {
    fn add(&mut self, r: IoRequest) -> AddOutcome {
        if let Some(rq) = self
            .fifo
            .iter_mut()
            .find(|rq| rq.end() == r.sector && rq.dir == r.dir && rq.sectors + r.sectors <= MAX_MERGE)
        {
            rq.merge_back(r);
            return AddOutcome::MergedBack(rq.id());
        }
        self.fifo.push(QueuedRq::from_request(r));
        AddOutcome::Queued
    }

    fn dispatch(&mut self) -> Dispatch {
        if self.fifo.is_empty() {
            Dispatch::Empty
        } else {
            Dispatch::Request(self.fifo.remove(0))
        }
    }

    fn drain(&mut self) -> Vec<QueuedRq> {
        std::mem::take(&mut self.fifo)
    }
}

#[test]
fn noop_matches_naive_reference() {
    let mut total = 0;
    for seed in 0..4u64 {
        let mut fast = Noop::new(MAX_MERGE);
        let mut naive = NaiveNoop::default();
        let mut g = Gen::from_seed(0x0F0 + seed);
        let mut now = SimTime::ZERO;
        let mut next_id = 1u64;
        for op in 0..6_000 {
            now += SimDuration::from_micros(g.u64_in(0, 500));
            match g.u32_in(0, 100) {
                0..=49 => {
                    let r = gen_request(&mut g, next_id, now);
                    next_id += 1;
                    let oa = fast.add(r.clone(), now);
                    let ob = naive.add(r);
                    assert_eq!(oa, ob, "noop add diverged at op {op} (seed {seed})");
                }
                50..=96 => {
                    assert_eq!(fast.dispatch(now), naive.dispatch(), "noop dispatch diverged at op {op}");
                }
                _ => {
                    assert_eq!(fast.drain(), naive.drain(), "noop drain diverged at op {op}");
                }
            }
            assert_eq!(fast.queued(), naive.fifo.len());
            total += 1;
        }
    }
    assert!(total >= 20_000);
}

// ---------------------------------------------------------------------------
// Raw pool-level differential
// ---------------------------------------------------------------------------

/// Exercise the full [`PoolKernel`] surface with aligned qid pairs
/// (qids differ across kernels, so removals translate through the
/// pairing; query results are compared by request value).
#[test]
fn pool_kernels_agree_on_full_api() {
    for seed in 0..3u64 {
        let mut fast = RqPool::new();
        let mut naive = NaiveRqPool::new();
        let mut g = Gen::from_seed(0x9001 + seed);
        let mut live: Vec<(Qid, Qid)> = Vec::new();
        let mut next_id = 1u64;
        for op in 0..8_000u64 {
            let now = SimTime::from_micros(op);
            match g.u32_in(0, 100) {
                0..=39 => {
                    let r = gen_request(&mut g, next_id, now);
                    next_id += 1;
                    let (oa, qa) = add_with_merge(&mut fast, r.clone(), MAX_MERGE);
                    let (ob, qb) = add_with_merge(&mut naive, r, MAX_MERGE);
                    assert_eq!(oa, ob, "pool add diverged at op {op} (seed {seed})");
                    assert_eq!(fast.get(qa), naive.get(qb), "absorber diverged at op {op}");
                    if oa == AddOutcome::Queued {
                        live.push((qa, qb));
                    }
                }
                40..=59 => {
                    if !live.is_empty() {
                        let i = g.usize_in(0, live.len());
                        let (qa, qb) = live.swap_remove(i);
                        assert_eq!(fast.remove(qa), naive.remove(qb), "remove diverged at op {op}");
                    }
                }
                60..=74 => {
                    let s = g.u64_in(0, 40_000);
                    let a = fast.next_at_or_after(s).map(|q| fast.get(q).unwrap());
                    let b = naive.next_at_or_after(s).map(|q| naive.get(q).unwrap());
                    assert_eq!(a, b, "next_at_or_after({s}) diverged at op {op}");
                }
                75..=84 => {
                    let s = g.u64_in(0, 40_000);
                    let a = fast.prev_before(s).map(|q| fast.get(q).unwrap());
                    let b = naive.prev_before(s).map(|q| naive.get(q).unwrap());
                    assert_eq!(a, b, "prev_before({s}) diverged at op {op}");
                    let fa = fast.first().map(|q| fast.get(q).unwrap());
                    let fb = naive.first().map(|q| naive.get(q).unwrap());
                    assert_eq!(fa, fb, "first diverged at op {op}");
                }
                85..=94 => {
                    let stream = g.u32_in(0, 6);
                    assert_eq!(
                        fast.has_stream(stream),
                        naive.has_stream(stream),
                        "has_stream({stream}) diverged at op {op}"
                    );
                    let s = g.u64_in(0, 40_000);
                    let a = fast.closest_from_stream(stream, s).map(|q| fast.get(q).unwrap());
                    let b = naive.closest_from_stream(stream, s).map(|q| naive.get(q).unwrap());
                    assert_eq!(a, b, "closest_from_stream diverged at op {op}");
                }
                _ => {
                    assert_eq!(fast.drain_all(), naive.drain_all(), "drain_all diverged at op {op}");
                    live.clear();
                }
            }
            // Merges may consume queued entries; keep pairs honest.
            live.retain(|&(qa, qb)| {
                assert_eq!(fast.contains(qa), naive.contains(qb), "contains diverged at op {op}");
                fast.contains(qa)
            });
            assert_eq!(fast.len(), naive.len());
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned pool cases
// ---------------------------------------------------------------------------

fn read_request(id: u64, sector: u64, sectors: u64) -> IoRequest {
    IoRequest {
        id,
        stream: (id % 4) as u32,
        sector,
        sectors,
        dir: Dir::Read,
        sync: true,
        submitted: SimTime::from_micros(id),
    }
}

/// Regression for the single-slot boundary-index bug: two queued
/// extents sharing a boundary sector must *both* stay findable as
/// merge candidates, and removing one must not drop the other's
/// index entry. The original `HashMap<Sector, Key>` indexes
/// overwrote on insert and removed-by-sector on removal, silently
/// losing merge candidates. Pinned for both kernels.
fn duplicate_boundary_case<P: PoolKernel>() {
    let mk = |id: u64, sector: u64, sectors: u64, dir: Dir| IoRequest {
        id,
        stream: id as u32,
        sector,
        sectors,
        dir,
        sync: dir == Dir::Read,
        submitted: SimTime::from_micros(id),
    };
    // Two same-direction extents both ending at 200: 100..200 and
    // 150..200 (overlapping tails happen with duplicate content
    // ranges; the pool does not forbid them).
    let mut p = P::default();
    let (_, qa) = add_with_merge(&mut p, mk(1, 100, 100, Dir::Read), 1024);
    let (_, qb) = add_with_merge(&mut p, mk(2, 150, 50, Dir::Read), 1024);
    assert_eq!(p.len(), 2);
    // A request at 200 back-merges into the *older* extent (qa).
    let (o, q) = add_with_merge(&mut p, mk(3, 200, 8, Dir::Read), 1024);
    assert_eq!(o, AddOutcome::MergedBack(1));
    assert_eq!(q, qa);
    // qb still ends at 200 and must still be indexed: after qa is
    // removed, a fresh arrival at 200 merges into qb rather than
    // queueing (the original index had dropped qb's entry).
    p.remove(qa).unwrap();
    let (o, q) = add_with_merge(&mut p, mk(4, 200, 8, Dir::Read), 1024);
    assert_eq!(o, AddOutcome::MergedBack(2));
    assert_eq!(q, qb);

    // Same collision on the *start* boundary: two extents starting
    // at 1000; a front-merge candidate at 992 picks the older one,
    // and the younger stays findable after the older leaves.
    let mut p = P::default();
    let (_, qa) = add_with_merge(&mut p, mk(10, 1000, 64, Dir::Read), 1024);
    let (_, qb) = add_with_merge(&mut p, mk(11, 1000, 32, Dir::Read), 1024);
    let (o, q) = add_with_merge(&mut p, mk(12, 992, 8, Dir::Read), 1024);
    assert_eq!(o, AddOutcome::MergedFront(12));
    assert_eq!(q, qa);
    p.remove(qa).unwrap();
    let (o, q) = add_with_merge(&mut p, mk(13, 992, 8, Dir::Read), 1024);
    assert_eq!(o, AddOutcome::MergedFront(13));
    assert_eq!(q, qb);

    // Direction mismatch at a shared boundary: the write ending at
    // 200 is skipped, the read (inserted later) still merges.
    let mut p = P::default();
    add_with_merge(&mut p, mk(20, 100, 100, Dir::Write), 1024);
    let (_, qr) = add_with_merge(&mut p, mk(21, 150, 50, Dir::Read), 1024);
    let (o, q) = add_with_merge(&mut p, mk(22, 200, 8, Dir::Read), 1024);
    assert_eq!(o, AddOutcome::MergedBack(21));
    assert_eq!(q, qr);
}

#[test]
fn duplicate_boundary_sectors_slab() {
    duplicate_boundary_case::<RqPool>();
}

#[test]
fn duplicate_boundary_sectors_naive() {
    duplicate_boundary_case::<NaiveRqPool>();
}

#[test]
fn scan_cursor_survives_churn() {
    // Interleave scans with inserts/removes around the cursor: the
    // hint is only a hint, answers must match the naive kernel.
    let mut p = RqPool::new();
    let mut n = NaiveRqPool::new();
    let mut g = simcore::check::Gen::from_seed(7);
    let mut live: Vec<(Qid, Qid)> = Vec::new();
    for i in 0..2000u64 {
        match g.u32_in(0, 10) {
            0..=4 => {
                let r = read_request(i + 1, g.u64_in(0, 5_000), g.u64_in(1, 64));
                let (op, qp) = add_with_merge(&mut p, r.clone(), 1024);
                let (on, qn) = add_with_merge(&mut n, r, 1024);
                assert_eq!(op, on);
                if op == AddOutcome::Queued {
                    live.push((qp, qn));
                }
            }
            5..=6 => {
                let s = g.u64_in(0, 5_200);
                let a = p.next_at_or_after(s).map(|q| p.get(q).unwrap().clone());
                let b = n.next_at_or_after(s).map(|q| n.get(q).unwrap().clone());
                assert_eq!(a, b, "scan diverged at sector {s}");
            }
            _ => {
                if !live.is_empty() {
                    let idx = g.usize_in(0, live.len());
                    let (qp, qn) = live.swap_remove(idx);
                    assert_eq!(p.remove(qp), n.remove(qn));
                }
            }
        }
        // Merges can consume entries whose qids we hold; prune.
        live.retain(|&(qp, qn)| {
            assert_eq!(p.contains(qp), n.contains(qn));
            p.contains(qp)
        });
        assert_eq!(p.len(), n.len());
    }
}

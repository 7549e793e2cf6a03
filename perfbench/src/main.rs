//! Repository benchmark: drives `shuffle_128x4`, `tune_4x4` and
//! `switch_matrix` through the crates' public entry points and prints
//! one JSON result line. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --pin        # print a fresh reference.json on stdout
//! ```
//!
//! `--trace 0` is the timed run: a closed loop with one client that
//! starts each simulation call when the previous one ends, for
//! `--seconds`, and reports the end-to-end metrics. `--trace 1` is the
//! traced run: an untraced and a `Telemetry::Full` pass, the oracle
//! checks, and the per-layer metrics. `SIM_THREADS` is read from the
//! environment (`perfbench/run.py` pins 1 for timed runs, 2 for traced
//! runs).

mod layers;
mod workload;

use layers::{metric, per_layer, Metric, TraceFacts, ROOT};
use metasched::{assignment_plan, DdConfig, Experiment, SwitchCost, TuneReport};
use simcore::{
    prof, Json, MetricsRegistry, OracleConfig, SimDuration, SimTime, Telemetry, TraceEvent,
    TraceOracle, TraceRecord,
};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use vcluster::ClusterSim;
use vmstack::runner::{NodeRunner, SyntheticProc};
use workload::{Input, Output, Reference, Workload};

const USAGE: &str =
    "usage: perfbench --workload shuffle_128x4|tune_4x4|switch_matrix --seed N --seconds S --trace 0|1\n       perfbench --pin";

/// Level of the timed runs: the library default.
const TIMED_LEVEL: Telemetry = Telemetry::Counters;

/// Set-up is timed in batches of at least `SETUP_BATCH` host time (so
/// sub-microsecond set-ups are not timer noise), for at least
/// `SETUP_MIN_SAMPLES` batches and `SETUP_BUDGET`; the median per-set-up
/// time is reported.
const SETUP_BATCH: Duration = Duration::from_micros(100);
const SETUP_MIN_SAMPLES: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(200);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Pass/fail bookkeeping: every simulation call and every check is one
/// attempt. A panic or a digest mismatch also makes the exit code 1.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    fatal: bool,
    notes: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Run one simulation call, counting a panic as a failure.
    fn run(&mut self, prep: workload::Prepared) -> Option<Output> {
        match catch_unwind(AssertUnwindSafe(|| prep.run())) {
            Ok(out) => Some(out),
            Err(_) => {
                self.fatal = true;
                self.check(false, || "simulation panicked".into());
                None
            }
        }
    }

    /// Compare a call's digest with the pinned one.
    fn digest(&mut self, out: &Output, input: &Input, reference: &Reference, level: Telemetry) {
        let got = out.digest();
        let want = reference.digest(input, level).unwrap_or("unpinned");
        self.fatal |= got != want;
        self.check(got == want, || {
            format!(
                "{} {} at {}: digest {got}, pinned {want}",
                input.workload.name(),
                input.variant,
                workload::level_name(level)
            )
        });
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of this process so far (clock ticks
/// of `/proc/self/stat`, assumed 100 Hz).
fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Host seconds of a fixed integer loop: recorded next to every result
/// so wall times can be read against the host they came from.
fn calibration_s() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..50_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Repeat the set-up step and return the median host seconds of one.
fn setup_median(input: &Input) -> f64 {
    let time_batch = |n: usize| {
        let mut batch = Vec::with_capacity(n);
        let t = Instant::now();
        batch.extend((0..n).map(|_| input.setup(TIMED_LEVEL)));
        let elapsed = t.elapsed();
        black_box(batch);
        elapsed
    };
    let mut n = 1;
    while n < 1 << 20 && time_batch(n) < SETUP_BATCH {
        n *= 2;
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN_SAMPLES || start.elapsed() < SETUP_BUDGET {
        samples.push(time_batch(n).as_secs_f64() / n as f64);
    }
    median(&samples)
}

/// The timed run: end-to-end metrics.
fn timed(input: &Input, reference: &Reference, seconds: u64) -> (Checks, Vec<Metric>) {
    let mut checks = Checks::default();
    // Set-up is timed first, in a fresh process, so its cost does not
    // depend on how many calls came before it.
    let setup_s = setup_median(input);
    let mut walls = Vec::new();
    let mut gaps = Vec::new();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut calls = Vec::new();
    let mut peak_rss_mb = None;
    while walls.is_empty() || start.elapsed() < budget {
        let prep = input.setup(TIMED_LEVEL);
        let (t, c) = (Instant::now(), cpu_s());
        let out = checks.run(prep);
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        let rss = peak_rss_mib();
        // The peak after the first call is the footprint of one
        // simulation. Later calls raise it by what the allocator keeps
        // between calls, so it would grow with the calls a run fits.
        peak_rss_mb.get_or_insert(rss);
        calls.push(format!("{wall:.2}/{:.2}/{rss:.1}", cpu_s() - c));
        if let Some(out) = out {
            checks.digest(&out, input, reference, TIMED_LEVEL);
            gaps = out.paper_gaps();
        }
    }
    checks.notes.push(format!(
        "calls (wall s/cpu s/peak MiB): {}",
        calls.join(" ")
    ));
    let peak_rss_mb = peak_rss_mb.expect("the loop makes at least one call");
    let ok_ratio = 1.0 - checks.failed as f64 / walls.len() as f64;
    checks.notes.push(format!(
        "wall_s samples={} min={:.4} median={:.4} max={:.4}",
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        median(&walls),
        walls.iter().copied().fold(0.0, f64::max)
    ));
    let mut metrics = vec![
        metric("wall_s", median(&walls), "s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric("ok_ratio", ok_ratio, "ratio"),
    ];
    for (name, unit) in [
        ("paper_gap_default_pp", "pp"),
        ("paper_gap_single_pp", "pp"),
        ("paper_gap_switch_max_s", "sim_s"),
    ] {
        // A workload that does not compute a gap reports the pinned
        // value of the workload that does.
        let value = match gaps.iter().find(|(g, _)| *g == name) {
            Some(&(_, v)) => v,
            None => {
                checks.notes.push(format!(
                    "{name}: pinned value (computed by another workload)"
                ));
                reference.paper_gap(name).unwrap_or(f64::NAN)
            }
        };
        metrics.push(metric(name, value, unit));
    }
    (checks, metrics)
}

/// Scheduler code that matches no elevator: it turns the oracle's
/// deadline-expiry shadow off.
const NO_ELEVATOR: u8 = 0xff;

/// Offset that moves write extents into a sector range of their own.
const WRITE_SECTORS: u64 = 1 << 62;

/// The oracle's pending extents are keyed by start sector alone, so a
/// write dispatch can consume a queued read that starts at the same
/// sector ("completed without a dispatch" follows). No elevator merges
/// across directions, so moving writes to a range of their own changes
/// nothing else the oracle checks: a dispatch that did tile the other
/// direction now shows as a gap.
fn split_directions(rec: &TraceRecord) -> TraceRecord {
    let mut rec = *rec;
    if let TraceEvent::Arrive { sector, write, .. }
    | TraceEvent::MergeBack { sector, write, .. }
    | TraceEvent::MergeFront { sector, write, .. }
    | TraceEvent::Dispatch { sector, write, .. } = &mut rec.ev
    {
        if *write {
            *sector += WRITE_SECTORS;
        }
    }
    rec
}

/// Re-run the tuned plan with an unbounded trace ring and replay every
/// trace through `TraceOracle` twice. The stock strict oracle gives the
/// reported violation count (at most 32 per trace). The checked replay
/// splits read and write extents (`split_directions`) and turns the
/// deadline-expiry shadow off: the shadow requires every expired
/// request to be served within `fifo_batch × (writes_starved + 2)`
/// dispatches, which no FIFO-order elevator meets when more requests
/// than that expire at once, as sort's read bursts do here. Every other
/// invariant is checked strictly. Returns the run's metrics document
/// and the stock violation count.
fn replay_tuned_plan(report: &TuneReport, checks: &mut Checks) -> (Json, u64) {
    let mut exp = Experiment::paper_sort();
    exp.params.node.telemetry = Telemetry::Full;
    exp.params.node.trace_capacity = usize::MAX;
    let plan = assignment_plan(&report.final_assignment());
    let mut sim = ClusterSim::new(exp.params.clone(), exp.job.clone(), plan);
    let out = sim.run();
    checks.check(out.makespan == report.final_time(), || {
        format!(
            "replayed plan took {}, report says {}",
            out.makespan,
            report.final_time()
        )
    });
    let nodes = (0..exp.params.shape.nodes as usize).map(|n| sim.node(n).trace());
    let mut violations = 0;
    for (i, trace) in nodes.chain([sim.trace()]).enumerate() {
        let mut stock = TraceOracle::new(OracleConfig::default());
        stock.replay(trace);
        violations += stock.violations().len() as u64;
        let mut oracle = TraceOracle::new(OracleConfig {
            deadline_code: NO_ELEVATOR,
            ..OracleConfig::default()
        });
        let records: Vec<TraceRecord> = trace.records().map(split_directions).collect();
        oracle.replay_records(&records);
        let found = oracle.violations();
        checks.check(
            found.is_empty() && trace.dropped() == 0 && !trace.is_empty(),
            || {
                format!(
                    "trace {i}: {} dropped, oracle: {:?}",
                    trace.dropped(),
                    found.first()
                )
            },
        );
    }
    checks.notes.push(format!(
        "stock strict oracle: {violations} violations (see replay_tuned_plan)"
    ));
    (out.metrics, violations)
}

/// Time each distinct `DdConfig` call of the matrix (16 solo runs and
/// 256 switch runs), check that it reproduces the matrix, and gather
/// the simulated layer counters of the same runs from `NodeRunner`
/// replicas of the dd experiment.
fn replay_switch_matrix(matrix: &[Vec<SwitchCost>], checks: &mut Checks) -> (Json, Vec<f64>) {
    let cfg = DdConfig::default();
    let states: Vec<_> = matrix.iter().map(|row| row[0].from).collect();
    let mut reg = MetricsRegistry::new();
    let mut dd_ms = Vec::new();
    let mut replica = |pair, switch: Option<(SimTime, iosched::SchedPair)>, want: SimDuration| {
        let mut r = NodeRunner::new(cfg.node.clone(), cfg.vms, pair);
        for vm in 0..cfg.vms {
            r.add_proc(SyntheticProc::dd_writer(vm, 0, 0, cfg.bytes_per_vm));
        }
        if let Some((at, to)) = switch {
            r.switch_at(at, to);
        }
        let got = r.run().makespan;
        r.stack().export_metrics(&mut reg);
        got == want
    };
    let mut solo = Vec::new();
    for &p in &states {
        let t = Instant::now();
        let d = cfg.time_single(p);
        dd_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let same = replica(p, None, d);
        checks.check(same, || format!("dd replica of {} differs", p.code()));
        solo.push(d);
    }
    for (i, row) in matrix.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            let at = SimTime::ZERO + solo[i].div(2);
            let t = Instant::now();
            let combined = cfg.time_with_switch(cell.from, cell.to, at);
            dd_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let base = (solo[i].as_nanos() + solo[j].as_nanos()) / 2;
            let cost = combined.as_nanos().saturating_sub(base);
            let same = replica(cell.from, Some((at, cell.to)), combined);
            checks.check(
                same && combined == cell.combined && cost == cell.cost.as_nanos(),
                || {
                    format!(
                        "cell {}->{} does not reproduce",
                        cell.from.code(),
                        cell.to.code()
                    )
                },
            );
        }
    }
    (reg.to_json(), dd_ms)
}

/// The traced run: per-layer metrics and the invariance and oracle
/// checks.
fn traced(input: &Input, reference: &Reference) -> (Checks, Vec<Metric>) {
    let mut checks = Checks::default();

    let prep = input.setup(TIMED_LEVEL);
    let t = Instant::now();
    let untraced = checks.run(prep);
    let untraced_wall_s = t.elapsed().as_secs_f64();
    if let Some(out) = &untraced {
        checks.digest(out, input, reference, TIMED_LEVEL);
    }
    drop(untraced);

    prof::set_level(Telemetry::Full);
    prof::reset();
    let prep = input.setup(Telemetry::Full);
    let (t, c) = (Instant::now(), cpu_s());
    let out = {
        let _root = prof::span(ROOT);
        checks.run(prep)
    };
    let traced_wall_s = t.elapsed().as_secs_f64();
    let traced_cpu_s = cpu_s() - c;
    let profile = prof::take();
    prof::set_level(TIMED_LEVEL);
    if let Some(out) = &out {
        checks.digest(out, input, reference, Telemetry::Full);
    }

    let mut dd_run_ms = Vec::new();
    let mut oracle_violations = 0;
    let (sim, sim_runs, distinct_runs, hits, misses) = match &out {
        Some(Output::Shuffle(o)) => (o.metrics.clone(), 1, 1, 0, 0),
        Some(Output::Tune(r)) => {
            let (doc, violations) = replay_tuned_plan(r, &mut checks);
            oracle_violations = violations;
            (
                doc,
                r.cache_misses,
                r.cache_misses,
                r.cache_hits,
                r.cache_misses,
            )
        }
        Some(Output::Switch(m)) => {
            let (doc, ms) = replay_switch_matrix(m, &mut checks);
            dd_run_ms = ms;
            let cells = m.iter().map(Vec::len).sum::<usize>() as u64;
            let distinct = dd_run_ms.len() as u64;
            checks
                .notes
                .push(format!("distinct runs {distinct}/{}", 3 * cells));
            (doc, 3 * cells, distinct, 0, 0)
        }
        None => (Json::Null, 0, 0, 0, 0),
    };
    let metrics = per_layer(&TraceFacts {
        profile: &profile,
        sim: &sim,
        traced_wall_s,
        traced_cpu_s,
        untraced_wall_s,
        sim_runs,
        distinct_runs,
        evalcache_hits: hits,
        evalcache_misses: misses,
        dd_run_ms: &dd_run_ms,
        oracle_violations,
    });
    checks.notes.push(format!(
        "untraced wall {untraced_wall_s:.3} s; traced wall {traced_wall_s:.3} s, cpu {traced_cpu_s:.2} s"
    ));
    (checks, metrics)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{}", workload::pin().to_string());
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let input = args.workload.input(args.seed);
    let reference = Reference::load();
    let calibration = calibration_s();
    let (checks, metrics) = if args.trace {
        traced(&input, &reference)
    } else {
        timed(&input, &reference, args.seconds)
    };

    println!(
        "# {} variant={} seed={} trace={} SIM_THREADS={} calibration_s={calibration:.4}",
        input.workload.name(),
        input.variant,
        args.seed,
        args.trace as u8,
        std::env::var("SIM_THREADS").unwrap_or_default()
    );
    for note in &checks.notes {
        println!("# {note}");
    }
    let mut doc = Json::obj();
    for m in &metrics {
        println!(
            "{:<34} {:>18} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
        doc = doc.field(
            m.name,
            Json::obj().field("value", m.value).field("unit", m.unit),
        );
    }
    let result = Json::obj()
        .field("correct", checks.failed == 0)
        .field("attempted", checks.attempted)
        .field("failed", checks.failed)
        .field("metrics", doc);
    println!("{}", result.to_string());
    if checks.fatal {
        std::process::exit(1);
    }
}

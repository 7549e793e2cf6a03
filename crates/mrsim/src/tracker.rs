//! The JobTracker: block placement, data-local task queues, shuffle
//! availability, and job progress events — plus the [`SlotLedger`] the
//! trackers of concurrent jobs share.
//!
//! Scheduling follows Hadoop 0.19 with the paper's setup: map tasks are
//! data-local (HDFS blocks are spread evenly over the data nodes, each
//! map runs where its block's first replica lives), every VM offers
//! `map_slots_per_vm` + `reduce_slots_per_vm` slots, reducers start as
//! soon as a reduce slot on their VM is free (for a job alone on the
//! cluster: with the job, so shuffle overlaps the map waves), and a
//! reducer can fetch a map's output as soon as that map commits.

use crate::job::{ClusterShape, JobSpec};
use crate::phases::JobPhase;
use crate::plan::TaskId;
use simcore::SimTime;
use std::collections::VecDeque;

/// Task flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Map task.
    Map,
    /// Reduce task.
    Reduce,
}

/// A task assignment to a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The task.
    pub task: TaskId,
    /// Its flavour.
    pub kind: TaskKind,
    /// Global VM index (`node * vms_per_node + local`).
    pub gvm: u32,
}

/// Progress milestones the tracker emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEvent {
    /// Every map task has committed (end of the paper's Ph1).
    MapsAllDone,
    /// One reducer finished fetching all partitions.
    ReduceShuffleDone(TaskId),
    /// Every reducer finished fetching (end of the paper's Ph2).
    ShuffleAllDone,
    /// Every reduce task has committed.
    JobDone,
}

/// Per-VM map/reduce slot accounting shared by every job on the
/// cluster: the single source of truth for placing a task onto a VM.
/// (The trace oracle independently re-derives occupancy from
/// `SlotAcquire`/`SlotRelease` events and checks it against the
/// configured capacities.)
#[derive(Debug, Clone)]
pub struct SlotLedger {
    map_used: Vec<u32>,
    reduce_used: Vec<u32>,
    map_cap: u32,
    reduce_cap: u32,
}

impl SlotLedger {
    /// Empty ledger for a cluster shape.
    pub fn new(shape: &ClusterShape) -> SlotLedger {
        SlotLedger {
            map_used: vec![0; shape.total_vms() as usize],
            reduce_used: vec![0; shape.total_vms() as usize],
            map_cap: shape.map_slots_per_vm,
            reduce_cap: shape.reduce_slots_per_vm,
        }
    }

    /// Occupy one slot on `gvm` if capacity remains; false when full.
    pub fn try_acquire(&mut self, gvm: u32, map: bool) -> bool {
        let (used, cap) = if map {
            (&mut self.map_used[gvm as usize], self.map_cap)
        } else {
            (&mut self.reduce_used[gvm as usize], self.reduce_cap)
        };
        if *used >= cap {
            return false;
        }
        *used += 1;
        true
    }

    /// Release a previously acquired slot.
    pub fn release(&mut self, gvm: u32, map: bool) {
        let used = if map {
            &mut self.map_used[gvm as usize]
        } else {
            &mut self.reduce_used[gvm as usize]
        };
        assert!(*used > 0, "releasing a slot nobody holds (vm {gvm}, map={map})");
        *used -= 1;
    }

    /// Free slots of a kind on one VM.
    pub fn free(&self, gvm: u32, map: bool) -> u32 {
        if map {
            self.map_cap - self.map_used[gvm as usize]
        } else {
            self.reduce_cap - self.reduce_used[gvm as usize]
        }
    }

    /// Occupied slots of a kind, cluster-wide.
    pub fn in_use(&self, map: bool) -> u32 {
        if map {
            self.map_used.iter().sum()
        } else {
            self.reduce_used.iter().sum()
        }
    }
}

/// The job tracker.
pub struct JobTracker {
    shape: ClusterShape,
    num_maps: u32,
    num_reduces: u32,
    /// Offset added to every task id this tracker hands out. Concurrent
    /// jobs on one cluster give each tracker a disjoint base so task
    /// ids never collide across jobs.
    task_base: TaskId,
    /// Per-VM queue of pending (data-local) map tasks.
    pending_maps: Vec<VecDeque<TaskId>>,
    /// Per-VM count of reducers handed out (a VM hosts reduce indices
    /// `gvm * reduce_slots_per_vm ..`, started in index order).
    reduces_started: Vec<u32>,
    maps_done: Vec<bool>,
    maps_done_count: u32,
    /// `fetched[reduce][map]`.
    fetched: Vec<Vec<bool>>,
    fetch_count: Vec<u32>,
    shuffle_done: Vec<bool>,
    shuffle_done_count: u32,
    reduces_done: Vec<bool>,
    reduces_done_count: u32,
    /// When the last map committed.
    pub t_maps_done: Option<SimTime>,
    /// When the last reducer finished fetching.
    pub t_shuffle_done: Option<SimTime>,
    /// When the job committed.
    pub t_job_done: Option<SimTime>,
}

impl JobTracker {
    /// Plan a job on a cluster: places block `b` (and map `b`) on VM
    /// `b % total_vms`, reducer `r` on VM `r / reduce_slots_per_vm`.
    pub fn new(job: &JobSpec, shape: &ClusterShape) -> Self {
        JobTracker::with_task_base(job, shape, 0)
    }

    /// Like [`JobTracker::new`], but every task id is offset by `base`.
    /// Concurrent jobs sharing a cluster each get a disjoint id space
    /// (`base`, `base + num_maps + num_reduces`, …); a base of 0 is
    /// exactly the single-job tracker.
    pub fn with_task_base(job: &JobSpec, shape: &ClusterShape, base: TaskId) -> Self {
        job.validate(shape).expect("invalid job spec");
        let num_maps = job.num_blocks(shape);
        let num_reduces = job.num_reduces(shape);
        let total_vms = shape.total_vms();
        let mut pending_maps = vec![VecDeque::new(); total_vms as usize];
        for b in 0..num_maps {
            pending_maps[(b % total_vms) as usize].push_back(base + b as TaskId);
        }
        JobTracker {
            shape: *shape,
            num_maps,
            num_reduces,
            task_base: base,
            pending_maps,
            reduces_started: vec![0; total_vms as usize],
            maps_done: vec![false; num_maps as usize],
            maps_done_count: 0,
            fetched: vec![vec![false; num_maps as usize]; num_reduces as usize],
            fetch_count: vec![0; num_reduces as usize],
            shuffle_done: vec![false; num_reduces as usize],
            shuffle_done_count: 0,
            reduces_done: vec![false; num_reduces as usize],
            reduces_done_count: 0,
            t_maps_done: None,
            t_shuffle_done: None,
            t_job_done: None,
        }
    }

    /// Total map tasks.
    pub fn num_maps(&self) -> u32 {
        self.num_maps
    }

    /// Total reduce tasks.
    pub fn num_reduces(&self) -> u32 {
        self.num_reduces
    }

    /// The base of this tracker's task-id space.
    pub fn task_base(&self) -> TaskId {
        self.task_base
    }

    /// The VM hosting block `b`'s first replica (and its map task).
    pub fn block_home(&self, block: u32) -> u32 {
        block % self.shape.total_vms()
    }

    /// The block a map task id processes.
    pub fn map_block(&self, task: TaskId) -> u32 {
        debug_assert!(task >= self.task_base && task < self.task_base + self.num_maps);
        task - self.task_base
    }

    /// The VM a map task id runs on (its block's home).
    pub fn map_home(&self, task: TaskId) -> u32 {
        self.block_home(self.map_block(task))
    }

    /// The VM a reduce task runs on.
    pub fn reduce_home(&self, reduce_idx: u32) -> u32 {
        reduce_idx / self.shape.reduce_slots_per_vm
    }

    /// Global task id of reduce index `r`.
    pub fn reduce_task_id(&self, r: u32) -> TaskId {
        self.task_base + self.num_maps + r
    }

    /// Reduce index of a reduce task id.
    pub fn reduce_index(&self, task: TaskId) -> u32 {
        debug_assert!(task >= self.task_base + self.num_maps);
        task - self.task_base - self.num_maps
    }

    /// Pull one pending data-local map for VM `gvm`.
    pub fn pop_local_map(&mut self, gvm: u32) -> Option<Assignment> {
        let task = self.pending_maps[gvm as usize].pop_front()?;
        Some(Assignment {
            task,
            kind: TaskKind::Map,
            gvm,
        })
    }

    /// Hand out the next not-yet-started reducer homed on VM `gvm`, in
    /// reduce-index order.
    pub fn pop_local_reduce(&mut self, gvm: u32) -> Option<Assignment> {
        let per_vm = self.shape.reduce_slots_per_vm;
        let started = &mut self.reduces_started[gvm as usize];
        let r = gvm * per_vm + *started;
        if *started == per_vm || r >= self.num_reduces {
            return None;
        }
        *started += 1;
        Some(Assignment {
            task: self.reduce_task_id(r),
            kind: TaskKind::Reduce,
            gvm,
        })
    }

    /// A map committed: its output becomes fetchable.
    pub fn on_map_done(&mut self, map: TaskId, now: SimTime) -> Vec<JobEvent> {
        let m = self.map_block(map);
        assert!(!self.maps_done[m as usize], "map {map} finished twice");
        self.maps_done[m as usize] = true;
        self.maps_done_count += 1;
        if self.maps_done_count == self.num_maps {
            self.t_maps_done = Some(now);
            vec![JobEvent::MapsAllDone]
        } else {
            Vec::new()
        }
    }

    /// Maps whose output reduce index `r` can fetch right now (done,
    /// not yet fetched).
    pub fn available_fetches(&self, r: u32) -> Vec<TaskId> {
        (0..self.num_maps)
            .filter(|&m| self.maps_done[m as usize] && !self.fetched[r as usize][m as usize])
            .map(|m| self.task_base + m)
            .collect()
    }

    /// Record that reduce index `r` finished fetching map `m`'s output.
    pub fn on_fetch_complete(&mut self, r: u32, m: TaskId, now: SimTime) -> Vec<JobEvent> {
        let m = self.map_block(m);
        assert!(
            self.maps_done[m as usize],
            "fetched output of unfinished map {m}"
        );
        assert!(
            !self.fetched[r as usize][m as usize],
            "reduce {r} fetched map {m} twice"
        );
        self.fetched[r as usize][m as usize] = true;
        self.fetch_count[r as usize] += 1;
        let mut events = Vec::new();
        if self.fetch_count[r as usize] == self.num_maps {
            self.shuffle_done[r as usize] = true;
            self.shuffle_done_count += 1;
            events.push(JobEvent::ReduceShuffleDone(self.reduce_task_id(r)));
            if self.shuffle_done_count == self.num_reduces {
                self.t_shuffle_done = Some(now);
                events.push(JobEvent::ShuffleAllDone);
            }
        }
        events
    }

    /// True once reduce index `r` fetched every partition.
    pub fn reduce_shuffle_complete(&self, r: u32) -> bool {
        self.shuffle_done[r as usize]
    }

    /// A reduce task committed.
    pub fn on_reduce_done(&mut self, task: TaskId, now: SimTime) -> Vec<JobEvent> {
        let r = self.reduce_index(task) as usize;
        assert!(!self.reduces_done[r], "reduce {task} finished twice");
        self.reduces_done[r] = true;
        self.reduces_done_count += 1;
        if self.reduces_done_count == self.num_reduces {
            self.t_job_done = Some(now);
            vec![JobEvent::JobDone]
        } else {
            Vec::new()
        }
    }

    /// Completed map count (progress reporting).
    pub fn maps_done_count(&self) -> u32 {
        self.maps_done_count
    }

    /// Completed reduce count (progress reporting).
    pub fn reduces_done_count(&self) -> u32 {
        self.reduces_done_count
    }

    /// True when the job has fully committed.
    pub fn finished(&self) -> bool {
        self.reduces_done_count == self.num_reduces
    }

    /// The paper phase the job is in: Ph1 until every map committed,
    /// Ph2 until every reducer fetched, Ph3 after.
    pub fn phase(&self) -> JobPhase {
        if self.t_maps_done.is_none() {
            JobPhase::Ph1
        } else if self.t_shuffle_done.is_none() {
            JobPhase::Ph2
        } else {
            JobPhase::Ph3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn setup() -> (JobSpec, ClusterShape, JobTracker) {
        let job = JobSpec::new(WorkloadSpec::sort());
        let shape = ClusterShape::default();
        let t = JobTracker::new(&job, &shape);
        (job, shape, t)
    }

    /// A job alone on an empty ledger: every map slot filled from its
    /// VM's local queue, then every reducer started on its home VM.
    fn first_wave(t: &mut JobTracker, ledger: &mut SlotLedger, shape: &ClusterShape) -> Vec<Assignment> {
        let mut out = Vec::new();
        for map in [true, false] {
            for gvm in 0..shape.total_vms() {
                while ledger.free(gvm, map) > 0 {
                    let next = if map { t.pop_local_map(gvm) } else { t.pop_local_reduce(gvm) };
                    let Some(a) = next else { break };
                    assert!(ledger.try_acquire(gvm, map));
                    out.push(a);
                }
            }
        }
        out
    }

    #[test]
    fn first_wave_fills_slots() {
        let (_, shape, mut t) = setup();
        let mut ledger = SlotLedger::new(&shape);
        let a = first_wave(&mut t, &mut ledger, &shape);
        let maps = a.iter().filter(|x| x.kind == TaskKind::Map).count();
        let reduces: Vec<u32> = a
            .iter()
            .filter(|x| x.kind == TaskKind::Reduce)
            .map(|x| t.reduce_index(x.task))
            .collect();
        assert_eq!(maps, shape.total_map_slots() as usize);
        assert_eq!(reduces, (0..t.num_reduces()).collect::<Vec<_>>(), "index order");
        assert_eq!(ledger.in_use(true), shape.total_map_slots());
        assert_eq!(ledger.in_use(false), shape.total_reduce_slots());
        // Every task is local to the slot it got.
        for x in &a {
            match x.kind {
                TaskKind::Map => assert_eq!(x.gvm, t.map_home(x.task)),
                TaskKind::Reduce => assert_eq!(x.gvm, t.reduce_home(t.reduce_index(x.task))),
            }
        }
    }

    #[test]
    fn waves_progress_and_maps_done_event() {
        let (_, shape, mut t) = setup();
        let mut ledger = SlotLedger::new(&shape);
        let mut running: Vec<TaskId> = first_wave(&mut t, &mut ledger, &shape)
            .iter()
            .filter(|a| a.kind == TaskKind::Map)
            .map(|a| a.task)
            .collect();
        let mut done = 0;
        let mut now = SimTime::ZERO;
        let mut saw_maps_done = false;
        while let Some(m) = running.pop() {
            now += simcore::SimDuration::from_secs(1);
            let events = t.on_map_done(m, now);
            done += 1;
            // The freed slot refills from the same VM's queue.
            let gvm = t.map_home(m);
            ledger.release(gvm, true);
            if let Some(a) = t.pop_local_map(gvm) {
                assert!(ledger.try_acquire(gvm, true));
                assert_eq!(a.kind, TaskKind::Map);
                running.push(a.task);
            }
            if events.contains(&JobEvent::MapsAllDone) {
                saw_maps_done = true;
                assert_eq!(done, t.num_maps());
            }
        }
        assert!(saw_maps_done);
        assert_eq!(t.maps_done_count(), t.num_maps());
        assert_eq!(t.t_maps_done, Some(now));
        assert_eq!(t.phase(), JobPhase::Ph2);
    }

    #[test]
    fn shuffle_completion_events() {
        let (_, _, mut t) = setup();
        let now = SimTime::from_secs(1);
        assert_eq!(t.phase(), JobPhase::Ph1);
        for m in 0..t.num_maps() {
            t.on_map_done(m, now);
        }
        assert_eq!(t.available_fetches(0).len(), t.num_maps() as usize);
        // Reduce 0 fetches everything.
        let mut saw_rsd = false;
        for m in 0..t.num_maps() {
            let ev = t.on_fetch_complete(0, m, now);
            if m + 1 == t.num_maps() {
                assert!(ev.contains(&JobEvent::ReduceShuffleDone(t.reduce_task_id(0))));
                saw_rsd = true;
            } else {
                assert!(ev.is_empty());
            }
        }
        assert!(saw_rsd);
        assert!(t.reduce_shuffle_complete(0));
        assert!(!t.reduce_shuffle_complete(1));
        // Remaining reducers fetch: the last one triggers ShuffleAllDone.
        let mut saw_all = false;
        for r in 1..t.num_reduces() {
            for m in 0..t.num_maps() {
                let ev = t.on_fetch_complete(r, m, now);
                if ev.contains(&JobEvent::ShuffleAllDone) {
                    saw_all = true;
                    assert_eq!(r, t.num_reduces() - 1);
                }
            }
        }
        assert!(saw_all);
        assert_eq!(t.t_shuffle_done, Some(now));
        assert_eq!(t.phase(), JobPhase::Ph3);
    }

    #[test]
    fn job_done_event() {
        let (_, _, mut t) = setup();
        let now = SimTime::from_secs(9);
        let mut saw = false;
        for r in 0..t.num_reduces() {
            let ev = t.on_reduce_done(t.reduce_task_id(r), now);
            if ev.contains(&JobEvent::JobDone) {
                saw = true;
                assert_eq!(r, t.num_reduces() - 1);
            }
        }
        assert!(saw);
        assert!(t.finished());
        assert_eq!(t.t_job_done, Some(now));
    }

    #[test]
    fn reduce_placement_two_per_vm() {
        let (_, shape, t) = setup();
        let mut per_vm = vec![0u32; shape.total_vms() as usize];
        for r in 0..t.num_reduces() {
            per_vm[t.reduce_home(r) as usize] += 1;
        }
        assert!(per_vm.iter().all(|&c| c == shape.reduce_slots_per_vm));
    }

    /// A based tracker is the base-0 tracker with every task id
    /// shifted: same placement, same events, disjoint id space.
    #[test]
    fn task_base_offsets_every_id() {
        let job = JobSpec::new(WorkloadSpec::sort());
        let shape = ClusterShape::default();
        let base: TaskId = 1000;
        let mut plain = JobTracker::new(&job, &shape);
        let mut offset = JobTracker::with_task_base(&job, &shape, base);
        assert_eq!(offset.task_base(), base);
        let a0 = first_wave(&mut plain, &mut SlotLedger::new(&shape), &shape);
        let a1 = first_wave(&mut offset, &mut SlotLedger::new(&shape), &shape);
        assert_eq!(a0.len(), a1.len());
        for (x, y) in a0.iter().zip(&a1) {
            assert_eq!(y.task, x.task + base);
            assert_eq!(y.gvm, x.gvm);
            assert_eq!(y.kind, x.kind);
            if x.kind == TaskKind::Map {
                assert_eq!(offset.map_block(y.task), plain.map_block(x.task), "same blocks");
            }
        }
        // Lifecycle with offset ids round-trips.
        let m = a1.iter().find(|a| a.kind == TaskKind::Map).unwrap().task;
        offset.on_map_done(m, SimTime::from_secs(1));
        assert_eq!(offset.map_home(m), a1[0].gvm);
        assert!(offset.available_fetches(0).contains(&m));
        offset.on_fetch_complete(0, m, SimTime::from_secs(2));
        assert_eq!(offset.reduce_index(offset.reduce_task_id(3)), 3);
    }

    /// Slot-at-a-time pulls stay data-local, hand every map and every
    /// reducer out exactly once, and run dry afterwards.
    #[test]
    fn local_pulls_hand_out_every_task_once() {
        let job = JobSpec::new(WorkloadSpec::sort());
        let shape = ClusterShape::default();
        let mut t = JobTracker::new(&job, &shape);
        let mut maps = 0;
        let mut reduces = 0;
        for gvm in 0..shape.total_vms() {
            while let Some(a) = t.pop_local_map(gvm) {
                assert_eq!(t.map_home(a.task), gvm);
                maps += 1;
            }
            while let Some(r) = t.pop_local_reduce(gvm) {
                assert_eq!(r.kind, TaskKind::Reduce);
                assert_eq!(t.reduce_home(t.reduce_index(r.task)), gvm);
                reduces += 1;
            }
        }
        assert_eq!(maps, t.num_maps());
        assert_eq!(reduces, t.num_reduces());
    }

    /// Under randomized acquire/release sequences the ledger never
    /// exceeds capacity and never goes negative.
    #[test]
    fn slot_ledger_never_oversubscribes_under_random_traffic() {
        let shape = ClusterShape::default();
        let mut ledger = SlotLedger::new(&shape);
        let mut rng = simcore::SimRng::from_seed(2024).split("ledger.test");
        let mut held: Vec<(u32, bool)> = Vec::new();
        for _ in 0..20_000 {
            let gvm = rng.range_u64(0, shape.total_vms() as u64) as u32;
            let map = rng.range_u64(0, 2) == 0;
            if rng.range_u64(0, 3) < 2 {
                if ledger.try_acquire(gvm, map) {
                    held.push((gvm, map));
                }
            } else if !held.is_empty() {
                let i = rng.range_u64(0, held.len() as u64) as usize;
                let (g, m) = held.swap_remove(i);
                ledger.release(g, m);
            }
            for g in 0..shape.total_vms() {
                assert!(ledger.free(g, true) <= shape.map_slots_per_vm, "map free over cap on vm {g}");
                assert!(
                    ledger.free(g, false) <= shape.reduce_slots_per_vm,
                    "reduce free over cap on vm {g}"
                );
            }
            let used: u32 = held.iter().filter(|&&(_, m)| m).count() as u32;
            assert_eq!(ledger.in_use(true), used, "ledger disagrees with shadow");
        }
        // Saturate one VM: the next acquire must refuse.
        let mut l2 = SlotLedger::new(&shape);
        for _ in 0..shape.map_slots_per_vm {
            assert!(l2.try_acquire(0, true));
        }
        assert!(!l2.try_acquire(0, true), "acquire beyond capacity must fail");
    }

    #[test]
    #[should_panic(expected = "finished twice")]
    fn double_completion_rejected() {
        let (_, _, mut t) = setup();
        t.on_map_done(0, SimTime::ZERO);
        t.on_map_done(0, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "unfinished map")]
    fn premature_fetch_rejected() {
        let (_, _, mut t) = setup();
        t.on_fetch_complete(0, 5, SimTime::ZERO);
    }
}

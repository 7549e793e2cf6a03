//! Per-layer metrics of the traced run, read from the span profile
//! (`simcore::prof::take()`) and from `adios.metrics/2` sections.

use simcore::prof::Profile;
use simcore::Json;
use std::collections::BTreeMap;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Span calls and counters of a profile, summed by name over the
/// whole tree, and self-time by subsystem.
struct Spans {
    calls: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
    self_ns: BTreeMap<String, u64>,
}

impl Spans {
    fn of(profile: &Profile) -> Spans {
        let mut s = Spans {
            calls: BTreeMap::new(),
            counters: BTreeMap::new(),
            self_ns: profile.subsystem_self_ns().into_iter().collect(),
        };
        let doc = profile.to_json();
        for node in doc.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            s.walk(node);
        }
        s
    }

    fn walk(&mut self, node: &Json) {
        let name = node.get("name").and_then(Json::as_str).unwrap_or("");
        *self.calls.entry(name.to_string()).or_default() += int(node.get("calls"));
        for (k, v) in node.get("counters").and_then(Json::entries).unwrap_or(&[]) {
            *self.counters.entry(k.clone()).or_default() += int(Some(v));
        }
        for child in node.get("children").and_then(Json::as_arr).unwrap_or(&[]) {
            self.walk(child);
        }
    }

    fn calls(&self, span: &str) -> f64 {
        self.calls.get(span).copied().unwrap_or(0) as f64
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn self_s(&self, subsystem: &str) -> f64 {
        self.self_ns.get(subsystem).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Self-time of every layer span, i.e. all but the benchmark's root.
    fn layers_s(&self) -> f64 {
        self.self_ns
            .iter()
            .filter(|(k, _)| *k != ROOT)
            .map(|(_, &ns)| ns as f64 * 1e-9)
            .sum()
    }
}

/// Subsystem of the root span the benchmark opens around the traced
/// call.
pub const ROOT: &str = "unattributed";

fn int(j: Option<&Json>) -> u64 {
    j.and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// `a / b`, 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A numeric field of an `adios.metrics/2` section (0 when absent, as
/// for the sections a workload has no layer for).
fn sim(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Total simulated drain time of one elevator level.
fn drain_total(doc: &Json, level: &str) -> f64 {
    sim(doc, &[level, "drain_s", "count"]) * sim(doc, &[level, "drain_s", "mean"])
}

fn merge_ratio(doc: &Json, level: &str) -> f64 {
    ratio(
        sim(doc, &[level, "merges_back"]) + sim(doc, &[level, "merges_front"]),
        sim(doc, &[level, "arrivals"]),
    )
}

/// Nearest-rank percentile of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// What the traced run measured, besides the profile.
pub struct TraceFacts<'a> {
    pub profile: &'a Profile,
    /// `adios.metrics/2` sections of the workload's simulated layers.
    pub sim: &'a Json,
    pub traced_wall_s: f64,
    /// Process CPU seconds of the traced call, all threads.
    pub traced_cpu_s: f64,
    pub untraced_wall_s: f64,
    /// Simulation runs the workload's call made, and how many of them
    /// had distinct inputs.
    pub sim_runs: u64,
    pub distinct_runs: u64,
    pub evalcache_hits: u64,
    pub evalcache_misses: u64,
    /// Host time of each timed `DdConfig` call, ms (`switch_matrix`).
    pub dd_run_ms: &'a [f64],
    /// Strict `TraceOracle` violations of the replayed run (`tune_4x4`).
    pub oracle_violations: u64,
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(f: &TraceFacts) -> Vec<Metric> {
    let s = Spans::of(f.profile);
    let d = f.sim;
    // Host time of the traced call: its CPU time over all threads, or
    // its wall time when one thread is busy throughout (CPU time is
    // counted in 10 ms ticks and can fall just short of it).
    let host_s = f.traced_cpu_s.max(f.traced_wall_s);
    // Host time no layer span covers. blkdev and mrsim have no spans:
    // their host time is here or inside the enclosing vmstack /
    // vcluster span, never a layer of its own.
    let unattributed_s = (host_s - s.layers_s()).max(0.0);
    let share = |self_s: f64| ratio(100.0 * self_s, host_s);
    let m = metric;
    vec![
        m("evq.events", s.counter("events"), "count"),
        m("evq.self_s", s.self_s("evq"), "host_s"),
        m("evq.pop_batch_calls", s.calls("evq.pop_batch"), "count"),
        m("net.self_s", s.self_s("net"), "host_s"),
        m("net.share", share(s.self_s("net")), "%"),
        m("net.solve_calls", s.calls("net.solve"), "count"),
        m("net.bfs_calls", s.calls("net.bfs"), "count"),
        m(
            "net.flows_changed_per_solve",
            ratio(s.counter("flows_changed"), s.calls("net.solve")),
            "ratio",
        ),
        m("net.flows", sim(d, &["network", "flows"]), "count"),
        m("net.bytes", sim(d, &["network", "bytes"]), "bytes"),
        m("vcluster.self_s", s.self_s("vcluster"), "host_s"),
        m("vcluster.batch_calls", s.calls("vcluster.batch"), "count"),
        m(
            "vcluster.cpu_event_calls",
            s.calls("vcluster.cpu_event"),
            "count",
        ),
        m(
            "vcluster.cache_hit_ratio",
            ratio(
                sim(d, &["cache", "hits"]),
                sim(d, &["cache", "hits"]) + sim(d, &["cache", "misses"]),
            ),
            "ratio",
        ),
        m("vmstack.self_s", s.self_s("vmstack"), "host_s"),
        m("vmstack.handle_calls", s.calls("vmstack.handle"), "count"),
        m("vmstack.submit_calls", s.calls("vmstack.submit"), "count"),
        m("vmstack.switch_calls", s.calls("vmstack.switch"), "count"),
        m(
            "vmstack.dd_run_ms_p50",
            percentile(f.dd_run_ms, 50.0),
            "host_ms",
        ),
        m(
            "vmstack.dd_run_ms_p90",
            percentile(f.dd_run_ms, 90.0),
            "host_ms",
        ),
        m(
            "vmstack.drain_s",
            drain_total(d, "dom0_elevator") + drain_total(d, "guest_elevator"),
            "sim_s",
        ),
        m(
            "vmstack.freeze_s",
            sim(d, &["dom0_elevator", "freeze_s"]) + sim(d, &["guest_elevator", "freeze_s"]),
            "sim_s",
        ),
        m(
            "vmstack.ring_occupancy_mean",
            sim(d, &["ring", "occupancy", "mean"]),
            "slots",
        ),
        m("iosched.self_s", s.self_s("iosched"), "host_s"),
        m("iosched.add_calls", s.calls("iosched.add"), "count"),
        m(
            "iosched.dispatch_calls",
            s.calls("iosched.dispatch"),
            "count",
        ),
        m(
            "iosched.merge_ratio",
            ratio(s.counter("merged"), s.calls("iosched.add")),
            "ratio",
        ),
        m(
            "iosched.dom0_merge_ratio",
            merge_ratio(d, "dom0_elevator"),
            "ratio",
        ),
        m(
            "iosched.guest_merge_ratio",
            merge_ratio(d, "guest_elevator"),
            "ratio",
        ),
        m(
            "iosched.dom0_qdepth_mean",
            sim(d, &["dom0_elevator", "queue_depth", "mean"]),
            "requests",
        ),
        m("blkdev.requests", sim(d, &["disk", "requests"]), "count"),
        m(
            "blkdev.seq_ratio",
            ratio(
                sim(d, &["disk", "sequential_requests"]),
                sim(d, &["disk", "requests"]),
            ),
            "ratio",
        ),
        m("blkdev.seek_s", sim(d, &["disk", "seek_s"]), "sim_s"),
        m("blkdev.busy_s", sim(d, &["disk", "busy_s"]), "sim_s"),
        m("mrsim.ph1_s", sim(d, &["phases", "ph1_s"]), "sim_s"),
        m("mrsim.ph2_s", sim(d, &["phases", "ph2_s"]), "sim_s"),
        m("mrsim.ph3_s", sim(d, &["phases", "ph3_s"]), "sim_s"),
        m(
            "mrsim.non_concurrent_shuffle_pct",
            sim(d, &["phases", "non_concurrent_shuffle_pct"]),
            "%",
        ),
        m("metasched.self_s", s.self_s("metasched"), "host_s"),
        m("metasched.sim_runs", f.sim_runs as f64, "count"),
        m(
            "metasched.evalcache_hit_ratio",
            ratio(
                f.evalcache_hits as f64,
                (f.evalcache_hits + f.evalcache_misses) as f64,
            ),
            "ratio",
        ),
        m(
            "metasched.distinct_run_ratio",
            ratio(f.distinct_runs as f64, f.sim_runs as f64),
            "ratio",
        ),
        m("oracle.violations", f.oracle_violations as f64, "count"),
        m("unattributed.self_s", unattributed_s, "host_s"),
        m("unattributed.share", share(unattributed_s), "%"),
        m(
            "trace.overhead_pct",
            100.0 * (ratio(f.traced_wall_s, f.untraced_wall_s) - 1.0),
            "%",
        ),
    ]
}

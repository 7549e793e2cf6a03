//! Multi-job cluster service: open-loop tenant job streams on the real
//! cluster stack.
//!
//! Every single-job entry point simulates one job on an idle cluster.
//! The paper's adaptive case (Fig. 7 / Table I) is about elevators that
//! see interleaved streams, which only sustained concurrent traffic
//! produces: overlapping jobs put the cluster in a *mixed* phase state
//! no single-job phase plan describes. This module drives that regime:
//!
//! * an **arrival stream** ([`ArrivalSpec`]): Poisson interarrivals via
//!   [`SimRng::exponential`] or an explicit `adios.jobs/1` trace file
//!   parsed with [`simcore::Json`];
//! * a **tenant mix** ([`TenantMix`]): weighted workload classes, each
//!   a full [`JobSpec`];
//! * [`run_service`], a thin wrapper over [`ClusterSim::stream`]: the
//!   jobs run on the one cluster event loop, their tasks share the
//!   VMs' map/reduce slots ([`mrsim::SlotLedger`]), and their I/O
//!   interleaves in the guest and Dom0 elevators. A static baseline is
//!   one pair for the whole run; an adaptive one attaches an
//!   [`OnlinePolicy`] that reads the live [`crate::PhaseMix`] and whose
//!   switches pay the real drain and re-init.
//!
//! The cluster trace carries the multi-job `Job*`/`Slot*` events that
//! [`simcore::TraceOracle`] checks for lifecycle order, slot
//! oversubscription and per-job byte conservation. Results export as a
//! schema-bumped `adios.metrics/3` document, byte-identical across
//! `SIM_THREADS`.

use crate::driver::{ClusterParams, ClusterSim, OnlinePolicy, StreamJob};
use iosched::SchedPair;
use mrsim::{JobSpec, WorkloadSpec};
use simcore::{Json, MetricsRegistry, SampleSet, SimDuration, SimRng, SimTime};
use vmstack::JobAttribution;

// ---------------------------------------------------------------------
// Tenants
// ---------------------------------------------------------------------

/// One tenant class: a named workload with an arrival weight.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Display name (also the key trace files reference).
    pub name: String,
    /// The job every arrival of this tenant runs.
    pub job: JobSpec,
    /// Relative arrival weight within the mix.
    pub weight: u32,
}

/// A weighted set of tenant classes.
#[derive(Debug, Clone)]
pub struct TenantMix {
    /// The classes, in declaration order (index = tenant id).
    pub tenants: Vec<Tenant>,
}

impl TenantMix {
    /// Parse a `name:weight,name:weight` mix string, e.g.
    /// `sort:2,wordcount:1,wordcount-nc:1`. Recognized names are the
    /// CLI workload names (`sort`, `wordcount`/`wc`,
    /// `wordcount-nc`/`wc-nc`); the weight defaults to 1.
    pub fn parse(s: &str, data_per_vm_bytes: u64) -> Result<TenantMix, String> {
        let mut tenants = Vec::new();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (name, weight) = match part.split_once(':') {
                Some((n, w)) => (
                    n.trim(),
                    w.trim()
                        .parse::<u32>()
                        .map_err(|e| format!("bad weight in {part:?}: {e}"))?,
                ),
                None => (part.trim(), 1),
            };
            if weight == 0 {
                return Err(format!("tenant {name:?} has zero weight"));
            }
            let workload = match name {
                "sort" => WorkloadSpec::sort(),
                "wordcount" | "wc" => WorkloadSpec::wordcount(),
                "wordcount-nc" | "wc-nc" => WorkloadSpec::wordcount_no_combiner(),
                other => return Err(format!("unknown workload {other:?}")),
            };
            let job = JobSpec { data_per_vm_bytes, ..JobSpec::new(workload) };
            tenants.push(Tenant { name: name.to_string(), job, weight });
        }
        if tenants.is_empty() {
            return Err("empty tenant mix".to_string());
        }
        Ok(TenantMix { tenants })
    }

    fn total_weight(&self) -> u64 {
        self.tenants.iter().map(|t| t.weight as u64).sum()
    }
}

// ---------------------------------------------------------------------
// Arrival streams
// ---------------------------------------------------------------------

/// How jobs enter the service.
#[derive(Debug, Clone)]
pub enum ArrivalSpec {
    /// Open-loop Poisson stream at a fixed mean rate; tenants drawn by
    /// mix weight. Fully determined by the service seed.
    Poisson {
        /// Mean arrival rate, jobs per minute.
        rate_per_min: f64,
    },
    /// An explicit schedule of `(time, tenant index)` arrivals (from an
    /// `adios.jobs/1` trace file).
    Trace(Vec<(SimTime, usize)>),
}

/// Deterministic Poisson arrival instants over `[0, duration)`.
/// Interarrival gaps are `Exp(60 / rate_per_min seconds)` drawn from a
/// stream split off `seed`, so equal seeds give byte-equal streams.
pub fn poisson_arrivals(rate_per_min: f64, duration: SimDuration, seed: u64) -> Vec<SimTime> {
    assert!(rate_per_min > 0.0, "arrival rate must be positive");
    let mut rng = SimRng::from_seed(seed).split("jobs.arrivals");
    let mean_gap_s = 60.0 / rate_per_min;
    let horizon = duration.as_secs_f64();
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(mean_gap_s);
        if t >= horizon {
            return out;
        }
        out.push(SimTime::ZERO + SimDuration::from_secs_f64(t));
    }
}

impl ArrivalSpec {
    /// Materialize the stream: sorted `(arrival time, tenant index)`
    /// pairs over `[0, duration)`.
    pub fn generate(
        &self,
        mix: &TenantMix,
        duration: SimDuration,
        seed: u64,
    ) -> Vec<(SimTime, usize)> {
        match self {
            ArrivalSpec::Poisson { rate_per_min } => {
                let times = poisson_arrivals(*rate_per_min, duration, seed);
                let mut pick = SimRng::from_seed(seed).split("jobs.tenants");
                let total = mix.total_weight();
                times
                    .into_iter()
                    .map(|t| {
                        let mut roll = pick.range_u64(0, total);
                        let mut idx = 0usize;
                        for (i, tn) in mix.tenants.iter().enumerate() {
                            if roll < tn.weight as u64 {
                                idx = i;
                                break;
                            }
                            roll -= tn.weight as u64;
                        }
                        (t, idx)
                    })
                    .collect()
            }
            ArrivalSpec::Trace(arrivals) => {
                let mut out: Vec<(SimTime, usize)> = arrivals
                    .iter()
                    .filter(|(t, _)| *t < SimTime::ZERO + duration)
                    .cloned()
                    .collect();
                out.sort_by_key(|&(t, i)| (t, i));
                out
            }
        }
    }

    /// Parse an `adios.jobs/1` trace document:
    ///
    /// ```json
    /// {"schema": "adios.jobs/1",
    ///  "arrivals": [{"t_s": 1.5, "tenant": "sort"}, …]}
    /// ```
    ///
    /// Tenant names must appear in `mix`.
    pub fn parse_trace(doc: &Json, mix: &TenantMix) -> Result<ArrivalSpec, String> {
        match doc.get("schema").and_then(|s| s.as_str()) {
            Some("adios.jobs/1") => {}
            other => return Err(format!("expected schema adios.jobs/1, got {other:?}")),
        }
        let arr = doc
            .get("arrivals")
            .and_then(|a| a.as_arr())
            .ok_or("missing arrivals array")?;
        let mut out = Vec::with_capacity(arr.len());
        for (i, e) in arr.iter().enumerate() {
            let t = e
                .get("t_s")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("arrival {i}: missing t_s"))?;
            if !(t.is_finite() && t >= 0.0) {
                return Err(format!("arrival {i}: bad t_s {t}"));
            }
            let name = e
                .get("tenant")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("arrival {i}: missing tenant"))?;
            let idx = mix
                .tenants
                .iter()
                .position(|tn| tn.name == name)
                .ok_or_else(|| format!("arrival {i}: unknown tenant {name:?}"))?;
            out.push((SimTime::ZERO + SimDuration::from_secs_f64(t), idx));
        }
        Ok(ArrivalSpec::Trace(out))
    }
}

// ---------------------------------------------------------------------
// The service run
// ---------------------------------------------------------------------

/// Knobs of a service run (the cluster itself comes from
/// [`ClusterParams`]).
#[derive(Debug, Clone)]
pub struct ServiceParams {
    /// Open-loop arrival window; jobs arriving before this horizon all
    /// run to completion (the run itself extends past it).
    pub duration: SimDuration,
    /// Master seed for the arrival and tenant-choice streams.
    pub seed: u64,
    /// How often an attached policy is consulted.
    pub retune_period: SimDuration,
    /// Admission cap: jobs beyond this many running wait in a FIFO.
    pub max_concurrent: u32,
}

impl Default for ServiceParams {
    fn default() -> Self {
        ServiceParams {
            duration: SimDuration::from_secs(300),
            seed: 42,
            retune_period: SimDuration::from_secs(5),
            max_concurrent: 8,
        }
    }
}

/// Everything one service run produces.
pub struct ServiceOutcome {
    /// The `adios.metrics/3` document (deterministic bytes).
    pub metrics: Json,
    /// Combined digest of the cluster and node traces.
    pub trace_digest: u64,
    /// Jobs that arrived inside the window.
    pub arrivals: u64,
    /// Jobs that ran to completion (all of them, open-loop).
    pub completed: u64,
    /// Last job completion instant.
    pub makespan: SimDuration,
    /// Mean job sojourn time, seconds.
    pub mean_latency_s: f64,
    /// Median job sojourn time, seconds.
    pub p50_latency_s: f64,
    /// 99th-percentile job sojourn time, seconds.
    pub p99_latency_s: f64,
    /// Completed jobs per minute of makespan.
    pub throughput_jpm: f64,
    /// Busy map-slot fraction over the makespan.
    pub map_slot_util: f64,
    /// Busy reduce-slot fraction over the makespan.
    pub reduce_slot_util: f64,
    /// Pair switches the policy decided.
    pub switches: u32,
    /// Policy consultations.
    pub retunes: u32,
    /// The finished simulation: traces, flight dump, oracle replay.
    pub sim: ClusterSim,
}

/// Run the multi-job service to completion on the cluster stack: every
/// arrival inside `sp.duration` is admitted (FIFO beyond the
/// concurrency cap) and runs with `pair` installed, or under `policy`,
/// consulted every `sp.retune_period` (it starts from `pair`).
pub fn run_service(
    params: &ClusterParams,
    sp: &ServiceParams,
    mix: &TenantMix,
    arrivals: &ArrivalSpec,
    pair: SchedPair,
    policy: Option<Box<dyn OnlinePolicy>>,
) -> ServiceOutcome {
    let shape = params.shape;
    let jobs: Vec<StreamJob> = arrivals
        .generate(mix, sp.duration, sp.seed)
        .into_iter()
        .map(|(at, tenant)| StreamJob { at, tenant, job: mix.tenants[tenant].job.clone() })
        .collect();
    let mut sim =
        ClusterSim::stream(params.clone(), jobs, mix.tenants.len(), sp.max_concurrent, pair);
    let policy_name = match &policy {
        Some(p) => p.name(),
        None => format!("fixed:{pair}"),
    };
    if let Some(p) = policy {
        sim.set_online_policy(p, sp.retune_period);
    }
    let out = sim.run_stream();

    let mut latencies = SampleSet::new();
    let mut per_tenant = vec![(0u64, 0.0f64); mix.tenants.len()];
    let mut attrib = JobAttribution::new();
    let mut last_completion = SimTime::ZERO;
    for (id, &(tenant, arrived, done)) in out.jobs.iter().enumerate() {
        let sojourn = done.saturating_since(arrived).as_secs_f64();
        latencies.record(sojourn);
        let t = &mut per_tenant[tenant];
        *t = (t.0 + 1, t.1 + sojourn);
        last_completion = last_completion.max(done);
        let job = &mix.tenants[tenant].job;
        for _ in 0..job.num_blocks(&shape) {
            attrib.charge_read(id as u64, job.block_bytes);
        }
        for _ in 0..job.num_reduces(&shape) {
            attrib.charge_write(id as u64, job.output_per_reduce(&shape));
        }
    }
    // Every arrival runs to completion.
    let completed = out.jobs.len() as u64;
    let makespan = last_completion.saturating_since(SimTime::ZERO);
    let makespan_s = makespan.as_secs_f64();
    let q = |p: f64| latencies.quantile(p).unwrap_or(0.0);
    let mean_latency_s = latencies.mean().unwrap_or(0.0);
    // Rates over the makespan (an empty window has none).
    let per_s = |x: f64| if makespan_s > 0.0 { x / makespan_s } else { 0.0 };
    let throughput_jpm = per_s(completed as f64 * 60.0);
    let slot_util = |busy: SimDuration, cap: u32| per_s(busy.as_secs_f64() / cap as f64);
    let map_slot_util = slot_util(out.slot_busy[0], shape.total_map_slots());
    let reduce_slot_util = slot_util(out.slot_busy[1], shape.total_reduce_slots());
    let pairs = SchedPair::all();

    // ---- adios.metrics/3 document -----------------------------------
    let mut reg = MetricsRegistry::new();
    reg.set_gauge("service", "duration_s", sp.duration.as_secs_f64());
    reg.set_gauge("service", "makespan_s", makespan_s);
    reg.inc("service", "arrivals", completed);
    reg.inc("service", "completed", completed);
    reg.set_gauge("service", "nodes", shape.nodes as f64);
    reg.set_gauge("service", "vms", shape.total_vms() as f64);
    reg.set_gauge("service", "tenants", mix.tenants.len() as f64);
    reg.set_gauge("service", "throughput_jpm", throughput_jpm);
    for x in latencies.samples() {
        reg.sample("latency", "job_latency_s", *x);
    }
    reg.set_gauge("latency", "mean_s", mean_latency_s);
    reg.set_gauge("latency", "p50_s", q(0.5));
    reg.set_gauge("latency", "p95_s", q(0.95));
    reg.set_gauge("latency", "p99_s", q(0.99));
    reg.set_gauge("slots", "map_busy_s", out.slot_busy[0].as_secs_f64());
    reg.set_gauge("slots", "reduce_busy_s", out.slot_busy[1].as_secs_f64());
    reg.set_gauge("slots", "map_util", map_slot_util);
    reg.set_gauge("slots", "reduce_util", reduce_slot_util);
    for (tn, &(done, sum)) in mix.tenants.iter().zip(&per_tenant) {
        reg.inc("tenants", &format!("{}_arrivals", tn.name), done);
        reg.inc("tenants", &format!("{}_completed", tn.name), done);
        let mean = if done > 0 { sum / done as f64 } else { 0.0 };
        reg.set_gauge("tenants", &format!("{}_mean_latency_s", tn.name), mean);
    }
    reg.inc("policy", "retunes", out.policy_ticks);
    reg.inc("policy", "switches", out.switches.len() as u64);
    for (i, (t, p)) in out.switches.iter().enumerate() {
        let idx = pairs.iter().position(|q| q == p).expect("known pair");
        reg.set_gauge("policy", &format!("switch{i}_t_s"), t.as_secs_f64());
        reg.set_gauge("policy", &format!("switch{i}_pair_idx"), idx as f64);
    }
    attrib.export(&mut reg, "jobs_io");
    reg.inc("trace", "records", out.trace_records);
    reg.inc("trace", "dropped", out.trace_dropped);
    let mut doc = Json::obj()
        .field("schema", "adios.metrics/3")
        .field("kind", "service")
        .field("policy", policy_name);
    if let (Json::Obj(dst), Json::Obj(src)) = (&mut doc, reg.to_json()) {
        dst.extend(src);
    }

    ServiceOutcome {
        metrics: doc,
        trace_digest: out.trace_digest,
        arrivals: completed,
        completed,
        makespan,
        mean_latency_s,
        p50_latency_s: q(0.5),
        p99_latency_s: q(0.99),
        throughput_jpm,
        map_slot_util,
        reduce_slot_util,
        switches: out.switches.len() as u32,
        retunes: out.policy_ticks as u32,
        sim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_mix() -> TenantMix {
        TenantMix::parse("sort:2,wordcount:1,wordcount-nc:1", 16 * 1024 * 1024).unwrap()
    }

    #[test]
    fn tenant_mix_parsing() {
        let m = small_mix();
        assert_eq!(m.tenants.len(), 3);
        assert_eq!(m.tenants[0].name, "sort");
        assert_eq!(m.tenants[0].weight, 2);
        assert_eq!(m.total_weight(), 4);
        assert!(TenantMix::parse("", 1).is_err());
        assert!(TenantMix::parse("nosuch:1", 1).is_err());
        assert!(TenantMix::parse("sort:0", 1).is_err());
    }

    /// Satellite property: the Poisson stream is a pure function of the
    /// seed, and different seeds diverge.
    #[test]
    fn poisson_stream_deterministic_per_seed() {
        let d = SimDuration::from_secs(3600);
        let a = poisson_arrivals(10.0, d, 7);
        let b = poisson_arrivals(10.0, d, 7);
        let c = poisson_arrivals(10.0, d, 8);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed must give byte-equal streams");
        assert_ne!(a, c, "different seeds must diverge");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals sorted");
    }

    /// Satellite property: the empirical mean rate converges within 5%
    /// over 10k arrivals.
    #[test]
    fn poisson_mean_rate_converges() {
        let rate = 30.0; // jobs/min → 0.5/s
        // Horizon sized for ~12k arrivals.
        let d = SimDuration::from_secs(24_000);
        let a = poisson_arrivals(rate, d, 1234);
        assert!(a.len() > 10_000, "want >10k arrivals, got {}", a.len());
        let empirical = a.len() as f64 / d.as_secs_f64() * 60.0;
        let err = (empirical - rate).abs() / rate;
        assert!(err < 0.05, "empirical rate {empirical:.2}/min vs {rate} (err {err:.3})");
    }

    /// Weighted tenant choice respects the mix and is deterministic.
    #[test]
    fn arrival_generation_follows_weights() {
        let mix = small_mix();
        let spec = ArrivalSpec::Poisson { rate_per_min: 60.0 };
        let d = SimDuration::from_secs(20_000);
        let a = spec.generate(&mix, d, 99);
        let b = spec.generate(&mix, d, 99);
        assert_eq!(a, b);
        let mut counts = [0usize; 3];
        for &(_, t) in &a {
            counts[t] += 1;
        }
        // sort has weight 2 of 4: ~half the arrivals.
        let frac = counts[0] as f64 / a.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "sort fraction {frac}");
    }

    #[test]
    fn trace_file_roundtrip() {
        let mix = small_mix();
        let doc = Json::parse(
            r#"{"schema":"adios.jobs/1","arrivals":[
                {"t_s":5.0,"tenant":"wordcount"},
                {"t_s":1.0,"tenant":"sort"}]}"#,
        )
        .unwrap();
        let spec = ArrivalSpec::parse_trace(&doc, &mix).unwrap();
        let a = spec.generate(&mix, SimDuration::from_secs(10), 0);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0], (SimTime::ZERO + SimDuration::from_secs(1), 0));
        assert_eq!(a[1], (SimTime::ZERO + SimDuration::from_secs(5), 1));
        // Unknown tenants and bad schemas are rejected.
        let bad = Json::parse(
            r#"{"schema":"adios.jobs/1","arrivals":[{"t_s":1.0,"tenant":"nope"}]}"#,
        )
        .unwrap();
        assert!(ArrivalSpec::parse_trace(&bad, &mix).is_err());
        let wrong = Json::parse(r#"{"schema":"adios.jobs/2","arrivals":[]}"#).unwrap();
        assert!(ArrivalSpec::parse_trace(&wrong, &mix).is_err());
    }

    /// A 2×2 cluster at 16 MB/VM with unbounded traces, so the oracle
    /// can replay every record.
    fn small_cluster() -> ClusterParams {
        let mut p = ClusterParams::default();
        p.shape.nodes = 2;
        p.shape.vms_per_node = 2;
        p.node.trace_capacity = usize::MAX;
        p
    }

    /// End-to-end service smoke on the real stack: a 3-tenant Poisson
    /// stream completes, every trace is oracle-clean under the real
    /// slot capacities, and the metrics doc carries the bumped schema.
    #[test]
    fn service_run_completes_and_is_oracle_clean() {
        let params = small_cluster();
        let sp = ServiceParams {
            duration: SimDuration::from_secs(120),
            seed: 7,
            ..ServiceParams::default()
        };
        let spec = ArrivalSpec::Poisson { rate_per_min: 6.0 };
        let out = run_service(&params, &sp, &small_mix(), &spec, SchedPair::DEFAULT, None);
        assert!(out.arrivals > 0, "window should see arrivals");
        assert_eq!(out.arrivals, out.completed, "open-loop: every job completes");
        assert!(out.makespan.as_secs_f64() > 0.0);
        assert!(out.p50_latency_s > 0.0 && out.p99_latency_s >= out.p50_latency_s);
        assert_eq!(
            out.metrics.get("schema").and_then(|s| s.as_str()),
            Some("adios.metrics/3")
        );
        assert!(out.sim.trace().total() > 0);
        let violations = out.sim.oracle_violations();
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// The whole service run is a pure function of its inputs: byte-
    /// equal metrics and equal digests across repeated runs.
    #[test]
    fn service_run_is_deterministic() {
        let mut params = small_cluster();
        params.node.trace_capacity = 1 << 12;
        let sp = ServiceParams { duration: SimDuration::from_secs(90), ..ServiceParams::default() };
        let spec = ArrivalSpec::Poisson { rate_per_min: 8.0 };
        let run = || run_service(&params, &sp, &small_mix(), &spec, SchedPair::DEFAULT, None);
        let (a, b) = (run(), run());
        assert_eq!(a.trace_digest, b.trace_digest);
        assert_eq!(a.metrics.to_string(), b.metrics.to_string());
    }

    /// Admission cap: with max_concurrent 1 the service still drains
    /// every arrival, one job at a time, and stays oracle-clean.
    #[test]
    fn admission_queue_drains_under_tight_cap() {
        let params = small_cluster();
        let sp = ServiceParams {
            duration: SimDuration::from_secs(60),
            max_concurrent: 1,
            ..ServiceParams::default()
        };
        let spec = ArrivalSpec::Poisson { rate_per_min: 10.0 };
        let out = run_service(&params, &sp, &small_mix(), &spec, SchedPair::DEFAULT, None);
        assert_eq!(out.arrivals, out.completed);
        let violations = out.sim.oracle_violations();
        assert!(violations.is_empty(), "{violations:?}");
    }
}

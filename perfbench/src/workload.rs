//! The three workloads: their inputs, set-up, simulation call and the
//! digest of their simulated outputs.

use iosched::SchedPair;
use metasched::{switch_cost_matrix, DdConfig, Experiment, MetaScheduler, SwitchCost, TuneReport};
use mrsim::{JobSpec, WorkloadSpec};
use simcore::{Json, Telemetry};
use vcluster::{ClusterParams, ClusterSim, JobOutcome, SwitchPlan};

/// A benchmark workload; `name()` is how results refer to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sort on 128 nodes x 4 VMs, 64 MiB per VM: one `ClusterSim::run`.
    Shuffle,
    /// `MetaScheduler::tune()` on the paper's 4 x 4, 512 MiB testbed.
    Tune,
    /// The Fig. 5 switch-cost matrix over all 16 pairs.
    Switch,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Shuffle, Workload::Tune, Workload::Switch];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Shuffle => "shuffle_128x4",
            Workload::Tune => "tune_4x4",
            Workload::Switch => "switch_matrix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The input variant a seed selects. The simulations draw no
    /// random numbers, so the seed picks the (VMM, VM) pair of
    /// `shuffle_128x4`: seed 0 is the default (CFQ, CFQ) and the other
    /// residues mod 16 are the 15 held-out pairs. The other two
    /// workloads always profile every pair and have one input.
    pub fn input(self, seed: u64) -> Input {
        match self {
            Workload::Shuffle => {
                let all = SchedPair::all();
                let base = all
                    .iter()
                    .position(|&p| p == SchedPair::DEFAULT)
                    .expect("the default pair is one of the 16");
                let pair = all[(base + (seed % all.len() as u64) as usize) % all.len()];
                Input {
                    workload: self,
                    pair,
                    variant: pair.code(),
                }
            }
            Workload::Tune | Workload::Switch => Input {
                workload: self,
                pair: SchedPair::DEFAULT,
                variant: "default".into(),
            },
        }
    }

    /// Every input variant, for pinning reference digests.
    pub fn variants(self) -> Vec<Input> {
        match self {
            Workload::Shuffle => (0..16).map(|s| self.input(s)).collect(),
            _ => vec![self.input(0)],
        }
    }
}

/// One workload input.
#[derive(Debug, Clone)]
pub struct Input {
    pub workload: Workload,
    /// The elevator pair of `shuffle_128x4` (unused by the others).
    pub pair: SchedPair,
    /// Key of the pinned digest in `reference.json`.
    pub variant: String,
}

/// A workload after set-up, ready for its simulation call.
pub enum Prepared {
    Shuffle(Box<ClusterSim>),
    Tune(MetaScheduler),
    Switch(DdConfig, Vec<SchedPair>),
}

/// What a simulation call returned.
pub enum Output {
    Shuffle(Box<JobOutcome>),
    Tune(Box<TuneReport>),
    Switch(Vec<Vec<SwitchCost>>),
}

/// The `shuffle_128x4` cluster and job.
pub fn shuffle_params(telemetry: Telemetry) -> (ClusterParams, JobSpec) {
    let mut params = ClusterParams::default();
    params.shape.nodes = 128;
    params.shape.vms_per_node = 4;
    params.node.telemetry = telemetry;
    let job = JobSpec {
        data_per_vm_bytes: 64 << 20,
        ..JobSpec::new(WorkloadSpec::sort())
    };
    (params, job)
}

impl Input {
    /// Parameter construction plus the workload's constructor: the
    /// part of a run `setup_s` times.
    pub fn setup(&self, telemetry: Telemetry) -> Prepared {
        match self.workload {
            Workload::Shuffle => {
                let (params, job) = shuffle_params(telemetry);
                Prepared::Shuffle(Box::new(ClusterSim::new(
                    params,
                    job,
                    SwitchPlan::single(self.pair),
                )))
            }
            Workload::Tune => {
                let mut exp = Experiment::paper_sort();
                exp.params.node.telemetry = telemetry;
                Prepared::Tune(MetaScheduler::new(exp))
            }
            Workload::Switch => {
                let mut cfg = DdConfig::default();
                cfg.node.telemetry = telemetry;
                Prepared::Switch(cfg, SchedPair::all())
            }
        }
    }
}

impl Prepared {
    /// The workload's simulation call: the part of a run `wall_s` times.
    pub fn run(self) -> Output {
        match self {
            Prepared::Shuffle(mut sim) => Output::Shuffle(Box::new(sim.run())),
            Prepared::Tune(meta) => Output::Tune(Box::new(meta.tune())),
            Prepared::Switch(cfg, states) => Output::Switch(switch_cost_matrix(&cfg, &states)),
        }
    }
}

impl Output {
    /// The canonical text of the simulated outputs that the digest
    /// pins. `JobOutcome::trace_digest` is left out on purpose: with
    /// the default `trace_capacity = 0` it is the same constant for
    /// every run.
    pub fn canonical(&self) -> String {
        match self {
            Output::Shuffle(o) => {
                let p = &o.phases;
                let mut s = format!(
                    "makespan={} phases={},{},{},{} events={} net_bytes={}\n",
                    o.makespan.as_nanos(),
                    p.start.as_nanos(),
                    p.maps_done.as_nanos(),
                    p.shuffle_done.as_nanos(),
                    p.job_done.as_nanos(),
                    o.events_processed,
                    o.network_bytes
                );
                for d in &o.disk_stats {
                    s += &format!(
                        "disk {} {} {} {} {} {} {}\n",
                        d.requests,
                        d.sequential_requests,
                        d.bytes,
                        d.seek_time.as_nanos(),
                        d.rotation_time.as_nanos(),
                        d.transfer_time.as_nanos(),
                        d.busy_time.as_nanos()
                    );
                }
                s + &o.metrics.to_string()
            }
            Output::Tune(r) => r.to_json().to_string(),
            Output::Switch(m) => {
                let mut s = String::new();
                for c in m.iter().flatten() {
                    s += &format!(
                        "{}{} {} {}\n",
                        c.from.code(),
                        c.to.code(),
                        c.combined.as_nanos(),
                        c.cost.as_nanos()
                    );
                }
                s
            }
        }
    }

    pub fn digest(&self) -> String {
        format!("{:016x}", fnv1a(self.canonical().as_bytes()))
    }

    /// The workload's distance from the paper's headline figures, when
    /// it computes one: `(metric, value)`.
    pub fn paper_gaps(&self) -> Vec<(&'static str, f64)> {
        match self {
            Output::Shuffle(_) => Vec::new(),
            Output::Tune(r) => vec![
                (
                    "paper_gap_default_pp",
                    (r.gain_vs_default_pct() - 25.0).abs(),
                ),
                (
                    "paper_gap_single_pp",
                    (r.gain_vs_best_single_pct() - 10.0).abs(),
                ),
            ],
            Output::Switch(m) => {
                let max = m
                    .iter()
                    .flatten()
                    .map(|c| c.cost.as_secs_f64())
                    .fold(0.0, f64::max);
                vec![("paper_gap_switch_max_s", (max - 142.0).abs())]
            }
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// The pinned reference: digests per workload, variant and telemetry
/// level, and the paper gaps.
pub struct Reference(Json);

impl Reference {
    pub fn load() -> Reference {
        let doc = Json::parse(include_str!("../reference.json")).expect("reference.json parses");
        Reference(doc)
    }

    pub fn digest(&self, input: &Input, telemetry: Telemetry) -> Option<&str> {
        self.0
            .get("digests")?
            .get(input.workload.name())?
            .get(&input.variant)?
            .get(level_name(telemetry))?
            .as_str()
    }

    pub fn paper_gap(&self, metric: &str) -> Option<f64> {
        self.0.get("paper_gaps")?.get(metric)?.as_f64()
    }
}

pub fn level_name(t: Telemetry) -> &'static str {
    match t {
        Telemetry::Off => "off",
        Telemetry::Counters => "counters",
        Telemetry::Full => "full",
    }
}

/// The telemetry levels a digest is pinned at: the timed runs use the
/// library default, the traced run `Full`.
pub const PINNED_LEVELS: [Telemetry; 2] = [Telemetry::Counters, Telemetry::Full];

/// Run every variant of every workload at both pinned levels and build
/// a fresh `reference.json` document.
pub fn pin() -> Json {
    let mut digests = Json::obj();
    let mut gaps = Json::obj();
    for w in Workload::ALL {
        let mut per_variant = Json::obj();
        for input in w.variants() {
            let mut levels = Json::obj();
            for t in PINNED_LEVELS {
                let out = input.setup(t).run();
                let digest = out.digest();
                eprintln!(
                    "pin {} {} {}: {digest}",
                    w.name(),
                    input.variant,
                    level_name(t)
                );
                if input.variant == w.input(0).variant && t == Telemetry::Counters {
                    for (k, v) in out.paper_gaps() {
                        gaps = gaps.field(k, v);
                    }
                }
                levels = levels.field(level_name(t), digest);
            }
            per_variant = per_variant.field(&input.variant, levels);
        }
        digests = digests.field(w.name(), per_variant);
    }
    Json::obj()
        .field("schema", "perfbench.reference/1")
        .field("digests", digests)
        .field("paper_gaps", gaps)
}

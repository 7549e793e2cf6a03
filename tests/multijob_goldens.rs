//! Multi-job service goldens: hardcoded fingerprints of small
//! reference service runs (3-tenant Poisson streams on a 2x2 cluster
//! stack), pinning the `adios.metrics/3` document bytes and the digest
//! of every trace (cluster lifecycle plus node I/O). Seeded exactly
//! like `tests/kernel_goldens.rs`: the fingerprints must reproduce
//! bit-for-bit on every worker count (`SIM_THREADS=1/2/8` equivalents
//! via `par_map_threads`).
//!
//! If a *deliberate* behaviour change ever invalidates these numbers,
//! re-capture them with the printing helper below and say so in the
//! commit message.

use adaptive_disk_sched::iosched::SchedPair;
use adaptive_disk_sched::metasched::{BlendedTuner, TenantProfile};
use adaptive_disk_sched::vcluster::{
    run_service, ArrivalSpec, ClusterParams, ServiceOutcome, ServiceParams, TenantMix,
};
use simcore::par::par_map_threads;
use simcore::SimDuration;

struct Golden {
    seed: u64,
    adaptive: bool,
    completed: u64,
    trace_digest: u64,
    metrics_fnv: u64,
}

/// FNV-1a over a byte string (stable fingerprint of the metrics doc).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn mix() -> TenantMix {
    TenantMix::parse("sort:2,wordcount:1,wordcount-nc:1", 64 * 1024 * 1024)
        .expect("golden tenant mix")
}

/// Synthetic calibration with phase-crossing pair rankings (pair 0
/// fastest for maps, the last pair fastest for the tail) — fixed
/// numbers, so the adaptive goldens do not depend on a calibration
/// pass.
fn profiles() -> Vec<TenantProfile> {
    let n = SchedPair::all().len();
    (0..3)
        .map(|t| TenantProfile {
            phase: (0..n)
                .map(|i| {
                    let k = i as f64;
                    let ph1 = 22.0 + 1.5 * k + 2.0 * t as f64;
                    let tail = 48.0 - 2.0 * k + t as f64;
                    [
                        SimDuration::from_secs_f64(ph1),
                        SimDuration::from_secs_f64(tail * 0.4),
                        SimDuration::from_secs_f64(tail * 0.6),
                    ]
                })
                .collect(),
        })
        .collect()
}

fn run(seed: u64, adaptive: bool) -> ServiceOutcome {
    let mut params = ClusterParams::default();
    params.shape.nodes = 2;
    params.shape.vms_per_node = 2;
    params.node.trace_capacity = 1 << 12;
    let sp = ServiceParams {
        duration: SimDuration::from_secs(180),
        seed,
        ..ServiceParams::default()
    };
    let spec = ArrivalSpec::Poisson { rate_per_min: 6.0 };
    let tuner = adaptive.then(|| Box::new(BlendedTuner::new(profiles(), 0.02)) as _);
    run_service(&params, &sp, &mix(), &spec, SchedPair::DEFAULT, tuner)
}

fn fingerprint(seed: u64, adaptive: bool) -> (u64, u64, u64) {
    let out = run(seed, adaptive);
    assert_eq!(
        out.metrics.get("schema").and_then(|s| s.as_str()),
        Some("adios.metrics/3"),
        "service document must carry the bumped schema"
    );
    (
        out.completed,
        out.trace_digest,
        fnv1a(out.metrics.to_string().as_bytes()),
    )
}

/// Captured with
/// `cargo test -q --test multijob_goldens -- --ignored --nocapture`.
const GOLDENS: &[Golden] = &[
    Golden { seed: 42, adaptive: false, completed: 22, trace_digest: 0x42303bf078af63ff, metrics_fnv: 0x742bd74fc74c8282 },
    Golden { seed: 42, adaptive: true, completed: 22, trace_digest: 0x457676c9682a71f5, metrics_fnv: 0x335e4fa2dea2626d },
    Golden { seed: 7, adaptive: true, completed: 16, trace_digest: 0x68064ba1eecd4414, metrics_fnv: 0x6501a0a457145f67 },
];

#[test]
#[ignore]
fn capture_goldens() {
    for (seed, adaptive) in [(42u64, false), (42, true), (7, true)] {
        let (c, d, f) = fingerprint(seed, adaptive);
        println!(
            "Golden {{ seed: {seed}, adaptive: {adaptive}, completed: {c}, \
             trace_digest: 0x{d:016x}, metrics_fnv: 0x{f:016x} }},"
        );
    }
}

#[test]
fn multijob_service_preserves_goldens() {
    for g in GOLDENS {
        let (c, d, f) = fingerprint(g.seed, g.adaptive);
        assert_eq!(c, g.completed, "job count drifted (seed {})", g.seed);
        assert_eq!(
            d, g.trace_digest,
            "trace digest drifted (seed {}, adaptive {})",
            g.seed, g.adaptive
        );
        assert_eq!(
            f, g.metrics_fnv,
            "adios.metrics/3 bytes drifted (seed {}, adaptive {})",
            g.seed, g.adaptive
        );
    }
}

/// The goldens hold whatever the worker count: sweeping the golden
/// configurations through `par_map_threads` with 1, 2 and 8 workers
/// yields identical fingerprints (the `SIM_THREADS=1/2/8` invariance).
#[test]
fn multijob_goldens_thread_invariant() {
    let configs: Vec<(u64, bool)> = GOLDENS.iter().map(|g| (g.seed, g.adaptive)).collect();
    let one = par_map_threads(1, &configs, |&(s, a)| fingerprint(s, a));
    let two = par_map_threads(2, &configs, |&(s, a)| fingerprint(s, a));
    let eight = par_map_threads(8, &configs, |&(s, a)| fingerprint(s, a));
    assert_eq!(one, two, "2-worker sweep changed service fingerprints");
    assert_eq!(one, eight, "8-worker sweep changed service fingerprints");
}

//! Blended-fingerprint tuning for the multi-job cluster service.
//!
//! A single job walks through the paper's phases one at a time, so
//! Algorithm 1 can pick one pair per phase. A *service* has many
//! overlapping jobs: at any instant the cluster is in a phase **mix**
//! ([`vcluster::PhaseMix`]) — tenant 0 might have two jobs mapping
//! while tenant 1 drains a reduce tail. The blended tuner extends the
//! same measured-profile machinery to that regime, as an
//! [`OnlinePolicy`] the cluster consults during a job-stream run:
//!
//! 1. **Calibrate** each tenant once with [`calibrate_tenants`]: real
//!    single-job runs of the tenant's workload under every elevator
//!    pair, memoized through the shared [`EvalCache`] (so a sweep, the
//!    meta-scheduler, and the service tuner all reuse each other's
//!    simulations).
//! 2. At every retune tick, **blend**: score each pair by the
//!    mix-weighted sum of the calibrated per-phase durations —
//!    Algorithm 1's "evaluate the candidate on the measured workload"
//!    step, applied to the blended workload fingerprint instead of a
//!    single phase.
//! 3. Apply a **hysteresis margin** before switching away from the
//!    installed pair, mirroring the switch-cost guard of the online
//!    policies: a candidate must beat the incumbent by a relative
//!    margin, or the cluster keeps what it has.
//!
//! Decisions are memoized per quantized mix, so a service emitting the
//! same mix at every tick costs one table scan total.

use crate::cache::EvalCache;
use crate::experiment::Experiment;
use crate::profiler::profile_pairs_cached;
use iosched::SchedPair;
use simcore::SimDuration;
use std::collections::BTreeMap;
use vcluster::{ClusterParams, ClusterSnapshot, OnlinePolicy, PhaseMix, TenantMix};

/// Calibrated single-job phase durations of one tenant under every
/// elevator pair, in [`SchedPair::all`] order.
#[derive(Debug, Clone)]
pub struct TenantProfile {
    /// `phase[pair_idx]` = the tenant's `[ph1, ph2, ph3]` durations
    /// under `SchedPair::all()[pair_idx]`.
    pub phase: Vec<[SimDuration; 3]>,
}

impl TenantProfile {
    /// Validate against the pair table.
    pub fn validate(&self) -> Result<(), String> {
        if self.phase.len() != SchedPair::all().len() {
            return Err(format!(
                "profile covers {} pairs, expected {}",
                self.phase.len(),
                SchedPair::all().len()
            ));
        }
        Ok(())
    }
}

/// Measure every tenant's per-pair phase profile with real single-job
/// simulations, memoized through `cache`. Output order matches
/// `mix.tenants`; each profile's pair order matches [`SchedPair::all`],
/// which is what [`BlendedTuner`] expects.
pub fn calibrate_tenants(
    params: &ClusterParams,
    mix: &TenantMix,
    cache: &EvalCache,
) -> Vec<TenantProfile> {
    let pairs = SchedPair::all();
    mix.tenants
        .iter()
        .map(|t| {
            let exp = Experiment::new(params.clone(), t.job.clone());
            let profiles = profile_pairs_cached(&exp, &pairs, cache);
            TenantProfile { phase: profiles.iter().map(|p| p.phase).collect() }
        })
        .collect()
}

/// The adaptive service policy: argmin over the blended workload
/// fingerprint with switch hysteresis. See the module docs.
pub struct BlendedTuner {
    profiles: Vec<TenantProfile>,
    /// Relative improvement a challenger must offer before a switch is
    /// worth its stall (e.g. `0.05` = 5%).
    margin: f64,
    /// Memoized decisions keyed by the quantized mix fingerprint.
    memo: BTreeMap<u64, usize>,
}

impl BlendedTuner {
    /// Build from per-tenant calibration profiles (one per tenant, in
    /// service tenant order) and a relative hysteresis margin.
    pub fn new(profiles: Vec<TenantProfile>, margin: f64) -> BlendedTuner {
        assert!((0.0..1.0).contains(&margin), "margin must be in [0, 1)");
        for p in &profiles {
            p.validate().expect("invalid tenant profile");
        }
        BlendedTuner { profiles, margin, memo: BTreeMap::new() }
    }

    /// Mix-weighted total seconds the cluster would spend per unit of
    /// work under `pair_idx` — the blended analog of a candidate's
    /// evaluation score in Algorithm 1. The mix must cover exactly the
    /// calibrated tenants.
    pub fn blended_score(&self, mix: &PhaseMix, pair_idx: usize) -> f64 {
        assert_eq!(
            mix.per_tenant.len(),
            self.profiles.len(),
            "one calibration profile per tenant"
        );
        let mut s = 0.0;
        for (weights, profile) in mix.per_tenant.iter().zip(&self.profiles) {
            let phase = &profile.phase[pair_idx];
            for p in 0..3 {
                s += weights[p] * phase[p].as_secs_f64();
            }
        }
        s
    }

    /// Stable fingerprint of a quantized mix (weights at 1/16
    /// resolution) — equal mixes memoize to the same decision.
    pub fn mix_fingerprint(mix: &PhaseMix) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        for w in &mix.per_tenant {
            for &x in w {
                fold((x * 16.0).round() as u64);
            }
        }
        h
    }

    fn best_pair_idx(&mut self, mix: &PhaseMix) -> usize {
        let fp = Self::mix_fingerprint(mix);
        if let Some(&i) = self.memo.get(&fp) {
            return i;
        }
        let n = SchedPair::all().len();
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for i in 0..n {
            let s = self.blended_score(mix, i);
            // Strict `<`: ties keep the lowest pair index, so the
            // decision is deterministic.
            if s < best_score {
                best = i;
                best_score = s;
            }
        }
        self.memo.insert(fp, best);
        best
    }

    /// The pair to have installed given the live mix: the blended
    /// argmin, if it beats `current` by the hysteresis margin.
    pub fn choose(&mut self, mix: &PhaseMix, current: SchedPair) -> SchedPair {
        if mix.is_idle() {
            return current;
        }
        let pairs = SchedPair::all();
        let best = self.best_pair_idx(mix);
        if pairs[best] == current {
            return current;
        }
        let cur_idx = pairs
            .iter()
            .position(|&p| p == current)
            .expect("installed pair is a known pair");
        let cur_score = self.blended_score(mix, cur_idx);
        let best_score = self.blended_score(mix, best);
        // Hysteresis: the challenger must beat the incumbent by the
        // margin to justify the switch's drain and re-init.
        if cur_score > 0.0 && (cur_score - best_score) / cur_score > self.margin {
            pairs[best]
        } else {
            current
        }
    }
}

impl OnlinePolicy for BlendedTuner {
    fn name(&self) -> String {
        format!("blended:margin={}", self.margin)
    }

    fn decide(&mut self, snap: &ClusterSnapshot) -> Option<SchedPair> {
        Some(self.choose(&snap.mix, snap.current_pair))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profiles with crossing rankings: pair 0 fastest for ph1, the
    /// last pair fastest for the tail.
    fn crossing_profiles(tenants: usize) -> Vec<TenantProfile> {
        let n = SchedPair::all().len();
        (0..tenants)
            .map(|_| TenantProfile {
                phase: (0..n)
                    .map(|i| {
                        let k = i as f64;
                        [
                            SimDuration::from_secs_f64(10.0 + 3.0 * k),
                            SimDuration::from_secs_f64(40.0 - 2.0 * k),
                            SimDuration::from_secs_f64(20.0 - 1.0 * k),
                        ]
                    })
                    .collect(),
            })
            .collect()
    }

    fn mix_all_in(phase: usize, tenants: usize) -> PhaseMix {
        let mut per_tenant = vec![[0.0; 3]; tenants];
        for w in per_tenant.iter_mut() {
            w[phase] = 1.0;
        }
        PhaseMix { per_tenant }
    }

    #[test]
    fn tuner_tracks_the_dominant_phase() {
        let pairs = SchedPair::all();
        let mut tuner = BlendedTuner::new(crossing_profiles(2), 0.02);
        // Everyone mapping: pair 0 has the cheapest ph1.
        let p1 = tuner.choose(&mix_all_in(0, 2), pairs[7]);
        assert_eq!(p1, pairs[0]);
        // Everyone in the tail: the last pair has the cheapest ph2+ph3.
        let p2 = tuner.choose(&mix_all_in(2, 2), pairs[0]);
        assert_eq!(p2, pairs[pairs.len() - 1]);
    }

    #[test]
    fn idle_mix_and_margin_hold_the_current_pair() {
        let pairs = SchedPair::all();
        let mut tuner = BlendedTuner::new(crossing_profiles(1), 0.02);
        let idle = PhaseMix { per_tenant: vec![[0.0; 3]] };
        assert_eq!(tuner.choose(&idle, pairs[5]), pairs[5]);
        // A huge margin suppresses every switch.
        let mut stubborn = BlendedTuner::new(crossing_profiles(1), 0.99);
        assert_eq!(stubborn.choose(&mix_all_in(0, 1), pairs[3]), pairs[3]);
    }

    #[test]
    #[should_panic(expected = "one calibration profile per tenant")]
    fn a_mix_with_an_uncalibrated_tenant_is_rejected() {
        let mut tuner = BlendedTuner::new(crossing_profiles(1), 0.02);
        tuner.choose(&mix_all_in(0, 2), SchedPair::all()[0]);
    }

    #[test]
    fn decisions_memoize_per_quantized_mix() {
        let mut tuner = BlendedTuner::new(crossing_profiles(2), 0.02);
        let m = mix_all_in(1, 2);
        let a = tuner.best_pair_idx(&m);
        assert_eq!(tuner.memo.len(), 1);
        let b = tuner.best_pair_idx(&m);
        assert_eq!(a, b);
        assert_eq!(tuner.memo.len(), 1, "repeat mix served from the memo");
        assert_eq!(
            BlendedTuner::mix_fingerprint(&m),
            BlendedTuner::mix_fingerprint(&mix_all_in(1, 2))
        );
        assert_ne!(
            BlendedTuner::mix_fingerprint(&m),
            BlendedTuner::mix_fingerprint(&mix_all_in(2, 2))
        );
    }

    #[test]
    fn calibration_reuses_the_eval_cache() {
        let mut params = ClusterParams::default();
        params.shape.nodes = 1;
        params.shape.vms_per_node = 2;
        let mix = TenantMix::parse("sort:1", 8 * 1024 * 1024).unwrap();
        let cache = EvalCache::new();
        let first = calibrate_tenants(&params, &mix, &cache);
        let runs = cache.stats().misses;
        assert!(runs >= SchedPair::all().len() as u64);
        let second = calibrate_tenants(&params, &mix, &cache);
        assert_eq!(cache.stats().misses, runs, "second calibration is all hits");
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.phase, b.phase, "cached profiles must round-trip exactly");
        }
    }
}

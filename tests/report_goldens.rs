//! Goldens for the cross-run analytics commands behind `adios-report
//! rank`/`correlate`/`whatif`/`overlap`: their output is a pure
//! function of the run set. The same sweep regenerated under
//! `SIM_THREADS=1/2/8` must yield byte-identical output, and so must
//! any order the run list is passed in.

use adaptive_disk_sched::iosched::SchedPair;
use adaptive_disk_sched::mrsim::{JobSpec, WorkloadSpec};
use adaptive_disk_sched::vcluster::{
    run_sweep, stamp_manifest, ClusterParams, RunManifest, SweepGrid, SwitchPlan,
};
use report::store::{correlate, load_runs, overlap, rank, whatif, Run};
use simcore::Json;

fn small_cluster() -> ClusterParams {
    let mut p = ClusterParams::default();
    p.shape.nodes = 2;
    p.shape.vms_per_node = 2;
    p
}

/// Run a small sweep (2 data sizes × cc/dd × 2 parallel-copies
/// settings) and return the manifest-stamped documents exactly as
/// `repro-cli sweep --metrics-dir` would write them, keyed by file
/// name.
fn sweep_docs() -> Vec<(String, Json)> {
    let base = small_cluster();
    let mut job = JobSpec::new(WorkloadSpec::sort());
    job.data_per_vm_bytes = 64 * 1024 * 1024;
    let dd: SchedPair = "dd".parse().unwrap();
    let grid = SweepGrid {
        shapes: vec![base.shape],
        data_mb_per_vm: vec![64, 96],
        plans: vec![
            ("cc".into(), SwitchPlan::single(SchedPair::DEFAULT)),
            ("dd".into(), SwitchPlan::single(dd)),
        ],
        parallel_copies: vec![1, 5],
    };
    let report = run_sweep(&base, &job, &grid);
    report
        .results
        .iter()
        .map(|r| {
            let m = RunManifest::new(&r.cell, &base, &job);
            (format!("{}.json", m.key()), stamp_manifest(&r.metrics, &m))
        })
        .collect()
}

/// Every command's output over one run list: rank, correlate, exact
/// and interpolated what-if, and the D4 overlap table.
fn outputs(runs: &[Run]) -> Vec<String> {
    vec![
        rank(runs).expect("rank").text,
        correlate(runs).expect("correlate"),
        whatif(runs, &[], 2, 2, 64, "sort").to_string(),
        whatif(runs, &[], 2, 2, 80, "sort").to_string(),
        overlap(runs).to_string(),
    ]
}

/// The outputs are byte-identical when the underlying sweep runs on 1,
/// 2 or 8 workers. (Only this test touches `SIM_THREADS`; the process
/// env is otherwise unshared in this binary.)
#[test]
fn report_outputs_invariant_to_sim_threads() {
    let mut all: Vec<Vec<String>> = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("SIM_THREADS", threads);
        all.push(outputs(&load_runs(&sweep_docs()).expect("load")));
    }
    std::env::remove_var("SIM_THREADS");
    assert_eq!(all[0], all[1], "SIM_THREADS=2 changed report outputs");
    assert_eq!(all[0], all[2], "SIM_THREADS=8 changed report outputs");
    // The exact-group what-if resolves from measured runs; the 80 MB
    // point sits between the 64 and 96 MB groups and interpolates.
    assert!(all[0][2].contains(r#""provenance":"cached""#), "{}", all[0][2]);
    assert!(
        all[0][3].contains(r#""provenance":"interpolated""#),
        "{}",
        all[0][3]
    );
    // One overlap row per parallel-copies setting.
    assert!(all[0][4].contains(r#""parallel_copies":1,"#), "{}", all[0][4]);
    assert!(all[0][4].contains(r#""parallel_copies":5,"#), "{}", all[0][4]);
}

/// The order the run list is passed in never reaches the output:
/// sorted, reversed and rotated lists print the same bytes.
#[test]
fn report_outputs_invariant_to_run_order() {
    let mut sorted = sweep_docs();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let reversed: Vec<_> = sorted.iter().rev().cloned().collect();
    let rotated: Vec<_> = {
        let mid = sorted.len() / 2;
        sorted[mid..].iter().chain(&sorted[..mid]).cloned().collect()
    };
    let want = outputs(&load_runs(&sorted).expect("load"));
    for (label, order) in [("reversed", &reversed), ("rotated", &rotated)] {
        let got = outputs(&load_runs(order).expect("load"));
        assert_eq!(got, want, "{label} run order changed report outputs");
    }
}

//! Cross-run analytics over manifest-stamped `adios.metrics/2|3`
//! documents (see `vcluster::sweep::stamp_manifest`) and the
//! `adios.bench/1` ledger — the one-shot questions the discrepancy log
//! keeps asking:
//!
//! * [`rank`] — per-phase ranking tables of switch plans within each
//!   (shape, data size) group, flagging *phase-local ranking
//!   crossovers*: a pair that wins phase 1 but loses phases 2–3 is
//!   exactly the Fig. 6 structure that makes phase-wise switching pay
//!   (the D6 signal). Without a crossover every phase agrees on one
//!   winner and the adaptive plan can only match best-single.
//! * [`correlate`] — per-group gain-vs-signal table (Dom0 queue depth,
//!   disk busy fraction) with Pearson coefficients, the D3 diagnosis
//!   tool for non-monotone gains across cluster shapes.
//! * [`whatif`] — the best plan for a (shape, data, workload) key from
//!   eval-cache snapshots and measured runs, with provenance.
//! * [`overlap`] — mean non-concurrent shuffle share per shuffle
//!   fetch-concurrency setting against Table II (the D4 probe).
//! * [`history_append`] — an append-only JSONL ledger of
//!   `adios.bench/1` documents with regression deltas against the
//!   previous entry of the same kind, checked against alert rules
//!   before the append. Entries are a pure function of document
//!   content (no timestamps, host-time fields excluded from the
//!   identity digest), so re-running the command over the same
//!   documents is byte-identical and idempotent.
//!
//! Every function takes the whole run list and orders it itself:
//! group members by (plan, file), phase-ranking rows by (time, plan,
//! file), and the Pearson moments fold in member order. The order the
//! caller passes runs in never reaches the output.
//!
//! Like the rest of this crate the module is pure: callers hand in
//! parsed documents (plus their file names for error messages) and get
//! rendered text or ledger lines back; `main.rs` owns all I/O.

use crate::alerts::{self, Alert, AlertRule};
use simcore::Json;
use std::collections::BTreeMap;

/// One ingested metrics document plus the identity of its run, pulled
/// from the `manifest` section.
#[derive(Debug, Clone)]
pub struct Run {
    /// File name the document came from (error messages only).
    pub file: String,
    /// Cluster nodes.
    pub nodes: u64,
    /// VMs per node.
    pub vms: u64,
    /// Input data per VM, MB.
    pub data_mb: u64,
    /// Switch-plan label (e.g. `cc`, `ad`, `ad>da`).
    pub plan: String,
    /// Telemetry level the run captured (`off`/`counters`/`full`).
    pub telemetry: String,
    /// Workload name from the manifest (`?` on pre-PR-8 documents).
    pub workload: String,
    /// Shuffle fetch concurrency (`parallel copies`) from the
    /// manifest; 0 on pre-PR-8 documents.
    pub parallel_copies: u64,
    /// Parsed document.
    pub doc: Json,
}

fn num(doc: &Json, path: &[&str]) -> Option<f64> {
    let mut v = doc;
    for k in path {
        v = v.get(k)?;
    }
    v.as_f64()
}

fn manifest_u64(m: &Json, key: &str, file: &str) -> Result<u64, String> {
    m.get(key)
        .and_then(Json::as_f64)
        .map(|x| x as u64)
        .ok_or_else(|| format!("{file}: manifest missing numeric '{key}'"))
}

fn manifest_str(m: &Json, key: &str, file: &str) -> Result<String, String> {
    m.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{file}: manifest missing string '{key}'"))
}

/// Ingest named documents into [`Run`]s, rejecting anything that is
/// not a manifest-stamped `adios.metrics/*` document.
pub fn load_runs(named: &[(String, Json)]) -> Result<Vec<Run>, String> {
    let mut runs = Vec::with_capacity(named.len());
    for (file, doc) in named {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if !schema.starts_with("adios.metrics/") {
            return Err(format!(
                "{file}: not an adios.metrics document (schema '{schema}')"
            ));
        }
        let m = doc
            .get("manifest")
            .ok_or_else(|| format!("{file}: no manifest section — produced without --metrics-dir?"))?;
        runs.push(Run {
            file: file.clone(),
            nodes: manifest_u64(m, "nodes", file)?,
            vms: manifest_u64(m, "vms_per_node", file)?,
            data_mb: manifest_u64(m, "data_mb_per_vm", file)?,
            plan: manifest_str(m, "plan", file)?,
            telemetry: manifest_str(m, "telemetry", file)?,
            workload: m
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            parallel_copies: m
                .get("parallel_copies")
                .and_then(Json::as_f64)
                .map(|x| x as u64)
                .unwrap_or(0),
            doc: doc.clone(),
        });
    }
    Ok(runs)
}

fn group_header(key: (u64, u64, u64), n: usize) -> String {
    format!(
        "[{}x{} nodes·vms · {} MB/vm · {} runs]\n",
        key.0, key.1, key.2, n
    )
}

/// Result of [`rank`]: the rendered tables plus how many plan pairs
/// exhibited a phase-local ranking crossover anywhere in the set.
#[derive(Debug)]
pub struct RankReport {
    /// Human-readable ranking tables.
    pub text: String,
    /// Plan pairs whose relative order inverts between phases.
    pub crossovers: usize,
}

const PHASES: [&str; 3] = ["ph1_s", "ph2_s", "ph3_s"];

/// The paper's Table II non-concurrent-shuffle share at 1 wave — the
/// reference the D4 overlap sweep compares against.
pub const TABLE2_SHUFFLE_PCT: f64 = 29.5;

/// Mean of a full-telemetry time series (`sum[]` / `count[]` buckets),
/// if the document carries one.
fn series_mean(doc: &Json, name: &str) -> Option<f64> {
    let s = doc.get("series")?.get(name)?;
    let (Some(Json::Arr(sums)), Some(Json::Arr(counts))) = (s.get("sum"), s.get("count")) else {
        return None;
    };
    let total: f64 = sums.iter().filter_map(Json::as_f64).sum();
    let n: f64 = counts.iter().filter_map(Json::as_f64).sum();
    if n > 0.0 {
        Some(total / n)
    } else {
        None
    }
}

/// Single-pass Pearson moment accumulator: push `(x, y)` points, read
/// the coefficient at the end.
#[derive(Debug, Clone, Copy, Default)]
struct PearsonAcc {
    n: u64,
    sx: f64,
    sy: f64,
    sxx: f64,
    syy: f64,
    sxy: f64,
}

impl PearsonAcc {
    fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.syy += y * y;
        self.sxy += x * y;
    }

    /// Pearson r over the pushed points; `None` below 3 points or on a
    /// degenerate (zero-variance) axis.
    fn r(&self) -> Option<f64> {
        if self.n < 3 {
            return None;
        }
        let n = self.n as f64;
        let vx = self.sxx - self.sx * self.sx / n;
        let vy = self.syy - self.sy * self.sy / n;
        if vx <= 0.0 || vy <= 0.0 {
            return None;
        }
        let cov = self.sxy - self.sx * self.sy / n;
        Some(cov / (vx * vy).sqrt())
    }
}

/// The per-run facts the queries need. Optional fields stay `None`
/// when the document lacks the signal; the query that needs them
/// reports the error.
#[derive(Debug, Clone)]
struct RunExtract {
    file: String,
    plan: String,
    workload: String,
    makespan_s: Option<f64>,
    /// Phase times, or the first missing phase key.
    phases: Result<[f64; 3], &'static str>,
    qdepth: Option<f64>,
    /// Disk-busy fraction (busy_s normalised to one disk-second per
    /// node over the makespan).
    busy: Option<f64>,
}

impl RunExtract {
    fn from_run(r: &Run) -> RunExtract {
        let mut phases = Ok([0.0f64; 3]);
        for (i, ph) in PHASES.iter().enumerate() {
            match (num(&r.doc, &["phases", ph]), &mut phases) {
                (Some(t), Ok(p)) => p[i] = t,
                (None, Ok(_)) => phases = Err(*ph),
                (_, Err(_)) => {}
            }
        }
        let makespan_s = num(&r.doc, &["run", "makespan_s"]);
        let qdepth = series_mean(&r.doc, "dom0_qdepth")
            .or_else(|| num(&r.doc, &["dom0_elevator", "queue_depth", "mean"]));
        let busy = match (num(&r.doc, &["disk", "busy_s"]), makespan_s) {
            (Some(busy_s), Some(mk)) => Some(busy_s / (mk * r.nodes as f64)),
            _ => None,
        };
        RunExtract {
            file: r.file.clone(),
            plan: r.plan.clone(),
            workload: r.workload.clone(),
            makespan_s,
            phases,
            qdepth,
            busy,
        }
    }
}

/// Runs grouped by (nodes, vms, data MB), each group's members sorted
/// by (plan, file) — the order every table walks.
fn groups(runs: &[Run]) -> BTreeMap<(u64, u64, u64), Vec<RunExtract>> {
    let mut groups: BTreeMap<(u64, u64, u64), Vec<RunExtract>> = BTreeMap::new();
    for r in runs {
        groups
            .entry((r.nodes, r.vms, r.data_mb))
            .or_default()
            .push(RunExtract::from_run(r));
    }
    for members in groups.values_mut() {
        members.sort_by(|a, b| (&a.plan, &a.file).cmp(&(&b.plan, &b.file)));
    }
    groups
}

/// A crossover between plans A and B: A strictly faster in one phase,
/// strictly slower in another. Each pair is reported once, in member
/// order.
fn crossover_lines(members: &[RunExtract], phases: &[[f64; 3]]) -> Vec<String> {
    let mut lines = Vec::new();
    for a in 0..phases.len() {
        for b in a + 1..phases.len() {
            let (pa, pb) = (phases[a], phases[b]);
            let mut a_wins = Vec::new();
            let mut b_wins = Vec::new();
            for ph in 0..PHASES.len() {
                if pa[ph] < pb[ph] {
                    a_wins.push(ph + 1);
                } else if pb[ph] < pa[ph] {
                    b_wins.push(ph + 1);
                }
            }
            if !a_wins.is_empty() && !b_wins.is_empty() {
                lines.push(format!(
                    "  ** crossover: {} wins ph{:?}, {} wins ph{:?}",
                    members[a].plan, a_wins, members[b].plan, b_wins
                ));
            }
        }
    }
    lines
}

/// Per-phase plan rankings within each (shape, data) group, with
/// crossover detection. `Err` on an empty set or a document missing
/// its `phases` section.
pub fn rank(runs: &[Run]) -> Result<RankReport, String> {
    if runs.is_empty() {
        return Err("no runs to rank".into());
    }
    let mut out = String::new();
    let mut crossovers = 0;
    out.push_str("adios cross-run ranking (adios.metrics/2)\n");
    for (key, members) in groups(runs) {
        out.push('\n');
        out.push_str(&group_header(key, members.len()));
        // A run without a phases section poisons the whole rank.
        let mut phases = Vec::with_capacity(members.len());
        for m in &members {
            phases.push(m.phases.map_err(|ph| format!("{}: missing phases.{ph}", m.file))?);
        }
        for i in 0..PHASES.len() {
            let mut row: Vec<(f64, usize)> = phases.iter().map(|p| p[i]).zip(0..).collect();
            row.sort_by(|a, b| {
                a.0.total_cmp(&b.0)
                    .then_with(|| members[a.1].plan.cmp(&members[b.1].plan))
                    .then_with(|| members[a.1].file.cmp(&members[b.1].file))
            });
            let best = row[0].0;
            out.push_str(&format!("  ph{}", i + 1));
            for (j, &(t, id)) in row.iter().enumerate() {
                let plan = &members[id].plan;
                if j == 0 {
                    out.push_str(&format!("  1. {plan} {t:.3}s"));
                } else {
                    out.push_str(&format!("  {}. {plan} +{:.3}s", j + 1, t - best));
                }
            }
            out.push('\n');
        }
        let lines = crossover_lines(&members, &phases);
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        if lines.is_empty() {
            out.push_str("  (no phase-local ranking crossover)\n");
        }
        crossovers += lines.len();
    }
    out.push_str(&format!("\ncrossovers: {crossovers}\n"));
    Ok(RankReport {
        text: out,
        crossovers,
    })
}

/// Gain-vs-signal tables per group: each plan's makespan gain over the
/// group baseline (`cc`/`default`, else the first member) against Dom0
/// queue depth and disk busy fraction, plus Pearson coefficients over
/// the group (D3 diagnosis).
pub fn correlate(runs: &[Run]) -> Result<String, String> {
    if runs.is_empty() {
        return Err("no runs to correlate".into());
    }
    let mut out = String::new();
    out.push_str("adios cross-run correlation (adios.metrics/2)\n");
    for (key, members) in groups(runs) {
        out.push('\n');
        out.push_str(&group_header(key, members.len()));
        let base = members
            .iter()
            .find(|m| m.plan == "cc" || m.plan == "default")
            .unwrap_or(&members[0]);
        let base_mk = base
            .makespan_s
            .ok_or_else(|| format!("{}: missing run.makespan_s", base.file))?;
        out.push_str(&format!(
            "  baseline {} makespan {:.3}s\n  {:<10} {:>10} {:>8} {:>8} {:>9}\n",
            base.plan, base_mk, "plan", "makespan", "gain%", "qdepth", "busy"
        ));
        let mut acc_qd = PearsonAcc::default();
        let mut acc_busy = PearsonAcc::default();
        for r in &members {
            let mk = r
                .makespan_s
                .ok_or_else(|| format!("{}: missing run.makespan_s", r.file))?;
            let gain = (base_mk - mk) / base_mk * 100.0;
            let qd = r
                .qdepth
                .ok_or_else(|| format!("{}: no queue-depth signal", r.file))?;
            let busy = r
                .busy
                .ok_or_else(|| format!("{}: missing disk.busy_s", r.file))?;
            acc_qd.push(gain, qd);
            acc_busy.push(gain, busy);
            out.push_str(&format!(
                "  {:<10} {:>9.3}s {:>8.2} {:>8.2} {:>9.3}\n",
                r.plan, mk, gain, qd, busy
            ));
        }
        if members.len() < 3 {
            out.push_str("  (fewer than 3 runs — no correlation)\n");
        } else {
            // A degenerate axis (zero variance) has no coefficient.
            let fmt = |c: Option<f64>| c.map_or("n/a".into(), |c| format!("{c:+.3}"));
            out.push_str(&format!(
                "  corr(gain, qdepth) = {}   corr(gain, busy) = {}\n",
                fmt(acc_qd.r()),
                fmt(acc_busy.r())
            ));
        }
    }
    Ok(out)
}

/// One plan's expected score for a (shape, data, workload) key, loaded
/// from an `adios.evalcache/1` snapshot.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    nodes: u64,
    vms: u64,
    data_mb: u64,
    workload: String,
    plan: String,
    score_s: f64,
}

/// The what-if entries of an `adios.evalcache/1` snapshot (written by
/// `repro-cli tune --cache-out`).
pub fn cache_entries(file: &str, doc: &Json) -> Result<Vec<CacheEntry>, String> {
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        return Err(format!("{file}: evalcache snapshot has no entries array"));
    };
    entries
        .iter()
        .map(|e| {
            let plan = e
                .get("plan")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{file}: snapshot entry missing plan"))?;
            let score_s = num(e, &["score_s"])
                .ok_or_else(|| format!("{file}: snapshot entry missing score_s"))?;
            Ok(CacheEntry {
                nodes: num(e, &["nodes"]).unwrap_or(0.0) as u64,
                vms: num(e, &["vms_per_node"]).unwrap_or(0.0) as u64,
                data_mb: num(e, &["data_mb_per_vm"]).unwrap_or(0.0) as u64,
                workload: e
                    .get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                plan: plan.to_string(),
                score_s,
            })
        })
        .collect()
}

fn workload_matches(have: &str, want: &str) -> bool {
    have == want || have == "?" || want == "?"
}

/// Best (makespan, plan) of a group among workload-matching members.
fn group_best<'a>(members: &'a [RunExtract], workload: &str) -> Option<(f64, &'a str)> {
    let mut best: Option<(f64, &str)> = None;
    for r in members {
        if !workload_matches(&r.workload, workload) {
            continue;
        }
        let Some(mk) = r.makespan_s else { continue };
        let cand = (mk, r.plan.as_str());
        if best.is_none_or(|b| cand < b) {
            best = Some(cand);
        }
    }
    best
}

/// Answer a what-if plan query: best plan for (shape, data, workload),
/// with provenance. Sources, in preference order: an eval-cache
/// snapshot entry (exact key), an exact measured group (`cached`),
/// nearest-manifest interpolation over the data axis
/// (`interpolated`), nothing (`unknown`). Never simulates.
pub fn whatif(
    runs: &[Run],
    cache: &[CacheEntry],
    nodes: u64,
    vms: u64,
    data_mb: u64,
    workload: &str,
) -> Json {
    let base = Json::obj()
        .field("q", "whatif")
        .field("nodes", nodes)
        .field("vms_per_node", vms)
        .field("data_mb_per_vm", data_mb)
        .field("workload", workload);

    // 1. Exact eval-cache snapshot key.
    let mut best: Option<(f64, &str)> = None;
    for e in cache {
        if (e.nodes, e.vms, e.data_mb) == (nodes, vms, data_mb)
            && workload_matches(&e.workload, workload)
        {
            let cand = (e.score_s, e.plan.as_str());
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
    }
    if let Some((score, plan)) = best {
        return base
            .field("plan", plan)
            .field("expected_makespan_s", score)
            .field("provenance", "cached")
            .field("source", "evalcache");
    }

    // 2. Exact measured group.
    let groups = groups(runs);
    if let Some((mk, plan)) = groups
        .get(&(nodes, vms, data_mb))
        .and_then(|g| group_best(g, workload))
    {
        return base
            .field("plan", plan)
            .field("expected_makespan_s", mk)
            .field("provenance", "cached")
            .field("source", "metrics");
    }

    // 3. Nearest-manifest interpolation along the data axis (the
    // BTreeMap walks data sizes in ascending order).
    let sized: Vec<(u64, &Vec<RunExtract>)> = groups
        .iter()
        .filter(|((n, v, _), g)| (*n, *v) == (nodes, vms) && group_best(g, workload).is_some())
        .map(|((_, _, mb), g)| (*mb, g))
        .collect();
    let lo = sized.iter().rev().find(|(mb, _)| *mb < data_mb);
    let hi = sized.iter().find(|(mb, _)| *mb > data_mb);
    match (lo, hi) {
        (Some((mb_lo, g_lo)), Some((mb_hi, g_hi))) => {
            // Linear interpolation per plan present on both sides; the
            // answer is the argmin of interpolated makespans.
            let frac = (data_mb - mb_lo) as f64 / (mb_hi - mb_lo) as f64;
            let mut best: Option<(f64, &str)> = None;
            for r in g_lo.iter() {
                if !workload_matches(&r.workload, workload) {
                    continue;
                }
                let (Some(mk_lo), Some(other)) = (
                    r.makespan_s,
                    g_hi.iter()
                        .find(|o| o.plan == r.plan && workload_matches(&o.workload, workload)),
                ) else {
                    continue;
                };
                let Some(mk_hi) = other.makespan_s else { continue };
                let mk = mk_lo + (mk_hi - mk_lo) * frac;
                let cand = (mk, r.plan.as_str());
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
            if let Some((mk, plan)) = best {
                return base
                    .field("plan", plan)
                    .field("expected_makespan_s", mk)
                    .field("provenance", "interpolated")
                    .field("source", format!("metrics:{mb_lo}mb..{mb_hi}mb"));
            }
        }
        (Some((mb, g)), None) | (None, Some((mb, g))) => {
            if let Some((mk, plan)) = group_best(g, workload) {
                return base
                    .field("plan", plan)
                    .field("expected_makespan_s", mk)
                    .field("provenance", "interpolated")
                    .field("source", format!("metrics:nearest {mb}mb"));
            }
        }
        (None, None) => {}
    }
    base.field("provenance", "unknown")
}

/// The D4 overlap report: mean non-concurrent-shuffle share per
/// shuffle-fetch-concurrency (`parallel_copies`) setting, and which
/// setting lands closest to [`TABLE2_SHUFFLE_PCT`]. Runs without a
/// recorded setting are ignored; shares are summed in file order.
pub fn overlap(runs: &[Run]) -> Json {
    let mut stamped: Vec<&Run> = runs.iter().filter(|r| r.parallel_copies > 0).collect();
    stamped.sort_by(|a, b| a.file.cmp(&b.file));
    let mut per_setting: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
    for r in stamped {
        if let Some(pct) = num(&r.doc, &["phases", "non_concurrent_shuffle_pct"]) {
            let slot = per_setting.entry(r.parallel_copies).or_insert((0.0, 0));
            slot.0 += pct;
            slot.1 += 1;
        }
    }
    let mut rows = Vec::new();
    let mut best: Option<(f64, u64, f64)> = None; // (|Δ|, pc, mean)
    for (&pc, &(sum, n)) in &per_setting {
        let mean = sum / n as f64;
        rows.push(
            Json::obj()
                .field("parallel_copies", pc)
                .field("mean_shuffle_pct", mean)
                .field("runs", n),
        );
        let cand = ((mean - TABLE2_SHUFFLE_PCT).abs(), pc, mean);
        if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
            best = Some(cand);
        }
    }
    let mut out = Json::obj()
        .field("q", "overlap")
        .field("target_pct", TABLE2_SHUFFLE_PCT)
        .field("settings", Json::Arr(rows));
    if let Some((delta, pc, mean)) = best {
        out = out
            .field("best_parallel_copies", pc)
            .field("best_mean_shuffle_pct", mean)
            .field("best_delta_pct", delta);
    }
    out
}

// --- history ledger ---------------------------------------------------

fn fnv1a_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The headline metrics of a ledger-bound document: name → value, in
/// document order. `mean_ns` per benchmark for micro docs,
/// `makespan_s` per cell for sweep docs, and `profile_<sub>_share_pct`
/// per subsystem for `adios.profile/1` docs (kind `profile` — the
/// wall-time attribution regression signal).
fn bench_metrics(doc: &Json, file: &str) -> Result<(String, Json), String> {
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema == "adios.profile/1" {
        let mut shares =
            crate::profile_subsystem_shares(doc).map_err(|e| format!("{file}: {e}"))?;
        if shares.is_empty() {
            return Err(format!(
                "{file}: profile has no measured wall time to ingest"
            ));
        }
        // Name order, so the ledger field order is independent of
        // which subsystem happened to dominate this run.
        shares.sort_by(|a, b| a.0.cmp(&b.0));
        let mut metrics = Json::obj();
        for (name, pct) in &shares {
            metrics = metrics.field(
                &format!("profile_{name}_share_pct"),
                (pct * 100.0).round() / 100.0,
            );
        }
        return Ok(("profile".into(), metrics));
    }
    if schema != "adios.bench/1" {
        return Err(format!(
            "{file}: history ingests adios.bench/1 or adios.profile/1 documents (schema '{schema}')"
        ));
    }
    let mut metrics = Json::obj();
    if let Some(Json::Arr(cells)) = doc.get("cells") {
        for c in cells {
            let (n, v, d) = (
                num(c, &["nodes"]).unwrap_or(0.0),
                num(c, &["vms_per_node"]).unwrap_or(0.0),
                num(c, &["data_mb_per_vm"]).unwrap_or(0.0),
            );
            let plan = c.get("plan").and_then(Json::as_str).unwrap_or("?");
            let mk = num(c, &["makespan_s"])
                .ok_or_else(|| format!("{file}: sweep cell missing makespan_s"))?;
            metrics = metrics.field(&format!("n{n}x{v}_d{d}mb_{plan}"), mk);
        }
        // Multi-job service columns ride along in the sweep document:
        // one mean-latency cell per service policy (simulated time, so
        // deterministic and ledger-safe).
        if let Some(Json::Arr(mj)) = doc.get("multijob_cells") {
            for c in mj {
                let plan = c.get("plan").and_then(Json::as_str).unwrap_or("?");
                let lat = num(c, &["mean_latency_s"])
                    .ok_or_else(|| format!("{file}: multijob cell missing mean_latency_s"))?;
                metrics = metrics.field(&format!("mj_{plan}_latency_s"), lat);
            }
        }
        Ok(("sweep".into(), metrics))
    } else if let Some(Json::Arr(results)) = doc.get("results") {
        for r in results {
            let name = r
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{file}: bench result missing name"))?;
            let mean = num(r, &["mean_ns"])
                .ok_or_else(|| format!("{file}: bench result missing mean_ns"))?;
            metrics = metrics.field(name, mean);
        }
        Ok(("micro".into(), metrics))
    } else {
        Err(format!("{file}: bench document has neither cells nor results"))
    }
}

/// Outcome of [`history_append`].
#[derive(Debug)]
pub struct HistoryOutcome {
    /// The full new ledger text (caller writes it back).
    pub ledger: String,
    /// One-line human summary of what happened.
    pub line: String,
    /// Ledger kind of the document (`micro`, `sweep`, `profile`).
    pub kind: String,
    /// False when the document's digest was already in the ledger
    /// (idempotent re-run) and nothing was appended.
    pub appended: bool,
    /// Worst regression percentage vs the previous entry, if any
    /// comparison was possible. Positive = slower.
    pub worst_pct: Option<f64>,
    /// Alert rules the appended document tripped against the trailing
    /// window it extended (always empty when nothing was appended).
    pub fired: Vec<Alert>,
}

/// Append `doc` to the JSONL ledger, computing regression deltas
/// against the previous entry of the same kind and evaluating `rules`
/// against the trailing window *before* the document extends it. The
/// identity digest covers only the deterministic metrics map —
/// host-time fields like `wall_s` never enter the ledger — and a
/// digest seen *anywhere* in the ledger (not just the latest entry) is
/// deduplicated instead of re-appended.
pub fn history_append(
    ledger: &str,
    doc: &Json,
    file: &str,
    rules: &[AlertRule],
) -> Result<HistoryOutcome, String> {
    let mut entries = Vec::new();
    for (i, line) in ledger.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let e = Json::parse(line).map_err(|err| format!("ledger line {}: {err}", i + 1))?;
        if e.get("kind").and_then(Json::as_str).is_none() {
            return Err(format!("ledger line {}: entry has no kind", i + 1));
        }
        entries.push(e);
    }
    let (kind, metrics) = bench_metrics(doc, file)?;
    let digest = format!("{:016x}", fnv1a_str(&metrics.to_string()));
    let same_kind: Vec<&Json> = entries
        .iter()
        .filter(|e| e.get("kind").and_then(Json::as_str) == Some(kind.as_str()))
        .collect();
    if same_kind
        .iter()
        .any(|e| e.get("digest").and_then(Json::as_str) == Some(digest.as_str()))
    {
        return Ok(HistoryOutcome {
            ledger: ledger.to_string(),
            line: format!("history: {kind} unchanged (digest {digest}), not appended"),
            kind,
            appended: false,
            worst_pct: None,
            fired: Vec::new(),
        });
    }
    // Trailing metric maps of this kind, oldest → newest.
    let trailing: Vec<Json> = same_kind
        .iter()
        .filter_map(|e| e.get("metrics").cloned())
        .collect();

    let Json::Obj(fields) = &metrics else { unreachable!() };
    let metric_count = fields.len();
    let seq = entries.len() + 1;
    let mut entry = Json::obj()
        .field("seq", seq as u64)
        .field("kind", kind.as_str())
        .field("digest", digest.as_str())
        .field("entries", metric_count as u64);
    let mut worst: Option<(f64, String)> = None;
    if let Some(p) = trailing.last() {
        let mut compared = 0u64;
        let mut best: Option<(f64, String)> = None;
        for (name, v) in fields {
            let (Some(new), Some(old)) = (v.as_f64(), num(p, &[name])) else {
                continue;
            };
            if old == 0.0 {
                continue;
            }
            let pct = (new - old) / old * 100.0;
            compared += 1;
            if worst.as_ref().is_none_or(|(w, _)| pct > *w) {
                worst = Some((pct, name.clone()));
            }
            if best.as_ref().is_none_or(|(b, _)| pct < *b) {
                best = Some((pct, name.clone()));
            }
        }
        entry = entry.field("compared", compared);
        if let (Some((w, wn)), Some((b, bn))) = (&worst, &best) {
            entry = entry
                .field("worst_pct", *w)
                .field("worst", wn.as_str())
                .field("best_pct", *b)
                .field("best", bn.as_str());
        }
    }
    let fired = alerts::evaluate(rules, &metrics, &trailing);
    entry = entry.field("metrics", metrics);

    let mut ledger = ledger.to_string();
    if !ledger.is_empty() && !ledger.ends_with('\n') {
        ledger.push('\n');
    }
    ledger.push_str(&entry.to_string());
    ledger.push('\n');

    let line = match &worst {
        Some((w, wn)) => format!(
            "history: {kind} seq {seq} appended, {metric_count} metrics, worst delta {w:+.2}% ({wn})"
        ),
        None => format!(
            "history: {kind} seq {seq} appended, {metric_count} metrics (first of its kind)"
        ),
    };
    Ok(HistoryOutcome {
        ledger,
        line,
        kind,
        appended: true,
        worst_pct: worst.map(|(w, _)| w),
        fired,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal manifest-stamped metrics doc.
    fn doc(
        nodes: u64,
        vms: u64,
        mb: u64,
        plan: &str,
        mk: f64,
        phases: [f64; 3],
        qdepth: f64,
    ) -> (String, Json) {
        let d = Json::obj()
            .field("schema", "adios.metrics/2")
            .field("telemetry", "counters")
            .field(
                "manifest",
                Json::obj()
                    .field("nodes", nodes)
                    .field("vms_per_node", vms)
                    .field("data_mb_per_vm", mb)
                    .field("plan", plan)
                    .field("telemetry", "counters")
                    .field("workload", "sort")
                    .field("parallel_copies", 5u64)
                    .field("seed", "00000000deadbeef"),
            )
            .field(
                "run",
                Json::obj().field("makespan_s", mk).field("nodes", nodes),
            )
            .field(
                "phases",
                Json::obj()
                    .field("ph1_s", phases[0])
                    .field("ph2_s", phases[1])
                    .field("ph3_s", phases[2])
                    .field("non_concurrent_shuffle_pct", 100.0 * phases[1] / mk),
            )
            .field(
                "dom0_elevator",
                Json::obj().field("queue_depth", Json::obj().field("mean", qdepth)),
            )
            .field("disk", Json::obj().field("busy_s", mk * nodes as f64 * 0.5));
        (format!("{plan}.json"), d)
    }

    #[test]
    fn rank_detects_fig6_style_crossover() {
        // The Fig. 6 structure: (AS,DL) "ad" wins phase 1, (DL,AS)
        // "da" wins phases 2 and 3.
        let docs = vec![
            doc(4, 4, 512, "ad", 30.0, [10.0, 12.0, 8.0], 6.0),
            doc(4, 4, 512, "da", 29.0, [11.0, 11.0, 7.0], 7.0),
            doc(4, 4, 512, "cc", 33.0, [12.0, 13.0, 8.5], 9.0),
        ];
        let runs = load_runs(&docs).unwrap();
        let r = rank(&runs).unwrap();
        assert!(r.crossovers >= 1, "{}", r.text);
        assert!(
            r.text.contains("** crossover: ad wins ph[1], da wins ph[2, 3]"),
            "{}",
            r.text
        );
        assert!(r.text.contains("ph1  1. ad 10.000s"), "{}", r.text);
        assert!(r.text.contains("ph2  1. da 11.000s"), "{}", r.text);
    }

    #[test]
    fn rank_reports_absence_of_crossover() {
        // One plan dominates every phase: no crossover anywhere.
        let docs = vec![
            doc(2, 2, 64, "cc", 20.0, [8.0, 8.0, 4.0], 5.0),
            doc(2, 2, 64, "dd", 19.0, [7.0, 7.5, 3.9], 5.5),
        ];
        let r = rank(&load_runs(&docs).unwrap()).unwrap();
        assert_eq!(r.crossovers, 0);
        assert!(r.text.contains("(no phase-local ranking crossover)"));
        assert!(r.text.contains("crossovers: 0"));
    }

    #[test]
    fn rank_groups_shapes_separately_and_is_deterministic() {
        let docs = vec![
            doc(4, 4, 512, "ad", 30.0, [10.0, 12.0, 8.0], 6.0),
            doc(2, 2, 64, "cc", 20.0, [8.0, 8.0, 4.0], 5.0),
            doc(4, 4, 512, "da", 29.0, [11.0, 11.0, 7.0], 7.0),
        ];
        let runs = load_runs(&docs).unwrap();
        let a = rank(&runs).unwrap().text;
        let b = rank(&runs).unwrap().text;
        assert_eq!(a, b);
        let small = a.find("[2x2").unwrap();
        let big = a.find("[4x4").unwrap();
        assert!(small < big, "groups must render in shape order:\n{a}");
    }

    #[test]
    fn load_rejects_unstamped_documents() {
        let bare = Json::obj().field("schema", "adios.metrics/2");
        let err = load_runs(&[("x.json".into(), bare)]).unwrap_err();
        assert!(err.contains("no manifest"), "{err}");
        let foreign = Json::obj().field("schema", "adios.bench/1");
        let err = load_runs(&[("y.json".into(), foreign)]).unwrap_err();
        assert!(err.contains("not an adios.metrics"), "{err}");
    }

    #[test]
    fn correlate_renders_gains_and_coefficients() {
        // Gains rise with queue depth -> strong positive correlation.
        let docs = vec![
            doc(4, 4, 512, "cc", 30.0, [10.0, 12.0, 8.0], 4.0),
            doc(4, 4, 512, "ad", 27.0, [9.0, 11.0, 7.0], 6.0),
            doc(4, 4, 512, "da", 24.0, [8.0, 10.0, 6.0], 8.0),
        ];
        let out = correlate(&load_runs(&docs).unwrap()).unwrap();
        assert!(out.contains("baseline cc makespan 30.000s"), "{out}");
        assert!(out.contains("corr(gain, qdepth) = +1.000"), "{out}");
        // Baseline's own gain is zero.
        assert!(out.contains("cc            30.000s     0.00"), "{out}");
    }

    #[test]
    fn correlate_prefers_series_signal_when_present() {
        let (name, d) = doc(4, 4, 512, "cc", 30.0, [10.0, 12.0, 8.0], 4.0);
        // Graft a full-telemetry series whose mean (12.0) differs from
        // the counters-level stat (4.0).
        let d = d.field(
            "series",
            Json::obj().field(
                "dom0_qdepth",
                Json::obj()
                    .field("sum", Json::Arr(vec![Json::from(20.0), Json::from(4.0)]))
                    .field("count", Json::Arr(vec![Json::from(1u64), Json::from(1u64)])),
            ),
        );
        let out = correlate(&load_runs(&[(name, d)]).unwrap()).unwrap();
        assert!(out.contains("12.00"), "series mean must win:\n{out}");
    }

    #[test]
    fn rank_and_correlate_ignore_input_order() {
        // Any input order must render the same rank/correlate bytes:
        // members sort by (plan, file), rows by (time, plan, file).
        let docs = vec![
            doc(4, 4, 512, "ad", 30.0, [10.0, 12.0, 8.0], 6.0),
            doc(4, 4, 512, "da", 29.0, [11.0, 11.0, 7.0], 7.0),
            doc(4, 4, 512, "cc", 33.0, [12.0, 13.0, 8.5], 9.0),
            doc(2, 2, 64, "cc", 20.0, [8.0, 8.0, 4.0], 5.0),
            doc(2, 2, 64, "dd", 19.0, [7.0, 7.5, 3.9], 5.5),
        ];
        let runs = load_runs(&docs).unwrap();
        let want_rank = rank(&runs).unwrap().text;
        let want_corr = correlate(&runs).unwrap();
        // A few representative permutations (reversed, rotated, swapped).
        for order in [[4, 3, 2, 1, 0], [2, 0, 4, 1, 3], [1, 4, 0, 3, 2]] {
            let permuted: Vec<Run> = order.iter().map(|&i| runs[i].clone()).collect();
            assert_eq!(rank(&permuted).unwrap().text, want_rank, "order {order:?}");
            assert_eq!(correlate(&permuted).unwrap(), want_corr, "order {order:?}");
        }
    }

    #[test]
    fn whatif_prefers_cache_then_metrics_then_interpolates() {
        // No data at all: unknown.
        let a = whatif(&[], &[], 4, 4, 512, "sort").to_string();
        assert!(a.contains("\"provenance\":\"unknown\""), "{a}");

        // Two data sizes of one shape.
        let runs = load_runs(&[
            doc(4, 4, 256, "cc", 20.0, [8.0, 8.0, 4.0], 5.0),
            doc(4, 4, 256, "dd", 24.0, [9.0, 10.0, 5.0], 5.5),
            doc(4, 4, 1024, "cc", 60.0, [20.0, 24.0, 16.0], 6.0),
            doc(4, 4, 1024, "dd", 48.0, [18.0, 20.0, 10.0], 6.5),
        ])
        .unwrap();
        // Exact group: cached from metrics.
        let a = whatif(&runs, &[], 4, 4, 256, "sort").to_string();
        assert!(a.contains("\"provenance\":\"cached\""), "{a}");
        assert!(a.contains("\"source\":\"metrics\""), "{a}");
        assert!(a.contains("\"plan\":\"cc\""), "{a}");
        // Between sizes: interpolated. At 640 MB (midpoint), cc = 40.0
        // and dd = 36.0 — dd wins only through interpolation.
        let a = whatif(&runs, &[], 4, 4, 640, "sort").to_string();
        assert!(a.contains("\"provenance\":\"interpolated\""), "{a}");
        assert!(a.contains("\"plan\":\"dd\""), "{a}");
        assert!(a.contains("256mb..1024mb"), "{a}");
        // Outside the sampled range: nearest group, still interpolated.
        let a = whatif(&runs, &[], 4, 4, 2048, "sort").to_string();
        assert!(a.contains("nearest 1024mb"), "{a}");

        // An eval-cache snapshot outranks everything.
        let snap = Json::obj()
            .field("schema", "adios.evalcache/1")
            .field(
                "entries",
                Json::Arr(vec![Json::obj()
                    .field("nodes", 4u64)
                    .field("vms_per_node", 4u64)
                    .field("data_mb_per_vm", 256u64)
                    .field("workload", "sort")
                    .field("plan", "ad")
                    .field("score_s", 18.5)]),
            );
        let cache = cache_entries("snap.json", &snap).unwrap();
        assert_eq!(cache.len(), 1);
        let a = whatif(&runs, &cache, 4, 4, 256, "sort").to_string();
        assert!(a.contains("\"source\":\"evalcache\""), "{a}");
        assert!(a.contains("\"plan\":\"ad\""), "{a}");
        assert!(a.contains("\"expected_makespan_s\":18.5"), "{a}");
        // A different workload does not see sort's cache entry.
        let a = whatif(&runs, &cache, 4, 4, 256, "wordcount").to_string();
        assert!(a.contains("\"provenance\":\"unknown\""), "{a}");
        // A snapshot without entries is rejected.
        let bare = Json::obj().field("schema", "adios.evalcache/1");
        assert!(cache_entries("x.json", &bare).unwrap_err().contains("no entries"));
    }

    #[test]
    fn overlap_tracks_parallel_copies_axis() {
        // Distinct pc settings via manifest parallel_copies, each with
        // a controlled shuffle pct.
        let with_pc = |file: &str, pc: u64, pct: f64| {
            let (_, d) = doc(4, 4, 512, &format!("cc@pc{pc}"), 30.0, [10.0, 12.0, 8.0], 6.0);
            let Json::Obj(mut fields) = d else { unreachable!() };
            for (k, v) in fields.iter_mut() {
                let Json::Obj(section) = v else { continue };
                for (sk, sv) in section.iter_mut() {
                    match (k.as_str(), sk.as_str()) {
                        ("manifest", "parallel_copies") => *sv = Json::from(pc),
                        ("phases", "non_concurrent_shuffle_pct") => *sv = Json::from(pct),
                        _ => {}
                    }
                }
            }
            (file.to_string(), Json::Obj(fields))
        };
        let runs = load_runs(&[
            with_pc("a.json", 1, 40.0),
            with_pc("b.json", 5, 28.0),
            with_pc("c.json", 10, 14.0),
            with_pc("d.json", 10, 16.0),
        ])
        .unwrap();
        let o = overlap(&runs).to_string();
        assert!(o.contains("\"best_parallel_copies\":5"), "{o}");
        assert!(o.contains("\"target_pct\":29.5"), "{o}");
        assert!(o.contains("{\"parallel_copies\":10,\"mean_shuffle_pct\":15,\"runs\":2}"), "{o}");
    }

    fn micro(names_means: &[(&str, f64)]) -> Json {
        let mut arr = Vec::new();
        for (n, m) in names_means {
            arr.push(Json::obj().field("name", *n).field("mean_ns", *m));
        }
        Json::obj()
            .field("schema", "adios.bench/1")
            .field("quick", true)
            .field("results", Json::Arr(arr))
    }

    #[test]
    fn history_appends_deltas_and_dedupes() {
        let a = micro(&[("push", 100.0), ("pop", 200.0)]);
        let o1 = history_append("", &a, "a.json", &[]).unwrap();
        assert!(o1.appended);
        assert!(o1.ledger.contains("\"seq\":1"));
        assert!(o1.line.contains("first of its kind"), "{}", o1.line);

        // Same doc again: idempotent, ledger unchanged.
        let o2 = history_append(&o1.ledger, &a, "a.json", &[]).unwrap();
        assert!(!o2.appended);
        assert_eq!(o2.ledger, o1.ledger);

        // A 10% regression on `push` is the worst delta.
        let b = micro(&[("push", 110.0), ("pop", 190.0)]);
        let o3 = history_append(&o1.ledger, &b, "b.json", &[]).unwrap();
        assert!(o3.appended);
        assert_eq!(o3.worst_pct.map(|w| w.round()), Some(10.0));
        assert!(o3.ledger.contains("\"worst\":\"push\""), "{}", o3.ledger);
        assert!(o3.ledger.contains("\"compared\":2"), "{}", o3.ledger);
        assert!(o3.line.contains("worst delta +10.00% (push)"), "{}", o3.line);
    }

    fn profile(net_ns: u64, iosched_ns: u64) -> Json {
        let span = |name: &str, ns: u64| {
            Json::obj()
                .field("name", name)
                .field("calls", 1u64)
                .field("total_ns", ns)
                .field("self_ns", ns)
        };
        Json::obj().field("schema", "adios.profile/1").field(
            "spans",
            Json::Arr(vec![span("net.solve", net_ns), span("iosched.dispatch", iosched_ns)]),
        )
    }

    #[test]
    fn history_ingests_profile_shares_as_their_own_kind() {
        let o1 = history_append("", &profile(600, 400), "p1.json", &[]).unwrap();
        assert!(o1.appended);
        assert!(o1.ledger.contains("\"kind\":\"profile\""), "{}", o1.ledger);
        // Field order is by subsystem name, not by dominance.
        let net = o1.ledger.find("profile_net_share_pct").unwrap();
        let io = o1.ledger.find("profile_iosched_share_pct").unwrap();
        assert!(io < net, "{}", o1.ledger);

        // A share shift appends a delta'd entry; re-ingest is a no-op.
        let o2 = history_append(&o1.ledger, &profile(900, 100), "p2.json", &[]).unwrap();
        assert!(o2.appended);
        assert!(o2.worst_pct.is_some(), "{}", o2.line);
        let o3 = history_append(&o2.ledger, &profile(900, 100), "p2.json", &[]).unwrap();
        assert!(!o3.appended, "{}", o3.line);
    }

    #[test]
    fn history_rejects_skeleton_profiles() {
        let doc = Json::obj().field("schema", "adios.profile/1").field(
            "spans",
            Json::Arr(vec![Json::obj().field("name", "net.solve").field("calls", 1u64)]),
        );
        let err = history_append("", &doc, "p.json", &[]).unwrap_err();
        assert!(err.contains("no measured wall time"), "{err}");
    }

    #[test]
    fn history_dedupes_against_any_prior_digest() {
        // a, then b, then a again: the third ingest must be a no-op
        // even though a is no longer the latest entry of its kind.
        let a = micro(&[("push", 100.0)]);
        let b = micro(&[("push", 120.0)]);
        let l1 = history_append("", &a, "a.json", &[]).unwrap().ledger;
        let l2 = history_append(&l1, &b, "b.json", &[]).unwrap().ledger;
        let o3 = history_append(&l2, &a, "a.json", &[]).unwrap();
        assert!(!o3.appended, "{}", o3.line);
        assert_eq!(o3.ledger, l2);
    }

    #[test]
    fn history_checks_alert_rules_against_the_prior_window() {
        let rules = crate::alerts::parse_rules(
            &Json::parse(
                r#"{"schema":"adios.alertrules/1","rules":[{"metric":"push","max_delta_pct":10}]}"#,
            )
            .unwrap(),
            "rules.json",
        )
        .unwrap();
        // The first entry seeds the window instead of firing.
        let o1 = history_append("", &micro(&[("push", 100.0)]), "a.json", &rules).unwrap();
        assert!(o1.fired.is_empty());
        // +20% against the window the document is about to extend.
        let slow = micro(&[("push", 120.0)]);
        let o2 = history_append(&o1.ledger, &slow, "b.json", &rules).unwrap();
        assert_eq!(o2.kind, "micro");
        assert_eq!(o2.fired.len(), 1);
        assert_eq!(o2.fired[0].metric, "push");
        assert!((o2.fired[0].reference - 100.0).abs() < 1e-9);
        // A re-run is deduplicated and fires nothing.
        let o3 = history_append(&o2.ledger, &slow, "b.json", &rules).unwrap();
        assert!(!o3.appended && o3.fired.is_empty());
    }

    #[test]
    fn history_entries_are_byte_deterministic() {
        let a = micro(&[("push", 100.0)]);
        let x = history_append("", &a, "a.json", &[]).unwrap().ledger;
        let y = history_append("", &a, "a.json", &[]).unwrap().ledger;
        assert_eq!(x, y);
        // No host-time leakage: a doc differing only in a wall_s field
        // hashes identically (metrics map is the identity).
        let noisy = a.clone().field("wall_s", 1.23);
        let z = history_append("", &noisy, "a.json", &[]).unwrap().ledger;
        assert_eq!(x, z);
    }

    #[test]
    fn history_tracks_sweep_cells_by_shape_key() {
        let sweep = Json::obj()
            .field("schema", "adios.bench/1")
            .field("kind", "sweep")
            .field(
                "cells",
                Json::Arr(vec![Json::obj()
                    .field("nodes", 8u64)
                    .field("vms_per_node", 4u64)
                    .field("data_mb_per_vm", 64u64)
                    .field("plan", "cc")
                    .field("makespan_s", 10.5)
                    .field("wall_s", 0.07)]),
            );
        let o = history_append("", &sweep, "s.json", &[]).unwrap();
        assert!(o.ledger.contains("\"kind\":\"sweep\""), "{}", o.ledger);
        assert!(o.ledger.contains("\"n8x4_d64mb_cc\":10.5"), "{}", o.ledger);
        // Micro and sweep ledgers interleave without cross-talk.
        let m = micro(&[("push", 100.0)]);
        let o2 = history_append(&o.ledger, &m, "m.json", &[]).unwrap();
        assert!(o2.ledger.contains("\"seq\":2"));
        assert!(!o2.ledger.contains("compared"), "{}", o2.ledger);
    }

    #[test]
    fn history_folds_multijob_service_cells() {
        let sweep = Json::obj()
            .field("schema", "adios.bench/1")
            .field(
                "cells",
                Json::Arr(vec![Json::obj()
                    .field("nodes", 4u64)
                    .field("vms_per_node", 4u64)
                    .field("data_mb_per_vm", 64u64)
                    .field("plan", "cc")
                    .field("makespan_s", 12.0)]),
            )
            .field(
                "multijob_cells",
                Json::Arr(vec![
                    Json::obj()
                        .field("plan", "best-single")
                        .field("mean_latency_s", 30.5)
                        .field("wall_s", 0.4),
                    Json::obj()
                        .field("plan", "adaptive")
                        .field("mean_latency_s", 28.25)
                        .field("wall_s", 0.5),
                ]),
            );
        let o = history_append("", &sweep, "s.json", &[]).unwrap();
        assert!(o.ledger.contains("\"mj_best-single_latency_s\":30.5"), "{}", o.ledger);
        assert!(o.ledger.contains("\"mj_adaptive_latency_s\":28.25"), "{}", o.ledger);
        // The service cells are part of the identity: a latency change
        // is a new ledger entry, not a dedupe.
        let mut changed = sweep.clone();
        if let Json::Obj(fields) = &mut changed {
            let mj = fields.iter_mut().find(|(k, _)| k == "multijob_cells").unwrap();
            if let Json::Arr(cells) = &mut mj.1 {
                if let Json::Obj(c0) = &mut cells[0] {
                    c0.iter_mut().find(|(k, _)| k == "mean_latency_s").unwrap().1 =
                        Json::Num(31.0);
                }
            }
        }
        let o2 = history_append(&o.ledger, &changed, "s.json", &[]).unwrap();
        assert!(o2.appended, "changed service cell must append");
        // A multijob cell without its metric is a hard error.
        let bad = Json::obj()
            .field("schema", "adios.bench/1")
            .field("cells", Json::Arr(vec![]))
            .field(
                "multijob_cells",
                Json::Arr(vec![Json::obj().field("plan", "adaptive")]),
            );
        let err = history_append("", &bad, "x.json", &[]).unwrap_err();
        assert!(err.contains("mean_latency_s"), "{err}");
    }

    #[test]
    fn history_rejects_foreign_schemas() {
        let bad = Json::obj().field("schema", "adios.metrics/2");
        let err = history_append("", &bad, "x.json", &[]).unwrap_err();
        assert!(err.contains("adios.bench/1"), "{err}");
    }

    #[test]
    fn pearson_accumulator_matches_closed_form() {
        let mut acc = PearsonAcc::default();
        for (x, y) in [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)] {
            acc.push(x, y);
        }
        assert!((acc.r().unwrap() - 1.0).abs() < 1e-12);
        let mut anti = PearsonAcc::default();
        for (x, y) in [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)] {
            anti.push(x, y);
        }
        assert!((anti.r().unwrap() + 1.0).abs() < 1e-12);
        // Degenerate axis: no coefficient.
        let mut flat = PearsonAcc::default();
        for x in [1.0, 2.0, 3.0] {
            flat.push(x, 5.0);
        }
        assert_eq!(flat.r(), None);
        // Under 3 points: no coefficient.
        let mut two = PearsonAcc::default();
        two.push(1.0, 1.0);
        two.push(2.0, 2.0);
        assert_eq!(two.r(), None);
    }
}

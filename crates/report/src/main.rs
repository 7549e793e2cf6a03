//! `adios-report` — inspect and compare adios metrics documents.
//!
//! ```text
//! adios-report render <doc.json>
//! adios-report diff <a.json> <b.json> [--shape] [--fail-on-delta] [--fail-on-share-delta [pct]]
//! adios-report replay <flight.json>
//! adios-report rank --metrics-dir <dir> [--require-crossover]
//! adios-report correlate --metrics-dir <dir>
//! adios-report history --ledger <file> [--alert-rules <json>] [--alerts-out <json>] <doc.json>...
//! adios-report whatif --metrics-dir <dir> --nodes N --vms V --data-mb D [--workload W]
//! adios-report overlap --metrics-dir <dir>
//! ```
//!
//! A path of `-` reads from stdin. `render` exits non-zero on parse or
//! schema errors; `diff --fail-on-delta` additionally exits 2 when the
//! documents differ (so CI can assert a self-diff is empty). `--shape`
//! compares structure only — which keys and named benchmark entries
//! exist, not their values — the right gate for committed benchmark
//! baselines whose timings drift from machine to machine.
//!
//! The cross-run analytics commands read manifest-stamped
//! `adios.metrics/2` documents produced by `repro-cli sweep
//! --metrics-dir`: `rank` prints per-phase plan rankings per (shape,
//! data) group and exits 2 under `--require-crossover` when no
//! phase-local ranking crossover exists anywhere (the D6 gate);
//! `correlate` prints gain-vs-queue-depth/disk-busy tables (the D3
//! diagnosis); `whatif` answers the best plan for a configuration from
//! measured runs and `tune --cache-out` snapshots in the directory;
//! `overlap` prints the mean non-concurrent shuffle share per
//! `--parallel-copies` setting against Table II (the D4 probe).
//! `history` appends `adios.bench/1` and `adios.profile/1` documents
//! to an append-only JSONL ledger with regression deltas,
//! deterministically and idempotently; with `--alert-rules` each
//! document is first checked against the ledger's trailing window, and
//! the command exits 2 (writing `--alerts-out` as `adios.alerts/1`)
//! when an appended document fires a rule.

use simcore::Json;
use std::io::Read as _;
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("stdin: {e}"))?;
        s
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn usage() -> ExitCode {
    eprintln!("usage: adios-report render <doc.json>");
    eprintln!("       adios-report diff <a.json> <b.json> [--shape] [--fail-on-delta]");
    eprintln!("                          [--fail-on-share-delta [pct]]");
    eprintln!("       adios-report replay <flight.json>");
    eprintln!("       adios-report rank --metrics-dir <dir> [--require-crossover]");
    eprintln!("       adios-report correlate --metrics-dir <dir>");
    eprintln!("       adios-report history --ledger <file> [--alert-rules <json>] [--alerts-out <json>]");
    eprintln!("                            <doc.json>...");
    eprintln!("       adios-report whatif --metrics-dir <dir> --nodes N --vms V --data-mb D [--workload W]");
    eprintln!("       adios-report overlap --metrics-dir <dir>");
    ExitCode::FAILURE
}

/// Value of a `--flag value` pair anywhere in `args`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Load every `*.json` in `dir`, sorted by file name so the run set —
/// and everything rendered from it — is deterministic.
fn load_metrics_dir(dir: &str) -> Result<Vec<(String, Json)>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("{dir}: no *.json metrics documents"));
    }
    let mut docs = Vec::with_capacity(names.len());
    for n in names {
        let path = format!("{dir}/{n}");
        docs.push((n, load(&path)?));
    }
    Ok(docs)
}

/// The arguments that are neither flags nor the values of `value_flags`.
fn positional<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if value_flags.contains(&a.as_str()) {
            it.next();
        } else if !a.starts_with("--") {
            out.push(a);
        }
    }
    out
}

fn parse_u64(args: &[String], flag: &str) -> Result<u64, String> {
    flag_value(args, flag)
        .ok_or_else(|| format!("whatif needs {flag}"))?
        .parse::<u64>()
        .map_err(|e| format!("{flag}: {e}"))
}

fn run_store_command(args: &[String]) -> Result<ExitCode, String> {
    use report::store;
    match args[0].as_str() {
        "rank" => {
            let dir = flag_value(args, "--metrics-dir").ok_or("rank needs --metrics-dir")?;
            let require = args.iter().any(|a| a == "--require-crossover");
            let r = store::rank(&store::load_runs(&load_metrics_dir(dir)?)?)?;
            print!("{}", r.text);
            if require && r.crossovers == 0 {
                eprintln!("adios-report: no phase-local ranking crossover found");
                return Ok(ExitCode::from(2));
            }
            Ok(ExitCode::SUCCESS)
        }
        "correlate" => {
            let dir = flag_value(args, "--metrics-dir").ok_or("correlate needs --metrics-dir")?;
            let runs = store::load_runs(&load_metrics_dir(dir)?)?;
            print!("{}", store::correlate(&runs)?);
            Ok(ExitCode::SUCCESS)
        }
        "overlap" => {
            let dir = flag_value(args, "--metrics-dir").ok_or("overlap needs --metrics-dir")?;
            let runs = store::load_runs(&load_metrics_dir(dir)?)?;
            println!("{}", store::overlap(&runs).to_string());
            Ok(ExitCode::SUCCESS)
        }
        "history" => {
            let path = flag_value(args, "--ledger").ok_or("history needs --ledger <file>")?;
            let docs = positional(&args[1..], &["--ledger", "--alert-rules", "--alerts-out"]);
            if docs.is_empty() {
                return Err("history needs at least one bench document".into());
            }
            let rules = match flag_value(args, "--alert-rules") {
                Some(r) => report::alerts::parse_rules(&load(r)?, r)?,
                None => Vec::new(),
            };
            let mut ledger = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
                Err(e) => return Err(format!("{path}: {e}")),
            };
            let mut fired = Vec::new();
            let mut fired_source = (String::new(), String::new());
            for d in docs {
                let out = store::history_append(&ledger, &load(d)?, d, &rules)?;
                println!("{}", out.line);
                for a in &out.fired {
                    eprintln!(
                        "ALERT {}: {:.3} vs trailing {:.3} ({:+.2}% > {:+.2}% over {} entries)",
                        a.metric, a.value, a.reference, a.delta_pct, a.max_delta_pct, a.window
                    );
                }
                if !out.fired.is_empty() {
                    fired_source = (out.kind, d.clone());
                    fired.extend(out.fired);
                }
                ledger = out.ledger;
            }
            std::fs::write(path, &ledger).map_err(|e| format!("{path}: {e}"))?;
            if fired.is_empty() {
                return Ok(ExitCode::SUCCESS);
            }
            if let Some(out) = flag_value(args, "--alerts-out") {
                let doc = report::alerts::alerts_doc(&fired_source.0, &fired_source.1, &fired);
                std::fs::write(out, format!("{}\n", doc.to_string())).map_err(|e| format!("{out}: {e}"))?;
            }
            eprintln!("adios-report: {} alert(s) fired", fired.len());
            Ok(ExitCode::from(2))
        }
        "whatif" => {
            let dir = flag_value(args, "--metrics-dir").ok_or("whatif needs --metrics-dir")?;
            let nodes = parse_u64(args, "--nodes")?;
            let vms = parse_u64(args, "--vms")?;
            let data_mb = parse_u64(args, "--data-mb")?;
            let workload = flag_value(args, "--workload").unwrap_or("?");
            let mut named = Vec::new();
            let mut cache = Vec::new();
            for (name, doc) in load_metrics_dir(dir)? {
                // Bench/profile documents feed the ledger and service
                // documents carry no run manifest: neither plans.
                let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
                let service = doc.get("manifest").is_none()
                    && doc.get("kind").and_then(Json::as_str) == Some("service");
                match schema {
                    "adios.evalcache/1" => cache.extend(store::cache_entries(&name, &doc)?),
                    "adios.bench/1" | "adios.profile/1" => {}
                    _ if service => {}
                    _ => named.push((name, doc)),
                }
            }
            let runs = store::load_runs(&named)?;
            println!(
                "{}",
                store::whatif(&runs, &cache, nodes, vms, data_mb, workload).to_string()
            );
            Ok(ExitCode::SUCCESS)
        }
        _ => unreachable!(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("render") => {
            let [_, path] = args.as_slice() else { return usage() };
            match load(path).and_then(|doc| report::render(&doc)) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("adios-report: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("diff") => {
            let fail_on_delta = args.iter().any(|a| a == "--fail-on-delta");
            let shape = args.iter().any(|a| a == "--shape");
            // `--fail-on-share-delta` takes an optional threshold in
            // percentage points (default 5): for adios.profile/1 pairs,
            // exit 2 when any subsystem's share moved more than that.
            let mut share_gate: Option<f64> = None;
            let mut paths: Vec<&String> = Vec::new();
            let mut i = 1;
            while i < args.len() {
                let a = &args[i];
                if a == "--fail-on-share-delta" {
                    let thresh = args
                        .get(i + 1)
                        .and_then(|v| v.parse::<f64>().ok())
                        .inspect(|_| i += 1)
                        .unwrap_or(5.0);
                    share_gate = Some(thresh);
                } else if a.starts_with("--") {
                    if a != "--fail-on-delta" && a != "--shape" {
                        eprintln!("adios-report: unknown flag {a}");
                        return usage();
                    }
                } else {
                    paths.push(a);
                }
                i += 1;
            }
            let [a, b] = paths.as_slice() else { return usage() };
            match (load(a), load(b)) {
                (Ok(da), Ok(db)) => {
                    if let Some(thresh) = share_gate {
                        return match report::diff_profile_shares(&da, &db, thresh) {
                            Ok((text, tripped)) => {
                                print!("{text}");
                                if tripped {
                                    ExitCode::from(2)
                                } else {
                                    ExitCode::SUCCESS
                                }
                            }
                            Err(e) => {
                                eprintln!("adios-report: {e}");
                                ExitCode::FAILURE
                            }
                        };
                    }
                    let (text, deltas) = if shape {
                        report::diff_shape(&da, &db)
                    } else {
                        report::diff(&da, &db)
                    };
                    print!("{text}");
                    if fail_on_delta && !deltas.is_empty() {
                        ExitCode::from(2)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("adios-report: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("replay") => {
            let [_, path] = args.as_slice() else { return usage() };
            match load(path).and_then(|doc| report::replay_flight(&doc)) {
                Ok(replay) => {
                    print!("{}", replay.text);
                    if replay.violations == 0 {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(2)
                    }
                }
                Err(e) => {
                    eprintln!("adios-report: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("rank" | "correlate" | "overlap" | "history" | "whatif") => match run_store_command(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("adios-report: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}

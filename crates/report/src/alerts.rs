//! Regression alerting over the bench ledger's trailing window.
//!
//! An `adios.alertrules/1` document names per-metric relative-delta
//! thresholds:
//!
//! ```json
//! {"schema":"adios.alertrules/1","rules":[
//!   {"metric":"push","max_delta_pct":10.0,"window":3},
//!   {"metric":"mj_*","max_delta_pct":5.0}
//! ]}
//! ```
//!
//! `metric` is an exact metric name or a trailing-`*` prefix wildcard
//! over the ledger's metric keys (`push`, `n8x4_d64mb_cc`,
//! `mj_adaptive_latency_s`, …). `window` (default 1) is how many
//! trailing ledger entries of the same kind feed the reference: the
//! rule fires when the incoming value exceeds the mean of up to
//! `window` prior values by more than `max_delta_pct` percent. A
//! metric with no prior value cannot fire (first ingest seeds the
//! window instead of alerting on it).
//!
//! `adios-report history --alert-rules` runs the evaluator against the
//! reference window each document is *about to extend* — so the
//! perturbed document itself never dilutes its own reference. Fired
//! alerts render as an `adios.alerts/1` document (`--alerts-out`) and
//! a process exit code of 2 (the same convention `diff
//! --fail-on-delta` uses), which is what lets CI gate a regression
//! instead of eyeballing the BENCH_* trajectory.
//!
//! Pure module: rules and metric windows in, alerts document out; the
//! CLI owns all I/O.

use simcore::Json;

/// One parsed alert rule.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Exact metric name, or a prefix when [`AlertRule::prefix`] —
    /// `mj_*` stores `mj_` with `prefix = true`.
    pub metric: String,
    /// True when the rule came with a trailing-`*` wildcard.
    pub prefix: bool,
    /// Fire when the relative delta vs the reference exceeds this
    /// (percent; positive = the metric grew, i.e. got slower).
    pub max_delta_pct: f64,
    /// Trailing entries of the same kind that form the reference mean.
    pub window: usize,
}

impl AlertRule {
    /// Does this rule govern `name`?
    pub fn matches(&self, name: &str) -> bool {
        if self.prefix {
            name.starts_with(&self.metric)
        } else {
            name == self.metric
        }
    }
}

/// Parse an `adios.alertrules/1` document.
pub fn parse_rules(doc: &Json, file: &str) -> Result<Vec<AlertRule>, String> {
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "adios.alertrules/1" {
        return Err(format!(
            "{file}: not an adios.alertrules/1 document (schema '{schema}')"
        ));
    }
    let Some(Json::Arr(rules)) = doc.get("rules") else {
        return Err(format!("{file}: alert rules document has no rules array"));
    };
    let mut out = Vec::with_capacity(rules.len());
    for (i, r) in rules.iter().enumerate() {
        let metric = r
            .get("metric")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{file}: rule {} missing metric", i + 1))?;
        let max_delta_pct = r
            .get("max_delta_pct")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{file}: rule {} missing max_delta_pct", i + 1))?;
        let window = r
            .get("window")
            .and_then(Json::as_f64)
            .map(|w| w as usize)
            .unwrap_or(1);
        if window == 0 {
            return Err(format!("{file}: rule {} has a zero window", i + 1));
        }
        let (metric, prefix) = match metric.strip_suffix('*') {
            Some(stem) => (stem.to_string(), true),
            None => (metric.to_string(), false),
        };
        out.push(AlertRule {
            metric,
            prefix,
            max_delta_pct,
            window,
        });
    }
    Ok(out)
}

/// One fired alert.
#[derive(Debug, Clone)]
pub struct Alert {
    /// Metric that regressed.
    pub metric: String,
    /// Incoming value.
    pub value: f64,
    /// Trailing-window mean it was compared against.
    pub reference: f64,
    /// Observed relative delta, percent.
    pub delta_pct: f64,
    /// The rule's threshold, percent.
    pub max_delta_pct: f64,
    /// Window entries that formed the reference.
    pub window: usize,
}

/// Evaluate `rules` for an incoming metrics map against the trailing
/// metric maps of the same bench kind (`oldest → newest`, as
/// [`crate::store::history_append`] reads them from the ledger *before*
/// appending the document). Returns every fired alert, in metric order of the
/// incoming document; first-matching rule wins per metric.
pub fn evaluate(rules: &[AlertRule], incoming: &Json, trailing: &[Json]) -> Vec<Alert> {
    let Json::Obj(fields) = incoming else {
        return Vec::new();
    };
    let mut fired = Vec::new();
    for (name, v) in fields {
        let Some(value) = v.as_f64() else { continue };
        let Some(rule) = rules.iter().find(|r| r.matches(name)) else {
            continue;
        };
        // Mean of up to `window` most-recent prior values of this
        // metric (entries missing the metric don't count against the
        // window).
        let mut sum = 0.0;
        let mut n = 0usize;
        for m in trailing.iter().rev() {
            if let Some(old) = m.get(name).and_then(Json::as_f64) {
                sum += old;
                n += 1;
                if n == rule.window {
                    break;
                }
            }
        }
        if n == 0 {
            continue;
        }
        let reference = sum / n as f64;
        if reference == 0.0 {
            continue;
        }
        let delta_pct = (value - reference) / reference * 100.0;
        if delta_pct > rule.max_delta_pct {
            fired.push(Alert {
                metric: name.clone(),
                value,
                reference,
                delta_pct,
                max_delta_pct: rule.max_delta_pct,
                window: n,
            });
        }
    }
    fired
}

/// Render fired alerts as an `adios.alerts/1` document. `source` is
/// the file the offending bench document came from.
pub fn alerts_doc(kind: &str, source: &str, fired: &[Alert]) -> Json {
    Json::obj()
        .field("schema", "adios.alerts/1")
        .field("kind", kind)
        .field("source", source)
        .field("fired", fired.len() as u64)
        .field(
            "alerts",
            Json::Arr(
                fired
                    .iter()
                    .map(|a| {
                        Json::obj()
                            .field("metric", a.metric.clone())
                            .field("value", a.value)
                            .field("reference", a.reference)
                            .field("delta_pct", a.delta_pct)
                            .field("max_delta_pct", a.max_delta_pct)
                            .field("window", a.window as u64)
                    })
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(json: &str) -> Vec<AlertRule> {
        parse_rules(&Json::parse(json).unwrap(), "rules.json").unwrap()
    }

    fn metrics(pairs: &[(&str, f64)]) -> Json {
        let mut m = Json::obj();
        for &(k, v) in pairs {
            m = m.field(k, v);
        }
        m
    }

    #[test]
    fn parses_exact_and_wildcard_rules() {
        let r = rules(
            r#"{"schema":"adios.alertrules/1","rules":[
                {"metric":"push","max_delta_pct":10.0,"window":3},
                {"metric":"mj_*","max_delta_pct":5.0}
            ]}"#,
        );
        assert_eq!(r.len(), 2);
        assert!(r[0].matches("push") && !r[0].matches("pushx"));
        assert_eq!(r[0].window, 3);
        assert!(r[1].prefix);
        assert!(r[1].matches("mj_adaptive_latency_s"));
        assert!(!r[1].matches("n8x4_d64mb_cc"));
        assert_eq!(r[1].window, 1, "window defaults to the last entry");
    }

    #[test]
    fn rejects_malformed_rule_docs() {
        let bad = Json::obj().field("schema", "adios.bench/1");
        assert!(parse_rules(&bad, "x").unwrap_err().contains("alertrules"));
        let none = Json::obj().field("schema", "adios.alertrules/1");
        assert!(parse_rules(&none, "x").unwrap_err().contains("rules array"));
        let zero = Json::parse(
            r#"{"schema":"adios.alertrules/1","rules":[{"metric":"a","max_delta_pct":1.0,"window":0}]}"#,
        )
        .unwrap();
        assert!(parse_rules(&zero, "x").unwrap_err().contains("zero window"));
    }

    #[test]
    fn fires_only_past_the_threshold() {
        let r = rules(r#"{"schema":"adios.alertrules/1","rules":[{"metric":"push","max_delta_pct":10.0}]}"#);
        let trailing = [metrics(&[("push", 100.0)])];
        // +9% — under threshold.
        assert!(evaluate(&r, &metrics(&[("push", 109.0)]), &trailing).is_empty());
        // +11% — fires.
        let fired = evaluate(&r, &metrics(&[("push", 111.0)]), &trailing);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].metric, "push");
        assert!((fired[0].delta_pct - 11.0).abs() < 1e-9);
        // An improvement (negative delta) never fires.
        assert!(evaluate(&r, &metrics(&[("push", 50.0)]), &trailing).is_empty());
    }

    #[test]
    fn window_means_the_trailing_entries() {
        let r = rules(r#"{"schema":"adios.alertrules/1","rules":[{"metric":"push","max_delta_pct":10.0,"window":2}]}"#);
        // Window 2 over [90, 110]: reference 100. One old outlier at
        // 300 is outside the window and must not matter.
        let trailing = [
            metrics(&[("push", 300.0)]),
            metrics(&[("push", 90.0)]),
            metrics(&[("push", 110.0)]),
        ];
        let fired = evaluate(&r, &metrics(&[("push", 115.0)]), &trailing);
        assert_eq!(fired.len(), 1);
        assert!((fired[0].reference - 100.0).abs() < 1e-9);
        assert_eq!(fired[0].window, 2);
    }

    #[test]
    fn first_ingest_seeds_instead_of_firing() {
        let r = rules(r#"{"schema":"adios.alertrules/1","rules":[{"metric":"*","max_delta_pct":0.1}]}"#);
        assert!(evaluate(&r, &metrics(&[("push", 1e9)]), &[]).is_empty());
    }

    #[test]
    fn alerts_doc_is_deterministic_json() {
        let fired = vec![Alert {
            metric: "push".into(),
            value: 111.0,
            reference: 100.0,
            delta_pct: 11.0,
            max_delta_pct: 10.0,
            window: 1,
        }];
        let d = alerts_doc("micro", "BENCH_micro.json", &fired).to_string();
        assert!(d.contains("\"schema\":\"adios.alerts/1\""), "{d}");
        assert!(d.contains("\"fired\":1"), "{d}");
        assert!(d.contains("\"metric\":\"push\""), "{d}");
        assert_eq!(
            d,
            alerts_doc("micro", "BENCH_micro.json", &fired).to_string()
        );
    }
}

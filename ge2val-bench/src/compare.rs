//! Comparing two sets of run records metric by metric: medians, quartiles,
//! the relative change with its base, the bound, and a verdict.

use crate::contract::{Better, EndToEnd};
use crate::json::Json;
use crate::stats::Summary;
use std::collections::BTreeMap;

/// What one comparison concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is better by more than the base's own spread.
    Better,
    /// No worse than the bound, and not resolvably better.
    Within,
    /// Worse by more than the bound.
    Regressed,
    /// The base's own runs spread wider than the bound and the two sides
    /// overlap: these runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case word for tables.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse side B's median is than side A's, as a share of A's
/// median (negative: better), and what that amounts to under `bound`.
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> (f64, Verdict) {
    let change = (b.median - a.median) / a.median.abs();
    let worse = match better {
        Better::Lower => change,
        // `0.0 - x`, not `-x`: no change must read +0, not -0.
        Better::Higher => 0.0 - change,
    };
    let spread = a.iqr_over_median();
    let verdict = if spread > bound {
        // Too noisy for the bound: only sides that do not overlap at all
        // still decide.
        let (all_better, all_worse) = match better {
            Better::Lower => (b.max < a.min, b.min > a.max),
            Better::Higher => (b.min > a.max, b.max < a.min),
        };
        if all_better {
            Verdict::Better
        } else if all_worse && worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > spread {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (worse, verdict)
}

/// One row of a comparison table.
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Side A (the base).
    pub a: Summary,
    /// Side B.
    pub b: Summary,
    /// Share of A's median by which B's median is worse.
    pub worse: f64,
    /// The metric's regression bound.
    pub bound: f64,
    /// Conclusion.
    pub verdict: Verdict,
}

/// The end-to-end metric values of the untraced records in a JSONL text,
/// keyed by workload then metric.
pub fn read_records(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut by_workload: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", lineno + 1))?;
        let metrics = rec
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("line {}: no metrics", lineno + 1))?;
        let slot = by_workload.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Json::as_f64) {
                slot.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(by_workload)
}

/// The end-to-end metrics (name, direction, bound) of a `BENCHMARK.json`.
pub fn read_bounds(text: &str) -> Result<Vec<EndToEnd>, String> {
    let doc = Json::parse(text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let known = crate::contract::END_TO_END
                .iter()
                .find(|e| e.name == name)
                .ok_or_else(|| format!("unknown end-to-end metric {name}"))?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: bad direction {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(EndToEnd {
                better,
                bound,
                ..*known
            })
        })
        .collect()
}

/// Compare side B against side A for every workload and metric both hold.
pub fn compare(
    a: &BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    b: &BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    metrics: &[EndToEnd],
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, a_metrics) in a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for m in metrics {
            let (Some(av), Some(bv)) = (a_metrics.get(m.name), b_metrics.get(m.name)) else {
                continue;
            };
            let (sa, sb) = (Summary::of(av), Summary::of(bv));
            let (worse, verdict) = judge(&sa, &sb, m.better, m.bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                a: sa,
                b: sb,
                worse,
                bound: m.bound,
                verdict,
            });
        }
    }
    rows
}

/// The comparison as a text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<15} {:>3} {:>12} {:>25} {:>12} {:>25} {:>9} {:>6}  verdict\n",
        "workload",
        "metric",
        "n",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "B vs A",
        "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<15} {:>3} {:>12.6e} {:>25} {:>12.6e} {:>25} {:>+8.2}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.a.n.min(r.b.n),
            r.a.median,
            format!("[{:.5e}, {:.5e}]", r.a.q1, r.a.q3),
            r.b.median,
            format!("[{:.5e}, {:.5e}]", r.b.q1, r.b.q3),
            // Signed so that positive reads "worse", whatever the direction;
            // the base is A's median.
            100.0 * r.worse,
            100.0 * r.bound,
            r.verdict.word(),
        ));
    }
    out.push_str(
        "(B vs A: share of A's median by which B's median is worse; negative is better)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, half_width: f64) -> Summary {
        let v: Vec<f64> = (0..9)
            .map(|i| center + half_width * (f64::from(i) - 4.0) / 4.0)
            .collect();
        Summary::of(&v)
    }

    #[test]
    fn every_verdict_is_reachable() {
        let base = around(1.0, 0.01);
        // Lower is better, bound 10 %.
        let j = |b: &Summary| judge(&base, b, Better::Lower, 0.10).1;
        assert_eq!(j(&around(1.005, 0.01)), Verdict::Within);
        assert_eq!(j(&around(1.2, 0.01)), Verdict::Regressed);
        assert_eq!(j(&around(0.9, 0.01)), Verdict::Better);
        // A small gain inside the base's own spread is not a gain.
        assert_eq!(j(&around(0.999, 0.01)), Verdict::Within);
        // Base spread (IQR / median = 0.375) wider than the bound.
        let noisy = around(1.0, 0.3);
        let jn = |b: &Summary| judge(&noisy, b, Better::Lower, 0.10).1;
        assert_eq!(jn(&around(1.05, 0.3)), Verdict::Unresolved);
        assert_eq!(jn(&around(1.2, 0.3)), Verdict::Unresolved);
        assert_eq!(jn(&around(0.5, 0.05)), Verdict::Better);
        assert_eq!(jn(&around(2.0, 0.05)), Verdict::Regressed);
    }

    #[test]
    fn direction_flips_the_sign() {
        let base = around(100.0, 1.0);
        let (worse, v) = judge(&base, &around(80.0, 1.0), Better::Higher, 0.10);
        assert!((worse - 0.2).abs() < 1e-12);
        assert_eq!(v, Verdict::Regressed);
        let (worse, v) = judge(&base, &around(120.0, 1.0), Better::Higher, 0.10);
        assert!((worse + 0.2).abs() < 1e-12);
        assert_eq!(v, Verdict::Better);
    }

    #[test]
    fn records_group_by_workload_and_skip_traced_lines() {
        let line = |w: &str, trace: usize, v: f64| {
            Json::obj()
                .with("workload", w)
                .with("trace", trace)
                .with(
                    "metrics",
                    Json::obj().with(
                        "latency_min_s",
                        Json::obj().with("value", v).with("unit", "s"),
                    ),
                )
                .render()
        };
        let text = [
            line("square_1t", 0, 0.2),
            line("square_1t", 1, 9.0),
            line("square_1t", 0, 0.21),
            line("tall_1t", 0, 0.15),
        ]
        .join("\n");
        let recs = read_records(&text).unwrap();
        assert_eq!(recs["square_1t"]["latency_min_s"], vec![0.2, 0.21]);
        assert_eq!(recs["tall_1t"]["latency_min_s"], vec![0.15]);
        let rows = compare(&recs, &recs, &crate::contract::END_TO_END);
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|r| r.worse == 0.0 && r.verdict == Verdict::Within));
        assert!(render(&rows).contains("square_1t"));
        assert!(read_records("{\"trace\": 0}").is_err());
    }

    #[test]
    fn bounds_come_from_the_benchmark_file() {
        let text = crate::contract::benchmark_json();
        let bounds = read_bounds(&text).unwrap();
        assert_eq!(bounds.len(), crate::contract::END_TO_END.len());
        for (got, want) in bounds.iter().zip(&crate::contract::END_TO_END) {
            assert_eq!(
                (got.name, got.better, got.bound),
                (want.name, want.better, want.bound)
            );
        }
        assert!(read_bounds("{\"end_to_end\": [{\"name\": \"nope\"}]}").is_err());
    }
}

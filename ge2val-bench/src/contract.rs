//! The benchmark's contract in one place: the end-to-end metrics with
//! their directions and regression bounds, and the text of `BENCHMARK.json`
//! generated from them, the workloads and the per-layer metric list (a test
//! keeps the file at the repository root identical to it).

use crate::json::Json;
use crate::layers::layer_metrics;
use crate::workloads::WORKLOADS;

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, the same four on every workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "problems_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_min_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// Length of the measured phase the driver asks for, seconds.
pub const RUN_SECONDS: usize = 40;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "ge2val-bench/Cargo.toml",
        "--",
    ];
    let mut out = String::from("{\n");
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|&s| Json::from(s)).collect()).render();
    out.push_str(&format!("  \"command\": {},\n", strings(&command)));
    out.push_str(&format!("  \"paths\": {},\n", strings(&["ge2val-bench"])));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let block = |title: &str, rows: Vec<Json>| {
        let body: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
        format!("  \"{title}\": [\n{}\n  ]", body.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| Json::obj().with("name", w.name).with("why", w.why))
        .collect();
    out.push_str(&block("workloads", workloads));
    out.push_str(",\n");
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.word())
                .with("bound", m.bound)
        })
        .collect();
    out.push_str(&block("end_to_end", end_to_end));
    out.push_str(",\n");
    let per_layer = layer_metrics()
        .iter()
        .map(|(name, unit, better)| {
            Json::obj()
                .with("name", name.as_str())
                .with("unit", *unit)
                .with("better", better.word())
        })
        .collect();
    out.push_str(&block("per_layer", per_layer));
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_at_the_repository_root_is_the_generated_text() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cargo run --release -- --print-benchmark-json > ../BENCHMARK.json"
        );
    }

    #[test]
    fn generated_text_meets_the_limits_of_the_contract() {
        let text = benchmark_json();
        assert!(text.len() < 64 * 1024);
        let doc = Json::parse(&text).unwrap();
        let mut names = BTreeSet::new();
        let mut count = |list: &str, keys: &[&str]| {
            let rows = doc.get(list).and_then(Json::as_arr).unwrap();
            for row in rows {
                let fields = row.as_obj().unwrap();
                let got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(got, keys, "{list}");
                let name = row.get("name").and_then(Json::as_str).unwrap();
                assert!(name.len() <= 64 && names.insert(name.to_string()), "{name}");
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                if let Some(unit) = row.get("unit").and_then(Json::as_str) {
                    assert!(unit.len() <= 16, "{unit}");
                    assert!(unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
                }
                if let Some(why) = row.get("why").and_then(Json::as_str) {
                    assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
                }
            }
            rows.len()
        };
        assert_eq!(count("workloads", &["name", "why"]), 3);
        assert_eq!(count("end_to_end", &["name", "unit", "better", "bound"]), 4);
        let layers = count("per_layer", &["name", "unit", "better"]);
        assert!((1..=128).contains(&layers));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}

//! Drives the built benchmark binary at `--smoke` sizes: same code paths
//! and correctness checks as a full run, toy dimensions.

use ge2val_bench::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ge2val-bench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result line parses")
}

/// Names listed under `list` in the repository's `BENCHMARK.json`.
fn contract_names(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn scratch_file(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn smoke_runs_every_workload_untraced_and_traced() {
    let out = bench(&["--smoke"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    for w in contract_names("workloads") {
        assert!(table.contains(&w), "{w} missing from:\n{table}");
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.matches(" untraced: attempted").count(), 4);
    assert_eq!(stderr.matches(" traced: attempted").count(), 4);
    assert_eq!(stderr.matches(" failed 0").count(), 8, "{stderr}");
}

#[test]
fn result_lines_carry_exactly_the_contracted_keys_and_metrics() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        for w in contract_names("workloads") {
            let out = bench(&["--workload", &w, "--smoke", "--seed", "2", "--trace", trace]);
            assert!(out.status.success(), "{w} --trace {trace}");
            let line = result_line(&out);
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
            let names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(names, contract_names(list), "{w} --trace {trace}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{w} {name}: {m:?}");
                assert!(m.get("unit").and_then(Json::as_str).is_some(), "{w} {name}");
            }
            if trace == "0" {
                for (name, m) in metrics {
                    assert!(
                        m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                        "{w} {name}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_corrupted_expected_spectrum_fails_the_run() {
    for w in ["square_1t", "batch_small"] {
        let out = bench(&["--workload", w, "--smoke", "--corrupt-expected"]);
        assert_eq!(out.status.code(), Some(1), "{w}");
        let line = result_line(&out);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert!(line.get("failed").and_then(Json::as_f64).unwrap() >= 1.0);
    }
}

#[test]
fn traced_run_writes_nested_spans_and_records_compare() {
    let trace = scratch_file("trace.json");
    let records = scratch_file("records.jsonl");
    let out = bench(&[
        "--workload",
        "square_1t",
        "--smoke",
        "--trace",
        "1",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let name_of = |e: &Json| e.get("name").and_then(Json::as_str).unwrap().to_string();
    let parent_of = |e: &Json| {
        e.get("args")
            .and_then(|a| a.get("parent"))
            .and_then(Json::as_f64)
            .map(|p| name_of(&events[p as usize]))
    };
    // solve -> stage, and tile DAG -> kernel.
    let has = |child: &str, parent: &str| {
        events
            .iter()
            .any(|e| name_of(e) == child && parent_of(e).as_deref() == Some(parent))
    };
    assert!(has("core.ge2bnd", "solve"));
    assert!(has("core.bnd2bd", "solve"));
    assert!(has("core.bd2val", "solve"));
    assert!(has("core.exec_dag", "core.ge2bnd_apart"));
    assert!(has("kernels.ttmqr", "kernels.dag"));
    assert!(has("kernels.gelqt", "kernels.dag"));

    for _ in 0..2 {
        let out = bench(&[
            "--workload",
            "batch_small",
            "--smoke",
            "--out",
            records.to_str().unwrap(),
        ]);
        assert!(out.status.success());
    }
    let path = records.to_str().unwrap();
    let bounds = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let out = bench(&["--compare", path, path, "--bounds", bounds]);
    assert!(out.status.success());
    let table = String::from_utf8_lossy(&out.stdout);
    assert_eq!(table.matches("batch_small").count(), 4, "{table}");
    assert!(
        table.contains("within") && table.contains("+0.00%"),
        "{table}"
    );
    let _ = std::fs::remove_file(trace);
    let _ = std::fs::remove_file(records);
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2", "--workload", "square_1t"],
        &["--seed"],
        &[],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}

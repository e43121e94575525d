//! Tiny-scale runs of the whole benchmark command on every workload:
//! the result line has the expected shape, every declared metric is
//! present, and no job fails.

use pgasm_telemetry::Json;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["maize-asm", "sargasso-cluster", "maize-asm-p2"];

fn declared(kind: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = doc.get(kind).and_then(Json::as_arr).expect(kind);
    list.iter().map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string()).collect()
}

fn run(workload: &str, trace: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pgasm-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--size", "smoke"])
        .output()
        .expect("run the benchmark");
    (out.status.code().unwrap_or(-1), String::from_utf8(out.stdout).expect("utf-8 stdout"))
}

fn check(workload: &str, trace: &str, kind: &str) {
    let (code, stdout) = run(workload, trace);
    assert_eq!(code, 0, "{workload} trace={trace}:\n{stdout}");
    let last = Json::parse(stdout.lines().last().expect("a result line")).expect("the result line parses");
    let keys: Vec<&str> = last.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
    assert!(last.get("attempted").and_then(Json::as_u64).expect("attempted") >= 1);
    let metrics = last.get("metrics").and_then(Json::as_obj).expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, declared(kind), "{workload} trace={trace}");
    for (name, m) in metrics {
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
    assert!(stdout.contains("host: nproc="), "{stdout}");
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for w in WORKLOADS {
        check(w, "0", "end_to_end");
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for w in WORKLOADS {
        check(w, "1", "per_layer");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in
        [&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..], &["--seed", "x"]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_pgasm-perfbench")).args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}

//! Runs the real `gsql-bench` binary at `--smoke` scale: all eight
//! workloads, untraced and traced, and checks what it prints against
//! `BENCHMARK.json` so the two cannot drift apart.

use gsql_server::json::{self, Json};
use std::path::PathBuf;
use std::process::{Command, Output};

const BENCH: &str = env!("CARGO_BIN_EXE_gsql-bench");

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(spec: &Json, list: &str) -> Vec<String> {
    spec.get(list)
        .and_then(Json::as_array)
        .expect("a list")
        .iter()
        .map(|entry| entry.get("name").and_then(Json::as_str).expect("a name").to_string())
        .collect()
}

fn bench(args: &[&str]) -> Output {
    Command::new(BENCH).args(args).output().expect("gsql-bench starts")
}

fn temp_file(tag: &str) -> PathBuf {
    // Inside the build directory, as everything the benchmark writes is.
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{tag}.json", std::process::id()))
}

fn keys(object: &Json) -> Vec<String> {
    match object {
        Json::Object(members) => members.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// Every workload, one result line each, with exactly the contract's keys
/// and exactly the metrics `BENCHMARK.json` lists for the mode.
fn check_mode(trace: &str, metric_list: &str) {
    let spec = spec();
    let out_path = temp_file(metric_list);
    let out = bench(&["run", "--smoke", "--trace", trace, "--out", out_path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<Json> = stdout.lines().map(|l| json::parse(l).expect("a JSON line")).collect();
    let workloads = names(&spec, "workloads");
    assert_eq!(lines.len(), workloads.len(), "one result line per workload");
    for line in &lines {
        assert_eq!(keys(line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed"), Some(&Json::Int(0)));
        assert!(line.get("attempted").and_then(Json::as_i64).unwrap() >= 1);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(keys(metrics), names(&spec, metric_list));
        for (entry, name) in
            spec.get(metric_list).unwrap().as_array().unwrap().iter().zip(keys(metrics))
        {
            assert_eq!(metrics.get(&name).unwrap().get("unit"), entry.get("unit"), "{name}");
        }
    }

    let document = json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&out_path);
    let ran: Vec<String> = document
        .get("runs")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|run| run.get("workload").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(ran, workloads, "the workloads run are the workloads declared");
    let meta = document.get("meta").unwrap();
    for fact in ["git_head", "nproc", "seed", "seconds"] {
        assert!(meta.get(fact).is_some(), "meta records {fact}");
    }
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    check_mode("0", "end_to_end");
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    check_mode("1", "per_layer");
}

/// With the oracle deliberately wrong, every workload must count failures
/// and `run` must exit non-zero.
#[test]
fn a_corrupted_oracle_fails_every_workload() {
    for workload in names(&spec(), "workloads") {
        let out = bench(&["run", "--smoke", "--workload", &workload, "--corrupt-oracle"]);
        assert_eq!(out.status.code(), Some(1), "{workload}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = json::parse(stdout.lines().next_back().unwrap()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)), "{workload}");
        assert!(line.get("failed").and_then(Json::as_i64).unwrap() > 0, "{workload}");
    }
}

/// Ambient `GSQL_*` overrides must not reach a run.
#[test]
fn engine_overrides_are_cleared() {
    let out_path = temp_file("env");
    let out = Command::new(BENCH)
        .args(["run", "--smoke", "--workload", "rel_pipeline", "--out", out_path.to_str().unwrap()])
        .env("GSQL_THREADS", "7")
        .env("GSQL_DATA_DIR", "/nonexistent/gsql")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let document = json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&out_path);
    let notes = document.get("runs").unwrap().as_array().unwrap()[0].get("notes").unwrap();
    let nproc = std::thread::available_parallelism().unwrap().get().to_string();
    assert_eq!(notes.get("threads").and_then(Json::as_str), Some(nproc.as_str()));
}

#[test]
fn compare_flags_a_regression_and_passes_identical_sets() {
    let a_path = temp_file("a");
    let out = bench(&[
        "run",
        "--smoke",
        "--workload",
        "road_accel",
        "--runs",
        "2",
        "--out",
        a_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let a = std::fs::read_to_string(&a_path).unwrap();

    let same = bench(&["compare", a_path.to_str().unwrap(), a_path.to_str().unwrap()]);
    assert_eq!(same.status.code(), Some(0), "{}", String::from_utf8_lossy(&same.stdout));
    let table = String::from_utf8(same.stdout).unwrap();
    let rows = table.lines().filter(|l| l.starts_with("road_accel")).count();
    assert_eq!(rows, names(&spec(), "end_to_end").len(), "one row per (workload, metric)");

    // Run set b: the same runs with every throughput divided by four.
    let Json::Object(mut doc) = json::parse(&a).unwrap() else { panic!("a document") };
    for (key, value) in &mut doc {
        let (true, Json::Array(runs)) = (key == "runs", value) else { continue };
        for run in runs {
            let Json::Object(run) = run else { continue };
            let Some((_, Json::Object(metrics))) = run.iter_mut().find(|(k, _)| k == "metrics")
            else {
                continue;
            };
            let Some((_, Json::Object(m))) = metrics.iter_mut().find(|(k, _)| k == "ops_per_s")
            else {
                continue;
            };
            if let Some((_, Json::Float(v))) = m.iter_mut().find(|(k, _)| k == "value") {
                *v /= 4.0;
            }
        }
    }
    let b_path = temp_file("b");
    std::fs::write(&b_path, Json::Object(doc).encode()).unwrap();
    let worse = bench(&["compare", a_path.to_str().unwrap(), b_path.to_str().unwrap()]);
    assert_eq!(worse.status.code(), Some(1));
    let table = String::from_utf8(worse.stdout).unwrap();
    assert!(table.lines().any(|l| l.contains("ops_per_s") && l.ends_with("regressed")), "{table}");
    let _ = std::fs::remove_file(a_path);
    let _ = std::fs::remove_file(b_path);
}

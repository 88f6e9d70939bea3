//! The benchmark against its contract: `BENCHMARK.json` says what the
//! program's tables say, a smoke run produces exactly the promised names,
//! and a single pass ends with the one-line JSON result the driver parses.

use ft_benchmark::json::Json;
use ft_benchmark::spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names(list: &Json) -> Vec<String> {
    list.items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn benchmark_json_matches_the_spec_tables() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").unwrap().as_f64(),
        Some(RUN_SECONDS as f64)
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc
        .get("command")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.len() <= 32 && command.contains(&"benchmark/Cargo.toml"));

    let workloads = doc.get("workloads").unwrap();
    assert_eq!(workloads.items().len(), WORKLOADS.len());
    for (got, want) in workloads.items().iter().zip(&WORKLOADS) {
        assert_eq!(got.fields().len(), 2, "a workload has exactly name and why");
        assert_eq!(got.get("name").unwrap().as_str(), Some(want.name));
        assert_eq!(got.get("why").unwrap().as_str(), Some(want.why));
    }
    let e2e = doc.get("end_to_end").unwrap();
    assert_eq!(e2e.items().len(), END_TO_END.len());
    for (got, want) in e2e.items().iter().zip(&END_TO_END) {
        assert_eq!(got.fields().len(), 4, "{}", want.name);
        assert_eq!(got.get("name").unwrap().as_str(), Some(want.name));
        assert_eq!(got.get("unit").unwrap().as_str(), Some(want.unit));
        assert_eq!(
            got.get("better").unwrap().as_str(),
            Some(want.better.as_str())
        );
        assert_eq!(
            got.get("bound").unwrap().as_f64(),
            want.bound,
            "{}",
            want.name
        );
    }
    let layers = doc.get("per_layer").unwrap();
    assert_eq!(layers.items().len(), PER_LAYER.len());
    for (got, want) in layers.items().iter().zip(&PER_LAYER) {
        assert_eq!(got.fields().len(), 3, "{}", want.name);
        assert_eq!(got.get("name").unwrap().as_str(), Some(want.name));
        assert_eq!(got.get("unit").unwrap().as_str(), Some(want.unit));
        assert_eq!(
            got.get("better").unwrap().as_str(),
            Some(want.better.as_str())
        );
    }
}

#[test]
fn smoke_run_reports_exactly_the_names_of_benchmark_json() {
    let doc = benchmark_json();
    let out = scratch("smoke");
    let started = std::time::Instant::now();
    let status = Command::new(env!("CARGO_BIN_EXE_ft-benchmark"))
        .arg("--smoke")
        .arg("--out-dir")
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("the benchmark binary runs");
    assert!(status.success(), "smoke run failed: {status}");
    // The budget is 10 s for a release build on an idle box; leave room for
    // a loaded test run, and do not time unoptimized builds at all.
    if !cfg!(debug_assertions) {
        assert!(
            started.elapsed().as_secs() < 30,
            "smoke run took {:?}",
            started.elapsed()
        );
    }

    let results = Json::parse(&std::fs::read_to_string(out.join("results.json")).unwrap()).unwrap();
    let sets = results.get("sets").unwrap().items();
    assert_eq!(sets.len(), 1);
    let reported: Vec<&str> = sets[0].fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        reported,
        names(doc.get("workloads").unwrap()),
        "workloads, both directions"
    );
    for (workload, entry) in sets[0].fields() {
        for pass in ["end_to_end", "per_layer"] {
            let got: Vec<&str> = entry
                .get(pass)
                .unwrap()
                .fields()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                got,
                names(doc.get(pass).unwrap()),
                "{workload} {pass}, both directions"
            );
            for (name, metric) in entry.get(pass).unwrap().fields() {
                let spec = doc
                    .get(pass)
                    .unwrap()
                    .items()
                    .iter()
                    .find(|m| m.get("name").unwrap().as_str() == Some(name))
                    .unwrap();
                assert_eq!(metric.get("unit"), spec.get("unit"), "{workload} {name}");
                assert!(
                    metric.get("value").and_then(Json::as_f64).is_some(),
                    "{workload} {name} has no finite value"
                );
            }
            assert_eq!(
                entry.get(&format!("{pass}_failed")).unwrap().as_f64(),
                Some(0.0),
                "{workload} {pass}"
            );
        }
        assert!(
            out.join(format!("trace-{workload}.json")).exists(),
            "{workload} wrote no trace"
        );
    }
}

#[test]
fn a_single_pass_ends_with_the_contract_line() {
    let out = scratch("single");
    let output = Command::new(env!("CARGO_BIN_EXE_ft-benchmark"))
        .args([
            "--workload",
            "fanout_dag",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .arg("--out-dir")
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = Json::parse(stdout.trim_end().lines().last().unwrap()).expect("last line is JSON");
    let keys: Vec<&str> = last.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert!(last.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(last.get("failed").unwrap().as_f64(), Some(0.0));
    for (name, m) in last.get("metrics").unwrap().fields() {
        let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"], "{name}");
        assert!(
            m.get("value").unwrap().as_f64().unwrap() > 0.0,
            "{name} must never be 0"
        );
    }
    // The full result carries the environment block.
    let full = Json::parse(
        &std::fs::read_to_string(out.join("result-fanout_dag-end_to_end.json")).unwrap(),
    )
    .unwrap();
    for key in [
        "git_rev",
        "nproc",
        "pool_threads",
        "rustc",
        "cpu_model",
        "seed",
        "cycles",
        "instant_resolution_ns",
        "load_start",
        "load_end",
        "noisy",
    ] {
        assert!(
            full.get("env").unwrap().get(key).is_some(),
            "env block lacks {key}"
        );
    }
    assert_eq!(full.get("failed_frac").unwrap().as_f64(), Some(0.0));
}

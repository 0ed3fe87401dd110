//! The benchmark run at `--quick` size, in process: every workload end
//! to end and traced, against the pinned goldens, and the catalogue
//! against `BENCHMARK.json`.

use capi_benchmark::goldens::Goldens;
use capi_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use capi_benchmark::{nproc, report, require_threads, run_workload, RunCfg, Size};
use serde_json::Value;

fn cfg(seed: u64, traced: bool) -> RunCfg {
    RunCfg {
        seed,
        seconds: 0.2,
        size: Size::Quick,
        traced,
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` array"))
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

/// Runs every workload once and checks what the driver would read.
fn run_all(seed: u64, traced: bool, catalogue: &[MetricDef]) {
    let goldens = Goldens::load().expect("goldens.json loads");
    let doc = benchmark_json();
    let listed = names(&doc, if traced { "per_layer" } else { "end_to_end" });
    for w in &WORKLOADS {
        let result = run_workload(w.name, cfg(seed, traced), &goldens)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(
            result.golden_pinned,
            "{}: no golden for seed {seed}",
            w.name
        );
        assert_eq!(
            result.checks.failed, 0,
            "{}: {:?}",
            w.name, result.checks.failures
        );
        assert!(result.checks.attempted > 0 && result.iterations > 0);
        assert!(result.threads <= nproc());

        // The line the driver parses names exactly the listed metrics.
        let line: Value = serde_json::from_str(&report::contract_line(&result)).unwrap();
        let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let emitted = line.get("metrics").and_then(Value::as_object).unwrap();
        let mut emitted_names: Vec<&str> = emitted.keys().map(String::as_str).collect();
        let mut listed_names: Vec<&str> = listed.iter().map(String::as_str).collect();
        emitted_names.sort_unstable();
        listed_names.sort_unstable();
        assert_eq!(emitted_names, listed_names, "{}", w.name);
        for def in catalogue {
            let m = emitted.get(def.name).unwrap();
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
            let value = m.get("value").and_then(Value::as_f64).unwrap();
            assert!(value.is_finite(), "{} {}", w.name, def.name);
            // End-to-end metrics are never 0.
            assert!(traced || value > 0.0, "{} {} = {value}", w.name, def.name);
        }
        report::write_files(&result).expect("result files are written");
    }
}

#[test]
fn quick_end_to_end_holds_goldens_and_emits_the_catalogue() {
    run_all(1, false, &END_TO_END);
}

#[test]
fn quick_traced_holds_goldens_and_emits_the_catalogue() {
    run_all(2, true, &PER_LAYER);
}

#[test]
fn benchmark_json_states_the_catalogue() {
    let doc = benchmark_json();
    assert_eq!(
        names(&doc, "workloads"),
        WORKLOADS.map(|w| w.name.to_string())
    );
    for (listed, w) in doc
        .get("workloads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .zip(&WORKLOADS)
    {
        assert_eq!(listed.get("why").and_then(Value::as_str), Some(w.why));
    }
    for (key, catalogue) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = doc.get(key).unwrap().as_array().unwrap();
        assert_eq!(listed.len(), catalogue.len(), "{key}");
        for (m, def) in listed.iter().zip(catalogue) {
            assert_eq!(m.get("name").and_then(Value::as_str), Some(def.name));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(
                m.get("bound").and_then(Value::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_u64),
        Some(u64::from(RUN_SECONDS))
    );
    assert_eq!(names_of_strings(&doc, "paths"), ["benchmark"]);
    // The driver appends `--workload … --seed … --seconds … --trace …`.
    let command = names_of_strings(&doc, "command");
    assert_eq!(command.last().map(String::as_str), Some("--"));
    assert!(command.contains(&"benchmark/Cargo.toml".to_string()));
}

fn names_of_strings(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` array"))
        .iter()
        .map(|s| s.as_str().unwrap().to_string())
        .collect()
}

#[test]
fn asking_for_more_threads_than_the_box_has_is_refused() {
    assert_eq!(require_threads("w", nproc()), Ok(nproc()));
    let err = require_threads("w", nproc() + 1).unwrap_err();
    assert!(err.contains("threads"), "{err}");
}

#[test]
fn an_unknown_workload_is_an_error() {
    let goldens = Goldens::default();
    assert!(run_workload("nope", cfg(1, false), &goldens).is_err());
}

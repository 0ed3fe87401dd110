//! Printing and writing results: the human-readable table, the one-line
//! JSON object the benchmark driver reads, and the files under `out/`.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::{nproc, out_dir, Measured, WorkloadResult};
use serde_json::{json, Map, Value};

/// The catalogue a result's metrics come from.
fn catalogue(result: &WorkloadResult) -> &'static [MetricDef] {
    if result.cfg.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// What produced the numbers: recorded in every result file.
fn provenance(result: &WorkloadResult) -> Value {
    json!({
        "nproc": nproc(),
        "rustc": env!("BENCH_RUSTC_VERSION"),
        "git_commit": env!("BENCH_GIT_COMMIT"),
        "seed": result.cfg.seed,
        "threads": result.threads,
        "size": result.cfg.size.key(),
        "seconds": result.cfg.seconds,
        "traced": result.cfg.traced,
    })
}

fn measured_json(m: &Measured, def: &MetricDef) -> Value {
    let mut row = Map::new();
    row.insert("value".into(), json!(m.value));
    row.insert("unit".into(), json!(def.unit));
    row.insert("n".into(), json!(m.n));
    row.insert("q1".into(), json!(m.q1));
    row.insert("q3".into(), json!(m.q3));
    row.insert("better".into(), json!(def.better.as_str()));
    if let Some(bound) = def.bound {
        row.insert("bound".into(), json!(bound));
    }
    if let Some((p, v)) = m.tail {
        row.insert("tail".into(), json!({ "percentile": p, "value": v }));
    }
    Value::Object(row)
}

/// Prints every metric by name with its unit, quartiles and sample
/// count, then the checks.
pub fn print_table(result: &WorkloadResult) {
    let kind = if result.cfg.traced {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    println!(
        "== {} — {kind}, seed {}, {} size, {} timed iterations, {:.1} s ==",
        result.workload,
        result.cfg.seed,
        result.cfg.size.key(),
        result.iterations,
        result.total_s,
    );
    let mut idle = 0;
    for def in catalogue(result) {
        let m = &result.metrics[def.name];
        if m.n == 0 {
            idle += 1;
            continue;
        }
        let mut line = format!("  {:<36} {:>16.6} {:<9}", def.name, m.value, def.unit);
        if m.n > 1 {
            line += &format!(" n={:<7} q1={:.6} q3={:.6}", m.n, m.q1, m.q3);
        }
        if let Some((p, v)) = m.tail {
            line += &format!(" p{p}={v:.6}");
        }
        if let Some(bound) = def.bound {
            line += &format!(" bound={:.0}%", bound * 100.0);
        }
        println!("{}", line.trim_end());
    }
    if idle > 0 {
        println!("  ({idle} metrics of layers this workload does not exercise read 0)");
    }
    let c = &result.checks;
    let share = c.failed as f64 / c.attempted.max(1) as f64;
    println!(
        "  checks: attempted {} failed {} failed_share {share} golden {}",
        c.attempted,
        c.failed,
        if result.golden_pinned {
            "pinned"
        } else {
            "not pinned for this seed"
        },
    );
    for f in &c.failures {
        println!("  FAILED: {f}");
    }
}

/// The object the benchmark driver reads from the last line of standard
/// output.
pub fn contract_line(result: &WorkloadResult) -> String {
    let metrics: Map<String, Value> = catalogue(result)
        .iter()
        .map(|def| {
            let m = &result.metrics[def.name];
            (
                def.name.to_string(),
                json!({ "value": m.value, "unit": def.unit }),
            )
        })
        .collect();
    json!({
        "correct": result.checks.failed == 0,
        "attempted": result.checks.attempted.max(1),
        "failed": result.checks.failed,
        "metrics": metrics,
    })
    .to_string()
}

/// Writes `out/result-<workload>[-traced].json` and, for a traced run,
/// `out/trace-<workload>.json`.
pub fn write_files(result: &WorkloadResult) -> Result<(), String> {
    let metrics: Map<String, Value> = catalogue(result)
        .iter()
        .map(|def| {
            (
                def.name.to_string(),
                measured_json(&result.metrics[def.name], def),
            )
        })
        .collect();
    let failures: Vec<Value> = result.checks.failures.iter().map(|f| json!(f)).collect();
    let doc = json!({
        "workload": result.workload,
        "provenance": provenance(result),
        "iterations": result.iterations,
        "total_s": result.total_s,
        "attempted": result.checks.attempted,
        "failed": result.checks.failed,
        "failures": failures,
        "golden_pinned": result.golden_pinned,
        "metrics": metrics,
    });
    let suffix = if result.cfg.traced { "-traced" } else { "" };
    let write = |name: String, text: String| {
        let path = out_dir().join(name);
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    };
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    write(format!("result-{}{suffix}.json", result.workload), text)?;
    if let Some(tracer) = &result.tracer {
        // Tens of thousands of spans: one compact line.
        let doc = json!({
            "workload": tracer.workload(),
            "provenance": provenance(result),
            "spans": tracer.to_json(),
        });
        write(format!("trace-{}.json", result.workload), doc.to_string())?;
    }
    Ok(())
}

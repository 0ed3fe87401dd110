//! Generates **Table IX — DSO-churn survival** and the `BENCH_dso.json`
//! artifact.
//!
//! The robustness claim: an adaptive run survives a storm of
//! runtime-linker churn — dlopen/dlclose/rebuild/interposition plus
//! injected faults — with zero restarts, bounded degradation, and a
//! byte-identical same-seed replay. Three configurations of the same
//! host application:
//!
//! * **baseline** — churn-free, strict prepare/repatch paths.
//! * **lenient-idle** — an *empty* lifecycle script: the survival
//!   machinery (lenient call resolution, surviving repatch) is armed
//!   but nothing churns. Asserted to dispatch exactly the baseline's
//!   events — the machinery itself must not perturb the run.
//! * **churn storm** — a directed script: a faulted-then-retried
//!   `dlopen`, an unload race against a live DSO, a rebuild-and-reload,
//!   a symbol interposition, and a dlclose of a DSO the host still
//!   calls. The run must complete (restarts = 0), count every
//!   degradation, and replay byte-identically.
//!
//! **Recovery latency** is derived from the adaptation log + per-epoch
//! records: a degraded repatch at epoch *e* leaves the instrumentation
//! state partial until the next boundary whose repatch applies cleanly
//! (epoch *f*); the latency is the virtual time the application ran in
//! that window (epochs *e*+1 ..= *f*).
//!
//! Environment: `CAPI_RANKS` (default 8), `CAPI_EPOCHS` (default 8,
//! min 6 for the storm script), `CAPI_BUDGET_PCT` (default 0.5 — tight,
//! so deltas keep touching the churned objects), `CAPI_TABLE9_OUT`
//! (output path, default `target/BENCH_dso.json`: the committed
//! `BENCH_dso.json` at the repository root is only ever written by
//! naming it here).

use capi_appmodel::{LinkTarget, MpiCall, ProgramBuilder};
use capi_bench::report::{budget_pct_from_env_or, out_path_from_env, write_report};
use capi_bench::{epochs_from_env, ranks_from_env};
use capi_dyncapi::{
    startup, AdaptiveOutcome, AdaptiveRunBuilder, DynCapiConfig, LifecycleOp, LifecycleScript,
    Session, ToolChoice,
};
use capi_objmodel::{compile, CompileOptions, FaultKind, FaultPlan, Object};
use capi_obs::Telemetry;
use serde_json::{json, Value};
use std::sync::Arc;

/// Host: exe (main → step → work) calling into `libplugin.so` and
/// `libaux.so`, so closing either mid-run leaves dangling call targets
/// the lenient engine prepare must survive.
fn churn_host() -> capi_objmodel::Binary {
    let mut b = ProgramBuilder::new("churnhost");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(50)
        .instructions(400)
        .cost(1_000)
        .calls("MPI_Init", 1)
        .calls("step", 8)
        .calls("MPI_Finalize", 1)
        .finish();
    b.function("step")
        .statements(40)
        .instructions(300)
        .cost(500)
        .calls("plugin_entry", 2)
        .calls("aux_fn", 2)
        .calls("work", 4)
        .calls("MPI_Allreduce", 1)
        .finish();
    b.function("work")
        .statements(30)
        .instructions(280)
        .cost(6_000)
        .loop_depth(1)
        .finish();
    b.function("MPI_Init")
        .statements(1)
        .instructions(8)
        .cost(0)
        .mpi(MpiCall::Init)
        .finish();
    b.function("MPI_Allreduce")
        .statements(1)
        .instructions(8)
        .cost(0)
        .mpi(MpiCall::Allreduce { bytes: 16 })
        .finish();
    b.function("MPI_Finalize")
        .statements(1)
        .instructions(8)
        .cost(0)
        .mpi(MpiCall::Finalize)
        .finish();
    b.unit("p.cc", LinkTarget::Dso("libplugin.so".into()));
    b.function("plugin_entry")
        .statements(60)
        .instructions(500)
        .cost(2_000)
        .loop_depth(1)
        .finish();
    b.unit("a.cc", LinkTarget::Dso("libaux.so".into()));
    b.function("aux_fn")
        .statements(45)
        .instructions(350)
        .cost(1_200)
        .finish();
    compile(&b.build().unwrap(), &CompileOptions::o2()).unwrap()
}

/// A loadable plugin; `generation` varies the content so a reload swaps
/// in an image that fingerprints differently (a rebuild).
fn extra_image(generation: u32) -> Arc<Object> {
    let mut b = ProgramBuilder::new("extra");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(10)
        .instructions(100)
        .calls("extra_fn", 1)
        .finish();
    b.unit("x.cc", LinkTarget::Dso("libextra.so".into()));
    b.function("extra_fn")
        .statements(20 + generation)
        .instructions(200 + generation)
        .cost(800)
        .finish();
    let bin = compile(&b.build().unwrap(), &CompileOptions::o2()).unwrap();
    Arc::new(bin.dsos[0].clone())
}

/// An interposer exporting `aux_fn`: loaded at the LD_PRELOAD position
/// it shadows libaux.so's definition.
fn shadow_image() -> Arc<Object> {
    let mut b = ProgramBuilder::new("shadow");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(10)
        .instructions(100)
        .calls("aux_fn", 1)
        .finish();
    b.unit("s.cc", LinkTarget::Dso("libshadow.so".into()));
    b.function("aux_fn")
        .statements(33)
        .instructions(260)
        .cost(900)
        .finish();
    let bin = compile(&b.build().unwrap(), &CompileOptions::o2()).unwrap();
    Arc::new(bin.dsos[0].clone())
}

fn session(bin: &capi_objmodel::Binary, ranks: u32) -> Session {
    startup(
        bin,
        DynCapiConfig {
            tool: ToolChoice::Talp(Default::default()),
            ranks,
            ..Default::default()
        },
    )
    .expect("table9 session starts")
}

/// The directed churn storm. The tail epochs stay quiet so recovery
/// from the last churn event is observable inside the run.
fn storm_script(dlopen_fault_at: u64) -> LifecycleScript {
    let mut plan = FaultPlan::new();
    plan.push(dlopen_fault_at, FaultKind::DlopenOom);
    LifecycleScript::new()
        .image(extra_image(0))
        .image(shadow_image())
        .at(0, LifecycleOp::UnloadRace("libaux.so".into()))
        .at(1, LifecycleOp::Open("libextra.so".into()))
        .at(2, LifecycleOp::Reload("libextra.so".into()))
        .at(3, LifecycleOp::Interpose("libshadow.so".into()))
        .at(4, LifecycleOp::Close("libplugin.so".into()))
        .fault_plan(plan)
}

struct RunOut {
    outcome: AdaptiveOutcome,
    telemetry: Telemetry,
}

fn run(
    bin: &capi_objmodel::Binary,
    ranks: u32,
    epochs: usize,
    budget: f64,
    lifecycle: Option<fn(u64) -> LifecycleScript>,
) -> RunOut {
    let mut s = session(bin, ranks);
    let tel = Telemetry::new();
    let mut builder = AdaptiveRunBuilder::new()
        .epochs(epochs)
        .budget_pct(budget)
        .seed(11)
        .telemetry(tel.clone());
    if let Some(make) = lifecycle {
        builder = builder.lifecycle(make(s.process.dlopen_calls()));
    }
    let outcome = builder
        .run(&mut s)
        .expect("a churn storm must degrade, never fail the run");
    RunOut {
        outcome,
        telemetry: tel,
    }
}

/// Epochs whose boundary repatch degraded (skipped vanished entries or
/// dropped the delta on an injected memory fault), from the
/// deterministic adaptation log.
fn degraded_epochs(log: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for line in log.lines() {
        for pat in ["degraded repatch at epoch ", "repatch failed at epoch "] {
            if let Some(pos) = line.find(pat) {
                let digits: String = line[pos + pat.len()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                if let Ok(e) = digits.parse() {
                    out.push(e);
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// One recovery window per degraded epoch: the virtual time the
/// application ran before the next clean repatch boundary.
fn recovery_windows(
    degraded: &[usize],
    records: &[capi_dyncapi::EpochRecord],
) -> Vec<(usize, usize, u64)> {
    let last = records.len().saturating_sub(1);
    degraded
        .iter()
        .map(|&e| {
            let heal = (e + 1..=last)
                .find(|f| !degraded.contains(f))
                .unwrap_or(last);
            let ns: u64 = records[(e + 1).min(last)..=heal]
                .iter()
                .map(|r| r.epoch_ns)
                .sum();
            (e, heal.saturating_sub(e), ns)
        })
        .collect()
}

fn counter(tel: &Telemetry, name: &str) -> u64 {
    tel.counter_value(tel.counter(name))
}

fn main() {
    let ranks = ranks_from_env();
    let epochs = epochs_from_env().max(6);
    let budget = budget_pct_from_env_or(0.5);
    let out_path = out_path_from_env("CAPI_TABLE9_OUT", "target/BENCH_dso.json");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creates {}: {e}", dir.display()));
    }
    let bin = churn_host();

    println!("TABLE IX — DSO-CHURN SURVIVAL\n");
    println!("{ranks} ranks | {epochs} epochs | {budget}% overhead budget\n");

    let baseline = run(&bin, ranks, epochs, budget, None);
    let idle = run(
        &bin,
        ranks,
        epochs,
        budget,
        Some(|_| LifecycleScript::new()),
    );
    let storm = run(&bin, ranks, epochs, budget, Some(storm_script));
    let replay = run(&bin, ranks, epochs, budget, Some(storm_script));

    // --- Survival + determinism claims -------------------------------
    for (label, r) in [
        ("baseline", &baseline),
        ("lenient-idle", &idle),
        ("storm", &storm),
    ] {
        assert_eq!(
            r.outcome.adaptive.restarts, 0,
            "{label}: restarts must be 0"
        );
        assert!(
            r.outcome.adaptive.events > 0,
            "{label}: run must dispatch events"
        );
    }
    assert_eq!(
        idle.outcome.adaptive.events, baseline.outcome.adaptive.events,
        "an empty lifecycle script must not change the dispatched event count"
    );
    assert_eq!(
        storm.outcome.log, replay.outcome.log,
        "same-seed storm replay must render a byte-identical adaptation log"
    );
    assert_eq!(
        storm.outcome.adaptive.events,
        replay.outcome.adaptive.events
    );
    assert_eq!(
        storm.outcome.adaptive.lifecycle,
        replay.outcome.adaptive.lifecycle
    );

    let lc = storm
        .outcome
        .adaptive
        .lifecycle
        .expect("storm run carries lifecycle stats");
    assert!(lc.opened >= 3, "open + reload re-open + interpose: {lc:?}");
    assert!(lc.closed >= 3, "race + reload close + dlclose: {lc:?}");
    assert_eq!(lc.unload_races, 1, "exactly one scripted race: {lc:?}");
    assert!(
        lc.retries >= 1,
        "the injected DlopenOom must be retried: {lc:?}"
    );
    assert!(
        lc.dlopen_failed >= 1,
        "the injected DlopenOom must be counted: {lc:?}"
    );
    assert!(
        lc.lifecycle_ns > 0,
        "lifecycle work must be cost-accounted: {lc:?}"
    );
    assert!(
        lc.degraded_repatches >= 1,
        "the unload race must degrade at least one repatch: {lc:?}"
    );

    // Every degradation the run reports is also visible to an external
    // observer through the capi-obs counters.
    for (name, want) in [
        ("lifecycle.dlopen_failed", lc.dlopen_failed),
        ("lifecycle.retries", lc.retries),
        ("lifecycle.degraded_repatch", lc.degraded_repatches),
        ("lifecycle.unload_race", lc.unload_races),
    ] {
        assert_eq!(
            counter(&storm.telemetry, name),
            want,
            "telemetry counter `{name}` must match the run's lifecycle stats"
        );
    }

    // --- Overhead + recovery latency ---------------------------------
    let base_total = baseline.outcome.adaptive.total_ns;
    let overhead = |r: &RunOut| {
        (r.outcome.adaptive.total_ns as f64 - base_total as f64) / base_total as f64 * 100.0
    };
    let degraded = degraded_epochs(&storm.outcome.log);
    assert!(
        !degraded.is_empty(),
        "the storm must produce at least one logged degraded boundary"
    );
    let windows = recovery_windows(&degraded, &storm.outcome.adaptive.records);
    let max_recovery_ns = windows.iter().map(|w| w.2).max().unwrap_or(0);
    let max_recovery_epochs = windows.iter().map(|w| w.1).max().unwrap_or(0);

    println!("config        total_ns      events     T_adapt_ns   vs baseline");
    let mut rows: Vec<Value> = Vec::new();
    for (label, r) in [
        ("baseline", &baseline),
        ("lenient-idle", &idle),
        ("storm", &storm),
    ] {
        let a = &r.outcome.adaptive;
        println!(
            "{label:<12}  {:>12}  {:>9}  {:>12}  {:>+10.3}%",
            a.total_ns,
            a.events,
            a.adapt_ns,
            overhead(r)
        );
        rows.push(json!({
            "config": label,
            "total_ns": a.total_ns,
            "run_ns": a.run_ns,
            "init_ns": a.init_ns,
            "adapt_ns": a.adapt_ns,
            "events": a.events,
            "restarts": a.restarts,
            "overhead_vs_baseline_pct": overhead(r),
        }));
    }
    println!(
        "\nstorm: opened {} closed {} races {} retries {} dlopen_failed {} \
         degraded {} unresolved_calls {} lifecycle_ns {}",
        lc.opened,
        lc.closed,
        lc.unload_races,
        lc.retries,
        lc.dlopen_failed,
        lc.degraded_repatches,
        lc.unresolved_calls,
        lc.lifecycle_ns
    );
    for (e, ep, ns) in &windows {
        println!("degraded boundary at epoch {e}: clean again after {ep} epoch(s), {ns} ns");
    }
    println!(
        "replay: byte-identical log ({} bytes)",
        storm.outcome.log.len()
    );

    let report = json!({
        "table": "IX",
        "title": "DSO-churn survival",
        "ranks": ranks,
        "epochs": epochs,
        "budget_pct": budget,
        "configs": rows,
        "storm_lifecycle": {
            "opened": lc.opened,
            "closed": lc.closed,
            "unload_races": lc.unload_races,
            "retries": lc.retries,
            "dlopen_failed": lc.dlopen_failed,
            "opens_abandoned": lc.opens_abandoned,
            "degraded_repatches": lc.degraded_repatches,
            "unresolved_calls": lc.unresolved_calls,
            "lifecycle_ns": lc.lifecycle_ns,
        },
        "recovery": {
            "degraded_epochs": degraded,
            "windows": windows.iter().map(|(e, ep, ns)| json!({
                "epoch": e, "epochs_to_clean": ep, "latency_ns": ns,
            })).collect::<Vec<_>>(),
            "max_epochs_to_clean": max_recovery_epochs,
            "max_latency_ns": max_recovery_ns,
        },
        "determinism": {
            "log_bytes": storm.outcome.log.len(),
            "byte_identical_replay": true,
        },
    });
    write_report(&out_path, &report);
}

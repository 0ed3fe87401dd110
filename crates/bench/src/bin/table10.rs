//! Generates **Table X — observability cost & health detection** and
//! the `BENCH_health.json` artifact.
//!
//! Three claims about the black-box layer:
//!
//! * **Recorder overhead** — an *armed* flight recorder (default
//!   capacity, capturing spans, publishes, and per-rank epoch marks)
//!   stays within `CAPI_HEALTH_TOLERANCE_PCT` (default 3%) of a
//!   *disarmed* one on adaptive-run wall time. Measured best-of-N with
//!   interleaved trials, the same scheme `table8` uses for the
//!   telemetry bound.
//! * **Dump latency** — assembling a [`PostMortem`] from real run
//!   state (recorder tail, metrics snapshot, dispatch summary,
//!   decision tail, health report) is cheap enough to run inline at an
//!   epoch boundary.
//! * **Detector precision** — a scripted anomaly scenario (a budget
//!   squeezed to 0.01% plus a baseline doctored to twice the run's
//!   event volume) makes the overhead and volume detectors each fire
//!   *exactly once*, triggers exactly one post-mortem dump, and
//!   replays byte-identically from the same seed. A synthetic
//!   stall-only drive of the [`HealthMonitor`] shows the third
//!   detector with the same one-firing precision.
//!
//! Environment: `CAPI_RANKS` (default 8), `CAPI_EPOCHS` (default 8),
//! `CAPI_BUDGET_PCT` (default 0.5 for the overhead trials),
//! `CAPI_OBS_TRIALS` (default 40), `CAPI_HEALTH_TOLERANCE_PCT`
//! (default 3), `CAPI_TABLE10_OUT` (output path, default
//! `BENCH_health.json`).

use capi_appmodel::{LinkTarget, MpiCall, ProgramBuilder};
use capi_bench::report::{budget_pct_from_env_or, out_path_from_env, write_report};
use capi_bench::{
    epochs_from_env, health_tolerance_pct_from_env, obs_trials_from_env, ranks_from_env,
};
use capi_dyncapi::{
    startup, AdaptiveOutcome, AdaptiveRunBuilder, DumpTrigger, DynCapiConfig, PostMortem, Session,
    ToolChoice,
};
use capi_objmodel::{compile, CompileOptions};
use capi_obs::{
    DetectorKind, EpochHealth, HealthConfig, HealthMonitor, Telemetry, DEFAULT_RECORDER_CAP,
};
use serde_json::json;
use std::time::Instant;

/// Host: exe (main → step → work) plus one DSO, so the dump's dispatch
/// summary spans two objects.
fn host() -> capi_objmodel::Binary {
    let mut b = ProgramBuilder::new("obshost");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(50)
        .instructions(400)
        .cost(1_000)
        .calls("MPI_Init", 1)
        .calls("step", 288)
        .calls("MPI_Finalize", 1)
        .finish();
    b.function("step")
        .statements(40)
        .instructions(300)
        .cost(500)
        .calls("plugin_entry", 2)
        .calls("work", 16)
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
    compile(&b.build().unwrap(), &CompileOptions::o2()).unwrap()
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
    .expect("table10 session starts")
}

/// One timed adaptive run with the recorder at `cap` entries/ring.
/// Returns the outcome, its telemetry, and the wall time of the run
/// call alone (startup excluded — the recorder only runs inside).
fn timed_run(
    bin: &capi_objmodel::Binary,
    ranks: u32,
    epochs: usize,
    budget: f64,
    cap: usize,
) -> (AdaptiveOutcome, Telemetry, u64) {
    let mut s = session(bin, ranks);
    let tel = Telemetry::new();
    tel.set_recorder_cap(cap);
    let builder = AdaptiveRunBuilder::new()
        .epochs(epochs)
        .budget_pct(budget)
        .seed(11)
        .telemetry(tel.clone());
    let start = Instant::now();
    let outcome = builder.run(&mut s).expect("table10 run completes");
    let ns = start.elapsed().as_nanos() as u64;
    (outcome, tel, ns)
}

/// The scripted anomaly scenario: budget squeezed to 0.01% and the
/// volume baseline doctored to twice the whole run's event count, so
/// the overhead and volume detectors both fire at epoch 0 and —
/// hysteresis never re-arming within the run — exactly once.
fn detector_run(
    bin: &capi_objmodel::Binary,
    ranks: u32,
    epochs: usize,
    baseline: u64,
) -> (AdaptiveOutcome, Telemetry, Session) {
    let mut s = session(bin, ranks);
    let tel = Telemetry::new();
    let outcome = AdaptiveRunBuilder::new()
        .epochs(epochs)
        .budget_pct(0.01)
        .seed(11)
        .telemetry(tel.clone())
        .health(HealthConfig {
            overhead_trip_epochs: 1,
            overhead_clear_epochs: epochs + 1,
            stall_epochs: epochs + 1,
            volume_band_ppm: 100_000,
        })
        .baseline_events(baseline)
        .run(&mut s)
        .expect("detector run completes");
    (outcome, tel, s)
}

fn main() {
    let ranks = ranks_from_env();
    let epochs = epochs_from_env().max(4);
    let budget = budget_pct_from_env_or(0.5);
    let trials = obs_trials_from_env();
    let tolerance = health_tolerance_pct_from_env();
    let out_path = out_path_from_env("CAPI_TABLE10_OUT", "BENCH_health.json");
    let bin = host();

    println!("TABLE X — OBSERVABILITY COST & HEALTH DETECTION\n");
    println!("{ranks} ranks | {epochs} epochs | {budget}% budget | best of {trials} trials\n");

    // --- Recorder overhead: armed vs disarmed, interleaved ----------
    // Both configurations keep their best (fastest) trial; the configs
    // alternate order every iteration to cancel thermal/frequency
    // drift, and a warmup pair absorbs cold caches. If the first round
    // ends over the bound — the armed config never landed in a clean
    // scheduling window — up to two more full rounds extend the search
    // before the bound is asserted, so a single noisy pass on a loaded
    // machine cannot fail a sub-tolerance recorder.
    let mut best_disarmed = u64::MAX;
    let mut best_armed = u64::MAX;
    let mut armed_stats = None;
    let mut probe_events = 0;
    let mut trial = |cap: usize| -> u64 {
        let (out, tel, ns) = timed_run(&bin, ranks, epochs, budget, cap);
        if cap == 0 {
            probe_events = out.adaptive.events;
        } else {
            armed_stats = Some(tel.recorder_stats());
        }
        ns
    };
    trial(0);
    trial(DEFAULT_RECORDER_CAP);
    let overhead_pct =
        |armed: u64, disarmed: u64| (armed as f64 - disarmed as f64) / disarmed as f64 * 100.0;
    let mut rounds = 0;
    loop {
        for i in 0..trials {
            let caps = if i % 2 == 0 {
                [0, DEFAULT_RECORDER_CAP]
            } else {
                [DEFAULT_RECORDER_CAP, 0]
            };
            for cap in caps {
                let ns = trial(cap);
                if cap == 0 {
                    best_disarmed = best_disarmed.min(ns);
                } else {
                    best_armed = best_armed.min(ns);
                }
            }
        }
        rounds += 1;
        if overhead_pct(best_armed, best_disarmed) <= tolerance || rounds >= 3 {
            break;
        }
        println!("recorder   round {rounds} over the bound, extending the search…");
    }
    let armed_stats = armed_stats.expect("at least one trial");
    assert!(
        armed_stats.captured > 0,
        "the armed recorder must capture publishes and rank marks"
    );
    let recorder_overhead_pct = overhead_pct(best_armed, best_disarmed);
    println!(
        "recorder   disarmed {best_disarmed} ns | armed {best_armed} ns | {recorder_overhead_pct:+.3}% \
         (tolerance {tolerance}%) | captured {} evicted {} retained {}",
        armed_stats.captured, armed_stats.evicted, armed_stats.retained
    );
    assert!(
        recorder_overhead_pct <= tolerance,
        "armed recorder overhead {recorder_overhead_pct:.3}% exceeds the {tolerance}% bound"
    );

    // --- Detector precision + dump determinism ----------------------
    let baseline = probe_events.max(1) * 2;
    let (out, tel, s) = detector_run(&bin, ranks, epochs, baseline);
    let health = &out.adaptive.health;
    assert_eq!(
        health.overhead_firings, 1,
        "the squeezed budget must trip the overhead watchdog exactly once: {health:?}"
    );
    assert_eq!(
        health.volume_firings, 1,
        "the doctored baseline must trip the volume detector exactly once: {health:?}"
    );
    assert_eq!(
        health.stall_firings, 0,
        "no stall was injected, none may fire: {health:?}"
    );
    // Every injected anomaly is flagged by exactly one firing, and both
    // land at epoch 0 — the epoch the anomalies were injected into.
    assert_eq!(health.anomalies.len(), 2);
    assert!(health.anomalies.iter().all(|a| a.epoch == 0));
    let dump = out
        .adaptive
        .post_mortem
        .as_ref()
        .expect("the first firing must dump");
    assert!(
        matches!(dump.trigger, DumpTrigger::BudgetOverrun { epoch: 0 }),
        "first firing wins the trigger: {:?}",
        dump.trigger
    );
    assert!(out.log.contains("health: 1 dumps"));
    let (replay, _, _) = detector_run(&bin, ranks, epochs, baseline);
    let replay_dump = replay.adaptive.post_mortem.expect("replay dumps too");
    assert_eq!(
        dump.text, replay_dump.text,
        "dump text replays byte-identically"
    );
    assert_eq!(
        dump.to_json_string(),
        replay_dump.to_json_string(),
        "dump JSON replays byte-identically"
    );
    println!(
        "detectors  overhead 1/1 | volume 1/1 | stall 0/0 | dump at epoch {} ({} bytes text, replay byte-identical)",
        dump.epoch,
        dump.text.len()
    );

    // The third detector, driven on a synthetic stall: no progress and
    // no convergence for the streak length — one firing, then disarmed
    // until progress re-arms it (which never comes).
    let mut monitor = HealthMonitor::new(HealthConfig {
        overhead_trip_epochs: epochs + 1,
        overhead_clear_epochs: 1,
        stall_epochs: 2,
        volume_band_ppm: 1_000_000,
    });
    for epoch in 0..4 {
        monitor.observe(&EpochHealth {
            epoch,
            overhead_ppm: 0,
            budget_ppm: 1_000,
            progressed: false,
            converged: false,
            events: 100,
            baseline_events: Some(100),
        });
    }
    let stall_report = monitor.into_report();
    assert_eq!(
        stall_report.firings(DetectorKind::Stall),
        1,
        "a persistent stall fires once, not once per epoch: {stall_report:?}"
    );
    assert_eq!(stall_report.firings_total(), 1);
    println!("stall      synthetic 4-epoch stall | 1 firing (hysteresis holds)");

    // --- Dump latency: rebuild the dump from live run state ---------
    let (generation, dispatch) = s.runtime.dispatch_summary();
    let decisions: Vec<String> = out.log.lines().map(String::from).collect();
    let builds = 64;
    let mut total_ns = 0u64;
    let mut min_ns = u64::MAX;
    for _ in 0..builds {
        let start = Instant::now();
        let d = PostMortem::build(
            DumpTrigger::BudgetOverrun { epoch: 0 },
            0,
            Some(&tel),
            generation,
            &dispatch,
            s.adapter_event_loss(),
            &decisions,
            health,
        );
        let ns = start.elapsed().as_nanos() as u64;
        assert!(!d.text.is_empty());
        total_ns += ns;
        min_ns = min_ns.min(ns);
    }
    let mean_ns = total_ns / builds;
    println!("dump       {builds} rebuilds from live state | mean {mean_ns} ns | min {min_ns} ns");

    let report = json!({
        "table": "X",
        "title": "Observability cost & health detection",
        "ranks": ranks,
        "epochs": epochs,
        "budget_pct": budget,
        "recorder": {
            "trials": trials,
            "cap": DEFAULT_RECORDER_CAP,
            "disarmed_best_ns": best_disarmed,
            "armed_best_ns": best_armed,
            "overhead_pct": recorder_overhead_pct,
            "tolerance_pct": tolerance,
            "captured": armed_stats.captured,
            "evicted": armed_stats.evicted,
            "retained": armed_stats.retained,
        },
        "detectors": {
            "overhead_firings": health.overhead_firings,
            "stall_firings": health.stall_firings,
            "volume_firings": health.volume_firings,
            "synthetic_stall_firings": stall_report.stall_firings,
            "anomalies": health.anomalies.len(),
            "dump_epoch": dump.epoch,
            "byte_identical_replay": true,
        },
        "dump": {
            "builds": builds,
            "mean_build_ns": mean_ns,
            "min_build_ns": min_ns,
            "text_bytes": dump.text.len(),
            "json_bytes": dump.to_json_string().len(),
            "trigger": dump.trigger.label(),
        },
    });
    write_report(&out_path, &report);
}

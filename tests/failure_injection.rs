//! Failure-injection integration tests: every error path a production
//! deployment would hit, exercised end to end.

use capi_appmodel::{LinkTarget, MpiCall, ProgramBuilder};
use capi_mpisim::{CostModel, MpiError, MpiOp, World};
use capi_objmodel::{compile, CompileOptions, MemError, PagePerms, Process, PAGE_SIZE};
use capi_talp::{Talp, TalpConfig, TalpError};
use capi_workloads::quickstart_app;
use capi_xray::{IdError, PackedId, MAX_FUNCTION_ID};

#[test]
fn stale_ic_entries_are_reported_not_fatal() {
    // An IC naming functions that no longer exist (renamed/inlined since
    // the spec was written) must not break startup.
    let wf = capi::Workflow::analyze(quickstart_app(10), CompileOptions::o2()).unwrap();
    let ic = capi::InstrumentationConfig::from_names([
        "stencil_kernel",
        "function_renamed_last_release",
        "norm_helper", // inlined: symbol gone
    ]);
    let session =
        capi::dynamic_session(&wf.binary, &ic, capi_dyncapi::ToolChoice::None, 2).unwrap();
    assert_eq!(session.report.patched_functions, 1);
    assert!(session
        .report
        .selected_missing
        .contains(&"function_renamed_last_release".to_string()));
    assert!(session
        .report
        .selected_missing
        .contains(&"norm_helper".to_string()));
    session.run().expect("runs fine with partial IC");
}

#[test]
fn collective_mismatch_poisons_the_world() {
    let w = World::new(2, CostModel::default());
    let results = w.run(|ctx| {
        let c = ctx.perform(0, MpiOp::Init)?;
        if ctx.rank == 0 {
            ctx.perform(c, MpiOp::Barrier)
        } else {
            ctx.perform(c, MpiOp::Bcast { bytes: 4 })
        }
    });
    assert!(results.iter().any(|r| matches!(
        r,
        Err(MpiError::CollectiveMismatch { .. }) | Err(MpiError::Poisoned)
    )));
    // The world stays poisoned for later operations.
    assert_eq!(w.collective(0, 0, MpiOp::Barrier), Err(MpiError::Poisoned));
}

#[test]
fn writes_to_protected_pages_fault() {
    let mut p = Process::launch(std::sync::Arc::new(
        compile(
            &{
                let mut b = ProgramBuilder::new("x");
                b.unit("m.cc", LinkTarget::Executable);
                b.function("main")
                    .main()
                    .statements(20)
                    .instructions(600)
                    .finish();
                b.build().unwrap()
            },
            &CompileOptions::o2(),
        )
        .unwrap()
        .executable,
    ))
    .unwrap();
    // Code pages are r-x: a direct write is a protection fault.
    let base = p.memory_map()[0].base;
    assert!(matches!(
        p.memory.checked_write(base, 8),
        Err(MemError::ProtectionFault { .. })
    ));
    // After mprotect it works; after restoring it faults again.
    p.memory.mprotect(base, PAGE_SIZE, PagePerms::RWX).unwrap();
    p.memory.checked_write(base, 8).unwrap();
    p.memory.mprotect(base, PAGE_SIZE, PagePerms::RX).unwrap();
    assert!(p.memory.checked_write(base, 8).is_err());
}

#[test]
fn function_id_overflow_is_rejected() {
    assert_eq!(
        PackedId::pack(0, MAX_FUNCTION_ID + 1),
        Err(IdError::FunctionIdOverflow {
            fid: MAX_FUNCTION_ID + 1
        })
    );
}

#[test]
fn talp_region_table_exhaustion_is_contained() {
    use capi_mpisim::PmpiHook;
    let talp = Talp::new(
        1,
        TalpConfig {
            region_table_capacity: 16,
            probe_limit: 2,
        },
    );
    talp.on_init(0, 0);
    let mut ok = 0;
    let mut full = 0;
    for i in 0..32 {
        match talp.region_register(0, &format!("r{i}")) {
            Ok(h) => {
                ok += 1;
                talp.region_start(0, h, i).unwrap();
                talp.region_stop(0, h, i + 1).unwrap();
            }
            Err(TalpError::RegionTableFull { .. }) => full += 1,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert!(ok > 0 && full > 0);
    assert_eq!(talp.stats().unique_failed_entries, full);
    // Registered regions still measured correctly (+1: the implicit
    // Global region opened at MPI_Init).
    let metrics = talp.all_metrics();
    assert_eq!(metrics.len(), ok as usize + 1);
    assert!(metrics
        .iter()
        .filter(|m| m.name != "Global")
        .all(|m| m.useful_per_rank[0] == 1));
}

#[test]
fn mpi_stub_without_init_fails_cleanly_through_executor() {
    // A program whose first MPI op is an Allreduce (missing MPI_Init):
    // the executor must surface MpiError::NotInitialized.
    let mut b = ProgramBuilder::new("broken");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(30)
        .instructions(250)
        .calls("MPI_Allreduce", 1)
        .finish();
    b.function("MPI_Allreduce")
        .statements(1)
        .instructions(8)
        .mpi(MpiCall::Allreduce { bytes: 8 })
        .finish();
    let bin = compile(&b.build().unwrap(), &CompileOptions::o2()).unwrap();
    let session = capi_dyncapi::startup(
        &bin,
        capi_dyncapi::DynCapiConfig {
            ranks: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let err = session.run().expect_err("must fail");
    assert!(format!("{err}").contains("MPI"));
}

#[test]
fn empty_selection_is_valid_and_measures_nothing() {
    let wf = capi::Workflow::analyze(quickstart_app(5), CompileOptions::o2()).unwrap();
    let out = wf.select_ic(r#"byName("^no_such_function$", %%)"#).unwrap();
    assert!(out.ic.is_empty());
    let m = wf
        .measure(
            &out.ic,
            capi_dyncapi::ToolChoice::Talp(Default::default()),
            2,
        )
        .unwrap();
    assert_eq!(m.run.run.events, 0);
}

// ---------------------------------------------------------------------------
// FaultPlan coverage: every fault kind fires exactly once at its scripted
// point, is observable (fault log, telemetry, or adaptation log), and the
// run either completes degraded or fails with a typed error — never a panic.
// ---------------------------------------------------------------------------

use capi_dyncapi::{AdaptiveRunBuilder, LifecycleScript};
use capi_objmodel::{FaultKind, FaultPlan, LoadError};
use capi_obs::Telemetry;
use std::sync::Arc;

/// A host with one DSO the faults can target.
fn faultable_binary() -> capi_objmodel::Binary {
    let mut b = ProgramBuilder::new("faulthost");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(40)
        .instructions(300)
        .cost(1_000)
        .calls("MPI_Init", 1)
        .calls("step", 6)
        .calls("MPI_Finalize", 1)
        .finish();
    b.function("step")
        .statements(30)
        .instructions(250)
        .cost(500)
        .calls("plugin_entry", 2)
        .calls("MPI_Allreduce", 1)
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
        .mpi(MpiCall::Allreduce { bytes: 8 })
        .finish();
    b.function("MPI_Finalize")
        .statements(1)
        .instructions(8)
        .cost(0)
        .mpi(MpiCall::Finalize)
        .finish();
    b.unit("p.cc", LinkTarget::Dso("libplugin.so".into()));
    b.function("plugin_entry")
        .statements(50)
        .instructions(400)
        .cost(2_000)
        .finish();
    compile(&b.build().unwrap(), &CompileOptions::o2()).unwrap()
}

fn spare_dso() -> Arc<capi_objmodel::Object> {
    let mut b = ProgramBuilder::new("spare");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(10)
        .instructions(100)
        .calls("spare_fn", 1)
        .finish();
    b.unit("s.cc", LinkTarget::Dso("libspare.so".into()));
    b.function("spare_fn")
        .statements(25)
        .instructions(220)
        .cost(700)
        .finish();
    Arc::new(
        compile(&b.build().unwrap(), &CompileOptions::o2())
            .unwrap()
            .dsos[0]
            .clone(),
    )
}

/// A loader-level fault fires exactly once at its dlopen index, is
/// recorded in the fault log with its stable tag, and the *same* call
/// retried succeeds (the plan entry is consumed).
fn assert_dlopen_fault_once(kind: FaultKind) {
    let bin = faultable_binary();
    let mut p = Process::launch_binary(&bin).unwrap();
    let maps_before = p.memory_map().len();
    let mut plan = FaultPlan::new();
    plan.push(p.dlopen_calls(), kind);
    p.set_fault_plan(plan);
    let err = p.dlopen(spare_dso()).expect_err("scripted fault must fire");
    match &err {
        LoadError::Fault { kind: k, name } => {
            assert_eq!(*k, kind);
            assert_eq!(name, "libspare.so");
        }
        other => panic!("expected a typed fault, got {other}"),
    }
    assert_eq!(err.kind(), kind.kind(), "stable machine tag");
    assert_eq!(p.fired_faults().len(), 1, "fires exactly once");
    assert_eq!(p.fired_faults()[0].kind, kind);
    // Nothing leaked: no extra mapping survived the failed load.
    assert_eq!(p.memory_map().len(), maps_before);
    // The entry is consumed: the retry succeeds and no second fault fires.
    let idx = p.dlopen(spare_dso()).expect("retry must succeed");
    assert!(p.object(idx).is_some());
    assert_eq!(p.fired_faults().len(), 1);
}

#[test]
fn fault_dlopen_oom_fires_once_and_is_typed() {
    assert_dlopen_fault_once(FaultKind::DlopenOom);
}

#[test]
fn fault_relocation_fires_once_and_is_typed() {
    assert_dlopen_fault_once(FaultKind::Relocation);
}

#[test]
fn fault_partial_load_rolls_back_fully() {
    assert_dlopen_fault_once(FaultKind::PartialLoad);
}

/// An injected mprotect fault mid-repatch degrades the epoch (delta
/// dropped, counted, logged) instead of killing the adaptive run, and
/// fires exactly once.
#[test]
fn fault_mprotect_degrades_the_repatch_and_run_completes() {
    let bin = faultable_binary();
    let mut session = capi_dyncapi::startup(
        &bin,
        capi_dyncapi::DynCapiConfig {
            tool: capi_dyncapi::ToolChoice::Talp(Default::default()),
            ranks: 2,
            ..Default::default()
        },
    )
    .unwrap();
    // Schedule the fault on the *next* mprotect call: the first repatch
    // batch of the run trips it.
    let mut plan = FaultPlan::new();
    plan.push(
        session.process.memory.stats.mprotect_calls,
        FaultKind::MprotectFail,
    );
    let tel = Telemetry::new();
    let out = AdaptiveRunBuilder::new()
        .epochs(4)
        .budget_pct(0.5)
        .telemetry(tel.clone())
        .lifecycle(LifecycleScript::new().fault_plan(plan))
        .run(&mut session)
        .unwrap();
    let stats = out.adaptive.lifecycle.unwrap();
    assert!(stats.degraded_repatches >= 1, "the batch must degrade");
    assert_eq!(
        session.process.memory.mprotect_faults_fired().len(),
        1,
        "fires exactly once"
    );
    assert!(out.log.contains("delta dropped"), "degradation in the log");
    // Observable in telemetry: the degradation counter advanced.
    let c = tel.counter("lifecycle.degraded_repatch");
    assert!(tel.counter_value(c) >= 1);
    assert!(out.adaptive.events > 0, "the run completed");
}

/// The same fault one object later: epoch 0's delta drops functions in
/// the executable *and* the plugin, and the fault hits the third
/// `mprotect` — the plugin's first flip, after the executable's pair
/// completed. The executable's part was written and published, so the
/// epoch is charged for it, its record carries it, and the log says
/// what was applied instead of "delta dropped".
#[test]
fn fault_on_a_later_mprotect_reports_and_charges_the_applied_part() {
    let bin = faultable_binary();
    let mut session = capi_dyncapi::startup(
        &bin,
        capi_dyncapi::DynCapiConfig {
            tool: capi_dyncapi::ToolChoice::Talp(Default::default()),
            ranks: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let active_before = session.runtime.patched_functions();
    let mut plan = FaultPlan::new();
    plan.push(
        session.process.memory.stats.mprotect_calls + 2,
        FaultKind::MprotectFail,
    );
    let out = AdaptiveRunBuilder::new()
        .epochs(4)
        .budget_pct(0.5)
        .lifecycle(LifecycleScript::new().fault_plan(plan))
        .run(&mut session)
        .unwrap();
    assert_eq!(session.process.memory.mprotect_faults_fired().len(), 1);
    assert_eq!(out.adaptive.lifecycle.unwrap().degraded_repatches, 1);
    let epoch0 = &out.adaptive.records[0];
    assert!(epoch0.sleds_unpatched > 0, "the executable's drops landed");
    assert!(epoch0.adapt_ns > 0, "and the epoch pays for them");
    let line = format!(
        "partially applied ({} sleds, 1 objects)",
        epoch0.sleds_patched + epoch0.sleds_unpatched
    );
    assert!(out.log.contains(&line), "log lacks `{line}`:\n{}", out.log);
    assert!(!out.log.contains("delta dropped"));
    // Some, not all, of the four drops took effect: the plugin's is the
    // part the fault cut off.
    assert!(epoch0.active_after < active_before);
    assert!(epoch0.active_after > active_before - 4);
    assert!(out.adaptive.events > 0, "the run completed");
}

/// An engine carried over a batch that an `mprotect` fault cut short
/// must run on what the runtime actually holds, not on what the delta
/// asked for: here the executable's drop landed, the plugin's did not,
/// and the rate (installed after the sleds) never was. The next epoch
/// out of the carried engine equals the one out of an engine prepared
/// again from scratch.
#[test]
fn an_engine_carried_over_a_faulted_batch_runs_like_a_reprepared_one() {
    use capi_exec::{Engine, EpochSpec, OverheadModel};
    use capi_xray::{PatchDelta, XRayError};
    let next_epoch = |carry: bool| {
        let mut session = capi_dyncapi::startup(
            &faultable_binary(),
            capi_dyncapi::DynCapiConfig {
                tool: capi_dyncapi::ToolChoice::Talp(Default::default()),
                ranks: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let runtime = Arc::clone(&session.runtime);
        let id_of = |name: &str| {
            let mut patched = runtime.patched_ids().into_iter();
            patched
                .find(|id| session.symbols.name_of(*id) == Some(name))
                .unwrap_or_else(|| panic!("`{name}` starts patched"))
        };
        let (step, plugin_entry) = (id_of("step"), id_of("plugin_entry"));
        let delta = PatchDelta {
            unpatch: vec![step, plugin_entry],
            set_rate: vec![(id_of("MPI_Allreduce"), 2)],
            ..PatchDelta::default()
        };
        let model = OverheadModel::default();
        let mut engine = Engine::prepare_lenient(&session.process, &runtime, model).unwrap();
        let world = World::new(2, CostModel::default());
        let halves = |index| EpochSpec { index, total: 2 };
        let first = engine.run_epoch(&world, halves(0), &[0, 0]).unwrap();
        // The executable's `mprotect` pair completes; the plugin's first
        // flip is the third call.
        let memory = &mut session.process.memory;
        memory.schedule_mprotect_fault(memory.stats.mprotect_calls + 2);
        let applied = match runtime.repatch_surviving(memory, &delta) {
            Err(XRayError::Mem { applied, .. }) => applied,
            other => panic!("the scripted fault must cut the batch short, got {other:?}"),
        };
        assert!(applied.sleds_unpatched > 0 && applied.rates_set == 0);
        assert!(!runtime.is_patched(step) && runtime.is_patched(plugin_entry));
        if carry {
            engine.apply(&delta);
        } else {
            engine = Engine::prepare_lenient(&session.process, &runtime, model).unwrap();
        }
        assert!(engine.is_current(&session.process));
        let second = engine
            .run_epoch(&world, halves(1), &first.per_rank_ns)
            .unwrap();
        let sampled = |id| second.samples.iter().any(|s| s.id == id);
        assert!(!sampled(step) && sampled(plugin_entry));
        second
    };
    assert_eq!(next_epoch(true), next_epoch(false));
}

/// A plan-driven unload race (no script op, just the seeded plan)
/// closes the most recently loaded DSO between decision and repatch;
/// the degradation is observable in telemetry and the log.
#[test]
fn fault_unload_race_fires_once_and_degrades() {
    let bin = faultable_binary();
    let mut session = capi_dyncapi::startup(
        &bin,
        capi_dyncapi::DynCapiConfig {
            tool: capi_dyncapi::ToolChoice::Talp(Default::default()),
            ranks: 2,
            ..Default::default()
        },
    )
    .unwrap();
    // UnloadRace rides the epoch clock: fire at epoch 0.
    let mut plan = FaultPlan::new();
    plan.push(0, FaultKind::UnloadRace);
    let tel = Telemetry::new();
    let out = AdaptiveRunBuilder::new()
        .epochs(3)
        .budget_pct(0.5)
        .telemetry(tel.clone())
        .lifecycle(LifecycleScript::new().fault_plan(plan))
        .run(&mut session)
        .unwrap();
    let stats = out.adaptive.lifecycle.unwrap();
    assert_eq!(stats.unload_races, 1, "fires exactly once");
    assert!(out
        .log
        .contains("fault unload_race arms against `libplugin.so`"));
    assert!(out.log.contains("unload race closed `libplugin.so`"));
    let c = tel.counter("lifecycle.unload_race");
    assert_eq!(tel.counter_value(c), 1);
    assert!(session.process.loaded_index("libplugin.so").is_none());
    assert!(out.adaptive.events > 0, "the run completed");
}

/// Seed-expanded plans are deterministic and their tags are stable —
/// the contract that makes every injected failure reproducible from a
/// seed printed in a bug report.
#[test]
fn fault_plans_expand_deterministically_from_a_seed() {
    let a = FaultPlan::from_seed(0xFEED, 64, 8);
    let b = FaultPlan::from_seed(0xFEED, 64, 8);
    assert_eq!(a.faults().len(), b.faults().len());
    for (x, y) in a.faults().iter().zip(b.faults()) {
        assert_eq!(x.at, y.at);
        assert_eq!(x.kind, y.kind);
    }
    for k in FaultKind::ALL {
        assert!(!k.kind().is_empty());
        assert_eq!(format!("{k}"), format!("{k}"));
    }
}

/// Error-surface audit: every public error enum on the lifecycle paths
/// implements `Display` + `std::error::Error` with *stable* messages
/// (the adaptation log quotes them, and byte-identical replay depends
/// on them), and wrapping errors expose a walkable `source()` chain.
#[test]
fn lifecycle_errors_display_stably_and_chain_sources() {
    use capi_objmodel::{FaultKind, LoadError};
    use std::error::Error as _;

    let mem = MemError::Unmapped { addr: 0x40 };
    let load: LoadError = mem.clone().into();
    assert_eq!(load.to_string(), format!("mapping failure: {mem}"));
    assert_eq!(load.kind(), "mem");
    let src = load.source().expect("LoadError::Mem chains its MemError");
    assert_eq!(src.to_string(), mem.to_string());

    let fault = LoadError::Fault {
        kind: FaultKind::DlopenOom,
        name: "libspare.so".into(),
    };
    assert_eq!(
        fault.to_string(),
        "injected fault `dlopen_oom` on object `libspare.so`"
    );
    assert!(fault.source().is_none(), "a leaf fault has no source");

    let deps = LoadError::HasDependents {
        name: "libaux.so".into(),
        dependents: vec!["libplugin.so".into()],
    };
    assert_eq!(
        deps.to_string(),
        "object `libaux.so` still has dependents: libplugin.so"
    );

    let wrapped = capi_dyncapi::DynCapiError::Load(fault);
    assert_eq!(
        wrapped.to_string(),
        "load: injected fault `dlopen_oom` on object `libspare.so`"
    );
    let chain: Vec<String> = {
        let mut out = Vec::new();
        let mut cur: Option<&dyn std::error::Error> = Some(&wrapped);
        while let Some(e) = cur {
            out.push(e.to_string());
            cur = e.source();
        }
        out
    };
    assert_eq!(chain.len(), 2, "DynCapiError -> LoadError: {chain:?}");

    let xray = capi_dyncapi::DynCapiError::XRay(capi_xray::XRayError::UnknownObject(7));
    assert!(xray.source().is_some(), "XRay errors chain too");
}

// ---------------------------------------------------------------------------
// Post-mortem dumps: a fault-injected run leaves a black box. The dump is
// triggered by the typed degradation, carries the flight-recorder tail and
// the health report, and is byte-deterministic across same-seed runs.
// ---------------------------------------------------------------------------

/// Runs the scripted mprotect-fault scenario once and returns the
/// adaptive outcome (the degradation trips the first-trigger dump).
fn faulted_run() -> capi_dyncapi::AdaptiveOutcome {
    let bin = faultable_binary();
    let mut session = capi_dyncapi::startup(
        &bin,
        capi_dyncapi::DynCapiConfig {
            tool: capi_dyncapi::ToolChoice::Talp(Default::default()),
            ranks: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut plan = FaultPlan::new();
    plan.push(
        session.process.memory.stats.mprotect_calls,
        FaultKind::MprotectFail,
    );
    AdaptiveRunBuilder::new()
        .epochs(4)
        .budget_pct(0.5)
        .telemetry(Telemetry::new())
        .lifecycle(LifecycleScript::new().fault_plan(plan))
        .run(&mut session)
        .unwrap()
}

/// The injected fault surfaces as a typed degradation, which triggers
/// exactly one post-mortem dump carrying recorder, health, dispatch,
/// and decision context — and the run still completes.
#[test]
fn fault_injected_run_produces_a_post_mortem_dump() {
    let out = faulted_run();
    let dump = out
        .adaptive
        .post_mortem
        .as_ref()
        .expect("the degradation must trigger a dump");
    assert!(
        matches!(dump.trigger, capi_dyncapi::DumpTrigger::Degradation { .. }),
        "typed degradation wins the trigger race: {:?}",
        dump.trigger
    );
    assert!(dump.text.starts_with("# post-mortem dump\n"));
    assert!(dump.text.contains("trigger: degradation:"));
    assert!(dump.text.contains("# flight recorder (cap "));
    assert!(
        dump.text.contains("lifecycle lifecycle.degraded_repatch"),
        "the degradation itself is on the recorder:\n{}",
        dump.text
    );
    assert!(dump.text.contains("# health ("));
    assert!(dump.text.contains("decisions ("));
    assert!(dump.text.contains("counters:"));
    // The adaptation log records both the firing and the dump…
    assert!(out.log.contains("health: post-mortem dump (degradation)"));
    // …and the three-line health tail counts it.
    assert!(out.log.contains("health: 1 dumps"));
    assert!(
        out.adaptive.events > 0,
        "the run completed despite the dump"
    );
}

/// Two same-seed faulted runs produce byte-identical dumps — text and
/// JSON — the property that makes a dump attachable to a bug report.
#[test]
fn post_mortem_dump_is_byte_deterministic_across_same_seed_runs() {
    let (a, b) = (faulted_run(), faulted_run());
    let (da, db) = (
        a.adaptive.post_mortem.expect("first run dumps"),
        b.adaptive.post_mortem.expect("second run dumps"),
    );
    assert_eq!(da.epoch, db.epoch, "trigger epoch is deterministic");
    assert_eq!(da.text, db.text, "dump text is byte-identical");
    assert_eq!(
        da.to_json_string(),
        db.to_json_string(),
        "dump JSON is byte-identical"
    );
}

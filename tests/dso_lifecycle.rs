//! DSO lifecycle integration: dlopen/dlclose with XRay registration and
//! deregistration, the 255-DSO limit, trampoline addressing faults, and
//! the hot-swap hazard between the adaptation controller's drop records
//! and recycled XRay object IDs.

use capi_adapt::{
    AdaptConfig, AdaptController, AdaptPolicy, CallChildren, EpochView, FuncSample, OverheadBudget,
    ReinclusionProbe,
};
use capi_appmodel::{LinkTarget, ProgramBuilder};
use capi_objmodel::{compile, CompileOptions, Object, ObjectKind, Process, SymbolTable};
use capi_persist::{fingerprint_object, plan_object_matches, ObjectMatch, ObjectRecord};
use capi_xray::{
    instrument_object, EventKind, PackedId, PassOptions, TrampolineSet, XRayError, XRayRuntime,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn binary_with_dso() -> capi_objmodel::Binary {
    let mut b = ProgramBuilder::new("host");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(40)
        .instructions(300)
        .calls("plugin_entry", 1)
        .finish();
    b.unit("p.cc", LinkTarget::Dso("libplugin.so".into()));
    b.function("plugin_entry")
        .statements(60)
        .instructions(500)
        .loop_depth(1)
        .finish();
    compile(&b.build().unwrap(), &CompileOptions::o2()).unwrap()
}

#[test]
fn dso_register_patch_unload_reregister() {
    let bin = binary_with_dso();
    let mut process = Process::launch_binary(&bin).unwrap();
    let runtime = XRayRuntime::new();
    let main_inst = instrument_object(
        process.object(0).unwrap().image.clone(),
        &PassOptions::instrument_all(),
    );
    runtime
        .register_main(
            main_inst,
            process.object(0).unwrap(),
            TrampolineSet::absolute(),
        )
        .unwrap();

    let dso_inst = instrument_object(
        process.object(1).unwrap().image.clone(),
        &PassOptions::instrument_all(),
    );
    let oid = runtime
        .register_dso(
            dso_inst.clone(),
            process.object(1).unwrap(),
            1,
            TrampolineSet::pic(),
        )
        .unwrap();
    let fid = dso_inst
        .sleds
        .fid_of(dso_inst.image.function_index("plugin_entry").unwrap())
        .unwrap();
    let id = PackedId::pack(oid, fid).unwrap();
    runtime
        .patch_functions(&mut process.memory, id.object(), &[id.function()])
        .unwrap();
    assert!(runtime.dispatch(id, EventKind::Entry, 0, 0).is_ok());

    // Unload: deregister + dlclose; dispatch must now fail cleanly.
    runtime.deregister(oid).unwrap();
    process.dlclose("libplugin.so").unwrap();
    assert!(matches!(
        runtime.dispatch(id, EventKind::Entry, 0, 0),
        Err(XRayError::UnknownObject(_))
    ));

    // Reload: the object ID slot is reused.
    let idx = process.dlopen(bin.dsos[0].clone().into()).unwrap();
    let lo = process.object(idx).unwrap();
    let inst2 = instrument_object(lo.image.clone(), &PassOptions::instrument_all());
    let oid2 = runtime
        .register_dso(inst2, lo, idx, TrampolineSet::pic())
        .unwrap();
    assert_eq!(oid2, oid);
}

/// A second, unrelated plugin that will recycle the vacated object ID.
fn other_dso_binary() -> capi_objmodel::Binary {
    let mut b = ProgramBuilder::new("other");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(30)
        .instructions(250)
        .calls("other_fn", 1)
        .finish();
    b.unit("o.cc", LinkTarget::Dso("libother.so".into()));
    b.function("other_fn")
        .statements(50)
        .instructions(450)
        .loop_depth(1)
        .finish();
    compile(&b.build().unwrap(), &CompileOptions::o2()).unwrap()
}

/// The ROADMAP hot-swap hazard, as a regression pair: the controller
/// holds a drop record for a DSO function; the DSO is deregistered and
/// an *unrelated* DSO recycles its XRay object ID. Without
/// `invalidate_object` the record leaks onto the new object — the
/// re-inclusion probe resurrects the stale packed ID and the repatch
/// silently flips a sled of a function the controller never measured.
/// With the invalidation call, nothing in the vacated object survives.
#[test]
fn dso_hot_swap_invalidates_controller_drop_records() {
    let probe_every_epoch = || {
        let policies: Vec<Box<dyn AdaptPolicy>> = vec![
            Box::new(OverheadBudget::default()),
            Box::new(ReinclusionProbe::seeded(1, 1, 4, 9)),
        ];
        AdaptController::with_policies(
            AdaptConfig {
                budget_pct: 5.0,
                seed: 1,
                ..Default::default()
            },
            policies,
        )
    };
    // One epoch view in which the plugin function blows the budget.
    let over_budget = |stale: PackedId| EpochView {
        epoch: 0,
        epoch_ns: 1_000_000,
        busy_ns: 1_900_000,
        inst_ns: 900_000,
        events: 10,
        samples: vec![FuncSample {
            id: stale,
            name: "plugin_entry".into(),
            visits: 1_000,
            inst_ns: 900_000,
            body_cost_ns: 1,
            rate: 1,
        }],
        talp: Vec::new(),
        children: CallChildren::default(),
    };
    let quiet_epoch = |epoch: usize| EpochView {
        epoch,
        epoch_ns: 1_000_000,
        busy_ns: 1_000_000,
        inst_ns: 0,
        events: 0,
        samples: Vec::new(),
        talp: Vec::new(),
        children: CallChildren::default(),
    };

    // `fix` toggles the invalidation call at the swap point.
    let swap_scenario = |fix: bool| -> (AdaptController, capi_xray::PatchDelta, PackedId) {
        let bin = binary_with_dso();
        let mut process = Process::launch_binary(&bin).unwrap();
        let runtime = XRayRuntime::new();
        runtime
            .register_main(
                instrument_object(
                    process.object(0).unwrap().image.clone(),
                    &PassOptions::instrument_all(),
                ),
                process.object(0).unwrap(),
                TrampolineSet::absolute(),
            )
            .unwrap();
        let dso_inst = instrument_object(
            process.object(1).unwrap().image.clone(),
            &PassOptions::instrument_all(),
        );
        let oid = runtime
            .register_dso(
                dso_inst.clone(),
                process.object(1).unwrap(),
                1,
                TrampolineSet::pic(),
            )
            .unwrap();
        let fid = dso_inst
            .sleds
            .fid_of(dso_inst.image.function_index("plugin_entry").unwrap())
            .unwrap();
        let stale = PackedId::pack(oid, fid).unwrap();
        runtime
            .patch_functions(&mut process.memory, stale.object(), &[stale.function()])
            .unwrap();

        let mut controller = probe_every_epoch();
        controller.begin([(stale, "plugin_entry")]);
        // Epoch 0: the plugin function is dropped → drop record held.
        let d0 = controller.on_epoch(&over_budget(stale));
        assert_eq!(d0.unpatch, vec![stale]);
        runtime.repatch(&mut process.memory, &d0).unwrap();

        // Hot swap: unload the plugin, load an unrelated DSO into the
        // recycled object ID slot.
        runtime.deregister(oid).unwrap();
        process.dlclose("libplugin.so").unwrap();
        if fix {
            controller.invalidate_object(oid);
        }
        let other = other_dso_binary();
        let idx = process.dlopen(other.dsos[0].clone().into()).unwrap();
        let lo = process.object(idx).unwrap();
        let inst2 = instrument_object(lo.image.clone(), &PassOptions::instrument_all());
        let oid2 = runtime
            .register_dso(inst2, lo, idx, TrampolineSet::pic())
            .unwrap();
        assert_eq!(oid2, oid, "the vacated slot is recycled");

        // Epoch 1: the probe policy fires.
        let d1 = controller.on_epoch(&quiet_epoch(1));
        let delta = d1.clone();
        runtime.repatch(&mut process.memory, &d1).unwrap();
        // Report which functions ended up patched for the caller.
        assert_eq!(
            runtime.is_patched(stale),
            delta.patch.contains(&stale),
            "repatch applied exactly the delta"
        );
        (controller, delta, stale)
    };

    // Without the fix: the stale record leaks onto the recycled ID and
    // an unrelated function of the new DSO gets patched.
    let (_leaky, delta, stale) = swap_scenario(false);
    assert!(
        delta.patch.contains(&stale),
        "hazard reproduced: probe resurrects the dead object ID"
    );

    // With the fix: the vacated object's records are gone — nothing is
    // probed, nothing is patched, and the log records the invalidation.
    let (fixed, delta, stale) = swap_scenario(true);
    assert!(
        !delta.patch.contains(&stale),
        "invalidate_object removed the stale drop record"
    );
    assert!(delta.is_empty());
    assert_eq!(fixed.dropped_len(), 0);
    assert!(fixed
        .active_ids()
        .iter()
        .all(|id| id.object() != stale.object()));
    assert!(fixed.render_log().contains("invalidate object 1"));
}

/// Cross-run variant of the hot-swap hazard: a *persisted* profile
/// holds drop records and a converged IC for a DSO; by the time the
/// next session warm-starts, an unrelated DSO has recycled the XRay
/// object ID. The packed IDs in the profile now point at functions of
/// the new DSO — a naive identity mapping would pre-trim/pre-grow
/// whatever shares the raw IDs. The object fingerprint matching must
/// classify the old DSO as missing and discard its records instead.
#[test]
fn warm_start_profile_does_not_alias_a_recycled_dso_slot() {
    let record_of = |process: &Process, pi: usize, oid: u8| -> ObjectRecord {
        let lo = process.object(pi).unwrap();
        ObjectRecord {
            object_id: oid,
            name: lo.image.name.clone(),
            fingerprint: fingerprint_object(
                &lo.image.name,
                lo.image
                    .symtab
                    .all()
                    .iter()
                    .map(|s| (s.name.as_str(), s.offset)),
            ),
        }
    };
    let controller = || {
        AdaptController::new(AdaptConfig {
            budget_pct: 5.0,
            seed: 1,
            ..Default::default()
        })
    };

    // Session A: host + libplugin; the plugin function blows the
    // budget and is dropped, then the profile is exported.
    let bin = binary_with_dso();
    let mut process = Process::launch_binary(&bin).unwrap();
    let runtime = XRayRuntime::new();
    runtime
        .register_main(
            instrument_object(
                process.object(0).unwrap().image.clone(),
                &PassOptions::instrument_all(),
            ),
            process.object(0).unwrap(),
            TrampolineSet::absolute(),
        )
        .unwrap();
    let dso_inst = instrument_object(
        process.object(1).unwrap().image.clone(),
        &PassOptions::instrument_all(),
    );
    let oid = runtime
        .register_dso(
            dso_inst.clone(),
            process.object(1).unwrap(),
            1,
            TrampolineSet::pic(),
        )
        .unwrap();
    let fid = dso_inst
        .sleds
        .fid_of(dso_inst.image.function_index("plugin_entry").unwrap())
        .unwrap();
    let stale = PackedId::pack(oid, fid).unwrap();
    let mut a = controller();
    a.begin([(stale, "plugin_entry")]);
    let d0 = a.on_epoch(&EpochView {
        epoch: 0,
        epoch_ns: 1_000_000,
        busy_ns: 1_900_000,
        inst_ns: 900_000,
        events: 10,
        samples: vec![FuncSample {
            id: stale,
            name: "plugin_entry".into(),
            visits: 1_000,
            inst_ns: 900_000,
            body_cost_ns: 1,
            rate: 1,
        }],
        talp: Vec::new(),
        children: CallChildren::default(),
    });
    assert_eq!(d0.unpatch, vec![stale]);
    let profile = a.export_profile(vec![record_of(&process, 0, 0), record_of(&process, 1, oid)]);
    assert!(profile
        .functions
        .iter()
        .any(|f| f.raw_id == stale.raw() && f.drop.is_some()));

    // Hot swap: the plugin goes away; an unrelated DSO recycles slot 1.
    runtime.deregister(oid).unwrap();
    process.dlclose("libplugin.so").unwrap();
    let other = other_dso_binary();
    let idx = process.dlopen(other.dsos[0].clone().into()).unwrap();
    let lo = process.object(idx).unwrap();
    let inst2 = instrument_object(lo.image.clone(), &PassOptions::instrument_all());
    let oid2 = runtime
        .register_dso(inst2, lo, idx, TrampolineSet::pic())
        .unwrap();
    assert_eq!(oid2, oid, "the vacated slot is recycled");

    // Session B's world: `other_fn` shares the *raw* packed ID with the
    // dropped plugin function.
    let current = vec![record_of(&process, 0, 0), record_of(&process, idx, oid2)];
    let plan = plan_object_matches(&profile.objects, &current);
    assert!(
        plan.contains(&ObjectMatch::Missing { from: oid }),
        "the unloaded plugin must be classified missing, got {plan:?}"
    );

    // Fingerprint-gated idmap (what the DynCaPI layer builds): only
    // unchanged/moved objects contribute; the plugin's records map to
    // nothing.
    let mut idmap: BTreeMap<u32, u32> = BTreeMap::new();
    for m in &plan {
        if let ObjectMatch::Unchanged { object_id } = *m {
            for f in &profile.functions {
                let pid = PackedId::from_raw(f.raw_id);
                if pid.object() == object_id {
                    idmap.insert(f.raw_id, f.raw_id);
                }
            }
        }
    }
    let mut b = controller();
    b.begin([(stale, "other_fn")]); // same raw ID, different function!
    let (delta, stats) = b.seed_from_profile(&profile, &idmap);
    assert!(delta.is_empty(), "no stale record touches the new DSO");
    assert!(stats.discarded >= 1, "plugin records discarded");
    assert_eq!(stats.pre_trimmed, 0);
    assert_eq!(b.dropped_len(), 0, "no drop record aliased onto other_fn");
    assert!(b.active_ids().contains(&stale), "other_fn stays patched");

    // Contrast — the hazard this guards against: a naive identity map
    // would pre-trim `other_fn` on the strength of the dead plugin's
    // drop record.
    let naive: BTreeMap<u32, u32> = profile
        .functions
        .iter()
        .map(|f| (f.raw_id, f.raw_id))
        .collect();
    let mut leaky = controller();
    leaky.begin([(stale, "other_fn")]);
    let (delta, _) = leaky.seed_from_profile(&profile, &naive);
    assert!(
        delta.unpatch.contains(&stale),
        "hazard reproduced without fingerprint matching"
    );
}

#[test]
fn more_than_255_dsos_is_rejected() {
    // Synthetic empty DSOs keep this test fast: registration only needs
    // the image + a load address.
    let mut b = ProgramBuilder::new("host");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(30)
        .instructions(250)
        .finish();
    let bin = compile(&b.build().unwrap(), &CompileOptions::o2()).unwrap();
    let mut process = Process::launch_binary(&bin).unwrap();
    let runtime = XRayRuntime::new();
    let main_inst = instrument_object(
        process.object(0).unwrap().image.clone(),
        &PassOptions::instrument_all(),
    );
    runtime
        .register_main(
            main_inst,
            process.object(0).unwrap(),
            TrampolineSet::absolute(),
        )
        .unwrap();

    let mut last = Ok(0u8);
    for i in 0..256 {
        let dso = Arc::new(Object::new(
            format!("lib_gen_{i}.so"),
            ObjectKind::SharedObject,
            vec![],
            SymbolTable::new(),
        ));
        let idx = process.dlopen(dso).unwrap();
        let lo = process.object(idx).unwrap();
        let inst = instrument_object(lo.image.clone(), &PassOptions::instrument_all());
        last = runtime.register_dso(inst, lo, idx, TrampolineSet::pic());
        if last.is_err() {
            break;
        }
    }
    assert!(
        matches!(last, Err(XRayError::TooManyObjects)),
        "the 256th DSO must be rejected (8-bit object IDs)"
    );
}

#[test]
fn absolute_trampolines_in_dso_fault_pic_works() {
    let bin = binary_with_dso();
    let mut process = Process::launch_binary(&bin).unwrap();
    let runtime = XRayRuntime::new();
    let main_inst = instrument_object(
        process.object(0).unwrap().image.clone(),
        &PassOptions::instrument_all(),
    );
    runtime
        .register_main(
            main_inst,
            process.object(0).unwrap(),
            TrampolineSet::absolute(),
        )
        .unwrap();
    // Mis-linked: absolute trampolines inside the relocated DSO.
    let dso_inst = instrument_object(
        process.object(1).unwrap().image.clone(),
        &PassOptions::instrument_all(),
    );
    let oid = runtime
        .register_dso(
            dso_inst,
            process.object(1).unwrap(),
            1,
            TrampolineSet::absolute(),
        )
        .unwrap();
    let id = PackedId::pack(oid, 0).unwrap();
    runtime
        .patch_functions(&mut process.memory, id.object(), &[id.function()])
        .unwrap();
    assert!(matches!(
        runtime.dispatch(id, EventKind::Entry, 0, 0),
        Err(XRayError::Fault(_))
    ));
}

#[test]
fn memory_map_tracks_load_and_unload() {
    let bin = binary_with_dso();
    let mut process = Process::launch_binary(&bin).unwrap();
    assert_eq!(process.memory_map().len(), 2);
    process.dlclose("libplugin.so").unwrap();
    assert_eq!(process.memory_map().len(), 1);
    assert!(process.resolve("plugin_entry").is_none());
}

// ---------------------------------------------------------------------------
// DSO-churn survival: scripted lifecycle ops (open/close/rebuild/interpose/
// fault) executed while adaptation is mid-flight, with warm-start profiles.
// The invariants: the run always completes (graceful degradation, typed
// errors only), no stale slot is ever aliased, and same-seed replays produce
// byte-identical adaptation logs and event counts.
// ---------------------------------------------------------------------------

use capi_appmodel::MpiCall;
use capi_dyncapi::{
    startup, AdaptiveRunBuilder, DynCapiConfig, LifecycleOp, LifecycleScript, ProfileSource,
    Session, ToolChoice,
};
use capi_exec::{Engine, EpochSpec, OverheadModel};
use capi_mpisim::{CostModel, World};
use capi_objmodel::{FaultKind, FaultPlan};
use proptest::prelude::*;

/// Host: exe (main → step → work) + libplugin.so + libaux.so, both called
/// from `step` so closing either mid-run leaves dangling call targets —
/// exactly what the lenient engine prepare must survive.
fn churn_host_binary() -> capi_objmodel::Binary {
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

fn churn_session() -> Session {
    startup(
        &churn_host_binary(),
        DynCapiConfig {
            tool: ToolChoice::Talp(Default::default()),
            ranks: 2,
            ..Default::default()
        },
    )
    .unwrap()
}

/// A loadable plugin image; `generation` changes the content so two
/// generations of `libextra.so` fingerprint differently (rebuilds).
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

/// An interposer exporting `aux_fn`: loaded at the LD_PRELOAD position it
/// shadows libaux.so's definition.
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

/// Seed-expanded churn script: arbitrary open/close/rebuild/interpose/
/// race ops over the run's epochs plus a seeded fault plan.
fn script_from_seed(seed: u64, epochs: usize) -> LifecycleScript {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut script = LifecycleScript::new()
        .image(extra_image(next() as u32 % 3))
        .image(shadow_image());
    for e in 0..epochs {
        match next() % 7 {
            0 => script = script.at(e, LifecycleOp::Open("libextra.so".into())),
            1 => script = script.at(e, LifecycleOp::Close("libextra.so".into())),
            2 => script = script.at(e, LifecycleOp::Reload("libextra.so".into())),
            3 => script = script.at(e, LifecycleOp::UnloadRace("libaux.so".into())),
            4 => script = script.at(e, LifecycleOp::Interpose("libshadow.so".into())),
            5 => script = script.at(e, LifecycleOp::Close("libplugin.so".into())),
            _ => {}
        }
    }
    script.fault_plan(FaultPlan::from_seed(seed, 12, 3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fuzzed churn storms: any seed-expanded script must (a) never kill
    /// the run, (b) leave no patched ID dangling (every live sled still
    /// resolves to an address — no aliased slots), and (c) replay
    /// byte-identically from the same seed: same adaptation log, same
    /// event count, same lifecycle counters.
    #[test]
    fn fuzzed_churn_replays_byte_identically_and_never_aliases(seed in any::<u64>()) {
        let epochs = 5usize;
        let run = || {
            let mut s = churn_session();
            let out = AdaptiveRunBuilder::new()
                .epochs(epochs)
                .budget_pct(20.0)
                .seed(11)
                .lifecycle(script_from_seed(seed, epochs))
                .run(&mut s)
                .expect("a churn storm must degrade, never fail the run");
            (out, s)
        };
        let (a, sa) = run();
        let (b, _) = run();
        prop_assert_eq!(&a.log, &b.log, "same-seed replay must be byte-identical");
        prop_assert_eq!(a.adaptive.events, b.adaptive.events);
        prop_assert_eq!(a.adaptive.lifecycle, b.adaptive.lifecycle);
        prop_assert!(a.adaptive.events > 0, "the host keeps producing events");
        // No aliased slots: every patched ID maps to a live function.
        for id in sa.runtime.patched_ids() {
            prop_assert!(
                sa.runtime.function_address(id).is_some(),
                "patched id {:?} dangles after churn", id
            );
        }
        prop_assert_eq!(a.adaptive.restarts, 0);
    }
}

/// A dropped delta's worth of churn in one directed scenario: the unload
/// race closes libplugin.so *between* the controller's epoch-0 decision
/// (which, with a starvation budget, unpatches the plugin's functions)
/// and the repatch — the surviving repatch skips the vanished object,
/// counts the degradation, and the run completes.
#[test]
fn unload_race_degrades_repatch_and_run_completes() {
    let mut s = churn_session();
    let script = LifecycleScript::new().at(0, LifecycleOp::UnloadRace("libplugin.so".into()));
    let out = AdaptiveRunBuilder::new()
        .epochs(4)
        .budget_pct(0.5)
        .lifecycle(script)
        .run(&mut s)
        .unwrap();
    let stats = out.adaptive.lifecycle.unwrap();
    assert_eq!(stats.unload_races, 1);
    assert!(
        stats.degraded_repatches >= 1,
        "the racing delta must degrade"
    );
    assert!(out.log.contains("unload race closed `libplugin.so`"));
    assert!(out.log.contains("degraded repatch"));
    assert!(s.process.loaded_index("libplugin.so").is_none());
    assert!(out.adaptive.events > 0);
}

/// A transient dlopen fault is retried with bounded backoff and the
/// retry succeeds; the failure and the retry are both counted.
#[test]
fn dlopen_fault_is_retried_and_the_open_succeeds() {
    let mut s = churn_session();
    let mut plan = FaultPlan::new();
    plan.push(s.process.dlopen_calls(), FaultKind::DlopenOom);
    let script = LifecycleScript::new()
        .image(extra_image(0))
        .fault_plan(plan)
        .at(1, LifecycleOp::Open("libextra.so".into()));
    let out = AdaptiveRunBuilder::new()
        .epochs(3)
        .budget_pct(20.0)
        .lifecycle(script)
        .run(&mut s)
        .unwrap();
    let stats = out.adaptive.lifecycle.unwrap();
    assert_eq!(stats.dlopen_failed, 1);
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.opened, 1);
    assert!(
        stats.lifecycle_ns > 0,
        "backoff + registration cost accounted"
    );
    assert!(out.log.contains("open `libextra.so`"));
    assert!(out.log.contains("after 1 retries"));
    assert_eq!(s.process.fired_faults().len(), 1);
    assert_eq!(s.process.fired_faults()[0].kind, FaultKind::DlopenOom);
    assert!(s.process.loaded_index("libextra.so").is_some());
}

/// Rebuilt-then-reloaded: the reload closes generation-0 and opens a
/// different build under the same name; the recycled object ID carries
/// none of the old functions and the run keeps going.
#[test]
fn reload_swaps_in_the_rebuilt_image() {
    let mut s = churn_session();
    let script = LifecycleScript::new()
        .image(extra_image(0))
        .at(0, LifecycleOp::Open("libextra.so".into()))
        .at(2, LifecycleOp::Reload("libextra.so".into()));
    let out = AdaptiveRunBuilder::new()
        .epochs(4)
        .budget_pct(20.0)
        .lifecycle(script)
        .run(&mut s)
        .unwrap();
    let stats = out.adaptive.lifecycle.unwrap();
    assert_eq!(stats.opened, 2, "initial open + reload re-open");
    assert_eq!(stats.closed, 1, "reload closes the old generation");
    assert!(out.log.contains("close `libextra.so`"));
    assert!(s.process.loaded_index("libextra.so").is_some());
}

/// Interposition mid-run: the shadow object enters resolution right
/// after the executable and wins the `aux_fn` lookup from then on.
#[test]
fn interposed_dso_shadows_and_the_session_survives() {
    let mut s = churn_session();
    let script = LifecycleScript::new()
        .image(shadow_image())
        .at(1, LifecycleOp::Interpose("libshadow.so".into()));
    let out = AdaptiveRunBuilder::new()
        .epochs(3)
        .budget_pct(20.0)
        .lifecycle(script)
        .run(&mut s)
        .unwrap();
    assert!(out.log.contains("interpose `libshadow.so`"));
    let shadow_idx = s.process.loaded_index("libshadow.so").unwrap();
    let resolved = s.process.resolve("aux_fn").unwrap();
    let shadow_base = s.process.object(shadow_idx).unwrap().base;
    assert!(
        resolved.addr >= shadow_base,
        "interposed definition must win the lookup"
    );
}

/// What *runs* follows the lookup: before the interposition the epoch's
/// `aux_fn` cost samples carry libaux's packed ID, afterwards
/// libshadow's — the engine binds in resolution order, not in slot
/// order (libshadow sits in the highest slot).
#[test]
fn the_engine_calls_the_interposed_definition() {
    let aux_fn_in = |s: &Session, dso: &str| {
        let pi = s.process.loaded_index(dso).unwrap();
        let fi = s.process.object(pi).unwrap().image.function_index("aux_fn");
        s.runtime.snapshot().lookup(pi, fi.unwrap()).unwrap().0
    };
    let sampled = |s: &Session| -> Vec<PackedId> {
        let engine = Engine::prepare(&s.process, &s.runtime, OverheadModel::default()).unwrap();
        let world = World::new(2, CostModel::default());
        let out = engine
            .run_epoch(&world, EpochSpec { index: 0, total: 1 }, &[0, 0])
            .unwrap();
        out.samples.iter().map(|f| f.id).collect()
    };
    let mut s = churn_session();
    let original = aux_fn_in(&s, "libaux.so");
    assert!(sampled(&s).contains(&original));
    s.load_dso(shadow_image(), true).result.unwrap();
    let shadow = aux_fn_in(&s, "libshadow.so");
    assert_ne!(shadow.object(), original.object());
    let after = sampled(&s);
    assert!(after.contains(&shadow), "the interposer's body must run");
    assert!(!after.contains(&original), "the shadowed body must not");
}

/// Warm start under churn: the profile references a DSO the new session
/// never loaded — the records are discarded with a per-object typed
/// lifecycle reason in the adaptation log, never silently dropped.
#[test]
fn warm_start_under_churn_logs_a_typed_missing_reason() {
    // Session A opens libextra and exports a profile that records it.
    let mut a = churn_session();
    let script = LifecycleScript::new()
        .image(extra_image(0))
        .at(0, LifecycleOp::Open("libextra.so".into()));
    let out_a = AdaptiveRunBuilder::new()
        .epochs(3)
        .budget_pct(20.0)
        .lifecycle(script)
        .run(&mut a)
        .unwrap();
    assert!(
        out_a
            .profile
            .objects
            .iter()
            .any(|o| o.name == "libextra.so"),
        "the opened DSO must be in the exported profile"
    );
    // Session B never loads libextra: the warm start classifies it
    // missing and says so, typed, per object.
    let mut b = churn_session();
    let out_b = AdaptiveRunBuilder::new()
        .epochs(3)
        .budget_pct(20.0)
        .profile(ProfileSource::Inline(out_a.profile.clone()))
        .run(&mut b)
        .unwrap();
    assert!(out_b.warm_started);
    assert!(
        out_b.log.contains("`libextra.so`") && out_b.log.contains("[lifecycle:missing]"),
        "per-object typed reason missing from log:\n{}",
        out_b.log
    );
}

/// Warm-started adaptation with churn *in the same run*: the profile
/// seeds the controller, then the script closes a profiled object —
/// the controller invalidates it and the replay stays deterministic.
#[test]
fn warm_start_plus_churn_is_deterministic() {
    let profile = {
        let mut s = churn_session();
        AdaptiveRunBuilder::new()
            .epochs(4)
            .budget_pct(10.0)
            .run(&mut s)
            .unwrap()
            .profile
    };
    let run = || {
        let mut s = churn_session();
        let script = LifecycleScript::new()
            .at(1, LifecycleOp::Close("libaux.so".into()))
            .at(2, LifecycleOp::UnloadRace("libplugin.so".into()));
        AdaptiveRunBuilder::new()
            .epochs(4)
            .budget_pct(10.0)
            .lifecycle(script)
            .profile(ProfileSource::Inline(profile.clone()))
            .run(&mut s)
            .unwrap()
    };
    let x = run();
    let y = run();
    assert_eq!(x.log, y.log, "warm + churn must replay byte-identically");
    assert_eq!(x.adaptive.events, y.adaptive.events);
    assert!(x.warm_started);
    assert!(x.log.contains("close `libaux.so`"));
}

/// Today's behaviour, pinned: the Score-P adapter's ID→address table is
/// built once at startup, so every sled of a DSO `dlopen`ed mid-run is
/// *unmapped* — its events cost nothing and reach no profile. They are
/// counted, though, and the count rides on the session's run output.
#[test]
fn events_of_a_dso_opened_mid_run_are_counted_as_unmapped_under_scorep() {
    let mut s = startup(
        &churn_host_binary(),
        DynCapiConfig {
            tool: ToolChoice::Scorep(Default::default()),
            ranks: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let before = s.run().unwrap();
    assert_eq!(before.adapter_loss.scorep_events_unmapped, 0);
    let recorded = s.scorep.as_ref().unwrap().stats().events_recorded;

    let opened = s.load_dso(extra_image(0), false);
    let oid = opened.result.expect("libextra.so loads");
    assert!(opened.sleds_patched > 0, "xray full patches the new object");
    let (&id, _) = (s.symbols.names.iter())
        .find(|(id, name)| id.object() == oid && name.as_str() == "extra_fn")
        .expect("the session resolved the new object's symbols");
    for kind in [EventKind::Entry, EventKind::Exit] {
        assert_eq!(s.runtime.dispatch(id, kind, 7, 0).unwrap(), 0);
    }

    let scorep = s.scorep.as_ref().unwrap();
    assert_eq!(s.scorep_adapter.as_ref().unwrap().events_unmapped(), 2);
    assert_eq!(scorep.stats().events_recorded, recorded);
    assert!(!scorep.region_names().iter().any(|n| n == "extra_fn"));
    // The host never calls into libextra.so: a second run adds nothing.
    let after = s.run().unwrap();
    assert_eq!(after.adapter_loss.scorep_events_unmapped, 2);
    assert_eq!(after.adapter_loss.talp_events_dropped, 0);
}

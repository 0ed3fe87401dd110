use super::*;
use crate::log::ShardedLog;
use crate::pass::{instrument_object, PassOptions};
use capi_appmodel::{LinkTarget, ProgramBuilder};
use capi_objmodel::{compile, CompileOptions, Process};

struct Fixture {
    process: Process,
    runtime: XRayRuntime,
    main_inst: InstrumentedObject,
    dso_inst: InstrumentedObject,
}

fn fixture() -> Fixture {
    let mut b = ProgramBuilder::new("app");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(50)
        .instructions(400)
        .calls("kernel", 1)
        .calls("solve", 1)
        .finish();
    b.function("kernel")
        .statements(60)
        .instructions(600)
        .loop_depth(1)
        .finish();
    b.unit("s.cc", LinkTarget::Dso("libsolver.so".into()));
    b.function("solve")
        .statements(70)
        .instructions(800)
        .loop_depth(2)
        .finish();
    let p = b.build().unwrap();
    let bin = compile(&p, &CompileOptions::o2()).unwrap();
    let process = Process::launch_binary(&bin).unwrap();
    let main_inst = instrument_object(
        process.object(0).unwrap().image.clone(),
        &PassOptions::instrument_all(),
    );
    let dso_inst = instrument_object(
        process.object(1).unwrap().image.clone(),
        &PassOptions::instrument_all(),
    );
    Fixture {
        process,
        runtime: XRayRuntime::new(),
        main_inst,
        dso_inst,
    }
}

#[test]
fn main_gets_object_zero_dso_must_wait() {
    let f = fixture();
    let loaded_dso = f.process.object(1).unwrap().clone();
    assert!(matches!(
        f.runtime
            .register_dso(f.dso_inst.clone(), &loaded_dso, 1, TrampolineSet::pic()),
        Err(XRayError::MainMustBeFirst)
    ));
    let id = f
        .runtime
        .register_main(
            f.main_inst.clone(),
            f.process.object(0).unwrap(),
            TrampolineSet::absolute(),
        )
        .unwrap();
    assert_eq!(id, 0);
    let dso_id = f
        .runtime
        .register_dso(f.dso_inst.clone(), &loaded_dso, 1, TrampolineSet::pic())
        .unwrap();
    assert_eq!(dso_id, 1);
}

fn registered() -> (Fixture, u8, u8) {
    let f = fixture();
    let main_id = f
        .runtime
        .register_main(
            f.main_inst.clone(),
            f.process.object(0).unwrap(),
            TrampolineSet::absolute(),
        )
        .unwrap();
    let dso_id = f
        .runtime
        .register_dso(
            f.dso_inst.clone(),
            f.process.object(1).unwrap(),
            1,
            TrampolineSet::pic(),
        )
        .unwrap();
    (f, main_id, dso_id)
}

/// `__xray_patch_function` as the delta it is.
fn patch(f: &mut Fixture, id: PackedId) -> RepatchReport {
    let delta = PatchDelta {
        patch: vec![id],
        ..PatchDelta::default()
    };
    f.runtime.repatch(&mut f.process.memory, &delta).unwrap()
}

/// `__xray_unpatch_function` as the delta it is.
fn unpatch(f: &mut Fixture, id: PackedId) -> RepatchReport {
    let delta = PatchDelta {
        unpatch: vec![id],
        ..PatchDelta::default()
    };
    f.runtime.repatch(&mut f.process.memory, &delta).unwrap()
}

#[test]
fn patch_and_dispatch_roundtrip() {
    let (mut f, main_id, _) = registered();
    let fid = f
        .main_inst
        .sleds
        .fid_of(f.main_inst.image.function_index("kernel").unwrap())
        .unwrap();
    let id = PackedId::pack(main_id, fid).unwrap();
    assert!(!f.runtime.is_patched(id));
    // Dispatch before patching is an error.
    assert!(matches!(
        f.runtime.dispatch(id, EventKind::Entry, 0, 0),
        Err(XRayError::NotPatched(_))
    ));
    let n = patch(&mut f, id).sleds_patched;
    assert!(n >= 2);
    assert!(f.runtime.is_patched(id));
    let log = Arc::new(ShardedLog::new(1));
    f.runtime.set_handler(log.clone());
    f.runtime.dispatch(id, EventKind::Entry, 100, 0).unwrap();
    f.runtime.dispatch(id, EventKind::Exit, 200, 0).unwrap();
    assert_eq!(log.events().len(), 2);
    assert_eq!(log.events()[0].kind, EventKind::Entry);
}

#[test]
fn patching_is_idempotent() {
    let (mut f, main_id, _) = registered();
    let id = PackedId::pack(main_id, 0).unwrap();
    let first = patch(&mut f, id).sleds_patched;
    let second = patch(&mut f, id).sleds_patched;
    assert!(first > 0);
    assert_eq!(second, 0);
}

#[test]
fn unpatch_restores_nop_state() {
    let (mut f, main_id, _) = registered();
    let id = PackedId::pack(main_id, 0).unwrap();
    patch(&mut f, id);
    unpatch(&mut f, id);
    assert!(!f.runtime.is_patched(id));
}

#[test]
fn patch_all_covers_object_with_one_mprotect_pair() {
    let (mut f, main_id, _) = registered();
    let before = f.process.memory.stats.mprotect_calls;
    let written = f.runtime.patch_all(&mut f.process.memory, main_id).unwrap();
    assert_eq!(written as usize, f.main_inst.sleds.total_sleds());
    assert_eq!(f.process.memory.stats.mprotect_calls - before, 2);
}

#[test]
fn dso_dispatch_uses_pic_trampolines() {
    let (mut f, _, dso_id) = registered();
    let fid = f
        .dso_inst
        .sleds
        .fid_of(f.dso_inst.image.function_index("solve").unwrap())
        .unwrap();
    let id = PackedId::pack(dso_id, fid).unwrap();
    patch(&mut f, id);
    assert!(f.runtime.dispatch(id, EventKind::Entry, 0, 0).is_ok());
}

#[test]
fn absolute_trampolines_in_relocated_dso_fault() {
    let f = fixture();
    f.runtime
        .register_main(
            f.main_inst.clone(),
            f.process.object(0).unwrap(),
            TrampolineSet::absolute(),
        )
        .unwrap();
    // Mis-linked DSO: absolute trampolines.
    let dso_id = f
        .runtime
        .register_dso(
            f.dso_inst.clone(),
            f.process.object(1).unwrap(),
            1,
            TrampolineSet::absolute(),
        )
        .unwrap();
    let mut f = f;
    let id = PackedId::pack(dso_id, 0).unwrap();
    patch(&mut f, id);
    assert!(matches!(
        f.runtime.dispatch(id, EventKind::Entry, 0, 0),
        Err(XRayError::Fault(_))
    ));
}

#[test]
fn deregister_frees_slot_for_reuse() {
    let (f, _, dso_id) = registered();
    f.runtime.deregister(dso_id).unwrap();
    assert!(matches!(
        f.runtime.deregister(dso_id),
        Err(XRayError::UnknownObject(_))
    ));
    let again = f
        .runtime
        .register_dso(
            f.dso_inst.clone(),
            f.process.object(1).unwrap(),
            1,
            TrampolineSet::pic(),
        )
        .unwrap();
    assert_eq!(again, dso_id);
}

#[test]
fn function_address_and_reverse_lookup_agree() {
    let (f, _, dso_id) = registered();
    let fid = f
        .dso_inst
        .sleds
        .fid_of(f.dso_inst.image.function_index("solve").unwrap())
        .unwrap();
    let id = PackedId::pack(dso_id, fid).unwrap();
    let addr = f.runtime.function_address(id).unwrap();
    assert_eq!(f.runtime.id_at_address(addr), Some(id));
    // Matches the loader's view.
    let resolved = f.process.resolve("solve").unwrap();
    assert_eq!(resolved.addr, addr);
}

#[test]
fn id_at_address_boundaries() {
    let (f, main_id, dso_id) = registered();
    let inner_entries = |inst: &InstrumentedObject| {
        let mut offs: Vec<(u64, u32)> = inst
            .sleds
            .entries
            .iter()
            .map(|e| (e.entry_offset, e.fid))
            .collect();
        offs.sort_unstable();
        offs
    };
    for (oid, inst, base) in [
        (main_id, &f.main_inst, f.process.object(0).unwrap().base),
        (dso_id, &f.dso_inst, f.process.object(1).unwrap().base),
    ] {
        let offs = inner_entries(inst);
        assert!(!offs.is_empty());
        let (first_off, first_fid) = offs[0];
        let (last_off, last_fid) = *offs.last().unwrap();
        // Exact first and last entry addresses resolve.
        assert_eq!(
            f.runtime.id_at_address(base + first_off),
            PackedId::pack(oid, first_fid).ok()
        );
        assert_eq!(
            f.runtime.id_at_address(base + last_off),
            PackedId::pack(oid, last_fid).ok()
        );
        // One byte off either boundary does not (unless it happens to
        // be another object's entry — impossible here: bases are
        // disjoint and sleds start above the object base).
        assert_eq!(f.runtime.id_at_address(base + first_off + 1), None);
        if first_off > 0 {
            assert_eq!(f.runtime.id_at_address(base + first_off - 1), None);
        }
    }
    // Below every object base.
    let min_base = f
        .process
        .object(0)
        .unwrap()
        .base
        .min(f.process.object(1).unwrap().base);
    assert_eq!(f.runtime.id_at_address(min_base.saturating_sub(1)), None);
    // Way past everything.
    assert_eq!(f.runtime.id_at_address(u64::MAX), None);
}

#[test]
fn snapshot_reflects_patch_state_and_generation() {
    let (mut f, main_id, _) = registered();
    let snap0 = f.runtime.snapshot();
    let id = PackedId::pack(main_id, 0).unwrap();
    patch(&mut f, id);
    let snap1 = f.runtime.snapshot();
    assert!(snap1.generation > snap0.generation);
    let entry = f.main_inst.sleds.by_fid(0).unwrap();
    let (packed, patched) = snap1.lookup(0, entry.func_index).unwrap();
    assert_eq!(packed, id);
    assert!(patched);
    let (_, was_patched) = snap0.lookup(0, entry.func_index).unwrap();
    assert!(!was_patched);
}

#[test]
fn repatch_applies_batch_with_one_mprotect_pair_per_object() {
    let (mut f, main_id, dso_id) = registered();
    let m0 = PackedId::pack(main_id, 0).unwrap();
    let m1 = PackedId::pack(main_id, 1).unwrap();
    let d0 = PackedId::pack(dso_id, 0).unwrap();
    f.runtime
        .patch_functions(&mut f.process.memory, main_id, &[1])
        .unwrap();
    let before = f.process.memory.stats.mprotect_calls;
    let rep = f
        .runtime
        .repatch(
            &mut f.process.memory,
            &PatchDelta {
                patch: vec![m0, d0],
                unpatch: vec![m1],
                ..PatchDelta::default()
            },
        )
        .unwrap();
    // Two objects touched → two mprotect pairs.
    assert_eq!(rep.mprotect_pairs, 2);
    assert_eq!(f.process.memory.stats.mprotect_calls - before, 4);
    assert!(rep.sleds_patched >= 4); // m0 + d0, entry+exit each
    assert!(rep.sleds_unpatched >= 2);
    assert!(f.runtime.is_patched(m0));
    assert!(f.runtime.is_patched(d0));
    assert!(!f.runtime.is_patched(m1));
    assert_eq!(f.runtime.stats().repatches, 1);
    assert_eq!(f.runtime.patched_ids(), vec![m0, d0]);
}

#[test]
fn repatch_conflicting_entries_unpatch_wins() {
    let (mut f, main_id, _) = registered();
    let id = PackedId::pack(main_id, 0).unwrap();
    // Unpatched function listed in both directions: stays unpatched.
    let rep = f
        .runtime
        .repatch(
            &mut f.process.memory,
            &PatchDelta {
                patch: vec![id],
                unpatch: vec![id],
                ..PatchDelta::default()
            },
        )
        .unwrap();
    assert!(!f.runtime.is_patched(id));
    assert_eq!(rep.sleds_patched, 0);
    // Patched function in both directions: ends unpatched too.
    patch(&mut f, id);
    f.runtime
        .repatch(
            &mut f.process.memory,
            &PatchDelta {
                patch: vec![id, id], // duplicates applied once
                unpatch: vec![id],
                ..PatchDelta::default()
            },
        )
        .unwrap();
    assert!(!f.runtime.is_patched(id));
}

#[test]
fn patch_functions_validates_before_mutating() {
    let (mut f, main_id, _) = registered();
    let good = PackedId::pack(main_id, 0).unwrap();
    let writes_before = f.runtime.stats().sled_writes;
    let err = f
        .runtime
        .patch_functions(&mut f.process.memory, main_id, &[0, 9_999])
        .unwrap_err();
    assert!(matches!(err, XRayError::UnknownFunction(_)));
    // Nothing was applied: no patch flag, no sled writes, and the
    // published table still agrees with the inner state.
    assert!(!f.runtime.is_patched(good));
    assert_eq!(f.runtime.stats().sled_writes, writes_before);
    assert_eq!(f.runtime.patched_ids(), Vec::new());
}

#[test]
fn repatch_validates_before_mutating() {
    let (mut f, main_id, _) = registered();
    let good = PackedId::pack(main_id, 0).unwrap();
    let bogus = PackedId::pack(main_id, 9_999).unwrap();
    let err = f
        .runtime
        .repatch(
            &mut f.process.memory,
            &PatchDelta {
                patch: vec![good, bogus],
                unpatch: vec![],
                ..PatchDelta::default()
            },
        )
        .unwrap_err();
    assert!(matches!(err, XRayError::UnknownFunction(_)));
    // Nothing was applied.
    assert!(!f.runtime.is_patched(good));
}

#[test]
fn repatch_surviving_skips_deregistered_object_and_applies_rest() {
    let (mut f, main_id, dso_id) = registered();
    let m0 = PackedId::pack(main_id, 0).unwrap();
    let d0 = PackedId::pack(dso_id, 0).unwrap();
    let bogus_fn = PackedId::pack(main_id, 9_999).unwrap();
    // The object vanishes between the decision and the repatch.
    f.runtime.deregister(dso_id).unwrap();
    let rep = f
        .runtime
        .repatch_surviving(
            &mut f.process.memory,
            &PatchDelta {
                patch: vec![m0, d0],
                unpatch: vec![bogus_fn],
                set_rate: vec![(d0, 4)],
            },
        )
        .unwrap();
    // The surviving entry applied; the stale ones were counted, not
    // fatal — and never written through the vacated slot.
    assert!(f.runtime.is_patched(m0));
    assert_eq!(rep.skipped_objects, 1);
    assert_eq!(rep.skipped_entries, 3); // d0 patch + bogus fn + d0 rate
                                        // The strict path still fails the same delta typed.
    assert!(matches!(
        f.runtime.repatch(
            &mut f.process.memory,
            &PatchDelta {
                patch: vec![d0],
                ..PatchDelta::default()
            }
        ),
        Err(XRayError::UnknownObject(_))
    ));
}

#[test]
fn unpatch_after_snapshot_is_tolerated_never_patched_faults() {
    let (mut f, main_id, _) = registered();
    let id = PackedId::pack(main_id, 0).unwrap();
    let never = PackedId::pack(main_id, 1).unwrap();
    patch(&mut f, id);
    let snap_gen = f.runtime.snapshot().generation;
    f.runtime
        .repatch(
            &mut f.process.memory,
            &PatchDelta {
                patch: vec![],
                unpatch: vec![id],
                ..PatchDelta::default()
            },
        )
        .unwrap();
    // A dispatch working from the pre-repatch snapshot is tolerated.
    assert!(f
        .runtime
        .dispatch_from_snapshot(id, EventKind::Entry, 0, 0, snap_gen)
        .is_ok());
    assert_eq!(f.runtime.stats().stale_dispatches, 1);
    // A never-patched sled still faults from the same snapshot.
    assert!(matches!(
        f.runtime
            .dispatch_from_snapshot(never, EventKind::Entry, 0, 0, snap_gen),
        Err(XRayError::NotPatched(_))
    ));
    // And from the *current* generation the unpatched sled faults.
    assert!(matches!(
        f.runtime.dispatch(id, EventKind::Entry, 0, 0),
        Err(XRayError::NotPatched(_))
    ));
}

#[test]
fn set_rate_samples_deterministically_and_counts_skips() {
    let (mut f, main_id, _) = registered();
    let id = PackedId::pack(main_id, 0).unwrap();
    patch(&mut f, id);
    f.runtime.set_handler(Arc::new(crate::handler::NullHandler));
    let before = f.process.memory.stats.mprotect_calls;
    let rep = f
        .runtime
        .repatch(
            &mut f.process.memory,
            &PatchDelta {
                set_rate: vec![(id, 4)],
                ..PatchDelta::default()
            },
        )
        .unwrap();
    // Rate-only deltas rewrite no sleds and flip no pages.
    assert_eq!(rep.rates_set, 1);
    assert_eq!(rep.mprotect_pairs, 0);
    assert_eq!(f.process.memory.stats.mprotect_calls, before);
    assert_eq!(f.runtime.sample_rate(id), 4);
    let generation = f.runtime.generation();
    let mut delivered = 0;
    for seq in 0..8u64 {
        let r = f
            .runtime
            .dispatch_sampled_from_snapshot(id, EventKind::Entry, seq, 0, generation, seq)
            .unwrap();
        if r.is_some() {
            delivered += 1;
        }
    }
    assert_eq!(delivered, 2); // seq 0 and 4
    assert_eq!(f.runtime.stats().sampled_skips, 6);
    assert_eq!(f.runtime.stats().dispatches, 2);
}

#[test]
fn rate_one_sampled_dispatch_matches_full_dispatch() {
    let (mut f, main_id, _) = registered();
    let id = PackedId::pack(main_id, 0).unwrap();
    patch(&mut f, id);
    let log = Arc::new(ShardedLog::new(1));
    f.runtime.set_handler(log.clone());
    let generation = f.runtime.generation();
    for seq in 0..5u64 {
        let r = f
            .runtime
            .dispatch_sampled_from_snapshot(id, EventKind::Entry, seq, 0, generation, seq)
            .unwrap();
        assert!(r.is_some(), "rate 1 delivers every event");
    }
    assert_eq!(log.events().len(), 5);
    assert_eq!(f.runtime.stats().sampled_skips, 0);
}

#[test]
fn repatching_a_function_resets_its_rate_to_one() {
    let (mut f, main_id, _) = registered();
    let id = PackedId::pack(main_id, 0).unwrap();
    patch(&mut f, id);
    f.runtime
        .repatch(
            &mut f.process.memory,
            &PatchDelta {
                set_rate: vec![(id, 8)],
                ..PatchDelta::default()
            },
        )
        .unwrap();
    assert_eq!(f.runtime.sample_rate(id), 8);
    // Unpatch, then re-patch: the function comes back at full rate.
    unpatch(&mut f, id);
    patch(&mut f, id);
    assert_eq!(f.runtime.sample_rate(id), 1);
    // A delta that both patches and sets a rate ends sampled.
    unpatch(&mut f, id);
    f.runtime
        .repatch(
            &mut f.process.memory,
            &PatchDelta {
                patch: vec![id],
                set_rate: vec![(id, 3)],
                ..PatchDelta::default()
            },
        )
        .unwrap();
    assert!(f.runtime.is_patched(id));
    assert_eq!(f.runtime.sample_rate(id), 3);
    // Rates are clamped to ≥ 1 and visible in snapshots.
    f.runtime
        .repatch(
            &mut f.process.memory,
            &PatchDelta {
                set_rate: vec![(id, 0)],
                ..PatchDelta::default()
            },
        )
        .unwrap();
    assert_eq!(f.runtime.sample_rate(id), 1);
    let entry = f.main_inst.sleds.by_fid(0).unwrap();
    assert_eq!(f.runtime.snapshot().sample_rate(0, entry.func_index), 1);
}

#[test]
fn set_rate_validates_ids_like_patching() {
    let (mut f, main_id, _) = registered();
    let bogus = PackedId::pack(main_id, 9_999).unwrap();
    let err = f
        .runtime
        .repatch(
            &mut f.process.memory,
            &PatchDelta {
                set_rate: vec![(bogus, 2)],
                ..PatchDelta::default()
            },
        )
        .unwrap_err();
    assert!(matches!(err, XRayError::UnknownFunction(_)));
}

#[test]
fn stats_accumulate() {
    let (mut f, main_id, _) = registered();
    let id = PackedId::pack(main_id, 0).unwrap();
    patch(&mut f, id);
    f.runtime.set_handler(Arc::new(crate::handler::NullHandler));
    f.runtime.dispatch(id, EventKind::Entry, 0, 0).unwrap();
    let s = f.runtime.stats();
    assert_eq!(s.objects_registered, 2);
    assert!(s.sled_writes >= 2);
    assert_eq!(s.dispatches, 1);
}

#[test]
fn deregistering_the_main_executable_is_refused_and_changes_nothing() {
    let (f, main_id, dso_id) = registered();
    let generation = f.runtime.generation();
    assert_eq!(
        f.runtime.deregister(main_id),
        Err(XRayError::MainIsPermanent)
    );
    assert_eq!(f.runtime.generation(), generation);
    assert_eq!(f.runtime.stats().objects_registered, 2);
    assert!(f
        .runtime
        .function_address(PackedId::pack(main_id, 0).unwrap())
        .is_some());
    // The registry still works: a vacated DSO slot is found again.
    f.runtime.deregister(dso_id).unwrap();
    let again = f
        .runtime
        .register_dso(
            f.dso_inst.clone(),
            f.process.object(1).unwrap(),
            1,
            TrampolineSet::pic(),
        )
        .unwrap();
    assert_eq!(again, dso_id);
}

#[test]
fn a_faulted_batch_reports_the_part_it_applied() {
    let (mut f, main_id, dso_id) = registered();
    let m0 = PackedId::pack(main_id, 0).unwrap();
    let d0 = PackedId::pack(dso_id, 0).unwrap();
    let generation = f.runtime.generation();
    // Object 0's pair succeeds; the fault hits object 1's first flip.
    let at = f.process.memory.stats.mprotect_calls + 2;
    f.process.memory.schedule_mprotect_fault(at);
    let err = f
        .runtime
        .repatch(
            &mut f.process.memory,
            &PatchDelta {
                patch: vec![m0, d0],
                ..PatchDelta::default()
            },
        )
        .unwrap_err();
    let XRayError::Mem { applied, error } = err else {
        panic!("expected a memory fault, got {err:?}");
    };
    assert_eq!(error, MemError::InjectedFault { index: at });
    assert_eq!(applied.mprotect_pairs, 1);
    let m0_sleds = f.main_inst.sleds.by_fid(0).unwrap().sled_count() as u64;
    assert_eq!(applied.sleds_patched, m0_sleds);
    assert_eq!(applied.sleds_unpatched, 0);
    assert_eq!(applied.generation, generation + 1);
    // What readers see agrees with what the report says was written.
    assert!(f.runtime.is_patched(m0));
    assert!(!f.runtime.is_patched(d0));
    assert_eq!(f.runtime.generation(), applied.generation);
    assert_eq!(f.runtime.stats().sled_writes, m0_sleds);
    assert_eq!(f.runtime.patched_ids(), vec![m0]);
}

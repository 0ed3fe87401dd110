//! Cross-crate property tests on randomly generated programs: the
//! invariants that must hold for *any* well-formed input, not just the
//! curated workloads.

use capi_appmodel::{LinkTarget, ProgramBuilder, SourceProgram};
use capi_metacg::{local_callgraph, merge, whole_program_callgraph};
use capi_objmodel::{compile, CompileOptions, Process};
use capi_xray::{instrument_object, PackedId, PassOptions, PatchDelta, TrampolineSet, XRayRuntime};
use proptest::prelude::*;

/// Strategy: a random acyclic program with `n` functions in up to three
/// objects. Function `i` may call only functions with larger indices
/// (acyclicity by construction); attributes vary.
fn arb_program(max_n: usize) -> impl Strategy<Value = SourceProgram> {
    (2..max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = seed;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as u32
        };
        let mut b = ProgramBuilder::new("prop");
        b.unit("main.cc", LinkTarget::Executable);
        {
            let mut f = b.function("main").main().statements(30).instructions(300);
            for j in 1..n {
                if next() % 3 == 0 {
                    f = f.calls(&format!("f{j}"), (next() % 4 + 1) as u64);
                }
            }
            f.finish();
        }
        for i in 1..n {
            if i == n / 2 {
                b.unit("lib.cc", LinkTarget::Dso("libgen.so".into()));
            }
            let stmts = next() % 60 + 1;
            let mut f = b
                .function(&format!("f{i}"))
                .statements(stmts)
                .instructions(next() % 600 + 10)
                .flops(next() % 40)
                .loop_depth(next() % 3)
                .cost((next() % 500) as u64);
            if next() % 5 == 0 {
                f = f.inline_keyword();
            }
            for j in (i + 1)..n {
                if next() % 4 == 0 {
                    f = f.calls(&format!("f{j}"), (next() % 3 + 1) as u64);
                }
            }
            f.finish();
        }
        b.build().expect("generated programs are well-formed")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whole-program CG == pairwise merge of TU-local CGs, regardless of
    /// merge order (MetaCG's merge is order-insensitive up to renumbering).
    #[test]
    fn merge_order_insensitive(p in arb_program(24)) {
        let forward = whole_program_callgraph(&p);
        let mut backward = capi_metacg::CallGraph::new();
        for unit in p.units.iter().rev() {
            backward = merge(backward, &local_callgraph(&p, unit));
        }
        prop_assert_eq!(forward.len(), backward.len());
        prop_assert_eq!(forward.num_edges(), backward.num_edges());
        for id in forward.ids() {
            let n = forward.node(id);
            let other = backward.node_id(&n.name).expect("same node set");
            prop_assert_eq!(backward.node(other).has_body, n.has_body);
        }
    }

    /// Compilation preserves behaviour mass: every function either keeps a
    /// symbol or is recorded as inlined inside some surviving function.
    #[test]
    fn compilation_accounts_for_every_function(p in arb_program(24)) {
        let bin = compile(&p, &CompileOptions::o2()).unwrap();
        let mut inlined_somewhere: std::collections::HashSet<&str> =
            std::collections::HashSet::new();
        for o in bin.objects() {
            for f in &o.functions {
                for i in &f.inlined {
                    inlined_somewhere.insert(i);
                }
            }
        }
        let names = bin.symbol_names();
        for f in p.iter_functions() {
            let name = p.interner.resolve(f.name);
            prop_assert!(
                bin.has_symbol(name) || inlined_somewhere.contains(name),
                "{name} vanished without trace"
            );
            prop_assert_eq!(names.contains(name), bin.has_symbol(name), "{}", name);
        }
    }

    /// Patch → unpatch is an involution: runtime state returns to fully
    /// dormant and a second cycle patches the same sled count.
    #[test]
    fn patch_unpatch_involution(p in arb_program(16)) {
        let bin = compile(&p, &CompileOptions::o2()).unwrap();
        let mut process = Process::launch_binary(&bin).unwrap();
        let runtime = XRayRuntime::new();
        let inst = instrument_object(
            process.object(0).unwrap().image.clone(),
            &PassOptions::instrument_all(),
        );
        runtime
            .register_main(inst, process.object(0).unwrap(), TrampolineSet::absolute())
            .unwrap();
        let first = runtime.patch_all(&mut process.memory, 0).unwrap();
        prop_assert_eq!(runtime.patched_functions() > 0, first > 0);
        // `__xray_unpatch` as a delta: unpatch everything that is patched.
        let everything = PatchDelta {
            unpatch: runtime.patched_ids(),
            ..PatchDelta::default()
        };
        let removed = runtime.repatch(&mut process.memory, &everything).unwrap();
        prop_assert_eq!(u64::from(first), removed.sleds_unpatched);
        prop_assert_eq!(runtime.patched_functions(), 0);
        let second = runtime.patch_all(&mut process.memory, 0).unwrap();
        prop_assert_eq!(first, second);
    }

    /// The executor's event count equals exactly 2 × (dynamic invocations
    /// of patched functions): every entry has an exit.
    #[test]
    fn events_are_balanced_pairs(p in arb_program(12)) {
        use capi_dyncapi::{startup, DynCapiConfig};
        let bin = compile(&p, &CompileOptions::o2()).unwrap();
        let session = startup(&bin, DynCapiConfig {
            ranks: 2,
            ..Default::default()
        }).unwrap();
        let out = session.run().unwrap();
        prop_assert_eq!(out.run.events % 2, 0, "entry/exit pairing");
    }

    /// Packed IDs round-trip through every IC serialization format.
    #[test]
    fn ic_ids_roundtrip(ids in proptest::collection::vec(0u32..u32::MAX, 0..8)) {
        let mut ic = capi::InstrumentationConfig::from_names(["a", "b"]);
        ic.set_packed_ids(ids.clone());
        let back = capi::InstrumentationConfig::from_json(&ic.to_json()).unwrap();
        prop_assert_eq!(back.packed_ids(), &ids[..]);
    }

    /// Packed-ID object/function split is lossless for all valid pairs.
    #[test]
    fn packed_id_split(obj in 0u8..=255, fid in 0u32..(1 << 24)) {
        let id = PackedId::pack(obj, fid).unwrap();
        prop_assert_eq!((id.object(), id.function()), (obj, fid));
    }
}

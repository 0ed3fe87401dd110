//! The sharded event sink under concurrency: zero lost events while the
//! controller repatches mid-run, byte-identical merged logs across
//! seeded runs, and the merge-order equivalence property against the
//! arrival order — for both retentions (keep everything, per-rank ring).

use capi::{dynamic_session, Workflow};
use capi_dyncapi::ToolChoice;
use capi_exec::{Engine, OverheadModel};
use capi_mpisim::{CostModel, World};
use capi_objmodel::CompileOptions;
use capi_workloads::quickstart_app;
use capi_xray::{Event, EventKind, Handler, PackedId, PatchDelta, ShardedLog};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One full instrumented run with all ranks dispatching into a
/// [`ShardedLog`] while a controller thread patches and unpatches the
/// hot sleds the whole time. Returns the engine's event count and the
/// merged trace.
fn disturbed_run() -> (u64, Vec<Event>) {
    let program = quickstart_app(60);
    let wf = Workflow::analyze(program, CompileOptions::o2()).unwrap();
    let ic = wf
        .select_ic(r#"byName("^(stencil_kernel|compute_residual|time_step)$", %%)"#)
        .unwrap()
        .ic;
    let ranks = 4;
    let mut session = dynamic_session(&wf.binary, &ic, ToolChoice::None, ranks).unwrap();
    let runtime = session.runtime.clone();
    let toggled = runtime.patched_ids();
    assert!(toggled.len() >= 2, "need sleds to toggle");
    let sink = Arc::new(ShardedLog::new(ranks));
    runtime.set_handler(sink.clone());

    let engine = Engine::prepare(&session.process, &runtime, OverheadModel::default()).unwrap();
    let stop = AtomicBool::new(false);
    let (report, batches) = std::thread::scope(|scope| {
        let toggler = scope.spawn(|| {
            let mem = &mut session.process.memory;
            let unpatch = PatchDelta {
                patch: Vec::new(),
                unpatch: toggled.clone(),
                ..PatchDelta::default()
            };
            let patch = PatchDelta {
                patch: toggled.clone(),
                unpatch: Vec::new(),
                ..PatchDelta::default()
            };
            let mut batches = 0u64;
            while !stop.load(Ordering::Relaxed) {
                runtime.repatch(mem, &unpatch).unwrap();
                runtime.repatch(mem, &patch).unwrap();
                batches += 2;
            }
            batches
        });
        let r = engine
            .run(&World::new(ranks, CostModel::default()))
            .unwrap();
        stop.store(true, Ordering::Relaxed);
        (r, toggler.join().unwrap())
    });
    assert!(batches > 0, "the toggler actually ran");
    assert!(report.events > 0);
    (report.events, sink.events())
}

/// All ranks dispatch concurrently while the controller repatches the
/// very sleds they execute: the sharded sink loses nothing (engine event
/// count == merged trace length) and two seeded runs produce
/// byte-identical merged logs despite arbitrary thread interleavings —
/// the determinism guarantee in-flight adaptation relies on.
#[test]
fn concurrent_repatch_sharded_sink_no_lost_events_deterministic_merge() {
    let (events_a, log_a) = disturbed_run();
    let (events_b, log_b) = disturbed_run();
    assert_eq!(events_a as usize, log_a.len(), "zero lost events");
    assert_eq!(events_b as usize, log_b.len(), "zero lost events");
    assert_eq!(log_a, log_b, "merged logs byte-identical across runs");
    // The merge respects the (rank, sequence) order: ranks appear in
    // non-decreasing order.
    assert!(log_a.windows(2).all(|w| w[0].rank <= w[1].rank));
}

/// Ring retention (FDR mode) retains per rank and merges just as
/// deterministically under the same disturbance.
#[test]
fn concurrent_repatch_sharded_fdr_deterministic() {
    let run = || {
        let program = quickstart_app(40);
        let wf = Workflow::analyze(program, CompileOptions::o2()).unwrap();
        let ic = wf
            .select_ic(r#"byName("^(stencil_kernel|time_step)$", %%)"#)
            .unwrap()
            .ic;
        let ranks = 2;
        let mut session = dynamic_session(&wf.binary, &ic, ToolChoice::None, ranks).unwrap();
        let runtime = session.runtime.clone();
        let toggled = runtime.patched_ids();
        let sink = Arc::new(ShardedLog::ring(ranks, 256));
        runtime.set_handler(sink.clone());
        let engine = Engine::prepare(&session.process, &runtime, OverheadModel::default()).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let toggler = scope.spawn(|| {
                let mem = &mut session.process.memory;
                while !stop.load(Ordering::Relaxed) {
                    runtime
                        .repatch(
                            mem,
                            &PatchDelta {
                                patch: Vec::new(),
                                unpatch: toggled.clone(),
                                ..PatchDelta::default()
                            },
                        )
                        .unwrap();
                    runtime
                        .repatch(
                            mem,
                            &PatchDelta {
                                patch: toggled.clone(),
                                unpatch: Vec::new(),
                                ..PatchDelta::default()
                            },
                        )
                        .unwrap();
                }
            });
            let r = engine
                .run(&World::new(ranks, CostModel::default()))
                .unwrap();
            stop.store(true, Ordering::Relaxed);
            toggler.join().unwrap();
            r
        });
        (sink.total_written(), sink.events())
    };
    let (written_a, evs_a) = run();
    let (written_b, evs_b) = run();
    assert!(written_a > 0);
    assert_eq!(written_a, written_b);
    assert_eq!(evs_a, evs_b, "retained FDR records identical across runs");
}

fn event_for(rank: u32, fid: u32, step: u64) -> Event {
    Event {
        id: PackedId::pack(0, fid).unwrap(),
        kind: if step.is_multiple_of(2) {
            EventKind::Entry
        } else {
            EventKind::Exit
        },
        tsc: step,
        rank,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For ANY arrival interleaving, the sharded merge equals the
    /// arrival order stably re-sorted by rank — i.e. sharding changes
    /// *where* events are buffered, never *which* events exist or their
    /// per-rank order.
    #[test]
    fn sharded_merge_equals_rank_stable_mutex_order(
        ranks in 1u32..6,
        arrivals in proptest::collection::vec(any::<u16>(), 0..300),
    ) {
        let sharded = ShardedLog::new(ranks);
        let mut expected: Vec<Event> = Vec::new();
        for (step, &draw) in arrivals.iter().enumerate() {
            let rank = u32::from(draw) % ranks;
            let fid = u32::from(draw >> 8);
            let ev = event_for(rank, fid, step as u64);
            sharded.on_event(ev);
            expected.push(ev);
        }
        // Stable sort: per-rank relative (sequence) order is preserved.
        expected.sort_by_key(|e| e.rank);
        prop_assert_eq!(sharded.events(), expected);
        prop_assert_eq!(sharded.len(), arrivals.len());
    }

    /// Ring retention equals per-rank tails of the same streams: each
    /// rank retains its newest `cap` events independently of how chatty
    /// the other ranks were.
    #[test]
    fn sharded_fdr_equals_per_rank_tails(
        ranks in 1u32..5,
        cap in 1usize..8,
        arrivals in proptest::collection::vec(any::<u16>(), 0..200),
    ) {
        let fdr = ShardedLog::ring(ranks, cap);
        let mut per_rank: Vec<Vec<Event>> = vec![Vec::new(); ranks as usize];
        for (step, &draw) in arrivals.iter().enumerate() {
            let rank = u32::from(draw) % ranks;
            let ev = event_for(rank, u32::from(draw >> 8), step as u64);
            fdr.on_event(ev);
            per_rank[rank as usize].push(ev);
        }
        let expected: Vec<Event> = per_rank
            .iter()
            .flat_map(|evs| evs.iter().skip(evs.len().saturating_sub(cap)).copied())
            .collect();
        prop_assert_eq!(fdr.len(), expected.len());
        prop_assert_eq!(fdr.events(), expected);
        prop_assert_eq!(fdr.total_written(), arrivals.len() as u64);
    }
}

//! Criterion bench: the per-event dispatch fast path.
//!
//! Measures the cost that matters for the paper's overhead claim — one
//! instrumentation event traversing sled → runtime → handler — plus the
//! multi-rank shapes the wait-free dispatch table exists for:
//!
//! * `single-thread-null`: the bare fast path (atomic load + two array
//!   indexes), no handler work.
//! * `single-thread-sharded-log`: the fast path plus a sharded-sink
//!   append.
//! * `ranks-{1,2,4,8}-sharded`: aggregate throughput with N rank
//!   threads dispatching concurrently — the sweep that used to
//!   flat-line on the runtime's global `RwLock` and the single log
//!   mutex.
//! * `ranks-{1,2}-scorep-adapter`, `ranks-{1,2}-talp-adapter`: the fast
//!   path into a measurement tool — dense ID table, one per-rank lock,
//!   call-path profile or region accounting: the per-event tool cost
//!   the paper's Table II is about, beside the bare-dispatch rows.
//! * `snapshot-512-funcs`: cost of deriving a `PatchSnapshot` from the
//!   published table (the executor pays this once per `prepare`).

use capi_bench::{dispatch_fixture, dispatch_round_robin, DispatchFixture};
use capi_dyncapi::{ScorepAdapter, TalpAdapter};
use capi_mpisim::PmpiHook;
use capi_scorep::{ScorepConfig, ScorepRuntime};
use capi_talp::{Talp, TalpConfig};
use capi_xray::{EventKind, Handler, PackedId, ShardedLog, XRayRuntime};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;

/// Balanced enter/exit pairs over `ids`: what a tool adapter expects
/// (`dispatch_round_robin` never closes what it opens, which a profile
/// would answer with an ever-deeper call path).
fn dispatch_pairs(runtime: &XRayRuntime, ids: &[PackedId], rank: u32, events: u64) -> u64 {
    for i in 0..events / 2 {
        let id = ids[(i % ids.len() as u64) as usize];
        for (kind, tsc) in [(EventKind::Entry, 2 * i), (EventKind::Exit, 2 * i + 1)] {
            runtime
                .dispatch(id, kind, tsc, rank)
                .expect("patched id dispatches");
        }
    }
    events / 2 * 2
}

/// Runs `per_rank` on `ranks` concurrent rank threads and sums what they
/// dispatched.
fn on_rank_threads(ranks: u32, per_rank: impl Fn(u32) -> u64 + Sync) -> u64 {
    let per_rank = &per_rank;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| scope.spawn(move || per_rank(rank)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

fn scorep_adapter(fixture: &DispatchFixture, ids: &[PackedId], ranks: u32) -> Arc<dyn Handler> {
    let scorep = ScorepRuntime::new(ranks, &fixture.process, ScorepConfig::default());
    Arc::new(ScorepAdapter::new(Arc::new(scorep), &fixture.runtime, ids))
}

fn talp_adapter(_: &DispatchFixture, ids: &[PackedId], ranks: u32) -> Arc<dyn Handler> {
    let talp = Arc::new(Talp::new(ranks, TalpConfig::default()));
    for rank in 0..ranks {
        talp.on_init(rank, 0);
    }
    let names = (ids.iter())
        .map(|&id| (id, format!("hot{}", id.function())))
        .collect();
    Arc::new(TalpAdapter::new(talp, names))
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    group.sample_size(10);

    // Bare fast path: no handler installed.
    {
        let mut fixture = dispatch_fixture(512);
        let ids = fixture.patch_fraction(1.0);
        group.bench_function("single-thread-null", |b| {
            b.iter(|| dispatch_round_robin(black_box(&fixture.runtime), &ids, 0, 10_000))
        });
    }

    // Fast path into a sharded sink.
    {
        let mut fixture = dispatch_fixture(512);
        let ids = fixture.patch_fraction(1.0);
        fixture.runtime.set_handler(Arc::new(ShardedLog::new(1)));
        group.bench_function("single-thread-sharded-log", |b| {
            b.iter(|| dispatch_round_robin(black_box(&fixture.runtime), &ids, 0, 10_000))
        });
    }

    // Concurrent ranks: aggregate events stay fixed, threads vary. On a
    // multi-core host wall time should *fall* (or at worst stay flat)
    // as ranks rise; with the old global read lock it rose instead.
    for ranks in [1u32, 2, 4, 8] {
        let mut fixture = dispatch_fixture(512);
        let ids = fixture.patch_fraction(1.0);
        fixture
            .runtime
            .set_handler(Arc::new(ShardedLog::new(ranks)));
        let total_events = 40_000u64;
        let per_rank = total_events / ranks as u64;
        group.bench_function(format!("ranks-{ranks}-sharded"), |b| {
            b.iter(|| {
                on_rank_threads(ranks, |rank| {
                    dispatch_round_robin(&fixture.runtime, &ids, rank, per_rank)
                })
            })
        });
    }

    // Into a measurement tool: same aggregate event count as the
    // sharded sweep above, over a kernel's worth of functions (a profile
    // node scans its children, and 512 siblings under the root would
    // measure that scan instead of the adapter).
    type MakeAdapter = fn(&DispatchFixture, &[PackedId], u32) -> Arc<dyn Handler>;
    let tools: [(&str, MakeAdapter); 2] = [("scorep", scorep_adapter), ("talp", talp_adapter)];
    for (tool, make) in tools {
        for ranks in [1u32, 2] {
            let mut fixture = dispatch_fixture(512);
            let ids = fixture.patch_fraction(1.0 / 16.0);
            fixture.runtime.set_handler(make(&fixture, &ids, ranks));
            let per_rank = 40_000u64 / ranks as u64;
            group.bench_function(format!("ranks-{ranks}-{tool}-adapter"), |b| {
                b.iter(|| {
                    on_rank_threads(ranks, |rank| {
                        dispatch_pairs(&fixture.runtime, &ids, rank, per_rank)
                    })
                })
            });
        }
    }

    // Snapshot derivation from the published table.
    {
        let mut fixture = dispatch_fixture(512);
        let _ = fixture.patch_fraction(0.5);
        group.bench_function("snapshot-512-funcs", |b| {
            b.iter(|| fixture.runtime.snapshot().by_process_index.len())
        });
    }

    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);

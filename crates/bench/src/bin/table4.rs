//! Generates **Table IV — dispatch fast-path scaling** (new workload
//! beyond the paper), in two sections:
//!
//! * **Throughput sweep**: rank threads hammer the XRay event hot path
//!   concurrently while the table sweeps rank count × patched fraction,
//!   reporting aggregate events/second. The high-rank rows (32, 128)
//!   run each thread on its own dynamically claimed reader slot — past
//!   the old 64-stripe cap, where folded ranks used to contend.
//! * **Repatch latency vs loaded objects**: with K fully patched DSOs
//!   loaded, a single-object repatch is timed. Per-object copy-on-write
//!   table publication rebuilds only the touched `ObjectDispatch`
//!   entry and shares the other K-1 as `Arc`s, so the latency should
//!   stay flat as K grows (a full-rebuild publisher would scale
//!   linearly in K).
//!
//! Results are also written to `BENCH_dispatch.json` so successive PRs
//! can diff throughput and repatch latency.
//!
//! Environment: `CAPI_DISPATCH_EVENTS` (events per rank at the 8-rank
//! baseline, default 200,000 — high-rank rows divide it so aggregate
//! work stays bounded), `CAPI_DISPATCH_FUNCS` (instrumented functions,
//! default 512), `CAPI_DISPATCH_RANKS` (comma-separated rank rows,
//! default `1,2,4,8,32,128`), `CAPI_REPATCH_REPS` (repatches per
//! loaded-object count, default 200), `CAPI_DISPATCH_OUT` (output path,
//! default `BENCH_dispatch.json`).

use capi_bench::report::{out_path_from_env, write_report};
use capi_bench::{
    dispatch_events_from_env, dispatch_fixture, dispatch_funcs_from_env, dispatch_ranks_from_env,
    dispatch_round_robin, repatch_fixture, repatch_reps_from_env,
};
use capi_xray::{PatchDelta, ShardedLog};
use serde_json::{json, Value};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let events_per_rank = dispatch_events_from_env();
    let funcs = dispatch_funcs_from_env();
    let rank_counts = dispatch_ranks_from_env();
    let repatch_reps = repatch_reps_from_env();
    let out_path = out_path_from_env("CAPI_DISPATCH_OUT", "BENCH_dispatch.json");

    println!("TABLE IV — DISPATCH FAST-PATH SCALING\n");
    println!(
        "{funcs} instrumented functions | {events_per_rank} events/rank @ 8 ranks | sink: sharded log\n"
    );
    println!("ranks  patched%  patched  events      wall(ms)  events/sec");

    let fractions = [0.1f64, 0.5, 1.0];
    let mut rows: Vec<Value> = Vec::new();

    // One fixture for the whole sweep; each fraction re-patches from a
    // clean slate.
    let mut fixture = dispatch_fixture(funcs);
    for &fraction in &fractions {
        fixture.clear_patches();
        let patched = fixture.patch_fraction(fraction);
        for &ranks in &rank_counts {
            // Keep aggregate work bounded on high-rank rows: the sweep
            // measures aggregate throughput, so the per-rank share can
            // shrink as ranks grow past the 8-rank baseline.
            let per_rank = if ranks <= 8 {
                events_per_rank
            } else {
                (events_per_rank * 8 / u64::from(ranks)).max(1_000)
            };
            let sink = Arc::new(ShardedLog::new(ranks));
            fixture.runtime.set_handler(sink.clone());
            let runtime = &fixture.runtime;
            let ids = &patched[..];
            let start = Instant::now();
            let total: u64 = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..ranks)
                    .map(|rank| {
                        scope.spawn(move || dispatch_round_robin(runtime, ids, rank, per_rank))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            let elapsed = start.elapsed();
            assert_eq!(total, per_rank * u64::from(ranks), "no lost dispatches");
            assert_eq!(sink.len() as u64, total, "sink saw every event");
            let elapsed_ns = elapsed.as_nanos().max(1) as u64;
            let events_per_sec = total as f64 * 1e9 / elapsed_ns as f64;
            println!(
                "{ranks:>5}  {:>7.0}%  {:>7}  {total:>10}  {:>8.2}  {events_per_sec:>10.0}",
                fraction * 100.0,
                patched.len(),
                elapsed_ns as f64 / 1e6,
            );
            rows.push(json!({
                "ranks": ranks,
                "patched_fraction": fraction,
                "patched_functions": patched.len(),
                "events": total,
                "elapsed_ns": elapsed_ns,
                "events_per_sec": events_per_sec,
            }));
            fixture.runtime.clear_handler();
        }
    }

    // ---- Section 2: repatch latency vs loaded objects -----------------
    println!("\nREPATCH LATENCY vs LOADED OBJECTS (COW publish)\n");
    println!("objects  reps  median(us)  mean(us)  vs-4-objects");
    let object_counts = [4usize, 8, 16, 32, 64];
    let mut repatch_rows: Vec<Value> = Vec::new();
    let mut baseline_median_ns = 0u64;
    for &k in &object_counts {
        let mut fx = repatch_fixture(k, 8);
        // Repeatedly toggle one function in the middle DSO: each
        // repatch publishes a table touching exactly one object.
        let target = fx.dso_ids[k / 2];
        let patch = PatchDelta {
            patch: vec![target],
            ..PatchDelta::default()
        };
        let unpatch = PatchDelta {
            unpatch: vec![target],
            ..PatchDelta::default()
        };
        // Warm-up: fault in trampolines and the first COW clone.
        for _ in 0..8 {
            fx.runtime
                .repatch(&mut fx.process.memory, &unpatch)
                .unwrap();
            fx.runtime.repatch(&mut fx.process.memory, &patch).unwrap();
        }
        let mut samples_ns: Vec<u64> = Vec::with_capacity(repatch_reps);
        for _ in 0..repatch_reps {
            let t = Instant::now();
            fx.runtime
                .repatch(&mut fx.process.memory, &unpatch)
                .unwrap();
            fx.runtime.repatch(&mut fx.process.memory, &patch).unwrap();
            // One sample = one unpatch + one patch publish pair.
            samples_ns.push((t.elapsed().as_nanos() / 2).max(1) as u64);
        }
        samples_ns.sort_unstable();
        let median_ns = samples_ns[samples_ns.len() / 2];
        let mean_ns = samples_ns.iter().sum::<u64>() / samples_ns.len() as u64;
        if baseline_median_ns == 0 {
            baseline_median_ns = median_ns;
        }
        let ratio = median_ns as f64 / baseline_median_ns as f64;
        println!(
            "{k:>7}  {repatch_reps:>4}  {:>10.2}  {:>8.2}  {ratio:>11.2}x",
            median_ns as f64 / 1e3,
            mean_ns as f64 / 1e3,
        );
        repatch_rows.push(json!({
            "loaded_objects": k,
            "reps": repatch_reps,
            "median_ns": median_ns,
            "mean_ns": mean_ns,
            "vs_baseline": ratio,
        }));
    }

    let report = json!({
        "bench": "dispatch",
        "funcs": funcs,
        "events_per_rank": events_per_rank,
        "sink": "sharded-log",
        "rows": rows,
        "repatch_latency": {
            "funcs_per_object": 8,
            "rows": repatch_rows,
        },
    });
    println!();
    write_report(&out_path, &report);
}

//! Criterion bench: in-flight adaptation primitives — batch `repatch`
//! throughput (the epoch-boundary hot path), `Engine::prepare` on a fresh
//! load state against a rebind on an unchanged one against
//! `Engine::apply` of a rate-only and of a sled batch, saving a
//! 9 006-row profile, the controller's per-epoch decision cost at scale,
//! and the TALP expansion stack's decision cost over a wide imbalanced
//! region set.

use capi_adapt::{
    AdaptConfig, AdaptController, CallChildren, EpochView, ExpansionOptions, FuncSample,
    RegionSample,
};
use capi_bench::{session_for, Variant};
use capi_dyncapi::ToolChoice;
use capi_exec::{Engine, OverheadModel};
use capi_objmodel::Process;
use capi_persist::{FunctionRecord, InstrumentationProfile, RegionSummary};
use capi_xray::{instrument_object, PackedId, PassOptions, PatchDelta, TrampolineSet, XRayRuntime};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn bench_adaptation(c: &mut Criterion) {
    let setup = capi_bench::setup_openfoam(6_000);
    let binary = &setup.workflow.binary;

    let mut group = c.benchmark_group("adaptation");
    group.sample_size(10);

    // Batch repatch of 512 functions, toggled patched↔unpatched.
    {
        let mut process = Process::launch_binary(binary).expect("launch");
        let runtime = XRayRuntime::new();
        let inst = instrument_object(
            process.object(0).unwrap().image.clone(),
            &PassOptions::instrument_all(),
        );
        runtime
            .register_main(
                inst.clone(),
                process.object(0).unwrap(),
                TrampolineSet::absolute(),
            )
            .expect("register");
        let ids: Vec<PackedId> = inst
            .sleds
            .entries
            .iter()
            .take(512)
            .filter_map(|e| PackedId::pack(0, e.fid).ok())
            .collect();
        let mut on = false;
        group.bench_function("repatch-512-batch", |b| {
            b.iter(|| {
                let delta = if on {
                    PatchDelta {
                        patch: Vec::new(),
                        unpatch: ids.clone(),
                        ..PatchDelta::default()
                    }
                } else {
                    PatchDelta {
                        patch: ids.clone(),
                        unpatch: Vec::new(),
                        ..PatchDelta::default()
                    }
                };
                on = !on;
                runtime
                    .repatch(&mut process.memory, &delta)
                    .expect("repatch")
                    .sleds_patched
            })
        });
    }

    // What an epoch boundary pays to see its repatch: `first` prepares
    // on a process nobody has bound yet (name resolution included),
    // `rebind` on one whose bindings carry over (patch overlay, quiet
    // analysis and schedule only).
    {
        let session = session_for(&setup, &Variant::XrayInactive, ToolChoice::None, 1);
        let prepare = |process: &Process| {
            Engine::prepare(process, &session.runtime, OverheadModel::default())
                .expect("prepares")
                .epoch_loop_trips()
        };
        // A clone of a never-bound process is never-bound.
        let unbound = session.process.clone();
        group.bench_function("prepare/first", |b| {
            b.iter_batched(|| unbound.clone(), |p| prepare(&p), BatchSize::LargeInput)
        });
        group.bench_function("prepare/rebind", |b| b.iter(|| prepare(&session.process)));
    }

    // What a boundary pays when the engine is kept instead: `apply` of
    // the 512-function batch the set-up closure just repatched —
    // rate-only (no quiet flag can change) and sled (every flip walks
    // its callers).
    {
        let mut session = session_for(&setup, &Variant::XrayInactive, ToolChoice::None, 1);
        let runtime = std::sync::Arc::clone(&session.runtime);
        let ids: Vec<PackedId> = {
            let table = runtime.published_table();
            let main = table.object(0).expect("main registered");
            (0..main.patched.len() as u32)
                .take(512)
                .filter_map(|fid| PackedId::pack(0, fid).ok())
                .collect()
        };
        let mut engine = Engine::prepare(&session.process, &runtime, OverheadModel::default())
            .expect("prepares");
        let memory = &mut session.process.memory;
        let mut flip = false;
        let mut next_batch = |sleds: bool| {
            flip = !flip;
            let delta = match (sleds, flip) {
                (true, true) => PatchDelta {
                    patch: ids.clone(),
                    ..PatchDelta::default()
                },
                (true, false) => PatchDelta {
                    unpatch: ids.clone(),
                    ..PatchDelta::default()
                },
                (false, _) => PatchDelta {
                    set_rate: ids.iter().map(|&id| (id, 2 + u32::from(flip))).collect(),
                    ..PatchDelta::default()
                },
            };
            runtime.repatch(memory, &delta).expect("repatch");
            delta
        };
        for (name, sleds) in [
            ("prepare/apply-rate-batch", false),
            ("prepare/apply-sled-batch", true),
        ] {
            group.bench_function(name, |b| {
                b.iter_batched(
                    || next_batch(sleds),
                    |delta| {
                        engine.apply(&delta);
                        engine.snapshot_generation()
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }

    // Saving a profile the size `openfoam_cold` writes: 5 179 function
    // rows and 3 827 efficiency rows, 1.4 MB of canonical JSON.
    {
        let name = |i: u32| format!("Foam::fvMatrix<Foam::Vector<double>>::solveSegregated_{i}");
        let profile = InstrumentationProfile {
            budget_pct: 5.0,
            converged_at: Some(3),
            epochs_observed: 12,
            objects: Vec::new(),
            functions: (0..5_179u32)
                .map(|i| FunctionRecord {
                    raw_id: i,
                    name: name(i),
                    active: i % 4 != 0,
                    rate: 1 + i % 16,
                    inst_ns: Some(1_000 + u64::from(i) * 37),
                    visits: Some(24 + u64::from(i)),
                    drop: None,
                })
                .collect(),
            efficiency: (0..3_827u32)
                .map(|i| RegionSummary {
                    raw_id: i,
                    name: name(i),
                    epoch: 11,
                    lb_ppm: 1_000_000 - i,
                    comm_ppm: i,
                    pe_ppm: 900_000,
                    enters: 24,
                })
                .collect(),
        };
        let path =
            std::env::temp_dir().join(format!("capi-bench-profile-{}.json", std::process::id()));
        group.bench_function("persist/save-9k-rows", |b| {
            b.iter(|| profile.save(&path).expect("saves"))
        });
        std::fs::remove_file(&path).ok();
    }

    // Controller decision over a 4,096-sample epoch view.
    {
        let samples: Vec<FuncSample> = (0..4_096u32)
            .map(|i| FuncSample {
                id: PackedId::pack(0, i).unwrap(),
                name: format!("f{i}"),
                visits: 10 + (i as u64 % 5_000),
                inst_ns: 100 + (i as u64 * 37) % 10_000,
                body_cost_ns: 5 + (i as u64 * 13) % 2_000,
                rate: 1,
            })
            .collect();
        let inst_ns: u64 = samples.iter().map(|s| s.inst_ns).sum();
        group.bench_function("controller-decision-4096", |b| {
            b.iter(|| {
                let mut controller = AdaptController::new(AdaptConfig::default());
                controller.begin(samples.iter().map(|s| (s.id, s.name.clone())));
                let view = EpochView {
                    epoch: 0,
                    epoch_ns: inst_ns * 4,
                    busy_ns: inst_ns * 4,
                    inst_ns,
                    events: samples.len() as u64 * 2,
                    samples: samples.clone(),
                    talp: Vec::new(),
                    children: CallChildren::default(),
                };
                controller.on_epoch(&view).len()
            })
        });
    }

    // Expansion-stack decision over 1,024 regions (half imbalanced),
    // each with 8 uninstrumented children — the TALP-driven growth path.
    {
        let regions: Vec<RegionSample> = (0..1_024u32)
            .map(|i| RegionSample {
                id: PackedId::pack(0, i).unwrap(),
                name: format!("r{i}"),
                enters: 16,
                elapsed_ns: 1_000_000,
                // Even regions skewed (LB 0.55), odd balanced.
                useful_per_rank: if i.is_multiple_of(2) {
                    vec![100_000, 1_000_000]
                } else {
                    vec![900_000, 1_000_000]
                },
                mpi_per_rank: vec![10_000, 10_000],
            })
            .collect();
        let children: CallChildren = std::sync::Arc::new(
            (0..1_024u32)
                .map(|i| {
                    let kids = (0..8u32)
                        .map(|k| PackedId::pack(0, 2_000 + i * 8 + k).unwrap().raw())
                        .collect();
                    (PackedId::pack(0, i).unwrap().raw(), kids)
                })
                .collect(),
        );
        let actives: Vec<(PackedId, String)> =
            regions.iter().map(|r| (r.id, r.name.clone())).collect();
        group.bench_function("expansion-decision-1024-regions", |b| {
            b.iter(|| {
                let mut controller = AdaptController::with_expansion(
                    AdaptConfig {
                        budget_pct: 50.0,
                        ..Default::default()
                    },
                    ExpansionOptions {
                        max_per_epoch: 64,
                        ..Default::default()
                    },
                );
                controller.begin(actives.iter().cloned());
                let view = EpochView {
                    epoch: 0,
                    epoch_ns: 10_000_000,
                    busy_ns: 20_000_000,
                    inst_ns: 100_000,
                    events: 4_096,
                    samples: Vec::new(),
                    talp: regions.clone(),
                    children: children.clone(),
                };
                controller.on_epoch(&view).len()
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_adaptation);
criterion_main!(benches);

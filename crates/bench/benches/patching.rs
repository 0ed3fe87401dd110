//! Criterion bench: XRay patching throughput — bulk (`patch_all`,
//! one mprotect pair) vs one single-function `repatch` per function,
//! plus DSO registration.

use capi_bench::setup_openfoam;
use capi_objmodel::Process;
use capi_xray::{instrument_object, PackedId, PassOptions, PatchDelta, TrampolineSet, XRayRuntime};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_patching(c: &mut Criterion) {
    let setup = setup_openfoam(6_000);
    let binary = &setup.workflow.binary;

    let mut group = c.benchmark_group("patching");
    group.sample_size(10);

    group.bench_function("register-all-objects", |b| {
        b.iter(|| {
            let process = Process::launch_binary(binary).expect("launch");
            let runtime = XRayRuntime::new();
            let inst = instrument_object(
                process.object(0).unwrap().image.clone(),
                &PassOptions::instrument_all(),
            );
            runtime
                .register_main(inst, process.object(0).unwrap(), TrampolineSet::absolute())
                .expect("register main");
            for (pi, lo) in process.loaded() {
                if pi == 0 {
                    continue;
                }
                let inst = instrument_object(lo.image.clone(), &PassOptions::instrument_all());
                runtime
                    .register_dso(inst, lo, pi, TrampolineSet::pic())
                    .expect("register dso");
            }
            runtime.total_sleds()
        })
    });

    // Prepared process for patch benches.
    let mk = || {
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
        let fids: Vec<u32> = inst.sleds.entries.iter().map(|e| e.fid).collect();
        let _ = &mut process;
        (process, runtime, fids)
    };

    group.bench_function("patch-all-bulk", |b| {
        b.iter_batched(
            mk,
            |(mut process, runtime, _)| runtime.patch_all(&mut process.memory, 0).expect("patch"),
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_function("patch-per-function", |b| {
        b.iter_batched(
            mk,
            |(mut process, runtime, fids)| {
                let mut n = 0;
                for fid in fids {
                    let delta = PatchDelta {
                        patch: vec![PackedId::pack(0, fid).expect("fits")],
                        ..Default::default()
                    };
                    let rep = runtime.repatch(&mut process.memory, &delta);
                    n += rep.expect("patch").sleds_patched;
                }
                n
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_function("patch-selected-bulk", |b| {
        b.iter_batched(
            mk,
            |(mut process, runtime, fids)| {
                runtime
                    .patch_functions(&mut process.memory, 0, &fids)
                    .expect("patch")
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_patching);
criterion_main!(benches);

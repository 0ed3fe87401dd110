//! Criterion bench: the paper's §II-B motivation — Score-P style
//! *runtime filtering* (probes stay, filter checked per event) vs CaPI's
//! patch-time selection (unselected probes never fire).

use capi_bench::{measure, session_for, setup_openfoam, Variant};
use capi_dyncapi::ToolChoice;
use capi_scorep::FilterFile;
use capi_workloads::PAPER_SPECS;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_runtime_filtering(c: &mut Criterion) {
    let setup = setup_openfoam(6_000);
    let kernels_ic = setup
        .workflow
        .select_ic(PAPER_SPECS[2].source)
        .expect("kernels IC")
        .ic;

    let mut group = c.benchmark_group("runtime-filtering");
    group.sample_size(10);

    // Patch-time selection: only the IC's sleds are active.
    group.bench_function("patch-time-selection", |b| {
        b.iter(|| {
            measure(
                &setup,
                "ic",
                &Variant::Ic(kernels_ic.clone()),
                ToolChoice::Scorep(Default::default()),
                2,
            )
        })
    });

    // Runtime filtering: all sleds active; Score-P discards per event.
    let run_filtered = |filter: FilterFile| {
        let session = session_for(
            &setup,
            &Variant::XrayFull,
            ToolChoice::Scorep(Default::default()),
            2,
        );
        session
            .scorep
            .as_ref()
            .expect("scorep configured")
            .set_runtime_filter(filter);
        session.run().expect("runs")
    };
    group.bench_function("runtime-filtering", |b| {
        b.iter(|| run_filtered(FilterFile::include_only(kernels_ic.names())))
    });

    // The same run behind an IC-sized filter: the kernels names among
    // 5 000 literal rules, checked once per first-seen region.
    let padding: Vec<String> = (0..5_000)
        .map(|i| format!("_ZN4Foam7padding{i}Ev"))
        .collect();
    group.bench_function("runtime-filtering-5000-rules", |b| {
        b.iter(|| {
            run_filtered(FilterFile::include_only(
                padding.iter().map(String::as_str).chain(kernels_ic.names()),
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_runtime_filtering);
criterion_main!(benches);

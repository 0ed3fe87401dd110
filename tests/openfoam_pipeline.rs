//! Integration tests on the scaled OpenFOAM workload: the §VI selection
//! proportions, DSO patching, hidden-symbol behaviour and the TALP
//! measurement anomalies.

use capi::Workflow;
use capi_dyncapi::{startup, DynCapiConfig, ToolChoice};
use capi_objmodel::CompileOptions;
use capi_talp::TalpConfig;
use capi_workloads::{openfoam, OpenFoamParams, PAPER_SPECS};
use capi_xray::PassOptions;

fn workflow() -> Workflow {
    let program = openfoam(&OpenFoamParams {
        scale: 6_000,
        ..Default::default()
    });
    Workflow::analyze(program, CompileOptions::o2()).expect("analyze")
}

#[test]
fn selection_proportions_follow_the_paper() {
    let wf = workflow();
    let total = wf.graph.len() as f64;
    let mpi = wf.select_ic(PAPER_SPECS[0].source).expect("mpi");
    let mpi_coarse = wf.select_ic(PAPER_SPECS[1].source).expect("mpi coarse");
    let kernels = wf.select_ic(PAPER_SPECS[2].source).expect("kernels");

    // mpi selects a double-digit percentage before compensation…
    let pre_frac = mpi.compensation.selected_pre as f64 / total;
    assert!(
        pre_frac > 0.05 && pre_frac < 0.25,
        "mpi pre fraction {pre_frac}"
    );
    // …and compensation removes the majority (inlined tiny field ops).
    assert!(mpi.compensation.selected_post * 3 / 2 < mpi.compensation.selected_pre);
    // Compensation adds surviving callers (the paper's +1,366).
    assert!(mpi.compensation.added > 0);
    // Coarse never selects more than the plain variant.
    assert!(mpi_coarse.ic.len() <= mpi.ic.len());
    // kernels selects fewer than mpi (paper: 5.9% vs 14.6%).
    assert!(kernels.compensation.selected_pre < mpi.compensation.selected_pre);
}

#[test]
fn all_six_dsos_are_patchable_and_hidden_symbols_counted() {
    let wf = workflow();
    let ic = wf.select_ic(PAPER_SPECS[0].source).expect("mpi");
    let session = capi::dynamic_session(&wf.binary, &ic.ic, ToolChoice::None, 2).expect("session");
    assert_eq!(session.report.dsos, 6, "paper: 6 patchable DSOs");
    // Hidden internals + static initializers cannot be resolved.
    assert!(session.report.symres.unresolved_hidden > 0);
    assert!(session.report.symres.unresolved_static_init > 0);
    // None of them were patched (cannot be checked against the IC).
    assert!(session.report.patched_functions <= ic.ic.len());
}

#[test]
fn talp_regions_entered_before_mpi_init_fail() {
    let wf = workflow();
    let ic = wf.select_ic(PAPER_SPECS[0].source).expect("mpi");
    let session =
        capi::dynamic_session(&wf.binary, &ic.ic, ToolChoice::Talp(Default::default()), 2)
            .expect("session");
    session.run().expect("run");
    let stats = session.talp_adapter.as_ref().unwrap().stats();
    // main (and the pre-init setup path) cannot register (paper §VI-B(b)).
    assert!(stats.regions_failed_pre_init >= 1);
    assert!(stats.regions_registered > 0);
    // main never shows up in the report.
    let report = session
        .talp
        .as_ref()
        .unwrap()
        .final_report()
        .expect("report");
    assert!(!report.iter().any(|m| m.name == "main"));
}

#[test]
fn region_table_pressure_reproduces_unique_failed_entries() {
    let wf = workflow();
    let ic = wf.select_ic(PAPER_SPECS[0].source).expect("mpi");
    // First learn the region count, then squeeze the table.
    let ample = capi::dynamic_session(&wf.binary, &ic.ic, ToolChoice::Talp(Default::default()), 2)
        .expect("session");
    ample.run().expect("run");
    let registered = ample
        .talp_adapter
        .as_ref()
        .unwrap()
        .stats()
        .regions_registered;
    assert!(registered > 100);

    let squeezed = startup(
        &wf.binary,
        DynCapiConfig {
            tool: ToolChoice::Talp(TalpConfig {
                region_table_capacity: (registered as usize * 17 / 16).max(64),
                probe_limit: 48,
            }),
            ic: Some(ic.ic.to_scorep_filter()),
            pass: PassOptions::instrument_all(),
            ranks: 2,
            ..Default::default()
        },
    )
    .expect("startup");
    squeezed.run().expect("run");
    let stats = squeezed.talp_adapter.as_ref().unwrap().stats();
    assert!(
        stats.regions_failed_table > 0,
        "probe-budget failures expected under pressure (paper: 24 unique)"
    );
    assert!(stats.events_dropped > 0);
}

#[test]
fn scorep_full_profiles_unknown_regions_for_hidden_functions() {
    let wf = workflow();
    // xray full: even unresolvable sleds are patched.
    let session = startup(
        &wf.binary,
        DynCapiConfig {
            tool: ToolChoice::Scorep(Default::default()),
            ic: None,
            pass: PassOptions::instrument_all(),
            ranks: 2,
            ..Default::default()
        },
    )
    .expect("startup");
    session.run().expect("run");
    let scorep = session.scorep.as_ref().unwrap();
    // Hidden-but-executed functions appear as UNKNOWN@… regions: DynCaPI
    // injected only *exported* DSO symbols.
    assert!(
        scorep
            .region_names()
            .iter()
            .any(|n| n.starts_with("UNKNOWN@0x")),
        "hidden executed functions must profile as UNKNOWN"
    );
    // But everything exported resolves (symbol injection worked).
    assert!(scorep
        .region_names()
        .iter()
        .any(|n| n == "Foam::lduMatrix::Amul"));
}

#[test]
fn listing3_chain_is_coarsened_amul_retained_via_critical() {
    let wf = workflow();
    // Coarse with Amul marked critical (the paper's Listing 3 example:
    // keep solve and Amul, drop the pass-through middle).
    let spec = r#"
sel = join(byName("solveSegregated", %%), byName("PCG::solve", %%), byName("scalarSolve", %%), byName("Amul", %%))
coarse(%sel, byName("Amul", %%))
"#;
    let out = wf.select_ic(spec).expect("select");
    assert!(
        out.ic.contains("Foam::lduMatrix::Amul"),
        "critical function retained"
    );
    // scalarSolve's only caller (PCG::solve) is selected: removed.
    assert!(!out.ic.contains("Foam::PCG::scalarSolve"));
    // PCG::solve has two selected callers (scalar + vector solveSegregated):
    // caller diversity keeps it.
    assert!(out.ic.contains("Foam::PCG::solve"));
}

/// Pins a long sorted name list in one number.
fn names_fingerprint(label: &str, names: &[String]) -> u64 {
    capi_persist::fingerprint_object(label, names.iter().map(|n| (n.as_str(), 0)))
}

/// Inlining compensation answers through the bulk symbol-name view; its
/// report on this fixture is pinned to what the per-query symbol scan
/// returned, name for name.
#[test]
fn inlining_compensation_report_is_pinned() {
    let wf = workflow();
    let c = wf
        .select_ic(PAPER_SPECS[0].source)
        .expect("mpi")
        .compensation;
    assert!(c.removed_names.is_sorted() && c.added_names.is_sorted());
    assert_eq!(
        (
            c.selected_pre,
            c.selected_post,
            c.added,
            c.removed_names.len(),
            names_fingerprint("removed", &c.removed_names),
            names_fingerprint("added", &c.added_names),
        ),
        (
            805,
            409,
            135,
            396,
            69_205_360_784_695_320,
            3_249_106_183_541_951_870
        )
    );
}

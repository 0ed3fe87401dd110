//! Shared harness for the benchmark binaries and Criterion benches.
//!
//! Regenerates the paper's evaluation artifacts:
//!
//! * `table1` — Table I (selection results),
//! * `table2` — Table II (instrumentation overhead) plus the §VI-B
//!   patching/measurement observations,
//! * `turnaround` — the §VII-A static-vs-dynamic turnaround comparison,
//! * `figures` — Fig. 4 (packed-ID layout) and workflow statistics.
//!
//! Time scale: 1 virtual millisecond ≈ 1 paper second (see
//! EXPERIMENTS.md). Tables print virtual milliseconds so the columns are
//! directly comparable with the paper's seconds.

pub mod report;

use capi::workflow::IcOutcome;
use capi::{InstrumentationConfig, Workflow};
use capi_dyncapi::{startup, DynCapiConfig, Session, ToolChoice};
use capi_objmodel::CompileOptions;
use capi_scorep::FilterFile;
use capi_workloads::{lulesh, openfoam, LuleshParams, OpenFoamParams, PAPER_SPECS};
use capi_xray::PassOptions;

/// A prepared workload: program + call graph + compiled binary.
pub struct WorkloadSetup {
    /// Display name (`lulesh` / `openfoam`).
    pub name: &'static str,
    /// The workflow bundle (program, graph, binary).
    pub workflow: Workflow,
}

/// Builds the LULESH setup.
pub fn setup_lulesh() -> WorkloadSetup {
    let program = lulesh(&LuleshParams::default());
    WorkloadSetup {
        name: "lulesh",
        workflow: Workflow::analyze(program, CompileOptions::o3()).expect("lulesh compiles"),
    }
}

/// Builds the OpenFOAM setup at the given scale (paper: 410,666 nodes;
/// default here: 60,000).
pub fn setup_openfoam(scale: usize) -> WorkloadSetup {
    let program = openfoam(&OpenFoamParams {
        scale,
        ..Default::default()
    });
    WorkloadSetup {
        name: "openfoam",
        workflow: Workflow::analyze(program, CompileOptions::o2()).expect("openfoam compiles"),
    }
}

/// OpenFOAM scale taken from `CAPI_OF_SCALE` (default 60,000).
///
/// Unparseable or zero values fall back to the default; a zero-node
/// graph would make every downstream stage degenerate.
pub fn openfoam_scale_from_env() -> usize {
    std::env::var("CAPI_OF_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(60_000)
}

/// Rank count taken from `CAPI_RANKS` (default 8).
///
/// Unparseable or zero values fall back to the default; the simulated
/// `MPI_COMM_WORLD` needs at least one rank.
pub fn ranks_from_env() -> u32 {
    std::env::var("CAPI_RANKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(8)
}

/// Epoch count for in-flight adaptation, from `CAPI_EPOCHS`
/// (default 6).
///
/// Unparseable or zero values fall back to the default; a zero-epoch
/// run would never execute the program.
pub fn epochs_from_env() -> usize {
    parse_positive_usize(std::env::var("CAPI_EPOCHS").ok(), 6)
}

/// Adaptation overhead budget in percent, from `CAPI_BUDGET_PCT`
/// (default 5.0).
///
/// Unparseable, zero or negative values fall back to the default; a
/// non-positive budget would unpatch everything unconditionally.
pub fn budget_pct_from_env() -> f64 {
    parse_positive_f64(std::env::var("CAPI_BUDGET_PCT").ok(), 5.0)
}

/// Load-balance expansion threshold, from `CAPI_LB_THRESHOLD`
/// (default 0.75): the imbalance-expansion policy grows instrumentation
/// below regions whose per-epoch load balance falls under this.
///
/// Unparseable, zero, negative or non-finite values fall back to the
/// default; a zero threshold would disable expansion entirely while
/// *looking* enabled.
pub fn lb_threshold_from_env() -> f64 {
    parse_positive_f64(std::env::var("CAPI_LB_THRESHOLD").ok(), 0.75)
}

/// Communication-fraction expansion threshold, from
/// `CAPI_COMM_THRESHOLD` (default 0.4): the comm-focus policy grows
/// instrumentation below regions whose MPI share of busy time reaches
/// this.
///
/// Unparseable, zero, negative or non-finite values fall back to the
/// default; a zero threshold would expand below *every* region that
/// touches MPI at all.
pub fn comm_threshold_from_env() -> f64 {
    parse_positive_f64(std::env::var("CAPI_COMM_THRESHOLD").ok(), 0.4)
}

/// Events per rank for the dispatch throughput sweep, from
/// `CAPI_DISPATCH_EVENTS` (default 200,000).
///
/// Unparseable or zero values fall back to the default; a zero-event
/// sweep measures nothing.
pub fn dispatch_events_from_env() -> u64 {
    parse_positive_usize(std::env::var("CAPI_DISPATCH_EVENTS").ok(), 200_000) as u64
}

/// Instrumented function count for the dispatch throughput sweep, from
/// `CAPI_DISPATCH_FUNCS` (default 512).
///
/// Unparseable or zero values fall back to the default; the fixture
/// needs at least one sled to dispatch through.
pub fn dispatch_funcs_from_env() -> usize {
    parse_positive_usize(std::env::var("CAPI_DISPATCH_FUNCS").ok(), 512)
}

/// Maximum sampling rate the adaptation controller may demote a
/// function to, from `CAPI_SAMPLE_RATE_MAX` (default 16): the
/// overhead-budget policy caps its `Sampled(1-in-N)` demotions at this
/// N before falling back to dropping the function outright.
///
/// Unparseable or zero values fall back to the default; a zero cap
/// would disable demotion entirely while *looking* enabled
/// (`Sampled(0)` is not a rate).
pub fn sample_rate_max_from_env() -> u32 {
    parse_positive_usize(std::env::var("CAPI_SAMPLE_RATE_MAX").ok(), 16) as u32
}

/// Redundancy-suppression band in parts-per-million, from
/// `CAPI_REDUNDANCY_PPM` (default 0): sampled-path events whose
/// duration lands within this relative band of the running
/// per-function estimate are counted but not emitted.
///
/// Unparseable or zero values fall back to the default — which is 0,
/// i.e. suppression disabled, so unlike the other knobs "rejecting"
/// zero and accepting it coincide.
pub fn redundancy_ppm_from_env() -> u32 {
    parse_positive_usize(std::env::var("CAPI_REDUNDANCY_PPM").ok(), 0) as u32
}

/// Rank counts for the dispatch throughput sweep, from
/// `CAPI_DISPATCH_RANKS` (comma-separated, default `1,2,4,8,32,128`).
/// The high-rank rows exercise the dynamic reader-slot registry past
/// the registry's 64-stripe telemetry fold.
///
/// Unparseable lists, empty lists and zero entries fall back to the
/// default; a zero-rank row would dispatch nothing.
pub fn dispatch_ranks_from_env() -> Vec<u32> {
    const DEFAULT: &[u32] = &[1, 2, 4, 8, 32, 128];
    std::env::var("CAPI_DISPATCH_RANKS")
        .ok()
        .and_then(|v| {
            v.split(',')
                .map(|s| s.trim().parse::<u32>().ok().filter(|&n| n > 0))
                .collect::<Option<Vec<u32>>>()
        })
        .filter(|ranks| !ranks.is_empty())
        .unwrap_or_else(|| DEFAULT.to_vec())
}

/// Repetitions per loaded-object count for the `table4` repatch-latency
/// section, from `CAPI_REPATCH_REPS` (default 200).
///
/// Unparseable or zero values fall back to the default; a zero-rep
/// section measures nothing.
pub fn repatch_reps_from_env() -> usize {
    parse_positive_usize(std::env::var("CAPI_REPATCH_REPS").ok(), 200)
}

/// Events per throughput trial for the `table8` self-telemetry overhead
/// comparison, from `CAPI_OBS_EVENTS` (default 100,000).
///
/// Unparseable or zero values fall back to the default; a zero-event
/// trial measures nothing.
pub fn obs_events_from_env() -> u64 {
    parse_positive_usize(std::env::var("CAPI_OBS_EVENTS").ok(), 100_000) as u64
}

/// Interleaved trial count for the `table8` throughput comparison, from
/// `CAPI_OBS_TRIALS` (default 40). Each configuration keeps its best
/// (fastest) trial; many short interleaved trials converge on a clean
/// scheduling window far more reliably than a few long ones.
///
/// Unparseable or zero values fall back to the default; best-of-zero is
/// undefined.
pub fn obs_trials_from_env() -> usize {
    parse_positive_usize(std::env::var("CAPI_OBS_TRIALS").ok(), 40)
}

/// Tolerated dispatch-throughput overhead (percent) for telemetry in
/// `table8`, from `CAPI_OBS_TOLERANCE_PCT` (default 2.0) — the bound the
/// binary *asserts*, so CI fails if telemetry ever grows a per-event
/// cost.
///
/// Unparseable, zero or negative values fall back to the default; a
/// zero tolerance would fail on pure scheduler noise.
pub fn obs_tolerance_pct_from_env() -> f64 {
    parse_positive_f64(std::env::var("CAPI_OBS_TOLERANCE_PCT").ok(), 2.0)
}

/// Tolerated wall-clock overhead (percent) of an *armed* flight
/// recorder over a disarmed one in `table10`, from
/// `CAPI_HEALTH_TOLERANCE_PCT` (default 3.0) — the bound the binary
/// asserts, per the near-zero-cost recorder claim.
///
/// Unparseable, zero or negative values fall back to the default; a
/// zero tolerance would fail on pure scheduler noise.
pub fn health_tolerance_pct_from_env() -> f64 {
    parse_positive_f64(std::env::var("CAPI_HEALTH_TOLERANCE_PCT").ok(), 3.0)
}

fn parse_positive_usize(var: Option<String>, default: usize) -> usize {
    var.and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

pub(crate) fn parse_positive_f64(var: Option<String>, default: f64) -> f64 {
    var.and_then(|v| v.parse::<f64>().ok())
        .filter(|&n| n > 0.0 && n.is_finite())
        .unwrap_or(default)
}

/// Runs all four paper specs against a workload, returning
/// `(spec name, IcOutcome)` per row of Table I.
pub fn paper_ics(setup: &WorkloadSetup) -> Vec<(&'static str, IcOutcome)> {
    PAPER_SPECS
        .iter()
        .map(|spec| {
            let outcome = setup
                .workflow
                .select_ic(spec.source)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", setup.name, spec.name));
            (spec.name, outcome)
        })
        .collect()
}

/// An instrumentation variant of Table II.
#[derive(Clone, Debug)]
pub enum Variant {
    /// Plain Clang build: no sleds at all.
    Vanilla,
    /// XRay build, nothing patched, no tool.
    XrayInactive,
    /// Everything patched.
    XrayFull,
    /// A CaPI IC.
    Ic(InstrumentationConfig),
}

/// One measured cell pair of Table II.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// Variant label.
    pub label: String,
    /// `T_init` in virtual ns (None for vanilla/inactive: no patching).
    pub init_ns: Option<u64>,
    /// `T_total` in virtual ns.
    pub total_ns: u64,
    /// Instrumentation events dispatched.
    pub events: u64,
}

/// Builds a DynCaPI session for a variant.
pub fn session_for(
    setup: &WorkloadSetup,
    variant: &Variant,
    tool: ToolChoice,
    ranks: u32,
) -> Session {
    let config = match variant {
        Variant::Vanilla => DynCapiConfig {
            tool: ToolChoice::None,
            ic: Some(FilterFile::include_only([])),
            pass: PassOptions {
                instruction_threshold: u32::MAX,
                ignore_loops: true,
                ..PassOptions::default()
            },
            ranks,
            ..Default::default()
        },
        Variant::XrayInactive => DynCapiConfig {
            tool: ToolChoice::None,
            ic: Some(FilterFile::include_only([])),
            pass: PassOptions::instrument_all(),
            ranks,
            ..Default::default()
        },
        Variant::XrayFull => DynCapiConfig {
            tool,
            ic: None,
            pass: PassOptions::instrument_all(),
            ranks,
            ..Default::default()
        },
        Variant::Ic(ic) => DynCapiConfig {
            tool,
            ic: Some(ic.to_scorep_filter()),
            pass: PassOptions::instrument_all(),
            ranks,
            ..Default::default()
        },
    };
    startup(&setup.workflow.binary, config).expect("startup succeeds")
}

/// Runs one variant and returns its Table II row.
pub fn measure(
    setup: &WorkloadSetup,
    label: &str,
    variant: &Variant,
    tool: ToolChoice,
    ranks: u32,
) -> OverheadRow {
    let session = session_for(setup, variant, tool, ranks);
    let out = session.run().expect("run succeeds");
    let init = match variant {
        Variant::Vanilla | Variant::XrayInactive => None,
        _ => Some(out.init_ns),
    };
    OverheadRow {
        label: label.to_string(),
        init_ns: init,
        total_ns: match init {
            Some(i) => i + out.run.total_ns,
            None => out.run.total_ns,
        },
        events: out.run.events,
    }
}

/// A synthetic process + runtime for dispatch-path microbenchmarks:
/// one executable object with `funcs` instrumented functions, nothing
/// patched yet.
pub struct DispatchFixture {
    /// The launched process (owns the patchable memory).
    pub process: capi_objmodel::Process,
    /// The XRay runtime with the object registered.
    pub runtime: capi_xray::XRayRuntime,
    /// All instrumented packed IDs, in function-ID order.
    pub ids: Vec<capi_xray::PackedId>,
}

/// Builds a [`DispatchFixture`] with `funcs` instrumentable functions.
pub fn dispatch_fixture(funcs: usize) -> DispatchFixture {
    use capi_appmodel::{LinkTarget, ProgramBuilder};
    let mut b = ProgramBuilder::new("dispatch-bench");
    b.unit("hot.cc", LinkTarget::Executable);
    {
        let mut m = b.function("main").main().statements(20).instructions(200);
        // Call every worker once so the program stays well-formed.
        for i in 0..funcs {
            m = m.calls(&format!("hot{i}"), 1);
        }
        m.finish();
    }
    for i in 0..funcs {
        b.function(&format!("hot{i}"))
            .statements(25)
            .instructions(250)
            .cost(100)
            .finish();
    }
    let program = b.build().expect("bench program is well-formed");
    let bin =
        capi_objmodel::compile(&program, &capi_objmodel::CompileOptions::o2()).expect("compiles");
    let process = capi_objmodel::Process::launch_binary(&bin).expect("launches");
    let runtime = capi_xray::XRayRuntime::new();
    let inst = capi_xray::instrument_object(
        process.object(0).unwrap().image.clone(),
        &PassOptions::instrument_all(),
    );
    runtime
        .register_main(
            inst.clone(),
            process.object(0).unwrap(),
            capi_xray::TrampolineSet::absolute(),
        )
        .expect("registers");
    let ids = inst
        .sleds
        .entries
        .iter()
        .filter_map(|e| capi_xray::PackedId::pack(0, e.fid).ok())
        .collect();
    DispatchFixture {
        process,
        runtime,
        ids,
    }
}

/// A host process with `dso_count` registered (and fully patched)
/// shared objects — the fixture for the repatch-latency-vs-loaded-
/// objects section of `table4`. With per-object copy-on-write dispatch
/// tables, repatching one object rebuilds one `ObjectDispatch` entry no
/// matter how many others are loaded, so the measured latency should
/// stay flat as `dso_count` grows.
pub struct RepatchFixture {
    /// The launched process (owns the patchable memory).
    pub process: capi_objmodel::Process,
    /// The XRay runtime with every object registered and patched.
    pub runtime: capi_xray::XRayRuntime,
    /// One representative patched ID per DSO (object IDs 1..=dso_count).
    pub dso_ids: Vec<capi_xray::PackedId>,
}

/// Builds a [`RepatchFixture`] with `dso_count` DSOs of `funcs_per_dso`
/// instrumentable functions each.
pub fn repatch_fixture(dso_count: usize, funcs_per_dso: usize) -> RepatchFixture {
    use capi_appmodel::{LinkTarget, ProgramBuilder};
    let mut b = ProgramBuilder::new("repatch-bench");
    b.unit("host.cc", LinkTarget::Executable);
    {
        let mut m = b.function("main").main().statements(20).instructions(200);
        for d in 0..dso_count {
            m = m.calls(&format!("p{d}_f0"), 1);
        }
        m.finish();
    }
    for d in 0..dso_count {
        b.unit(format!("p{d}.cc"), LinkTarget::Dso(format!("libp{d}.so")));
        for f in 0..funcs_per_dso {
            b.function(&format!("p{d}_f{f}"))
                .statements(25)
                .instructions(250)
                .finish();
        }
    }
    let program = b.build().expect("bench program is well-formed");
    let bin =
        capi_objmodel::compile(&program, &capi_objmodel::CompileOptions::o2()).expect("compiles");
    let mut process = capi_objmodel::Process::launch_binary(&bin).expect("launches");
    let runtime = capi_xray::XRayRuntime::new();
    let main_inst = capi_xray::instrument_object(
        process.object(0).unwrap().image.clone(),
        &PassOptions::instrument_all(),
    );
    runtime
        .register_main(
            main_inst,
            process.object(0).unwrap(),
            capi_xray::TrampolineSet::absolute(),
        )
        .expect("registers main");
    let mut dso_ids = Vec::new();
    for i in 1..=dso_count {
        let inst = capi_xray::instrument_object(
            process.object(i).unwrap().image.clone(),
            &PassOptions::instrument_all(),
        );
        let oid = runtime
            .register_dso(
                inst,
                process.object(i).unwrap(),
                i,
                capi_xray::TrampolineSet::pic(),
            )
            .expect("registers dso");
        runtime
            .patch_all(&mut process.memory, oid)
            .expect("patches dso");
        dso_ids.push(capi_xray::PackedId::pack(oid, 0).expect("packs"));
    }
    RepatchFixture {
        process,
        runtime,
        dso_ids,
    }
}

/// Dispatches `events` entry/exit events round-robin over `ids` from one
/// rank thread — the hammering loop shared by `benches/dispatch.rs` and
/// the `table4` sweep. Returns the dispatched count.
pub fn dispatch_round_robin(
    runtime: &capi_xray::XRayRuntime,
    ids: &[capi_xray::PackedId],
    rank: u32,
    events: u64,
) -> u64 {
    use capi_xray::EventKind;
    let mut dispatched = 0u64;
    for i in 0..events {
        let id = ids[(i % ids.len() as u64) as usize];
        let kind = if i.is_multiple_of(2) {
            EventKind::Entry
        } else {
            EventKind::Exit
        };
        runtime
            .dispatch(id, kind, i, rank)
            .expect("patched id dispatches");
        dispatched += 1;
    }
    dispatched
}

impl DispatchFixture {
    /// Patches the first `fraction` of the fixture's functions (one
    /// `mprotect` pair) and returns the patched IDs — the working set a
    /// throughput sweep dispatches over.
    pub fn patch_fraction(&mut self, fraction: f64) -> Vec<capi_xray::PackedId> {
        let n = ((self.ids.len() as f64 * fraction).ceil() as usize).clamp(1, self.ids.len());
        let fids: Vec<u32> = self.ids[..n].iter().map(|id| id.function()).collect();
        self.runtime
            .patch_functions(&mut self.process.memory, 0, &fids)
            .expect("patches");
        self.ids[..n].to_vec()
    }

    /// Unpatches everything (so fractions can be swept in sequence).
    pub fn clear_patches(&mut self) {
        let delta = capi_xray::PatchDelta {
            unpatch: self.ids.clone(),
            ..Default::default()
        };
        self.runtime
            .repatch(&mut self.process.memory, &delta)
            .expect("unpatches");
    }
}

/// Formats virtual ns as "paper seconds" (1 virtual ms ≈ 1 paper s).
pub fn fmt_paper_seconds(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Formats an optional init value.
pub fn fmt_init(init: Option<u64>) -> String {
    match init {
        Some(ns) => fmt_paper_seconds(ns),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knob_parsing_rejects_zero_and_garbage() {
        assert_eq!(parse_positive_usize(None, 6), 6);
        assert_eq!(parse_positive_usize(Some("0".into()), 6), 6);
        assert_eq!(parse_positive_usize(Some("nope".into()), 6), 6);
        assert_eq!(parse_positive_usize(Some("12".into()), 6), 12);
        assert_eq!(parse_positive_f64(None, 5.0), 5.0);
        assert_eq!(parse_positive_f64(Some("0".into()), 5.0), 5.0);
        assert_eq!(parse_positive_f64(Some("-3".into()), 5.0), 5.0);
        assert_eq!(parse_positive_f64(Some("inf".into()), 5.0), 5.0);
        assert_eq!(parse_positive_f64(Some("2.5".into()), 5.0), 2.5);
    }

    #[test]
    fn sampling_knobs_follow_the_reject_zero_convention() {
        // CAPI_SAMPLE_RATE_MAX: default 16, zero and garbage rejected.
        std::env::remove_var("CAPI_SAMPLE_RATE_MAX");
        assert_eq!(sample_rate_max_from_env(), 16);
        std::env::set_var("CAPI_SAMPLE_RATE_MAX", "0");
        assert_eq!(sample_rate_max_from_env(), 16);
        std::env::set_var("CAPI_SAMPLE_RATE_MAX", "nope");
        assert_eq!(sample_rate_max_from_env(), 16);
        std::env::set_var("CAPI_SAMPLE_RATE_MAX", "8");
        assert_eq!(sample_rate_max_from_env(), 8);
        std::env::remove_var("CAPI_SAMPLE_RATE_MAX");

        // CAPI_REDUNDANCY_PPM: default 0 (band off); zero and garbage
        // both land on the same "off" default.
        std::env::remove_var("CAPI_REDUNDANCY_PPM");
        assert_eq!(redundancy_ppm_from_env(), 0);
        std::env::set_var("CAPI_REDUNDANCY_PPM", "0");
        assert_eq!(redundancy_ppm_from_env(), 0);
        std::env::set_var("CAPI_REDUNDANCY_PPM", "garbage");
        assert_eq!(redundancy_ppm_from_env(), 0);
        std::env::set_var("CAPI_REDUNDANCY_PPM", "50000");
        assert_eq!(redundancy_ppm_from_env(), 50_000);
        std::env::remove_var("CAPI_REDUNDANCY_PPM");
    }

    #[test]
    fn harness_smoke_small_openfoam() {
        let setup = setup_openfoam(6_000);
        let ics = paper_ics(&setup);
        assert_eq!(ics.len(), 4);
        // mpi selects more than kernels, coarse never selects more.
        let get = |name: &str| {
            ics.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, o)| o.ic.len())
                .unwrap()
        };
        assert!(get("mpi") >= get("mpi coarse"));
        assert!(get("kernels") >= get("kernels coarse"));
        let row = measure(&setup, "vanilla", &Variant::Vanilla, ToolChoice::None, 2);
        assert!(row.total_ns > 0);
        assert_eq!(row.events, 0);
    }
}

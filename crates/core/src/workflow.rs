//! The end-to-end refinement workflow (paper Fig. 1 + Fig. 3).
//!
//! A [`Workflow`] owns the analysis artifacts (program → MetaCG graph →
//! compiled binary) and drives Select → Instrument → Measure → Adjust
//! iterations, accounting the *turnaround time* of each iteration in
//! both instrumentation modes. This is the quantity §VII-A argues about:
//! static instrumentation pays a full recompilation per adjustment
//! (~50 min for OpenFOAM), dynamic instrumentation pays only startup
//! patching (seconds).

use crate::ic::InstrumentationConfig;
use crate::inlining::{compensate_inlining, CompensationReport};
use crate::instrument::dynamic_session;
use crate::select::{select, SelectionOutcome};
use capi_appmodel::SourceProgram;
use capi_dyncapi::{AdaptiveRun, AdaptiveRunBuilder, DynCapiError, SessionRun, ToolChoice};
use capi_metacg::{whole_program_callgraph, CallGraph};
use capi_objmodel::{compile, estimate_compile_time, Binary, CompileError, CompileOptions};
use capi_persist::InstrumentationProfile;
use capi_spec::{ModuleRegistry, SpecError};
use std::time::Duration;

pub use capi_dyncapi::{profile_source_from_env, ProfileSource};

/// Result of turning a selection into an IC (with post-processing).
#[derive(Clone, Debug)]
pub struct IcOutcome {
    /// The final instrumentation configuration.
    pub ic: InstrumentationConfig,
    /// Selection timing.
    pub duration: Duration,
    /// Inlining-compensation accounting (Table I columns).
    pub compensation: CompensationReport,
}

/// Result of one measurement iteration.
#[derive(Clone, Debug)]
pub struct MeasureOutcome {
    /// The session run (T_init, T_total, events).
    pub run: SessionRun,
    /// Virtual turnaround cost of *applying* this IC dynamically
    /// (= startup/patching time; no recompilation).
    pub dynamic_turnaround_ns: u64,
    /// Virtual turnaround cost the static workflow would have paid
    /// (full recompilation + startup).
    pub static_turnaround_ns: u64,
}

/// Result of one in-flight refinement run: the Fig. 1 loop converging
/// inside a single session, with zero restarts and zero rebuilds.
#[derive(Clone, Debug)]
pub struct InFlightOutcome {
    /// The adaptive run (per-epoch trajectory, `T_init`/`T_adapt`).
    pub adaptive: AdaptiveRun,
    /// The IC the controller converged on (resolved names only).
    pub final_ic: InstrumentationConfig,
    /// First epoch at which the controller converged, if it did (and
    /// stayed converged — a later re-drop resets this).
    pub converged_at: Option<usize>,
    /// First epoch the controller *ever* converged at, regardless of
    /// later probe churn — the time-to-converged-IC metric warm starts
    /// improve.
    pub first_converged_at: Option<usize>,
    /// The controller's adaptation log — byte-identical across runs
    /// with the same seed and budget.
    pub log: String,
    /// Recompilations performed (always 0 in dynamic mode).
    pub rebuilds: u32,
    /// Session restarts performed (always 0 in in-flight mode).
    pub restarts: u32,
    /// The exported instrumentation profile: the converged IC in
    /// packed-ID form, drop records, cost samples, and the efficiency
    /// summary. Save it (or pass it back inline) to warm-start the next
    /// run.
    pub profile: InstrumentationProfile,
    /// Whether this run was warm-started from a prior profile.
    pub warm_started: bool,
}

/// The CaPI workflow over one application.
pub struct Workflow {
    /// The application model.
    pub program: SourceProgram,
    /// The whole-program call graph (MetaCG phase).
    pub graph: CallGraph,
    /// The compiled binary (with XRay-ready images).
    pub binary: Binary,
    /// Module registry for spec imports.
    pub modules: ModuleRegistry,
    compile_opts: CompileOptions,
}

/// Workflow errors.
#[derive(Debug)]
pub enum WorkflowError {
    /// Compilation failed.
    Compile(CompileError),
    /// Spec processing failed.
    Spec(SpecError),
    /// Instrumentation/measurement failed.
    DynCapi(DynCapiError),
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::Compile(e) => write!(f, "compile: {e}"),
            WorkflowError::Spec(e) => write!(f, "spec: {e}"),
            WorkflowError::DynCapi(e) => write!(f, "dyncapi: {e}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

impl From<CompileError> for WorkflowError {
    fn from(e: CompileError) -> Self {
        WorkflowError::Compile(e)
    }
}
impl From<SpecError> for WorkflowError {
    fn from(e: SpecError) -> Self {
        WorkflowError::Spec(e)
    }
}
impl From<DynCapiError> for WorkflowError {
    fn from(e: DynCapiError) -> Self {
        WorkflowError::DynCapi(e)
    }
}

impl Workflow {
    /// Runs the preparation phase: MetaCG call-graph construction and
    /// one (single!) compilation of the target.
    pub fn analyze(
        program: SourceProgram,
        compile_opts: CompileOptions,
    ) -> Result<Self, WorkflowError> {
        let graph = whole_program_callgraph(&program);
        let binary = compile(&program, &compile_opts)?;
        Ok(Self {
            program,
            graph,
            binary,
            modules: ModuleRegistry::with_builtins(),
            compile_opts,
        })
    }

    /// Select: runs a spec against the call graph.
    pub fn select(&self, spec_source: &str) -> Result<SelectionOutcome, WorkflowError> {
        Ok(select(spec_source, &self.graph, &self.modules)?)
    }

    /// Turns a selection into an IC, applying inlining compensation.
    /// `sample(N, …)` rate tags survive compensation: rates are
    /// re-applied to whichever tagged names remain in the compensated
    /// set (names replaced by their non-inlined callers lose the tag —
    /// the caller was never selected for sampling).
    pub fn make_ic(&self, outcome: &SelectionOutcome) -> IcOutcome {
        let (set, compensation) =
            compensate_inlining(&self.graph, &self.binary, &outcome.selection.set);
        let mut ic = InstrumentationConfig::from_selection(&self.graph, &set);
        ic.apply_rates(outcome.selection.sampled_names(&self.graph));
        IcOutcome {
            ic,
            duration: outcome.duration,
            compensation,
        }
    }

    /// One-call Select + post-process.
    pub fn select_ic(&self, spec_source: &str) -> Result<IcOutcome, WorkflowError> {
        let outcome = self.select(spec_source)?;
        Ok(self.make_ic(&outcome))
    }

    /// Instrument + Measure with the dynamic (XRay) workflow, reporting
    /// both turnaround costs for comparison.
    pub fn measure(
        &self,
        ic: &InstrumentationConfig,
        tool: ToolChoice,
        ranks: u32,
    ) -> Result<MeasureOutcome, WorkflowError> {
        let session = dynamic_session(&self.binary, ic, tool, ranks)?;
        let run = session.run().map_err(WorkflowError::DynCapi)?;
        let static_turnaround_ns =
            estimate_compile_time(&self.program, &self.compile_opts) + run.init_ns;
        Ok(MeasureOutcome {
            dynamic_turnaround_ns: run.init_ns,
            static_turnaround_ns,
            run,
        })
    }

    /// The recompilation estimate alone (what every static-mode
    /// adjustment costs before the program even starts).
    pub fn recompile_estimate_ns(&self) -> u64 {
        estimate_compile_time(&self.program, &self.compile_opts)
    }

    /// Instrument + Measure + Adjust in **one** run, configured by an
    /// [`AdaptiveRunBuilder`]: the session starts from `ic` (including
    /// any per-function sampling rates the IC carries), the epoch-based
    /// controller refines the active set live — dropping or *demoting to
    /// sampled* over-budget functions, probing dropped ones, growing
    /// below inefficient regions — with zero restarts and zero rebuilds.
    /// The builder's profile source drives cross-run persistence; load
    /// failures degrade to a logged cold start. Identical seeds and
    /// budgets produce byte-identical adaptation logs.
    ///
    /// The returned [`InFlightOutcome::final_ic`] carries the converged
    /// set *with* each function's final sampling rate, so it can be fed
    /// straight back into the next session.
    pub fn adaptive_run(
        &self,
        ic: &InstrumentationConfig,
        tool: ToolChoice,
        ranks: u32,
        runner: &AdaptiveRunBuilder,
    ) -> Result<InFlightOutcome, WorkflowError> {
        let mut session = dynamic_session(&self.binary, ic, tool, ranks)?;
        let out = runner.run(&mut session).map_err(WorkflowError::DynCapi)?;
        let mut final_ic =
            InstrumentationConfig::from_names(out.final_functions.iter().map(|(n, _)| n.clone()));
        final_ic.apply_rates(out.final_functions.iter().map(|(n, r)| (n.as_str(), *r)));
        Ok(InFlightOutcome {
            final_ic,
            converged_at: out.converged_at,
            first_converged_at: out.first_converged_at,
            log: out.log,
            rebuilds: 0,
            restarts: out.adaptive.restarts,
            profile: out.profile,
            warm_started: out.warm_started,
            adaptive: out.adaptive,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capi_adapt::ExpansionOptions;
    use capi_appmodel::{LinkTarget, MpiCall, ProgramBuilder};

    fn program() -> SourceProgram {
        let mut b = ProgramBuilder::new("app");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(60)
            .instructions(300)
            .calls("MPI_Init", 1)
            .calls("step", 4)
            .calls("MPI_Finalize", 1)
            .finish();
        b.function("step")
            .statements(50)
            .instructions(400)
            .cost(500)
            .calls("kernel", 10)
            .calls("tiny", 20)
            .calls("MPI_Allreduce", 1)
            .finish();
        b.function("kernel")
            .statements(90)
            .instructions(800)
            .cost(3_000)
            .flops(200)
            .loop_depth(2)
            .finish();
        // tiny is auto-inlined: selecting it exercises compensation.
        b.function("tiny")
            .statements(2)
            .flops(32)
            .loop_depth(1)
            .cost(50)
            .finish();
        b.function("MPI_Init")
            .statements(1)
            .instructions(8)
            .cost(0)
            .mpi(MpiCall::Init)
            .finish();
        b.function("MPI_Allreduce")
            .statements(1)
            .instructions(8)
            .cost(0)
            .mpi(MpiCall::Allreduce { bytes: 16 })
            .finish();
        b.function("MPI_Finalize")
            .statements(1)
            .instructions(8)
            .cost(0)
            .mpi(MpiCall::Finalize)
            .finish();
        b.build().unwrap()
    }

    #[test]
    fn full_refinement_iteration() {
        let wf = Workflow::analyze(program(), CompileOptions::o2()).unwrap();
        // Kernels spec, like the paper's evaluation.
        let ic1 = wf
            .select_ic(r#"flops(">=", 10, loopDepth(">=", 1, %%))"#)
            .unwrap();
        // tiny was selected but is inlined: removed, caller step added.
        assert!(ic1.compensation.removed_names.contains(&"tiny".to_string()));
        assert!(ic1.ic.contains("step"));
        assert!(ic1.ic.contains("kernel"));
        assert!(!ic1.ic.contains("tiny"));

        let m1 = wf.measure(&ic1.ic, ToolChoice::None, 2).unwrap();
        assert!(m1.run.run.events > 0);

        // Adjust: drop `step` (too noisy), re-measure — no recompilation.
        let mut ic2 = ic1.ic.clone();
        ic2.remove("step");
        let m2 = wf.measure(&ic2, ToolChoice::None, 2).unwrap();
        assert!(m2.run.run.events < m1.run.run.events);

        // The headline claim: dynamic turnaround ≪ static turnaround.
        assert!(m2.dynamic_turnaround_ns * 10 < m2.static_turnaround_ns);
    }

    #[test]
    fn in_flight_refinement_converges_in_one_run() {
        let wf = Workflow::analyze(program(), CompileOptions::o2()).unwrap();
        let ic = wf
            .select_ic(r#"flops(">=", 10, loopDepth(">=", 1, %%))"#)
            .unwrap()
            .ic;
        let runner = AdaptiveRunBuilder::new().epochs(4).budget_pct(4.0).seed(11);
        let a = wf.adaptive_run(&ic, ToolChoice::None, 2, &runner).unwrap();
        let b = wf.adaptive_run(&ic, ToolChoice::None, 2, &runner).unwrap();
        assert_eq!(a.restarts, 0);
        assert_eq!(a.rebuilds, 0);
        assert_eq!(a.log, b.log, "same seed/budget → byte-identical logs");
        assert_eq!(a.adaptive.per_rank_ns, b.adaptive.per_rank_ns);
        assert!(a.final_ic.len() <= ic.len());
        let last = a.adaptive.records.last().unwrap();
        assert!(last.overhead_pct <= 4.0);
    }

    #[test]
    fn in_flight_expansion_mode_is_deterministic_and_grows() {
        let mut b = ProgramBuilder::new("skewapp");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(60)
            .instructions(300)
            .calls("MPI_Init", 1)
            .calls("phase", 8)
            .calls("MPI_Finalize", 1)
            .finish();
        b.function("phase")
            .statements(50)
            .instructions(400)
            .cost(500)
            .calls("skew_kernel", 30)
            .calls("MPI_Allreduce", 1)
            .finish();
        b.function("skew_kernel")
            .statements(90)
            .instructions(800)
            .cost(3_000)
            .imbalance(150)
            .loop_depth(2)
            .finish();
        b.function("MPI_Init")
            .statements(1)
            .instructions(8)
            .cost(0)
            .mpi(MpiCall::Init)
            .finish();
        b.function("MPI_Allreduce")
            .statements(1)
            .instructions(8)
            .cost(0)
            .mpi(MpiCall::Allreduce { bytes: 16 })
            .finish();
        b.function("MPI_Finalize")
            .statements(1)
            .instructions(8)
            .cost(0)
            .mpi(MpiCall::Finalize)
            .finish();
        let wf = Workflow::analyze(b.build().unwrap(), CompileOptions::o2()).unwrap();
        // Initial IC: the phase only — the kernel below it is excluded.
        let ic = InstrumentationConfig::from_names(["phase"]);
        let runner = AdaptiveRunBuilder::new()
            .epochs(4)
            .budget_pct(40.0)
            .seed(21)
            .expansion(ExpansionOptions::default());
        let a = wf.adaptive_run(&ic, ToolChoice::None, 2, &runner).unwrap();
        let b = wf.adaptive_run(&ic, ToolChoice::None, 2, &runner).unwrap();
        assert_eq!(a.log, b.log, "byte-identical logs with expansion");
        assert_eq!(a.adaptive.per_rank_ns, b.adaptive.per_rank_ns);
        // The skewed kernel was grown into the final IC.
        assert!(
            a.final_ic.contains("skew_kernel"),
            "expansion grew the IC: log =\n{}",
            a.log
        );
        assert!(a.log.contains("expand skew_kernel"));
        // The efficiency trajectory was aggregated.
        assert!(a.adaptive.efficiency.regions() >= 1);
    }

    #[test]
    fn in_flight_profile_round_trip_warm_starts() {
        let wf = Workflow::analyze(program(), CompileOptions::o2()).unwrap();
        let ic = wf
            .select_ic(r#"flops(">=", 10, loopDepth(">=", 1, %%))"#)
            .unwrap()
            .ic;
        let runner = AdaptiveRunBuilder::new().epochs(4).budget_pct(4.0).seed(11);
        let cold = wf.adaptive_run(&ic, ToolChoice::None, 2, &runner).unwrap();
        assert!(!cold.warm_started);
        assert!(!cold.profile.functions.is_empty());
        // Inline warm start from the cold run's exported profile.
        let warm = wf
            .adaptive_run(
                &ic,
                ToolChoice::None,
                2,
                &runner
                    .clone()
                    .profile(ProfileSource::Inline(cold.profile.clone())),
            )
            .unwrap();
        assert!(warm.warm_started);
        assert!(warm.log.contains("warm start:"));
        assert_eq!(warm.final_ic, cold.final_ic, "same converged IC");
        // Path source: a cold run writes the file, a second run warm
        // starts from it; a corrupt file degrades to a logged cold
        // start.
        let dir = std::env::temp_dir().join("capi-workflow-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        std::fs::remove_file(&path).ok();
        let pathed = runner.clone().profile(ProfileSource::Path(path.clone()));
        let first = wf.adaptive_run(&ic, ToolChoice::None, 2, &pathed).unwrap();
        assert!(!first.warm_started, "no file yet: cold");
        assert!(first.log.contains("warm start unavailable:"));
        assert!(path.exists(), "profile written back");
        let second = wf.adaptive_run(&ic, ToolChoice::None, 2, &pathed).unwrap();
        assert!(second.warm_started);
        std::fs::write(&path, "{ truncated").unwrap();
        let third = wf.adaptive_run(&ic, ToolChoice::None, 2, &pathed).unwrap();
        assert!(!third.warm_started);
        assert!(
            third
                .log
                .contains("warm start unavailable: malformed or truncated profile"),
            "fallback reason logged:\n{}",
            third.log
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sample_selector_rates_flow_into_the_ic_and_the_session() {
        let wf = Workflow::analyze(program(), CompileOptions::o2()).unwrap();
        // kernel sampled 1-in-4; step fully instrumented.
        let ic = wf
            .select_ic(r#"join(sample(4, byName("^kernel$", %%)), byName("^step$", %%))"#)
            .unwrap()
            .ic;
        assert_eq!(ic.rate_of("kernel"), 4);
        assert_eq!(ic.rate_of("step"), 1);
        use crate::ic::InstrumentationMode;
        assert_eq!(ic.mode_of("kernel"), InstrumentationMode::Sampled(4));

        // The sampled session delivers fewer events than the full one.
        let sampled = wf.measure(&ic, ToolChoice::None, 2).unwrap();
        let mut full = ic.clone();
        full.set_mode("kernel", InstrumentationMode::Full);
        let full = wf.measure(&full, ToolChoice::None, 2).unwrap();
        assert!(sampled.run.run.events < full.run.run.events);
        assert!(sampled.run.run.sampled_skips > 0);
        assert_eq!(full.run.run.sampled_skips, 0);
    }

    #[test]
    fn sample_tag_does_not_survive_inlining_replacement() {
        let wf = Workflow::analyze(program(), CompileOptions::o2()).unwrap();
        // tiny is inlined away; compensation swaps in its caller `step`,
        // which must NOT inherit tiny's sampling tag.
        let ic = wf
            .select_ic(r#"sample(8, byName("^tiny$", %%))"#)
            .unwrap()
            .ic;
        assert!(ic.contains("step"));
        assert!(!ic.contains("tiny"));
        assert_eq!(ic.rate_of("step"), 1);
        assert!(ic.sampled().next().is_none());
    }

    #[test]
    fn talp_measurement_through_workflow() {
        let wf = Workflow::analyze(program(), CompileOptions::o2()).unwrap();
        let ic = wf.select_ic(r#"byName("^kernel$", %%)"#).unwrap();
        let m = wf
            .measure(&ic.ic, ToolChoice::Talp(Default::default()), 2)
            .unwrap();
        assert!(m.run.run.events > 0);
    }

    #[test]
    fn selection_stage_counts_exposed() {
        let wf = Workflow::analyze(program(), CompileOptions::o2()).unwrap();
        let out = wf
            .select("a = inlineSpecified(%%)\nb = inSystemHeader(%%)\njoin(%a, %b)")
            .unwrap();
        assert_eq!(out.selection.stages.len(), 3);
    }
}

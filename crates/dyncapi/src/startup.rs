//! The DynCaPI startup sequence and measurement session.
//!
//! Reproduces the paper's Fig. 3 runtime column: the application starts,
//! the XRay runtime resolves sled tables (main executable first, then
//! each DSO through the xray-dso registration path), DynCaPI reads the
//! IC, maps function IDs to names, patches exactly the selected
//! functions, and installs the measurement adapter. Every step
//! contributes its virtual cost to `T_init` — the initialization column
//! of Table II.

use crate::adapters::{AdapterEventLoss, ScorepAdapter, TalpAdapter};
use crate::symres::{resolve_ids, SymbolResolution, SymresStats};
use capi_exec::{Engine, ExecError, OverheadModel, RunReport};
use capi_mpisim::{CostModel, World};
use capi_objmodel::{AddressSpace, Binary, LoadError, Process};
use capi_scorep::{FilterFile, ScorepConfig, ScorepRuntime};
use capi_talp::{Talp, TalpConfig};
use capi_xray::{
    instrument_object, InstrumentedObject, PackedId, PassOptions, PatchDelta, TrampolineSet,
    XRayError, XRayRuntime,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Which measurement tool the session drives.
#[derive(Clone, Debug)]
pub enum ToolChoice {
    /// No measurement: patched sleds dispatch into a null handler.
    None,
    /// Score-P profiling through the generic address interface plus
    /// symbol injection.
    Scorep(ScorepConfig),
    /// TALP region monitoring.
    Talp(TalpConfig),
}

/// Virtual costs of the startup steps (feeds `T_init`).
#[derive(Clone, Copy, Debug)]
pub struct InitCostModel {
    /// Resolving one sled entry at registration.
    pub per_sled_resolution_ns: u64,
    /// Rewriting one sled during patching.
    pub per_sled_patch_ns: u64,
    /// One `mprotect` call.
    pub per_mprotect_ns: u64,
    /// Scanning one symbol during `nm` collection.
    pub per_symbol_nm_ns: u64,
    /// Cross-checking one function ID against the symbol map.
    pub per_fid_map_ns: u64,
    /// Registering one DSO with the XRay runtime.
    pub per_dso_registration_ns: u64,
    /// TALP/DLB shared-memory setup.
    pub talp_init_ns: u64,
}

impl Default for InitCostModel {
    fn default() -> Self {
        Self {
            per_sled_resolution_ns: 18,
            per_sled_patch_ns: 55,
            per_mprotect_ns: 1_500,
            per_symbol_nm_ns: 55,
            per_fid_map_ns: 35,
            per_dso_registration_ns: 80_000,
            talp_init_ns: 400_000,
        }
    }
}

/// Full session configuration.
#[derive(Clone, Debug)]
pub struct DynCapiConfig {
    /// Measurement tool.
    pub tool: ToolChoice,
    /// The instrumentation configuration. `None` patches everything
    /// (the paper's `xray full` row).
    pub ic: Option<FilterFile>,
    /// Resolved packed `(object, function)` IDs carried in the IC — the
    /// paper's §VI-B(a) suggested future development: "determining the
    /// mapping statically and adding the function IDs to the IC file"
    /// sidesteps hidden-symbol resolution entirely. IDs listed here are
    /// patched even when their names cannot be resolved.
    pub ic_packed_ids: Vec<u32>,
    /// Per-function sampling rates carried in the IC: `(name, 1-in-N)`.
    /// Names that resolve and patch are set to `Sampled(N)` right after
    /// the initial patch pass; rates below 2 are ignored. Names that do
    /// not resolve are skipped silently (same hidden-symbol rule as
    /// plain IC entries).
    pub ic_rates: Vec<(String, u32)>,
    /// Redundancy-suppression band in parts-per-million, forwarded to
    /// the executor. 0 disables suppression entirely (the byte-identical
    /// default).
    pub redundancy_ppm: u32,
    /// XRay pass options; DynCaPI normally prepares *all* functions
    /// without filtering (paper §IV).
    pub pass: PassOptions,
    /// Startup cost model.
    pub init_costs: InitCostModel,
    /// Runtime overhead model for the executor.
    pub overhead: OverheadModel,
    /// Number of simulated MPI ranks.
    pub ranks: u32,
    /// MPI communication cost model.
    pub mpi_cost: CostModel,
}

impl Default for DynCapiConfig {
    fn default() -> Self {
        Self {
            tool: ToolChoice::None,
            ic: None,
            ic_packed_ids: Vec::new(),
            ic_rates: Vec::new(),
            redundancy_ppm: 0,
            pass: PassOptions::instrument_all(),
            init_costs: InitCostModel::default(),
            overhead: OverheadModel::default(),
            ranks: 8,
            mpi_cost: CostModel::default(),
        }
    }
}

/// Session errors.
#[derive(Clone, Debug)]
pub enum DynCapiError {
    /// Loading the binary failed.
    Load(LoadError),
    /// XRay registration/patching failed.
    XRay(XRayError),
    /// The executor failed.
    Exec(ExecError),
}

impl fmt::Display for DynCapiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynCapiError::Load(e) => write!(f, "load: {e}"),
            DynCapiError::XRay(e) => write!(f, "xray: {e}"),
            DynCapiError::Exec(e) => write!(f, "exec: {e}"),
        }
    }
}

impl std::error::Error for DynCapiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DynCapiError::Load(e) => Some(e),
            DynCapiError::XRay(e) => Some(e),
            DynCapiError::Exec(e) => Some(e),
        }
    }
}

impl From<LoadError> for DynCapiError {
    fn from(e: LoadError) -> Self {
        DynCapiError::Load(e)
    }
}

impl From<XRayError> for DynCapiError {
    fn from(e: XRayError) -> Self {
        DynCapiError::XRay(e)
    }
}

impl From<ExecError> for DynCapiError {
    fn from(e: ExecError) -> Self {
        DynCapiError::Exec(e)
    }
}

/// What startup did (patching report, §VI-B style).
#[derive(Clone, Debug, Default)]
pub struct StartupReport {
    /// Total virtual initialization cost (`T_init`).
    pub init_ns: u64,
    /// Sleds across all objects.
    pub total_sleds: usize,
    /// Functions with sleds.
    pub instrumented_functions: usize,
    /// Functions actually patched.
    pub patched_functions: usize,
    /// Sled rewrites performed.
    pub sleds_patched: u64,
    /// Functions whose sampling rate was set from the IC at startup.
    pub rates_set: u64,
    /// `mprotect` calls issued while patching.
    pub mprotect_calls: u64,
    /// IC entries that matched no symbol in any object — the inlined
    /// functions inlining compensation exists for.
    pub selected_missing: Vec<String>,
    /// Symbol-resolution statistics (hidden-symbol counts).
    pub symres: SymresStats,
    /// Number of patchable DSOs.
    pub dsos: usize,
}

/// A ready-to-run measurement session.
pub struct Session {
    /// The simulated process.
    pub process: Process,
    /// The XRay runtime (handler installed, sleds patched).
    pub runtime: Arc<XRayRuntime>,
    /// Score-P runtime, when the tool is Score-P.
    pub scorep: Option<Arc<ScorepRuntime>>,
    /// Score-P adapter (for its unmapped-event count).
    pub scorep_adapter: Option<Arc<ScorepAdapter>>,
    /// TALP instance, when the tool is TALP.
    pub talp: Option<Arc<Talp>>,
    /// TALP adapter (for its anomaly stats).
    pub talp_adapter: Option<Arc<TalpAdapter>>,
    /// Startup report.
    pub report: StartupReport,
    /// Symbol resolution (ID→name).
    pub symbols: SymbolResolution,
    pub(crate) config: DynCapiConfig,
}

/// Runs the full DynCaPI startup over a compiled binary.
pub fn startup(binary: &Binary, config: DynCapiConfig) -> Result<Session, DynCapiError> {
    let mut report = StartupReport::default();
    let mut process = Process::launch_binary(binary)?;
    let runtime = Arc::new(XRayRuntime::new());

    // XRay pass over every object ("all available functions are prepared
    // for instrumentation without filtering").
    let mut instrumented: Vec<(u8, InstrumentedObject)> = Vec::new();
    let main_inst = instrument_object(process.object(0).unwrap().image.clone(), &config.pass);
    let main_id = runtime.register_main(
        main_inst.clone(),
        process.object(0).unwrap(),
        TrampolineSet::absolute(),
    )?;
    instrumented.push((main_id, main_inst));
    let dso_indices: Vec<usize> = process
        .loaded()
        .map(|(i, _)| i)
        .filter(|&i| i != 0)
        .collect();
    for pi in dso_indices {
        let lo = process.object(pi).unwrap();
        let inst = instrument_object(lo.image.clone(), &config.pass);
        let oid = runtime.register_dso(inst.clone(), lo, pi, TrampolineSet::pic())?;
        instrumented.push((oid, inst));
        report.dsos += 1;
        report.init_ns += config.init_costs.per_dso_registration_ns;
    }

    report.total_sleds = instrumented
        .iter()
        .map(|(_, i)| i.sleds.total_sleds())
        .sum();
    report.instrumented_functions = instrumented
        .iter()
        .map(|(_, i)| i.sleds.num_functions())
        .sum();
    report.init_ns += report.total_sleds as u64 * config.init_costs.per_sled_resolution_ns;

    // ID → name resolution (nm + memory map + cross-check).
    let inst_refs: Vec<(u8, &InstrumentedObject)> =
        instrumented.iter().map(|(id, i)| (*id, i)).collect();
    let symbols = resolve_ids(&process, &runtime, &inst_refs);
    report.init_ns += symbols.stats.symbols_scanned as u64 * config.init_costs.per_symbol_nm_ns;
    report.init_ns += (symbols.stats.resolved + symbols.stats.unresolved_hidden) as u64
        * config.init_costs.per_fid_map_ns;
    report.symres = symbols.stats.clone();

    // Patch according to the IC.
    let mem_before = process.memory.stats;
    match &config.ic {
        None => {
            // xray full: patch everything, object by object.
            for (oid, _) in &instrumented {
                let n = runtime.patch_all(&mut process.memory, *oid)?;
                report.sleds_patched += n as u64;
            }
            report.patched_functions = runtime.patched_functions();
        }
        Some(ic) => {
            let patch =
                patch_ic_selection(&runtime, &mut process.memory, &config, &symbols, &inst_refs)?;
            report.sleds_patched += patch.sleds_patched;
            report.patched_functions += patch.functions;
            report.rates_set = patch.rates_set;
            report.init_ns += patch.rates_set * config.init_costs.per_sled_patch_ns;
            // IC entries that exist nowhere in the binary: inlined away.
            let present = binary.symbol_names();
            report.selected_missing = ic
                .literal_includes()
                .into_iter()
                .filter(|want| !present.contains(want))
                .map(str::to_string)
                .collect();
        }
    }
    let mem_after = process.memory.stats;
    report.mprotect_calls = mem_after.mprotect_calls - mem_before.mprotect_calls;
    report.init_ns += report.sleds_patched * config.init_costs.per_sled_patch_ns;
    report.init_ns += report.mprotect_calls * config.init_costs.per_mprotect_ns;

    // Tool setup + handler installation.
    let all_ids: Vec<PackedId> = instrumented
        .iter()
        .flat_map(|(oid, inst)| {
            inst.sleds
                .entries
                .iter()
                .filter_map(|e| PackedId::pack(*oid, e.fid).ok())
        })
        .collect();

    let mut scorep = None;
    let mut scorep_adapter = None;
    let mut talp = None;
    let mut talp_adapter = None;
    match &config.tool {
        ToolChoice::None => {}
        ToolChoice::Scorep(cfg) => {
            let rt = Arc::new(ScorepRuntime::new(config.ranks, &process, *cfg));
            // Symbol injection: translate every DSO's exported symbols so
            // Score-P can resolve shared-object addresses (§V-C1).
            for (pi, lo) in process.loaded() {
                if pi == 0 {
                    continue;
                }
                rt.inject_symbols(
                    lo.image
                        .symtab
                        .exported()
                        .map(|s| (lo.base + s.offset, s.name.clone())),
                );
            }
            report.init_ns += rt.init_cost_ns;
            let adapter = Arc::new(ScorepAdapter::new(rt.clone(), &runtime, &all_ids));
            runtime.set_handler(adapter.clone());
            scorep = Some(rt);
            scorep_adapter = Some(adapter);
        }
        ToolChoice::Talp(cfg) => {
            let t = Arc::new(Talp::new(config.ranks, cfg.clone()));
            report.init_ns += config.init_costs.talp_init_ns;
            let adapter = Arc::new(TalpAdapter::new(t.clone(), symbols.names.clone()));
            runtime.set_handler(adapter.clone());
            talp = Some(t);
            talp_adapter = Some(adapter);
        }
    }

    Ok(Session {
        process,
        runtime,
        scorep,
        scorep_adapter,
        talp,
        talp_adapter,
        report,
        symbols,
        config,
    })
}

/// What [`patch_ic_selection`] patched.
#[derive(Default)]
pub(crate) struct IcPatch {
    /// Functions selected across the given objects.
    pub functions: usize,
    /// Sled rewrites performed.
    pub sleds_patched: u64,
    /// Functions whose sampling rate was set from the IC.
    pub rates_set: u64,
}

/// Patches, in each of `objects`, the functions the session's IC selects
/// and publishes the sampling rates the IC carries for them — the one
/// definition of "what does the IC select" shared by [`startup`] and a
/// mid-run `dlopen`. Selected are IC-carried packed IDs (§VI-B(a) future
/// development: resolved statically, patched hidden or not) and resolved
/// names the filter includes; hidden symbols cannot be checked against
/// the IC and stay unpatched. Without an IC every function is selected.
pub(crate) fn patch_ic_selection(
    runtime: &XRayRuntime,
    memory: &mut AddressSpace,
    config: &DynCapiConfig,
    symbols: &SymbolResolution,
    objects: &[(u8, &InstrumentedObject)],
) -> Result<IcPatch, XRayError> {
    let packed: HashSet<u32> = config.ic_packed_ids.iter().copied().collect();
    // The first non-trivial rate listed for a name is the one applied.
    let mut rates: HashMap<&str, u32> = HashMap::new();
    for (name, rate) in &config.ic_rates {
        if *rate > 1 {
            rates.entry(name).or_insert(*rate);
        }
    }
    let mut patch = IcPatch::default();
    let mut set_rate: Vec<(PackedId, u32)> = Vec::new();
    for (oid, inst) in objects {
        let mut fids = Vec::new();
        for entry in &inst.sleds.entries {
            let Ok(id) = PackedId::pack(*oid, entry.fid) else {
                continue;
            };
            let Some(ic) = &config.ic else {
                fids.push(entry.fid);
                continue;
            };
            if packed.contains(&id.raw()) {
                fids.push(entry.fid);
                continue;
            }
            let Some(name) = symbols.name_of(id) else {
                continue;
            };
            if ic.is_included(name) {
                fids.push(entry.fid);
                if let Some(&rate) = rates.get(name) {
                    set_rate.push((id, rate));
                }
            }
        }
        // One mprotect pair per object, then the selected sleds.
        patch.sleds_patched += u64::from(runtime.patch_functions(memory, *oid, &fids)?);
        patch.functions += fids.len();
    }
    // Apply IC-carried sampling rates in one batch; rate-only
    // repatches touch no sled bytes, so no mprotect pair.
    if !set_rate.is_empty() {
        let delta = PatchDelta {
            set_rate,
            ..Default::default()
        };
        patch.rates_set = runtime.repatch(memory, &delta)?.rates_set;
    }
    Ok(patch)
}

/// Result of running a session.
#[derive(Clone, Debug)]
pub struct SessionRun {
    /// Executor report.
    pub run: RunReport,
    /// `T_init` in virtual ns.
    pub init_ns: u64,
    /// `T_total` = init + slowest rank.
    pub total_ns: u64,
    /// Events the tool adapter could not deliver, session total so far.
    pub adapter_loss: AdapterEventLoss,
}

impl Session {
    /// Events the tool adapter received but could not hand to its tool
    /// (all zero without a tool).
    pub fn adapter_event_loss(&self) -> AdapterEventLoss {
        AdapterEventLoss {
            scorep_events_unmapped: (self.scorep_adapter.as_ref())
                .map_or(0, |a| a.events_unmapped()),
            talp_events_dropped: (self.talp_adapter.as_ref())
                .map_or(0, |a| a.stats().events_dropped),
        }
    }

    /// Executes the program once across all configured ranks.
    pub fn run(&self) -> Result<SessionRun, DynCapiError> {
        let world = World::new(self.config.ranks, self.config.mpi_cost);
        if let Some(talp) = &self.talp {
            world.add_hook(talp.clone());
        }
        let engine = Engine::prepare(&self.process, &self.runtime, self.config.overhead)?
            .with_redundancy_ppm(self.config.redundancy_ppm);
        let run = engine.run(&world)?;
        Ok(SessionRun {
            init_ns: self.report.init_ns,
            total_ns: self.report.init_ns + run.total_ns,
            run,
            adapter_loss: self.adapter_event_loss(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capi_appmodel::{LinkTarget, MpiCall, ProgramBuilder, Visibility};
    use capi_objmodel::{compile, CompileOptions};

    fn binary() -> Binary {
        let mut b = ProgramBuilder::new("app");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(50)
            .instructions(400)
            .cost(1_000)
            .calls("MPI_Init", 1)
            .calls("step", 5)
            .calls("MPI_Finalize", 1)
            .finish();
        b.function("step")
            .statements(40)
            .instructions(300)
            .cost(500)
            .calls("solve", 2)
            .calls("MPI_Allreduce", 1)
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
            .mpi(MpiCall::Allreduce { bytes: 8 })
            .finish();
        b.function("MPI_Finalize")
            .statements(1)
            .instructions(8)
            .cost(0)
            .mpi(MpiCall::Finalize)
            .finish();
        b.unit("s.cc", LinkTarget::Dso("libsolver.so".into()));
        b.function("solve")
            .statements(70)
            .instructions(900)
            .cost(20_000)
            .imbalance(30)
            .loop_depth(2)
            .calls("Amul", 50)
            .finish();
        b.function("Amul")
            .statements(90)
            .instructions(1200)
            .cost(3_000)
            .loop_depth(3)
            .finish();
        b.function("hidden_helper")
            .statements(60)
            .instructions(400)
            .visibility(Visibility::Hidden)
            .finish();
        let p = b.build().unwrap();
        compile(&p, &CompileOptions::o2()).unwrap()
    }

    #[test]
    fn full_patching_patches_everything_resolvable_or_not() {
        let bin = binary();
        let s = startup(&bin, DynCapiConfig::default()).unwrap();
        assert_eq!(s.report.patched_functions, s.report.instrumented_functions);
        assert!(s.report.symres.unresolved_hidden >= 1);
        assert!(s.report.init_ns > 0);
        assert_eq!(s.report.dsos, 1);
    }

    #[test]
    fn ic_patching_selects_exactly_and_skips_hidden() {
        let bin = binary();
        let cfg = DynCapiConfig {
            ic: Some(FilterFile::include_only(["solve", "Amul", "hidden_helper"])),
            ..Default::default()
        };
        let s = startup(&bin, cfg).unwrap();
        // hidden_helper has a sled but no resolvable name: not patched.
        assert_eq!(s.report.patched_functions, 2);
    }

    #[test]
    fn missing_ic_entries_reported_as_inlined() {
        let bin = binary();
        let cfg = DynCapiConfig {
            ic: Some(FilterFile::include_only(["solve", "ghost_inlined_fn"])),
            ..Default::default()
        };
        let s = startup(&bin, cfg).unwrap();
        assert_eq!(
            s.report.selected_missing,
            vec!["ghost_inlined_fn".to_string()]
        );
    }

    #[test]
    fn scorep_session_profiles_selected_functions() {
        let bin = binary();
        let cfg = DynCapiConfig {
            tool: ToolChoice::Scorep(Default::default()),
            ic: Some(FilterFile::include_only(["solve", "Amul"])),
            ranks: 2,
            ..Default::default()
        };
        let s = startup(&bin, cfg).unwrap();
        let out = s.run().unwrap();
        assert!(out.run.events > 0);
        let scorep = s.scorep.as_ref().unwrap();
        let merged = scorep.merged();
        let names = scorep.region_names();
        assert!(names.iter().any(|n| n == "solve"));
        assert!(names.iter().any(|n| n == "Amul"));
        // DSO addresses resolved thanks to symbol injection.
        assert_eq!(scorep.stats().unresolved_addresses, 0);
        assert!(!merged.per_region.is_empty());
    }

    #[test]
    fn talp_session_produces_region_report() {
        let bin = binary();
        let cfg = DynCapiConfig {
            tool: ToolChoice::Talp(Default::default()),
            ic: Some(FilterFile::include_only(["main", "solve"])),
            ranks: 2,
            ..Default::default()
        };
        let s = startup(&bin, cfg).unwrap();
        let out = s.run().unwrap();
        assert!(out.run.events > 0);
        let talp = s.talp.as_ref().unwrap();
        let report = talp.final_report().expect("finalize ran");
        assert!(report.iter().any(|r| r.name == "solve"));
        // main is entered before MPI_Init: the paper's pre-init failure.
        let stats = s.talp_adapter.as_ref().unwrap().stats();
        assert_eq!(stats.regions_failed_pre_init, 1);
        assert!(!report.iter().any(|r| r.name == "main"));
    }

    #[test]
    fn ic_rates_set_sampling_at_startup() {
        let bin = binary();
        let cfg = DynCapiConfig {
            tool: ToolChoice::Scorep(Default::default()),
            ic: Some(FilterFile::include_only(["solve", "Amul"])),
            ic_rates: vec![
                ("Amul".to_string(), 4),
                ("ghost".to_string(), 8), // not in the binary: ignored
                ("solve".to_string(), 1), // trivial rate: ignored
            ],
            ranks: 2,
            ..Default::default()
        };
        let s = startup(&bin, cfg).unwrap();
        assert_eq!(s.report.rates_set, 1);
        let amul = s
            .symbols
            .names
            .iter()
            .find(|(_, n)| n.as_str() == "Amul")
            .map(|(&id, _)| id)
            .unwrap();
        assert_eq!(s.runtime.sample_rate(amul), 4);

        // The rate shows up as reduced event volume against a full run.
        let full_cfg = DynCapiConfig {
            tool: ToolChoice::Scorep(Default::default()),
            ic: Some(FilterFile::include_only(["solve", "Amul"])),
            ranks: 2,
            ..Default::default()
        };
        let full = startup(&bin, full_cfg).unwrap().run().unwrap();
        let sampled = s.run().unwrap();
        assert!(sampled.run.events < full.run.events);
        assert!(sampled.run.sampled_skips > 0);
        // Startup charges one sled-rewrite cost per rate set.
        assert!(s.report.init_ns > 0);
    }

    #[test]
    fn packed_ids_in_ic_patch_hidden_functions() {
        // §VI-B(a) future development: with the ID carried in the IC,
        // even an unresolvable hidden function can be selected.
        let bin = binary();
        // First session: discover the hidden function's packed ID.
        let probe = startup(&bin, DynCapiConfig::default()).unwrap();
        assert!(!probe.symbols.unresolved.is_empty());
        let hidden_id = probe.symbols.unresolved[0];
        // Second session: a name-empty IC that carries the packed ID.
        let cfg = DynCapiConfig {
            ic: Some(FilterFile::include_only([])),
            ic_packed_ids: vec![hidden_id.raw()],
            ..Default::default()
        };
        let s = startup(&bin, cfg).unwrap();
        assert_eq!(s.report.patched_functions, 1);
        assert!(s.runtime.is_patched(hidden_id));
    }

    #[test]
    fn reloaded_dso_gets_the_ic_selection_it_got_at_startup() {
        let bin = binary();
        let probe = startup(&bin, DynCapiConfig::default()).unwrap();
        let hidden_id = probe.symbols.unresolved[0];
        let dso_oid = hidden_id.object();
        assert_ne!(dso_oid, 0, "the hidden function lives in the DSO");
        // Literal names, a packed ID for the hidden function, two rates.
        let cfg = DynCapiConfig {
            ic: Some(FilterFile::include_only(["main", "solve", "Amul"])),
            ic_packed_ids: vec![hidden_id.raw()],
            ic_rates: vec![("Amul".to_string(), 4), ("solve".to_string(), 3)],
            ..Default::default()
        };
        let mut s = startup(&bin, cfg).unwrap();
        assert_eq!(s.report.rates_set, 2);
        let dso_state = |s: &Session| -> Vec<(PackedId, u32)> {
            s.runtime
                .patched_ids()
                .into_iter()
                .filter(|id| id.object() == dso_oid)
                .map(|id| (id, s.runtime.sample_rate(id)))
                .collect()
        };
        let at_startup = dso_state(&s);
        let mut rates: Vec<u32> = at_startup.iter().map(|&(_, r)| r).collect();
        rates.sort_unstable();
        assert_eq!(rates, vec![1, 3, 4], "hidden_helper, solve, Amul");

        // dlclose + dlopen mid-run: same patched IDs, same rates.
        assert_eq!(s.unload_dso("libsolver.so").unwrap(), Some(dso_oid));
        assert!(dso_state(&s).is_empty());
        let load = s.load_dso(Arc::new(bin.dsos[0].clone()), false);
        assert_eq!(load.result.unwrap(), dso_oid);
        assert_eq!(dso_state(&s), at_startup);
        assert_eq!(s.report.rates_set, 4);
    }

    #[test]
    fn overhead_ordering_vanilla_inactive_selected_full() {
        let bin = binary();
        // Vanilla: no sleds at all (never-instrument everything).
        let vanilla_cfg = DynCapiConfig {
            pass: PassOptions {
                instruction_threshold: u32::MAX,
                ignore_loops: true,
                ..PassOptions::default()
            },
            ..Default::default()
        };
        let vanilla = startup(&bin, vanilla_cfg).unwrap().run().unwrap();

        let inactive_cfg = DynCapiConfig {
            ic: Some(FilterFile::include_only([])), // sleds present, none patched
            ..Default::default()
        };
        let inactive = startup(&bin, inactive_cfg).unwrap().run().unwrap();

        let full_cfg = DynCapiConfig {
            tool: ToolChoice::Scorep(Default::default()),
            ic: None,
            ..Default::default()
        };
        let full = startup(&bin, full_cfg).unwrap().run().unwrap();

        // Dormant sleds ≈ vanilla (body time only; compare run time).
        let rel = inactive.run.total_ns as f64 / vanilla.run.total_ns as f64;
        assert!(rel < 1.01, "inactive sleds must be near-zero: {rel}");
        assert!(full.run.total_ns > inactive.run.total_ns);
        assert!(full.init_ns > inactive.init_ns);
    }
}

//! `openfoam_cold` and `openfoam_warm`: one whole adaptive run of the
//! OpenFOAM model — select → startup → patch → epochs → adapt → repatch
//! → save — cold, and warm-started from a saved profile.
//!
//! End to end the run goes through `Workflow::select_ic`,
//! `dynamic_session` and `AdaptiveRunBuilder::run`. The traced run
//! (tier T1) re-drives the same loop by hand from the public functions
//! the builder itself calls, with a span around each, and must
//! reproduce the builder's per-epoch outputs.

use crate::goldens::Golden;
use crate::trace::{self, Tracer};
use crate::{
    fingerprint, idle_repatch_probe, out_dir, probe_calls, require_threads, stats, timed_loop,
    Checks, EndToEndSamples, Measured, Size, WorkloadResult,
};
use capi::{dynamic_session, InstrumentationConfig, Workflow};
use capi_adapt::{CallChildren, EpochView, FuncSample, RegionSample};
use capi_dyncapi::{
    efficiency_summary, resolve_ids, AdaptiveRunBuilder, ProfileSource, Session, TalpAdapter,
    ToolChoice,
};
use capi_exec::{Engine, EpochSpec, OverheadModel};
use capi_metacg::whole_program_callgraph;
use capi_mpisim::{CostModel, World};
use capi_objmodel::{compile, CompileOptions, Process};
use capi_obs::Telemetry;
use capi_persist::{plan_object_matches, InstrumentationProfile, ObjectMatch};
use capi_talp::{EfficiencyReport, Talp, TalpConfig};
use capi_workloads::{openfoam, specs, OpenFoamParams};
use capi_xray::{
    instrument_object, InstrumentedObject, PackedId, PassOptions, TrampolineSet, XRayRuntime,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which of the two workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// No profile on disk: select, start, adapt from scratch, save.
    Cold,
    /// A profile from a prior cold run on disk: load, match, seed, one
    /// warm repatch, adapt, save.
    Warm,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "openfoam_cold",
            Kind::Warm => "openfoam_warm",
        }
    }
}

/// Simulated MPI ranks. One, like `lulesh_events`: a run at two ranks
/// takes 0.33 s or 0.58 s depending on what the box did in the minute
/// before (`capi-mpisim`'s collective wake-ups crossing vCPUs), which
/// no bound on `run_wall_s` survives. See `README.md`.
const RANKS: u32 = 1;
/// Epochs the run is divided into.
const EPOCHS: usize = 12;
/// Fixture builds per run; `setup_s` is their median. A warm fixture
/// takes ten times as long to build as a cold one.
fn setups(kind: Kind) -> usize {
    match kind {
        Kind::Cold => 5,
        Kind::Warm => 3,
    }
}
/// Timed iterations a run makes at least.
const MIN_TIMED: u32 = 2;

fn scale(size: Size) -> usize {
    match size {
        Size::Full => 60_000,
        Size::Quick => 6_000,
    }
}

fn workflow(scale: usize) -> Result<Workflow, String> {
    let program = openfoam(&OpenFoamParams {
        scale,
        time_steps: 24,
        ..Default::default()
    });
    Workflow::analyze(program, CompileOptions::o2()).map_err(|e| format!("analyze: {e}"))
}

fn builder(seed: u64, path: &Path) -> AdaptiveRunBuilder {
    AdaptiveRunBuilder::new()
        .epochs(EPOCHS)
        .budget_pct(5.0)
        .max_sample_rate(16)
        .seed(seed)
        .profile(ProfileSource::Path(path.to_path_buf()))
}

fn session(wf: &Workflow, ic: &InstrumentationConfig) -> Result<Session, String> {
    dynamic_session(
        &wf.binary,
        ic,
        ToolChoice::Talp(TalpConfig::default()),
        RANKS,
    )
    .map_err(|e| format!("dynamic_session: {e}"))
}

/// What set-up builds: the analysed program and, for the warm workload,
/// the IC and the profile a cold run saved.
struct Fixture {
    wf: Workflow,
    warm: Option<(InstrumentationConfig, String)>,
}

impl Fixture {
    fn build(kind: Kind, size: Size, seed: u64, path: &Path) -> Result<Self, String> {
        let wf = workflow(scale(size))?;
        let warm = match kind {
            Kind::Cold => None,
            Kind::Warm => {
                let ic = wf
                    .select_ic(specs::MPI)
                    .map_err(|e| format!("select_ic: {e}"))?
                    .ic;
                let _ = std::fs::remove_file(path);
                let mut s = session(&wf, &ic)?;
                builder(seed, path)
                    .run(&mut s)
                    .map_err(|e| format!("cold run: {e}"))?;
                let profile = std::fs::read_to_string(path)
                    .map_err(|e| format!("cold run saved no profile: {e}"))?;
                Some((ic, profile))
            }
        };
        Ok(Self { wf, warm })
    }

    /// Puts the profile file in the state an iteration starts from:
    /// absent (cold) or the cold run's bytes (warm).
    fn stage_profile(&self, path: &Path) -> Result<(), String> {
        match &self.warm {
            None => {
                let _ = std::fs::remove_file(path);
                Ok(())
            }
            Some((_, profile)) => {
                std::fs::write(path, profile).map_err(|e| format!("stage profile: {e}"))
            }
        }
    }
}

/// What one iteration produced.
struct IterOut {
    turnaround_s: f64,
    run_wall_s: f64,
    outputs: Outputs,
    /// The session the iteration ran, in its final state.
    session: Session,
}

/// The deterministic outputs of one iteration.
struct Outputs {
    golden: Golden,
    log: String,
    warm_started: bool,
    restarts: u32,
}

fn golden_of(events: u64, epochs: Vec<(u64, u64)>, runtime: &XRayRuntime) -> Golden {
    let patched = runtime.patched_ids();
    Golden {
        events,
        epochs,
        patched: patched.len() as u64,
        fingerprint: fingerprint(patched.iter().map(|id| u64::from(id.raw()))),
    }
}

/// The end-to-end iteration: what a user runs.
fn iteration(
    fx: &Fixture,
    seed: u64,
    path: &Path,
    telemetry: Option<Telemetry>,
) -> Result<IterOut, String> {
    let t = Instant::now();
    let selected;
    let ic = match &fx.warm {
        Some((ic, _)) => ic,
        None => {
            selected = fx
                .wf
                .select_ic(specs::MPI)
                .map_err(|e| format!("select_ic: {e}"))?;
            &selected.ic
        }
    };
    let mut session = session(&fx.wf, ic)?;
    let turnaround_s = t.elapsed().as_secs_f64();
    let mut runner = builder(seed, path);
    if let Some(tel) = telemetry {
        runner = runner.telemetry(tel);
    }
    let t = Instant::now();
    let out = runner
        .run(&mut session)
        .map_err(|e| format!("adaptive run: {e}"))?;
    let run_wall_s = t.elapsed().as_secs_f64();
    let epochs = out
        .adaptive
        .records
        .iter()
        .map(|r| (r.events, r.active_after as u64))
        .collect();
    let outputs = Outputs {
        golden: golden_of(out.adaptive.events, epochs, &session.runtime),
        log: out.log,
        warm_started: out.warm_started,
        restarts: out.adaptive.restarts,
    };
    Ok(IterOut {
        turnaround_s,
        run_wall_s,
        outputs,
        session,
    })
}

/// Checks one iteration's outputs: against the golden, against the
/// first iteration, and the saved profile against itself.
fn check_outputs(
    checks: &mut Checks,
    kind: Kind,
    it: u32,
    out: &Outputs,
    first: Option<&Outputs>,
    pinned: Option<&Golden>,
    path: &Path,
) -> Result<(), String> {
    checks.ops(if kind == Kind::Cold { 3 } else { 2 });
    checks.check(out.restarts == 0, || {
        format!("iteration {it}: {} restarts", out.restarts)
    });
    checks.check(out.warm_started == (kind == Kind::Warm), || {
        format!("iteration {it}: warm_started = {}", out.warm_started)
    });
    checks.golden(pinned, &out.golden, it);
    if let Some(first) = first {
        checks.check(first.golden == out.golden, || {
            format!("iteration {it}: outputs differ from iteration 0")
        });
        checks.check(first.log == out.log, || {
            format!("iteration {it}: adaptation log differs from iteration 0")
        });
    }
    let saved = std::fs::read_to_string(path).map_err(|e| format!("saved profile: {e}"))?;
    let resaved = InstrumentationProfile::parse(&saved).map(|p| p.to_json_string());
    checks.check(resaved.as_ref() == Ok(&saved), || {
        format!("iteration {it}: saved profile does not re-save byte-identically")
    });
    Ok(())
}

/// Runs the workload, end to end or traced.
pub fn run(run: &mut WorkloadResult, pinned: Option<&Golden>, kind: Kind) -> Result<(), String> {
    run.threads = require_threads(kind.name(), RANKS)?;
    let path = profile_path(kind);
    let result = if run.cfg.traced {
        traced(run, pinned, kind, &path)
    } else {
        end_to_end(run, pinned, kind, &path)
    };
    let _ = std::fs::remove_file(&path);
    result
}

fn end_to_end(
    run: &mut WorkloadResult,
    pinned: Option<&Golden>,
    kind: Kind,
    path: &Path,
) -> Result<(), String> {
    let cfg = run.cfg;
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..setups(kind) {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(Fixture::build(kind, cfg.size, cfg.seed, path)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let fx = fixture.expect("at least one set-up");

    let mut samples = EndToEndSamples {
        setup_s,
        ..Default::default()
    };
    let calls = probe_calls(cfg.size);
    let mut first: Option<Outputs> = None;
    run.iterations = timed_loop(cfg.seconds, MIN_TIMED, |it| {
        fx.stage_profile(path)?;
        let mut out = iteration(&fx, cfg.seed, path, None)?;
        check_outputs(
            &mut run.checks,
            kind,
            it,
            &out.outputs,
            first.as_ref(),
            pinned,
            path,
        )?;
        // The idle repatch probe, on this iteration's session: every
        // session's tables sit elsewhere in the heap, so the probe sees
        // as many placements as there are iterations.
        let session = &mut out.session;
        let probe = idle_repatch_probe(&session.runtime, &mut session.process.memory, calls)?;
        run.checks.ops(calls as u64);
        if it > 0 {
            samples.turnaround_s.push(out.turnaround_s);
            samples.run_wall_s.push(out.run_wall_s);
            samples
                .events_per_s
                .push(out.outputs.golden.events as f64 / out.run_wall_s);
            samples.repatch_p50_us.extend(stats::median(&probe));
        }
        first.get_or_insert(out.outputs);
        Ok(())
    })?;
    run.observed = first.map(|o| o.golden);
    run.set_end_to_end(samples)
}

/// Display name of a packed ID, as the adaptive loop logs it.
fn display_name(session: &Session, id: PackedId) -> String {
    session
        .symbols
        .name_of(id)
        .map(str::to_string)
        .unwrap_or_else(|| format!("fid:{:#010x}", id.raw()))
}

/// The traced iteration: the adaptive run re-driven from the public
/// functions `AdaptiveRunBuilder::run` is made of, one span per call.
fn traced_iteration(fx: &Fixture, seed: u64, path: &Path, tr: &Tracer) -> Result<IterOut, String> {
    let _root = tr.enter("iteration");

    let t = Instant::now();
    let selected;
    let ic = match &fx.warm {
        Some((ic, _)) => ic,
        None => {
            let g = tr.enter("spec.select");
            let outcome = fx
                .wf
                .select(specs::MPI)
                .map_err(|e| format!("select: {e}"))?;
            g.count(outcome.count() as u64);
            drop(g);
            let g = tr.enter("core.make_ic");
            selected = fx.wf.make_ic(&outcome).ic;
            g.count(selected.len() as u64);
            drop(g);
            &selected
        }
    };
    let mut session = tr.span("dyncapi.startup", || session(&fx.wf, ic))?;
    let turnaround_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let run_span = tr.enter("dyncapi.run");
    let mut controller = builder(seed, path).build_controller();
    let loaded = {
        let g = tr.enter("persist.load");
        let loaded = InstrumentationProfile::load(path);
        if let Ok(p) = &loaded {
            g.count(p.functions.len() as u64);
        }
        loaded
    };
    let mut warm = loaded.ok();
    let warm_started = warm.is_some();

    let world = World::new(RANKS, CostModel::default());
    if let Some(talp) = &session.talp {
        world.add_hook(talp.clone());
    }
    let mut clocks = vec![0u64; RANKS as usize];
    let mut efficiency = EfficiencyReport::new();
    let mut children: CallChildren = CallChildren::default();
    let mut epochs: Vec<(u64, u64)> = Vec::with_capacity(EPOCHS);
    let (mut events, mut skips, mut suppressed) = (0u64, 0u64, 0u64);
    let mut initialized = false;
    let mut epoch = 0usize;
    while epoch < EPOCHS {
        let engine = {
            let _g = tr.enter("exec.prepare");
            Engine::prepare(&session.process, &session.runtime, OverheadModel::default())
                .map_err(|e| format!("prepare: {e}"))?
        };
        if !initialized {
            initialized = true;
            {
                let _g = tr.enter("adapt.begin");
                let names: Vec<_> = session
                    .runtime
                    .patched_ids()
                    .into_iter()
                    .map(|id| (id, display_name(&session, id)))
                    .collect();
                controller.begin(names);
                controller.pin(engine.spine_sled_ids());
                let tree = engine.call_children();
                controller.hint_names(
                    tree.iter()
                        .map(|&(parent, _)| (parent, display_name(&session, parent))),
                );
                children = Arc::new(
                    tree.into_iter()
                        .map(|(parent, kids)| {
                            (parent.raw(), kids.into_iter().map(|k| k.raw()).collect())
                        })
                        .collect(),
                );
            }
            if let Some(profile) = warm.take() {
                drop(engine);
                let idmap = {
                    let g = tr.enter("persist.match");
                    let idmap = unchanged_idmap(&session, &profile);
                    g.count(idmap.len() as u64);
                    idmap
                };
                let delta = {
                    let g = tr.enter("adapt.seed");
                    let (delta, _) = controller.seed_from_profile(&profile, &idmap);
                    g.count(delta.len() as u64);
                    delta
                };
                let g = tr.enter("xray.repatch_warm");
                let rep = session
                    .runtime
                    .repatch(&mut session.process.memory, &delta)
                    .map_err(|e| format!("warm repatch: {e}"))?;
                g.count(rep.sleds_patched + rep.sleds_unpatched);
                continue;
            }
        }
        let out = {
            let g = tr.enter("exec.run_epoch");
            let out = engine
                .run_epoch(
                    &world,
                    EpochSpec {
                        index: epoch,
                        total: EPOCHS,
                    },
                    &clocks,
                )
                .map_err(|e| format!("run_epoch: {e}"))?;
            g.count(out.events);
            out
        };
        clocks.clone_from(&out.per_rank_ns);
        events += out.events;
        skips += out.sampled_skips;
        suppressed += out.suppressed_events;
        let view = {
            let g = tr.enter("dyncapi.epoch_view");
            let talp: Vec<RegionSample> = out
                .talp_samples
                .iter()
                .map(|r| RegionSample {
                    id: r.id,
                    name: display_name(&session, r.id),
                    enters: r.enters,
                    elapsed_ns: r.elapsed_ns,
                    useful_per_rank: r.useful_per_rank.clone(),
                    mpi_per_rank: r.mpi_per_rank.clone(),
                })
                .collect();
            for r in &talp {
                efficiency.record(epoch, r.id.raw(), &r.name, r.efficiency());
            }
            let samples: Vec<FuncSample> = out
                .samples
                .iter()
                .map(|s| FuncSample {
                    id: s.id,
                    name: display_name(&session, s.id),
                    visits: s.visits,
                    inst_ns: s.inst_ns,
                    body_cost_ns: s.body_cost_ns,
                    rate: s.rate,
                })
                .collect();
            g.count(samples.len() as u64);
            EpochView {
                epoch,
                epoch_ns: out.epoch_ns,
                busy_ns: out.busy_ns,
                inst_ns: out.inst_ns,
                events: out.events,
                samples,
                talp,
                children: children.clone(),
            }
        };
        let delta = {
            let g = tr.enter("adapt.on_epoch");
            let delta = controller.on_epoch(&view);
            g.count(delta.len() as u64);
            delta
        };
        let rep = {
            let g = tr.enter("xray.repatch");
            let rep = session
                .runtime
                .repatch(&mut session.process.memory, &delta)
                .map_err(|e| format!("repatch: {e}"))?;
            g.count(rep.sleds_patched + rep.sleds_unpatched);
            rep
        };
        tr.count("xray.mprotect_pairs", rep.mprotect_pairs);
        epochs.push((out.events, session.runtime.patched_functions() as u64));
        epoch += 1;
    }
    controller.record_event_volume(skips, suppressed);
    let profile = {
        let g = tr.enter("adapt.export_profile");
        let mut profile = controller.export_profile(session.object_records());
        profile.efficiency = efficiency_summary(&efficiency);
        g.count(profile.functions.len() as u64);
        profile
    };
    {
        let g = tr.enter("persist.save");
        profile.save(path).map_err(|e| format!("save: {e}"))?;
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        g.count(bytes);
    }
    drop(run_span);
    let run_wall_s = t.elapsed().as_secs_f64();
    Ok(IterOut {
        turnaround_s,
        run_wall_s,
        outputs: Outputs {
            golden: golden_of(events, epochs, &session.runtime),
            log: controller.render_log(),
            warm_started,
            restarts: 0,
        },
        session,
    })
}

/// Profile raw ID → live raw ID for a profile saved by the same build:
/// every object must match unchanged, and each function must still have
/// a sled. This is what the session's own warm-start planning yields
/// when nothing was rebuilt or remapped.
fn unchanged_idmap(session: &Session, profile: &InstrumentationProfile) -> BTreeMap<u32, u32> {
    let plan = plan_object_matches(&profile.objects, &session.object_records());
    let unchanged: Vec<u8> = plan
        .iter()
        .filter_map(|m| match *m {
            ObjectMatch::Unchanged { object_id } => Some(object_id),
            _ => None,
        })
        .collect();
    profile
        .functions
        .iter()
        .map(|f| PackedId::from_raw(f.raw_id))
        .filter(|id| {
            unchanged.contains(&id.object()) && session.runtime.function_address(*id).is_some()
        })
        .map(|id| (id.raw(), id.raw()))
        .collect()
}

/// DynCaPI's startup replayed step by step, one span per layer, to
/// attribute `dyncapi.startup_s`. Returns the number of functions
/// patched.
fn startup_replay(wf: &Workflow, ic: &InstrumentationConfig, tr: &Tracer) -> Result<usize, String> {
    let _root = tr.enter("startup_replay");
    let filter = ic.to_scorep_filter();
    let pass = PassOptions::instrument_all();
    let mut process = tr
        .span("objmodel.launch", || Process::launch_binary(&wf.binary))
        .map_err(|e| format!("launch: {e}"))?;
    let runtime = XRayRuntime::new();
    let indices: Vec<usize> = process.loaded().map(|(i, _)| i).collect();
    let images: Vec<InstrumentedObject> = tr.span("xray.pass", || {
        indices
            .iter()
            .map(|&pi| {
                let lo = process.object(pi).expect("loaded index");
                instrument_object(lo.image.clone(), &pass)
            })
            .collect()
    });
    let mut objects: Vec<(u8, InstrumentedObject)> = Vec::new();
    {
        let _g = tr.enter("xray.register");
        for (&pi, inst) in indices.iter().zip(images) {
            let lo = process.object(pi).expect("loaded index");
            let oid = if pi == 0 {
                runtime.register_main(inst.clone(), lo, TrampolineSet::absolute())
            } else {
                runtime.register_dso(inst.clone(), lo, pi, TrampolineSet::pic())
            }
            .map_err(|e| format!("register: {e}"))?;
            objects.push((oid, inst));
        }
    }
    let refs: Vec<(u8, &InstrumentedObject)> = objects.iter().map(|(o, i)| (*o, i)).collect();
    let symbols = tr.span("dyncapi.symres", || resolve_ids(&process, &runtime, &refs));
    let mut checks = 0u64;
    let selected: Vec<(u8, Vec<u32>)> = {
        let g = tr.enter("scorep.filter_match");
        let selected = objects
            .iter()
            .map(|(oid, inst)| {
                let fids = inst
                    .sleds
                    .entries
                    .iter()
                    .filter(|entry| {
                        PackedId::pack(*oid, entry.fid)
                            .ok()
                            .and_then(|id| symbols.name_of(id))
                            .is_some_and(|name| {
                                checks += 1;
                                filter.is_included(name)
                            })
                    })
                    .map(|entry| entry.fid)
                    .collect();
                (*oid, fids)
            })
            .collect();
        g.count(checks);
        selected
    };
    {
        let g = tr.enter("xray.patch_startup");
        for (oid, fids) in &selected {
            let n = runtime
                .patch_functions(&mut process.memory, *oid, fids)
                .map_err(|e| format!("patch: {e}"))?;
            g.count(u64::from(n));
        }
    }
    tr.span("talp.init", || {
        let talp = Arc::new(Talp::new(RANKS, TalpConfig::default()));
        runtime.set_handler(Arc::new(TalpAdapter::new(talp, symbols.names.clone())));
    });
    Ok(runtime.patched_functions())
}

/// Wall time of `Workflow::select_ic` on the mpi spec at `scale` nodes:
/// selection plus IC post-processing, the whole of what a user waits
/// for. At 60k nodes `spec.select_s` and `core.make_ic_s` split it.
fn select_ic_seconds(scale: usize) -> Result<f64, String> {
    let wf = workflow(scale)?;
    let t = Instant::now();
    let outcome = wf
        .select_ic(specs::MPI)
        .map_err(|e| format!("select_ic at {scale}: {e}"))?;
    std::hint::black_box(outcome.ic.len());
    Ok(t.elapsed().as_secs_f64())
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn pct_over(value: f64, base: f64) -> f64 {
    100.0 * (value - base) / base
}

/// What a per-layer metric takes from the spans of one name.
#[derive(Clone, Copy)]
enum Pick {
    /// Sum of durations, in seconds.
    Seconds,
    /// Sum of work counts.
    Count,
    /// Number of spans.
    Calls,
}

/// `(metric, span, what)` below each traced iteration. Spans an
/// iteration never opens (selection when warm, seeding when cold) leave
/// their metrics unset.
const ITERATION_LAYERS: [(&str, &str, Pick); 21] = [
    ("spec.select_s", "spec.select", Pick::Seconds),
    ("core.make_ic_s", "core.make_ic", Pick::Seconds),
    ("spec.selected", "core.make_ic", Pick::Count),
    ("dyncapi.startup_s", "dyncapi.startup", Pick::Seconds),
    ("exec.prepare_s", "exec.prepare", Pick::Seconds),
    ("exec.prepare_calls", "exec.prepare", Pick::Calls),
    ("exec.run_epoch_s", "exec.run_epoch", Pick::Seconds),
    ("exec.events", "exec.run_epoch", Pick::Count),
    ("adapt.samples", "dyncapi.epoch_view", Pick::Count),
    ("adapt.on_epoch_s", "adapt.on_epoch", Pick::Seconds),
    ("adapt.decisions", "adapt.on_epoch", Pick::Count),
    ("xray.repatch_s", "xray.repatch", Pick::Seconds),
    ("xray.sleds_rewritten", "xray.repatch", Pick::Count),
    ("xray.mprotect_pairs", "xray.mprotect_pairs", Pick::Count),
    (
        "adapt.export_profile_s",
        "adapt.export_profile",
        Pick::Seconds,
    ),
    ("persist.save_s", "persist.save", Pick::Seconds),
    ("persist.bytes", "persist.save", Pick::Count),
    ("persist.load_s", "persist.load", Pick::Seconds),
    ("persist.match_s", "persist.match", Pick::Seconds),
    ("adapt.seed_s", "adapt.seed", Pick::Seconds),
    ("xray.repatch_warm_s", "xray.repatch_warm", Pick::Seconds),
];

/// `(metric, span, what)` below each startup replay.
const STARTUP_LAYERS: [(&str, &str, Pick); 5] = [
    ("xray.pass_s", "xray.pass", Pick::Seconds),
    ("dyncapi.symres_s", "dyncapi.symres", Pick::Seconds),
    (
        "scorep.filter_match_s",
        "scorep.filter_match",
        Pick::Seconds,
    ),
    (
        "scorep.filter_match_checks",
        "scorep.filter_match",
        Pick::Count,
    ),
    ("xray.patch_startup_s", "xray.patch_startup", Pick::Seconds),
];

/// Sets each listed metric to the median, over `roots`, of what its
/// spans add up to below a root.
fn layer_metrics(
    run: &mut WorkloadResult,
    spans: &[trace::Span],
    roots: &[usize],
    layers: &[(&'static str, &'static str, Pick)],
) {
    let below: Vec<_> = roots
        .iter()
        .map(|&r| trace::totals_below(spans, r))
        .collect();
    for &(metric, span, pick) in layers {
        let values: Vec<f64> = below
            .iter()
            .filter_map(|totals| totals.get(span))
            .map(|t| match pick {
                Pick::Seconds => seconds(t.ns),
                Pick::Count => t.count as f64,
                Pick::Calls => t.calls as f64,
            })
            .collect();
        if !values.is_empty() {
            run.set_samples(metric, &values);
        }
    }
}

/// Tier T1.
fn traced(
    run: &mut WorkloadResult,
    pinned: Option<&Golden>,
    kind: Kind,
    path: &Path,
) -> Result<(), String> {
    let cfg = run.cfg;
    let tr = run.tracer.take().expect("traced runs carry a tracer");
    // Iterations of each flavour: the window is shared by three of them.
    let reps = ((cfg.seconds / 10.0).round() as u32).clamp(1, 3);

    // Set-up, by layer.
    let full_scale = scale(cfg.size);
    let program = openfoam(&OpenFoamParams {
        scale: full_scale,
        time_steps: 24,
        ..Default::default()
    });
    let (mut build_s, mut compile_s, mut nodes) = (Vec::new(), Vec::new(), 0);
    for _ in 0..setups(kind) {
        let _root = tr.enter("setup");
        let g = tr.enter("metacg.build");
        let t = Instant::now();
        let graph = whole_program_callgraph(&program);
        build_s.push(t.elapsed().as_secs_f64());
        nodes = graph.len();
        g.count(nodes as u64);
        drop(g);
        let _g = tr.enter("objmodel.compile");
        let t = Instant::now();
        compile(&program, &CompileOptions::o2()).map_err(|e| format!("compile: {e}"))?;
        compile_s.push(t.elapsed().as_secs_f64());
    }
    drop(program);
    run.set_samples("metacg.build_s", &build_s);
    run.set("metacg.nodes", Measured::once(nodes as f64));
    run.set_samples("objmodel.compile_s", &compile_s);

    let fx = Fixture::build(kind, cfg.size, cfg.seed, path)?;

    // Selection cost against graph size (cold only: warm never selects).
    if kind == Kind::Cold {
        let small = select_ic_seconds(full_scale / 2)?;
        let large = select_ic_seconds(full_scale * 2)?;
        run.set("spec.select_s.30k", Measured::once(small));
        run.set("spec.select_s.120k", Measured::once(large));
        run.set(
            "spec.select_growth_exp",
            Measured::once((large / small).ln() / 4f64.ln()),
        );
    }

    // Reference: the builder's own run, untraced, with and without
    // self-telemetry.
    let mut reference: Option<Outputs> = None;
    let (mut plain_total, mut plain_run, mut tel_run) = (Vec::new(), Vec::new(), Vec::new());
    for it in 0..=reps {
        fx.stage_profile(path)?;
        let out = iteration(&fx, cfg.seed, path, None)?;
        check_outputs(
            &mut run.checks,
            kind,
            it,
            &out.outputs,
            reference.as_ref(),
            pinned,
            path,
        )?;
        if it > 0 {
            plain_total.push(out.turnaround_s + out.run_wall_s);
            plain_run.push(out.run_wall_s);
        }
        reference.get_or_insert(out.outputs);
    }
    let reference = reference.expect("at least one reference iteration");
    for _ in 0..reps {
        fx.stage_profile(path)?;
        let out = iteration(&fx, cfg.seed, path, Some(Telemetry::new()))?;
        run.checks
            .check(out.outputs.golden == reference.golden, || {
                "telemetry changed the run's outputs".to_string()
            });
        tel_run.push(out.run_wall_s);
    }
    let (plain_total, plain_run, tel_run) = (
        stats::median(&plain_total).expect("reps >= 1"),
        stats::median(&plain_run).expect("reps >= 1"),
        stats::median(&tel_run).expect("reps >= 1"),
    );
    run.set(
        "obs.telemetry_overhead_pct",
        Measured::once(pct_over(tel_run, plain_run)),
    );

    // The hand-driven loop, traced; it must reproduce the reference.
    for it in 0..=2 * reps {
        tr.set_iteration(it);
        fx.stage_profile(path)?;
        let out = traced_iteration(&fx, cfg.seed, path, &tr)?;
        run.checks.ops(1);
        run.checks
            .check(out.outputs.golden == reference.golden, || {
                format!("traced iteration {it}: per-epoch outputs differ from the untraced run")
            });
        run.checks
            .check(out.outputs.warm_started == (kind == Kind::Warm), || {
                format!(
                    "traced iteration {it}: warm_started = {}",
                    out.outputs.warm_started
                )
            });
    }

    // Startup, by layer.
    let ic = match &fx.warm {
        Some((ic, _)) => ic.clone(),
        None => {
            fx.wf
                .select_ic(specs::MPI)
                .map_err(|e| format!("select_ic: {e}"))?
                .ic
        }
    };
    for it in 0..=reps {
        tr.set_iteration(it);
        let patched = startup_replay(&fx.wf, &ic, &tr)?;
        let live = session(&fx.wf, &ic)?;
        run.checks
            .check(patched == live.runtime.patched_functions(), || {
                format!(
                    "startup replay patched {patched} functions, startup {}",
                    live.runtime.patched_functions()
                )
            });
    }

    // Per-layer metrics: sums per root span, medians over the timed
    // roots (the first of each kind is a warm-up).
    let spans = tr.spans();
    let timed_roots = |name: &str| -> Vec<usize> {
        trace::roots_named(&spans, name)
            .into_iter()
            .skip(1)
            .collect()
    };
    let iterations = timed_roots("iteration");
    layer_metrics(run, &spans, &iterations, &ITERATION_LAYERS);
    layer_metrics(run, &spans, &timed_roots("startup_replay"), &STARTUP_LAYERS);
    let startup_parts_s: f64 = STARTUP_LAYERS
        .iter()
        .filter(|(_, _, pick)| matches!(pick, Pick::Seconds))
        .map(|(metric, _, _)| run.metrics[metric].value)
        .sum();
    let startup_s = run.metrics["dyncapi.startup_s"].value;
    run.set(
        "dyncapi.startup_other_s",
        Measured::once(startup_s - startup_parts_s),
    );

    let ratios: Vec<f64> = iterations
        .iter()
        .map(|&r| trace::layer_sum_ratio(&spans, r))
        .collect();
    run.set_samples("trace.layer_sum_ratio", &ratios);
    let traced_total: Vec<f64> = iterations
        .iter()
        .map(|&r| seconds(spans[r].duration_ns()))
        .collect();
    run.set(
        "trace.overhead_pct",
        Measured::once(pct_over(
            stats::median(&traced_total).expect("reps >= 1"),
            plain_total,
        )),
    );
    run.iterations = iterations.len() as u32;
    run.tracer = Some(tr);
    Ok(())
}

/// A scratch profile path no other run uses, in this process or another.
fn profile_path(kind: Kind) -> PathBuf {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    out_dir().join(format!(
        "profile-{}-{}-{}.json",
        kind.name(),
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ))
}

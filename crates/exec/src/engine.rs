//! The executor core.

use capi_appmodel::MpiCall;
use capi_mpisim::{MpiError, MpiOp, World};
use capi_objmodel::{Bindings, BoundFunc, FuncKey, Process};
use capi_obs::{GaugeId, RecordKind, Telemetry};
use capi_xray::{EventKind, PackedId, PatchDelta, PatchSnapshot, XRayError, XRayRuntime};
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum call depth before calls are cut off (recursion guard).
const MAX_DEPTH: u32 = 256;

/// Maximum spine depth the epoch-schedule builder descends through
/// single-trip wrapper calls looking for the progress loop.
const MAX_SPINE_DEPTH: u32 = 32;

/// Virtual-time costs of the instrumentation machinery itself.
#[derive(Clone, Copy, Debug)]
pub struct OverheadModel {
    /// Cost of executing a dormant (NOP) sled. The paper confirms
    /// "near-zero overhead … without active patching".
    pub unpatched_sled_ns: u64,
    /// Trampoline cost of a patched sled (register save, indirect jump),
    /// excluding the handler's own cost.
    pub patched_sled_ns: u64,
}

impl Default for OverheadModel {
    fn default() -> Self {
        Self {
            unpatched_sled_ns: 1,
            patched_sled_ns: 18,
        }
    }
}

/// Execution errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The binary has no resolvable `main`.
    NoMain,
    /// A call site references a name no loaded object provides.
    UnresolvedCall {
        /// The calling function.
        caller: String,
        /// The missing callee.
        callee: String,
    },
    /// An instrumentation dispatch failed (e.g. trampoline fault).
    Dispatch(XRayError),
    /// An MPI operation failed.
    Mpi(MpiError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NoMain => write!(f, "no `main` in loaded objects"),
            ExecError::UnresolvedCall { caller, callee } => {
                write!(f, "`{caller}` calls unresolved `{callee}`")
            }
            ExecError::Dispatch(e) => write!(f, "instrumentation fault: {e}"),
            ExecError::Mpi(e) => write!(f, "MPI failure: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<XRayError> for ExecError {
    fn from(e: XRayError) -> Self {
        ExecError::Dispatch(e)
    }
}

impl From<MpiError> for ExecError {
    fn from(e: MpiError) -> Self {
        ExecError::Mpi(e)
    }
}

/// Outcome of a run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Final virtual clock per rank.
    pub per_rank_ns: Vec<u64>,
    /// Wall time of the run: the slowest rank.
    pub total_ns: u64,
    /// Instrumentation events dispatched to the handler.
    pub events: u64,
    /// Dormant sleds executed (NOP cost only).
    pub nop_sleds: u64,
    /// Calls cut off by the engine's recursion guard (depth 256). Nonzero means
    /// call trees were truncated — adaptation policies must not mistake
    /// the missing subtrees for cheap functions.
    pub depth_cutoffs: u64,
    /// Events the 1-in-N sampling counter withheld from the handler
    /// (entry and exit each count one). The sleds still fired.
    pub sampled_skips: u64,
    /// Events withheld by the redundancy-suppression band (entry and
    /// exit each count one).
    pub suppressed_events: u64,
}

/// Dense function key: the process' [`Bindings`] number the loaded
/// functions, and every per-function table of the engine is flat-indexed
/// by that key, so the per-trip hot path pays a single bounds check and
/// no nested `Vec<Vec<_>>` pointer chase.
type Fi = FuncKey;

/// A function's sled as the patch snapshot saw it — the only
/// per-function state that depends on what is patched.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Sled {
    id: PackedId,
    patched: bool,
    /// Sampling rate (1-in-N); 1 = full instrumentation.
    rate: u32,
}

impl Sled {
    /// Patched and delivering only every N-th invocation.
    fn is_sampled(&self) -> bool {
        self.patched && self.rate > 1
    }
}

/// Packed ID → key for every function with a sled, dense per object.
fn index_sleds(sleds: &[Option<Sled>]) -> Vec<Vec<Fi>> {
    let mut by_id: Vec<Vec<Fi>> = Vec::new();
    for (key, sled) in sleds.iter().enumerate() {
        let Some(sled) = sled else { continue };
        let (object, fid) = (sled.id.object() as usize, sled.id.function() as usize);
        if by_id.len() <= object {
            by_id.resize_with(object + 1, Vec::new);
        }
        if by_id[object].len() <= fid {
            by_id[object].resize(fid + 1, NO_KEY);
        }
        by_id[object][fid] = key as Fi;
    }
    by_id
}

fn convert_mpi(c: MpiCall) -> MpiOp {
    match c {
        MpiCall::Init => MpiOp::Init,
        MpiCall::Finalize => MpiOp::Finalize,
        MpiCall::Barrier => MpiOp::Barrier,
        MpiCall::Allreduce { bytes } => MpiOp::Allreduce { bytes },
        MpiCall::Bcast { bytes } => MpiOp::Bcast { bytes },
        MpiCall::Reduce { bytes } => MpiOp::Reduce { bytes },
        MpiCall::RingExchange { bytes } => MpiOp::RingExchange { bytes },
        MpiCall::Wait => MpiOp::Wait,
    }
}

/// Reads one function's sled out of a patch snapshot (by loader object
/// index and object-local function index) — the one place the overlay
/// is read, by the full build and by [`Engine::apply`] alike.
fn read_sled(snapshot: &PatchSnapshot, object: usize, func: u32) -> Option<Sled> {
    snapshot.lookup(object, func).map(|(id, patched)| Sled {
        id,
        patched,
        rate: snapshot.sample_rate(object, func),
    })
}

/// A prepared execution engine over a loaded, instrumented process.
///
/// What it holds, by how long it stays true:
///
/// * **per load state** — the call [`Bindings`] (shared with the
///   process, with the subtree-cost estimate and reverse edges they
///   carry), `main`, the epoch schedule, and each rank's quiet-subtree
///   memo;
/// * **per patch state** — the sled overlay, its generation, and the
///   quiet flags. [`Self::prepare`] builds them from scratch;
///   [`Self::apply`] brings them up to date after one repatch batch by
///   touching only what the batch named;
/// * **per epoch** — each rank's cost, region and sampling cells, owned
///   by the engine and reset through the list of keys the epoch touched.
pub struct Engine<'p> {
    runtime: &'p XRayRuntime,
    model: OverheadModel,
    /// Everything that depends only on what is loaded: call-site
    /// targets, body costs, MPI stubs, names.
    bindings: Arc<Bindings>,
    /// Entry point.
    main: Fi,
    /// Per-function sled state as of `generation`; `None` = no sled.
    sleds: Vec<Option<Sled>>,
    /// How many sleds are patched at a rate above 1: whether a run needs
    /// sampling bookkeeping, without scanning `sleds`.
    sampled: usize,
    /// Generation of the snapshot `sleds` was last read from.
    generation: u64,
    /// Quiet = subtree has no MPI and no patched sled: memoizable.
    quiet: Vec<bool>,
    /// Packed ID → key, `[object ID][function ID]`, built by the first
    /// [`Self::apply`] (a prepare that is never carried forward does not
    /// pay for it).
    keys_by_id: Option<Vec<Vec<Fi>>>,
    /// Epoch schedule: the program linearized around its progress loop.
    schedule: EpochSchedule,
    /// Redundancy-suppression band in parts per million; 0 disables the
    /// band entirely (byte-identical to a build without it).
    redundancy_ppm: u32,
    /// Self-telemetry wiring ([`Engine::with_telemetry`]); epoch spans
    /// and per-epoch event-volume gauges. `None` costs nothing.
    obs: Option<ExecObs>,
    /// One scratch set per rank, reused by every [`Self::run_epoch`].
    /// The outer lock is held for the length of an epoch run; each rank
    /// thread locks its own slot, uncontended.
    scratch: Mutex<Vec<Mutex<RankScratch>>>,
}

/// `keys_by_id` entry of a function ID without a sled; as an index it is
/// past the end of every per-function table.
const NO_KEY: Fi = Fi::MAX;

/// Telemetry handles the engine reports through: one span per epoch
/// plus gauges tracking the per-epoch event volume and its reduction
/// paths (sampling skips, redundancy suppression).
struct ExecObs {
    tel: Telemetry,
    g_events: GaugeId,
    g_skips: GaugeId,
    g_suppressed: GaugeId,
}

impl<'p> Engine<'p> {
    /// Prepares an engine for the current state of `process`/`runtime`,
    /// from scratch: the patch snapshot, the sled overlay over every
    /// function, the full quiet-subtree analysis, and a walk down the
    /// spine for the schedule.
    ///
    /// What depends only on the load state is not rebuilt: the call
    /// bindings come from [`Process::bindings`] and the subtree-cost
    /// estimate the schedule ranks call sites by from
    /// [`Bindings::subtree_costs`], both once per load state, so a second
    /// `prepare` on an unchanged process pays for the patch state alone;
    /// after a `dlopen`/`dlclose` the next one rebinds. A caller that
    /// keeps its engine across repatches does not need a second
    /// `prepare` at all — see [`Self::apply`], which this is the
    /// constructor, the fallback and the reference for.
    pub fn prepare(
        process: &Process,
        runtime: &'p XRayRuntime,
        model: OverheadModel,
    ) -> Result<Self, ExecError> {
        Self::prepare_inner(process, runtime, model, false)
    }

    /// Like [`Self::prepare`], but tolerant of DSO churn: a call-site
    /// target whose name resolves to *no* loaded object (its DSO was
    /// `dlclose`d mid-run) is dropped from the site and counted in
    /// [`Self::unresolved_calls`] instead of failing preparation. The
    /// program then simply skips those calls — the degradation an
    /// application sees when a plugin is gone. A missing `main` is still
    /// a hard error.
    pub fn prepare_lenient(
        process: &Process,
        runtime: &'p XRayRuntime,
        model: OverheadModel,
    ) -> Result<Self, ExecError> {
        Self::prepare_inner(process, runtime, model, true)
    }

    fn prepare_inner(
        process: &Process,
        runtime: &'p XRayRuntime,
        model: OverheadModel,
        lenient: bool,
    ) -> Result<Self, ExecError> {
        let bindings = Arc::clone(process.bindings());
        match bindings.unresolved().first() {
            Some((caller, callee)) if !lenient => {
                return Err(ExecError::UnresolvedCall {
                    caller: bindings.function(*caller).name.clone(),
                    callee: callee.clone(),
                })
            }
            _ => {}
        }
        let main = bindings.main().ok_or(ExecError::NoMain)?;
        let snapshot = runtime.snapshot();
        let mut sleds = Vec::with_capacity(bindings.num_functions());
        for o in bindings.objects() {
            sleds.extend(
                (0..o.image.functions.len() as u32).map(|fi| read_sled(&snapshot, o.index, fi)),
            );
        }
        let sampled = sleds.iter().flatten().filter(|s| s.is_sampled()).count();
        let quiet = compute_quiet(&bindings, &sleds);
        let schedule = build_schedule(&bindings, main);
        Ok(Self {
            runtime,
            model,
            bindings,
            main,
            sleds,
            sampled,
            generation: snapshot.generation,
            quiet,
            keys_by_id: None,
            schedule,
            redundancy_ppm: 0,
            obs: None,
            scratch: Mutex::new(Vec::new()),
        })
    }

    /// Whether the engine still describes `process` and its runtime:
    /// the process hands out the bindings the engine was prepared on (no
    /// `dlopen`, `dlclose` or reload since) and the runtime is at the
    /// generation the engine last read. When false, [`Self::prepare`]
    /// again.
    pub fn is_current(&self, process: &Process) -> bool {
        Arc::ptr_eq(&self.bindings, process.bindings())
            && self.generation == self.runtime.generation()
    }

    /// Brings the engine up to date after the repatch batch that applied
    /// `delta`, at the cost of what the batch named — not of the program.
    ///
    /// Takes a fresh snapshot and re-reads from it (not from the delta's
    /// intent) the sled of every ID the delta names, so entries the
    /// lenient path skipped, the applied part of a faulted batch and the
    /// rate reset on re-patching are all seen as the runtime left them;
    /// IDs the engine has no sled for are ignored. Adopts the snapshot's
    /// generation. An empty delta is a no-op (so was its batch).
    ///
    /// The quiet flags change only where a `patched` bit flipped: a
    /// newly patched function makes itself and its still-quiet ancestors
    /// loud; a newly unpatched one is re-evaluated and, if it turned
    /// quiet, so are its callers (a worklist over [`Bindings::callers`]).
    /// Rate-only batches touch no flag. Each rank's quiet-subtree memo
    /// describes subtrees *as dormant* — the only state it is read in —
    /// so it survives.
    ///
    /// The result equals a fresh [`Self::prepare`] **provided the batch
    /// is the only thing that changed the runtime since
    /// [`Self::snapshot_generation`]** and the load state is the same;
    /// the caller checks that (the batch's report carries
    /// `snapshot_generation() + 1`, or the same generation for an empty
    /// delta, and [`Self::is_current`] holds afterwards) and otherwise
    /// prepares again.
    pub fn apply(&mut self, delta: &PatchDelta) {
        let span = self.obs.as_ref().map(|o| o.tel.span("exec.apply"));
        let wall_start = std::time::Instant::now();
        let (mut patched, mut unpatched) = (Vec::new(), Vec::new());
        // An empty batch left the runtime, generation included, alone.
        if !delta.is_empty() {
            let snapshot = self.runtime.snapshot();
            self.generation = snapshot.generation;
            let keys_by_id = self
                .keys_by_id
                .get_or_insert_with(|| index_sleds(&self.sleds));
            let named = (delta.patch.iter().chain(&delta.unpatch))
                .chain(delta.set_rate.iter().map(|(id, _)| id));
            for id in named {
                let key = keys_by_id
                    .get(id.object() as usize)
                    .and_then(|fids| fids.get(id.function() as usize))
                    .map_or(NO_KEY, |&key| key);
                let Some(was) = self.sleds.get(key as usize).copied().flatten() else {
                    continue;
                };
                // Registration cannot have changed under the caller's
                // contract; if it did, the snapshot is still the truth.
                let o = self.bindings.object_of(key);
                let now = read_sled(&snapshot, o.index, key - o.base);
                self.sleds[key as usize] = now;
                self.sampled -= usize::from(was.is_sampled());
                self.sampled += usize::from(now.is_some_and(|s| s.is_sampled()));
                match (was.patched, now.is_some_and(|s| s.patched)) {
                    (false, true) => patched.push(key),
                    (true, false) => unpatched.push(key),
                    _ => {}
                }
            }
        }
        if let Some(span) = &span {
            span.arg("ids", delta.len());
            span.arg("generation", self.generation);
            span.arg("newly_patched", patched.len());
            span.arg("newly_unpatched", unpatched.len());
        }
        self.make_loud(&patched);
        self.requiet(unpatched);
        if let Some(span) = &span {
            span.wall_ns(wall_start.elapsed().as_nanos() as u64);
        }
    }

    /// Does `key` make its own subtree loud, whatever it calls?
    fn own_loud(&self, key: Fi) -> bool {
        self.bindings.func(key).mpi.is_some() || self.sleds[key as usize].is_some_and(|s| s.patched)
    }

    /// `seeds` became loud: so does every ancestor that was still quiet
    /// (an ancestor already loud has loud ancestors already).
    fn make_loud(&mut self, seeds: &[Fi]) {
        let mut work: Vec<Fi> = seeds.to_vec();
        while let Some(key) = work.pop() {
            if std::mem::replace(&mut self.quiet[key as usize], false) {
                work.extend_from_slice(self.bindings.callers(key));
            }
        }
    }

    /// `work` lost their own reason to be loud: a function turns quiet
    /// once it has none of its own and every callee is quiet, and then
    /// its loud callers are looked at again. Functions on a cycle never
    /// turn: each waits for the next one round.
    fn requiet(&mut self, mut work: Vec<Fi>) {
        while let Some(key) = work.pop() {
            let b = &self.bindings;
            let turns = !self.quiet[key as usize]
                && !self.own_loud(key)
                && (b.sites(key).flat_map(|s| b.targets(s))).all(|&t| self.quiet[t as usize]);
            if turns {
                self.quiet[key as usize] = true;
                work.extend_from_slice(b.callers(key));
            }
        }
    }

    /// Call-site target references dropped by [`Self::prepare_lenient`]
    /// because their symbol no longer resolved (0 for strict prepares).
    pub fn unresolved_calls(&self) -> u64 {
        self.bindings.unresolved().len() as u64
    }

    /// Enables redundancy suppression: once a function's invocation
    /// duration settles within `ppm` parts per million of its running
    /// per-function estimate, subsequent invocations' events are withheld
    /// from the handler (and counted in `suppressed_events`, so fidelity
    /// stays auditable). `ppm == 0` disables the band; execution is then
    /// byte-identical to an engine without it.
    pub fn with_redundancy_ppm(mut self, ppm: u32) -> Self {
        self.redundancy_ppm = ppm;
        self
    }

    /// Wires the run's telemetry: each [`Self::run_epoch`] then records
    /// an `exec.epoch` span and per-epoch event-volume gauges, each
    /// [`Self::apply`] an `exec.apply` span. Gauge registration is
    /// idempotent by name, so an engine prepared again mid-run reuses
    /// the same slots.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.obs = Some(ExecObs {
            g_events: tel.gauge("exec.epoch_events"),
            g_skips: tel.gauge("exec.epoch_sampled_skips"),
            g_suppressed: tel.gauge("exec.epoch_suppressed_events"),
            tel,
        });
        self
    }

    /// Whether a run needs the sampling/suppression bookkeeping. False
    /// keeps the fast path literally identical to a build without
    /// sampling.
    fn needs_sampling(&self) -> bool {
        self.redundancy_ppm > 0 || self.sampled > 0
    }

    /// Generation of the patch-state snapshot the engine last read (at
    /// [`Self::prepare`] or [`Self::apply`]); stale if the runtime has
    /// changed since.
    pub fn snapshot_generation(&self) -> u64 {
        self.generation
    }

    /// Runs `main` on every rank of `world` and reports clocks.
    pub fn run(&self, world: &Arc<World>) -> Result<RunReport, ExecError> {
        let events = AtomicU64::new(0);
        let nops = AtomicU64::new(0);
        let cutoffs = AtomicU64::new(0);
        let skips = AtomicU64::new(0);
        let suppressed = AtomicU64::new(0);
        let results: Vec<Result<u64, ExecError>> = world.run(|ctx| {
            // Pre-claim this rank thread's dispatch reader slot so the
            // first event doesn't pay the one-time claim lock.
            self.runtime.register_reader(ctx.rank);
            let mut memo = vec![None; self.sleds.len()];
            let mut samp = self
                .needs_sampling()
                .then(|| SamplingState::new(self.sleds.len()));
            let mut rank_state = RankRun {
                engine: self,
                b: &self.bindings,
                world: &ctx.world,
                rank: ctx.rank,
                ranks: ctx.world.size(),
                memo: &mut memo,
                events: 0,
                nops: 0,
                depth_cutoffs: 0,
                epoch: None,
                samp: samp.as_mut(),
            };
            let r = rank_state.exec(self.main, 0, 0);
            events.fetch_add(rank_state.events, Ordering::Relaxed);
            nops.fetch_add(rank_state.nops, Ordering::Relaxed);
            cutoffs.fetch_add(rank_state.depth_cutoffs, Ordering::Relaxed);
            if let Some(samp) = &rank_state.samp {
                skips.fetch_add(samp.sampled_skips, Ordering::Relaxed);
                suppressed.fetch_add(samp.suppressed, Ordering::Relaxed);
            }
            r
        });
        let mut per_rank = Vec::with_capacity(results.len());
        for r in results {
            per_rank.push(r?);
        }
        let total = per_rank.iter().copied().max().unwrap_or(0);
        Ok(RunReport {
            per_rank_ns: per_rank,
            total_ns: total,
            events: events.load(Ordering::Relaxed),
            nop_sleds: nops.load(Ordering::Relaxed),
            depth_cutoffs: cutoffs.load(Ordering::Relaxed),
            sampled_skips: skips.load(Ordering::Relaxed),
            suppressed_events: suppressed.load(Ordering::Relaxed),
        })
    }

    /// Trips of the detected progress loop; 0 when no multi-trip loop
    /// exists on the spine (then epoch 0 runs the whole program).
    pub fn epoch_loop_trips(&self) -> u64 {
        self.schedule.loop_trips
    }

    /// Packed IDs of the spine functions — `main` and the single-trip
    /// wrappers the schedule descends through. They stay logically
    /// *entered* across epoch boundaries, so in-flight adaptation must
    /// keep them patched (or their entry/exit events become unbalanced).
    pub fn spine_sled_ids(&self) -> Vec<PackedId> {
        self.schedule
            .spine
            .iter()
            .filter_map(|&k| self.sleds[k as usize].map(|s| s.id))
            .collect()
    }

    /// Runs one epoch of the schedule on every rank, starting each rank
    /// at its clock from the previous epoch. Running epochs `0..total`
    /// back to back over one [`World`] is exactly one program run —
    /// except the caller may repatch sleds at every boundary and
    /// [`Self::apply`] the batch (or [`Self::prepare`] again) to see
    /// them, which is what in-flight adaptation does.
    ///
    /// An epoch costs what ran: each rank works in the scratch set the
    /// engine keeps for it (memo, cost, region and sampling cells),
    /// records the keys it touches, and the fold into
    /// [`EpochOutcome::samples`] / `talp_samples` visits those keys only,
    /// in key order — the output a scan over every function would give.
    /// The sampling counters (`seq`, the duration estimate, the
    /// suppression flag) restart at every epoch.
    pub fn run_epoch(
        &self,
        world: &Arc<World>,
        spec: EpochSpec,
        start_clocks: &[u64],
    ) -> Result<EpochOutcome, ExecError> {
        assert!(
            spec.total >= 1 && spec.index < spec.total,
            "epoch index out of range"
        );
        assert_eq!(
            start_clocks.len(),
            world.size() as usize,
            "one start clock per rank"
        );
        let span = self.obs.as_ref().map(|o| o.tel.span("exec.epoch"));
        let wall_start = std::time::Instant::now();
        let sched = &self.schedule;
        let (trips_lo, trips_hi) = match sched.loop_pos {
            Some(_) => (
                spec.index as u64 * sched.loop_trips / spec.total as u64,
                (spec.index as u64 + 1) * sched.loop_trips / spec.total as u64,
            ),
            None => (0, 0),
        };
        let first = spec.index == 0;
        let last = spec.index == spec.total - 1;
        let funcs = self.sleds.len();
        let ranks = world.size();
        let mut slots = self.scratch.lock().expect(SCRATCH_POISONED);
        slots.resize_with(ranks as usize, || Mutex::new(RankScratch::new(funcs)));
        let slots = &*slots;
        type RankResult = (Result<u64, ExecError>, u64, u64, u64, (u64, u64));
        let results: Vec<RankResult> = world.run(|ctx| {
            self.runtime.register_reader(ctx.rank);
            let mut scratch = slots[ctx.rank as usize].lock().expect(SCRATCH_POISONED);
            scratch.begin_epoch(ranks, self.needs_sampling());
            let RankScratch {
                memo, epoch, samp, ..
            } = &mut *scratch;
            let mut rr = RankRun {
                engine: self,
                b: &self.bindings,
                world: &ctx.world,
                rank: ctx.rank,
                ranks,
                memo,
                events: 0,
                nops: 0,
                depth_cutoffs: 0,
                epoch: Some(epoch),
                samp: samp.as_mut().filter(|_| self.needs_sampling()),
            };
            let mut clock = start_clocks[ctx.rank as usize];
            let mut res: Result<(), ExecError> = Ok(());
            for (i, step) in sched.steps.iter().enumerate() {
                let in_scope = match sched.loop_pos {
                    Some(lp) if i < lp => first,
                    Some(lp) if i == lp => true,
                    Some(_) => last,
                    None => first,
                };
                if !in_scope {
                    continue;
                }
                let r = match *step {
                    Step::Enter(key) => rr.enter_function(key, clock),
                    Step::Site { site, depth } => {
                        rr.run_site(site, 0, self.bindings.trips(site), clock, depth)
                    }
                    Step::Loop { site, depth } => {
                        rr.run_site(site, trips_lo, trips_hi, clock, depth)
                    }
                    Step::Mpi(key) => {
                        let call = self
                            .bindings
                            .func(key)
                            .mpi
                            .expect("Mpi step only for MPI functions");
                        rr.mpi_op(call, clock)
                    }
                    Step::Exit(key) => rr.exit_function(key, clock),
                };
                match r {
                    Ok(c) => clock = c,
                    Err(e) => {
                        res = Err(e);
                        break;
                    }
                }
            }
            let sampling = rr
                .samp
                .as_ref()
                .map(|s| (s.sampled_skips, s.suppressed))
                .unwrap_or((0, 0));
            // Flight-recorder mark on the rank's own ring: everything in
            // the detail is virtual-clock-deterministic. The armed check
            // keeps the disabled path allocation-free.
            if let Some(o) = &self.obs {
                if o.tel.recorder_armed() {
                    o.tel.record(
                        ctx.rank,
                        RecordKind::Mark,
                        "exec.rank_epoch",
                        format!(
                            "epoch={} events={} nops={} skips={}",
                            spec.index, rr.events, rr.nops, sampling.0
                        ),
                    );
                }
            }
            (
                res.map(|()| clock),
                rr.events,
                rr.nops,
                rr.depth_cutoffs,
                sampling,
            )
        });
        let mut per_rank = Vec::with_capacity(ranks as usize);
        let (mut events, mut nops, mut cutoffs, mut busy) = (0u64, 0u64, 0u64, 0u64);
        let (mut skips, mut suppressed) = (0u64, 0u64);
        for (rank, (res, ev, np, dc, (sk, su))) in results.into_iter().enumerate() {
            let end = res?;
            busy += end - start_clocks[rank];
            per_rank.push(end);
            events += ev;
            nops += np;
            cutoffs += dc;
            skips += sk;
            suppressed += su;
        }
        let epoch_ns = per_rank
            .iter()
            .enumerate()
            .map(|(r, &c)| c - start_clocks[r])
            .max()
            .unwrap_or(0);
        // The rank threads are done; fold what they left, over the keys
        // any of them touched, ascending.
        let per_rank_cells: Vec<_> = (slots.iter())
            .map(|slot| slot.lock().expect(SCRATCH_POISONED))
            .collect();
        let mut touched: Vec<Fi> = (per_rank_cells.iter())
            .flat_map(|s| s.epoch.touched.iter().copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let mut samples = Vec::new();
        let mut talp_samples = Vec::new();
        let mut inst_ns = 0u64;
        for &key in &touched {
            let f = key as usize;
            let Some(sled) = self.sleds[f] else {
                continue;
            };
            let (visits, inst) = (per_rank_cells.iter())
                .map(|s| s.epoch.costs[f])
                .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
            if visits != 0 {
                inst_ns += inst;
                let rate = sled.rate.max(1);
                samples.push(FuncCostSample {
                    id: sled.id,
                    // Under sampling only every N-th invocation is observed;
                    // extrapolate back to the true visit count. Rate 1 is
                    // exact (and byte-identical to the unsampled build).
                    visits: visits * rate as u64,
                    inst_ns: inst,
                    body_cost_ns: self.bindings.func(key).body_cost_ns,
                    rate,
                });
            }
            let cells = || per_rank_cells.iter().map(|s| &s.epoch.regions.cells[f]);
            let enters: u64 = cells().map(|c| c.enters).sum();
            if enters == 0 {
                continue;
            }
            let elapsed = cells()
                .filter(|c| c.first_start != u64::MAX)
                .map(|c| c.last_stop.saturating_sub(c.first_start))
                .max()
                .unwrap_or(0);
            talp_samples.push(RegionCostSample {
                id: sled.id,
                name: self.bindings.function(key).name.clone(),
                enters,
                elapsed_ns: elapsed,
                useful_per_rank: cells().map(|c| c.span.saturating_sub(c.mpi)).collect(),
                mpi_per_rank: cells().map(|c| c.mpi).collect(),
            });
        }
        drop(per_rank_cells);
        talp_samples.sort_by_key(|s| s.id.raw());
        if let Some(o) = &self.obs {
            o.tel.set(o.g_events, events);
            o.tel.set(o.g_skips, skips);
            o.tel.set(o.g_suppressed, suppressed);
            if let Some(span) = &span {
                span.arg("index", spec.index);
                span.arg("total", spec.total);
                span.arg("events", events);
                span.arg("epoch_ns", epoch_ns);
                span.arg("inst_ns", inst_ns);
                span.wall_ns(wall_start.elapsed().as_nanos() as u64);
            }
        }
        Ok(EpochOutcome {
            per_rank_ns: per_rank,
            epoch_ns,
            busy_ns: busy,
            events,
            nop_sleds: nops,
            depth_cutoffs: cutoffs,
            inst_ns,
            samples,
            talp_samples,
            sampled_skips: skips,
            suppressed_events: suppressed,
        })
    }

    /// The instrumentable call tree: for every sled-bearing function,
    /// the sled-bearing functions its call sites target (deduplicated,
    /// ordered by packed ID). This is the structure the imbalance-
    /// expansion policy descends: when a region's load balance drops
    /// below threshold, its children here are the re-inclusion
    /// candidates — one level per epoch, so a persistent imbalance walks
    /// down to the hot subtree by iterative deepening.
    pub fn call_children(&self) -> Vec<(PackedId, Vec<PackedId>)> {
        let mut out: Vec<(PackedId, Vec<PackedId>)> = Vec::new();
        for (key, sled) in self.sleds.iter().enumerate() {
            let Some(sled) = sled else { continue };
            let mut children: Vec<PackedId> = self
                .bindings
                .sites(key as Fi)
                .flat_map(|s| self.bindings.targets(s))
                .filter_map(|&t| self.sleds[t as usize].map(|c| c.id))
                .collect();
            children.sort_by_key(|c| c.raw());
            children.dedup();
            out.push((sled.id, children));
        }
        out.sort_by_key(|(id, _)| id.raw());
        out
    }
}

/// Which slice of the program an epoch run executes.
#[derive(Clone, Copy, Debug)]
pub struct EpochSpec {
    /// Epoch index, `0..total`.
    pub index: usize,
    /// Total number of epochs the run is divided into.
    pub total: usize,
}

/// Measured per-epoch, per-function cost of one instrumented function —
/// the signal the adaptation controller's policies consume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuncCostSample {
    /// The function's packed XRay ID.
    pub id: PackedId,
    /// Invocations this epoch (summed over ranks). Under sampling this
    /// is extrapolated: observed invocations times the sampling rate.
    pub visits: u64,
    /// Virtual instrumentation cost charged this epoch: trampolines plus
    /// handler time, entry and exit (summed over ranks). This is the
    /// *actual* cost paid — never extrapolated — so overhead budgets
    /// stay honest under sampling.
    pub inst_ns: u64,
    /// Static per-visit body cost of the function (imbalance excluded).
    pub body_cost_ns: u64,
    /// Sampling rate (1-in-N) the function ran at this epoch; 1 = full.
    pub rate: u32,
}

/// Per-epoch TALP-style measurement of one *patched* function, treated
/// as a monitoring region: every invocation opens the region on the
/// executing rank, MPI time spent while it is open is attributed to it
/// (once per region, TALP semantics), and the rest of the span counts
/// as useful computation. Regions still open at the epoch boundary are
/// excluded, exactly like TALP's mid-run query excludes open intervals
/// — in practice this only affects the pinned spine, whose entry and
/// exit live in the first and last epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionCostSample {
    /// The function's packed XRay ID.
    pub id: PackedId,
    /// Function name as compiled into the image.
    pub name: String,
    /// Region entries this epoch, summed over ranks.
    pub enters: u64,
    /// Elapsed (wall) span: max over ranks of last-stop minus
    /// first-start.
    pub elapsed_ns: u64,
    /// Per-rank useful computation time inside the region (span minus
    /// attributed MPI).
    pub useful_per_rank: Vec<u64>,
    /// Per-rank MPI time attributed while the region was open.
    pub mpi_per_rank: Vec<u64>,
}

/// What one epoch run produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochOutcome {
    /// Virtual clock per rank at the end of the epoch.
    pub per_rank_ns: Vec<u64>,
    /// Slowest rank's clock advance this epoch.
    pub epoch_ns: u64,
    /// Sum of all ranks' clock advances this epoch.
    pub busy_ns: u64,
    /// Instrumentation events dispatched this epoch.
    pub events: u64,
    /// Dormant sleds executed this epoch.
    pub nop_sleds: u64,
    /// Recursion-guard cutoffs this epoch.
    pub depth_cutoffs: u64,
    /// Total instrumentation cost this epoch (all ranks).
    pub inst_ns: u64,
    /// Per-function costs, ordered by packed ID.
    pub samples: Vec<FuncCostSample>,
    /// Per-region TALP samples (useful vs. MPI time, per rank), ordered
    /// by packed ID — the efficiency signal the expansion policies
    /// consume.
    pub talp_samples: Vec<RegionCostSample>,
    /// Events the 1-in-N sampling counter withheld from the handler this
    /// epoch (entry and exit each count one; the sleds still fired and
    /// their trampoline cost is in `inst_ns`).
    pub sampled_skips: u64,
    /// Events withheld by the redundancy-suppression band this epoch
    /// (entry and exit each count one), so sampling fidelity stays
    /// auditable.
    pub suppressed_events: u64,
}

/// Computes which functions head quiet subtrees (no MPI, no patched sled
/// anywhere below, no cycles).
fn compute_quiet(b: &Bindings, sleds: &[Option<Sled>]) -> Vec<bool> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Unknown,
        InProgress,
        Quiet,
        Loud,
    }
    #[cfg(test)]
    tests::FULL_QUIET_ANALYSES.with(|n| n.set(n.get() + 1));
    let mut state = vec![State::Unknown; sleds.len()];

    // Iterative DFS over every function.
    for start in 0..sleds.len() as u32 {
        if state[start as usize] != State::Unknown {
            continue;
        }
        let mut stack: Vec<(Fi, bool)> = vec![(start, false)];
        while let Some((key, children_done)) = stack.pop() {
            let f = key as usize;
            if children_done {
                if state[f] != State::InProgress {
                    continue;
                }
                let own_loud = b.func(key).mpi.is_some() || sleds[f].is_some_and(|s| s.patched);
                let child_loud = b
                    .sites(key)
                    .flat_map(|s| b.targets(s))
                    .any(|&t| state[t as usize] != State::Quiet);
                state[f] = if own_loud || child_loud {
                    State::Loud
                } else {
                    State::Quiet
                };
                continue;
            }
            match state[f] {
                State::Quiet | State::Loud => continue,
                State::InProgress => {
                    // Cycle: conservatively loud.
                    state[f] = State::Loud;
                    continue;
                }
                State::Unknown => {}
            }
            state[f] = State::InProgress;
            stack.push((key, true));
            for &t in b.sites(key).flat_map(|s| b.targets(s)) {
                if state[t as usize] == State::Unknown {
                    stack.push((t, false));
                }
            }
        }
    }
    state.into_iter().map(|s| s == State::Quiet).collect()
}

/// One step of the linearized epoch schedule.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Entry sled + body cost of a spine function.
    Enter(Fi),
    /// All trips of one call site (a [`Bindings`] site index), at the
    /// given spine depth.
    Site { site: usize, depth: u32 },
    /// The progress-loop site; its trips are divided across epochs.
    Loop { site: usize, depth: u32 },
    /// The spine function's own MPI operation.
    Mpi(Fi),
    /// Exit sled of a spine function.
    Exit(Fi),
}

/// The program linearized around its dominant progress loop, so a run
/// can be cut into epochs at deterministic, rank-synchronous points.
struct EpochSchedule {
    steps: Vec<Step>,
    /// Index of the [`Step::Loop`] step, if a loop was found.
    loop_pos: Option<usize>,
    /// Trips of the loop site (0 without a loop).
    loop_trips: u64,
    /// Functions whose entry/exit straddle epoch boundaries.
    spine: Vec<Fi>,
}

/// Builds the epoch schedule: starting at `main`, repeatedly descend
/// into the call site whose subtree carries the most estimated virtual
/// time ([`Bindings::subtree_costs`], computed once per load state — the
/// walk itself only visits the spine), as long as it is a single-trip
/// wrapper; the first dominant
/// site with ≥ 2 trips becomes the progress loop whose trips are split
/// across epochs. Everything before the loop runs in epoch 0 and
/// everything after it in the last epoch, preserving program order.
fn build_schedule(b: &Bindings, main: Fi) -> EpochSchedule {
    let est = b.subtree_costs();
    let mut steps = Vec::new();
    let mut spine = Vec::new();
    let mut suffixes: Vec<Vec<Step>> = Vec::new();
    let mut visited: HashSet<Fi> = HashSet::new();
    let mut key = main;
    let mut depth = 0u32;
    let mut loop_pos = None;
    let mut loop_trips = 0u64;
    loop {
        visited.insert(key);
        spine.push(key);
        steps.push(Step::Enter(key));
        let sites = b.sites(key);
        let mut dom: Option<(usize, u128)> = None;
        for s in sites.clone() {
            let (targets, trips) = (b.targets(s), b.trips(s));
            if targets.is_empty() || trips == 0 {
                continue;
            }
            let sum: u128 = targets.iter().map(|&t| est[t as usize] as u128).sum();
            let weight = trips as u128 * (sum / targets.len() as u128 + 1);
            if dom.is_none_or(|(_, best)| weight > best) {
                dom = Some((s, weight));
            }
        }
        let mut tail = Vec::new();
        if b.func(key).mpi.is_some() {
            tail.push(Step::Mpi(key));
        }
        tail.push(Step::Exit(key));
        let Some((di, _)) = dom else {
            suffixes.push(tail);
            break;
        };
        let trips = b.trips(di);
        let target = b.targets(di)[0];
        steps.extend((sites.start..di).map(|site| Step::Site { site, depth }));
        let mut rest: Vec<Step> = (di + 1..sites.end)
            .map(|site| Step::Site { site, depth })
            .collect();
        rest.extend(tail);
        if trips >= 2 {
            loop_pos = Some(steps.len());
            loop_trips = trips;
            steps.push(Step::Loop { site: di, depth });
            suffixes.push(rest);
            break;
        }
        if depth >= MAX_SPINE_DEPTH || visited.contains(&target) {
            // Cycle or too deep: stop descending, run the site whole.
            steps.push(Step::Site { site: di, depth });
            suffixes.push(rest);
            break;
        }
        suffixes.push(rest);
        key = target;
        depth += 1;
    }
    for s in suffixes.into_iter().rev() {
        steps.extend(s);
    }
    EpochSchedule {
        steps,
        loop_pos,
        loop_trips,
        spine,
    }
}

/// TALP-style per-region bookkeeping for one patched function on one
/// rank (mirrors `capi-talp`'s `RankRegion`).
#[derive(Clone, Copy)]
struct RegionCell {
    /// Nesting depth (recursion re-enters count once for time).
    depth: u32,
    /// Clock at the outermost open.
    started_at: u64,
    /// MPI time attributed while the current interval is open.
    mpi_open: u64,
    /// Closed-interval span total.
    span: u64,
    /// Closed-interval attributed MPI total.
    mpi: u64,
    /// Region entries (every invocation, nested or not).
    enters: u64,
    /// Clock of the first open (`u64::MAX` = never opened).
    first_start: u64,
    /// Clock of the last close.
    last_stop: u64,
}

impl RegionCell {
    fn new() -> Self {
        Self {
            depth: 0,
            started_at: 0,
            mpi_open: 0,
            span: 0,
            mpi: 0,
            enters: 0,
            first_start: u64::MAX,
            last_stop: 0,
        }
    }
}

/// Region tracking state for one rank during an epoch run.
struct RegionTrack {
    /// Flat-indexed cells, one per function.
    cells: Vec<RegionCell>,
    /// Currently open regions (one entry per region: pushed on the
    /// outermost open only), for MPI attribution.
    open: Vec<Fi>,
}

impl RegionTrack {
    fn new(funcs: usize) -> Self {
        Self {
            cells: vec![RegionCell::new(); funcs],
            open: Vec::new(),
        }
    }

    fn start(&mut self, key: Fi, clock: u64) {
        let cell = &mut self.cells[key as usize];
        cell.enters += 1;
        cell.depth += 1;
        if cell.depth == 1 {
            cell.started_at = clock;
            cell.mpi_open = 0;
            cell.first_start = cell.first_start.min(clock);
            self.open.push(key);
        }
    }

    fn stop(&mut self, key: Fi, clock: u64) {
        let cell = &mut self.cells[key as usize];
        if cell.depth == 0 {
            // Exit without a matching entry this epoch (the spine's last
            // epoch): no interval to record.
            return;
        }
        cell.depth -= 1;
        if cell.depth == 0 {
            let span = clock.saturating_sub(cell.started_at);
            cell.span += span;
            cell.mpi += cell.mpi_open.min(span);
            cell.last_stop = cell.last_stop.max(clock);
            if let Some(pos) = self.open.iter().rposition(|&f| f == key) {
                self.open.remove(pos);
            }
        }
    }

    /// Charges one completed MPI interval to every open region.
    fn charge_mpi(&mut self, spent: u64) {
        if spent == 0 {
            return;
        }
        for &f in &self.open {
            self.cells[f as usize].mpi_open += spent;
        }
    }
}

/// What the entry sled decided for one in-flight invocation; the exit
/// sled must mirror it, or entry/exit events become unbalanced.
#[derive(Clone, Copy, PartialEq, Eq)]
enum EntryDecision {
    /// The handler saw the entry event; it must see the exit too.
    Emitted,
    /// The 1-in-N counter skipped this invocation.
    SampledOut,
    /// The redundancy band withheld this invocation's events.
    Suppressed,
}

/// Per-rank sampling and redundancy-suppression bookkeeping. Allocated
/// only when some function runs at rate > 1 or the ppm band is enabled,
/// so the full-instrumentation fast path stays untouched.
struct SamplingState {
    /// Per-function 1-in-N sequence counter — deterministic per rank, so
    /// repeated runs sample the exact same invocations.
    seq: Vec<u64>,
    /// Per-function stack of in-flight invocations: (entry decision,
    /// clock at entry). LIFO, so recursive exits mirror their own entry.
    in_flight: Vec<Vec<(EntryDecision, u64)>>,
    /// Running per-function duration estimate (last observed invocation
    /// duration); `u64::MAX` = nothing observed yet.
    dur_est: Vec<u64>,
    /// The next sampled-in invocation's events are redundant (its
    /// predecessor's duration fell within the ppm band).
    suppress_next: Vec<bool>,
    /// Events withheld by the 1-in-N counter (entry and exit each).
    sampled_skips: u64,
    /// Events withheld by the redundancy band (entry and exit each).
    suppressed: u64,
}

impl SamplingState {
    fn new(funcs: usize) -> Self {
        Self {
            seq: vec![0; funcs],
            in_flight: vec![Vec::new(); funcs],
            dur_est: vec![u64::MAX; funcs],
            suppress_next: vec![false; funcs],
            sampled_skips: 0,
            suppressed: 0,
        }
    }

    /// Puts `key`'s cells back to their [`Self::new`] values.
    fn reset(&mut self, key: Fi) {
        let f = key as usize;
        self.seq[f] = 0;
        self.in_flight[f].clear();
        self.dur_est[f] = u64::MAX;
        self.suppress_next[f] = false;
    }
}

/// What one rank measures during one epoch run, flat-indexed by key.
/// Every cell a run writes belongs to a key in `touched`, so the next
/// epoch resets those and nothing else.
struct EpochScratch {
    /// Per-function (visits, instrumentation ns).
    costs: Vec<(u64, u64)>,
    /// TALP-style region tracking.
    regions: RegionTrack,
    /// Keys with a charge this epoch, in first-touch order…
    touched: Vec<Fi>,
    /// …and whether a key is already among them.
    seen: Vec<bool>,
}

impl EpochScratch {
    /// Charges one sled event of `key` — the one way a function's cells
    /// start to differ from their reset values: every region and
    /// sampling update rides on an event charged here.
    ///
    /// Out of line on purpose: inlined, its `push` (and the grow path
    /// behind it) lands in `sled_event`, which then stops being inlined
    /// into the per-call path of plain [`Engine::run`] — 2.5 % of
    /// `lulesh_events`' wall time, for a run that never charges.
    #[inline(never)]
    fn charge(&mut self, key: Fi, visits: u64, inst_ns: u64) {
        let f = key as usize;
        if !self.seen[f] {
            self.seen[f] = true;
            self.touched.push(key);
        }
        let cell = &mut self.costs[f];
        cell.0 += visits;
        cell.1 += inst_ns;
    }
}

/// One rank's working state, owned by the engine across epochs.
struct RankScratch {
    /// World size `memo` was filled under (a rank's imbalance share
    /// depends on it; the rank itself is the slot index).
    ranks: u32,
    /// Quiet-subtree summaries: (duration, nop sled count). A summary
    /// describes the subtree with every sled dormant, which is the only
    /// state a quiet subtree is ever in, so no repatch invalidates it.
    memo: Vec<Option<(u64, u64)>>,
    epoch: EpochScratch,
    /// Allocated by the first epoch that samples or suppresses.
    samp: Option<SamplingState>,
}

const SCRATCH_POISONED: &str = "a rank thread panicked while holding its scratch";

impl RankScratch {
    fn new(funcs: usize) -> Self {
        Self {
            ranks: 0,
            memo: vec![None; funcs],
            epoch: EpochScratch {
                costs: vec![(0, 0); funcs],
                regions: RegionTrack::new(funcs),
                touched: Vec::new(),
                seen: vec![false; funcs],
            },
            samp: None,
        }
    }

    /// Readies the scratch for an epoch on a world of `ranks`: undoes
    /// what the previous epoch touched (also after one that failed).
    fn begin_epoch(&mut self, ranks: u32, sampling: bool) {
        if self.ranks != ranks {
            self.ranks = ranks;
            self.memo.fill(None);
        }
        let epoch = &mut self.epoch;
        for key in epoch.touched.drain(..) {
            let f = key as usize;
            epoch.seen[f] = false;
            epoch.costs[f] = (0, 0);
            epoch.regions.cells[f] = RegionCell::new();
            if let Some(samp) = &mut self.samp {
                samp.reset(key);
            }
        }
        epoch.regions.open.clear();
        match &mut self.samp {
            Some(samp) => (samp.sampled_skips, samp.suppressed) = (0, 0),
            None if sampling => self.samp = Some(SamplingState::new(self.memo.len())),
            None => {}
        }
    }
}

/// Is `duration` within `ppm` parts per million of `estimate`?
fn within_ppm(duration: u64, estimate: u64, ppm: u32) -> bool {
    let diff = duration.abs_diff(estimate) as u128;
    diff * 1_000_000 <= ppm as u128 * estimate as u128
}

/// Per-rank execution state.
struct RankRun<'e, 'p> {
    engine: &'e Engine<'p>,
    /// `engine.bindings`, one pointer hop closer for the per-call path.
    b: &'e Bindings,
    world: &'e Arc<World>,
    rank: u32,
    ranks: u32,
    /// Quiet-subtree summaries: (duration, nop sled count), flat-indexed.
    memo: &'e mut [Option<(u64, u64)>],
    events: u64,
    nops: u64,
    depth_cutoffs: u64,
    /// Per-function costs and region tracking, for epoch runs.
    epoch: Option<&'e mut EpochScratch>,
    /// Sampling/suppression state; None when everything runs at rate 1
    /// with the band disabled.
    samp: Option<&'e mut SamplingState>,
}

impl RankRun<'_, '_> {
    fn body_cost(&self, bf: &BoundFunc) -> u64 {
        if bf.imbalance_pct == 0 || self.ranks <= 1 {
            return bf.body_cost_ns;
        }
        // Rank r of P pays body * (1 + pct/100 * r/(P-1)).
        bf.body_cost_ns
            + bf.body_cost_ns * bf.imbalance_pct as u64 * self.rank as u64
                / ((self.ranks as u64 - 1) * 100)
    }

    /// Summarizes a quiet subtree: total virtual duration and NOP count.
    fn quiet_cost(&mut self, key: Fi) -> (u64, u64) {
        let f = key as usize;
        if let Some(c) = self.memo[f] {
            return c;
        }
        let (engine, b) = (self.engine, self.b);
        let mut ns = self.body_cost(b.func(key));
        let mut nops = 0u64;
        if engine.sleds[f].is_some() {
            // Dormant sleds: entry + exits still execute their NOPs.
            ns += 2 * engine.model.unpatched_sled_ns;
            nops += 2;
        }
        for s in b.sites(key) {
            let (targets, trips) = (b.targets(s), b.trips(s));
            if targets.is_empty() || trips == 0 {
                continue;
            }
            let n = targets.len() as u64;
            let full_cycles = trips / n;
            let rem = trips % n;
            for (ti, &t) in targets.iter().enumerate() {
                let (tns, tnops) = self.quiet_cost(t);
                let times = full_cycles + if (ti as u64) < rem { 1 } else { 0 };
                ns = ns.saturating_add(tns.saturating_mul(times));
                nops = nops.saturating_add(tnops.saturating_mul(times));
            }
        }
        self.memo[f] = Some((ns, nops));
        (ns, nops)
    }

    /// Charges one sled event: trampoline cost plus the handler's cost,
    /// dispatched against the engine's snapshot generation so sleds
    /// unpatched mid-epoch are tolerated instead of faulting.
    fn sled_event(
        &mut self,
        key: Fi,
        id: capi_xray::PackedId,
        kind: EventKind,
        clock: u64,
    ) -> Result<u64, ExecError> {
        let clock = clock + self.engine.model.patched_sled_ns;
        let handler_ns = self.engine.runtime.dispatch_from_snapshot(
            id,
            kind,
            clock,
            self.rank,
            self.engine.generation,
        )?;
        self.events += 1;
        if let Some(epoch) = &mut self.epoch {
            let visits = u64::from(kind == EventKind::Entry);
            epoch.charge(key, visits, self.engine.model.patched_sled_ns + handler_ns);
        }
        Ok(clock + handler_ns)
    }

    /// Entry sled + body cost of one function invocation.
    fn enter_function(&mut self, key: Fi, clock: u64) -> Result<u64, ExecError> {
        let engine = self.engine;
        let mut clock = clock;
        match engine.sleds[key as usize] {
            Some(Sled {
                id,
                patched: true,
                rate,
            }) => {
                if rate > 1 || engine.redundancy_ppm > 0 {
                    clock = self.sampled_entry(key, id, rate, clock)?;
                } else {
                    clock = self.sled_event(key, id, EventKind::Entry, clock)?;
                    if let Some(epoch) = &mut self.epoch {
                        epoch.regions.start(key, clock);
                    }
                }
            }
            Some(_) => {
                clock += engine.model.unpatched_sled_ns;
                self.nops += 1;
            }
            None => {}
        }
        Ok(clock + self.body_cost(self.b.func(key)))
    }

    /// Exit sled of one function invocation.
    fn exit_function(&mut self, key: Fi, clock: u64) -> Result<u64, ExecError> {
        match self.engine.sleds[key as usize] {
            Some(Sled {
                id,
                patched: true,
                rate,
            }) => {
                if rate > 1 || self.engine.redundancy_ppm > 0 {
                    self.sampled_exit(key, id, clock)
                } else {
                    if let Some(epoch) = &mut self.epoch {
                        epoch.regions.stop(key, clock);
                    }
                    self.sled_event(key, id, EventKind::Exit, clock)
                }
            }
            Some(_) => {
                self.nops += 1;
                Ok(clock + self.engine.model.unpatched_sled_ns)
            }
            None => Ok(clock),
        }
    }

    /// Entry sled on the sampled/suppressed path. The trampoline always
    /// fires (its cost is charged unconditionally), but the handler only
    /// sees every N-th invocation per rank — and not even those while
    /// the redundancy band holds.
    fn sampled_entry(
        &mut self,
        key: Fi,
        id: capi_xray::PackedId,
        rate: u32,
        clock: u64,
    ) -> Result<u64, ExecError> {
        let f = key as usize;
        let rate = u64::from(rate.max(1));
        let entry_clock = clock;
        let mut clock = clock + self.engine.model.patched_sled_ns;
        // Read only: nothing of `key` is written before its first charge
        // (a failed dispatch returns with the cells as they were).
        let (seq, suppress_pending) = {
            let samp = self.samp.as_ref().expect("sampling state");
            (samp.seq[f], samp.suppress_next[f])
        };
        // The band only withholds events sampling would have delivered;
        // sampled-out invocations never consult it.
        let suppress =
            self.engine.redundancy_ppm > 0 && suppress_pending && seq.is_multiple_of(rate);
        let decision = if suppress {
            EntryDecision::Suppressed
        } else {
            // The runtime's sampled fast path makes the delivery call
            // (and counts skips in its striped stats).
            match self.engine.runtime.dispatch_sampled_from_snapshot(
                id,
                EventKind::Entry,
                clock,
                self.rank,
                self.engine.generation,
                seq,
            )? {
                Some(handler_ns) => {
                    self.events += 1;
                    clock += handler_ns;
                    if let Some(epoch) = &mut self.epoch {
                        epoch.charge(key, 1, self.engine.model.patched_sled_ns + handler_ns);
                        epoch.regions.start(key, clock);
                    }
                    EntryDecision::Emitted
                }
                None => EntryDecision::SampledOut,
            }
        };
        if decision != EntryDecision::Emitted {
            // The trampoline fired all the same.
            if let Some(epoch) = &mut self.epoch {
                epoch.charge(key, 0, self.engine.model.patched_sled_ns);
            }
        }
        let samp = self.samp.as_mut().expect("sampling state");
        samp.seq[f] += 1;
        match decision {
            EntryDecision::SampledOut => samp.sampled_skips += 1,
            EntryDecision::Suppressed => samp.suppressed += 1,
            EntryDecision::Emitted => {}
        }
        samp.in_flight[f].push((decision, entry_clock));
        Ok(clock)
    }

    /// Exit sled on the sampled/suppressed path: mirrors the entry's
    /// decision so entry/exit events stay balanced, and feeds the
    /// invocation's duration into the redundancy band.
    fn sampled_exit(
        &mut self,
        key: Fi,
        id: capi_xray::PackedId,
        clock: u64,
    ) -> Result<u64, ExecError> {
        let f = key as usize;
        let ppm = self.engine.redundancy_ppm;
        let popped = self.samp.as_mut().expect("sampling state").in_flight[f].pop();
        // An exit without a matching entry this epoch (the pinned spine
        // straddling an epoch boundary) is delivered like the full path;
        // no duration is measurable for it.
        let (decision, entry_clock) = popped.unwrap_or((EntryDecision::Emitted, u64::MAX));
        if entry_clock != u64::MAX && decision != EntryDecision::SampledOut {
            // Running estimate: the last observed duration. Suppressed
            // invocations still update it (their sleds measured it), so
            // a steady function keeps suppressing.
            let duration = clock.saturating_sub(entry_clock);
            let samp = self.samp.as_mut().expect("sampling state");
            let est = samp.dur_est[f];
            samp.suppress_next[f] = ppm > 0 && est != u64::MAX && within_ppm(duration, est, ppm);
            samp.dur_est[f] = duration;
        }
        match decision {
            EntryDecision::Emitted => {
                if let Some(epoch) = &mut self.epoch {
                    epoch.regions.stop(key, clock);
                }
                self.sled_event(key, id, EventKind::Exit, clock)
            }
            EntryDecision::SampledOut | EntryDecision::Suppressed => {
                let clock = clock + self.engine.model.patched_sled_ns;
                if let Some(epoch) = &mut self.epoch {
                    epoch.charge(key, 0, self.engine.model.patched_sled_ns);
                }
                let samp = self.samp.as_mut().expect("sampling state");
                match decision {
                    EntryDecision::SampledOut => samp.sampled_skips += 1,
                    _ => samp.suppressed += 1,
                }
                Ok(clock)
            }
        }
    }

    /// Executes trips `lo..hi` of one call site (at the caller's call
    /// depth), preserving the round-robin virtual-dispatch phase.
    fn run_site(
        &mut self,
        site: usize,
        lo: u64,
        hi: u64,
        clock: u64,
        depth: u32,
    ) -> Result<u64, ExecError> {
        // Hoist the target slice out of the trip loop: `engine` outlives
        // `self`'s borrow, so the per-trip body never goes back to the
        // bindings.
        let engine = self.engine;
        let targets: &[Fi] = self.b.targets(site);
        let n_targets = targets.len();
        if n_targets == 0 {
            return Ok(clock);
        }
        let mut clock = clock;
        for trip in lo..hi {
            let target = targets[(trip as usize) % n_targets];
            if engine.quiet[target as usize] {
                // Fast path: whole remaining trips of a single quiet
                // target collapse into one multiplication.
                if n_targets == 1 {
                    let (tns, tnops) = self.quiet_cost(target);
                    let remaining = hi - trip;
                    clock = clock.saturating_add(tns.saturating_mul(remaining));
                    self.nops += tnops.saturating_mul(remaining);
                    break;
                }
                let (tns, tnops) = self.quiet_cost(target);
                clock += tns;
                self.nops += tnops;
            } else {
                clock = self.exec(target, clock, depth + 1)?;
            }
        }
        Ok(clock)
    }

    /// Executes one function invocation, returning the updated clock.
    fn exec(&mut self, key: Fi, clock: u64, depth: u32) -> Result<u64, ExecError> {
        if depth > MAX_DEPTH {
            self.depth_cutoffs += 1;
            return Ok(clock);
        }
        let f = key as usize;
        if self.engine.quiet[f] {
            let (ns, nops) = self.quiet_cost(key);
            self.nops += nops;
            return Ok(clock + ns);
        }
        let mut clock = self.enter_function(key, clock)?;

        let b = self.b;
        for site in b.sites(key) {
            clock = self.run_site(site, 0, b.trips(site), clock, depth)?;
        }

        if let Some(call) = b.func(key).mpi {
            clock = self.mpi_op(call, clock)?;
        }

        self.exit_function(key, clock)
    }

    /// Performs one MPI operation and attributes the time it took to
    /// every open tracked region (TALP's PMPI interposition).
    fn mpi_op(&mut self, call: MpiCall, clock: u64) -> Result<u64, ExecError> {
        let after = self.world.perform(self.rank, clock, convert_mpi(call))?;
        if let Some(epoch) = &mut self.epoch {
            epoch.regions.charge_mpi(after.saturating_sub(clock));
        }
        Ok(after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capi_appmodel::{LinkTarget, ProgramBuilder};
    use capi_mpisim::CostModel;
    use capi_objmodel::{compile, CompileOptions};
    use capi_xray::{instrument_object, PassOptions, ShardedLog, TrampolineSet};
    use proptest::prelude::*;
    use std::cell::Cell;

    struct Setup {
        process: Process,
        runtime: XRayRuntime,
    }

    fn setup(instrument: bool, patch: &[&str]) -> Setup {
        let mut b = ProgramBuilder::new("app");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(50)
            .instructions(300)
            .cost(1_000)
            .calls("MPI_Init", 1)
            .calls("step", 10)
            .calls("MPI_Finalize", 1)
            .finish();
        b.function("step")
            .statements(40)
            .instructions(300)
            .cost(500)
            .calls("kernel", 100)
            .calls("MPI_Allreduce", 1)
            .finish();
        b.function("kernel")
            .statements(80)
            .instructions(700)
            .cost(2_000)
            .imbalance(20)
            .loop_depth(2)
            .finish();
        b.function("MPI_Init")
            .statements(1)
            .instructions(10)
            .cost(0)
            .mpi(MpiCall::Init)
            .finish();
        b.function("MPI_Allreduce")
            .statements(1)
            .instructions(10)
            .cost(0)
            .mpi(MpiCall::Allreduce { bytes: 64 })
            .finish();
        b.function("MPI_Finalize")
            .statements(1)
            .instructions(10)
            .cost(0)
            .mpi(MpiCall::Finalize)
            .finish();
        let p = b.build().unwrap();
        let bin = compile(&p, &CompileOptions::o2()).unwrap();
        let mut process = Process::launch_binary(&bin).unwrap();
        let runtime = XRayRuntime::new();
        if instrument {
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
                .unwrap();
            for name in patch {
                let fi = inst.image.function_index(name).unwrap();
                let fid = inst.sleds.fid_of(fi).unwrap();
                runtime
                    .patch_functions(&mut process.memory, 0, &[fid])
                    .unwrap();
            }
        }
        Setup { process, runtime }
    }

    fn run(s: &Setup, ranks: u32) -> RunReport {
        let engine = Engine::prepare(&s.process, &s.runtime, OverheadModel::default()).unwrap();
        let world = World::new(ranks, CostModel::default());
        engine.run(&world).unwrap()
    }

    #[test]
    fn vanilla_run_produces_positive_time() {
        let s = setup(false, &[]);
        let r = run(&s, 4);
        assert!(r.total_ns > 0);
        assert_eq!(r.events, 0);
        assert_eq!(r.per_rank_ns.len(), 4);
    }

    #[test]
    fn inactive_sleds_cost_almost_nothing() {
        let vanilla = run(&setup(false, &[]), 4);
        let inactive = run(&setup(true, &[]), 4);
        assert_eq!(inactive.events, 0);
        assert!(inactive.nop_sleds > 0);
        let overhead = inactive.total_ns as f64 / vanilla.total_ns as f64 - 1.0;
        assert!(
            overhead < 0.01,
            "dormant sleds must be near-zero overhead, got {overhead:.4}"
        );
    }

    #[test]
    fn patched_functions_dispatch_events() {
        let s = setup(true, &["kernel"]);
        let log = Arc::new(ShardedLog::new(4));
        s.runtime.set_handler(log.clone());
        let r = run(&s, 2);
        // kernel runs 10 × 100 times per rank, entry+exit each.
        assert_eq!(r.events, 2 * 10 * 100 * 2);
        assert_eq!(log.len() as u64, r.events);
    }

    #[test]
    fn instrumentation_overhead_is_visible_and_ordered() {
        let vanilla = run(&setup(false, &[]), 4);
        let s_kernel = setup(true, &["kernel"]);
        s_kernel.runtime.set_handler(Arc::new(ShardedLog::new(4)));
        let kernel = run(&s_kernel, 4);
        let s_full = setup(true, &["main", "step", "kernel"]);
        s_full.runtime.set_handler(Arc::new(ShardedLog::new(4)));
        let full = run(&s_full, 4);
        assert!(kernel.total_ns > vanilla.total_ns);
        assert!(full.total_ns > kernel.total_ns);
    }

    #[test]
    fn imbalance_skews_rank_clocks_before_sync() {
        let s = setup(false, &[]);
        let engine = Engine::prepare(&s.process, &s.runtime, OverheadModel::default()).unwrap();
        let world = World::new(4, CostModel::default());
        let r = engine.run(&world).unwrap();
        // Collectives equalize final clocks across ranks.
        assert!(r.per_rank_ns.windows(2).all(|w| w[0] == w[1]));
        // But MPI wait time differs: rank 0 (fast) waits longest.
        assert!(world.mpi_time(0) > world.mpi_time(3));
    }

    #[test]
    fn determinism() {
        let s = setup(true, &["kernel"]);
        s.runtime.set_handler(Arc::new(ShardedLog::new(4)));
        let a = run(&s, 4);
        let b = run(&s, 4);
        assert_eq!(a.per_rank_ns, b.per_rank_ns);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn quiet_memoization_matches_direct_execution() {
        // Same program, one run with memoization-eligible state (no
        // patches) vs one with a patch forcing full traversal of `step`;
        // the *body* time must agree (instrumentation only adds cost).
        let vanilla = run(&setup(false, &[]), 1);
        let s = setup(true, &[]);
        let inactive = run(&s, 1);
        let slack = inactive.total_ns - vanilla.total_ns;
        // Slack is exactly the NOP sled cost.
        assert_eq!(
            slack,
            inactive.nop_sleds * OverheadModel::default().unpatched_sled_ns
        );
    }

    #[test]
    fn epoch_runs_chain_to_exactly_one_monolithic_run() {
        let s = setup(true, &["kernel", "step"]);
        s.runtime.set_handler(Arc::new(ShardedLog::new(4)));
        let engine = Engine::prepare(&s.process, &s.runtime, OverheadModel::default()).unwrap();
        let whole = engine.run(&World::new(4, CostModel::default())).unwrap();

        // The schedule finds main's 10-trip `step` loop.
        assert_eq!(engine.epoch_loop_trips(), 10);
        let epochs = 5;
        let world = World::new(4, CostModel::default());
        let mut clocks = vec![0u64; 4];
        let (mut events, mut nops) = (0u64, 0u64);
        for e in 0..epochs {
            let out = engine
                .run_epoch(
                    &world,
                    EpochSpec {
                        index: e,
                        total: epochs,
                    },
                    &clocks,
                )
                .unwrap();
            clocks = out.per_rank_ns.clone();
            events += out.events;
            nops += out.nop_sleds;
        }
        assert_eq!(clocks, whole.per_rank_ns);
        assert_eq!(events, whole.events);
        assert_eq!(nops, whole.nop_sleds);
    }

    #[test]
    fn epoch_samples_report_per_function_costs() {
        let s = setup(true, &["kernel"]);
        s.runtime.set_handler(Arc::new(ShardedLog::new(4)));
        let engine = Engine::prepare(&s.process, &s.runtime, OverheadModel::default()).unwrap();
        let world = World::new(2, CostModel::default());
        let out = engine
            .run_epoch(&world, EpochSpec { index: 0, total: 1 }, &[0, 0])
            .unwrap();
        assert_eq!(out.samples.len(), 1); // only `kernel` is patched
        let sample = &out.samples[0];
        // 10 steps × 100 kernel calls × 2 ranks.
        assert_eq!(sample.visits, 2 * 10 * 100);
        assert!(sample.inst_ns > 0);
        assert_eq!(out.inst_ns, sample.inst_ns);
        assert!(out.busy_ns >= out.epoch_ns);
        // Spine = main (kernel loop is inside `step`, reached via sites).
        assert!(!engine.spine_sled_ids().is_empty());
    }

    #[test]
    fn epoch_talp_samples_capture_imbalance_and_mpi() {
        let s = setup(true, &["step", "kernel"]);
        s.runtime.set_handler(Arc::new(ShardedLog::new(4)));
        let engine = Engine::prepare(&s.process, &s.runtime, OverheadModel::default()).unwrap();
        let world = World::new(4, CostModel::default());
        let out = engine
            .run_epoch(&world, EpochSpec { index: 0, total: 1 }, &[0; 4])
            .unwrap();
        // Two patched functions → two regions.
        assert_eq!(out.talp_samples.len(), 2);
        let kernel = out
            .talp_samples
            .iter()
            .find(|r| r.name == "kernel")
            .unwrap();
        // imbalance(20): rank 3 computes 20% longer than rank 0, and no
        // MPI runs while `kernel` is open.
        assert!(kernel.useful_per_rank[3] > kernel.useful_per_rank[0]);
        assert_eq!(kernel.mpi_per_rank.iter().sum::<u64>(), 0);
        assert_eq!(kernel.enters, 4 * 10 * 100);
        let step = out.talp_samples.iter().find(|r| r.name == "step").unwrap();
        // The allreduce inside `step` is attributed to the open region.
        assert!(step.mpi_per_rank.iter().sum::<u64>() > 0);
        assert_eq!(step.enters, 4 * 10);
        assert!(step.elapsed_ns > 0);
        // Deterministic across identical runs.
        let out2 = engine
            .run_epoch(
                &World::new(4, CostModel::default()),
                EpochSpec { index: 0, total: 1 },
                &[0; 4],
            )
            .unwrap();
        assert_eq!(out.talp_samples, out2.talp_samples);
    }

    fn packed(s: &Setup, name: &str) -> PackedId {
        let fi = s
            .process
            .object(0)
            .unwrap()
            .image
            .function_index(name)
            .unwrap();
        s.runtime.snapshot().lookup(0, fi).unwrap().0
    }

    #[test]
    fn sampled_rate_reduces_events_and_extrapolates_visits() {
        let mut s = setup(true, &["kernel"]);
        let log = Arc::new(ShardedLog::new(4));
        s.runtime.set_handler(log.clone());
        let id = packed(&s, "kernel");
        s.runtime
            .repatch(
                &mut s.process.memory,
                &PatchDelta {
                    set_rate: vec![(id, 4)],
                    ..PatchDelta::default()
                },
            )
            .unwrap();
        let engine = Engine::prepare(&s.process, &s.runtime, OverheadModel::default()).unwrap();
        let world = World::new(2, CostModel::default());
        let out = engine
            .run_epoch(&world, EpochSpec { index: 0, total: 1 }, &[0, 0])
            .unwrap();
        // kernel runs 10 × 100 times per rank; at 1-in-4 only 250 of
        // those reach the handler, entry + exit each.
        assert_eq!(out.events, 2 * 250 * 2);
        assert_eq!(
            log.len() as u64,
            out.events,
            "handler saw exactly the sampled events"
        );
        assert_eq!(out.sampled_skips, 2 * 750 * 2);
        assert_eq!(out.suppressed_events, 0);
        // The runtime's striped stats count the entry-side skips.
        assert_eq!(s.runtime.stats().sampled_skips, 2 * 750);
        let sample = &out.samples[0];
        assert_eq!(sample.rate, 4);
        // Extrapolated back to the true invocation count.
        assert_eq!(sample.visits, 2 * 10 * 100);
        assert!(sample.inst_ns > 0);
        // Deterministic per rank: a fresh world replays the same sample.
        let out2 = engine
            .run_epoch(
                &World::new(2, CostModel::default()),
                EpochSpec { index: 0, total: 1 },
                &[0, 0],
            )
            .unwrap();
        assert_eq!(out.per_rank_ns, out2.per_rank_ns);
        assert_eq!(out.events, out2.events);
        assert_eq!(out.sampled_skips, out2.sampled_skips);
    }

    #[test]
    fn rate_one_is_byte_identical_to_full_instrumentation() {
        let run_with = |explicit_rate_one: bool| {
            let mut s = setup(true, &["kernel", "step"]);
            let log = Arc::new(ShardedLog::new(4));
            s.runtime.set_handler(log.clone());
            if explicit_rate_one {
                let ids = vec![(packed(&s, "kernel"), 1), (packed(&s, "step"), 1)];
                s.runtime
                    .repatch(
                        &mut s.process.memory,
                        &PatchDelta {
                            set_rate: ids,
                            ..PatchDelta::default()
                        },
                    )
                    .unwrap();
            }
            let engine = Engine::prepare(&s.process, &s.runtime, OverheadModel::default()).unwrap();
            let r = engine.run(&World::new(4, CostModel::default())).unwrap();
            // Ranks run on threads; the sink's rank-major merge recovers
            // each rank's (deterministic) event sequence.
            (r, log.events())
        };
        let (full, full_log) = run_with(false);
        let (sampled_one, sampled_log) = run_with(true);
        assert_eq!(
            full.per_rank_ns, sampled_one.per_rank_ns,
            "clocks identical"
        );
        assert_eq!(full.events, sampled_one.events);
        assert_eq!(full_log, sampled_log, "logs byte-identical");
        assert_eq!(sampled_one.sampled_skips, 0);
        assert_eq!(sampled_one.suppressed_events, 0);
    }

    #[test]
    fn redundancy_band_suppresses_steady_durations() {
        let s = setup(true, &["kernel"]);
        let log = Arc::new(ShardedLog::new(4));
        s.runtime.set_handler(log.clone());
        let engine = Engine::prepare(&s.process, &s.runtime, OverheadModel::default())
            .unwrap()
            .with_redundancy_ppm(50_000);
        let world = World::new(2, CostModel::default());
        let out = engine
            .run_epoch(&world, EpochSpec { index: 0, total: 1 }, &[0, 0])
            .unwrap();
        // kernel's duration is constant per rank: the first invocation
        // seeds the estimate, the second lands inside the band and arms
        // suppression, and every later one stays suppressed.
        assert_eq!(
            out.events,
            2 * 2 * 2,
            "2 ranks × 2 emitted invocations × entry+exit"
        );
        assert_eq!(out.suppressed_events, 2 * 998 * 2);
        assert_eq!(out.sampled_skips, 0);
        assert_eq!(log.len() as u64, out.events);
        // The suppression count makes fidelity auditable: emitted visits
        // plus suppressed invocations reconstruct the true count.
        let sample = &out.samples[0];
        assert_eq!(
            sample.visits + out.suppressed_events / 2,
            2 * 10 * 100,
            "visits + suppressed invocations = true invocation count"
        );
        // ppm 0 must disable the band entirely.
        let engine0 = Engine::prepare(&s.process, &s.runtime, OverheadModel::default())
            .unwrap()
            .with_redundancy_ppm(0);
        let out0 = engine0
            .run_epoch(
                &World::new(2, CostModel::default()),
                EpochSpec { index: 0, total: 1 },
                &[0, 0],
            )
            .unwrap();
        assert_eq!(out0.suppressed_events, 0);
        assert_eq!(out0.samples[0].visits, 2 * 10 * 100);
    }

    #[test]
    fn a_rebind_sees_exactly_what_a_fresh_process_would() {
        let model = OverheadModel::default();
        let whole_run = |engine: &Engine| {
            let world = World::new(2, CostModel::default());
            engine
                .run_epoch(&world, EpochSpec { index: 0, total: 1 }, &[0, 0])
                .unwrap()
        };
        let launch = || {
            let s = setup(true, &["kernel"]);
            s.runtime.set_handler(Arc::new(ShardedLog::new(4)));
            s
        };
        let patched = |e: &Engine| e.sleds.iter().flatten().filter(|s| s.patched).count();
        // One process: prepare, change sleds and a rate, prepare again.
        let mut one = launch();
        let delta = PatchDelta {
            patch: vec![packed(&one, "step")],
            set_rate: vec![(packed(&one, "kernel"), 4)],
            ..PatchDelta::default()
        };
        let before = Engine::prepare(&one.process, &one.runtime, model).unwrap();
        let before_out = whole_run(&before);
        one.runtime
            .repatch(&mut one.process.memory, &delta)
            .unwrap();
        let after = Engine::prepare(&one.process, &one.runtime, model).unwrap();
        assert!(
            Arc::ptr_eq(&before.bindings, &after.bindings),
            "a repatch must not cost a rebind"
        );
        // The same patch state on a process nothing was ever bound on.
        let mut fresh = launch();
        fresh
            .runtime
            .repatch(&mut fresh.process.memory, &delta)
            .unwrap();
        let cold = Engine::prepare(&fresh.process, &fresh.runtime, model).unwrap();
        let after_out = whole_run(&after);
        assert_eq!(after_out, whole_run(&cold));
        assert_ne!(after_out, before_out, "the overlay did change");
        // The engine prepared earlier keeps the patch state it saw.
        assert_eq!((patched(&before), patched(&after)), (1, 2));
    }

    thread_local! {
        /// Full quiet-subtree analyses (`compute_quiet`) on this thread.
        pub(super) static FULL_QUIET_ANALYSES: Cell<usize> = const { Cell::new(0) };
    }

    /// A random small program over two objects: `main` brackets its
    /// calls with `MPI_Init` / `MPI_Finalize`; `g0..gN` form a DAG (`g_i`
    /// calls only higher indices, odd ones live in `libg.so`) whose last
    /// levels may call an MPI stub or a self- or mutually recursive
    /// function (single-trip, so the depth guard bounds it at 256
    /// calls).
    fn random_process(shape: &[(u8, u8, u8)], recursion: u8) -> Setup {
        let n = shape.len();
        let target = |i: usize, pick: u8| -> Option<String> {
            let above = n - i - 1;
            match pick as usize % (above + 1) {
                k if k < above => Some(format!("g{}", i + 1 + k)),
                _ if pick >= 64 => None,
                _ => Some(
                    ["MPI_Barrier", "selfrec", "ping", "MPI_Allreduce"][recursion as usize % 4]
                        .into(),
                ),
            }
        };
        let mut b = ProgramBuilder::new("rand");
        fn body(
            f: capi_appmodel::FunctionBuilder<'_>,
            cost: u64,
        ) -> capi_appmodel::FunctionBuilder<'_> {
            f.statements(40).instructions(300).cost(cost)
        }
        b.unit("m.cc", LinkTarget::Executable);
        let mut main = body(b.function("main").main(), 1_000).calls("MPI_Init", 1);
        for (i, &(a, _, trips)) in shape.iter().enumerate().take(4) {
            main = main.calls(
                &format!("g{}", a as usize % (i + 1)),
                1 + u64::from(trips % 3),
            );
        }
        main.calls("MPI_Finalize", 1).finish();
        for (name, call) in [
            ("MPI_Init", MpiCall::Init),
            ("MPI_Barrier", MpiCall::Barrier),
            ("MPI_Allreduce", MpiCall::Allreduce { bytes: 32 }),
            ("MPI_Finalize", MpiCall::Finalize),
        ] {
            (b.function(name).statements(1).instructions(10).cost(0))
                .mpi(call)
                .finish();
        }
        body(b.function("selfrec"), 7).calls("selfrec", 1).finish();
        body(b.function("ping"), 5).calls("pong", 1).finish();
        body(b.function("pong"), 3).calls("ping", 1).finish();
        for parity in [0, 1] {
            if parity == 1 {
                b.unit("g.cc", LinkTarget::Dso("libg.so".into()));
            }
            for (i, &(a, c, trips)) in shape.iter().enumerate() {
                if i % 2 != parity {
                    continue;
                }
                let mut f = body(b.function(&format!("g{i}")), 100 + 37 * i as u64)
                    .imbalance(u32::from(c % 3) * 10);
                if let Some(callee) = target(i, a) {
                    f = f.calls(&callee, 1 + u64::from(trips % 2));
                }
                if let Some(callee) = target(i, c).filter(|_| trips & 4 != 0) {
                    f = f.calls(&callee, 1);
                }
                f.finish();
            }
        }
        let bin = compile(&b.build().unwrap(), &CompileOptions::o2()).unwrap();
        let process = Process::launch_binary(&bin).unwrap();
        let runtime = XRayRuntime::new();
        for (index, lo) in process.loaded() {
            let inst = instrument_object(lo.image.clone(), &PassOptions::instrument_all());
            if index == 0 {
                runtime
                    .register_main(inst, lo, TrampolineSet::absolute())
                    .unwrap();
            } else {
                runtime
                    .register_dso(inst, lo, index, TrampolineSet::pic())
                    .unwrap();
            }
        }
        runtime.set_handler(Arc::new(ShardedLog::new(2)));
        Setup { process, runtime }
    }

    /// Runs `epochs` epochs back to back on a fresh two-rank world.
    fn run_epochs(engine: &Engine, epochs: usize) -> Vec<EpochOutcome> {
        let world = World::new(2, CostModel::default());
        let mut clocks = vec![0u64; 2];
        (0..epochs)
            .map(|index| {
                let spec = EpochSpec {
                    index,
                    total: epochs,
                };
                let out = engine.run_epoch(&world, spec, &clocks).unwrap();
                clocks.clone_from(&out.per_rank_ns);
                out
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One engine carried through a sequence of repatch batches by
        /// `apply` — rate-only, sled, mixed, with IDs the runtime skips
        /// and with an `mprotect` fault cutting a batch short — is, after
        /// every batch, the engine `prepare` builds from scratch: same
        /// sleds, quiet flags, generation and schedule, and the same next
        /// epochs out of scratch that has been through all the earlier
        /// ones.
        #[test]
        fn a_carried_engine_equals_a_freshly_prepared_one(
            shape in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 3..9),
            recursion in 0u8..4,
            ppm in 0u32..2,
            initially_patched in proptest::collection::vec(any::<u8>(), 0..4),
            batches in proptest::collection::vec(
                (proptest::collection::vec((0u8..4, any::<u8>(), 1u32..6), 0..5), 0u8..12),
                1..8,
            ),
        ) {
            let model = OverheadModel::default();
            let ppm = ppm * 50_000;
            let mut s = random_process(&shape, recursion);
            let ids: Vec<PackedId> = {
                let e = Engine::prepare(&s.process, &s.runtime, model).unwrap();
                e.sleds.iter().flatten().map(|sled| sled.id).collect()
            };
            let patch = initially_patched.iter().map(|&p| ids[p as usize % ids.len()]).collect();
            let initial = PatchDelta { patch, ..PatchDelta::default() };
            s.runtime.repatch(&mut s.process.memory, &initial).unwrap();
            let mut carried = Engine::prepare(&s.process, &s.runtime, model)
                .unwrap()
                .with_redundancy_ppm(ppm);
            let analyses = FULL_QUIET_ANALYSES.get();
            for (step, (entries, fault)) in batches.into_iter().enumerate() {
                let mut delta = PatchDelta::default();
                for (kind, pick, rate) in entries {
                    let patched = s.runtime.patched_ids();
                    let id = match pick {
                        // IDs the runtime has nothing for.
                        250.. => PackedId::pack(9, u32::from(pick)).unwrap(),
                        240..250 => PackedId::pack(0, 10_000 + u32::from(pick)).unwrap(),
                        // Unpatching mostly hits something patched.
                        _ if kind == 1 && pick % 4 != 0 && !patched.is_empty() => {
                            patched[pick as usize % patched.len()]
                        }
                        _ => ids[pick as usize % ids.len()],
                    };
                    match kind {
                        0 => delta.patch.push(id),
                        1 => delta.unpatch.push(id),
                        2 => delta.set_rate.push((id, rate)),
                        _ => {
                            delta.patch.push(id);
                            delta.set_rate.push((id, rate));
                        }
                    }
                }
                // The first or second `mprotect` of this batch fails.
                if fault < 2 {
                    let next = s.process.memory.stats.mprotect_calls;
                    s.process.memory.schedule_mprotect_fault(next + u64::from(fault));
                }
                match s.runtime.repatch_surviving(&mut s.process.memory, &delta) {
                    Ok(_) | Err(XRayError::Mem { .. }) => {}
                    Err(e) => panic!("unexpected repatch failure: {e}"),
                }
                carried.apply(&delta);
                prop_assert_eq!(FULL_QUIET_ANALYSES.get(), analyses, "apply is incremental");
                let fresh = Engine::prepare(&s.process, &s.runtime, model)
                    .unwrap()
                    .with_redundancy_ppm(ppm);
                FULL_QUIET_ANALYSES.set(analyses);
                prop_assert!(carried.is_current(&s.process));
                prop_assert_eq!(carried.generation, fresh.generation);
                prop_assert_eq!(&carried.sleds, &fresh.sleds);
                prop_assert_eq!(carried.sampled, fresh.sampled);
                prop_assert_eq!(&carried.quiet, &fresh.quiet);
                prop_assert_eq!(carried.spine_sled_ids(), fresh.spine_sled_ids());
                prop_assert_eq!(carried.epoch_loop_trips(), fresh.epoch_loop_trips());
                let epochs = 1 + step % 2;
                prop_assert_eq!(run_epochs(&carried, epochs), run_epochs(&fresh, epochs));
            }
        }
    }

    #[test]
    fn call_children_exposes_the_instrumentable_tree() {
        let s = setup(true, &[]);
        let engine = Engine::prepare(&s.process, &s.runtime, OverheadModel::default()).unwrap();
        let children = engine.call_children();
        assert!(!children.is_empty());
        let step = packed(&s, "step");
        let kernel = packed(&s, "kernel");
        let step_children = &children.iter().find(|(id, _)| *id == step).unwrap().1;
        assert!(step_children.contains(&kernel));
        // kernel is a leaf.
        let kernel_children = &children.iter().find(|(id, _)| *id == kernel).unwrap().1;
        assert!(kernel_children.is_empty() || !kernel_children.contains(&step));
    }

    #[test]
    fn depth_cutoffs_are_counted_not_silent() {
        let mut b = ProgramBuilder::new("deep");
        b.unit("d.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(10)
            .instructions(100)
            .cost(100)
            .calls("recur", 1)
            .finish();
        b.function("recur")
            .statements(10)
            .instructions(100)
            .cost(10)
            .calls("recur", 1)
            .finish();
        let p = b.build().unwrap();
        let bin = compile(&p, &CompileOptions::o2()).unwrap();
        let process = Process::launch_binary(&bin).unwrap();
        let runtime = XRayRuntime::new();
        let engine = Engine::prepare(&process, &runtime, OverheadModel::default()).unwrap();
        let r = engine.run(&World::new(2, CostModel::default())).unwrap();
        assert_eq!(r.depth_cutoffs, 2); // one cutoff per rank
    }

    #[test]
    fn lenient_prepare_survives_an_unloaded_callee() {
        let mut b = ProgramBuilder::new("plugin-host");
        b.unit("h.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(20)
            .instructions(200)
            .cost(1_000)
            .calls("work", 4)
            .calls("plugin_entry", 2)
            .finish();
        b.function("work")
            .statements(30)
            .instructions(300)
            .cost(500)
            .finish();
        b.unit("p.cc", LinkTarget::Dso("libplugin.so".into()));
        b.function("plugin_entry")
            .statements(30)
            .instructions(300)
            .cost(800)
            .finish();
        let p = b.build().unwrap();
        let bin = compile(&p, &CompileOptions::o2()).unwrap();
        let mut process = Process::launch_binary(&bin).unwrap();
        process.dlclose("libplugin.so").unwrap();
        let runtime = XRayRuntime::new();
        // Strict prepare fails typed; the lenient one drops the calls.
        assert!(matches!(
            Engine::prepare(&process, &runtime, OverheadModel::default()),
            Err(ExecError::UnresolvedCall { .. })
        ));
        let engine = Engine::prepare_lenient(&process, &runtime, OverheadModel::default()).unwrap();
        assert_eq!(engine.unresolved_calls(), 1);
        let r = engine.run(&World::new(2, CostModel::default())).unwrap();
        assert!(r.total_ns > 0);
    }

    #[test]
    fn missing_main_is_an_error() {
        let mut b = ProgramBuilder::new("nomain");
        b.unit("x.cc", LinkTarget::Executable);
        b.function("main").main().statements(5).finish();
        let p = b.build().unwrap();
        let bin = compile(&p, &CompileOptions::o2()).unwrap();
        // Build a process whose executable lacks main by dlcloseing…
        // simpler: empty-ish object with only helper.
        let process = Process::launch_binary(&bin).unwrap();
        let runtime = XRayRuntime::new();
        // main auto-inlined? No: main is never inlined, so this must work.
        assert!(Engine::prepare(&process, &runtime, OverheadModel::default()).is_ok());
    }
}

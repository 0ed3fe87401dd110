//! DSO-churn lifecycle: scripted open/close/rebuild/interpose operations
//! applied at the epoch boundaries of an adaptive run.
//!
//! A real long-running job does not keep a frozen set of shared objects:
//! plugins load late, get rebuilt and reloaded, and occasionally vanish
//! while the instrumentation layer is mid-decision. [`LifecycleScript`]
//! makes that churn *deterministic*: every open/close/reload/interpose is
//! scheduled at an epoch index, every injected failure comes from a
//! seeded [`FaultPlan`], and the adaptive loop degrades gracefully —
//! a repatch against a concurrently-unloaded object skips the object
//! (never panics, never aliases a recycled slot), a failed `dlopen` is
//! retried with bounded backoff, and every degradation is counted in
//! `capi-obs` (`lifecycle.dlopen_failed`, `lifecycle.degraded_repatch`,
//! `lifecycle.retries`) and surfaced in the adaptation log.
//!
//! Retry/backoff knobs (read once per load):
//!
//! * `CAPI_DLOPEN_RETRIES` — extra attempts after a transient `dlopen`
//!   failure (default 2; transient = injected fault or memory error).
//! * `CAPI_DLOPEN_BACKOFF_NS` — virtual backoff before the first retry,
//!   doubled per attempt (default 1 ms of virtual time).

use crate::startup::{patch_ic_selection, DynCapiError, Session};
use crate::symres::resolve_ids;
use capi_objmodel::{FaultKind, FaultPlan, LoadError, Object};
use capi_obs::{CounterId, RecordKind, Telemetry, CONTROL_RANK};
use capi_xray::{instrument_object, TrampolineSet};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One scripted lifecycle operation. `Open`/`Close`/`Reload`/`Interpose`
/// run at the *start* of their epoch (before the engine snapshots);
/// `UnloadRace` runs *between* the controller's epoch decision and the
/// repatch that applies it — the delta was computed against an object
/// that no longer exists, which is exactly the race the surviving
/// repatch path exists for.
#[derive(Clone, Debug)]
pub enum LifecycleOp {
    /// `dlopen` the registered image, instrument + register + patch it.
    Open(String),
    /// `dlclose` + deregister; the controller's records are invalidated.
    Close(String),
    /// Close then open the (possibly rebuilt) registered image — the
    /// XRay object ID is recycled, which is why stale packed IDs must
    /// never survive the swap.
    Reload(String),
    /// `dlopen` the image at interposition position: its exported
    /// symbols shadow same-named symbols of earlier objects.
    Interpose(String),
    /// Unload the object *after* the controller decided this epoch's
    /// delta but *before* the repatch applies it.
    UnloadRace(String),
}

impl LifecycleOp {
    /// The DSO the operation targets.
    pub fn target(&self) -> &str {
        match self {
            LifecycleOp::Open(n)
            | LifecycleOp::Close(n)
            | LifecycleOp::Reload(n)
            | LifecycleOp::Interpose(n)
            | LifecycleOp::UnloadRace(n) => n,
        }
    }

    /// Stable lowercase tag for logs and telemetry.
    pub fn kind(&self) -> &'static str {
        match self {
            LifecycleOp::Open(_) => "open",
            LifecycleOp::Close(_) => "close",
            LifecycleOp::Reload(_) => "reload",
            LifecycleOp::Interpose(_) => "interpose",
            LifecycleOp::UnloadRace(_) => "unload_race",
        }
    }
}

/// A deterministic churn schedule for one adaptive run: DSO images by
/// name, operations by epoch, and an optional seeded [`FaultPlan`]
/// (installed into the process before epoch 0).
#[derive(Clone, Debug, Default)]
pub struct LifecycleScript {
    images: BTreeMap<String, Arc<Object>>,
    ops: Vec<(usize, LifecycleOp)>,
    fault_plan: Option<FaultPlan>,
}

impl LifecycleScript {
    /// An empty script. An empty script still switches the adaptive
    /// loop onto the lenient (surviving) prepare/repatch paths.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the image `Open`/`Reload`/`Interpose`
    /// ops resolve their name against. Replacing an image between two
    /// `Reload`s is how a "rebuilt" object is modeled.
    pub fn image(mut self, dso: Arc<Object>) -> Self {
        self.images.insert(dso.name.clone(), dso);
        self
    }

    /// Schedules `op` at the boundary of `epoch` (0-based). Ops at the
    /// same epoch run in insertion order.
    pub fn at(mut self, epoch: usize, op: LifecycleOp) -> Self {
        self.ops.push((epoch, op));
        self
    }

    /// Installs a seeded fault plan: `dlopen`-class faults fire inside
    /// the loader, `mprotect` faults inside the address space, and
    /// `UnloadRace` faults are consumed by the adaptive loop (one per
    /// epoch index, racing the most recently loaded DSO).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    pub(crate) fn take_fault_plan(&self) -> Option<FaultPlan> {
        self.fault_plan.clone()
    }

    pub(crate) fn ops_at(&self, epoch: usize) -> impl Iterator<Item = &LifecycleOp> {
        self.ops
            .iter()
            .filter(move |(e, _)| *e == epoch)
            .map(|(_, op)| op)
    }

    pub(crate) fn resolve_image(&self, name: &str) -> Option<Arc<Object>> {
        self.images.get(name).cloned()
    }
}

/// What the lifecycle layer did over one adaptive run (also mirrored
/// into the `lifecycle.*` telemetry counters and the adaptation log).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// DSOs opened (including reload re-opens and interpositions).
    pub opened: u64,
    /// DSOs closed (including reload closes and unload races).
    pub closed: u64,
    /// `dlopen` attempts that failed (before or after retries).
    pub dlopen_failed: u64,
    /// Retries performed after transient `dlopen` failures.
    pub retries: u64,
    /// Opens abandoned after exhausting the retry budget (plus opens
    /// failed on non-transient errors).
    pub opens_abandoned: u64,
    /// Repatches that degraded: the batch skipped vanished objects, or
    /// an injected memory fault dropped the whole delta for the epoch.
    pub degraded_repatches: u64,
    /// Scripted unload races executed.
    pub unload_races: u64,
    /// Call targets the lenient engine prepare dropped (cumulative
    /// high-water mark across epochs, not a sum).
    pub unresolved_calls: u64,
    /// Virtual cost of lifecycle work: registration, patching, and
    /// retry backoff (folded into the run's `T_adapt`).
    pub lifecycle_ns: u64,
}

/// The `lifecycle.*` counters, registered once per run.
pub(crate) struct LifecycleCounters {
    tel: Telemetry,
    dlopen_failed: CounterId,
    degraded_repatch: CounterId,
    retries: CounterId,
    opened: CounterId,
    closed: CounterId,
    unload_race: CounterId,
}

impl LifecycleCounters {
    pub(crate) fn new(tel: &Telemetry) -> Self {
        Self {
            dlopen_failed: tel.counter("lifecycle.dlopen_failed"),
            degraded_repatch: tel.counter("lifecycle.degraded_repatch"),
            retries: tel.counter("lifecycle.retries"),
            opened: tel.counter("lifecycle.opened"),
            closed: tel.counter("lifecycle.closed"),
            unload_race: tel.counter("lifecycle.unload_race"),
            tel: tel.clone(),
        }
    }

    fn bump(&self, c: CounterId, n: u64) {
        if n > 0 {
            self.tel.add(c, 0, n);
        }
    }

    /// Captures one lifecycle event into the flight recorder (control
    /// ring), if the recorder is armed. `n == 0` events are skipped so
    /// the ring only retains degradations that actually happened.
    fn capture(&self, name: &'static str, n: u64, detail: String) {
        if n > 0 && self.tel.recorder_armed() {
            self.tel
                .record(CONTROL_RANK, RecordKind::Lifecycle, name, detail);
        }
    }

    pub(crate) fn record_degraded(&self, n: u64) {
        self.bump(self.degraded_repatch, n);
        self.capture("lifecycle.degraded_repatch", n, format!("count={n}"));
    }

    pub(crate) fn record_race(&self) {
        self.bump(self.unload_race, 1);
        self.bump(self.closed, 1);
        self.capture("lifecycle.unload_race", 1, String::new());
    }

    pub(crate) fn record_load(&self, name: &str, load: &LoadDsoOutcome) {
        let failed = u64::from(load.failed_attempts);
        self.bump(self.dlopen_failed, failed);
        self.bump(self.retries, u64::from(load.attempts.saturating_sub(1)));
        match &load.result {
            Ok(oid) => {
                self.bump(self.opened, 1);
                self.capture(
                    "lifecycle.dlopen_retry",
                    failed,
                    format!("dso={name} object={oid} failed_attempts={failed}"),
                );
            }
            Err(e) => {
                self.capture(
                    "lifecycle.dlopen_failed",
                    1,
                    format!(
                        "dso={name} attempts={} kind={}",
                        load.attempts,
                        error_kind(e)
                    ),
                );
            }
        }
    }

    pub(crate) fn record_close(&self) {
        self.bump(self.closed, 1);
    }
}

/// Outcome of one [`Session::load_dso`]: the mechanics report even on
/// failure, so the adaptive loop can account backoff time and count
/// degradations without re-deriving them.
#[derive(Debug)]
pub struct LoadDsoOutcome {
    /// The new XRay object ID, or the typed error that ended the load.
    pub result: Result<u8, DynCapiError>,
    /// `dlopen` attempts made (1 = no retry needed).
    pub attempts: u32,
    /// `dlopen` attempts that failed.
    pub failed_attempts: u32,
    /// Virtual backoff time spent between attempts.
    pub backoff_ns: u64,
    /// Virtual cost of registration + symbol resolution + patching
    /// (0 when the load failed).
    pub register_ns: u64,
    /// Sleds patched on the fresh object per the session's IC.
    pub sleds_patched: u64,
}

fn env_u32(name: &str, default: u32) -> u32 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Transient `dlopen` failures are worth retrying: injected faults
/// (OOM, relocation, partial load) and memory errors. Structural
/// errors (already loaded, missing dependency) are not.
fn transient(e: &LoadError) -> bool {
    matches!(e, LoadError::Fault { .. } | LoadError::Mem(_))
}

impl Session {
    /// `dlopen`s a DSO mid-session with bounded retry, then runs the
    /// same per-object startup pipeline the initial objects went
    /// through: XRay pass, PIC registration, symbol resolution merged
    /// into the session map, and patching per the session's IC (patch
    /// everything when the session runs `xray full`).
    ///
    /// Transient failures (injected faults, memory errors) are retried
    /// up to `CAPI_DLOPEN_RETRIES` times with doubling virtual backoff
    /// starting at `CAPI_DLOPEN_BACKOFF_NS`; structural errors fail
    /// immediately and typed.
    pub fn load_dso(&mut self, image: Arc<Object>, interpose: bool) -> LoadDsoOutcome {
        let retries = env_u32("CAPI_DLOPEN_RETRIES", 2);
        let backoff_base = env_u64("CAPI_DLOPEN_BACKOFF_NS", 1_000_000);
        let mut out = LoadDsoOutcome {
            result: Err(DynCapiError::Load(LoadError::NotLoaded(image.name.clone()))),
            attempts: 0,
            failed_attempts: 0,
            backoff_ns: 0,
            register_ns: 0,
            sleds_patched: 0,
        };
        let pi = loop {
            out.attempts += 1;
            let r = if interpose {
                self.process.dlopen_interpose(image.clone())
            } else {
                self.process.dlopen(image.clone())
            };
            match r {
                Ok(pi) => break pi,
                Err(e) if transient(&e) && out.attempts <= retries => {
                    out.failed_attempts += 1;
                    out.backoff_ns += backoff_base << (out.attempts - 1);
                }
                Err(e) => {
                    out.failed_attempts += 1;
                    out.result = Err(DynCapiError::Load(e));
                    return out;
                }
            }
        };
        match self.register_loaded_dso(pi) {
            Ok((oid, register_ns, sleds)) => {
                out.register_ns = register_ns;
                out.sleds_patched = sleds;
                out.result = Ok(oid);
            }
            Err(e) => out.result = Err(e),
        }
        out
    }

    /// The per-object half of startup, for one freshly `dlopen`ed
    /// process index: instrument, register (PIC trampolines), resolve
    /// symbols into the session map, patch per IC. Returns the object
    /// ID, the virtual cost, and the sleds patched.
    fn register_loaded_dso(&mut self, pi: usize) -> Result<(u8, u64, u64), DynCapiError> {
        let costs = self.config.init_costs;
        let lo = self
            .process
            .object(pi)
            .ok_or_else(|| DynCapiError::Load(LoadError::NotLoaded(format!("index {pi}"))))?;
        let inst = instrument_object(lo.image.clone(), &self.config.pass);
        let oid = self
            .runtime
            .register_dso(inst.clone(), lo, pi, TrampolineSet::pic())?;
        self.report.dsos += 1;
        let mut ns = costs.per_dso_registration_ns
            + inst.sleds.total_sleds() as u64 * costs.per_sled_resolution_ns;
        // The object ID may be a recycled slot: purge any stale names
        // first so a function of the departed DSO can never resolve.
        self.symbols.names.retain(|id, _| id.object() != oid);
        self.symbols.unresolved.retain(|id| id.object() != oid);
        let res = resolve_ids(&self.process, &self.runtime, &[(oid, &inst)]);
        ns += res.stats.symbols_scanned as u64 * costs.per_symbol_nm_ns;
        ns += (res.stats.resolved + res.stats.unresolved_hidden) as u64 * costs.per_fid_map_ns;
        self.symbols.names.extend(res.names);
        self.symbols.unresolved.extend(res.unresolved);
        self.symbols.stats.symbols_scanned += res.stats.symbols_scanned;
        self.symbols.stats.resolved += res.stats.resolved;
        self.symbols.stats.unresolved_hidden += res.stats.unresolved_hidden;
        self.symbols.stats.unresolved_static_init += res.stats.unresolved_static_init;
        let mprotect_before = self.process.memory.stats.mprotect_calls;
        let patch = patch_ic_selection(
            &self.runtime,
            &mut self.process.memory,
            &self.config,
            &self.symbols,
            &[(oid, &inst)],
        )?;
        let mprotect_calls = self.process.memory.stats.mprotect_calls - mprotect_before;
        ns += (patch.sleds_patched + patch.rates_set) * costs.per_sled_patch_ns
            + mprotect_calls * costs.per_mprotect_ns;
        self.report.rates_set += patch.rates_set;
        self.report.instrumented_functions += inst.sleds.num_functions();
        self.report.total_sleds += inst.sleds.total_sleds();
        Ok((oid, ns, patch.sleds_patched))
    }

    /// `dlclose`s a DSO mid-session and deregisters it from the XRay
    /// runtime, purging its entries from the session symbol map so a
    /// recycled object ID can never alias departed names. Returns the
    /// deregistered object ID (`None` when the object was loaded but
    /// never XRay-registered).
    ///
    /// Dependent-order violations surface as the loader's typed
    /// [`LoadError::HasDependents`] *before* anything is deregistered.
    pub fn unload_dso(&mut self, name: &str) -> Result<Option<u8>, DynCapiError> {
        let pi = self
            .process
            .loaded_index(name)
            .ok_or_else(|| DynCapiError::Load(LoadError::NotLoaded(name.to_string())))?;
        let oid = self.runtime.object_id_for_process_index(pi);
        // Close first: a HasDependents refusal must leave the
        // registration intact (nothing was unloaded).
        self.process.dlclose(name).map_err(DynCapiError::Load)?;
        if let Some(oid) = oid {
            self.runtime.deregister(oid)?;
            self.symbols.names.retain(|id, _| id.object() != oid);
            self.symbols.unresolved.retain(|id| id.object() != oid);
        }
        Ok(oid)
    }

    /// The unload-race victim when a [`FaultKind::UnloadRace`] fires
    /// from a fault plan (which carries no target name): the most
    /// recently loaded, still-registered DSO — deterministic by
    /// construction, and never the main executable.
    pub(crate) fn race_victim(&self) -> Option<String> {
        self.process
            .loaded()
            .filter(|(pi, _)| *pi != 0)
            .filter(|(pi, _)| self.runtime.object_id_for_process_index(*pi).is_some())
            .map(|(_, lo)| lo.image.name.clone())
            .last()
    }
}

/// One epoch's lifecycle activity, handed back to the adaptive loop:
/// unload races to run after the controller's decision, object IDs the
/// controller must forget, and log lines (already deterministic).
#[derive(Debug, Default)]
pub(crate) struct EpochLifecycle {
    /// Targets of `UnloadRace` ops (scripted or plan-driven), applied
    /// between the controller decision and the repatch.
    pub races: Vec<String>,
    /// Object IDs invalidated by `Close`/`Reload` this epoch.
    pub invalidated: Vec<u8>,
    /// Object IDs freshly registered by `Open`/`Reload`/`Interpose`
    /// this epoch (the controller adopts their patched functions).
    pub opened: Vec<u8>,
    /// Deterministic log lines describing what happened.
    pub notes: Vec<String>,
    /// Virtual cost of this epoch's lifecycle work.
    pub ns: u64,
}

/// Applies every non-race op scheduled at `epoch`, collecting races for
/// the loop to run later. Open failures degrade (counted + logged), they
/// never abort the run; structural close errors (`HasDependents`,
/// `NotLoaded`) are also degraded-and-logged, because a robust session
/// outlives a bad script line the same way it outlives a bad `dlopen`.
pub(crate) fn apply_epoch_ops(
    session: &mut Session,
    script: &LifecycleScript,
    epoch: usize,
    stats: &mut LifecycleStats,
    counters: Option<&LifecycleCounters>,
) -> EpochLifecycle {
    let mut out = EpochLifecycle::default();
    // Plan-driven unload races fire on the epoch index clock.
    let mut plan_races = 0;
    if let Some(plan) = session.process.fault_plan_mut() {
        while plan
            .take_matching(epoch as u64, &[FaultKind::UnloadRace])
            .is_some()
        {
            plan_races += 1;
        }
    }
    for _ in 0..plan_races {
        if let Some(victim) = session.race_victim() {
            out.notes.push(format!(
                "lifecycle: fault unload_race arms against `{victim}`"
            ));
            out.races.push(victim);
        } else {
            out.notes
                .push("lifecycle: fault unload_race fired with no DSO loaded".to_string());
        }
    }
    let ops: Vec<LifecycleOp> = script.ops_at(epoch).cloned().collect();
    for op in ops {
        match &op {
            LifecycleOp::UnloadRace(name) => {
                out.notes
                    .push(format!("lifecycle: unload_race arms against `{name}`"));
                out.races.push(name.clone());
                continue;
            }
            LifecycleOp::Open(name) | LifecycleOp::Interpose(name) => {
                let interpose = matches!(op, LifecycleOp::Interpose(_));
                open_one(session, script, name, interpose, stats, counters, &mut out);
            }
            LifecycleOp::Close(name) => {
                close_one(session, name, stats, counters, &mut out);
            }
            LifecycleOp::Reload(name) => {
                if close_one(session, name, stats, counters, &mut out) {
                    open_one(session, script, name, false, stats, counters, &mut out);
                }
            }
        }
    }
    stats.lifecycle_ns += out.ns;
    out
}

fn open_one(
    session: &mut Session,
    script: &LifecycleScript,
    name: &str,
    interpose: bool,
    stats: &mut LifecycleStats,
    counters: Option<&LifecycleCounters>,
    out: &mut EpochLifecycle,
) {
    let Some(image) = script.resolve_image(name) else {
        stats.opens_abandoned += 1;
        out.notes.push(format!(
            "lifecycle: open `{name}` skipped — no image registered"
        ));
        return;
    };
    let load = session.load_dso(image, interpose);
    stats.dlopen_failed += load.failed_attempts as u64;
    stats.retries += load.attempts.saturating_sub(1) as u64;
    out.ns += load.backoff_ns + load.register_ns;
    if let Some(c) = counters {
        c.record_load(name, &load);
    }
    match load.result {
        Ok(oid) => {
            stats.opened += 1;
            out.opened.push(oid);
            let verb = if interpose { "interpose" } else { "open" };
            let retry = if load.attempts > 1 {
                format!(" after {} retries", load.attempts - 1)
            } else {
                String::new()
            };
            out.notes.push(format!(
                "lifecycle: {verb} `{name}` as object {oid}{retry} ({} sleds patched)",
                load.sleds_patched
            ));
        }
        Err(e) => {
            stats.opens_abandoned += 1;
            out.notes.push(format!(
                "lifecycle: open `{name}` abandoned after {} attempts [{}]: {e}",
                load.attempts,
                error_kind(&e),
            ));
        }
    }
}

/// Closes one DSO, returning whether the close actually happened.
fn close_one(
    session: &mut Session,
    name: &str,
    stats: &mut LifecycleStats,
    counters: Option<&LifecycleCounters>,
    out: &mut EpochLifecycle,
) -> bool {
    match session.unload_dso(name) {
        Ok(oid) => {
            stats.closed += 1;
            if let Some(c) = counters {
                c.record_close();
            }
            if let Some(oid) = oid {
                out.invalidated.push(oid);
                out.notes
                    .push(format!("lifecycle: close `{name}` (object {oid})"));
            } else {
                out.notes
                    .push(format!("lifecycle: close `{name}` (never registered)"));
            }
            true
        }
        Err(e) => {
            out.notes.push(format!(
                "lifecycle: close `{name}` refused [{}]: {e}",
                error_kind(&e)
            ));
            false
        }
    }
}

/// Stable machine-readable tag of a session error, extending the
/// `PersistError::kind()` convention across the lifecycle layer.
pub fn error_kind(e: &DynCapiError) -> &'static str {
    match e {
        DynCapiError::Load(l) => l.kind(),
        DynCapiError::XRay(_) => "xray",
        DynCapiError::Exec(_) => "exec",
    }
}

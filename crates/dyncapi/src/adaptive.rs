//! In-flight adaptation: run one measurement session in epochs, letting
//! the controller repatch sleds at every epoch boundary.
//!
//! This is the runtime column of Fig. 3 made *live*: instead of
//! restarting the session per IC adjustment, the session keeps running —
//! the exec engine feeds per-epoch, per-function costs to a
//! [`capi_adapt::AdaptController`], the resulting delta is applied
//! through `XRayRuntime::repatch` (one `mprotect` pair per touched
//! object, one atomically published dispatch table for the whole
//! batch), and the engine — one for the run, prepared again only when
//! the load state or anything but that batch moved — follows it with
//! `Engine::apply`, re-reading the named sleds from a lock-free
//! snapshot of the published table, while the simulated MPI world
//! stays up. Repatch costs are accounted separately
//! as `T_adapt`, alongside `T_init`. The whole loop is tool-agnostic:
//! whatever [`crate::ToolChoice`] the session was started with keeps
//! receiving events across IC reloads.

use crate::lifecycle::{LifecycleCounters, LifecycleScript, LifecycleStats};
use crate::postmortem::{DumpTrigger, PostMortem};
use crate::startup::{DynCapiError, Session};
use capi_adapt::{
    AdaptController, CallChildren, EpochView, FuncSample, RegionSample, WarmStartStats,
};
use capi_exec::{Engine, EpochSpec};
use capi_mpisim::World;
use capi_obs::{
    pct_to_ppm, EpochHealth, HealthConfig, HealthMonitor, HealthReport, RecordKind, Telemetry,
    CONTROL_RANK,
};
use capi_persist::{
    fingerprint_object, plan_object_matches, InstrumentationProfile, ObjectMatch, ObjectRecord,
    PersistError,
};
use capi_talp::EfficiencyReport;
use capi_xray::PackedId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a warm start was requested.
///
/// [`WarmStart::Unavailable`] exists so the layer that *tried* to load
/// a profile (and failed — missing file, schema mismatch, truncation)
/// can hand the reason down: the session degrades to a cold start and
/// records why in the adaptation log, instead of silently forgetting
/// that persistence was asked for.
#[derive(Clone, Debug)]
pub enum WarmStart<'a> {
    /// Seed the controller from this profile before epoch 0.
    Profile(&'a InstrumentationProfile),
    /// A profile was requested but could not be loaded; the typed error
    /// says *why* (missing file, truncation, schema mismatch, wrong
    /// kind), is rendered into the adaptation log, and tags the
    /// telemetry cold-start instant with its [`PersistError::kind`].
    Unavailable(PersistError),
}

/// What the warm start actually did (also summarized in the log).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStartSummary {
    /// Profile objects whose identity matched under the same ID.
    pub objects_unchanged: usize,
    /// Profile objects remapped to a different XRay object ID.
    pub objects_remapped: usize,
    /// Profile objects matched by name only (rebuilt binaries) — their
    /// functions were re-resolved by symbol name.
    pub objects_rebuilt: usize,
    /// Profile objects with no live counterpart; records discarded.
    pub objects_missing: usize,
    /// Functions of rebuilt objects successfully rebound by name.
    pub functions_rebound: usize,
    /// Controller-side seeding counters.
    pub seed: WarmStartStats,
    /// Virtual cost of the epoch-0 pre-trim/pre-grow repatch (counted
    /// into the run's total `T_adapt`).
    pub adapt_ns: u64,
}

/// Per-epoch record of the adaptation trajectory.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Slowest rank's clock advance this epoch.
    pub epoch_ns: u64,
    /// Events dispatched this epoch.
    pub events: u64,
    /// Instrumentation cost this epoch (all ranks).
    pub inst_ns: u64,
    /// Measured overhead, percent of application time.
    pub overhead_pct: f64,
    /// Active (patched) functions *after* this epoch's delta.
    pub active_after: usize,
    /// Sleds patched by this epoch's delta.
    pub sleds_patched: u64,
    /// Sleds unpatched by this epoch's delta.
    pub sleds_unpatched: u64,
    /// Virtual cost of applying this epoch's delta.
    pub adapt_ns: u64,
}

/// Outcome of an adaptive (single-session, zero-restart) run.
#[derive(Clone, Debug)]
pub struct AdaptiveRun {
    /// The adaptation trajectory, one record per epoch.
    pub records: Vec<EpochRecord>,
    /// Final virtual clock per rank.
    pub per_rank_ns: Vec<u64>,
    /// Slowest rank's final clock (program run time).
    pub run_ns: u64,
    /// Events dispatched over the whole run.
    pub events: u64,
    /// Dormant sleds executed over the whole run.
    pub nop_sleds: u64,
    /// Recursion-guard cutoffs over the whole run.
    pub depth_cutoffs: u64,
    /// Invocations skipped by 1-in-N sampling over the whole run (the
    /// fidelity audit trail for demoted functions).
    pub sampled_skips: u64,
    /// Events withheld by the redundancy-suppression band over the
    /// whole run.
    pub suppressed_events: u64,
    /// `T_init`: startup patching cost (from the session report).
    pub init_ns: u64,
    /// `T_adapt`: total in-flight repatching cost.
    pub adapt_ns: u64,
    /// `T_total` = `T_init` + `T_adapt` + run time.
    pub total_ns: u64,
    /// Session restarts needed — always 0, that is the point.
    pub restarts: u32,
    /// Warm-start accounting, when the run was seeded from a profile.
    pub warm: Option<WarmStartSummary>,
    /// DSO-churn accounting, when the run executed a
    /// [`LifecycleScript`]: opens/closes, retry and degradation
    /// counters, and the virtual lifecycle cost (already inside
    /// `adapt_ns`).
    pub lifecycle: Option<LifecycleStats>,
    /// Per-epoch, per-region efficiency trajectory (POP metrics +
    /// communication fraction) — the TALP signal the expansion policies
    /// consumed, aggregated for reporting.
    pub efficiency: EfficiencyReport,
    /// Per-epoch health monitoring outcome: detector firings (overhead
    /// watchdog, convergence stall, event-volume regression) and the
    /// anomalies themselves. Always populated — the detectors are pure
    /// and run with or without telemetry.
    pub health: HealthReport,
    /// The post-mortem dump built at the run's *first* trigger (typed
    /// degradation or detector firing), if any fired. Also written to
    /// `CAPI_DUMP_OUT` as JSON when that knob is set.
    pub post_mortem: Option<PostMortem>,
    /// Events the tool adapter could not deliver, session total at the
    /// end of the run.
    pub adapter_loss: crate::AdapterEventLoss,
}

impl Session {
    /// The epoch loop behind [`crate::AdaptiveRunBuilder`]: runs the
    /// program once, split into `epochs` epochs, applying the
    /// controller's IC delta at every epoch boundary — zero restarts.
    /// The controller is seeded with the session's initially patched
    /// functions and pinned on the schedule's spine (functions whose
    /// entry/exit straddle epoch boundaries).
    ///
    /// `redundancy_ppm` is forwarded to the engine each epoch;
    /// `health_cfg` parameterizes the per-epoch anomaly detectors and
    /// `baseline_events` seeds the event-volume regression detector
    /// (when `None`, a warm-start profile's prediction is used, else
    /// the detector stays inert).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_epoch_loop(
        &mut self,
        controller: &mut AdaptController,
        epochs: usize,
        warm: Option<WarmStart<'_>>,
        redundancy_ppm: u32,
        lifecycle: Option<&LifecycleScript>,
        health_cfg: HealthConfig,
        baseline_events: Option<u64>,
    ) -> Result<AdaptiveRun, DynCapiError> {
        let epochs = epochs.max(1);
        let mut monitor = HealthMonitor::new(health_cfg);
        let mut baseline_events = baseline_events;
        let mut post_mortem: Option<PostMortem> = None;
        let mut dumps_written = 0usize;
        // Typed-degradation high-water mark: any increase across an
        // epoch boundary (failed dlopens, abandoned opens, degraded
        // repatches, unload races — fired faults always surface as one
        // of these) is a dump trigger.
        let mut prev_degradations = 0u64;
        // The runtime's instance is authoritative (set-once): a builder
        // installing a second telemetry on a reused runtime reports into
        // the one the runtime actually folds its counters into.
        let tel = self.runtime.telemetry().cloned();
        // DSO churn: a script switches the whole loop onto the lenient
        // paths — `Engine::prepare_lenient` (unresolved call targets are
        // dropped and counted, not fatal) and `repatch_surviving` (a
        // delta referencing a vanished object skips it, never panics,
        // never aliases a recycled slot).
        let lenient = lifecycle.is_some();
        let mut lc_stats = LifecycleStats::default();
        let lc_counters = match (&tel, lifecycle) {
            (Some(t), Some(_)) => Some(LifecycleCounters::new(t)),
            _ => None,
        };
        if let Some(plan) = lifecycle.and_then(|s| s.take_fault_plan()) {
            self.process.set_fault_plan(plan);
        }
        // Unload races armed at the epoch boundary, executed between the
        // controller's decision and the repatch applying it.
        let mut pending_races: Vec<String> = Vec::new();
        let mut next_lifecycle_epoch = 0usize;
        let run_span = tel.as_ref().map(|t| t.span("dyncapi.run"));
        let run_wall = std::time::Instant::now();
        let world = World::new(self.config.ranks, self.config.mpi_cost);
        if let Some(talp) = &self.talp {
            world.add_hook(talp.clone());
        }
        // The engine borrows this handle, not `self`, so it lives across
        // the repatches (`&mut self`) between its epochs.
        let runtime = Arc::clone(&self.runtime);
        let mut engine: Option<Engine<'_>> = None;
        let mut clocks = vec![0u64; self.config.ranks as usize];
        let mut records = Vec::with_capacity(epochs);
        let mut efficiency = EfficiencyReport::new();
        let mut children: CallChildren = CallChildren::default();
        let mut warm = warm;
        let mut warm_summary: Option<WarmStartSummary> = None;
        let mut initialized = false;
        let (mut events, mut nops, mut cutoffs, mut adapt_ns) = (0u64, 0u64, 0u64, 0u64);
        let (mut skips, mut suppressed) = (0u64, 0u64);
        let mut epoch = 0usize;
        while epoch < epochs {
            // Lifecycle ops scheduled at this boundary run before the
            // engine snapshots (once per epoch — the warm-start path
            // re-enters the loop body for epoch 0 without re-churning).
            if let Some(script) = lifecycle {
                if epoch >= next_lifecycle_epoch {
                    next_lifecycle_epoch = epoch + 1;
                    let el = crate::lifecycle::apply_epoch_ops(
                        self,
                        script,
                        epoch,
                        &mut lc_stats,
                        lc_counters.as_ref(),
                    );
                    adapt_ns += el.ns;
                    for note in &el.notes {
                        controller.log_note(note);
                    }
                    for oid in &el.invalidated {
                        controller.invalidate_object(*oid);
                    }
                    // The controller adopts the fresh object's patched
                    // functions so the budget governs them too.
                    for oid in &el.opened {
                        let adopted: Vec<_> = self
                            .runtime
                            .patched_ids()
                            .into_iter()
                            .filter(|id| id.object() == *oid)
                            .map(|id| (id, self.display_name(id)))
                            .collect();
                        controller.begin(adopted);
                    }
                    pending_races.extend(el.races);
                }
            }
            // One engine for the run, kept while it provably describes
            // the process: same call bindings (no lifecycle op, unload
            // race or reload since) and the runtime at the generation the
            // engine last read. Otherwise — the first epoch included —
            // prepare from scratch: the bindings come from the process,
            // rebuilt only if what is loaded changed; the sled overlay
            // and quiet-subtree analysis are redone over the program.
            if !engine.as_ref().is_some_and(|e| e.is_current(&self.process)) {
                let fresh = if lenient {
                    Engine::prepare_lenient(&self.process, &runtime, self.config.overhead)
                } else {
                    Engine::prepare(&self.process, &runtime, self.config.overhead)
                }
                .map_err(DynCapiError::Exec)?
                .with_redundancy_ppm(redundancy_ppm);
                #[cfg(test)]
                tests::note_prepare(self.process.bindings());
                engine = Some(match &tel {
                    Some(t) => fresh.with_telemetry(t.clone()),
                    None => fresh,
                });
            }
            let engine = engine.as_mut().expect("prepared above");
            lc_stats.unresolved_calls = lc_stats.unresolved_calls.max(engine.unresolved_calls());
            if !initialized {
                initialized = true;
                // Setup: seed the controller from the startup patch
                // state, pin the spine, and share the instrumentable
                // call tree across epochs (it is a property of the
                // loaded objects, not of the patch state). Hint every
                // sled-bearing function's name so expansion decisions
                // log readably.
                let names: Vec<_> = self
                    .runtime
                    .patched_ids()
                    .into_iter()
                    .map(|id| (id, self.display_name(id)))
                    .collect();
                controller.begin(names);
                controller.pin(engine.spine_sled_ids());
                let tree = engine.call_children();
                controller.hint_names(
                    tree.iter()
                        .map(|&(parent, _)| (parent, self.display_name(parent))),
                );
                children = Arc::new(
                    tree.into_iter()
                        .map(|(parent, kids)| {
                            (parent.raw(), kids.into_iter().map(|k| k.raw()).collect())
                        })
                        .collect(),
                );
                // Warm start: apply the profile's converged state as
                // one repatch batch before the program runs its first
                // epoch, and carry the engine over it like over any
                // other boundary.
                match warm.take() {
                    None => {}
                    Some(WarmStart::Unavailable(err)) => {
                        controller.log_note(&format!("warm start unavailable: {err} — cold start"));
                        if let Some(t) = &tel {
                            t.instant(
                                "dyncapi.cold_start",
                                &[
                                    ("kind", err.kind().to_string()),
                                    ("reason", err.to_string()),
                                ],
                            );
                        }
                    }
                    Some(WarmStart::Profile(profile)) => {
                        // The profile predicts the warm run's per-epoch
                        // event volume — the regression detector's
                        // baseline unless the caller provided one.
                        baseline_events =
                            baseline_events.or_else(|| profile.baseline_epoch_events());
                        let mut summary = self.plan_warm_start(controller, profile, tel.as_ref());
                        let (delta, seed) = controller.seed_from_profile(profile, &summary.idmap);
                        summary.summary.seed = seed;
                        let rep = self.apply_delta_resilient(
                            &delta,
                            lenient,
                            "warm start",
                            controller,
                            &mut lc_stats,
                            lc_counters.as_ref(),
                        )?;
                        carry_over(engine, &delta, &rep);
                        let warm_ns = repatch_cost_ns(&self.config.init_costs, &rep);
                        summary.summary.adapt_ns = warm_ns;
                        adapt_ns += warm_ns;
                        if let Some(t) = &tel {
                            let s = &summary.summary;
                            t.instant(
                                "dyncapi.warm_start",
                                &[
                                    ("objects_unchanged", s.objects_unchanged.to_string()),
                                    ("objects_remapped", s.objects_remapped.to_string()),
                                    ("objects_rebuilt", s.objects_rebuilt.to_string()),
                                    ("objects_missing", s.objects_missing.to_string()),
                                    ("functions_rebound", s.functions_rebound.to_string()),
                                    ("pre_trimmed", s.seed.pre_trimmed.to_string()),
                                    ("pre_grown", s.seed.pre_grown.to_string()),
                                    ("adapt_ns", s.adapt_ns.to_string()),
                                ],
                            );
                        }
                        warm_summary = Some(summary.summary);
                        continue;
                    }
                }
            }
            let out = engine
                .run_epoch(
                    &world,
                    EpochSpec {
                        index: epoch,
                        total: epochs,
                    },
                    &clocks,
                )
                .map_err(DynCapiError::Exec)?;
            clocks.clone_from(&out.per_rank_ns);
            events += out.events;
            nops += out.nop_sleds;
            cutoffs += out.depth_cutoffs;
            skips += out.sampled_skips;
            suppressed += out.suppressed_events;
            // Build the region samples once (one name resolution per
            // region), then derive the efficiency record from the same
            // sample — the report and the policies see identical data
            // by construction.
            let talp: Vec<RegionSample> = out
                .talp_samples
                .iter()
                .map(|r| RegionSample {
                    id: r.id,
                    name: self.display_name(r.id),
                    enters: r.enters,
                    elapsed_ns: r.elapsed_ns,
                    useful_per_rank: r.useful_per_rank.clone(),
                    mpi_per_rank: r.mpi_per_rank.clone(),
                })
                .collect();
            for r in &talp {
                efficiency.record(epoch, r.id.raw(), &r.name, r.efficiency());
            }
            let view = EpochView {
                epoch,
                epoch_ns: out.epoch_ns,
                busy_ns: out.busy_ns,
                inst_ns: out.inst_ns,
                events: out.events,
                samples: out
                    .samples
                    .iter()
                    .map(|s| FuncSample {
                        id: s.id,
                        name: self.display_name(s.id),
                        visits: s.visits,
                        inst_ns: s.inst_ns,
                        body_cost_ns: s.body_cost_ns,
                        rate: s.rate,
                    })
                    .collect(),
                talp,
                children: children.clone(),
            };
            let overhead_pct = view.overhead_pct();
            let delta = controller.on_epoch(&view);
            // Armed unload races strike here: the delta above was
            // computed against an object that is about to vanish.
            for victim in std::mem::take(&mut pending_races) {
                match self.unload_dso(&victim) {
                    Ok(oid) => {
                        lc_stats.closed += 1;
                        lc_stats.unload_races += 1;
                        if let Some(c) = &lc_counters {
                            c.record_race();
                        }
                        controller.log_note(&format!(
                            "lifecycle: unload race closed `{victim}` before the epoch {epoch} repatch"
                        ));
                        if let Some(oid) = oid {
                            controller.invalidate_object(oid);
                        }
                    }
                    Err(e) => controller.log_note(&format!(
                        "lifecycle: unload race on `{victim}` refused [{}]: {e}",
                        crate::lifecycle::error_kind(&e)
                    )),
                }
            }
            let label = format!("epoch {epoch}");
            let rep = self.apply_delta_resilient(
                &delta,
                lenient,
                &label,
                controller,
                &mut lc_stats,
                lc_counters.as_ref(),
            )?;
            if epoch + 1 < epochs {
                carry_over(engine, &delta, &rep);
            }
            let epoch_adapt_ns = repatch_cost_ns(&self.config.init_costs, &rep);
            adapt_ns += epoch_adapt_ns;
            records.push(EpochRecord {
                epoch,
                epoch_ns: out.epoch_ns,
                events: out.events,
                inst_ns: out.inst_ns,
                overhead_pct,
                active_after: self.runtime.patched_functions(),
                sleds_patched: rep.sleds_patched,
                sleds_unpatched: rep.sleds_unpatched,
                adapt_ns: epoch_adapt_ns,
            });
            // Per-epoch health evaluation: the detectors are pure and
            // cheap, so they run with or without telemetry.
            let fired = monitor.observe(&EpochHealth {
                epoch,
                overhead_ppm: pct_to_ppm(overhead_pct),
                budget_ppm: pct_to_ppm(controller.budget_pct()),
                progressed: !delta.is_empty(),
                converged: controller.converged_at().is_some(),
                events: out.events,
                baseline_events,
            });
            for a in &fired {
                controller.log_note(&format!(
                    "health: {} detector fired at epoch {}: {}",
                    a.kind.as_str(),
                    a.epoch,
                    a.detail
                ));
                if let Some(t) = &tel {
                    let c = t.counter(match a.kind {
                        capi_obs::DetectorKind::Overhead => "health.overhead_firings",
                        capi_obs::DetectorKind::Stall => "health.stall_firings",
                        capi_obs::DetectorKind::Volume => "health.volume_firings",
                    });
                    t.add_control(c, 1);
                    t.record(
                        CONTROL_RANK,
                        RecordKind::Health,
                        "health.anomaly",
                        format!("{} {}", a.kind.as_str(), a.detail),
                    );
                }
            }
            // First trigger — typed degradation or detector firing —
            // dumps the black box; the run continues either way.
            if post_mortem.is_none() {
                let degradations = lc_stats.dlopen_failed
                    + lc_stats.opens_abandoned
                    + lc_stats.degraded_repatches
                    + lc_stats.unload_races;
                let trigger = if degradations > prev_degradations {
                    Some(DumpTrigger::Degradation {
                        detail: format!(
                            "{} typed degradations by epoch {epoch} ({} new)",
                            degradations,
                            degradations - prev_degradations
                        ),
                    })
                } else {
                    fired.first().map(|a| match a.kind {
                        capi_obs::DetectorKind::Overhead => DumpTrigger::BudgetOverrun { epoch },
                        capi_obs::DetectorKind::Stall => DumpTrigger::ConvergenceStall { epoch },
                        capi_obs::DetectorKind::Volume => DumpTrigger::VolumeRegression { epoch },
                    })
                };
                prev_degradations = degradations;
                if let Some(trigger) = trigger {
                    controller.log_note(&format!(
                        "health: post-mortem dump ({}) at epoch {epoch}",
                        trigger.label()
                    ));
                    let (generation, dispatch) = self.runtime.dispatch_summary();
                    let dump = PostMortem::build(
                        trigger,
                        epoch,
                        tel.as_ref(),
                        generation,
                        &dispatch,
                        self.adapter_event_loss(),
                        controller.log_lines(),
                        monitor.report(),
                    );
                    if let Some(path) = capi_obs::dump_out_from_env() {
                        if let Err(e) = dump.write_json(&path) {
                            controller.log_note(&format!("dump write failed ({path}): {e}"));
                        }
                    }
                    dumps_written += 1;
                    post_mortem = Some(dump);
                }
            } else {
                prev_degradations = lc_stats.dlopen_failed
                    + lc_stats.opens_abandoned
                    + lc_stats.degraded_repatches
                    + lc_stats.unload_races;
            }
            epoch += 1;
        }
        let run_ns = clocks.iter().copied().max().unwrap_or(0);
        // Fold the run's event-volume reductions into the adaptation-log
        // summary and sync the dispatch counters into the registry one
        // final time (they were last synced at the final publish).
        controller.record_event_volume(skips, suppressed);
        let health = monitor.into_report();
        controller.record_health(
            dumps_written,
            [
                health.overhead_firings,
                health.stall_firings,
                health.volume_firings,
            ],
        );
        self.runtime.sync_telemetry();
        if let Some(span) = &run_span {
            span.arg("epochs", records.len());
            span.arg("events", events);
            span.arg("run_ns", run_ns);
            span.arg("t_init_ns", self.report.init_ns);
            span.arg("t_adapt_ns", adapt_ns);
            span.wall_ns(run_wall.elapsed().as_nanos() as u64);
        }
        Ok(AdaptiveRun {
            records,
            per_rank_ns: clocks,
            run_ns,
            events,
            nop_sleds: nops,
            depth_cutoffs: cutoffs,
            sampled_skips: skips,
            suppressed_events: suppressed,
            init_ns: self.report.init_ns,
            adapt_ns,
            total_ns: self.report.init_ns + adapt_ns + run_ns,
            restarts: 0,
            warm: warm_summary,
            lifecycle: lifecycle.map(|_| lc_stats),
            efficiency,
            health,
            post_mortem,
            adapter_loss: self.adapter_event_loss(),
        })
    }

    /// Applies one repatch batch. On the strict path this is
    /// `XRayRuntime::repatch` with errors propagated. On the lenient
    /// (lifecycle) path it is `repatch_surviving` — vanished objects
    /// are skipped and counted — and an injected environment fault
    /// (`mprotect`) mid-batch degrades instead of killing the run: the
    /// rest of the delta is dropped for this epoch, the next epoch
    /// re-decides from live samples, and the degradation is counted and
    /// logged. What the batch wrote before the fault stays written and
    /// published, so the returned report is that applied part — the
    /// caller charges and records it like any other batch.
    #[allow(clippy::too_many_arguments)]
    fn apply_delta_resilient(
        &mut self,
        delta: &capi_xray::PatchDelta,
        lenient: bool,
        label: &str,
        controller: &mut AdaptController,
        lc_stats: &mut LifecycleStats,
        lc_counters: Option<&LifecycleCounters>,
    ) -> Result<capi_xray::RepatchReport, DynCapiError> {
        if !lenient {
            return Ok(self.runtime.repatch(&mut self.process.memory, delta)?);
        }
        let (rep, note) = match self
            .runtime
            .repatch_surviving(&mut self.process.memory, delta)
        {
            Ok(rep) if rep.skipped_objects == 0 && rep.skipped_entries == 0 => return Ok(rep),
            Ok(rep) => (
                rep,
                format!(
                    "lifecycle: degraded repatch at {label} — skipped {} objects, {} entries",
                    rep.skipped_objects, rep.skipped_entries
                ),
            ),
            Err(e @ capi_xray::XRayError::Mem { applied, .. }) => {
                let sleds = applied.sleds_patched + applied.sleds_unpatched;
                let outcome = if sleds == 0 {
                    "delta dropped".to_string()
                } else {
                    format!(
                        "partially applied ({sleds} sleds, {} objects)",
                        applied.mprotect_pairs
                    )
                };
                (
                    applied,
                    format!("lifecycle: repatch failed at {label} ({e}) — {outcome}"),
                )
            }
            Err(e) => return Err(e.into()),
        };
        lc_stats.degraded_repatches += 1;
        if let Some(c) = lc_counters {
            c.record_degraded(1);
        }
        controller.log_note(&note);
        Ok(rep)
    }

    /// Identity records of every registered XRay object: name plus a
    /// content fingerprint over the full symbol table (hidden symbols
    /// included — they change on rebuilds too). Load addresses do not
    /// participate, so two loads of the same build match.
    pub fn object_records(&self) -> Vec<ObjectRecord> {
        let mut out = Vec::new();
        for (pi, lo) in self.process.loaded() {
            let Some(object_id) = self.runtime.object_id_for_process_index(pi) else {
                continue;
            };
            let fingerprint = fingerprint_object(
                &lo.image.name,
                lo.image
                    .symtab
                    .all()
                    .iter()
                    .map(|s| (s.name.as_str(), s.offset)),
            );
            out.push(ObjectRecord {
                object_id,
                name: lo.image.name.clone(),
                fingerprint,
            });
        }
        out.sort_by_key(|r| r.object_id);
        out
    }

    /// Builds the profile-raw-ID → live-raw-ID map from the object
    /// match plan, logging the plan into the adaptation log. Functions
    /// left out of the map are discarded by the seeding step — a stale
    /// packed ID is never applied to whatever recycled its slot.
    fn plan_warm_start(
        &self,
        controller: &mut AdaptController,
        profile: &InstrumentationProfile,
        tel: Option<&Telemetry>,
    ) -> PlannedWarmStart {
        let current = self.object_records();
        let plan = plan_object_matches(&profile.objects, &current);
        let mut summary = WarmStartSummary::default();
        // Direct maps: the function half of the packed ID is trusted.
        let mut direct: BTreeMap<u8, u8> = BTreeMap::new();
        // Rebuilt objects: only symbol names can be trusted.
        let mut rebuilt: BTreeMap<u8, u8> = BTreeMap::new();
        for m in &plan {
            match *m {
                ObjectMatch::Unchanged { object_id } => {
                    summary.objects_unchanged += 1;
                    direct.insert(object_id, object_id);
                }
                ObjectMatch::Moved { from, to } => {
                    summary.objects_remapped += 1;
                    direct.insert(from, to);
                }
                ObjectMatch::Rebuilt { from, to } => {
                    summary.objects_rebuilt += 1;
                    rebuilt.insert(from, to);
                }
                // An object that vanished between profile save (or even
                // between profile load and patching, under churn) gets a
                // per-object typed reason — extending the
                // `PersistError::kind()` pattern with the
                // `ObjectMatch::kind()` lifecycle tag — never a silent
                // drop.
                ObjectMatch::Missing { from } => {
                    summary.objects_missing += 1;
                    let name = profile
                        .objects
                        .iter()
                        .find(|r| r.object_id == from)
                        .map(|r| r.name.as_str())
                        .unwrap_or("<unknown>");
                    controller.log_note(&format!(
                        "warm start: profile object `{name}` (id {from}) has no live \
                         counterpart [lifecycle:{}] — records discarded",
                        m.kind()
                    ));
                    if let Some(t) = tel {
                        t.instant(
                            "dyncapi.warm_missing_object",
                            &[
                                ("object", name.to_string()),
                                ("lifecycle", m.kind().to_string()),
                            ],
                        );
                    }
                }
            }
        }
        // Name → packed ID per live object for rebuilt re-resolution
        // (smallest ID wins on duplicate names, deterministically).
        let mut by_name: BTreeMap<(u8, &str), PackedId> = BTreeMap::new();
        for (id, name) in &self.symbols.names {
            let slot = by_name.entry((id.object(), name.as_str())).or_insert(*id);
            if id.raw() < slot.raw() {
                *slot = *id;
            }
        }
        let mut idmap: BTreeMap<u32, u32> = BTreeMap::new();
        for f in &profile.functions {
            let pid = PackedId::from_raw(f.raw_id);
            if let Some(&to) = direct.get(&pid.object()) {
                let Ok(new) = PackedId::pack(to, pid.function()) else {
                    continue;
                };
                // Same build → the fid must exist; checked anyway so a
                // tampered profile degrades instead of erroring repatch.
                if self.runtime.function_address(new).is_some() {
                    idmap.insert(f.raw_id, new.raw());
                }
            } else if let Some(&to) = rebuilt.get(&pid.object()) {
                if let Some(&new) = by_name.get(&(to, f.name.as_str())) {
                    idmap.insert(f.raw_id, new.raw());
                    summary.functions_rebound += 1;
                }
            }
        }
        controller.log_note(&format!(
            "warm objects: {} unchanged, {} remapped, {} rebuilt ({} functions rebound by name), {} missing",
            summary.objects_unchanged,
            summary.objects_remapped,
            summary.objects_rebuilt,
            summary.functions_rebound,
            summary.objects_missing
        ));
        PlannedWarmStart { idmap, summary }
    }

    /// Display name for a packed ID: the resolved symbol, or a stable
    /// placeholder for hidden functions.
    fn display_name(&self, id: capi_xray::PackedId) -> String {
        self.symbols
            .name_of(id)
            .map(str::to_string)
            .unwrap_or_else(|| format!("fid:{:#010x}", id.raw()))
    }
}

/// Carries `engine` across the repatch batch that applied `delta` and
/// returned `rep`, when that batch is all the runtime has seen since the
/// engine last read it (the batch opened exactly the next generation, or
/// none for an empty delta). Anything else leaves the engine behind the
/// runtime, which the loop's `is_current` check answers with a full
/// prepare — as it does a changed load state.
fn carry_over(
    engine: &mut Engine<'_>,
    delta: &capi_xray::PatchDelta,
    rep: &capi_xray::RepatchReport,
) {
    if rep.generation <= engine.snapshot_generation() + 1 {
        engine.apply(delta);
        #[cfg(test)]
        tests::note_apply();
    }
}

/// Outcome of [`Session::plan_warm_start`].
struct PlannedWarmStart {
    idmap: BTreeMap<u32, u32>,
    summary: WarmStartSummary,
}

/// Virtual cost of one repatch batch — the single formula both the
/// warm-start batch and every per-epoch delta are accounted with, so
/// `T_adapt` stays comparable between cold and warm runs by
/// construction.
fn repatch_cost_ns(costs: &crate::startup::InitCostModel, rep: &capi_xray::RepatchReport) -> u64 {
    (rep.sleds_patched + rep.sleds_unpatched) * costs.per_sled_patch_ns
        + rep.mprotect_pairs * costs.per_mprotect_ns
}

/// Converts an adaptive run's efficiency trajectory into the
/// fixed-point per-region summary a profile persists (the last epoch
/// that saw each region).
pub fn efficiency_summary(report: &EfficiencyReport) -> Vec<capi_persist::RegionSummary> {
    report
        .last_per_region()
        .into_iter()
        .map(|(key, name, epoch, rec)| capi_persist::RegionSummary {
            raw_id: key,
            name: name.to_string(),
            epoch,
            lb_ppm: capi_persist::RegionSummary::to_ppm(rec.pop.load_balance),
            comm_ppm: capi_persist::RegionSummary::to_ppm(rec.comm_fraction),
            pe_ppm: capi_persist::RegionSummary::to_ppm(rec.pop.parallel_efficiency),
            enters: rec.enters,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::LifecycleOp;
    use crate::startup::{startup, DynCapiConfig, ToolChoice};
    use crate::{AdaptiveRunBuilder, ProfileSource};
    use capi_adapt::AdaptConfig;
    use capi_appmodel::{LinkTarget, MpiCall, ProgramBuilder};
    use capi_objmodel::{compile, Bindings, CompileOptions};
    use capi_scorep::FilterFile;
    use std::cell::RefCell;

    /// What the epoch loops on this thread did at their boundaries — the
    /// unit of work counted instead of timing.
    #[derive(Default)]
    struct LoopWork {
        /// The distinct call bindings the prepares ran on.
        /// [`capi_objmodel::Process::bindings`] resolves names once per
        /// `Arc` it hands out, so the length is the number of
        /// whole-program binding passes paid. (Held, not just counted,
        /// so a freed allocation's address cannot come back.)
        bindings_seen: Vec<Arc<Bindings>>,
        /// `Engine::prepare*` calls: each one full sled overlay and one
        /// full quiet-subtree analysis.
        prepares: usize,
        /// `Engine::apply` calls.
        applies: usize,
    }

    thread_local! {
        static LOOP_WORK: RefCell<LoopWork> = RefCell::new(LoopWork::default());
    }

    pub(super) fn note_prepare(b: &Arc<Bindings>) {
        LOOP_WORK.with_borrow_mut(|w| {
            w.prepares += 1;
            if !w
                .bindings_seen
                .last()
                .is_some_and(|last| Arc::ptr_eq(last, b))
            {
                w.bindings_seen.push(Arc::clone(b));
            }
        });
    }

    pub(super) fn note_apply() {
        LOOP_WORK.with_borrow_mut(|w| w.applies += 1);
    }

    /// `(binding passes, prepares, applies)` that `run` paid on this
    /// thread.
    fn work_during<T>(run: impl FnOnce() -> T) -> ((usize, usize, usize), T) {
        LOOP_WORK.set(LoopWork::default());
        let out = run();
        let w = LOOP_WORK.take();
        ((w.bindings_seen.len(), w.prepares, w.applies), out)
    }

    fn binary() -> capi_objmodel::Binary {
        let mut b = ProgramBuilder::new("adaptapp");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(50)
            .instructions(400)
            .cost(1_000)
            .calls("MPI_Init", 1)
            .calls("step", 12)
            .calls("MPI_Finalize", 1)
            .finish();
        b.function("step")
            .statements(40)
            .instructions(300)
            .cost(500)
            .calls("tiny_hot", 2_000)
            .calls("kernel", 4)
            .calls("MPI_Allreduce", 1)
            .finish();
        // Hot and nearly free: instrumenting it is all overhead.
        b.function("tiny_hot")
            .statements(20)
            .instructions(200)
            .cost(3)
            .finish();
        b.function("kernel")
            .statements(80)
            .instructions(700)
            .cost(40_000)
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
        let p = b.build().unwrap();
        compile(&p, &CompileOptions::o2()).unwrap()
    }

    fn session() -> crate::Session {
        let cfg = DynCapiConfig {
            tool: ToolChoice::Talp(Default::default()),
            ic: Some(FilterFile::include_only(["tiny_hot", "kernel", "step"])),
            ranks: 2,
            ..Default::default()
        };
        startup(&binary(), cfg).unwrap()
    }

    #[test]
    fn adaptive_run_trims_to_budget_with_zero_restarts() {
        let mut s = session();
        let mut c = AdaptController::new(AdaptConfig {
            budget_pct: 5.0,
            seed: 1,
            ..Default::default()
        });
        let run = crate::AdaptiveRunBuilder::new()
            .epochs(6)
            .run_with_controller(&mut s, &mut c, None)
            .unwrap();
        assert_eq!(run.restarts, 0);
        assert_eq!(run.records.len(), 6);
        // tiny_hot blows the budget early and gets dropped.
        assert!(run.records[0].overhead_pct > 5.0);
        let last = run.records.last().unwrap();
        assert!(
            last.overhead_pct <= 5.0,
            "converged within budget, got {:.3}%",
            last.overhead_pct
        );
        assert!(run.adapt_ns > 0, "repatching was accounted");
        assert!(run.total_ns >= run.init_ns + run.adapt_ns);
        assert!(c.render_log().contains("drop tiny_hot"));
    }

    /// A loadable plugin nothing in [`binary`] calls.
    fn plugin_image() -> Arc<capi_objmodel::Object> {
        let mut b = ProgramBuilder::new("plugin");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(10)
            .calls("plugin_fn", 1)
            .finish();
        b.unit("p.cc", LinkTarget::Dso("libplugin.so".into()));
        b.function("plugin_fn")
            .statements(30)
            .instructions(250)
            .cost(700)
            .finish();
        let bin = compile(&b.build().unwrap(), &CompileOptions::o2()).unwrap();
        Arc::new(bin.dsos[0].clone())
    }

    #[test]
    fn a_run_binds_once_per_load_state_not_once_per_epoch() {
        let run = |builder: AdaptiveRunBuilder| {
            let mut s = session();
            work_during(|| builder.epochs(12).seed(3).run(&mut s).unwrap())
        };
        // Twelve epochs, a repatch after each: one bind, one full
        // prepare, and the eleven boundaries with an epoch behind them
        // are applied.
        let (work, cold) = run(AdaptiveRunBuilder::new());
        assert_eq!(cold.adaptive.records.len(), 12);
        assert!(cold.adaptive.adapt_ns > 0, "the run did repatch");
        assert_eq!(work, (1, 1, 11));
        // Warm: the same, plus the seeding batch applied before epoch 0.
        let (work, warm) =
            run(AdaptiveRunBuilder::new().profile(ProfileSource::Inline(cold.profile)));
        assert!(warm.warm_started);
        assert_eq!(work, (1, 1, 12));
        // Churn: the open (epoch 1) and the close (epoch 3) each change
        // what is loaded and cost a bind and a full prepare; the refused
        // close at epoch 5 costs neither.
        let script = LifecycleScript::new()
            .image(plugin_image())
            .at(1, LifecycleOp::Open("libplugin.so".into()))
            .at(3, LifecycleOp::Close("libplugin.so".into()))
            .at(5, LifecycleOp::Close("libplugin.so".into()));
        let (work, churn) = run(AdaptiveRunBuilder::new().lifecycle(script));
        let stats = churn.adaptive.lifecycle.unwrap();
        assert_eq!((stats.opened, stats.closed), (1, 1));
        assert_eq!(work, (3, 3, 11));
    }

    #[test]
    fn adaptive_runs_are_deterministic() {
        let one = |seed| {
            let mut s = session();
            let mut c = AdaptController::new(AdaptConfig {
                budget_pct: 5.0,
                seed,
                ..Default::default()
            });
            let run = crate::AdaptiveRunBuilder::new()
                .epochs(5)
                .run_with_controller(&mut s, &mut c, None)
                .unwrap();
            (run.per_rank_ns.clone(), run.events, c.render_log())
        };
        let (clocks_a, events_a, log_a) = one(9);
        let (clocks_b, events_b, log_b) = one(9);
        assert_eq!(clocks_a, clocks_b, "virtual clocks identical");
        assert_eq!(events_a, events_b);
        assert_eq!(log_a, log_b, "adaptation logs byte-identical");
    }

    /// A program with one balanced and one rank-skewed phase; the
    /// kernels below the phases are *not* in the initial IC.
    fn imbalanced_binary() -> capi_objmodel::Binary {
        let mut b = ProgramBuilder::new("imbapp");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(50)
            .instructions(400)
            .cost(1_000)
            .calls("MPI_Init", 1)
            .calls("step", 12)
            .calls("MPI_Finalize", 1)
            .finish();
        b.function("step")
            .statements(40)
            .instructions(300)
            .cost(500)
            .calls("balanced_phase", 1)
            .calls("skewed_phase", 1)
            .calls("MPI_Allreduce", 1)
            .finish();
        b.function("balanced_phase")
            .statements(30)
            .instructions(300)
            .cost(200)
            .calls("bal_kernel", 40)
            .finish();
        b.function("skewed_phase")
            .statements(30)
            .instructions(300)
            .cost(200)
            .calls("skew_kernel", 40)
            .finish();
        b.function("bal_kernel")
            .statements(60)
            .instructions(600)
            .cost(2_000)
            .loop_depth(2)
            .finish();
        b.function("skew_kernel")
            .statements(60)
            .instructions(600)
            .cost(2_000)
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
        let p = b.build().unwrap();
        compile(&p, &CompileOptions::o2()).unwrap()
    }

    fn imbalanced_session() -> crate::Session {
        let cfg = DynCapiConfig {
            tool: ToolChoice::None,
            ic: Some(FilterFile::include_only([
                "step",
                "balanced_phase",
                "skewed_phase",
            ])),
            ranks: 2,
            ..Default::default()
        };
        startup(&imbalanced_binary(), cfg).unwrap()
    }

    #[test]
    fn expansion_includes_the_skewed_subtree_only() {
        use capi_adapt::ExpansionOptions;
        let once = || {
            let mut s = imbalanced_session();
            let mut c = AdaptController::with_expansion(
                AdaptConfig {
                    budget_pct: 40.0,
                    seed: 3,
                    ..Default::default()
                },
                ExpansionOptions::default(),
            );
            let run = crate::AdaptiveRunBuilder::new()
                .epochs(6)
                .run_with_controller(&mut s, &mut c, None)
                .unwrap();
            let active: Vec<String> = c
                .active_ids()
                .iter()
                .filter_map(|&id| c.name_of(id).map(str::to_string))
                .collect();
            (run, c.render_log(), c.stats(), active)
        };
        let (run, log, stats, active) = once();
        // The skewed phase's child was grown into the IC; the balanced
        // phase's child was not.
        assert!(stats.expansions >= 1, "expansion fired: {log}");
        assert!(
            active.iter().any(|n| n == "skew_kernel"),
            "skew_kernel included, active = {active:?}"
        );
        assert!(
            !active.iter().any(|n| n == "bal_kernel"),
            "bal_kernel stays out, active = {active:?}"
        );
        assert!(log.contains("expand skew_kernel [imbalance"));
        // The efficiency trajectory recorded the skewed region.
        assert!(run.efficiency.epochs() >= 1);
        let rendered = run.efficiency.render();
        assert!(rendered.contains("skewed_phase"));
        // Determinism: identical seeds → byte-identical logs and
        // trajectories.
        let (run2, log2, _, active2) = once();
        assert_eq!(log, log2);
        assert_eq!(active, active2);
        assert_eq!(run.per_rank_ns, run2.per_rank_ns);
        assert_eq!(rendered, run2.efficiency.render());
    }

    /// Two-level skewed subtree + a hot-small function, so a cold
    /// adaptive run pays several repatch batches: epoch 0 trims
    /// `tiny_hot` and expands `skew_mid`, epoch 1 descends to
    /// `skew_kernel` (iterative deepening) — while a warm start applies
    /// the whole converged state as one batch.
    fn deep_imbalanced_binary(extra_fn: bool) -> capi_objmodel::Binary {
        let mut b = ProgramBuilder::new("warmapp");
        b.unit("m.cc", LinkTarget::Executable);
        {
            let mut f = b
                .function("main")
                .main()
                .statements(50)
                .instructions(400)
                .cost(1_000)
                .calls("MPI_Init", 1)
                .calls("step", 12);
            if extra_fn {
                f = f.calls("extra_pad", 1);
            }
            f.calls("MPI_Finalize", 1).finish();
        }
        if extra_fn {
            // Shifts every later function's offsets and IDs: the same
            // program *name* with a different content fingerprint — a
            // rebuild, as far as a profile is concerned.
            b.function("extra_pad")
                .statements(25)
                .instructions(220)
                .cost(100)
                .finish();
        }
        b.function("step")
            .statements(40)
            .instructions(300)
            .cost(500)
            .calls("tiny_hot", 6_000)
            .calls("balanced_phase", 1)
            .calls("skewed_phase", 1)
            .calls("MPI_Allreduce", 1)
            .finish();
        b.function("tiny_hot")
            .statements(20)
            .instructions(200)
            .cost(3)
            .finish();
        b.function("balanced_phase")
            .statements(30)
            .instructions(300)
            .cost(200)
            .calls("bal_kernel", 40)
            .finish();
        b.function("skewed_phase")
            .statements(30)
            .instructions(300)
            .cost(200)
            .calls("skew_mid", 1)
            .finish();
        b.function("skew_mid")
            .statements(30)
            .instructions(300)
            .cost(200)
            .calls("skew_kernel", 40)
            .finish();
        b.function("bal_kernel")
            .statements(60)
            .instructions(600)
            .cost(2_000)
            .loop_depth(2)
            .finish();
        b.function("skew_kernel")
            .statements(60)
            .instructions(600)
            .cost(2_000)
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
        let p = b.build().unwrap();
        compile(&p, &CompileOptions::o2()).unwrap()
    }

    fn warm_session(bin: &capi_objmodel::Binary) -> crate::Session {
        let cfg = DynCapiConfig {
            tool: ToolChoice::None,
            ic: Some(FilterFile::include_only([
                "tiny_hot",
                "step",
                "balanced_phase",
                "skewed_phase",
            ])),
            ranks: 2,
            ..Default::default()
        };
        startup(bin, cfg).unwrap()
    }

    /// Trim + grow, no re-inclusion probing: convergence is clean, so
    /// cold-vs-warm epoch counts compare exactly.
    fn warm_controller() -> AdaptController {
        use capi_adapt::{AdaptPolicy, HotSmallExclusion, ImbalanceExpansion, OverheadBudget};
        let policies: Vec<Box<dyn AdaptPolicy>> = vec![
            Box::new(HotSmallExclusion::default()),
            Box::new(OverheadBudget::default()),
            Box::new(ImbalanceExpansion::default()),
        ];
        AdaptController::with_policies(
            AdaptConfig {
                budget_pct: 40.0,
                seed: 17,
                ..Default::default()
            },
            policies,
        )
    }

    #[test]
    fn warm_start_converges_in_fewer_epochs_with_lower_adapt_cost() {
        let bin = deep_imbalanced_binary(false);
        let cold_once = || {
            let mut s = warm_session(&bin);
            let mut c = warm_controller();
            let run = crate::AdaptiveRunBuilder::new()
                .epochs(6)
                .run_with_controller(&mut s, &mut c, None)
                .unwrap();
            let mut profile = c.export_profile(s.object_records());
            profile.efficiency = super::efficiency_summary(&run.efficiency);
            (run, c.converged_at(), profile, c.render_log())
        };
        let (cold, cold_conv, profile, _) = cold_once();
        assert!(cold.warm.is_none());
        // The cold run needed multiple repatch batches: trim at epoch 0
        // plus iterative-deepening expansions.
        let batches = cold
            .records
            .iter()
            .filter(|r| r.sleds_patched + r.sleds_unpatched > 0)
            .count();
        assert!(batches >= 2, "cold run repatches over several epochs");
        let cold_conv = cold_conv.expect("cold run converges");
        assert!(cold_conv >= 1);

        // Byte-identical profiles across identical runs.
        let (_, _, profile2, _) = cold_once();
        assert_eq!(profile.to_json_string(), profile2.to_json_string());
        assert!(
            !profile.efficiency.is_empty(),
            "efficiency summary rides along"
        );

        // Warm run: same binary, fresh session, seeded controller.
        let mut s = warm_session(&bin);
        let mut c = warm_controller();
        let warm = crate::AdaptiveRunBuilder::new()
            .epochs(6)
            .run_with_controller(&mut s, &mut c, Some(WarmStart::Profile(&profile)))
            .unwrap();
        let summary = warm.warm.expect("warm start ran");
        assert_eq!(summary.objects_unchanged, 1);
        assert_eq!(summary.objects_missing, 0);
        assert!(summary.seed.pre_trimmed >= 1, "tiny_hot pre-trimmed");
        assert!(summary.seed.pre_grown >= 2, "skew subtree pre-grown");
        assert!(summary.adapt_ns > 0);
        let warm_conv = c.converged_at().expect("warm run converges");
        assert!(
            warm_conv < cold_conv,
            "warm converged at {warm_conv}, cold at {cold_conv}"
        );
        assert!(
            warm.adapt_ns < cold.adapt_ns,
            "warm T_adapt {} < cold T_adapt {}",
            warm.adapt_ns,
            cold.adapt_ns
        );
        // Both runs end on the same converged IC.
        let names = |c: &AdaptController| -> Vec<String> {
            c.active_ids()
                .iter()
                .filter_map(|&id| c.name_of(id).map(str::to_string))
                .collect()
        };
        assert!(names(&c).iter().any(|n| n == "skew_kernel"));
        assert!(!names(&c).iter().any(|n| n == "tiny_hot"));
        assert!(c.render_log().contains("warm start:"));
        assert!(c.render_log().contains("pre-trim tiny_hot [persist]"));
    }

    #[test]
    fn unavailable_profile_degrades_to_logged_cold_start() {
        let bin = deep_imbalanced_binary(false);
        let mut s = warm_session(&bin);
        let mut c = warm_controller();
        let run = crate::AdaptiveRunBuilder::new()
            .epochs(4)
            .run_with_controller(
                &mut s,
                &mut c,
                Some(WarmStart::Unavailable(PersistError::SchemaMismatch {
                    found: 9,
                    expected: 2,
                })),
            )
            .unwrap();
        assert!(run.warm.is_none());
        let log = c.render_log();
        assert!(
            log.contains(
                "warm start unavailable: profile schema version 9, expected 2 — cold start"
            ),
            "fallback reason is in the adaptation log:\n{log}"
        );
        // And the cold run proceeded normally.
        assert_eq!(run.records.len(), 4);
    }

    #[test]
    fn rebuilt_binary_rebinds_profile_functions_by_name() {
        // Profile recorded against v1; the warm run sees a rebuilt
        // binary (same name, shifted function IDs and offsets).
        let v1 = deep_imbalanced_binary(false);
        let mut s1 = warm_session(&v1);
        let mut c1 = warm_controller();
        crate::AdaptiveRunBuilder::new()
            .epochs(6)
            .run_with_controller(&mut s1, &mut c1, None)
            .unwrap();
        let profile = c1.export_profile(s1.object_records());

        let v2 = deep_imbalanced_binary(true);
        let mut s2 = warm_session(&v2);
        // Same names, different fingerprints.
        assert_eq!(s1.object_records()[0].name, s2.object_records()[0].name);
        assert_ne!(
            s1.object_records()[0].fingerprint,
            s2.object_records()[0].fingerprint
        );
        let mut c2 = warm_controller();
        let warm = crate::AdaptiveRunBuilder::new()
            .epochs(6)
            .run_with_controller(&mut s2, &mut c2, Some(WarmStart::Profile(&profile)))
            .unwrap();
        let summary = warm.warm.expect("warm start ran");
        assert_eq!(summary.objects_rebuilt, 1);
        assert_eq!(summary.objects_unchanged, 0);
        assert!(
            summary.functions_rebound >= 4,
            "functions re-resolved by name"
        );
        assert!(summary.seed.pre_trimmed >= 1, "tiny_hot still pre-trimmed");
        let log = c2.render_log();
        assert!(log.contains("1 rebuilt"));
        assert!(log.contains("pre-trim tiny_hot [persist]"));
        // The rebound warm start converges immediately despite the
        // rebuild.
        assert_eq!(c2.converged_at(), Some(0));
    }

    #[test]
    fn adaptive_run_equals_plain_run_when_nothing_changes() {
        // With an unreachable budget threshold no policy ever fires, so
        // the epoch-sliced adaptive run must reproduce the plain run.
        let plain = session().run().unwrap();
        let mut s = session();
        let mut c = AdaptController::with_policies(
            AdaptConfig {
                budget_pct: 1e9,
                seed: 0,
                ..Default::default()
            },
            Vec::new(),
        );
        let run = crate::AdaptiveRunBuilder::new()
            .epochs(4)
            .run_with_controller(&mut s, &mut c, None)
            .unwrap();
        assert_eq!(run.per_rank_ns, plain.run.per_rank_ns);
        assert_eq!(run.events, plain.run.events);
        assert_eq!(run.adapt_ns, 0);
    }
}

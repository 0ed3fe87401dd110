//! The unified adaptive-run API.
//!
//! [`AdaptiveRunBuilder`] is the one entry point to an adaptive run:
//! budget, epochs, expansion, profile source, and the sampling knobs
//! (max demotion rate, redundancy-suppression band) all live in one
//! place. `capi-core`'s `Workflow::adaptive_run` takes the same builder.
//!
//! ```
//! use capi_dyncapi::{AdaptiveRunBuilder, ProfileSource};
//!
//! let runner = AdaptiveRunBuilder::new()
//!     .epochs(6)
//!     .budget_pct(5.0)
//!     .seed(0x5EED)
//!     .max_sample_rate(16)
//!     .redundancy_ppm(2_000)
//!     .profile(ProfileSource::None);
//! # let _ = runner;
//! // runner.run(&mut session)?;
//! ```

use crate::adaptive::{efficiency_summary, AdaptiveRun, WarmStart};
use crate::lifecycle::LifecycleScript;
use crate::startup::{DynCapiError, Session};
use capi_adapt::{AdaptConfig, AdaptController, ExpansionOptions};
use capi_obs::{HealthConfig, Telemetry};
use capi_persist::InstrumentationProfile;
use std::path::PathBuf;

/// Where an adaptive run gets (and puts) the cross-run instrumentation
/// profile.
#[derive(Clone, Debug, Default)]
pub enum ProfileSource {
    /// No persistence: cold start, nothing written back.
    #[default]
    None,
    /// Warm-start from an in-memory profile; nothing is written back
    /// (the caller owns persistence).
    Inline(InstrumentationProfile),
    /// Load the profile from this path — a missing, truncated, or
    /// schema-mismatched file degrades to a cold start with the reason
    /// in the adaptation log — and save the updated profile back to the
    /// same path after the run.
    Path(PathBuf),
}

/// The [`ProfileSource`] selected by the `CAPI_PROFILE_PATH`
/// environment knob: [`ProfileSource::Path`] when set (and non-empty),
/// [`ProfileSource::None`] otherwise.
pub fn profile_source_from_env() -> ProfileSource {
    match std::env::var("CAPI_PROFILE_PATH") {
        Ok(path) if !path.trim().is_empty() => ProfileSource::Path(PathBuf::from(path)),
        _ => ProfileSource::None,
    }
}

/// Outcome of [`AdaptiveRunBuilder::run`].
#[derive(Clone, Debug)]
pub struct AdaptiveOutcome {
    /// The adaptive run (per-epoch trajectory, `T_init`/`T_adapt`,
    /// sampling and suppression counters).
    pub adaptive: AdaptiveRun,
    /// The controller's adaptation log — byte-identical across runs
    /// with the same seed and budget.
    pub log: String,
    /// First epoch at which the controller converged and stayed
    /// converged (a later re-drop resets this).
    pub converged_at: Option<usize>,
    /// First epoch the controller *ever* converged at, regardless of
    /// later probe churn.
    pub first_converged_at: Option<usize>,
    /// The exported instrumentation profile (converged IC in packed-ID
    /// form, drop records, cost samples, per-function rates, efficiency
    /// summary). Save it — or pass it back inline — to warm-start the
    /// next run.
    pub profile: InstrumentationProfile,
    /// Whether this run was warm-started from a prior profile.
    pub warm_started: bool,
    /// The converged active set by resolved name, each with its final
    /// 1-in-N sampling rate (1 = full instrumentation).
    pub final_functions: Vec<(String, u32)>,
}

/// Builder-style configuration of one adaptive (zero-restart) run.
///
/// Defaults: 8 epochs, a 5% overhead budget, seed `0x5EED`, no
/// expansion, no demotion-to-sampled (`max_sample_rate` 0), and the
/// session's own redundancy band.
#[derive(Clone, Debug)]
pub struct AdaptiveRunBuilder {
    epochs: usize,
    budget_pct: f64,
    seed: u64,
    expansion: Option<ExpansionOptions>,
    max_sample_rate: u32,
    redundancy_ppm: Option<u32>,
    profile: ProfileSource,
    telemetry: Option<Telemetry>,
    lifecycle: Option<LifecycleScript>,
    health: Option<HealthConfig>,
    baseline_events: Option<u64>,
}

impl Default for AdaptiveRunBuilder {
    fn default() -> Self {
        Self {
            epochs: 8,
            budget_pct: 5.0,
            seed: 0x5EED,
            expansion: None,
            max_sample_rate: 0,
            redundancy_ppm: None,
            profile: ProfileSource::None,
            telemetry: None,
            lifecycle: None,
            health: None,
            baseline_events: None,
        }
    }
}

impl AdaptiveRunBuilder {
    /// A builder with the defaults described on the type.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of epochs the single run is divided into (min 1).
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Target instrumentation overhead, percent of application time.
    pub fn budget_pct(mut self, pct: f64) -> Self {
        self.budget_pct = pct;
        self
    }

    /// Seed for the controller's re-inclusion probing.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables TALP-driven expansion: the controller also *grows*
    /// instrumentation below load-imbalanced or communication-heavy
    /// regions, capped by the unused overhead budget.
    pub fn expansion(mut self, exp: ExpansionOptions) -> Self {
        self.expansion = Some(exp);
        self
    }

    /// Maximum 1-in-N sampling rate the budget policy may demote an
    /// over-budget hot function to. 0 (the default) disables demotion:
    /// over-budget functions are dropped outright, as before the rate
    /// dimension existed.
    pub fn max_sample_rate(mut self, rate: u32) -> Self {
        self.max_sample_rate = rate;
        self
    }

    /// Redundancy-suppression band in parts-per-million: events whose
    /// duration lands within this band of the running per-function
    /// estimate are withheld (and counted). Overrides the session's
    /// configured band; 0 disables suppression.
    pub fn redundancy_ppm(mut self, ppm: u32) -> Self {
        self.redundancy_ppm = Some(ppm);
        self
    }

    /// Cross-run profile persistence source.
    pub fn profile(mut self, source: ProfileSource) -> Self {
        self.profile = source;
        self
    }

    /// Self-telemetry for the run: spans over the adaptation lifecycle
    /// (run → epoch → policy evaluation → repatch/publish → profile
    /// IO), dispatch counters folded into the registry, and — when
    /// `CAPI_TRACE_OUT` is set — a Chrome trace written at run end.
    /// Without an explicit instance, [`Self::run`] falls back to
    /// [`Telemetry::from_env`] (`CAPI_TELEMETRY` / `CAPI_TRACE_OUT`).
    pub fn telemetry(mut self, tel: Telemetry) -> Self {
        self.telemetry = Some(tel);
        self
    }

    /// Runs the adaptation under a deterministic DSO-churn script:
    /// scripted opens/closes/reloads/interpositions at epoch
    /// boundaries, seeded fault injection, bounded `dlopen` retry, and
    /// graceful repatch degradation (vanished objects are skipped and
    /// counted — `lifecycle.degraded_repatch` — never fatal). Even an
    /// empty script switches the run onto the lenient prepare/repatch
    /// paths.
    pub fn lifecycle(mut self, script: LifecycleScript) -> Self {
        self.lifecycle = Some(script);
        self
    }

    /// Thresholds for the per-epoch anomaly detectors (overhead
    /// watchdog, convergence stall, event-volume regression). Without
    /// an explicit config, the `CAPI_HEALTH_*` environment knobs (or
    /// their defaults) apply.
    pub fn health(mut self, config: HealthConfig) -> Self {
        self.health = Some(config);
        self
    }

    /// Explicit per-epoch event-volume baseline for the regression
    /// detector. Without one, a warm-start profile's predicted volume
    /// is used; with neither, the detector stays inert.
    pub fn baseline_events(mut self, events: u64) -> Self {
        self.baseline_events = Some(events);
        self
    }

    /// Builds the controller this configuration describes: the standard
    /// policy stack with optional expansion and demotion-to-sampled.
    pub fn build_controller(&self) -> AdaptController {
        let cfg = AdaptConfig {
            budget_pct: self.budget_pct,
            seed: self.seed,
            ..Default::default()
        };
        let policies =
            AdaptController::standard_policies(&cfg, self.expansion.as_ref(), self.max_sample_rate);
        AdaptController::with_policies(cfg, policies)
    }

    /// Runs the configured adaptation on `session` with a
    /// caller-provided controller and an explicit warm start. The
    /// builder's profile source is **ignored** on this path; only
    /// epochs and the redundancy band apply.
    ///
    /// With a warm start the controller is seeded from a prior run's
    /// instrumentation profile *before* epoch 0 — prior drops are
    /// pre-trimmed, the converged IC's extra members pre-grown (one
    /// repatch batch, accounted into `T_adapt`), and the profile's cost
    /// samples replace the controller's flat expansion-cost assumption.
    /// Profiles survive process changes: objects are matched by name +
    /// content fingerprint (see [`Session::object_records`]), so a DSO
    /// re-registered under a recycled XRay object ID is remapped, a
    /// rebuilt object has its functions re-resolved by symbol name, and
    /// records of vanished objects are discarded rather than aliased
    /// onto whatever now owns the stale packed IDs. A requested-but-
    /// unloadable profile ([`WarmStart::Unavailable`]) degrades to a
    /// cold start with the reason in the adaptation log.
    pub fn run_with_controller(
        &self,
        session: &mut Session,
        controller: &mut AdaptController,
        warm: Option<WarmStart<'_>>,
    ) -> Result<AdaptiveRun, DynCapiError> {
        if let Some(t) = &self.telemetry {
            session.runtime.set_telemetry(t.clone());
            controller.set_telemetry(t.clone());
        }
        let ppm = self.redundancy_ppm.unwrap_or(session.config.redundancy_ppm);
        let health_cfg = self.health.unwrap_or_else(HealthConfig::from_env);
        let result = session.run_epoch_loop(
            controller,
            self.epochs,
            warm,
            ppm,
            self.lifecycle.as_ref(),
            health_cfg,
            self.baseline_events,
        );
        // A failed run still leaves its artifacts: flush the Chrome
        // trace, the OpenMetrics exposition, and a run-error post-mortem
        // from the degraded exit path instead of dropping them.
        if let Err(err) = &result {
            let _ = crate::postmortem::flush_degraded_artifacts(session, controller, err);
        }
        result
    }

    /// Runs the full configured adaptation on `session`: builds the
    /// controller, resolves the profile source (load failures degrade to
    /// a logged cold start), runs the epoch loop, exports the refined
    /// profile (written back for [`ProfileSource::Path`]), and reports
    /// the converged functions with their sampling rates.
    pub fn run(&self, session: &mut Session) -> Result<AdaptiveOutcome, DynCapiError> {
        let mut controller = self.build_controller();
        // Resolve telemetry once: the explicit instance wins, else the
        // environment knobs; install it before any profile IO so the
        // load span lands inside the same registry as the run.
        let tel = self.telemetry.clone().or_else(Telemetry::from_env);
        if let Some(t) = &tel {
            session.runtime.set_telemetry(t.clone());
            controller.set_telemetry(t.clone());
        }
        // The runtime's instance is authoritative on reused runtimes
        // (set-once); report profile IO into the same registry the run
        // spans land in.
        let tel = session.runtime.telemetry().cloned().or(tel);
        // Only the Path source needs an owned load; Inline is borrowed
        // directly from the builder.
        let loaded = match &self.profile {
            ProfileSource::Path(path) => {
                Some(InstrumentationProfile::load_with(path, tel.as_ref()))
            }
            _ => None,
        };
        let warm = match (&self.profile, loaded.as_ref()) {
            (ProfileSource::Inline(p), _) => Some(WarmStart::Profile(p)),
            (_, Some(Ok(p))) => Some(WarmStart::Profile(p)),
            (_, Some(Err(e))) => Some(WarmStart::Unavailable(e.clone())),
            _ => None,
        };
        let warm_started = matches!(warm, Some(WarmStart::Profile(_)));
        let adaptive = self.run_with_controller(session, &mut controller, warm)?;
        let mut profile = controller.export_profile(session.object_records());
        profile.efficiency = efficiency_summary(&adaptive.efficiency);
        if let ProfileSource::Path(path) = &self.profile {
            if let Err(e) = profile.save_with(path, tel.as_ref()) {
                controller.log_note(&format!("profile save failed: {e}"));
            }
        }
        if let (Some(t), Some(trace_path)) = (&tel, capi_obs::trace_out_from_env()) {
            if let Err(e) = t.write_chrome_trace(&trace_path) {
                controller.log_note(&format!("trace write failed ({trace_path}): {e}"));
            }
        }
        if let (Some(t), Some(metrics_path)) = (&tel, capi_obs::metrics_out_from_env()) {
            if let Err(e) = t.write_openmetrics(&metrics_path) {
                controller.log_note(&format!("metrics write failed ({metrics_path}): {e}"));
            }
        }
        let final_functions = controller
            .active_ids()
            .into_iter()
            .filter_map(|id| {
                session
                    .symbols
                    .name_of(id)
                    .map(|n| (n.to_string(), controller.sample_rate(id)))
            })
            .collect();
        Ok(AdaptiveOutcome {
            log: controller.render_log(),
            converged_at: controller.converged_at(),
            first_converged_at: controller.first_converged_at(),
            profile,
            warm_started,
            final_functions,
            adaptive,
        })
    }
}

//! Trigger-based post-mortem "black box" dumps.
//!
//! When an adaptive run degrades — a typed lifecycle degradation, an
//! overhead-budget overrun, a convergence stall, an event-volume
//! regression, or a hard run error — the run dumps its recent history
//! without aborting: the flight recorder's last-N entries (merged
//! deterministically by `(rank, seq)`), the full metrics snapshot, the
//! published dispatch-table summary, the controller's recent
//! decisions, the events the tool adapters could not deliver, and the
//! health report so far.
//!
//! The text rendering ([`PostMortem::text`]) is byte-deterministic —
//! the test oracle — while the JSON document ([`PostMortem::to_json_string`],
//! written to `CAPI_DUMP_OUT`) is for machines and humans.

use crate::adapters::AdapterEventLoss;
use capi_adapt::AdaptController;
use capi_obs::{HealthReport, MetricsSnapshot, Telemetry};
use capi_xray::ObjectPatchSummary;
use serde_json::{json, Value};
use std::fmt::Write as _;

/// How many trailing controller decisions a dump retains.
const DECISION_TAIL: usize = 12;

/// What fired the dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DumpTrigger {
    /// A typed lifecycle degradation (failed dlopen, degraded repatch,
    /// unload race, abandoned open) — including injected `FaultPlan`
    /// faults, which always surface as one of these.
    Degradation {
        /// Which degradation counters moved.
        detail: String,
    },
    /// The overhead watchdog fired: measured overhead stayed above the
    /// configured budget.
    BudgetOverrun {
        /// Epoch the watchdog fired at.
        epoch: usize,
    },
    /// The convergence-stall detector fired: no fixed-point progress.
    ConvergenceStall {
        /// Epoch the detector fired at.
        epoch: usize,
    },
    /// The event-volume regression detector fired: volume diverged from
    /// the warm-start baseline.
    VolumeRegression {
        /// Epoch the detector fired at.
        epoch: usize,
    },
    /// The run itself failed; the dump is flushed from the degraded
    /// exit path.
    RunError {
        /// The error, rendered.
        detail: String,
    },
}

impl DumpTrigger {
    /// Stable tag for renderings and counters.
    pub fn label(&self) -> &'static str {
        match self {
            DumpTrigger::Degradation { .. } => "degradation",
            DumpTrigger::BudgetOverrun { .. } => "budget_overrun",
            DumpTrigger::ConvergenceStall { .. } => "convergence_stall",
            DumpTrigger::VolumeRegression { .. } => "volume_regression",
            DumpTrigger::RunError { .. } => "run_error",
        }
    }

    /// Deterministic trigger description.
    pub fn detail(&self) -> String {
        match self {
            DumpTrigger::Degradation { detail } | DumpTrigger::RunError { detail } => {
                detail.clone()
            }
            DumpTrigger::BudgetOverrun { epoch } => {
                format!("overhead watchdog fired at epoch {epoch}")
            }
            DumpTrigger::ConvergenceStall { epoch } => {
                format!("convergence stall detected at epoch {epoch}")
            }
            DumpTrigger::VolumeRegression { epoch } => {
                format!("event-volume regression detected at epoch {epoch}")
            }
        }
    }
}

/// The black-box report. Built at trigger time (state captured then,
/// not at run end) and carried on the run outcome; at most one per run
/// — the first trigger wins, later ones only count.
#[derive(Clone, Debug)]
pub struct PostMortem {
    /// What fired the dump.
    pub trigger: DumpTrigger,
    /// Epoch at which it fired.
    pub epoch: usize,
    /// The byte-deterministic text rendering (the test oracle).
    pub text: String,
    /// The JSON document (same content, machine-readable).
    pub json: Value,
}

impl PostMortem {
    /// Assembles a dump from the state at trigger time. Pure with
    /// respect to its inputs: everything rendered is deterministic
    /// (recorder entries, metrics sections, dispatch summary, adapter
    /// event loss, decision tail, health report), so two same-seed runs
    /// dump byte-identical text.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        trigger: DumpTrigger,
        epoch: usize,
        tel: Option<&Telemetry>,
        generation: u64,
        dispatch: &[ObjectPatchSummary],
        adapters: AdapterEventLoss,
        decisions: &[String],
        health: &HealthReport,
    ) -> Self {
        let snapshot = tel.map(Telemetry::metrics);
        let tail_start = decisions.len().saturating_sub(DECISION_TAIL);
        let tail = &decisions[tail_start..];

        let mut text = String::new();
        let _ = writeln!(text, "# post-mortem dump");
        let _ = writeln!(text, "trigger: {}: {}", trigger.label(), trigger.detail());
        let _ = writeln!(text, "epoch: {epoch}");
        let _ = writeln!(
            text,
            "dispatch: generation {generation}, {} objects",
            dispatch.len()
        );
        for o in dispatch {
            let _ = write!(
                text,
                "  obj {}: {}/{} patched, {} sampled",
                o.object_id, o.patched, o.functions, o.sampled
            );
            if o.faulted {
                text.push_str(", FAULTED");
            }
            text.push('\n');
        }
        let _ = writeln!(text, "{}", adapters.render());
        let _ = writeln!(
            text,
            "decisions ({} total, last {}):",
            decisions.len(),
            tail.len()
        );
        for line in tail {
            let _ = writeln!(text, "  {line}");
        }
        if let Some(t) = tel {
            text.push_str(&t.render_recorder());
        }
        text.push_str(&health.render());
        if let Some(snap) = &snapshot {
            snap.render_sections(&mut text);
        }

        let json = json!({
            "trigger": {"kind": trigger.label(), "detail": trigger.detail()},
            "epoch": epoch,
            "dispatch": {
                "generation": generation,
                "objects": dispatch.iter().map(|o| json!({
                    "object_id": o.object_id,
                    "functions": o.functions,
                    "patched": o.patched,
                    "sampled": o.sampled,
                    "faulted": o.faulted,
                })).collect::<Vec<_>>(),
            },
            "adapters": {
                "scorep_events_unmapped": adapters.scorep_events_unmapped,
                "talp_events_dropped": adapters.talp_events_dropped,
            },
            "decisions": {"total": decisions.len(), "tail": tail},
            "recorder": tel.map(|t| {
                let stats = t.recorder_stats();
                json!({
                    "cap": stats.cap,
                    "captured": stats.captured,
                    "evicted": stats.evicted,
                    "entries": t.recorder_entries().iter().map(|e| json!({
                        "rank": if e.rank == capi_obs::CONTROL_RANK {
                            json!("control")
                        } else {
                            json!(e.rank)
                        },
                        "seq": e.seq,
                        "tick": e.tick,
                        "kind": e.kind.as_str(),
                        "name": e.name,
                        "detail": e.detail,
                    })).collect::<Vec<_>>(),
                })
            }),
            "health": {
                "epochs_observed": health.epochs_observed,
                "firings": {
                    "overhead": health.overhead_firings,
                    "stall": health.stall_firings,
                    "volume": health.volume_firings,
                },
                "anomalies": health.anomalies.iter().map(|a| json!({
                    "epoch": a.epoch,
                    "kind": a.kind.as_str(),
                    "detail": a.detail,
                })).collect::<Vec<_>>(),
            },
            "metrics": snapshot.as_ref().map(metrics_json),
        });

        Self {
            trigger,
            epoch,
            text,
            json,
        }
    }

    /// The JSON document as pretty-printed text with a trailing
    /// newline. serde_json's object ordering is insertion order with
    /// sorted maps where we build them, so this is byte-deterministic
    /// too.
    pub fn to_json_string(&self) -> String {
        let mut out = serde_json::to_string_pretty(&self.json)
            .expect("post-mortem document is always serialisable");
        out.push('\n');
        out
    }

    /// Writes [`Self::to_json_string`] to `path` (the `CAPI_DUMP_OUT`
    /// wiring).
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }
}

fn metrics_json(snap: &MetricsSnapshot) -> Value {
    json!({
        "counters": snap.counters.iter().map(|c| json!({"name": c.name, "value": c.value}))
            .collect::<Vec<_>>(),
        "gauges": snap.gauges.iter().map(|g| json!({"name": g.name, "value": g.value}))
            .collect::<Vec<_>>(),
        "histograms": snap.histograms.iter().map(|h| json!({
            "name": h.name,
            "count": h.count,
            // Wall sums are nondeterministic; quarantined like the text
            // rendering.
            "sum": matches!(h.kind, capi_obs::HistogramKind::Logical).then_some(h.sum),
        })).collect::<Vec<_>>(),
    })
}

/// Flushes run artifacts from a *failed* adaptive run: the Chrome
/// trace (`CAPI_TRACE_OUT`), the OpenMetrics exposition
/// (`CAPI_METRICS_OUT`), and a [`DumpTrigger::RunError`] post-mortem
/// (`CAPI_DUMP_OUT`) — so a faulted run leaves the same evidence a
/// clean one does. Returns the dump it built (whether or not any env
/// knob asked for a file).
pub(crate) fn flush_degraded_artifacts(
    session: &crate::startup::Session,
    controller: &AdaptController,
    error: &crate::startup::DynCapiError,
) -> PostMortem {
    let tel = session.runtime.telemetry().cloned();
    if let Some(t) = &tel {
        if let Some(path) = capi_obs::trace_out_from_env() {
            let _ = t.write_chrome_trace(&path);
        }
        if let Some(path) = capi_obs::metrics_out_from_env() {
            let _ = t.write_openmetrics(&path);
        }
    }
    let (generation, dispatch) = session.runtime.dispatch_summary();
    let dump = PostMortem::build(
        DumpTrigger::RunError {
            detail: error.to_string(),
        },
        controller.stats().epochs,
        tel.as_ref(),
        generation,
        &dispatch,
        session.adapter_event_loss(),
        controller.log_lines(),
        &HealthReport::default(),
    );
    if let Some(path) = capi_obs::dump_out_from_env() {
        let _ = dump.write_json(&path);
    }
    dump
}

#[cfg(test)]
mod tests {
    use super::*;
    use capi_obs::{RecordKind, CONTROL_RANK};

    fn sample_inputs() -> (
        Telemetry,
        Vec<ObjectPatchSummary>,
        Vec<String>,
        HealthReport,
    ) {
        let tel = Telemetry::new();
        tel.record(0, RecordKind::Mark, "exec.rank_epoch", "epoch=0".into());
        tel.record(
            CONTROL_RANK,
            RecordKind::Repatch,
            "xray.publish",
            "gen=3".into(),
        );
        let c = tel.counter("xray.dispatches");
        tel.add(c, 0, 42);
        let dispatch = vec![
            ObjectPatchSummary {
                object_id: 0,
                functions: 8,
                patched: 5,
                sampled: 1,
                faulted: false,
            },
            ObjectPatchSummary {
                object_id: 1,
                functions: 3,
                patched: 0,
                sampled: 0,
                faulted: true,
            },
        ];
        let decisions = (0..20).map(|i| format!("decision {i}")).collect();
        let health = HealthReport {
            epochs_observed: 4,
            stall_firings: 1,
            anomalies: vec![capi_obs::Anomaly {
                epoch: 3,
                kind: capi_obs::DetectorKind::Stall,
                detail: "no adaptation progress for 3 epochs without convergence".into(),
            }],
            ..Default::default()
        };
        (tel, dispatch, decisions, health)
    }

    #[test]
    fn dump_text_has_every_section_and_trims_the_decision_tail() {
        let (tel, dispatch, decisions, health) = sample_inputs();
        let dump = PostMortem::build(
            DumpTrigger::ConvergenceStall { epoch: 3 },
            3,
            Some(&tel),
            7,
            &dispatch,
            AdapterEventLoss {
                scorep_events_unmapped: 6,
                talp_events_dropped: 2,
            },
            &decisions,
            &health,
        );
        let text = &dump.text;
        assert!(text.starts_with("# post-mortem dump\n"));
        assert!(
            text.contains("trigger: convergence_stall: convergence stall detected at epoch 3\n")
        );
        assert!(text.contains("dispatch: generation 7, 2 objects\n"));
        assert!(text.contains("  obj 0: 5/8 patched, 1 sampled\n"));
        assert!(text.contains("  obj 1: 0/3 patched, 0 sampled, FAULTED\n"));
        assert!(text.contains("adapters: scorep 6 events unmapped, talp 2 events dropped\n"));
        assert!(text.contains("decisions (20 total, last 12):\n"));
        assert!(!text.contains("decision 7\n"), "older decisions trimmed");
        assert!(text.contains("  decision 8\n") && text.contains("  decision 19\n"));
        assert!(
            text.contains("# flight recorder (cap 256/ring, captured 2, evicted 0, retained 2)\n")
        );
        assert!(text.contains("  r0 #0 @0 mark exec.rank_epoch: epoch=0\n"));
        assert!(text
            .contains("# health (4 epochs observed, 1 firings: overhead 0, stall 1, volume 0)\n"));
        assert!(text.contains("counters:\n  xray.dispatches = 42\n"));
    }

    #[test]
    fn dump_is_byte_deterministic_and_json_parses_back() {
        let build = || {
            let (tel, dispatch, decisions, health) = sample_inputs();
            PostMortem::build(
                DumpTrigger::Degradation {
                    detail: "1 typed degradation".into(),
                },
                2,
                Some(&tel),
                7,
                &dispatch,
                AdapterEventLoss::default(),
                &decisions,
                &health,
            )
        };
        let (a, b) = (build(), build());
        assert_eq!(a.text, b.text);
        assert_eq!(a.to_json_string(), b.to_json_string());
        let doc: Value = serde_json::from_str(&a.to_json_string()).unwrap();
        let at = |path: &[&str]| {
            let mut v = &doc;
            for key in path {
                v = match key.parse::<usize>() {
                    Ok(i) => v.get(i).unwrap(),
                    Err(_) => v.get(*key).unwrap(),
                };
            }
            v.clone()
        };
        assert_eq!(at(&["trigger", "kind"]), json!("degradation"));
        assert_eq!(at(&["dispatch", "objects", "1", "faulted"]), json!(true));
        assert_eq!(at(&["health", "firings", "stall"]), json!(1));
        assert_eq!(at(&["recorder", "entries", "0", "kind"]), json!("mark"));
        assert_eq!(at(&["recorder", "entries", "1", "rank"]), json!("control"));
        assert_eq!(at(&["decisions", "total"]), json!(20));
        assert_eq!(at(&["adapters", "talp_events_dropped"]), json!(0));
    }

    #[test]
    fn dump_without_telemetry_still_renders_the_deterministic_core() {
        let dump = PostMortem::build(
            DumpTrigger::RunError {
                detail: "exec: no main".into(),
            },
            0,
            None,
            0,
            &[],
            AdapterEventLoss::default(),
            &[],
            &HealthReport::default(),
        );
        assert!(dump.text.contains("trigger: run_error: exec: no main\n"));
        assert!(dump.text.contains("# health (0 epochs observed"));
        assert!(!dump.text.contains("# flight recorder"));
        assert_eq!(dump.json.get("recorder"), Some(&Value::Null));
        assert_eq!(dump.json.get("metrics"), Some(&Value::Null));
    }
}

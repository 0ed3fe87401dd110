//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same catalogue for the driver; the test
//! suite holds the two together.

use Better::{Higher, Lower};

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// One workload of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen, in one line.
    pub why: &'static str,
}

/// Seconds one run measures unless `--seconds` says otherwise;
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 20;

/// The four workloads, all closed-loop.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "openfoam_cold",
        why: "60k-node graph, 6 DSOs, mpi spec, TALP, 1 rank: selection, startup filter matching, per-epoch prepare, policy over thousands of samples and rate republishes do the work; the event path almost none",
    },
    WorkloadDef {
        name: "openfoam_warm",
        why: "same fixture warm-started from a saved profile: load beside save, seeding beside evaluation, one big repatch instead of many small ones; selection is bypassed",
    },
    WorkloadDef {
        name: "lulesh_events",
        why: "Table II xray-full row: small graph, one object, 13M events through sled, dispatch, Score-P adapter and profile sink; selection, startup and adaptation do almost nothing",
    },
    WorkloadDef {
        name: "repatch_under_load",
        why: "17 objects: a writer cycles sled deltas, rate deltas and handler flips while a reader dispatches wait-free; publish, quiescence and mprotect cost show here and nowhere else",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, measured with tracing off. Every workload
/// reports every one of them.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("turnaround_s", "s", Better::Lower, 0.15),
    e2e("run_wall_s", "s", Better::Lower, 0.10),
    e2e("events_per_s", "events/s", Better::Higher, 0.10),
    e2e("repatch_p50_us", "us", Better::Lower, 0.15),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
];

/// Per-layer metrics, from traced runs. Layer names are crate names. A
/// traced run reports all of them; the ones its workload does not
/// exercise read 0 with no samples.
pub const PER_LAYER: [MetricDef; 51] = [
    // T1 — openfoam_cold / openfoam_warm.
    layer("metacg.build_s", "s", Lower),
    layer("metacg.nodes", "count", Lower),
    layer("objmodel.compile_s", "s", Lower),
    layer("spec.select_s", "s", Lower),
    layer("spec.selected", "count", Higher),
    layer("spec.select_s.30k", "s", Lower),
    layer("spec.select_s.120k", "s", Lower),
    layer("spec.select_growth_exp", "ratio", Lower),
    layer("core.make_ic_s", "s", Lower),
    layer("xray.pass_s", "s", Lower),
    layer("dyncapi.symres_s", "s", Lower),
    layer("scorep.filter_match_s", "s", Lower),
    layer("scorep.filter_match_checks", "count", Lower),
    layer("xray.patch_startup_s", "s", Lower),
    layer("dyncapi.startup_s", "s", Lower),
    layer("dyncapi.startup_other_s", "s", Lower),
    layer("exec.prepare_s", "s", Lower),
    layer("exec.prepare_calls", "count", Lower),
    layer("exec.run_epoch_s", "s", Lower),
    layer("exec.events", "count", Higher),
    layer("adapt.on_epoch_s", "s", Lower),
    layer("adapt.samples", "count", Higher),
    layer("adapt.decisions", "count", Lower),
    layer("xray.repatch_s", "s", Lower),
    layer("xray.sleds_rewritten", "count", Lower),
    layer("xray.mprotect_pairs", "count", Lower),
    layer("adapt.export_profile_s", "s", Lower),
    layer("persist.save_s", "s", Lower),
    layer("persist.bytes", "count", Lower),
    layer("persist.load_s", "s", Lower),
    layer("persist.match_s", "s", Lower),
    layer("adapt.seed_s", "s", Lower),
    layer("xray.repatch_warm_s", "s", Lower),
    layer("obs.telemetry_overhead_pct", "%", Lower),
    layer("trace.layer_sum_ratio", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
    // T2 — the lulesh_events ladder.
    layer("exec.vanilla_s", "s", Lower),
    layer("xray.nop_sled_ns_per_event", "ns/event", Lower),
    layer("xray.dispatch_ns_per_event", "ns/event", Lower),
    layer("scorep.adapter_ns_per_event", "ns/event", Lower),
    layer("talp.adapter_ns_per_event", "ns/event", Lower),
    layer("xray.sink_sharded_log_ns_per_event", "ns/event", Lower),
    layer("xray.sampled_ns_per_event", "ns/event", Lower),
    layer("mpisim.rank_scaling_eff", "ratio", Higher),
    // T3 — repatch_under_load.
    layer("xray.repatch_sled_idle_us", "us", Lower),
    layer("xray.repatch_sled_loaded_us", "us", Lower),
    layer("xray.quiescence_us", "us", Lower),
    layer("xray.repatch_rate_us", "us", Lower),
    layer("xray.handler_flip_us", "us", Lower),
    layer("xray.repatch_p99_us", "us", Lower),
    layer("xray.reader_slowdown_ratio", "ratio", Higher),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(m.name), "bad name {}", m.name);
            assert!(ok_unit(m.unit), "bad unit {}", m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name), "bad {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END[0];
        assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25 && b <= setup.bound.unwrap());
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}

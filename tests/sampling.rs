//! Property tests for 1-in-N sampled instrumentation: the fidelity
//! contracts the tentpole promises have to hold for *arbitrary*
//! workload shapes, not just the curated bench apps.
//!
//! * `Sampled(1)` is full instrumentation — byte-identical event logs
//!   and virtual clocks, zero skips;
//! * sampled runs are deterministic: the per-rank sampling counter
//!   replays the same event subset on every repetition;
//! * extrapolated visit counts reconstruct the true invocation count
//!   within one sampling period per (rank, function).

use capi::{dynamic_session, InstrumentationConfig, InstrumentationMode};
use capi_appmodel::{LinkTarget, MpiCall, ProgramBuilder};
use capi_dyncapi::ToolChoice;
use capi_objmodel::{compile, Binary, CompileOptions};
use capi_xray::{Event, ShardedLog};
use proptest::prelude::*;
use std::sync::Arc;

/// A step-loop program whose kernel trip count is the property input —
/// sampling periods that do and don't divide the visit count are both
/// exercised.
fn program(trips: u64) -> Binary {
    let mut b = ProgramBuilder::new("prop-sampling");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(50)
        .instructions(400)
        .cost(1_000)
        .calls("MPI_Init", 1)
        .calls("step", 8)
        .calls("MPI_Finalize", 1)
        .finish();
    b.function("step")
        .statements(40)
        .instructions(300)
        .cost(500)
        .calls("kernel", trips)
        .calls("helper", trips / 2 + 1)
        .calls("MPI_Allreduce", 1)
        .finish();
    b.function("kernel")
        .statements(60)
        .instructions(600)
        .cost(400)
        .loop_depth(2)
        .finish();
    b.function("helper")
        .statements(40)
        .instructions(400)
        .cost(150)
        .imbalance(50)
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
    compile(&b.build().unwrap(), &CompileOptions::o2()).expect("compiles")
}

struct RunResult {
    per_rank_ns: Vec<u64>,
    events: u64,
    sampled_skips: u64,
    log: Vec<Event>,
}

fn run_with_ic(bin: &Binary, ic: &InstrumentationConfig, ranks: u32) -> RunResult {
    let session = dynamic_session(bin, ic, ToolChoice::None, ranks).expect("session starts");
    let log = Arc::new(ShardedLog::new(ranks));
    session.runtime.set_handler(log.clone());
    let out = session.run().expect("runs");
    // Ranks run on threads; the sink's rank-major merge recovers each
    // rank's (deterministic) event sequence.
    RunResult {
        per_rank_ns: out.run.per_rank_ns,
        events: out.run.events,
        sampled_skips: out.run.sampled_skips,
        log: log.events(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Sampled(1)` must be indistinguishable from `Full` — the mode
    /// normalizes to plain membership in the IC, and the runtime treats
    /// rate 1 as the unsampled fast path: same logs, same clocks, no
    /// skips.
    #[test]
    fn sampled_one_is_byte_identical_to_full(
        trips in 1u64..40,
        ranks in 1u32..4,
    ) {
        let bin = program(trips);
        let full_ic = InstrumentationConfig::from_names(["step", "kernel", "helper"]);
        let mut one_ic = full_ic.clone();
        one_ic.set_mode("kernel", InstrumentationMode::Sampled(1));
        one_ic.set_mode("helper", InstrumentationMode::Sampled(1));
        prop_assert_eq!(one_ic.rate_of("kernel"), 1, "Sampled(1) normalizes to rate 1");

        let full = run_with_ic(&bin, &full_ic, ranks);
        let one = run_with_ic(&bin, &one_ic, ranks);
        prop_assert_eq!(&full.per_rank_ns, &one.per_rank_ns, "clocks identical");
        prop_assert_eq!(full.events, one.events);
        prop_assert_eq!(one.sampled_skips, 0, "rate 1 never skips");
        prop_assert_eq!(&full.log, &one.log, "logs byte-identical");
    }

    /// The sampling counter is per-rank and deterministic: repeating a
    /// sampled run replays exactly the same event subset with the same
    /// virtual clocks, for any rate.
    #[test]
    fn sampled_runs_are_deterministic_across_repeats(
        trips in 1u64..40,
        rate in 2u32..6,
        ranks in 1u32..4,
    ) {
        let bin = program(trips);
        let mut ic = InstrumentationConfig::from_names(["step", "kernel", "helper"]);
        ic.apply_rates([("kernel", rate), ("helper", rate)]);

        let a = run_with_ic(&bin, &ic, ranks);
        let b = run_with_ic(&bin, &ic, ranks);
        prop_assert_eq!(&a.per_rank_ns, &b.per_rank_ns, "clocks identical");
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.sampled_skips, b.sampled_skips);
        prop_assert_eq!(&a.log, &b.log, "logs byte-identical across repeats");

        // Sampling genuinely thinned the stream: the full run has more
        // events, and every withheld event is accounted for.
        let full = run_with_ic(
            &bin,
            &InstrumentationConfig::from_names(["step", "kernel", "helper"]),
            ranks,
        );
        prop_assert!(a.events < full.events, "rate {} must thin the stream", rate);
        prop_assert_eq!(a.events + a.sampled_skips, full.events,
            "emitted + skipped = full event count");
    }
}

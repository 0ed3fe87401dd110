//! # capi — Compiler-assisted Performance Instrumentation
//!
//! The paper's primary contribution, assembled from the substrate
//! crates: user-guided instrumentation selection over a whole-program
//! call graph, with **runtime-adaptable** instrumentation that applies a
//! new instrumentation configuration (IC) at program start instead of
//! recompiling.
//!
//! The high-level user workflow (paper Fig. 1):
//!
//! ```text
//!        ┌────────┐     ┌────────────┐     ┌─────────┐
//!   ────▶│ Select │────▶│ Instrument │────▶│ Measure │──┐
//!        └────────┘ IC  └────────────┘     └─────────┘  │ profile
//!             ▲                                          │
//!             └────────────── Adjust ◀───────────────────┘
//! ```
//!
//! * [`mod@select`] — run a CaPI spec (`capi-spec`) against a MetaCG
//!   graph,
//!   with wall-clock timing (Table I's first column);
//! * [`inlining`] — the §V-E inlining compensation: selected functions
//!   whose symbols vanished from the binary are replaced by their first
//!   non-inlined callers;
//! * [`ic`] — the IC artifact: Score-P-compatible filter file, JSON, or
//!   plain name list, plus the packed-ID extension the paper suggests as
//!   future development;
//! * [`instrument`] — both instrumentation modes: *static* (hooks only in
//!   selected functions, requires recompilation per adjustment) and
//!   *dynamic* (XRay sleds everywhere, DynCaPI patches the selection at
//!   startup);
//! * [`workflow`] — the refinement loop with turnaround accounting
//!   (§VII-A: ~50 min recompile per adjustment vs seconds of patching).
//!
//! The coarse selector (§V-D) lives in the DSL crate and is re-exported
//! here as [`coarse`].

pub mod ic;
pub mod inlining;
pub mod instrument;
pub mod select;
pub mod workflow;

pub use capi_adapt::ExpansionOptions;
pub use capi_dyncapi::{AdaptiveOutcome, AdaptiveRunBuilder};
pub use capi_spec::eval::{coarse, statement_aggregation};
pub use ic::{InstrumentationConfig, InstrumentationMode};
pub use inlining::{compensate_inlining, CompensationReport};
pub use instrument::{dynamic_session, static_session, StaticBuild};
pub use select::{select, SelectionOutcome};
pub use workflow::{
    profile_source_from_env, IcOutcome, InFlightOutcome, MeasureOutcome, ProfileSource, Workflow,
};

//! # capi-dyncapi — the DynCaPI runtime library
//!
//! The paper's §IV/§V-C runtime component: "During runtime, the DynCaPI
//! library is responsible for directing the dynamic instrumentation.
//! Patching is done at startup according to the IC file passed via an
//! environment variable. DynCaPI also provides an interface between the
//! XRay events and the measurement tool."
//!
//! * [`symres`] — the ID↔name mapping: collect each object's exported
//!   symbols (`nm`), translate them through the process memory map, and
//!   cross-check against XRay's `function_address` API. Hidden symbols
//!   cannot be resolved (1,444 such functions in the paper's OpenFOAM
//!   case, largely static initializers) and are counted, not patched.
//! * [`adapters`] — measurement bridges: the generic
//!   `__cyg_profile_func_{enter,exit}` interface feeding Score-P
//!   (including the symbol-injection step that fixes DSO resolution),
//!   and the TALP bridge that lazily registers regions on first entry —
//!   failing for regions entered before `MPI_Init`, as §VI-B(b) reports.
//! * [`mod@startup`] — the startup sequence: run the XRay pass over every
//!   object, register them (PIC trampolines for DSOs), resolve IDs,
//!   patch exactly the IC's functions, install the tool handler, and
//!   account every step's virtual cost into `T_init` (Table II).
//! * [`adaptive`] — in-flight adaptation: the session runs in epochs, a
//!   `capi-adapt` controller repatches sleds at every boundary (zero
//!   restarts), and the repatch cost is accounted as `T_adapt`. A warm
//!   start additionally seeds the controller from a persisted
//!   `capi-persist` profile — objects matched by name + fingerprint so
//!   recycled DSO slots and rebuilt binaries never alias stale packed
//!   IDs — and a profile that fails to load degrades to a cold start
//!   with the reason in the adaptation log.
//! * [`builder`] — [`AdaptiveRunBuilder`], the single configurable
//!   entry point for adaptive runs: budget, epochs, expansion, profile
//!   source, and the sampling knobs (demotion rate cap,
//!   redundancy-suppression band) in one builder.
//! * [`lifecycle`] — DSO-churn survival: a deterministic
//!   [`LifecycleScript`] opens/closes/rebuilds/interposes shared
//!   objects at epoch boundaries (with seeded fault injection), while
//!   the loop degrades gracefully — surviving repatches, lenient call
//!   resolution, bounded `dlopen` retry — and counts every degradation
//!   in `capi-obs`.
//! * [`postmortem`] — trigger-based post-mortem dumps: on a typed
//!   degradation, a fired fault, a budget overrun, or a convergence
//!   stall, the run captures the flight-recorder tail, a full metrics
//!   snapshot, the dispatch-table summary, and the controller's recent
//!   decisions in a byte-deterministic text + JSON [`PostMortem`] —
//!   without aborting the run.

pub mod adapters;
pub mod adaptive;
pub mod builder;
pub mod lifecycle;
pub mod postmortem;
pub mod startup;
pub mod symres;

pub use adapters::{AdapterEventLoss, ScorepAdapter, TalpAdapter, TalpAdapterStats};
pub use adaptive::{efficiency_summary, AdaptiveRun, EpochRecord, WarmStart, WarmStartSummary};
pub use builder::{profile_source_from_env, AdaptiveOutcome, AdaptiveRunBuilder, ProfileSource};
pub use lifecycle::{LifecycleOp, LifecycleScript, LifecycleStats, LoadDsoOutcome};
pub use postmortem::{DumpTrigger, PostMortem};
pub use startup::{
    startup, DynCapiConfig, DynCapiError, InitCostModel, Session, SessionRun, StartupReport,
    ToolChoice,
};
pub use symres::{resolve_ids, SymbolResolution, SymresStats};

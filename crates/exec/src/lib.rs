//! # capi-exec — virtual-time execution engine
//!
//! Replays a compiled [`capi_objmodel::Binary`] on simulated MPI ranks,
//! charging per-event instrumentation costs — the engine behind the
//! paper's Table II overhead comparison.
//!
//! Each rank walks the executable's post-inlining call tree, advancing a
//! virtual clock:
//!
//! * function bodies cost their compiled `body_cost_ns` (scaled by the
//!   per-rank imbalance model, which is what gives TALP's load-balance
//!   metric something to measure);
//! * dormant XRay sleds cost [`OverheadModel::unpatched_sled_ns`] — a
//!   few NOPs, reproducing the paper's "near-zero overhead when executing
//!   XRay-instrumented programs without active patching";
//! * patched sleds pay the trampoline cost plus whatever the registered
//!   handler (Score-P/TALP adapter) reports for the event;
//! * MPI stubs hand the clock to `capi-mpisim`, synchronizing ranks.
//!
//! **Quiet-subtree memoization**: subtrees containing no MPI calls and no
//! patched sleds are summarized once per `(function, rank)` and replayed
//! as a single clock increment. An uninstrumented OpenFOAM-scale run
//! collapses to microseconds of wall time while fully-instrumented runs
//! still execute every event — the measurement, not the simulation, is
//! the bottleneck, as it should be.
//!
//! **The epoch schedule** (in-flight adaptation's substrate): at
//! `prepare` time the engine linearizes the program around its dominant
//! *progress loop* — starting at `main` it repeatedly descends into the
//! call site whose subtree carries the most statically estimated
//! virtual time, as long as that site is a single-trip wrapper; the
//! first dominant site with ≥ 2 trips becomes the loop whose trips are
//! divided across epochs. Everything before the loop runs in epoch 0,
//! everything after it in the last epoch, and the descended wrappers
//! form the *spine*: functions logically entered across every epoch
//! boundary, which adaptation must keep patched (their entry/exit
//! events would otherwise unbalance). Running epochs `0..total` back to
//! back over one `World` is bit-identical to a monolithic run — except
//! the caller may repatch sleds and re-`prepare` at every boundary.
//!
//! **What a `prepare` costs**: call sites are bound to their callees by
//! [`capi_objmodel::Process::bindings`], once per load state; `prepare`
//! shares that result and computes only what depends on the patch state
//! — the snapshot, the per-function sled overlay, the quiet-subtree
//! analysis and the schedule. Re-preparing at a boundary is therefore
//! an overlay, and a full rebind happens exactly when a `dlopen` /
//! `dlclose` changed what is loaded.
//!
//! **Per-epoch measurements**: epoch runs report per-function event
//! costs ([`FuncCostSample`]) *and* TALP-style per-region efficiency
//! samples ([`RegionCostSample`]): each patched function is treated as
//! a monitoring region, MPI time is attributed to the regions open on
//! the executing rank, and the per-rank useful/MPI split feeds the
//! load-balance and communication-fraction signals that drive the
//! `capi-adapt` expansion policies.

pub mod engine;

pub use engine::{
    Engine, EpochOutcome, EpochSpec, ExecError, FuncCostSample, OverheadModel, RegionCostSample,
    RunReport,
};

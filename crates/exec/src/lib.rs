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
//! the caller may repatch sleds at every boundary.
//!
//! **What lives how long.** An adaptive run's cost should follow what
//! ran and what changed, not the size of the program, so the engine's
//! state is split by what invalidates it:
//!
//! * *Per load state* — the call bindings
//!   ([`capi_objmodel::Process::bindings`]), the subtree-cost estimate
//!   the schedule ranks sites by and the reverse call edges (both lazily
//!   built on the bindings themselves), the schedule, and each rank's
//!   quiet-subtree memo (a summary describes its subtree with every
//!   sled dormant — the only state it is read in). Redone only after a
//!   `dlopen` / `dlclose` / reload.
//! * *Per patch state* — the per-function sled overlay
//!   (`patched`, sampling rate), its generation, and the quiet flags.
//!   [`Engine::prepare`] builds them over every function;
//!   [`Engine::apply`] brings them up to date after one repatch batch by
//!   re-reading, from a fresh snapshot, the sleds the batch named and
//!   moving quiet flags only where a `patched` bit flipped (upwards
//!   through the callers, never over the whole graph).
//! * *Per epoch* — each rank's cost, region and sampling cells. The
//!   engine keeps one scratch set per rank; a rank lists the keys it
//!   touches, the fold into [`EpochOutcome`] visits those keys in order,
//!   and the next epoch resets them. The sampling sequence counters and
//!   duration estimates restart at every epoch, as they always did.
//!
//! **When to fall back.** `apply` equals a fresh `prepare` as long as
//! the batch is the only thing that happened to the runtime since the
//! engine last looked and the load state is the same. The adaptive loop
//! applies when the batch's `RepatchReport` carries the generation right
//! after the engine's, and prepares from scratch whenever
//! [`Engine::is_current`] says no: the process hands out different
//! bindings (a lifecycle op, an unload race, a reload) or the runtime is
//! at a generation the engine has not read. `prepare` is also the
//! reference `apply` is tested against.
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

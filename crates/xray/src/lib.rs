//! # capi-xray — LLVM XRay reproduction with DSO support
//!
//! Reproduces the instrumentation machinery of paper §V:
//!
//! * [`pass`] — the compile-time machine pass: pre-filters functions by
//!   instruction count (and loop presence), then records entry/exit
//!   *sleds* (NOP placeholders) in a per-object sled table.
//! * [`packed_id`] — the paper's Fig. 4 contribution: a 32-bit packed ID
//!   with 8 bits of object ID and 24 bits of function ID. Object 0 is
//!   always the main executable, keeping packed IDs backward-compatible
//!   with pre-DSO XRay.
//! * [`trampoline`] — trampolines with absolute or GOT-relative handler
//!   addressing. Relocated shared objects *must* use the GOT-relative
//!   form (§V-B2); dispatch through an absolute trampoline in a
//!   relocated object faults, exactly like the unpatched original would.
//! * [`runtime`] — the `xray-rt` + `xray-dso` equivalent: object
//!   registration/deregistration, sled patching through `mprotect`-style
//!   page flips, the global patched-function handler, and the
//!   `function_address`/ID lookup API the paper's DynCaPI cross-checks.
//! * [`dispatch`] — the wait-free per-event fast path: an immutable
//!   dispatch table published copy-on-write per object, RCU-style,
//!   behind one atomic pointer, with dynamically claimed cache-padded
//!   per-thread reader slots for the in-flight guards and counters (the
//!   full publish/quiescence protocol is documented on the module).
//! * [`log`] — XRay's built-in modes as one per-rank sharded sink,
//!   [`ShardedLog`], with two retentions (keep everything, or a ring of
//!   each rank's newest records) and one deterministic rank-major merge.
//!
//! ## One way to mutate
//!
//! Sled state changes through a [`PatchDelta`] handed to
//! [`XRayRuntime::repatch`] (unknown IDs fail the batch) or
//! [`XRayRuntime::repatch_surviving`] (unknown IDs are skipped and
//! counted). XRay's C API spells as deltas, with `ids` the object's
//! packed IDs and `id` one of them:
//!
//! | XRay call | `PatchDelta` |
//! |---|---|
//! | `__xray_patch()` | `{ patch: ids, .. }` per object — or [`XRayRuntime::patch_all`], the same batch without building the ID list |
//! | `__xray_unpatch()` | `{ unpatch: ids, .. }` |
//! | `__xray_patch_function(id)` | `{ patch: vec![id], .. }` |
//! | `__xray_unpatch_function(id)` | `{ unpatch: vec![id], .. }` |
//!
//! [`XRayRuntime::patch_all`] and [`XRayRuntime::patch_functions`] are
//! the startup forms (one object, by function ID); they build the same
//! per-object change list and run the same private core as `repatch`,
//! so every form pays one page-flip pair per object that has something
//! to rewrite, bumps the generation once, and publishes once.

pub mod dispatch;
pub mod handler;
pub mod log;
pub mod packed_id;
pub mod pass;
pub mod runtime;
pub mod sled;
pub(crate) mod slots;
pub mod trampoline;

pub use dispatch::{DispatchTable, ObjectDispatch};
pub use handler::{Event, EventKind, Handler};
pub use log::ShardedLog;
pub use packed_id::{IdError, PackedId, FUNC_BITS, MAX_FUNCTION_ID, MAX_OBJECT_ID, OBJ_BITS};
pub use pass::{instrument_object, InstrumentedObject, PassOptions, PassStats};
pub use runtime::{
    ObjectPatchSummary, ObjectSnapshot, PatchDelta, PatchSnapshot, RepatchReport, RuntimeStats,
    XRayError, XRayRuntime,
};
pub use sled::{SledEntry, SledKind, SledTable, SLED_BYTES};
pub use trampoline::{AddressingMode, TrampolineFault, TrampolineSet};

//! The XRay runtime (`xray-rt` + the paper's new `xray-dso`).
//!
//! Responsibilities reproduced from §V-A/§V-B:
//!
//! * resolve each object's sled table at registration time,
//! * assign object IDs — the main executable is always object 0, DSOs get
//!   1..=255, and registration beyond 255 DSOs fails,
//! * patch/unpatch sleds by flipping page protection (`mprotect`),
//!   rewriting the sled bytes, and restoring protection,
//! * deliver events from patched sleds to the single registered handler
//!   through the per-object trampolines (position-independent for DSOs),
//! * answer the ID↔address queries DynCaPI uses to cross-check its
//!   symbol mapping.
//!
//! Thread safety: rank threads dispatch concurrently; patching typically
//! happens during startup but is allowed at any time (that is the point
//! of *runtime-adaptable* instrumentation).
//!
//! Layout: this file holds the types, the runtime's state and the
//! per-event dispatch. `registry` registers objects and answers the
//! ID↔address queries, `patching` is the only place sled bytes and page
//! protection change, and `publish` turns the inner state into the table
//! readers see and folds the reader counters into telemetry.

mod patching;
mod publish;
mod registry;

use crate::dispatch::{debug_assert_not_dispatching, DispatchGuard, TableCell};
use crate::handler::{Event, EventKind, Handler};
use crate::packed_id::{IdError, PackedId};
use crate::pass::InstrumentedObject;
use crate::slots::SlotRegistry;
use crate::trampoline::{TrampolineFault, TrampolineSet};
use capi_objmodel::{LoadedObject, MemError, PAGE_SIZE};
use parking_lot::RwLock;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

pub use crate::dispatch::{DispatchTable, ObjectDispatch};
pub use publish::{ObjectPatchSummary, ObjectSnapshot, PatchSnapshot};

/// Runtime errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XRayError {
    /// The main executable must be registered before any DSO.
    MainMustBeFirst,
    /// Object 0 is already registered.
    MainAlreadyRegistered,
    /// Object 0 is the main executable: it is never `dlclose`d, so it
    /// cannot be deregistered.
    MainIsPermanent,
    /// All 255 DSO object IDs are in use.
    TooManyObjects,
    /// The object has more instrumented functions than fit in 24 bits.
    Id(IdError),
    /// No object with this ID is registered.
    UnknownObject(u8),
    /// The function ID is not present in the object's sled table.
    UnknownFunction(PackedId),
    /// Memory protection error part-way through a patch batch. What was
    /// written before the fault stays written and *is* published, so
    /// `applied` — not "nothing" — is what the batch did.
    Mem {
        /// The part of the batch that was applied and published.
        applied: RepatchReport,
        /// The fault that stopped the batch.
        error: MemError,
    },
    /// Dispatch through an unsound trampoline.
    Fault(TrampolineFault),
    /// Dispatch to a sled that is not patched (stale snapshot).
    NotPatched(PackedId),
}

impl fmt::Display for XRayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XRayError::MainMustBeFirst => write!(f, "register the main executable first"),
            XRayError::MainAlreadyRegistered => write!(f, "main executable already registered"),
            XRayError::MainIsPermanent => write!(f, "the main executable cannot be deregistered"),
            XRayError::TooManyObjects => write!(f, "cannot register more than 255 DSOs"),
            XRayError::Id(e) => write!(f, "{e}"),
            XRayError::UnknownObject(o) => write!(f, "object {o} is not registered"),
            XRayError::UnknownFunction(id) => write!(f, "no sled for {id}"),
            XRayError::Mem { error, .. } => write!(f, "patching failed: {error}"),
            XRayError::Fault(e) => write!(f, "{e}"),
            XRayError::NotPatched(id) => write!(f, "sled {id} is not patched"),
        }
    }
}

impl std::error::Error for XRayError {}

impl From<IdError> for XRayError {
    fn from(e: IdError) -> Self {
        XRayError::Id(e)
    }
}

/// Aggregate runtime statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Objects currently registered.
    pub objects_registered: usize,
    /// Sled rewrites performed (patch + unpatch).
    pub sled_writes: u64,
    /// Events dispatched to the handler.
    pub dispatches: u64,
    /// Dispatches delivered through the stale-snapshot tolerance path
    /// (sled unpatched after the caller's snapshot was taken).
    pub stale_dispatches: u64,
    /// Batch [`XRayRuntime::repatch`] operations performed.
    pub repatches: u64,
    /// Sampled-mode dispatches skipped by the 1-in-N counter.
    pub sampled_skips: u64,
}

/// A batch of patch-state changes — the one way to ask the runtime to
/// rewrite sleds, whether for a single function or a whole adaptation
/// step (see the crate docs for how XRay's `__xray_patch*` calls spell
/// as deltas).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PatchDelta {
    /// Functions to patch (activate instrumentation).
    pub patch: Vec<PackedId>,
    /// Functions to unpatch (restore NOP sleds).
    pub unpatch: Vec<PackedId>,
    /// Per-function sampling rates to install (1-in-N; clamped to ≥ 1).
    /// Applied after the patch/unpatch state changes, so a delta that
    /// both patches a function and sets its rate ends sampled. Rate
    /// changes rewrite no sleds — they only republish the dispatch
    /// table.
    pub set_rate: Vec<(PackedId, u32)>,
}

impl PatchDelta {
    /// A delta that changes nothing.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.patch.is_empty() && self.unpatch.is_empty() && self.set_rate.is_empty()
    }

    /// Total number of requested changes.
    pub fn len(&self) -> usize {
        self.patch.len() + self.unpatch.len() + self.set_rate.len()
    }
}

/// What a batch [`XRayRuntime::repatch`] actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepatchReport {
    /// Sleds rewritten to the patched state.
    pub sleds_patched: u64,
    /// Sleds restored to NOPs.
    pub sleds_unpatched: u64,
    /// `mprotect` pairs issued (one per touched object).
    pub mprotect_pairs: u64,
    /// Sampling-rate entries that changed a stored rate.
    pub rates_set: u64,
    /// Patch generation after the batch was applied.
    pub generation: u64,
    /// Objects the whole delta referenced but that were no longer
    /// registered — skipped by [`XRayRuntime::repatch_surviving`]
    /// instead of failing the batch (0 on the strict path).
    pub skipped_objects: u64,
    /// Individual delta entries dropped because their object or
    /// function was gone (0 on the strict path).
    pub skipped_entries: u64,
}

struct Registered {
    inst: InstrumentedObject,
    trampolines: TrampolineSet,
    process_index: usize,
    base: u64,
    relocated: bool,
    /// Page-aligned `(address, length)` covering every sled of the
    /// object — what one `mprotect` pair flips; `None` without sleds.
    sled_pages: Option<(u64, u64)>,
    /// Patch state per XRay function ID.
    patched: Vec<bool>,
    /// Sampling rate (1-in-N) per XRay function ID; 1 = full
    /// instrumentation. Reset to 1 whenever a function transitions from
    /// unpatched to patched, so a restored function is re-measured at
    /// full fidelity until a policy demotes it again.
    rate: Vec<u32>,
    /// Generation at which each function was last *unpatched*; lets
    /// dispatch distinguish "never patched" (hard fault) from "unpatched
    /// after the caller's snapshot" (tolerated, in-flight adaptation).
    unpatch_gen: Vec<u64>,
    /// `(entry_offset, fid)` sorted by offset — the reverse-lookup index
    /// [`XRayRuntime::id_at_address`] binary-searches instead of walking
    /// every sled entry.
    addr_index: Vec<(u64, u32)>,
}

impl Registered {
    fn new(
        inst: InstrumentedObject,
        loaded: &LoadedObject,
        process_index: usize,
        trampolines: TrampolineSet,
    ) -> Self {
        let n = inst.sleds.num_functions();
        let mut addr_index: Vec<(u64, u32)> = inst
            .sleds
            .entries
            .iter()
            .map(|e| (e.entry_offset, e.fid))
            .collect();
        addr_index.sort_unstable();
        let sled_pages = inst.sleds.sled_range().map(|(lo, hi)| {
            let page_lo = (loaded.base + lo) / PAGE_SIZE * PAGE_SIZE;
            let page_hi = (loaded.base + hi).div_ceil(PAGE_SIZE) * PAGE_SIZE;
            (page_lo, page_hi - page_lo)
        });
        Self {
            patched: vec![false; n],
            rate: vec![1; n],
            unpatch_gen: vec![0; n],
            addr_index,
            sled_pages,
            trampolines,
            process_index,
            base: loaded.base,
            relocated: !loaded.at_preferred_base,
            inst,
        }
    }
}

struct Inner {
    /// Index = object ID.
    objects: Vec<Option<Registered>>,
    handler: Option<Arc<dyn Handler>>,
    stats: RuntimeStats,
    /// The most recently published table — the copy-on-write source:
    /// the next publish clones this `Vec` of `Arc`s and rebuilds only
    /// the touched entries, sharing the rest.
    current: Arc<DispatchTable>,
}

impl Inner {
    fn registered(&self, object_id: u8) -> Option<&Registered> {
        self.objects.get(object_id as usize)?.as_ref()
    }
}

/// The XRay runtime.
pub struct XRayRuntime {
    inner: RwLock<Inner>,
    generation: AtomicU64,
    /// The published dispatch fast-path snapshot; swapped atomically by
    /// the mutators while they hold the `inner` write lock.
    table: TableCell,
    /// Dynamic per-thread/per-rank in-flight guards and event counters
    /// (dispatch is the hot path and runs concurrently on every rank
    /// thread). Slots are claimed lazily and recycled on thread exit.
    slots: SlotRegistry,
    /// Set-once self-telemetry wiring ([`Self::set_telemetry`]).
    obs: OnceLock<publish::ObsHandles>,
}

impl Default for XRayRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl XRayRuntime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        let empty = Arc::new(DispatchTable::empty());
        Self {
            inner: RwLock::new(Inner {
                objects: Vec::new(),
                handler: None,
                stats: RuntimeStats::default(),
                current: Arc::clone(&empty),
            }),
            generation: AtomicU64::new(0),
            table: TableCell::new(empty),
            slots: SlotRegistry::new(),
            obs: OnceLock::new(),
        }
    }

    /// Pre-claims the calling thread's reader slot for `rank`, so the
    /// thread's first dispatch skips the one-time claim lock. Rank
    /// threads (e.g. the executor's) call this once at startup; calling
    /// it is never required for correctness — slots are claimed lazily
    /// on first dispatch.
    pub fn register_reader(&self, rank: u32) {
        self.slots.register(rank);
    }

    /// Number of reader slots currently allocated (claimed plus
    /// free-listed recycled ones; the control slot is not counted).
    pub fn reader_slots_allocated(&self) -> usize {
        self.slots.allocated()
    }

    /// Acquires the inner read lock. Must never be reached from a
    /// handler's `on_event` (a concurrent publisher holding the write
    /// lock waits for that very dispatch to drain — deadlock); debug
    /// builds panic on the misuse. Guard-based readers
    /// ([`Self::is_patched`], [`Self::snapshot`], dispatch itself) are
    /// handler-safe.
    fn read_inner(&self, api: &str) -> parking_lot::RwLockReadGuard<'_, Inner> {
        debug_assert_not_dispatching(api);
        self.inner.read()
    }

    /// Acquires the inner write lock; same handler rule as
    /// [`Self::read_inner`].
    fn write_inner(&self, api: &str) -> parking_lot::RwLockWriteGuard<'_, Inner> {
        debug_assert_not_dispatching(api);
        self.inner.write()
    }

    /// Advances the generation. Only called with the write lock held, so
    /// every table pairs a generation with the state it describes.
    fn bump(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Monotonic counter incremented on every state change
    /// (registration, patching, handler). Every [`PatchSnapshot`] and
    /// [`RepatchReport`] carries the generation it describes, which is
    /// how a consumer holding derived state (the executor's sled overlay)
    /// tells whether one batch is all that happened since it last looked.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Dispatches an event from a patched sled through the object's
    /// trampolines to the handler. Returns the handler's virtual cost.
    pub fn dispatch(
        &self,
        id: PackedId,
        kind: EventKind,
        tsc: u64,
        rank: u32,
    ) -> Result<u64, XRayError> {
        self.dispatch_from_snapshot(id, kind, tsc, rank, self.generation())
    }

    /// Like [`Self::dispatch`], but for callers working from a
    /// [`PatchSnapshot`] taken at `snapshot_generation`. A sled that was
    /// unpatched *after* that generation is tolerated — the in-flight
    /// thread already entered the (then-patched) sled, so the event is
    /// delivered and counted as stale instead of raising
    /// [`XRayError::NotPatched`]. A sled that was already dormant at the
    /// snapshot still faults hard.
    ///
    /// This is the wait-free fast path: no lock, no `Arc` clone — one
    /// striped in-flight bump, one atomic table load, two array indexes,
    /// then straight into the handler. The table guard pins the handler
    /// for the duration of the call, so handlers must never call back
    /// into any API that takes the inner lock — publishers
    /// (registration, patching, `set_handler`) *or* read-lock queries
    /// like [`Self::stats`]: a concurrent publisher would wait forever
    /// for the handler's own dispatch to drain while the handler waits
    /// behind the publisher's write lock. Debug builds panic on the
    /// misuse; [`Self::is_patched`] and [`Self::snapshot`] are
    /// guard-based and handler-safe.
    pub fn dispatch_from_snapshot(
        &self,
        id: PackedId,
        kind: EventKind,
        tsc: u64,
        rank: u32,
        snapshot_generation: u64,
    ) -> Result<u64, XRayError> {
        self.deliver(id, kind, tsc, rank, snapshot_generation, None)
            .map(|cost| cost.unwrap_or(0))
    }

    /// The sampled variant of [`Self::dispatch_from_snapshot`]: delivers
    /// the event only when the caller's per-rank, per-function sequence
    /// number `sample_seq` lands on the function's published 1-in-N
    /// rate (`sample_seq % rate == 0`). A skipped event costs one
    /// striped counter bump and returns `Ok(None)`; a delivered event
    /// returns `Ok(Some(handler_ns))`.
    ///
    /// At rate 1 every sequence number is delivered, so the path is
    /// behaviorally identical to [`Self::dispatch_from_snapshot`].
    /// Determinism: the caller owns `sample_seq` (one counter per rank
    /// and function), so repeated runs skip exactly the same events.
    pub fn dispatch_sampled_from_snapshot(
        &self,
        id: PackedId,
        kind: EventKind,
        tsc: u64,
        rank: u32,
        snapshot_generation: u64,
        sample_seq: u64,
    ) -> Result<Option<u64>, XRayError> {
        self.deliver(id, kind, tsc, rank, snapshot_generation, Some(sample_seq))
    }

    /// The one per-event body: slot → guard → object → patched / stale →
    /// trampoline fault → (sampling) → counters → handler. `sample_seq`
    /// is a constant at both call sites, so inlining leaves each public
    /// entry point exactly the branches it needs. `Ok(None)` is a
    /// sampled skip and cannot occur without a sequence number.
    #[inline]
    fn deliver(
        &self,
        id: PackedId,
        kind: EventKind,
        tsc: u64,
        rank: u32,
        snapshot_generation: u64,
        sample_seq: Option<u64>,
    ) -> Result<Option<u64>, XRayError> {
        let slot = self.slots.slot_for(rank);
        let guard = DispatchGuard::enter(&self.table, slot);
        let table = guard.table();
        let obj = table
            .object(id.object())
            .ok_or(XRayError::UnknownObject(id.object()))?;
        let fidx = id.function() as usize;
        let patched = obj.patched.get(fidx).copied().unwrap_or(false);
        let stale = if patched {
            false
        } else {
            let unpatched_at = obj.unpatch_gen.get(fidx).copied().unwrap_or(0);
            if unpatched_at > snapshot_generation {
                true
            } else {
                return Err(XRayError::NotPatched(id));
            }
        };
        if let Some(fault) = obj.fault {
            return Err(XRayError::Fault(fault));
        }
        if let Some(seq) = sample_seq {
            let rate = obj.rate.get(fidx).copied().unwrap_or(1).max(1);
            if !seq.is_multiple_of(rate as u64) {
                slot.sampled_skips.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
        }
        slot.dispatches.fetch_add(1, Ordering::Relaxed);
        if stale {
            slot.stale_dispatches.fetch_add(1, Ordering::Relaxed);
        }
        let Some(handler) = table.handler.as_ref() else {
            return Ok(Some(0)); // patched but no handler installed: sled jumps, returns
        };
        let event = Event {
            id,
            kind,
            tsc,
            rank,
        };
        Ok(Some(handler.on_event(event)))
    }
}

#[cfg(test)]
mod tests;

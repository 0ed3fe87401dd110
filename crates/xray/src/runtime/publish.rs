//! Publication and its read side: the copy-on-write table publish every
//! mutator ends in, the guard-based views over the published table
//! (patch state, rates, snapshots, the post-mortem summary), and the
//! fold of the reader slots' counters into stats and telemetry.

use super::{Inner, RuntimeStats, XRayRuntime};
use crate::dispatch::{DispatchGuard, DispatchTable, ObjectDispatch};
use crate::packed_id::PackedId;
use capi_obs::{CounterId, HistogramId, HistogramKind, RecordKind, Telemetry, CONTROL_RANK};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Telemetry handles registered once per runtime: the shared
/// [`Telemetry`] instance plus the ids of the metrics this crate owns.
/// The dispatch fast path never touches these — its counters live on
/// the runtime's own reader slots and are *folded* into the registry by
/// [`XRayRuntime::sync_telemetry`] at publish/control points, so
/// enabling telemetry costs the hot path nothing.
pub(super) struct ObsHandles {
    pub(super) tel: Telemetry,
    dispatches: CounterId,
    stale: CounterId,
    skips: CounterId,
    publishes: CounterId,
    quiescence_wall: HistogramId,
    publish_wall: HistogramId,
}

impl XRayRuntime {
    /// Installs the run's telemetry instance and registers this crate's
    /// metrics. Set-once: a second call on the same runtime is ignored
    /// (the first instance keeps collecting), so a runtime reused
    /// across adaptive runs reports into its original registry.
    pub fn set_telemetry(&self, tel: Telemetry) {
        let _ = self.obs.set(ObsHandles {
            dispatches: tel.counter("xray.dispatches"),
            stale: tel.counter("xray.stale_dispatches"),
            skips: tel.counter("xray.sampled_skips"),
            publishes: tel.counter("xray.publishes"),
            quiescence_wall: tel.histogram("xray.quiescence_wall_ns", HistogramKind::Wall),
            publish_wall: tel.histogram("xray.publish_wall_ns", HistogramKind::Wall),
            tel,
        });
    }

    /// The telemetry instance installed by [`Self::set_telemetry`].
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.obs.get().map(|h| &h.tel)
    }

    /// Per-rank `[dispatches, stale dispatches, sampled skips]`: every
    /// live reader slot plus the retired totals folded out of recycled
    /// slots — exact across thread exits and slot reuse.
    fn event_totals(&self) -> BTreeMap<u32, [u64; 3]> {
        let mut totals: BTreeMap<u32, [u64; 3]> = BTreeMap::new();
        for slot in self.slots.counter_slots() {
            let t = totals.entry(slot.rank.load(Ordering::Relaxed)).or_default();
            t[0] += slot.dispatches.load(Ordering::Relaxed);
            t[1] += slot.stale_dispatches.load(Ordering::Relaxed);
            t[2] += slot.sampled_skips.load(Ordering::Relaxed);
        }
        for (rank, retired) in self.slots.retired_totals() {
            let t = totals.entry(rank).or_default();
            t[0] += retired.dispatches;
            t[1] += retired.stale_dispatches;
            t[2] += retired.sampled_skips;
        }
        totals
    }

    /// Folds the reader slots' running totals (dispatches, stale
    /// dispatches, sampled skips) into the telemetry registry. Called
    /// after every publish and at run end; cheap enough (a relaxed load
    /// per allocated slot and a store per registry stripe) to call at
    /// any control point.
    ///
    /// The totals are folded onto the registry's fixed stripe set
    /// grouped by rank — so with more distinct ranks than registry
    /// stripes the stored values are exact stripe sums rather than
    /// last-writer-wins.
    pub fn sync_telemetry(&self) {
        let Some(h) = self.obs.get() else { return };
        let totals = self.event_totals();
        for (i, counter) in [h.dispatches, h.stale, h.skips].into_iter().enumerate() {
            h.tel
                .store_folded(counter, totals.iter().map(|(&r, t)| (r, t[i])));
        }
    }

    /// Current statistics; the event counters are the sum over ranks of
    /// what [`Self::sync_telemetry`] folds.
    pub fn stats(&self) -> RuntimeStats {
        let mut s = self.read_inner("stats").stats;
        for t in self.event_totals().values() {
            s.dispatches += t[0];
            s.stale_dispatches += t[1];
            s.sampled_skips += t[2];
        }
        s
    }

    /// Publishes a new dispatch table copy-on-write: only the entries
    /// for the objects in `touched` are rebuilt from the inner state;
    /// every other entry is shared with the previously published table
    /// as an `Arc` (an empty `touched` republishes with all entries
    /// shared — the handler-change path). This makes publish cost
    /// O(touched objects), independent of how many objects are loaded.
    ///
    /// Publication rules: must be called with the `inner` write lock
    /// held (serializing publishers), after the generation bump for the
    /// change being published, and before the lock is released — so
    /// every table pairs a generation with exactly the state it
    /// describes, and dispatchers always observe them together.
    pub(super) fn publish_locked(&self, inner: &mut Inner, touched: &[u8]) {
        let mut objects = inner.current.objects.clone();
        // Registration can grow the object-ID space; the vec never
        // shrinks (deregistration vacates a slot in place).
        objects.resize_with(inner.objects.len(), || None);
        for &oid in touched {
            objects[oid as usize] = inner.objects[oid as usize].as_ref().map(|r| {
                Arc::new(ObjectDispatch {
                    object_id: oid,
                    process_index: r.process_index,
                    patched: r.patched.clone().into_boxed_slice(),
                    unpatch_gen: r.unpatch_gen.clone().into_boxed_slice(),
                    fault: r.trampolines.check_dispatch(r.relocated).err(),
                    fid_by_func: r.inst.sleds.fid_by_func.clone().into_boxed_slice(),
                    rate: r.rate.clone().into_boxed_slice(),
                })
            });
        }
        let table = Arc::new(DispatchTable {
            generation: self.generation(),
            objects,
            handler: inner.handler.clone(),
        });
        inner.current = Arc::clone(&table);
        let publish_start = std::time::Instant::now();
        let quiescence_ns = self.table.publish(table, &self.slots);
        if let Some(h) = self.obs.get() {
            h.tel
                .observe_control(h.publish_wall, publish_start.elapsed().as_nanos() as u64);
            h.tel.observe_control(h.quiescence_wall, quiescence_ns);
            h.tel.add_control(h.publishes, 1);
            self.sync_telemetry();
            if h.tel.recorder_armed() {
                let patched: usize = inner
                    .current
                    .objects
                    .iter()
                    .flatten()
                    .map(|o| o.patched.iter().filter(|&&p| p).count())
                    .sum();
                h.tel.record(
                    CONTROL_RANK,
                    RecordKind::Repatch,
                    "xray.publish",
                    format!(
                        "gen={} touched={} patched={}",
                        inner.current.generation,
                        touched.len(),
                        patched
                    ),
                );
            }
        }
    }

    /// Whether the function's sleds are currently patched.
    pub fn is_patched(&self, id: PackedId) -> bool {
        let guard = DispatchGuard::enter(&self.table, self.slots.control());
        guard
            .table()
            .object(id.object())
            .and_then(|o| o.patched.get(id.function() as usize))
            .copied()
            .unwrap_or(false)
    }

    /// The published sampling rate of a function (1 = full
    /// instrumentation). Guard-based and handler-safe, like
    /// [`Self::is_patched`].
    pub fn sample_rate(&self, id: PackedId) -> u32 {
        let guard = DispatchGuard::enter(&self.table, self.slots.control());
        guard
            .table()
            .object(id.object())
            .and_then(|o| o.rate.get(id.function() as usize))
            .copied()
            .unwrap_or(1)
    }

    /// Takes a consistent snapshot of the patch state for lock-free use
    /// on the executor's hot path. Derived from the published dispatch
    /// table, so it never contends with the write lock and its
    /// generation always matches the patch state it carries.
    pub fn snapshot(&self) -> PatchSnapshot {
        let guard = DispatchGuard::enter(&self.table, self.slots.control());
        let table = guard.table();
        let max_pi = table
            .objects
            .iter()
            .flatten()
            .map(|o| o.process_index + 1)
            .max()
            .unwrap_or(0);
        let mut by_process_index: Vec<Option<ObjectSnapshot>> = vec![None; max_pi];
        for obj in table.objects.iter().flatten() {
            by_process_index[obj.process_index] = Some(ObjectSnapshot {
                object_id: obj.object_id,
                fid_by_func: obj.fid_by_func.to_vec(),
                patched: obj.patched.to_vec(),
                rate: obj.rate.to_vec(),
            });
        }
        PatchSnapshot {
            generation: table.generation,
            by_process_index,
        }
    }

    /// Reference implementation of [`Self::snapshot`] that rebuilds the
    /// snapshot from the full registration/patch state instead of the
    /// incrementally published table — the oracle the copy-on-write
    /// path is checked against (`tests/dispatch_scaling.rs`). Slower
    /// (takes the read lock, clones everything); not for hot paths.
    pub fn snapshot_full_rebuild(&self) -> PatchSnapshot {
        let inner = self.read_inner("snapshot_full_rebuild");
        let max_pi = inner
            .objects
            .iter()
            .flatten()
            .map(|r| r.process_index + 1)
            .max()
            .unwrap_or(0);
        let mut by_process_index: Vec<Option<ObjectSnapshot>> = vec![None; max_pi];
        for (oid, reg) in inner.objects.iter().enumerate() {
            let Some(r) = reg else { continue };
            by_process_index[r.process_index] = Some(ObjectSnapshot {
                object_id: oid as u8,
                fid_by_func: r.inst.sleds.fid_by_func.clone(),
                patched: r.patched.clone(),
                rate: r.rate.clone(),
            });
        }
        // Generation only moves under the write lock, which our read
        // lock excludes — so this pairing is as consistent as the
        // guard-based snapshot's.
        PatchSnapshot {
            generation: self.generation(),
            by_process_index,
        }
    }

    /// The currently published [`DispatchTable`], pinned by its own
    /// `Arc`. Tests use this to assert the copy-on-write sharing
    /// contract (`Arc::ptr_eq` on entries a mutation did not touch);
    /// embedders can use it to inspect the exact table readers see.
    pub fn published_table(&self) -> Arc<DispatchTable> {
        Arc::clone(&self.read_inner("published_table").current)
    }

    /// A compact per-object summary of the currently published dispatch
    /// table — generation plus patched/sampled/faulted counts per live
    /// object — the "what was the dispatch state" section of a
    /// post-mortem dump. Fully deterministic (object-ID order, derived
    /// from the published COW table).
    pub fn dispatch_summary(&self) -> (u64, Vec<ObjectPatchSummary>) {
        let table = self.published_table();
        let mut objects = Vec::new();
        for obj in table.objects.iter().flatten() {
            let patched = obj.patched.iter().filter(|&&p| p).count();
            let sampled = obj
                .patched
                .iter()
                .zip(obj.rate.iter())
                .filter(|&(&p, &r)| p && r > 1)
                .count();
            objects.push(ObjectPatchSummary {
                object_id: obj.object_id,
                functions: obj.patched.len(),
                patched,
                sampled,
                faulted: obj.fault.is_some(),
            });
        }
        (table.generation, objects)
    }
}

/// One object's row in [`XRayRuntime::dispatch_summary`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectPatchSummary {
    /// XRay object ID.
    pub object_id: u8,
    /// Size of the object's function-ID space.
    pub functions: usize,
    /// Functions currently patched.
    pub patched: usize,
    /// Patched functions running at a sampling rate > 1.
    pub sampled: usize,
    /// Whether the published entry carries a trampoline fault (the
    /// object dispatches nothing until repatched).
    pub faulted: bool,
}

/// Patch-state snapshot for the executor's hot path.
#[derive(Clone, Debug)]
pub struct PatchSnapshot {
    /// Runtime generation when the snapshot was taken.
    pub generation: u64,
    /// Indexed by loader object index.
    pub by_process_index: Vec<Option<ObjectSnapshot>>,
}

/// Per-object slice of a [`PatchSnapshot`].
#[derive(Clone, Debug)]
pub struct ObjectSnapshot {
    /// XRay object ID.
    pub object_id: u8,
    /// Function index → XRay function ID.
    pub fid_by_func: Vec<Option<u32>>,
    /// Patch state by function ID.
    pub patched: Vec<bool>,
    /// Sampling rate (1-in-N) by function ID; 1 = full instrumentation.
    pub rate: Vec<u32>,
}

impl PatchSnapshot {
    /// Looks up the packed ID and patch state for a function, by loader
    /// object index and object-local function index.
    #[inline]
    pub fn lookup(&self, process_index: usize, func_index: u32) -> Option<(PackedId, bool)> {
        let obj = self.by_process_index.get(process_index)?.as_ref()?;
        let fid = (*obj.fid_by_func.get(func_index as usize)?)?;
        let packed = PackedId::pack(obj.object_id, fid).ok()?;
        Some((packed, obj.patched[fid as usize]))
    }

    /// The sampling rate recorded for a function (by loader object
    /// index and object-local function index); 1 when unknown.
    #[inline]
    pub fn sample_rate(&self, process_index: usize, func_index: u32) -> u32 {
        let Some(Some(obj)) = self.by_process_index.get(process_index) else {
            return 1;
        };
        let Some(Some(fid)) = obj.fid_by_func.get(func_index as usize) else {
            return 1;
        };
        obj.rate.get(*fid as usize).copied().unwrap_or(1).max(1)
    }
}

//! Measurement-tool adapters: XRay events → Score-P / TALP.
//!
//! Paper §V-C: "The default interface is compatible with GCC's
//! `-finstrument-functions` interface … In addition, DynCaPI directly
//! supports the Score-P and TALP APIs."
//!
//! Both adapters sit between the wait-free dispatch of `capi-xray` and a
//! tool that keeps per-rank state behind one uncontended lock per rank
//! (see `capi_scorep::runtime` and `capi_talp::api`), and add no lock of
//! their own to an event:
//!
//! * what an adapter knows about a packed ID — its runtime address for
//!   Score-P, its name for TALP — is an **immutable dense table**
//!   (`object → fid`) built once in `new`;
//! * the TALP adapter's mutable state is **per rank**: a dense front of
//!   region handles this rank has bound, read and written with relaxed
//!   atomics by that rank alone;
//! * the **shared** region map is behind a lock only a rank's *first
//!   sighting* of a region takes: it registers the region or binds the
//!   handle another rank registered, and either way the rank is charged
//!   [`TalpAdapter::registration_cost_ns`] — each rank on its own first
//!   use, never "whichever thread registered first", so virtual clocks
//!   do not depend on how rank threads interleave.
//!
//! Events the adapters cannot deliver are counted, never silent:
//! [`ScorepAdapter::events_unmapped`] and
//! [`TalpAdapterStats::events_dropped`], together [`AdapterEventLoss`].

use capi_scorep::ScorepRuntime;
use capi_talp::{RegionHandle, Talp, TalpError};
use capi_xray::{Event, EventKind, Handler, PackedId, XRayRuntime};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Immutable dense `object → fid → T` table over the packed IDs an
/// adapter was built with. XRay numbers the functions of an object
/// consecutively, so each object's stretch is as long as its highest
/// function ID.
struct IdTable<T> {
    /// Per object ID: where its stretch of `slots` starts, and how many
    /// function IDs it covers.
    objects: Vec<(usize, u32)>,
    slots: Vec<Option<T>>,
}

impl<T> IdTable<T> {
    fn new(entries: impl IntoIterator<Item = (PackedId, T)>) -> Self {
        let entries: Vec<(PackedId, T)> = entries.into_iter().collect();
        let mut objects: Vec<(usize, u32)> = Vec::new();
        for (id, _) in &entries {
            let o = id.object() as usize;
            if objects.len() <= o {
                objects.resize(o + 1, (0, 0));
            }
            objects[o].1 = objects[o].1.max(id.function() + 1);
        }
        let mut total = 0;
        for (start, len) in &mut objects {
            *start = total;
            total += *len as usize;
        }
        let mut table = Self {
            objects,
            slots: (0..total).map(|_| None).collect(),
        };
        for (id, value) in entries {
            let slot = table.slot(id).expect("sized to cover every entry");
            table.slots[slot] = Some(value);
        }
        table
    }

    /// Index of `id` in `slots` (and in any array laid out like it), if
    /// the table covers the ID.
    #[inline]
    fn slot(&self, id: PackedId) -> Option<usize> {
        let &(start, len) = self.objects.get(id.object() as usize)?;
        (id.function() < len).then(|| start + id.function() as usize)
    }

    #[inline]
    fn get(&self, id: PackedId) -> Option<&T> {
        self.slots[self.slot(id)?].as_ref()
    }
}

/// Events the tool adapters received but could not hand to their tool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdapterEventLoss {
    /// [`ScorepAdapter::events_unmapped`].
    pub scorep_events_unmapped: u64,
    /// [`TalpAdapterStats::events_dropped`].
    pub talp_events_dropped: u64,
}

impl AdapterEventLoss {
    /// The post-mortem dump's `adapters:` line.
    pub fn render(&self) -> String {
        format!(
            "adapters: scorep {} events unmapped, talp {} events dropped",
            self.scorep_events_unmapped, self.talp_events_dropped
        )
    }
}

/// Score-P adapter: forwards events through the *generic* (address
/// based) `__cyg_profile_func_*` interface, exactly like DynCaPI does
/// for Clang builds (§V-C1). Address resolution succeeds for DSO
/// functions only because [`crate::startup()`] performed symbol injection
/// beforehand.
pub struct ScorepAdapter {
    scorep: Arc<ScorepRuntime>,
    /// PackedId → runtime address (what a real sled would pass).
    addr_of: IdTable<u64>,
    events_unmapped: AtomicU64,
}

impl ScorepAdapter {
    /// Creates the adapter, precomputing ID→address from the runtime.
    pub fn new(scorep: Arc<ScorepRuntime>, runtime: &XRayRuntime, ids: &[PackedId]) -> Self {
        let addrs = ids
            .iter()
            .filter_map(|&id| Some((id, runtime.function_address(id)?)));
        Self {
            scorep,
            addr_of: IdTable::new(addrs),
            events_unmapped: AtomicU64::new(0),
        }
    }

    /// The wrapped Score-P runtime.
    pub fn scorep(&self) -> &Arc<ScorepRuntime> {
        &self.scorep
    }

    /// Events for IDs the adapter has no address for — every function
    /// of a DSO `dlopen`ed after the adapter was built, for one. They
    /// cost nothing and reach no profile.
    pub fn events_unmapped(&self) -> u64 {
        self.events_unmapped.load(Ordering::Relaxed)
    }
}

impl Handler for ScorepAdapter {
    fn on_event(&self, event: Event) -> u64 {
        let Some(&addr) = self.addr_of.get(event.id) else {
            // A statistic that publishes nothing: relaxed.
            self.events_unmapped.fetch_add(1, Ordering::Relaxed);
            return 0;
        };
        match event.kind {
            EventKind::Entry => self.scorep.cyg_enter(event.rank, addr, event.tsc),
            EventKind::Exit | EventKind::TailExit => {
                self.scorep.cyg_exit(event.rank, addr, event.tsc)
            }
        }
    }
}

/// Per-region registration state in the TALP adapter's shared map.
#[derive(Clone, Copy, Default)]
enum RegionState {
    /// No registration has succeeded yet.
    #[default]
    Unregistered,
    /// Registered; holds the DLB handle.
    Registered(RegionHandle),
    /// Registration failed permanently (region table refused the name).
    FailedTable,
}

/// One entry of the TALP adapter's shared region map.
#[derive(Clone, Copy, Default)]
struct SharedRegion {
    state: RegionState,
    /// A registration was refused because MPI was not initialized (the
    /// region may have registered since).
    failed_pre_init: bool,
}

/// TALP adapter statistics (feeds the §VI-B(b) report).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TalpAdapterStats {
    /// Regions that failed to register because MPI was not initialized
    /// at first entry (the paper's 15/16,956).
    pub regions_failed_pre_init: u64,
    /// Unique regions whose registration was refused by the region
    /// table (the paper's 24 unique failed entries).
    pub regions_failed_table: u64,
    /// Successfully registered regions.
    pub regions_registered: u64,
    /// Events dropped because their region has no usable handle.
    pub events_dropped: u64,
}

/// A rank's front slot: the region is not bound on this rank yet.
const UNBOUND: u32 = 0;
/// A rank's front slot: no event of this ID will ever be delivered —
/// the ID has no name, or the region table refused the region for good.
const FAILED: u32 = u32::MAX;

/// One rank's private view of the region map, on its own cache lines.
/// Only that rank's events read or write it; the atomics are what lets
/// a `&self` handler do so without a lock, and publish nothing (the
/// handle they hold was produced under the shared map's lock by this
/// same rank), hence relaxed.
#[repr(align(64))]
struct RankFront {
    /// Laid out like the name table's slots: [`UNBOUND`], [`FAILED`], or
    /// the bound region's handle plus one.
    bound: Vec<AtomicU32>,
    events_dropped: AtomicU64,
}

/// TALP adapter: maintains the monitoring-region map and lazily
/// registers regions on first entry (paper §V-C2: "A monitoring region
/// map is maintained … On entry and exit events, the corresponding
/// region information is retrieved and, if necessary, registered in
/// TALP, before the start/stop function is invoked").
pub struct TalpAdapter {
    talp: Arc<Talp>,
    /// fid → name from symbol resolution.
    names: IdTable<Box<str>>,
    fronts: Vec<RankFront>,
    /// The shared region map, laid out like `names`' slots. Taken on a
    /// rank's first sighting of a region only.
    regions: Mutex<Vec<SharedRegion>>,
    /// Virtual per-event cost: map lookup + start/stop accounting.
    pub event_cost_ns: u64,
    /// Extra virtual cost of a rank's first use of a region
    /// (registration or local binding of the shared entry).
    pub registration_cost_ns: u64,
}

impl TalpAdapter {
    /// Creates the adapter with the resolved ID→name map.
    pub fn new(talp: Arc<Talp>, names: HashMap<PackedId, String>) -> Self {
        let names = IdTable::new(names.into_iter().map(|(id, n)| (id, n.into_boxed_str())));
        // Gaps in an object's function IDs never reach the shared map.
        let unbound = |named: &Option<_>| if named.is_some() { UNBOUND } else { FAILED };
        Self {
            fronts: (0..talp.size())
                .map(|_| RankFront {
                    bound: (names.slots.iter())
                        .map(|named| AtomicU32::new(unbound(named)))
                        .collect(),
                    events_dropped: AtomicU64::new(0),
                })
                .collect(),
            regions: Mutex::new(vec![SharedRegion::default(); names.slots.len()]),
            talp,
            names,
            event_cost_ns: 90,
            registration_cost_ns: 500,
        }
    }

    /// The wrapped TALP instance.
    pub fn talp(&self) -> &Arc<Talp> {
        &self.talp
    }

    /// Adapter statistics.
    pub fn stats(&self) -> TalpAdapterStats {
        let mut s = TalpAdapterStats {
            events_dropped: (self.fronts.iter())
                .map(|f| f.events_dropped.load(Ordering::Relaxed))
                .sum(),
            ..Default::default()
        };
        for region in self.regions.lock().iter() {
            s.regions_failed_pre_init += u64::from(region.failed_pre_init);
            match region.state {
                RegionState::Registered(_) => s.regions_registered += 1,
                RegionState::FailedTable => s.regions_failed_table += 1,
                RegionState::Unregistered => {}
            }
        }
        s
    }

    /// The handle to use for `event` and the extra cost of getting it.
    #[inline]
    fn handle_for(&self, event: &Event) -> Option<(RegionHandle, u64)> {
        let slot = self.names.slot(event.id)?;
        let bound = &self.fronts[event.rank as usize].bound[slot];
        match bound.load(Ordering::Relaxed) {
            UNBOUND => self.bind(event.rank, slot, bound),
            FAILED => None,
            h => Some((RegionHandle(h - 1), 0)),
        }
    }

    /// A rank's first sighting of a region: registers it, or binds the
    /// handle another rank registered. Each rank pays the binding cost
    /// on its *own* first use of the region — never "whichever thread
    /// registered first" — so virtual clocks stay deterministic under
    /// real threads.
    fn bind(&self, rank: u32, slot: usize, bound: &AtomicU32) -> Option<(RegionHandle, u64)> {
        #[cfg(test)]
        tests::SHARED_MAP_VISITS.with(|c| c.set(c.get() + 1));
        let mut regions = self.regions.lock();
        let region = &mut regions[slot];
        if matches!(region.state, RegionState::Unregistered) {
            let name = (self.names.slots[slot].as_deref()).expect("nameless slots start FAILED");
            match self.talp.region_register(rank, name) {
                Ok(h) => region.state = RegionState::Registered(h),
                // Not recorded now; may succeed on a later entry.
                Err(TalpError::MpiNotInitialized { .. }) => region.failed_pre_init = true,
                Err(TalpError::RegionTableFull { .. }) => region.state = RegionState::FailedTable,
                Err(_) => {}
            }
        }
        let handle = match region.state {
            RegionState::Registered(h) => h,
            RegionState::FailedTable => {
                bound.store(FAILED, Ordering::Relaxed);
                return None;
            }
            RegionState::Unregistered => return None,
        };
        bound.store(handle.0 + 1, Ordering::Relaxed);
        Some((handle, self.registration_cost_ns))
    }
}

impl Handler for TalpAdapter {
    fn on_event(&self, event: Event) -> u64 {
        let mut cost = self.event_cost_ns;
        let delivered = match self.handle_for(&event) {
            Some((handle, extra)) => {
                cost += extra;
                match event.kind {
                    EventKind::Entry => self.talp.region_start(event.rank, handle, event.tsc),
                    EventKind::Exit | EventKind::TailExit => {
                        self.talp.region_stop(event.rank, handle, event.tsc)
                    }
                }
                .is_ok()
            }
            None => false,
        };
        if !delivered {
            let front = &self.fronts[event.rank as usize];
            front.events_dropped.fetch_add(1, Ordering::Relaxed);
        }
        cost
    }
}

#[cfg(test)]
mod tests;

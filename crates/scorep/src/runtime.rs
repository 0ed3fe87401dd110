//! The Score-P measurement runtime.
//!
//! Reproduces the paper's §V-C1 integration surface:
//!
//! * the generic `-finstrument-functions` interface: events arrive as raw
//!   *addresses* (`__cyg_profile_func_enter/exit`), and Score-P resolves
//!   them to names by scanning the **executable's** symbols — addresses
//!   inside shared objects cannot be resolved and profile as
//!   `UNKNOWN@0x…`;
//! * **symbol injection**: CaPI supplies `(address, name)` pairs for DSO
//!   symbols obtained from `nm` + the process memory map, after which DSO
//!   addresses resolve normally;
//! * **runtime filtering**: probes always fire; the measurement runtime
//!   checks the filter per event and discards excluded regions — paying
//!   the probe + lookup cost anyway (§II-B);
//! * the per-event cost model: cheap base cost, expensive new-call-path
//!   creation (drives the Table II crossover against TALP).
//!
//! # What is per rank and what is shared
//!
//! An event takes **one lock**: its rank's. Behind it sit the rank's
//! call-path [`Profile`], its recorded/filtered counters and two private
//! *fronts* — address → [`RegionId`] and region → filter decision — so a
//! rank that has seen an address before touches nothing another rank
//! writes. The symbol map, the region registry and the filter are
//! **shared** behind a second lock that only a front miss takes (a
//! rank's first sighting of an address, or of a region under a new
//! filter) besides the by-name calls. [`ScorepRuntime::inject_symbols`]
//! and [`ScorepRuntime::set_runtime_filter`] each bump a generation; a
//! rank that finds its copy stale drops the matching front before it
//! looks anything up. [`ScorepRuntime::stats`],
//! [`ScorepRuntime::profile`] and [`ScorepRuntime::merged`] fold the
//! per-rank state when they are called.
//!
//! `first_resolution_ns` is charged to **each rank on its own first
//! sighting** of an address (again after every symbol injection) — never
//! to "whichever thread got there first", so virtual clocks do not
//! depend on how rank threads interleave.

use crate::filter::FilterFile;
use crate::profile::{MergedProfile, Profile, RegionId};
use capi_objmodel::Process;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cost-model constants (virtual ns).
#[derive(Clone, Copy, Debug)]
pub struct ScorepConfig {
    /// Base cost of recording one event on an existing call path.
    pub event_base_ns: u64,
    /// Extra cost when the event creates a new call-path node.
    pub new_callpath_ns: u64,
    /// Per-event cost proportional to the current call-path depth
    /// (cursor maintenance + parent hashing): deep instrumented stacks
    /// make full instrumentation expensive — the Table II Score-P
    /// `xray full` explosion.
    pub depth_cost_ns: u64,
    /// Cost of a runtime-filter check (paid per event when runtime
    /// filtering is active, even for discarded events).
    pub filter_check_ns: u64,
    /// Cost of resolving an address the first time it is seen.
    pub first_resolution_ns: u64,
    /// Fixed measurement-system initialization cost.
    pub init_base_ns: u64,
    /// Per-symbol cost of building the executable's address map at init.
    pub init_per_symbol_ns: u64,
}

impl Default for ScorepConfig {
    fn default() -> Self {
        Self {
            event_base_ns: 150,
            new_callpath_ns: 500,
            depth_cost_ns: 20,
            filter_check_ns: 55,
            first_resolution_ns: 100,
            init_base_ns: 1_200_000, // unwinding tables, config, profile setup
            init_per_symbol_ns: 120,
        }
    }
}

/// Measurement statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScorepStats {
    /// Events recorded into profiles.
    pub events_recorded: u64,
    /// Events discarded by runtime filtering.
    pub events_filtered: u64,
    /// Addresses that could not be resolved to a name.
    pub unresolved_addresses: u64,
    /// Symbols injected by CaPI's symbol-injection mechanism.
    pub injected_symbols: u64,
}

#[derive(Default)]
struct Registry {
    by_name: HashMap<String, RegionId>,
    names: Vec<String>,
}

impl Registry {
    fn id_for(&mut self, name: &str) -> RegionId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = RegionId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }
}

/// Hasher of a rank's address front: one multiply and a rotate. The keys
/// are function addresses of this process, never outside input, so
/// SipHash's protection against crafted collisions buys nothing here.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, addr: u64) {
        self.0 = (self.0 ^ addr).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are the well-mixed ones; the table
        // indexes with the low ones.
        self.0.rotate_left(32)
    }
}

/// Everything an event of one rank reads or writes, behind that rank's
/// lock and on its own cache lines.
#[repr(align(64))]
#[derive(Default)]
struct RankSlot {
    state: Mutex<RankState>,
}

#[derive(Default)]
struct RankState {
    profile: Profile,
    /// [`ScorepRuntime::symbols_gen`] that `addr_front` was filled under.
    symbols_gen: u64,
    /// Address → region as this rank has resolved it (synthetic
    /// `UNKNOWN@0x…` regions included).
    addr_front: HashMap<u64, RegionId, BuildHasherDefault<AddrHasher>>,
    /// [`ScorepRuntime::filter_gen`] that `filter_front` was filled under.
    filter_gen: u64,
    /// Per [`RegionId`]: whether the runtime filter discards the region
    /// (`None` = not asked yet).
    filter_front: Vec<Option<bool>>,
    events_recorded: u64,
    events_filtered: u64,
}

/// What only a front miss, a by-name call or a reader touches.
#[derive(Default)]
struct Shared {
    registry: Registry,
    /// Names resolvable from the executable (built at init) and injected
    /// symbols: address → name.
    addr_names: HashMap<u64, String>,
    /// Address → region, as resolved since the last symbol injection: a
    /// second rank's first sighting neither re-registers the region nor
    /// counts an unresolvable address again.
    resolved: HashMap<u64, RegionId>,
    runtime_filter: Option<FilterFile>,
    unresolved: u64,
    injected: u64,
}

/// The Score-P runtime for one application run.
pub struct ScorepRuntime {
    config: ScorepConfig,
    ranks: Vec<RankSlot>,
    shared: Mutex<Shared>,
    /// Bumped by [`Self::inject_symbols`]: ranks drop their address
    /// fronts (stale negative entries) when it moves.
    symbols_gen: AtomicU64,
    /// Bumped by [`Self::set_runtime_filter`], so non-zero exactly when a
    /// filter is installed: ranks drop their filter decisions when it
    /// moves.
    filter_gen: AtomicU64,
    /// Virtual cost of initialization (charged once by the executor).
    pub init_cost_ns: u64,
}

impl ScorepRuntime {
    /// Creates a runtime for `ranks` ranks, building the executable's
    /// address→name map — and *only* the executable's (the §V-C1
    /// limitation).
    pub fn new(ranks: u32, process: &Process, config: ScorepConfig) -> Self {
        let mut addr_names = HashMap::new();
        let exe = process.object(0).expect("process has an executable");
        for sym in exe.image.symtab.all() {
            addr_names.insert(exe.base + sym.offset, sym.name.clone());
        }
        let init_cost_ns =
            config.init_base_ns + config.init_per_symbol_ns * addr_names.len() as u64;
        Self {
            config,
            ranks: (0..ranks).map(|_| RankSlot::default()).collect(),
            shared: Mutex::new(Shared {
                addr_names,
                ..Shared::default()
            }),
            symbols_gen: AtomicU64::new(0),
            filter_gen: AtomicU64::new(0),
            init_cost_ns,
        }
    }

    /// One rank's state: the single lock an event takes.
    fn rank(&self, rank: u32) -> MutexGuard<'_, RankState> {
        #[cfg(test)]
        tests::LOCKS.with(|c| c.set(c.get() + 1));
        self.ranks[rank as usize].state.lock()
    }

    /// The shared slow-path state. Taken with a rank lock held, never
    /// the other way round.
    fn shared(&self) -> MutexGuard<'_, Shared> {
        #[cfg(test)]
        tests::LOCKS.with(|c| c.set(c.get() + 1));
        self.shared.lock()
    }

    /// Injects `(address, name)` pairs for shared-object symbols — the
    /// symbol-injection mechanism CaPI uses so Score-P can resolve DSO
    /// functions (paper §V-C1).
    pub fn inject_symbols(&self, symbols: impl IntoIterator<Item = (u64, String)>) {
        let mut shared = self.shared();
        for (addr, name) in symbols {
            shared.addr_names.insert(addr, name);
            shared.injected += 1;
        }
        // Drop stale negative entries: here, and (through the
        // generation) in every rank's front. Bumped under the lock, and
        // Release pairs with the Acquire load in `sync_fronts`: a rank
        // that sees the new generation resolves against the new symbols.
        shared.resolved.clear();
        self.symbols_gen.fetch_add(1, Ordering::Release);
    }

    /// Installs a runtime filter (probes stay; events are checked).
    pub fn set_runtime_filter(&self, filter: FilterFile) {
        let mut shared = self.shared();
        shared.runtime_filter = Some(filter);
        // Same pairing as in `inject_symbols`.
        self.filter_gen.fetch_add(1, Ordering::Release);
    }

    /// The name of a region id.
    pub fn region_name(&self, id: RegionId) -> String {
        self.shared().registry.names[id.0 as usize].clone()
    }

    /// Region id for a name (registering it if new).
    pub fn region_for_name(&self, name: &str) -> RegionId {
        self.shared().registry.id_for(name)
    }

    /// Drops whichever of the rank's fronts an injection or a new filter
    /// has outdated. Returns whether a runtime filter is installed.
    fn sync_fronts(&self, st: &mut RankState) -> bool {
        let symbols_gen = self.symbols_gen.load(Ordering::Acquire);
        if st.symbols_gen != symbols_gen {
            st.addr_front.clear();
            st.symbols_gen = symbols_gen;
        }
        let filter_gen = self.filter_gen.load(Ordering::Acquire);
        if st.filter_gen != filter_gen {
            st.filter_front.clear();
            st.filter_gen = filter_gen;
        }
        filter_gen != 0
    }

    /// A rank's first sighting of `addr`: resolves it against the shared
    /// symbol map. Unresolvable addresses are profiled under a synthetic
    /// `UNKNOWN@0x…` region.
    fn resolve_shared(&self, addr: u64) -> RegionId {
        #[cfg(test)]
        tests::SHARED_RESOLUTIONS.with(|c| c.set(c.get() + 1));
        let mut shared = self.shared();
        if let Some(&id) = shared.resolved.get(&addr) {
            return id;
        }
        let shared = &mut *shared;
        let id = match shared.addr_names.get(&addr) {
            Some(name) => shared.registry.id_for(name),
            None => {
                shared.unresolved += 1;
                shared.registry.id_for(&format!("UNKNOWN@{addr:#x}"))
            }
        };
        shared.resolved.insert(addr, id);
        id
    }

    fn filtered_out(&self, st: &mut RankState, id: RegionId) -> bool {
        let i = id.0 as usize;
        if let Some(Some(excluded)) = st.filter_front.get(i) {
            return *excluded;
        }
        let excluded = {
            let shared = self.shared();
            let filter = shared.runtime_filter.as_ref();
            !filter
                .expect("a non-zero filter generation means a filter is installed")
                .is_included(&shared.registry.names[i])
        };
        if st.filter_front.len() <= i {
            st.filter_front.resize(i + 1, None);
        }
        st.filter_front[i] = Some(excluded);
        excluded
    }

    /// `__cyg_profile_func_enter`: address-based entry event. Returns the
    /// virtual cost.
    pub fn cyg_enter(&self, rank: u32, addr: u64, ts: u64) -> u64 {
        self.cyg_event(rank, addr, ts, true)
    }

    /// `__cyg_profile_func_exit`.
    pub fn cyg_exit(&self, rank: u32, addr: u64, ts: u64) -> u64 {
        self.cyg_event(rank, addr, ts, false)
    }

    fn cyg_event(&self, rank: u32, addr: u64, ts: u64, enter: bool) -> u64 {
        let mut st = self.rank(rank);
        let filtering = self.sync_fronts(&mut st);
        let (id, cost) = match st.addr_front.get(&addr) {
            Some(&id) => (id, 0),
            None => {
                let id = self.resolve_shared(addr);
                st.addr_front.insert(addr, id);
                (id, self.config.first_resolution_ns)
            }
        };
        cost + self.record(&mut st, filtering, id, ts, enter)
    }

    /// Name-based entry (used by adapters that already know the name).
    pub fn enter_region(&self, rank: u32, name: &str, ts: u64) -> u64 {
        self.region_event(rank, name, ts, true)
    }

    /// Name-based exit.
    pub fn exit_region(&self, rank: u32, name: &str, ts: u64) -> u64 {
        self.region_event(rank, name, ts, false)
    }

    fn region_event(&self, rank: u32, name: &str, ts: u64, enter: bool) -> u64 {
        let id = self.region_for_name(name);
        let mut st = self.rank(rank);
        let filtering = self.sync_fronts(&mut st);
        self.record(&mut st, filtering, id, ts, enter)
    }

    /// Filters, then records one event into the rank's profile.
    fn record(
        &self,
        st: &mut RankState,
        filtering: bool,
        id: RegionId,
        ts: u64,
        enter: bool,
    ) -> u64 {
        let mut cost = self.config.event_base_ns;
        if filtering {
            cost += self.config.filter_check_ns;
            if self.filtered_out(st, id) {
                st.events_filtered += 1;
                return cost;
            }
        }
        if enter {
            if st.profile.enter(id, ts) {
                cost += self.config.new_callpath_ns;
            }
            cost += self.config.depth_cost_ns * st.profile.depth() as u64;
        } else {
            cost += self.config.depth_cost_ns * st.profile.depth() as u64;
            st.profile.exit(id, ts);
        }
        st.events_recorded += 1;
        cost
    }

    /// Snapshot of one rank's profile.
    pub fn profile(&self, rank: u32) -> Profile {
        self.rank(rank).profile.clone()
    }

    /// Merged per-region totals across all ranks.
    pub fn merged(&self) -> MergedProfile {
        let profiles: Vec<Profile> = (0..self.ranks.len() as u32)
            .map(|r| self.profile(r))
            .collect();
        MergedProfile::merge(&profiles)
    }

    /// Region names, indexed by `RegionId`.
    pub fn region_names(&self) -> Vec<String> {
        self.shared().registry.names.clone()
    }

    /// Measurement statistics.
    pub fn stats(&self) -> ScorepStats {
        let mut stats = {
            let shared = self.shared();
            ScorepStats {
                unresolved_addresses: shared.unresolved,
                injected_symbols: shared.injected,
                ..ScorepStats::default()
            }
        };
        for rank in 0..self.ranks.len() as u32 {
            let st = self.rank(rank);
            stats.events_recorded += st.events_recorded;
            stats.events_filtered += st.events_filtered;
        }
        stats
    }
}

#[cfg(test)]
mod tests;

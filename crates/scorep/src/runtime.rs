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

use crate::filter::FilterFile;
use crate::profile::{MergedProfile, Profile, RegionId};
use capi_objmodel::Process;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
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

/// The Score-P runtime for one application run.
pub struct ScorepRuntime {
    config: ScorepConfig,
    registry: RwLock<Registry>,
    /// address → region id (None = known-unresolvable).
    addr_cache: RwLock<HashMap<u64, Option<RegionId>>>,
    /// Names resolvable from the executable (built at init) and injected
    /// symbols: address → name.
    addr_names: RwLock<HashMap<u64, String>>,
    profiles: Vec<Mutex<Profile>>,
    runtime_filter: RwLock<Option<FilterFile>>,
    /// Regions excluded by the runtime filter (cached decision per id).
    filter_cache: RwLock<HashMap<RegionId, bool>>,
    events_recorded: AtomicU64,
    events_filtered: AtomicU64,
    unresolved: AtomicU64,
    injected: AtomicU64,
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
            registry: RwLock::new(Registry {
                by_name: HashMap::new(),
                names: Vec::new(),
            }),
            addr_cache: RwLock::new(HashMap::new()),
            addr_names: RwLock::new(addr_names),
            profiles: (0..ranks).map(|_| Mutex::new(Profile::new())).collect(),
            runtime_filter: RwLock::new(None),
            filter_cache: RwLock::new(HashMap::new()),
            events_recorded: AtomicU64::new(0),
            events_filtered: AtomicU64::new(0),
            unresolved: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            init_cost_ns,
        }
    }

    /// Injects `(address, name)` pairs for shared-object symbols — the
    /// symbol-injection mechanism CaPI uses so Score-P can resolve DSO
    /// functions (paper §V-C1).
    pub fn inject_symbols(&self, symbols: impl IntoIterator<Item = (u64, String)>) {
        let mut names = self.addr_names.write();
        let mut n = 0;
        for (addr, name) in symbols {
            names.insert(addr, name);
            n += 1;
        }
        self.injected.fetch_add(n, Ordering::Relaxed);
        // Drop stale negative cache entries.
        self.addr_cache.write().clear();
    }

    /// Installs a runtime filter (probes stay; events are checked).
    pub fn set_runtime_filter(&self, filter: FilterFile) {
        *self.runtime_filter.write() = Some(filter);
        self.filter_cache.write().clear();
    }

    /// The name of a region id.
    pub fn region_name(&self, id: RegionId) -> String {
        self.registry.read().names[id.0 as usize].clone()
    }

    /// Region id for a name (registering it if new).
    pub fn region_for_name(&self, name: &str) -> RegionId {
        self.registry.write().id_for(name)
    }

    fn resolve(&self, addr: u64) -> (Option<RegionId>, u64) {
        if let Some(&cached) = self.addr_cache.read().get(&addr) {
            return (cached, 0);
        }
        // First resolution: look up the symbol map.
        let name = self.addr_names.read().get(&addr).cloned();
        let id = match name {
            Some(n) => Some(self.registry.write().id_for(&n)),
            None => {
                self.unresolved.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        self.addr_cache.write().insert(addr, id);
        (id, self.config.first_resolution_ns)
    }

    fn filtered_out(&self, id: RegionId) -> bool {
        let filter = self.runtime_filter.read();
        let Some(filter) = filter.as_ref() else {
            return false;
        };
        if let Some(&dec) = self.filter_cache.read().get(&id) {
            return dec;
        }
        let excluded = !filter.is_included(&self.registry.read().names[id.0 as usize]);
        self.filter_cache.write().insert(id, excluded);
        excluded
    }

    /// `__cyg_profile_func_enter`: address-based entry event. Returns the
    /// virtual cost.
    pub fn cyg_enter(&self, rank: u32, addr: u64, ts: u64) -> u64 {
        let (id, cost) = self.resolve(addr);
        let id = match id {
            Some(id) => id,
            None => {
                // Unresolvable: profiled under a synthetic UNKNOWN region.
                self.registry.write().id_for(&format!("UNKNOWN@{addr:#x}"))
            }
        };
        cost + self.enter_region_id(rank, id, ts)
    }

    /// `__cyg_profile_func_exit`.
    pub fn cyg_exit(&self, rank: u32, addr: u64, ts: u64) -> u64 {
        let (id, cost) = self.resolve(addr);
        let id = match id {
            Some(id) => id,
            None => self.registry.write().id_for(&format!("UNKNOWN@{addr:#x}")),
        };
        cost + self.exit_region_id(rank, id, ts)
    }

    /// Name-based entry (used by adapters that already know the name).
    pub fn enter_region(&self, rank: u32, name: &str, ts: u64) -> u64 {
        let id = self.region_for_name(name);
        self.enter_region_id(rank, id, ts)
    }

    /// Name-based exit.
    pub fn exit_region(&self, rank: u32, name: &str, ts: u64) -> u64 {
        let id = self.region_for_name(name);
        self.exit_region_id(rank, id, ts)
    }

    fn enter_region_id(&self, rank: u32, id: RegionId, ts: u64) -> u64 {
        let mut cost = self.config.event_base_ns;
        if self.runtime_filter.read().is_some() {
            cost += self.config.filter_check_ns;
            if self.filtered_out(id) {
                self.events_filtered.fetch_add(1, Ordering::Relaxed);
                return cost;
            }
        }
        let mut profile = self.profiles[rank as usize].lock();
        let created = profile.enter(id, ts);
        cost += self.config.depth_cost_ns * profile.depth() as u64;
        drop(profile);
        if created {
            cost += self.config.new_callpath_ns;
        }
        self.events_recorded.fetch_add(1, Ordering::Relaxed);
        cost
    }

    fn exit_region_id(&self, rank: u32, id: RegionId, ts: u64) -> u64 {
        let mut cost = self.config.event_base_ns;
        if self.runtime_filter.read().is_some() {
            cost += self.config.filter_check_ns;
            if self.filtered_out(id) {
                self.events_filtered.fetch_add(1, Ordering::Relaxed);
                return cost;
            }
        }
        let mut profile = self.profiles[rank as usize].lock();
        cost += self.config.depth_cost_ns * profile.depth() as u64;
        profile.exit(id, ts);
        drop(profile);
        self.events_recorded.fetch_add(1, Ordering::Relaxed);
        cost
    }

    /// Snapshot of one rank's profile.
    pub fn profile(&self, rank: u32) -> Profile {
        self.profiles[rank as usize].lock().clone()
    }

    /// Merged per-region totals across all ranks.
    pub fn merged(&self) -> MergedProfile {
        let profiles: Vec<Profile> = self.profiles.iter().map(|p| p.lock().clone()).collect();
        MergedProfile::merge(&profiles)
    }

    /// Region names, indexed by `RegionId`.
    pub fn region_names(&self) -> Vec<String> {
        self.registry.read().names.clone()
    }

    /// Measurement statistics.
    pub fn stats(&self) -> ScorepStats {
        ScorepStats {
            events_recorded: self.events_recorded.load(Ordering::Relaxed),
            events_filtered: self.events_filtered.load(Ordering::Relaxed),
            unresolved_addresses: self.unresolved.load(Ordering::Relaxed),
            injected_symbols: self.injected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterFile;
    use capi_appmodel::{LinkTarget, ProgramBuilder};
    use capi_objmodel::{compile, CompileOptions};

    fn process() -> Process {
        let mut b = ProgramBuilder::new("app");
        b.unit("m.cc", LinkTarget::Executable);
        b.function("main")
            .main()
            .statements(50)
            .instructions(300)
            .calls("kernel", 1)
            .calls("dso_fn", 1)
            .finish();
        b.function("kernel")
            .statements(60)
            .instructions(400)
            .finish();
        b.unit("d.cc", LinkTarget::Dso("libd.so".into()));
        b.function("dso_fn")
            .statements(60)
            .instructions(400)
            .finish();
        let p = b.build().unwrap();
        Process::launch_binary(&compile(&p, &CompileOptions::o2()).unwrap()).unwrap()
    }

    #[test]
    fn exe_addresses_resolve_dso_addresses_do_not() {
        let proc = process();
        let rt = ScorepRuntime::new(1, &proc, ScorepConfig::default());
        let main_addr = proc.resolve("main").unwrap().addr;
        let dso_addr = proc.resolve("dso_fn").unwrap().addr;
        rt.cyg_enter(0, main_addr, 0);
        rt.cyg_enter(0, dso_addr, 10);
        rt.cyg_exit(0, dso_addr, 20);
        rt.cyg_exit(0, main_addr, 30);
        assert_eq!(rt.stats().unresolved_addresses, 1);
        let names = rt.region_names();
        assert!(names.iter().any(|n| n == "main"));
        assert!(names.iter().any(|n| n.starts_with("UNKNOWN@0x")));
    }

    #[test]
    fn symbol_injection_fixes_dso_resolution() {
        let proc = process();
        let rt = ScorepRuntime::new(1, &proc, ScorepConfig::default());
        let dso = proc.object(1).unwrap();
        rt.inject_symbols(
            dso.image
                .symtab
                .all()
                .iter()
                .map(|s| (dso.base + s.offset, s.name.clone())),
        );
        let dso_addr = proc.resolve("dso_fn").unwrap().addr;
        rt.cyg_enter(0, dso_addr, 0);
        rt.cyg_exit(0, dso_addr, 5);
        assert_eq!(rt.stats().unresolved_addresses, 0);
        assert!(rt.region_names().iter().any(|n| n == "dso_fn"));
        assert!(rt.stats().injected_symbols >= 1);
    }

    #[test]
    fn new_callpath_costs_more_than_revisit() {
        let proc = process();
        let rt = ScorepRuntime::new(1, &proc, ScorepConfig::default());
        let first = rt.enter_region(0, "kernel", 0);
        rt.exit_region(0, "kernel", 10);
        let second = rt.enter_region(0, "kernel", 20);
        assert!(first > second);
        assert_eq!(first - second, ScorepConfig::default().new_callpath_ns);
    }

    #[test]
    fn runtime_filtering_discards_but_charges() {
        let proc = process();
        let rt = ScorepRuntime::new(1, &proc, ScorepConfig::default());
        rt.set_runtime_filter(FilterFile::include_only(["kernel"]));
        let cost_kept = rt.enter_region(0, "kernel", 0);
        rt.exit_region(0, "kernel", 5);
        let cost_dropped = rt.enter_region(0, "noise", 10);
        assert!(cost_dropped > 0, "filtered events still cost");
        assert!(cost_kept > cost_dropped);
        let stats = rt.stats();
        assert_eq!(stats.events_filtered, 1);
        assert_eq!(stats.events_recorded, 2);
        // The filtered region never appears in the profile.
        let merged = rt.merged();
        let noise_id = rt.region_for_name("noise");
        assert!(!merged.per_region.contains_key(&noise_id));
    }

    #[test]
    fn profiles_are_per_rank_and_merge() {
        let proc = process();
        let rt = ScorepRuntime::new(2, &proc, ScorepConfig::default());
        rt.enter_region(0, "kernel", 0);
        rt.exit_region(0, "kernel", 100);
        rt.enter_region(1, "kernel", 0);
        rt.exit_region(1, "kernel", 50);
        let merged = rt.merged();
        let id = rt.region_for_name("kernel");
        let t = merged.per_region[&id];
        assert_eq!(t.visits, 2);
        assert_eq!(t.inclusive_ns, 150);
    }

    #[test]
    fn init_cost_scales_with_symbols() {
        let proc = process();
        let cfg = ScorepConfig::default();
        let rt = ScorepRuntime::new(1, &proc, cfg);
        assert!(rt.init_cost_ns > cfg.init_base_ns);
    }
}

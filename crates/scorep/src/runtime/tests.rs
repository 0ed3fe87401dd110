use super::*;
use crate::filter::FilterFile;
use capi_appmodel::{LinkTarget, ProgramBuilder};
use capi_objmodel::{compile, CompileOptions};
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Barrier;

thread_local! {
    /// Locks [`ScorepRuntime`] took on this thread (rank or shared): the
    /// work-count tests assert one per event plus the slow paths.
    pub(super) static LOCKS: Cell<u64> = const { Cell::new(0) };
    /// [`ScorepRuntime::resolve_shared`] calls made on this thread.
    pub(super) static SHARED_RESOLUTIONS: Cell<u64> = const { Cell::new(0) };
}

fn reset_counters() {
    LOCKS.with(|c| c.set(0));
    SHARED_RESOLUTIONS.with(|c| c.set(0));
}

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

fn dso_symbols(proc: &Process) -> Vec<(u64, String)> {
    let dso = proc.object(1).unwrap();
    dso.image
        .symtab
        .all()
        .iter()
        .map(|s| (dso.base + s.offset, s.name.clone()))
        .collect()
}

/// The straight-line runtime the fronts are checked against, kept as
/// the definition of the semantics: every event walks the maps, one
/// thread, no locks. An address costs `first_resolution_ns` on each
/// rank's own first sighting since the last symbol injection.
struct Reference {
    config: ScorepConfig,
    registry: Registry,
    addr_names: HashMap<u64, String>,
    addr_cache: HashMap<u64, Option<RegionId>>,
    sighted: HashSet<(u32, u64)>,
    profiles: Vec<Profile>,
    runtime_filter: Option<FilterFile>,
    filter_cache: HashMap<RegionId, bool>,
    stats: ScorepStats,
}

impl Reference {
    fn new(ranks: u32, process: &Process, config: ScorepConfig) -> Self {
        let exe = process.object(0).unwrap();
        Self {
            config,
            registry: Registry::default(),
            addr_names: (exe.image.symtab.all().iter())
                .map(|sym| (exe.base + sym.offset, sym.name.clone()))
                .collect(),
            addr_cache: HashMap::new(),
            sighted: HashSet::new(),
            profiles: (0..ranks).map(|_| Profile::new()).collect(),
            runtime_filter: None,
            filter_cache: HashMap::new(),
            stats: ScorepStats::default(),
        }
    }

    fn inject_symbols(&mut self, symbols: impl IntoIterator<Item = (u64, String)>) {
        for (addr, name) in symbols {
            self.addr_names.insert(addr, name);
            self.stats.injected_symbols += 1;
        }
        self.addr_cache.clear();
        self.sighted.clear();
    }

    fn set_runtime_filter(&mut self, filter: FilterFile) {
        self.runtime_filter = Some(filter);
        self.filter_cache.clear();
    }

    fn resolve(&mut self, rank: u32, addr: u64) -> (Option<RegionId>, u64) {
        let cost = if self.sighted.insert((rank, addr)) {
            self.config.first_resolution_ns
        } else {
            0
        };
        if let Some(&cached) = self.addr_cache.get(&addr) {
            return (cached, cost);
        }
        let id = match self.addr_names.get(&addr).cloned() {
            Some(n) => Some(self.registry.id_for(&n)),
            None => {
                self.stats.unresolved_addresses += 1;
                None
            }
        };
        self.addr_cache.insert(addr, id);
        (id, cost)
    }

    fn filtered_out(&mut self, id: RegionId) -> bool {
        let Some(filter) = &self.runtime_filter else {
            return false;
        };
        if let Some(&dec) = self.filter_cache.get(&id) {
            return dec;
        }
        let excluded = !filter.is_included(&self.registry.names[id.0 as usize]);
        self.filter_cache.insert(id, excluded);
        excluded
    }

    fn cyg_event(&mut self, rank: u32, addr: u64, ts: u64, enter: bool) -> u64 {
        let (id, cost) = self.resolve(rank, addr);
        let id = match id {
            Some(id) => id,
            None => self.registry.id_for(&format!("UNKNOWN@{addr:#x}")),
        };
        cost + self.region_id_event(rank, id, ts, enter)
    }

    fn region_event(&mut self, rank: u32, name: &str, ts: u64, enter: bool) -> u64 {
        let id = self.registry.id_for(name);
        self.region_id_event(rank, id, ts, enter)
    }

    fn region_id_event(&mut self, rank: u32, id: RegionId, ts: u64, enter: bool) -> u64 {
        let mut cost = self.config.event_base_ns;
        if self.runtime_filter.is_some() {
            cost += self.config.filter_check_ns;
            if self.filtered_out(id) {
                self.stats.events_filtered += 1;
                return cost;
            }
        }
        let profile = &mut self.profiles[rank as usize];
        if enter {
            let created = profile.enter(id, ts);
            cost += self.config.depth_cost_ns * profile.depth() as u64;
            if created {
                cost += self.config.new_callpath_ns;
            }
        } else {
            cost += self.config.depth_cost_ns * profile.depth() as u64;
            profile.exit(id, ts);
        }
        self.stats.events_recorded += 1;
        cost
    }
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
    rt.inject_symbols(dso_symbols(&proc));
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

/// The rule that makes virtual clocks independent of how rank threads
/// interleave: whichever rank comes first, both pay `first_resolution_ns`
/// for an address exactly once (and once more after an injection).
#[test]
fn each_rank_pays_first_resolution_on_its_own_first_sighting() {
    let proc = process();
    let cfg = ScorepConfig::default();
    let addr = proc.resolve("kernel").unwrap().addr;
    for order in [[0u32, 1], [1, 0]] {
        let rt = ScorepRuntime::new(2, &proc, cfg);
        // Cost of an enter/exit pair at depth 0→1→0 without resolution.
        let revisit = cfg.event_base_ns * 2 + cfg.depth_cost_ns * 2;
        for rank in order {
            let first = rt.cyg_enter(rank, addr, 0) + rt.cyg_exit(rank, addr, 10);
            assert_eq!(
                first,
                revisit + cfg.new_callpath_ns + cfg.first_resolution_ns,
                "rank {rank} in order {order:?}"
            );
        }
        for rank in order {
            let again = rt.cyg_enter(rank, addr, 20) + rt.cyg_exit(rank, addr, 30);
            assert_eq!(again, revisit, "rank {rank} pays once");
        }
        rt.inject_symbols(dso_symbols(&proc));
        for rank in order {
            let after = rt.cyg_enter(rank, addr, 40) + rt.cyg_exit(rank, addr, 50);
            assert_eq!(after, revisit + cfg.first_resolution_ns);
        }
        assert_eq!(rt.region_names(), ["kernel"]);
    }
}

/// One step of a generated stream.
#[derive(Clone, Copy, Debug)]
enum Op {
    Cyg { rank: u32, addr: usize, enter: bool },
    Named { rank: u32, name: usize, enter: bool },
    Inject,
    Filter(usize),
}

const NAMES: [&str; 4] = ["kernel", "main", "user_region", "dso_fn"];

fn filters() -> [FilterFile; 3] {
    let mut wild = FilterFile::new();
    wild.exclude(crate::Pattern::new("UNKNOWN@*"));
    wild.exclude(crate::Pattern::new("*_fn"));
    [
        FilterFile::include_only(["kernel", "dso_fn"]),
        wild,
        FilterFile::new(),
    ]
}

fn ops(ranks: u32) -> impl Strategy<Value = Vec<Op>> {
    let op =
        (0u32..24, 0..ranks, 0usize..64, any::<bool>()).prop_map(|(kind, rank, pick, enter)| {
            match kind {
                0 => Op::Inject,
                1 => Op::Filter(pick % 3),
                2..=5 => Op::Named {
                    rank,
                    name: pick % NAMES.len(),
                    enter,
                },
                _ => Op::Cyg {
                    rank,
                    addr: pick % 6,
                    // Mostly balanced streams: an exit follows an enter more
                    // often than not, but neither is guaranteed.
                    enter: enter || pick % 3 == 0,
                },
            }
        });
    proptest::collection::vec(op, 1..200)
}

/// Drives `ops` through the runtime and the reference side by side.
fn check_against_reference(ranks: u32, ops: &[Op]) {
    let proc = process();
    let cfg = ScorepConfig::default();
    let rt = ScorepRuntime::new(ranks, &proc, cfg);
    let mut reference = Reference::new(ranks, &proc, cfg);
    let addrs = [
        proc.resolve("main").unwrap().addr,
        proc.resolve("kernel").unwrap().addr,
        proc.resolve("dso_fn").unwrap().addr, // unknown until injected
        0,
        0xdead_beef,
        u64::MAX,
    ];
    for (ts, op) in ops.iter().enumerate() {
        let ts = ts as u64 * 7;
        match *op {
            Op::Cyg { rank, addr, enter } => {
                let addr = addrs[addr];
                let got = if enter {
                    rt.cyg_enter(rank, addr, ts)
                } else {
                    rt.cyg_exit(rank, addr, ts)
                };
                assert_eq!(got, reference.cyg_event(rank, addr, ts, enter), "{op:?}");
            }
            Op::Named { rank, name, enter } => {
                let name = NAMES[name];
                let got = if enter {
                    rt.enter_region(rank, name, ts)
                } else {
                    rt.exit_region(rank, name, ts)
                };
                assert_eq!(got, reference.region_event(rank, name, ts, enter), "{op:?}");
            }
            Op::Inject => {
                rt.inject_symbols(dso_symbols(&proc));
                reference.inject_symbols(dso_symbols(&proc));
            }
            Op::Filter(which) => {
                rt.set_runtime_filter(filters()[which].clone());
                reference.set_runtime_filter(filters()[which].clone());
            }
        }
    }
    assert_eq!(rt.stats(), reference.stats);
    assert_eq!(rt.region_names(), reference.registry.names);
    let merged = rt.merged();
    let expected = MergedProfile::merge(&reference.profiles);
    assert_eq!(merged.per_region, expected.per_region);
    assert_eq!(merged.total_call_paths, expected.total_call_paths);
    for rank in 0..ranks {
        let (got, want) = (rt.profile(rank), &reference.profiles[rank as usize]);
        assert_eq!(got.depth(), want.depth());
        assert_eq!(got.nodes_created, want.nodes_created);
    }
}

proptest! {
    #[test]
    fn prop_one_rank_equals_reference(ops in ops(1)) {
        check_against_reference(1, &ops);
    }

    #[test]
    fn prop_three_ranks_equal_reference(ops in ops(3)) {
        check_against_reference(3, &ops);
    }
}

/// Work counts, not timings: the event path takes one lock and goes to
/// the shared maps once per (rank, address) and symbol generation.
#[test]
fn a_million_events_resolve_each_address_once_per_rank() {
    const ADDRS: u64 = 40;
    const EVENTS: u64 = 1_000_000;
    let proc = process();
    let rt = ScorepRuntime::new(2, &proc, ScorepConfig::default());
    let base = 0x7000_0000u64;
    rt.inject_symbols((0..ADDRS / 2).map(|i| (base + 16 * i, format!("fn_{i}"))));
    let drive = |events: u64| {
        for i in 0..events / 4 {
            let addr = base + 16 * (i % ADDRS); // the upper half stays unknown
            for rank in 0..2 {
                rt.cyg_enter(rank, addr, i);
                rt.cyg_exit(rank, addr, i + 1);
            }
        }
    };

    reset_counters();
    drive(EVENTS / 2);
    let resolutions = SHARED_RESOLUTIONS.with(Cell::get);
    assert_eq!(resolutions, 2 * ADDRS, "one per rank and address");
    assert_eq!(
        LOCKS.with(Cell::get),
        EVENTS / 2 + resolutions,
        "one lock per event, one more per shared resolution"
    );

    // An injection in the middle costs at most one more round …
    rt.inject_symbols([(base + 16 * (ADDRS - 1), "late_fn".to_string())]);
    drive(EVENTS / 2);
    assert_eq!(SHARED_RESOLUTIONS.with(Cell::get), 4 * ADDRS);
    // … and a filter one decision per rank and region.
    reset_counters();
    rt.set_runtime_filter(FilterFile::include_only(["fn_1", "late_fn"]));
    drive(EVENTS / 2);
    assert_eq!(SHARED_RESOLUTIONS.with(Cell::get), 0);
    assert_eq!(LOCKS.with(Cell::get), 1 + EVENTS / 2 + 2 * ADDRS);

    let stats = rt.stats();
    assert_eq!(
        stats.events_recorded + stats.events_filtered,
        EVENTS * 3 / 2
    );
    assert_eq!(stats.events_recorded, EVENTS + EVENTS / 2 / ADDRS * 2);
    // Unknown addresses are counted once per symbol generation, not
    // once per rank: 20 before the late injection, 19 after.
    assert_eq!(stats.unresolved_addresses, ADDRS - 1);
}

#[test]
fn four_rank_threads_keep_exact_totals() {
    const RANKS: u32 = 4;
    const PAIRS: u64 = 20_000;
    let proc = process();
    let rt = ScorepRuntime::new(RANKS, &proc, ScorepConfig::default());
    let addrs = [
        proc.resolve("main").unwrap().addr,
        proc.resolve("kernel").unwrap().addr,
        proc.resolve("dso_fn").unwrap().addr,
    ];
    // Every thread is inside its loop before the injections start.
    let started = Barrier::new(RANKS as usize + 1);
    std::thread::scope(|s| {
        for rank in 0..RANKS {
            let (rt, started) = (&rt, &started);
            s.spawn(move || {
                started.wait();
                for i in 0..PAIRS {
                    let addr = addrs[(i % 3) as usize];
                    rt.cyg_enter(rank, addr, 2 * i);
                    rt.cyg_exit(rank, addr, 2 * i + 1);
                }
            });
        }
        started.wait();
        for _ in 0..50 {
            rt.inject_symbols(dso_symbols(&proc));
            rt.set_runtime_filter(FilterFile::new());
        }
    });
    let stats = rt.stats();
    assert_eq!(stats.events_recorded, u64::from(RANKS) * PAIRS * 2);
    assert_eq!(stats.events_filtered, 0);
    assert_eq!(stats.injected_symbols, 50 * dso_symbols(&proc).len() as u64);
    let merged = rt.merged();
    let visits: u64 = merged.per_region.values().map(|t| t.visits).sum();
    assert_eq!(visits, u64::from(RANKS) * PAIRS);
    // Whether `dso_fn` was first seen before or after an injection is a
    // race; that every visit landed in one of its two regions is not.
    let names = rt.region_names();
    let dso_visits: u64 = merged
        .per_region
        .iter()
        .filter(|(id, _)| {
            let name = &names[id.0 as usize];
            name == "dso_fn" || name.starts_with("UNKNOWN@")
        })
        .map(|(_, t)| t.visits)
        .sum();
    assert_eq!(dso_visits, u64::from(RANKS) * (PAIRS / 3));
    for rank in 0..RANKS {
        assert_eq!(rt.profile(rank).depth(), 0);
    }
}

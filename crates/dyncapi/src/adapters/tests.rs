use super::*;
use capi_talp::TalpConfig;

fn id(fid: u32) -> PackedId {
    PackedId::pack(0, fid).unwrap()
}

fn event(fid: u32, kind: EventKind, tsc: u64) -> Event {
    Event {
        id: id(fid),
        kind,
        tsc,
        rank: 0,
    }
}

fn talp_ready() -> Arc<Talp> {
    let t = Arc::new(Talp::new(1, TalpConfig::default()));
    use capi_mpisim::PmpiHook;
    t.on_init(0, 0);
    t
}

#[test]
fn talp_adapter_registers_lazily_and_measures() {
    let talp = talp_ready();
    let mut names = HashMap::new();
    names.insert(id(7), "solve".to_string());
    let adapter = TalpAdapter::new(talp.clone(), names);
    let first = adapter.on_event(event(7, EventKind::Entry, 100));
    let _ = adapter.on_event(event(7, EventKind::Exit, 500));
    let second = adapter.on_event(event(7, EventKind::Entry, 600));
    assert!(first > second, "registration charged once");
    let stats = adapter.stats();
    assert_eq!(stats.regions_registered, 1);
    // Region accumulated the measured span.
    let m = talp.all_metrics();
    let solve = m.iter().find(|r| r.name == "solve").unwrap();
    assert_eq!(solve.useful_per_rank[0], 400);
}

#[test]
fn pre_init_entries_are_not_recorded() {
    let talp = Arc::new(Talp::new(1, TalpConfig::default())); // no on_init
    let mut names = HashMap::new();
    names.insert(id(1), "main".to_string());
    let adapter = TalpAdapter::new(talp.clone(), names);
    adapter.on_event(event(1, EventKind::Entry, 0));
    let stats = adapter.stats();
    assert_eq!(stats.regions_failed_pre_init, 1);
    assert_eq!(stats.regions_registered, 0);
    assert!(stats.events_dropped >= 1);
    // After MPI_Init a later entry succeeds.
    use capi_mpisim::PmpiHook;
    talp.on_init(0, 10);
    adapter.on_event(event(1, EventKind::Entry, 20));
    assert_eq!(adapter.stats().regions_registered, 1);
    // The unique pre-init failure remains recorded.
    assert_eq!(adapter.stats().regions_failed_pre_init, 1);
}

#[test]
fn table_full_is_permanent_and_unique() {
    let talp = Arc::new(Talp::new(
        1,
        TalpConfig {
            region_table_capacity: 4,
            probe_limit: 1,
        },
    ));
    use capi_mpisim::PmpiHook;
    talp.on_init(0, 0);
    let mut names = HashMap::new();
    for fid in 0..16 {
        names.insert(id(fid), format!("region_{fid}"));
    }
    let adapter = TalpAdapter::new(talp, names);
    for fid in 0..16 {
        adapter.on_event(event(fid, EventKind::Entry, fid as u64));
        adapter.on_event(event(fid, EventKind::Exit, fid as u64 + 1));
    }
    let stats = adapter.stats();
    assert!(stats.regions_failed_table > 0);
    assert!(stats.regions_registered > 0);
    assert_eq!(stats.regions_registered + stats.regions_failed_table, 16);
}

#[test]
fn events_without_names_are_dropped() {
    let adapter = TalpAdapter::new(talp_ready(), HashMap::new());
    adapter.on_event(event(9, EventKind::Entry, 0));
    assert_eq!(adapter.stats().events_dropped, 1);
}

// ---- differential oracle, work counts, unmapped sleds -------------------

use capi_mpisim::PmpiHook;
use proptest::prelude::*;
use std::cell::Cell;
use std::sync::Barrier;

thread_local! {
    /// [`TalpAdapter::bind`] calls made on this thread: visits to the
    /// shared region map, the only lock the adapter itself ever takes.
    pub(super) static SHARED_MAP_VISITS: Cell<u64> = const { Cell::new(0) };
}

/// Per-region registration state in the reference adapter.
enum RefRegion {
    Unregistered,
    /// The DLB handle plus the ranks that already paid their one-time
    /// binding cost.
    Registered(RegionHandle, Vec<u32>),
    FailedTable,
}

/// The straight-line adapter the per-rank fronts are checked against,
/// kept as the definition of the semantics: one thread, one map every
/// event goes through.
struct ReferenceAdapter {
    talp: Arc<Talp>,
    names: HashMap<PackedId, String>,
    regions: HashMap<PackedId, RefRegion>,
    pre_init_failed: HashMap<PackedId, ()>,
    events_dropped: u64,
    event_cost_ns: u64,
    registration_cost_ns: u64,
}

impl ReferenceAdapter {
    fn new(talp: Arc<Talp>, names: HashMap<PackedId, String>) -> Self {
        Self {
            talp,
            names,
            regions: HashMap::new(),
            pre_init_failed: HashMap::new(),
            events_dropped: 0,
            event_cost_ns: 90,
            registration_cost_ns: 500,
        }
    }

    fn stats(&self) -> TalpAdapterStats {
        let count = |f: fn(&RefRegion) -> bool| self.regions.values().filter(|r| f(r)).count();
        TalpAdapterStats {
            regions_failed_pre_init: self.pre_init_failed.len() as u64,
            regions_failed_table: count(|r| matches!(r, RefRegion::FailedTable)) as u64,
            regions_registered: count(|r| matches!(r, RefRegion::Registered(..))) as u64,
            events_dropped: self.events_dropped,
        }
    }

    fn handle_for(&mut self, event: &Event) -> Option<(RegionHandle, u64)> {
        let state = (self.regions.entry(event.id)).or_insert(RefRegion::Unregistered);
        if let RefRegion::Registered(h, bound) = state {
            let extra = if bound.contains(&event.rank) {
                0
            } else {
                bound.push(event.rank);
                self.registration_cost_ns
            };
            return Some((*h, extra));
        }
        if matches!(state, RefRegion::FailedTable) {
            return None;
        }
        let name = self.names.get(&event.id)?;
        match self.talp.region_register(event.rank, name) {
            Ok(h) => {
                *state = RefRegion::Registered(h, vec![event.rank]);
                Some((h, self.registration_cost_ns))
            }
            Err(TalpError::MpiNotInitialized { .. }) => {
                self.pre_init_failed.insert(event.id, ());
                None
            }
            Err(TalpError::RegionTableFull { .. }) => {
                *state = RefRegion::FailedTable;
                None
            }
            Err(_) => None,
        }
    }

    fn on_event(&mut self, event: Event) -> u64 {
        let mut cost = self.event_cost_ns;
        match self.handle_for(&event) {
            Some((handle, extra)) => {
                cost += extra;
                let r = match event.kind {
                    EventKind::Entry => self.talp.region_start(event.rank, handle, event.tsc),
                    EventKind::Exit | EventKind::TailExit => {
                        self.talp.region_stop(event.rank, handle, event.tsc)
                    }
                };
                if r.is_err() {
                    self.events_dropped += 1;
                }
            }
            None => self.events_dropped += 1,
        }
        cost
    }
}

/// Names for 10 functions of object 0 (fid 3 left out: a gap in the
/// dense table) and 6 of object 2.
fn some_names() -> HashMap<PackedId, String> {
    let main = (0..10).filter(|&fid| fid != 3).map(|fid| (0u8, fid));
    main.chain((0..6).map(|fid| (2u8, fid)))
        .map(|(o, fid)| (PackedId::pack(o, fid).unwrap(), format!("fn_{o}_{fid}")))
        .collect()
}

/// Drives one generated stream through the adapter and the reference,
/// each over its own [`Talp`]. A step is `(kind, rank, pick, enter)`.
fn check_against_reference(ranks: u32, config: TalpConfig, steps: &[(u32, u32, u32, bool)]) {
    let (talp, ref_talp) = (
        Arc::new(Talp::new(ranks, config.clone())),
        Arc::new(Talp::new(ranks, config)),
    );
    let adapter = TalpAdapter::new(talp.clone(), some_names());
    let mut reference = ReferenceAdapter::new(ref_talp.clone(), some_names());
    for (tsc, &(kind, rank, pick, enter)) in steps.iter().enumerate() {
        let tsc = tsc as u64 * 11;
        if kind == 0 {
            // Late MPI_Init: everything before it failed pre-init.
            talp.on_init(rank, tsc);
            ref_talp.on_init(rank, tsc);
            continue;
        }
        // Objects 0 and 2 carry names; object 1, fid 3 of object 0 and
        // fids past the table's end do not.
        let (object, fid) = ((pick % 3) as u8, (pick / 3) % 12);
        let event = Event {
            id: PackedId::pack(object, fid).unwrap(),
            kind: match (enter, pick % 7) {
                (true, _) => EventKind::Entry,
                (false, 0) => EventKind::TailExit,
                (false, _) => EventKind::Exit,
            },
            tsc,
            rank,
        };
        assert_eq!(
            adapter.on_event(event),
            reference.on_event(event),
            "{event:?}"
        );
    }
    assert_eq!(adapter.stats(), reference.stats());
    assert_eq!(talp.stats(), ref_talp.stats());
    assert_eq!(
        format!("{:?}", talp.all_metrics()),
        format!("{:?}", ref_talp.all_metrics())
    );
}

fn steps(ranks: u32) -> impl Strategy<Value = Vec<(u32, u32, u32, bool)>> {
    proptest::collection::vec((0u32..30, 0..ranks, any::<u32>(), any::<bool>()), 1..300)
}

proptest! {
    #[test]
    fn prop_one_rank_equals_reference(steps in steps(1)) {
        check_against_reference(1, TalpConfig::default(), &steps);
    }

    #[test]
    fn prop_three_ranks_equal_reference(steps in steps(3)) {
        check_against_reference(3, TalpConfig::default(), &steps);
    }

    #[test]
    fn prop_crowded_table_equals_reference(steps in steps(2)) {
        let crowded = TalpConfig { region_table_capacity: 8, probe_limit: 2 };
        check_against_reference(2, crowded, &steps);
    }
}

/// Both ranks pay the binding cost once, whichever registers.
#[test]
fn each_rank_pays_the_binding_cost_on_its_own_first_use() {
    for order in [[0u32, 1], [1, 0]] {
        let talp = Arc::new(Talp::new(2, TalpConfig::default()));
        talp.on_init(0, 0);
        talp.on_init(1, 0);
        let adapter = TalpAdapter::new(talp, some_names());
        let on = |rank, kind, tsc| {
            adapter.on_event(Event {
                id: id(7),
                kind,
                tsc,
                rank,
            })
        };
        for rank in order {
            let first = on(rank, EventKind::Entry, 10);
            assert_eq!(first, adapter.event_cost_ns + adapter.registration_cost_ns);
            assert_eq!(on(rank, EventKind::Exit, 20), adapter.event_cost_ns);
            assert_eq!(on(rank, EventKind::Entry, 30), adapter.event_cost_ns);
        }
        assert_eq!(adapter.stats().regions_registered, 1);
    }
}

/// Work counts, not timings: the adapter goes to its shared map once
/// per (rank, region) and takes no lock of its own otherwise.
#[test]
fn a_million_events_visit_the_shared_map_once_per_rank_and_region() {
    const EVENTS: u64 = 1_000_000;
    let names: HashMap<PackedId, String> =
        (0..40).map(|fid| (id(fid), format!("fn_{fid}"))).collect();
    let talp = Arc::new(Talp::new(2, TalpConfig::default()));
    talp.on_init(0, 0);
    talp.on_init(1, 0);
    let adapter = TalpAdapter::new(talp.clone(), names);
    SHARED_MAP_VISITS.with(|c| c.set(0));
    for i in 0..EVENTS / 4 {
        for rank in 0..2 {
            for (kind, tsc) in [(EventKind::Entry, i), (EventKind::Exit, i + 1)] {
                adapter.on_event(Event {
                    id: id((i % 40) as u32),
                    kind,
                    tsc,
                    rank,
                });
            }
        }
    }
    assert_eq!(SHARED_MAP_VISITS.with(Cell::get), 80);
    assert_eq!(adapter.stats().events_dropped, 0);
    assert_eq!(talp.stats().stops, EVENTS / 2);
}

/// fid 3 of object 0 sits inside the dense table but has no name.
#[test]
fn a_gap_in_the_function_ids_never_visits_the_shared_map() {
    let adapter = TalpAdapter::new(talp_ready(), some_names());
    SHARED_MAP_VISITS.with(|c| c.set(0));
    adapter.on_event(event(3, EventKind::Entry, 0));
    assert_eq!(adapter.stats().events_dropped, 1);
    assert_eq!(SHARED_MAP_VISITS.with(Cell::get), 0);
}

#[test]
fn four_rank_threads_keep_exact_totals() {
    const RANKS: u32 = 4;
    const PAIRS: u64 = 20_000;
    let talp = Arc::new(Talp::new(RANKS, TalpConfig::default()));
    let adapter = TalpAdapter::new(talp.clone(), some_names());
    let started = Barrier::new(RANKS as usize);
    std::thread::scope(|s| {
        for rank in 0..RANKS {
            let (talp, adapter, started) = (&talp, &adapter, &started);
            s.spawn(move || {
                started.wait();
                talp.on_init(rank, 0);
                for i in 0..PAIRS {
                    // Every fourth pair hits the nameless fid 3.
                    let id = id((i % 4) as u32);
                    for (kind, tsc) in [(EventKind::Entry, 2 * i), (EventKind::Exit, 2 * i + 1)] {
                        adapter.on_event(Event {
                            id,
                            kind,
                            tsc,
                            rank,
                        });
                    }
                }
            });
        }
    });
    let stats = adapter.stats();
    assert_eq!(stats.regions_registered, 3);
    assert_eq!(stats.events_dropped, u64::from(RANKS) * PAIRS / 4 * 2);
    let delivered = u64::from(RANKS) * PAIRS * 3 / 4;
    // Plus each rank's Global start.
    assert_eq!(talp.stats().starts, delivered + u64::from(RANKS));
    assert_eq!(talp.stats().stops, delivered);
}

/// A sled the Score-P adapter has no address for is counted, costs
/// nothing and reaches no profile.
#[test]
fn scorep_adapter_counts_unmapped_sleds() {
    use capi_appmodel::{LinkTarget, ProgramBuilder};
    let mut b = ProgramBuilder::new("app");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(50)
        .instructions(400)
        .finish();
    let bin = capi_objmodel::compile(&b.build().unwrap(), &capi_objmodel::CompileOptions::o2());
    let session = crate::startup(
        &bin.unwrap(),
        crate::DynCapiConfig {
            tool: crate::ToolChoice::Scorep(Default::default()),
            ranks: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let adapter = session.scorep_adapter.as_ref().unwrap();
    let known = session.runtime.patched_ids()[0];
    let at = |id, kind| Event {
        id,
        kind,
        tsc: 5,
        rank: 0,
    };
    assert!(adapter.on_event(at(known, EventKind::Entry)) > 0);
    assert!(adapter.on_event(at(known, EventKind::Exit)) > 0);
    // Past the object's last function, and an object never registered.
    for unmapped in [
        PackedId::pack(0, 4_000).unwrap(),
        PackedId::pack(9, 0).unwrap(),
    ] {
        assert_eq!(adapter.on_event(at(unmapped, EventKind::Entry)), 0);
    }
    assert_eq!(adapter.events_unmapped(), 2);
    assert_eq!(adapter.scorep().stats().events_recorded, 2);
    assert_eq!(session.adapter_event_loss().scorep_events_unmapped, 2);
}

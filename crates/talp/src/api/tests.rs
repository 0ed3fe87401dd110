use super::*;

fn talp(ranks: u32) -> Talp {
    let t = Talp::new(ranks, TalpConfig::default());
    for r in 0..ranks {
        t.on_init(r, 0);
    }
    t
}

#[test]
fn register_requires_mpi_init() {
    let t = Talp::new(2, TalpConfig::default());
    let err = t.region_register(0, "foo").unwrap_err();
    assert_eq!(err, TalpError::MpiNotInitialized { rank: 0 });
    assert_eq!(t.stats().failed_pre_mpi_init, 1);
    t.on_init(0, 0);
    assert!(t.region_register(0, "foo").is_ok());
}

#[test]
fn start_stop_accumulates_useful_time() {
    let t = talp(1);
    let h = t.region_register(0, "solve").unwrap();
    t.region_start(0, h, 1_000).unwrap();
    t.region_stop(0, h, 4_000).unwrap();
    let m = t.query(h).unwrap();
    assert_eq!(m.useful_per_rank[0], 3_000);
    assert_eq!(m.mpi_per_rank[0], 0);
    assert_eq!(m.enters, 1);
}

#[test]
fn mpi_time_attributed_to_open_regions() {
    let t = talp(1);
    let h = t.region_register(0, "solve").unwrap();
    t.region_start(0, h, 0).unwrap();
    t.pre_mpi(0, &MpiOp::Barrier, 100);
    t.post_mpi(0, &MpiOp::Barrier, 400);
    t.region_stop(0, h, 1_000).unwrap();
    let m = t.query(h).unwrap();
    assert_eq!(m.mpi_per_rank[0], 300);
    assert_eq!(m.useful_per_rank[0], 700);
}

#[test]
fn mpi_outside_region_not_attributed() {
    let t = talp(1);
    let h = t.region_register(0, "solve").unwrap();
    t.pre_mpi(0, &MpiOp::Barrier, 100);
    t.post_mpi(0, &MpiOp::Barrier, 400);
    t.region_start(0, h, 500).unwrap();
    t.region_stop(0, h, 900).unwrap();
    let m = t.query(h).unwrap();
    assert_eq!(m.mpi_per_rank[0], 0);
    assert_eq!(m.useful_per_rank[0], 400);
}

#[test]
fn nested_entries_count_once_for_time() {
    let t = talp(1);
    let h = t.region_register(0, "outer").unwrap();
    t.region_start(0, h, 0).unwrap();
    t.region_start(0, h, 100).unwrap(); // nested same region
    t.region_stop(0, h, 200).unwrap();
    t.region_stop(0, h, 1_000).unwrap();
    let m = t.query(h).unwrap();
    assert_eq!(m.enters, 2);
    assert_eq!(m.useful_per_rank[0], 1_000); // outermost span only
}

#[test]
fn overlapping_regions_both_charged() {
    let t = talp(1);
    let a = t.region_register(0, "a").unwrap();
    let b = t.region_register(0, "b").unwrap();
    t.region_start(0, a, 0).unwrap();
    t.region_start(0, b, 100).unwrap();
    t.pre_mpi(0, &MpiOp::Barrier, 200);
    t.post_mpi(0, &MpiOp::Barrier, 300);
    t.region_stop(0, a, 400).unwrap();
    t.region_stop(0, b, 500).unwrap();
    assert_eq!(t.query(a).unwrap().mpi_per_rank[0], 100);
    assert_eq!(t.query(b).unwrap().mpi_per_rank[0], 100);
}

#[test]
fn stop_without_start_errors() {
    let t = talp(1);
    let h = t.region_register(0, "x").unwrap();
    assert_eq!(t.region_stop(0, h, 10), Err(TalpError::NotOpen(h)));
    assert!(matches!(
        t.region_stop(0, RegionHandle(99), 10),
        Err(TalpError::UnknownHandle(_))
    ));
}

#[test]
fn global_region_opens_at_init_and_closes_at_finalize() {
    let t = talp(2);
    t.pre_mpi(0, &MpiOp::Barrier, 500);
    t.post_mpi(0, &MpiOp::Barrier, 800);
    t.on_finalize(0, 10_000);
    t.on_finalize(1, 10_000);
    let report = t.final_report().unwrap();
    let global = report.iter().find(|m| m.name == "Global").unwrap();
    assert_eq!(global.elapsed_ns, 10_000);
    assert_eq!(global.mpi_per_rank[0], 300);
    assert_eq!(global.mpi_per_rank[1], 0);
}

#[test]
fn load_imbalance_shows_in_pop_metrics() {
    let t = talp(2);
    let h = t.region_register(0, "kernel").unwrap();
    // Rank 0 computes 1000, rank 1 computes 500 then waits in MPI 500.
    t.region_start(0, h, 0).unwrap();
    t.region_stop(0, h, 1_000).unwrap();
    t.region_start(1, h, 0).unwrap();
    t.pre_mpi(1, &MpiOp::Barrier, 500);
    t.post_mpi(1, &MpiOp::Barrier, 1_000);
    t.region_stop(1, h, 1_000).unwrap();
    let m = t.query(h).unwrap();
    assert_eq!(m.useful_per_rank, vec![1_000, 500]);
    assert!((m.pop.load_balance - 0.75).abs() < 1e-9);
    assert!((m.pop.communication_efficiency - 1.0).abs() < 1e-9);
}

#[test]
fn crowded_table_produces_unique_failed_entries() {
    let cfg = TalpConfig {
        region_table_capacity: 64,
        probe_limit: 4,
    };
    let t = Talp::new(1, cfg);
    t.on_init(0, 0);
    let mut failures = 0;
    for i in 0..64 {
        if t.region_register(0, &format!("region_{i}")).is_err() {
            failures += 1;
        }
    }
    assert!(failures > 0);
    assert_eq!(t.stats().unique_failed_entries, failures);
    // Re-registering a failed name does not double-count uniqueness.
    let name = t.failed_region_names()[0].clone();
    let before = t.stats().unique_failed_entries;
    let _ = t.region_register(0, &name);
    assert_eq!(t.stats().unique_failed_entries, before);
}

// ---- differential oracle and work counts -------------------------------

use proptest::prelude::*;
use std::cell::Cell;
use std::sync::Barrier;

thread_local! {
    /// Rank locks [`Talp`] took on this thread.
    pub(super) static RANK_LOCKS: Cell<u64> = const { Cell::new(0) };
    /// Times a rank went to the shared registry for a handle it had no
    /// record for.
    pub(super) static REGISTRY_READS: Cell<u64> = const { Cell::new(0) };
}

/// The straight-line monitor the per-rank one is checked against, kept
/// as the definition of the semantics: one thread, no locks, one record
/// per (region, rank) reached through the region list on every call.
struct Reference {
    size: u32,
    table: ShmemRegionTable,
    regions: Vec<(String, Vec<RankRegion>)>,
    open: Vec<Vec<u32>>,
    mpi_entered_at: Vec<Option<u64>>,
    mpi_initialized: Vec<bool>,
    failed_names: Vec<String>,
    stats: TalpStats,
    global: Option<RegionHandle>,
    finalized_report: Option<Vec<RegionMetrics>>,
    attr_cost_per_region_ns: u64,
    attr_depth_threshold: u64,
}

impl Reference {
    fn new(size: u32, config: TalpConfig) -> Self {
        let like = Talp::new(size, config.clone());
        Self {
            size,
            table: ShmemRegionTable::new(config.region_table_capacity, config.probe_limit),
            regions: Vec::new(),
            open: vec![Vec::new(); size as usize],
            mpi_entered_at: vec![None; size as usize],
            mpi_initialized: vec![false; size as usize],
            failed_names: Vec::new(),
            stats: TalpStats::default(),
            global: None,
            finalized_report: None,
            attr_cost_per_region_ns: like.attr_cost_per_region_ns,
            attr_depth_threshold: like.attr_depth_threshold,
        }
    }

    fn region_register(&mut self, rank: u32, name: &str) -> Result<RegionHandle, TalpError> {
        if !self.mpi_initialized[rank as usize] {
            self.stats.failed_pre_mpi_init += 1;
            return Err(TalpError::MpiNotInitialized { rank });
        }
        match self.table.insert(name) {
            InsertOutcome::Existing(h) => Ok(RegionHandle(h)),
            InsertOutcome::Inserted(h) => {
                assert_eq!(h as usize, self.regions.len(), "handles are dense");
                let per_rank = vec![RankRegion::default(); self.size as usize];
                self.regions.push((name.to_string(), per_rank));
                self.stats.registered += 1;
                Ok(RegionHandle(h))
            }
            InsertOutcome::Failed => {
                if !self.failed_names.iter().any(|n| n == name) {
                    self.failed_names.push(name.to_string());
                    self.stats.unique_failed_entries += 1;
                }
                Err(TalpError::RegionTableFull {
                    name: name.to_string(),
                })
            }
        }
    }

    fn region_start(
        &mut self,
        rank: u32,
        handle: RegionHandle,
        clock: u64,
    ) -> Result<(), TalpError> {
        let (_, per_rank) =
            (self.regions.get_mut(handle.0 as usize)).ok_or(TalpError::UnknownHandle(handle))?;
        let rr = &mut per_rank[rank as usize];
        rr.enters += 1;
        rr.depth += 1;
        if rr.depth == 1 {
            rr.started_at = clock;
            rr.mpi_while_open = 0;
            if rr.first_start.is_none() {
                rr.first_start = Some(clock);
            }
        }
        self.open[rank as usize].push(handle.0);
        self.stats.starts += 1;
        Ok(())
    }

    fn region_stop(
        &mut self,
        rank: u32,
        handle: RegionHandle,
        clock: u64,
    ) -> Result<(), TalpError> {
        let (_, per_rank) =
            (self.regions.get_mut(handle.0 as usize)).ok_or(TalpError::UnknownHandle(handle))?;
        let rr = &mut per_rank[rank as usize];
        if rr.depth == 0 {
            return Err(TalpError::NotOpen(handle));
        }
        rr.depth -= 1;
        if rr.depth == 0 {
            let span = clock.saturating_sub(rr.started_at);
            let mpi = rr.mpi_while_open.min(span);
            rr.span_total += span;
            rr.mpi_total += mpi;
            rr.useful_total += span - mpi;
            rr.last_stop = rr.last_stop.max(clock);
        }
        let open = &mut self.open[rank as usize];
        if let Some(pos) = open.iter().rposition(|&h| h == handle.0) {
            open.remove(pos);
        }
        self.stats.stops += 1;
        Ok(())
    }

    fn all_metrics(&self) -> Vec<RegionMetrics> {
        (self.regions.iter())
            .map(|(name, per_rank)| {
                let useful: Vec<u64> = per_rank.iter().map(|rr| rr.useful_total).collect();
                let elapsed = (per_rank.iter())
                    .filter_map(|rr| Some(rr.last_stop.saturating_sub(rr.first_start?)))
                    .max()
                    .unwrap_or(0);
                RegionMetrics {
                    name: name.clone(),
                    ranks: self.size,
                    enters: per_rank.iter().map(|rr| rr.enters).sum(),
                    elapsed_ns: elapsed,
                    pop: PopMetrics::compute(&useful, elapsed),
                    useful_per_rank: useful,
                    mpi_per_rank: per_rank.iter().map(|rr| rr.mpi_total).collect(),
                }
            })
            .collect()
    }

    fn pre_mpi(&mut self, rank: u32, clock: u64) {
        self.mpi_entered_at[rank as usize] = Some(clock);
    }

    fn post_mpi(&mut self, rank: u32, clock: u64) -> u64 {
        let Some(entered) = self.mpi_entered_at[rank as usize].take() else {
            return 0;
        };
        let spent = clock.saturating_sub(entered);
        if spent == 0 || self.open[rank as usize].is_empty() {
            return 0;
        }
        let mut counted = Vec::new();
        for &h in &self.open[rank as usize] {
            if counted.contains(&h) {
                continue;
            }
            counted.push(h);
            self.regions[h as usize].1[rank as usize].mpi_while_open += spent;
        }
        let n = counted.len() as u64;
        self.attr_cost_per_region_ns * n.saturating_sub(self.attr_depth_threshold)
    }

    fn on_init(&mut self, rank: u32, clock: u64) {
        self.mpi_initialized[rank as usize] = true;
        let handle = match self.global {
            Some(h) => h,
            None => {
                let h = self.region_register(rank, "Global").unwrap();
                self.global = Some(h);
                h
            }
        };
        let _ = self.region_start(rank, handle, clock);
    }

    fn on_finalize(&mut self, rank: u32, clock: u64) {
        let open = self.open[rank as usize].clone();
        for h in open.into_iter().rev() {
            let _ = self.region_stop(rank, RegionHandle(h), clock);
        }
        self.finalized_report = Some(self.all_metrics());
    }
}

fn rendered(metrics: &[RegionMetrics]) -> String {
    format!("{metrics:#?}")
}

/// Drives one generated stream through [`Talp`] and the reference.
/// A step is `(kind, rank, pick, clock advance)`.
fn check_against_reference(ranks: u32, config: TalpConfig, steps: &[(u32, u32, u32, u64)]) {
    let t = Talp::new(ranks, config.clone());
    let mut reference = Reference::new(ranks, config);
    let op = MpiOp::Barrier;
    let mut clock = 0;
    for &(kind, rank, pick, advance) in steps {
        clock += advance;
        // Handles 0..12 are plausible, 99 is never registered.
        let handle = RegionHandle(if pick % 13 == 12 { 99 } else { pick % 13 });
        match kind {
            0 => {
                t.on_init(rank, clock);
                reference.on_init(rank, clock);
            }
            1..=3 => {
                let name = format!("region_{}", pick % 12);
                assert_eq!(
                    t.region_register(rank, &name),
                    reference.region_register(rank, &name)
                );
            }
            4..=9 => assert_eq!(
                t.region_start(rank, handle, clock),
                reference.region_start(rank, handle, clock)
            ),
            10..=15 => assert_eq!(
                t.region_stop(rank, handle, clock),
                reference.region_stop(rank, handle, clock)
            ),
            16 | 17 => {
                t.pre_mpi(rank, &op, clock);
                reference.pre_mpi(rank, clock);
            }
            18 | 19 => assert_eq!(
                t.post_mpi(rank, &op, clock),
                reference.post_mpi(rank, clock)
            ),
            20 => assert_eq!(
                t.query(handle).map(|m| rendered(&[m])).ok(),
                reference
                    .all_metrics()
                    .get(handle.0 as usize)
                    .map(|m| rendered(std::slice::from_ref(m)))
            ),
            _ => {
                t.on_finalize(rank, clock);
                reference.on_finalize(rank, clock);
            }
        }
    }
    assert_eq!(t.stats(), reference.stats);
    assert_eq!(t.failed_region_names(), reference.failed_names);
    assert_eq!(
        rendered(&t.all_metrics()),
        rendered(&reference.all_metrics())
    );
    assert_eq!(
        t.final_report().map(|r| rendered(&r)),
        reference.finalized_report.map(|r| rendered(&r))
    );
    for rank in 0..ranks {
        assert_eq!(t.mpi_ready(rank), reference.mpi_initialized[rank as usize]);
    }
}

fn steps(ranks: u32) -> impl Strategy<Value = Vec<(u32, u32, u32, u64)>> {
    proptest::collection::vec((0u32..22, 0..ranks, any::<u32>(), 0u64..500), 1..250)
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

/// Work counts, not timings: a start or stop takes its rank's lock and
/// nothing else; the registry is read once per rank and growth step.
#[test]
fn a_million_starts_and_stops_take_one_lock_each() {
    const REGIONS: u32 = 40;
    const EVENTS: u64 = 1_000_000;
    let t = talp(2);
    let handles: Vec<RegionHandle> = (0..REGIONS)
        .map(|i| t.region_register(0, &format!("region_{i}")).unwrap())
        .collect();
    RANK_LOCKS.with(|c| c.set(0));
    REGISTRY_READS.with(|c| c.set(0));
    for i in 0..EVENTS / 4 {
        let h = handles[(i % u64::from(REGIONS)) as usize];
        for rank in 0..2 {
            t.region_start(rank, h, i).unwrap();
            t.region_stop(rank, h, i + 1).unwrap();
        }
    }
    assert_eq!(RANK_LOCKS.with(Cell::get), EVENTS);
    assert_eq!(REGISTRY_READS.with(Cell::get), 2, "once per rank");
    let stats = t.stats();
    assert_eq!((stats.starts, stats.stops), (EVENTS / 2 + 2, EVENTS / 2));
}

#[test]
fn four_rank_threads_keep_exact_totals() {
    const RANKS: u32 = 4;
    const PAIRS: u64 = 20_000;
    let t = talp(RANKS);
    let started = Barrier::new(RANKS as usize);
    std::thread::scope(|s| {
        for rank in 0..RANKS {
            let (t, started) = (&t, &started);
            s.spawn(move || {
                started.wait();
                // Every rank registers the same names: whoever comes
                // first inserts, the others find.
                for i in 0..PAIRS {
                    let h = t
                        .region_register(rank, &format!("region_{}", i % 7))
                        .unwrap();
                    t.region_start(rank, h, 2 * i).unwrap();
                    t.region_stop(rank, h, 2 * i + 1).unwrap();
                }
                t.on_finalize(rank, 2 * PAIRS);
            });
        }
    });
    let stats = t.stats();
    assert_eq!(stats.registered, 8);
    assert_eq!(stats.starts, u64::from(RANKS) * (PAIRS + 1));
    assert_eq!(stats.stops, stats.starts);
    let report = t.final_report().unwrap();
    assert_eq!(report.len(), 8);
    assert_eq!(report[0].name, "Global");
    assert_eq!(report[0].elapsed_ns, 2 * PAIRS);
    let enters: u64 = report[1..].iter().map(|m| m.enters).sum();
    assert_eq!(enters, u64::from(RANKS) * PAIRS);
    for m in &report[1..] {
        // One nanosecond per pair, on every rank.
        let per_rank = m.enters / u64::from(RANKS);
        assert_eq!(m.useful_per_rank, vec![per_rank; RANKS as usize]);
    }
}

//! The TALP monitoring-region API and PMPI integration.
//!
//! Mirrors the DLB interface of paper Listing 2:
//!
//! ```c
//! dlb_monitor_t* h = DLB_MonitoringRegionRegister("foo");
//! DLB_MonitoringRegionStart(h);
//! /* measured */
//! DLB_MonitoringRegionStop(h);
//! ```
//!
//! plus TALP's implicit whole-execution "Global" region and the runtime
//! query API that lets the application or an external resource manager
//! read metrics mid-run.
//!
//! # What is per rank and what is shared
//!
//! `region_start`, `region_stop` and the PMPI hooks take **one lock**:
//! their rank's, behind which sit the rank's region records (indexed by
//! handle), its stack of open regions, its MPI entry time and its
//! start/stop counters. The shm table, the registry of region names and
//! the failed names are **shared**; registration touches them, a rank
//! reads the registry once when it first uses a handle beyond its
//! records, and the readers ([`Talp::query`], [`Talp::all_metrics`],
//! [`Talp::stats`]) fold the per-rank state when they are called.

use crate::metrics::{PopMetrics, RegionMetrics};
use crate::shmem::{InsertOutcome, ShmemRegionTable};
use capi_mpisim::{MpiOp, PmpiHook};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Opaque region handle (the `dlb_monitor_t*` equivalent).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RegionHandle(pub u32);

/// TALP errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TalpError {
    /// Region registration before `MPI_Init` (paper §VI-B(b): such
    /// regions are not recorded; "this does not constitute an error but
    /// is a limitation imposed by TALP").
    MpiNotInitialized {
        /// The offending rank.
        rank: u32,
    },
    /// The shared-memory region table rejected the name.
    RegionTableFull {
        /// The region name that could not be stored.
        name: String,
    },
    /// Unknown handle.
    UnknownHandle(RegionHandle),
    /// `stop` on a region that is not open on this rank.
    NotOpen(RegionHandle),
}

impl fmt::Display for TalpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TalpError::MpiNotInitialized { rank } => {
                write!(f, "rank {rank}: regions require MPI to be initialized")
            }
            TalpError::RegionTableFull { name } => {
                write!(f, "region table rejected `{name}`")
            }
            TalpError::UnknownHandle(h) => write!(f, "unknown region handle {h:?}"),
            TalpError::NotOpen(h) => write!(f, "region {h:?} is not open on this rank"),
        }
    }
}

impl std::error::Error for TalpError {}

/// TALP configuration.
#[derive(Clone, Debug)]
pub struct TalpConfig {
    /// Capacity of the shared-memory region table.
    pub region_table_capacity: usize,
    /// Linear-probe budget of the table.
    pub probe_limit: usize,
}

impl Default for TalpConfig {
    fn default() -> Self {
        Self {
            // Sized so that region counts in the thousands (the paper's
            // mpi IC on OpenFOAM) begin to hit probe failures — the
            // observed anomaly at high region counts.
            region_table_capacity: 8_192,
            probe_limit: 48,
        }
    }
}

/// Anomaly/bookkeeping counters (the §VI-B(b) numbers).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TalpStats {
    /// Registrations rejected because MPI was not initialized.
    pub failed_pre_mpi_init: u64,
    /// Distinct region names the shm table refused to store.
    pub unique_failed_entries: u64,
    /// Successful region registrations.
    pub registered: u64,
    /// Total region starts.
    pub starts: u64,
    /// Total region stops.
    pub stops: u64,
}

/// One rank's accounting for one region.
#[derive(Clone, Default)]
struct RankRegion {
    depth: u32,
    started_at: u64,
    mpi_while_open: u64,
    useful_total: u64,
    mpi_total: u64,
    span_total: u64,
    enters: u64,
    first_start: Option<u64>,
    last_stop: u64,
}

/// Everything `region_start` / `region_stop` and the PMPI hooks of one
/// rank read or write, behind that rank's lock and on its own cache
/// lines.
#[repr(align(64))]
#[derive(Default)]
struct RankSlot {
    state: Mutex<RankState>,
}

#[derive(Default)]
struct RankState {
    /// Indexed by handle; grown to the registry's size when the rank
    /// first uses a handle beyond it.
    regions: Vec<RankRegion>,
    /// Handles of the open regions, in start order.
    open: Vec<u32>,
    mpi_entered_at: Option<u64>,
    starts: u64,
    stops: u64,
}

/// The TALP monitor. The [module docs](self) say what is per rank and
/// what is shared.
pub struct Talp {
    size: u32,
    table: ShmemRegionTable,
    /// Region names by handle: the registry. Never locked while a rank
    /// lock is wanted (readers copy what they need first).
    names: RwLock<Vec<String>>,
    ranks: Vec<RankSlot>,
    mpi_initialized: Vec<AtomicBool>,
    failed_names: Mutex<Vec<String>>,
    stats_pre_init: AtomicU64,
    /// Handle of the implicit whole-execution region.
    global: OnceLock<RegionHandle>,
    finalized_report: Mutex<Option<Vec<RegionMetrics>>>,
    /// Virtual cost of attributing one MPI interval to one open region
    /// *beyond* the cache-resident prefix (see
    /// [`Self::attr_depth_threshold`]).
    pub attr_cost_per_region_ns: u64,
    /// Open regions up to this depth are attributed for free (their
    /// records stay cache-resident); deeper stacks pay
    /// `attr_cost_per_region_ns` per extra region per MPI call — the
    /// recurring cost that makes call-path-deep ICs expensive under TALP
    /// (Table II, openfoam mpi).
    pub attr_depth_threshold: u64,
}

impl Talp {
    /// Creates a TALP instance for `size` ranks.
    pub fn new(size: u32, config: TalpConfig) -> Self {
        Self {
            size,
            table: ShmemRegionTable::new(config.region_table_capacity, config.probe_limit),
            names: RwLock::new(Vec::new()),
            ranks: (0..size).map(|_| RankSlot::default()).collect(),
            mpi_initialized: (0..size).map(|_| AtomicBool::new(false)).collect(),
            failed_names: Mutex::new(Vec::new()),
            stats_pre_init: AtomicU64::new(0),
            global: OnceLock::new(),
            finalized_report: Mutex::new(None),
            attr_cost_per_region_ns: 1_800,
            attr_depth_threshold: 4,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// One rank's state: the single lock an event takes.
    fn rank(&self, rank: u32) -> MutexGuard<'_, RankState> {
        #[cfg(test)]
        tests::RANK_LOCKS.with(|c| c.set(c.get() + 1));
        self.ranks[rank as usize].state.lock()
    }

    /// `DLB_MonitoringRegionRegister`: registers (or finds) a region.
    pub fn region_register(&self, rank: u32, name: &str) -> Result<RegionHandle, TalpError> {
        if !self.mpi_initialized[rank as usize].load(Ordering::Acquire) {
            self.stats_pre_init.fetch_add(1, Ordering::Relaxed);
            return Err(TalpError::MpiNotInitialized { rank });
        }
        // Held across the insert, so handles enter the registry in
        // order and a handle a caller holds is always in it.
        let mut names = self.names.write();
        match self.table.insert(name) {
            InsertOutcome::Existing(h) => Ok(RegionHandle(h)),
            InsertOutcome::Inserted(h) => {
                debug_assert_eq!(h as usize, names.len(), "handles are dense");
                names.push(name.to_string());
                Ok(RegionHandle(h))
            }
            InsertOutcome::Failed => {
                let mut failed = self.failed_names.lock();
                if !failed.iter().any(|n| n == name) {
                    failed.push(name.to_string());
                }
                Err(TalpError::RegionTableFull {
                    name: name.to_string(),
                })
            }
        }
    }

    /// The rank's record for `handle`. A handle beyond the rank's records
    /// is checked against the registry once, and the records grown to
    /// cover every region registered by then.
    fn rank_region<'a>(
        &self,
        st: &'a mut RankState,
        handle: RegionHandle,
    ) -> Result<&'a mut RankRegion, TalpError> {
        let h = handle.0 as usize;
        if h >= st.regions.len() {
            #[cfg(test)]
            tests::REGISTRY_READS.with(|c| c.set(c.get() + 1));
            let registered = self.names.read().len();
            if h >= registered {
                return Err(TalpError::UnknownHandle(handle));
            }
            st.regions.resize_with(registered, RankRegion::default);
        }
        Ok(&mut st.regions[h])
    }

    /// `DLB_MonitoringRegionStart`.
    pub fn region_start(
        &self,
        rank: u32,
        handle: RegionHandle,
        clock: u64,
    ) -> Result<(), TalpError> {
        let mut st = self.rank(rank);
        let rr = self.rank_region(&mut st, handle)?;
        rr.enters += 1;
        rr.depth += 1;
        if rr.depth == 1 {
            rr.started_at = clock;
            rr.mpi_while_open = 0;
            if rr.first_start.is_none() {
                rr.first_start = Some(clock);
            }
        }
        st.open.push(handle.0);
        st.starts += 1;
        Ok(())
    }

    /// `DLB_MonitoringRegionStop`.
    pub fn region_stop(
        &self,
        rank: u32,
        handle: RegionHandle,
        clock: u64,
    ) -> Result<(), TalpError> {
        let mut st = self.rank(rank);
        let rr = self.rank_region(&mut st, handle)?;
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
        if let Some(pos) = st.open.iter().rposition(|&h| h == handle.0) {
            st.open.remove(pos);
        }
        st.stops += 1;
        Ok(())
    }

    /// Runtime query (`DLB_TALP_*`): metrics for one region, computable
    /// mid-run (open intervals are excluded).
    pub fn query(&self, handle: RegionHandle) -> Result<RegionMetrics, TalpError> {
        let name = self.names.read().get(handle.0 as usize).cloned();
        let name = name.ok_or(TalpError::UnknownHandle(handle))?;
        let mut metrics = self.metrics_from(handle.0 as usize, vec![name]);
        Ok(metrics.pop().expect("one name, one record"))
    }

    /// Metrics of the regions `first..first + names.len()`: one pass per
    /// rank, one lock each.
    fn metrics_from(&self, first: usize, names: Vec<String>) -> Vec<RegionMetrics> {
        let mut out: Vec<RegionMetrics> = names
            .into_iter()
            .map(|name| RegionMetrics {
                name,
                ranks: self.size,
                enters: 0,
                elapsed_ns: 0,
                useful_per_rank: Vec::with_capacity(self.size as usize),
                mpi_per_rank: Vec::with_capacity(self.size as usize),
                pop: PopMetrics::compute(&[], 0),
            })
            .collect();
        let unused = RankRegion::default();
        for rank in 0..self.size {
            let st = self.rank(rank);
            for (i, m) in out.iter_mut().enumerate() {
                let rr = st.regions.get(first + i).unwrap_or(&unused);
                m.useful_per_rank.push(rr.useful_total);
                m.mpi_per_rank.push(rr.mpi_total);
                m.enters += rr.enters;
                if let Some(first_start) = rr.first_start {
                    m.elapsed_ns = m.elapsed_ns.max(rr.last_stop.saturating_sub(first_start));
                }
            }
        }
        for m in &mut out {
            m.pop = PopMetrics::compute(&m.useful_per_rank, m.elapsed_ns);
        }
        out
    }

    /// Metrics for all registered regions (Global first).
    pub fn all_metrics(&self) -> Vec<RegionMetrics> {
        let names = self.names.read().clone();
        self.metrics_from(0, names)
    }

    /// The report computed at `MPI_Finalize`, if the run finished.
    pub fn final_report(&self) -> Option<Vec<RegionMetrics>> {
        self.finalized_report.lock().clone()
    }

    /// Anomaly counters.
    pub fn stats(&self) -> TalpStats {
        let mut stats = TalpStats {
            failed_pre_mpi_init: self.stats_pre_init.load(Ordering::Relaxed),
            unique_failed_entries: self.failed_names.lock().len() as u64,
            registered: self.names.read().len() as u64,
            ..TalpStats::default()
        };
        for rank in 0..self.size {
            let st = self.rank(rank);
            stats.starts += st.starts;
            stats.stops += st.stops;
        }
        stats
    }

    /// Names the region table refused to store.
    pub fn failed_region_names(&self) -> Vec<String> {
        self.failed_names.lock().clone()
    }

    /// Whether MPI is initialized on `rank` (TALP tracks this via PMPI).
    pub fn mpi_ready(&self, rank: u32) -> bool {
        self.mpi_initialized[rank as usize].load(Ordering::Acquire)
    }
}

impl PmpiHook for Talp {
    fn pre_mpi(&self, rank: u32, _op: &MpiOp, clock: u64) {
        self.rank(rank).mpi_entered_at = Some(clock);
    }

    fn post_mpi(&self, rank: u32, _op: &MpiOp, clock: u64) -> u64 {
        let mut st = self.rank(rank);
        let Some(entered) = st.mpi_entered_at.take() else {
            return 0;
        };
        let spent = clock.saturating_sub(entered);
        if spent == 0 {
            return 0;
        }
        let RankState { open, regions, .. } = &mut *st;
        let mut counted = 0u64;
        for (i, &h) in open.iter().enumerate() {
            // A region may be nested multiple times; attribute once.
            if open[..i].contains(&h) {
                continue;
            }
            counted += 1;
            regions[h as usize].mpi_while_open += spent;
        }
        // Bookkeeping: the first few open-region records stay cache
        // resident and are effectively free; each one beyond that is a
        // scattered record to update on every single MPI call — the
        // recurring cost that makes call-path-deep ICs expensive under
        // TALP (the openfoam-mpi pathology of Table II).
        self.attr_cost_per_region_ns * counted.saturating_sub(self.attr_depth_threshold)
    }

    fn on_init(&self, rank: u32, clock: u64) {
        self.mpi_initialized[rank as usize].store(true, Ordering::Release);
        // Open the implicit Global region.
        let handle = *self.global.get_or_init(|| {
            self.region_register(rank, "Global")
                .expect("global region fits in a fresh table")
        });
        let _ = self.region_start(rank, handle, clock);
    }

    fn on_finalize(&self, rank: u32, clock: u64) {
        // Close everything still open on this rank (Global included).
        let open = self.rank(rank).open.clone();
        for h in open.into_iter().rev() {
            let _ = self.region_stop(rank, RegionHandle(h), clock);
        }
        // Last rank to finalize snapshots the report: the lock is held
        // across the snapshot, so a later finalize never loses to an
        // earlier, staler one.
        let mut report = self.finalized_report.lock();
        *report = Some(self.all_metrics());
    }
}

#[cfg(test)]
mod tests;

//! End-to-end benchmark with per-layer attribution for the CaPI
//! reproduction.
//!
//! Four closed-loop workloads drive the repository through its public
//! functions only. An end-to-end run (`--trace 0`) reports what a user
//! of the system sees — set-up, turnaround, run wall time, event rate,
//! repatch latency, peak memory — with tracing off. A traced run
//! (`--trace 1`) re-drives the same fixtures with a span around every
//! call into a crate and reports where the time goes, layer by layer.
//!
//! All timings are wall clock. The program's virtual-time outputs
//! (event counts, per-epoch decisions, final patch state) are the
//! correctness oracle and never a speed metric. See `README.md`.

pub mod goldens;
pub mod lulesh;
pub mod metrics;
pub mod openfoam;
pub mod repatch;
pub mod report;
pub mod stats;
pub mod trace;

use goldens::{Golden, Goldens};
use metrics::{END_TO_END, PER_LAYER};
use stats::Summary;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Fixture sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the committed baseline was measured at.
    Full,
    /// Small fixtures for the test suite (`--quick`).
    Quick,
}

impl Size {
    /// Key in `goldens.json`.
    pub fn key(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Quick => "quick",
        }
    }
}

/// What one workload run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Workload seed: controller probing (openfoam), operation sequence
    /// (repatch).
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Fixture sizes.
    pub size: Size,
    /// Per-layer run with spans (`--trace 1`) instead of end-to-end.
    pub traced: bool,
}

/// Directory results, traces and scratch profiles are written to.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Hardware threads available to this process.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Refuses to oversubscribe: a workload asking for more busy threads
/// than the box has measures the scheduler, not the program.
pub fn require_threads(workload: &str, threads: u32) -> Result<u32, String> {
    let have = nproc();
    if threads > have {
        return Err(format!(
            "{workload} needs {threads} threads but only {have} are available"
        ));
    }
    Ok(threads)
}

/// splitmix64: the benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Moves `k` random elements of `items` to its front.
    pub fn choose_front<T>(&mut self, items: &mut [T], k: usize) {
        for i in 0..k.min(items.len()) {
            let j = i + self.below(items.len() - i);
            items.swap(i, j);
        }
    }
}

/// FNV-1a over a stream of words, rendered as hex: the fingerprint
/// goldens pin for patch states too large to list.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> String {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

/// Operations and output checks, attempted and failed.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Operations performed plus checks made.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// What failed (first few).
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `n` operations that succeeded (a failing operation aborts
    /// the run instead).
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// Adds another tally to this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Checks observed outputs against a pinned golden, field by field.
    pub fn golden(&mut self, pinned: Option<&Golden>, observed: &Golden, iteration: u32) {
        let Some(g) = pinned else { return };
        self.check(g.events == observed.events, || {
            format!(
                "iteration {iteration}: events {} != golden {}",
                observed.events, g.events
            )
        });
        self.check(g.epochs == observed.epochs, || {
            format!("iteration {iteration}: per-epoch events/active_after differ from golden")
        });
        self.check(
            g.patched == observed.patched && g.fingerprint == observed.fingerprint,
            || {
                format!(
                    "iteration {iteration}: final patch state {}/{} != golden {}/{}",
                    observed.patched, observed.fingerprint, g.patched, g.fingerprint
                )
            },
        );
    }
}

/// One reported metric value.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    /// The value: a median when `n > 1`.
    pub value: f64,
    /// Samples behind it; 0 when the workload does not exercise the
    /// metric's layer.
    pub n: usize,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Highest percentile with at least ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Measured {
    /// Median of timed samples.
    pub fn of(samples: &[f64]) -> Self {
        match stats::summarize(samples) {
            None => Self::absent(),
            Some(Summary { n, median, q1, q3 }) => Self {
                value: median,
                n,
                q1,
                q3,
                tail: stats::highest_percentile(samples),
            },
        }
    }

    /// A value observed once (a count, a ratio of medians).
    pub fn once(value: f64) -> Self {
        Self {
            value,
            n: 1,
            q1: value,
            q3: value,
            tail: None,
        }
    }

    /// The layer did no work in this workload.
    pub fn absent() -> Self {
        Self {
            value: 0.0,
            n: 0,
            q1: 0.0,
            q3: 0.0,
            tail: None,
        }
    }
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, Measured>;

/// What one workload run produced; the workload's runner fills it in.
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// The configuration it ran under.
    pub cfg: RunCfg,
    /// Every metric of the run's kind (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Operations and checks.
    pub checks: Checks,
    /// The outputs observed (what `--bless` pins); `None` on traced
    /// runs, which check against the untraced outputs instead.
    pub observed: Option<Golden>,
    /// Whether a golden was pinned for this size and seed.
    pub golden_pinned: bool,
    /// Busy threads the workload used at most.
    pub threads: u32,
    /// Timed iterations completed.
    pub iterations: u32,
    /// Wall time of the whole run, set-up included.
    pub total_s: f64,
    /// Span recorder of a traced run.
    pub tracer: Option<Tracer>,
}

impl WorkloadResult {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: Measured) {
        self.metrics.insert(name, value);
    }

    /// Records the median of timed samples.
    pub fn set_samples(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, Measured::of(samples));
    }

    /// Records the end-to-end metrics from their samples, and the
    /// process's peak memory as it stands.
    pub fn set_end_to_end(&mut self, samples: EndToEndSamples) -> Result<(), String> {
        self.set_samples("setup_s", &samples.setup_s);
        self.set_samples("turnaround_s", &samples.turnaround_s);
        self.set_samples("run_wall_s", &samples.run_wall_s);
        self.set_samples("events_per_s", &samples.events_per_s);
        self.set_samples("repatch_p50_us", &samples.repatch_p50_us);
        let rss = stats::peak_rss_mib().ok_or("VmHWM is not readable")?;
        self.set("peak_rss_mib", Measured::once(rss));
        Ok(())
    }
}

/// The samples behind a run's end-to-end metrics.
#[derive(Clone, Debug, Default)]
pub struct EndToEndSamples {
    /// Fixture builds, seconds.
    pub setup_s: Vec<f64>,
    /// Spec or IC in hand → patched session ready, seconds.
    pub turnaround_s: Vec<f64>,
    /// Measured runs, seconds.
    pub run_wall_s: Vec<f64>,
    /// Events per second of each measured run.
    pub events_per_s: Vec<f64>,
    /// Median sled-repatch latency of each iteration, µs.
    pub repatch_p50_us: Vec<f64>,
}

/// Runs one workload. An operation that fails aborts with `Err`; an
/// output that is wrong is counted in the result's checks.
pub fn run_workload(name: &str, cfg: RunCfg, goldens: &Goldens) -> Result<WorkloadResult, String> {
    let def = metrics::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let pinned = goldens.get(cfg.size, def.name, cfg.seed);
    let started = Instant::now();
    let mut run = WorkloadResult {
        workload: def.name,
        cfg,
        metrics: Metrics::new(),
        checks: Checks::default(),
        observed: None,
        golden_pinned: pinned.is_some(),
        threads: 1,
        iterations: 0,
        total_s: 0.0,
        tracer: cfg.traced.then(|| Tracer::new(def.name)),
    };
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create {:?}: {e}", out_dir()))?;
    match def.name {
        "openfoam_cold" => openfoam::run(&mut run, pinned, openfoam::Kind::Cold)?,
        "openfoam_warm" => openfoam::run(&mut run, pinned, openfoam::Kind::Warm)?,
        "lulesh_events" => lulesh::run(&mut run, pinned)?,
        "repatch_under_load" => repatch::run(&mut run, pinned)?,
        other => unreachable!("workload `{other}` is in the catalogue but has no runner"),
    }
    // A run reports every metric of its kind; layers it never entered
    // read 0 with no samples.
    let catalogue: &[metrics::MetricDef] = if cfg.traced { &PER_LAYER } else { &END_TO_END };
    for m in catalogue {
        run.metrics.entry(m.name).or_insert_with(Measured::absent);
    }
    debug_assert_eq!(
        run.metrics.len(),
        catalogue.len(),
        "metric not in catalogue"
    );
    run.total_s = started.elapsed().as_secs_f64();
    Ok(run)
}

/// Repeats `iteration` until `seconds` have passed, at least
/// `min_timed` times, after one discarded warm-up. The closure gets the
/// iteration number; 0 is the warm-up.
pub fn timed_loop(
    seconds: f64,
    min_timed: u32,
    mut iteration: impl FnMut(u32) -> Result<(), String>,
) -> Result<u32, String> {
    iteration(0)?;
    let window = Instant::now();
    let mut done = 0u32;
    while done < min_timed || window.elapsed().as_secs_f64() < seconds {
        done += 1;
        iteration(done)?;
    }
    Ok(done)
}

/// Median latency probe of one sled-rewriting `XRayRuntime::repatch` on
/// a live runtime with nothing dispatching: 64 patched functions flip
/// between two halves, 32 unpatched and 32 patched per call. The 64 are
/// evenly spaced over the patched set, so every object takes part in
/// proportion to its size. Returns per-call latencies in µs and leaves
/// the patched set as it found it (a re-patched function's sampling
/// rate is back at 1).
///
/// On large objects the median moves by a few percent with where the
/// heap puts the tables that copy-on-write publication copies. The
/// workloads therefore run the probe on every iteration's session and
/// report the median of the iterations' medians.
pub fn idle_repatch_probe(
    runtime: &capi_xray::XRayRuntime,
    mem: &mut capi_objmodel::AddressSpace,
    calls: usize,
) -> Result<Vec<f64>, String> {
    use capi_xray::PatchDelta;
    let before = runtime.patched_ids();
    let stride = before.len() / 64;
    if stride == 0 {
        return Err(format!(
            "repatch probe needs 64 patched functions, found {}",
            before.len()
        ));
    }
    let churn: Vec<_> = (0..64).map(|i| before[i * stride]).collect();
    // Alternate members go to each half, so both halves span all objects.
    let (mut off, mut on): (Vec<_>, Vec<_>) = (
        churn.iter().step_by(2).copied().collect(),
        churn.iter().skip(1).step_by(2).copied().collect(),
    );
    let apply = |mem: &mut capi_objmodel::AddressSpace, delta: &PatchDelta| {
        runtime
            .repatch(mem, delta)
            .map_err(|e| format!("repatch probe: {e}"))
    };
    apply(
        mem,
        &PatchDelta {
            unpatch: off.clone(),
            ..Default::default()
        },
    )?;
    let mut latencies = Vec::with_capacity(calls);
    for _ in 0..calls {
        let delta = PatchDelta {
            patch: off.clone(),
            unpatch: on.clone(),
            ..Default::default()
        };
        let t = Instant::now();
        let rep = apply(mem, &delta)?;
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
        if rep.sleds_patched == 0 || rep.sleds_unpatched == 0 {
            return Err("repatch probe rewrote no sleds".into());
        }
        std::mem::swap(&mut off, &mut on);
    }
    apply(
        mem,
        &PatchDelta {
            patch: off,
            ..Default::default()
        },
    )?;
    if runtime.patched_ids() != before {
        return Err("repatch probe did not restore the patch state".into());
    }
    Ok(latencies)
}

/// Calls of [`idle_repatch_probe`] per end-to-end iteration.
pub fn probe_calls(size: Size) -> usize {
    match size {
        Size::Full => 500,
        Size::Quick => 100,
    }
}

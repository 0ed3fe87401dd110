//! `lulesh_events`: the paper's Table II "xray full" row — every
//! function of LULESH patched, Score-P attached, millions of events
//! through sled → dispatch → adapter → profile sink.
//!
//! The run uses one rank on purpose: real MPI ranks are separate
//! processes, and two simulated ranks on a 2-vCPU box measure
//! `capi-mpisim`'s collective wake-ups, not the event path (see
//! `README.md`). The traced run (tier T2) is the Table II ladder: the
//! same program with one more layer switched on per rung, each rung
//! minus the one below it, per event.

use crate::goldens::Golden;
use crate::trace::{self, Tracer};
use crate::{
    fingerprint, idle_repatch_probe, nproc, probe_calls, require_threads, stats, timed_loop,
    EndToEndSamples, Measured, Size, WorkloadResult,
};
use capi::Workflow;
use capi_dyncapi::{startup, DynCapiConfig, Session, ToolChoice};
use capi_objmodel::CompileOptions;
use capi_scorep::{FilterFile, ScorepConfig};
use capi_talp::TalpConfig;
use capi_workloads::{lulesh, LuleshParams};
use capi_xray::{PassOptions, PatchDelta, ShardedLog};
use std::sync::Arc;
use std::time::Instant;

const NAME: &str = "lulesh_events";
/// Fixture builds per run; the fixture is small, so many are cheap.
const SETUPS: usize = 15;
/// Startups timed for `turnaround_s`. Startup takes 2 ms, so it is
/// sampled back to back after the timed loop: a startup that follows a
/// 1.5 s run finds cold caches, one that follows another startup warm
/// ones, and a median over a mix of the two does not repeat.
const TURNAROUNDS: usize = 100;
/// Timed iterations a run makes at least.
const MIN_TIMED: u32 = 2;
/// 1-in-N rate of the sampled rung.
const SAMPLED_RATE: u32 = 16;

fn workflow(size: Size) -> Result<Workflow, String> {
    let time_steps = match size {
        Size::Full => 20_000,
        Size::Quick => 2_000,
    };
    let program = lulesh(&LuleshParams {
        time_steps,
        batch_trips: 60,
    });
    Workflow::analyze(program, CompileOptions::o3()).map_err(|e| format!("analyze: {e}"))
}

/// One rung of the Table II ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rung {
    /// Plain build: no sleds.
    Vanilla,
    /// Sleds present, none patched.
    NopSleds,
    /// Everything patched, no handler.
    Dispatch,
    /// Everything patched, Score-P attached: the end-to-end run.
    Scorep,
    /// Everything patched, TALP attached.
    Talp,
    /// Everything patched, events appended to the sharded log.
    ShardedLog,
    /// Score-P attached, every function at 1-in-16.
    Sampled,
    /// The Score-P rung at `nproc` ranks.
    ScorepAllRanks,
}

impl Rung {
    const LADDER: [Rung; 8] = [
        Rung::Vanilla,
        Rung::NopSleds,
        Rung::Dispatch,
        Rung::Scorep,
        Rung::Talp,
        Rung::ShardedLog,
        Rung::Sampled,
        Rung::ScorepAllRanks,
    ];

    fn span(self) -> &'static str {
        match self {
            Rung::Vanilla => "exec.vanilla",
            Rung::NopSleds => "xray.nop_sleds",
            Rung::Dispatch => "xray.dispatch",
            Rung::Scorep => "scorep.adapter",
            Rung::Talp => "talp.adapter",
            Rung::ShardedLog => "xray.sink_sharded_log",
            Rung::Sampled => "xray.sampled",
            Rung::ScorepAllRanks => "mpisim.all_ranks",
        }
    }

    fn ranks(self) -> u32 {
        match self {
            Rung::ScorepAllRanks => nproc(),
            _ => 1,
        }
    }

    /// Starts the rung's session: DynCaPI startup plus whatever the
    /// rung switches on afterwards.
    fn start(self, wf: &Workflow) -> Result<Session, String> {
        let none = || Some(FilterFile::include_only([]));
        let (tool, ic, pass) = match self {
            Rung::Vanilla => (
                ToolChoice::None,
                none(),
                PassOptions {
                    instruction_threshold: u32::MAX,
                    ignore_loops: true,
                    ..PassOptions::default()
                },
            ),
            Rung::NopSleds => (ToolChoice::None, none(), PassOptions::instrument_all()),
            Rung::Dispatch | Rung::ShardedLog => {
                (ToolChoice::None, None, PassOptions::instrument_all())
            }
            Rung::Scorep | Rung::Sampled | Rung::ScorepAllRanks => (
                ToolChoice::Scorep(ScorepConfig::default()),
                None,
                PassOptions::instrument_all(),
            ),
            Rung::Talp => (
                ToolChoice::Talp(TalpConfig::default()),
                None,
                PassOptions::instrument_all(),
            ),
        };
        let mut session = startup(
            &wf.binary,
            DynCapiConfig {
                tool,
                ic,
                pass,
                ranks: self.ranks(),
                ..Default::default()
            },
        )
        .map_err(|e| format!("startup ({self:?}): {e}"))?;
        match self {
            Rung::ShardedLog => session
                .runtime
                .set_handler(Arc::new(ShardedLog::new(self.ranks()))),
            Rung::Sampled => {
                let set_rate = session
                    .runtime
                    .patched_ids()
                    .into_iter()
                    .map(|id| (id, SAMPLED_RATE))
                    .collect();
                session
                    .runtime
                    .repatch(
                        &mut session.process.memory,
                        &PatchDelta {
                            set_rate,
                            ..Default::default()
                        },
                    )
                    .map_err(|e| format!("set rates: {e}"))?;
            }
            _ => {}
        }
        Ok(session)
    }
}

/// What one startup → run produced.
struct IterOut {
    turnaround_s: f64,
    run_wall_s: f64,
    events: u64,
    session: Session,
}

/// One rung, startup → `Session::run`, with a span around each.
fn iteration(wf: &Workflow, rung: Rung, tr: &Tracer) -> Result<IterOut, String> {
    let t = Instant::now();
    let session = tr.span("dyncapi.startup", || rung.start(wf))?;
    let turnaround_s = t.elapsed().as_secs_f64();
    let g = tr.enter("exec.run");
    let t = Instant::now();
    let out = session.run().map_err(|e| format!("run ({rung:?}): {e}"))?;
    let run_wall_s = t.elapsed().as_secs_f64();
    g.count(out.run.events);
    Ok(IterOut {
        turnaround_s,
        run_wall_s,
        events: out.run.events,
        session,
    })
}

fn golden_of(events: u64, session: &Session) -> Golden {
    let patched = session.runtime.patched_ids();
    Golden {
        events,
        epochs: Vec::new(),
        patched: patched.len() as u64,
        fingerprint: fingerprint(patched.iter().map(|id| u64::from(id.raw()))),
    }
}

/// Runs the workload, end to end or traced.
pub fn run(run: &mut WorkloadResult, pinned: Option<&Golden>) -> Result<(), String> {
    if run.cfg.traced {
        traced(run, pinned)
    } else {
        end_to_end(run, pinned)
    }
}

fn end_to_end(run: &mut WorkloadResult, pinned: Option<&Golden>) -> Result<(), String> {
    let cfg = run.cfg;
    run.threads = require_threads(NAME, 1)?;
    let mut samples = EndToEndSamples::default();
    let mut fixture = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        fixture = Some(workflow(cfg.size)?);
        samples.setup_s.push(t.elapsed().as_secs_f64());
    }
    let wf = fixture.expect("SETUPS > 0");
    let tr = Tracer::disabled();

    let calls = probe_calls(cfg.size);
    let mut first: Option<Golden> = None;
    run.iterations = timed_loop(cfg.seconds, MIN_TIMED, |it| {
        let mut out = iteration(&wf, Rung::Scorep, &tr)?;
        run.checks.ops(2 + calls as u64);
        let golden = golden_of(out.events, &out.session);
        run.checks.golden(pinned, &golden, it);
        if let Some(first) = &first {
            run.checks.check(*first == golden, || {
                format!("iteration {it}: outputs differ from iteration 0")
            });
        }
        // The idle repatch probe, on this iteration's session.
        let session = &mut out.session;
        let probe = idle_repatch_probe(&session.runtime, &mut session.process.memory, calls)?;
        if it > 0 {
            samples.run_wall_s.push(out.run_wall_s);
            samples
                .events_per_s
                .push(out.events as f64 / out.run_wall_s);
            samples.repatch_p50_us.extend(stats::median(&probe));
        }
        first.get_or_insert(golden);
        Ok(())
    })?;
    for _ in 0..TURNAROUNDS {
        let t = Instant::now();
        let session = Rung::Scorep.start(&wf)?;
        samples.turnaround_s.push(t.elapsed().as_secs_f64());
        drop(session);
    }
    run.checks.ops(TURNAROUNDS as u64);

    run.observed = first;
    run.set_end_to_end(samples)
}

/// Tier T2: the ladder, one pass per repetition.
fn traced(run: &mut WorkloadResult, pinned: Option<&Golden>) -> Result<(), String> {
    let cfg = run.cfg;
    run.threads = require_threads(NAME, nproc())?;
    let tr = run.tracer.take().expect("traced runs carry a tracer");
    let wf = workflow(cfg.size)?;
    // One pass climbs all eight rungs; a full-size pass takes ~10 s.
    let passes = ((cfg.seconds / 10.0).round() as u32).clamp(1, 3);

    // Untraced reference for the tracing overhead: the end-to-end
    // iteration with a disabled tracer.
    let off = Tracer::disabled();
    let mut plain_total = Vec::new();
    let mut reference = None;
    for it in 0..=passes {
        let out = iteration(&wf, Rung::Scorep, &off)?;
        let golden = golden_of(out.events, &out.session);
        run.checks.ops(2);
        run.checks.golden(pinned, &golden, it);
        if it > 0 {
            plain_total.push(out.turnaround_s + out.run_wall_s);
        }
        reference = Some(golden);
    }
    let reference = reference.expect("at least one reference iteration");

    // (wall seconds, events) per rung and pass.
    let mut walls: Vec<Vec<(f64, u64)>> = vec![Vec::new(); Rung::LADDER.len()];
    for pass in 0..=passes {
        tr.set_iteration(pass);
        let _root = tr.enter("ladder");
        for (i, rung) in Rung::LADDER.into_iter().enumerate() {
            let _g = tr.enter(rung.span());
            let out = iteration(&wf, rung, &tr)?;
            run.checks.ops(2);
            if rung == Rung::Scorep {
                let golden = golden_of(out.events, &out.session);
                run.checks.check(golden == reference, || {
                    format!("ladder pass {pass}: Score-P rung differs from the untraced run")
                });
            }
            if pass > 0 {
                walls[i].push((out.run_wall_s, out.events));
            }
            // The session (and a log sink's memory) is released inside
            // the rung's span.
            drop(out.session);
        }
    }

    let events = reference.events as f64;
    // `LADDER` lists the rungs in declaration order.
    let rung_s =
        |rung: Rung| -> Vec<f64> { walls[rung as usize].iter().map(|&(s, _)| s).collect() };
    // Each rung minus the one below it, per event of the full run,
    // pass by pass.
    let step_ns = |upper: Rung, lower: Rung| -> Vec<f64> {
        rung_s(upper)
            .iter()
            .zip(rung_s(lower))
            .map(|(u, l)| (u - l) * 1e9 / events)
            .collect()
    };
    run.set_samples("exec.vanilla_s", &rung_s(Rung::Vanilla));
    for (metric, upper, lower) in [
        ("xray.nop_sled_ns_per_event", Rung::NopSleds, Rung::Vanilla),
        ("xray.dispatch_ns_per_event", Rung::Dispatch, Rung::NopSleds),
        ("scorep.adapter_ns_per_event", Rung::Scorep, Rung::Dispatch),
        ("talp.adapter_ns_per_event", Rung::Talp, Rung::Dispatch),
        (
            "xray.sink_sharded_log_ns_per_event",
            Rung::ShardedLog,
            Rung::Dispatch,
        ),
        ("xray.sampled_ns_per_event", Rung::Sampled, Rung::NopSleds),
    ] {
        run.set_samples(metric, &step_ns(upper, lower));
    }
    // Events per second at nproc ranks over nproc times the one-rank
    // rate: 1 when ranks do not slow each other down.
    let rate = |rung: Rung| -> Vec<f64> {
        walls[rung as usize]
            .iter()
            .map(|&(s, e)| e as f64 / s)
            .collect()
    };
    let scaling: Vec<f64> = rate(Rung::ScorepAllRanks)
        .iter()
        .zip(rate(Rung::Scorep))
        .map(|(all, one)| all / (f64::from(nproc()) * one))
        .collect();
    run.set_samples("mpisim.rank_scaling_eff", &scaling);

    let spans = tr.spans();
    let ladders: Vec<usize> = trace::roots_named(&spans, "ladder")
        .into_iter()
        .skip(1)
        .collect();
    let ratios: Vec<f64> = ladders
        .iter()
        .map(|&r| trace::layer_sum_ratio(&spans, r))
        .collect();
    run.set_samples("trace.layer_sum_ratio", &ratios);
    // The Score-P rung is the end-to-end iteration with spans on.
    let traced_total: Vec<f64> = ladders
        .iter()
        .map(|&r| trace::totals_below(&spans, r)[Rung::Scorep.span()].ns as f64 / 1e9)
        .collect();
    run.set(
        "trace.overhead_pct",
        Measured::once(
            100.0
                * (stats::median(&traced_total).expect("passes >= 1")
                    / stats::median(&plain_total).expect("passes >= 1")
                    - 1.0),
        ),
    );
    run.iterations = ladders.len() as u32;
    run.tracer = Some(tr);
    Ok(())
}

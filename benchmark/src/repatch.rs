//! `repatch_under_load`: writes beside reads on `capi-xray`.
//!
//! A host process with 16 fully patched DSOs of 256 functions each.
//! Every object's functions are split into a *stable* half, which a
//! reader thread dispatches over through the wait-free
//! `dispatch_from_snapshot`, and a *churn* half, which the writer (the
//! main thread) keeps repatching. The writer cycles through three kinds
//! of operation, each timed:
//!
//! * **A** — a sled delta: unpatch 32 and patch 32 churn functions
//!   across 4 objects (sled rewrites, `mprotect` pairs, table publish,
//!   quiescence wait);
//! * **B** — a rate-only delta on 32 stable functions (publish only);
//! * **C** — a `set_handler` flip.
//!
//! The traced run (tier T3) repeats the sequence with and without the
//! reader, and the reader with and without the writer.

use crate::goldens::Golden;
use crate::trace::{self, Tracer};
use crate::{
    fingerprint, require_threads, stats, timed_loop, Checks, EndToEndSamples, Measured, Rng, Size,
    WorkloadResult,
};
use capi_appmodel::{LinkTarget, ProgramBuilder};
use capi_objmodel::{compile, AddressSpace, Binary, CompileOptions, Process};
use capi_xray::handler::NullHandler;
use capi_xray::{
    instrument_object, EventKind, Handler, PackedId, PassOptions, PatchDelta, TrampolineSet,
    XRayRuntime,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NAME: &str = "repatch_under_load";
const DSOS: usize = 16;
const FUNCS_PER_DSO: usize = 256;
/// Objects one A or B operation touches, and functions per object.
const OBJECTS_PER_OP: usize = 4;
const FUNCS_PER_OBJECT: usize = 8;
/// Sampling rates B operations choose from.
const RATES: [u32; 5] = [1, 2, 4, 8, 16];
/// Fixture builds per run, and runtime starts timed for
/// `turnaround_s`; both take milliseconds.
const SETUPS: usize = 15;
const TURNAROUNDS: usize = 100;
/// Timed iterations a run makes at least; the golden pins the state
/// after this many.
const MIN_TIMED: u32 = 3;

/// A/B/C cycles per iteration.
fn cycles_per_iteration(size: Size) -> usize {
    match size {
        Size::Full => 50_000,
        Size::Quick => 2_000,
    }
}

/// Builds like `capi_bench::repatch_fixture`: a host executable that
/// calls into every DSO once.
fn binary() -> Result<Binary, String> {
    let mut b = ProgramBuilder::new("repatch-under-load");
    b.unit("host.cc", LinkTarget::Executable);
    {
        let mut m = b.function("main").main().statements(20).instructions(200);
        for d in 0..DSOS {
            m = m.calls(&format!("p{d}_f0"), 1);
        }
        m.finish();
    }
    for d in 0..DSOS {
        b.unit(format!("p{d}.cc"), LinkTarget::Dso(format!("libp{d}.so")));
        for f in 0..FUNCS_PER_DSO {
            b.function(&format!("p{d}_f{f}"))
                .statements(25)
                .instructions(250)
                .finish();
        }
    }
    let program = b.build().map_err(|e| format!("program: {e:?}"))?;
    compile(&program, &CompileOptions::o2()).map_err(|e| format!("compile: {e}"))
}

/// The writer's view of one DSO.
struct ObjectModel {
    /// Always patched; the reader's working set. Rate beside each.
    stable: Vec<(PackedId, u32)>,
    /// Churn functions currently patched / unpatched.
    churn_on: Vec<PackedId>,
    churn_off: Vec<PackedId>,
}

/// The writer's model of the whole patch state.
struct Model {
    main_ids: Vec<PackedId>,
    objects: Vec<ObjectModel>,
}

/// The launched process with everything registered and patched.
struct Live {
    process: Process,
    runtime: XRayRuntime,
    model: Model,
}

impl Live {
    /// Launch → XRay pass → register → patch all → install the handler:
    /// the turnaround from a binary in hand to a patched runtime.
    fn start(bin: &Binary) -> Result<Self, String> {
        let mut process = Process::launch_binary(bin).map_err(|e| format!("launch: {e}"))?;
        let runtime = XRayRuntime::new();
        let pass = PassOptions::instrument_all();
        let (mut main_ids, mut objects) = (Vec::new(), Vec::new());
        let indices: Vec<usize> = process.loaded().map(|(i, _)| i).collect();
        for pi in indices {
            let lo = process.object(pi).expect("loaded index");
            let inst = instrument_object(lo.image.clone(), &pass);
            let fids: Vec<u32> = inst.sleds.entries.iter().map(|e| e.fid).collect();
            let oid = if pi == 0 {
                runtime.register_main(inst, lo, TrampolineSet::absolute())
            } else {
                runtime.register_dso(inst, lo, pi, TrampolineSet::pic())
            }
            .map_err(|e| format!("register: {e}"))?;
            runtime
                .patch_all(&mut process.memory, oid)
                .map_err(|e| format!("patch_all: {e}"))?;
            let ids: Vec<PackedId> = fids
                .iter()
                .map(|&fid| PackedId::pack(oid, fid).map_err(|e| format!("pack: {e:?}")))
                .collect::<Result<_, _>>()?;
            if pi == 0 {
                main_ids = ids;
            } else {
                let (stable, churn) = ids.split_at(ids.len() / 2);
                objects.push(ObjectModel {
                    stable: stable.iter().map(|&id| (id, 1)).collect(),
                    churn_on: churn.to_vec(),
                    churn_off: Vec::new(),
                });
            }
        }
        runtime.set_handler(Arc::new(NullHandler));
        Ok(Self {
            process,
            runtime,
            model: Model { main_ids, objects },
        })
    }

    /// Unpatches every other churn function, so A operations have both
    /// a patched and an unpatched pool to draw from.
    fn prime(&mut self) -> Result<(), String> {
        let mut unpatch = Vec::new();
        for o in &mut self.model.objects {
            for (i, id) in std::mem::take(&mut o.churn_on).into_iter().enumerate() {
                if i % 2 == 0 {
                    o.churn_on.push(id);
                } else {
                    o.churn_off.push(id);
                }
            }
            unpatch.extend_from_slice(&o.churn_off);
        }
        self.runtime
            .repatch(
                &mut self.process.memory,
                &PatchDelta {
                    unpatch,
                    ..Default::default()
                },
            )
            .map(drop)
            .map_err(|e| format!("prime: {e}"))
    }
}

/// Checks the runtime's patch state and published rates against the
/// writer's model; returns the model's state as a golden.
fn check_state(
    runtime: &XRayRuntime,
    model: &Model,
    checks: &mut Checks,
    it: u32,
    ops: u64,
) -> Golden {
    let expected = model.expected(ops);
    let live = runtime.patched_ids();
    let live_rates = model
        .objects
        .iter()
        .flat_map(|o| o.stable.iter())
        .map(|&(id, _)| u64::from(runtime.sample_rate(id)));
    let observed = fingerprint(live.iter().map(|id| u64::from(id.raw())).chain(live_rates));
    checks.check(
        live.len() as u64 == expected.patched && observed == expected.fingerprint,
        || format!("iteration {it}: patch state differs from the writer's model"),
    );
    expected
}

impl Model {
    /// The reader's working set.
    fn stable_ids(&self) -> Vec<PackedId> {
        self.objects
            .iter()
            .flat_map(|o| o.stable.iter().map(|&(id, _)| id))
            .collect()
    }

    /// The patch state the model expects, as a golden.
    fn expected(&self, ops: u64) -> Golden {
        let mut patched: Vec<u32> = self
            .main_ids
            .iter()
            .map(|id| id.raw())
            .chain(self.objects.iter().flat_map(|o| {
                o.stable
                    .iter()
                    .map(|&(id, _)| id.raw())
                    .chain(o.churn_on.iter().map(|id| id.raw()))
            }))
            .collect();
        patched.sort_unstable();
        let rates = self
            .objects
            .iter()
            .flat_map(|o| o.stable.iter().map(|&(_, rate)| u64::from(rate)));
        Golden {
            events: ops,
            epochs: Vec::new(),
            patched: patched.len() as u64,
            fingerprint: fingerprint(patched.iter().map(|&raw| u64::from(raw)).chain(rates)),
        }
    }
}

/// Per-kind latencies of the writer's operations, µs.
#[derive(Default)]
struct Latencies {
    sled: Vec<f64>,
    rate: Vec<f64>,
    flip: Vec<f64>,
}

impl Latencies {
    fn clear(&mut self) {
        self.sled.clear();
        self.rate.clear();
        self.flip.clear();
    }
}

/// Runs one writer operation inside a span; returns its latency in µs.
fn timed_us(
    tr: &Tracer,
    span: &'static str,
    op: impl FnOnce() -> Result<(), String>,
) -> Result<f64, String> {
    let _g = tr.enter(span);
    let t = Instant::now();
    op()?;
    Ok(t.elapsed().as_secs_f64() * 1e6)
}

/// The writer: a seeded, endless A/B/C sequence over a [`Live`].
struct Writer {
    rng: Rng,
    handlers: [Arc<dyn Handler>; 2],
    flips: usize,
    ops: u64,
}

impl Writer {
    fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed),
            handlers: [Arc::new(NullHandler), Arc::new(NullHandler)],
            flips: 0,
            ops: 0,
        }
    }

    /// Indices of the objects the next delta touches.
    fn pick_objects(&mut self) -> [usize; OBJECTS_PER_OP] {
        let mut all: [usize; DSOS] = std::array::from_fn(|i| i);
        self.rng.choose_front(&mut all, OBJECTS_PER_OP);
        std::array::from_fn(|i| all[i])
    }

    /// Runs `cycles` A/B/C cycles, timing every operation.
    fn run(
        &mut self,
        runtime: &XRayRuntime,
        mem: &mut AddressSpace,
        model: &mut Model,
        cycles: usize,
        tr: &Tracer,
        lat: &mut Latencies,
    ) -> Result<(), String> {
        for _ in 0..cycles {
            // A: swap 8 patched and 8 unpatched churn functions in each
            // of 4 objects.
            let mut delta = PatchDelta::default();
            let picked = self.pick_objects();
            for &o in &picked {
                let obj = &mut model.objects[o];
                self.rng.choose_front(&mut obj.churn_on, FUNCS_PER_OBJECT);
                self.rng.choose_front(&mut obj.churn_off, FUNCS_PER_OBJECT);
                delta
                    .unpatch
                    .extend_from_slice(&obj.churn_on[..FUNCS_PER_OBJECT]);
                delta
                    .patch
                    .extend_from_slice(&obj.churn_off[..FUNCS_PER_OBJECT]);
                obj.churn_on[..FUNCS_PER_OBJECT]
                    .swap_with_slice(&mut obj.churn_off[..FUNCS_PER_OBJECT]);
            }
            lat.sled.push(timed_us(tr, "xray.repatch_sled", || {
                let rep = runtime
                    .repatch(mem, &delta)
                    .map_err(|e| format!("sled delta: {e}"))?;
                let rewritten = rep.sleds_patched > 0 && rep.sleds_unpatched > 0;
                rewritten
                    .then_some(())
                    .ok_or_else(|| "sled delta rewrote no sleds".to_string())
            })?);

            // B: new sampling rates for 8 stable functions in each of 4
            // objects; no sled is touched.
            let mut delta = PatchDelta::default();
            let picked = self.pick_objects();
            for &o in &picked {
                let obj = &mut model.objects[o];
                self.rng.choose_front(&mut obj.stable, FUNCS_PER_OBJECT);
                for slot in &mut obj.stable[..FUNCS_PER_OBJECT] {
                    slot.1 = RATES[self.rng.below(RATES.len())];
                    delta.set_rate.push(*slot);
                }
            }
            lat.rate.push(timed_us(tr, "xray.repatch_rate", || {
                runtime
                    .repatch(mem, &delta)
                    .map(drop)
                    .map_err(|e| format!("rate delta: {e}"))
            })?);

            // C: flip the handler.
            self.flips += 1;
            let handler = self.handlers[self.flips % 2].clone();
            lat.flip.push(timed_us(tr, "xray.set_handler", || {
                runtime.set_handler(handler);
                Ok(())
            })?);
            self.ops += 3;
        }
        Ok(())
    }
}

/// The reader thread's shared counters.
#[derive(Default)]
struct ReaderState {
    stop: AtomicBool,
    events: AtomicU64,
    errors: AtomicU64,
}

/// Dispatches entry/exit events round-robin over `ids` until told to
/// stop. The count is published every 256 events.
fn reader_loop(runtime: &XRayRuntime, ids: &[PackedId], state: &ReaderState) {
    let generation = runtime.generation();
    let (mut i, mut errors) = (0u64, 0u64);
    while !state.stop.load(Ordering::Relaxed) {
        for _ in 0..256 {
            let id = ids[(i % ids.len() as u64) as usize];
            let kind = if i % 2 == 0 {
                EventKind::Entry
            } else {
                EventKind::Exit
            };
            if runtime
                .dispatch_from_snapshot(id, kind, i, 0, generation)
                .is_err()
            {
                errors += 1;
            }
            i += 1;
        }
        state.events.store(i, Ordering::Relaxed);
    }
    state.errors.store(errors, Ordering::Relaxed);
}

/// Runs `body` on this thread while a reader thread dispatches over
/// the stable half; joins the reader and checks its books against the
/// runtime's.
fn with_reader<T>(
    live: &mut Live,
    checks: &mut Checks,
    body: impl FnOnce(&XRayRuntime, &mut AddressSpace, &mut Model, &ReaderState) -> Result<T, String>,
) -> Result<T, String> {
    let ids = live.model.stable_ids();
    let state = ReaderState::default();
    let before = live.runtime.stats().dispatches;
    // The reader shares only the runtime; the writer keeps exclusive use
    // of the address space and the model.
    let Live {
        process,
        runtime,
        model,
    } = live;
    let runtime: &XRayRuntime = runtime;
    let out = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader_loop(runtime, &ids, &state));
        let out = body(runtime, &mut process.memory, model, &state);
        state.stop.store(true, Ordering::Relaxed);
        reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        out
    })?;
    let delivered = runtime.stats().dispatches - before;
    let counted = state.events.load(Ordering::Relaxed);
    let errors = state.errors.load(Ordering::Relaxed);
    checks.ops(counted);
    checks.check(errors == 0, || format!("{errors} reader dispatch errors"));
    checks.check(delivered == counted, || {
        format!("runtime counted {delivered} dispatches, the reader {counted}")
    });
    Ok(out)
}

/// Runs the workload, end to end or traced.
pub fn run(run: &mut WorkloadResult, pinned: Option<&Golden>) -> Result<(), String> {
    run.threads = require_threads(NAME, 2)?;
    if run.cfg.traced {
        traced(run)
    } else {
        end_to_end(run, pinned)
    }
}

fn end_to_end(run: &mut WorkloadResult, pinned: Option<&Golden>) -> Result<(), String> {
    let cfg = run.cfg;
    let mut samples = EndToEndSamples::default();
    let mut bin = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        bin = Some(binary()?);
        samples.setup_s.push(t.elapsed().as_secs_f64());
    }
    let bin = bin.expect("SETUPS > 0");
    let mut fixture = None;
    for _ in 0..TURNAROUNDS {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(Live::start(&bin)?);
        samples.turnaround_s.push(t.elapsed().as_secs_f64());
    }
    run.checks.ops((SETUPS + TURNAROUNDS) as u64);
    let mut live = fixture.expect("TURNAROUNDS > 0");
    live.prime()?;

    let cycles = cycles_per_iteration(cfg.size);
    let tr = Tracer::disabled();
    let mut writer = Writer::new(cfg.seed);
    // Latencies are kept for one iteration at a time, so the
    // benchmark's own memory does not grow with the window.
    let mut lat = Latencies::default();
    let mut observed = None;
    // `with_reader` holds the run's checks; the loop keeps its own.
    let mut state_checks = Checks::default();
    run.iterations = with_reader(&mut live, &mut run.checks, |runtime, mem, model, reader| {
        timed_loop(cfg.seconds, MIN_TIMED, |it| {
            lat.clear();
            let events_before = reader.events.load(Ordering::Relaxed);
            let t = Instant::now();
            writer.run(runtime, mem, model, cycles, &tr, &mut lat)?;
            let wall = t.elapsed().as_secs_f64();
            let events = reader.events.load(Ordering::Relaxed) - events_before;
            if it > 0 {
                samples.run_wall_s.push(wall);
                samples.events_per_s.push(events as f64 / wall);
                samples.repatch_p50_us.extend(stats::median(&lat.sled));
            }
            let golden = check_state(runtime, model, &mut state_checks, it, writer.ops);
            if it == MIN_TIMED {
                state_checks.golden(pinned, &golden, it);
                observed = Some(golden);
            }
            Ok(())
        })
    })?;
    run.checks.absorb(state_checks);
    run.checks.ops(writer.ops);

    run.observed = observed;
    run.set_end_to_end(samples)
}

/// Tier T3.
fn traced(run: &mut WorkloadResult) -> Result<(), String> {
    let cfg = run.cfg;
    let tr = run.tracer.take().expect("traced runs carry a tracer");
    let mut live = Live::start(&binary()?)?;
    live.prime()?;
    // A traced pass records a span per operation, so it is kept short.
    let cycles = cycles_per_iteration(cfg.size) / 25;
    let passes = ((cfg.seconds / 4.0).round() as u32).clamp(1, 6);
    let off = Tracer::disabled();
    let mut writer = Writer::new(cfg.seed);

    let (mut idle, mut loaded) = (Latencies::default(), Latencies::default());
    let (mut alone_rate, mut loaded_rate) = (Vec::new(), Vec::new());
    let (mut traced_wall, mut plain_wall) = (Vec::new(), Vec::new());
    for pass in 0..=passes {
        tr.set_iteration(pass);
        let root = tr.enter("pass");

        // The writer alone.
        let idle_wall = {
            let _g = tr.enter("writer_alone");
            let t = Instant::now();
            let Live {
                process,
                runtime,
                model,
            } = &mut live;
            writer.run(runtime, &mut process.memory, model, cycles, &tr, &mut idle)?;
            t.elapsed()
        };

        // The reader alone, for as long as the writer took.
        let alone = with_reader(&mut live, &mut run.checks, |_, _, _, reader| {
            let _g = tr.enter("reader_alone");
            let before = reader.events.load(Ordering::Relaxed);
            let t = Instant::now();
            std::thread::sleep(idle_wall.max(Duration::from_millis(20)));
            let events = reader.events.load(Ordering::Relaxed) - before;
            Ok(events as f64 / t.elapsed().as_secs_f64())
        })?;

        // Both: once with a span per operation, once without.
        let mut both = |tracer: &Tracer, sink: &mut Latencies, writer: &mut Writer| {
            with_reader(&mut live, &mut run.checks, |runtime, mem, model, reader| {
                let _g = tracer.enter("writer_and_reader");
                let before = reader.events.load(Ordering::Relaxed);
                let t = Instant::now();
                writer.run(runtime, mem, model, cycles, tracer, sink)?;
                let wall = t.elapsed().as_secs_f64();
                let events = reader.events.load(Ordering::Relaxed) - before;
                Ok((wall, events as f64 / wall))
            })
        };
        let (wall_traced, rate) = both(&tr, &mut loaded, &mut writer)?;
        drop(root);
        let (wall_plain, _) = both(&off, &mut Latencies::default(), &mut writer)?;
        if pass == 0 {
            // The first pass is a warm-up.
            idle.clear();
            loaded.clear();
        } else {
            alone_rate.push(alone);
            loaded_rate.push(rate);
            traced_wall.push(wall_traced);
            plain_wall.push(wall_plain);
        }
        check_state(
            &live.runtime,
            &live.model,
            &mut run.checks,
            pass,
            writer.ops,
        );
    }
    run.checks.ops(writer.ops);

    let p50 = |us: &[f64]| stats::median(us).expect("passes >= 1");
    run.set_samples("xray.repatch_sled_idle_us", &idle.sled);
    run.set_samples("xray.repatch_sled_loaded_us", &loaded.sled);
    run.set(
        "xray.quiescence_us",
        Measured::once(p50(&loaded.sled) - p50(&idle.sled)),
    );
    run.set_samples("xray.repatch_rate_us", &loaded.rate);
    run.set_samples("xray.handler_flip_us", &loaded.flip);
    // A tail is reported only with ten samples beyond it.
    if let Some(p99) = stats::percentile(&loaded.sled, 99.0) {
        run.set(
            "xray.repatch_p99_us",
            Measured {
                n: loaded.sled.len(),
                ..Measured::once(p99)
            },
        );
    }
    let slowdown: Vec<f64> = loaded_rate
        .iter()
        .zip(&alone_rate)
        .map(|(with, without)| with / without)
        .collect();
    run.set_samples("xray.reader_slowdown_ratio", &slowdown);

    let spans = tr.spans();
    let roots: Vec<usize> = trace::roots_named(&spans, "pass")
        .into_iter()
        .skip(1)
        .collect();
    let ratios: Vec<f64> = roots
        .iter()
        .map(|&r| trace::layer_sum_ratio(&spans, r))
        .collect();
    run.set_samples("trace.layer_sum_ratio", &ratios);
    run.set(
        "trace.overhead_pct",
        Measured::once(100.0 * (p50(&traced_wall) / p50(&plain_wall) - 1.0)),
    );
    run.iterations = roots.len() as u32;
    run.tracer = Some(tr);
    Ok(())
}

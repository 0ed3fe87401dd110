//! Generates **Table V — TALP-driven expansion vs. budget-only
//! trimming** (new workload beyond the paper): a synthetic MPI
//! application with one balanced and one rank-skewed phase, measured
//! in-flight from a coarse IC that covers the phases but *not* the
//! kernels below them. The sweep varies imbalance severity × overhead
//! budget and runs the trim-only controller stack side by side with the
//! combined trim+grow stack:
//!
//! * budget-only trimming can only shrink the IC — the hot imbalanced
//!   subtree below `skewed_phase` stays invisible forever;
//! * the imbalance-expansion policy sees the phase's per-epoch load
//!   balance collapse, descends the call tree, and re-includes
//!   `skew_kernel` — while the expansion cap keeps the measured
//!   overhead inside the *same* budget.
//!
//! Every expansion run executes twice and asserts byte-identical
//! adaptation logs (the determinism contract). All reported quantities
//! are virtual-time, so the JSON artifact is byte-stable across
//! machines.
//!
//! Environment: `CAPI_RANKS` (default 8; fewer than 2 is refused with
//! exit code 2 — one rank has no imbalance), `CAPI_EPOCHS` (default 6),
//! `CAPI_LB_THRESHOLD` (default 0.75), `CAPI_COMM_THRESHOLD`
//! (default 0.4), `CAPI_TABLE5_OUT` (output path, default
//! `BENCH_talp_adapt.json`). Zero/invalid values fall back to the
//! defaults.

use capi::{dynamic_session, AdaptiveRunBuilder, InstrumentationConfig};
use capi_adapt::{AdaptConfig, AdaptController, ExpansionOptions};
use capi_appmodel::{LinkTarget, MpiCall, ProgramBuilder};
use capi_bench::report::{out_path_from_env, write_report};
use capi_bench::{comm_threshold_from_env, epochs_from_env, lb_threshold_from_env, ranks_from_env};
use capi_dyncapi::{AdaptiveRun, Session, ToolChoice};
use capi_objmodel::{compile, Binary, CompileOptions};
use serde_json::{json, Value};

/// Builds the sweep application at one imbalance severity: the rank
/// skew of `skew_kernel`, in percent of its body cost.
fn app(imbalance_pct: u32) -> Binary {
    let mut b = ProgramBuilder::new("table5app");
    b.unit("m.cc", LinkTarget::Executable);
    b.function("main")
        .main()
        .statements(50)
        .instructions(400)
        .cost(1_000)
        .calls("MPI_Init", 1)
        .calls("step", 24)
        .calls("MPI_Finalize", 1)
        .finish();
    b.function("step")
        .statements(40)
        .instructions(300)
        .cost(500)
        .calls("balanced_phase", 1)
        .calls("skewed_phase", 1)
        .calls("MPI_Allreduce", 1)
        .finish();
    b.function("balanced_phase")
        .statements(30)
        .instructions(300)
        .cost(200)
        .calls("bal_kernel", 40)
        .finish();
    b.function("skewed_phase")
        .statements(30)
        .instructions(300)
        .cost(200)
        .calls("skew_kernel", 40)
        .finish();
    b.function("bal_kernel")
        .statements(60)
        .instructions(600)
        .cost(2_000)
        .loop_depth(2)
        .finish();
    {
        let f = b
            .function("skew_kernel")
            .statements(60)
            .instructions(600)
            .cost(2_000)
            .loop_depth(2);
        if imbalance_pct > 0 {
            f.imbalance(imbalance_pct).finish();
        } else {
            f.finish();
        }
    }
    b.function("MPI_Init")
        .statements(1)
        .instructions(8)
        .cost(0)
        .mpi(MpiCall::Init)
        .finish();
    b.function("MPI_Allreduce")
        .statements(1)
        .instructions(8)
        .cost(0)
        .mpi(MpiCall::Allreduce { bytes: 64 })
        .finish();
    b.function("MPI_Finalize")
        .statements(1)
        .instructions(8)
        .cost(0)
        .mpi(MpiCall::Finalize)
        .finish();
    compile(&b.build().unwrap(), &CompileOptions::o2()).expect("table5 app compiles")
}

fn session(bin: &Binary, ranks: u32) -> Session {
    let ic = InstrumentationConfig::from_names(["step", "balanced_phase", "skewed_phase"]);
    dynamic_session(bin, &ic, ToolChoice::None, ranks).expect("session starts")
}

struct ModeResult {
    run: AdaptiveRun,
    log: String,
    active_names: Vec<String>,
    expansions: u64,
}

fn run_mode(bin: &Binary, ranks: u32, epochs: usize, budget: f64, expand: bool) -> ModeResult {
    let cfg = AdaptConfig {
        budget_pct: budget,
        seed: 0x7AB5,
        ..Default::default()
    };
    let mut controller = if expand {
        AdaptController::with_expansion(
            cfg,
            ExpansionOptions {
                lb_threshold: lb_threshold_from_env(),
                comm_threshold: comm_threshold_from_env(),
                ..Default::default()
            },
        )
    } else {
        AdaptController::new(cfg)
    };
    let mut s = session(bin, ranks);
    let run = AdaptiveRunBuilder::new()
        .epochs(epochs)
        .run_with_controller(&mut s, &mut controller, None)
        .expect("adaptive run");
    let active_names: Vec<String> = controller
        .active_ids()
        .iter()
        .filter_map(|&id| controller.name_of(id).map(str::to_string))
        .collect();
    ModeResult {
        run,
        log: controller.render_log(),
        active_names,
        expansions: controller.stats().expansions,
    }
}

fn main() {
    let ranks = ranks_from_env();
    if ranks < 2 {
        // Rank skew is what the sweep measures; one rank has none.
        eprintln!("table5: CAPI_RANKS={ranks}: imbalance expansion needs at least 2 ranks");
        std::process::exit(2);
    }
    let epochs = epochs_from_env();
    let out_path = out_path_from_env("CAPI_TABLE5_OUT", "BENCH_talp_adapt.json");
    println!("TABLE V — TALP-DRIVEN EXPANSION vs BUDGET-ONLY TRIMMING\n");
    println!(
        "{ranks} ranks | {epochs} epochs | LB threshold {:.2} | comm threshold {:.2}",
        lb_threshold_from_env(),
        comm_threshold_from_env()
    );
    println!("initial IC: step, balanced_phase, skewed_phase (kernels excluded)\n");
    println!("imbal%  budget%  mode    active  skew_kernel  bal_kernel  expans  overhead%");

    let imbalances = [0u32, 50, 100, 200];
    let budgets = [5.0f64, 15.0, 40.0];
    let mut rows: Vec<Value> = Vec::new();
    let mut demo_shown = false;

    for &imb in &imbalances {
        let bin = app(imb);
        for &budget in &budgets {
            let trim = run_mode(&bin, ranks, epochs, budget, false);
            let grow = run_mode(&bin, ranks, epochs, budget, true);
            // Determinism contract: same seed, same budget →
            // byte-identical adaptation logs across runs.
            let grow2 = run_mode(&bin, ranks, epochs, budget, true);
            assert_eq!(
                grow.log, grow2.log,
                "expansion adaptation logs are byte-identical"
            );
            assert_eq!(grow.run.per_rank_ns, grow2.run.per_rank_ns);

            for (label, m) in [("trim", &trim), ("grow", &grow)] {
                let has = |n: &str| m.active_names.iter().any(|a| a == n);
                let overhead = m.run.records.last().map(|r| r.overhead_pct).unwrap_or(0.0);
                println!(
                    "{imb:>6}  {budget:>7.1}  {label:<6}  {:>6}  {:>11}  {:>10}  {:>6}  {overhead:>9.3}",
                    m.active_names.len(),
                    has("skew_kernel"),
                    has("bal_kernel"),
                    m.expansions,
                );
                rows.push(json!({
                    "imbalance_pct": imb,
                    "budget_pct": budget,
                    "mode": label,
                    "active": m.active_names.len(),
                    "includes_skew_kernel": has("skew_kernel"),
                    "includes_bal_kernel": has("bal_kernel"),
                    "expansions": m.expansions,
                    "final_overhead_pct": overhead,
                    "events": m.run.events,
                }));
            }

            // The headline cell: severe imbalance, generous budget —
            // expansion must find the subtree trimming cannot. (At
            // `imb` = 100% the phase's load balance sits exactly *at*
            // the default 0.75 threshold — LB = (1 + imb/200)/(1 +
            // imb/100) — so the firing cells are the 200% rows.)
            if imb >= 200 && budget >= 15.0 {
                let trim_has = trim.active_names.iter().any(|n| n == "skew_kernel");
                let grow_has = grow.active_names.iter().any(|n| n == "skew_kernel");
                assert!(
                    !trim_has && grow_has,
                    "expansion re-includes skew_kernel where trimming cannot \
                     (imb {imb}%, budget {budget}%): trim={trim_has} grow={grow_has}\n{}",
                    grow.log
                );
                let last = grow.run.records.last().expect("epochs ran");
                assert!(
                    last.overhead_pct <= budget,
                    "growth stayed within the same budget: {:.3}% > {budget}%",
                    last.overhead_pct
                );
                if !demo_shown {
                    demo_shown = true;
                    println!("\n--- expansion trajectory (imb {imb}%, budget {budget}%) ---");
                    print!("{}", grow.log);
                    println!("--- per-epoch efficiency ---");
                    print!("{}", grow.run.efficiency.render());
                    println!();
                }
            }
        }
    }

    println!("\nsummary: expansion found the skewed subtree in every severe-imbalance cell;");
    println!("         trim-only never grew the IC; all growth stayed within budget.");

    let report = json!({
        "bench": "talp-adaptation",
        "ranks": ranks,
        "epochs": epochs,
        "lb_threshold": lb_threshold_from_env(),
        "comm_threshold": comm_threshold_from_env(),
        "rows": rows,
    });
    write_report(&out_path, &report);
}

//! Command line of the benchmark. See `README.md`.

use capi_benchmark::goldens::Goldens;
use capi_benchmark::metrics::{Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use capi_benchmark::{report, run_workload, RunCfg, Size, WorkloadResult};
use std::process::ExitCode;

const USAGE: &str = "usage: capi-benchmark --seed <u64> [--workload NAME] [--seconds S] \
[--trace 0|1 | --traced] [--aa] [--quick] [--bless]";

struct Args {
    seed: u64,
    workloads: Vec<&'static str>,
    seconds: Option<f64>,
    traced: bool,
    aa: bool,
    quick: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 0,
        workloads: Vec::new(),
        seconds: None,
        traced: false,
        aa: false,
        quick: false,
        bless: false,
    };
    let mut seed = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--workload" => {
                let v = value()?;
                let def = WORKLOADS
                    .iter()
                    .find(|w| w.name == v)
                    .ok_or_else(|| format!("unknown workload `{v}`"))?;
                args.workloads.push(def.name);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {v}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--traced" => args.traced = true,
            "--aa" => args.aa = true,
            "--quick" => args.quick = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().map(|w| w.name).collect();
    }
    if args.aa && (args.traced || args.bless) {
        return Err("--aa compares end-to-end runs; it takes neither --traced nor --bless".into());
    }
    Ok(args)
}

/// Runs the selected workloads once, printing and writing each result.
fn run_set(args: &Args, cfg: RunCfg, goldens: &Goldens) -> Result<Vec<WorkloadResult>, String> {
    let mut results = Vec::new();
    for &name in &args.workloads {
        let result = run_workload(name, cfg, goldens)?;
        report::print_table(&result);
        report::write_files(&result)?;
        println!("{}", report::contract_line(&result));
        results.push(result);
    }
    Ok(results)
}

/// Compares two sets of runs of the same code: prints each end-to-end
/// metric's two medians, their ratio and its bound; returns whether
/// every pair agrees within the bound.
fn compare_sets(first: &[WorkloadResult], second: &[WorkloadResult]) -> bool {
    println!("== A/A: two sets of runs of the same code ==");
    let mut agree = true;
    for (a, b) in first.iter().zip(second) {
        for def in &END_TO_END {
            let (x, y) = (a.metrics[def.name].value, b.metrics[def.name].value);
            let ratio = y / x;
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let within = (ratio - 1.0).abs() <= bound;
            agree &= within;
            let worse = match def.better {
                Better::Lower => ratio > 1.0,
                Better::Higher => ratio < 1.0,
            };
            println!(
                "  {:<20} {:<16} {x:>16.6} {y:>16.6} {:<9} ratio {ratio:.4} bound {:.0}% {}",
                a.workload,
                def.name,
                def.unit,
                bound * 100.0,
                match (within, worse) {
                    (true, _) => "ok",
                    (false, true) => "SECOND SET WORSE",
                    (false, false) => "SECOND SET BETTER",
                },
            );
        }
    }
    agree
}

fn real_main() -> Result<bool, String> {
    // The program under test reads CAPI_* knobs; the benchmark's inputs
    // come from its own arguments only. Nothing else runs yet, so the
    // environment is safe to edit.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CAPI_") {
            std::env::remove_var(key);
        }
    }
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let size = if args.quick { Size::Quick } else { Size::Full };
    let default_seconds = if args.quick {
        1.0
    } else {
        f64::from(RUN_SECONDS)
    };
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(default_seconds),
        size,
        traced: args.traced,
    };
    // Blessing compares against nothing and pins what it saw.
    let mut goldens = Goldens::load()?;
    let compare_with = if args.bless {
        Goldens::default()
    } else {
        goldens.clone()
    };
    let first = run_set(&args, cfg, &compare_with)?;
    let mut ok = first.iter().all(|r| r.checks.failed == 0);
    if args.aa {
        let second = run_set(&args, cfg, &compare_with)?;
        ok &= second.iter().all(|r| r.checks.failed == 0);
        ok &= compare_sets(&first, &second);
    }
    if args.bless && ok {
        for r in &first {
            if let Some(observed) = &r.observed {
                goldens.set(size, r.workload, args.seed, observed.clone());
            }
        }
        goldens.save()?;
        eprintln!("blessed {}", Goldens::path().display());
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("capi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

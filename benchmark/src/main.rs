//! `lineup-perf`: one benchmark for the Line-Up checker, the monitor and
//! the monitoring service. See `benchmark/README.md`.
//!
//! ```text
//! lineup-perf                              every workload, one table
//! lineup-perf --trace                      ... plus the traced pass and per-layer metrics
//! lineup-perf --smoke                      ... at 1/20 size, all gates on
//! lineup-perf --selfcheck [--seeds N]      two whole sets (N seeds each) must agree within the bounds
//! lineup-perf --check-counts               exact counters must repeat for one seed
//! lineup-perf --workload W --seed N --seconds S --trace 0|1
//!                                          one workload in this process; the last line
//!                                          of output is the result as one JSON object
//! ```

mod env;
mod gen;
mod metrics;
mod orchestrate;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use metrics::{DEFAULT_SEED, RUN_SECONDS};
use workloads::Size;

const USAGE: &str =
    "usage: lineup-perf [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
[--repeat N] [--smoke] [--selfcheck [--seeds N]] [--check-counts] [--emit-benchmark-json]";

fn fail(message: &str) -> ! {
    eprintln!("lineup-perf: {message}\n{USAGE}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut repeat: Option<usize> = None;
    let mut size = Size::Full;
    let mut seeds = 1usize;
    let mut mode_selfcheck = false;
    let mut mode_counts = false;

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("a workload name")),
            "--seed" => {
                seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed needs a whole number"));
            }
            "--seconds" => {
                seconds = value("a number")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| fail("--seconds needs a positive number"));
            }
            "--repeat" => {
                repeat = Some(
                    value("a number")
                        .parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .unwrap_or_else(|| fail("--repeat needs a whole number, at least 1")),
                );
            }
            // `--trace` alone switches the traced pass on; the driver
            // protocol spells it `--trace 0` / `--trace 1`.
            "--trace" => {
                trace = match args.next_if(|next| next == "0" || next == "1") {
                    Some(flag) => flag == "1",
                    None => true,
                };
            }
            "--seeds" => {
                seeds = value("a number")
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| fail("--seeds needs a whole number, at least 1"));
            }
            "--smoke" => size = Size::Smoke,
            "--selfcheck" => mode_selfcheck = true,
            "--check-counts" => mode_counts = true,
            "--emit-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => fail(&format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &workload {
        if !metrics::WORKLOADS.iter().any(|w| w.name == name) {
            fail(&format!("unknown workload `{name}`"));
        }
    }

    // A smoke run is one pass, unless told otherwise.
    if size == Size::Smoke {
        repeat = repeat.or(Some(1));
    }
    let plan = orchestrate::Plan {
        only: workload.clone(),
        seed,
        seconds,
        size,
        repeat,
        trace,
        seeds,
    };
    let ok = if mode_selfcheck {
        orchestrate::selfcheck(&plan)
    } else if mode_counts {
        orchestrate::check_counts(&plan)
    } else if let Some(workload) = workload {
        run::run(&run::RunArgs {
            workload,
            seed,
            seconds,
            trace,
            size,
            repeat,
        })
    } else {
        orchestrate::run_all(&plan)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

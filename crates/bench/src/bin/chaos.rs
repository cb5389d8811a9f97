//! `chaos` — fault-injection sweep over the benchmark workloads.
//!
//! ```text
//! cargo run -p sxe-bench --bin chaos --release \
//!     [-- --seeds N --scale S --threads T --metrics FILE]
//! ```
//!
//! Compiles every specjvm/jbytemark workload `N` times (default 32),
//! each time with one deterministic injected fault (panic, IR
//! corruption, or budget exhaustion) at a pseudo-random pass boundary,
//! and asserts the containment guarantees: no aborts, every incident
//! recorded, zero differential-oracle mismatches. Exits non-zero on any
//! violation. `--metrics FILE` attaches a telemetry sink to every
//! faulted compile and writes the accumulated registry (incident
//! counts, rollbacks, per-pass timings) as flat JSON.

use std::num::NonZeroUsize;
use std::process::ExitCode;

use sxe_bench::chaos_sweep;
use sxe_jit::{cmdline::Args, Telemetry};

const USAGE: &str = "usage: chaos [--seeds N] [--scale S] [--threads T] [--metrics FILE]";

fn main() -> ExitCode {
    let mut seeds: u64 = 32;
    let mut scale: f64 = 0.05;
    let mut threads: usize = 1;
    let mut metrics: Option<String> = None;
    let mut args = Args::from_env("chaos", USAGE);
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--seeds" => seeds = args.value(),
            "--scale" => scale = args.value(),
            "--threads" => threads = args.value::<NonZeroUsize>().get(),
            "--metrics" => metrics = Some(args.value()),
            _ => args.unexpected(),
        }
    }

    let names: Vec<&'static str> =
        sxe_workloads::all().iter().map(|w| w.name).collect();
    println!(
        "chaos: {} workloads x {} fault seeds (scale {scale}, {threads} worker thread(s))",
        names.len(),
        seeds
    );
    let telemetry =
        if metrics.is_some() { Telemetry::enabled() } else { Telemetry::disabled() };
    let outcome = chaos_sweep(&names, scale, 0..seeds, threads, &telemetry);
    if let Some(path) = &metrics {
        if let Err(e) = std::fs::write(path, telemetry.metrics_json()) {
            eprintln!("chaos: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("chaos: metrics written to {path}");
    }
    match outcome {
        Ok(summary) => {
            println!(
                "chaos: {} runs contained, {} incidents recorded, {} oracle \
                 comparisons, 0 mismatches",
                summary.runs.len(),
                summary.incidents(),
                summary.comparisons()
            );
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("chaos: FAIL: {e}");
            }
            eprintln!("chaos: {} containment violations", errors.len());
            ExitCode::FAILURE
        }
    }
}

//! `throughput` — sharded module-compile throughput sweep.
//!
//! ```text
//! cargo run -p sxe-bench --bin throughput --release [-- options]
//!   --scale S        workload size multiplier        (default: 0.3)
//!   --repeats N      timing rounds per point         (default: 3)
//!   --threads A,B,C  pool sizes to sweep             (default: 1,2,4,8)
//!   --metrics FILE   after the sweep, batch-compile the suite once more
//!                    with the telemetry sink attached (at the last
//!                    sweep point's thread count) and write the
//!                    accumulated registry as flat JSON
//! ```
//!
//! The sweep compiles all 17 workload modules as one batch per point and
//! reports modules/sec plus speedup over the first (reference) point.
//! The timed rounds always run untraced, so `--metrics` never perturbs
//! the numbers. That sharding never changes the output is asserted by
//! `tests/it/parallel.rs`, not here.

use std::process::ExitCode;

use sxe_bench::{compile_throughput, render_throughput};
use sxe_core::Variant;
use sxe_jit::{cmdline::Args, Compiler, Telemetry};

const USAGE: &str =
    "usage: throughput [--scale S] [--repeats N] [--threads A,B,C] [--metrics FILE]";

fn main() -> ExitCode {
    let mut scale: f64 = 0.3;
    let mut repeats: u32 = 3;
    let mut threads: Vec<usize> = vec![1, 2, 4, 8];
    let mut metrics: Option<String> = None;
    let mut args = Args::from_env("throughput", USAGE);
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--scale" => scale = args.value(),
            "--repeats" => repeats = args.value(),
            "--threads" => {
                let list: String = args.value();
                threads = match list.split(',').map(str::parse).collect() {
                    Ok(list) => list,
                    Err(_) => args.fail("--threads needs a comma-separated list, e.g. 1,2,4"),
                };
            }
            "--metrics" => metrics = Some(args.value()),
            _ => args.unexpected(),
        }
    }

    println!(
        "throughput: batch-compiling {} workloads per point (scale {scale}, best of {repeats})",
        sxe_workloads::all().len()
    );
    let points = match compile_throughput(scale, &threads, repeats) {
        Ok(points) => points,
        Err(e) => {
            eprintln!("throughput: compile refused: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", render_throughput(&points));
    if let Some(path) = &metrics {
        let tel = Telemetry::enabled();
        let pool = *threads.last().unwrap_or(&1);
        let compiler =
            Compiler::builder(Variant::All).threads(pool).telemetry(tel.clone()).build();
        let modules: Vec<_> = sxe_workloads::all()
            .iter()
            .map(|w| w.build(w.scaled(scale)))
            .collect();
        if let Err(e) = compiler.try_compile_batch(&modules) {
            eprintln!("throughput: compile refused: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(path, tel.metrics_json()) {
            eprintln!("throughput: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("throughput: metrics written to {path} (threads {pool})");
    }
    ExitCode::SUCCESS
}

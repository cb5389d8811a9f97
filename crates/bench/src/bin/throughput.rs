//! `throughput` — sharded module-compile throughput sweep and
//! determinism check.
//!
//! ```text
//! cargo run -p sxe-bench --bin throughput --release [-- options]
//!   --scale S        workload size multiplier        (default: 0.3)
//!   --repeats N      timing rounds per point         (default: 3)
//!   --threads A,B,C  pool sizes to sweep             (default: 1,2,4,8)
//!   --check          instead of timing, assert the threads=4 compile of
//!                    every workload is byte-identical to the sequential
//!                    one (module text, stats, opt stats, pass records)
//!   --metrics FILE   after the sweep, batch-compile the suite once more
//!                    with the telemetry sink attached (at the last
//!                    sweep point's thread count) and write the
//!                    accumulated registry as flat JSON
//! ```
//!
//! The sweep compiles all 17 workload modules as one batch per point and
//! reports modules/sec plus speedup over the first (reference) point.
//! The timed rounds always run untraced, so `--metrics` never perturbs
//! the numbers. Exits non-zero if `--check` finds any divergence.

use std::process::ExitCode;

use sxe_bench::{compile_throughput, render_throughput, Args};
use sxe_core::Variant;
use sxe_jit::{Compiled, Compiler, Telemetry};

const USAGE: &str =
    "usage: throughput [--scale S] [--repeats N] [--threads A,B,C] [--check] [--metrics FILE]";

/// Everything that must match across thread counts: function bodies,
/// elimination stats, optimizer stats, per-pass record shapes.
type Fingerprint = (String, String, String, Vec<(String, Option<String>, String)>);

/// Durations are excluded on purpose: wall-clock is the only thing
/// sharding may change.
fn fingerprint(c: &Compiled) -> Fingerprint {
    (
        c.module.iter().map(|(_, f)| f.to_string()).collect::<Vec<_>>().join("\n"),
        format!("{:?}", c.stats),
        format!("{:?}", c.opt_stats),
        c.report
            .records
            .iter()
            .map(|r| (r.pass.clone(), r.function.clone(), r.status.to_string()))
            .collect(),
    )
}

fn check_determinism(scale: f64) -> ExitCode {
    let sequential = Compiler::for_variant(Variant::All);
    let sharded = Compiler::builder(Variant::All).threads(4).build();
    let mut failures = 0u32;
    for w in sxe_workloads::all() {
        let m = w.build(w.scaled(scale));
        match (sequential.try_compile(&m), sharded.try_compile(&m)) {
            (Ok(seq), Ok(par)) if fingerprint(&seq) == fingerprint(&par) => {
                println!("throughput: {:<16} threads 1 vs 4: identical", w.name);
            }
            (Ok(_), Ok(_)) => {
                eprintln!("throughput: {:<16} threads 1 vs 4: DIVERGED", w.name);
                failures += 1;
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("throughput: {:<16} compile refused: {e}", w.name);
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("throughput: determinism check passed on all workloads");
        ExitCode::SUCCESS
    } else {
        eprintln!("throughput: {failures} workload(s) diverged under sharding");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut scale: f64 = 0.3;
    let mut repeats: u32 = 3;
    let mut threads: Vec<usize> = vec![1, 2, 4, 8];
    let mut check = false;
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
            "--check" => check = true,
            "--metrics" => metrics = Some(args.value()),
            _ => args.unexpected(),
        }
    }

    if check {
        return check_determinism(scale);
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

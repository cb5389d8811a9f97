//! `vmbench` — decoded-engine vs tree-engine interpreter throughput.
//!
//! ```text
//! cargo run -p sxe-bench --bin vmbench --release [-- options]
//!   --scale S     workload size multiplier            (default: 1.0)
//!   --repeats N   timing rounds per engine, best-of   (default: 3)
//!   --gate MIN    exit non-zero unless the aggregate decoded/tree
//!                 speedup is at least MIN (e.g. 3.0)
//! ```
//!
//! Every workload is compiled with the full algorithm, then `main()` is
//! run to completion on both engines. Beyond the timings, each pair of
//! runs is an identity check: the engines' whole [`sxe_vm::Observation`]s
//! (return value, heap checksum, counters, fuel left) must agree or the
//! bench aborts. The aggregate speedup is total-work-over-total-time
//! (sum of instructions divided by sum of best wall-clock times, per
//! engine), so long workloads weigh proportionally — the same figure
//! `tier1.sh` gates on.

use std::process::ExitCode;
use std::time::Duration;

use sxe_bench::time_main;
use sxe_core::Variant;
use sxe_jit::{cmdline::Args, Compiler};
use sxe_vm::Engine;

const USAGE: &str = "usage: vmbench [--scale S] [--repeats N] [--gate MIN]";

fn main() -> ExitCode {
    let mut scale = 1.0f64;
    let mut repeats = 3u32;
    let mut gate: Option<f64> = None;
    let mut args = Args::from_env("vmbench", USAGE);
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--scale" => scale = args.value(),
            "--repeats" => repeats = args.value(),
            "--gate" => gate = Some(args.value()),
            _ => args.unexpected(),
        }
    }

    let compiler = Compiler::for_variant(Variant::All);
    println!(
        "{:<16} {:>12} {:>14} {:>14} {:>9}",
        "workload", "insts", "tree Mi/s", "decoded Mi/s", "speedup"
    );
    let (mut tree_total, mut decoded_total) = (Duration::ZERO, Duration::ZERO);
    let mut insts_total = 0u64;
    for w in sxe_workloads::all() {
        let m = w.build(w.scaled(scale));
        let compiled = match compiler.try_compile(&m) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("vmbench: {}: compile refused: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        let tree = time_main(&compiled.module, Engine::Tree, repeats);
        let decoded = time_main(&compiled.module, Engine::Decoded, repeats);
        assert_eq!(tree.observation, decoded.observation, "{}: engines diverged", w.name);
        let (tt, dt) = (tree.best, decoded.best);
        let tinsts = tree.observation.counters.insts;
        let mips = |d: Duration| tinsts as f64 / d.as_secs_f64().max(1e-12) / 1e6;
        println!(
            "{:<16} {:>12} {:>14.1} {:>14.1} {:>8.2}x",
            w.name,
            tinsts,
            mips(tt),
            mips(dt),
            tt.as_secs_f64() / dt.as_secs_f64().max(1e-12),
        );
        tree_total += tt;
        decoded_total += dt;
        insts_total += tinsts;
    }
    let speedup = tree_total.as_secs_f64() / decoded_total.as_secs_f64().max(1e-12);
    let mips = |d: Duration| insts_total as f64 / d.as_secs_f64().max(1e-12) / 1e6;
    println!(
        "{:<16} {:>12} {:>14.1} {:>14.1} {:>8.2}x",
        "TOTAL",
        insts_total,
        mips(tree_total),
        mips(decoded_total),
        speedup
    );
    if let Some(min) = gate {
        if speedup < min {
            eprintln!("vmbench: GATE FAILED: aggregate speedup {speedup:.2}x < required {min}x");
            return ExitCode::FAILURE;
        }
        println!("vmbench: gate passed: {speedup:.2}x >= {min}x");
    }
    ExitCode::SUCCESS
}

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
//! runs is an identity check: return value, heap checksum, and executed
//! instruction count must agree or the bench aborts. The aggregate
//! speedup is total-work-over-total-time (sum of instructions divided by
//! sum of best wall-clock times, per engine), so long workloads weigh
//! proportionally — the same figure `tier1.sh` gates on.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sxe_core::Variant;
use sxe_ir::Target;
use sxe_jit::Compiler;
use sxe_vm::{Engine, Outcome, Vm};

const FUEL: u64 = 4_000_000_000;

fn scaled(w: &sxe_workloads::Workload, scale: f64) -> u32 {
    ((w.default_size as f64 * scale) as u32).max(4)
}

/// Best-of-`repeats` wall-clock for `main()` under `engine`, plus the
/// observables the engines must agree on.
fn measure(
    module: &sxe_ir::Module,
    engine: Engine,
    repeats: u32,
) -> (Duration, Outcome, u64) {
    let mut vm = Vm::builder(module).target(Target::Ia64).engine(engine).fuel(FUEL).build();
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..repeats.max(1) {
        vm.reset();
        let t0 = Instant::now();
        let o = vm.run("main", &[]).expect("workload must not trap");
        best = best.min(t0.elapsed());
        out = Some(o);
    }
    (best, out.expect("at least one round"), vm.counters().insts)
}

fn main() -> ExitCode {
    let mut scale = 1.0f64;
    let mut repeats = 3u32;
    let mut gate: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        let r: Result<(), String> = (|| {
            match a.as_str() {
                "--scale" => scale = val()?.parse().map_err(|e| format!("--scale: {e}"))?,
                "--repeats" => {
                    repeats = val()?.parse().map_err(|e| format!("--repeats: {e}"))?;
                }
                "--gate" => {
                    gate = Some(val()?.parse().map_err(|e| format!("--gate: {e}"))?);
                }
                other => return Err(format!("unknown flag {other}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("vmbench: {e}");
            return ExitCode::FAILURE;
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
        let m = w.build(scaled(&w, scale));
        let compiled = match compiler.try_compile(&m) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("vmbench: {}: compile refused: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        let (tt, tout, tinsts) = measure(&compiled.module, Engine::Tree, repeats);
        let (dt, dout, dinsts) = measure(&compiled.module, Engine::Decoded, repeats);
        assert_eq!(
            (tout.ret, tout.heap_checksum, tinsts),
            (dout.ret, dout.heap_checksum, dinsts),
            "{}: engines diverged",
            w.name
        );
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

//! `nativebench` — wall-clock measurement of the paper's real headline:
//! what sign-extension elimination buys on *native* x86-64 code, where a
//! deleted `Extend` is machine instructions that were never emitted, not
//! an interpreter dispatch that was skipped.
//!
//! ```text
//! cargo run -p sxe-bench --bin nativebench --release [-- options]
//!   --scale S     workload size multiplier            (default: 1.0)
//!   --repeats N   timing rounds per configuration     (default: 5)
//!   --gate MIN    exit non-zero unless native aggregate throughput on
//!                 the integer workloads is at least MIN× the decoded
//!                 interpreter's (e.g. 2.0)
//! ```
//!
//! Per workload, the module is compiled twice — `Baseline` (conversion
//! only: every `Extend` the 64-bit machine model needs is present) and
//! `All` (the paper's full elimination) — and both run to completion on
//! [`Engine::Native`], best-of-N. The pair must agree on return value
//! and heap checksum ([`sxe_vm::Observation::result`]) or the bench
//! aborts; the counters legitimately differ (that difference *is* the
//! eliminated work). The `All` compile also runs on the decoded
//! interpreter, and native and decoded must agree on the whole
//! `Observation`. Reported per workload:
//!
//! * decoded vs native throughput on the `All` compile (the JIT's win
//!   over the interpreter — this is what `--gate` checks);
//! * `Baseline` vs `All` native wall-clock speedup (the paper's
//!   headline, now measured on machine code);
//! * the machine-code bytes of `movsxd`/`movsx` the elimination removed
//!   (`Baseline` extend bytes − `All` extend bytes).
//!
//! Read the speedup column honestly: on an out-of-order x86-64 core a
//! register-register `movsxd` is nearly free, so small ratios (even
//! ~1.0×) on extend-light workloads are the expected truth, not a bug —
//! the byte column shows how much code the elimination removed even
//! when the cycles don't move.

use std::process::ExitCode;
use std::time::Duration;

use sxe_bench::{time_main, TimedRun};
use sxe_core::Variant;
use sxe_ir::Module;
use sxe_jit::{cmdline::Args, Compiler};
use sxe_vm::Engine;

const USAGE: &str = "usage: nativebench [--scale S] [--repeats N] [--gate MIN]";

/// A float-free workload? The textual IR carries a `.f64` / `f64`
/// marker on every float-typed operation, so the emitted text is a
/// complete census. The `--gate` compares only integer workloads: float
/// traffic is dominated by SSE and helper calls on both engines and
/// would wash out the integer-pipeline contrast being gated.
fn is_integer_only(m: &Module) -> bool {
    !m.to_string().contains("f64")
}

/// [`time_main`] on the native engine, reporting every function that
/// fell back to the decoded interpreter.
fn time_native(m: &Module, repeats: u32) -> TimedRun {
    let run = time_main(m, Engine::Native, repeats);
    for (name, why) in &run.refusals {
        eprintln!("nativebench:   fallback @{name}: {why}");
    }
    run
}

fn main() -> ExitCode {
    let mut scale = 1.0f64;
    let mut repeats = 5u32;
    let mut gate: Option<f64> = None;
    let mut args = Args::from_env("nativebench", USAGE);
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--scale" => scale = args.value(),
            "--repeats" => repeats = args.value(),
            "--gate" => gate = Some(args.value()),
            _ => args.unexpected(),
        }
    }

    let base_compiler = Compiler::for_variant(Variant::Baseline);
    let all_compiler = Compiler::for_variant(Variant::All);
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>9} {:>9} {:>8}",
        "workload", "insts(all)", "dec Mi/s", "nat Mi/s", "nat/dec", "base/all", "Δext B"
    );
    // Gate aggregates (integer workloads only, All compile).
    let (mut dec_total, mut nat_total) = (Duration::ZERO, Duration::ZERO);
    // Headline aggregates (all workloads, native engine).
    let (mut base_total, mut all_total) = (Duration::ZERO, Duration::ZERO);
    for w in sxe_workloads::all() {
        let m = w.build(w.scaled(scale));
        let (base, all) = match (base_compiler.try_compile(&m), all_compiler.try_compile(&m)) {
            (Ok(base), Ok(all)) => (base.module, all.module),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("nativebench: {}: compile refused: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        let base_native = time_native(&base, repeats);
        let all_native = time_native(&all, repeats);
        assert_eq!(
            base_native.observation.result, all_native.observation.result,
            "{}: Baseline and All diverged on native code",
            w.name
        );
        let all_decoded = time_main(&all, Engine::Decoded, repeats);
        assert_eq!(
            all_decoded.observation, all_native.observation,
            "{}: native and decoded diverged",
            w.name
        );
        let (bt, at, dt) = (base_native.best, all_native.best, all_decoded.best);
        let ainsts = all_native.observation.counters.insts;
        let (bext, aext) = (base_native.extend_bytes, all_native.extend_bytes);
        let mips = |d: Duration| ainsts as f64 / d.as_secs_f64().max(1e-12) / 1e6;
        println!(
            "{:<16} {:>12} {:>12.1} {:>12.1} {:>8.2}x {:>8.3}x {:>8}",
            w.name,
            ainsts,
            mips(dt),
            mips(at),
            dt.as_secs_f64() / at.as_secs_f64().max(1e-12),
            bt.as_secs_f64() / at.as_secs_f64().max(1e-12),
            bext.saturating_sub(aext),
        );
        base_total += bt;
        all_total += at;
        if is_integer_only(&all) {
            dec_total += dt;
            nat_total += at;
        }
    }
    let jit_speedup = dec_total.as_secs_f64() / nat_total.as_secs_f64().max(1e-12);
    let sxe_speedup = base_total.as_secs_f64() / all_total.as_secs_f64().max(1e-12);
    println!(
        "nativebench: integer workloads: native {jit_speedup:.2}x the decoded interpreter; \
         all workloads: elimination speedup {sxe_speedup:.3}x on native code"
    );
    if let Some(min) = gate {
        if jit_speedup < min {
            eprintln!(
                "nativebench: GATE FAILED: native/decoded {jit_speedup:.2}x < required {min}x"
            );
            return ExitCode::FAILURE;
        }
        println!("nativebench: gate passed: {jit_speedup:.2}x >= {min}x");
    }
    ExitCode::SUCCESS
}

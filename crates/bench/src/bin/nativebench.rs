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
//! and heap checksum or the bench aborts; the executed instruction
//! counts legitimately differ (that difference *is* the eliminated
//! work). Reported per workload:
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
use std::time::{Duration, Instant};

use sxe_core::Variant;
use sxe_ir::{Module, Target};
use sxe_jit::Compiler;
use sxe_vm::{Engine, Outcome, Vm};

const FUEL: u64 = 4_000_000_000;

fn scaled(w: &sxe_workloads::Workload, scale: f64) -> u32 {
    ((w.default_size as f64 * scale) as u32).max(4)
}

/// A float-free workload? The textual IR carries a `.f64` / `f64`
/// marker on every float-typed operation, so the emitted text is a
/// complete census. The `--gate` compares only integer workloads: float
/// traffic is dominated by SSE and helper calls on both engines and
/// would wash out the integer-pipeline contrast being gated.
fn is_integer_only(m: &Module) -> bool {
    !m.to_string().contains("f64")
}

/// Best-of-`repeats` wall clock for `main()`, plus the observables and
/// the total extend-attributed machine-code bytes (0 on the decoded
/// engine, which has no machine code).
fn measure(m: &Module, engine: Engine, repeats: u32) -> (Duration, Outcome, u64, usize) {
    let mut vm = Vm::builder(m).target(Target::Ia64).engine(engine).fuel(FUEL).build();
    if engine == Engine::Native {
        for (name, why) in vm.native_refusals() {
            eprintln!("nativebench:   fallback @{name}: {why}");
        }
    }
    let ext_bytes = vm.native_code_stats().iter().map(|&(_, _, e)| e).sum();
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..repeats.max(1) {
        vm.reset();
        let t0 = Instant::now();
        let o = vm.run("main", &[]).expect("workload must not trap");
        best = best.min(t0.elapsed());
        out = Some(o);
    }
    (best, out.expect("at least one round"), vm.counters().insts, ext_bytes)
}

fn main() -> ExitCode {
    let mut scale = 1.0f64;
    let mut repeats = 5u32;
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
            eprintln!("nativebench: {e}");
            return ExitCode::FAILURE;
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
        let m = w.build(scaled(&w, scale));
        let (base, all) = match (base_compiler.try_compile(&m), all_compiler.try_compile(&m)) {
            (Ok(base), Ok(all)) => (base.module, all.module),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("nativebench: {}: compile refused: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        let (bt, bout, _, bext) = measure(&base, Engine::Native, repeats);
        let (at, aout, ainsts, aext) = measure(&all, Engine::Native, repeats);
        assert_eq!(
            (bout.ret, bout.heap_checksum),
            (aout.ret, aout.heap_checksum),
            "{}: Baseline and All diverged on native code",
            w.name
        );
        let (dt, dout, dinsts, _) = measure(&all, Engine::Decoded, repeats);
        assert_eq!(
            (dout.ret, dout.heap_checksum, dinsts),
            (aout.ret, aout.heap_checksum, ainsts),
            "{}: native and decoded diverged",
            w.name
        );
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

//! Domain scenario: a block-cipher round kernel (the workload family the
//! paper's introduction motivates — 32-bit `int` code on a 64-bit
//! machine). Compares all twelve algorithm variants on dynamic extension
//! counts and the cycle-model speedup.
//!
//! ```text
//! cargo run -p xelim-examples --bin crypto_kernel
//! ```

use sxe_core::Variant;
use sxe_ir::{Target, Width};
use sxe_jit::Compiler;
use sxe_vm::Vm;

fn main() {
    // The IDEA workload is exactly this scenario; reuse it at a nontrivial
    // size so loop behaviour dominates.
    let module = sxe_workloads::by_name("IDEA").expect("exists").build(400);

    println!(
        "{:28} {:>10} {:>12} {:>10} {:>9}",
        "variant", "static", "dynamic", "% base", "cycles"
    );
    let mut baseline_dyn = 0u64;
    let mut baseline_cycles = 0u64;
    for variant in Variant::ALL {
        let compiled = Compiler::for_variant(variant).try_compile(&module).expect("compiles");
        let mut vm = Vm::new(&compiled.module, Target::Ia64);
        let out = vm.run("main", &[]).expect("no trap");
        let dynamic = vm.counters().extend_count(Some(Width::W32));
        if variant == Variant::Baseline {
            baseline_dyn = dynamic.max(1);
            baseline_cycles = vm.counters().cycles;
        }
        println!(
            "{:28} {:>10} {:>12} {:>9.2}% {:>9}",
            variant.label(),
            compiled.module.count_extends(None),
            dynamic,
            100.0 * dynamic as f64 / baseline_dyn as f64,
            vm.counters().cycles,
        );
        if variant == Variant::All {
            println!(
                "\nestimated speedup of the full algorithm: {:.2}%  (checksum {:?})\n",
                100.0 * (baseline_cycles as f64 / vm.counters().cycles as f64 - 1.0),
                out.ret
            );
        }
    }
}

//! Profile-guided order determination: the paper's combined interpreter +
//! dynamic compiler collects branch statistics before optimizing. This
//! example builds a function with a *biased* branch that the static
//! estimator cannot see, and shows the interpreter profile steering the
//! elimination order.
//!
//! ```text
//! cargo run -p xelim-examples --bin profile_guided
//! ```

use sxe_core::Variant;
use sxe_ir::{parse_module, Target, Width};
use sxe_jit::Compiler;
use sxe_vm::Vm;

/// Two sibling loops guarded by a flag: statically they look equally
/// hot, but at run time only one executes. Each loop needs an extension
/// for `(double)` accumulation; the profile tells the compiler which one
/// matters.
const BIASED: &str = "\
func @main(i32, i32) -> f64 {
b0:
    r2 = const.i32 0
    condbr eq.i32 r1, r2, b1, b4
b1:
    br b2
b2:
    r3 = const.i32 1
    r0 = sub.i32 r0, r3
    r4 = add.i32 r4, r0
    condbr gt.i32 r0, r2, b2, b3
b3:
    r5 = i32tof64.f64 r4
    ret r5
b4:
    br b5
b5:
    r6 = const.i32 1
    r0 = sub.i32 r0, r6
    r7 = mul.i32 r7, r0
    condbr gt.i32 r0, r2, b5, b6
b6:
    r8 = i32tof64.f64 r7
    ret r8
}
";

fn main() {
    let module = parse_module(BIASED).expect("parses");
    let compiler = Compiler::for_variant(Variant::All);

    // Static compile: order determination sees two equally hot loops.
    let plain = compiler.try_compile(&module).expect("compiles");
    // Profiled compile: the interpreter observes the actual run (flag=0
    // takes the first loop only).
    let profiled = compiler.try_compile_profiled(&module, "main", &[100_000, 0]).expect("compiles");

    for (label, compiled) in [("static order", &plain), ("profile-guided", &profiled)] {
        let mut vm = Vm::new(&compiled.module, Target::Ia64);
        let out = vm.run("main", &[100_000, 0]).expect("no trap");
        println!(
            "{label:15} static extends: {:2}  dynamic extends: {:6}  result: {:?}",
            compiled.module.count_extends(None),
            vm.counters().extend_count(Some(Width::W32)),
            out.ret.map(|b| f64::from_bits(b as u64)),
        );
    }
    println!(
        "\nBoth are correct; the profile-guided compile knows which loop is hot\n\
         and eliminates its extensions first (paper §2.2)."
    );
}

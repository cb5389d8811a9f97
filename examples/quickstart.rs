//! Quickstart: build a small 32-bit-form function, run the full paper
//! pipeline, and watch the sign extensions disappear.
//!
//! ```text
//! cargo run -p xelim-examples --bin quickstart
//! ```

use sxe_core::Variant;
use sxe_ir::{BinOp, Cond, FunctionBuilder, Module, Target, Ty, UnOp};
use sxe_jit::Compiler;
use sxe_vm::Vm;

fn main() {
    // int sum(int n) {
    //   int[] a = new int[n];
    //   for (int i = n - 1; i > 0; i--) a[i] = i;
    //   int t = 0;
    //   for (int i = n - 1; i > 0; i--) t += a[i] & 0xffff;
    //   return (int)(double) t;   // forces a sign-extension-hungry i2d
    // }
    let mut b = FunctionBuilder::new("sum", vec![Ty::I32], Some(Ty::I32));
    let n = b.param(0);
    let arr = b.new_array(Ty::I32, n);
    let one = b.iconst(Ty::I32, 1);
    let zero = b.iconst(Ty::I32, 0);

    let i = b.new_reg();
    let im = b.bin(BinOp::Sub, Ty::I32, n, one);
    b.copy_to(Ty::I32, i, im);
    let (head, body, exit) = (b.new_block(), b.new_block(), b.new_block());
    b.br(head);
    b.switch_to(head);
    b.cond_br(Cond::Gt, Ty::I32, i, zero, body, exit);
    b.switch_to(body);
    b.array_store(Ty::I32, arr, i, i);
    b.bin_to(BinOp::Sub, Ty::I32, i, i, one);
    b.br(head);
    b.switch_to(exit);

    let t = b.new_reg();
    b.copy_to(Ty::I32, t, zero);
    let j = b.new_reg();
    let jm = b.bin(BinOp::Sub, Ty::I32, n, one);
    b.copy_to(Ty::I32, j, jm);
    let (head2, body2, exit2) = (b.new_block(), b.new_block(), b.new_block());
    b.br(head2);
    b.switch_to(head2);
    b.cond_br(Cond::Gt, Ty::I32, j, zero, body2, exit2);
    b.switch_to(body2);
    let v = b.array_load(Ty::I32, arr, j);
    let mask = b.iconst(Ty::I32, 0xFFFF);
    let masked = b.bin(BinOp::And, Ty::I32, v, mask);
    b.bin_to(BinOp::Add, Ty::I32, t, t, masked);
    b.bin_to(BinOp::Sub, Ty::I32, j, j, one);
    b.br(head2);
    b.switch_to(exit2);
    let d = b.un(UnOp::I32ToF64, Ty::F64, t);
    let r = b.un(UnOp::F64ToI32, Ty::I32, d);
    b.ret(Some(r));

    let mut module = Module::new();
    module.add_function(b.finish());

    println!("=== source (32-bit form) ===\n{module}");

    for variant in [Variant::Baseline, Variant::FirstAlgorithm, Variant::All] {
        let compiled = Compiler::for_variant(variant).try_compile(&module).expect("compiles");
        let mut vm = Vm::new(&compiled.module, Target::Ia64);
        let out = vm.run("sum", &[1000]).expect("no trap");
        println!(
            "{variant:28} static extends: {:3}   dynamic extends: {:6}   result: {:?}",
            compiled.module.count_extends(None),
            vm.counters().extend_count(None),
            out.ret
        );
        if variant == Variant::All {
            println!("\n=== fully optimized ===\n{}", compiled.module);
        }
    }
}

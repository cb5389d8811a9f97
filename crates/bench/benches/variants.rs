//! Bench: full-pipeline compile time per algorithm variant (the
//! compile-time cost side of Tables 1–3).

use sxe_bench::bench_loop;
use sxe_core::Variant;
use sxe_jit::Compiler;

fn main() {
    let m = sxe_workloads::by_name("huffman").expect("exists").build(128);
    for v in Variant::ALL {
        let compiler = Compiler::for_variant(v);
        bench_loop(&format!("compile_huffman/{}", v.label()), 3, 20, || {
            compiler.try_compile(&m).expect("compiles")
        });
    }
}

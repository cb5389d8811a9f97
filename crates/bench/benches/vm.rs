//! Bench: interpreter wall-clock time of baseline-compiled vs
//! fully-optimized workloads — the real-time analogue of Figures 13/14
//! (fewer dynamic instructions means faster interpretation too).

use sxe_bench::bench_loop;
use sxe_core::Variant;
use sxe_ir::Target;
use sxe_jit::Compiler;
use sxe_vm::{Engine, Vm};

fn main() {
    for name in ["compress", "huffman", "mpegaudio"] {
        let m = sxe_workloads::by_name(name).expect("exists").build(96);
        for v in [Variant::Baseline, Variant::All] {
            let compiled = Compiler::for_variant(v).try_compile(&m).expect("compiles");
            for engine in [Engine::Decoded, Engine::Tree] {
                let mut vm =
                    Vm::builder(&compiled.module).target(Target::Ia64).engine(engine).build();
                bench_loop(
                    &format!("vm_execution/{name}/{}/{engine}", v.label()),
                    2,
                    15,
                    || {
                        vm.reset();
                        vm.run("main", &[]).expect("no trap")
                    },
                );
            }
        }
    }
}

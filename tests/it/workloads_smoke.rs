//! Every workload × every variant: compiles, verifies, runs, and agrees
//! with the baseline execution bit-for-bit.

use sxe_core::Variant;
use sxe_ir::Target;
use xelim_integration_tests::compile_run;

const FUEL: u64 = 80_000_000;
const TEST_SIZE: u32 = 24;

#[test]
fn all_variants_agree_on_all_workloads() {
    for w in sxe_workloads::all() {
        let m = w.build(TEST_SIZE);
        let (reference, base_count) =
            compile_run(&m, Variant::Baseline, Target::Ia64, "main", &[], FUEL);
        assert!(reference.trap.is_none(), "{} baseline trapped", w.name);
        for v in Variant::ALL {
            let (key, count) = compile_run(&m, v, Target::Ia64, "main", &[], FUEL);
            assert_eq!(reference, key, "{} diverged under {v}", w.name);
            if v == Variant::All {
                assert!(
                    count <= base_count,
                    "{}: `all` executed more extensions ({count}) than baseline ({base_count})",
                    w.name
                );
            }
        }
    }
}

#[test]
fn ppc64_variants_agree_too() {
    for w in sxe_workloads::all() {
        let m = w.build(12);
        let (reference, _) =
            compile_run(&m, Variant::Baseline, Target::Ppc64, "main", &[], FUEL);
        assert!(reference.trap.is_none(), "{} baseline trapped", w.name);
        for v in [Variant::FirstAlgorithm, Variant::All, Variant::AllPde] {
            let (key, _) = compile_run(&m, v, Target::Ppc64, "main", &[], FUEL);
            assert_eq!(reference, key, "{} diverged under {v} on ppc64", w.name);
        }
    }
}

#[test]
fn profile_guided_compile_agrees() {
    for w in sxe_workloads::all().into_iter().take(4) {
        let m = w.build(12);
        let compiler = sxe_jit::Compiler::for_variant(Variant::All);
        let plain = compiler.try_compile(&m).expect("compiles");
        let profiled = compiler.try_compile_profiled(&m, "main", &[]).expect("compiles");
        let run = |module: &sxe_ir::Module| {
            let mut vm =
                sxe_vm::Vm::builder(module).target(Target::Ia64).fuel(FUEL).build();
            vm.run("main", &[]).expect("no trap").ret
        };
        assert_eq!(run(&plain.module), run(&profiled.module), "{}", w.name);
    }
}

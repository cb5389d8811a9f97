//! Differential property tests: every algorithm variant, on both
//! targets, must preserve the observable behaviour of randomly generated
//! programs — return value, heap contents, and trap kind. The VM's
//! machine model makes any unsound elimination visible (wrong values
//! through `i2d`/64-bit compares, or a `WildAddress` fault on array
//! accesses), so this is a direct soundness check of the paper's
//! algorithm and of our general optimizer.

use sxe_core::Variant;
use sxe_ir::Target;
use xelim_integration_tests::{compile_run, gen};

const FUEL: u64 = 2_000_000;
const CASES: usize = 64;

fn check_all_variants(p: &gen::Program, target: Target) {
    let m = gen::lower(p);
    let (reference, _) = compile_run(&m, Variant::Baseline, target, "main", &[], FUEL);
    for v in Variant::ALL {
        let (key, _) = compile_run(&m, v, target, "main", &[], FUEL);
        assert_eq!(reference, key, "{v} diverged on {target}\nprogram: {p:?}");
    }
}

#[test]
fn zext_elimination_preserves_semantics() {
    use sxe_jit::Compiler;
    use sxe_vm::Vm;
    for (i, p) in gen::program_corpus(0xd1ff_0001, CASES) {
        let m = gen::lower(&p);
        let (reference, _) =
            compile_run(&m, Variant::Baseline, Target::Ia64, "main", &[], FUEL);
        let mut compiler = Compiler::for_variant(Variant::All);
        compiler.sxe.eliminate_zext = true;
        let compiled = compiler.try_compile(&m).expect("compiles");
        let mut vm =
            Vm::builder(&compiled.module).target(Target::Ia64).fuel(FUEL).build();
        let key = match vm.run("main", &[]) {
            Ok(out) => xelim_integration_tests::RunKey {
                ret: out.ret,
                heap: Some(out.heap_checksum),
                trap: None,
            },
            Err(e) => {
                xelim_integration_tests::RunKey { ret: None, heap: None, trap: e.trap_kind() }
            }
        };
        assert_eq!(reference, key, "zext elimination diverged on case {i}: {p:?}");
    }
}

#[test]
fn variants_preserve_semantics_ia64() {
    for (_, p) in gen::program_corpus(0xd1ff_0002, CASES) {
        check_all_variants(&p, Target::Ia64);
    }
}

#[test]
fn variants_preserve_semantics_ppc64() {
    for (_, p) in gen::program_corpus(0xd1ff_0003, CASES) {
        check_all_variants(&p, Target::Ppc64);
    }
}

#[test]
fn optimized_never_executes_more_extends() {
    for (_, p) in gen::program_corpus(0xd1ff_0004, CASES) {
        let m = gen::lower(&p);
        let (bkey, baseline) =
            compile_run(&m, Variant::Baseline, Target::Ia64, "main", &[], FUEL);
        // Only compare when the run completes (traps cut execution short
        // at arbitrary points).
        if bkey.trap.is_some() {
            continue;
        }
        let (_, all) = compile_run(&m, Variant::All, Target::Ia64, "main", &[], FUEL);
        assert!(all <= baseline, "dynamic extends grew: baseline={baseline} all={all}");
    }
}

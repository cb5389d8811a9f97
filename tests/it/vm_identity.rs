//! Engine-identity suite: the decoded engine must be observably
//! indistinguishable from the tree-walking reference — same outcome
//! (return value + heap checksum), same trap kind, and bit-identical
//! dynamic [`Counters`] — on every workload, every target, and a
//! seeded fuzz sweep.
//!
//! The one sanctioned divergence is the trap *location* (`Trap::at`):
//! superinstruction fusion attributes a mid-fusion fuel trap to the
//! first fused component, so traps are compared by [`TrapKind`] only —
//! the same rule the differential oracle uses.

use sxe_core::Variant;
use sxe_fuzz::{generate_module, GenConfig};
use sxe_ir::rng::XorShift;
use sxe_ir::{Module, Target};
use sxe_jit::Compiler;
use sxe_vm::{observe, Engine, Vm, VmError};

/// Enough fuel that no scaled-down workload exhausts it.
const WORKLOAD_FUEL: u64 = 200_000_000;

/// Assert tree and decoded agree on every observable for one module.
fn assert_identical(m: &Module, target: Target, fuel: u64, args: &[i64], label: &str) {
    let tree = observe(m, target, Engine::Tree, fuel, "main", args);
    let decoded = observe(m, target, Engine::Decoded, fuel, "main", args);
    assert_eq!(tree, decoded, "{label} [{target:?}, fuel {fuel}]: engines diverged");
}

/// All 17 workloads, all three targets, both compile variants (baseline
/// keeps plain `Extend` ops; the full algorithm emits the fused
/// `*Ext` superinstructions), tree vs decoded.
#[test]
fn workloads_run_identically_on_both_engines() {
    for w in sxe_workloads::all() {
        let m = w.build(w.scaled(0.25));
        for variant in [Variant::Baseline, Variant::All] {
            let compiled = Compiler::for_variant(variant).try_compile(&m).expect("compiles").module;
            for target in Target::ALL {
                let label = format!("{}/{variant:?}", w.name);
                assert_identical(&compiled, target, WORKLOAD_FUEL, &[], &label);
            }
        }
    }
}

/// Sweep fuel through awkward cutoffs so exhaustion lands mid-stream —
/// including inside fused superinstructions, where the decoded engine's
/// batched charging must fall back to exact per-component accounting.
/// Counters at the cutoff must match the tree engine bit-for-bit.
#[test]
fn fuel_cutoffs_are_bit_identical() {
    let compiler = Compiler::for_variant(Variant::All);
    for w in sxe_workloads::all().into_iter().take(4) {
        let compiled = compiler
            .try_compile(&w.build(w.scaled(0.25)))
            .expect("compiles")
            .module;
        for fuel in [0, 1, 2, 3, 4, 5, 7, 11, 100, 1_001, 10_007, 100_003] {
            assert_identical(&compiled, Target::Ia64, fuel, &[], w.name);
        }
    }
}

/// Block-profile counts are part of the observable surface too.
#[test]
fn block_profiles_agree_between_engines() {
    let w = &sxe_workloads::all()[0];
    let m = Compiler::for_variant(Variant::All)
        .try_compile(&w.build(w.scaled(0.25)))
        .expect("compiles")
        .module;
    let mut profiles = Vec::new();
    for engine in [Engine::Tree, Engine::Decoded] {
        let mut vm = Vm::builder(&m)
            .target(Target::Ia64)
            .engine(engine)
            .fuel(WORKLOAD_FUEL)
            .profile(true)
            .build();
        vm.run("main", &[]).expect("workload must not trap");
        let per_func: Vec<Vec<u64>> = (0..m.functions.len())
            .map(|f| {
                vm.profile_counts(sxe_ir::FuncId(u32::try_from(f).unwrap()))
                    .expect("profiled")
                    .to_vec()
            })
            .collect();
        profiles.push(per_func);
    }
    assert_eq!(profiles[0], profiles[1], "{}: block profiles diverged", w.name);
}

/// Both engines must reject a bad entry point the same way.
#[test]
fn errors_agree_between_engines() {
    let m = sxe_workloads::all()[0].build(8);
    for engine in [Engine::Tree, Engine::Decoded] {
        let mut vm = Vm::builder(&m).engine(engine).build();
        assert!(matches!(
            vm.run("no_such_function", &[]),
            Err(VmError::UnknownFunction { .. })
        ));
        assert!(matches!(vm.run("main", &[1, 2, 3]), Err(VmError::ArityMismatch { .. })));
    }
}

/// Seeded fuzz smoke: 1000 generated modules (raw and fully compiled),
/// each function driven with deterministic pseudo-random arguments on
/// both engines. Low fuel on purpose — `ResourceExhausted` cutoffs are
/// part of the contract being checked.
#[test]
fn fuzzed_modules_run_identically_on_both_engines() {
    let config = GenConfig::default();
    let compiler = Compiler::for_variant(Variant::All);
    for seed in 0..1000u64 {
        let raw = generate_module(seed, &config);
        let compiled = compiler.try_compile(&raw).expect("compiles").module;
        for (m, what) in [(&raw, "raw"), (&compiled, "compiled")] {
            for f in &m.functions {
                let mut rng = XorShift::new(seed ^ 0x5eed_f00d);
                let args: Vec<i64> =
                    (0..f.params.len()).map(|_| rng.range_i64(-16, 48)).collect();
                for target in Target::ALL {
                    let tree = observe(m, target, Engine::Tree, 30_000, &f.name, &args);
                    let decoded = observe(m, target, Engine::Decoded, 30_000, &f.name, &args);
                    assert_eq!(
                        tree, decoded,
                        "seed {seed} ({what}) @{} {args:?} [{target:?}]: engines diverged",
                        f.name
                    );
                }
            }
        }
    }
}

//! Native-engine identity suite: x86-64 code generated by `sxe-native`
//! must be observably indistinguishable from the decoded interpreter —
//! same outcome (return value + heap checksum), same trap kind, and
//! bit-identical dynamic [`Counters`] — on every workload, every
//! target, both compile variants, and a seeded fuzz sweep.
//!
//! On [`Target::Mips64`] the code generator refuses every function with
//! a typed reason (x86-64 does not emit MIPS64's canonical sign-extended
//! forms), so identity there means: wholesale refusal, and the decoded
//! fallback observably matching the decoded engine.
//!
//! Two sanctioned divergences, mirroring the engine contract:
//! * the trap *location* (`Trap::at`) is compared by [`TrapKind`] only,
//!   the same rule `vm_identity` applies to superinstruction fusion;
//! * fuel exhaustion is detected at accounting-segment granularity on
//!   native code, so any comparison where either side reports
//!   [`TrapKind::ResourceExhausted`] is skipped — the differential
//!   oracle's rule.

use sxe_core::Variant;
use sxe_fuzz::{generate_module, GenConfig};
use sxe_ir::rng::XorShift;
use sxe_ir::{BinOp, FunctionBuilder, Module, Target, Ty};
use sxe_jit::Compiler;
use sxe_vm::{observe, Engine, Vm, VmError};

/// Enough fuel that no scaled-down workload exhausts it.
const WORKLOAD_FUEL: u64 = 200_000_000;

/// Assert native and decoded agree on every observable for one entry
/// point, and that the module really was natively compiled (a silent
/// fallback would make the comparison vacuous). Mips64 is the sanctioned
/// exception: the backend must refuse every function with a typed
/// reason, and the comparison then proves the fallback path.
fn assert_native_identical(m: &Module, target: Target, fuel: u64, args: &[i64], label: &str) {
    let native_vm = Vm::builder(m).target(target).engine(Engine::Native).build();
    let refusals = native_vm.native_refusals();
    if target == Target::Mips64 {
        assert_eq!(
            refusals.len(),
            m.functions.len(),
            "{label}: mips64 must refuse native compilation wholesale: {refusals:?}"
        );
        assert!(
            refusals.iter().all(|(_, reason)| reason.contains("mips64")),
            "{label}: every refusal must carry the typed mips64 reason: {refusals:?}"
        );
    } else {
        assert_eq!(refusals, Vec::new(), "{label}: expected a fully native module");
    }
    drop(native_vm);
    let decoded = observe(m, target, Engine::Decoded, fuel, "main", args);
    let native = observe(m, target, Engine::Native, fuel, "main", args);
    assert_eq!(decoded, native, "{label} [{target:?}, fuel {fuel}]: engines diverged");
}

/// All 17 workloads, every target, both compile variants (baseline
/// keeps every `Extend`; the full algorithm deletes the redundant
/// ones), native vs decoded — the headline identity the wall-clock
/// experiment rests on.
#[test]
fn workloads_run_identically_native_vs_decoded() {
    for w in sxe_workloads::all() {
        let m = w.build(w.scaled(0.25));
        for variant in [Variant::Baseline, Variant::All] {
            let compiled = Compiler::for_variant(variant).try_compile(&m).expect("compiles").module;
            for target in Target::ALL {
                let label = format!("{}/{variant:?}", w.name);
                assert_native_identical(&compiled, target, WORKLOAD_FUEL, &[], &label);
            }
        }
    }
}

/// Block-profile counts are part of the observable surface too: the
/// native engine reconstructs them from per-segment counters.
#[test]
fn block_profiles_agree_native_vs_decoded() {
    let w = &sxe_workloads::all()[0];
    let m = Compiler::for_variant(Variant::All)
        .try_compile(&w.build(w.scaled(0.25)))
        .expect("compiles")
        .module;
    let mut profiles = Vec::new();
    for engine in [Engine::Decoded, Engine::Native] {
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

/// A function the code generator refuses (here: a register file past
/// the native cap) transparently falls back to the decoded engine,
/// with a typed reason — and a refusal in one function must not drag
/// an unrelated native-compilable sibling down with it.
#[test]
fn unsupported_functions_fall_back_to_decoded() {
    let mut m = Module::new();
    let mut big = FunctionBuilder::new("big", vec![Ty::I64], Some(Ty::I64));
    let mut acc = big.param(0);
    for _ in 0..300 {
        let one = big.iconst(Ty::I64, 1);
        acc = big.bin(BinOp::Add, Ty::I64, acc, one);
    }
    big.ret(Some(acc));
    m.add_function(big.finish());
    let mut small = FunctionBuilder::new("small", vec![Ty::I64], Some(Ty::I64));
    let p = small.param(0);
    let r = small.bin(BinOp::Mul, Ty::I64, p, p);
    small.ret(Some(r));
    m.add_function(small.finish());

    let mut vm = Vm::builder(&m).engine(Engine::Native).build();
    let refusals = vm.native_refusals();
    assert_eq!(refusals.len(), 1, "only @big should fall back: {refusals:?}");
    assert_eq!(refusals[0].0, "big");
    assert!(!refusals[0].1.is_empty(), "refusal must carry a reason");
    // Both still execute, and both match the decoded engine exactly.
    assert_eq!(vm.run("big", &[1]).unwrap().ret, Some(301));
    assert_eq!(vm.run("small", &[12]).unwrap().ret, Some(144));
    for name in ["big", "small"] {
        let native = observe(&m, Target::Ia64, Engine::Native, 100_000, name, &[7]);
        let decoded = observe(&m, Target::Ia64, Engine::Decoded, 100_000, name, &[7]);
        assert_eq!(native, decoded, "@{name}");
    }
}

/// Fuel exhaustion on native code is segment-granular: the kind and the
/// pinned-to-zero fuel must still match the decoded engine, but the
/// counters may overshoot by up to one segment.
#[test]
fn fuel_exhaustion_agrees_on_kind_and_fuel() {
    let w = &sxe_workloads::all()[0];
    let m = Compiler::for_variant(Variant::All)
        .try_compile(&w.build(w.scaled(0.25)))
        .expect("compiles")
        .module;
    for fuel in [100, 1_001, 10_007] {
        let decoded = observe(&m, Target::Ia64, Engine::Decoded, fuel, "main", &[]);
        let native = observe(&m, Target::Ia64, Engine::Native, fuel, "main", &[]);
        assert!(decoded.exhausted(), "fuel {fuel} must exhaust the workload");
        assert_eq!(native.result, decoded.result, "fuel {fuel}");
        assert_eq!(native.fuel_remaining, 0, "fuel {fuel}");
    }
}

/// Seeded fuzz sweep: generated modules (raw and fully compiled), every
/// function driven with deterministic pseudo-random arguments, native
/// vs decoded, every target. Exhausted runs are skipped per the oracle
/// rule; everything else must match on all observables.
#[test]
fn fuzzed_modules_run_identically_native_vs_decoded() {
    let config = GenConfig::default();
    let compiler = Compiler::for_variant(Variant::All);
    let mut compared = 0u32;
    for seed in 0..200u64 {
        let raw = generate_module(seed, &config);
        let compiled = compiler.try_compile(&raw).expect("compiles").module;
        for (m, what) in [(&raw, "raw"), (&compiled, "compiled")] {
            for f in &m.functions {
                let mut rng = XorShift::new(seed ^ 0x5eed_f00d);
                let args: Vec<i64> =
                    (0..f.params.len()).map(|_| rng.range_i64(-16, 48)).collect();
                for target in Target::ALL {
                    let decoded = observe(m, target, Engine::Decoded, 30_000, &f.name, &args);
                    let native = observe(m, target, Engine::Native, 30_000, &f.name, &args);
                    if decoded.exhausted() || native.exhausted() {
                        continue;
                    }
                    assert_eq!(
                        decoded, native,
                        "seed {seed} ({what}) @{} {args:?} [{target:?}]: engines diverged",
                        f.name
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 500, "sweep must actually compare runs (got {compared})");
}

/// Both engines must reject a bad entry point the same way.
#[test]
fn errors_agree_native_vs_decoded() {
    let m = sxe_workloads::all()[0].build(8);
    let mut vm = Vm::builder(&m).engine(Engine::Native).build();
    assert!(matches!(vm.run("no_such_function", &[]), Err(VmError::UnknownFunction { .. })));
    assert!(matches!(vm.run("main", &[1, 2, 3]), Err(VmError::ArityMismatch { .. })));
}

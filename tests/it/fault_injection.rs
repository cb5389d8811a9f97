//! Fault-injection (chaos) properties across the stack: every injected
//! panic, IR corruption, or budget exhaustion at any pass boundary must
//! be contained by the compile harness — never aborting the process,
//! always leaving a trace in the [`sxe_jit::CompileReport`], and never
//! shipping a module the differential oracle can distinguish from the
//! original.

use std::panic::{self, AssertUnwindSafe};

use sxe_core::Variant;
use sxe_ir::Target;
use sxe_jit::{CompileError, Compiler, FaultPlan, InjectedFault, PassStatus};
use sxe_vm::{differential_check, OracleConfig};
use xelim_integration_tests::gen;

const SEEDS: u64 = 32;

/// The acceptance sweep on generated programs: 32 fault seeds per
/// program, each landing a panic, corruption, or exhaustion at a
/// pseudo-random boundary. Nothing escapes, everything is reported,
/// the oracle finds nothing.
#[test]
fn injected_faults_are_contained_reported_and_harmless() {
    for (case, p) in gen::program_corpus(0xfa17_0001, 6) {
        let m = gen::lower(&p);
        // The oracle reference is the conversion-only compile: the raw
        // module is not meaningful on the 64-bit machine model until
        // step 1 has inserted its sign extensions.
        let reference = Compiler::for_variant(Variant::Baseline)
            .try_compile(&m)
            .expect("compiles")
            .module;
        let dry = Compiler::for_variant(Variant::All).try_compile(&m).expect("compiles");
        let boundaries = dry.report.boundaries() as u32;
        for seed in 0..SEEDS {
            let plan = FaultPlan::from_seed(seed, boundaries);
            let compiler = Compiler::builder(Variant::All).fault_plan(plan).build();
            let compiled = panic::catch_unwind(AssertUnwindSafe(|| compiler.try_compile(&m)))
                .unwrap_or_else(|_| {
                    panic!("case {case} seed {seed}: compile aborted (plan {plan:?})")
                })
                .unwrap_or_else(|e| panic!("case {case} seed {seed}: compile refused: {e}"));
            assert!(
                compiled.report.incidents() >= 1,
                "case {case} seed {seed}: no incident recorded (plan {plan:?})"
            );
            let n = differential_check(
                &reference,
                &compiled.module,
                Target::Ia64,
                &OracleConfig::new().runs(4),
            )
            .unwrap_or_else(|mis| {
                panic!("case {case} seed {seed}: oracle mismatch: {mis}")
            });
            assert!(n > 0, "case {case} seed {seed}: oracle compared nothing");
        }
    }
}

/// Each fault kind leaves its own specific trace: a panic and a
/// corruption both roll the pass back, exhaustion skips and sets the
/// budget flag.
#[test]
fn each_fault_kind_is_visible_in_the_report() {
    let m = gen::lower(&gen::program_corpus(0xfa17_0002, 1).next().expect("one case").1);
    let dry = Compiler::for_variant(Variant::All).try_compile(&m).expect("compiles");
    let boundaries = dry.report.boundaries() as u32;
    let mut kinds_seen = [false; 3];
    for seed in 0..64 {
        let plan = FaultPlan::from_seed(seed, boundaries);
        let compiled =
            Compiler::builder(Variant::All)
                .fault_plan(plan)
                .build()
                .try_compile(&m)
                .expect("compiles");
        let injected: Vec<_> =
            compiled.report.records.iter().filter(|r| r.injected.is_some()).collect();
        assert_eq!(injected.len(), 1, "seed {seed}: exactly one injection fires");
        let rec = injected[0];
        match rec.injected.unwrap() {
            InjectedFault::Panic => {
                kinds_seen[0] = true;
                assert!(
                    matches!(rec.status, PassStatus::RolledBack(_)),
                    "seed {seed}: injected panic must roll back, got {:?}",
                    rec.status
                );
            }
            InjectedFault::Corrupt => {
                kinds_seen[1] = true;
                assert!(
                    matches!(rec.status, PassStatus::RolledBack(_)),
                    "seed {seed}: injected corruption must be caught by the \
                     verify gate, got {:?}",
                    rec.status
                );
            }
            InjectedFault::Exhaust => {
                kinds_seen[2] = true;
                assert!(
                    matches!(rec.status, PassStatus::BudgetExhausted),
                    "seed {seed}: injected exhaustion must show as budget \
                     exhaustion, got {:?}",
                    rec.status
                );
                assert!(compiled.report.budget_exhausted);
            }
            InjectedFault::Miscompile => {
                // `from_seed` plans only the three contained kinds; the
                // miscompile plant is reserved for the fuzzer's self-test
                // (`FaultPlan::miscompile`).
                panic!("seed {seed}: from_seed must never plant a miscompile");
            }
        }
    }
    assert_eq!(kinds_seen, [true; 3], "64 seeds cover all three fault kinds");
}

/// A fault-free compile with the same configuration stays clean and
/// eliminates exactly as many extensions as one compiled without any
/// harness bookkeeping enabled — injection is pay-for-use.
#[test]
fn no_fault_no_change() {
    for (_, p) in gen::program_corpus(0xfa17_0003, 4) {
        let m = gen::lower(&p);
        let plain = Compiler::for_variant(Variant::All).try_compile(&m).expect("compiles");
        assert!(plain.report.clean(), "report: {}", plain.report.summary());
        let with_budget =
            Compiler::builder(Variant::All)
                .budget(Some(1 << 32), None)
                .build()
                .try_compile(&m)
                .expect("compiles");
        assert_eq!(plain.stats.eliminated, with_budget.stats.eliminated);
        assert_eq!(plain.module.to_string(), with_budget.module.to_string());
    }
}

/// Starved budgets still deliver a verified, semantically intact module —
/// except a budget empty before the first pass, which is refused outright
/// with a typed error rather than returning the input untouched.
#[test]
fn starved_budget_still_ships_correct_code() {
    for (case, p) in gen::program_corpus(0xfa17_0004, 4) {
        let m = gen::lower(&p);
        let reference = Compiler::for_variant(Variant::Baseline)
            .try_compile(&m)
            .expect("compiles")
            .module;
        let refused = Compiler::builder(Variant::All)
            .budget(Some(0), None)
            .build()
            .try_compile(&m)
            .unwrap_err();
        assert_eq!(refused, CompileError::BudgetExhaustedBeforeStart, "case {case}");
        for fuel in [1u64, 2, 5, 13] {
            let compiled = Compiler::builder(Variant::All)
                .budget(Some(fuel), None)
                .build()
                .try_compile(&m)
                .expect("compiles");
            differential_check(
                &reference,
                &compiled.module,
                Target::Ia64,
                &OracleConfig::new().runs(4),
            )
            .unwrap_or_else(|mis| {
                panic!("case {case} fuel {fuel}: oracle mismatch: {mis}")
            });
        }
    }
}

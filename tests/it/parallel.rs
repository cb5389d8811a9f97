//! Sharded-compilation properties: the parallel pipeline must be an
//! implementation detail. Whatever the worker-pool size and whether the
//! analysis cache is on, the compiled module, elimination statistics,
//! optimizer statistics, and the shape of the compile report are
//! byte-identical to the sequential compile — and the fallible API
//! refuses bad inputs with typed errors instead of panicking.

use sxe_core::Variant;
use sxe_jit::prelude::*;

/// Everything that must match across thread counts and cache settings:
/// function bodies, elimination stats, optimizer stats, and the per-pass
/// record shapes.
type Fingerprint = (String, String, String, Vec<(String, Option<String>, String)>);

/// Durations are excluded on purpose: wall-clock is the only thing
/// sharding is allowed to change.
fn fingerprint(c: &Compiled) -> Fingerprint {
    (
        c.module.iter().map(|(_, f)| f.to_string()).collect::<Vec<_>>().join("\n"),
        format!("{:?}", c.stats),
        format!("{:?}", c.opt_stats),
        c.report
            .records
            .iter()
            .map(|r| (r.pass.clone(), r.function.clone(), r.status.to_string()))
            .collect(),
    )
}

/// The acceptance property: across all 17 benchmark workloads, a
/// threads=4 compile is indistinguishable from the sequential one.
#[test]
fn sharded_compile_matches_sequential_on_every_workload() {
    let sequential = Compiler::for_variant(Variant::All);
    let sharded = Compiler::builder(Variant::All).threads(4).build();
    let workloads = sxe_workloads::all();
    assert_eq!(workloads.len(), 17, "the full benchmark suite");
    for w in workloads {
        let m = w.build(w.scaled(0.05));
        let seq = fingerprint(&sequential.try_compile(&m).expect("compiles"));
        let par = fingerprint(&sharded.try_compile(&m).expect("compiles"));
        assert_eq!(seq, par, "{}: threads=4 output diverged from sequential", w.name);
    }
}

/// Profiled compilation (the interpreter + dynamic compiler loop) is
/// deterministic under sharding too — profile collection happens at a
/// sequential barrier between step 2 and step 3.
#[test]
fn sharded_profiled_compile_matches_sequential() {
    let sequential = Compiler::for_variant(Variant::All);
    let sharded = Compiler::builder(Variant::All).threads(4).build();
    for w in sxe_workloads::all().iter().take(5) {
        let m = w.build(w.scaled(0.05));
        let seq = fingerprint(&sequential.try_compile_profiled(&m, "main", &[]).expect("compiles"));
        let par = fingerprint(&sharded.try_compile_profiled(&m, "main", &[]).expect("compiles"));
        assert_eq!(seq, par, "{}: profiled sharded compile diverged", w.name);
    }
}

/// The analysis cache is invisible in the output, on and off, sequential
/// and sharded.
#[test]
fn cache_setting_never_changes_output() {
    for threads in [1usize, 4] {
        for w in sxe_workloads::all().iter().take(5) {
            let m = w.build(w.scaled(0.05));
            let cached = Compiler::builder(Variant::All)
                .threads(threads)
                .cache(true)
                .build()
                .try_compile(&m)
                .expect("compiles");
            let uncached = Compiler::builder(Variant::All)
                .threads(threads)
                .cache(false)
                .build()
                .try_compile(&m)
                .expect("compiles");
            assert_eq!(
                fingerprint(&cached),
                fingerprint(&uncached),
                "{} threads={threads}: cache changed the output",
                w.name
            );
        }
    }
}

/// Batch compilation shards whole modules and keeps input order.
#[test]
fn batch_results_arrive_in_input_order() {
    let modules: Vec<_> = sxe_workloads::all()
        .iter()
        .map(|w| w.build(w.scaled(0.05)))
        .collect();
    let sequential = Compiler::for_variant(Variant::All)
        .try_compile_batch(&modules)
        .expect("compiles");
    let sharded = Compiler::builder(Variant::All)
        .threads(4)
        .build()
        .try_compile_batch(&modules)
        .expect("compiles");
    assert_eq!(sequential.len(), modules.len());
    for (i, (s, p)) in sequential.iter().zip(&sharded).enumerate() {
        assert_eq!(fingerprint(s), fingerprint(p), "batch item {i} diverged");
    }
}

/// The fallible API reports typed errors where the old API panicked.
#[test]
fn typed_errors_cover_the_refusal_cases() {
    let w = &sxe_workloads::all()[0];
    let m = w.build(w.default_size / 20);
    // Missing profiling entry.
    let err = Compiler::for_variant(Variant::All)
        .try_compile_profiled(&m, "no_such_entry", &[])
        .unwrap_err();
    assert_eq!(err, CompileError::MissingEntry("no_such_entry".into()));
    assert!(err.to_string().contains("no_such_entry"));
    // Budget empty before the first pass.
    let err = Compiler::builder(Variant::All)
        .budget(Some(0), None)
        .build()
        .try_compile(&m)
        .unwrap_err();
    assert_eq!(err, CompileError::BudgetExhaustedBeforeStart);
    // A well-formed module compiles on the same fallible path.
    assert!(Compiler::builder(Variant::All).threads(4).build().try_compile(&m).is_ok());
}

/// The builder covers every knob and the prelude exports everything the
/// snippet in the crate docs needs.
#[test]
fn builder_and_prelude_round_trip() {
    let compiler = Compiler::builder(Variant::All)
        .target(Target::Ppc64)
        .budget(Some(1 << 40), None)
        .threads(4)
        .cache(false)
        .build();
    assert_eq!(compiler.sxe.target, Target::Ppc64);
    assert_eq!(compiler.threads, 4);
    assert!(!compiler.cache);
    let w = &sxe_workloads::all()[0];
    let compiled = compiler.try_compile(&w.build(16)).expect("compiles");
    assert!(compiled.report.clean(), "{}", compiled.report.summary());
}

//! The *shape* of the paper's Tables 1–2: aggregate relations between
//! variants over the whole workload set. Absolute counts differ from the
//! paper (different substrate), but who-beats-whom must reproduce.

use sxe_core::Variant;
use sxe_ir::Target;
use xelim_integration_tests::compile_run;

const FUEL: u64 = 120_000_000;
const SIZE: u32 = 32;

/// Dynamic 32-bit-extension counts per workload for one variant.
fn dynamic_counts(variant: Variant) -> Vec<(String, u64)> {
    sxe_workloads::all()
        .iter()
        .map(|w| {
            let m = w.build(SIZE);
            let (key, count) = compile_run(&m, variant, Target::Ia64, "main", &[], FUEL);
            assert!(key.trap.is_none(), "{} trapped under {variant}", w.name);
            (w.name.to_string(), count)
        })
        .collect()
}

fn total(v: Variant) -> u64 {
    dynamic_counts(v).iter().map(|(_, c)| c).sum()
}

#[test]
fn headline_ordering() {
    // Paper: baseline (100%) > gen-use > first algorithm > … > all.
    let baseline = total(Variant::Baseline);
    let gen_use = total(Variant::GenUse);
    let first = total(Variant::FirstAlgorithm);
    let basic = total(Variant::BasicUdDu);
    let array = total(Variant::Array);
    let all = total(Variant::All);
    assert!(baseline > 0);
    assert!(gen_use < baseline, "gen-use {gen_use} < baseline {baseline}");
    assert!(first < baseline, "first {first} < baseline {baseline}");
    assert!(basic <= first, "basic {basic} <= first {first}");
    assert!(array < basic, "array {array} < basic {basic}");
    assert!(all <= array, "all {all} <= array {array}");
    // The headline claim: the majority of sign extensions is eliminated.
    assert!(
        all * 2 < baseline,
        "`all` must eliminate the majority: all={all} baseline={baseline}"
    );
}

#[test]
fn array_elimination_is_the_big_lever() {
    // Paper observation: "Sign extension elimination for array indices
    // is most effective for all the benchmark programs." — the drop from
    // basic to array dwarfs the drop from basic to insert/order.
    let basic = total(Variant::BasicUdDu);
    let array = total(Variant::Array);
    let insert_order = total(Variant::InsertOrder);
    let array_gain = basic.saturating_sub(array);
    let io_gain = basic.saturating_sub(insert_order);
    assert!(
        array_gain > io_gain,
        "array gain {array_gain} must exceed insert+order gain {io_gain}"
    );
}

#[test]
fn combining_features_helps() {
    // Paper observation 1: combining insertion or array elimination with
    // order determination enhances effectiveness.
    let array = total(Variant::Array);
    let array_order = total(Variant::ArrayOrder);
    let all = total(Variant::All);
    assert!(array_order <= array, "array+order {array_order} <= array {array}");
    assert!(all <= array_order, "all {all} <= array+order {array_order}");
}

#[test]
fn pde_insertion_never_beats_simple() {
    // Paper: "the simple insertion algorithm is slightly better for all
    // the benchmarks" (aggregate form).
    let all = total(Variant::All);
    let pde = total(Variant::AllPde);
    assert!(all <= pde, "simple insertion {all} <= PDE {pde}");
}

#[test]
fn float_benchmarks_have_few_extensions() {
    // Fourier is float-dominated: its baseline extension *density*
    // (extensions per executed instruction) is far below the integer
    // benchmarks' (paper Table 1: 14M total vs billions).
    let density = |name: &str| {
        let w = sxe_workloads::by_name(name).expect("exists");
        let m = w.build(SIZE);
        let c = sxe_jit::Compiler::for_variant(Variant::Baseline)
            .try_compile(&m)
            .expect("compiles");
        let mut vm = sxe_vm::Vm::builder(&c.module).target(Target::Ia64).fuel(FUEL).build();
        vm.run("main", &[]).expect("no trap");
        vm.counters().extend_count(None) as f64 / vm.counters().insts as f64
    };
    let fourier = density("fourier");
    assert!(fourier < density("huffman"));
    assert!(fourier < density("compress"));
    assert!(fourier < density("numeric sort"));
}

#[test]
fn per_workload_all_never_worse_than_baseline() {
    let base = dynamic_counts(Variant::Baseline);
    let all = dynamic_counts(Variant::All);
    for ((name, b), (_, a)) in base.iter().zip(&all) {
        assert!(a <= b, "{name}: all={a} baseline={b}");
    }
}

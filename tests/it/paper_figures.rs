//! The paper's worked examples, end to end.
//!
//! * Figure 3 — the four limitations of the first algorithm;
//! * Figures 7/8 — insertion moves the accumulator's extension out of
//!   the loop;
//! * Figure 9 — order determination decides which of two extensions
//!   survives;
//! * Figure 10 — eliminability depends on the guaranteed maximum array
//!   size;
//! * Figure 15 — the PDE insertion variant misses placements the simple
//!   insertion finds.

use sxe_core::{convert_function, run_step3, GenStrategy, SxeConfig, Variant};
use sxe_ir::{parse_function, BlockId, Function, Target, Width};

/// The paper's Figure 3 program (its Figure 7 is the same loop):
///
/// ```text
/// int t = 0; int i = mem;
/// do { i = i - 1; j = a[i]; j = j & 0x0fffffff; t += j; } while (i > start);
/// d = (double) t;
/// ```
fn figure3(step: i64) -> Function {
    let src = format!(
        "func @fig3(i32, i32) -> f64 {{\n\
         b0:\n    r2 = newarray.i32 r0\n    r3 = const.i32 0\n    br b1\n\
         b1:\n    r4 = const.i32 {step}\n    r1 = sub.i32 r1, r4\n    r5 = aload.i32 r2, r1\n    r6 = const.i32 268435455\n    r5 = and.i32 r5, r6\n    r3 = add.i32 r3, r5\n    condbr gt.i32 r1, r4, b1, b2\n\
         b2:\n    r7 = i32tof64.f64 r3\n    ret r7\n}}\n"
    );
    let mut f = parse_function(&src).unwrap();
    convert_function(&mut f, Target::Ia64, GenStrategy::AfterDef);
    f
}

fn extends_in(f: &Function, b: u32) -> usize {
    f.block(BlockId(b)).insts.iter().filter(|i| i.is_extend(None)).count()
}

#[test]
fn figure3_first_algorithm_limitations() {
    // The first algorithm eliminates the extensions whose upper bits are
    // never demanded — (1), (5), (7) in the paper — but must keep the
    // array-index extension (3) and the in-loop accumulator extension (9).
    let mut f = figure3(1);
    let generated = f.count_extends(None);
    run_step3(&mut f, &SxeConfig::for_variant(Variant::FirstAlgorithm), None);
    let remaining = f.count_extends(None);
    assert!(remaining < generated, "some extensions eliminated");
    // Limitation 1: the index extension is still in the loop.
    // Limitation 4: the accumulator extension is still in the loop.
    assert_eq!(extends_in(&f, 1), 2, "index + accumulator stay in the loop:\n{f}");
}

#[test]
fn figure8_new_algorithm_cleans_the_loop() {
    // Figure 8(b): with insertion + order + array analysis, the loop
    // holds no extensions; one remains after the loop for (double)t.
    let mut f = figure3(1);
    run_step3(&mut f, &SxeConfig::for_variant(Variant::All), None);
    assert_eq!(extends_in(&f, 1), 0, "loop body clean:\n{f}");
    assert_eq!(extends_in(&f, 2), 1, "one extension before the i2d:\n{f}");
}

#[test]
fn figure8_insertion_required_for_loop_exit_motion() {
    // Without insertion ("array, order"), the accumulator's extension
    // cannot move out of the loop: the extension-free placement after
    // the loop does not exist yet.
    let mut f = figure3(1);
    run_step3(&mut f, &SxeConfig::for_variant(Variant::ArrayOrder), None);
    assert!(
        extends_in(&f, 1) >= 1,
        "without insertion the accumulator extension stays in the loop:\n{f}"
    );
}

#[test]
fn figure9_order_determination_picks_the_loop_extension() {
    // i = j + k; do { i = i + 1; a[i] = 0; } while (i < end);
    // (The fragment must not return `i`: a narrow return value would
    // itself require an extension and pin the in-loop one.)
    let src = "func @fig9(i32, i32, i32) -> i32 {\n\
         b0:\n    r3 = newarray.i32 r0\n    r4 = add.i32 r1, r2\n    br b1\n\
         b1:\n    r5 = const.i32 1\n    r4 = add.i32 r4, r5\n    r6 = const.i32 0\n    astore.i32 r3, r4, r6\n    condbr lt.i32 r4, r0, b1, b2\n\
         b2:\n    r7 = const.i32 7\n    ret r7\n}\n";
    // With order determination (Result 1): the loop extension goes, the
    // entry extension stays.
    let mut f = parse_function(src).unwrap();
    convert_function(&mut f, Target::Ia64, GenStrategy::AfterDef);
    run_step3(&mut f, &SxeConfig::for_variant(Variant::ArrayOrder), None);
    assert_eq!(extends_in(&f, 1), 0, "Result 1: loop extension eliminated:\n{f}");
    assert_eq!(extends_in(&f, 0), 1, "Result 1: entry extension kept:\n{f}");

    // Without order determination exactly one extension also survives —
    // which one depends on the visit order (the paper's Result 2 shows
    // the bad case).
    let mut g = parse_function(src).unwrap();
    convert_function(&mut g, Target::Ia64, GenStrategy::AfterDef);
    run_step3(&mut g, &SxeConfig::for_variant(Variant::Array), None);
    assert_eq!(extends_in(&g, 0) + extends_in(&g, 1), 1, "exactly one survivor:\n{g}");
}

#[test]
fn figure10_array_size_gates_elimination() {
    // i = i - 2: with the Java maximum array size the Theorem 4 window
    // [-1, 0x7fffffff] excludes -2 and the extension stays; with maxlen
    // 0x7fff0001 the window [-65535, 0x7fffffff] admits it.
    let mut f = figure3(2);
    let mut cfg = SxeConfig::for_variant(Variant::All);
    run_step3(&mut f, &cfg, None);
    assert!(extends_in(&f, 1) >= 1, "index extension must stay with maxlen 2^31-1:\n{f}");

    let mut g = figure3(2);
    cfg.max_array_len = 0x7FFF_0001;
    run_step3(&mut g, &cfg, None);
    assert_eq!(extends_in(&g, 1), 0, "smaller maxlen admits i-2:\n{g}");
}

#[test]
fn figure15_pde_insertion_is_weaker() {
    // A value extended on no path reaches a requiring use: simple
    // insertion anticipates an extension there, PDE cannot move one in.
    let src = "func @fig15(i32, i32) -> f64 {\n\
         b0:\n    br b1\n\
         b1:\n    r2 = const.i32 1\n    r0 = add.i32 r0, r2\n    condbr gt.i32 r0, r1, b1, b2\n\
         b2:\n    r3 = i32tof64.f64 r0\n    ret r3\n}\n";
    let count_after = |variant: Variant| {
        let mut f = parse_function(src).unwrap();
        convert_function(&mut f, Target::Ia64, GenStrategy::AfterDef);
        run_step3(&mut f, &SxeConfig::for_variant(variant), None);
        (extends_in(&f, 1), extends_in(&f, 2))
    };
    let (all_loop, all_exit) = count_after(Variant::All);
    let (pde_loop, pde_exit) = count_after(Variant::AllPde);
    // Simple insertion moves the extension out of the loop entirely.
    assert_eq!((all_loop, all_exit), (0, 1), "simple insertion wins");
    // The PDE variant leaves at least as many extensions in the loop.
    assert!(pde_loop >= all_loop);
    assert!(pde_loop + pde_exit >= all_loop + all_exit);
}

#[test]
fn figure6_gen_def_beats_gen_use() {
    // Figure 6: in a loop, j = a[i]+1 feeds both (double)j and the next
    // iteration. Generating before uses pins an extension at the i2d in
    // the loop; the def-generating full pipeline does better.
    let src = "func @fig6(i32, i32) -> f64 {\n\
         b0:\n    r2 = newarray.i32 r0\n    br b1\n\
         b1:\n    r3 = aload.i32 r2, r1\n    r4 = const.i32 1\n    r3 = add.i32 r3, r4\n    r5 = i32tof64.f64 r3\n    r6 = const.i32 1\n    r1 = sub.i32 r1, r6\n    condbr gt.i32 r1, r4, b1, b2\n\
         b2:\n    ret r5\n}\n";
    let dynamic = |variant: Variant| {
        let m = sxe_ir::parse_module(src).unwrap();
        let c = sxe_jit::Compiler::for_variant(variant).try_compile(&m).expect("compiles");
        let mut vm = sxe_vm::Vm::new(&c.module, Target::Ia64);
        vm.run("fig6", &[8, 7]).expect("no trap");
        vm.counters().extend_count(Some(Width::W32))
    };
    let gen_use = dynamic(Variant::GenUse);
    let all = dynamic(Variant::All);
    assert!(
        all <= gen_use,
        "the def-generating full algorithm beats the use-generating reference: all={all} gen_use={gen_use}"
    );
}

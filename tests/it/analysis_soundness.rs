//! Analysis-soundness properties validated against real executions, via
//! the VM's block-entry hook: the static analyses' claims must hold on
//! every value the machine actually computes.

use std::cell::RefCell;
use std::rc::Rc;

use sxe_analysis::{AvailableExt, FlowRanges, Freq, UdDu};
use sxe_core::Variant;
use sxe_ir::{Cfg, DomTree, LoopForest, Reg, Target, Width};
use sxe_jit::Compiler;
use sxe_vm::oracle::observe;
use sxe_vm::{Engine, Vm};
use xelim_integration_tests::gen;

const FUEL: u64 = 500_000;

fn violations_of<F>(m: &sxe_ir::Module, watched: sxe_ir::FuncId, check: F) -> Vec<String>
where
    F: Fn(sxe_ir::BlockId, &[i64]) -> Option<String> + 'static,
{
    let viol: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&viol);
    let mut vm = Vm::builder(m)
        .target(Target::Ia64)
        .fuel(FUEL)
        .block_hook(Box::new(move |func, block, regs| {
            if func == watched {
                if let Some(msg) = check(block, regs) {
                    sink.borrow_mut().push(msg);
                }
            }
        }))
        .build();
    let _ = vm.run("main", &[]); // traps are fine; claims must hold up to them
    drop(vm); // releases the hook's Rc clone
    Rc::try_unwrap(viol).expect("sole owner").into_inner()
}

const CASES: usize = 64;

/// FlowRanges: at every block entry actually reached, each register's
/// low-32 value lies within the predicted interval.
#[test]
fn flow_ranges_bound_all_executions() {
    for (_, p) in gen::program_corpus(0xa5a5_0001, CASES) {
        let m = gen::lower(&p);
        let main = m.function_by_name("main").expect("main");
        let f = m.function(main).clone();
        let cfg = Cfg::compute(&f);
        let flow = FlowRanges::compute(&f, &cfg);
        let nregs = f.reg_count;
        let viol = violations_of(&m, main, move |b, regs| {
            for r in 0..nregs {
                let iv = flow.at_block_entry(b, Reg(r));
                let v = (regs[r as usize] as i32) as i64;
                if v < iv.lo || v > iv.hi {
                    return Some(format!(
                        "r{r} = {v} outside [{}, {}] at {b} entry",
                        iv.lo, iv.hi
                    ));
                }
            }
            None
        });
        assert!(viol.is_empty(), "{}\nprogram {:?}", viol.join("\n"), p);
    }
}

/// AvailableExt: a register claimed sign-extended (or upper-zero) at a
/// block entry is so in every execution — on the *compiled* module,
/// whose extensions the claim must survive.
#[test]
fn available_facts_hold_at_runtime() {
    for (_, p) in gen::program_corpus(0xa5a5_0002, CASES) {
        let source = gen::lower(&p);
        let compiled = Compiler::for_variant(Variant::All).try_compile(&source).expect("compiles");
        let main = compiled.module.function_by_name("main").expect("main");
        let f = compiled.module.function(main).clone();
        let cfg = Cfg::compute(&f);
        let avail = AvailableExt::compute(&f, &cfg, Target::Ia64, Width::W32);
        let nregs = f.reg_count;
        let facts: Vec<Vec<sxe_ir::ExtFacts>> = (0..f.blocks.len())
            .map(|b| {
                (0..nregs)
                    .map(|r| avail.at_block_entry(sxe_ir::BlockId(b as u32), Reg(r)))
                    .collect()
            })
            .collect();
        let viol = violations_of(&compiled.module, main, move |b, regs| {
            for r in 0..nregs as usize {
                let fa = facts[b.index()][r];
                let v = regs[r];
                if fa.sign_extended && v != (v as i32) as i64 {
                    return Some(format!("r{r} = {v:#x} not sign-extended at {b}"));
                }
                if fa.upper_zero && v != ((v as u32) as i64) {
                    return Some(format!("r{r} = {v:#x} not upper-zero at {b}"));
                }
            }
            None
        });
        assert!(viol.is_empty(), "{}\nprogram {:?}", viol.join("\n"), p);
    }
}

/// The UD/DU chains' incremental maintenance across a full
/// elimination equals recomputation from scratch.
#[test]
fn chains_incremental_equals_recompute() {
    for (_, p) in gen::program_corpus(0xa5a5_0003, CASES) {
        let source = gen::lower(&p);
        let main = source.function_by_name("main").expect("main");
        let mut f = source.function(main).clone();
        sxe_core::convert_function(&mut f, Target::Ia64, sxe_core::GenStrategy::AfterDef);
        let cfg = Cfg::compute(&f);
        let mut udu = UdDu::compute(&f, &cfg);
        // Remove every in-place extension through the incremental path.
        let exts: Vec<sxe_ir::InstId> = f
            .insts()
            .filter_map(|(id, i)| match i {
                sxe_ir::Inst::Extend { dst, src, .. } if dst == src => Some(id),
                _ => None,
            })
            .collect();
        for id in exts {
            udu.remove_transparent_def(&f, id);
            f.delete_inst(id);
        }
        let fresh = UdDu::compute(&f, &cfg);
        assert_eq!(udu.edges(), fresh.edges());
    }
}

/// Static frequency estimation ranks loop bodies above straight-line
/// code whenever the program has a loop — and profile counts agree
/// with actual execution.
#[test]
fn profile_counts_match_execution() {
    for (_, p) in gen::program_corpus(0xa5a5_0004, CASES) {
        let m = gen::lower(&p);
        let mut vm = Vm::builder(&m).target(Target::Ia64).fuel(FUEL).profile(true).build();
        if vm.run("main", &[]).is_err() {
            // Trapping programs still produce a (partial) profile, but
            // the invariants below are about completed runs.
            continue;
        }
        let main = m.function_by_name("main").expect("main");
        let counts = vm.profile_counts(main).unwrap().to_vec();
        // Entry executes exactly once.
        assert_eq!(counts[0], 1);
        let fr = Freq::from_counts(&counts);
        let f = m.function(main);
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(&cfg);
        let loops = LoopForest::compute(&cfg, &dom);
        // Every block inside a loop with trip count > 1 must have run at
        // least as often as the entry when reached at all.
        for b in f.block_ids() {
            if loops.depth(b) > 0 && fr.of(b) > 0.0 {
                assert!(fr.of(b) >= 1.0);
            }
        }
    }
}

/// `shr.i32` reads the whole register. On both paths into `b3` the
/// shifted value is a 64-bit constant whose upper word is not the sign
/// of its low word, so nothing bounds the shift's result by its low-32
/// operand: the array-theorem variants must keep the extension the
/// `add` needs before `i32tof64`, and return what the baseline returns.
const FULL_REGISTER_SHR: &str = "\
func @main() -> f64 {
b0:
    r7 = const.i32 1
    r8 = newarray.i32 r7
    r9 = const.i32 0
    r11 = aload.i32 r8, r9
    condbr gt.i32 r11, r9, b1, b2
b1:
    r0 = const.i64 1095216660485
    br b3
b2:
    r0 = const.i64 1095216660484
    br b3
b3:
    r1 = const.i32 8
    r2 = shr.i32 r0, r1
    r3 = const.i32 2147483647
    r4 = and.i32 r2, r3
    r5 = add.i32 r4, r3
    r6 = i32tof64.f64 r5
    ret r6
}
";

#[test]
fn full_register_shift_of_a_non_canonical_join_keeps_its_extension() {
    let m = sxe_ir::parse_module(FULL_REGISTER_SHR).expect("parses");
    for target in Target::ALL {
        let result = |variant: Variant| {
            let compiler = Compiler::builder(variant).target(target).build();
            let compiled = compiler.try_compile(&m).expect("compiles");
            observe(&compiled.module, target, Engine::Decoded, FUEL, "main", &[]).result
        };
        let baseline = result(Variant::Baseline);
        for variant in [Variant::Array, Variant::All] {
            assert_eq!(result(variant), baseline, "{variant} on {target}");
        }
    }
}

/// One case of the full-register-read sweep: an `i64` join of `lo` and
/// `hi`, read by `op.ty` with constant right operand `rhs`, optionally
/// masked, then added to `i32::MAX` and converted to `f64` (the add and
/// the conversion are what need the extension).
fn full_register_read_module(
    op: &str,
    ty: &str,
    join: [i64; 2],
    rhs: i64,
    mask: Option<i64>,
) -> String {
    let masked = mask.map_or(String::new(), |m| {
        format!("    r5 = const.i32 {m}\n    r4 = and.i32 r4, r5\n")
    });
    format!(
        "func @main(i32, i32) -> f64 {{\n\
         b0:\n    condbr gt.i32 r0, r1, b1, b2\n\
         b1:\n    r2 = const.i64 {}\n    br b3\n\
         b2:\n    r2 = const.i64 {}\n    br b3\n\
         b3:\n    r3 = const.i32 {rhs}\n    r4 = {op}.{ty} r2, r3\n{masked}\
         \x20   r6 = const.i32 2147483647\n    r7 = add.i32 r4, r6\n\
         \x20   r8 = i32tof64.f64 r7\n    ret r8\n}}\n",
        join[0], join[1],
    )
}

/// A 64-bit value whose upper word is not the sign of its low word: a
/// small low word under a random upper word that is neither 0 nor -1.
fn non_canonical(rng: &mut sxe_ir::rng::XorShift) -> i64 {
    let low = rng.range_i64(-64, 64) as u32;
    let high = loop {
        let h = rng.next_u64() as u32;
        if h != 0 && h != u32::MAX {
            break h;
        }
    };
    ((u64::from(high) << 32) | u64::from(low)) as i64
}

/// Seeded sweep over the shape behind the range-walk miscompile, which
/// the fuzz generator does not build: a full-register `shr`/`div`/`rem`
/// at `i8`/`i16`/`i32` of an `i64` join whose upper word is not the
/// sign of its low word, with and without a mask. Every variant must
/// agree with `baseline` on every target.
#[test]
fn full_register_reads_of_non_canonical_joins_match_baseline() {
    let mut rng = sxe_ir::rng::XorShift::new(0x5eed_f011);
    let oracle = sxe_vm::OracleConfig::new().runs(4).fuel(FUEL);
    for op in ["shr", "div", "rem"] {
        for ty in ["i8", "i16", "i32"] {
            for masked in [false, true] {
                let join = [non_canonical(&mut rng), non_canonical(&mut rng)];
                let rhs = match op {
                    "shr" => rng.range_i64(1, 31),
                    _ => rng.range_i64(2, 1 << 12) * if rng.flip() { 1 } else { -1 },
                };
                let mask = masked.then(|| rng.range_i64(1, i64::from(i32::MAX)));
                let text = full_register_read_module(op, ty, join, rhs, mask);
                let m = sxe_ir::parse_module(&text).expect("parses");
                for target in Target::ALL {
                    let compile = |variant: Variant| {
                        let compiler = Compiler::builder(variant).target(target).build();
                        compiler.try_compile(&m).expect("compiles").module
                    };
                    let baseline = compile(Variant::Baseline);
                    for variant in Variant::ALL {
                        let compiled = compile(variant);
                        if let Err(e) =
                            sxe_vm::differential_check(&baseline, &compiled, target, &oracle)
                        {
                            panic!("{variant} on {target} disagrees with baseline: {e}\n{text}");
                        }
                    }
                }
            }
        }
    }
}

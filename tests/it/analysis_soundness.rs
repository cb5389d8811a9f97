//! Analysis-soundness properties validated against real executions, via
//! the VM's block-entry hook: the static analyses' claims must hold on
//! every value the machine actually computes.

use std::cell::RefCell;
use std::rc::Rc;

use sxe_analysis::{AvailableExt, FlowRanges, Freq, UdDu};
use sxe_core::Variant;
use sxe_ir::{Cfg, DomTree, LoopForest, Reg, Target, Width};
use sxe_jit::Compiler;
use sxe_vm::Vm;
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

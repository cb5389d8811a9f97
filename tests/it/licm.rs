//! LICM's fixpoint-per-loop driver against the round-per-loop driver it
//! replaced (`licm::run_per_loop`, the test oracle): on generated
//! functions, raw and after the scalar passes that precede LICM in a
//! round, on generated functions rewritten so that loops need a fresh
//! preheader, and on every paper kernel after step 1 for every target,
//! both drivers must hoist the same instructions into the same places.

use sxe_analysis::AnalysisCache;
use sxe_core::{convert_module, GenStrategy};
use sxe_fuzz::{generate_module, module_seed, GenConfig};
use sxe_ir::{verify_function, Cond, Function, Inst, Target, Ty};
use sxe_opt::{licm, Pass};

/// Run both drivers on copies of `f`; the printed functions and the
/// returned counts must match. Returns the count and how many blocks
/// LICM added (one per created preheader).
fn assert_drivers_agree(f: &Function, what: &str) -> (usize, usize) {
    let mut fast = f.clone();
    let mut oracle = f.clone();
    let n = licm::run(&mut fast, &mut AnalysisCache::new());
    let m = licm::run_per_loop(&mut oracle, &mut AnalysisCache::new());
    assert_eq!(fast.to_string(), oracle.to_string(), "{what}: hoisted differently\n{f}");
    assert_eq!(n, m, "{what}: hoist counts differ");
    (n, fast.blocks.len() - f.blocks.len())
}

#[test]
fn fixpoint_driver_matches_round_per_loop_oracle_on_generated_functions() {
    let config = GenConfig { max_funcs: 4, max_stmts: 12, max_depth: 3 };
    let passes = [Pass::Copyprop, Pass::Constfold, Pass::Simplify, Pass::Cse];
    let mut hoisted = 0;
    for index in 0..200 {
        let seed = module_seed(0x11c3_0019, index);
        for f in &generate_module(seed, &config).functions {
            hoisted += assert_drivers_agree(f, &format!("raw {} of seed {seed:#x}", f.name)).0;
            let mut g = f.clone();
            for p in passes {
                p.run_cached(&mut g, &mut AnalysisCache::new(), Target::Ia64);
            }
            hoisted += assert_drivers_agree(&g, &format!("opt {} of seed {seed:#x}", f.name)).0;
        }
    }
    assert!(hoisted > 0, "the sweep must hoist something");
}

/// Rewrite every second `br b` of `f` into `condbr eq r0, r0, b, b`,
/// when its first parameter `r0` is an `i32`. The generator's loop
/// headers each have a single outside predecessor that branches only
/// to them, so LICM never creates a preheader on its output; a header
/// reached by such a branch needs one.
fn double_every_second_branch(f: &mut Function) {
    let Some(&(p, Ty::I32)) = f.params.first() else { return };
    let branches = f.blocks.iter_mut().filter_map(|b| match b.insts.last_mut() {
        Some(br @ Inst::Br { .. }) => Some(br),
        _ => None,
    });
    for br in branches.skip(1).step_by(2) {
        let Inst::Br { target } = *br else { unreachable!() };
        *br = Inst::CondBr {
            cond: Cond::Eq,
            ty: Ty::I32,
            lhs: p,
            rhs: p,
            then_bb: target,
            else_bb: target,
        };
    }
}

#[test]
fn fixpoint_driver_matches_round_per_loop_oracle_when_preheaders_are_created() {
    let config = GenConfig { max_funcs: 4, max_stmts: 12, max_depth: 3 };
    let (mut hoisted, mut created) = (0, 0);
    for index in 0..200 {
        let seed = module_seed(0x11c3_0119, index);
        for mut f in generate_module(seed, &config).functions {
            double_every_second_branch(&mut f);
            verify_function(&f).expect("a two-way branch to one block is valid");
            let (n, c) = assert_drivers_agree(&f, &format!("{} of seed {seed:#x}", f.name));
            hoisted += n;
            created += c;
        }
    }
    assert!(hoisted > 0 && created > 0, "the sweep must create preheaders");
}

#[test]
fn fixpoint_driver_matches_round_per_loop_oracle_on_kernels_after_step_one() {
    let mut hoisted = 0;
    for w in sxe_workloads::all() {
        for target in Target::ALL {
            let mut m = w.build_default();
            convert_module(&mut m, target, GenStrategy::AfterDef);
            for f in &m.functions {
                hoisted += assert_drivers_agree(f, &format!("{} {} on {target}", w.name, f.name)).0;
            }
        }
    }
    assert!(hoisted > 0, "the kernels must hoist something");
}

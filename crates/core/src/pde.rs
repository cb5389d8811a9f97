//! The partial-dead-code-elimination (PDE) insertion variant
//! ("all, using PDE" in Tables 1–2).
//!
//! "This algorithm inserts a sign extension at the latest point on every
//! possible path where each sign extension can be reached when it is
//! moved forward in the control flow graph." (paper §2.1)
//!
//! Concretely: an extension is inserted before a requiring use of `r`
//! only if some *existing* extension of `r` reaches that point with no
//! intervening redefinition — it is a forward *motion* of existing
//! extensions, not a fresh anticipation. Figure 15 shows the resulting
//! drawback: uses not reached by any existing extension get nothing,
//! which is why the simple insertion measures slightly better.

use sxe_analysis::{AvailableExt, BitSet};
use sxe_analysis::dataflow::{solve, Direction, GenKillProblem, Meet};
use sxe_ir::{BlockId, Cfg, DomTree, Function, Inst, LoopForest, Reg, Target, Width};

use crate::convert::infer_kinds;
use crate::insertion::{run_insertion, InsertionStats};

/// Run the PDE-variant insertion.
///
/// # Panics
/// Panics if register kinds cannot be inferred.
pub fn pde_insertion(f: &mut Function, target: Target, loops_only: bool) -> InsertionStats {
    let cfg = Cfg::compute(f);
    let dom = DomTree::compute(&cfg);
    let loops = LoopForest::compute(&cfg, &dom);
    let insert_real = !loops_only || loops.has_loops();
    let kinds = infer_kinds(f).expect("register kinds must be consistent");
    let avail = AvailableExt::compute_inherent(f, &cfg, target, Width::W32);

    // Forward may-analysis: an Extend of r reaches this point without an
    // intervening (non-extend) redefinition of r.
    let nregs = f.reg_count as usize;
    let nblocks = f.blocks.len();
    let mut gen = vec![BitSet::new(nregs); nblocks];
    let mut kill = vec![BitSet::new(nregs); nblocks];
    for b in f.block_ids() {
        let bi = b.index();
        for inst in &f.block(b).insts {
            if let Some(d) = inst.dst() {
                match inst {
                    Inst::Extend { .. } => {
                        kill[bi].remove(d.index());
                        gen[bi].insert(d.index());
                    }
                    _ => {
                        gen[bi].remove(d.index());
                        kill[bi].insert(d.index());
                    }
                }
            }
        }
    }
    let sol = solve(
        &cfg,
        &GenKillProblem {
            direction: Direction::Forward,
            meet: Meet::Union,
            universe: nregs,
            gen,
            kill,
            boundary: BitSet::new(nregs),
        },
    );

    // The reach state before an instruction is decided by the last def
    // of the register earlier in its block (an extension gens, any other
    // def kills), or by the block's IN set when there is none. Record
    // each instruction's def once, in one flat table, and answer
    // queries by walking back from the query point.
    let def = |inst: &Inst| inst.dst().map(|d| (d, matches!(inst, Inst::Extend { .. })));
    let mut block_start = Vec::with_capacity(nblocks);
    let mut defs: Vec<Option<(Reg, bool)>> = Vec::new();
    for blk in &f.blocks {
        block_start.push(defs.len());
        defs.extend(blk.insts.iter().map(def));
    }
    let block_in = sol.block_in;
    let may_reach = move |b: BlockId, idx: usize, r: Reg| -> bool {
        let start = block_start[b.index()];
        let last_def = defs[start..start + idx].iter().rev().flatten().find(|&&(d, _)| d == r);
        match last_def {
            Some(&(_, is_extend)) => is_extend,
            None => block_in[b.index()].contains(r.index()),
        }
    };
    run_insertion(f, target, &kinds, &avail, insert_real, Some(&may_reach))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{parse_function, BlockId};

    #[test]
    fn inserts_where_extension_reaches() {
        // An extend of r0 exists in the loop; the use after the loop is
        // reached by it: PDE inserts there like the simple algorithm.
        let mut f = parse_function(
            "func @f(i32, i32) -> f64 {\n\
             b0:\n    br b1\n\
             b1:\n    r2 = const.i32 1\n    r0 = sub.i32 r0, r2\n    r0 = extend.32 r0\n    condbr gt.i32 r0, r1, b1, b2\n\
             b2:\n    r3 = i32tof64.f64 r0\n    ret r3\n}\n",
        )
        .unwrap();
        let stats = pde_insertion(&mut f, Target::Ia64, true);
        assert_eq!(stats.inserted, 1);
        assert!(f.block(BlockId(2)).insts[0].is_extend(None));
    }

    #[test]
    fn does_not_insert_where_no_extension_reaches() {
        // Figure 15's drawback: the use of r0 is not reached by any
        // existing extension of r0 (its most recent definition is an
        // unextended add), so PDE inserts nothing while the simple
        // algorithm would insert.
        let src = "func @f(i32, i32) -> f64 {\n\
             b0:\n    br b1\n\
             b1:\n    r2 = const.i32 1\n    r0 = add.i32 r0, r2\n    condbr gt.i32 r0, r1, b1, b2\n\
             b2:\n    r3 = i32tof64.f64 r0\n    ret r3\n}\n";
        let mut f = parse_function(src).unwrap();
        let stats = pde_insertion(&mut f, Target::Ia64, true);
        assert_eq!(stats.inserted, 0);

        let mut f2 = parse_function(src).unwrap();
        let simple = crate::insertion::simple_insertion(&mut f2, Target::Ia64, true);
        assert_eq!(simple.inserted, 1, "simple insertion is more aggressive");
    }

    #[test]
    fn pde_does_not_insert_dummies_itself() {
        // Dummy markers come from `insert_dummies`, shared by all
        // chain-based variants.
        let mut f = parse_function(
            "func @f(i32, i32) -> i32 {\n\
             b0:\n    r2 = newarray.i32 r0\n    r3 = aload.i32 r2, r1\n    ret r3\n}\n",
        )
        .unwrap();
        let stats = pde_insertion(&mut f, Target::Ia64, false);
        assert_eq!(stats.dummies, 0);
        assert_eq!(crate::insertion::insert_dummies(&mut f, Target::Ia64), 1);
    }
}

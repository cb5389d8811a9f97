//! Loop-invariant code motion.
//!
//! Moves pure, loop-invariant computations — including loop-invariant sign
//! extensions, the paper's step-2 PRE effect — into a preheader. Because
//! the IR is not in SSA form the pass checks the classical conditions:
//!
//! 1. the instruction is pure (no side effects, cannot trap);
//! 2. none of its operands has a definition inside the loop;
//! 3. it is the only definition of its destination inside the loop;
//! 4. its block dominates every use of the destination inside the loop
//!    (with intra-block ordering for same-block uses);
//! 5. for every exit edge `u -> v`, either its block dominates `u` or the
//!    destination is not live into `v`.

use std::collections::HashMap;

use sxe_analysis::{AnalysisCache, Liveness};
use sxe_ir::{BlockId, Cfg, DomTree, Function, Inst, InstId, LoopForest, Reg};

/// Hoist loop-invariant instructions; returns the number moved. The CFG
/// and liveness of each round come from `cache`. Only the first round
/// can be served facts an earlier pass left valid: every round that
/// hoists changes the body, so each later round, the final
/// nothing-to-hoist one included, recomputes both.
pub fn run(f: &mut Function, cache: &mut AnalysisCache) -> usize {
    let mut total = 0;
    // Each round hoists out of one loop and then recomputes all analyses;
    // the in-loop instruction count strictly decreases, so this
    // terminates.
    loop {
        let cfg = cache.cfg(f);
        let live = cache.liveness(f);
        let moved = hoist_one_loop(f, &cfg, &live);
        if moved == 0 {
            return total;
        }
        total += moved;
    }
}

fn hoist_one_loop(f: &mut Function, cfg: &Cfg, live: &Liveness) -> usize {
    let dom = DomTree::compute(cfg);
    let forest = LoopForest::compute(cfg, &dom);

    // Innermost first.
    let mut order: Vec<usize> = (0..forest.loops.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(forest.loops[i].depth));

    for li in order {
        let l = &forest.loops[li];
        if l.blocks.contains(&f.entry()) {
            continue; // cannot place a preheader before the entry
        }
        // Definitions inside the loop, per register.
        let mut defs_in: HashMap<Reg, u32> = HashMap::new();
        for &b in &l.blocks {
            for inst in &f.block(b).insts {
                if let Some(d) = inst.dst() {
                    *defs_in.entry(d).or_insert(0) += 1;
                }
            }
        }
        // Uses inside the loop, per register.
        let mut uses_in: HashMap<Reg, Vec<InstId>> = HashMap::new();
        for &b in &l.blocks {
            for (i, inst) in f.block(b).insts.iter().enumerate() {
                for u in inst.uses() {
                    uses_in.entry(u).or_default().push(InstId::new(b, i));
                }
            }
        }
        // Exit edges.
        let mut exits: Vec<(BlockId, BlockId)> = Vec::new();
        for &b in &l.blocks {
            for &s in cfg.succs(b) {
                if !l.blocks.contains(&s) {
                    exits.push((b, s));
                }
            }
        }

        let mut candidates: Vec<InstId> = Vec::new();
        for &b in &l.blocks {
            for (i, inst) in f.block(b).insts.iter().enumerate() {
                let id = InstId::new(b, i);
                if matches!(inst, Inst::Nop | Inst::JustExtended { .. })
                    || inst.is_terminator()
                    || inst.has_side_effect()
                {
                    continue;
                }
                let Some(d) = inst.dst() else { continue };
                if defs_in.get(&d) != Some(&1) {
                    continue;
                }
                if inst.uses().iter().any(|u| defs_in.contains_key(u)) {
                    continue;
                }
                let dominates_all_uses = uses_in.get(&d).is_none_or(|us| {
                    us.iter().all(|&u| {
                        if u.block == b {
                            u.index > id.index
                        } else {
                            dom.dominates(b, u.block)
                        }
                    })
                });
                if !dominates_all_uses {
                    continue;
                }
                let exits_ok = exits.iter().all(|&(u, v)| {
                    dom.dominates(b, u) || !live.live_in(v).contains(d.index())
                });
                if !exits_ok {
                    continue;
                }
                candidates.push(id);
            }
        }
        if candidates.is_empty() {
            continue;
        }

        let header = l.header;
        let loop_blocks = l.blocks.clone();
        let outside_preds: Vec<BlockId> = cfg
            .preds(header)
            .iter()
            .copied()
            .filter(|p| !loop_blocks.contains(p))
            .collect();

        // Find or create the preheader.
        let preheader = if outside_preds.len() == 1
            && f.block(outside_preds[0]).successors() == vec![header]
        {
            outside_preds[0]
        } else {
            let ph = f.new_block();
            f.block_mut(ph).insts.push(Inst::Br { target: header });
            for p in outside_preds {
                let term = f
                    .block_mut(p)
                    .insts
                    .last_mut()
                    .expect("terminated block");
                retarget(term, header, ph);
            }
            ph
        };

        // Move the candidates, preserving their relative program order.
        let mut moved = 0;
        for id in candidates {
            let inst = f.delete_inst(id);
            let ph_insts = &mut f.block_mut(preheader).insts;
            let at = ph_insts.len() - 1; // before the terminator
            ph_insts.insert(at, inst);
            moved += 1;
        }
        return moved;
    }
    0
}

fn retarget(term: &mut Inst, from: BlockId, to: BlockId) {
    match term {
        Inst::Br { target } if *target == from => *target = to,
        Inst::CondBr { then_bb, else_bb, .. } => {
            if *then_bb == from {
                *then_bb = to;
            }
            if *else_bb == from {
                *else_bb = to;
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{parse_function, verify_function};

    #[test]
    fn hoists_invariant_extend() {
        // r1 = extend(r0) inside the loop with r0 invariant: hoisted.
        let mut f = parse_function(
            "func @f(i32, i32) -> i64 {\n\
             b0:\n    br b1\n\
             b1:\n    r2 = extend.32 r0\n    r1 = add.i64 r1, r2\n    r3 = const.i32 1\n    r1 = sub.i64 r1, r3\n    condbr gt.i32 r1, r3, b1, b2\n\
             b2:\n    ret r1\n}\n",
        )
        .unwrap();
        let n = run(&mut f, &mut AnalysisCache::new());
        assert!(n >= 1, "extend should be hoisted");
        verify_function(&f).unwrap();
        // The loop body must no longer contain the extend.
        let in_loop: usize = f.block(BlockId(1)).insts.iter().filter(|i| i.is_extend(None)).count();
        assert_eq!(in_loop, 0);
        assert_eq!(f.count_extends(None), 1);
    }

    #[test]
    fn does_not_hoist_variant() {
        // r0 is redefined in the loop: its extend is variant.
        let mut f = parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    br b1\n\
             b1:\n    r1 = const.i32 1\n    r0 = sub.i32 r0, r1\n    r0 = extend.32 r0\n    condbr gt.i32 r0, r1, b1, b2\n\
             b2:\n    ret r0\n}\n",
        )
        .unwrap();
        run(&mut f, &mut AnalysisCache::new());
        // The constants may hoist, but the variant extend must stay put.
        assert!(f.block(BlockId(1)).insts.iter().any(|i| i.is_extend(None)));
    }

    #[test]
    fn does_not_hoist_past_live_exit() {
        // r2 defined in a conditional arm of the loop and live after the
        // loop: the def does not dominate the exit, must stay.
        let mut f = parse_function(
            "func @f(i32, i32) -> i64 {\n\
             b0:\n    br b1\n\
             b1:\n    condbr gt.i32 r0, r1, b2, b3\n\
             b2:\n    r2 = extend.32 r1\n    br b3\n\
             b3:\n    r4 = const.i32 1\n    r0 = sub.i32 r0, r4\n    condbr gt.i32 r0, r4, b1, b4\n\
             b4:\n    ret r2\n}\n",
        )
        .unwrap();
        run(&mut f, &mut AnalysisCache::new());
        assert!(
            f.block(BlockId(2)).insts.iter().any(|i| i.is_extend(None)),
            "must not hoist: def doesn't dominate exit and r2 is live"
        );
    }

    #[test]
    fn does_not_hoist_trapping_ops() {
        let mut f = parse_function(
            "func @f(i32, i32) -> i32 {\n\
             b0:\n    br b1\n\
             b1:\n    r2 = div.i32 r0, r1\n    r3 = const.i32 1\n    r0 = sub.i32 r0, r3\n    condbr gt.i32 r0, r3, b1, b2\n\
             b2:\n    ret r2\n}\n",
        )
        .unwrap();
        // Division may trap, so it is excluded as side-effecting even
        // though its operands are invariant.
        run(&mut f, &mut AnalysisCache::new());
        use sxe_ir::BinOp;
        assert!(f
            .block(BlockId(1))
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Bin { op: BinOp::Div, .. })));
    }

    #[test]
    fn creates_preheader_when_needed() {
        // Two outside predecessors of the header: a fresh preheader block
        // must be created.
        let mut f = parse_function(
            "func @f(i32, i32) -> i64 {\n\
             b0:\n    condbr gt.i32 r0, r1, b1, b2\n\
             b1:\n    br b3\n\
             b2:\n    br b3\n\
             b3:\n    r2 = extend.32 r1\n    r4 = const.i32 1\n    r0 = sub.i32 r0, r4\n    condbr gt.i32 r0, r4, b3, b4\n\
             b4:\n    ret r2\n}\n",
        )
        .unwrap();
        let before = f.blocks.len();
        let n = run(&mut f, &mut AnalysisCache::new());
        assert!(n >= 1);
        assert_eq!(f.blocks.len(), before + 1, "preheader appended");
        verify_function(&f).unwrap();
        // The extend now lives in the new preheader.
        let ph = BlockId(before as u32);
        assert!(f.block(ph).insts.iter().any(|i| i.is_extend(None)));
    }

    #[test]
    fn nested_loops_hoist_to_outer() {
        let mut f = parse_function(
            "func @f(i32, i32, i32) -> i64 {\n\
             b0:\n    r3 = const.i64 0\n    br b1\n\
             b1:\n    condbr gt.i32 r0, r1, b2, b5\n\
             b2:\n    br b3\n\
             b3:\n    r3 = extend.32 r2\n    r4 = const.i32 1\n    r1 = add.i32 r1, r4\n    condbr lt.i32 r1, r0, b3, b4\n\
             b4:\n    r5 = const.i32 1\n    r0 = sub.i32 r0, r5\n    br b1\n\
             b5:\n    ret r3\n}\n",
        )
        .unwrap();
        let n = run(&mut f, &mut AnalysisCache::new());
        assert!(n >= 1);
        verify_function(&f).unwrap();
        // The extend left the inner loop body.
        assert!(!f.block(BlockId(3)).insts.iter().any(|i| i.is_extend(None)));
    }
}

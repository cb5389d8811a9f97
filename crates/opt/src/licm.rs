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
//!
//! One *wave* hoists every instruction of one loop that meets them, in
//! program order. [`run`] repeats waves on each loop, innermost first,
//! until a wave hoists nothing, on one set of analyses; it rebuilds them
//! only after a wave that created a preheader block.

use std::sync::Arc;

use sxe_analysis::{AnalysisCache, Liveness};
use sxe_ir::{BlockId, Cfg, DomTree, Function, Inst, InstId, Loop, LoopForest, Reg};

/// Hoist loop-invariant instructions; returns the number moved.
///
/// CFG and liveness come from `cache`; they, the dominator tree and the
/// loop forest are built once, and again only after a wave that created
/// a preheader, when the walk restarts at the innermost loop of the new
/// forest. Within one set of analyses, each loop `L` (innermost first)
/// takes waves until one hoists nothing. This makes the same hoists in
/// the same order as [`run_per_loop`], which rebuilds everything after
/// every wave and rescans from the innermost loop:
///
/// - A hoist out of `L` into its existing preheader `P` changes no CFG
///   edge and no dominance, so the CFG, dominator tree and loop forest
///   stay exact.
/// - It changes liveness only inside `L` and at `L`'s header entry.
///   `live_in` is read only at the exit targets of a loop, and those of
///   `L` and of every loop after it in the walk lie outside `L`.
/// - No loop earlier in the walk can gain a candidate. `L`'s candidates
///   never sit in an inner loop's blocks, because such an instruction
///   would already have been a candidate of the inner loop. `P` lies in
///   no loop of equal or greater depth.
///
/// Every hoist moves an instruction to a block of smaller loop depth, so
/// this terminates.
pub fn run(f: &mut Function, cache: &mut AnalysisCache) -> usize {
    let mut total = 0;
    'rebuild: loop {
        let a = Analyses::build(f, cache);
        for l in a.innermost_first() {
            if l.blocks.contains(&f.entry()) {
                continue; // cannot place a preheader before the entry
            }
            loop {
                let candidates = candidates(f, &a, l);
                if candidates.is_empty() {
                    break;
                }
                total += candidates.len();
                if hoist(f, &a.cfg, l, &candidates) {
                    continue 'rebuild;
                }
            }
        }
        return total;
    }
}

/// The round-per-loop driver [`run`] replaced: rebuild every analysis,
/// take one wave out of the innermost loop that has a candidate, repeat
/// until no loop has one. Test oracle; add no callers.
#[doc(hidden)]
pub fn run_per_loop(f: &mut Function, cache: &mut AnalysisCache) -> usize {
    let mut total = 0;
    'round: loop {
        let a = Analyses::build(f, cache);
        for l in a.innermost_first() {
            if l.blocks.contains(&f.entry()) {
                continue;
            }
            let candidates = candidates(f, &a, l);
            if !candidates.is_empty() {
                total += candidates.len();
                hoist(f, &a.cfg, l, &candidates);
                continue 'round;
            }
        }
        return total;
    }
}

/// The analyses a wave reads.
struct Analyses {
    cfg: Arc<Cfg>,
    live: Arc<Liveness>,
    dom: DomTree,
    forest: LoopForest,
}

impl Analyses {
    fn build(f: &Function, cache: &mut AnalysisCache) -> Analyses {
        let cfg = cache.cfg(f);
        let live = cache.liveness(f);
        let dom = DomTree::compute(&cfg);
        let forest = LoopForest::compute(&cfg, &dom);
        Analyses { cfg, live, dom, forest }
    }

    /// The loops, deepest first (ties in forest order).
    fn innermost_first(&self) -> Vec<&Loop> {
        let mut order: Vec<&Loop> = self.forest.loops.iter().collect();
        order.sort_by_key(|l| std::cmp::Reverse(l.depth));
        order
    }
}

/// One wave's hoists out of `l`, in program order: every instruction
/// that meets the five conditions of the module docs.
fn candidates(f: &Function, a: &Analyses, l: &Loop) -> Vec<InstId> {
    let nregs = f.reg_count as usize;
    // Definitions inside the loop, per register.
    let mut defs_in = vec![0u32; nregs];
    for &b in &l.blocks {
        for inst in &f.block(b).insts {
            if let Some(d) = inst.dst() {
                defs_in[d.index()] += 1;
            }
        }
    }
    // Exit edges.
    let mut exits: Vec<(BlockId, BlockId)> = Vec::new();
    for &b in &l.blocks {
        for &s in a.cfg.succs(b) {
            if !l.blocks.contains(&s) {
                exits.push((b, s));
            }
        }
    }

    // Conditions 1, 2, 3 and 5; each register has at most one such def.
    let mut found: Vec<(InstId, Reg)> = Vec::new();
    let mut def_of: Vec<Option<InstId>> = vec![None; nregs];
    let mut uses = Vec::new();
    for &b in &l.blocks {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            if matches!(inst, Inst::Nop | Inst::JustExtended { .. })
                || inst.is_terminator()
                || inst.has_side_effect()
            {
                continue;
            }
            let Some(d) = inst.dst() else { continue };
            if defs_in[d.index()] != 1 {
                continue;
            }
            uses.clear();
            inst.collect_uses(&mut uses);
            if uses.iter().any(|u| defs_in[u.index()] != 0) {
                continue;
            }
            let exits_ok = exits.iter().all(|&(u, v)| {
                a.dom.dominates(b, u) || !a.live.live_in(v).contains(d.index())
            });
            if !exits_ok {
                continue;
            }
            let id = InstId::new(b, i);
            def_of[d.index()] = Some(id);
            found.push((id, d));
        }
    }
    if found.is_empty() {
        return Vec::new();
    }
    // Condition 4: drop a def that some use inside the loop does not
    // come after.
    for &b in &l.blocks {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            let at = InstId::new(b, i);
            uses.clear();
            inst.collect_uses(&mut uses);
            for u in &uses {
                if let Some(def) = def_of[u.index()] {
                    let dominated = if def.block == b {
                        at.index > def.index
                    } else {
                        a.dom.dominates(def.block, b)
                    };
                    if !dominated {
                        def_of[u.index()] = None;
                    }
                }
            }
        }
    }
    found.into_iter().filter(|&(_, d)| def_of[d.index()].is_some()).map(|(id, _)| id).collect()
}

/// Move `candidates` (in program order) out of `l` to the end of its
/// preheader. Returns whether the preheader had to be created: the
/// header had no single outside predecessor branching only to it.
fn hoist(f: &mut Function, cfg: &Cfg, l: &Loop, candidates: &[InstId]) -> bool {
    let header = l.header;
    let outside_preds: Vec<BlockId> =
        cfg.preds(header).iter().copied().filter(|p| !l.blocks.contains(p)).collect();

    // Find or create the preheader.
    let created = !(outside_preds.len() == 1
        && f.block(outside_preds[0]).successors() == vec![header]);
    let preheader = if created {
        let ph = f.new_block();
        f.block_mut(ph).insts.push(Inst::Br { target: header });
        for p in outside_preds {
            let term = f.block_mut(p).insts.last_mut().expect("terminated block");
            retarget(term, header, ph);
        }
        ph
    } else {
        outside_preds[0]
    };

    // Move the candidates, preserving their relative program order.
    for &id in candidates {
        let inst = f.delete_inst(id);
        let ph_insts = &mut f.block_mut(preheader).insts;
        let at = ph_insts.len() - 1; // before the terminator
        ph_insts.insert(at, inst);
    }
    created
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

    /// Both loops of this nest lack a preheader: each header has two
    /// outside predecessors. `r3 -> r4` is an invariant chain of both.
    const NEST: &str = "func @f(i32, i32, i32) -> i32 {\n\
         b0:\n    condbr gt.i32 r0, r1, b1, b2\n\
         b1:\n    br b3\n\
         b2:\n    br b3\n\
         b3:\n    condbr gt.i32 r0, r1, b4, b8\n\
         b4:\n    condbr gt.i32 r0, r2, b5, b6\n\
         b5:\n    br b6\n\
         b6:\n    r3 = add.i32 r2, r2\n    r4 = mul.i32 r3, r3\n    r5 = const.i32 1\n    r1 = sub.i32 r1, r5\n    condbr gt.i32 r1, r5, b6, b7\n\
         b7:\n    r6 = const.i32 1\n    r0 = sub.i32 r0, r6\n    br b3\n\
         b8:\n    ret r0\n}\n";

    #[test]
    fn rebuilds_after_creating_a_preheader() {
        // Wave 1 creates the inner preheader b9 and moves r3 and r5
        // there. Only a rebuild shows b9 as the inner loop's preheader
        // for wave 2 (r4) and as part of the outer loop, from which all
        // four invariants then leave into the created outer preheader
        // b10.
        let mut f = parse_function(NEST).unwrap();
        let mut cache = AnalysisCache::new();
        assert_eq!(run(&mut f, &mut cache), 7);
        verify_function(&f).unwrap();
        let text = |b: u32| sxe_ir::block_to_string(f.block(BlockId(b)));
        // Hoisting leaves `nop` tombstones behind.
        assert_eq!(text(9), "    nop\n    nop\n    nop\n    br b6\n");
        assert_eq!(
            text(10),
            "    r6 = const.i32 1\n    r3 = add.i32 r2, r2\n    r5 = const.i32 1\n    r4 = mul.i32 r3, r3\n    br b3\n"
        );
        assert_eq!(f.blocks.len(), 11);
        // One CFG and one liveness per analysis build: the first, and
        // one after each created preheader.
        assert_eq!(cache.misses(), 2 * 3);

        let mut oracle = parse_function(NEST).unwrap();
        assert_eq!(run_per_loop(&mut oracle, &mut AnalysisCache::new()), 7);
        assert_eq!(oracle.to_string(), f.to_string());
    }

    /// A loop whose preheader `b0` exists, holding a `depth`-long chain
    /// of invariant adds (each one's operand is the previous one's
    /// result), so that every wave hoists one link.
    fn chain(depth: u32) -> Function {
        let mut text = String::from("func @f(i32, i32) -> i32 {\nb0:\n    br b1\nb1:\n");
        for r in 2..2 + depth {
            let prev = if r == 2 { 0 } else { r - 1 };
            text += &format!("    r{r} = add.i32 r{prev}, r0\n");
        }
        let last = 1 + depth;
        text += &format!(
            "    r1 = sub.i32 r1, r0\n    condbr gt.i32 r1, r0, b1, b2\nb2:\n    ret r{last}\n}}\n"
        );
        parse_function(&text).unwrap()
    }

    #[test]
    fn one_analysis_build_whatever_the_chain_depth() {
        for depth in [1, 8] {
            let mut f = chain(depth);
            let mut cache = AnalysisCache::new();
            assert_eq!(run(&mut f, &mut cache), depth as usize);
            assert_eq!(cache.misses(), 2, "one CFG and one liveness, depth {depth}");

            // The oracle rebuilds after each of its `depth` waves and for
            // its final, empty round.
            let mut oracle = chain(depth);
            let mut cache = AnalysisCache::new();
            run_per_loop(&mut oracle, &mut cache);
            assert_eq!(cache.misses(), 2 * (u64::from(depth) + 1));
            assert_eq!(oracle.to_string(), f.to_string());
        }
    }
}

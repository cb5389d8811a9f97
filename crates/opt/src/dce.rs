//! Dead-code elimination based on liveness.

use sxe_analysis::{AnalysisCache, BitSet, Liveness};
use sxe_ir::{Cfg, Function, Inst, Reg};

/// Delete pure instructions whose destination is dead; returns the number
/// removed. Iterates to a fixed point (removing one dead instruction can
/// kill another). The CFG and liveness of each round come from `cache`:
/// on a memoizing cache, a function already clean when the pass starts
/// recomputes nothing.
pub fn run(f: &mut Function, cache: &mut AnalysisCache) -> usize {
    let mut total = 0;
    loop {
        let cfg = cache.cfg(f);
        let live = cache.liveness(f);
        let n = sweep(f, &cfg, &live);
        if n == 0 {
            break;
        }
        total += n;
    }
    f.compact();
    total
}

fn sweep(f: &mut Function, cfg: &Cfg, live: &Liveness) -> usize {
    let mut removed = 0;
    let mut uses: Vec<Reg> = Vec::new();
    for b in f.block_ids().collect::<Vec<_>>() {
        if !cfg.is_reachable(b) {
            // Unreachable code is trivially dead (keep the terminator so
            // the block stays structurally valid).
            let blk = f.block_mut(b);
            for inst in blk.insts.iter_mut() {
                if !inst.is_terminator() && !matches!(inst, Inst::Nop) {
                    *inst = Inst::Nop;
                    removed += 1;
                }
            }
            continue;
        }
        let mut live_set: BitSet = live.live_out(b).clone();
        // Walk backward deciding liveness at each instruction.
        let blk = f.block_mut(b);
        for inst in blk.insts.iter_mut().rev() {
            if matches!(inst, Inst::Nop) {
                continue;
            }
            let dead = match inst.dst() {
                Some(d) => !live_set.contains(d.index()),
                None => false,
            };
            if dead && !inst.has_side_effect() && !inst.is_terminator() {
                *inst = Inst::Nop;
                removed += 1;
                continue;
            }
            if let Some(d) = inst.dst() {
                live_set.remove(d.index());
            }
            uses.clear();
            inst.collect_uses(&mut uses);
            for u in &uses {
                live_set.insert(u.index());
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::parse_function;

    #[test]
    fn removes_dead_chain() {
        let mut f = parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 3\n    r2 = add.i32 r1, r1\n    r3 = extend.32 r2\n    ret r0\n}\n",
        )
        .unwrap();
        assert_eq!(run(&mut f, &mut AnalysisCache::new()), 3);
        assert_eq!(f.inst_count(), 1);
    }

    #[test]
    fn keeps_side_effects() {
        let mut f = parse_function(
            "func @f(i32, i32) -> i32 {\n\
             b0:\n    r2 = div.i32 r0, r1\n    r3 = newarray.i32 r0\n    ret r0\n}\n",
        )
        .unwrap();
        assert_eq!(run(&mut f, &mut AnalysisCache::new()), 0);
        assert_eq!(f.inst_count(), 3);
    }

    #[test]
    fn keeps_live_loop_values() {
        let mut f = parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 0\n    br b1\n\
             b1:\n    r2 = const.i32 1\n    r1 = add.i32 r1, r2\n    r0 = sub.i32 r0, r2\n    condbr gt.i32 r0, r2, b1, b2\n\
             b2:\n    ret r1\n}\n",
        )
        .unwrap();
        assert_eq!(run(&mut f, &mut AnalysisCache::new()), 0);
    }

    #[test]
    fn clears_unreachable_blocks() {
        let mut f = parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    ret r0\n\
             b1:\n    r1 = const.i32 5\n    r2 = add.i32 r1, r1\n    ret r2\n}\n",
        )
        .unwrap();
        assert_eq!(run(&mut f, &mut AnalysisCache::new()), 2);
    }

    #[test]
    fn dead_in_place_extend_removed() {
        let mut f = parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = copy.i32 r0\n    r1 = extend.32 r1\n    ret r0\n}\n",
        )
        .unwrap();
        assert_eq!(run(&mut f, &mut AnalysisCache::new()), 2);
        assert_eq!(f.count_extends(None), 0);
    }
}

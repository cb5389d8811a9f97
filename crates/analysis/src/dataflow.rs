//! A generic iterative bit-vector dataflow solver.
//!
//! Both directions are supported; transfer functions are supplied as
//! per-block gen/kill sets, the classic formulation used for reaching
//! definitions and liveness.

use sxe_ir::{BlockId, Cfg};

use crate::bitset::BitSet;

/// Direction of a dataflow problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Information flows from predecessors to successors.
    Forward,
    /// Information flows from successors to predecessors.
    Backward,
}

/// How facts from multiple incoming edges are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meet {
    /// Union ("may" problems: reaching definitions, liveness).
    Union,
    /// Intersection ("must" problems: available expressions).
    Intersection,
}

/// A gen/kill dataflow problem over bit vectors.
#[derive(Debug)]
pub struct GenKillProblem {
    /// Direction of propagation.
    pub direction: Direction,
    /// Edge meet operator.
    pub meet: Meet,
    /// Universe size of the bit vectors.
    pub universe: usize,
    /// Per-block generated facts.
    pub gen: Vec<BitSet>,
    /// Per-block killed facts.
    pub kill: Vec<BitSet>,
    /// Facts at the boundary (entry for forward, exits for backward).
    pub boundary: BitSet,
}

/// The fixed-point solution: facts at block entry and exit.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Facts at the entry of each block.
    pub block_in: Vec<BitSet>,
    /// Facts at the exit of each block.
    pub block_out: Vec<BitSet>,
}

/// Solve a gen/kill problem to its fixed point with a worklist.
///
/// For [`Meet::Intersection`] problems the interior blocks are initialized
/// to the full set (optimistic), which yields the greatest fixed point.
///
/// # Panics
/// Panics if the gen/kill vectors do not match the CFG block count.
#[must_use]
pub fn solve(cfg: &Cfg, problem: &GenKillProblem) -> Solution {
    let n = cfg.num_blocks();
    assert_eq!(problem.gen.len(), n, "gen sets per block");
    assert_eq!(problem.kill.len(), n, "kill sets per block");
    let full = || {
        let mut s = BitSet::new(problem.universe);
        for i in 0..problem.universe {
            s.insert(i);
        }
        s
    };
    let empty = || BitSet::new(problem.universe);

    // in_[b] is the input facts (block entry for forward, block exit for
    // backward); out[b] is the transferred result.
    let init = match problem.meet {
        Meet::Union => empty(),
        Meet::Intersection => full(),
    };
    let mut input: Vec<BitSet> = vec![init.clone(); n];
    let mut output: Vec<BitSet> = vec![init.clone(); n];

    // Process in an order that converges quickly.
    let order: Vec<BlockId> = match problem.direction {
        Direction::Forward => cfg.rpo().to_vec(),
        Direction::Backward => {
            let mut v = cfg.rpo().to_vec();
            v.reverse();
            v
        }
    };

    // Apply boundary conditions.
    let is_boundary = |b: BlockId| match problem.direction {
        Direction::Forward => cfg.rpo().first() == Some(&b),
        Direction::Backward => cfg.succs(b).is_empty(),
    };

    // One scratch pair serves every visit: a visit that changes a block
    // swaps its fresh sets in and takes the stale ones as scratch.
    let mut new_in = empty();
    let mut new_out = empty();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            // Meet over incoming edges.
            let incoming = match problem.direction {
                Direction::Forward => cfg.preds(b),
                Direction::Backward => cfg.succs(b),
            };
            new_in.copy_from(if is_boundary(b) { &problem.boundary } else { &init });
            for p in incoming {
                match problem.meet {
                    Meet::Union => {
                        new_in.union_with(&output[p.index()]);
                    }
                    Meet::Intersection => {
                        new_in.intersect_with(&output[p.index()]);
                    }
                }
            }
            // Transfer: out = gen ∪ (in − kill).
            new_out.copy_from(&new_in);
            new_out.subtract(&problem.kill[b.index()]);
            new_out.union_with(&problem.gen[b.index()]);
            if new_in != input[b.index()] || new_out != output[b.index()] {
                std::mem::swap(&mut input[b.index()], &mut new_in);
                std::mem::swap(&mut output[b.index()], &mut new_out);
                changed = true;
            }
        }
    }

    match problem.direction {
        Direction::Forward => Solution { block_in: input, block_out: output },
        Direction::Backward => Solution { block_in: output, block_out: input },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{BinOp, Cond, FunctionBuilder, Ty};

    /// Reaching-defs style smoke test on a loop:
    /// entry(def0) -> head -> body(def1) -> head; head -> exit.
    #[test]
    fn forward_union_loop() {
        let mut fb = FunctionBuilder::new("f", vec![Ty::I32], None);
        let x = fb.param(0);
        let zero = fb.iconst(Ty::I32, 0);
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(head);
        fb.switch_to(head);
        fb.cond_br(Cond::Gt, Ty::I32, x, zero, body, exit);
        fb.switch_to(body);
        let one = fb.iconst(Ty::I32, 1);
        fb.bin_to(BinOp::Sub, Ty::I32, x, x, one);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::compute(&f);

        // Universe: {0 = def of x in entry (param), 1 = def of x in body}.
        let mut gen = vec![BitSet::new(2); 4];
        let mut kill = vec![BitSet::new(2); 4];
        gen[0].insert(0);
        kill[0].insert(1);
        gen[2].insert(1);
        kill[2].insert(0);
        let sol = solve(
            &cfg,
            &GenKillProblem {
                direction: Direction::Forward,
                meet: Meet::Union,
                universe: 2,
                gen,
                kill,
                boundary: BitSet::new(2),
            },
        );
        // At the loop head both defs reach.
        assert_eq!(sol.block_in[1].iter().collect::<Vec<_>>(), vec![0, 1]);
        // At the body entry both reach; at its exit only def 1.
        assert_eq!(sol.block_out[2].iter().collect::<Vec<_>>(), vec![1]);
        // At exit both reach.
        assert_eq!(sol.block_in[3].iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    /// Liveness-style backward test on a diamond.
    #[test]
    fn backward_union_diamond() {
        let mut fb = FunctionBuilder::new("f", vec![Ty::I32, Ty::I32], Some(Ty::I32));
        let a = fb.param(0);
        let b = fb.param(1);
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        let zero = fb.iconst(Ty::I32, 0);
        fb.cond_br(Cond::Lt, Ty::I32, a, zero, t, e);
        fb.switch_to(t);
        fb.br(j);
        fb.switch_to(e);
        fb.copy_to(Ty::I32, a, b);
        fb.br(j);
        fb.switch_to(j);
        fb.ret(Some(a));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);

        // Universe: {0 = a live, 1 = b live}.
        let n = cfg.num_blocks();
        let mut gen = vec![BitSet::new(2); n];
        let mut kill = vec![BitSet::new(2); n];
        // join block uses a.
        gen[3].insert(0);
        // else block uses b, then defines a.
        gen[2].insert(1);
        kill[2].insert(0);
        // entry uses a (branch cond).
        gen[0].insert(0);
        let sol = solve(
            &cfg,
            &GenKillProblem {
                direction: Direction::Backward,
                meet: Meet::Union,
                universe: 2,
                gen,
                kill,
                boundary: BitSet::new(2),
            },
        );
        // a is live into then-block; b is live into else-block (a is not,
        // since else redefines it before the join's use).
        assert!(sol.block_in[1].contains(0));
        assert!(sol.block_in[2].contains(1));
        assert!(!sol.block_in[2].contains(0));
        // Into the entry both a (cond) and b (via else path) are live.
        assert!(sol.block_in[0].contains(0));
        assert!(sol.block_in[0].contains(1));
    }
}

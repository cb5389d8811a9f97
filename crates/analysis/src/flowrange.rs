//! Flow-sensitive symbolic range propagation (the paper's reference [4],
//! Blume & Eigenmann) with branch refinement.
//!
//! A forward abstract interpretation over [`Interval`]s of the **low 32
//! bits as `i32`** of every register, with:
//!
//! * per-instruction transfer functions, with [`binop_range`] for
//!   binary operations;
//! * refinement on conditional edges: after `if (i < n)` the true edge
//!   knows `i <= n.hi - 1` — which is what bounds loop induction
//!   variables (`for (i = 0; i < n; i++)` gives `i ∈ [0, n-1]` in the
//!   body);
//! * widening after a bounded number of visits per block, so the
//!   fixpoint terminates quickly.
//!
//! This is the crate's one range analysis. It carries no extension
//! facts, so operations that read the *full* register (`div`, `rem`,
//! `shr`, 64-bit `shru`) produce TOP: their low-32 result depends on
//! upper bits an interval does not describe, whenever an operand is not
//! sign-extended at that def. The eliminator, which knows extension
//! facts, applies [`binop_range`]'s rules for them one def deep.
//!
//! Soundness note: intervals describe low-32 values, which no
//! sign-extension instruction changes — so a state computed once remains
//! valid while extensions are inserted or deleted.

use sxe_ir::{Cfg, Cond, Function, Inst, Reg, Ty, UnOp};

use crate::range::{binop_range, Interval};

/// Per-block-entry intervals for every register.
#[derive(Debug, Clone)]
pub struct FlowRanges {
    entry: Vec<Vec<Interval>>,
}

/// How many times a block may be revisited before widening kicks in.
const WIDEN_AFTER: u32 = 3;

impl FlowRanges {
    /// Compute the analysis for `f`.
    #[must_use]
    pub fn compute(f: &Function, cfg: &Cfg) -> FlowRanges {
        let nregs = f.reg_count as usize;
        let nblocks = f.blocks.len();
        // Registers start at 0 (machine zero-initialization); parameters
        // are unknown.
        let mut entry_state = vec![Interval::constant(0); nregs];
        for &(r, _) in &f.params {
            entry_state[r.index()] = Interval::TOP;
        }

        // `None` = unreached so far (bottom).
        let mut entry: Vec<Option<Vec<Interval>>> = vec![None; nblocks];
        entry[0] = Some(entry_state);
        let mut visits = vec![0u32; nblocks];
        // Widening points: back-edge targets (loop headers). Widening at
        // arbitrary joins would wipe out edge refinements.
        let mut is_header = vec![false; nblocks];
        for b in f.block_ids() {
            if let Some(bi) = cfg.rpo_index(b) {
                for &s2 in cfg.succs(b) {
                    if cfg.rpo_index(s2).is_some_and(|si| si <= bi) {
                        is_header[s2.index()] = true;
                    }
                }
            }
        }

        let mut work: Vec<usize> = vec![0];
        while let Some(bi) = work.pop() {
            let state = entry[bi].clone().expect("queued blocks are reached");
            // Transfer through the block, then propagate along each edge
            // with branch refinement.
            let mut out = state;
            let b = sxe_ir::BlockId(bi as u32);
            for inst in &f.block(b).insts {
                transfer(inst, &mut out);
            }
            let term = f.block(b).insts.last();
            for &succ in cfg.succs(b).iter() {
                let mut edge_state = out.clone();
                if let Some(Inst::CondBr { cond, ty, lhs, rhs, then_bb, else_bb }) = term {
                    if *ty != Ty::F64 && *ty != Ty::I64 {
                        let taken = if succ == *then_bb { Some(*cond) } else { None };
                        let not_taken =
                            if succ == *else_bb { Some(cond.negated()) } else { None };
                        // (When then == else, both apply; refine with the
                        // taken sense only — conservative.)
                        if let Some(c) = taken.or(not_taken) {
                            refine(&mut edge_state, c, *lhs, *rhs);
                        }
                    }
                }
                let si = succ.index();
                let changed = match &mut entry[si] {
                    None => {
                        entry[si] = Some(edge_state);
                        true
                    }
                    Some(cur) => {
                        let mut any = false;
                        for (c, n) in cur.iter_mut().zip(&edge_state) {
                            let joined = c.join(*n);
                            let widened = if is_header[si] && visits[si] >= WIDEN_AFTER {
                                widen(*c, joined)
                            } else {
                                joined
                            };
                            if widened != *c {
                                *c = widened;
                                any = true;
                            }
                        }
                        any
                    }
                };
                if changed {
                    visits[si] += 1;
                    if !work.contains(&si) {
                        work.push(si);
                    }
                }
            }
        }

        FlowRanges {
            entry: entry
                .into_iter()
                .map(|s| s.unwrap_or_else(|| vec![Interval::TOP; nregs]))
                .collect(),
        }
    }

    /// Interval of `r` at the entry of block `b`.
    #[must_use]
    pub fn at_block_entry(&self, b: sxe_ir::BlockId, r: Reg) -> Interval {
        self.entry[b.index()][r.index()]
    }

    /// Materialize the per-instruction states of one block:
    /// `result[i][r]` is the interval of register `r` immediately before
    /// instruction `i`.
    ///
    /// Deleting or inserting sign extensions does not change low-32
    /// values, so one materialization remains valid across an entire
    /// elimination run.
    #[must_use]
    pub fn materialize_block(&self, f: &Function, b: sxe_ir::BlockId) -> Vec<Vec<Interval>> {
        let mut state = self.entry[b.index()].clone();
        let insts = &f.block(b).insts;
        let mut per_inst = Vec::with_capacity(insts.len());
        for inst in insts {
            per_inst.push(state.clone());
            transfer(inst, &mut state);
        }
        per_inst
    }
}

/// Widening thresholds (absolute magnitudes). Jumping to the next rung
/// instead of straight to ±∞ keeps a growing bound *below* the i32
/// overflow point long enough for branch refinements elsewhere in the
/// loop nest to stabilize the system — otherwise an incremented
/// already-widened counter wraps to TOP and poisons every lower bound it
/// joins with.
const RUNGS: [i64; 6] = [
    0xFF,
    0xFFFF,
    1 << 24,
    (1 << 30) - 1,
    i32::MAX as i64 - 1,
    i32::MAX as i64,
];

fn widen(old: Interval, new: Interval) -> Interval {
    let hi = if new.hi > old.hi {
        RUNGS
            .iter()
            .copied()
            .find(|&t| t >= new.hi)
            .unwrap_or(i32::MAX as i64)
    } else {
        new.hi
    };
    let lo = if new.lo < old.lo {
        RUNGS
            .iter()
            .copied()
            .find(|&t| -t <= new.lo)
            .map(|t| -t)
            .unwrap_or(i32::MIN as i64)
            .max(i32::MIN as i64)
    } else {
        new.lo
    };
    Interval { lo, hi }
}

/// Intersect `i` with the half-line demanded by `cond` against `bound`.
fn apply_signed(i: Interval, cond: Cond, bound: Interval) -> Interval {
    let (lo, hi) = match cond {
        Cond::Lt => (i.lo, i.hi.min(bound.hi - 1)),
        Cond::Le => (i.lo, i.hi.min(bound.hi)),
        Cond::Gt => (i.lo.max(bound.lo + 1), i.hi),
        Cond::Ge => (i.lo.max(bound.lo), i.hi),
        Cond::Eq => (i.lo.max(bound.lo), i.hi.min(bound.hi)),
        // Ne and the unsigned conditions carry no convex information
        // usable here (unsigned compares see a different order).
        _ => (i.lo, i.hi),
    };
    if lo > hi {
        // Contradiction: the edge is unreachable for these values; any
        // sound answer works, keep it tight.
        Interval { lo, hi: lo }
    } else {
        Interval { lo, hi }
    }
}

fn refine(state: &mut [Interval], cond: Cond, lhs: Reg, rhs: Reg) {
    let l = state[lhs.index()];
    let r = state[rhs.index()];
    state[lhs.index()] = apply_signed(l, cond, r);
    state[rhs.index()] = apply_signed(r, cond.swapped(), l);
}

/// Per-instruction interval transfer (low-32 semantics).
fn transfer(inst: &Inst, state: &mut [Interval]) {
    let get = |state: &[Interval], r: Reg| state[r.index()];
    let set = |state: &mut [Interval], r: Reg, v: Interval| state[r.index()] = v;
    match *inst {
        Inst::Const { dst, value, .. } => set(state, dst, Interval::constant(value as i32)),
        Inst::Copy { dst, src, ty } if ty != Ty::F64 => {
            let v = get(state, src);
            set(state, dst, v);
        }
        Inst::Extend { dst, src, from } | Inst::JustExtended { dst, src, from } => {
            let v = match from.bits() {
                32 => get(state, src),
                16 => Interval::new(i16::MIN as i64, i16::MAX as i64),
                _ => Interval::new(i8::MIN as i64, i8::MAX as i64),
            };
            set(state, dst, v);
        }
        Inst::Setcc { dst, .. } => set(state, dst, Interval::new(0, 1)),
        Inst::ArrayLen { dst, .. } => set(state, dst, Interval::new(0, i32::MAX as i64)),
        Inst::ArrayLoad { dst, elem, .. } => {
            let v = match elem {
                Ty::I8 => Interval::new(i8::MIN as i64, i8::MAX as i64),
                Ty::I16 => Interval::new(i16::MIN as i64, i16::MAX as i64),
                _ => Interval::TOP,
            };
            set(state, dst, v);
        }
        Inst::Un { op, ty, dst, src } => {
            let s = get(state, src);
            let v = match op {
                UnOp::Zext(w) => match w.bits() {
                    8 => Interval::new(0, 0xFF),
                    16 => Interval::new(0, 0xFFFF),
                    _ => s,
                },
                UnOp::Neg if ty != Ty::F64 => {
                    if s.lo == i32::MIN as i64 {
                        Interval::TOP
                    } else {
                        Interval::new((-s.hi).max(i32::MIN as i64), (-s.lo).min(i32::MAX as i64))
                    }
                }
                UnOp::Not if ty != Ty::F64 => {
                    Interval::new(
                        (-s.hi - 1).max(i32::MIN as i64),
                        (-s.lo - 1).min(i32::MAX as i64),
                    )
                }
                _ => Interval::TOP,
            };
            set(state, dst, v);
        }
        Inst::Bin { op, ty, dst, lhs, rhs } if ty != Ty::F64 => {
            // Div/Rem/Shr (and 64-bit Shru) read the FULL register: their
            // low-32 result depends on upper bits this analysis does not
            // track, so [`binop_range`]'s rules for them are valid only
            // when the operands are sign-extended at this def — a fact
            // the flow analysis cannot provide. Stay at TOP here; the
            // eliminator applies those rules one def deep, under its own
            // operand-extension guard.
            use sxe_ir::BinOp;
            let full_register_read = matches!(op, BinOp::Div | BinOp::Rem | BinOp::Shr)
                || (op == BinOp::Shru && ty == Ty::I64);
            let v = if full_register_read {
                Interval::TOP
            } else {
                binop_range(op, ty, get(state, lhs), get(state, rhs))
            };
            set(state, dst, v);
        }
        _ => {
            if let Some(d) = inst.dst() {
                set(state, d, Interval::TOP);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{parse_function, BlockId};

    fn ranges(src: &str) -> (Function, FlowRanges) {
        let f = parse_function(src).unwrap();
        let cfg = Cfg::compute(&f);
        let fr = FlowRanges::compute(&f, &cfg);
        (f, fr)
    }

    #[test]
    fn counted_loop_bounds_induction_variable() {
        // for (i = 0; i < 100; i++) body(i)
        let (f, fr) = ranges(
            "func @f() -> i32 {\n\
             b0:\n    r0 = const.i32 0\n    r1 = const.i32 100\n    br b1\n\
             b1:\n    condbr lt.i32 r0, r1, b2, b3\n\
             b2:\n    r2 = const.i32 1\n    r0 = add.i32 r0, r2\n    br b1\n\
             b3:\n    ret r0\n}\n",
        );
        let _ = f;
        // In the body, i ∈ [0, 99].
        assert_eq!(fr.at_block_entry(BlockId(2), sxe_ir::Reg(0)), Interval::new(0, 99));
        // At the exit, i >= 100 (and bounded by the increment: 100).
        let exit = fr.at_block_entry(BlockId(3), sxe_ir::Reg(0));
        assert!(exit.lo >= 100, "{exit:?}");
    }

    #[test]
    fn countdown_loop_bounds() {
        // for (i = n; i > 0; i--) with n unknown: body knows i >= 1.
        let (_, fr) = ranges(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 0\n    br b1\n\
             b1:\n    condbr gt.i32 r0, r1, b2, b3\n\
             b2:\n    r2 = const.i32 1\n    r0 = sub.i32 r0, r2\n    br b1\n\
             b3:\n    ret r0\n}\n",
        );
        let body = fr.at_block_entry(BlockId(2), sxe_ir::Reg(0));
        assert!(body.lo >= 1, "{body:?}");
    }

    #[test]
    fn widening_terminates_and_is_sound() {
        // An unbounded accumulator: must reach TOP-ish, not hang.
        let (_, fr) = ranges(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 0\n    br b1\n\
             b1:\n    r2 = const.i32 3\n    r1 = add.i32 r1, r2\n    condbr lt.i32 r1, r0, b1, b2\n\
             b2:\n    ret r1\n}\n",
        );
        let h = fr.at_block_entry(BlockId(1), sxe_ir::Reg(1));
        // The accumulator is unbounded: the upper bound must climb the
        // widening ladder to (at least) i32::MAX - 1 — the point is
        // termination with a sound bound.
        assert!(h.hi >= i32::MAX as i64 - 1, "{h:?}");
    }

    #[test]
    fn zero_initialized_locals() {
        let (_, fr) = ranges(
            "func @f(i32) -> i32 {\n\
             b0:\n    ret r1\n}\n",
        );
        assert_eq!(fr.at_block_entry(BlockId(0), sxe_ir::Reg(1)), Interval::constant(0));
        assert!(fr.at_block_entry(BlockId(0), sxe_ir::Reg(0)).is_top());
    }

    #[test]
    fn materialize_block_walks_the_block() {
        let (f, fr) = ranges(
            "func @f() -> i32 {\n\
             b0:\n    r0 = const.i32 5\n    r1 = add.i32 r0, r0\n    ret r1\n}\n",
        );
        let st = fr.materialize_block(&f, BlockId(0));
        assert_eq!(st.len(), 3);
        assert_eq!(st[0][1], Interval::constant(0));
        assert_eq!(st[1][0], Interval::constant(5));
        assert_eq!(st[2][1], Interval::constant(10));
    }

    #[test]
    fn unsigned_conditions_ignored() {
        // ult must not produce signed bounds.
        let (_, fr) = ranges(
            "func @f(i32, i32) -> i32 {\n\
             b0:\n    condbr ult.i32 r0, r1, b1, b2\n\
             b1:\n    ret r0\n\
             b2:\n    ret r1\n}\n",
        );
        assert!(fr.at_block_entry(BlockId(1), sxe_ir::Reg(0)).is_top());
    }
}

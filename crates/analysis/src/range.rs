//! Value intervals and the binary-operation transfer rules.
//!
//! The paper's array-subscript theorems (§3) "depend on knowledge of the
//! value range, which can be determined at compile time using one of the
//! value range analysis techniques [4, 7]". An [`Interval`] bounds the
//! **low 32 bits of a register interpreted as an `i32`** — exactly the
//! quantity the theorems constrain (`LS(e)`, `0 <= j <= 0x7fffffff`,
//! `-1 <= i`), since for a sign-extended operand the low-32 value *is*
//! the full value.
//!
//! [`FlowRanges`](crate::FlowRanges) is the one analysis that computes
//! them; [`binop_range`] is its transfer rule for binary operations, and
//! the eliminator reuses it for the one rule that needs extension facts.

use sxe_ir::{BinOp, Ty};

/// An inclusive interval of `i32` values (stored as `i64` for convenient
/// arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: i64,
    /// Upper bound (inclusive).
    pub hi: i64,
}

impl Interval {
    /// The full signed 32-bit range (the analysis "don't know" value).
    pub const TOP: Interval = Interval { lo: i32::MIN as i64, hi: i32::MAX as i64 };

    /// A singleton interval.
    #[must_use]
    pub fn constant(v: i32) -> Interval {
        Interval { lo: v as i64, hi: v as i64 }
    }

    /// An interval from bounds, clamped to the `i32` range.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn new(lo: i64, hi: i64) -> Interval {
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Interval {
            lo: lo.max(i32::MIN as i64),
            hi: hi.min(i32::MAX as i64),
        }
    }

    /// Whether every value in the interval is within `[min, max]`.
    #[must_use]
    pub fn within(self, min: i64, max: i64) -> bool {
        min <= self.lo && self.hi <= max
    }

    /// Whether the interval is the full `i32` range.
    #[must_use]
    pub fn is_top(self) -> bool {
        self == Interval::TOP
    }

    /// Union (convex hull).
    #[must_use]
    pub fn join(self, other: Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Intersection. An empty intersection (contradictory facts — the
    /// program point is unreachable for those values) collapses to a
    /// singleton, which is sound for every consumer here.
    #[must_use]
    pub fn intersect(self, other: Interval) -> Interval {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo > hi {
            Interval { lo, hi: lo }
        } else {
            Interval { lo, hi }
        }
    }

    /// Whether every value is non-negative.
    #[must_use]
    pub fn is_nonneg(self) -> bool {
        self.lo >= 0
    }

    fn from_checked(lo: i64, hi: i64) -> Interval {
        if lo < i32::MIN as i64 || hi > i32::MAX as i64 || lo > hi {
            // The 32-bit result may have wrapped; give up.
            Interval::TOP
        } else {
            Interval { lo, hi }
        }
    }
}

/// Interval transfer function for a binary operation on low-32 values.
///
/// For I64 operations the low 32 bits can wrap arbitrarily relative
/// to the 64-bit value except when the bounds stay in i32 range, in
/// which case the math below is still exact — so the same rules
/// apply (`from_checked` returns TOP otherwise).
///
/// **Contract for full-register ops**: the rules for `Div`, `Rem`, and
/// `Shr` describe the result only when the machine's *full-register*
/// inputs equal the low-32 values the intervals bound, i.e. when both
/// operands are sign-extended — at the def itself, not only where the
/// query starts. [`crate::FlowRanges`] tracks no extension facts and
/// leaves such a def at TOP; the eliminator applies these rules one def
/// deep, after `operand_facts` proves that def's operands extended.
#[must_use]
pub fn binop_range(op: BinOp, ty: Ty, l: Interval, r: Interval) -> Interval {
    {
        let _ = ty;
        match op {
            BinOp::Add => Interval::from_checked(l.lo + r.lo, l.hi + r.hi),
            BinOp::Sub => Interval::from_checked(l.lo - r.hi, l.hi - r.lo),
            BinOp::Mul => {
                let cands = [l.lo * r.lo, l.lo * r.hi, l.hi * r.lo, l.hi * r.hi];
                let lo = cands.iter().copied().min().expect("non-empty");
                let hi = cands.iter().copied().max().expect("non-empty");
                Interval::from_checked(lo, hi)
            }
            BinOp::And => {
                if l.is_nonneg() && r.is_nonneg() {
                    Interval::new(0, l.hi.min(r.hi))
                } else if l.is_nonneg() {
                    Interval::new(0, l.hi)
                } else if r.is_nonneg() {
                    Interval::new(0, r.hi)
                } else {
                    Interval::TOP
                }
            }
            BinOp::Or | BinOp::Xor => {
                if l.is_nonneg() && r.is_nonneg() {
                    // Both below 2^k for the smallest covering mask.
                    let mask = fill_ones(l.hi as u64 | r.hi as u64) as i64;
                    Interval::new(0, mask.min(i32::MAX as i64))
                } else {
                    Interval::TOP
                }
            }
            BinOp::Shl => {
                if let Some(s) = singleton(r).filter(|&s| (0..=31).contains(&s)) {
                    if l.is_nonneg() {
                        Interval::from_checked(l.lo << s, l.hi << s)
                    } else {
                        Interval::TOP
                    }
                } else {
                    Interval::TOP
                }
            }
            BinOp::Shr => {
                if let Some(s) = singleton(r).filter(|&s| (0..=31).contains(&s)) {
                    Interval::new(l.lo >> s, l.hi >> s)
                } else if l.is_nonneg() {
                    // Arithmetic shift of a non-negative value stays in
                    // [0, hi] for any amount in 0..=31.
                    Interval::new(0, l.hi)
                } else {
                    Interval::TOP
                }
            }
            BinOp::Shru => {
                if let Some(s) = singleton(r).filter(|&s| (1..=31).contains(&s)) {
                    if l.is_nonneg() {
                        Interval::new(l.lo >> s, l.hi >> s)
                    } else {
                        // Low 32 bits as u32, shifted: bounded by 2^(32-s)-1.
                        Interval::new(0, (u32::MAX as i64) >> s)
                    }
                } else if singleton(r) == Some(0) {
                    l
                } else if l.is_nonneg() {
                    Interval::new(0, l.hi)
                } else {
                    Interval::TOP
                }
            }
            BinOp::Div => {
                if let Some(c) = singleton(r).filter(|&c| c > 0) {
                    Interval::new(l.lo / c, l.hi / c)
                } else {
                    Interval::TOP
                }
            }
            BinOp::Rem => {
                if let Some(c) = singleton(r).filter(|&c| c != 0) {
                    let m = c.abs() - 1;
                    if l.is_nonneg() {
                        Interval::new(0, m)
                    } else {
                        Interval::new(-m, m)
                    }
                } else {
                    Interval::TOP
                }
            }
        }
    }
}

fn singleton(i: Interval) -> Option<i64> {
    (i.lo == i.hi).then_some(i.lo)
}

/// Smallest all-ones mask covering `v` (e.g. `0b1010 -> 0b1111`).
fn fill_ones(mut v: u64) -> u64 {
    v |= v >> 1;
    v |= v >> 2;
    v |= v >> 4;
    v |= v >> 8;
    v |= v >> 16;
    v |= v >> 32;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowRanges;
    use sxe_ir::{parse_function, BlockId, Cfg};

    const I32: Ty = Ty::I32;

    /// Interval of `r` immediately before instruction `i` of block `b`,
    /// as the flow analysis computes it.
    fn flow_at(src: &str, b: u32, i: usize, r: u32) -> Interval {
        let f = parse_function(src).unwrap();
        let flow = FlowRanges::compute(&f, &Cfg::compute(&f));
        flow.materialize_block(&f, BlockId(b))[i][r as usize]
    }

    #[test]
    fn constants_and_masks() {
        // x & 0x0fffffff with x unknown: [0, 0x0fffffff] — paper Figure 3 (6).
        let r = binop_range(BinOp::And, I32, Interval::TOP, Interval::constant(0x0FFF_FFFF));
        assert_eq!(r, Interval::new(0, 0x0FFF_FFFF));
        assert!(r.is_nonneg());
        let masked = flow_at(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 268435455\n    r2 = and.i32 r0, r1\n    ret r2\n}\n",
            0,
            2,
            2,
        );
        assert_eq!(masked, r);
    }

    #[test]
    fn add_of_bounded_values() {
        let r = binop_range(BinOp::Add, I32, Interval::constant(10), Interval::constant(-3));
        assert_eq!(r, Interval::constant(7));
    }

    #[test]
    fn overflow_goes_top() {
        let max = Interval::constant(i32::MAX);
        assert!(binop_range(BinOp::Add, I32, max, Interval::constant(1)).is_top());
        assert!(binop_range(BinOp::Mul, I32, max, Interval::constant(2)).is_top());
        assert!(binop_range(BinOp::Sub, I32, Interval::constant(i32::MIN), Interval::constant(1))
            .is_top());
    }

    #[test]
    fn loop_carried_is_top_but_mask_recovers() {
        // i decremented in a loop from an unknown start: top; but
        // i & 0xff after: [0, 255].
        let src = "func @f(i32) -> i32 {\n\
             b0:\n    br b1\n\
             b1:\n    r1 = const.i32 1\n    r0 = sub.i32 r0, r1\n    r2 = const.i32 255\n    r3 = and.i32 r0, r2\n    condbr gt.i32 r0, r1, b1, b2\n\
             b2:\n    ret r3\n}\n";
        assert!(flow_at(src, 1, 4, 0).is_top());
        assert_eq!(flow_at(src, 2, 0, 3), Interval::new(0, 255));
    }

    #[test]
    fn join_over_two_defs() {
        let src = "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 5\n    condbr gt.i32 r0, r1, b1, b2\n\
             b1:\n    r2 = const.i32 10\n    br b3\n\
             b2:\n    r2 = const.i32 -4\n    br b3\n\
             b3:\n    ret r2\n}\n";
        assert_eq!(flow_at(src, 3, 0, 2), Interval::new(-4, 10));
    }

    #[test]
    fn shifts_and_div() {
        // ((x & 255) << 2) / 2 >>> 2, one rule at a time.
        let c2 = Interval::constant(2);
        let masked = binop_range(BinOp::And, I32, Interval::TOP, Interval::constant(255));
        assert_eq!(masked, Interval::new(0, 255));
        let shl = binop_range(BinOp::Shl, I32, masked, c2);
        assert_eq!(shl, Interval::new(0, 1020));
        let div = binop_range(BinOp::Div, I32, shl, c2);
        assert_eq!(div, Interval::new(0, 510));
        assert_eq!(binop_range(BinOp::Shru, I32, div, c2), Interval::new(0, 127));
        assert_eq!(binop_range(BinOp::Shr, I32, Interval::new(-8, 8), c2), Interval::new(-2, 2));
        let rem = binop_range(BinOp::Rem, I32, Interval::TOP, Interval::constant(10));
        assert_eq!(rem, Interval::new(-9, 9));
        // A non-constant or non-positive divisor gives no bound.
        assert!(binop_range(BinOp::Div, I32, shl, Interval::new(1, 2)).is_top());
        assert!(binop_range(BinOp::Div, I32, shl, Interval::constant(-1)).is_top());
    }

    #[test]
    fn setcc_len_and_byte_load() {
        let src = "func @f(i32) -> i32 {\n\
             b0:\n    r1 = newarray.i8 r0\n    r2 = len r1\n    r3 = aload.i8 r1, r0\n    r4 = set.lt.i32 r2, r3\n    ret r4\n}\n";
        assert_eq!(flow_at(src, 0, 3, 2), Interval::new(0, i32::MAX as i64));
        assert_eq!(flow_at(src, 0, 3, 3), Interval::new(-128, 127));
        assert_eq!(flow_at(src, 0, 4, 4), Interval::new(0, 1));
    }

    #[test]
    fn negative_constant_for_countdown() {
        // The Theorem 4 countdown case: j = const -1 has range [-1, -1].
        let r = flow_at(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 -1\n    r2 = add.i32 r0, r1\n    ret r2\n}\n",
            0,
            1,
            1,
        );
        assert_eq!(r, Interval::constant(-1));
        assert!(r.within(-1, 0x7FFF_FFFF));
    }
}

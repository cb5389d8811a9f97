//! Handling of array subscripts: the paper's `AnalyzeARRAY` and
//! Theorems 1–4 (§3).
//!
//! Java rules out negative array indices (`ArrayIndexOutOfBoundsException`),
//! and both PPC64 and IA64 have 32-bit compares, so bounds checks read
//! only the low 32 bits of the index. For a subscript expression `e` the
//! predicate `LS(e) ≡ 0 <= low32(e) < length` therefore holds at every
//! executed access, and the theorems derive conditions under which the
//! *full* register provably equals that checked low-32 value — making the
//! explicit extension before the effective-address computation redundant:
//!
//! * **Theorem 1**: upper 32 bits of `i` are zero (e.g. an IA64
//!   zero-extending load) — with `LS(i)`, `i` is a small non-negative
//!   value, already extended.
//! * **Theorem 2**: `i + j` with both operands extended and one of them
//!   in `[0, 0x7fffffff]`.
//! * **Theorem 3**: `i - j` with `i` upper-zero and `j` in
//!   `[0, 0x7fffffff]`.
//! * **Theorem 4**: `i + j` with both extended and one of them in
//!   `[(maxlen-1) - 0x7fffffff, 0x7fffffff]`; with the Java maximum array
//!   size this is `[-1, 0x7fffffff]`, covering count-down loops (`i - 1`).

use sxe_analysis::{DefId, DefSite, Interval};
use sxe_ir::{BinOp, Inst, InstId, Reg, Ty};

use crate::eliminate::Analysis;

const I32_MAX: i64 = 0x7fff_ffff;

impl Analysis<'_> {
    /// The paper's `AnalyzeARRAY`: returns `true` when the extension is
    /// still *required* for the effective-address computation of the
    /// access, `false` when some theorem discharges it.
    ///
    /// The theorems are checked "for all the instructions that define the
    /// source operand of the given sign extension": the `access` and
    /// `index` arguments identify the use site (reached directly or
    /// through value-preserving copies, so the index value equals the
    /// extension's source value).
    pub(crate) fn analyze_array(&mut self, access: InstId, index: Reg) -> bool {
        let defs = self.udu.defs_reaching(access, index);
        if defs.is_empty() {
            return true;
        }
        // All reaching definitions must satisfy some theorem. Note the
        // definitions here are those of the *index use at the access*,
        // which — because `AnalyzeUSE` only forwards array analysis
        // through value-preserving moves — include the extension under
        // analysis itself; its own `theorem_ok` looks through to its
        // source's definitions.
        !defs.iter().all(|&d| self.theorem_ok(d))
    }

    /// Whether the value produced by definition `d` provably needs no
    /// extension when used as a (bounds-checked) array subscript.
    pub(crate) fn theorem_ok(&mut self, d: DefId) -> bool {
        if let Some(&ok) = self.arr_memo.get(&d) {
            return ok;
        }
        if !self.arr_progress.insert(d) {
            // A cycle must not justify itself (see eliminate.rs).
            return false;
        }
        let ok = self.theorem_ok_inner(d);
        self.arr_progress.remove(&d);
        self.arr_memo.insert(d, ok);
        ok
    }

    fn theorem_ok_inner(&mut self, d: DefId) -> bool {
        // The extension being eliminated must not justify itself: look
        // through it to its source's definitions.
        if let DefSite::Inst(id) = self.udu.site(d) {
            if Some(id) == self.under_ext {
                if let Inst::Extend { src, .. } = *self.f.inst(id) {
                    return self.operand_theorem_ok(id, src);
                }
            }
        }
        // Theorem 1 and the trivial case: a sign-extended or upper-zero
        // value combined with LS (the bounds check) is safe.
        let facts = self.def_facts_rec(d);
        if facts.sign_extended || facts.upper_zero {
            return true;
        }
        let id = match self.udu.site(d) {
            DefSite::Param(_) => return false, // facts already said no
            DefSite::Inst(id) => id,
        };
        match *self.f.inst(id) {
            // Value-preserving move: every definition of the moved value
            // must be theorem-safe.
            Inst::Copy { src, .. } => self.operand_theorem_ok(id, src),
            Inst::Bin { op: BinOp::Add, ty, lhs, rhs, .. } if ty != Ty::F64 => {
                self.theorem_2_4_add(id, lhs, rhs)
            }
            Inst::Bin { op: BinOp::Sub, ty, lhs, rhs, .. } if ty != Ty::F64 => {
                self.theorem_3_sub(id, lhs, rhs) || self.theorem_2_4_sub(id, lhs, rhs)
            }
            _ => false,
        }
    }

    fn operand_theorem_ok(&mut self, id: InstId, r: Reg) -> bool {
        let defs = self.udu.defs_reaching(id, r);
        !defs.is_empty() && defs.iter().all(|&d| self.theorem_ok(d))
    }

    fn operand_extended(&mut self, id: InstId, r: Reg) -> bool {
        self.operand_facts(id, r).sign_extended
    }

    fn operand_upper_zero(&mut self, id: InstId, r: Reg) -> bool {
        self.operand_facts(id, r).upper_zero
    }

    /// Theorems 2 and 4 for `i + j`: both operands sign-extended, and one
    /// of them within `[(maxlen-1) - 0x7fffffff, 0x7fffffff]` (which is
    /// `[0, 0x7fffffff]` for Theorem 2 and widens as the guaranteed
    /// maximum array length shrinks).
    fn theorem_2_4_add(&mut self, id: InstId, lhs: Reg, rhs: Reg) -> bool {
        if !self.operand_extended(id, lhs) || !self.operand_extended(id, rhs) {
            return false;
        }
        let lo_bound = (self.max_array_len as i64 - 1) - I32_MAX;
        let rl = self.range_at(id, lhs);
        let rr = self.range_at(id, rhs);
        rl.within(lo_bound, I32_MAX) || rr.within(lo_bound, I32_MAX)
    }

    /// Theorem 3 for `i - j`: `i` upper-zero (e.g. an IA64 load) and
    /// `0 <= j <= 0x7fffffff` with `j` extended.
    fn theorem_3_sub(&mut self, id: InstId, lhs: Reg, rhs: Reg) -> bool {
        self.operand_upper_zero(id, lhs)
            && self.operand_extended(id, rhs)
            && self.range_at(id, rhs).within(0, I32_MAX)
    }

    /// Theorems 2/4 applied to `i - j` "by computing the range of k,
    /// which can be computed by assigning (-k) to j": both operands
    /// extended, and either `i` within the Theorem 4 window or `-j`
    /// within it.
    fn theorem_2_4_sub(&mut self, id: InstId, lhs: Reg, rhs: Reg) -> bool {
        if !self.operand_extended(id, lhs) || !self.operand_extended(id, rhs) {
            return false;
        }
        let lo_bound = (self.max_array_len as i64 - 1) - I32_MAX;
        let rl = self.range_at(id, lhs);
        let rr = self.range_at(id, rhs);
        let neg_rr = Interval { lo: -rr.hi, hi: -rr.lo };
        rl.within(lo_bound, I32_MAX) || neg_rr.within(lo_bound, I32_MAX)
    }
}

#[cfg(test)]
mod tests {
    use sxe_analysis::UdDu;
    use sxe_ir::{parse_function, Cfg, Function, Target};

    use crate::eliminate::{run_elimination_budgeted, strip_dummies, ElimConfig, ElimResult};

    fn eliminate(src: &str, max_array_len: u32) -> (Function, ElimResult) {
        let mut f = parse_function(src).unwrap();
        crate::insertion::insert_dummies(&mut f, Target::Ia64);
        let cfg = Cfg::compute(&f);
        let mut udu = UdDu::compute(&f, &cfg);
        let fr = crate::order::static_freq(&f, &cfg);
        let order = crate::order::elimination_order(&f, &cfg, Some(&fr));
        let config =
            ElimConfig { target: Target::Ia64, array_analysis: true, max_array_len };
        let flow = sxe_analysis::FlowRanges::compute(&f, &cfg);
        let res = run_elimination_budgeted(
            &mut f,
            &mut udu,
            &order,
            &config,
            Some(&flow),
            &sxe_ir::Budget::unlimited(),
        );
        strip_dummies(&mut f);
        (f, res)
    }

    const JAVA_MAX: u32 = 0x7fff_ffff;

    #[test]
    fn theorem_1_upper_zero_load() {
        // The index comes from an IA64 32-bit load (upper-zero): its
        // extension before the access is unnecessary.
        let (f, res) = eliminate(
            "func @f(i32, i32) -> i32 {\n\
             b0:\n    r2 = newarray.i32 r0\n    r3 = aload.i32 r2, r1\n    r3 = extend.32 r3\n    r4 = aload.i32 r2, r3\n    ret r4\n}\n",
            JAVA_MAX,
        );
        assert_eq!(res.eliminated, 1);
        assert_eq!(res.via_array, 1);
        assert_eq!(f.count_extends(None), 0);
    }

    #[test]
    fn theorem_2_sum_of_nonneg() {
        // k = i + j with j = x & 0xff (non-negative, extended) and i a
        // parameter (extended): Theorem 2.
        let (f, res) = eliminate(
            "func @f(i32, i32, i32) -> i32 {\n\
             b0:\n    r3 = newarray.i32 r0\n    r4 = const.i32 255\n    r5 = and.i32 r1, r4\n    r6 = add.i32 r2, r5\n    r6 = extend.32 r6\n    r7 = aload.i32 r3, r6\n    ret r7\n}\n",
            JAVA_MAX,
        );
        assert_eq!(res.eliminated, 1);
        assert_eq!(f.count_extends(None), 0);
    }

    #[test]
    fn theorem_2_fails_without_nonneg_side() {
        // i + j with both operands of unknown sign: no theorem applies.
        let (f, res) = eliminate(
            "func @f(i32, i32, i32) -> i32 {\n\
             b0:\n    r3 = newarray.i32 r0\n    r4 = add.i32 r1, r2\n    r4 = extend.32 r4\n    r5 = aload.i32 r3, r4\n    ret r5\n}\n",
            JAVA_MAX,
        );
        assert_eq!(res.eliminated, 0);
        assert_eq!(f.count_extends(None), 1);
    }

    #[test]
    fn theorem_4_countdown() {
        // i = i - 1 in a loop: the subtraction is i + (-1) with -1 in
        // [-1, 0x7fffffff] — Theorem 4 with the Java maximum length.
        let (f, res) = eliminate(
            "func @f(i32, i32) -> i32 {\n\
             b0:\n    r2 = newarray.i32 r0\n    r5 = const.i32 0\n    br b1\n\
             b1:\n    r3 = const.i32 1\n    r1 = sub.i32 r1, r3\n    r1 = extend.32 r1\n    r4 = aload.i32 r2, r1\n    r5 = add.i32 r5, r4\n    condbr gt.i32 r1, r3, b1, b2\n\
             b2:\n    r5 = extend.32 r5\n    ret r5\n}\n",
            JAVA_MAX,
        );
        assert_eq!(res.via_array, 1);
        assert_eq!(
            f.block(sxe_ir::BlockId(1))
                .insts
                .iter()
                .filter(|i| i.is_extend(None))
                .count(),
            0,
            "the loop index extension is gone"
        );
    }

    #[test]
    fn theorem_4_window_depends_on_max_len() {
        // Figure 10: i = i - 2 is eliminable only when the maximum array
        // size is known to be < 0x7fffffff (here: lowered so the window
        // includes -2).
        let src = "func @f(i32, i32) -> i32 {\n\
             b0:\n    r2 = newarray.i32 r0\n    br b1\n\
             b1:\n    r3 = const.i32 2\n    r1 = sub.i32 r1, r3\n    r1 = extend.32 r1\n    r4 = aload.i32 r2, r1\n    condbr gt.i32 r1, r3, b1, b2\n\
             b2:\n    ret r4\n}\n";
        // With the Java maximum (0x7fffffff) the window is [-1, ...]:
        // -2 is outside, the extension stays.
        let (f1, res1) = eliminate(src, JAVA_MAX);
        assert_eq!(res1.eliminated, 0);
        assert_eq!(f1.count_extends(None), 1);
        // With maxlen 0x7fff0001 the window is [-65535+...,-...]: wide
        // enough for -2: eliminated (the paper's §3 example).
        let (f2, res2) = eliminate(src, 0x7fff_0001);
        assert_eq!(res2.eliminated, 1);
        assert_eq!(f2.count_extends(None), 0);
    }

    #[test]
    fn theorem_3_load_minus_positive() {
        // i (upper-zero IA64 load) - j (masked non-negative): Theorem 3.
        let (f, res) = eliminate(
            "func @f(i32, i32) -> i32 {\n\
             b0:\n    r2 = newarray.i32 r0\n    r3 = aload.i32 r2, r1\n    r4 = const.i32 1023\n    r5 = and.i32 r1, r4\n    r6 = sub.i32 r3, r5\n    r6 = extend.32 r6\n    r7 = aload.i32 r2, r6\n    ret r7\n}\n",
            JAVA_MAX,
        );
        assert_eq!(res.eliminated, 1);
        assert_eq!(f.count_extends(None), 0);
    }

    #[test]
    fn sub_of_two_params_not_eliminable() {
        let (f, res) = eliminate(
            "func @f(i32, i32, i32) -> i32 {\n\
             b0:\n    r3 = newarray.i32 r0\n    r4 = sub.i32 r1, r2\n    r4 = extend.32 r4\n    r5 = aload.i32 r3, r4\n    ret r5\n}\n",
            JAVA_MAX,
        );
        assert_eq!(res.eliminated, 0);
        let _ = f;
    }

    #[test]
    fn theorem_2_sub_with_bounded_negated_rhs() {
        // i - j where j in [0, 255]: -j in [-255, 0] — needs maxlen
        // lowered enough to include -255 in the window.
        let src = "func @f(i32, i32, i32) -> i32 {\n\
             b0:\n    r3 = newarray.i32 r0\n    r4 = const.i32 255\n    r5 = and.i32 r2, r4\n    r6 = sub.i32 r1, r5\n    r6 = extend.32 r6\n    r7 = aload.i32 r3, r6\n    ret r7\n}\n";
        let (_, res1) = eliminate(src, JAVA_MAX);
        // Window [-1, ...] does not include -255, but the LHS (a
        // parameter) has unknown range, so only the negated-rhs check
        // could fire — and it cannot.
        assert_eq!(res1.eliminated, 0);
        let (_, res2) = eliminate(src, 0x7fff_0001 - 1);
        // Window now reaches -65536 + ... — wide enough for -255.
        assert_eq!(res2.eliminated, 1);
    }
}

//! Phase (3)-3: elimination of sign extensions using UD/DU chains
//! (paper §2.3, the `EliminateOneExtend` / `AnalyzeUSE` / `AnalyzeDEF`
//! pseudocode).
//!
//! "In principle, a sign extension can be eliminated if its source
//! operand is already sign-extended or if the upper 32 bits of its
//! destination operand do not affect the correct execution of the
//! following instructions."
//!
//! The analysis of one extension walks the DU chain forward
//! (`AnalyzeUSE`) and, if some use requires the upper bits, the UD chain
//! backward (`AnalyzeDEF`). Array-subscript uses are discharged by the
//! Theorem 1–4 analysis in [`crate::array`]. Visited-flag memoization
//! matches the paper; cyclic queries resolve *pessimistically* (a cycle
//! with no external justification yields no facts), which keeps the
//! analysis sound even when extensions justify one another around loop
//! back edges.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};

use sxe_analysis::{binop_range, DefId, DefSite, FlowRanges, Interval, UdDu};
use sxe_ir::semantics::{def_facts, param_facts, use_kind_of};
use sxe_ir::{BinOp, ExtFacts, Function, Inst, InstId, Reg, Target, Ty, UseKind, Width};

/// Configuration for the elimination phase.
#[derive(Debug, Clone, Copy)]
pub struct ElimConfig {
    /// Target architecture.
    pub target: Target,
    /// Whether the array-subscript theorems are applied.
    pub array_analysis: bool,
    /// Guaranteed maximum array length (Theorem 4).
    pub max_array_len: u32,
}

/// Outcome counters for one elimination run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElimResult {
    /// Extension sites examined.
    pub examined: usize,
    /// Extensions eliminated.
    pub eliminated: usize,
    /// Eliminations that needed the array theorems.
    pub via_array: usize,
    /// The compile budget ran out before every extension was examined;
    /// the function is left in a valid partially-optimized state.
    pub exhausted: bool,
}

/// Examine the extensions named by `order` (hottest first when order
/// determination is on) and eliminate each one that the chains prove
/// redundant. Chains are maintained incrementally as extensions are
/// deleted.
///
/// One fuel unit of `budget` is spent per examined extension, and an
/// exhausted budget stops the loop early rather than aborting — every
/// extension already processed stays eliminated, the rest simply remain
/// (salvage, don't abort). Processing hottest-first means the budget is
/// spent where it pays.
///
/// `flow` is the interval analysis the array theorems and the range
/// refinement read; with `config.array_analysis` off nothing reads it,
/// so callers pass `None` and every interval is TOP.
pub fn run_elimination_budgeted(
    f: &mut Function,
    udu: &mut UdDu,
    order: &[InstId],
    config: &ElimConfig,
    flow: Option<&FlowRanges>,
    budget: &sxe_ir::Budget,
) -> ElimResult {
    let mut result = ElimResult::default();
    // Per-instruction flow intervals are shared (lazily, per block)
    // across every elimination. Removing an `extend.32` changes no
    // low-32 interval; removing an `extend.8`/`extend.16` can widen the
    // intervals after it, so answers depend on when a block is first
    // touched (see `LazyFlowStates::at`).
    let flow_states = LazyFlowStates::new(f.blocks.len(), flow);
    for &ext_id in order {
        if !budget.spend(1) {
            result.exhausted = true;
            break;
        }
        let (dst, src, from) = match *f.inst(ext_id) {
            Inst::Extend { dst, src, from } => (dst, src, from),
            _ => continue, // already removed or rewritten
        };
        result.examined += 1;
        let mut via_array = false;
        let eliminable = Analysis::new(f, udu, &flow_states, config, from)
            .eliminate_one(ext_id, dst, src, &mut via_array);
        if eliminable {
            if dst == src {
                udu.remove_transparent_def(f, ext_id);
                f.delete_inst(ext_id);
            } else {
                // Non-canonical extension (shouldn't survive conversion's
                // normalization, but handle it): the machine `sxt`
                // becomes a plain move.
                *f.inst_mut(ext_id) = Inst::Copy { dst, src, ty: from.ty() };
            }
            result.eliminated += 1;
            if via_array {
                result.via_array += 1;
            }
        }
    }
    result
}

/// Remove all dummy (`justext`) markers — the trivial final step of
/// phase (3)-3 — and compact the function. Nothing reads the chains after
/// it, so it leaves them alone; the containment harness also calls it
/// after rolling a function back to a snapshot taken *inside* step 3,
/// where no up-to-date [`UdDu`] exists. Returns the number of markers
/// removed.
pub fn strip_dummies(f: &mut Function) -> usize {
    let mut n = 0;
    for blk in &mut f.blocks {
        for inst in &mut blk.insts {
            if let Inst::JustExtended { dst, src, from } = *inst {
                *inst = if dst == src {
                    Inst::Nop
                } else {
                    Inst::Copy { dst, src, ty: from.ty() }
                };
                n += 1;
            }
        }
    }
    f.compact();
    n
}

/// Lazily materialized per-instruction flow intervals, shared across a
/// whole elimination run (block structure is fixed during phase (3)-3).
/// Without a flow analysis every interval is TOP.
pub(crate) struct LazyFlowStates<'a> {
    flow: Option<&'a FlowRanges>,
    blocks: Vec<OnceCell<Vec<Vec<Interval>>>>,
}

impl<'a> LazyFlowStates<'a> {
    fn new(num_blocks: usize, flow: Option<&'a FlowRanges>) -> LazyFlowStates<'a> {
        LazyFlowStates { flow, blocks: (0..num_blocks).map(|_| OnceCell::new()).collect() }
    }

    /// Intervals before instruction `id` (materializing its block on
    /// first touch, from `f` as it stands then). Tombstoning an
    /// `extend.32` between calls changes nothing: its transfer is the
    /// low-32 identity. An `extend.8`/`extend.16` bounds its result to
    /// the narrow range, so a block materialized after one was deleted
    /// can hold wider intervals than one materialized before, and the
    /// elimination count depends on the order blocks are first queried
    /// (ROADMAP item 4).
    fn at(&self, f: &Function, id: InstId, r: Reg) -> Interval {
        let Some(flow) = self.flow else {
            return Interval::TOP;
        };
        let per_inst =
            self.blocks[id.block.index()].get_or_init(|| flow.materialize_block(f, id.block));
        per_inst
            .get(id.index as usize)
            .map_or(Interval::TOP, |state| state[r.index()])
    }
}

/// The per-extension analysis context (the paper's USE/DEF/ARRAY flags).
pub(crate) struct Analysis<'a> {
    pub(crate) f: &'a Function,
    pub(crate) udu: &'a UdDu,
    flow_states: &'a LazyFlowStates<'a>,
    pub(crate) target: Target,
    pub(crate) width: Width,
    pub(crate) array_enabled: bool,
    pub(crate) max_array_len: u32,
    /// The extension currently being analyzed; the array theorems look
    /// *through* it to its source (it must not justify itself).
    pub(crate) under_ext: Option<InstId>,
    use_flag: HashSet<(InstId, Reg)>,
    def_memo: HashMap<DefId, ExtFacts>,
    def_progress: HashSet<DefId>,
    pub(crate) arr_memo: HashMap<DefId, bool>,
    pub(crate) arr_progress: HashSet<DefId>,
}

impl std::fmt::Debug for Analysis<'_> {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("Analysis").field("width", &self.width).finish_non_exhaustive()
    }
}

impl<'a> Analysis<'a> {
    pub(crate) fn new(
        f: &'a Function,
        udu: &'a UdDu,
        flow_states: &'a LazyFlowStates<'a>,
        config: &ElimConfig,
        width: Width,
    ) -> Analysis<'a> {
        Analysis {
            f,
            udu,
            flow_states,
            target: config.target,
            width,
            array_enabled: config.array_analysis,
            max_array_len: config.max_array_len,
            under_ext: None,
            use_flag: HashSet::new(),
            def_memo: HashMap::new(),
            def_progress: HashSet::new(),
            arr_memo: HashMap::new(),
            arr_progress: HashSet::new(),
        }
    }

    /// The paper's `EliminateOneExtend`: returns `true` when the
    /// extension at `ext_id` can be eliminated.
    pub(crate) fn eliminate_one(
        &mut self,
        ext_id: InstId,
        _dst: Reg,
        src: Reg,
        via_array: &mut bool,
    ) -> bool {
        self.under_ext = Some(ext_id);
        // Forward: do any uses of the destination need the upper bits?
        let Some(def) = self.udu.def_of_inst(ext_id) else {
            return false;
        };
        let mut required = false;
        for &(use_inst, reg) in self.udu.uses_of(def) {
            if self.analyze_use(use_inst, reg, true, via_array) {
                required = true;
                break;
            }
        }
        if !required {
            return true;
        }
        // Backward: is the source already sign-extended?
        *via_array = false;
        let feeding = self.udu.defs_reaching(ext_id, src);
        !feeding.is_empty() && feeding.iter().all(|&d| self.def_facts_rec(d).sign_extended)
    }

    /// The paper's `AnalyzeUSE`: `true` means the use requires the upper
    /// bits (the extension is necessary for it).
    fn analyze_use(
        &mut self,
        i: InstId,
        r: Reg,
        analyze_array: bool,
        via_array: &mut bool,
    ) -> bool {
        if !self.use_flag.insert((i, r)) {
            return false; // already traversed (paper's USE flag)
        }
        let inst = self.f.inst(i);
        match use_kind_of(inst, r, self.width) {
            None | Some(UseKind::Ignored) => false,
            Some(UseKind::Required) => true,
            Some(UseKind::ArrayIndex) => {
                if analyze_array && self.array_enabled {
                    let required = self.analyze_array(i, r);
                    if !required {
                        *via_array = true;
                    }
                    required
                } else {
                    true
                }
            }
            Some(UseKind::Transmits) => {
                // Case 2: the use needs the bits only if its own result's
                // bits are needed. Array analysis survives only through
                // value-preserving moves ("if it is impossible to analyze
                // array's address computation via I, ANALYZE_ARRAY =
                // FALSE").
                let next_array = analyze_array
                    && matches!(inst, Inst::Copy { .. } | Inst::JustExtended { .. });
                let Some(d) = self.udu.def_of_inst(i) else {
                    return false;
                };
                for &(j, jr) in self.udu.uses_of(d) {
                    if self.analyze_use(j, jr, next_array, via_array) {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// The paper's `AnalyzeDEF`, generalized to the two-fact lattice:
    /// what does definition `d` guarantee about the upper bits?
    ///
    /// Cyclic queries (loop-carried chains of copies/bitwise ops) resolve
    /// pessimistically to no-facts, so a cycle never justifies itself.
    pub(crate) fn def_facts_rec(&mut self, d: DefId) -> ExtFacts {
        if let Some(&facts) = self.def_memo.get(&d) {
            return facts;
        }
        if !self.def_progress.insert(d) {
            return ExtFacts::NONE;
        }
        let mut facts = match self.udu.site(d) {
            DefSite::Param(i) => param_facts(self.f.params[i].1, self.width),
            // The extension being eliminated must not justify anything by
            // its own effect (it is about to disappear): it contributes
            // only its source's facts. Loop-carried justification is
            // instead provided soundly by the dummy extensions placed
            // after bounds-checked array accesses.
            DefSite::Inst(id) if Some(id) == self.under_ext => match *self.f.inst(id) {
                Inst::Extend { src, .. } => self.operand_facts(id, src),
                _ => ExtFacts::NONE,
            },
            DefSite::Inst(id) => {
                let inst = self.f.inst(id).clone();
                let target = self.target;
                let width = self.width;
                def_facts(&inst, target, width, &mut |r: Reg| self.operand_facts(id, r))
            }
        };
        if !facts.sign_extended {
            facts = self.refine_with_ranges(d, facts);
        }
        self.def_progress.remove(&d);
        self.def_memo.insert(d, facts);
        facts
    }

    /// Value-range refinement of `AnalyzeDEF`: if every operand of a
    /// 32-bit arithmetic definition is sign-extended and the value-range
    /// analysis proves the mathematical result cannot leave the `i32`
    /// range, then the full 64-bit machine result equals the exact result
    /// and is therefore sign-extended (non-negative ranges additionally
    /// give upper-zero). This is the def-side counterpart of the paper's
    /// §3 use of "value range analysis techniques [4, 7]", and like the
    /// array theorems it is enabled by the `array` feature (the paper
    /// introduces value ranges only with §3).
    fn refine_with_ranges(&mut self, d: DefId, facts: ExtFacts) -> ExtFacts {
        if self.width != Width::W32 || !self.array_enabled {
            return facts;
        }
        let DefSite::Inst(id) = self.udu.site(d) else { return facts };
        let Inst::Bin { op, ty, lhs, rhs, .. } = *self.f.inst(id) else {
            return facts;
        };
        let eligible = ty != Ty::F64
            && ty != Ty::I64
            && matches!(
                op,
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Shl
            );
        if !eligible {
            return facts;
        }
        if !self.operand_facts(id, lhs).sign_extended
            || !self.operand_facts(id, rhs).sign_extended
        {
            return facts;
        }
        // A non-TOP interval certifies the exact result fits in i32 (the
        // transfer functions return TOP whenever a wrap is possible).
        let range = binop_range(op, ty, self.range_at(id, lhs), self.range_at(id, rhs));
        if range.is_top() {
            return facts;
        }
        ExtFacts { sign_extended: true, upper_zero: range.is_nonneg() }
    }

    /// Value range of `r` at `id`: the flow-sensitive interval in force
    /// there, tightened by [`Self::full_register_def_range`].
    pub(crate) fn range_at(&mut self, id: InstId, r: Reg) -> Interval {
        let flow = self.flow_range_at(id, r);
        match self.full_register_def_range(id, r) {
            Some(bound) => flow.intersect(bound),
            None => flow,
        }
    }

    /// The one range rule [`FlowRanges`] cannot apply. A narrow `div`,
    /// `rem` or `shr` reads the full register, so [`binop_range`]'s rule
    /// for it bounds the result only when both operands are
    /// sign-extended; the flow analysis has no extension facts and leaves
    /// such a def at TOP. When every def of `r` reaching `id` is such an
    /// op with operands `operand_facts` proves extended, this joins the
    /// rule over the operands' flow ranges at each def.
    ///
    /// It looks exactly one def deep: the operand ranges are flow ranges,
    /// never this rule again. `operand_facts` treats the extension under
    /// analysis as already gone, so the guard still holds once it is
    /// deleted.
    fn full_register_def_range(&mut self, id: InstId, r: Reg) -> Option<Interval> {
        let mut acc: Option<Interval> = None;
        for &d in self.udu.defs_reaching(id, r) {
            let DefSite::Inst(def_id) = self.udu.site(d) else { return None };
            let Inst::Bin { op, ty, lhs, rhs, .. } = *self.f.inst(def_id) else {
                return None;
            };
            if !matches!(op, BinOp::Div | BinOp::Rem | BinOp::Shr)
                || !matches!(ty, Ty::I8 | Ty::I16 | Ty::I32)
                || !self.operand_facts(def_id, lhs).sign_extended
                || !self.operand_facts(def_id, rhs).sign_extended
            {
                return None;
            }
            let v = binop_range(
                op,
                ty,
                self.flow_range_at(def_id, lhs),
                self.flow_range_at(def_id, rhs),
            );
            acc = Some(acc.map_or(v, |a| a.join(v)));
        }
        acc
    }

    fn flow_range_at(&self, id: InstId, r: Reg) -> Interval {
        self.flow_states.at(self.f, id, r)
    }

    /// Meet of facts over every definition reaching the use of `r` at
    /// `id`; no-facts when no definition information exists.
    pub(crate) fn operand_facts(&mut self, id: InstId, r: Reg) -> ExtFacts {
        let defs = self.udu.defs_reaching(id, r);
        if defs.is_empty() {
            return ExtFacts::NONE;
        }
        let mut acc = ExtFacts::NONNEG;
        for &d in defs {
            acc = acc.meet(self.def_facts_rec(d));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{parse_function, BlockId, Cfg};

    fn eliminate_all(src: &str, array: bool) -> (Function, ElimResult) {
        let mut f = parse_function(src).unwrap();
        crate::insertion::insert_dummies(&mut f, Target::Ia64);
        let cfg = Cfg::compute(&f);
        let mut udu = UdDu::compute(&f, &cfg);
        let fr = crate::order::static_freq(&f, &cfg);
        let order = crate::order::elimination_order(&f, &cfg, Some(&fr));
        let config = ElimConfig {
            target: Target::Ia64,
            array_analysis: array,
            max_array_len: 0x7fff_ffff,
        };
        let flow = array.then(|| FlowRanges::compute(&f, &cfg));
        let res = run_elimination_budgeted(
            &mut f,
            &mut udu,
            &order,
            &config,
            flow.as_ref(),
            &sxe_ir::Budget::unlimited(),
        );
        strip_dummies(&mut f);
        (f, res)
    }

    #[test]
    fn eliminates_when_no_use_needs_upper_bits() {
        // The extension feeds only a 32-bit store and a 32-bit compare.
        let (f, res) = eliminate_all(
            "func @f(i32, i32) {\n\
             b0:\n    r2 = newarray.i32 r0\n    r3 = add.i32 r0, r1\n    r3 = extend.32 r3\n    r4 = const.i32 0\n    astore.i32 r2, r4, r3\n    ret\n}\n",
            false,
        );
        assert_eq!(res.eliminated, 1);
        assert_eq!(f.count_extends(None), 0);
    }

    #[test]
    fn keeps_when_i2d_needs_it() {
        let (f, res) = eliminate_all(
            "func @f(i32, i32) -> f64 {\n\
             b0:\n    r2 = add.i32 r0, r1\n    r2 = extend.32 r2\n    r3 = i32tof64.f64 r2\n    ret r3\n}\n",
            false,
        );
        assert_eq!(res.eliminated, 0);
        assert_eq!(f.count_extends(None), 1);
    }

    #[test]
    fn eliminates_when_source_already_extended() {
        // Figure 3 (5)/(7): the AND with a non-negative constant makes
        // the value sign-extended, so the following extension of the
        // same value is redundant even though the ret requires it.
        let (f, res) = eliminate_all(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 268435455\n    r2 = and.i32 r0, r1\n    r2 = extend.32 r2\n    ret r2\n}\n",
            false,
        );
        assert_eq!(res.eliminated, 1);
        assert_eq!(f.count_extends(None), 0);
    }

    #[test]
    fn second_limitation_def_side_rescue() {
        // j = j & C; j = extend(j); d += (double) j — backward demand
        // alone cannot remove the extension (i2d requires it), but the
        // UD direction proves the source extended (paper limitation 2).
        let (f, res) = eliminate_all(
            "func @f(i32) -> f64 {\n\
             b0:\n    r1 = const.i32 255\n    r2 = and.i32 r0, r1\n    r2 = extend.32 r2\n    r3 = i32tof64.f64 r2\n    ret r3\n}\n",
            false,
        );
        assert_eq!(res.eliminated, 1);
        assert_eq!(f.count_extends(None), 0);
    }

    #[test]
    fn demand_transmits_through_add() {
        // extend -> add -> i2d: required through Case 2.
        let (f, res) = eliminate_all(
            "func @f(i32, i32) -> f64 {\n\
             b0:\n    r2 = mul.i32 r0, r1\n    r2 = extend.32 r2\n    r3 = add.i32 r2, r1\n    r4 = i32tof64.f64 r3\n    ret r4\n}\n",
            false,
        );
        assert_eq!(res.eliminated, 0);
        let _ = f;
    }

    #[test]
    fn array_index_required_without_array_analysis() {
        let src = "func @f(i32, i32) -> i32 {\n\
             b0:\n    r2 = newarray.i32 r0\n    r3 = and.i32 r1, r0\n    br b1\n\
             b1:\n    r4 = const.i32 1\n    r3 = sub.i32 r3, r4\n    r3 = extend.32 r3\n    r5 = aload.i32 r2, r3\n    condbr gt.i32 r3, r4, b1, b2\n\
             b2:\n    ret r5\n}\n";
        let (f, res) = eliminate_all(src, false);
        assert_eq!(res.eliminated, 0, "index extension must stay without theorems");
        assert_eq!(f.count_extends(None), 1);

        // With array analysis the countdown-loop index is discharged by
        // Theorem 4 (j = -1 within [-1, 0x7fffffff]).
        let (f2, res2) = eliminate_all(src, true);
        assert_eq!(res2.eliminated, 1);
        assert_eq!(res2.via_array, 1);
        assert_eq!(f2.count_extends(None), 0);
    }

    #[test]
    fn mutual_justification_is_not_circular() {
        // Two extensions of the same register around a loop must not
        // both disappear by citing each other: after the hot one is
        // removed, the cold one's analysis sees the raw add and keeps it.
        let src = "func @f(i32, i32) -> i32 {\n\
             b0:\n    r2 = newarray.i32 r0\n    r3 = add.i32 r0, r1\n    r3 = extend.32 r3\n    br b1\n\
             b1:\n    r4 = const.i32 1\n    r3 = add.i32 r3, r4\n    r3 = extend.32 r3\n    r5 = aload.i32 r2, r3\n    condbr gt.i32 r5, r4, b1, b2\n\
             b2:\n    ret r5\n}\n";
        let (f, res) = eliminate_all(src, true);
        // The loop extension is discharged by Theorem 2/4; the outer one
        // must survive (it justifies the loop entry).
        assert_eq!(res.eliminated, 1);
        assert_eq!(f.count_extends(None), 1);
        assert!(f.block(BlockId(0)).insts.iter().any(|i| i.is_extend(None)));
        assert!(!f.block(BlockId(1)).insts.iter().any(|i| i.is_extend(None)));
    }

    #[test]
    fn dummy_enables_later_elimination_and_is_removed() {
        // After a[i], a dummy asserts i extended; the later extension of
        // i before a 64-bit compare is then redundant.
        let src = "func @f(i32, i32) -> i32 {\n\
             b0:\n    r2 = newarray.i32 r0\n    r3 = aload.i32 r2, r1\n    r1 = justext.32 r1\n    r1 = extend.32 r1\n    condbr gt.i64 r1, r3, b1, b2\n\
             b1:\n    ret r3\n\
             b2:\n    ret r1\n}\n";
        let (f, res) = eliminate_all(src, false);
        assert_eq!(res.eliminated, 1);
        assert_eq!(f.count_extends(None), 0);
        // Dummies are gone too.
        assert!(!f
            .insts()
            .any(|(_, i)| matches!(i, Inst::JustExtended { .. })));
    }

    /// `r4 = op r2, 8`, then `r6 = add r4', c` with `r4'` either `r4`
    /// itself or, with `mask`, `r4 & 0x7fffffff`; the extension of `r6`
    /// before `i32tof64` goes only if that add provably cannot wrap.
    /// `prelude` defines `r2` on the paths into `b3`.
    fn full_register_src(prelude: &str, op: &str, mask: bool, c: i32) -> String {
        let mask = if mask { "    r8 = const.i32 2147483647\n    r4 = and.i32 r4, r8\n" } else { "" };
        format!(
            "func @f(i32) -> f64 {{\n{prelude}\
             b3:\n    r3 = const.i32 8\n    r4 = {op}.i32 r2, r3\n    r5 = const.i32 {c}\n\
             {mask}    r6 = add.i32 r4, r5\n    r6 = extend.32 r6\n    \
             r7 = i32tof64.f64 r6\n    ret r7\n}}\n"
        )
    }

    /// `r2` is defined by `a` on one path into `b3` and by `b` on the
    /// other.
    fn diamond(a: &str, b: &str) -> String {
        format!(
            "b0:\n    r1 = const.i32 0\n    condbr gt.i32 r0, r1, b1, b2\n\
             b1:\n    r2 = {a}\n    br b3\n\
             b2:\n    r2 = {b}\n    br b3\n"
        )
    }

    /// [`Analysis::range_at`] for the shift result `r4` at the add in
    /// `b3` (instruction 3), asked directly, without the eliminator's
    /// own extension checks on `r4`.
    fn shift_range(src: &str) -> Interval {
        let f = parse_function(src).unwrap();
        let cfg = Cfg::compute(&f);
        let udu = UdDu::compute(&f, &cfg);
        let flow = FlowRanges::compute(&f, &cfg);
        let states = LazyFlowStates::new(f.blocks.len(), Some(&flow));
        let config =
            ElimConfig { target: Target::Ia64, array_analysis: true, max_array_len: 0x7fff_ffff };
        Analysis::new(&f, &udu, &states, &config, Width::W32)
            .range_at(InstId::new(BlockId(3), 3), Reg(4))
    }

    #[test]
    fn full_register_ops_of_extended_operands_are_bounded() {
        // rem of a parameter by 8: [-7, 7], so adding i32::MAX - 7 cannot
        // wrap. shr of the join {4, 5} by 8: 0, so adding i32::MAX
        // cannot either.
        let param = diamond("copy.i32 r0", "copy.i32 r0");
        let rem = full_register_src(&param, "rem", false, i32::MAX - 7);
        let shr = full_register_src(&diamond("const.i32 5", "const.i32 4"), "shr", false, i32::MAX);
        assert_eq!(shift_range(&shr), Interval::constant(0));
        for src in [rem, shr] {
            let (f, res) = eliminate_all(&src, true);
            assert_eq!(res.eliminated, 1, "{src}");
            assert_eq!(f.count_extends(None), 0);
            // The bound is a value range, which only the array feature uses.
            assert_eq!(eliminate_all(&src, false).1.eliminated, 0, "{src}");
        }
    }

    #[test]
    fn full_register_op_of_a_non_canonical_join_is_unbounded() {
        // The same shr over i64 constants whose upper word is 0xff: the
        // low words are still {5, 4}, but the shift brings the upper word
        // down, so nothing bounds the result.
        let join = diamond("const.i64 1095216660485", "const.i64 1095216660484");
        assert!(shift_range(&full_register_src(&join, "shr", false, i32::MAX)).is_top());
        // Masked, the shift result is sign-extended and non-negative, but
        // its range is not 0: at run time the masked value is 0x7f000000,
        // and adding i32::MAX wraps. The extension stays.
        let (f, res) = eliminate_all(&full_register_src(&join, "shr", true, i32::MAX), true);
        assert_eq!(res.eliminated, 0);
        assert_eq!(f.count_extends(None), 1);
    }
}

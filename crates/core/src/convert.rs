//! Conversion for a 64-bit architecture (paper Figure 5, step 1).
//!
//! Translates IR written in "32-bit architecture form" (no explicit sign
//! extensions except source-level casts) into 64-bit form by generating
//! [`sxe_ir::Inst::Extend`] instructions. Two strategies exist (Figure 6):
//!
//! * **gen-def** (the paper's choice): generate an extension immediately
//!   *after* every instruction with a 32-bit destination, "unless the
//!   destination operand of the instruction I is guaranteed to be
//!   sign-extended";
//! * **gen-use** (reference): generate an extension immediately *before*
//!   every instruction that requires one, unless the source is guaranteed
//!   to be sign-extended.
//!
//! Both use the flow-sensitive [`AvailableExt`] facts for the "guaranteed"
//! checks, mirroring what a code generator knows.

use sxe_analysis::AvailableExt;
use sxe_ir::semantics::{classify_uses, def_facts};
use sxe_ir::{Cfg, ExtFacts, Function, Inst, Reg, Target, Ty, UseKind, Width};

/// The inferred class of a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegKind {
    /// A narrow integer value (`i8`/`i16`/`i32` program type) living in a
    /// 64-bit register — the values the conversion must extend.
    Int32,
    /// A full-width value: `i64` or an array reference.
    Wide,
    /// An `f64` value.
    Float,
    /// Never defined or used.
    Unused,
}

/// Infer the class of every register from its definitions and the
/// function signature.
///
/// # Errors
/// Returns a description of the first register defined with conflicting
/// classes (e.g. both as `i32` and as `f64`), which indicates malformed
/// input.
pub fn infer_kinds(f: &Function) -> Result<Vec<RegKind>, String> {
    let mut kinds = vec![RegKind::Unused; f.reg_count as usize];
    let mut assign = |r: Reg, k: RegKind| -> Result<(), String> {
        let cur = &mut kinds[r.index()];
        match (*cur, k) {
            (RegKind::Unused, _) => {
                *cur = k;
                Ok(())
            }
            (a, b) if a == b => Ok(()),
            (a, b) => Err(format!("register {r} defined as both {a:?} and {b:?}")),
        }
    };
    let kind_of_ty = |ty: Ty| match ty {
        Ty::I8 | Ty::I16 | Ty::I32 => RegKind::Int32,
        Ty::I64 => RegKind::Wide,
        Ty::F64 => RegKind::Float,
    };
    for &(r, ty) in &f.params {
        assign(r, kind_of_ty(ty))?;
    }
    for (_, inst) in f.insts() {
        let Some(d) = inst.dst() else { continue };
        let k = match *inst {
            Inst::Const { ty, .. } => kind_of_ty(ty),
            Inst::ConstF { .. } => RegKind::Float,
            Inst::Copy { ty, .. } | Inst::Un { ty, .. } | Inst::Bin { ty, .. } => kind_of_ty(ty),
            Inst::Setcc { .. } | Inst::ArrayLen { .. } => RegKind::Int32,
            Inst::Extend { .. } | Inst::JustExtended { .. } => RegKind::Int32,
            Inst::NewArray { .. } => RegKind::Wide,
            Inst::ArrayLoad { elem, .. } => kind_of_ty(elem),
            Inst::Call { .. } => RegKind::Wide, // refined below if known
            _ => continue,
        };
        // Calls: the IR does not store the callee's return type on the
        // instruction, so treat results as wide here; `convert_module`
        // refines them.
        assign(d, k)?;
    }
    Ok(kinds)
}

/// Refine call-result kinds using callee signatures from the module.
fn refine_call_kinds(
    m: &sxe_ir::Module,
    f: &Function,
    kinds: &mut [RegKind],
) {
    for (_, inst) in f.insts() {
        if let Inst::Call { dst: Some(d), func, .. } = inst {
            let ret = m.function(*func).ret;
            kinds[d.index()] = match ret {
                Some(Ty::I8 | Ty::I16 | Ty::I32) => RegKind::Int32,
                Some(Ty::F64) => RegKind::Float,
                _ => RegKind::Wide,
            };
        }
    }
}

/// Rewrite `d = extend(s)` with `d != s` into `d = copy s; d = extend d`
/// so every extension is in the canonical in-place form the elimination
/// machinery manipulates.
pub fn normalize_extends(f: &mut Function) -> usize {
    let mut changed = 0;
    for b in 0..f.blocks.len() {
        let old = std::mem::take(&mut f.blocks[b].insts);
        let mut new = Vec::with_capacity(old.len());
        for inst in old {
            match inst {
                Inst::Extend { dst, src, from } if dst != src => {
                    new.push(Inst::Copy { dst, src, ty: from.ty() });
                    new.push(Inst::Extend { dst, src: dst, from });
                    changed += 1;
                }
                Inst::JustExtended { dst, src, from } if dst != src => {
                    new.push(Inst::Copy { dst, src, ty: from.ty() });
                    new.push(Inst::JustExtended { dst, src: dst, from });
                    changed += 1;
                }
                other => new.push(other),
            }
        }
        f.blocks[b].insts = new;
    }
    changed
}

/// Strategy selector for [`convert_function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenStrategy {
    /// Generate after definitions (Figure 6(b), the paper's approach).
    AfterDef,
    /// Generate before uses (Figure 6(c), reference).
    BeforeUse,
}

/// Convert one function to 64-bit form; returns the number of extensions
/// generated.
///
/// # Panics
/// Panics if register kinds cannot be inferred (malformed input).
pub fn convert_function(f: &mut Function, target: Target, strategy: GenStrategy) -> usize {
    convert_function_with_kinds(f, target, strategy, None)
}

fn convert_function_with_kinds(
    f: &mut Function,
    target: Target,
    strategy: GenStrategy,
    kinds: Option<Vec<RegKind>>,
) -> usize {
    normalize_extends(f);
    let kinds = match kinds {
        Some(k) => k,
        None => infer_kinds(f).expect("register kinds must be consistent"),
    };
    let cfg = Cfg::compute(f);
    let avail = AvailableExt::compute(f, &cfg, target, Width::W32);

    let mut generated = 0;
    for b in f.block_ids().collect::<Vec<_>>() {
        // Facts in force at the block entry (computed on the original
        // code; newly generated extensions only strengthen facts, so this
        // is sound and at worst generates a redundant extension).
        let mut state: Vec<ExtFacts> = (0..f.reg_count)
            .map(|r| avail.at_block_entry(b, Reg(r)))
            .collect();
        let old = std::mem::take(&mut f.block_mut(b).insts);
        let mut new = Vec::with_capacity(old.len() * 2);
        for inst in old {
            if matches!(inst, Inst::Nop) {
                continue;
            }
            if strategy == GenStrategy::BeforeUse {
                // Extend each required 32-bit operand not already known
                // extended.
                let mut done: Vec<Reg> = Vec::new();
                for (r, kind) in classify_uses(&inst, Width::W32) {
                    let needs = matches!(kind, UseKind::Required | UseKind::ArrayIndex);
                    if needs
                        && kinds[r.index()] == RegKind::Int32
                        && !state[r.index()].sign_extended
                        && !done.contains(&r)
                    {
                        new.push(Inst::Extend { dst: r, src: r, from: Width::W32 });
                        state[r.index()] = ExtFacts::EXTENDED;
                        generated += 1;
                        done.push(r);
                    }
                }
            }
            let dst = inst.dst();
            let facts = def_facts(&inst, target, Width::W32, &mut |r: Reg| state[r.index()]);
            new.push(inst);
            if let Some(d) = dst {
                state[d.index()] = facts;
                if strategy == GenStrategy::AfterDef
                    && kinds[d.index()] == RegKind::Int32
                    && !facts.sign_extended
                {
                    new.push(Inst::Extend { dst: d, src: d, from: Width::W32 });
                    state[d.index()] = ExtFacts::EXTENDED;
                    generated += 1;
                }
            }
        }
        f.block_mut(b).insts = new;
    }
    generated
}

/// Convert every function of a module, refining call-result kinds from
/// the callee signatures.
///
/// # Panics
/// Panics if register kinds cannot be inferred for some function.
pub fn convert_module(m: &mut sxe_ir::Module, target: Target, strategy: GenStrategy) -> usize {
    let mut total = 0;
    for fi in 0..m.functions.len() {
        let mut kinds = infer_kinds(&m.functions[fi]).expect("consistent kinds");
        refine_call_kinds(m, &m.functions[fi], &mut kinds);
        total += convert_function_with_kinds(&mut m.functions[fi], target, strategy, Some(kinds));
    }
    total
}

/// Facts-aware check used by tests: whether a function still computes the
/// "fully extended everywhere" discipline, i.e. every required use is of
/// an extended register. Used as a sanity check on conversion output.
#[must_use]
pub fn fully_extended(f: &Function, target: Target) -> bool {
    let cfg = Cfg::compute(f);
    let avail = AvailableExt::compute(f, &cfg, target, Width::W32);
    let kinds = match infer_kinds(f) {
        Ok(k) => k,
        Err(_) => return false,
    };
    for b in f.block_ids() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let mut w = avail.walk_block(f, b);
        for inst in &f.block(b).insts {
            for (r, kind) in classify_uses(inst, Width::W32) {
                let needs = matches!(kind, UseKind::Required | UseKind::ArrayIndex);
                if needs && kinds[r.index()] == RegKind::Int32 && !w.facts(r).sign_extended {
                    return false;
                }
            }
            w.step();
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{parse_function, verify_function, BlockId};

    #[test]
    fn gen_def_extends_after_arith() {
        let mut f = parse_function(
            "func @f(i32, i32) -> f64 {\n\
             b0:\n    r2 = add.i32 r0, r1\n    r3 = i32tof64.f64 r2\n    ret r3\n}\n",
        )
        .unwrap();
        let n = convert_function(&mut f, Target::Ia64, GenStrategy::AfterDef);
        assert_eq!(n, 1);
        verify_function(&f).unwrap();
        // The extension is placed right after the add.
        let insts = &f.block(BlockId(0)).insts;
        assert!(matches!(insts[0], Inst::Bin { .. }));
        assert!(insts[1].is_extend(Some(Width::W32)));
        assert!(fully_extended(&f, Target::Ia64));
    }

    #[test]
    fn gen_def_skips_guaranteed_defs() {
        // Constants, setcc, array lengths, byte loads: all arrive
        // extended; no extension generated.
        let mut f = parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 -3\n    r2 = set.lt.i32 r0, r1\n    r3 = newarray.i8 r0\n    r4 = len r3\n    r5 = aload.i8 r3, r2\n    ret r5\n}\n",
        )
        .unwrap();
        let n = convert_function(&mut f, Target::Ia64, GenStrategy::AfterDef);
        assert_eq!(n, 0);
    }

    #[test]
    fn ia64_load_needs_extension_ppc_does_not() {
        let src = "func @f(i32) -> i32 {\n\
             b0:\n    r1 = newarray.i32 r0\n    r2 = aload.i32 r1, r0\n    ret r2\n}\n";
        let mut fi = parse_function(src).unwrap();
        assert_eq!(convert_function(&mut fi, Target::Ia64, GenStrategy::AfterDef), 1);
        let mut fp = parse_function(src).unwrap();
        assert_eq!(convert_function(&mut fp, Target::Ppc64, GenStrategy::AfterDef), 0);
    }

    #[test]
    fn mips64_alu_results_are_born_extended() {
        // Every true 32-bit ALU op canonicalizes on MIPS64, so the
        // conversion that generates one extension per arithmetic def on
        // IA64 generates none at all there.
        let src = "func @f(i32, i32) -> f64 {\n\
             b0:\n    r2 = add.i32 r0, r1\n    r3 = sub.i32 r2, r0\n    r4 = i32tof64.f64 r3\n    ret r4\n}\n";
        let mut fi = parse_function(src).unwrap();
        assert_eq!(convert_function(&mut fi, Target::Ia64, GenStrategy::AfterDef), 2);
        let mut fm = parse_function(src).unwrap();
        assert_eq!(convert_function(&mut fm, Target::Mips64, GenStrategy::AfterDef), 0);
        assert!(fully_extended(&fm, Target::Mips64));
        // Bitwise ops have no 32-bit MIPS forms: `or` still needs its
        // extension when the result feeds a Required use.
        let src = "func @f(i32, i32) -> f64 {\n\
             b0:\n    r2 = or.i32 r0, r1\n    r3 = i32tof64.f64 r2\n    ret r3\n}\n";
        let mut fm = parse_function(src).unwrap();
        // Params arrive extended, and or preserves extension — so even
        // this generates nothing; force the issue with an add feeding or.
        assert_eq!(convert_function(&mut fm, Target::Mips64, GenStrategy::AfterDef), 0);
        let src = "func @f(i32) -> f64 {\n\
             b0:\n    r1 = shru.i32 r0, r0\n    r2 = or.i32 r1, r0\n    r3 = i32tof64.f64 r2\n    ret r3\n}\n";
        let mut fm = parse_function(src).unwrap();
        // shru is canonical (extended) on MIPS64 and r0 arrives extended,
        // so or of the two is still extended: no residue.
        assert_eq!(convert_function(&mut fm, Target::Mips64, GenStrategy::AfterDef), 0);
        let mut fi = parse_function(src).unwrap();
        // On IA64 the shru result is only upper-zero, not sign-extended,
        // so it needs the one extension MIPS64 gets for free.
        assert_eq!(convert_function(&mut fi, Target::Ia64, GenStrategy::AfterDef), 1);
    }

    #[test]
    fn mips64_i32_load_needs_no_extension() {
        let src = "func @f(i32) -> i32 {\n\
             b0:\n    r1 = newarray.i32 r0\n    r2 = aload.i32 r1, r0\n    ret r2\n}\n";
        let mut fm = parse_function(src).unwrap();
        assert_eq!(convert_function(&mut fm, Target::Mips64, GenStrategy::AfterDef), 0);
    }

    #[test]
    fn gen_use_extends_before_required_use() {
        let mut f = parse_function(
            "func @f(i32, i32) -> f64 {\n\
             b0:\n    r2 = add.i32 r0, r1\n    r3 = sub.i32 r2, r0\n    r4 = i32tof64.f64 r3\n    ret r4\n}\n",
        )
        .unwrap();
        let n = convert_function(&mut f, Target::Ia64, GenStrategy::BeforeUse);
        // Only one extension: before the i2d (the adds/subs don't need
        // extended inputs).
        assert_eq!(n, 1);
        let insts = &f.block(BlockId(0)).insts;
        assert!(insts[2].is_extend(Some(Width::W32)));
        assert!(fully_extended(&f, Target::Ia64));
    }

    #[test]
    fn normalization_splits_two_reg_extends() {
        let mut f = parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = extend.32 r0\n    ret r1\n}\n",
        )
        .unwrap();
        assert_eq!(normalize_extends(&mut f), 1);
        let insts = &f.block(BlockId(0)).insts;
        assert!(matches!(insts[0], Inst::Copy { dst: Reg(1), src: Reg(0), .. }));
        assert!(matches!(insts[1], Inst::Extend { dst: Reg(1), src: Reg(1), .. }));
        verify_function(&f).unwrap();
    }

    #[test]
    fn kinds_inferred() {
        let f = parse_function(
            "func @f(i32, i64, f64) -> i32 {\n\
             b0:\n    r3 = newarray.i32 r0\n    r4 = aload.i32 r3, r0\n    r5 = constf 1.0\n    ret r4\n}\n",
        )
        .unwrap();
        let k = infer_kinds(&f).unwrap();
        assert_eq!(k[0], RegKind::Int32);
        assert_eq!(k[1], RegKind::Wide);
        assert_eq!(k[2], RegKind::Float);
        assert_eq!(k[3], RegKind::Wide); // array ref
        assert_eq!(k[4], RegKind::Int32);
        assert_eq!(k[5], RegKind::Float);
    }

    #[test]
    fn conflicting_kinds_rejected() {
        let f = parse_function(
            "func @f() -> i32 {\n\
             b0:\n    r0 = const.i32 1\n    r0 = constf 1.0\n    ret r0\n}\n",
        )
        .unwrap();
        assert!(infer_kinds(&f).is_err());
    }

    #[test]
    fn loop_counter_gets_extended_each_iteration() {
        // The canonical countdown loop of the paper's Figure 3.
        let mut f = parse_function(
            "func @f(i32, i32) -> i32 {\n\
             b0:\n    br b1\n\
             b1:\n    r2 = const.i32 1\n    r0 = sub.i32 r0, r2\n    condbr gt.i32 r0, r1, b1, b2\n\
             b2:\n    ret r0\n}\n",
        )
        .unwrap();
        let n = convert_function(&mut f, Target::Ia64, GenStrategy::AfterDef);
        assert_eq!(n, 1); // after the sub
        assert!(fully_extended(&f, Target::Ia64));
    }
}

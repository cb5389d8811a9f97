//! IR well-formedness verification.
//!
//! [`verify_function`] is also the *pass gate* of the fault-isolated
//! compile pipeline in `sxe-jit`: it runs after every optimization pass,
//! and a failure rolls the function back to its last-good snapshot. The
//! checks therefore go beyond pure structure: a definite-assignment
//! analysis guarantees every use is reached by a definition along every
//! path (defs dominate uses along UD chains), and conversion/extension
//! instructions are checked for operand-width consistency.

use std::fmt;

use crate::cfg::Cfg;
use crate::function::{Function, InstId, Module};
use crate::inst::Inst;
use crate::types::{Ty, Width};
use crate::UnOp;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name.
    pub function: String,
    /// Offending instruction, if the error is instruction-local.
    pub at: Option<InstId>,
    /// Description of the violation.
    pub message: String,
    /// Name of the compilation pass whose output failed the gate, when
    /// verification ran as a pipeline gate (filled by the `sxe-jit`
    /// containment harness; `None` for standalone verification).
    pub pass: Option<String>,
}

impl VerifyError {
    /// Attach the name of the pass whose output failed the gate.
    #[must_use]
    pub fn in_pass(mut self, pass: &str) -> VerifyError {
        self.pass = Some(pass.to_string());
        self
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(pass) = &self.pass {
            write!(f, "after pass `{pass}`: ")?;
        }
        match self.at {
            Some(at) => write!(f, "{}: at {}: {}", self.function, at, self.message),
            None => write!(f, "{}: {}", self.function, self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Check the structural invariants of a function:
///
/// * every block ends with exactly one terminator, and terminators appear
///   nowhere else;
/// * all branch targets are valid block ids;
/// * all registers are below `reg_count`;
/// * `ret` carries a value iff the function has a return type;
/// * conversion and zero-extension operations carry consistent types
///   (`i32tof64` produces `f64`, `zext32` widens to `i64`, ...);
/// * on every reachable path, each register use is preceded by a
///   definition of that register (definite assignment — the static
///   counterpart of "defs dominate uses" on the UD chains).
///
/// # Errors
/// Returns the first violation found.
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    let fail = |at: Option<InstId>, message: String| VerifyError {
        function: f.name.clone(),
        at,
        message,
        pass: None,
    };
    if f.blocks.is_empty() {
        return Err(fail(None, "function has no blocks".into()));
    }
    // One buffer for every instruction's uses, here and in definite
    // assignment: `Inst::uses` would allocate per instruction.
    let mut uses = Vec::new();
    for b in f.block_ids() {
        let blk = f.block(b);
        let Some(term) = blk.insts.last() else {
            return Err(fail(None, format!("block {b} is empty")));
        };
        if !term.is_terminator() {
            return Err(fail(
                Some(InstId::new(b, blk.insts.len() - 1)),
                format!("block {b} does not end with a terminator"),
            ));
        }
        for (i, inst) in blk.insts.iter().enumerate() {
            let at = InstId::new(b, i);
            if i + 1 != blk.insts.len() && inst.is_terminator() {
                return Err(fail(Some(at), "terminator in the middle of a block".into()));
            }
            for t in inst.successors() {
                if t.index() >= f.blocks.len() {
                    return Err(fail(Some(at), format!("branch to missing block {t}")));
                }
            }
            uses.clear();
            inst.collect_uses(&mut uses);
            for &r in &uses {
                if r.0 >= f.reg_count {
                    return Err(fail(Some(at), format!("use of unallocated register {r}")));
                }
            }
            if let Some(d) = inst.dst() {
                if d.0 >= f.reg_count {
                    return Err(fail(Some(at), format!("def of unallocated register {d}")));
                }
            }
            if let Inst::Ret { value } = inst {
                match (value, f.ret) {
                    (Some(_), None) => {
                        return Err(fail(Some(at), "ret with value in void function".into()))
                    }
                    (None, Some(_)) => {
                        return Err(fail(Some(at), "ret without value in non-void function".into()))
                    }
                    _ => {}
                }
            }
            check_width_consistency(inst).map_err(|m| fail(Some(at), m))?;
        }
    }
    check_definite_assignment(f, &mut uses, &fail)?;
    Ok(())
}

/// Operand-width consistency for conversions and zero extensions: the
/// declared operation type must match what the operation produces. A pass
/// that rewrites types carelessly (or corrupted IR injected by the chaos
/// harness) is caught here before it can miscompile.
fn check_width_consistency(inst: &Inst) -> Result<(), String> {
    let Inst::Un { op, ty, .. } = inst else { return Ok(()) };
    match (op, ty) {
        (UnOp::I32ToF64 | UnOp::I64ToF64, Ty::F64) => Ok(()),
        (UnOp::I32ToF64 | UnOp::I64ToF64, ty) => {
            Err(format!("{op} must produce f64, not {ty}"))
        }
        (UnOp::F64ToI32, Ty::I32) | (UnOp::F64ToI64, Ty::I64) => Ok(()),
        (UnOp::F64ToI32, ty) => Err(format!("{op} must produce i32, not {ty}")),
        (UnOp::F64ToI64, ty) => Err(format!("{op} must produce i64, not {ty}")),
        (UnOp::Zext(Width::W32), Ty::I64) => Ok(()),
        (UnOp::Zext(Width::W32), ty) => {
            Err(format!("zext32 must widen to i64, not {ty}"))
        }
        (UnOp::Zext(_), Ty::I32 | Ty::I64) => Ok(()),
        (UnOp::Zext(w), ty) => Err(format!("zext{} at non-integer type {ty}", w.bits())),
        _ => Ok(()),
    }
}

/// Definite assignment: on every path from function entry to a use of
/// register `r`, some definition of `r` (a parameter or an instruction
/// def) must occur first. Forward must-dataflow over the reachable CFG
/// with bitsets; unreachable blocks are skipped (they execute never and
/// routinely hold dead code mid-pipeline).
///
/// Every block's OUT set lives in one flat `words × blocks` buffer, and
/// each block's IN set is refilled in place in one reused `cur` buffer,
/// so an iteration allocates nothing; `uses` is a scratch buffer.
fn check_definite_assignment(
    f: &Function,
    uses: &mut Vec<crate::Reg>,
    fail: &dyn Fn(Option<InstId>, String) -> VerifyError,
) -> Result<(), VerifyError> {
    let cfg = Cfg::compute(f);
    let words = (f.reg_count as usize).div_ceil(64);
    let set = |bits: &mut [u64], r: u32| bits[r as usize / 64] |= 1 << (r % 64);
    let test = |bits: &[u64], r: u32| bits[r as usize / 64] >> (r % 64) & 1 == 1;

    // OUT[b] is `out[b * words..][..words]`, valid once `done[b]`; until
    // then it is the must-analysis top (the universal set).
    let mut out = vec![0u64; words * f.blocks.len()];
    let mut done = vec![false; f.blocks.len()];
    let mut cur = vec![0u64; words];
    // IN[b] into `cur`: the parameters at the entry; elsewhere the
    // universal set narrowed by every computed predecessor's OUT.
    let block_in = |out: &[u64], done: &[bool], b: crate::BlockId, cur: &mut [u64]| {
        if b == f.entry() {
            cur.fill(0);
            for &(r, _) in &f.params {
                set(cur, r.0);
            }
            return;
        }
        cur.fill(u64::MAX);
        for &p in cfg.preds(b) {
            if done[p.index()] {
                for (c, o) in cur.iter_mut().zip(&out[p.index() * words..][..words]) {
                    *c &= o;
                }
            }
        }
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo() {
            block_in(&out, &done, b, &mut cur);
            for inst in &f.block(b).insts {
                if let Some(d) = inst.dst() {
                    set(&mut cur, d.0);
                }
            }
            let slot = &mut out[b.index() * words..][..words];
            if !done[b.index()] || *slot != *cur {
                slot.copy_from_slice(&cur);
                done[b.index()] = true;
                changed = true;
            }
        }
    }

    for &b in cfg.rpo() {
        block_in(&out, &done, b, &mut cur);
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            uses.clear();
            inst.collect_uses(uses);
            for &r in uses.iter() {
                if !test(&cur, r.0) {
                    return Err(fail(
                        Some(InstId::new(b, i)),
                        format!("use of {r} before definite assignment"),
                    ));
                }
            }
            if let Some(d) = inst.dst() {
                set(&mut cur, d.0);
            }
        }
    }
    Ok(())
}

/// Verify every function of a module, plus call-site arity against the
/// callee signatures.
///
/// # Errors
/// Returns the first violation found.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for (_, f) in m.iter() {
        verify_function(f)?;
        for (at, inst) in f.insts() {
            if let Inst::Call { dst, func, args } = inst {
                if func.index() >= m.functions.len() {
                    return Err(VerifyError {
                        function: f.name.clone(),
                        at: Some(at),
                        message: format!("call to missing function {func}"),
                        pass: None,
                    });
                }
                let callee = m.function(*func);
                if args.len() != callee.params.len() {
                    return Err(VerifyError {
                        function: f.name.clone(),
                        at: Some(at),
                        message: format!(
                            "call to @{} passes {} args, expected {}",
                            callee.name,
                            args.len(),
                            callee.params.len()
                        ),
                        pass: None,
                    });
                }
                if dst.is_some() != callee.ret.is_some() {
                    return Err(VerifyError {
                        function: f.name.clone(),
                        at: Some(at),
                        message: format!(
                            "call result mismatch with @{} (returns {:?})",
                            callee.name, callee.ret
                        ),
                        pass: None,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BlockId, Reg};
    use crate::rng::XorShift;
    use crate::types::Ty;

    #[test]
    fn good_function_verifies() {
        let mut b = FunctionBuilder::new("ok", vec![Ty::I32], Some(Ty::I32));
        let p = b.param(0);
        b.ret(Some(p));
        assert!(verify_function(&b.finish()).is_ok());
    }

    #[test]
    fn missing_terminator() {
        let mut f = Function::new("bad", vec![], None);
        f.block_mut(BlockId(0)).insts.push(Inst::Nop);
        let e = verify_function(&f).unwrap_err();
        assert_eq!(e.message, "block b0 does not end with a terminator");
    }

    #[test]
    fn unreachable_block_missing_terminator() {
        // The unreachable block still fails the *structural* checks: a
        // rolled-back pass must leave no half-built blocks anywhere.
        let mut f = Function::new("bad", vec![], None);
        f.block_mut(BlockId(0)).insts.push(Inst::Ret { value: None });
        let b1 = f.new_block();
        f.block_mut(b1).insts.push(Inst::Nop);
        let e = verify_function(&f).unwrap_err();
        assert_eq!(e.message, "block b1 does not end with a terminator");
        assert_eq!(e.at, Some(InstId::new(b1, 0)));
    }

    #[test]
    fn unreachable_empty_block() {
        let mut f = Function::new("bad", vec![], None);
        f.block_mut(BlockId(0)).insts.push(Inst::Ret { value: None });
        f.new_block();
        let e = verify_function(&f).unwrap_err();
        assert_eq!(e.message, "block b1 is empty");
    }

    #[test]
    fn branch_to_missing_block() {
        let mut f = Function::new("bad", vec![], None);
        f.block_mut(BlockId(0)).insts.push(Inst::Br { target: BlockId(9) });
        let e = verify_function(&f).unwrap_err();
        assert_eq!(e.message, "branch to missing block b9");
    }

    #[test]
    fn unallocated_register() {
        let mut f = Function::new("bad", vec![], Some(Ty::I32));
        f.block_mut(BlockId(0)).insts.push(Inst::Ret { value: Some(Reg(5)) });
        let e = verify_function(&f).unwrap_err();
        assert_eq!(e.message, "use of unallocated register r5");
    }

    #[test]
    fn unallocated_def_register() {
        let mut f = Function::new("bad", vec![], None);
        f.block_mut(BlockId(0)).insts.push(Inst::Const { dst: Reg(3), value: 0, ty: Ty::I32 });
        f.block_mut(BlockId(0)).insts.push(Inst::Ret { value: None });
        let e = verify_function(&f).unwrap_err();
        assert_eq!(e.message, "def of unallocated register r3");
    }

    #[test]
    fn ret_arity() {
        let mut f = Function::new("bad", vec![], None);
        f.reg_count = 1;
        f.block_mut(BlockId(0)).insts.push(Inst::Ret { value: Some(Reg(0)) });
        // `ret r0` also uses r0 before assignment, but the arity check
        // runs first within an instruction.
        let e = verify_function(&f).unwrap_err();
        assert_eq!(e.message, "ret with value in void function");
    }

    #[test]
    fn ret_missing_value() {
        let mut f = Function::new("bad", vec![], Some(Ty::I32));
        f.block_mut(BlockId(0)).insts.push(Inst::Ret { value: None });
        let e = verify_function(&f).unwrap_err();
        assert_eq!(e.message, "ret without value in non-void function");
    }

    #[test]
    fn use_before_any_definition() {
        let mut f = Function::new("bad", vec![], Some(Ty::I32));
        f.reg_count = 1;
        f.block_mut(BlockId(0)).insts.push(Inst::Ret { value: Some(Reg(0)) });
        let e = verify_function(&f).unwrap_err();
        assert_eq!(e.message, "use of r0 before definite assignment");
    }

    /// b0: condbr p, b1, b2 ; b1 defines r1 then joins; b2 joins
    /// directly; the join uses r1 — not definitely assigned.
    fn defined_on_one_path_only() -> Function {
        let mut f = Function::new("bad", vec![Ty::I32], Some(Ty::I32));
        f.reg_count = 2;
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        f.block_mut(BlockId(0)).insts.push(Inst::CondBr {
            cond: crate::Cond::Gt,
            ty: Ty::I32,
            lhs: Reg(0),
            rhs: Reg(0),
            then_bb: b1,
            else_bb: b2,
        });
        f.block_mut(b1).insts.push(Inst::Const { dst: Reg(1), value: 1, ty: Ty::I32 });
        f.block_mut(b1).insts.push(Inst::Br { target: b3 });
        f.block_mut(b2).insts.push(Inst::Br { target: b3 });
        f.block_mut(b3).insts.push(Inst::Ret { value: Some(Reg(1)) });
        f
    }

    #[test]
    fn use_defined_on_one_path_only() {
        let e = verify_function(&defined_on_one_path_only()).unwrap_err();
        assert_eq!(e.message, "use of r1 before definite assignment");
        assert_eq!(e.at, Some(InstId::new(BlockId(3), 0)));
    }

    fn defined_on_both_paths() -> Function {
        let mut b = FunctionBuilder::new("ok", vec![Ty::I32], Some(Ty::I32));
        let p = b.param(0);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let out = b.new_reg();
        b.cond_br(crate::Cond::Gt, Ty::I32, p, p, t, e);
        b.switch_to(t);
        b.copy_to(Ty::I32, out, p);
        b.br(j);
        b.switch_to(e);
        let one = b.iconst(Ty::I32, 1);
        b.copy_to(Ty::I32, out, one);
        b.br(j);
        b.switch_to(j);
        b.ret(Some(out));
        b.finish()
    }

    #[test]
    fn use_defined_on_both_paths_ok() {
        assert!(verify_function(&defined_on_both_paths()).is_ok());
    }

    /// r1 defined before the loop, redefined inside, used after: the
    /// back edge must not confuse the must-analysis.
    fn loop_carried_definition() -> Function {
        crate::parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 0\n    br b1\n\
             b1:\n    r2 = const.i32 1\n    r1 = add.i32 r1, r2\n    condbr gt.i32 r0, r1, b1, b2\n\
             b2:\n    ret r1\n}\n",
        )
        .unwrap()
    }

    #[test]
    fn loop_carried_definition_ok() {
        assert!(verify_function(&loop_carried_definition()).is_ok());
    }

    /// The clone-per-block definite assignment that the flat-buffer
    /// [`check_definite_assignment`] replaced, kept as its test oracle:
    /// the same must-dataflow, with `OUT[b]` as an optional bitset cloned
    /// for every block on every iteration.
    fn check_definite_assignment_oracle(
        f: &Function,
        fail: &dyn Fn(Option<InstId>, String) -> VerifyError,
    ) -> Result<(), VerifyError> {
        let cfg = Cfg::compute(f);
        let words = (f.reg_count as usize).div_ceil(64);
        let set = |bits: &mut [u64], r: u32| bits[r as usize / 64] |= 1 << (r % 64);
        let test = |bits: &[u64], r: u32| bits[r as usize / 64] >> (r % 64) & 1 == 1;

        let mut entry_in = vec![0u64; words];
        for &(r, _) in &f.params {
            set(&mut entry_in, r.0);
        }

        // OUT[b]; `None` means "not yet computed" (the must-analysis top:
        // universal set).
        let mut out: Vec<Option<Vec<u64>>> = vec![None; f.blocks.len()];
        let block_in = |out: &[Option<Vec<u64>>], b: crate::BlockId| -> Vec<u64> {
            if b == f.entry() {
                return entry_in.clone();
            }
            let mut acc: Option<Vec<u64>> = None;
            for &p in cfg.preds(b) {
                if let Some(po) = &out[p.index()] {
                    acc = Some(match acc {
                        None => po.clone(),
                        Some(mut a) => {
                            for (aw, pw) in a.iter_mut().zip(po) {
                                *aw &= pw;
                            }
                            a
                        }
                    });
                }
            }
            // No computed predecessor yet: start from the universal set so the
            // intersection can only shrink.
            acc.unwrap_or_else(|| vec![u64::MAX; words])
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo() {
                let mut cur = block_in(&out, b);
                for inst in &f.block(b).insts {
                    if let Some(d) = inst.dst() {
                        set(&mut cur, d.0);
                    }
                }
                if out[b.index()].as_ref() != Some(&cur) {
                    out[b.index()] = Some(cur);
                    changed = true;
                }
            }
        }

        for &b in cfg.rpo() {
            let mut cur = block_in(&out, b);
            for (i, inst) in f.block(b).insts.iter().enumerate() {
                for r in inst.uses() {
                    if !test(&cur, r.0) {
                        return Err(fail(
                            Some(InstId::new(b, i)),
                            format!("use of {r} before definite assignment"),
                        ));
                    }
                }
                if let Some(d) = inst.dst() {
                    set(&mut cur, d.0);
                }
            }
        }
        Ok(())
    }

    /// Both implementations on `f`, with the error `verify_function`
    /// would build.
    fn flat_and_oracle(f: &Function) -> (Result<(), VerifyError>, Result<(), VerifyError>) {
        let fail = |at: Option<InstId>, message: String| VerifyError {
            function: f.name.clone(),
            at,
            message,
            pass: None,
        };
        (
            check_definite_assignment(f, &mut Vec::new(), &fail),
            check_definite_assignment_oracle(f, &fail),
        )
    }

    #[test]
    fn flat_buffer_matches_the_oracle_on_the_unit_functions() {
        let use_before_def = {
            let mut f = Function::new("bad", vec![], Some(Ty::I32));
            f.reg_count = 1;
            f.block_mut(BlockId(0)).insts.push(Inst::Ret { value: Some(Reg(0)) });
            f
        };
        let good = {
            let mut b = FunctionBuilder::new("ok", vec![Ty::I32], Some(Ty::I32));
            let p = b.param(0);
            b.ret(Some(p));
            b.finish()
        };
        let fns = [
            good,
            use_before_def,
            defined_on_one_path_only(),
            defined_on_both_paths(),
            loop_carried_definition(),
        ];
        for f in &fns {
            let (flat, oracle) = flat_and_oracle(f);
            assert_eq!(flat, oracle, "{f}");
        }
    }

    /// A random CFG of up to 8 blocks over up to 130 registers (so sets
    /// span three words). Defs and uses draw from a small pool of
    /// registers, so some functions verify and some do not.
    fn random_cfg(rng: &mut XorShift) -> Function {
        let params = rng.index(3);
        let mut f = Function::new("r", vec![Ty::I64; params], Some(Ty::I64));
        f.reg_count = (params + 1 + rng.index(130)) as u32;
        let pool: Vec<Reg> = {
            let n = f.reg_count;
            let mut pool: Vec<Reg> = (0..n.min(4)).map(Reg).collect();
            pool.push(Reg(n - 1));
            pool.push(Reg(n / 2));
            pool
        };
        let blocks = 1 + rng.index(8);
        for _ in 1..blocks {
            f.new_block();
        }
        for b in 0..blocks {
            let insts = &mut f.blocks[b].insts;
            for _ in 0..rng.index(5) {
                let dst = *rng.choose(&pool);
                insts.push(if rng.chance(1, 2) {
                    Inst::Const { dst, value: 1, ty: Ty::I64 }
                } else {
                    Inst::Copy { dst, src: *rng.choose(&pool), ty: Ty::I64 }
                });
                if rng.chance(1, 8) {
                    insts.push(Inst::Nop);
                }
            }
            let target = |rng: &mut XorShift| BlockId(rng.index(blocks) as u32);
            insts.push(match rng.index(3) {
                0 => Inst::Br { target: target(rng) },
                1 => Inst::CondBr {
                    cond: crate::Cond::Lt,
                    ty: Ty::I64,
                    lhs: *rng.choose(&pool),
                    rhs: *rng.choose(&pool),
                    then_bb: target(rng),
                    else_bb: target(rng),
                },
                _ => Inst::Ret { value: Some(*rng.choose(&pool)) },
            });
        }
        f
    }

    #[test]
    fn flat_buffer_matches_the_oracle_on_random_cfgs() {
        let mut rng = XorShift::new(0x00da_5eed);
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..400 {
            let f = random_cfg(&mut rng);
            let (flat, oracle) = flat_and_oracle(&f);
            assert_eq!(flat, oracle, "case {case}:\n{f}");
            if flat.is_ok() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(accepted >= 40 && rejected >= 40, "{accepted} accepted, {rejected} rejected");
    }

    #[test]
    fn width_mismatch_i2d() {
        let mut f = Function::new("bad", vec![Ty::I32], Some(Ty::I32));
        f.block_mut(BlockId(0)).insts.push(Inst::Un {
            op: UnOp::I32ToF64,
            ty: Ty::I32,
            dst: Reg(1),
            src: Reg(0),
        });
        f.reg_count = 2;
        f.block_mut(BlockId(0)).insts.push(Inst::Ret { value: Some(Reg(1)) });
        let e = verify_function(&f).unwrap_err();
        assert_eq!(e.message, "i32tof64 must produce f64, not i32");
    }

    #[test]
    fn width_mismatch_zext32() {
        let mut f = Function::new("bad", vec![Ty::I32], Some(Ty::I32));
        f.block_mut(BlockId(0)).insts.push(Inst::Un {
            op: UnOp::Zext(Width::W32),
            ty: Ty::I32,
            dst: Reg(1),
            src: Reg(0),
        });
        f.reg_count = 2;
        f.block_mut(BlockId(0)).insts.push(Inst::Ret { value: Some(Reg(1)) });
        let e = verify_function(&f).unwrap_err();
        assert_eq!(e.message, "zext32 must widen to i64, not i32");
    }

    #[test]
    fn pass_context_in_display() {
        let mut f = Function::new("bad", vec![], None);
        f.block_mut(BlockId(0)).insts.push(Inst::Nop);
        let e = verify_function(&f).unwrap_err().in_pass("dce");
        assert_eq!(e.pass.as_deref(), Some("dce"));
        let s = e.to_string();
        assert!(s.starts_with("after pass `dce`:"), "{s}");
    }

    #[test]
    fn call_arity_checked() {
        use crate::Module;
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("callee", vec![Ty::I32, Ty::I32], None);
        b.ret(None);
        let callee = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("caller", vec![Ty::I32], None);
        let p = b.param(0);
        b.call(callee, vec![p], false);
        b.ret(None);
        m.add_function(b.finish());
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("expected 2"));
    }
}

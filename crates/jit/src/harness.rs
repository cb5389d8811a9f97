//! The containment harness: panic isolation, verification gates with
//! rollback, compile budgets, and deterministic fault injection.
//!
//! Every phase of the pipeline runs inside a *boundary*
//! (`Harness::run_boundary`):
//!
//! 1. a snapshot of the target IR is taken;
//! 2. the pass body runs under [`std::panic::catch_unwind`] — a panic is
//!    caught, the IR restored from the snapshot, and the pass disabled
//!    for the rest of the compilation;
//! 3. the output is checked by the verification gate
//!    ([`sxe_ir::verify_function`] / [`sxe_ir::verify_module`]) — a gate failure
//!    rolls back and disables exactly like a panic;
//! 4. an exhausted [`Budget`] skips the body entirely, keeping the
//!    current (already verified) IR: the pipeline salvages rather than
//!    aborts.
//!
//! A [`FaultPlan`] injects one deterministic fault at a chosen boundary —
//! a panic after the body ran (so rollback must undo real mutations), a
//! deterministic IR corruption the gate must catch, or a forced budget
//! exhaustion — which is how the chaos suite proves the containment
//! machinery actually works.

use std::cell::Cell;
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Once;
use std::time::Instant;

use sxe_ir::rng::XorShift;
use sxe_ir::{BlockId, Budget, Function, Inst, Module, Reg, Ty, VerifyError};
use sxe_telemetry::{ArgValue, Clock, Event, Lane};

use crate::report::{CompileReport, InjectedFault, PassRecord, PassStatus, RollbackCause};

/// A deterministic fault to inject during one compilation. At most one
/// of the sites is set; boundaries are numbered in execution order from
/// zero. The first three kinds are *contained* faults the pipeline must
/// survive; [`FaultPlan::miscompile_at`] is the deliberately uncontained
/// one the differential oracle must catch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed this plan was derived from; also seeds the corruption RNG.
    pub seed: u64,
    /// Boundary at which the pass body panics (after doing its work).
    pub panic_at: Option<u32>,
    /// Boundary after which the IR is deterministically corrupted.
    pub corrupt_at: Option<u32>,
    /// Boundary at which the budget is force-exhausted.
    pub exhaust_at: Option<u32>,
    /// Boundary after which a verifier-clean *semantic* sabotage is
    /// applied — once the gate has already passed, so no containment
    /// layer can roll it back. Never chosen by [`FaultPlan::from_seed`]:
    /// unlike the three contained kinds this is designed to ship a real
    /// miscompile, and exists so the fuzz subsystem's planted-bug mode
    /// can prove the differential oracle (and nothing weaker) catches
    /// one end to end.
    pub miscompile_at: Option<u32>,
}

impl FaultPlan {
    /// Derive a plan from a seed: fault kind and target boundary are both
    /// pseudo-random but fully determined by `seed`. `boundaries` is the
    /// boundary count of a fault-free compilation of the same module
    /// (read it off a dry run's [`CompileReport::boundaries`]).
    #[must_use]
    pub fn from_seed(seed: u64, boundaries: u32) -> FaultPlan {
        let mut rng = XorShift::new(seed);
        let at = Some(rng.below(u64::from(boundaries.max(1))) as u32);
        let mut plan = FaultPlan { seed, ..FaultPlan::default() };
        match rng.below(3) {
            0 => plan.panic_at = at,
            1 => plan.corrupt_at = at,
            _ => plan.exhaust_at = at,
        }
        plan
    }

    /// A plan that plants an uncontained miscompile at `boundary` (see
    /// [`FaultPlan::miscompile_at`]).
    #[must_use]
    pub fn miscompile(seed: u64, boundary: u32) -> FaultPlan {
        FaultPlan { seed, miscompile_at: Some(boundary), ..FaultPlan::default() }
    }
}

/// Verifier-clean semantic sabotage, applied after a boundary's gate has
/// passed when [`FaultPlan::miscompile_at`] targets it. The change must
/// be *structurally* untouchable — every verification rule still holds —
/// while being semantically wrong, which is exactly the class of bug
/// only the differential oracle can catch.
pub(crate) trait Miscompilable {
    /// Apply the sabotage; `false` when there is nothing to sabotage.
    fn sabotage(&mut self) -> bool;
}

impl Miscompilable for Function {
    fn sabotage(&mut self) -> bool {
        // Flip bit 1 of the first constant: an off-by-two nobody's gate
        // can object to. Fall back to swapping the first conditional
        // branch's arms, which is equally well-formed and equally wrong.
        for blk in &mut self.blocks {
            for inst in &mut blk.insts {
                if let Inst::Const { value, .. } = inst {
                    *value ^= 2;
                    return true;
                }
            }
        }
        for blk in &mut self.blocks {
            for inst in &mut blk.insts {
                if let Inst::CondBr { then_bb, else_bb, .. } = inst {
                    std::mem::swap(then_bb, else_bb);
                    return true;
                }
            }
        }
        false
    }
}

impl Miscompilable for Module {
    fn sabotage(&mut self) -> bool {
        // Sabotage every function that has something to sabotage. This
        // keeps the plant stable under test-case reduction: dropping an
        // unrelated function never moves the sabotage off the one whose
        // divergence the fuzzer is minimizing.
        let mut any = false;
        for f in &mut self.functions {
            any |= f.sabotage();
        }
        any
    }
}

thread_local! {
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

/// Wrap the global panic hook (once per process) so panics contained by
/// a boundary do not spray backtraces over the chaos suite's output.
/// Thread-local flag: other threads' panics still print normally.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

struct QuietGuard;

impl QuietGuard {
    fn new() -> QuietGuard {
        SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
        QuietGuard
    }
}

impl Drop for QuietGuard {
    fn drop(&mut self) {
        SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Compilation-wide containment state, shared (by reference) between all
/// boundaries of one compilation — including boundaries running on
/// different worker threads of a sharded compilation. Boundary ordinals
/// come from one atomic counter, so a fault plan targeting ordinal *k*
/// fires exactly once per compilation regardless of sharding; at
/// `threads = 1` the numbering is identical to a fully sequential run.
pub(crate) struct SharedState {
    plan: Option<FaultPlan>,
    counter: AtomicU32,
    pub(crate) budget: Budget,
    /// The telemetry session clock; `None` when tracing is disabled.
    /// Copied into every worker's lanes so all spans share one epoch.
    pub(crate) clock: Option<Clock>,
}

impl SharedState {
    pub(crate) fn new(
        plan: Option<FaultPlan>,
        budget: Budget,
        clock: Option<Clock>,
    ) -> SharedState {
        install_quiet_hook();
        SharedState { plan, counter: AtomicU32::new(0), budget, clock }
    }
}

fn status_tag(status: &PassStatus) -> &'static str {
    match status {
        PassStatus::Ok => "ok",
        PassStatus::Skipped => "skipped",
        PassStatus::RolledBack(_) => "rolled-back",
        PassStatus::BudgetExhausted => "budget-exhausted",
    }
}

/// Per-scope containment state: one harness per module prologue and one
/// per function, each drawing ordinals and fuel from the compilation's
/// [`SharedState`]. The disabled-pass set is scoped to the harness — a
/// pass that panics on one function stays enabled for the others, which
/// both shrinks the blast radius and keeps sharded compiles deterministic.
pub(crate) struct Harness<'a> {
    shared: &'a SharedState,
    disabled: HashSet<String>,
    pub(crate) report: CompileReport,
    /// Telemetry lane for this harness's boundary spans. The label keys
    /// the deterministic span ids, so it must be unique per compilation
    /// (the module prologue and each function's step get their own).
    lane: Lane,
}

impl<'a> Harness<'a> {
    pub(crate) fn new(shared: &'a SharedState, label: &str) -> Harness<'a> {
        Harness {
            shared,
            disabled: HashSet::new(),
            report: CompileReport {
                seed: shared.plan.map(|p| p.seed),
                ..CompileReport::default()
            },
            lane: Lane::new(shared.clock, label),
        }
    }

    /// Consume the harness, yielding its report and trace events for
    /// the driver's deterministic (function-order) merge.
    pub(crate) fn finish(self) -> (CompileReport, Vec<Event>) {
        (self.report, self.lane.into_events())
    }

    /// Run one pass inside a containment boundary. Returns the body's
    /// result when the pass ran to completion and its output verified,
    /// `None` when the pass was skipped, rolled back, or budget-stopped —
    /// in which case `target` holds the last-good IR.
    pub(crate) fn run_boundary<T: Clone + Miscompilable, R>(
        &mut self,
        name: &str,
        function: Option<&str>,
        target: &mut T,
        verify: impl Fn(&T) -> Result<(), VerifyError>,
        corrupt: impl FnOnce(&mut T, &mut XorShift),
        body: impl FnOnce(&mut T, &Budget) -> R,
    ) -> Option<R> {
        let ordinal = self.shared.counter.fetch_add(1, Ordering::Relaxed);
        let plan = self.shared.plan;
        let t0 = Instant::now();
        let mut injected = None;
        let span = self.lane.begin(name.to_string(), "pass");
        let span_id = (span.id() != 0).then(|| span.id());

        // Close the span and record the boundary on every exit path —
        // including the contained-panic one, whose span carries an
        // `incident` tag instead of silently dangling.
        let record = |h: &mut Harness<'_>,
                      status: PassStatus,
                      injected: Option<InjectedFault>,
                      t0: Instant,
                      span: sxe_telemetry::Span| {
            if span.id() != 0 {
                let mut args = vec![("status", ArgValue::from(status_tag(&status)))];
                if injected.is_some()
                    || !matches!(status, PassStatus::Ok | PassStatus::Skipped)
                {
                    args.push(("incident", ArgValue::Bool(true)));
                }
                if let Some(fault) = injected {
                    args.push(("injected", ArgValue::Str(fault.to_string())));
                }
                h.lane.end_with(span, args);
            }
            h.report.records.push(PassRecord {
                pass: name.to_string(),
                function: function.map(str::to_string),
                status,
                injected,
                duration: t0.elapsed(),
                span: span_id,
            });
        };

        if plan.and_then(|p| p.exhaust_at) == Some(ordinal) {
            self.shared.budget.exhaust();
            injected = Some(InjectedFault::Exhaust);
        }
        if self.disabled.contains(name) {
            record(self, PassStatus::Skipped, injected, t0, span);
            return None;
        }
        if !self.shared.budget.spend(1) {
            self.report.budget_exhausted = true;
            record(self, PassStatus::BudgetExhausted, injected, t0, span);
            return None;
        }

        let snapshot = target.clone();
        let inject_panic = plan.and_then(|p| p.panic_at) == Some(ordinal);
        let outcome = {
            let quiet = QuietGuard::new();
            let budget = &self.shared.budget;
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                let r = body(target, budget);
                if inject_panic {
                    panic!("injected fault at boundary {ordinal}");
                }
                r
            }));
            drop(quiet);
            result
        };
        if inject_panic {
            injected = Some(InjectedFault::Panic);
        }

        let value = match outcome {
            Err(payload) => {
                *target = snapshot;
                self.disabled.insert(name.to_string());
                let cause = RollbackCause::Panic(payload_message(payload.as_ref()));
                record(self, PassStatus::RolledBack(cause), injected, t0, span);
                return None;
            }
            Ok(v) => v,
        };

        if plan.and_then(|p| p.corrupt_at) == Some(ordinal) {
            let plan_seed = plan.map_or(0, |p| p.seed);
            let mut rng = XorShift::new(plan_seed ^ (u64::from(ordinal) << 32) ^ 0xc0de);
            corrupt(target, &mut rng);
            injected = Some(InjectedFault::Corrupt);
        }

        match verify(target) {
            Ok(()) => {
                // The plant fires only after the gate passed: the shipped
                // IR is verifier-clean and semantically wrong, on purpose.
                if plan.and_then(|p| p.miscompile_at) == Some(ordinal) && target.sabotage() {
                    injected = Some(InjectedFault::Miscompile);
                }
                record(self, PassStatus::Ok, injected, t0, span);
                Some(value)
            }
            Err(e) => {
                *target = snapshot;
                self.disabled.insert(name.to_string());
                let cause = RollbackCause::Verify(e.in_pass(name));
                record(self, PassStatus::RolledBack(cause), injected, t0, span);
                None
            }
        }
    }
}

/// Deterministically break a function in a way the verification gate is
/// guaranteed to catch. The four corruption shapes mirror the verifier's
/// check classes: unallocated def, branch out of range, missing
/// terminator, and use before definite assignment.
pub(crate) fn corrupt_function(f: &mut Function, rng: &mut XorShift) {
    if f.blocks.is_empty() {
        return;
    }
    let shape = rng.below(4);
    if shape == 0 {
        // Redirect some def to an unallocated register.
        let targets: Vec<_> =
            f.insts().filter(|(_, i)| i.dst().is_some()).map(|(id, _)| id).collect();
        if let Some(&id) = targets.get(rng.index(targets.len().max(1))) {
            let bad = Reg(f.reg_count + 7);
            let inst = f.inst_mut(id);
            match inst {
                Inst::Const { dst, .. }
                | Inst::ConstF { dst, .. }
                | Inst::Copy { dst, .. }
                | Inst::Un { dst, .. }
                | Inst::Bin { dst, .. }
                | Inst::Setcc { dst, .. }
                | Inst::Extend { dst, .. }
                | Inst::JustExtended { dst, .. }
                | Inst::NewArray { dst, .. }
                | Inst::ArrayLen { dst, .. }
                | Inst::ArrayLoad { dst, .. } => *dst = bad,
                Inst::Call { dst, .. } => *dst = Some(bad),
                _ => {}
            }
            return;
        }
    }
    let b = BlockId(rng.index(f.blocks.len()) as u32);
    let blk = f.block_mut(b);
    match shape {
        1 => {
            // Branch to a block that does not exist.
            let missing = BlockId(f.blocks.len() as u32 + 3);
            let blk = f.block_mut(b);
            if let Some(last) = blk.insts.last_mut() {
                *last = Inst::Br { target: missing };
            }
        }
        2 => {
            // Destroy the terminator.
            if let Some(last) = blk.insts.last_mut() {
                *last = Inst::Nop;
            }
        }
        _ => {
            // Introduce a use of a register no path ever defines.
            let dst = Reg(f.reg_count);
            let undefined = Reg(f.reg_count + 1);
            f.reg_count += 2;
            let blk = f.block_mut(b);
            let at = blk.insts.len().saturating_sub(1);
            blk.insts.insert(at, Inst::Copy { dst, src: undefined, ty: Ty::I64 });
        }
    }
}

/// Corrupt one pseudo-randomly chosen function of the module.
pub(crate) fn corrupt_module(m: &mut Module, rng: &mut XorShift) {
    if m.functions.is_empty() {
        return;
    }
    let i = rng.index(m.functions.len());
    corrupt_function(&mut m.functions[i], rng);
}

/// No-op corruption for boundaries where injection does not apply.
#[cfg(test)]
pub(crate) fn corrupt_nothing<T>(_: &mut T, _: &mut XorShift) {}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{parse_function, verify_function};

    fn sample() -> Function {
        parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 2\n    r2 = add.i32 r0, r1\n    ret r2\n}\n",
        )
        .unwrap()
    }

    #[test]
    fn every_corruption_shape_fails_the_gate() {
        for seed in 0..64u64 {
            let mut f = sample();
            let mut rng = XorShift::new(seed);
            corrupt_function(&mut f, &mut rng);
            assert!(verify_function(&f).is_err(), "seed {seed} produced verifying IR:\n{f}");
        }
    }

    #[test]
    fn panic_rolls_back_and_disables() {
        let shared = SharedState::new(None, Budget::unlimited(), None);
        let mut h = Harness::new(&shared, "test");
        let mut f = sample();
        let before = f.clone();
        let out: Option<()> = h.run_boundary(
            "exploder",
            Some("f"),
            &mut f,
            verify_function,
            corrupt_nothing,
            |f, _| {
                f.reg_count += 99; // real mutation the rollback must undo
                panic!("kaboom");
            },
        );
        assert!(out.is_none());
        assert_eq!(f, before, "rolled back");
        let again: Option<()> = h.run_boundary(
            "exploder",
            Some("f"),
            &mut f,
            verify_function,
            corrupt_nothing,
            |_, _| unreachable!("disabled pass must not run"),
        );
        assert!(again.is_none());
        assert_eq!(h.report.records.len(), 2);
        assert!(matches!(h.report.records[0].status, PassStatus::RolledBack(_)));
        assert_eq!(h.report.records[1].status, PassStatus::Skipped);
    }

    #[test]
    fn gate_failure_rolls_back() {
        let shared = SharedState::new(None, Budget::unlimited(), None);
        let mut h = Harness::new(&shared, "test");
        let mut f = sample();
        let before = f.clone();
        let out = h.run_boundary(
            "breaker",
            Some("f"),
            &mut f,
            verify_function,
            corrupt_nothing,
            |f, _| {
                // Break the IR without panicking: the gate must catch it.
                f.block_mut(BlockId(0)).insts.pop();
                7
            },
        );
        assert_eq!(out, None);
        assert_eq!(f, before);
        match &h.report.records[0].status {
            PassStatus::RolledBack(RollbackCause::Verify(e)) => {
                assert_eq!(e.pass.as_deref(), Some("breaker"));
            }
            other => panic!("unexpected status {other:?}"),
        }
    }

    #[test]
    fn planted_miscompile_passes_the_gate_and_is_recorded() {
        let plan = FaultPlan::miscompile(7, 0);
        let shared = SharedState::new(Some(plan), Budget::unlimited(), None);
        let mut h = Harness::new(&shared, "test");
        let mut f = sample();
        let before = f.clone();
        let out = h.run_boundary(
            "victim",
            Some("f"),
            &mut f,
            verify_function,
            corrupt_nothing,
            |_, _| 1,
        );
        // The boundary reports success — that is the point: the sabotage
        // is invisible to every containment layer.
        assert_eq!(out, Some(1));
        assert_eq!(h.report.records[0].status, PassStatus::Ok);
        assert_eq!(h.report.records[0].injected, Some(InjectedFault::Miscompile));
        assert_ne!(f, before, "the IR was semantically sabotaged");
        assert!(verify_function(&f).is_ok(), "yet it still verifies");
        // The sabotage flipped bit 1 of the first constant.
        let flipped = f
            .insts()
            .find_map(|(_, i)| match i {
                sxe_ir::Inst::Const { value, .. } => Some(*value),
                _ => None,
            })
            .unwrap();
        assert_eq!(flipped, 2 ^ 2);
    }

    #[test]
    fn exhausted_budget_skips_and_flags() {
        let shared = SharedState::new(None, Budget::new(1, None), None);
        let mut h = Harness::new(&shared, "test");
        let mut f = sample();
        let first = h.run_boundary(
            "p1",
            None,
            &mut f,
            verify_function,
            corrupt_nothing,
            |_, _| 1,
        );
        assert_eq!(first, Some(1));
        let second: Option<i32> = h.run_boundary(
            "p2",
            None,
            &mut f,
            verify_function,
            corrupt_nothing,
            |_, _| unreachable!("no fuel left"),
        );
        assert!(second.is_none());
        assert!(h.report.budget_exhausted);
        assert_eq!(h.report.records[1].status, PassStatus::BudgetExhausted);
    }

    #[test]
    fn fault_plans_are_deterministic_and_varied() {
        let a = FaultPlan::from_seed(42, 10);
        assert_eq!(a, FaultPlan::from_seed(42, 10));
        let kinds: std::collections::HashSet<u8> = (0..32)
            .map(|s| {
                let p = FaultPlan::from_seed(s, 10);
                u8::from(p.panic_at.is_some())
                    + 2 * u8::from(p.corrupt_at.is_some())
                    + 4 * u8::from(p.exhaust_at.is_some())
            })
            .collect();
        assert_eq!(kinds.len(), 3, "all three fault kinds appear across seeds");
    }
}

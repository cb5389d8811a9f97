//! Structured compile reports: what every containment boundary did.
//!
//! The fault-isolated pipeline wraps each pass in a boundary (see
//! [`crate::harness`]). Every boundary leaves one [`PassRecord`] behind,
//! so a [`CompileReport`] is a complete, ordered account of the
//! compilation — including every contained panic, failed verification
//! gate, rollback, injected fault, and budget stop.

use std::fmt;
use std::time::Duration;

use sxe_ir::VerifyError;

/// Why a pass's result was discarded.
#[derive(Debug, Clone, PartialEq)]
pub enum RollbackCause {
    /// The pass panicked; the payload message is preserved.
    Panic(String),
    /// The pass completed but its output failed the verification gate.
    Verify(VerifyError),
}

impl fmt::Display for RollbackCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RollbackCause::Panic(msg) => write!(f, "panic: {msg}"),
            RollbackCause::Verify(e) => write!(f, "verify: {e}"),
        }
    }
}

/// Outcome of one containment boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum PassStatus {
    /// The pass ran and its output verified.
    Ok,
    /// The pass was skipped because an earlier incident disabled it.
    Skipped,
    /// The pass ran but was undone: the function (or module) was restored
    /// to the snapshot taken at the boundary, and the pass was disabled
    /// for the rest of the compilation.
    RolledBack(RollbackCause),
    /// The compile budget was exhausted before this pass; the current
    /// (already verified) IR was kept as-is.
    BudgetExhausted,
}

impl fmt::Display for PassStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassStatus::Ok => f.write_str("ok"),
            PassStatus::Skipped => f.write_str("skipped (pass disabled)"),
            PassStatus::RolledBack(cause) => write!(f, "rolled back ({cause})"),
            PassStatus::BudgetExhausted => f.write_str("budget exhausted"),
        }
    }
}

/// Which fault, if any, was injected at a boundary by the chaos plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The pass body was made to panic after running.
    Panic,
    /// The pass output was deterministically corrupted before the gate.
    Corrupt,
    /// The compile budget was force-exhausted at this boundary.
    Exhaust,
    /// A verifier-clean semantic sabotage was applied *after* the gate
    /// passed — a planted miscompile no containment layer can catch,
    /// used to prove the differential fuzzing oracle does.
    Miscompile,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectedFault::Panic => f.write_str("panic"),
            InjectedFault::Corrupt => f.write_str("corrupt"),
            InjectedFault::Exhaust => f.write_str("exhaust"),
            InjectedFault::Miscompile => f.write_str("miscompile"),
        }
    }
}

/// One containment boundary's record.
///
/// Non-exhaustive: more fields may be recorded per boundary in future
/// versions without a breaking change; construct reports through the
/// compiler, not by literal.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct PassRecord {
    /// Boundary (pass) name, e.g. `convert`, `licm`, `step3-eliminate`.
    pub pass: String,
    /// Function the boundary covered; `None` for module-scope boundaries.
    pub function: Option<String>,
    /// What happened.
    pub status: PassStatus,
    /// Fault injected here by the active [`crate::FaultPlan`], if any.
    pub injected: Option<InjectedFault>,
    /// Wall-clock time spent in the boundary (body plus gate).
    pub duration: Duration,
    /// Telemetry span id of this boundary's trace event (`None` when the
    /// compiler's telemetry sink is disabled). Matches the `span`
    /// argument of the corresponding event in the Chrome trace export.
    pub span: Option<u64>,
}

impl fmt::Display for PassRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.function {
            Some(func) => write!(f, "{}@{func}: {}", self.pass, self.status)?,
            None => write!(f, "{}: {}", self.pass, self.status)?,
        }
        if let Some(fault) = self.injected {
            write!(f, " [injected {fault}]")?;
        }
        Ok(())
    }
}

/// Complete account of one compilation through the fault-isolated
/// pipeline.
///
/// Non-exhaustive: obtain reports from [`crate::Compiled`] rather than
/// constructing them, so future fields are not a breaking change.
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub struct CompileReport {
    /// Seed of the active fault plan, if one was injected.
    pub seed: Option<u64>,
    /// One record per containment boundary, in execution order.
    pub records: Vec<PassRecord>,
    /// The compile budget ran out at some point (whether injected or
    /// genuine); the emitted module is a verified partial optimization.
    pub budget_exhausted: bool,
    /// Boundaries whose output equalled their snapshot, so the
    /// verification gate had nothing to check and did not run.
    pub gates_skipped: usize,
}

impl CompileReport {
    /// Fold another account (e.g. one shard's, or one function's) into
    /// this one: records are appended in order, the budget flag is
    /// sticky, and skipped gates add up.
    pub fn absorb(&mut self, other: CompileReport) {
        self.records.extend(other.records);
        self.budget_exhausted |= other.budget_exhausted;
        self.gates_skipped += other.gates_skipped;
    }

    /// Number of containment boundaries crossed.
    #[must_use]
    pub fn boundaries(&self) -> usize {
        self.records.len()
    }

    /// Records of passes that were rolled back.
    pub fn rollbacks(&self) -> impl Iterator<Item = &PassRecord> {
        self.records.iter().filter(|r| matches!(r.status, PassStatus::RolledBack(_)))
    }

    /// Number of incidents: rollbacks, budget stops, and injected faults
    /// (an injected fault that led to a rollback counts once).
    #[must_use]
    pub fn incidents(&self) -> usize {
        self.records
            .iter()
            .filter(|r| {
                r.injected.is_some() || !matches!(r.status, PassStatus::Ok | PassStatus::Skipped)
            })
            .count()
    }

    /// Whether every boundary completed cleanly with no injection.
    #[must_use]
    pub fn clean(&self) -> bool {
        !self.budget_exhausted && self.incidents() == 0
    }

    /// Total wall-clock time across all boundaries.
    #[must_use]
    pub fn total_duration(&self) -> Duration {
        self.records.iter().map(|r| r.duration).sum()
    }

    /// Human-readable multi-line summary (one line per non-clean record,
    /// plus a header). Durations go through the shared telemetry
    /// formatter ([`sxe_telemetry::fmt_duration`]), so `--report` and
    /// `--metrics` output agree on units.
    #[must_use]
    pub fn summary(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "compile report: {} boundaries in {}, {} incident(s){}",
            self.boundaries(),
            sxe_telemetry::fmt_duration(self.total_duration()),
            self.incidents(),
            if self.budget_exhausted { ", budget exhausted" } else { "" },
        );
        for r in &self.records {
            if r.injected.is_some() || !matches!(r.status, PassStatus::Ok) {
                let _ = writeln!(s, "  {r} [{}]", sxe_telemetry::fmt_duration(r.duration));
            }
        }
        s
    }
}

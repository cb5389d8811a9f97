//! Crash and mismatch triage: stable signatures and deduplication.
//!
//! A ten-thousand-module campaign against a single bug should report
//! **one** finding, not ten thousand. Every failure is classified into a
//! [`Signature`] — a stable dedup key that survives irrelevant variation
//! (argument values, embedded indices, line numbers) — and a campaign
//! keeps only the first module that hit each signature.

use std::collections::BTreeMap;
use std::fmt;

use sxe_ir::hash::{fnv1a, FNV_OFFSET};
use sxe_ir::Module;
use sxe_vm::Mismatch;

/// Which compile produced the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Side {
    /// The reference compile (`Variant::Baseline`, no fault plan).
    Baseline,
    /// The compile under test (full pipeline, optionally with chaos).
    Optimized,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Baseline => "baseline",
            Side::Optimized => "optimized",
        })
    }
}

/// One raw failure observed while checking a single module.
#[derive(Debug, Clone)]
pub enum Failure {
    /// A panic escaped the compile (or the check itself panicked).
    Abort {
        /// Side that blew up.
        side: Side,
        /// Panic payload, if it was a string.
        message: String,
    },
    /// The compiler returned an error for a module the generator
    /// believes is valid.
    Refused {
        /// Side that refused.
        side: Side,
        /// The rendered [`sxe_jit::CompileError`].
        error: String,
    },
    /// A fault was contained inside the pipeline (a rolled-back or
    /// budget-stopped boundary) during a campaign that injected none —
    /// behavior survived, but a pass panicked or produced unverifiable
    /// IR on generator-valid input.
    Contained {
        /// Side whose report carries the incident.
        side: Side,
        /// Pass name of the offending boundary record.
        pass: String,
        /// Rendered boundary status (rollback cause, budget exhaustion).
        status: String,
    },
    /// The differential oracle observed divergent behavior.
    Mismatch(Mismatch),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Abort { side, message } => write!(f, "ABORT [{side}]: {message}"),
            Failure::Refused { side, error } => write!(f, "REFUSED [{side}]: {error}"),
            Failure::Contained { side, pass, status } => {
                write!(f, "CONTAINED [{side}] {pass}: {status}")
            }
            Failure::Mismatch(m) => write!(f, "MISMATCH: {m}"),
        }
    }
}

/// Stable deduplication key for a [`Failure`].
///
/// Digits are normalized to `#` so indices, lengths, and line numbers
/// embedded in a message do not split one bug into many signatures. For
/// mismatches the key is the (positional) function name plus the
/// *classes* of both outcomes — `done` or `trap(Kind)` — never the
/// concrete values, because the same wrong-code bug produces different
/// wrong values on different argument sets.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Signature {
    /// A panic escaped containment.
    Abort {
        /// Side that blew up.
        side: Side,
        /// Digit-normalized panic message.
        message: String,
    },
    /// A generator-valid module was refused by the compiler.
    Refused {
        /// Side that refused.
        side: Side,
        /// Digit-normalized error text.
        class: String,
    },
    /// A contained incident on a campaign that injected no faults.
    Contained {
        /// Side whose report carries the incident.
        side: Side,
        /// Digit-normalized `pass: status` text.
        class: String,
    },
    /// The oracle saw divergent behavior.
    Mismatch {
        /// Function that diverged.
        function: String,
        /// Outcome class on the baseline side.
        left: String,
        /// Outcome class on the optimized side.
        right: String,
    },
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signature::Abort { side, message } => write!(f, "abort/{side}: {message}"),
            Signature::Refused { side, class } => write!(f, "refused/{side}: {class}"),
            Signature::Contained { side, class } => write!(f, "contained/{side}: {class}"),
            Signature::Mismatch { function, left, right } => {
                write!(f, "mismatch/@{function}: {left} vs {right}")
            }
        }
    }
}

impl Signature {
    /// A short stable hash of the signature, used in finding filenames.
    #[must_use]
    pub fn short_hash(&self) -> u64 {
        // FNV-1a over the canonical rendering; stable across platforms
        // and campaign orderings.
        fnv1a(FNV_OFFSET, self.to_string().as_bytes())
    }
}

/// Collapse every run of ASCII digits to a single `#`, so embedded
/// indices, lengths, and line numbers of any magnitude normalize alike.
#[must_use]
pub fn normalize_digits(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_run = false;
    for c in s.chars() {
        if c.is_ascii_digit() {
            if !in_run {
                out.push('#');
                in_run = true;
            }
        } else {
            in_run = false;
            out.push(c);
        }
    }
    out
}

/// Collapse a VM outcome description to its class: `done` for any
/// completed run, or the `trap(Kind)` text verbatim.
fn outcome_class(outcome: &str) -> String {
    if outcome.starts_with("trap(") {
        outcome.to_string()
    } else {
        "done".to_string()
    }
}

/// Compute the dedup signature of a failure.
#[must_use]
pub fn signature_of(failure: &Failure) -> Signature {
    match failure {
        Failure::Abort { side, message } => Signature::Abort {
            side: *side,
            message: normalize_digits(message),
        },
        Failure::Refused { side, error } => Signature::Refused {
            side: *side,
            class: normalize_digits(error),
        },
        Failure::Contained { side, pass, status } => Signature::Contained {
            side: *side,
            class: normalize_digits(&format!("{pass}: {status}")),
        },
        Failure::Mismatch(m) => Signature::Mismatch {
            function: m.function.clone(),
            left: outcome_class(&m.left),
            right: outcome_class(&m.right),
        },
    }
}

/// One unique finding: the first module in the campaign that hit a
/// signature, everything needed to replay it, and (once the reducer has
/// run) a minimized reproducer.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Campaign index of the first module that hit this signature.
    pub index: usize,
    /// Generator seed of that module — the replay key.
    pub module_seed: u64,
    /// Dedup signature.
    pub signature: Signature,
    /// Human-readable one-line description of the first observation.
    pub detail: String,
    /// The offending module, verbatim.
    pub module: Module,
    /// Minimized reproducer, if reduction ran.
    pub reduced: Option<Module>,
    /// The concrete mismatch, when the failure was one (carries the
    /// oracle seed and run index for single-run replay).
    pub mismatch: Option<Mismatch>,
    /// How many campaign modules hit this signature in total.
    pub hits: usize,
}

/// Signature-keyed dedup table for a campaign.
///
/// Record failures **in campaign index order** — the table keeps the
/// first module per signature, so in-order recording makes the kept
/// exemplar independent of how the campaign was sharded.
#[derive(Debug, Default)]
pub struct Triage {
    table: BTreeMap<Signature, Finding>,
}

impl Triage {
    /// Empty table.
    #[must_use]
    pub fn new() -> Triage {
        Triage::default()
    }

    /// Record one failure. Returns `true` if its signature is new.
    pub fn record(
        &mut self,
        index: usize,
        module_seed: u64,
        module: &Module,
        failure: &Failure,
    ) -> bool {
        let signature = signature_of(failure);
        if let Some(existing) = self.table.get_mut(&signature) {
            existing.hits += 1;
            return false;
        }
        let mismatch = match failure {
            Failure::Mismatch(m) => Some(m.clone()),
            _ => None,
        };
        self.table.insert(
            signature.clone(),
            Finding {
                index,
                module_seed,
                signature,
                detail: failure.to_string(),
                module: module.clone(),
                reduced: None,
                mismatch,
                hits: 1,
            },
        );
        true
    }

    /// Number of unique signatures seen.
    #[must_use]
    pub fn unique(&self) -> usize {
        self.table.len()
    }

    /// Total failures recorded, including duplicates.
    #[must_use]
    pub fn total_hits(&self) -> usize {
        self.table.values().map(|f| f.hits).sum()
    }

    /// Iterate findings in stable (signature) order.
    pub fn findings(&self) -> impl Iterator<Item = &Finding> {
        self.table.values()
    }

    /// Mutable iteration, for attaching reduced reproducers.
    pub fn findings_mut(&mut self) -> impl Iterator<Item = &mut Finding> {
        self.table.values_mut()
    }

    /// Consume the table into findings in stable order.
    #[must_use]
    pub fn into_findings(self) -> Vec<Finding> {
        self.table.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mismatch(function: &str, left: &str, right: &str) -> Failure {
        Failure::Mismatch(Mismatch {
            function: function.to_string(),
            args: vec![1, 2],
            left: left.to_string(),
            right: right.to_string(),
            seed: 7,
            run: 3,
        })
    }

    #[test]
    fn digits_normalize_and_dedup() {
        let a = Failure::Abort {
            side: Side::Optimized,
            message: "index out of bounds: the len is 4 but the index is 9".into(),
        };
        let b = Failure::Abort {
            side: Side::Optimized,
            message: "index out of bounds: the len is 12 but the index is 31".into(),
        };
        assert_eq!(signature_of(&a), signature_of(&b));
        let c = Failure::Abort { side: Side::Baseline, message: "oops".into() };
        assert_ne!(signature_of(&a), signature_of(&c));
    }

    #[test]
    fn mismatch_signatures_ignore_values_but_keep_trap_kinds() {
        let a = mismatch("f0", "ret=Some(3) heap=0x12", "ret=Some(4) heap=0x12");
        let b = mismatch("f0", "ret=Some(-9) heap=0x99", "ret=Some(0) heap=0x99");
        assert_eq!(signature_of(&a), signature_of(&b));
        let c = mismatch("f0", "ret=Some(3) heap=0x12", "trap(WildAddress)");
        assert_ne!(signature_of(&a), signature_of(&c));
        let d = mismatch("f1", "ret=Some(3) heap=0x12", "ret=Some(4) heap=0x12");
        assert_ne!(signature_of(&a), signature_of(&d));
    }

    #[test]
    fn triage_keeps_first_module_and_counts_hits() {
        let m = Module::new();
        let mut t = Triage::new();
        assert!(t.record(0, 111, &m, &mismatch("f0", "done-ish", "trap(DivisionByZero)")));
        assert!(!t.record(4, 222, &m, &mismatch("f0", "done-ish", "trap(DivisionByZero)")));
        assert!(t.record(5, 333, &m, &mismatch("f1", "done-ish", "trap(DivisionByZero)")));
        assert_eq!(t.unique(), 2);
        assert_eq!(t.total_hits(), 3);
        let first = t.findings().next().unwrap();
        assert_eq!((first.index, first.module_seed, first.hits), (0, 111, 2));
    }

    #[test]
    fn short_hash_is_stable() {
        let s = signature_of(&mismatch("f0", "done", "trap(WildAddress)"));
        assert_eq!(s.short_hash(), s.clone().short_hash());
        assert_ne!(
            s.short_hash(),
            signature_of(&mismatch("f1", "done", "trap(WildAddress)")).short_hash()
        );
    }
}

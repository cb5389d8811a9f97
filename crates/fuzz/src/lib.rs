//! Differential fuzzing for the sign-extension elimination pipeline.
//!
//! The paper's algorithm is a whole-program dataflow optimization: a
//! wrong answer anywhere (a missed extension, an over-eager removal)
//! shows up not as a crash but as silently different program behavior.
//! This crate turns that risk into a closed loop:
//!
//! * [`gen`] — a seeded structured generator that emits valid,
//!   terminating modules biased toward the paper's hard shapes (narrow
//!   defs at 64-bit uses, array effective addresses, loop-carried narrow
//!   induction variables, mixed widths, calls);
//! * [`driver`] — a campaign runner that compiles each module both ways
//!   under panic containment, diffs them with the differential oracle,
//!   and shards over the worker pool with findings byte-identical at any
//!   thread count;
//! * [`triage`] — stable failure signatures and first-hit deduplication,
//!   so a campaign against one bug reports one finding;
//! * [`reduce`](mod@reduce) — a delta-debugging minimizer that shrinks a finding
//!   while re-checking its signature at every accepted step.
//!
//! The `fuzz` binary (in `sxe-bench`) drives all four; `--plant` injects
//! a known deterministic miscompile end-to-end, proving the loop can
//! find, dedup, and minimize a real wrong-code bug before you trust its
//! zero-findings runs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod driver;
pub mod gen;
pub mod reduce;
pub mod triage;

pub use driver::{check_module, module_seed, run_campaign, Campaign, CheckOutcome, FuzzConfig};
pub use gen::{generate_module, GenConfig};
pub use reduce::{reduce, ReduceStats};
pub use triage::{signature_of, Failure, Finding, Side, Signature, Triage};

//! # sxe-ir — a compiler IR for studying sign-extension elimination
//!
//! This crate provides the intermediate representation used throughout the
//! `sxe` workspace, a from-scratch reproduction of *Effective Sign
//! Extension Elimination* (Kawahito, Komatsu, Nakatani; IBM Research
//! Report RT0442 / PLDI 2002).
//!
//! The IR is a non-SSA register machine modelling a 64-bit architecture:
//!
//! * Every register is 64 bits wide. Operations at [`Ty::I32`] produce
//!   results whose low 32 bits are always correct and whose upper 32 bits
//!   are unspecified unless an [`Inst::Extend`] re-establishes them.
//! * [`Inst::Extend`] is the explicit sign extension (IA64 `sxt4`, PPC
//!   `extsw`) whose dynamic count the paper's evaluation measures.
//! * Array accesses follow Java semantics: a negative or out-of-range
//!   index traps, the bounds check compares only the low 32 bits of the
//!   index, and the effective address uses the full register — the
//!   premise of the paper's §3 array-subscript theorems.
//!
//! ## Quick example
//!
//! ```
//! use sxe_ir::{FunctionBuilder, Ty, BinOp, Width, verify_function};
//!
//! let mut b = FunctionBuilder::new("inc", vec![Ty::I32], Some(Ty::I32));
//! let x = b.param(0);
//! let one = b.iconst(Ty::I32, 1);
//! b.bin_to(BinOp::Add, Ty::I32, x, x, one); // x = x + 1 (32-bit)
//! b.extend_in_place(x, Width::W32);         // x = extend(x)
//! b.ret(Some(x));
//! let f = b.finish();
//! verify_function(&f)?;
//! assert_eq!(f.count_extends(None), 1);
//! # Ok::<(), sxe_ir::VerifyError>(())
//! ```
//!
//! The sibling crates build on this one: `sxe-analysis` (dataflow, UD/DU
//! chains, value ranges), `sxe-core` (the paper's elimination algorithms),
//! `sxe-opt` (general optimizations), `sxe-vm` (a machine-model
//! interpreter), and `sxe-bench` (the table/figure reproduction harness).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod budget;
mod builder;
mod cfg;
mod display;
mod dom;
pub mod eval;
mod function;
pub mod hash;
mod inst;
mod loops;
mod parse;
pub mod rng;
pub mod semantics;
mod types;
mod verify;

pub use budget::Budget;
pub use builder::FunctionBuilder;
pub use cfg::Cfg;
pub use display::{block_to_string, inst_to_string};
pub use dom::DomTree;
pub use function::{Block, Function, InstId, Module};
pub use inst::{BinOp, BlockId, FuncId, Inst, Reg, UnOp};
pub use loops::{Loop, LoopForest};
pub use parse::{parse_function, parse_module, ParseError};
pub use semantics::{ExtFacts, UseKind};
pub use types::{Cond, Target, Ty, Width};
pub use verify::{verify_function, verify_module, VerifyError};

/// Kinds of run-time traps the machine model can raise.
///
/// Defined here (rather than in the VM crate) because trap behaviour is
/// part of the IR's semantics: optimizations must preserve it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapKind {
    /// Array access with the low 32 bits of the index out of `0..len`
    /// (Java `ArrayIndexOutOfBoundsException`).
    IndexOutOfBounds,
    /// Array allocation with a negative length
    /// (Java `NegativeArraySizeException`).
    NegativeArraySize,
    /// Integer division or remainder by zero
    /// (Java `ArithmeticException`).
    DivisionByZero,
    /// The low-32-bit bounds check passed but the full 64-bit register
    /// held a different value, so the effective address would fall outside
    /// the array. This is a *miscompilation indicator*: a sound
    /// sign-extension eliminator never produces it (paper §3, Theorems
    /// 1–4).
    WildAddress,
    /// Resource limit of the interpreter exceeded (fuel or memory); not a
    /// program semantics trap.
    ResourceExhausted,
}

impl std::fmt::Display for TrapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TrapKind::IndexOutOfBounds => "index out of bounds",
            TrapKind::NegativeArraySize => "negative array size",
            TrapKind::DivisionByZero => "division by zero",
            TrapKind::WildAddress => "wild address (unsound sign-extension elimination)",
            TrapKind::ResourceExhausted => "resource exhausted",
        };
        f.write_str(s)
    }
}

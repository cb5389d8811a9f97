//! # sxe-opt — general scalar optimizations for the sxe IR
//!
//! The paper's compilation pipeline (Figure 5) runs "general
//! optimizations" between the 64-bit conversion and the sign-extension
//! elimination proper; those optimizations themselves remove some
//! extensions (constant folding turns `extend(const)` into a constant,
//! CSE merges repeated extensions, LICM hoists loop-invariant ones). This
//! crate provides that step:
//!
//! * [`inline`] — expansion of small leaf callees
//! * [`copyprop`] — block-local copy propagation
//! * [`constfold`] — constant/branch folding via [`sxe_ir::eval`]
//! * [`simplify`] — algebraic identities
//! * [`cse`] — block-local common-subexpression elimination
//! * [`licm`] — loop-invariant code motion with preheader creation
//! * [`dce`] — liveness-based dead-code elimination
//!
//! ```
//! use sxe_ir::parse_function;
//! use sxe_ir::Target;
//! use sxe_opt::{run_function, GeneralOpts};
//!
//! let mut f = parse_function(
//!     "func @f() -> i32 {\nb0:\n    r0 = const.i32 -9\n    r0 = extend.32 r0\n    ret r0\n}\n",
//! )?;
//! run_function(&mut f, &GeneralOpts::default(), Target::default());
//! assert_eq!(f.count_extends(None), 0); // folded away
//! # Ok::<(), sxe_ir::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod constfold;
pub mod copyprop;
pub mod cse;
pub mod dce;
pub mod inline;
pub mod licm;
pub mod pipeline;
pub mod simplify;

pub use pipeline::{
    run_function, run_module, GeneralOpts, OptStats, Pass,
};

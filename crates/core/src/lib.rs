//! # sxe-core — Effective Sign Extension Elimination
//!
//! A from-scratch implementation of the algorithm of *Effective Sign
//! Extension Elimination* (Kawahito, Komatsu, Nakatani; IBM Research
//! Report RT0442 / PLDI 2002), on the IR of [`sxe_ir`]:
//!
//! 1. **Conversion for a 64-bit architecture** ([`convert`]): generate an
//!    explicit `extend` after every 32-bit definition not guaranteed
//!    extended (the superior *gen-def* strategy of Figure 6; *gen-use* is
//!    available as the paper's reference).
//! 2. General optimizations live in the sibling `sxe-opt` crate.
//! 3. **Elimination and movement of sign extensions** ([`run_step3`]):
//!    * [`insertion`] — extensions placed before requiring uses plus
//!      dummy markers after array accesses ((3)-1; [`pde`] provides the
//!      rejected PDE variant);
//!    * [`order`] — hottest-region-first processing ((3)-2);
//!    * [`eliminate`] — `EliminateOneExtend` over UD/DU chains, with the
//!      array-subscript Theorems 1–4 of §3 in [`mod@array`] ((3)-3).
//!
//! The twelve measured configurations of the paper's Tables 1–2 are
//! selected by [`Variant`].
//!
//! ```
//! use sxe_core::{convert_function, run_step3, GenStrategy, SxeConfig, Variant};
//! use sxe_ir::{parse_function, Target};
//!
//! // i = i & 0xff; return (double) i  — the extension is redundant.
//! let mut f = parse_function(
//!     "func @f(i32) -> f64 {\nb0:\n    r1 = const.i32 255\n    r2 = and.i32 r0, r1\n    r3 = i32tof64.f64 r2\n    ret r3\n}\n",
//! )?;
//! convert_function(&mut f, Target::Ia64, GenStrategy::AfterDef);
//! let stats = run_step3(&mut f, &SxeConfig::for_variant(Variant::All), None);
//! assert_eq!(f.count_extends(None), 0);
//! assert!(stats.eliminated <= stats.examined);
//! # Ok::<(), sxe_ir::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
mod config;
pub mod convert;
pub mod eliminate;
pub mod first_algorithm;
pub mod insertion;
pub mod order;
mod pass;
pub mod pde;
pub mod zext;

pub use config::{SxeConfig, SxeStats, Variant};
pub use convert::{convert_function, convert_module, infer_kinds, GenStrategy, RegKind};
pub use eliminate::{strip_dummies, ElimConfig, ElimResult};
pub use insertion::InsertionStats;
pub use pass::{
    fallback_order, run_step3, step3_eliminate, step3_eliminate_cached, step3_first,
    step3_insertion, step3_insertion_cached, step3_order, step3_order_cached, ElimOutcome,
    InsertionOutcome, ModuleProfile,
};

//! # sxe-analysis — dataflow analyses over the sxe IR
//!
//! Building blocks for the sign-extension elimination algorithms of the
//! sibling `sxe-core` crate:
//!
//! * [`BitSet`] and a generic gen/kill [`dataflow`] solver;
//! * [`UdDu`] — UD/DU chains with incremental removal of transparent
//!   definitions (`r = extend(r)`), the structure the paper's
//!   `EliminateOneExtend` walks;
//! * [`Liveness`] — classic backward liveness;
//! * [`AvailableExt`] — flow-sensitive "is this register already
//!   sign-extended / upper-zero here" facts;
//! * [`FlowRanges`] — flow-sensitive value ranges ([`Interval`]s, with
//!   [`binop_range`] as the binary transfer rule) for the array-subscript
//!   theorems (paper §3), the crate's one range analysis;
//! * [`Freq`] — execution-frequency estimation for order determination
//!   (paper §2.2);
//! * [`AnalysisCache`] — per-function memoization of [`Cfg`](sxe_ir::Cfg),
//!   [`Liveness`], and [`UdDu`] with generation-based invalidation, so
//!   pipeline stages stop recomputing facts over unchanged functions.
//!
//! ```
//! use sxe_ir::{parse_function, Cfg};
//! use sxe_analysis::UdDu;
//!
//! let f = parse_function("func @f(i32) -> i32 {\nb0:\n    ret r0\n}\n")?;
//! let cfg = Cfg::compute(&f);
//! let udu = UdDu::compute(&f, &cfg);
//! assert_eq!(udu.num_defs(), 1); // just the parameter
//! # Ok::<(), sxe_ir::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitset;
pub mod cache;
pub mod dataflow;
mod facts;
mod flowrange;
mod freq;
mod liveness;
mod range;
mod udu;

pub use bitset::BitSet;
pub use cache::{AnalysisCache, CacheStats};
pub use facts::{AvailableExt, FactsWalker};
pub use freq::{Freq, LOOP_MULTIPLIER};
pub use flowrange::FlowRanges;
pub use liveness::Liveness;
pub use range::{binop_range, Interval};
pub use udu::{DefId, DefSite, UdDu, UseKey};

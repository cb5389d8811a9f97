//! # sxe-vm — a machine-model interpreter for the sxe IR
//!
//! Executes IR modules under the precise 64-bit machine model the paper's
//! sign-extension elimination is proved against:
//!
//! * registers are 64-bit; 32-bit operations compute full 64-bit results
//!   whose low 32 bits are correct and whose upper bits are "garbage"
//!   (deterministically so, which makes differential testing exact);
//! * 32-bit memory loads zero-extend on [`sxe_ir::Target::Ia64`] and
//!   sign-extend on [`sxe_ir::Target::Ppc64`];
//! * array bounds checks compare only the low 32 bits of the index
//!   (IA64 `cmp4.ltu`), while the effective address uses the full register
//!   (`shladd`) — an index with garbage upper bits that slips past the
//!   check faults with [`sxe_ir::TrapKind::WildAddress`].
//!
//! The machine counts every executed instruction, every executed
//! [`sxe_ir::Inst::Extend`] by width (the paper's Tables 1–2 metric), and
//! accumulates cycle-model cost (Figures 13–14). It can also collect
//! block-level profiles, playing the role of the paper's interpreter in
//! the combined interpreter + dynamic compiler system.
//!
//! Execution goes through the [`VmBuilder`] → [`Vm`] API. Two engines
//! share the semantics: [`Engine::Decoded`] (the default) pre-decodes
//! every function once into dense op arrays with fused superinstructions
//! and dispatches over them in a tight loop; [`Engine::Tree`] walks the
//! instruction tree directly ([`Machine`], the executable reference the
//! decoded engine is differentially tested against).
//!
//! ```
//! use sxe_ir::{parse_module, Target, Width};
//! use sxe_vm::Vm;
//!
//! let m = parse_module(
//!     "func @f(i32) -> i32 {\nb0:\n    r0 = extend.32 r0\n    ret r0\n}\n",
//! )?;
//! let mut vm = Vm::builder(&m).target(Target::Ia64).build();
//! let out = vm.run("f", &[7]).expect("no trap");
//! assert_eq!(out.ret, Some(7));
//! assert_eq!(vm.counters().extend_count(Some(Width::W32)), 1);
//! # Ok::<(), sxe_ir::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod oracle;
pub mod sched;
mod counters;
mod decode;
mod error;
mod exec;
mod heap;
mod machine;
mod native_engine;
mod vm;

pub use counters::{mnemonic, op_index, Counters, MNEMONICS};
pub use error::Trap;
pub use heap::{ArrayObj, Heap, HEAP_LIMIT_ELEMS};
pub use machine::{BlockHook, Machine, Outcome, DEFAULT_FUEL, MAX_CALL_DEPTH};
pub use oracle::{
    differential_check, differential_replay, observe, oracle_args, Mismatch, Observation,
    OracleConfig,
};
pub use vm::{Engine, Vm, VmBuilder, VmError};

/// The types a VM harness typically needs, in one import.
pub mod prelude {
    pub use crate::{
        differential_check, Counters, Engine, Mismatch, OracleConfig, Outcome, Trap, Vm,
        VmBuilder, VmError, DEFAULT_FUEL,
    };
}

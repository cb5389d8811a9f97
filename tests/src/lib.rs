//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in `it/*.rs`; this library hosts utilities they
//! share: a compile-and-run harness and the random program generator
//! used by the differential property tests.

pub mod gen;

use sxe_core::Variant;
use sxe_ir::{Module, Target, TrapKind};
use sxe_jit::Compiler;
use sxe_vm::{Vm, VmError};

/// Observable outcome of one execution: return value, heap checksum, and
/// (if it trapped) the trap kind. Two executions with equal `RunKey`s are
/// behaviourally identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunKey {
    /// Return value (raw bits), if the run completed.
    pub ret: Option<i64>,
    /// Heap checksum, if the run completed.
    pub heap: Option<u64>,
    /// Trap kind, if the run trapped.
    pub trap: Option<TrapKind>,
}

/// Compile `source` with `variant` and run `entry(args)`, returning the
/// observable outcome plus the dynamic extension count.
///
/// # Panics
/// Panics on verifier failures (a compiler bug) or a
/// [`TrapKind::WildAddress`] fault (an unsound elimination).
#[must_use]
pub fn compile_run(
    source: &Module,
    variant: Variant,
    target: Target,
    entry: &str,
    args: &[i64],
    fuel: u64,
) -> (RunKey, u64) {
    let compiled = Compiler::builder(variant)
        .target(target)
        .build()
        .try_compile(source)
        .expect("compiles");
    let mut vm = Vm::builder(&compiled.module).target(target).fuel(fuel).build();
    let key = match vm.run(entry, args) {
        Ok(out) => RunKey { ret: out.ret, heap: Some(out.heap_checksum), trap: None },
        Err(VmError::Trap(t)) => {
            assert_ne!(
                t.kind,
                TrapKind::WildAddress,
                "unsound sign-extension elimination under {variant}: {t}"
            );
            RunKey { ret: None, heap: None, trap: Some(t.kind) }
        }
        Err(e) => panic!("entry {entry} rejected: {e}"),
    };
    (key, vm.counters().extend_count(None))
}

//! Dynamic execution counters — the quantities the paper's Tables 1 and 2
//! report.
//!
//! [`Counters`] is the per-machine accumulator
//! ([`record`](Counters::record) takes `&mut self`); every op it counts
//! is named through one mnemonic table ([`MNEMONICS`] / [`op_index`]).
//!
//! The mnemonic strings double as the telemetry label tails:
//! [`Counters::record_into`] exports `vm.op.<mnemonic>` counters
//! straight from the same table, so the VM and the metrics registry can
//! never disagree on op names.

use std::collections::BTreeMap;

use sxe_ir::{Inst, Width};

/// Every instruction mnemonic, indexed by [`op_index`]. The single
/// source of truth for per-op statistics *and* the `vm.op.*` telemetry
/// labels.
pub const MNEMONICS: [&str; 17] = [
    "nop", "const", "constf", "copy", "un", "bin", "set", "extend", "justext", "newarray",
    "len", "aload", "astore", "call", "br", "condbr", "ret",
];

/// The [`MNEMONICS`] index of `inst`.
#[must_use]
pub fn op_index(inst: &Inst) -> usize {
    match inst {
        Inst::Nop => 0,
        Inst::Const { .. } => 1,
        Inst::ConstF { .. } => 2,
        Inst::Copy { .. } => 3,
        Inst::Un { .. } => 4,
        Inst::Bin { .. } => 5,
        Inst::Setcc { .. } => 6,
        Inst::Extend { .. } => 7,
        Inst::JustExtended { .. } => 8,
        Inst::NewArray { .. } => 9,
        Inst::ArrayLen { .. } => 10,
        Inst::ArrayLoad { .. } => 11,
        Inst::ArrayStore { .. } => 12,
        Inst::Call { .. } => 13,
        Inst::Br { .. } => 14,
        Inst::CondBr { .. } => 15,
        Inst::Ret { .. } => 16,
    }
}

/// A short mnemonic for per-op statistics.
#[must_use]
pub fn mnemonic(inst: &Inst) -> &'static str {
    MNEMONICS[op_index(inst)]
}

/// Dynamic instruction counts accumulated during execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Total executed instructions (excluding `nop` tombstones).
    pub insts: u64,
    /// Executed explicit sign extensions by source width `[8, 16, 32]`.
    /// `extends[2]` is the "dynamic count of 32-bit sign extensions" of
    /// Tables 1–2.
    pub extends: [u64; 3],
    /// Executed instructions per mnemonic.
    pub per_op: BTreeMap<&'static str, u64>,
    /// Accumulated cost-model cycles (see [`crate::cost`]).
    pub cycles: u64,
}

impl Counters {
    /// Create zeroed counters.
    #[must_use]
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Record the execution of `inst` costing `cycles`.
    pub fn record(&mut self, inst: &Inst, cycles: u64) {
        self.insts += 1;
        self.cycles += cycles;
        if let Inst::Extend { from, .. } = inst {
            self.extends[width_index(*from)] += 1;
        }
        *self.per_op.entry(mnemonic(inst)).or_insert(0) += 1;
    }

    /// Dynamic count of sign extensions of the given width (`None` sums
    /// all widths).
    #[must_use]
    pub fn extend_count(&self, width: Option<Width>) -> u64 {
        match width {
            Some(w) => self.extends[width_index(w)],
            None => self.extends.iter().sum(),
        }
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        self.insts += other.insts;
        self.cycles += other.cycles;
        for (a, b) in self.extends.iter_mut().zip(other.extends) {
            *a += b;
        }
        for (k, v) in &other.per_op {
            *self.per_op.entry(k).or_insert(0) += v;
        }
    }

    /// Add these counts to a telemetry registry: `vm.insts`,
    /// `vm.cycles`, `vm.extends.{w8,w16,w32}`, and one `vm.op.<mnemonic>`
    /// counter per executed op (labels from [`MNEMONICS`]).
    pub fn record_into(&self, registry: &mut sxe_telemetry::Registry) {
        registry.add("vm.insts", self.insts);
        registry.add("vm.cycles", self.cycles);
        registry.add("vm.extends.w8", self.extends[0]);
        registry.add("vm.extends.w16", self.extends[1]);
        registry.add("vm.extends.w32", self.extends[2]);
        for (op, n) in &self.per_op {
            registry.add(format!("vm.op.{op}"), *n);
        }
    }
}

pub(crate) fn width_index(w: Width) -> usize {
    match w {
        Width::W8 => 0,
        Width::W16 => 1,
        Width::W32 => 2,
    }
}

/// [`MNEMONICS`] indices as named constants, for recording surfaces that
/// dispatch on pre-decoded ops rather than [`Inst`] values (the decoded
/// engine). Kept next to the table so the two cannot drift; the
/// `opidx_matches_op_index` test pins every pairing.
pub(crate) mod opidx {
    pub const CONST: usize = 1;
    pub const CONSTF: usize = 2;
    pub const COPY: usize = 3;
    pub const UN: usize = 4;
    pub const BIN: usize = 5;
    pub const SET: usize = 6;
    pub const EXTEND: usize = 7;
    pub const JUSTEXT: usize = 8;
    pub const NEWARRAY: usize = 9;
    pub const LEN: usize = 10;
    pub const ALOAD: usize = 11;
    pub const ASTORE: usize = 12;
    pub const CALL: usize = 13;
    pub const BR: usize = 14;
    pub const CONDBR: usize = 15;
    pub const RET: usize = 16;
}

/// Fixed-slot counters for the decoded engine's hot loop: one add per
/// recorded instruction instead of a `BTreeMap` entry lookup.
/// [`FlatCounters::materialize`] folds the slots into an ordinary
/// [`Counters`] (zero-count ops omitted, exactly like per-instruction
/// recording produces).
#[derive(Debug, Default)]
pub(crate) struct FlatCounters {
    pub insts: u64,
    pub cycles: u64,
    pub extends: [u64; 3],
    pub per_op: [u64; MNEMONICS.len()],
}

impl FlatCounters {
    /// Record one executed instruction of mnemonic slot `op`. The
    /// engine's hot loop charges through its own register-resident
    /// accumulators (see `exec::Hot`); this all-in-memory variant
    /// remains the reference the equivalence test checks against.
    #[cfg(test)]
    pub fn bump(&mut self, op: usize, cycles: u64) {
        self.insts += 1;
        self.cycles += cycles;
        self.per_op[op] += 1;
    }

    /// Record the width of an executed `extend` (call alongside
    /// [`FlatCounters::bump`] with [`opidx::EXTEND`]).
    #[inline]
    pub fn note_extend(&mut self, from: Width) {
        self.extends[width_index(from)] += 1;
    }

    /// Fold into a plain [`Counters`].
    pub fn materialize(&self) -> Counters {
        let mut c = Counters::new();
        c.insts = self.insts;
        c.cycles = self.cycles;
        c.extends = self.extends;
        for (i, &n) in self.per_op.iter().enumerate() {
            if n > 0 {
                c.per_op.insert(MNEMONICS[i], n);
            }
        }
        c
    }

    /// Zero all slots.
    pub fn clear(&mut self) {
        *self = FlatCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::Reg;

    #[test]
    fn records_extends_by_width() {
        let mut c = Counters::new();
        let e32 = Inst::Extend { dst: Reg(0), src: Reg(0), from: Width::W32 };
        let e8 = Inst::Extend { dst: Reg(0), src: Reg(0), from: Width::W8 };
        c.record(&e32, 1);
        c.record(&e32, 1);
        c.record(&e8, 1);
        assert_eq!(c.extend_count(Some(Width::W32)), 2);
        assert_eq!(c.extend_count(Some(Width::W8)), 1);
        assert_eq!(c.extend_count(None), 3);
        assert_eq!(c.insts, 3);
        assert_eq!(c.per_op["extend"], 3);
    }

    #[test]
    fn merge_sums() {
        let mut a = Counters::new();
        let mut b = Counters::new();
        let i = Inst::Br { target: sxe_ir::BlockId(0) };
        a.record(&i, 2);
        b.record(&i, 3);
        a.merge(&b);
        assert_eq!(a.insts, 2);
        assert_eq!(a.cycles, 5);
        assert_eq!(a.per_op["br"], 2);
    }

    #[test]
    fn mnemonic_table_and_dispatch_agree() {
        // Every mnemonic is unique and op_index stays in range.
        let unique: std::collections::BTreeSet<_> = MNEMONICS.iter().collect();
        assert_eq!(unique.len(), MNEMONICS.len());
        let i = Inst::Ret { value: None };
        assert_eq!(mnemonic(&i), MNEMONICS[op_index(&i)]);
    }

    #[test]
    fn opidx_matches_op_index() {
        use sxe_ir::{BinOp, BlockId, Cond, FuncId, Ty, UnOp};
        let r = Reg(0);
        let pairs: [(usize, Inst); 16] = [
            (opidx::CONST, Inst::Const { dst: r, value: 0, ty: Ty::I32 }),
            (opidx::CONSTF, Inst::ConstF { dst: r, value: 0.0 }),
            (opidx::COPY, Inst::Copy { dst: r, src: r, ty: Ty::I64 }),
            (opidx::UN, Inst::Un { op: UnOp::Not, ty: Ty::I64, dst: r, src: r }),
            (opidx::BIN, Inst::Bin { op: BinOp::Add, ty: Ty::I32, dst: r, lhs: r, rhs: r }),
            (opidx::SET, Inst::Setcc { cond: Cond::Eq, ty: Ty::I32, dst: r, lhs: r, rhs: r }),
            (opidx::EXTEND, Inst::Extend { dst: r, src: r, from: Width::W32 }),
            (opidx::JUSTEXT, Inst::JustExtended { dst: r, src: r, from: Width::W32 }),
            (opidx::NEWARRAY, Inst::NewArray { dst: r, len: r, elem: Ty::I32 }),
            (opidx::LEN, Inst::ArrayLen { dst: r, array: r }),
            (opidx::ALOAD, Inst::ArrayLoad { dst: r, array: r, index: r, elem: Ty::I32 }),
            (opidx::ASTORE, Inst::ArrayStore { array: r, index: r, src: r, elem: Ty::I32 }),
            (opidx::CALL, Inst::Call { dst: None, func: FuncId(0), args: vec![] }),
            (opidx::BR, Inst::Br { target: BlockId(0) }),
            (opidx::CONDBR, Inst::CondBr {
                cond: Cond::Eq,
                ty: Ty::I32,
                lhs: r,
                rhs: r,
                then_bb: BlockId(0),
                else_bb: BlockId(0),
            }),
            (opidx::RET, Inst::Ret { value: None }),
        ];
        for (idx, inst) in &pairs {
            assert_eq!(*idx, op_index(inst), "{}", mnemonic(inst));
        }
    }

    #[test]
    fn flat_counters_materialize_like_recording() {
        let e = Inst::Extend { dst: Reg(0), src: Reg(0), from: Width::W32 };
        let b = Inst::Br { target: sxe_ir::BlockId(0) };
        let mut reference = Counters::new();
        let mut flat = FlatCounters::default();
        for _ in 0..3 {
            reference.record(&e, 10);
            flat.bump(opidx::EXTEND, 10);
            flat.note_extend(Width::W32);
        }
        reference.record(&b, 12);
        flat.bump(opidx::BR, 12);
        assert_eq!(flat.materialize(), reference);
        flat.clear();
        assert_eq!(flat.materialize(), Counters::new());
    }

    #[test]
    fn registry_export_uses_the_shared_labels() {
        let mut c = Counters::new();
        c.record(&Inst::Extend { dst: Reg(0), src: Reg(0), from: Width::W32 }, 1);
        c.record(&Inst::Br { target: sxe_ir::BlockId(0) }, 1);
        let mut registry = sxe_telemetry::Registry::new();
        c.record_into(&mut registry);
        assert_eq!(registry.counter("vm.insts"), 2);
        assert_eq!(registry.counter("vm.extends.w32"), 1);
        assert_eq!(registry.counter("vm.op.extend"), 1);
        assert_eq!(registry.counter("vm.op.br"), 1);
        let per_op_total: u64 = registry
            .counters()
            .filter(|(k, _)| k.starts_with("vm.op."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(per_op_total, registry.counter("vm.insts"));
    }
}

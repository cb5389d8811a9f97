//! Functions, basic blocks, and modules.

use std::fmt;

use crate::inst::{BlockId, FuncId, Inst, Reg};
use crate::types::Ty;

/// Identifies one instruction inside a function: block plus index within
/// the block's instruction vector.
///
/// Instruction ids are stable across the elimination passes because deleted
/// instructions become [`Inst::Nop`] tombstones instead of being removed
/// from the vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId {
    /// Block containing the instruction.
    pub block: BlockId,
    /// Index within the block.
    pub index: u32,
}

impl InstId {
    /// Create an instruction id.
    #[must_use]
    pub fn new(block: BlockId, index: usize) -> InstId {
        InstId { block, index: index as u32 }
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block, self.index)
    }
}

/// A basic block: a straight-line sequence of instructions ending in a
/// terminator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// The instructions, terminator last. May contain [`Inst::Nop`]
    /// tombstones anywhere before the terminator.
    pub insts: Vec<Inst>,
}

impl Block {
    /// The terminator instruction, if the block is non-empty and finished.
    #[must_use]
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|i| i.is_terminator())
    }

    /// Successor blocks per the terminator; empty for unfinished blocks.
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        self.terminator().map(Inst::successors).unwrap_or_default()
    }

    /// Number of non-tombstone instructions.
    #[must_use]
    pub fn live_len(&self) -> usize {
        self.insts.iter().filter(|i| !matches!(i, Inst::Nop)).count()
    }
}

/// A function: a parameter list, a return type, and a CFG of basic blocks.
///
/// Block 0 is always the entry block. Parameters are pre-defined registers;
/// narrow integer parameters arrive **sign-extended** per the calling
/// convention.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (unique within a module).
    pub name: String,
    /// Parameter registers and their types, in call order.
    pub params: Vec<(Reg, Ty)>,
    /// Return type; `None` for void functions.
    pub ret: Option<Ty>,
    /// Basic blocks; index 0 is the entry.
    pub blocks: Vec<Block>,
    /// Number of virtual registers allocated so far.
    pub reg_count: u32,
}

impl Function {
    /// Create an empty function with a single unfinished entry block.
    #[must_use]
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Option<Ty>) -> Function {
        let param_regs: Vec<(Reg, Ty)> = params
            .into_iter()
            .enumerate()
            .map(|(i, ty)| (Reg(i as u32), ty))
            .collect();
        let reg_count = param_regs.len() as u32;
        Function {
            name: name.into(),
            params: param_regs,
            ret,
            blocks: vec![Block::default()],
            reg_count,
        }
    }

    /// The entry block id.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Allocate a fresh virtual register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.reg_count);
        self.reg_count += 1;
        r
    }

    /// Append a new empty block and return its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::default());
        id
    }

    /// Borrow a block.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutably borrow a block.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Borrow one instruction.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[must_use]
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.blocks[id.block.index()].insts[id.index as usize]
    }

    /// Mutably borrow one instruction.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.blocks[id.block.index()].insts[id.index as usize]
    }

    /// Replace an instruction with a [`Inst::Nop`] tombstone, returning the
    /// previous instruction.
    ///
    /// # Panics
    /// Panics if the id is out of range or names a terminator.
    pub fn delete_inst(&mut self, id: InstId) -> Inst {
        let inst = self.inst_mut(id);
        assert!(!inst.is_terminator(), "cannot tombstone a terminator: {id}");
        std::mem::replace(inst, Inst::Nop)
    }

    /// Iterate over the ids of all blocks.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Iterate over `(InstId, &Inst)` for every non-tombstone instruction
    /// in layout order.
    pub fn insts(&self) -> impl Iterator<Item = (InstId, &Inst)> + '_ {
        self.blocks.iter().enumerate().flat_map(|(b, blk)| {
            blk.insts.iter().enumerate().filter_map(move |(i, inst)| {
                if matches!(inst, Inst::Nop) {
                    None
                } else {
                    Some((InstId::new(BlockId(b as u32), i), inst))
                }
            })
        })
    }

    /// Total number of non-tombstone instructions.
    #[must_use]
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(Block::live_len).sum()
    }

    /// Count the real sign-extension instructions, optionally restricted to
    /// one width.
    #[must_use]
    pub fn count_extends(&self, width: Option<crate::Width>) -> usize {
        self.insts().filter(|(_, i)| i.is_extend(width)).count()
    }

    /// Remove all tombstones, compacting every block.
    ///
    /// Invalidates all outstanding [`InstId`]s; call only between passes.
    pub fn compact(&mut self) {
        for blk in &mut self.blocks {
            blk.insts.retain(|i| !matches!(i, Inst::Nop));
        }
    }

    /// Delete every block unreachable from the entry, remapping the
    /// surviving branch targets. Returns the number of blocks removed.
    ///
    /// Unreachable blocks are legal IR (the verifier skips them for
    /// definite assignment), but test-case reduction wants them gone:
    /// collapsing a conditional branch strands its untaken arm.
    pub fn drop_unreachable_blocks(&mut self) -> usize {
        let n = self.blocks.len();
        if n == 0 {
            return 0;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(b) = stack.pop() {
            for s in self.blocks[b].successors() {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s.index());
                }
            }
        }
        if seen.iter().all(|&s| s) {
            return 0;
        }
        let mut remap = vec![crate::BlockId(0); n];
        let mut next = 0u32;
        for (i, keep) in seen.iter().enumerate() {
            if *keep {
                remap[i] = crate::BlockId(next);
                next += 1;
            }
        }
        let mut i = 0;
        self.blocks.retain(|_| {
            let keep = seen[i];
            i += 1;
            keep
        });
        for blk in &mut self.blocks {
            for inst in &mut blk.insts {
                inst.map_blocks(|t| remap[t.index()]);
            }
        }
        n - self.blocks.len()
    }

    /// A 64-bit structural fingerprint of the function.
    ///
    /// Two calls return the same value iff the textual form (which
    /// includes `nop` tombstones, so [`InstId`]-keyed analysis facts stay
    /// keyed correctly) and the register allocation high-water mark are
    /// unchanged. The analysis cache uses this to detect stale memoized
    /// facts without being told which pass rewrote what.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write as _;

        /// FNV-1a over every formatted fragment, no intermediate string.
        struct Fnv(u64);
        impl std::fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0 = crate::hash::fnv1a(self.0, s.as_bytes());
                Ok(())
            }
        }

        let mut h = Fnv(crate::hash::FNV_OFFSET);
        let _ = write!(h, "{self}#regs={}", self.reg_count);
        h.0
    }
}

/// A module: a set of functions that may call each other.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// The functions; index = [`FuncId`].
    pub functions: Vec<Function>,
}

impl Module {
    /// Create an empty module.
    #[must_use]
    pub fn new() -> Module {
        Module::default()
    }

    /// Add a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(f);
        id
    }

    /// Borrow a function.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutably borrow a function.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Find a function by name.
    #[must_use]
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Iterate over `(FuncId, &Function)`.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &Function)> + '_ {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Total count of real sign extensions across all functions.
    #[must_use]
    pub fn count_extends(&self, width: Option<crate::Width>) -> usize {
        self.functions.iter().map(|f| f.count_extends(width)).sum()
    }

    /// Total live (non-tombstone) instruction count across all functions
    /// — the size metric test-case reduction minimizes.
    #[must_use]
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(Function::inst_count).sum()
    }

    /// Remove a function, shifting every later function's [`FuncId`] down
    /// by one and rewriting all remaining `call` instructions to match.
    ///
    /// # Panics
    /// Panics if `id` is out of range, or if a call to the removed
    /// function remains anywhere in the module (the caller must check —
    /// there is no meaningful remap for a dangling callee).
    pub fn remove_function(&mut self, id: FuncId) -> Function {
        let removed = self.functions.remove(id.index());
        for f in &mut self.functions {
            for blk in &mut f.blocks {
                for inst in &mut blk.insts {
                    if let Inst::Call { func, .. } = inst {
                        assert!(
                            *func != id,
                            "removed function @{} is still called from @{}",
                            removed.name,
                            f.name,
                        );
                        if func.index() > id.index() {
                            *func = FuncId(func.0 - 1);
                        }
                    }
                }
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Width;
    use crate::BinOp;

    fn sample() -> Function {
        let mut f = Function::new("t", vec![Ty::I32, Ty::I32], Some(Ty::I32));
        let r = f.new_reg();
        let b = f.entry();
        f.block_mut(b).insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: Ty::I32,
            dst: r,
            lhs: Reg(0),
            rhs: Reg(1),
        });
        f.block_mut(b).insts.push(Inst::Extend { dst: r, src: r, from: Width::W32 });
        f.block_mut(b).insts.push(Inst::Ret { value: Some(r) });
        f
    }

    #[test]
    fn unreachable_blocks_are_dropped_and_targets_remapped() {
        let mut f = Function::new("t", vec![Ty::I32], Some(Ty::I32));
        let b0 = f.entry();
        let dead = f.new_block();
        let tail = f.new_block();
        f.block_mut(b0).insts.push(Inst::Br { target: tail });
        f.block_mut(dead).insts.push(Inst::Ret { value: Some(Reg(0)) });
        f.block_mut(tail).insts.push(Inst::Ret { value: Some(Reg(0)) });
        assert_eq!(f.drop_unreachable_blocks(), 1);
        assert_eq!(f.blocks.len(), 2);
        // The branch to the old b2 now targets the compacted b1.
        assert_eq!(f.block(BlockId(0)).terminator(), Some(&Inst::Br { target: BlockId(1) }));
        assert_eq!(f.drop_unreachable_blocks(), 0, "idempotent");
    }

    #[test]
    fn remove_function_remaps_later_callees() {
        let mut m = Module::new();
        for name in ["a", "b", "c"] {
            let mut f = Function::new(name, vec![], Some(Ty::I32));
            let r = f.new_reg();
            let b = f.entry();
            f.block_mut(b).insts.push(Inst::Const { dst: r, value: 1, ty: Ty::I32 });
            f.block_mut(b).insts.push(Inst::Ret { value: Some(r) });
            m.add_function(f);
        }
        // a calls c (FuncId 2); removing b must shift the callee to 1.
        let call_dst = m.functions[0].new_reg();
        m.functions[0].blocks[0]
            .insts
            .insert(1, Inst::Call { dst: Some(call_dst), func: FuncId(2), args: vec![] });
        assert_eq!(m.inst_count(), 7);
        let removed = m.remove_function(FuncId(1));
        assert_eq!(removed.name, "b");
        assert_eq!(m.functions.len(), 2);
        match m.functions[0].blocks[0].insts[1] {
            Inst::Call { func, .. } => assert_eq!(func, FuncId(1)),
            ref other => panic!("unexpected inst {other:?}"),
        }
    }

    #[test]
    fn params_are_registers() {
        let f = sample();
        assert_eq!(f.params, vec![(Reg(0), Ty::I32), (Reg(1), Ty::I32)]);
        assert_eq!(f.reg_count, 3);
    }

    #[test]
    fn inst_iteration_skips_tombstones() {
        let mut f = sample();
        assert_eq!(f.inst_count(), 3);
        assert_eq!(f.count_extends(None), 1);
        let id = InstId::new(f.entry(), 1);
        let old = f.delete_inst(id);
        assert!(old.is_extend(None));
        assert_eq!(f.inst_count(), 2);
        assert_eq!(f.count_extends(None), 0);
        assert_eq!(f.insts().count(), 2);
    }

    #[test]
    #[should_panic(expected = "terminator")]
    fn cannot_delete_terminator() {
        let mut f = sample();
        f.delete_inst(InstId::new(f.entry(), 2));
    }

    #[test]
    fn compact_removes_tombstones() {
        let mut f = sample();
        f.delete_inst(InstId::new(f.entry(), 1));
        f.compact();
        assert_eq!(f.block(f.entry()).insts.len(), 2);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        let id = m.add_function(sample());
        assert_eq!(m.function_by_name("t"), Some(id));
        assert_eq!(m.function_by_name("missing"), None);
        assert_eq!(m.count_extends(None), 1);
    }

    #[test]
    fn fingerprint_tracks_structural_change() {
        let f = sample();
        let fp = f.fingerprint();
        assert_eq!(fp, sample().fingerprint(), "deterministic");

        // A tombstone changes the fingerprint (InstId-keyed facts would
        // otherwise be served stale after a later compact).
        let mut g = sample();
        g.delete_inst(InstId::new(g.entry(), 1));
        assert_ne!(fp, g.fingerprint());
        let with_tombstone = g.fingerprint();
        g.compact();
        assert_ne!(with_tombstone, g.fingerprint(), "compact observable");

        // So does a pure register-count bump.
        let mut h = sample();
        h.new_reg();
        assert_ne!(fp, h.fingerprint());
    }

    #[test]
    fn block_successors() {
        let f = sample();
        assert!(f.block(f.entry()).successors().is_empty());
        assert!(f.block(f.entry()).terminator().is_some());
    }
}

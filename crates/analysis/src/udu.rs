//! Reaching definitions and UD/DU chains.
//!
//! The paper's elimination operates on UD/DU chains ("It utilizes UD/DU
//! chains for the above two goals"). Chains are built once after the
//! insertion phase and then maintained *incrementally* as extensions are
//! deleted: removing a transparent definition like `r = extend(r)` splices
//! the definitions that reached the extension into every use the extension
//! reached.
//!
//! The chains live in dense, index-based tables:
//!
//! * definitions are numbered parameters first, then every instruction
//!   with a destination in layout order; an instruction's [`DefId`] is
//!   found through per-block base offsets into one per-instruction table;
//! * each register's definitions form one row of a CSR table (ascending
//!   [`DefId`]), from which the per-block gen/kill sets are built and
//!   against which the walk tests each use: a candidate def of the used
//!   register reaches the use when it is in the block's running set;
//! * a *use slot* is one instruction and one distinct register it reads,
//!   numbered in [`UseKey`] order. Each slot holds the sorted list of the
//!   definitions reaching it, and each definition the sorted list of the
//!   use keys it reaches; each direction keeps its lists back to back in
//!   one buffer.
//!
//! [`UdDu::defs_reaching`] and [`UdDu::uses_of`] borrow those lists: defs
//! in ascending [`DefId`] order, uses in ascending [`UseKey`] order. The
//! elimination's pessimistic cycle resolution, its use memo and its stop
//! at the first use that needs the upper bits all depend on that visit
//! order. [`UdDu::remove_transparent_def`] splices by sorted merges, in
//! the list's own span when the result fits and at the end of the buffer
//! when it does not.
//!
//! `BTreeUdDu`, the ordered-map layout these tables replaced, is kept
//! (hidden) as the test oracle: the same edges, the same answers in the
//! same order, before and after every splice.

use sxe_ir::{Cfg, Function, Inst, InstId, Reg};

use crate::bitset::BitSet;
use crate::dataflow::{solve, Direction, GenKillProblem, Meet};

/// Identifies one definition site in [`UdDu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DefId(pub u32);

impl DefId {
    /// Index into dense tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a definition comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefSite {
    /// The `i`-th function parameter (defined at entry, sign-extended per
    /// the calling convention if narrow).
    Param(usize),
    /// An instruction.
    Inst(InstId),
}

/// A use site: instruction plus the register it reads. One key covers all
/// operand slots of that register in the instruction.
pub type UseKey = (InstId, Reg);

/// Marks an instruction that defines no register in `UdDu::inst_def`.
const NO_DEF: u32 = u32::MAX;

/// Where one sorted list sits in a [`Lists`] buffer: `len` entries from
/// `start`, with room for `cap` before the next list.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// Sorted lists stored back to back in one buffer, indexed densely.
#[derive(Debug, Clone)]
struct Lists<T> {
    spans: Vec<Span>,
    items: Vec<T>,
}

impl<T: Copy + Ord> Lists<T> {
    fn get(&self, i: usize) -> &[T] {
        let s = self.spans[i];
        &self.items[s.start as usize..(s.start + s.len) as usize]
    }

    fn clear(&mut self, i: usize) {
        self.spans[i].len = 0;
    }

    /// List `i` becomes `(list i − {drop}) ∪ (list src − {skip})`, by a
    /// sorted merge. The merge is written at the end of the buffer and
    /// moved back into list `i`'s span when it fits there; otherwise list
    /// `i` moves to the end and its old span is left unused.
    fn splice(&mut self, i: usize, drop: T, src: usize, skip: T) {
        debug_assert_ne!(i, src, "a list cannot splice itself");
        let old = self.spans[i];
        let from = self.spans[src];
        let (mut a, a_end) = (old.start as usize, (old.start + old.len) as usize);
        let (mut b, b_end) = (from.start as usize, (from.start + from.len) as usize);
        let out = self.items.len();
        loop {
            if a < a_end && self.items[a] == drop {
                a += 1;
                continue;
            }
            if b < b_end && self.items[b] == skip {
                b += 1;
                continue;
            }
            let next = match (a < a_end, b < b_end) {
                (false, false) => break,
                (true, false) => self.items[a],
                (false, true) => self.items[b],
                (true, true) => self.items[a].min(self.items[b]),
            };
            if a < a_end && self.items[a] == next {
                a += 1;
            }
            if b < b_end && self.items[b] == next {
                b += 1;
            }
            self.items.push(next);
        }
        let len = (self.items.len() - out) as u32;
        if len <= old.cap {
            self.items.copy_within(out.., old.start as usize);
            self.items.truncate(out);
            self.spans[i].len = len;
        } else {
            self.spans[i] = Span { start: out as u32, len, cap: len };
        }
    }
}

/// Every register's definitions in CSR form: the defs of register `r`
/// are `defs[start[r]..start[r + 1]]`, ascending.
struct RegDefs {
    start: Vec<u32>,
    defs: Vec<u32>,
}

impl RegDefs {
    fn new(def_reg: &[Reg]) -> RegDefs {
        let nregs = def_reg.iter().map(|r| r.index() + 1).max().unwrap_or(0);
        let mut start = vec![0u32; nregs + 1];
        for r in def_reg {
            start[r.index() + 1] += 1;
        }
        for i in 0..nregs {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut defs = vec![0u32; def_reg.len()];
        for (d, r) in def_reg.iter().enumerate() {
            defs[next[r.index()] as usize] = d as u32;
            next[r.index()] += 1;
        }
        RegDefs { start, defs }
    }

    fn of(&self, r: Reg) -> &[u32] {
        match self.start.get(r.index() + 1) {
            Some(&end) => &self.defs[self.start[r.index()] as usize..end as usize],
            None => &[],
        }
    }
}

/// UD/DU chains for one function, in dense tables (see the module docs).
#[derive(Debug, Clone)]
pub struct UdDu {
    defs: Vec<DefSite>,
    removed: Vec<bool>,
    /// Per block, the flat index of its first instruction; one more
    /// entry closes the last block.
    block_base: Vec<u32>,
    /// Per flat instruction, the def it makes, or [`NO_DEF`].
    inst_def: Vec<u32>,
    /// Per flat instruction, its first use slot; one more entry closes
    /// the last instruction.
    first_use: Vec<u32>,
    /// Per use slot, the register read (ascending within an instruction).
    use_reg: Vec<Reg>,
    /// Per use slot, the defs reaching it.
    ud: Lists<DefId>,
    /// Per def, the use keys it reaches.
    du: Lists<UseKey>,
}

impl UdDu {
    /// Build the chains for `f` using reaching-definitions dataflow.
    #[must_use]
    pub fn compute(f: &Function, cfg: &Cfg) -> UdDu {
        // Enumerate definition sites (parameters first, then
        // instructions) and use slots.
        let ninsts: usize = f.blocks.iter().map(|b| b.insts.len()).sum();
        let mut defs: Vec<DefSite> = Vec::with_capacity(f.params.len() + ninsts);
        let mut def_reg: Vec<Reg> = Vec::with_capacity(f.params.len() + ninsts);
        for (i, &(r, _)) in f.params.iter().enumerate() {
            defs.push(DefSite::Param(i));
            def_reg.push(r);
        }
        let mut block_base = Vec::with_capacity(f.blocks.len() + 1);
        let mut inst_def = Vec::with_capacity(ninsts);
        let mut first_use = Vec::with_capacity(ninsts + 1);
        let mut use_reg: Vec<Reg> = Vec::with_capacity(2 * ninsts);
        let mut use_buf: Vec<Reg> = Vec::new();
        for b in f.block_ids() {
            block_base.push(inst_def.len() as u32);
            for (i, inst) in f.block(b).insts.iter().enumerate() {
                first_use.push(use_reg.len() as u32);
                use_buf.clear();
                inst.collect_uses(&mut use_buf);
                use_buf.sort_unstable();
                use_buf.dedup();
                use_reg.extend_from_slice(&use_buf);
                inst_def.push(match inst.dst() {
                    Some(d) => {
                        defs.push(DefSite::Inst(InstId::new(b, i)));
                        def_reg.push(d);
                        (defs.len() - 1) as u32
                    }
                    None => NO_DEF,
                });
            }
        }
        block_base.push(inst_def.len() as u32);
        first_use.push(use_reg.len() as u32);
        let universe = defs.len();
        let reg_defs = RegDefs::new(&def_reg);

        // Gen/kill per block: a def kills every def of its register and
        // supersedes any earlier gen of it in the block.
        let n = cfg.num_blocks();
        let mut gen = vec![BitSet::new(universe); n];
        let mut kill = vec![BitSet::new(universe); n];
        for b in f.block_ids() {
            let bi = b.index();
            let block = &inst_def[block_base[bi] as usize..block_base[bi + 1] as usize];
            for &d in block.iter().filter(|&&d| d != NO_DEF) {
                for &o in reg_defs.of(def_reg[d as usize]) {
                    gen[bi].remove(o as usize);
                    kill[bi].insert(o as usize);
                }
                gen[bi].insert(d as usize);
            }
        }

        // Boundary: parameter defs reach the entry.
        let mut boundary = BitSet::new(universe);
        for i in 0..f.params.len() {
            boundary.insert(i);
        }

        let sol = solve(
            cfg,
            &GenKillProblem {
                direction: Direction::Forward,
                meet: Meet::Union,
                universe,
                gen,
                kill,
                boundary,
            },
        );

        // Walk each reachable block with its running reaching set; a use
        // of `r` is reached by each def of `r` in that set.
        let mut ud = Lists { spans: Vec::with_capacity(use_reg.len()), items: Vec::new() };
        for b in f.block_ids() {
            let (lo, hi) = (block_base[b.index()] as usize, block_base[b.index() + 1] as usize);
            let slots = first_use[lo] as usize..first_use[hi] as usize;
            if !cfg.is_reachable(b) {
                let start = ud.items.len() as u32;
                ud.spans.extend(slots.map(|_| Span { start, len: 0, cap: 0 }));
                continue;
            }
            let mut current = sol.block_in[b.index()].clone();
            for fi in lo..hi {
                for &r in &use_reg[first_use[fi] as usize..first_use[fi + 1] as usize] {
                    let start = ud.items.len();
                    let reaching = reg_defs.of(r).iter().filter(|&&d| current.contains(d as usize));
                    ud.items.extend(reaching.map(|&d| DefId(d)));
                    let len = (ud.items.len() - start) as u32;
                    ud.spans.push(Span { start: start as u32, len, cap: len });
                }
                let d = inst_def[fi];
                if d != NO_DEF {
                    for &o in reg_defs.of(def_reg[d as usize]) {
                        current.remove(o as usize);
                    }
                    current.insert(d as usize);
                }
            }
        }

        // Invert: slots are visited in `UseKey` order, so each def's
        // list of uses fills in ascending order.
        let mut du = Lists { spans: Vec::with_capacity(universe), items: Vec::new() };
        let mut counts = vec![0u32; universe];
        for d in &ud.items {
            counts[d.index()] += 1;
        }
        let mut start = 0;
        for &c in &counts {
            du.spans.push(Span { start, len: 0, cap: c });
            start += c;
        }
        let placeholder = (InstId::new(sxe_ir::BlockId(0), 0), Reg(0));
        du.items = vec![placeholder; ud.items.len()];
        for b in f.block_ids() {
            let lo = block_base[b.index()] as usize;
            for fi in lo..block_base[b.index() + 1] as usize {
                let id = InstId::new(b, fi - lo);
                let slots = first_use[fi] as usize..first_use[fi + 1] as usize;
                for (slot, &r) in slots.clone().zip(&use_reg[slots]) {
                    for &d in ud.get(slot) {
                        let s = &mut du.spans[d.index()];
                        du.items[(s.start + s.len) as usize] = (id, r);
                        s.len += 1;
                    }
                }
            }
        }

        UdDu {
            removed: vec![false; defs.len()],
            defs,
            block_base,
            inst_def,
            first_use,
            use_reg,
            ud,
            du,
        }
    }

    /// Index of instruction `id` in the per-instruction tables, if the
    /// function had such an instruction when the chains were built.
    fn flat_index(&self, id: InstId) -> Option<usize> {
        let b = id.block.index();
        let end = *self.block_base.get(b + 1)? as usize;
        let fi = self.block_base[b] as usize + id.index as usize;
        (fi < end).then_some(fi)
    }

    /// The use slot of `reg` at `inst`.
    fn use_slot(&self, inst: InstId, reg: Reg) -> Option<usize> {
        let fi = self.flat_index(inst)?;
        let lo = self.first_use[fi] as usize;
        let regs = &self.use_reg[lo..self.first_use[fi + 1] as usize];
        regs.iter().position(|&r| r == reg).map(|k| lo + k)
    }

    /// The definition made by instruction `id`, if it defines a register
    /// and has not been removed.
    #[must_use]
    pub fn def_of_inst(&self, id: InstId) -> Option<DefId> {
        let d = self.inst_def[self.flat_index(id)?];
        (d != NO_DEF && !self.removed[d as usize]).then_some(DefId(d))
    }

    /// Where definition `d` comes from.
    ///
    /// # Panics
    /// Panics if `d` is out of range.
    #[must_use]
    pub fn site(&self, d: DefId) -> DefSite {
        self.defs[d.index()]
    }

    /// Definitions reaching the use of `reg` at `inst`, ascending (empty
    /// if `inst` does not use `reg` or the block is unreachable).
    #[must_use]
    pub fn defs_reaching(&self, inst: InstId, reg: Reg) -> &[DefId] {
        self.use_slot(inst, reg).map_or(&[], |slot| self.ud.get(slot))
    }

    /// Use sites reached by definition `d`, ascending.
    ///
    /// # Panics
    /// Panics if `d` is out of range.
    #[must_use]
    pub fn uses_of(&self, d: DefId) -> &[UseKey] {
        self.du.get(d.index())
    }

    /// Total number of definition sites (including removed ones).
    #[must_use]
    pub fn num_defs(&self) -> usize {
        self.defs.len()
    }

    /// Whether `d` has been removed by [`UdDu::remove_transparent_def`].
    #[must_use]
    pub fn is_removed(&self, d: DefId) -> bool {
        self.removed[d.index()]
    }

    /// Incrementally remove a *transparent* definition: an instruction
    /// like `r = extend(r)` or `r = justext(r)` whose destination equals
    /// its (single) source. The definitions that reached the instruction
    /// are spliced into every use the instruction's definition reached.
    ///
    /// The caller is responsible for tombstoning the instruction in the
    /// [`Function`] (see [`Function::delete_inst`]).
    ///
    /// # Panics
    /// Panics if `id` does not define a register, was already removed, or
    /// is not of the `dst == src` transparent shape.
    pub fn remove_transparent_def(&mut self, f: &Function, id: InstId) {
        let inst = f.inst(id);
        let (dst, src) = match *inst {
            Inst::Extend { dst, src, .. }
            | Inst::JustExtended { dst, src, .. }
            | Inst::Copy { dst, src, .. } => (dst, src),
            ref other => panic!("not a transparent def at {id}: {other:?}"),
        };
        assert_eq!(dst, src, "transparent def must have dst == src at {id}");
        let key: UseKey = (id, dst);
        let e = self.def_of_inst(id).expect("defines a register, not yet removed");
        let slot = self.use_slot(id, dst).expect("reads its own register");

        // Every use the extension reached (but its own read, when its def
        // reaches itself around a loop) trades it for the defs that fed
        // it (but itself).
        for k in 0..self.du.get(e.index()).len() {
            let u = self.du.get(e.index())[k];
            if u != key {
                let u_slot = self.use_slot(u.0, u.1).expect("a reached use has a slot");
                self.ud.splice(u_slot, e, slot, e);
            }
        }
        // Every def that fed the extension now reaches those uses instead.
        for k in 0..self.ud.get(slot).len() {
            let d = self.ud.get(slot)[k];
            if d != e {
                self.du.splice(d.index(), key, e.index(), key);
            }
        }
        self.ud.clear(slot);
        self.du.clear(e.index());
        self.removed[e.index()] = true;
    }

    /// Flatten the chains into the sorted list of `(def site, use site)`
    /// edges, for comparison in tests.
    #[must_use]
    pub fn edges(&self) -> Vec<(String, UseKey)> {
        let mut out = Vec::new();
        for d in 0..self.defs.len() {
            if self.removed[d] {
                continue;
            }
            let site = match self.defs[d] {
                DefSite::Param(i) => format!("param{i}"),
                DefSite::Inst(id) => format!("{id}"),
            };
            out.extend(self.du.get(d).iter().map(|&u| (site.clone(), u)));
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{parse_function, BlockId, Width};

    const LOOP: &str = "\
func @f(i32) -> i32 {
b0:
    r1 = const.i32 0
    br b1
b1:
    r2 = const.i32 1
    r0 = sub.i32 r0, r2
    r0 = extend.32 r0
    r1 = add.i32 r1, r0
    condbr gt.i32 r0, r2, b1, b2
b2:
    ret r1
}
";

    fn setup() -> (Function, Cfg, UdDu) {
        let f = parse_function(LOOP).unwrap();
        let cfg = Cfg::compute(&f);
        let udu = UdDu::compute(&f, &cfg);
        (f, cfg, udu)
    }

    #[test]
    fn param_def_reaches_first_use() {
        let (_, _, udu) = setup();
        // The `sub` at b1:1 uses r0; reaching defs are the param and the
        // extend at b1:2 (via the back edge).
        let sub_id = InstId::new(BlockId(1), 1);
        let defs = udu.defs_reaching(sub_id, Reg(0));
        let sites: Vec<DefSite> = defs.iter().map(|&d| udu.site(d)).collect();
        assert_eq!(sites.len(), 2);
        assert!(sites.contains(&DefSite::Param(0)));
        assert!(sites.contains(&DefSite::Inst(InstId::new(BlockId(1), 2))));
    }

    #[test]
    fn extend_def_reaches_loop_uses() {
        let (_, _, udu) = setup();
        let ext_id = InstId::new(BlockId(1), 2);
        let d = udu.def_of_inst(ext_id).unwrap();
        let uses = udu.uses_of(d);
        // extend's r0 reaches: add (b1:3), condbr (b1:4), sub (b1:1 via
        // back edge).
        assert!(uses.contains(&(InstId::new(BlockId(1), 3), Reg(0))));
        assert!(uses.contains(&(InstId::new(BlockId(1), 4), Reg(0))));
        assert!(uses.contains(&(InstId::new(BlockId(1), 1), Reg(0))));
        assert_eq!(uses.len(), 3);
    }

    #[test]
    fn removal_matches_recompute() {
        let (mut f, cfg, mut udu) = setup();
        let ext_id = InstId::new(BlockId(1), 2);
        udu.remove_transparent_def(&f, ext_id);
        f.delete_inst(ext_id);
        let fresh = UdDu::compute(&f, &cfg);
        assert_eq!(udu.edges(), fresh.edges());
    }

    #[test]
    fn removal_splices_defs() {
        let (f, _, mut udu) = setup();
        let ext_id = InstId::new(BlockId(1), 2);
        udu.remove_transparent_def(&f, ext_id);
        // Now the sub's def (b1:1) directly reaches the add and the branch.
        let sub_def = udu.def_of_inst(InstId::new(BlockId(1), 1)).unwrap();
        let uses = udu.uses_of(sub_def);
        assert!(uses.contains(&(InstId::new(BlockId(1), 3), Reg(0))));
        assert!(uses.contains(&(InstId::new(BlockId(1), 4), Reg(0))));
        // And the param def reaches the sub (unchanged) but the extension
        // def is gone.
        assert!(udu.def_of_inst(ext_id).is_none());
    }

    #[test]
    fn self_reaching_extend_removal() {
        // A loop where the extend is the only def of r0 inside the loop:
        // its def reaches its own use around the back edge.
        let f = parse_function(
            "func @g(i32) -> i32 {\n\
             b0:\n    br b1\n\
             b1:\n    r0 = extend.32 r0\n    condbr gt.i32 r0, r0, b1, b2\n\
             b2:\n    ret r0\n}\n",
        )
        .unwrap();
        let cfg = Cfg::compute(&f);
        let mut udu = UdDu::compute(&f, &cfg);
        let ext_id = InstId::new(BlockId(1), 0);
        let d = udu.def_of_inst(ext_id).unwrap();
        assert!(udu.uses_of(d).contains(&(ext_id, Reg(0))));
        let mut f2 = f.clone();
        udu.remove_transparent_def(&f2, ext_id);
        f2.delete_inst(ext_id);
        let fresh = UdDu::compute(&f2, &cfg);
        assert_eq!(udu.edges(), fresh.edges());
    }

    #[test]
    fn multiple_extends_in_sequence() {
        let f = parse_function(
            "func @h(i32) -> i32 {\n\
             b0:\n    r0 = extend.32 r0\n    r0 = extend.32 r0\n    ret r0\n}\n",
        )
        .unwrap();
        let cfg = Cfg::compute(&f);
        let mut udu = UdDu::compute(&f, &cfg);
        let e1 = InstId::new(BlockId(0), 0);
        let e2 = InstId::new(BlockId(0), 1);
        // Remove the second first: the ret should then be fed by e1.
        let mut f2 = f.clone();
        udu.remove_transparent_def(&f2, e2);
        f2.delete_inst(e2);
        let ret_defs = udu.defs_reaching(InstId::new(BlockId(0), 2), Reg(0));
        assert_eq!(ret_defs.len(), 1);
        assert_eq!(udu.site(*ret_defs.iter().next().unwrap()), DefSite::Inst(e1));
        // Then remove the first: the ret is fed by the parameter.
        udu.remove_transparent_def(&f2, e1);
        f2.delete_inst(e1);
        let ret_defs = udu.defs_reaching(InstId::new(BlockId(0), 2), Reg(0));
        assert_eq!(ret_defs.len(), 1);
        assert_eq!(udu.site(*ret_defs.iter().next().unwrap()), DefSite::Param(0));
        let fresh = UdDu::compute(&f2, &cfg);
        assert_eq!(udu.edges(), fresh.edges());
    }

    #[test]
    #[should_panic(expected = "transparent")]
    fn non_transparent_removal_panics() {
        let f = parse_function(
            "func @x(i32) -> i32 {\n\
             b0:\n    r1 = extend.32 r0\n    ret r1\n}\n",
        )
        .unwrap();
        let cfg = Cfg::compute(&f);
        let mut udu = UdDu::compute(&f, &cfg);
        udu.remove_transparent_def(&f, InstId::new(BlockId(0), 0));
        let _ = Width::W32;
    }
}

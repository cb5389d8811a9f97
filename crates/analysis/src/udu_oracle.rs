//! The ordered-map UD/DU chains that [`UdDu`](crate::UdDu)'s dense
//! tables replaced, kept as the test oracle for them: every edge, every
//! answer's order, and every splice must agree.

use std::collections::{BTreeMap, BTreeSet};

use sxe_ir::{Cfg, Function, Inst, InstId, Reg};

use crate::bitset::BitSet;
use crate::dataflow::{solve, Direction, GenKillProblem, Meet};
use crate::udu::{DefId, DefSite, UseKey};

/// UD/DU chains for one function, kept in ordered maps and sets: the
/// layout [`UdDu`](crate::UdDu) replaced, with the same answers in the
/// same order. Test oracle; add no callers.
#[derive(Debug, Clone)]
pub struct BTreeUdDu {
    defs: Vec<DefSite>,
    removed: Vec<bool>,
    def_of_inst: BTreeMap<InstId, DefId>,
    ud: BTreeMap<UseKey, BTreeSet<DefId>>,
    du: Vec<BTreeSet<UseKey>>,
}

impl BTreeUdDu {
    /// Build the chains for `f` using reaching-definitions dataflow.
    #[must_use]
    pub fn compute(f: &Function, cfg: &Cfg) -> BTreeUdDu {
        // Enumerate definition sites: parameters first, then instructions.
        let mut defs: Vec<DefSite> = Vec::new();
        let mut def_reg: Vec<Reg> = Vec::new();
        let mut def_of_inst: BTreeMap<InstId, DefId> = BTreeMap::new();
        for (i, &(r, _)) in f.params.iter().enumerate() {
            defs.push(DefSite::Param(i));
            def_reg.push(r);
        }
        for (id, inst) in f.insts() {
            if let Some(d) = inst.dst() {
                def_of_inst.insert(id, DefId(defs.len() as u32));
                defs.push(DefSite::Inst(id));
                def_reg.push(d);
            }
        }
        let universe = defs.len();

        // Per-register def sets.
        let mut defs_of_reg: BTreeMap<Reg, BitSet> = BTreeMap::new();
        for (i, &r) in def_reg.iter().enumerate() {
            defs_of_reg
                .entry(r)
                .or_insert_with(|| BitSet::new(universe))
                .insert(i);
        }

        // Gen/kill per block.
        let n = cfg.num_blocks();
        let mut gen = vec![BitSet::new(universe); n];
        let mut kill = vec![BitSet::new(universe); n];
        for b in f.block_ids() {
            let bi = b.index();
            for (i, inst) in f.block(b).insts.iter().enumerate() {
                if inst.dst().is_some() {
                    let id = InstId::new(b, i);
                    let d = def_of_inst[&id];
                    let r = def_reg[d.index()];
                    let all = &defs_of_reg[&r];
                    // This def kills every other def of r and supersedes
                    // any earlier gen of r in this block.
                    gen[bi].subtract(all);
                    kill[bi].union_with(all);
                    gen[bi].insert(d.index());
                }
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

        // Walk each block computing per-use chains.
        let mut ud: BTreeMap<UseKey, BTreeSet<DefId>> = BTreeMap::new();
        let mut du: Vec<BTreeSet<UseKey>> = vec![BTreeSet::new(); universe];
        let mut use_buf: Vec<Reg> = Vec::new();
        for b in f.block_ids() {
            if !cfg.is_reachable(b) {
                continue;
            }
            let mut current = sol.block_in[b.index()].clone();
            for (i, inst) in f.block(b).insts.iter().enumerate() {
                if matches!(inst, Inst::Nop) {
                    continue;
                }
                let id = InstId::new(b, i);
                use_buf.clear();
                inst.collect_uses(&mut use_buf);
                use_buf.sort_unstable();
                use_buf.dedup();
                for &r in &use_buf {
                    let Some(all) = defs_of_reg.get(&r) else { continue };
                    let mut reaching = current.clone();
                    reaching.intersect_with(all);
                    let set: BTreeSet<DefId> =
                        reaching.iter().map(|i| DefId(i as u32)).collect();
                    for &d in &set {
                        du[d.index()].insert((id, r));
                    }
                    ud.insert((id, r), set);
                }
                if inst.dst().is_some() {
                    let d = def_of_inst[&id];
                    let r = def_reg[d.index()];
                    current.subtract(&defs_of_reg[&r]);
                    current.insert(d.index());
                }
            }
        }

        BTreeUdDu {
            removed: vec![false; defs.len()],
            defs,
            def_of_inst,
            ud,
            du,
        }
    }

    /// The definition made by instruction `id`, if it defines a register
    /// and has not been removed.
    #[must_use]
    pub fn def_of_inst(&self, id: InstId) -> Option<DefId> {
        self.def_of_inst
            .get(&id)
            .copied()
            .filter(|d| !self.removed[d.index()])
    }

    /// Where definition `d` comes from.
    ///
    /// # Panics
    /// Panics if `d` is out of range.
    #[must_use]
    pub fn site(&self, d: DefId) -> DefSite {
        self.defs[d.index()]
    }

    /// Definitions reaching the use of `reg` at `inst` (empty if `inst`
    /// does not use `reg` or the block is unreachable).
    #[must_use]
    pub fn defs_reaching(&self, inst: InstId, reg: Reg) -> BTreeSet<DefId> {
        self.ud.get(&(inst, reg)).cloned().unwrap_or_default()
    }

    /// Use sites reached by definition `d`.
    ///
    /// # Panics
    /// Panics if `d` is out of range.
    #[must_use]
    pub fn uses_of(&self, d: DefId) -> BTreeSet<UseKey> {
        self.du[d.index()].clone()
    }

    /// Total number of definition sites (including removed ones).
    #[must_use]
    pub fn num_defs(&self) -> usize {
        self.defs.len()
    }

    /// Whether `d` has been removed by [`BTreeUdDu::remove_transparent_def`].
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
        let r = dst;
        let e_def = self.def_of_inst.get(&id).copied().expect("defines a register");
        assert!(!self.removed[e_def.index()], "{id} already removed");

        // Defs feeding the extension (may include e_def itself via a loop
        // back edge; drop it — after removal it no longer exists).
        let mut feeding = self.ud.remove(&(id, r)).unwrap_or_default();
        feeding.remove(&e_def);
        // Uses the extension's def reached (exclude its own use key).
        let mut consumers = std::mem::take(&mut self.du[e_def.index()]);
        consumers.remove(&(id, r));

        for &u in &consumers {
            let entry = self.ud.entry(u).or_default();
            entry.remove(&e_def);
            entry.extend(feeding.iter().copied());
        }
        for &d in &feeding {
            let du = &mut self.du[d.index()];
            du.remove(&(id, r));
            du.extend(consumers.iter().copied());
        }
        self.removed[e_def.index()] = true;
        self.def_of_inst.remove(&id);
    }

    /// Flatten the chains into a canonical set of `(def site, use site)`
    /// edges for comparison in tests.
    #[must_use]
    pub fn edges(&self) -> BTreeSet<(String, UseKey)> {
        let mut out = BTreeSet::new();
        for (d, uses) in self.du.iter().enumerate() {
            if self.removed[d] {
                continue;
            }
            let site = match self.defs[d] {
                DefSite::Param(i) => format!("param{i}"),
                DefSite::Inst(id) => format!("{id}"),
            };
            for &u in uses {
                out.insert((site.clone(), u));
            }
        }
        out
    }
}

//! The dense UD/DU chains (`UdDu`) against the ordered-map layout they
//! replaced (`BTreeUdDu`, the test oracle). On the 17 paper kernels for
//! every target and on the generated program corpus, each taken through
//! the pipeline up to step-3 insertion, both must give the same edges
//! and every `defs_reaching` / `uses_of` answer in the same order: after
//! construction, after each extension the eliminator removes, and after
//! each dummy marker removed one at a time (the body that leaves must be
//! `strip_dummies`'s).

use sxe_analysis::{AnalysisCache, BTreeUdDu, DefId, FlowRanges, UdDu, UseKey};
use sxe_core::eliminate::{run_elimination_budgeted, strip_dummies};
use sxe_core::{
    convert_module, step3_insertion, step3_order_cached, ElimConfig, GenStrategy, SxeConfig,
    Variant,
};
use sxe_ir::{Budget, Cfg, Function, Inst, InstId, Module, Reg, Target};
use sxe_opt::{run_module, GeneralOpts};
use xelim_integration_tests::gen;

/// Every answer of `udu` equals the oracle's, in the same order.
fn assert_agree(f: &Function, udu: &UdDu, oracle: &BTreeUdDu, what: &str) {
    let edges: Vec<_> = oracle.edges().into_iter().collect();
    assert_eq!(udu.edges(), edges, "{what}: edges");
    assert_eq!(udu.num_defs(), oracle.num_defs(), "{what}: defs");
    let mut uses: Vec<Reg> = Vec::new();
    for (id, inst) in f.insts() {
        uses.clear();
        inst.collect_uses(&mut uses);
        for &r in &uses {
            let want: Vec<DefId> = oracle.defs_reaching(id, r).into_iter().collect();
            assert_eq!(udu.defs_reaching(id, r), want, "{what}: defs reaching {r} at {id}");
        }
        assert_eq!(udu.def_of_inst(id), oracle.def_of_inst(id), "{what}: def of {id}");
    }
    for d in (0..udu.num_defs()).map(|d| DefId(d as u32)) {
        let want: Vec<UseKey> = oracle.uses_of(d).into_iter().collect();
        assert_eq!(udu.uses_of(d), want, "{what}: uses of {d:?}");
        assert_eq!(udu.is_removed(d), oracle.is_removed(d), "{what}: {d:?} removed");
    }
}

/// Mirror onto `oracle` and `g` (the function as the oracle last saw
/// it) what was just done to `f` at `id`: a tombstone is a chain
/// removal, a rewrite into a copy leaves the chains alone. Returns
/// whether the chains lost a def.
fn mirror(f: &Function, g: &mut Function, oracle: &mut BTreeUdDu, id: InstId) -> bool {
    if f.inst(id) == g.inst(id) {
        return false;
    }
    if matches!(f.inst(id), Inst::Nop) {
        oracle.remove_transparent_def(g, id);
        g.delete_inst(id);
        true
    } else {
        *g.inst_mut(id) = f.inst(id).clone();
        false
    }
}

/// Step 3's elimination and dummy removal on `f` (already through
/// insertion), with the dense chains, checked against the oracle after
/// every removal. Returns the number of removals checked.
fn eliminate_checking(f: &Function, config: &SxeConfig, what: &str) -> usize {
    let mut f = f.clone();
    let cfg = Cfg::compute(&f);
    let mut udu = UdDu::compute(&f, &cfg);
    let mut oracle = BTreeUdDu::compute(&f, &cfg);
    assert_agree(&f, &udu, &oracle, what);

    // One call per extension, so every splice is checked on its own.
    let flow = FlowRanges::compute(&f, &cfg);
    let ec = ElimConfig {
        target: config.target,
        array_analysis: config.variant.array_analysis(),
        max_array_len: config.max_array_len,
    };
    let mut g = f.clone();
    let mut removals = 0;
    for id in step3_order_cached(&f, config, None, &mut AnalysisCache::new()) {
        run_elimination_budgeted(&mut f, &mut udu, &[id], &ec, Some(&flow), &Budget::unlimited());
        if mirror(&f, &mut g, &mut oracle, id) {
            removals += 1;
            assert_agree(&f, &udu, &oracle, &format!("{what}, extension {id} removed"));
        }
    }

    // `strip_dummies` itself, on a copy...
    let mut stripped = f.clone();
    strip_dummies(&mut stripped);
    // ...and the same removals one at a time, with the chains spliced
    // and compared after each.
    let ids: Vec<InstId> = f.insts().map(|(id, _)| id).collect();
    for id in ids {
        let Inst::JustExtended { dst, src, from } = *f.inst(id) else { continue };
        if dst == src {
            udu.remove_transparent_def(&f, id);
            f.delete_inst(id);
        } else {
            *f.inst_mut(id) = Inst::Copy { dst, src, ty: from.ty() };
        }
        if mirror(&f, &mut g, &mut oracle, id) {
            removals += 1;
            assert_agree(&f, &udu, &oracle, &format!("{what}, dummy {id} removed"));
        }
    }
    f.compact();
    assert!(stripped.same_body(&f), "{what}: strip_dummies removed something else");
    removals
}

/// `m` through step 1, step 2, and step-3 insertion for `config`, then
/// every function checked. Returns the number of removals checked.
fn check_module(mut m: Module, config: &SxeConfig, what: &str) -> usize {
    convert_module(&mut m, config.target, GenStrategy::AfterDef);
    run_module(&mut m, &GeneralOpts::default(), config.target);
    let mut removals = 0;
    for f in &mut m.functions {
        step3_insertion(f, config);
        removals += eliminate_checking(f, config, &format!("{what} @{}", f.name));
    }
    removals
}

fn config_for(variant: Variant, target: Target) -> SxeConfig {
    SxeConfig { target, ..SxeConfig::for_variant(variant) }
}

#[test]
fn dense_chains_match_the_oracle_on_kernels_through_every_splice() {
    let mut removals = 0;
    for w in sxe_workloads::all() {
        for target in Target::ALL {
            for variant in [Variant::All, Variant::AllPde] {
                let config = config_for(variant, target);
                let what = format!("{} on {target} ({variant:?})", w.name);
                removals += check_module(w.build_default(), &config, &what);
            }
        }
    }
    assert!(removals > 0, "the kernels must exercise splices");
}

#[test]
fn dense_chains_match_the_oracle_on_the_program_corpus() {
    let mut removals = 0;
    for (i, p) in gen::program_corpus(0xa5a5_0021, 64) {
        for target in Target::ALL {
            let config = config_for(Variant::All, target);
            removals += check_module(gen::lower(&p), &config, &format!("program {i} on {target}"));
        }
    }
    assert!(removals > 0, "the corpus must exercise splices");
}

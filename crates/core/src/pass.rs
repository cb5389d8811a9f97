//! Orchestration of Figure 5 step 3: insertion, order determination, and
//! elimination, per configured [`Variant`].

use sxe_analysis::{AnalysisCache, FlowRanges, Freq};
use sxe_ir::{Budget, Function, Inst, InstId};

use crate::config::{SxeConfig, SxeStats};
use crate::eliminate::{run_elimination_budgeted, strip_dummies, ElimConfig};
use crate::insertion::simple_insertion;
use crate::order::{elimination_order, static_freq};
use crate::pde::pde_insertion;

/// Run the sign-extension optimization (Fig 5 step 3) on one function
/// that has already been converted to 64-bit form (step 1) and generally
/// optimized (step 2).
///
/// `profile` optionally supplies measured per-block execution counts for
/// order determination (the paper's interpreter profile); it must match
/// the function's current block count or it is ignored.
pub fn run_step3(f: &mut Function, config: &SxeConfig, profile: Option<&[u64]>) -> SxeStats {
    let variant = config.variant;
    if variant.first_algorithm() {
        return step3_first(f, config);
    }
    let mut stats = SxeStats::default();
    if !variant.uses_udu() {
        return stats; // baseline / gen-use: no step-3 optimization
    }

    let mut cache = AnalysisCache::new();
    let ins = step3_insertion(f, config);
    stats.dummies = ins.dummies;
    stats.inserted = ins.inserted;
    let order = step3_order_cached(f, config, profile, &mut cache);
    let out = step3_eliminate_cached(f, config, &order, &Budget::unlimited(), &mut cache);
    stats.examined = out.examined;
    stats.eliminated = out.eliminated;
    stats.eliminated_via_array = out.via_array;
    stats
}

/// Counters from the [`step3_insertion`] stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertionOutcome {
    /// Dummy (`justext`) markers inserted after array accesses.
    pub dummies: usize,
    /// Real anticipatory extensions inserted.
    pub inserted: usize,
}

/// Counters from the [`step3_eliminate`] stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElimOutcome {
    /// Extension sites examined.
    pub examined: usize,
    /// Extensions eliminated.
    pub eliminated: usize,
    /// Eliminations that needed the array theorems.
    pub via_array: usize,
    /// The budget ran out before every extension was examined.
    pub exhausted: bool,
}

/// Stage (3)-1, standalone: dummy-marker and anticipatory-extension
/// insertion. One of the separately containable stages the `sxe-jit`
/// harness wraps in a panic/verify boundary.
pub fn step3_insertion(f: &mut Function, config: &SxeConfig) -> InsertionOutcome {
    // Dummy markers after array accesses carry the bounds-check facts and
    // accompany every chain-based run; real anticipatory extensions
    // depend on the `insert` feature.
    let dummies = crate::insertion::insert_dummies(f, config.target);
    let inserted = if config.variant.insertion() {
        let ins = if config.variant.pde_insertion() {
            pde_insertion(f, config.target, true)
        } else {
            simple_insertion(f, config.target, true)
        };
        ins.inserted
    } else {
        0
    };
    InsertionOutcome { dummies, inserted }
}

/// [`step3_insertion`]; insertion consults no analysis cache. Kept for
/// perfbench's mirror (ROADMAP item 1); add no callers.
pub fn step3_insertion_cached(
    f: &mut Function,
    config: &SxeConfig,
    _cache: &mut AnalysisCache,
) -> InsertionOutcome {
    step3_insertion(f, config)
}

/// [`step3_order_cached`] on a pass-through cache. Kept for perfbench's
/// mirror (ROADMAP item 1); add no callers.
#[must_use]
pub fn step3_order(f: &Function, config: &SxeConfig, profile: Option<&[u64]>) -> Vec<InstId> {
    step3_order_cached(f, config, profile, &mut AnalysisCache::disabled())
}

/// Stage (3)-2, standalone: order determination. Returns the extension
/// sites to examine, hottest-first when the variant orders by frequency,
/// already filtered to the configured widths. The ids are only valid
/// until `f` is next mutated. The CFG comes from `cache`, which keeps it
/// for the following [`step3_eliminate_cached`] (ordering does not
/// mutate `f`).
#[must_use]
pub fn step3_order_cached(
    f: &Function,
    config: &SxeConfig,
    profile: Option<&[u64]>,
    cache: &mut AnalysisCache,
) -> Vec<InstId> {
    let cfg = cache.cfg(f);
    let freq_storage: Option<Freq> = if config.variant.order_determination() {
        match profile {
            Some(counts) if config.use_profile && counts.len() == f.blocks.len() => {
                Some(Freq::from_counts(counts))
            }
            _ => Some(static_freq(f, &cfg)),
        }
    } else {
        None
    };
    let mut order = elimination_order(f, &cfg, freq_storage.as_ref());
    order.retain(|&id| match f.inst(id) {
        Inst::Extend { from, .. } => config.widths.contains(from),
        _ => false,
    });
    order
}

/// Recovery fallback for [`step3_order_cached`]: a plain program-order
/// scan of the eligible extensions, with no frequency analysis. Used when the
/// order stage itself was rolled back — elimination can still proceed,
/// just without the hottest-first payoff.
#[must_use]
pub fn fallback_order(f: &Function, config: &SxeConfig) -> Vec<InstId> {
    f.insts()
        .filter_map(|(id, inst)| match inst {
            Inst::Extend { from, .. } if config.widths.contains(from) => Some(id),
            _ => None,
        })
        .collect()
}

/// [`step3_eliminate_cached`] on a pass-through cache. Kept for
/// perfbench's mirror (ROADMAP item 1); add no callers.
pub fn step3_eliminate(
    f: &mut Function,
    config: &SxeConfig,
    order: &[InstId],
    budget: &Budget,
) -> ElimOutcome {
    step3_eliminate_cached(f, config, order, budget, &mut AnalysisCache::disabled())
}

/// Stage (3)-3, standalone: chain creation, flow analysis (array
/// variants only), budgeted elimination over `order`, dummy removal, and
/// zero-extension cleanup.
/// The CFG comes from `cache`, typically a hit left behind by
/// [`step3_order_cached`]. The chains are built once, after insertion,
/// and moved out of the cache, because elimination maintains them
/// incrementally while rewriting.
pub fn step3_eliminate_cached(
    f: &mut Function,
    config: &SxeConfig,
    order: &[InstId],
    budget: &Budget,
    cache: &mut AnalysisCache,
) -> ElimOutcome {
    let cfg = cache.cfg(f);
    let mut udu = cache.take_udu(f);
    let ec = ElimConfig {
        target: config.target,
        array_analysis: config.variant.array_analysis(),
        max_array_len: config.max_array_len,
    };
    // Flow-sensitive interval analysis, computed once for every
    // elimination, and only for the variants whose array theorems and
    // range refinement read it. Deleting an `extend.32` leaves the
    // low-32 intervals as they were; deleting an `extend.8`/`extend.16`
    // can widen them (see `LazyFlowStates` in `eliminate.rs`).
    let flow = ec.array_analysis.then(|| FlowRanges::compute(f, &cfg));
    let res = run_elimination_budgeted(f, &mut udu, order, &ec, flow.as_ref(), budget);
    // Nothing reads the chains after this, so the markers go without
    // splicing them; the compaction it ends with also drops the
    // extensions elimination deleted (zero-extension cleanup deletes none).
    strip_dummies(f);
    if config.eliminate_zext {
        crate::zext::eliminate_zero_extensions(f, config.target);
    }
    ElimOutcome {
        examined: res.examined,
        eliminated: res.eliminated,
        via_array: res.via_array,
        exhausted: res.exhausted,
    }
}

/// The paper's §3 "first algorithm" as a standalone stage.
pub fn step3_first(f: &mut Function, config: &SxeConfig) -> SxeStats {
    SxeStats {
        examined: f.count_extends(None),
        eliminated: crate::first_algorithm::run(f, &config.widths),
        ..SxeStats::default()
    }
}

/// Per-function block-count profiles for a module.
pub type ModuleProfile = Vec<Vec<u64>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::convert::{convert_function, GenStrategy};
    use sxe_ir::{parse_function, verify_function, Target};

    /// Paper Figure 3 / Figure 7 shaped kernel, pre-conversion:
    /// a count-down loop over an array with a mask and a float sum after.
    const KERNEL: &str = "\
func @kernel(i32, i32) -> f64 {
b0:
    r2 = newarray.i32 r0
    r3 = const.i32 0
    br b1
b1:
    r4 = const.i32 1
    r0 = sub.i32 r0, r4
    r5 = aload.i32 r2, r0
    r6 = const.i32 268435455
    r5 = and.i32 r5, r6
    r3 = add.i32 r3, r5
    condbr gt.i32 r0, r1, b1, b2
b2:
    r7 = i32tof64.f64 r3
    ret r7
}
";

    fn converted() -> Function {
        let mut f = parse_function(KERNEL).unwrap();
        convert_function(&mut f, Target::Ia64, GenStrategy::AfterDef);
        f
    }

    #[test]
    fn all_variant_clears_the_loop() {
        let mut f = converted();
        let gen = f.count_extends(None);
        assert!(gen >= 2, "conversion generated loop extensions");
        let stats = run_step3(&mut f, &SxeConfig::for_variant(Variant::All), None);
        verify_function(&f).unwrap();
        assert!(stats.eliminated >= 2);
        // The loop body (b1) must hold no extensions: the index is
        // discharged by Theorem 4, the accumulator moved after the loop.
        let in_loop = f
            .block(sxe_ir::BlockId(1))
            .insts
            .iter()
            .filter(|i| i.is_extend(None))
            .count();
        assert_eq!(in_loop, 0, "loop body clean:\n{f}");
    }

    #[test]
    fn variant_ordering_on_kernel() {
        // Static extension counts: all <= array <= basic <= baseline.
        let count_for = |v: Variant| {
            let mut f = converted();
            run_step3(&mut f, &SxeConfig::for_variant(v), None);
            f.count_extends(None)
        };
        let baseline = count_for(Variant::Baseline);
        let basic = count_for(Variant::BasicUdDu);
        let array = count_for(Variant::Array);
        let all = count_for(Variant::All);
        assert!(basic <= baseline);
        assert!(array <= basic);
        assert!(all <= array, "all={all} array={array}");
    }

    #[test]
    fn baseline_is_untouched() {
        let mut f = converted();
        let before = f.count_extends(None);
        let stats = run_step3(&mut f, &SxeConfig::for_variant(Variant::Baseline), None);
        assert_eq!(stats.eliminated, 0);
        assert_eq!(f.count_extends(None), before);
    }

    #[test]
    fn first_algorithm_runs() {
        let mut f = converted();
        let before = f.count_extends(None);
        let stats =
            run_step3(&mut f, &SxeConfig::for_variant(Variant::FirstAlgorithm), None);
        assert!(stats.eliminated > 0);
        assert!(f.count_extends(None) < before);
        verify_function(&f).unwrap();
    }

    #[test]
    fn dummies_never_survive() {
        for v in Variant::ALL {
            let mut f = converted();
            run_step3(&mut f, &SxeConfig::for_variant(v), None);
            assert!(
                !f.insts().any(|(_, i)| matches!(i, sxe_ir::Inst::JustExtended { .. })),
                "{v} left dummies"
            );
        }
    }

    #[test]
    fn staged_api_matches_monolith() {
        let mut staged = converted();
        let mut mono = converted();
        let config = SxeConfig::for_variant(Variant::All);
        let mono_stats = run_step3(&mut mono, &config, None);

        step3_insertion(&mut staged, &config);
        let order = step3_order(&staged, &config, None);
        let out = step3_eliminate(&mut staged, &config, &order, &Budget::unlimited());
        assert!(!out.exhausted);
        assert_eq!(out.eliminated, mono_stats.eliminated);
        assert_eq!(staged, mono);
    }

    #[test]
    fn cached_staged_api_matches_uncached() {
        let mut cached = converted();
        let mut plain = converted();
        let config = SxeConfig::for_variant(Variant::All);

        step3_insertion(&mut plain, &config);
        let order = step3_order(&plain, &config, None);
        let out = step3_eliminate(&mut plain, &config, &order, &Budget::unlimited());

        let mut cache = AnalysisCache::new();
        step3_insertion_cached(&mut cached, &config, &mut cache);
        let order_c = step3_order_cached(&cached, &config, None, &mut cache);
        assert_eq!(order_c, order);
        let out_c =
            step3_eliminate_cached(&mut cached, &config, &order_c, &Budget::unlimited(), &mut cache);
        assert_eq!(out_c.eliminated, out.eliminated);
        assert_eq!(cached, plain);
        // Order left a cfg behind for elimination to reuse.
        assert!(cache.hits() >= 1, "eliminate reused the order stage's cfg");
        // Elimination rewrote the function: the next query sees a
        // changed body, misses, and drops the stale entry.
        let misses = cache.misses();
        let _ = cache.cfg(&cached);
        assert_eq!(cache.misses(), misses + 1);
        assert_eq!(cache.invalidations(), 1);
    }

    #[test]
    fn exhausted_budget_salvages_partial_result() {
        let mut f = converted();
        let config = SxeConfig::for_variant(Variant::All);
        step3_insertion(&mut f, &config);
        let order = step3_order(&f, &config, None);
        assert!(order.len() >= 2, "need at least two sites for a partial run");
        let budget = Budget::new(1, None);
        let out = step3_eliminate(&mut f, &config, &order, &budget);
        assert!(out.exhausted);
        assert_eq!(out.examined, 1);
        verify_function(&f).unwrap();
        assert!(
            !f.insts().any(|(_, i)| matches!(i, sxe_ir::Inst::JustExtended { .. })),
            "dummies scrubbed even on exhaustion"
        );
    }

    #[test]
    fn fallback_order_covers_all_eligible_extends() {
        let mut f = converted();
        let config = SxeConfig::for_variant(Variant::All);
        step3_insertion(&mut f, &config);
        let fallback = fallback_order(&f, &config);
        let mut principal = step3_order(&f, &config, None);
        principal.sort_unstable();
        let mut sorted = fallback.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, principal, "same sites, different order");
    }

    #[test]
    fn strip_dummies_scrubs_markers_without_chains() {
        let mut f = converted();
        let config = SxeConfig::for_variant(Variant::All);
        step3_insertion(&mut f, &config);
        assert!(f.insts().any(|(_, i)| matches!(i, sxe_ir::Inst::JustExtended { .. })));
        let n = crate::eliminate::strip_dummies(&mut f);
        assert!(n > 0);
        assert!(!f.insts().any(|(_, i)| matches!(i, sxe_ir::Inst::JustExtended { .. })));
        verify_function(&f).unwrap();
    }

    #[test]
    fn profile_accepted_when_lengths_match() {
        let mut f = converted();
        let counts = vec![1u64; f.blocks.len()];
        let mut config = SxeConfig::for_variant(Variant::All);
        config.use_profile = true;
        let stats = run_step3(&mut f, &config, Some(&counts));
        assert!(stats.eliminated > 0);
    }
}

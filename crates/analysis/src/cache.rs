//! Memoized per-function analysis facts, validated against a snapshot
//! of the body they describe.
//!
//! The compilation pipeline recomputes [`Cfg`], [`Liveness`], and UD/DU
//! chains over and over: every fixpoint round of the general optimizer
//! and every step-3 stage historically called `*::compute` from scratch,
//! even when the function had not changed since the previous query — the
//! per-method JIT-cost concern that motivates the paper's Table 3
//! split. [`AnalysisCache`] memoizes those facts per function:
//!
//! * a query ([`cfg`](AnalysisCache::cfg), [`liveness`](AnalysisCache::liveness),
//!   [`udu`](AnalysisCache::udu)) returns the memoized fact when the
//!   function is unchanged, and recomputes (then re-memoizes) otherwise;
//! * "unchanged" has one definition: every query validates the entry
//!   once against a snapshot of the body its facts describe — one
//!   structural comparison ([`Function::same_body`]), exact to the bit
//!   of every float constant.
//!   A mismatch (a pass rewrote the body, or a rollback restored an
//!   older one) drops the facts and counts an invalidation. Rewriting
//!   passes therefore tell the cache nothing. The snapshot is cloned
//!   only when an entry is refreshed.
//!
//! A [`disabled`](AnalysisCache::disabled) cache is a pass-through: it
//! computes every query, counts a miss, and stores nothing, so the
//! pipeline has one analysis path whether memoization is on or off.
//!
//! The cache is deliberately *not* shared between threads: a sharded
//! compilation gives each worker its own cache (functions are
//! partitioned across workers, so sharing would buy nothing and cost a
//! lock).
//!
//! ```
//! use sxe_ir::parse_function;
//! use sxe_analysis::AnalysisCache;
//!
//! let f = parse_function("func @f(i32) -> i32 {\nb0:\n    ret r0\n}\n")?;
//! let mut cache = AnalysisCache::new();
//! let a = cache.cfg(&f);
//! let b = cache.cfg(&f); // served from the cache
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! assert_eq!((cache.hits(), cache.misses()), (1, 1));
//! # Ok::<(), sxe_ir::ParseError>(())
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use sxe_ir::{Cfg, Function};
use sxe_telemetry::Lane;

use crate::liveness::Liveness;
use crate::udu::UdDu;

/// Aggregated cache effectiveness counters, merged across workers by the
/// driver and exported as the `cache.{hit,miss,invalidation}` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries served from memoized facts.
    pub hits: u64,
    /// Queries that had to compute.
    pub misses: u64,
    /// Stale entries found by the snapshot comparison and dropped.
    pub invalidations: u64,
}

impl CacheStats {
    /// Accumulate another worker's counters.
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
    }
}

/// Memoized facts for one function.
#[derive(Debug, Default)]
struct Entry {
    /// A copy of the function state the facts below describe; `None`
    /// when the entry holds no valid facts.
    snapshot: Option<Function>,
    cfg: Option<Arc<Cfg>>,
    liveness: Option<Arc<Liveness>>,
    udu: Option<Arc<UdDu>>,
}

/// The effectiveness counters and the trace lane, kept apart from the
/// entries so a query can hold its validated entry while it counts.
#[derive(Debug, Default)]
struct Meter {
    stats: CacheStats,
    trace: Lane,
}

impl Meter {
    /// Serve `slot` (computing and memoizing it on a miss), count the
    /// outcome, and trace it as one `what` event starting at `start_ns`.
    fn lookup<T>(
        &mut self,
        what: &'static str,
        start_ns: u64,
        slot: &mut Option<Arc<T>>,
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        let hit = slot.is_some();
        let fact = Arc::clone(slot.get_or_insert_with(|| Arc::new(compute())));
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        if self.trace.is_enabled() {
            self.trace.complete_since(what, "analysis", start_ns, vec![("hit", hit.into())]);
        }
        fact
    }

    /// The CFG of `f` from `e`.
    fn cfg(&mut self, f: &Function, e: &mut Entry, start_ns: u64) -> Arc<Cfg> {
        self.lookup("cache.cfg", start_ns, &mut e.cfg, || Cfg::compute(f))
    }

    /// The UD/DU chains of `f` from `e`, through its CFG.
    fn udu(&mut self, f: &Function, e: &mut Entry, start_ns: u64) -> Arc<UdDu> {
        let cfg = self.cfg(f, e, start_ns);
        let start = self.trace.now_ns();
        self.lookup("cache.udu", start, &mut e.udu, || UdDu::compute(f, &cfg))
    }
}

/// A per-compilation memo of [`Cfg`], [`Liveness`], and [`UdDu`] facts,
/// keyed by function name. See the [module docs](self) for the
/// staleness rule.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    entries: HashMap<String, Entry>,
    meter: Meter,
    /// A pass-through cache: compute every query, memoize nothing.
    disabled: bool,
}

impl AnalysisCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// A pass-through cache: every query computes its fact and counts a
    /// miss, and nothing is stored or snapshotted. What a compile with
    /// the cache turned off runs on, so that it takes the same path.
    #[must_use]
    pub fn disabled() -> AnalysisCache {
        AnalysisCache { disabled: true, ..AnalysisCache::default() }
    }

    /// Number of queries served from memoized facts.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.meter.stats.hits
    }

    /// Number of queries that had to compute.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.meter.stats.misses
    }

    /// Number of stale entries the snapshot comparison dropped.
    #[must_use]
    pub fn invalidations(&self) -> u64 {
        self.meter.stats.invalidations
    }

    /// The three effectiveness counters as one mergeable value.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.meter.stats
    }

    /// Record every subsequent lookup as a micro-span on `lane` (one
    /// complete event per query, tagged `hit`). The cache starts with a
    /// disabled lane, which costs one branch per query.
    pub fn attach_trace(&mut self, lane: Lane) {
        self.meter.trace = lane;
    }

    /// Take the trace lane back (for the driver's deterministic merge),
    /// leaving a disabled one.
    #[must_use]
    pub fn detach_trace(&mut self) -> Lane {
        std::mem::take(&mut self.meter.trace)
    }

    /// Run `query` on the entry for `f`, validated against its snapshot
    /// (facts computed for a different body are dropped first). A
    /// pass-through cache hands it an empty entry that is dropped
    /// afterwards.
    fn with_entry<R>(
        &mut self,
        f: &Function,
        query: impl FnOnce(&mut Entry, &mut Meter) -> R,
    ) -> R {
        if self.disabled {
            return query(&mut Entry::default(), &mut self.meter);
        }
        if !self.entries.contains_key(&f.name) {
            self.entries.insert(f.name.clone(), Entry::default());
        }
        let e = self.entries.get_mut(&f.name).expect("entry inserted above");
        match &e.snapshot {
            Some(snapshot) if snapshot.same_body(f) => {}
            stale => {
                if stale.is_some() {
                    *e = Entry::default();
                    self.meter.stats.invalidations += 1;
                }
                e.snapshot = Some(f.clone());
            }
        }
        query(e, &mut self.meter)
    }

    /// The control-flow graph of `f`, memoized.
    pub fn cfg(&mut self, f: &Function) -> Arc<Cfg> {
        let start = self.meter.trace.now_ns();
        self.with_entry(f, |e, meter| meter.cfg(f, e, start))
    }

    /// Backward liveness of `f`, memoized.
    pub fn liveness(&mut self, f: &Function) -> Arc<Liveness> {
        let start = self.meter.trace.now_ns();
        self.with_entry(f, |e, meter| {
            let cfg = meter.cfg(f, e, start);
            let start = meter.trace.now_ns();
            meter.lookup("cache.liveness", start, &mut e.liveness, || Liveness::compute(f, &cfg))
        })
    }

    /// UD/DU chains of `f`, memoized.
    pub fn udu(&mut self, f: &Function) -> Arc<UdDu> {
        let start = self.meter.trace.now_ns();
        self.with_entry(f, |e, meter| meter.udu(f, e, start))
    }

    /// UD/DU chains of `f` by value, for consumers that maintain the
    /// chains incrementally while rewriting. The memoized copy is moved
    /// out (no clone when this cache holds the only reference) — the
    /// consumer is about to mutate `f`, so keeping a copy would only
    /// serve a guaranteed-stale hit.
    pub fn take_udu(&mut self, f: &Function) -> UdDu {
        let start = self.meter.trace.now_ns();
        let udu = self.with_entry(f, |e, meter| {
            let udu = meter.udu(f, e, start);
            e.udu = None;
            udu
        });
        Arc::try_unwrap(udu).unwrap_or_else(|arc| (*arc).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{parse_function, BlockId, Inst, InstId};

    fn sample() -> Function {
        parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 2\n    r2 = add.i32 r0, r1\n    ret r2\n}\n",
        )
        .unwrap()
    }

    #[test]
    fn clean_requery_hits_with_counters() {
        let f = sample();
        let mut cache = AnalysisCache::new();
        let _ = cache.cfg(&f);
        let _ = cache.liveness(&f);
        let _ = cache.udu(&f);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 2, "liveness and udu reuse the cfg");
        let _ = cache.cfg(&f);
        let _ = cache.liveness(&f);
        let _ = cache.udu(&f);
        assert_eq!(cache.misses(), 3, "no recompute on clean re-query");
        assert_eq!(cache.hits(), 7, "each re-query hits (incl. inner cfg lookups)");
        assert_eq!(cache.invalidations(), 0);
    }

    #[test]
    fn changed_body_misses_unchanged_body_hits() {
        let mut f = sample();
        let mut cache = AnalysisCache::new();
        let before = cache.cfg(&f);
        // An equal body is served the facts, whatever passes ran over it.
        assert!(Arc::ptr_eq(&before, &cache.cfg(&f.clone())), "unchanged body hits");
        assert_eq!((cache.hits(), cache.misses(), cache.invalidations()), (1, 1, 0));

        f.block_mut(BlockId(0)).insts[0] =
            Inst::Const { dst: sxe_ir::Reg(1), value: 3, ty: sxe_ir::Ty::I32 };
        let after = cache.cfg(&f);
        assert!(!Arc::ptr_eq(&before, &after), "changed body recomputes");
        assert_eq!((cache.hits(), cache.misses(), cache.invalidations()), (1, 2, 1));
        assert!(Arc::ptr_eq(&after, &cache.cfg(&f)), "the new body is memoized");
    }

    #[test]
    fn fingerprint_mismatch_is_detected_without_notification() {
        let mut f = sample();
        let mut cache = AnalysisCache::new();
        let before = cache.udu(&f);
        // Rewrite without telling the cache.
        f.block_mut(BlockId(0)).insts.insert(
            0,
            Inst::Const { dst: sxe_ir::Reg(1), value: 7, ty: sxe_ir::Ty::I32 },
        );
        let after = cache.udu(&f);
        assert!(!Arc::ptr_eq(&before, &after), "stale facts never served");
        assert_eq!(cache.invalidations(), 1, "detected mismatch counts");
    }

    /// Query `f`, rewrite it with `rewrite` without telling the cache,
    /// and check that the next query recomputes and counts the detection.
    fn assert_unnotified_rewrite_detected(mut f: Function, rewrite: impl FnOnce(&mut Function)) {
        let mut cache = AnalysisCache::new();
        let before = cache.udu(&f);
        rewrite(&mut f);
        let misses = cache.misses();
        let after = cache.udu(&f);
        assert!(!Arc::ptr_eq(&before, &after), "stale facts never served");
        assert_eq!(cache.misses(), misses + 2, "cfg and chains recomputed");
        assert_eq!(cache.invalidations(), 1, "detected mismatch counts");
    }

    /// `func @f() -> f64` returning one float constant.
    fn float_sample(value: f64) -> Function {
        let mut f =
            parse_function("func @f() -> f64 {\nb0:\n    r0 = constf 1.0\n    ret r0\n}\n").unwrap();
        set_float(&mut f, value);
        f
    }

    fn set_float(f: &mut Function, value: f64) {
        if let Inst::ConstF { value: v, .. } = f.inst_mut(InstId::new(BlockId(0), 0)) {
            *v = value;
        }
    }

    #[test]
    fn unnotified_tombstone_is_detected() {
        assert_unnotified_rewrite_detected(sample(), |f| {
            f.delete_inst(InstId::new(BlockId(0), 0));
        });
    }

    #[test]
    fn unnotified_compact_is_detected() {
        let mut f = sample();
        f.delete_inst(InstId::new(BlockId(0), 0));
        assert_unnotified_rewrite_detected(f, Function::compact);
    }

    #[test]
    fn unnotified_new_reg_is_detected() {
        assert_unnotified_rewrite_detected(sample(), |f| {
            f.new_reg();
        });
    }

    #[test]
    fn unnotified_float_sign_flip_is_detected() {
        assert_unnotified_rewrite_detected(float_sample(0.0), |f| set_float(f, -0.0));
    }

    #[test]
    fn nan_constant_hits_on_requery() {
        let f = float_sample(f64::NAN);
        let mut cache = AnalysisCache::new();
        let before = cache.udu(&f);
        let after = cache.udu(&f);
        assert!(Arc::ptr_eq(&before, &after), "an unchanged NaN body is served");
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert_eq!(cache.invalidations(), 0);
    }

    #[test]
    fn take_udu_moves_the_chains_out() {
        let f = sample();
        let mut cache = AnalysisCache::new();
        let taken = cache.take_udu(&f);
        assert_eq!(taken.num_defs(), UdDu::compute(&f, &Cfg::compute(&f)).num_defs());
        // The next query recomputes (the memoized copy was moved out).
        let misses = cache.misses();
        let _ = cache.udu(&f);
        assert_eq!(cache.misses(), misses + 1);
    }

    #[test]
    fn stats_count_every_invalidation_kind() {
        let original = sample();
        let mut f = original.clone();
        let mut cache = AnalysisCache::new();
        let _ = cache.cfg(&f);
        // A rewrite, then a rollback to the older body: each is one
        // stale entry found by the snapshot comparison.
        f.block_mut(BlockId(0)).insts.insert(
            0,
            Inst::Const { dst: sxe_ir::Reg(1), value: 9, ty: sxe_ir::Ty::I32 },
        );
        let _ = cache.cfg(&f);
        let _ = cache.cfg(&original);
        let _ = cache.cfg(&original);
        let s = cache.stats();
        assert_eq!(s.invalidations, 2);
        assert_eq!((s.hits, s.misses), (1, 3));
        assert_eq!((s.hits, s.misses), (cache.hits(), cache.misses()));
        let mut total = CacheStats::default();
        total.merge(s);
        total.merge(s);
        assert_eq!(total.invalidations, 4);
    }

    #[test]
    fn attached_lane_records_one_event_per_query() {
        let f = sample();
        let mut cache = AnalysisCache::new();
        cache.attach_trace(Lane::new(Some(sxe_telemetry::Clock::new()), "cache:test"));
        let _ = cache.cfg(&f);
        let _ = cache.cfg(&f);
        let _ = cache.liveness(&f); // inner cfg hit + liveness miss
        let events = cache.detach_trace().into_events();
        let tags: Vec<(String, bool)> = events
            .iter()
            .map(|e| {
                let hit = matches!(
                    e.args.iter().find(|(k, _)| *k == "hit"),
                    Some((_, sxe_telemetry::ArgValue::Bool(true)))
                );
                (e.name.to_string(), hit)
            })
            .collect();
        assert_eq!(
            tags,
            [
                ("cache.cfg".to_string(), false),
                ("cache.cfg".to_string(), true),
                ("cache.cfg".to_string(), true),
                ("cache.liveness".to_string(), false),
            ]
        );
        // Detached: further queries record nothing.
        let _ = cache.cfg(&f);
        assert!(cache.detach_trace().is_empty());
    }

    #[test]
    fn functions_are_tracked_independently() {
        let f = sample();
        let mut g = sample();
        g.name = "g".into();
        let mut cache = AnalysisCache::new();
        let _ = cache.cfg(&f);
        let _ = cache.cfg(&g);
        g.delete_inst(InstId::new(BlockId(0), 0));
        let misses = cache.misses();
        let _ = cache.cfg(&g);
        assert_eq!(cache.misses(), misses + 1, "g's changed body recomputes");
        assert_eq!(cache.invalidations(), 1);
        let hits = cache.hits();
        let _ = cache.cfg(&f);
        assert_eq!(cache.hits(), hits + 1, "f unaffected by g's invalidation");
    }

    #[test]
    fn disabled_cache_never_hits_and_stores_nothing() {
        let f = sample();
        let mut cache = AnalysisCache::disabled();
        let a = cache.cfg(&f);
        let b = cache.cfg(&f);
        assert!(!Arc::ptr_eq(&a, &b), "every query computes");
        assert_eq!(Arc::strong_count(&a), 1, "no copy is kept");
        let live = cache.liveness(&f);
        assert_eq!(Arc::strong_count(&live), 1);
        let udu = cache.udu(&f);
        assert_eq!(Arc::strong_count(&udu), 1);
        let taken = cache.take_udu(&f);
        assert_eq!(taken.num_defs(), udu.num_defs());
        // cfg, cfg, cfg + liveness, cfg + udu, cfg + udu.
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 8, invalidations: 0 });
        assert!(cache.entries.is_empty(), "no entry, so no snapshot");
    }
}

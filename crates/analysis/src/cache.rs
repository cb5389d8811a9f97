//! Memoized per-function analysis facts with generation-based
//! invalidation.
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
//! * each rewriting pass bumps the function's *generation*
//!   ([`note_rewrites`](AnalysisCache::note_rewrites) /
//!   [`invalidate`](AnalysisCache::invalidate)), dropping the facts;
//! * as a safety net, every query also validates the entry once against
//!   a snapshot of the body its facts describe — one structural
//!   comparison, exact to the bit of every float constant — so a pass
//!   that forgets to invalidate (or a rollback that restores an older
//!   body) can never be served stale facts: the mismatch is detected
//!   and counted as an invalidation of its own. The snapshot is cloned
//!   only when an entry is refreshed after an invalidation.
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

use sxe_ir::{Cfg, Function, Inst};
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
    /// Times memoized facts were dropped (explicit, rewrite-noted, or
    /// detected by the snapshot comparison).
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
    /// Bumped on every invalidation (explicit or snapshot-detected).
    generation: u64,
    /// A copy of the function state the facts below describe; `None`
    /// when the entry holds no valid facts.
    snapshot: Option<Function>,
    cfg: Option<Arc<Cfg>>,
    liveness: Option<Arc<Liveness>>,
    udu: Option<Arc<UdDu>>,
}

impl Entry {
    fn clear(&mut self) {
        self.generation += 1;
        self.snapshot = None;
        self.cfg = None;
        self.liveness = None;
        self.udu = None;
    }
}

/// Whether `f` is still the body `snapshot` was taken of: same register
/// high-water mark, signature, blocks and instructions, `nop` tombstones
/// included (so [`InstId`](sxe_ir::InstId)-keyed facts stay keyed
/// correctly). The name is the cache key, so it is equal already.
fn same_body(snapshot: &Function, f: &Function) -> bool {
    snapshot.reg_count == f.reg_count
        && snapshot.params == f.params
        && snapshot.ret == f.ret
        && snapshot.blocks.len() == f.blocks.len()
        && snapshot.blocks.iter().zip(&f.blocks).all(|(a, b)| {
            a.insts.len() == b.insts.len()
                && a.insts.iter().zip(&b.insts).all(|(x, y)| same_inst(x, y))
        })
}

/// Instruction equality with float constants compared bit for bit: a
/// derived `==` holds no `NaN` equal to itself and `0.0` equal to `-0.0`.
fn same_inst(a: &Inst, b: &Inst) -> bool {
    match (a, b) {
        (Inst::ConstF { dst: da, value: va }, Inst::ConstF { dst: db, value: vb }) => {
            da == db && va.to_bits() == vb.to_bits()
        }
        _ => a == b,
    }
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
}

/// A per-compilation memo of [`Cfg`], [`Liveness`], and [`UdDu`] facts,
/// keyed by function name. See the [module docs](self) for the
/// invalidation contract.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    entries: HashMap<String, Entry>,
    meter: Meter,
}

impl AnalysisCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
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

    /// Number of times memoized facts were dropped, whatever the trigger.
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

    /// Invalidation count ("generation") of `name`: how many times the
    /// memoized facts for that function have been dropped. Zero for a
    /// function never invalidated (or never seen).
    #[must_use]
    pub fn generation(&self, name: &str) -> u64 {
        self.entries.get(name).map_or(0, |e| e.generation)
    }

    /// Drop all memoized facts for `name` and bump its generation. Call
    /// after rewriting the function (rewriting passes do this via
    /// [`note_rewrites`](Self::note_rewrites)).
    pub fn invalidate(&mut self, name: &str) {
        self.entries.entry(name.to_string()).or_default().clear();
        self.meter.stats.invalidations += 1;
    }

    /// Record the outcome of one pass over `name`: `rewrites > 0` bumps
    /// the generation and drops the facts; a clean pass keeps them.
    pub fn note_rewrites(&mut self, name: &str, rewrites: usize) {
        if rewrites > 0 {
            self.invalidate(name);
        }
    }

    /// Validate (or create) the entry for `f`, dropping facts computed
    /// for a different function state. Each public query calls this once
    /// and does all its lookups on the entry it returns.
    fn validated(&mut self, f: &Function) -> (&mut Entry, &mut Meter) {
        if !self.entries.contains_key(&f.name) {
            self.entries.insert(f.name.clone(), Entry::default());
        }
        let e = self.entries.get_mut(&f.name).expect("entry inserted above");
        match &e.snapshot {
            Some(snapshot) if same_body(snapshot, f) => {}
            stale => {
                if stale.is_some() {
                    // Stale facts nobody told us about (e.g. a rollback
                    // restored an older body): invalidate on detection.
                    e.clear();
                    self.meter.stats.invalidations += 1;
                }
                e.snapshot = Some(f.clone());
            }
        }
        (e, &mut self.meter)
    }

    /// The control-flow graph of `f`, memoized.
    pub fn cfg(&mut self, f: &Function) -> Arc<Cfg> {
        let start = self.meter.trace.now_ns();
        let (e, meter) = self.validated(f);
        meter.lookup("cache.cfg", start, &mut e.cfg, || Cfg::compute(f))
    }

    /// Backward liveness of `f`, memoized.
    pub fn liveness(&mut self, f: &Function) -> Arc<Liveness> {
        let start = self.meter.trace.now_ns();
        let (e, meter) = self.validated(f);
        let cfg = meter.lookup("cache.cfg", start, &mut e.cfg, || Cfg::compute(f));
        let start = meter.trace.now_ns();
        meter.lookup("cache.liveness", start, &mut e.liveness, || Liveness::compute(f, &cfg))
    }

    /// UD/DU chains of `f`, memoized.
    pub fn udu(&mut self, f: &Function) -> Arc<UdDu> {
        self.udu_in(f).0
    }

    /// UD/DU chains of `f` by value, for consumers that maintain the
    /// chains incrementally while rewriting. The memoized copy is moved
    /// out (no clone when this cache holds the only reference) — the
    /// consumer is about to mutate `f`, so keeping a copy would only
    /// serve a guaranteed-stale hit.
    pub fn take_udu(&mut self, f: &Function) -> UdDu {
        let (arc, e) = self.udu_in(f);
        e.udu = None;
        Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone())
    }

    /// The memoized UD/DU chains of `f`, with the entry that holds them.
    fn udu_in(&mut self, f: &Function) -> (Arc<UdDu>, &mut Entry) {
        let start = self.meter.trace.now_ns();
        let (e, meter) = self.validated(f);
        let cfg = meter.lookup("cache.cfg", start, &mut e.cfg, || Cfg::compute(f));
        let start = meter.trace.now_ns();
        let udu = meter.lookup("cache.udu", start, &mut e.udu, || UdDu::compute(f, &cfg));
        (udu, e)
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
        assert_eq!(cache.generation("f"), 0);
    }

    #[test]
    fn note_rewrites_invalidates() {
        let f = sample();
        let mut cache = AnalysisCache::new();
        let before = cache.cfg(&f);
        cache.note_rewrites("f", 0);
        assert!(Arc::ptr_eq(&before, &cache.cfg(&f)), "clean pass keeps facts");
        assert_eq!(cache.generation("f"), 0);

        cache.note_rewrites("f", 3);
        assert_eq!(cache.generation("f"), 1);
        let after = cache.cfg(&f);
        assert!(!Arc::ptr_eq(&before, &after), "rewrite recomputes");
        assert_eq!(cache.misses(), 2);
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
        assert_eq!(cache.generation("f"), 1, "detected mismatch counts");
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
        assert_eq!(cache.generation("f"), 1, "detected mismatch counts");
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
        assert_eq!(cache.generation("f"), 0);
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
        let mut f = sample();
        let mut cache = AnalysisCache::new();
        let _ = cache.cfg(&f);
        cache.note_rewrites("f", 2); // explicit
        f.block_mut(BlockId(0)).insts.insert(
            0,
            Inst::Const { dst: sxe_ir::Reg(1), value: 9, ty: sxe_ir::Ty::I32 },
        );
        cache.invalidate("f"); // drops the snapshot too
        let _ = cache.cfg(&f);
        let s = cache.stats();
        assert_eq!(s.invalidations, 2);
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
        cache.invalidate("g");
        assert_eq!(cache.generation("f"), 0);
        assert_eq!(cache.generation("g"), 1);
        let hits = cache.hits();
        let _ = cache.cfg(&f);
        assert_eq!(cache.hits(), hits + 1, "f unaffected by g's invalidation");
    }
}

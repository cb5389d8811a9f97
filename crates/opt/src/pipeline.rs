//! The general-optimization pipeline (paper Figure 5, step 2).

use sxe_analysis::AnalysisCache;
use sxe_ir::{Function, Module, Target};

/// Which general optimizations to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralOpts {
    /// Expand small leaf callees before the scalar passes (module-level;
    /// ignored by [`run_function`]).
    pub inline: Option<crate::inline::InlineOpts>,
    /// Block-local copy propagation.
    pub copyprop: bool,
    /// Constant and branch folding.
    pub constfold: bool,
    /// Algebraic simplification.
    pub simplify: bool,
    /// Local common-subexpression elimination.
    pub cse: bool,
    /// Loop-invariant code motion (the step-2 PRE effect on extensions).
    pub licm: bool,
    /// Dead-code elimination.
    pub dce: bool,
    /// Maximum pipeline repetitions.
    pub max_iters: usize,
}

impl Default for GeneralOpts {
    fn default() -> GeneralOpts {
        GeneralOpts {
            inline: Some(crate::inline::InlineOpts::default()),
            copyprop: true,
            constfold: true,
            simplify: true,
            cse: true,
            licm: true,
            dce: true,
            max_iters: 3,
        }
    }
}

impl GeneralOpts {
    /// All optimizations disabled (identity pipeline).
    #[must_use]
    pub fn none() -> GeneralOpts {
        GeneralOpts {
            inline: None,
            copyprop: false,
            constfold: false,
            simplify: false,
            cse: false,
            licm: false,
            dce: false,
            max_iters: 0,
        }
    }

    /// The enabled scalar passes, in pipeline order. This is the single
    /// source of truth for what one fixpoint round runs — both
    /// [`run_function`] and external drivers (the `sxe-jit` containment
    /// harness) iterate this list.
    #[must_use]
    pub fn passes(&self) -> Vec<Pass> {
        Pass::ALL.iter().copied().filter(|p| p.enabled(self)).collect()
    }
}

/// One scalar optimization pass, nameable and runnable on its own so a
/// driver can wrap each in a containment boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Block-local copy propagation.
    Copyprop,
    /// Constant and branch folding.
    Constfold,
    /// Algebraic simplification.
    Simplify,
    /// Local common-subexpression elimination.
    Cse,
    /// Loop-invariant code motion.
    Licm,
    /// Dead-code elimination.
    Dce,
}

impl Pass {
    /// All passes, in the pipeline order of one fixpoint round.
    pub const ALL: [Pass; 6] =
        [Pass::Copyprop, Pass::Constfold, Pass::Simplify, Pass::Cse, Pass::Licm, Pass::Dce];

    /// Stable human-readable name (used in compile reports and fault
    /// plans).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Pass::Copyprop => "copyprop",
            Pass::Constfold => "constfold",
            Pass::Simplify => "simplify",
            Pass::Cse => "cse",
            Pass::Licm => "licm",
            Pass::Dce => "dce",
        }
    }

    /// [`run_cached`](Self::run_cached) on a pass-through cache. Kept
    /// for perfbench's mirror (ROADMAP item 1); add no callers.
    pub fn run(self, f: &mut Function, target: Target) -> usize {
        self.run_cached(f, &mut AnalysisCache::disabled(), target)
    }

    /// Run this pass once on `f` for `target`, returning the number of
    /// rewrites. Constant folding and simplification consult the target's
    /// machine model (MIPS64 canonicalizes narrow ALU results); the other
    /// passes are target-independent. LICM and DCE draw their analyses
    /// from `cache`.
    pub fn run_cached(self, f: &mut Function, cache: &mut AnalysisCache, target: Target) -> usize {
        match self {
            Pass::Copyprop => crate::copyprop::run(f),
            Pass::Constfold => crate::constfold::run(f, target),
            Pass::Simplify => crate::simplify::run(f, target),
            Pass::Cse => crate::cse::run(f),
            Pass::Licm => crate::licm::run(f, cache),
            Pass::Dce => crate::dce::run(f, cache),
        }
    }

    fn enabled(self, opts: &GeneralOpts) -> bool {
        match self {
            Pass::Copyprop => opts.copyprop,
            Pass::Constfold => opts.constfold,
            Pass::Simplify => opts.simplify,
            Pass::Cse => opts.cse,
            Pass::Licm => opts.licm,
            Pass::Dce => opts.dce,
        }
    }

    /// The metrics-registry counter this pass's rewrites accumulate
    /// under (`opt.rewrites.<name>` — see `sxe-telemetry`'s label
    /// scheme).
    #[must_use]
    pub fn metric_key(self) -> &'static str {
        match self {
            Pass::Copyprop => "opt.rewrites.copyprop",
            Pass::Constfold => "opt.rewrites.constfold",
            Pass::Simplify => "opt.rewrites.simplify",
            Pass::Cse => "opt.rewrites.cse",
            Pass::Licm => "opt.rewrites.licm",
            Pass::Dce => "opt.rewrites.dce",
        }
    }

    /// Record `n` rewrites from this pass into `stats`.
    pub fn record(self, stats: &mut OptStats, n: usize) {
        match self {
            Pass::Copyprop => stats.copyprop += n,
            Pass::Constfold => stats.constfold += n,
            Pass::Simplify => stats.simplify += n,
            Pass::Cse => stats.cse += n,
            Pass::Licm => stats.licm += n,
            Pass::Dce => stats.dce += n,
        }
    }
}

/// Counts of rewrites performed per pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Call sites inlined.
    pub inline: usize,
    /// Operands rewritten by copy propagation.
    pub copyprop: usize,
    /// Instructions folded to constants / branches folded.
    pub constfold: usize,
    /// Instructions simplified algebraically.
    pub simplify: usize,
    /// Instructions replaced by copies (CSE).
    pub cse: usize,
    /// Instructions hoisted out of loops.
    pub licm: usize,
    /// Instructions deleted as dead.
    pub dce: usize,
}

impl OptStats {
    /// Total rewrites across all passes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.inline
            + self.copyprop
            + self.constfold
            + self.simplify
            + self.cse
            + self.licm
            + self.dce
    }

    /// Accumulate another round's stats.
    pub fn merge(&mut self, o: OptStats) {
        self.inline += o.inline;
        self.copyprop += o.copyprop;
        self.constfold += o.constfold;
        self.simplify += o.simplify;
        self.cse += o.cse;
        self.licm += o.licm;
        self.dce += o.dce;
    }

    /// Add these counts to a telemetry registry under the
    /// `opt.rewrites.*` labels ([`Pass::metric_key`], plus
    /// `opt.rewrites.inline` for the module-level inliner).
    pub fn record_into(&self, registry: &mut sxe_telemetry::Registry) {
        registry.add("opt.rewrites.inline", self.inline as u64);
        for p in Pass::ALL {
            let n = match p {
                Pass::Copyprop => self.copyprop,
                Pass::Constfold => self.constfold,
                Pass::Simplify => self.simplify,
                Pass::Cse => self.cse,
                Pass::Licm => self.licm,
                Pass::Dce => self.dce,
            };
            registry.add(p.metric_key(), n as u64);
        }
    }
}

/// Optimize one function for `target`.
pub fn run_function(f: &mut Function, opts: &GeneralOpts, target: Target) -> OptStats {
    let passes = opts.passes();
    let mut stats = OptStats::default();
    let mut cache = AnalysisCache::new();
    for _ in 0..opts.max_iters {
        let mut round = OptStats::default();
        for &p in &passes {
            p.record(&mut round, p.run_cached(f, &mut cache, target));
        }
        let progress = round.total();
        stats.merge(round);
        if progress == 0 {
            break;
        }
    }
    f.compact();
    stats
}

/// Optimize every function of a module for `target` (inlining first,
/// when enabled).
pub fn run_module(m: &mut Module, opts: &GeneralOpts, target: Target) -> OptStats {
    let mut stats = OptStats::default();
    if let Some(inline_opts) = &opts.inline {
        stats.inline = crate::inline::run_module(m, inline_opts);
    }
    for f in &mut m.functions {
        stats.merge(run_function(f, opts, target));
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{parse_function, verify_function};

    #[test]
    fn pipeline_composes() {
        // copy -> const -> fold -> dead: everything collapses.
        let mut f = parse_function(
            "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 21\n    r2 = copy.i32 r1\n    r3 = add.i32 r2, r2\n    r4 = extend.32 r3\n    ret r4\n}\n",
        )
        .unwrap();
        let stats = run_function(&mut f, &GeneralOpts::default(), Target::default());
        assert!(stats.total() > 0);
        verify_function(&f).unwrap();
        assert_eq!(f.count_extends(None), 0, "extend of a constant folds away");
        // Result is just `const 42; ret`.
        assert!(f.inst_count() <= 2);
    }

    #[test]
    fn none_is_identity() {
        let src = "func @f(i32) -> i32 {\n\
             b0:\n    r1 = const.i32 21\n    r2 = add.i32 r1, r1\n    ret r2\n}\n";
        let mut f = parse_function(src).unwrap();
        let g = f.clone();
        let stats = run_function(&mut f, &GeneralOpts::none(), Target::default());
        assert_eq!(stats.total(), 0);
        assert_eq!(f, g);
    }

    #[test]
    fn stats_export_reconciles_with_totals() {
        let stats = OptStats {
            inline: 1,
            copyprop: 2,
            constfold: 3,
            simplify: 4,
            cse: 5,
            licm: 6,
            dce: 7,
        };
        let mut registry = sxe_telemetry::Registry::new();
        stats.record_into(&mut registry);
        let exported: u64 = registry
            .counters()
            .filter(|(k, _)| k.starts_with("opt.rewrites."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(exported, stats.total() as u64);
        assert_eq!(registry.counter(Pass::Licm.metric_key()), 6);
        assert_eq!(registry.counter("opt.rewrites.inline"), 1);
    }

    #[test]
    fn loop_invariant_extend_moves_out() {
        let mut f = parse_function(
            "func @f(i32, i64) -> i64 {\n\
             b0:\n    br b1\n\
             b1:\n    r2 = extend.32 r0\n    r1 = add.i64 r1, r2\n    r3 = const.i64 1\n    r1 = sub.i64 r1, r3\n    condbr gt.i64 r1, r3, b1, b2\n\
             b2:\n    ret r1\n}\n",
        )
        .unwrap();
        let stats = run_function(&mut f, &GeneralOpts::default(), Target::default());
        assert!(stats.licm >= 1);
        verify_function(&f).unwrap();
    }
}

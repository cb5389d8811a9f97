//! The compile pipeline of `Compiler::try_compile`, re-driven stage by
//! stage through the crates' public functions so each stage gets its own
//! span. It mirrors a sequential (`threads = 1`), unbudgeted,
//! fault-free, unprofiled compile: step 1 conversion, inlining, the
//! per-function step-2 fixpoint over `GeneralOpts::passes()` with
//! `Pass::run_cached`, and the step-3 stages on a fresh analysis cache
//! per function. What it leaves out is the containment harness:
//! snapshots, per-boundary verification and the compile report. The
//! traced run checks that its output is byte-identical to
//! `try_compile`'s on every input.

use sxe_analysis::AnalysisCache;
use sxe_core::{GenStrategy, SxeStats};
use sxe_ir::{verify_module, Budget, Module};
use sxe_jit::Compiler;
use sxe_opt::Pass;

use crate::trace::Tracer;

/// What the mirrored pipeline produced, with the counts the per-layer
/// table reports.
#[derive(Debug, Clone)]
pub struct Mirrored {
    /// The compiled module.
    pub module: Module,
    /// Step-3 statistics (`generated` from step 1).
    pub stats: SxeStats,
    /// Rewrites by the step-2 passes, inlining included.
    pub rewrites: usize,
    /// Fixpoint rounds run, summed over functions.
    pub rounds: usize,
    /// Live instructions after step 2.
    pub insts_after_opt: usize,
}

fn span_name(p: Pass) -> &'static str {
    match p {
        Pass::Copyprop => "opt.copyprop",
        Pass::Constfold => "opt.constfold",
        Pass::Simplify => "opt.simplify",
        Pass::Cse => "opt.cse",
        Pass::Licm => "opt.licm",
        Pass::Dce => "opt.dce",
    }
}

/// Compile `source` with `compiler`'s configuration, one span per stage.
///
/// # Errors
/// A verification failure of the input or the output.
pub fn compile(compiler: &Compiler, source: &Module, t: &mut Tracer) -> Result<Mirrored, String> {
    let verify = |t: &mut Tracer, m: &Module| {
        t.span("ir.verify", || verify_module(m))
            .map_err(|e| e.to_string())
    };
    if compiler.verify {
        verify(t, source)?;
    }
    let target = compiler.sxe.target;
    let mut module = source.clone();

    // Step 1.
    let strategy = if compiler.sxe.variant.gen_use() {
        GenStrategy::BeforeUse
    } else {
        GenStrategy::AfterDef
    };
    let generated = t.span("core.convert", || {
        sxe_core::convert_module(&mut module, target, strategy)
    });

    // Step 2: inlining module-wide, then the scalar fixpoint per function.
    let mut rewrites = 0;
    if let Some(inline) = compiler.general.inline {
        rewrites += t.span("opt.inline", || {
            sxe_opt::inline::run_module(&mut module, &inline)
        });
    }
    let passes = compiler.general.passes();
    let mut rounds = 0;
    for f in &mut module.functions {
        let mut cache = AnalysisCache::new();
        for _ in 0..compiler.general.max_iters {
            rounds += 1;
            let mut progress = 0;
            for &p in &passes {
                progress += t.span(span_name(p), || {
                    if compiler.cache {
                        p.run_cached(f, &mut cache, target)
                    } else {
                        p.run(f, target)
                    }
                });
            }
            rewrites += progress;
            if progress == 0 {
                break;
            }
        }
        f.compact();
    }
    let insts_after_opt = module.inst_count();

    // Step 3, per function.
    let config = &compiler.sxe;
    let mut stats = SxeStats {
        generated,
        ..SxeStats::default()
    };
    for f in &mut module.functions {
        if config.variant.first_algorithm() {
            stats.merge(t.span("core.step3_first", || sxe_core::step3_first(f, config)));
            continue;
        }
        if !config.variant.uses_udu() {
            continue;
        }
        let mut cache = AnalysisCache::new();
        let ins = t.span("core.step3_insert", || {
            if compiler.cache {
                sxe_core::step3_insertion_cached(f, config, &mut cache)
            } else {
                sxe_core::step3_insertion(f, config)
            }
        });
        stats.dummies += ins.dummies;
        stats.inserted += ins.inserted;
        let order = t.span("core.step3_order", || {
            if compiler.cache {
                sxe_core::step3_order_cached(f, config, None, &mut cache)
            } else {
                sxe_core::step3_order(f, config, None)
            }
        });
        // Chain creation on its own: the elimination below then takes
        // the memoized chains instead of building them.
        let budget = Budget::unlimited();
        let out = if compiler.cache {
            t.span("analysis.udu", || drop(cache.udu(f)));
            t.span("core.step3_eliminate", || {
                sxe_core::step3_eliminate_cached(f, config, &order, &budget, &mut cache)
            })
        } else {
            t.span("core.step3_eliminate", || {
                sxe_core::step3_eliminate(f, config, &order, &budget)
            })
        };
        stats.examined += out.examined;
        stats.eliminated += out.eliminated;
        stats.eliminated_via_array += out.via_array;
    }

    if compiler.verify {
        verify(t, &module)?;
    }
    Ok(Mirrored {
        module,
        stats,
        rewrites,
        rounds,
        insts_after_opt,
    })
}

//! # sxe-jit — the Figure 5 compilation pipeline
//!
//! Drives the three steps of the paper's flow diagram over a module
//! written in 32-bit form:
//!
//! 1. conversion for a 64-bit architecture ([`sxe_core::convert`]);
//! 2. general optimizations ([`sxe_opt`]);
//! 3. elimination and movement of sign extensions (the staged
//!    [`sxe_core::step3_insertion`] / [`sxe_core::step3_order_cached`] /
//!    [`sxe_core::step3_eliminate_cached`], each its own containment
//!    boundary).
//!
//! Phase timing (the paper's Table 3 breakdown) comes from the
//! [`Telemetry`] spans the pipeline records when a sink is attached.
//! The compiler supports the paper's combined interpreter + dynamic
//! compiler mode: [`Compiler::try_compile_profiled`] interprets the
//! pre-step-3 code once to collect block frequencies, then feeds them to
//! order determination.
//!
//! Two throughput levers ride on top of the pipeline:
//!
//! * **sharded compilation** — [`Compiler::threads`] splits the per-
//!   function work of steps 2 and 3 (and whole modules in
//!   [`Compiler::try_compile_batch`]) across a fixed-size worker pool, with a
//!   merge in function order so the output is byte-identical to a
//!   sequential run;
//! * **memoized analyses** — [`Compiler::cache`] keeps each worker's
//!   [`sxe_analysis::AnalysisCache`] of CFG / liveness / UD/DU facts warm
//!   across pipeline stages, dropped whenever the body no longer matches
//!   the snapshot they were computed from; with it off, the same stages
//!   run on a pass-through cache.
//!
//! Construction goes through [`Compiler::builder`]; every entry point
//! ([`Compiler::try_compile`] and its profiled and batch forms) returns
//! [`CompileError`] instead of panicking on bad input.
//!
//! ```
//! use sxe_ir::parse_module;
//! use sxe_jit::prelude::*;
//!
//! // i = x & 0xff is provably sign-extended: the generated extension
//! // before the i2d conversion is eliminated.
//! let source = parse_module(
//!     "func @main(i32) -> f64 {\nb0:\n    r1 = const.i32 255\n    r2 = and.i32 r0, r1\n    r3 = i32tof64.f64 r2\n    ret r3\n}\n",
//! )?;
//! let compiler = Compiler::builder(Variant::All).threads(2).build();
//! let compiled = compiler.try_compile(&source).expect("valid input");
//! assert_eq!(compiled.module.count_extends(None), 0);
//! # Ok::<(), sxe_ir::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifact;
pub mod harness;
pub mod report;
pub mod shard;

use std::fmt;
use std::time::Duration;

use sxe_analysis::{AnalysisCache, CacheStats};
use sxe_core::{GenStrategy, SxeConfig, SxeStats, Variant};
use sxe_ir::{verify_function, verify_module, Budget, Function, Module, Target, VerifyError};
use sxe_opt::{GeneralOpts, OptStats};
use sxe_telemetry::{ArgValue, Event, Lane};
use sxe_vm::Vm;

pub use artifact::Backend;
pub use harness::FaultPlan;
pub use report::{CompileReport, InjectedFault, PassRecord, PassStatus, RollbackCause};
pub use sxe_telemetry::Telemetry;

use harness::{corrupt_function, corrupt_module, Harness, SharedState};
use shard::{par_map, par_map_mut};

/// One-stop imports for driving the compiler.
///
/// ```
/// use sxe_jit::prelude::*;
/// let compiler = Compiler::builder(Variant::All).build();
/// ```
pub mod prelude {
    pub use crate::artifact::{artifact_key, config_key, module_key, Backend};
    pub use crate::{
        CompileError, CompileReport, Compiled, Compiler, CompilerBuilder, FaultPlan, PassRecord,
        PassStatus, Telemetry,
    };
    pub use sxe_core::{SxeConfig, SxeStats, Variant};
    pub use sxe_ir::Target;
    pub use sxe_opt::{GeneralOpts, OptStats};
}

/// Why a compilation was refused or could not produce a verified module.
///
/// Non-exhaustive: downstream matches need a wildcard arm so future
/// refusal reasons are not a breaking change.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The input module failed verification (or — an internal bug — the
    /// compiled output did).
    Verify(VerifyError),
    /// The requested profiling entry function does not exist.
    MissingEntry(String),
    /// The compile budget was already exhausted before any pass ran;
    /// nothing would be compiled, so the input is refused outright
    /// instead of returning it untouched.
    BudgetExhaustedBeforeStart,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Verify(e) => write!(f, "verification failed: {e}"),
            CompileError::MissingEntry(name) => {
                write!(f, "profiling entry function @{name} does not exist")
            }
            CompileError::BudgetExhaustedBeforeStart => {
                f.write_str("compile budget exhausted before compilation started")
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

/// The compilation pipeline configuration.
///
/// Build one with [`Compiler::builder`] (or [`Compiler::for_variant`] for
/// the defaults); the fields remain public for direct tweaking.
#[derive(Debug, Clone)]
pub struct Compiler {
    /// Step 3 configuration (variant, target, widths, array bound).
    pub sxe: SxeConfig,
    /// Step 2 configuration.
    pub general: GeneralOpts,
    /// Verify the module before and after compilation (cheap; on by
    /// default). Independent of the per-pass verification gates, which
    /// run on every boundary that changed its body.
    pub verify: bool,
    /// Compile budget in fuel units (one unit per pass boundary, one per
    /// extension examined by elimination). `None` = unlimited.
    pub fuel: Option<u64>,
    /// Wall-clock compile budget. `None` = unlimited.
    pub time_limit: Option<Duration>,
    /// Deterministic fault to inject (chaos testing). `None` in
    /// production.
    pub fault_plan: Option<FaultPlan>,
    /// Worker threads for sharded compilation: functions of a module in
    /// [`try_compile`](Self::try_compile), whole modules in
    /// [`try_compile_batch`](Self::try_compile_batch). `1` (the default)
    /// is fully sequential — no thread is spawned. With an unlimited
    /// budget and no fault plan the output is byte-identical across
    /// thread counts.
    pub threads: usize,
    /// Memoize per-function analyses (CFG, liveness, UD/DU chains) across
    /// pipeline stages, dropped when the body no longer matches their
    /// snapshot. On by default; `false` runs the same stages on a
    /// pass-through [`AnalysisCache::disabled`]. The output is identical
    /// either way, so `false` is only useful for measuring the cache's
    /// effect.
    pub cache: bool,
    /// Telemetry sink: spans around every containment boundary plus the
    /// pipeline's metrics, exported via [`Telemetry::chrome_trace`] /
    /// [`Telemetry::metrics_json`]. Disabled by default (a null sink
    /// whose per-boundary cost is one branch); the compiled output is
    /// byte-identical either way.
    pub telemetry: Telemetry,
}

impl Compiler {
    /// A compiler running the full paper pipeline for `variant` on IA64.
    #[must_use]
    pub fn for_variant(variant: Variant) -> Compiler {
        Compiler {
            sxe: SxeConfig::for_variant(variant),
            general: GeneralOpts::default(),
            verify: true,
            fuel: None,
            time_limit: None,
            fault_plan: None,
            threads: 1,
            cache: true,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Start building a compiler for `variant`.
    #[must_use]
    pub fn builder(variant: Variant) -> CompilerBuilder {
        CompilerBuilder { compiler: Compiler::for_variant(variant) }
    }

    fn budget(&self) -> Budget {
        match (self.fuel, self.time_limit) {
            (None, None) => Budget::unlimited(),
            (fuel, time) => Budget::new(fuel.unwrap_or(u64::MAX), time),
        }
    }

    /// Compile `source` (32-bit-form IR).
    ///
    /// # Errors
    /// [`CompileError::Verify`] when the input does not verify;
    /// [`CompileError::BudgetExhaustedBeforeStart`] when the budget is
    /// empty before the first pass.
    pub fn try_compile(&self, source: &Module) -> Result<Compiled, CompileError> {
        self.compile_inner(source, None)
    }

    /// Compile with interpreter-collected profile guidance: the module is
    /// converted and generally optimized, executed once in the VM with
    /// block profiling (the paper's interpreter stage), and then step 3
    /// runs with the measured frequencies.
    ///
    /// The profiling run executes `entry(args)`; a trapped profiling run
    /// simply yields no profile.
    ///
    /// # Errors
    /// Everything [`try_compile`](Self::try_compile) reports, plus
    /// [`CompileError::MissingEntry`] when `entry` is not in the module.
    pub fn try_compile_profiled(
        &self,
        source: &Module,
        entry: &str,
        args: &[i64],
    ) -> Result<Compiled, CompileError> {
        if source.function_by_name(entry).is_none() {
            return Err(CompileError::MissingEntry(entry.to_string()));
        }
        self.compile_inner(source, Some((entry, args)))
    }

    /// Compile a batch of independent modules, sharding whole modules
    /// across the worker pool (each individual compile runs sequentially
    /// so the pool is not oversubscribed). Results come back in input
    /// order; the first error aborts the batch.
    ///
    /// # Errors
    /// The first [`CompileError`] any module produces.
    pub fn try_compile_batch(&self, sources: &[Module]) -> Result<Vec<Compiled>, CompileError> {
        let mut inner = self.clone();
        inner.threads = 1;
        par_map(sources, self.threads, |_, m| inner.try_compile(m))
            .into_iter()
            .collect()
    }

    fn compile_inner(
        &self,
        source: &Module,
        profile_run: Option<(&str, &[i64])>,
    ) -> Result<Compiled, CompileError> {
        if self.verify {
            verify_module(source).map_err(CompileError::Verify)?;
        }
        let tel = &self.telemetry;
        let shared = SharedState::new(self.fault_plan, self.budget(), tel.clock());
        if shared.budget.exhausted() {
            return Err(CompileError::BudgetExhaustedBeforeStart);
        }

        let mut module = source.clone();
        let mut report = CompileReport {
            seed: self.fault_plan.map(|p| p.seed),
            ..CompileReport::default()
        };
        let mut opt_stats = OptStats::default();
        let mut cache_stats = CacheStats::default();

        // Driver-scope trace: one `compile` span enclosing everything,
        // plus one per pipeline section. Worker lanes are accumulated
        // here and submitted in one deterministic batch at the end —
        // function order, mirroring the report merge, so the trace is
        // identical at any thread count (modulo thread ids).
        let mut driver = tel.lane("compile");
        let compile_span = driver.begin("compile", "jit");
        let mut events: Vec<Event> = Vec::new();

        // Sequential prologue: the two module-scope boundaries. Ordinals
        // 0 (convert) and, when inlining, 1 — exactly the sequential
        // numbering, so chaos seeds target the same boundaries at any
        // thread count.
        let mut prologue = Harness::new(&shared, "module");

        // Step 1: conversion for a 64-bit architecture.
        let strategy = if self.sxe.variant.gen_use() {
            GenStrategy::BeforeUse
        } else {
            GenStrategy::AfterDef
        };
        let step1_span = driver.begin("step1-convert", "jit");
        let target = self.sxe.target;
        let generated = prologue.run_boundary(
            "convert",
            None,
            &mut module,
            verify_module,
            corrupt_module,
            |m, _| sxe_core::convert_module(m, target, strategy),
        );
        // A rolled-back conversion leaves the (verified) 32-bit module;
        // count its extensions so the stats stay meaningful.
        let generated = generated.unwrap_or_else(|| module.count_extends(None));
        driver.end_with(step1_span, vec![("generated", ArgValue::U64(generated as u64))]);

        // Step 2: general optimizations — inlining module-wide, then the
        // scalar fixpoint per function, each function sharded onto the
        // worker pool with its own harness and analysis cache.
        let step2_span = driver.begin("step2-general-opts", "jit");
        if let Some(inline_opts) = self.general.inline {
            let inlined = prologue.run_boundary(
                "inline",
                None,
                &mut module,
                verify_module,
                corrupt_module,
                |m, _| sxe_opt::inline::run_module(m, &inline_opts),
            );
            opt_stats.inline = inlined.unwrap_or(0);
        }
        let (prologue_report, prologue_events) = prologue.finish();
        report.absorb(prologue_report);
        events.extend(prologue_events);

        let general = &self.general;
        let memoize = self.cache;
        let new_cache =
            || if memoize { AnalysisCache::new() } else { AnalysisCache::disabled() };
        let step2_target = self.sxe.target;
        let step2 = par_map_mut(&mut module.functions, self.threads, |_, f| {
            step2_function(f, general, &shared, new_cache(), step2_target)
        });
        for out in step2 {
            report.absorb(out.report);
            opt_stats.merge(out.opt);
            cache_stats.merge(out.cache);
            events.extend(out.events);
        }
        driver.end(step2_span);

        // Optional interpreter stage: profile the pre-step-3 code.
        let profile_span =
            profile_run.is_some().then(|| driver.begin("profile-interpret", "vm"));
        let mut use_profile = self.sxe.use_profile;
        let profile: Option<sxe_core::ModuleProfile> = profile_run.and_then(|(entry, args)| {
            let mut vm = Vm::builder(&module).target(self.sxe.target).profile(true).build();
            let ok = vm.run(entry, args).is_ok();
            ok.then(|| {
                (0..module.functions.len())
                    .map(|i| {
                        vm.profile_counts(sxe_ir::FuncId(i as u32))
                            .expect("profiling enabled")
                            .to_vec()
                    })
                    .collect()
            })
        });
        if profile.is_some() {
            use_profile = true;
        }
        if let Some(span) = profile_span {
            driver.end_with(span, vec![("profiled", ArgValue::Bool(profile.is_some()))]);
        }

        // Step 3: elimination and movement of sign extensions, sharded
        // per function; each stage (insertion / ordering / elimination)
        // gets its own boundary so a fault in one costs only that stage.
        let step3_span = driver.begin("step3-sxe", "jit");
        let mut config = self.sxe.clone();
        config.use_profile = use_profile;
        let mut stats = SxeStats::default();
        let profile = profile.as_ref();
        let config = &config;
        let step3 = par_map_mut(&mut module.functions, self.threads, |i, f| {
            let p = profile.and_then(|p| p.get(i)).map(Vec::as_slice);
            step3_function(f, config, p, &shared, new_cache())
        });
        for out in step3 {
            report.absorb(out.report);
            stats.merge(out.stats);
            cache_stats.merge(out.cache);
            events.extend(out.events);
        }
        driver.end(step3_span);

        if self.verify {
            verify_module(&module).map_err(CompileError::Verify)?;
        }
        stats.generated = generated;

        driver.end_with(
            compile_span,
            vec![
                ("functions", ArgValue::U64(module.functions.len() as u64)),
                ("incidents", ArgValue::U64(report.incidents() as u64)),
            ],
        );
        if tel.is_enabled() {
            // Driver lane first, then the per-function lanes in the
            // fixed order accumulated above.
            let mut all = driver.into_events();
            all.extend(events);
            tel.submit(all);
            tel.metrics(|m| record_compile_metrics(m, &stats, &opt_stats, &report, cache_stats));
        }

        Ok(Compiled { module, stats, opt_stats, report })
    }
}

/// Fold one compilation's already-aggregated statistics into the metrics
/// registry. Emitting centrally from the same values [`Compiled`]
/// carries is what guarantees `--metrics` totals reconcile exactly with
/// [`CompileReport`] / [`OptStats`] / [`SxeStats`].
fn record_compile_metrics(
    m: &mut sxe_telemetry::Registry,
    stats: &SxeStats,
    opt_stats: &OptStats,
    report: &CompileReport,
    cache: CacheStats,
) {
    m.add("compile.modules", 1);
    stats.record_into(m);
    opt_stats.record_into(m);
    m.add("cache.hit", cache.hits);
    m.add("cache.miss", cache.misses);
    m.add("cache.invalidation", cache.invalidations);
    m.add("compile.boundaries", report.boundaries() as u64);
    m.add("compile.gates_skipped", report.gates_skipped as u64);
    m.add("compile.rollbacks", report.rollbacks().count() as u64);
    m.add("compile.incidents", report.incidents() as u64);
    // The fuel model: one unit per boundary whose body actually ran
    // (skipped and budget-stopped boundaries spend nothing), one per
    // extension site the elimination examined.
    let ran = report
        .records
        .iter()
        .filter(|r| matches!(r.status, PassStatus::Ok | PassStatus::RolledBack(_)))
        .count();
    m.add("compile.fuel_spent", (ran + stats.examined) as u64);
    for r in &report.records {
        m.observe(
            format!("pass.{}.wall_ns", r.pass),
            u64::try_from(r.duration.as_nanos()).unwrap_or(u64::MAX),
        );
    }
}

/// Builder-style construction of a [`Compiler`].
///
/// ```
/// use sxe_jit::prelude::*;
/// let compiler = Compiler::builder(Variant::All)
///     .target(Target::Ppc64)
///     .budget(Some(10_000), None)
///     .threads(4)
///     .build();
/// assert_eq!(compiler.threads, 4);
/// ```
#[derive(Debug, Clone)]
pub struct CompilerBuilder {
    compiler: Compiler,
}

impl CompilerBuilder {
    /// Override the target architecture.
    #[must_use]
    pub fn target(mut self, target: Target) -> CompilerBuilder {
        self.compiler.sxe.target = target;
        self
    }

    /// Replace the step-2 configuration.
    #[must_use]
    pub fn general(mut self, general: GeneralOpts) -> CompilerBuilder {
        self.compiler.general = general;
        self
    }

    /// Toggle whole-module verification before and after compilation.
    #[must_use]
    pub fn verify(mut self, verify: bool) -> CompilerBuilder {
        self.compiler.verify = verify;
        self
    }

    /// Bound the work spent per compilation (fuel units, wall clock).
    #[must_use]
    pub fn budget(mut self, fuel: Option<u64>, time_limit: Option<Duration>) -> CompilerBuilder {
        self.compiler.fuel = fuel;
        self.compiler.time_limit = time_limit;
        self
    }

    /// Inject a deterministic fault (chaos testing).
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> CompilerBuilder {
        self.compiler.fault_plan = Some(plan);
        self
    }

    /// Set the worker-pool size for sharded compilation.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> CompilerBuilder {
        self.compiler.threads = threads.max(1);
        self
    }

    /// Memoize analyses in each worker's cache (`true`, the default) or
    /// run on a pass-through one (`false`).
    #[must_use]
    pub fn cache(mut self, cache: bool) -> CompilerBuilder {
        self.compiler.cache = cache;
        self
    }

    /// Attach a telemetry sink. Every compilation through the built
    /// compiler (including batch members, which share the handle)
    /// records into the sink's one session.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> CompilerBuilder {
        self.compiler.telemetry = telemetry;
        self
    }

    /// Finish building.
    #[must_use]
    pub fn build(self) -> Compiler {
        self.compiler
    }
}

/// Per-function results of the step-2 scalar fixpoint.
struct Step2Outcome {
    report: CompileReport,
    opt: OptStats,
    cache: CacheStats,
    events: Vec<Event>,
}

fn step2_function(
    f: &mut Function,
    general: &GeneralOpts,
    shared: &SharedState,
    mut cache: AnalysisCache,
    target: Target,
) -> Step2Outcome {
    let fname = f.name.clone();
    let mut harness = Harness::new(shared, &format!("step2:@{fname}"));
    if shared.clock.is_some() {
        cache.attach_trace(Lane::new(shared.clock, &format!("cache.step2:@{fname}")));
    }
    let passes = general.passes();
    let mut opt = OptStats::default();
    for _ in 0..general.max_iters {
        let mut round = OptStats::default();
        for &p in &passes {
            let n = harness.run_boundary(
                p.name(),
                Some(&fname),
                f,
                verify_function,
                corrupt_function,
                |f, _| p.run_cached(f, &mut cache, target),
            );
            p.record(&mut round, n.unwrap_or(0));
        }
        let progress = round.total();
        opt.merge(round);
        if progress == 0 {
            break;
        }
    }
    f.compact();
    let cache_stats = cache.stats();
    let (report, mut events) = harness.finish();
    events.extend(cache.detach_trace().into_events());
    Step2Outcome { report, opt, cache: cache_stats, events }
}

/// Per-function results of step 3.
struct Step3Outcome {
    report: CompileReport,
    stats: SxeStats,
    cache: CacheStats,
    events: Vec<Event>,
}

impl Step3Outcome {
    /// Package one function's results, draining the harness and cache.
    fn collect(harness: Harness<'_>, cache: &mut AnalysisCache, stats: SxeStats) -> Step3Outcome {
        let cache_stats = cache.stats();
        let (report, mut events) = harness.finish();
        events.extend(cache.detach_trace().into_events());
        Step3Outcome { report, stats, cache: cache_stats, events }
    }
}

fn step3_function(
    f: &mut Function,
    config: &SxeConfig,
    profile: Option<&[u64]>,
    shared: &SharedState,
    mut cache: AnalysisCache,
) -> Step3Outcome {
    let fname = f.name.clone();
    let mut harness = Harness::new(shared, &format!("step3:@{fname}"));
    if shared.clock.is_some() {
        cache.attach_trace(Lane::new(shared.clock, &format!("cache.step3:@{fname}")));
    }
    let mut stats = SxeStats::default();

    if config.variant.first_algorithm() {
        if let Some(s) = harness.run_boundary(
            "first-algorithm",
            Some(&fname),
            f,
            verify_function,
            corrupt_function,
            |f, _| sxe_core::step3_first(f, config),
        ) {
            stats.merge(s);
        }
        return Step3Outcome::collect(harness, &mut cache, stats);
    }
    if !config.variant.uses_udu() {
        // Baseline / gen-use: no step-3 optimization, no boundaries.
        return Step3Outcome::collect(harness, &mut cache, stats);
    }

    if let Some(ins) = harness.run_boundary(
        "step3-insert",
        Some(&fname),
        f,
        verify_function,
        corrupt_function,
        |f, _| sxe_core::step3_insertion(f, config),
    ) {
        stats.dummies += ins.dummies;
        stats.inserted += ins.inserted;
    }

    let order = harness
        .run_boundary(
            "step3-order",
            Some(&fname),
            f,
            verify_function,
            corrupt_function,
            |f, _| sxe_core::step3_order_cached(f, config, profile, &mut cache),
        )
        // A rolled-back ordering still leaves every site eliminable —
        // just without the hottest-first payoff.
        .unwrap_or_else(|| sxe_core::fallback_order(f, config));

    match harness.run_boundary(
        "step3-eliminate",
        Some(&fname),
        f,
        verify_function,
        corrupt_function,
        |f, budget| sxe_core::step3_eliminate_cached(f, config, &order, budget, &mut cache),
    ) {
        Some(out) => {
            stats.examined += out.examined;
            stats.eliminated += out.eliminated;
            stats.eliminated_via_array += out.via_array;
            if out.exhausted {
                harness.report.budget_exhausted = true;
            }
        }
        None => {
            // Rolled back (or budget-stopped) after insertion: scrub the
            // leftover dummy markers before shipping.
            sxe_core::strip_dummies(f);
        }
    }
    Step3Outcome::collect(harness, &mut cache, stats)
}

/// Result of a compilation.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The optimized 64-bit module, ready for the VM.
    pub module: Module,
    /// Static sign-extension statistics.
    pub stats: SxeStats,
    /// Rewrite counts from the step-2 general optimizations.
    pub opt_stats: OptStats,
    /// Per-boundary account of the compilation, including any contained
    /// incidents.
    pub report: CompileReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::parse_module;

    const LOOPY: &str = "\
func @main(i32) -> f64 {
b0:
    r1 = newarray.i32 r0
    r2 = const.i32 0
    br b1
b1:
    r3 = const.i32 1
    r0 = sub.i32 r0, r3
    r4 = aload.i32 r1, r0
    r2 = add.i32 r2, r4
    condbr gt.i32 r0, r3, b1, b2
b2:
    r5 = i32tof64.f64 r2
    ret r5
}
";

    /// Three functions so sharding has something to split.
    const MULTI: &str = "\
func @main(i32) -> f64 {
b0:
    r1 = newarray.i32 r0
    r2 = const.i32 0
    br b1
b1:
    r3 = const.i32 1
    r0 = sub.i32 r0, r3
    r4 = aload.i32 r1, r0
    r2 = add.i32 r2, r4
    condbr gt.i32 r0, r3, b1, b2
b2:
    r5 = i32tof64.f64 r2
    ret r5
}
func @mask(i32) -> i64 {
b0:
    r1 = const.i32 255
    r2 = and.i32 r0, r1
    r3 = extend.32 r2
    ret r3
}
func @looper(i32) -> i32 {
b0:
    r1 = const.i32 0
    br b1
b1:
    r2 = const.i32 1
    r1 = add.i32 r1, r2
    r0 = sub.i32 r0, r2
    condbr gt.i32 r0, r2, b1, b2
b2:
    ret r1
}
";

    #[test]
    fn pipeline_end_to_end() {
        let src = parse_module(LOOPY).unwrap();
        let base = Compiler::for_variant(Variant::Baseline).try_compile(&src).expect("compiles");
        let all = Compiler::for_variant(Variant::All).try_compile(&src).expect("compiles");
        assert!(base.module.count_extends(None) > all.module.count_extends(None));
        assert!(all.stats.eliminated > 0);
        let timed: Duration = all.report.records.iter().map(|r| r.duration).sum();
        assert!(timed > Duration::ZERO);
    }

    #[test]
    fn all_variants_compile_and_agree_dynamically() {
        let src = parse_module(LOOPY).unwrap();
        let mut reference: Option<(Option<i64>, u64)> = None;
        for v in Variant::ALL {
            let c = Compiler::for_variant(v).try_compile(&src).expect("compiles");
            let mut vm = Vm::new(&c.module, Target::Ia64);
            let out = vm.run("main", &[40]).expect("no trap");
            let key = (out.ret, out.heap_checksum);
            match &reference {
                None => reference = Some(key),
                Some(r) => assert_eq!(*r, key, "variant {v} diverged"),
            }
        }
    }

    #[test]
    fn dynamic_counts_ordered() {
        let src = parse_module(LOOPY).unwrap();
        let count = |v: Variant| {
            let c = Compiler::for_variant(v).try_compile(&src).expect("compiles");
            let mut vm = Vm::new(&c.module, Target::Ia64);
            vm.run("main", &[200]).expect("no trap");
            vm.counters().extend_count(None)
        };
        let baseline = count(Variant::Baseline);
        let first = count(Variant::FirstAlgorithm);
        let all = count(Variant::All);
        assert!(first <= baseline);
        assert!(all <= first);
        // Figure 8(b): exactly one extension survives, placed after the
        // loop — it executes once regardless of the trip count.
        assert_eq!(all, 1, "one extension outside the loop");
    }

    #[test]
    fn profiled_compile_works() {
        let src = parse_module(LOOPY).unwrap();
        let c = Compiler::for_variant(Variant::All)
            .try_compile_profiled(&src, "main", &[40])
            .expect("compiles");
        let mut vm = Vm::new(&c.module, Target::Ia64);
        let out = vm.run("main", &[40]).expect("no trap");
        assert!(out.ret.is_some());
    }

    #[test]
    fn zext_elimination_option() {
        // zext32 of an IA64 load is redundant; the option removes it.
        let src = parse_module(
            "func @main(i32) -> i64 {\n\
             b0:\n    r1 = newarray.i32 r0\n    r4 = const.i32 0\n    r2 = aload.i32 r1, r4\n    r3 = zext32.i64 r2\n    ret r3\n}\n",
        )
        .unwrap();
        let count_zext = |m: &sxe_ir::Module| {
            m.iter()
                .flat_map(|(_, f)| f.insts().map(|(_, i)| i.clone()).collect::<Vec<_>>())
                .filter(|i| matches!(i, sxe_ir::Inst::Un { op: sxe_ir::UnOp::Zext(_), .. }))
                .count()
        };
        let plain = Compiler::for_variant(Variant::All).try_compile(&src).expect("compiles");
        assert_eq!(count_zext(&plain.module), 1);
        let mut with = Compiler::for_variant(Variant::All);
        with.sxe.eliminate_zext = true;
        let optimized = with.try_compile(&src).expect("compiles");
        assert_eq!(count_zext(&optimized.module), 0);
        // Behaviour preserved.
        let run = |m: &sxe_ir::Module| {
            let mut vm = Vm::new(m, Target::Ia64);
            vm.run("main", &[2]).expect("no trap").ret
        };
        assert_eq!(run(&plain.module), run(&optimized.module));
    }

    #[test]
    fn general_opts_can_be_disabled() {
        let src = parse_module(LOOPY).unwrap();
        let mut c = Compiler::for_variant(Variant::All);
        c.general = sxe_opt::GeneralOpts::none();
        let compiled = c.try_compile(&src).expect("compiles");
        let mut vm = Vm::new(&compiled.module, Target::Ia64);
        let out = vm.run("main", &[40]).expect("no trap");
        let reference = Compiler::for_variant(Variant::All).try_compile(&src).expect("compiles");
        let mut vm2 = Vm::new(&reference.module, Target::Ia64);
        assert_eq!(out.ret, vm2.run("main", &[40]).expect("no trap").ret);
    }

    #[test]
    fn clean_compile_reports_clean() {
        let src = parse_module(LOOPY).unwrap();
        let c = Compiler::for_variant(Variant::All).try_compile(&src).expect("compiles");
        assert!(c.report.clean(), "{}", c.report.summary());
        assert!(c.report.boundaries() > 0);
        assert!(c.report.records.iter().all(|r| r.status == PassStatus::Ok));
        assert!(c.opt_stats.total() > 0, "general opts did something");
    }

    #[test]
    fn fault_injection_is_contained_and_reported() {
        let src = parse_module(LOOPY).unwrap();
        let reference = Compiler::for_variant(Variant::All).try_compile(&src).expect("compiles");
        let boundaries = reference.report.boundaries() as u32;
        let mut vm = Vm::new(&reference.module, Target::Ia64);
        let want = vm.run("main", &[40]).expect("no trap");
        for seed in 0..48 {
            let plan = FaultPlan::from_seed(seed, boundaries);
            let c = Compiler::builder(Variant::All)
                .fault_plan(plan)
                .build()
                .try_compile(&src)
                .expect("compiles");
            assert!(
                c.report.incidents() >= 1,
                "seed {seed}: the injected fault must appear in the report"
            );
            let mut vm = Vm::new(&c.module, Target::Ia64);
            let got = vm.run("main", &[40]).expect("no trap");
            assert_eq!(
                (got.ret, got.heap_checksum),
                (want.ret, want.heap_checksum),
                "seed {seed}: recovered compilation must stay semantically identical"
            );
        }
    }

    #[test]
    fn tiny_budget_salvages_a_working_module() {
        let src = parse_module(LOOPY).unwrap();
        let c = Compiler::builder(Variant::All)
            .budget(Some(3), None)
            .build()
            .try_compile(&src)
            .expect("compiles");
        assert!(c.report.budget_exhausted);
        let mut vm = Vm::new(&c.module, Target::Ia64);
        let got = vm.run("main", &[40]).expect("no trap");
        let reference = Compiler::for_variant(Variant::All).try_compile(&src).expect("compiles");
        let mut vm2 = Vm::new(&reference.module, Target::Ia64);
        let want = vm2.run("main", &[40]).expect("no trap");
        assert_eq!((got.ret, got.heap_checksum), (want.ret, want.heap_checksum));
    }

    #[test]
    fn ppc64_needs_fewer_extensions_than_ia64() {
        // PPC64's lwa sign-extends loads, so the baseline itself has
        // fewer extensions.
        let src = parse_module(LOOPY).unwrap();
        let ia = Compiler::for_variant(Variant::Baseline).try_compile(&src).expect("compiles");
        let ppc = Compiler::builder(Variant::Baseline)
            .target(Target::Ppc64)
            .build()
            .try_compile(&src)
            .expect("compiles");
        assert!(ppc.module.count_extends(None) < ia.module.count_extends(None));
    }

    #[test]
    fn invalid_input_is_a_verify_error() {
        // A function with an unfinished entry block does not verify.
        let mut m = Module::new();
        m.add_function(Function::new("broken", vec![], None));
        match Compiler::for_variant(Variant::All).try_compile(&m) {
            Err(CompileError::Verify(_)) => {}
            other => panic!("expected Verify error, got {other:?}"),
        }
    }

    #[test]
    fn missing_entry_is_reported_not_panicked() {
        let src = parse_module(LOOPY).unwrap();
        let err = Compiler::for_variant(Variant::All)
            .try_compile_profiled(&src, "nope", &[1])
            .unwrap_err();
        assert_eq!(err, CompileError::MissingEntry("nope".into()));
        assert!(err.to_string().contains("@nope"));
    }

    #[test]
    fn empty_budget_is_refused_up_front() {
        let src = parse_module(LOOPY).unwrap();
        let err = Compiler::builder(Variant::All)
            .budget(Some(0), None)
            .build()
            .try_compile(&src)
            .unwrap_err();
        assert_eq!(err, CompileError::BudgetExhaustedBeforeStart);
    }

    #[test]
    fn builder_roundtrip() {
        let c = Compiler::builder(Variant::Array)
            .target(Target::Ppc64)
            .budget(Some(5000), Some(Duration::from_secs(1)))
            .threads(4)
            .cache(false)
            .verify(false)
            .general(GeneralOpts::none())
            .build();
        assert_eq!(c.sxe.variant, Variant::Array);
        assert_eq!(c.sxe.target, Target::Ppc64);
        assert_eq!(c.fuel, Some(5000));
        assert_eq!(c.threads, 4);
        assert!(!c.cache && !c.verify);
        assert_eq!(c.general, GeneralOpts::none());
    }

    /// Everything that must be deterministic, Durations excluded.
    type Fingerprint = (String, SxeStats, OptStats, Vec<(String, Option<String>, PassStatus)>);

    fn fingerprint(c: &Compiled) -> Fingerprint {
        let text = c
            .module
            .functions
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        let records = c
            .report
            .records
            .iter()
            .map(|r| (r.pass.clone(), r.function.clone(), r.status.clone()))
            .collect();
        (text, c.stats, c.opt_stats, records)
    }

    #[test]
    fn sharded_output_is_byte_identical() {
        let src = parse_module(MULTI).unwrap();
        for v in [Variant::All, Variant::Array, Variant::FirstAlgorithm, Variant::Baseline] {
            let seq = Compiler::for_variant(v).try_compile(&src).expect("compiles");
            for threads in [2, 4, 8] {
                let par = Compiler::builder(v)
                    .threads(threads)
                    .build()
                    .try_compile(&src)
                    .expect("compiles");
                assert_eq!(
                    fingerprint(&seq),
                    fingerprint(&par),
                    "{v} threads={threads} diverged from sequential"
                );
            }
        }
    }

    #[test]
    fn cache_does_not_change_output() {
        let src = parse_module(MULTI).unwrap();
        for v in [Variant::All, Variant::Array] {
            let on = Compiler::for_variant(v).try_compile(&src).expect("compiles");
            let off = Compiler::builder(v)
                .cache(false)
                .build()
                .try_compile(&src)
                .expect("compiles");
            assert_eq!(fingerprint(&on), fingerprint(&off), "{v}: cache changed the output");
        }
    }

    #[test]
    fn batch_compiles_in_input_order() {
        let a = parse_module(LOOPY).unwrap();
        let b = parse_module(MULTI).unwrap();
        let sources = vec![a.clone(), b.clone(), a, b];
        let seq = Compiler::for_variant(Variant::All)
            .try_compile_batch(&sources)
            .expect("compiles");
        let par = Compiler::builder(Variant::All)
            .threads(4)
            .build()
            .try_compile_batch(&sources)
            .expect("compiles");
        assert_eq!(seq.len(), 4);
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(fingerprint(s), fingerprint(p));
        }
    }
}

//! # perfbench — end-to-end and per-layer benchmark of xelim
//!
//! One command measures three closed-loop workloads and checks every
//! output against a reference:
//!
//! * `compile-suite` — `parse_module` + `Compiler::try_compile` over the
//!   17 paper kernels ([`compile_suite`]);
//! * `exec-native` — build an `Engine::Native` VM and run `main` on the
//!   kernels compiled during set-up ([`exec_native`]);
//! * `serve-mixed` — an in-process `sxed` daemon under two clients, 80%
//!   cache hits and 20% fresh generated modules ([`serve_mixed`]).
//!
//! With `--trace 0` a run reports the end-to-end metrics; with
//! `--trace 1` it records spans around each layer's public calls
//! ([`trace`], [`layers`]) and reports the per-layer split. See
//! `README.md` for every metric, its unit and its direction.

pub mod compile_suite;
pub mod e2e;
pub mod exec_native;
pub mod layers;
pub mod mirror;
pub mod serve_mixed;
pub mod stats;
pub mod trace;

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sxe_core::Variant;
use sxe_ir::rng::XorShift;
use sxe_ir::{parse_module, Module, Width};
use sxe_jit::{Compiled, Compiler};
use sxe_vm::{Engine, Vm};
use sxe_workloads::Suite;

use crate::e2e::{part_duration, part_seed, Part};
use crate::stats::Tally;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: Duration,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Set in a worker process: which share of the end-to-end run to
    /// measure ([`e2e`]).
    pub part: Option<u64>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Everything one run prints.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// The error account of the measured operations.
    pub tally: Tally,
    /// Metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    ///
    /// # Errors
    /// If a metric is not a finite number.
    pub fn json(&self) -> Result<String, String> {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if !metric.value.is_finite() {
                return Err(format!(
                    "metric {} is not finite: {}",
                    metric.name, metric.value
                ));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct,
            self.tally.attempted,
            self.tally.failed()
        ))
    }
}

/// One paper kernel at its default size, rendered to `.sxir` text.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Workload name (`sxe_workloads`).
    pub name: &'static str,
    /// The module as built by `sxe_workloads`.
    pub module: Module,
    /// Its text form — the input every workload feeds the system.
    pub text: String,
}

/// The 17 paper kernels in table order.
#[must_use]
pub fn kernels() -> Vec<Kernel> {
    sxe_workloads::all()
        .into_iter()
        .map(|w| {
            let module = w.build_default();
            let text = module.to_string();
            Kernel {
                name: w.name,
                module,
                text,
            }
        })
        .collect()
}

/// The compiler every workload uses: `Variant::All`, IA64, defaults.
#[must_use]
pub fn compiler() -> Compiler {
    Compiler::builder(Variant::All).build()
}

/// Parse `text` and compile it with [`compiler`] — the compile-suite
/// operation and the in-process reference of the other workloads.
///
/// # Errors
/// A parse or compile error, as text.
pub fn parse_and_compile(compiler: &Compiler, text: &str) -> Result<Compiled, String> {
    let m = parse_module(text).map_err(|e| format!("parse: {e}"))?;
    compiler
        .try_compile(&m)
        .map_err(|e| format!("compile: {e}"))
}

/// The reference compile of every kernel, in kernel order.
///
/// # Errors
/// A kernel that fails to parse or compile.
pub fn reference_compiles(ks: &[Kernel]) -> Result<Vec<Compiled>, String> {
    let compiler = compiler();
    ks.iter()
        .map(|k| parse_and_compile(&compiler, &k.text).map_err(|e| format!("{}: {e}", k.name)))
        .collect()
}

/// Set-up shared by `compile-suite` and `exec-native`: build, render,
/// parse and compile all 17 kernels. The compile is the reference every
/// later one must match byte for byte.
///
/// # Errors
/// A kernel that fails to parse or compile.
pub fn compile_kernels() -> Result<(Vec<Kernel>, Vec<Compiled>), String> {
    let ks = kernels();
    let refs = reference_compiles(&ks)?;
    Ok((ks, refs))
}

/// A stable 64-bit hash of `text` (equal texts, equal hashes, on every
/// run and platform).
#[must_use]
pub fn text_hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// The reference texts of the kernels, and their combined hash.
#[must_use]
pub fn ref_texts(refs: &[Compiled]) -> (Vec<String>, u64) {
    let texts: Vec<String> = refs.iter().map(|c| c.module.to_string()).collect();
    let mut h = DefaultHasher::new();
    texts.hash(&mut h);
    (texts, h.finish())
}

/// The reference compile of every kernel must behave like its
/// `Baseline` compile: `main()` of both, run on `Engine::Tree`, returns
/// the same value and leaves the same heap.
///
/// # Errors
/// The first kernel that differs or traps.
pub fn check_against_baseline(ks: &[Kernel], refs: &[Compiled]) -> Result<(), String> {
    let tree_main = |m: &Module| {
        let mut vm = Vm::builder(m).engine(Engine::Tree).build();
        vm.run("main", &[])
            .map(|o| (o.ret, o.heap_checksum))
            .map_err(|e| e.to_string())
    };
    let baseline = Compiler::builder(Variant::Baseline).build();
    for (k, all) in ks.iter().zip(refs) {
        let base = parse_and_compile(&baseline, &k.text)?;
        let (got, want) = (tree_main(&all.module)?, tree_main(&base.module)?);
        if got != want {
            return Err(format!(
                "{}: All main() = {got:?}, Baseline main() = {want:?}",
                k.name
            ));
        }
    }
    Ok(())
}

/// A seeded permutation of `0..n` (Fisher–Yates).
#[must_use]
pub fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = XorShift::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.index(i + 1));
    }
    v
}

/// Scratch directory for this run's files, inside the working
/// directory (the checkout the benchmark runs from).
///
/// # Errors
/// I/O errors creating it.
pub fn work_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The host-drift probe: milliseconds a fixed pointer chase takes (4M
/// dependent loads through one random cycle over a 256 KiB table), the
/// median of three timings. The host's slow spells hit cache- and
/// memory-bound code such as the compiler and leave register-only
/// arithmetic untouched, so the probe chases pointers. It tells a slow
/// host apart from a slow program and is never used to scale any metric.
#[must_use]
pub fn host_ref_ms() -> f64 {
    const SLOTS: usize = 1 << 16;
    // Sattolo's shuffle: one cycle through every slot.
    let mut rng = XorShift::new(0x5107);
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    for i in (1..SLOTS).rev() {
        next.swap(i, rng.index(i));
    }
    let once = || {
        let t0 = Instant::now();
        let mut at = 0u32;
        for _ in 0..black_box(4_000_000u32) {
            at = next[at as usize];
        }
        black_box(at);
        t0.elapsed().as_secs_f64() * 1e3
    };
    stats::median(&[once(), once(), once()])
}

/// The exact-count quality metrics, identical on every workload because
/// each workload's compiled kernels are checked byte-identical to the
/// same reference compile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Static extensions left after step 3, % of those step 1 generated.
    pub static_ext_pct: f64,
    /// Dynamic 32-bit extensions executed by `All`, % of `Baseline`
    /// (mean over the kernels, the paper's Tables 1–2 average).
    pub dyn_ext_pct: f64,
    /// Native code bytes emitted for the compiled kernels.
    pub code_bytes: f64,
}

impl Quality {
    /// The three metrics, for the result line.
    #[must_use]
    pub fn metrics(&self) -> [Metric; 3] {
        [
            Metric::new("static_ext_pct", self.static_ext_pct, "%"),
            Metric::new("dyn_ext_pct", self.dyn_ext_pct, "%"),
            Metric::new("code_bytes", self.code_bytes, "bytes"),
        ]
    }
}

/// Compute [`Quality`] from the reference compiles of the kernels
/// (`refs[i]` compiles `kernels[i]`), cross-checking the dynamic counts
/// against `sxe_bench::dynamic_extend_table`.
///
/// # Errors
/// A run that traps, or a count that disagrees with the table.
pub fn quality(kernels: &[Kernel], refs: &[Compiled]) -> Result<Quality, String> {
    let left: usize = refs.iter().map(|c| c.module.count_extends(None)).sum();
    let generated: usize = refs.iter().map(|c| c.stats.generated).sum();
    let static_ext_pct = 100.0 * left as f64 / generated.max(1) as f64;
    let code_bytes: usize = refs.iter().map(|c| native_code_bytes(&c.module)).sum();
    Ok(Quality {
        static_ext_pct,
        dyn_ext_pct: paper_dyn_ext_pct(kernels)?,
        code_bytes: code_bytes as f64,
    })
}

/// Native code bytes `Engine::Native` emits for `m`.
#[must_use]
fn native_code_bytes(m: &Module) -> usize {
    let vm = Vm::builder(m).engine(Engine::Native).build();
    vm.native_code_stats()
        .iter()
        .map(|(_, bytes, _)| bytes)
        .sum()
}

/// Dynamic 32-bit extensions of `main()` when `m` is compiled for
/// `variant` the paper's way (interpreter profile first, then compile).
fn dyn_extends(m: &Module, variant: Variant) -> Result<u64, String> {
    let c = Compiler::for_variant(variant)
        .try_compile_profiled(m, "main", &[])
        .map_err(|e| format!("{variant}: {e}"))?;
    let mut vm = Vm::builder(&c.module).fuel(sxe_bench::FUEL).build();
    vm.run("main", &[]).map_err(|e| format!("{variant}: {e}"))?;
    Ok(vm.counters().extend_count(Some(Width::W32)))
}

/// `dyn_ext_pct`: the mean over the kernels of `All`'s dynamic 32-bit
/// extensions as a percentage of `Baseline`'s. Every count must equal
/// the `All` and `Baseline` cells of `sxe_bench::dynamic_extend_table`
/// at the same (default) sizes.
///
/// # Errors
/// A trap, or any disagreement with the table.
fn paper_dyn_ext_pct(kernels: &[Kernel]) -> Result<f64, String> {
    let mut table: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for suite in [Suite::JByteMark, Suite::SpecJvm98] {
        let t = sxe_bench::dynamic_extend_table(suite, 1.0);
        let row = |v: Variant| {
            t.rows
                .iter()
                .find(|r| r.variant == v)
                .map(|r| r.cells.clone())
                .unwrap_or_default()
        };
        let (all, base) = (row(Variant::All), row(Variant::Baseline));
        for (i, name) in t.workloads.iter().enumerate() {
            table.insert(name.clone(), (all[i].count, base[i].count));
        }
    }
    let mut pcts = Vec::with_capacity(kernels.len());
    for k in kernels {
        let all = dyn_extends(&k.module, Variant::All)?;
        let base = dyn_extends(&k.module, Variant::Baseline)?;
        let Some(&(t_all, t_base)) = table.get(k.name) else {
            return Err(format!(
                "{}: not in sxe_bench::dynamic_extend_table",
                k.name
            ));
        };
        // The table floors its baseline at 1 to keep percentages finite.
        if (all, base.max(1)) != (t_all, t_base) {
            return Err(format!(
                "{}: dynamic extensions All/Baseline = {all}/{base}, table says {t_all}/{t_base}",
                k.name
            ));
        }
        pcts.push(100.0 * all as f64 / base.max(1) as f64);
    }
    Ok(pcts.iter().sum::<f64>() / pcts.len().max(1) as f64)
}

/// One worker process of an end-to-end run: its share of the loop on
/// its own seed, as a [`Part`].
///
/// # Errors
/// A failed set-up or loop.
pub fn run_part(args: &Args, part: u64) -> Result<Part, String> {
    let (seed, dur) = (part_seed(args.seed, part), part_duration(args));
    match args.workload.as_str() {
        "compile-suite" => compile_suite::part(seed, dur),
        "exec-native" => exec_native::part(seed, dur),
        "serve-mixed" => serve_mixed::part(seed, dur),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The end-to-end run: the pooled workers, then the checks and exact
/// counts that need only one process.
///
/// # Errors
/// A failed worker or quality computation, or a run too short for p99.
pub fn run_e2e(args: &Args) -> Result<Outcome, String> {
    let parts = e2e::run_parts(args)?;
    let (ks, refs) = compile_kernels()?;
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (_, want) = ref_texts(&refs);
    if let Some(p) = parts.iter().position(|p| p.refs_hash != want) {
        outcome.notes.push(format!(
            "worker {p} checked against a different reference compile"
        ));
        outcome.correct = false;
    }
    if let Err(e) = check_against_baseline(&ks, &refs) {
        outcome.notes.push(format!("reference check failed: {e}"));
        outcome.correct = false;
    }
    if args.workload == "serve-mixed" {
        let mut serve = layers::ServeTally::default();
        for p in &parts {
            serve.merge(p.serve);
        }
        outcome.notes.push(format!(
            "serve: {} hits, {} misses (each re-checked in-process), {} refusals absorbed by retries",
            serve.hits, serve.misses, serve.refusals
        ));
    }
    e2e::pooled_metrics(&parts, &mut outcome)?;
    outcome.metrics.extend(quality(&ks, &refs)?.metrics());
    outcome.correct &= outcome.tally.failed() == 0;
    Ok(outcome)
}

//! # sxe-bench — reproduction harness for every table and figure
//!
//! Regenerates the paper's evaluation artifacts on the synthetic
//! workloads:
//!
//! * [`dynamic_extend_table`] — Tables 1 and 2 (dynamic counts of
//!   remaining 32-bit sign extensions, twelve algorithm variants);
//! * [`figure_series`] — Figures 11 and 12 (the same data as percentage
//!   series);
//! * [`speedup_figure`] — Figures 13 and 14 (estimated run-time
//!   improvement over the baseline, via the VM cycle model);
//! * [`compile_time_table`] — Table 3 (JIT compile-time breakdown),
//!   aggregated from the compiler's own telemetry spans.
//!
//! The `repro` binary prints them: `cargo run -p sxe-bench --bin repro --release`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod netchaos;

pub use chaos::{chaos_sweep, ChaosRecord, ChaosSummary};

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sxe_core::Variant;
use sxe_ir::{Module, Target, Width};
use sxe_jit::{CompileError, Compiled, Compiler, Telemetry};
use sxe_telemetry::{ArgValue, Event};
use sxe_vm::{Engine, Observation, Vm};
use sxe_workloads::{Suite, Workload};

/// Execution fuel for harness runs.
pub const FUEL: u64 = 4_000_000_000;

/// One table cell: dynamic count and percentage of the baseline.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Dynamic count of remaining 32-bit sign extensions.
    pub count: u64,
    /// Percentage of the baseline count (100.0 for the baseline row).
    pub pct: f64,
}

/// One table row (an algorithm variant across all workloads).
#[derive(Debug, Clone)]
pub struct Row {
    /// The variant.
    pub variant: Variant,
    /// Cells in workload order.
    pub cells: Vec<Cell>,
    /// Arithmetic mean of the percentages (the paper's "average" column).
    pub avg_pct: f64,
}

/// A full dynamic-count table (Table 1 or Table 2).
#[derive(Debug, Clone)]
pub struct CountTable {
    /// Which suite.
    pub suite: Suite,
    /// Workload names, in column order.
    pub workloads: Vec<String>,
    /// Rows in the paper's variant order.
    pub rows: Vec<Row>,
}

fn run_counting(compiled: &Compiled, target: Target) -> (u64, u64, u64) {
    let mut vm = Vm::builder(&compiled.module).target(target).fuel(FUEL).build();
    vm.run("main", &[]).expect("workload must not trap");
    (
        vm.counters().extend_count(Some(Width::W32)),
        vm.counters().cycles,
        vm.counters().insts,
    )
}

/// Compute Table 1 (`suite = JByteMark`) or Table 2 (`SpecJvm98`).
///
/// `scale` multiplies every workload's default size (use < 1.0 for quick
/// runs, 1.0 for the full reproduction).
///
/// # Panics
/// Panics if a workload fails to compile or traps — that would be a
/// compiler bug. [`dynamic_extend_table_on`] returns the compile error
/// instead.
#[must_use]
pub fn dynamic_extend_table(suite: Suite, scale: f64) -> CountTable {
    dynamic_extend_table_on(suite, scale, Target::Ia64)
        .unwrap_or_else(|e| panic!("workload compile refused: {e}"))
}

/// [`dynamic_extend_table`] for an explicit target. On
/// [`Target::Ppc64`] the baseline itself is smaller (the `lwa` load
/// sign-extends), reproducing the paper's remark that elimination
/// matters even more on architectures without implicit sign extension.
///
/// # Errors
/// The first [`CompileError`] a workload produces.
///
/// # Panics
/// Panics if a workload traps — that would be a compiler bug.
pub fn dynamic_extend_table_on(
    suite: Suite,
    scale: f64,
    target: Target,
) -> Result<CountTable, CompileError> {
    let workloads: Vec<Workload> = sxe_workloads::all()
        .into_iter()
        .filter(|w| w.suite == suite)
        .collect();
    let mut baseline: Vec<u64> = Vec::new();
    let mut rows = Vec::new();
    for variant in Variant::ALL {
        let compiler = Compiler::builder(variant).target(target).build();
        let mut cells = Vec::new();
        for (i, w) in workloads.iter().enumerate() {
            let m = w.build(w.scaled(scale));
            // Paper-faithful: the combined interpreter + dynamic compiler
            // profiles the code before optimizing, feeding measured block
            // frequencies to order determination.
            let compiled = compiler.try_compile_profiled(&m, "main", &[])?;
            let (count, _, _) = run_counting(&compiled, target);
            let base = if variant == Variant::Baseline {
                baseline.push(count.max(1));
                count.max(1)
            } else {
                baseline[i]
            };
            cells.push(Cell { count, pct: 100.0 * count as f64 / base as f64 });
        }
        let avg_pct = cells.iter().map(|c| c.pct).sum::<f64>() / cells.len() as f64;
        rows.push(Row { variant, cells, avg_pct });
    }
    Ok(CountTable {
        suite,
        workloads: workloads.iter().map(|w| w.name.to_string()).collect(),
        rows,
    })
}

/// Render a [`CountTable`] as aligned text in the paper's layout.
#[must_use]
pub fn render_table(t: &CountTable) -> String {
    let mut out = String::new();
    let label_w = 28;
    let col_w = 14;
    let _ = write!(out, "{:label_w$}", "");
    for name in &t.workloads {
        let _ = write!(out, "{name:>col_w$}");
    }
    let _ = writeln!(out, "{:>col_w$}", "average");
    for row in &t.rows {
        let _ = write!(out, "{:label_w$}", row.variant.label());
        for c in &row.cells {
            let _ = write!(out, "{:>col_w$}", c.count);
        }
        let _ = writeln!(out);
        let _ = write!(out, "{:label_w$}", "");
        for c in &row.cells {
            let _ = write!(out, "{:>col_w$}", format!("({:.2}%)", c.pct));
        }
        let _ = writeln!(out, "{:>col_w$}", format!("({:.2}%)", row.avg_pct));
    }
    out
}

/// Figures 11/12: the percentage series per variant (one line per
/// variant: `label: p1 p2 ... pN avg`).
#[must_use]
pub fn figure_series(t: &CountTable) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {} — % of baseline dynamic 32-bit sign extensions", t.suite);
    let _ = writeln!(out, "# columns: {}", t.workloads.join(", "));
    for row in &t.rows {
        let series: Vec<String> = row.cells.iter().map(|c| format!("{:.2}", c.pct)).collect();
        let _ = writeln!(out, "{:28} {}  avg={:.2}", row.variant.label(), series.join(" "), row.avg_pct);
    }
    out
}

/// One bar of Figures 13/14.
#[derive(Debug, Clone)]
pub struct SpeedupBar {
    /// Workload name.
    pub name: String,
    /// Estimated performance improvement over the baseline, in percent
    /// (flat cycle-model: `baseline / optimized - 1`).
    pub improvement_pct: f64,
    /// Improvement under the in-order dual-issue list-scheduling model
    /// ([`sxe_vm::sched`]), which additionally credits shortened
    /// dependence chains.
    pub scheduled_pct: f64,
}

/// Figures 13/14: per-workload estimated improvement of the full
/// algorithm over the baseline.
///
/// # Errors
/// The first [`CompileError`] a workload produces.
///
/// # Panics
/// Panics if a workload traps.
pub fn speedup_figure(suite: Suite, scale: f64) -> Result<Vec<SpeedupBar>, CompileError> {
    let base_compiler = Compiler::for_variant(Variant::Baseline);
    let all_compiler = Compiler::for_variant(Variant::All);
    sxe_workloads::all()
        .into_iter()
        .filter(|w| w.suite == suite)
        .map(|w| {
            let m = w.build(w.scaled(scale));
            let base = base_compiler.try_compile_profiled(&m, "main", &[])?;
            let all = all_compiler.try_compile_profiled(&m, "main", &[])?;
            let (_, base_cycles, _) = run_counting(&base, Target::Ia64);
            let (_, all_cycles, _) = run_counting(&all, Target::Ia64);
            let sched = |c: &Compiled| -> u64 {
                let mut vm = Vm::builder(&c.module)
                    .target(Target::Ia64)
                    .profile(true)
                    .fuel(FUEL)
                    .build();
                vm.run("main", &[]).expect("no trap");
                c.module
                    .iter()
                    .map(|(id, f)| {
                        let counts = vm.profile_counts(id).expect("profiling on");
                        sxe_vm::sched::function_cycles(f, counts)
                    })
                    .sum()
            };
            let base_sched = sched(&base).max(1);
            let all_sched = sched(&all).max(1);
            Ok(SpeedupBar {
                name: w.name.to_string(),
                improvement_pct: 100.0 * (base_cycles as f64 / all_cycles as f64 - 1.0),
                scheduled_pct: 100.0 * (base_sched as f64 / all_sched as f64 - 1.0),
            })
        })
        .collect()
}

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct CompileTimeRow {
    /// Workload name.
    pub name: String,
    /// Mean wall-clock time of one compilation, in milliseconds.
    pub compile_ms: f64,
    /// Percentage of compile time in the sign-extension optimizations.
    pub sxe_pct: f64,
    /// Percentage in UD/DU chain creation.
    pub chains_pct: f64,
    /// Everything else.
    pub others_pct: f64,
}

/// Names of the pass spans that make up step 3's sign-extension work.
const STEP3_PASSES: [&str; 4] =
    ["step3-insert", "step3-order", "step3-eliminate", "first-algorithm"];

/// Total duration of the events `keep` selects.
fn span_ns(events: &[Event], keep: impl Fn(&Event) -> bool) -> u64 {
    events.iter().filter(|e| keep(e)).map(|e| e.dur_ns).sum()
}

/// Table 3: the JIT compile-time breakdown for the full algorithm, per
/// workload, plus the average as the final row.
///
/// Every number is aggregated from the telemetry spans of `repeats`
/// compilations (default thread count, so spans never overlap):
/// * **total** — the `compile` spans;
/// * **UD/DU chain creation** — the `cache.udu` misses on the step-3
///   analysis-cache lanes (`cache.step3:@…`);
/// * **sign-ext opts** — the `step3-insert`, `step3-order`,
///   `step3-eliminate` and `first-algorithm` pass spans, minus the
///   chain creation they enclose;
/// * **others** — the remainder.
///
/// # Errors
/// The first [`CompileError`] a workload produces.
pub fn compile_time_table(scale: f64, repeats: u32) -> Result<Vec<CompileTimeRow>, CompileError> {
    let repeats = repeats.max(1);
    let mut rows = Vec::new();
    for w in sxe_workloads::all() {
        let m = w.build(w.scaled(scale));
        let telemetry = Telemetry::enabled();
        let compiler = Compiler::builder(Variant::All).telemetry(telemetry.clone()).build();
        for _ in 0..repeats {
            compiler.try_compile(&m)?;
        }
        let events = telemetry.events_snapshot();
        let total = span_ns(&events, |e| e.name == "compile");
        let chains = span_ns(&events, |e| {
            e.name == "cache.udu"
                && e.lane.starts_with("cache.step3:@")
                && e.args.iter().any(|(k, v)| *k == "hit" && *v == ArgValue::Bool(false))
        });
        let step3 = span_ns(&events, |e| e.cat == "pass" && STEP3_PASSES.contains(&&*e.name));
        let sxe = step3.saturating_sub(chains);
        let others = total.saturating_sub(sxe + chains);
        let pct = |ns: u64| 100.0 * ns as f64 / (sxe + chains + others).max(1) as f64;
        rows.push(CompileTimeRow {
            name: w.name.to_string(),
            compile_ms: total as f64 / 1e6 / f64::from(repeats),
            sxe_pct: pct(sxe),
            chains_pct: pct(chains),
            others_pct: pct(others),
        });
    }
    let n = rows.len() as f64;
    let mean = |f: fn(&CompileTimeRow) -> f64| rows.iter().map(f).sum::<f64>() / n;
    let average = CompileTimeRow {
        name: "average".into(),
        compile_ms: mean(|r| r.compile_ms),
        sxe_pct: mean(|r| r.sxe_pct),
        chains_pct: mean(|r| r.chains_pct),
        others_pct: mean(|r| r.others_pct),
    };
    rows.push(average);
    Ok(rows)
}

/// Render Figures 13/14 bars as text (both performance models).
#[must_use]
pub fn render_speedups(bars: &[SpeedupBar]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>14} {:>10} {:>10}", "", "flat-cost", "scheduled");
    for b in bars {
        let hashes = "#".repeat((b.scheduled_pct.max(0.0) / 0.5) as usize);
        let _ = writeln!(
            out,
            "{:>14} {:>9.2}% {:>9.2}% {}",
            b.name, b.improvement_pct, b.scheduled_pct, hashes
        );
    }
    out
}

/// One thread count's measurement in a [`compile_throughput`] sweep.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Worker-pool size for this measurement.
    pub threads: usize,
    /// Modules compiled per second (best of `repeats` rounds over the
    /// full workload batch).
    pub modules_per_sec: f64,
    /// Speedup over the sequential (`threads = 1`) point.
    pub speedup: f64,
}

/// Sweep batch-compile throughput over the full workload suite for each
/// worker-pool size in `threads_list`.
///
/// Every round compiles all 17 workload modules through
/// [`Compiler::try_compile_batch`] (whole modules sharded across the pool)
/// and the best of `repeats` rounds is kept, so a stray scheduling
/// hiccup does not poison a point. The first entry of `threads_list`
/// is the speedup reference; pass `&[1, ...]` for speedup-vs-sequential.
///
/// # Errors
/// The first [`CompileError`] a workload module produces.
pub fn compile_throughput(
    scale: f64,
    threads_list: &[usize],
    repeats: u32,
) -> Result<Vec<ThroughputPoint>, CompileError> {
    let modules: Vec<_> = sxe_workloads::all()
        .iter()
        .map(|w| w.build(w.scaled(scale)))
        .collect();
    let mut points: Vec<ThroughputPoint> = Vec::new();
    for &threads in threads_list {
        let compiler = Compiler::builder(Variant::All).threads(threads).build();
        let (best, batch) =
            best_of(repeats, &mut (), |()| {}, |()| compiler.try_compile_batch(&modules));
        std::hint::black_box(batch?);
        let modules_per_sec = modules.len() as f64 / best.as_secs_f64().max(1e-12);
        let reference = points.first().map_or(modules_per_sec, |p| p.modules_per_sec);
        points.push(ThroughputPoint {
            threads,
            modules_per_sec,
            speedup: modules_per_sec / reference.max(1e-12),
        });
    }
    Ok(points)
}

/// The best wall time of `repeats` rounds (at least one) of `timed`,
/// and the last round's value. `prepare` runs before each round,
/// outside the timed region; both get `state`.
fn best_of<S, T>(
    repeats: u32,
    state: &mut S,
    mut prepare: impl FnMut(&mut S),
    mut timed: impl FnMut(&mut S) -> T,
) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        prepare(state);
        let t0 = Instant::now();
        let value = timed(state);
        best = best.min(t0.elapsed());
        last = Some(value);
    }
    (best, last.expect("at least one round ran"))
}

/// One [`time_main`] measurement.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// Best wall time of one `main()` run.
    pub best: Duration,
    /// What the last run exposed.
    pub observation: Observation,
    /// Machine-code bytes attributed to extensions (0 off
    /// [`Engine::Native`]).
    pub extend_bytes: usize,
    /// Functions the native backend refused, with the reason (empty off
    /// [`Engine::Native`]).
    pub refusals: Vec<(String, String)>,
}

/// Run `main()` of `m` on `engine` (IA64 model, [`FUEL`]) `repeats`
/// times on one VM, reset between runs, and keep the best wall time.
///
/// # Panics
/// Panics if `main()` traps: a benchmark workload must run to
/// completion.
#[must_use]
pub fn time_main(m: &Module, engine: Engine, repeats: u32) -> TimedRun {
    let mut vm = Vm::builder(m).target(Target::Ia64).engine(engine).fuel(FUEL).build();
    let refusals = vm.native_refusals();
    let extend_bytes = vm.native_code_stats().iter().map(|&(_, _, e)| e).sum();
    let (best, run) = best_of(repeats, &mut vm, Vm::reset, |vm| vm.run("main", &[]));
    if let Err(e) = &run {
        panic!("workload must not trap: {e}");
    }
    let observation = Observation::of(&vm, &run);
    TimedRun { best, observation, extend_bytes, refusals }
}

/// Render a [`compile_throughput`] sweep as aligned text.
#[must_use]
pub fn render_throughput(points: &[ThroughputPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>8} {:>14} {:>9}", "threads", "modules/sec", "speedup");
    for p in points {
        let _ = writeln!(
            out,
            "{:>8} {:>14.1} {:>8.2}x",
            p.threads, p.modules_per_sec, p.speedup
        );
    }
    out
}

/// Render Table 3 as text.
#[must_use]
pub fn render_compile_times(rows: &[CompileTimeRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>14} {:>22} {:>22} {:>10} {:>11}",
        "", "sign-ext opts (all)", "UD/DU chain creation", "others", "compile ms"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>14} {:>21.2}% {:>21.2}% {:>9.2}% {:>11.3}",
            r.name, r.sxe_pct, r.chains_pct, r.others_pct, r.compile_ms
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_table_has_expected_shape() {
        let t = dynamic_extend_table(Suite::JByteMark, 0.05);
        assert_eq!(t.rows.len(), 12);
        assert_eq!(t.workloads.len(), 10);
        // Baseline row is 100%.
        for c in &t.rows[0].cells {
            assert!((c.pct - 100.0).abs() < 1e-9);
        }
        // The full algorithm's average beats the first algorithm's.
        let avg = |v: Variant| t.rows.iter().find(|r| r.variant == v).unwrap().avg_pct;
        assert!(avg(Variant::All) < avg(Variant::FirstAlgorithm));
        assert!(avg(Variant::All) < 50.0, "majority eliminated");
        let text = render_table(&t);
        assert!(text.contains("new algorithm (all)"));
    }

    #[test]
    fn speedups_are_positive_for_integer_kernels() {
        let bars = speedup_figure(Suite::SpecJvm98, 0.05).expect("workloads compile");
        assert_eq!(bars.len(), 7);
        let compress = bars.iter().find(|b| b.name == "compress").unwrap();
        assert!(compress.improvement_pct > 0.0);
        let text = render_speedups(&bars);
        assert!(text.contains("compress"));
    }

    /// Every Table 3 bucket is populated from the spans, and every row
    /// partitions its compile time exactly.
    #[test]
    fn compile_time_rows_sum_to_100() {
        let rows = compile_time_table(0.05, 1).expect("workloads compile");
        assert_eq!(rows.len(), 18); // 17 workloads + average
        for r in &rows {
            assert!(r.compile_ms > 0.0, "{}: compile spans recorded", r.name);
            assert!(r.chains_pct > 0.0, "{}: chains were built", r.name);
            assert!(r.sxe_pct > 0.0, "{}: elimination ran", r.name);
            let sum = r.sxe_pct + r.chains_pct + r.others_pct;
            assert!((sum - 100.0).abs() < 1e-9, "{}: {sum}", r.name);
        }
    }

    #[test]
    fn throughput_sweep_has_one_point_per_thread_count() {
        let points = compile_throughput(0.02, &[1, 2], 1).expect("workloads compile");
        assert_eq!(points.len(), 2);
        assert!((points[0].speedup - 1.0).abs() < 1e-9, "first point is the reference");
        assert!(points.iter().all(|p| p.modules_per_sec > 0.0));
        let text = render_throughput(&points);
        assert!(text.contains("threads"));
    }

    /// Resetting one VM between timed rounds leaves the same observable
    /// run as a fresh VM.
    #[test]
    fn timed_runs_observe_what_a_fresh_run_does() {
        let w = &sxe_workloads::all()[0];
        let m = Compiler::for_variant(Variant::All)
            .try_compile(&w.build(w.scaled(0.02)))
            .expect("compiles")
            .module;
        let fresh = sxe_vm::observe(&m, Target::Ia64, Engine::Decoded, FUEL, "main", &[]);
        let timed = time_main(&m, Engine::Decoded, 3);
        assert_eq!(timed.observation, fresh);
        assert!(timed.best > Duration::ZERO);
        assert_eq!((timed.extend_bytes, timed.refusals.len()), (0, 0));
    }

    #[test]
    fn figure_series_renders() {
        let t = dynamic_extend_table(Suite::SpecJvm98, 0.05);
        let s = figure_series(&t);
        assert!(s.contains("SPECjvm98"));
        assert!(s.lines().count() >= 14);
    }
}

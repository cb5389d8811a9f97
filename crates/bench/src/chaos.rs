//! Chaos suite: compile the workloads under systematic fault injection
//! and prove the containment harness holds.
//!
//! For every workload and every seed, one deterministic fault (panic,
//! corruption, or budget exhaustion — see [`FaultPlan::from_seed`]) is
//! injected at a pseudo-random pass boundary. The sweep then asserts the
//! three containment guarantees:
//!
//! 1. **no aborts** — compilation never panics out of the pipeline;
//! 2. **incidents are visible** — every injected fault shows up in the
//!    [`CompileReport`](sxe_jit::CompileReport);
//! 3. **no miscompiles** — the differential oracle finds the recovered
//!    module behaviorally identical to the unoptimized original.

use std::panic::{self, AssertUnwindSafe};

use sxe_core::Variant;
use sxe_ir::Target;
use sxe_jit::cmdline::ReproCmd;
use sxe_jit::{Compiler, FaultPlan, Telemetry};
use sxe_vm::{differential_check, OracleConfig};

/// One chaos compilation's outcome.
#[derive(Debug, Clone)]
pub struct ChaosRecord {
    /// Workload name.
    pub workload: String,
    /// Fault seed.
    pub seed: u64,
    /// The injected plan.
    pub plan: FaultPlan,
    /// Incidents the compile report recorded.
    pub incidents: usize,
    /// Comparisons the oracle performed.
    pub comparisons: usize,
}

/// Aggregate result of a sweep.
#[derive(Debug, Clone, Default)]
pub struct ChaosSummary {
    /// One record per (workload, seed) pair.
    pub runs: Vec<ChaosRecord>,
}

impl ChaosSummary {
    /// Total injected incidents across the sweep.
    #[must_use]
    pub fn incidents(&self) -> usize {
        self.runs.iter().map(|r| r.incidents).sum()
    }

    /// Total oracle comparisons across the sweep.
    #[must_use]
    pub fn comparisons(&self) -> usize {
        self.runs.iter().map(|r| r.comparisons).sum()
    }
}

/// Sweep `seeds` fault seeds over each named workload at `scale`. Every
/// faulted compile runs through the sharded pipeline with `threads`
/// workers, so the sweep also proves containment holds when the fault
/// lands inside a worker, and with `telemetry` attached: the sink's
/// registry accumulates `compile.incidents`, `compile.rollbacks`,
/// per-pass timing histograms, etc. across the whole sweep, and its
/// trace records a span per contained boundary.
///
/// # Errors
/// A list of containment violations (aborted compilations, unrecorded
/// incidents, oracle mismatches, each mismatch with its
/// [`sxec_replay`] line); empty result list means every fault was
/// contained.
pub fn chaos_sweep(
    workloads: &[&str],
    scale: f64,
    seeds: std::ops::Range<u64>,
    threads: usize,
    telemetry: &Telemetry,
) -> Result<ChaosSummary, Vec<String>> {
    let mut summary = ChaosSummary::default();
    let mut errors = Vec::new();
    for &name in workloads {
        let Some(w) = sxe_workloads::by_name(name) else {
            errors.push(format!("unknown workload `{name}`"));
            continue;
        };
        let size = w.scaled(scale);
        let module = w.build(size);
        // The oracle reference is the conversion-only (Baseline) compile:
        // the raw 32-bit module is not meaningful on the 64-bit machine
        // model until step 1 has inserted its sign extensions.
        let (reference, dry) = match (
            Compiler::for_variant(Variant::Baseline).try_compile(&module),
            Compiler::for_variant(Variant::All).try_compile(&module),
        ) {
            (Ok(reference), Ok(dry)) => (reference.module, dry),
            (Err(e), _) | (_, Err(e)) => {
                errors.push(format!("{name}: fault-free compilation REFUSED ({e})"));
                continue;
            }
        };
        let boundaries = dry.report.boundaries() as u32;
        for seed in seeds.clone() {
            let plan = FaultPlan::from_seed(seed, boundaries);
            let compiler = Compiler::builder(Variant::All)
                .threads(threads)
                .telemetry(telemetry.clone())
                .fault_plan(plan)
                .build();
            let compiled =
                match panic::catch_unwind(AssertUnwindSafe(|| compiler.try_compile(&module))) {
                    Ok(Ok(c)) => c,
                    Ok(Err(e)) => {
                        errors.push(format!(
                            "{name} seed {seed}: compilation REFUSED ({e}) — an injected \
                             fault must be contained, not surfaced (plan {plan:?})"
                        ));
                        continue;
                    }
                    Err(_) => {
                        errors.push(format!(
                            "{name} seed {seed}: compilation ABORTED (containment breach, \
                             plan {plan:?})"
                        ));
                        continue;
                    }
                };
            let incidents = compiled.report.incidents();
            if incidents == 0 {
                errors.push(format!(
                    "{name} seed {seed}: injected fault left no trace in the report \
                     (plan {plan:?})"
                ));
            }
            let oracle = OracleConfig::new().seed(seed);
            let comparisons =
                match differential_check(&reference, &compiled.module, Target::Ia64, &oracle) {
                    Ok(n) => n,
                    Err(m) => {
                        let repro = sxec_replay(name, size, seed, &oracle);
                        errors.push(format!(
                            "{name} seed {seed}: ORACLE MISMATCH: {m}\n    repro: {repro}"
                        ));
                        0
                    }
                };
            summary.runs.push(ChaosRecord {
                workload: name.to_string(),
                seed,
                plan,
                incidents,
                comparisons,
            });
        }
    }
    if errors.is_empty() {
        Ok(summary)
    } else {
        Err(errors)
    }
}

/// The `sxec` command line that replays one run of [`chaos_sweep`]: the
/// same dry compile, fault plan and oracle check for workload `name` at
/// `size` under fault seed `seed`.
#[must_use]
pub fn sxec_replay(name: &str, size: u32, seed: u64, oracle: &OracleConfig) -> ReproCmd {
    ReproCmd::new("sxe-jit", "sxec")
        .opt("--workload", name)
        .opt("--size", size)
        .opt("--chaos-seed", seed)
        .opt("--oracle-runs", oracle.runs)
        .opt("--oracle-fuel", oracle.fuel)
        .opt("--oracle-seed", oracle.seed)
        .arg("--no-emit")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_sweep_is_contained() {
        let summary = chaos_sweep(&["compress"], 0.05, 0..4, 4, &Telemetry::disabled())
            .unwrap_or_else(|e| panic!("containment violations: {e:#?}"));
        assert_eq!(summary.runs.len(), 4);
        assert!(summary.incidents() >= 4);
    }

    #[test]
    fn small_sweep_is_contained() {
        let summary =
            chaos_sweep(&["compress", "numeric sort"], 0.05, 0..6, 1, &Telemetry::disabled())
            .unwrap_or_else(|e| panic!("containment violations: {e:#?}"));
        assert_eq!(summary.runs.len(), 12);
        assert!(summary.incidents() >= 12, "every run records its incident");
        assert!(summary.comparisons() > 0);
    }
}

//! Campaign driver: generate, compile both sides under containment,
//! diff with the oracle, triage, reduce.
//!
//! For each campaign index a per-module seed is derived, a structured
//! module generated, and both a reference compile (`Variant::Baseline`,
//! no faults — the raw 32-bit module is not meaningful on the 64-bit
//! machine until conversion has inserted its extensions) and the compile
//! under test run inside `catch_unwind` containment. The two results are
//! then diffed by [`sxe_vm::differential_check`]. Any panic, refusal, or
//! behavioral divergence becomes a [`Failure`], deduplicated by
//! [`Triage`] and (optionally) handed to the [`reduce`](mod@crate::reduce)
//! minimizer with a "same signature still?" predicate.
//!
//! Modules are sharded over [`sxe_jit::shard::par_map`], which returns
//! results in campaign-index order and runs the exact sequential code
//! path at `threads == 1` — so a campaign's findings, and the reduced
//! reproducers (reduction is sequential after collection), are
//! byte-identical at any worker count.

use std::panic::{self, AssertUnwindSafe};

use sxe_core::Variant;
use sxe_ir::rng::XorShift;
use sxe_ir::{Module, Target};
use sxe_jit::{shard, CompileReport, Compiler, FaultPlan, PassStatus, Telemetry};
use sxe_vm::{differential_check, OracleConfig};

use crate::gen::{generate_module, GenConfig};
use crate::reduce::reduce;
use crate::triage::{signature_of, Failure, Finding, Side, Triage};

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of modules to generate and check.
    pub count: usize,
    /// Campaign seed; each module's seed is derived from it.
    pub seed: u64,
    /// Worker threads for the campaign shard (findings are identical at
    /// any value).
    pub threads: usize,
    /// Pipeline variant under test.
    pub variant: Variant,
    /// Execution target for compilation and the oracle.
    pub target: Target,
    /// Oracle settings (runs per function, fuel, argument seed).
    pub oracle: OracleConfig,
    /// Generator shape knobs.
    pub gen: GenConfig,
    /// Also inject one contained fault per module
    /// ([`FaultPlan::from_seed`] keyed by the module seed).
    pub chaos: bool,
    /// Plant a deterministic miscompile ([`FaultPlan::miscompile`]) in
    /// the compile under test — the self-test mode that proves the fuzzer
    /// can find, dedup, and minimize a real wrong-code bug. Takes
    /// precedence over `chaos`.
    pub plant: bool,
    /// Minimize each unique finding after the campaign.
    pub reduce: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            count: 256,
            seed: 0xfa22_5eed,
            threads: 1,
            variant: Variant::All,
            target: Target::Ia64,
            oracle: OracleConfig::default(),
            gen: GenConfig::default(),
            chaos: false,
            plant: false,
            reduce: true,
        }
    }
}

/// Derive the generator seed for campaign index `index`.
///
/// The index is diffused through a [`XorShift`] warm-up so neighbouring
/// indices produce unrelated modules; the mapping is the public replay
/// contract (`fuzz --module-seed` accepts its output).
#[must_use]
pub fn module_seed(campaign_seed: u64, index: usize) -> u64 {
    XorShift::new(campaign_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// What checking one module produced.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Oracle comparisons performed (0 when a compile already failed).
    pub comparisons: usize,
    /// The failure, if any.
    pub failure: Option<Failure>,
}

/// Run `f` inside a panic containment boundary, reporting the panic
/// payload as a string.
fn contained<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// The fault plan for the compile under test, if any.
fn plan_for(module_seed: u64, boundaries: u32, config: &FuzzConfig) -> Option<FaultPlan> {
    if config.plant {
        // Boundary 0 ("convert") always exists, and sabotage there
        // survives every later correct pass — semantic damage is not
        // structural damage, so nothing downstream repairs it.
        Some(FaultPlan::miscompile(module_seed, 0))
    } else if config.chaos {
        Some(FaultPlan::from_seed(module_seed, boundaries))
    } else {
        None
    }
}

/// The first contained incident in a report, if any — a boundary that
/// rolled back, ran out of budget, or carries an injection record.
fn first_incident(report: &CompileReport) -> Option<(String, String)> {
    report
        .records
        .iter()
        .find(|r| {
            r.injected.is_some() || !matches!(r.status, PassStatus::Ok | PassStatus::Skipped)
        })
        .map(|r| (r.pass.clone(), format!("{:?}", r.status)))
}

/// Compile `module` both ways and diff them.
///
/// `module_seed` keys the fault plan (if `chaos`/`plant` is on), so
/// re-checking a module under the same seed — as the reducer does —
/// reproduces the exact same compile.
pub fn check_module(module: &Module, module_seed: u64, config: &FuzzConfig) -> CheckOutcome {
    let none = |failure| CheckOutcome { comparisons: 0, failure: Some(failure) };
    // Containment is the harness doing its job, but on a campaign that
    // injects no faults an incident means a pass panicked or produced
    // unverifiable IR on generator-valid input — a real finding even
    // though behavior survived.
    let plain = !config.chaos && !config.plant;
    let reference = {
        let compiler = Compiler::builder(Variant::Baseline).target(config.target).build();
        match contained(|| compiler.try_compile(module)) {
            Err(message) => return none(Failure::Abort { side: Side::Baseline, message }),
            Ok(Err(e)) => {
                return none(Failure::Refused { side: Side::Baseline, error: e.to_string() })
            }
            Ok(Ok(c)) => {
                if plain {
                    if let Some((pass, status)) = first_incident(&c.report) {
                        return none(Failure::Contained { side: Side::Baseline, pass, status });
                    }
                }
                c.module
            }
        }
    };
    let plan = if config.chaos && !config.plant {
        // Chaos needs the boundary count; a dry compile under
        // containment supplies it.
        let dry = Compiler::builder(config.variant).target(config.target).build();
        match contained(|| dry.try_compile(module)) {
            Err(message) => return none(Failure::Abort { side: Side::Optimized, message }),
            Ok(Err(e)) => {
                return none(Failure::Refused { side: Side::Optimized, error: e.to_string() })
            }
            Ok(Ok(c)) => plan_for(module_seed, c.report.boundaries() as u32, config),
        }
    } else {
        plan_for(module_seed, 0, config)
    };
    let compiler = {
        let mut b = Compiler::builder(config.variant).target(config.target);
        if let Some(p) = plan {
            b = b.fault_plan(p);
        }
        b.build()
    };
    let optimized = match contained(|| compiler.try_compile(module)) {
        Err(message) => return none(Failure::Abort { side: Side::Optimized, message }),
        Ok(Err(e)) => {
            return none(Failure::Refused { side: Side::Optimized, error: e.to_string() })
        }
        Ok(Ok(c)) => {
            if plain {
                if let Some((pass, status)) = first_incident(&c.report) {
                    return none(Failure::Contained { side: Side::Optimized, pass, status });
                }
            }
            c.module
        }
    };
    match contained(|| differential_check(&reference, &optimized, config.target, &config.oracle)) {
        Err(message) => none(Failure::Abort {
            side: Side::Optimized,
            message: format!("oracle panicked: {message}"),
        }),
        Ok(Ok(n)) => CheckOutcome { comparisons: n, failure: None },
        Ok(Err(m)) => CheckOutcome { comparisons: 0, failure: Some(Failure::Mismatch(m)) },
    }
}

/// Aggregate result of a campaign.
#[derive(Debug)]
pub struct Campaign {
    /// Modules generated and checked.
    pub modules: usize,
    /// Total oracle comparisons that agreed.
    pub comparisons: usize,
    /// Total failing modules (before deduplication).
    pub failures: usize,
    /// Unique findings in stable signature order, reduced if requested.
    pub findings: Vec<Finding>,
}

/// Run a full campaign: generate/check `config.count` modules (sharded
/// over `config.threads` workers), triage the failures, and minimize one
/// exemplar per unique signature.
#[must_use]
pub fn run_campaign(config: &FuzzConfig, telemetry: &Telemetry) -> Campaign {
    let indices: Vec<usize> = (0..config.count).collect();
    let results = shard::par_map(&indices, config.threads, |_, &i| {
        let mseed = module_seed(config.seed, i);
        let module = generate_module(mseed, &config.gen);
        let outcome = check_module(&module, mseed, config);
        (i, mseed, module, outcome)
    });
    let mut triage = Triage::new();
    let mut comparisons = 0;
    let mut failures = 0;
    // `par_map` returns results in index order, so the exemplar kept per
    // signature (the first hit) does not depend on the worker count.
    for (i, mseed, module, outcome) in results {
        comparisons += outcome.comparisons;
        if let Some(f) = outcome.failure {
            failures += 1;
            triage.record(i, mseed, &module, &f);
        }
    }
    let mut reduced_steps = 0u64;
    if config.reduce {
        for finding in triage.findings_mut() {
            let target = finding.signature.clone();
            let mseed = finding.module_seed;
            let (min, stats) = reduce(&finding.module, |cand| {
                match check_module(cand, mseed, config).failure {
                    Some(f) => signature_of(&f) == target,
                    None => false,
                }
            });
            reduced_steps += stats.steps_accepted as u64;
            finding.reduced = Some(min);
        }
    }
    let campaign = Campaign {
        modules: config.count,
        comparisons,
        failures,
        findings: triage.into_findings(),
    };
    telemetry.metrics(|m| {
        m.add("fuzz.modules", campaign.modules as u64);
        m.add("fuzz.comparisons", campaign.comparisons as u64);
        m.add("fuzz.failures", campaign.failures as u64);
        m.add("fuzz.findings", campaign.findings.len() as u64);
        m.add("fuzz.reduce.accepted", reduced_steps);
    });
    campaign
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(count: usize) -> FuzzConfig {
        FuzzConfig {
            count,
            oracle: OracleConfig::new().runs(4),
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn module_seeds_are_diffused() {
        let a = module_seed(1, 0);
        let b = module_seed(1, 1);
        let c = module_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, module_seed(1, 0));
    }

    #[test]
    fn clean_campaign_finds_nothing() {
        let campaign = run_campaign(&quick(24), &Telemetry::disabled());
        assert_eq!(campaign.modules, 24);
        assert!(campaign.comparisons > 0, "oracle actually compared things");
        assert!(
            campaign.findings.is_empty(),
            "clean pipeline must have no findings: {:#?}",
            campaign.findings.iter().map(|f| &f.detail).collect::<Vec<_>>()
        );
    }

    #[test]
    fn planted_miscompile_is_found_deduped_and_reduced() {
        let config = FuzzConfig { plant: true, ..quick(8) };
        let campaign = run_campaign(&config, &Telemetry::disabled());
        assert!(campaign.failures > 0, "the plant must be detected");
        assert!(!campaign.findings.is_empty());
        assert!(
            campaign.findings.len() < campaign.failures || campaign.failures == 1,
            "triage dedups: {} failures, {} unique",
            campaign.failures,
            campaign.findings.len()
        );
        for finding in &campaign.findings {
            let min = finding.reduced.as_ref().expect("reduction ran");
            assert!(min.inst_count() <= finding.module.inst_count());
            // The minimized reproducer still fails with the same signature.
            let outcome = check_module(min, finding.module_seed, &config);
            let f = outcome.failure.expect("reduced module still fails");
            assert_eq!(signature_of(&f), finding.signature);
        }
        // At least one exemplar shrinks hard — the planted bug needs only
        // a constant flowing to an observation.
        assert!(
            campaign
                .findings
                .iter()
                .any(|f| f.reduced.as_ref().unwrap().inst_count() * 4 <= f.module.inst_count()),
            "some finding reduced to ≤25%: {:?}",
            campaign
                .findings
                .iter()
                .map(|f| (f.module.inst_count(), f.reduced.as_ref().unwrap().inst_count()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn campaigns_are_identical_at_any_thread_count() {
        let base = FuzzConfig { plant: true, reduce: false, ..quick(10) };
        let one = run_campaign(&base, &Telemetry::disabled());
        let four = run_campaign(&FuzzConfig { threads: 4, ..base }, &Telemetry::disabled());
        assert_eq!(one.comparisons, four.comparisons);
        assert_eq!(one.failures, four.failures);
        let key = |c: &Campaign| {
            c.findings
                .iter()
                .map(|f| (f.index, f.module_seed, f.signature.clone(), f.module.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&one), key(&four));
    }

    #[test]
    fn chaos_mode_stays_contained() {
        // Contained faults + recovery must never abort and never diverge.
        let config = FuzzConfig { chaos: true, reduce: false, ..quick(12) };
        let campaign = run_campaign(&config, &Telemetry::disabled());
        assert!(
            campaign.findings.is_empty(),
            "contained faults must not surface: {:#?}",
            campaign.findings.iter().map(|f| &f.detail).collect::<Vec<_>>()
        );
    }
}

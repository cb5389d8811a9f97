//! Differential oracle: execute two modules that are supposed to be
//! semantically identical — typically the conversion-only (baseline)
//! compile of a module and its fully optimized compile — on
//! deterministic pseudo-random inputs and compare every observable
//! outcome. (The *raw* 32-bit input module is only a valid reference
//! when it never lets a narrow value reach a 64-bit operation: on the
//! 64-bit machine model its upper bits are garbage until step 1 inserts
//! the sign extensions.)
//!
//! This is the last line of defense behind the compile pipeline's
//! verification gates: a gate proves structural well-formedness, the
//! oracle checks *behavior*. The fault-injection (chaos) suite runs it
//! after every injected-fault recovery to prove rollback never ships a
//! miscompiled module.
//!
//! Comparison rules:
//! * both runs complete → return value (truncated to the declared return
//!   width — upper bits of a narrow result are garbage under the machine
//!   model) **and** heap checksum must match;
//! * both runs trap → the [`TrapKind`]s must match (the trap *location*
//!   is never compared — eliminating extensions legitimately moves it);
//! * either run traps [`TrapKind::ResourceExhausted`] → the comparison is
//!   skipped: the two modules execute different instruction counts by
//!   design, so fuel runs out at different points.

use sxe_ir::hash::{fnv1a, FNV_OFFSET};
use sxe_ir::rng::XorShift;
use sxe_ir::{Module, Target, TrapKind, Ty};

use crate::counters::Counters;
use crate::machine::Outcome;
use crate::vm::{Engine, Vm, VmError};

/// Configuration for one oracle sweep.
///
/// `#[non_exhaustive]` with builder-style setters, so growing a new knob
/// (as [`OracleConfig::engine`] did) is never a breaking change:
///
/// ```
/// use sxe_vm::{Engine, OracleConfig};
/// let config = OracleConfig::new().runs(8).fuel(500_000).engine(Engine::Tree);
/// assert_eq!(config.runs, 8);
/// ```
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct OracleConfig {
    /// Pseudo-random argument sets per function.
    pub runs: usize,
    /// Interpreter fuel per run (both sides get the same tank).
    pub fuel: u64,
    /// Seed for the argument generator.
    pub seed: u64,
    /// Engine both sides execute on (decoded by default — the sweep's
    /// throughput comes from decoding each module once and resetting the
    /// VM between runs).
    pub engine: Engine,
    /// Engine for the *right* side only, overriding [`OracleConfig::engine`]
    /// when set. This turns the oracle into a cross-engine differential
    /// harness — e.g. decoded on the left, [`Engine::Native`] on the
    /// right — reusing the same comparison and replay machinery.
    pub engine_right: Option<Engine>,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            runs: 16,
            fuel: 2_000_000,
            seed: 0xd1ff_5eed,
            engine: Engine::Decoded,
            engine_right: None,
        }
    }
}

impl OracleConfig {
    /// The default configuration (alias of [`OracleConfig::default`],
    /// reads better at the head of a builder chain).
    #[must_use]
    pub fn new() -> OracleConfig {
        OracleConfig::default()
    }

    /// Set the number of argument sets per function.
    #[must_use]
    pub fn runs(mut self, runs: usize) -> OracleConfig {
        self.runs = runs;
        self
    }

    /// Set the per-run fuel tank.
    #[must_use]
    pub fn fuel(mut self, fuel: u64) -> OracleConfig {
        self.fuel = fuel;
        self
    }

    /// Set the argument-generator seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> OracleConfig {
        self.seed = seed;
        self
    }

    /// Set the execution engine.
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> OracleConfig {
        self.engine = engine;
        self
    }

    /// Set a different engine for the right side only (cross-engine
    /// differential mode).
    #[must_use]
    pub fn engine_right(mut self, engine: Engine) -> OracleConfig {
        self.engine_right = Some(engine);
        self
    }
}

/// A behavioral divergence found by the oracle.
///
/// Carries the oracle seed and run index the diverging argument set was
/// derived from, so the single divergent run can be replayed standalone
/// with [`differential_replay`] — no need to re-run the whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Function that diverged.
    pub function: String,
    /// Arguments it was called with.
    pub args: Vec<i64>,
    /// Outcome on the left (original) module.
    pub left: String,
    /// Outcome on the right (compiled) module.
    pub right: String,
    /// Oracle seed ([`OracleConfig::seed`]) the sweep ran under.
    pub seed: u64,
    /// Zero-based run index within this function's sweep.
    pub run: usize,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "@{}({:?}): left = {}, right = {} [oracle seed {:#x} run {}]",
            self.function, self.args, self.left, self.right, self.seed, self.run
        )
    }
}

/// Everything one run of a module exposes. Two engines are observably
/// identical on a run when these compare equal.
///
/// The trap *location* is deliberately absent: engines may attribute a
/// trap to different instructions (superinstruction fusion, native
/// accounting segments), so traps are compared by [`TrapKind`] only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// `Ok((ret, heap_checksum))` or the trap kind (`None` for non-trap
    /// errors like arity mismatches, which carry no kind).
    pub result: Result<(Option<i64>, u64), Option<TrapKind>>,
    /// Dynamic counters at the end of the run.
    pub counters: Counters,
    /// Fuel left in the tank.
    pub fuel_remaining: u64,
}

impl Observation {
    /// Record what `vm` exposes after it produced `run`, its latest run.
    #[must_use]
    pub fn of(vm: &Vm, run: &Result<Outcome, VmError>) -> Observation {
        let result = match run {
            Ok(out) => Ok((out.ret, out.heap_checksum)),
            Err(e) => Err(e.trap_kind()),
        };
        Observation { result, counters: vm.counters().clone(), fuel_remaining: vm.fuel_remaining() }
    }

    /// Whether the run ran out of fuel.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.result == Err(Some(TrapKind::ResourceExhausted))
    }
}

/// Run `entry(args)` of `m` once on a fresh VM with the given engine and
/// fuel tank, and record everything the run exposes.
#[must_use]
pub fn observe(
    m: &Module,
    target: Target,
    engine: Engine,
    fuel: u64,
    entry: &str,
    args: &[i64],
) -> Observation {
    let mut vm = Vm::builder(m).target(target).engine(engine).fuel(fuel).build();
    let run = vm.run(entry, args);
    Observation::of(&vm, &run)
}

enum RunResult {
    Done { ret: Option<i64>, heap: u64 },
    Trapped(TrapKind),
}

impl RunResult {
    fn describe(&self) -> String {
        match self {
            RunResult::Done { ret, heap } => format!("ret={ret:?} heap={heap:#x}"),
            RunResult::Trapped(kind) => format!("trap({kind})"),
        }
    }
}

/// Truncate a returned value to the function's declared return width.
/// Under the machine model the upper bits of a narrow result are garbage;
/// an unconverted module and its compiled form legitimately disagree on
/// them, so only the declared bits are observable.
fn canonical_ret(ret: Option<i64>, ty: Option<Ty>) -> Option<i64> {
    match (ret, ty) {
        (Some(v), Some(Ty::I8)) => Some(i64::from(v as i8)),
        (Some(v), Some(Ty::I16)) => Some(i64::from(v as i16)),
        (Some(v), Some(Ty::I32)) => Some(i64::from(v as i32)),
        _ => ret,
    }
}

/// Build one side's VM for a sweep: decode (for the decoded engine)
/// happens here, once; every run then goes through [`Vm::reset`].
fn sweep_vm<'m>(m: &'m Module, target: Target, config: &OracleConfig, right: bool) -> Vm<'m> {
    let engine = if right { config.engine_right.unwrap_or(config.engine) } else { config.engine };
    Vm::builder(m).target(target).engine(engine).fuel(config.fuel).build()
}

fn run_once(vm: &mut Vm, name: &str, args: &[i64], ret_ty: Option<Ty>) -> RunResult {
    vm.reset();
    match vm.run(name, args) {
        Ok(out) => {
            RunResult::Done { ret: canonical_ret(out.ret, ret_ty), heap: out.heap_checksum }
        }
        Err(VmError::Trap(trap)) => RunResult::Trapped(trap.kind),
        Err(e) => unreachable!("oracle pre-checks name and arity: {e}"),
    }
}

/// Small-biased argument sampling: array-shaped workloads want small
/// non-negative sizes most of the time, with the occasional negative or
/// boundary value to exercise the trap paths.
fn sample_arg(rng: &mut XorShift) -> i64 {
    match rng.below(8) {
        0 => 0,
        1 => -1,
        2 => rng.range_i64(-8, 8),
        _ => rng.range_i64(0, 48),
    }
}

/// The deterministic argument set the oracle uses for (`function`,
/// `run`) under `config.seed`. Derivable without replaying any earlier
/// function or run — this is what makes a [`Mismatch`] (which carries
/// `seed` and `run`) a standalone reproducer.
#[must_use]
pub fn oracle_args(config: &OracleConfig, function: &str, arity: usize, run: usize) -> Vec<i64> {
    let mut rng = XorShift::new(
        config.seed
            ^ fnv1a(FNV_OFFSET, function.as_bytes())
            ^ (run as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    (0..arity).map(|_| sample_arg(&mut rng)).collect()
}

/// Did one `(function, run)` comparison agree, or was it skipped?
enum RunVerdict {
    Agree,
    Skipped,
}

/// Run one `(function, run)` comparison; `lf` comes from the left
/// module (`lvm`'s).
fn compare_one(
    lvm: &mut Vm,
    rvm: &mut Vm,
    config: &OracleConfig,
    lf: &sxe_ir::Function,
    run: usize,
) -> Result<RunVerdict, Mismatch> {
    let args = oracle_args(config, &lf.name, lf.params.len(), run);
    let l = run_once(lvm, &lf.name, &args, lf.ret);
    let r = run_once(rvm, &lf.name, &args, lf.ret);
    if matches!(l, RunResult::Trapped(TrapKind::ResourceExhausted))
        || matches!(r, RunResult::Trapped(TrapKind::ResourceExhausted))
    {
        return Ok(RunVerdict::Skipped);
    }
    let agree = match (&l, &r) {
        (RunResult::Done { ret: lr, heap: lh }, RunResult::Done { ret: rr, heap: rh }) => {
            lr == rr && lh == rh
        }
        (RunResult::Trapped(lk), RunResult::Trapped(rk)) => lk == rk,
        _ => false,
    };
    if agree {
        Ok(RunVerdict::Agree)
    } else {
        Err(Mismatch {
            function: lf.name.clone(),
            args,
            left: l.describe(),
            right: r.describe(),
            seed: config.seed,
            run,
        })
    }
}

/// Compare `left` (reference) and `right` (optimized) on every function
/// both modules share by name, over `config.runs` deterministic argument
/// sets each. Argument sets are derived per `(function, run)` — not from
/// one rolling stream — so any single run replays standalone via
/// [`differential_replay`].
///
/// Returns the number of comparisons actually performed (skipped
/// resource-exhausted runs do not count).
///
/// # Errors
/// The first [`Mismatch`] found.
pub fn differential_check(
    left: &Module,
    right: &Module,
    target: Target,
    config: &OracleConfig,
) -> Result<usize, Mismatch> {
    let mut lvm = sweep_vm(left, target, config, false);
    let mut rvm = sweep_vm(right, target, config, true);
    let mut compared = 0;
    for (_, lf) in left.iter() {
        let Some(rid) = right.function_by_name(&lf.name) else { continue };
        if right.function(rid).params.len() != lf.params.len() {
            continue;
        }
        for run in 0..config.runs {
            if matches!(
                compare_one(&mut lvm, &mut rvm, config, lf, run)?,
                RunVerdict::Agree
            ) {
                compared += 1;
            }
        }
    }
    Ok(compared)
}

/// Replay one `(function, run)` comparison from an earlier sweep, as
/// carried by [`Mismatch::seed`] / [`Mismatch::run`] (put the seed back
/// into `config.seed`).
///
/// Returns `Ok(true)` when the comparison ran and agreed, `Ok(false)`
/// when it was skipped (unknown function, arity mismatch, or resource
/// exhaustion on either side).
///
/// # Errors
/// The reproduced [`Mismatch`].
pub fn differential_replay(
    left: &Module,
    right: &Module,
    target: Target,
    config: &OracleConfig,
    function: &str,
    run: usize,
) -> Result<bool, Mismatch> {
    let Some(lid) = left.function_by_name(function) else { return Ok(false) };
    let lf = left.function(lid);
    let Some(rid) = right.function_by_name(function) else { return Ok(false) };
    if right.function(rid).params.len() != lf.params.len() {
        return Ok(false);
    }
    let mut lvm = sweep_vm(left, target, config, false);
    let mut rvm = sweep_vm(right, target, config, true);
    match compare_one(&mut lvm, &mut rvm, config, lf, run)? {
        RunVerdict::Agree => Ok(true),
        RunVerdict::Skipped => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::parse_module;

    const GOOD: &str = "\
func @main(i32) -> i32 {
b0:
    r1 = const.i32 3
    r2 = mul.i32 r0, r1
    ret r2
}
";

    #[test]
    fn identical_modules_agree() {
        let m = parse_module(GOOD).unwrap();
        let n = differential_check(&m, &m.clone(), Target::Ia64, &OracleConfig::default())
            .expect("no mismatch");
        assert!(n > 0);
    }

    #[test]
    fn a_miscompile_is_caught() {
        let left = parse_module(GOOD).unwrap();
        // "Optimized" module that multiplies by 4 instead of 3.
        let right = parse_module(&GOOD.replace("const.i32 3", "const.i32 4")).unwrap();
        let err = differential_check(&left, &right, Target::Ia64, &OracleConfig::default())
            .expect_err("must diverge");
        assert_eq!(err.function, "main");
    }

    #[test]
    fn trap_kind_divergence_is_caught() {
        let left = parse_module(
            "func @main(i32) -> i32 {\n\
             b0:\n    r1 = newarray.i32 r0\n    r2 = const.i32 0\n    r3 = aload.i32 r1, r2\n    ret r3\n}\n",
        )
        .unwrap();
        // Drops the allocation: wild address instead of index trap.
        let right = parse_module(
            "func @main(i32) -> i32 {\n\
             b0:\n    r2 = const.i32 0\n    r3 = aload.i32 r2, r2\n    ret r3\n}\n",
        )
        .unwrap();
        let err = differential_check(&left, &right, Target::Ia64, &OracleConfig::default())
            .expect_err("must diverge");
        assert!(err.left != err.right);
    }

    #[test]
    fn a_mismatch_replays_standalone() {
        let left = parse_module(GOOD).unwrap();
        let right = parse_module(&GOOD.replace("const.i32 3", "const.i32 4")).unwrap();
        let config = OracleConfig::default();
        let err = differential_check(&left, &right, Target::Ia64, &config)
            .expect_err("must diverge");
        assert_eq!(err.seed, config.seed);
        // Replaying exactly (function, run) reproduces the same mismatch
        // without re-running the rest of the sweep.
        let replayed =
            differential_replay(&left, &right, Target::Ia64, &config, &err.function, err.run)
                .expect_err("replay must reproduce the divergence");
        assert_eq!(replayed, err);
        // And the argument derivation is position-independent.
        assert_eq!(oracle_args(&config, &err.function, err.args.len(), err.run), err.args);
    }

    #[test]
    fn replay_of_agreeing_run_is_ok() {
        let m = parse_module(GOOD).unwrap();
        let config = OracleConfig::default();
        assert_eq!(
            differential_replay(&m, &m.clone(), Target::Ia64, &config, "main", 0),
            Ok(true)
        );
        assert_eq!(
            differential_replay(&m, &m.clone(), Target::Ia64, &config, "nope", 0),
            Ok(false)
        );
    }

    #[test]
    fn engines_agree_in_the_oracle() {
        let m = parse_module(GOOD).unwrap();
        let decoded = differential_check(
            &m,
            &m.clone(),
            Target::Ia64,
            &OracleConfig::new().engine(Engine::Decoded),
        );
        let tree = differential_check(
            &m,
            &m.clone(),
            Target::Ia64,
            &OracleConfig::new().engine(Engine::Tree),
        );
        assert_eq!(decoded, tree);
        assert!(decoded.is_ok_and(|n| n > 0));
    }

    #[test]
    fn cross_engine_mode_runs_native_on_the_right() {
        let m = parse_module(GOOD).unwrap();
        let config = OracleConfig::new().engine_right(Engine::Native);
        let n = differential_check(&m, &m.clone(), Target::Ia64, &config)
            .expect("decoded and native must agree");
        assert!(n > 0);
        // A genuine miscompile is still caught across engines.
        let bad = parse_module(&GOOD.replace("const.i32 3", "const.i32 4")).unwrap();
        assert!(differential_check(&m, &bad, Target::Ia64, &config).is_err());
    }

    #[test]
    fn deterministic_across_calls() {
        let m = parse_module(GOOD).unwrap();
        let a = differential_check(&m, &m.clone(), Target::Ia64, &OracleConfig::default());
        let b = differential_check(&m, &m.clone(), Target::Ia64, &OracleConfig::default());
        assert_eq!(a, b);
    }
}

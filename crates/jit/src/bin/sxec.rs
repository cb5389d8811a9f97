//! `sxec` — compile textual IR files through the sign-extension
//! elimination pipeline.
//!
//! ```text
//! sxec [options] <input.sxe>
//! sxec [options] --workload <name>
//!   --variant <name>     baseline|gen-use|first|basic|insert|order|
//!                        insert-order|array|array-insert|array-order|
//!                        all-pde|all          (default: all)
//!   --target <t>         ia64|ppc64|mips64    (default: ia64)
//!   --max-array-len <n>  Theorem 4 bound      (default: 2147483647)
//!   --workload <name>    compile a built-in benchmark kernel (e.g.
//!                        "numeric sort") instead of an input file
//!   --size <n>           workload size (default: the workload's own)
//!   --run <entry>        run entry() after compiling and print the result
//!   --arg <n>            argument for --run (repeatable)
//!   --vm <engine>        decoded|tree|native — engine for --run and the
//!                        chaos oracle (default: decoded; all three are
//!                        observably identical, tree is the reference,
//!                        native JITs to x86-64 machine code)
//!   --no-fallback        with --vm native: refuse to run (exit 4) if any
//!                        function cannot be natively compiled, instead
//!                        of silently falling back to the decoded engine
//!   --vm-fuel <n>        instruction budget for --run (default: 4e9)
//!   --budget <fuel>      compile budget in fuel units (default: unlimited)
//!   --timeout <ms>       wall-clock compile budget in milliseconds
//!                        (default: unlimited; maps onto the same
//!                        interior-atomic Budget as --budget)
//!   --threads <n>        worker threads for sharded compilation (default: 1)
//!   --no-cache           run on a pass-through analysis cache (every
//!                        query computes; same output)
//!   --chaos-seed <n>     inject one deterministic fault derived from n,
//!                        then check the result with the differential
//!                        oracle against the unoptimized module
//!   --trace <file>       write a Chrome trace-event JSON (load it at
//!                        https://ui.perfetto.dev) of the compile
//!   --metrics <file>     write the metrics registry as flat JSON
//!   --report             print the per-pass compile report
//!   --stats              print elimination statistics
//!   --no-emit            suppress printing the compiled module
//! ```
//!
//! Exit codes are typed so harnesses can tell failure classes apart:
//! `0` success, `1` runtime failure (trap, oracle mismatch, output I/O),
//! `2` usage error, `3` input error (missing/unparseable module or
//! workload), `4` compile refused (verify error or exhausted budget) —
//! see the table in README.md. Flags parse through
//! [`sxe_jit::cmdline::Args`], so `--help` exits 0 and seeds take decimal
//! or `0x` hex.
//!
//! Reads the module, compiles it, prints the optimized IR to stdout.
//! `--trace`/`--metrics` enable the telemetry sink for the main compile
//! only (a `--chaos-seed` dry run stays untraced, so metrics reconcile
//! with the reported stats); `--run` execution counters are folded into
//! the same registry as `vm.*` metrics.

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Duration;

use sxe_core::Variant;
use sxe_ir::Target;
use sxe_jit::cmdline::{Args, ReproCmd};
use sxe_jit::{Compiled, Compiler, FaultPlan, Telemetry};
use sxe_vm::{differential_check, Engine, OracleConfig, Vm, VmError};

/// Runtime failure: a trap, an oracle mismatch, or output I/O.
const EXIT_RUNTIME: u8 = 1;
/// Input error: missing or unparseable module, unknown workload.
const EXIT_INPUT: u8 = 3;
/// The compiler refused the input (verify error, exhausted budget).
const EXIT_REFUSED: u8 = 4;

const USAGE: &str = "usage: sxec [--variant V] [--target ia64|ppc64|mips64] [--max-array-len N] \
     [--workload NAME] [--size N] \
     [--run ENTRY] [--arg N]... [--vm decoded|tree|native] [--no-fallback] \
     [--vm-fuel N] \
     [--budget FUEL] [--timeout MS] [--threads N] [--no-cache] \
     [--chaos-seed N] [--oracle-runs N] [--oracle-fuel N] [--oracle-seed N] \
     [--trace FILE] [--metrics FILE] \
     [--report] [--stats] [--no-emit] <input.sxe>";

/// The exact one-line command that reproduces a chaos-oracle finding:
/// same input, variant, target, chaos seed, and (pinned) oracle config.
fn repro_command(opts: &Options, seed: u64) -> ReproCmd {
    let mut c = ReproCmd::new("sxe-jit", "sxec");
    if opts.variant != Variant::All {
        c = c.opt("--variant", opts.variant.name());
    }
    if opts.target != Target::default() {
        c = c.opt("--target", opts.target);
    }
    if let Some(w) = &opts.workload {
        c = c.opt("--workload", w);
        if let Some(s) = opts.size {
            c = c.opt("--size", s);
        }
    }
    if let Some(b) = opts.budget {
        c = c.opt("--budget", b);
    }
    if let Some(t) = opts.timeout_ms {
        c = c.opt("--timeout", t);
    }
    if opts.threads != 1 {
        c = c.opt("--threads", opts.threads);
    }
    if !opts.cache {
        c = c.arg("--no-cache");
    }
    c = c.opt("--chaos-seed", seed);
    if opts.engine != Engine::default() {
        c = c.opt("--vm", opts.engine);
    }
    c = c
        .opt("--oracle-runs", opts.oracle.runs)
        .opt("--oracle-fuel", opts.oracle.fuel)
        .opt("--oracle-seed", opts.oracle.seed)
        .arg("--no-emit");
    if opts.workload.is_none() {
        c = c.arg(&opts.input);
    }
    c
}

struct Options {
    input: String,
    variant: Variant,
    target: Target,
    max_array_len: u32,
    workload: Option<String>,
    size: Option<u32>,
    run: Option<String>,
    args: Vec<i64>,
    engine: Engine,
    fallback: bool,
    vm_fuel: Option<u64>,
    budget: Option<u64>,
    timeout_ms: Option<u64>,
    threads: usize,
    cache: bool,
    chaos_seed: Option<u64>,
    /// The chaos oracle's runs, fuel and seed; its engine is `engine`.
    oracle: OracleConfig,
    trace: Option<String>,
    metrics: Option<String>,
    report: bool,
    stats: bool,
    emit: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        input: String::new(),
        variant: Variant::All,
        target: Target::Ia64,
        max_array_len: 0x7fff_ffff,
        workload: None,
        size: None,
        run: None,
        args: Vec::new(),
        engine: Engine::default(),
        fallback: true,
        vm_fuel: None,
        budget: None,
        timeout_ms: None,
        threads: 1,
        cache: true,
        chaos_seed: None,
        oracle: OracleConfig::default(),
        trace: None,
        metrics: None,
        report: false,
        stats: false,
        emit: true,
    };
    let mut oracle_flags = false;
    let mut args = Args::from_env("sxec", USAGE);
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--variant" => opts.variant = args.value(),
            "--target" => opts.target = args.value(),
            "--max-array-len" => opts.max_array_len = args.value(),
            "--workload" => opts.workload = Some(args.value()),
            "--size" => opts.size = Some(args.value()),
            "--run" => opts.run = Some(args.value()),
            "--arg" => opts.args.push(args.value()),
            "--vm" => opts.engine = args.value(),
            "--no-fallback" => opts.fallback = false,
            "--vm-fuel" => opts.vm_fuel = Some(args.value()),
            "--budget" => opts.budget = Some(args.value()),
            "--timeout" => opts.timeout_ms = Some(args.value()),
            "--threads" => opts.threads = args.value::<NonZeroUsize>().get(),
            "--no-cache" => opts.cache = false,
            "--chaos-seed" => opts.chaos_seed = Some(args.seed()),
            "--oracle-runs" => (opts.oracle.runs, oracle_flags) = (args.value(), true),
            "--oracle-fuel" => (opts.oracle.fuel, oracle_flags) = (args.value(), true),
            "--oracle-seed" => (opts.oracle.seed, oracle_flags) = (args.seed(), true),
            "--trace" => opts.trace = Some(args.value()),
            "--metrics" => opts.metrics = Some(args.value()),
            "--report" => opts.report = true,
            "--stats" => opts.stats = true,
            "--no-emit" => opts.emit = false,
            "--help" | "-h" => args.help(),
            _ if !arg.starts_with('-') && opts.input.is_empty() => opts.input = arg,
            _ => args.unexpected(),
        }
    }
    match (&opts.workload, opts.input.is_empty()) {
        (None, true) => args.fail("give an input file or --workload"),
        (Some(_), false) => args.fail("give either an input file or --workload, not both"),
        _ => {}
    }
    if opts.size.is_some() && opts.workload.is_none() {
        args.fail("--size only makes sense with --workload");
    }
    if !opts.fallback && opts.engine != Engine::Native {
        args.fail("--no-fallback only makes sense with --vm native");
    }
    if oracle_flags && opts.chaos_seed.is_none() {
        args.fail("--oracle-* flags only make sense with --chaos-seed");
    }
    opts.oracle.engine = opts.engine;
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let module = if let Some(name) = &opts.workload {
        match sxe_workloads::by_name(name) {
            Some(w) => w.build(opts.size.unwrap_or(w.default_size)),
            None => {
                let known: Vec<_> = sxe_workloads::all().iter().map(|w| w.name).collect();
                eprintln!("sxec: unknown workload `{name}`; known: {}", known.join(", "));
                return ExitCode::from(EXIT_INPUT);
            }
        }
    } else {
        let text = match std::fs::read_to_string(&opts.input) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sxec: cannot read {}: {e}", opts.input);
                return ExitCode::from(EXIT_INPUT);
            }
        };
        match sxe_ir::parse_module(&text) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("sxec: parse error in {}: {e}", opts.input);
                return ExitCode::from(EXIT_INPUT);
            }
        }
    };
    let mut compiler = Compiler::builder(opts.variant)
        .target(opts.target)
        .budget(opts.budget, opts.timeout_ms.map(Duration::from_millis))
        .threads(opts.threads)
        .cache(opts.cache)
        .build();
    compiler.sxe.max_array_len = opts.max_array_len;
    let try_compile = |compiler: &Compiler| -> Result<Compiled, ExitCode> {
        compiler.try_compile(&module).map_err(|e| {
            eprintln!("sxec: compile refused: {e}");
            ExitCode::from(EXIT_REFUSED)
        })
    };
    if let Some(seed) = opts.chaos_seed {
        // Boundary count comes from a fault-free dry run of the same
        // module; the plan then lands inside the real range.
        let dry = match try_compile(&compiler) {
            Ok(c) => c,
            Err(code) => return code,
        };
        let plan = FaultPlan::from_seed(seed, dry.report.boundaries() as u32);
        compiler.fault_plan = Some(plan);
    }
    // Attach the sink only now, so a chaos dry run above is not traced
    // and the exported metrics cover exactly one compile.
    if opts.trace.is_some() || opts.metrics.is_some() {
        compiler.telemetry = Telemetry::enabled();
    }
    let compiled = match try_compile(&compiler) {
        Ok(c) => c,
        Err(code) => return code,
    };

    if opts.report || opts.chaos_seed.is_some() {
        eprint!("sxec: {}", compiled.report.summary());
    }
    if let Some(seed) = opts.chaos_seed {
        // Oracle reference: the conversion-only (Baseline) compile — the
        // raw module is not meaningful on the 64-bit machine model until
        // step 1 has inserted its sign extensions.
        let baseline = Compiler::builder(Variant::Baseline).target(opts.target).build();
        let reference = match try_compile(&baseline) {
            Ok(c) => c.module,
            Err(code) => return code,
        };
        match differential_check(&reference, &compiled.module, opts.target, &opts.oracle) {
            Ok(n) => eprintln!("sxec: oracle agreed on {n} comparisons"),
            Err(m) => {
                eprintln!("sxec: ORACLE MISMATCH: {m}");
                eprintln!("sxec: repro: {}", repro_command(&opts, seed));
                return ExitCode::from(EXIT_RUNTIME);
            }
        }
    }
    if opts.emit {
        print!("{}", compiled.module);
    }
    if opts.stats {
        let s = compiled.stats;
        eprintln!(
            "sxec: generated {} extensions, inserted {}, examined {}, \
             eliminated {} ({} via array theorems); {} remain",
            s.generated,
            s.inserted,
            s.examined,
            s.eliminated,
            s.eliminated_via_array,
            compiled.module.count_extends(None)
        );
    }
    if let Some(entry) = opts.run {
        let mut builder = Vm::builder(&compiled.module)
            .target(opts.target)
            .engine(opts.engine);
        if let Some(fuel) = opts.vm_fuel {
            builder = builder.fuel(fuel);
        }
        let mut vm = builder.build();
        if !opts.fallback {
            let refusals = vm.native_refusals();
            if !refusals.is_empty() {
                eprintln!(
                    "sxec: native compilation refused for {} function(s) \
                     and --no-fallback is set:",
                    refusals.len()
                );
                for (name, why) in &refusals {
                    eprintln!("sxec:   @{name}: {why}");
                }
                return ExitCode::from(EXIT_REFUSED);
            }
        }
        match vm.run(&entry, &opts.args) {
            Ok(out) => {
                eprintln!(
                    "sxec: {entry}(...) = {:?}   [{} insts, {} extends executed, {} engine]",
                    out.ret,
                    vm.counters().insts,
                    vm.counters().extend_count(None),
                    vm.engine()
                );
                compiler.telemetry.metrics(|m| vm.counters().record_into(m));
            }
            Err(e @ (VmError::UnknownFunction { .. } | VmError::ArityMismatch { .. })) => {
                eprintln!("sxec: cannot run {entry}: {e}");
                return ExitCode::from(EXIT_INPUT);
            }
            Err(e) => {
                eprintln!("sxec: {entry} trapped: {e}");
                return ExitCode::from(EXIT_RUNTIME);
            }
        }
    }
    if let Some(path) = &opts.trace {
        if let Err(e) = std::fs::write(path, compiler.telemetry.chrome_trace()) {
            eprintln!("sxec: cannot write {path}: {e}");
            return ExitCode::from(EXIT_RUNTIME);
        }
    }
    if let Some(path) = &opts.metrics {
        if let Err(e) = std::fs::write(path, compiler.telemetry.metrics_json()) {
            eprintln!("sxec: cannot write {path}: {e}");
            return ExitCode::from(EXIT_RUNTIME);
        }
    }
    ExitCode::SUCCESS
}

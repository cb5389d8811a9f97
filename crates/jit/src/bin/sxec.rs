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
//! see the table in README.md.
//!
//! Reads the module, compiles it, prints the optimized IR to stdout.
//! `--trace`/`--metrics` enable the telemetry sink for the main compile
//! only (a `--chaos-seed` dry run stays untraced, so metrics reconcile
//! with the reported stats); `--run` execution counters are folded into
//! the same registry as `vm.*` metrics.

use std::process::ExitCode;
use std::time::Duration;

use sxe_core::Variant;
use sxe_ir::Target;
use sxe_jit::{Compiled, Compiler, FaultPlan, Telemetry};
use sxe_vm::{differential_check, Engine, OracleConfig, Vm, VmError};

/// Runtime failure: a trap, an oracle mismatch, or output I/O.
const EXIT_RUNTIME: u8 = 1;
/// Usage error (bad flags).
const EXIT_USAGE: u8 = 2;
/// Input error: missing or unparseable module, unknown workload.
const EXIT_INPUT: u8 = 3;
/// The compiler refused the input (verify error, exhausted budget).
const EXIT_REFUSED: u8 = 4;

fn parse_variant(s: &str) -> Option<Variant> {
    Some(match s {
        "baseline" => Variant::Baseline,
        "gen-use" => Variant::GenUse,
        "first" => Variant::FirstAlgorithm,
        "basic" => Variant::BasicUdDu,
        "insert" => Variant::Insert,
        "order" => Variant::Order,
        "insert-order" => Variant::InsertOrder,
        "array" => Variant::Array,
        "array-insert" => Variant::ArrayInsert,
        "array-order" => Variant::ArrayOrder,
        "all-pde" => Variant::AllPde,
        "all" => Variant::All,
        _ => return None,
    })
}

/// Inverse of [`parse_variant`], for reconstructing a repro command.
fn variant_flag(v: Variant) -> &'static str {
    match v {
        Variant::Baseline => "baseline",
        Variant::GenUse => "gen-use",
        Variant::FirstAlgorithm => "first",
        Variant::BasicUdDu => "basic",
        Variant::Insert => "insert",
        Variant::Order => "order",
        Variant::InsertOrder => "insert-order",
        Variant::Array => "array",
        Variant::ArrayInsert => "array-insert",
        Variant::ArrayOrder => "array-order",
        Variant::AllPde => "all-pde",
        Variant::All => "all",
    }
}

/// The exact one-line command that reproduces a chaos-oracle finding:
/// same input, variant, target, chaos seed, and (pinned) oracle config.
fn repro_command(opts: &Options, oracle: &OracleConfig) -> String {
    use std::fmt::Write as _;
    let mut c = String::from("cargo run --release -p sxe-jit --bin sxec --");
    if opts.variant != Variant::All {
        let _ = write!(c, " --variant {}", variant_flag(opts.variant));
    }
    if opts.target != Target::default() {
        let _ = write!(c, " --target {}", opts.target);
    }
    if let Some(w) = &opts.workload {
        let _ = write!(c, " --workload {w}");
        if let Some(s) = opts.size {
            let _ = write!(c, " --size {s}");
        }
    }
    if let Some(b) = opts.budget {
        let _ = write!(c, " --budget {b}");
    }
    if let Some(t) = opts.timeout_ms {
        let _ = write!(c, " --timeout {t}");
    }
    if opts.threads != 1 {
        let _ = write!(c, " --threads {}", opts.threads);
    }
    if !opts.cache {
        c.push_str(" --no-cache");
    }
    if let Some(seed) = opts.chaos_seed {
        let _ = write!(c, " --chaos-seed {seed}");
    }
    if oracle.engine != Engine::default() {
        let _ = write!(c, " --vm {}", oracle.engine);
    }
    let _ = write!(
        c,
        " --oracle-runs {} --oracle-fuel {} --oracle-seed {} --no-emit",
        oracle.runs, oracle.fuel, oracle.seed
    );
    if opts.workload.is_none() {
        let _ = write!(c, " {}", opts.input);
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
    oracle_runs: Option<usize>,
    oracle_fuel: Option<u64>,
    oracle_seed: Option<u64>,
    trace: Option<String>,
    metrics: Option<String>,
    report: bool,
    stats: bool,
    emit: bool,
}

fn usage() -> &'static str {
    "usage: sxec [--variant V] [--target ia64|ppc64|mips64] [--max-array-len N] \
     [--workload NAME] [--size N] \
     [--run ENTRY] [--arg N]... [--vm decoded|tree|native] [--no-fallback] \
     [--vm-fuel N] \
     [--budget FUEL] [--timeout MS] [--threads N] [--no-cache] \
     [--chaos-seed N] [--oracle-runs N] [--oracle-fuel N] [--oracle-seed N] \
     [--trace FILE] [--metrics FILE] \
     [--report] [--stats] [--no-emit] <input.sxe>"
}

fn parse_args() -> Result<Options, String> {
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
        oracle_runs: None,
        oracle_fuel: None,
        oracle_seed: None,
        trace: None,
        metrics: None,
        report: false,
        stats: false,
        emit: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--variant" => {
                let v = it.next().ok_or("--variant needs a value")?;
                opts.variant =
                    parse_variant(&v).ok_or_else(|| format!("unknown variant `{v}`"))?;
            }
            "--target" => {
                opts.target = match it.next().as_deref() {
                    Some(s) => s.parse::<Target>()?,
                    None => return Err("--target needs a value".to_string()),
                };
            }
            "--max-array-len" => {
                opts.max_array_len = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--max-array-len needs a number")?;
            }
            "--workload" => {
                opts.workload = Some(it.next().ok_or("--workload needs a name")?);
            }
            "--size" => {
                opts.size = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--size needs a number")?,
                );
            }
            "--run" => opts.run = Some(it.next().ok_or("--run needs an entry name")?),
            "--vm" => {
                let v = it.next().ok_or("--vm needs an engine name")?;
                opts.engine = v.parse()?;
            }
            "--vm-fuel" => {
                opts.vm_fuel = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--vm-fuel needs an instruction count")?,
                );
            }
            "--arg" => {
                opts.args.push(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--arg needs an integer")?,
                );
            }
            "--budget" => {
                opts.budget = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--budget needs a fuel count")?,
                );
            }
            "--timeout" => {
                opts.timeout_ms = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--timeout needs a millisecond count")?,
                );
            }
            "--threads" => {
                opts.threads = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--threads needs a worker count >= 1")?;
            }
            "--no-fallback" => opts.fallback = false,
            "--no-cache" => opts.cache = false,
            "--chaos-seed" => {
                opts.chaos_seed = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--chaos-seed needs an integer seed")?,
                );
            }
            "--oracle-runs" => {
                opts.oracle_runs = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--oracle-runs needs a run count")?,
                );
            }
            "--oracle-fuel" => {
                opts.oracle_fuel = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--oracle-fuel needs a fuel count")?,
                );
            }
            "--oracle-seed" => {
                opts.oracle_seed = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--oracle-seed needs an integer seed")?,
                );
            }
            "--trace" => opts.trace = Some(it.next().ok_or("--trace needs a file path")?),
            "--metrics" => {
                opts.metrics = Some(it.next().ok_or("--metrics needs a file path")?);
            }
            "--report" => opts.report = true,
            "--stats" => opts.stats = true,
            "--no-emit" => opts.emit = false,
            "--help" | "-h" => return Err(usage().to_string()),
            other if !other.starts_with('-') && opts.input.is_empty() => {
                opts.input = other.to_string();
            }
            other => return Err(format!("unexpected argument `{other}`\n{}", usage())),
        }
    }
    match (&opts.workload, opts.input.is_empty()) {
        (None, true) => return Err(usage().to_string()),
        (Some(_), false) => {
            return Err("give either an input file or --workload, not both".to_string());
        }
        _ => {}
    }
    if opts.size.is_some() && opts.workload.is_none() {
        return Err("--size only makes sense with --workload".to_string());
    }
    if !opts.fallback && opts.engine != Engine::Native {
        return Err("--no-fallback only makes sense with --vm native".to_string());
    }
    if (opts.oracle_runs.is_some() || opts.oracle_fuel.is_some() || opts.oracle_seed.is_some())
        && opts.chaos_seed.is_none()
    {
        return Err("--oracle-* flags only make sense with --chaos-seed".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
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
    if opts.chaos_seed.is_some() {
        // Oracle reference: the conversion-only (Baseline) compile — the
        // raw module is not meaningful on the 64-bit machine model until
        // step 1 has inserted its sign extensions.
        let baseline = Compiler::builder(Variant::Baseline).target(opts.target).build();
        let reference = match try_compile(&baseline) {
            Ok(c) => c.module,
            Err(code) => return code,
        };
        let defaults = OracleConfig::default();
        let oracle = OracleConfig::new()
            .runs(opts.oracle_runs.unwrap_or(defaults.runs))
            .fuel(opts.oracle_fuel.unwrap_or(defaults.fuel))
            .seed(opts.oracle_seed.unwrap_or(defaults.seed))
            .engine(opts.engine);
        match differential_check(&reference, &compiled.module, opts.target, &oracle) {
            Ok(n) => eprintln!("sxec: oracle agreed on {n} comparisons"),
            Err(m) => {
                eprintln!("sxec: ORACLE MISMATCH: {m}");
                eprintln!("sxec: repro: {}", repro_command(&opts, &oracle));
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

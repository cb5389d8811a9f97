//! `fuzz` — differential fuzzing campaign driver.
//!
//! ```text
//! cargo run --release -p sxe-bench --bin fuzz -- \
//!     [--count N] [--seed S] [--threads T] [--target ia64|ppc64|mips64] \
//!     [--exec native] [--chaos | --plant] [--no-reduce] [--out DIR] \
//!     [--oracle-runs N] [--oracle-fuel N] [--oracle-seed S] \
//!     [--metrics FILE] [--module-seed S]
//! ```
//!
//! Generates `N` structured modules (default 256), compiles each both
//! ways under panic containment, and diffs them with the differential
//! oracle. Unique findings are deduplicated by stable signature,
//! minimized by delta debugging (unless `--no-reduce`), written as
//! replayable `.sxir`/`.min.sxir` files under `--out`, and each is
//! printed with the exact one-line command that reproduces it.
//!
//! `--plant` injects a known deterministic miscompile into every compile
//! under test — the self-test mode: the run *succeeds* only if the bug
//! is found and minimized. `--chaos` composes a contained fault per
//! module and expects zero findings (containment must hold). Findings
//! are byte-identical at any `--threads` value.
//!
//! `--module-seed S` replays one module by its generator seed instead of
//! running a campaign, reporting its outcome (and, on a failure, the
//! minimized reproducer).
//!
//! `--exec <engine>` runs the oracle's *right* side (the optimized
//! compile) on that engine while the reference stays on the decoded
//! interpreter — `--exec native` turns every campaign into a combined
//! compiler × JIT differential: a finding means the optimizer or the
//! x86-64 code generator broke behaviour.

use std::num::NonZeroUsize;
use std::process::ExitCode;

use sxe_fuzz::{
    check_module, generate_module, reduce, run_campaign, signature_of, Finding, FuzzConfig,
};
use sxe_ir::Target;
use sxe_jit::cmdline::{Args, ReproCmd};
use sxe_jit::Telemetry;

const USAGE: &str = "usage: fuzz [--count N] [--seed S] [--threads T] [--target ia64|ppc64|mips64] \
                     [--exec decoded|tree|native] [--chaos] [--plant] [--no-reduce] [--out DIR] \
                     [--oracle-runs N] [--oracle-fuel N] [--oracle-seed S] [--metrics FILE] \
                     [--module-seed S]";

/// The exact one-line command that replays a finding: same module seed,
/// target, fault mode, and oracle configuration.
fn repro_command(module_seed: u64, config: &FuzzConfig) -> String {
    let mut c = ReproCmd::new("sxe-bench", "fuzz")
        .opt_hex("--module-seed", module_seed);
    if config.target != Target::default() {
        c = c.opt("--target", config.target);
    }
    if config.plant {
        c = c.arg("--plant");
    } else if config.chaos {
        c = c.arg("--chaos");
    }
    if let Some(engine) = config.oracle.engine_right {
        c = c.opt("--exec", engine);
    }
    c.opt("--oracle-runs", config.oracle.runs)
        .opt("--oracle-fuel", config.oracle.fuel)
        .opt_hex("--oracle-seed", config.oracle.seed)
        .render()
}

/// Write a finding's original and minimized modules under `dir`.
fn write_finding(dir: &str, finding: &Finding) -> Result<(), String> {
    let stem =
        format!("{dir}/finding-{:02}-{:016x}", finding.index, finding.signature.short_hash());
    let io = |e: std::io::Error| format!("cannot write under {dir}: {e}");
    std::fs::create_dir_all(dir).map_err(io)?;
    std::fs::write(format!("{stem}.sxir"), finding.module.to_string()).map_err(io)?;
    if let Some(min) = &finding.reduced {
        std::fs::write(format!("{stem}.min.sxir"), min.to_string()).map_err(io)?;
    }
    Ok(())
}

/// Replay a single module by generator seed; returns the process exit.
fn replay(module_seed: u64, config: &FuzzConfig) -> ExitCode {
    let module = generate_module(module_seed, &config.gen);
    println!(
        "fuzz: module seed {module_seed:#x}: {} function(s), {} instruction(s)",
        module.functions.len(),
        module.inst_count()
    );
    let outcome = check_module(&module, module_seed, config);
    let Some(failure) = outcome.failure else {
        println!("fuzz: OK ({} oracle comparisons agreed)", outcome.comparisons);
        return ExitCode::SUCCESS;
    };
    println!("fuzz: {failure}");
    println!("fuzz: signature: {}", signature_of(&failure));
    if config.reduce {
        let target = signature_of(&failure);
        let (min, stats) = reduce(&module, |cand| {
            match check_module(cand, module_seed, config).failure {
                Some(f) => signature_of(&f) == target,
                None => false,
            }
        });
        println!(
            "fuzz: minimized {} -> {} instruction(s) ({} accepted steps):",
            module.inst_count(),
            min.inst_count(),
            stats.steps_accepted
        );
        print!("{min}");
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut config = FuzzConfig::default();
    let mut out: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut single: Option<u64> = None;
    let mut args = Args::from_env("fuzz", USAGE);
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--count" => config.count = args.value(),
            "--seed" => config.seed = args.seed(),
            "--threads" => config.threads = args.value::<NonZeroUsize>().get(),
            "--target" => config.target = args.value(),
            "--exec" => config.oracle.engine_right = Some(args.value()),
            "--chaos" => config.chaos = true,
            "--plant" => config.plant = true,
            "--no-reduce" => config.reduce = false,
            "--out" => out = Some(args.value()),
            "--oracle-runs" => config.oracle.runs = args.value(),
            "--oracle-fuel" => config.oracle.fuel = args.value(),
            "--oracle-seed" => config.oracle.seed = args.seed(),
            "--metrics" => metrics = Some(args.value()),
            "--module-seed" => single = Some(args.seed()),
            _ => args.unexpected(),
        }
    }
    if config.chaos && config.plant {
        args.fail("--chaos and --plant are mutually exclusive");
    }

    if let Some(seed) = single {
        return replay(seed, &config);
    }

    let mode = if config.plant {
        " [plant: deterministic miscompile injected]"
    } else if config.chaos {
        " [chaos: one contained fault per module]"
    } else {
        ""
    };
    let exec = match config.oracle.engine_right {
        Some(engine) => format!(" [right side on the {engine} engine]"),
        None => String::new(),
    };
    println!(
        "fuzz: {} modules, campaign seed {:#x}, {} worker thread(s){mode}{exec}",
        config.count, config.seed, config.threads
    );
    let telemetry = if metrics.is_some() { Telemetry::enabled() } else { Telemetry::disabled() };
    let campaign = run_campaign(&config, &telemetry);
    if let Some(path) = &metrics {
        if let Err(e) = std::fs::write(path, telemetry.metrics_json()) {
            eprintln!("fuzz: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("fuzz: metrics written to {path}");
    }

    for finding in &campaign.findings {
        println!("fuzz: FINDING [{:016x}] {}", finding.signature.short_hash(), finding.signature);
        println!("fuzz:   first hit: module {} (seed {:#x}), {} hit(s) total",
            finding.index, finding.module_seed, finding.hits);
        println!("fuzz:   {}", finding.detail);
        if let Some(min) = &finding.reduced {
            println!(
                "fuzz:   minimized: {} -> {} instruction(s)",
                finding.module.inst_count(),
                min.inst_count()
            );
        }
        println!("fuzz:   repro: {}", repro_command(finding.module_seed, &config));
        if let Some(dir) = &out {
            if let Err(e) = write_finding(dir, finding) {
                eprintln!("fuzz: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = &out {
        if !campaign.findings.is_empty() {
            println!("fuzz: reproducers written under {dir}/");
        }
    }
    println!(
        "fuzz: {} modules, {} oracle comparisons, {} failures ({} unique)",
        campaign.modules,
        campaign.comparisons,
        campaign.failures,
        campaign.findings.len()
    );

    if config.plant {
        // Self-test: success means the planted bug was found, and (unless
        // reduction was disabled) every finding carries a minimized repro.
        let found = !campaign.findings.is_empty();
        let minimized =
            !config.reduce || campaign.findings.iter().all(|f| f.reduced.is_some());
        if found && minimized {
            println!("fuzz: planted miscompile detected and minimized — harness works");
            ExitCode::SUCCESS
        } else {
            eprintln!("fuzz: SELF-TEST FAILED: planted miscompile was not detected");
            ExitCode::FAILURE
        }
    } else if campaign.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

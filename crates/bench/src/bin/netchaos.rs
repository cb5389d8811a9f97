//! `netchaos` — deterministic network-chaos campaign and protocol
//! fuzzer for the `sxed` compile-service daemon.
//!
//! ```text
//! cargo run --release -p sxe-bench --bin netchaos -- \
//!     [--seeds N] [--frames N] [--threads N] [--seed S] [--gate]
//! ```
//!
//! Default mode runs one campaign (`--seeds` seeds × every
//! `NetFaultPlan` fault kind through a fault-injecting proxy) plus a
//! `--frames`-frame protocol-fuzz pass, and prints both reports.
//!
//! `--gate` is the tier-1 chaos gate: a ≥32-seed campaign run at
//! `--threads` 1 and 4 with byte-identical reports and zero findings,
//! a ≥10 000-frame protocol-fuzz smoke with zero findings, the
//! slow-loris frame-deadline check, and the artifact-store crash-point
//! sweep over every byte boundary of a realistic entry write.

use std::process::ExitCode;

use sxe_bench::netchaos::{check_slow_loris, run_campaign, run_fuzz, ChaosOptions};
use sxe_jit::cmdline::{Args, ReproCmd};
use sxe_serve::{crash_point_sweep, CompiledArtifact};

struct Options {
    seeds: u64,
    frames: u64,
    threads: usize,
    seed: u64,
    gate: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options { seeds: 32, frames: 10_000, threads: 4, seed: 0xc4a05, gate: false }
    }
}

const USAGE: &str = "usage: netchaos [--seeds N] [--frames N] [--threads N] [--seed S] [--gate]";

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = Args::from_env("netchaos", USAGE);
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--seeds" => opts.seeds = args.value(),
            "--frames" => opts.frames = args.value(),
            "--threads" => opts.threads = args.value(),
            "--seed" => opts.seed = args.seed(),
            "--gate" => opts.gate = true,
            _ => args.unexpected(),
        }
    }
    opts
}

/// A realistic artifact-store entry for the crash-point sweep: the
/// encoded bytes of a `CompiledArtifact`, headers, text body and all.
fn sweep_payload() -> Vec<u8> {
    CompiledArtifact {
        key: 0xfeed_f00d_dead_beef,
        boundaries: 3,
        incidents: 0,
        budget_exhausted: false,
        eliminated: 2,
        text: "func @main(i32) -> i32 {\nb0:\n    r1 = const.i32 7\n    ret r1\n}\n".into(),
    }
    .to_bytes()
}

fn run_default(opts: &Options) -> Result<(), String> {
    let report = run_campaign(&ChaosOptions {
        seeds: opts.seeds,
        threads: opts.threads,
        base_seed: opts.seed,
    })?;
    print!("{}", report.render());
    let fuzz = run_fuzz(opts.frames, opts.seed)?;
    println!(
        "protocol fuzz: {} frames, {} typed responses, {} findings",
        fuzz.frames,
        fuzz.responses,
        fuzz.findings.len()
    );
    for (shape, n) in &fuzz.shape_histogram {
        println!("{shape:>22} {n:>8}");
    }
    for f in &fuzz.findings {
        println!("  - {f}");
    }
    if report.findings.is_empty() && fuzz.findings.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} campaign + {} fuzz findings",
            report.findings.len(),
            fuzz.findings.len()
        ))
    }
}

fn run_gate(opts: &Options) -> Result<(), String> {
    let seeds = opts.seeds.max(32);
    let frames = opts.frames.max(10_000);

    // Campaign at two thread counts: zero findings, and the rendered
    // reports must be byte-identical — classification may not depend on
    // scheduling.
    let base = ChaosOptions { seeds, threads: 1, base_seed: opts.seed };
    let r1 = run_campaign(&base)?;
    let r4 = run_campaign(&ChaosOptions { threads: 4, ..base })?;
    if !r1.findings.is_empty() {
        return Err(format!(
            "campaign (threads=1) produced {} finding(s):\n{}",
            r1.findings.len(),
            r1.render()
        ));
    }
    if r1.render() != r4.render() {
        return Err(format!(
            "campaign reports differ between --threads 1 and 4:\n--- threads=1\n{}\n--- threads=4\n{}",
            r1.render(),
            r4.render()
        ));
    }
    println!(
        "netchaos gate: campaign OK ({} cases, 0 findings, reports byte-identical at threads 1 vs 4)",
        r1.cases
    );

    let fuzz = run_fuzz(frames, opts.seed)?;
    if !fuzz.findings.is_empty() {
        return Err(format!(
            "protocol fuzz produced {} finding(s): {:?}",
            fuzz.findings.len(),
            fuzz.findings
        ));
    }
    println!(
        "netchaos gate: protocol fuzz OK ({} frames, {} typed responses, 0 hangs)",
        fuzz.frames, fuzz.responses
    );

    let cutoff = check_slow_loris()?;
    println!("netchaos gate: slow-loris cut off in {cutoff:?} (150ms frame deadline)");

    let dir = std::env::temp_dir()
        .join(format!("sxe-netchaos-{}-sweep", std::process::id()));
    let payload = sweep_payload();
    let sweep = crash_point_sweep(&dir, 0xfeed_f00d_dead_beef, &payload)?;
    println!(
        "netchaos gate: crash-point sweep OK ({} byte boundaries, {} recovered misses, {} intact)",
        sweep.boundaries, sweep.recovered_misses, sweep.intact_hits
    );

    println!("netchaos gate: OK");
    Ok(())
}

fn main() -> ExitCode {
    let opts = parse_args();
    let result = if opts.gate { run_gate(&opts) } else { run_default(&opts) };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            let repro = ReproCmd::new("sxe-bench", "netchaos").opt_hex("--seed", opts.seed);
            let repro = if opts.gate { repro.arg("--gate") } else { repro };
            eprintln!("netchaos: FAILED: {msg}");
            eprintln!("    repro: {repro}");
            ExitCode::FAILURE
        }
    }
}

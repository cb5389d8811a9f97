//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints human-readable lines followed by one
//! JSON result line. An end-to-end run starts worker processes of this
//! same binary (`--part <i>`, which prints one line of raw samples) one
//! after another and waits for each. Exit status 0 on a completed run (the result line
//! says whether every output was correct), 1 on a failed run, 2 on a
//! usage error.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::{
    compile_suite, exec_native, host_ref_ms, run_e2e, run_part, serve_mixed, Args, Outcome,
};

const WORKLOADS: [&str; 3] = ["compile-suite", "exec-native", "serve-mixed"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut part = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("expected whole seconds"))?;
                seconds = Some(Duration::from_secs(s.max(1)));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            "--part" => part = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        part,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let ref_start = host_ref_ms();
    let mut outcome = match (args.workload.as_str(), args.trace) {
        (_, false) => run_e2e(args),
        ("compile-suite", true) => compile_suite::run_traced(args, ref_start),
        ("exec-native", true) => exec_native::run_traced(args, ref_start),
        ("serve-mixed", true) => serve_mixed::run_traced(args, ref_start),
        _ => unreachable!("workload validated by parse_args"),
    }?;
    let ref_end = host_ref_ms();
    outcome.notes.push(format!(
        "host.ref_ms start={ref_start:.3} end={ref_end:.3} (host-drift probe; scales no metric)"
    ));
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(part) = args.part {
        return match run_part(&args, part) {
            Ok(p) => {
                println!("{}", p.to_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: worker {part}: {e}");
                ExitCode::from(1)
            }
        };
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    match run(&args).and_then(|o| o.json().map(|j| (o, j))) {
        Ok((outcome, json)) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            for m in &outcome.metrics {
                println!("  {:<24} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

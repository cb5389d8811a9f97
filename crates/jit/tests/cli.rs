//! The `sxec` command line: a usage error exits 2 with the usage line
//! (the typed exit codes 1, 3 and 4 mean something else), `--help` exits
//! 0 on stdout, seeds take decimal or `0x` hex, and the line the chaos
//! sweep prints to replay a run runs as printed.

use std::process::{Command, Output};

use sxe_vm::OracleConfig;

const SXEC: &str = env!("CARGO_BIN_EXE_sxec");

fn sxec(args: &[&str]) -> Output {
    Command::new(SXEC).args(args).output().expect("sxec runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = sxec(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "sxec {args:?}: stderr:\n{stderr}");
    assert!(stderr.starts_with("sxec: "), "sxec {args:?}: no reason on stderr:\n{stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("usage: sxec ")),
        "sxec {args:?}: no usage line on stderr:\n{stderr}"
    );
}

/// stderr's lines, each cut before its first timing (`in 31.3µs`,
/// `[4.41µs]`).
fn untimed(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .map(|l| l.split(" in ").next().unwrap_or(l).split(" [").next().unwrap_or(l).to_string())
        .collect()
}

#[test]
fn unknown_flags_missing_and_bad_values_exit_2() {
    assert_usage_error(&["--no-such-flag"]);
    assert_usage_error(&["--workload", "compress", "--variant"]);
    assert_usage_error(&["--workload", "compress", "--variant", "bogus"]);
    assert_usage_error(&["--workload", "compress", "--target", "sparc"]);
    assert_usage_error(&["--workload", "compress", "--vm", "warp"]);
    assert_usage_error(&["--workload", "compress", "--threads", "0"]);
    assert_usage_error(&["--workload", "compress", "--chaos-seed", "0xzz"]);
    assert_usage_error(&["--workload", "compress", "--arg", "x"]);
}

#[test]
fn cross_flag_checks_exit_2() {
    assert_usage_error(&[]);
    assert_usage_error(&["--workload", "compress", "input.sxe"]);
    assert_usage_error(&["--size", "8", "input.sxe"]);
    assert_usage_error(&["--workload", "compress", "--no-fallback"]);
    assert_usage_error(&["--workload", "compress", "--oracle-runs", "4"]);
}

#[test]
fn help_exits_0_on_stdout() {
    for flag in ["--help", "-h"] {
        let out = sxec(&[flag]);
        assert_eq!(out.status.code(), Some(0), "sxec {flag}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: sxec "));
        assert!(out.stderr.is_empty(), "sxec {flag}");
    }
}

#[test]
fn hex_and_decimal_seeds_are_the_same_seed() {
    let run = |seed: &str, oracle_seed: &str| {
        let out = sxec(&[
            "--workload",
            "compress",
            "--size",
            "8",
            "--no-emit",
            "--chaos-seed",
            seed,
            "--oracle-seed",
            oracle_seed,
        ]);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        untimed(&out)
    };
    let hex = run("0x3", "0x10");
    assert!(hex.iter().any(|l| l.starts_with("sxec: oracle agreed on ")), "{hex:?}");
    assert_eq!(hex, run("3", "16"));
}

#[test]
fn no_fallback_is_accepted_with_the_native_engine() {
    let out = sxec(&["--workload", "compress", "--size", "8", "--vm", "native", "--no-fallback"]);
    assert_ne!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn chaos_replay_lines_run_as_printed() {
    // Every workload, the five with a space in their name included.
    for w in sxe_workloads::all() {
        let seed = 7;
        let oracle = OracleConfig::new().seed(seed);
        let line = sxe_bench::chaos::sxec_replay(w.name, w.scaled(0.05), seed, &oracle).render();
        let (_, tail) = line.split_once(" -- ").expect("replay lines carry `--`");
        if w.name.contains(' ') {
            assert!(tail.contains(&format!("--workload '{}'", w.name)), "{line}");
        }
        // The shell splits the line; `$0` is the binary.
        let out = Command::new("sh")
            .args(["-c", &format!("exec \"$0\" {tail}"), SXEC])
            .output()
            .expect("sh runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{line}:\n{stderr}");
        assert!(stderr.contains("sxec: oracle agreed on "), "{line}:\n{stderr}");
    }
}

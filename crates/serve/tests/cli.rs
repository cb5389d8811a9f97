//! The `sxed` command line: a usage error exits 2 with the usage line
//! before the daemon binds a socket, and `--help` exits 0 on stdout.

use std::process::{Command, Output};

const SXED: &str = env!("CARGO_BIN_EXE_sxed");

fn sxed(args: &[&str]) -> Output {
    Command::new(SXED).args(args).output().expect("sxed runs")
}

#[test]
fn unknown_flags_missing_and_bad_values_exit_2() {
    for args in [
        &["--no-such-flag"][..],
        &["--port"],
        &["--port", "70000"],
        &["--threads", "four"],
        &["--timeout", "-1"],
    ] {
        let out = sxed(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "sxed {args:?}: stderr:\n{stderr}");
        assert!(stderr.starts_with("sxed: "), "sxed {args:?}: no reason:\n{stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("usage: sxed ")),
            "sxed {args:?}: no usage line on stderr:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "sxed {args:?} must not start listening");
    }
}

#[test]
fn help_exits_0_on_stdout() {
    for flag in ["--help", "-h"] {
        let out = sxed(&[flag]);
        assert_eq!(out.status.code(), Some(0), "sxed {flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: sxed "), "{stdout}");
        assert!(stdout.contains("--cache-dir <dir>"), "{stdout}");
        assert!(out.stderr.is_empty(), "sxed {flag}");
    }
}

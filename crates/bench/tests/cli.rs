//! Usage errors of the `sxe-bench` binaries: every one exits with code 2
//! and prints its usage line, so a typo is never mistaken for a failed
//! check or gate (exit 1). Each case fails before doing any work.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("the binary runs")
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: stderr:\n{stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("usage: ")),
        "{bin} {args:?}: no usage line on stderr:\n{stderr}"
    );
}

#[test]
fn every_bin_rejects_an_unknown_flag_with_exit_2() {
    for bin in [
        env!("CARGO_BIN_EXE_repro"),
        env!("CARGO_BIN_EXE_chaos"),
        env!("CARGO_BIN_EXE_fuzz"),
        env!("CARGO_BIN_EXE_stress"),
        env!("CARGO_BIN_EXE_netchaos"),
        env!("CARGO_BIN_EXE_vmbench"),
        env!("CARGO_BIN_EXE_nativebench"),
        env!("CARGO_BIN_EXE_throughput"),
    ] {
        assert_usage_error(bin, &["--no-such-flag"]);
    }
}

#[test]
fn repro_rejects_unknown_names_and_flags() {
    assert_usage_error(env!("CARGO_BIN_EXE_repro"), &["tabel3"]);
    assert_usage_error(env!("CARGO_BIN_EXE_repro"), &["--scal", "0.1"]);
    let help = run(env!("CARGO_BIN_EXE_repro"), &["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).starts_with("usage: repro"));
}

#[test]
fn missing_and_bad_values_exit_2() {
    assert_usage_error(env!("CARGO_BIN_EXE_vmbench"), &["--repeats"]);
    assert_usage_error(env!("CARGO_BIN_EXE_nativebench"), &["--gate", "three"]);
    assert_usage_error(env!("CARGO_BIN_EXE_netchaos"), &["--seed", "0xzz"]);
    assert_usage_error(env!("CARGO_BIN_EXE_fuzz"), &["--threads", "0"]);
    assert_usage_error(env!("CARGO_BIN_EXE_fuzz"), &["--chaos", "--plant"]);
}

//! The command line of the `sxe-bench` binaries, both ways.
//!
//! [`Args`] reads it: every binary parses its flags through that one
//! cursor, so a usage error looks and exits the same everywhere
//! (`<bin>: <reason>`, the usage line, exit code 2 — a failed check or
//! gate exits 1).
//!
//! [`ReproCmd`] writes it: every harness that finds a failure (the chaos
//! sweep, the fuzz campaign, the serve stress gate) prints the exact
//! one-line `cargo run` invocation that reproduces it, and [`Args::seed`]
//! accepts the `0x…` seeds [`ReproCmd::opt_hex`] prints.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// A cursor over a binary's arguments. The caller loops over
/// [`Args::next_arg`], matches each flag, and pulls the flag's value
/// with [`Args::value`] or [`Args::seed`]. Any usage error prints
/// `<bin>: <reason>` and the usage line to stderr and exits with code 2.
#[derive(Debug)]
pub struct Args {
    bin: &'static str,
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
    current: String,
}

impl Args {
    /// The process's own arguments, program name skipped.
    #[must_use]
    pub fn from_env(bin: &'static str, usage: &'static str) -> Args {
        Args::new(bin, usage, std::env::args().skip(1))
    }

    /// A cursor over `args`, for the binary `bin` with the given usage
    /// line.
    fn new<I>(bin: &'static str, usage: &'static str, args: I) -> Args
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let rest: Vec<String> = args.into_iter().map(Into::into).collect();
        Args { bin, usage, rest: rest.into_iter(), current: String::new() }
    }

    /// The next argument (a flag, or a positional word), which becomes
    /// the one [`Args::value`] and [`Args::unexpected`] refer to.
    pub fn next_arg(&mut self) -> Option<String> {
        self.current = self.rest.next()?;
        Some(self.current.clone())
    }

    /// The current flag's value, parsed with [`FromStr`]. Exits with
    /// code 2 if the value is missing or does not parse.
    pub fn value<T>(&mut self) -> T
    where
        T: FromStr,
        T::Err: Display,
    {
        self.parse_with(str::parse)
    }

    /// The current flag's value as a `u64` written in decimal or as
    /// `0x…` hex. Exits with code 2 if it is missing or does not parse.
    pub fn seed(&mut self) -> u64 {
        self.parse_with(|raw| match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse(),
        })
    }

    fn parse_with<T, E: Display>(&mut self, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
        let Some(raw) = self.rest.next() else {
            self.fail(format!("{} needs a value", self.current))
        };
        parse(&raw)
            .unwrap_or_else(|e| self.fail(format!("bad value for {} `{raw}`: {e}", self.current)))
    }

    /// Reject the current argument as unknown; exits with code 2.
    pub fn unexpected(&self) -> ! {
        self.fail(format!("unexpected argument `{}`", self.current))
    }

    /// Print `<bin>: <reason>` and the usage line to stderr and exit with
    /// code 2.
    pub fn fail(&self, reason: impl Display) -> ! {
        eprintln!("{}: {reason}", self.bin);
        eprintln!("{}", self.usage);
        std::process::exit(2)
    }
}

/// Builder for a `cargo run --release -p <pkg> --bin <bin> -- ...`
/// reproduction command line.
#[derive(Debug, Clone)]
pub struct ReproCmd {
    cmd: String,
}

impl ReproCmd {
    /// Start a command for `--bin bin` of package `pkg`.
    #[must_use]
    pub fn new(pkg: &str, bin: &str) -> ReproCmd {
        ReproCmd { cmd: format!("cargo run --release -p {pkg} --bin {bin} --") }
    }

    /// Append a bare flag (`--plant`).
    #[must_use]
    pub fn flag(mut self, flag: &str) -> ReproCmd {
        let _ = write!(self.cmd, " {flag}");
        self
    }

    /// Append a valued flag (`--size 200`), formatting the value with
    /// [`Display`].
    #[must_use]
    pub fn opt(mut self, flag: &str, value: impl Display) -> ReproCmd {
        let _ = write!(self.cmd, " {flag} {value}");
        self
    }

    /// Append a valued flag whose value is formatted as `0x…` hex
    /// (`--module-seed 0x2a`) — a form [`Args::seed`] accepts back.
    #[must_use]
    pub fn opt_hex(mut self, flag: &str, value: u64) -> ReproCmd {
        let _ = write!(self.cmd, " {flag} {value:#x}");
        self
    }

    /// The finished command line.
    #[must_use]
    pub fn render(&self) -> String {
        self.cmd.clone()
    }
}

impl Display for ReproCmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.cmd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_the_exact_flag_syntax() {
        let cmd = ReproCmd::new("sxe-jit", "sxec")
            .opt("--workload", "compress")
            .opt("--size", 200)
            .opt_hex("--chaos-seed", 42)
            .flag("--no-emit")
            .render();
        assert_eq!(
            cmd,
            "cargo run --release -p sxe-jit --bin sxec -- --workload compress \
             --size 200 --chaos-seed 0x2a --no-emit"
        );
    }

    /// The arguments after `--` of a rendered replay command.
    fn replay_args(cmd: &ReproCmd) -> Args {
        let line = cmd.render();
        let (_, tail) = line.split_once(" -- ").expect("replay commands carry `--`");
        Args::new("test", "usage: test", tail.split_whitespace().map(str::to_string))
    }

    #[test]
    fn hex_seeds_parse_back_to_the_same_value() {
        for seed in [0, 1, 0xc4a05, 0x24846b8cbbf739e7, u64::MAX] {
            let cmd = ReproCmd::new("sxe-bench", "netchaos").opt_hex("--seed", seed);
            let mut args = replay_args(&cmd);
            assert_eq!(args.next_arg().as_deref(), Some("--seed"));
            assert_eq!(args.seed(), seed);
            assert_eq!(args.next_arg(), None);
        }
    }

    #[test]
    fn decimal_values_still_parse() {
        let mut args =
            Args::new("test", "usage: test", ["--seed", "805381", "--scale", "0.25", "--gate"]);
        assert_eq!(args.next_arg().as_deref(), Some("--seed"));
        assert_eq!(args.seed(), 0xc4a05);
        assert_eq!(args.next_arg().as_deref(), Some("--scale"));
        assert_eq!(args.value::<f64>(), 0.25);
        assert_eq!(args.next_arg().as_deref(), Some("--gate"));
        assert_eq!(args.next_arg(), None);
    }
}

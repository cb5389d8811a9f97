//! The command line of the compiler, daemon and harness binaries, both
//! ways.
//!
//! [`Args`] reads it: `sxec`, `sxed` and the `sxe-bench` tools parse
//! their flags through that one cursor, so a usage error looks and exits
//! the same everywhere (`<bin>: <reason>`, the usage line, exit code 2),
//! and `--help` prints the usage line on stdout and exits 0.
//!
//! [`ReproCmd`] writes it: every harness that finds a failure (the chaos
//! sweep, the fuzz campaign, the serve stress gate, `sxec --chaos-seed`)
//! prints the exact one-line `cargo run` invocation that reproduces it.
//! [`Args::seed`] accepts the `0x…` seeds [`ReproCmd::opt_hex`] prints,
//! and a value with whitespace in it is single-quoted, so the line
//! replays as pasted into a shell.

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

    /// Print the usage line to stdout and exit with code 0 (`--help`).
    pub fn help(&self) -> ! {
        println!("{}", self.usage);
        std::process::exit(0)
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

    /// Append one word — a bare flag (`--plant`), a flag's value, or a
    /// positional argument — formatted with [`Display`] and single-quoted
    /// if it holds whitespace or a quote (`'numeric sort'`), so a shell
    /// passes it as one word.
    #[must_use]
    pub fn arg(mut self, word: impl Display) -> ReproCmd {
        let word = word.to_string();
        if word.contains(|c: char| c.is_whitespace() || c == '\'') {
            let _ = write!(self.cmd, " '{}'", word.replace('\'', r"'\''"));
        } else {
            let _ = write!(self.cmd, " {word}");
        }
        self
    }

    /// Append a valued flag (`--size 200`), the value as [`ReproCmd::arg`]
    /// writes it.
    #[must_use]
    pub fn opt(self, flag: &str, value: impl Display) -> ReproCmd {
        self.arg(flag).arg(value)
    }

    /// Append a valued flag whose value is formatted as `0x…` hex
    /// (`--module-seed 0x2a`) — a form [`Args::seed`] accepts back.
    #[must_use]
    pub fn opt_hex(self, flag: &str, value: u64) -> ReproCmd {
        self.opt(flag, format_args!("{value:#x}"))
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
            .arg("--no-emit")
            .render();
        assert_eq!(
            cmd,
            "cargo run --release -p sxe-jit --bin sxec -- --workload compress \
             --size 200 --chaos-seed 0x2a --no-emit"
        );
    }

    /// `line` split into words by a POSIX shell, one word per line of
    /// `printf`'s output.
    fn shell_words(line: &str) -> Vec<String> {
        let out = std::process::Command::new("sh")
            .args(["-c", &format!("printf '%s\\n' {line}")])
            .output()
            .expect("sh runs");
        assert!(out.status.success(), "sh rejected `{line}`");
        String::from_utf8(out.stdout).expect("UTF-8").lines().map(str::to_string).collect()
    }

    /// The arguments after `--` of a rendered replay command.
    fn replay_args(cmd: &ReproCmd) -> Args {
        let words = shell_words(&cmd.render());
        let dashes = words.iter().position(|w| w == "--").expect("replay commands carry `--`");
        Args::new("test", "usage: test", words[dashes + 1..].to_vec())
    }

    #[test]
    fn values_with_whitespace_replay_as_one_word() {
        let cmd = ReproCmd::new("sxe-jit", "sxec")
            .opt("--workload", "numeric sort")
            .opt("--workload", "LU decomp.")
            .opt("--trace", "it's here.json")
            .arg("my input.sxe");
        assert_eq!(
            cmd.render(),
            "cargo run --release -p sxe-jit --bin sxec -- --workload 'numeric sort' \
             --workload 'LU decomp.' --trace 'it'\\''s here.json' 'my input.sxe'"
        );
        let mut args = replay_args(&cmd);
        for want in ["numeric sort", "LU decomp.", "it's here.json"] {
            assert!(args.next_arg().is_some_and(|flag| flag.starts_with("--")));
            assert_eq!(args.value::<String>(), want);
        }
        assert_eq!(args.next_arg().as_deref(), Some("my input.sxe"));
        assert_eq!(args.next_arg(), None);
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

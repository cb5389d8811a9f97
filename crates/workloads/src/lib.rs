//! # sxe-workloads — synthetic jBYTEmark and SPECjvm98 kernels
//!
//! The paper evaluates on jBYTEmark (10 programs) and SPECjvm98 (7
//! programs) running on a Java JIT. This crate provides one IR kernel
//! per benchmark program, each reproducing the structural reason its
//! counterpart has many or few sign extensions: count-down loops over
//! `i32` arrays, mask-heavy bit manipulation, fixed-point `>>`
//! arithmetic, float-dominated numeric code with `i2d` conversions, and
//! so on. Every kernel is deterministic (data comes from an in-IR LCG)
//! and returns a checksum, so any unsound optimization is observable.
//!
//! ```
//! use sxe_workloads::by_name;
//!
//! let w = by_name("huffman").expect("exists");
//! let module = w.build(256);
//! assert!(module.function_by_name("main").is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dsl;
pub mod jbytemark;
pub mod specjvm;

use sxe_ir::Module;

/// Which benchmark suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// jBYTEmark (paper Table 1, Figures 11/13).
    JByteMark,
    /// SPECjvm98 (paper Table 2, Figures 12/14).
    SpecJvm98,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::JByteMark => f.write_str("jBYTEmark"),
            Suite::SpecJvm98 => f.write_str("SPECjvm98"),
        }
    }
}

/// One benchmark kernel.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Display name (matches the paper's table columns).
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// Default size used by the reproduction harness.
    pub default_size: u32,
    builder: fn(u32) -> Module,
}

impl Workload {
    /// Build the kernel module at the given size. The module contains a
    /// `main()` entry returning a deterministic checksum.
    #[must_use]
    pub fn build(&self, size: u32) -> Module {
        (self.builder)(size)
    }

    /// Build at the workload's default size.
    #[must_use]
    pub fn build_default(&self) -> Module {
        self.build(self.default_size)
    }

    /// The default size multiplied by `scale`, truncated, and at least 4:
    /// the size every harness builds at for a `--scale` factor.
    #[must_use]
    pub fn scaled(&self, scale: f64) -> u32 {
        ((self.default_size as f64 * scale) as u32).max(4)
    }
}

/// All seventeen workloads in the paper's table order.
#[must_use]
pub fn all() -> Vec<Workload> {
    let mut v = jbytemark_suite();
    v.extend(specjvm_suite());
    v
}

/// The ten jBYTEmark workloads (Table 1 column order).
#[must_use]
pub fn jbytemark_suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "numeric sort",
            suite: Suite::JByteMark,
            default_size: 600,
            builder: jbytemark::numeric_sort::build,
        },
        Workload {
            name: "string sort",
            suite: Suite::JByteMark,
            default_size: 64,
            builder: jbytemark::string_sort::build,
        },
        Workload {
            name: "bitfield",
            suite: Suite::JByteMark,
            default_size: 2000,
            builder: jbytemark::bitfield::build,
        },
        Workload {
            name: "fp emulation",
            suite: Suite::JByteMark,
            default_size: 1500,
            builder: jbytemark::fp_emulation::build,
        },
        Workload {
            name: "fourier",
            suite: Suite::JByteMark,
            default_size: 48,
            builder: jbytemark::fourier::build,
        },
        Workload {
            name: "assignment",
            suite: Suite::JByteMark,
            default_size: 40,
            builder: jbytemark::assignment::build,
        },
        Workload {
            name: "IDEA",
            suite: Suite::JByteMark,
            default_size: 500,
            builder: jbytemark::idea::build,
        },
        Workload {
            name: "huffman",
            suite: Suite::JByteMark,
            default_size: 1500,
            builder: jbytemark::huffman::build,
        },
        Workload {
            name: "neural net",
            suite: Suite::JByteMark,
            default_size: 48,
            builder: jbytemark::neural_net::build,
        },
        Workload {
            name: "LU decomp.",
            suite: Suite::JByteMark,
            default_size: 24,
            builder: jbytemark::lu_decomposition::build,
        },
    ]
}

/// The seven SPECjvm98 workloads (Table 2 column order).
#[must_use]
pub fn specjvm_suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "mtrt",
            suite: Suite::SpecJvm98,
            default_size: 64,
            builder: specjvm::mtrt::build,
        },
        Workload {
            name: "jess",
            suite: Suite::SpecJvm98,
            default_size: 250,
            builder: specjvm::jess::build,
        },
        Workload {
            name: "compress",
            suite: Suite::SpecJvm98,
            default_size: 4000,
            builder: specjvm::compress::build,
        },
        Workload {
            name: "db",
            suite: Suite::SpecJvm98,
            default_size: 220,
            builder: specjvm::db::build,
        },
        Workload {
            name: "mpegaudio",
            suite: Suite::SpecJvm98,
            default_size: 700,
            builder: specjvm::mpegaudio::build,
        },
        Workload {
            name: "jack",
            suite: Suite::SpecJvm98,
            default_size: 4000,
            builder: specjvm::jack::build,
        },
        Workload {
            name: "javac",
            suite: Suite::SpecJvm98,
            default_size: 500,
            builder: specjvm::javac::build,
        },
    ]
}

/// Look up a workload by (case-insensitive) name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    all()
        .into_iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxe_ir::{verify_module, Target};
    use sxe_vm::Vm;

    #[test]
    fn seventeen_workloads() {
        let ws = all();
        assert_eq!(ws.len(), 17);
        assert_eq!(ws.iter().filter(|w| w.suite == Suite::JByteMark).count(), 10);
        assert_eq!(ws.iter().filter(|w| w.suite == Suite::SpecJvm98).count(), 7);
    }

    /// The identity suites build at `scaled(0.25)`, which must stay the
    /// integer quarter they used before.
    #[test]
    fn quarter_scale_is_the_integer_quarter() {
        for w in all() {
            assert_eq!(w.scaled(0.25), (w.default_size / 4).max(4), "{}", w.name);
        }
        assert_eq!(all()[0].scaled(0.0), 4);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("huffman").is_some());
        assert!(by_name("HUFFMAN").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn every_workload_verifies_and_runs_unoptimized() {
        // Small sizes: this exercises the raw 32-bit-form IR directly
        // (the calling convention canonicalizes entry args, and the IR
        // never relies on upper bits without the pipeline because every
        // required-use has defined low-32 behaviour in the VM).
        for w in all() {
            let m = w.build(16);
            verify_module(&m).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let mut vm = Vm::builder(&m).target(Target::Ia64).fuel(200_000_000).build();
            let out = vm.run("main", &[]).unwrap_or_else(|t| panic!("{}: {t}", w.name));
            assert!(out.ret.is_some(), "{} returns a checksum", w.name);
        }
    }

    #[test]
    fn golden_checksums_pinned() {
        // Raw return values at size 20, pinned so kernel refactors that
        // silently change behaviour are caught. (Float kernels return
        // f64 bits; integer kernels sign-extended i32 checksums.)
        let golden: [(&str, i64); 17] = [
            ("numeric sort", -2114594185208813211),
            ("string sort", -2884575313690992410),
            ("bitfield", -3277174547095826578),
            ("fp emulation", -7335163386679787520),
            ("fourier", 4664110732839747462),
            ("assignment", 7783671589323469243),
            ("IDEA", -2097411638001958936),
            ("huffman", -2287267403189543088),
            ("neural net", -4609487900832049569),
            ("LU decomp.", 4794561905683806395),
            ("mtrt", -3533809006449739596),
            ("jess", -4482004191890383264),
            ("compress", -2474373384902134240),
            ("db", 5109484395700281203),
            ("mpegaudio", -8072513068271532564),
            ("jack", 11578498),
            ("javac", 19241),
        ];
        for (name, expect) in golden {
            let w = by_name(name).expect(name);
            let m = w.build(20);
            let mut vm = Vm::builder(&m).target(Target::Ia64).fuel(200_000_000).build();
            let got = vm.run("main", &[]).expect("no trap").ret.expect("value");
            assert_eq!(got, expect, "{name} checksum drifted");
        }
    }

    #[test]
    fn deterministic_checksums() {
        for w in all() {
            let run = || {
                let m = w.build(16);
                let mut vm = Vm::builder(&m).target(Target::Ia64).fuel(200_000_000).build();
                vm.run("main", &[]).expect("no trap").ret
            };
            assert_eq!(run(), run(), "{} must be deterministic", w.name);
        }
    }
}

//! Reproduce the paper's tables and figures.
//!
//! ```text
//! repro [--scale S] [table1|table2|table3|fig11|fig12|fig13|fig14|ppc64|all]
//! ```
//!
//! `--scale` multiplies every workload's default size (default 1.0; use
//! e.g. `--scale 0.1` for a quick pass).

use sxe_bench::{
    compile_time_table, dynamic_extend_table_on, figure_series, render_compile_times,
    render_speedups, render_table, speedup_figure, CountTable,
};
use sxe_ir::Target;
use sxe_jit::{cmdline::Args, CompileError};
use sxe_workloads::Suite;

const USAGE: &str =
    "usage: repro [--scale S] [table1|table2|table3|fig11|fig12|fig13|fig14|ppc64|all]";

/// Every name `repro` reproduces.
const NAMES: [&str; 9] =
    ["table1", "table2", "table3", "fig11", "fig12", "fig13", "fig14", "ppc64", "all"];

struct Lazy {
    scale: f64,
    t1: Option<CountTable>,
    t2: Option<CountTable>,
}

impl Lazy {
    fn table1(&mut self) -> &CountTable {
        let scale = self.scale;
        self.t1
            .get_or_insert_with(|| table(Suite::JByteMark, scale, Target::Ia64))
    }
    fn table2(&mut self) -> &CountTable {
        let scale = self.scale;
        self.t2
            .get_or_insert_with(|| table(Suite::SpecJvm98, scale, Target::Ia64))
    }
}

fn main() {
    let mut scale = 1.0f64;
    let mut what: Vec<String> = Vec::new();
    let mut args = Args::from_env("repro", USAGE);
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--scale" => scale = args.value(),
            "--help" | "-h" => args.help(),
            name if NAMES.contains(&name) => what.push(arg),
            _ => args.unexpected(),
        }
    }
    if what.is_empty() {
        what.push("all".into());
    }
    let wants = |k: &str| what.iter().any(|w| w == k || w == "all");
    let mut lazy = Lazy { scale, t1: None, t2: None };

    if wants("table1") {
        println!("== Table 1: dynamic counts of remaining 32-bit sign extensions (jBYTEmark) ==");
        println!("{}", render_table(lazy.table1()));
    }
    if wants("table2") {
        println!("== Table 2: dynamic counts of remaining 32-bit sign extensions (SPECjvm98) ==");
        println!("{}", render_table(lazy.table2()));
    }
    if wants("fig11") {
        println!("== Figure 11: percentages over baseline (jBYTEmark) ==");
        println!("{}", figure_series(lazy.table1()));
    }
    if wants("fig12") {
        println!("== Figure 12: percentages over baseline (SPECjvm98) ==");
        println!("{}", figure_series(lazy.table2()));
    }
    if wants("fig13") {
        println!("== Figure 13: estimated performance improvement (jBYTEmark) ==");
        println!("{}", render_speedups(&or_exit(speedup_figure(Suite::JByteMark, scale))));
    }
    if wants("fig14") {
        println!("== Figure 14: estimated performance improvement (SPECjvm98) ==");
        println!("{}", render_speedups(&or_exit(speedup_figure(Suite::SpecJvm98, scale))));
    }
    if wants("table3") {
        println!("== Table 3: breakdown of JIT compilation time ==");
        println!("{}", render_compile_times(&or_exit(compile_time_table(scale, 5))));
    }
    if what.iter().any(|w| w == "ppc64") {
        println!("== Extra: Table 1 on PPC64 (lwa loads sign-extend) ==");
        println!("{}", render_table(&table(Suite::JByteMark, scale, Target::Ppc64)));
    }
}

fn table(suite: Suite, scale: f64, target: Target) -> CountTable {
    or_exit(dynamic_extend_table_on(suite, scale, target))
}

/// Unwrap a table, exiting with the compile error if a workload was
/// refused.
fn or_exit<T>(result: Result<T, CompileError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("repro: workload compile refused: {e}");
        std::process::exit(1)
    })
}

//! Cross-crate pipeline properties: static/dynamic count ordering,
//! printing/parsing round trips of compiled output, and idempotence.

use sxe_core::Variant;
use sxe_ir::{parse_module, Target};
use sxe_jit::{Compiler, Telemetry};
use sxe_telemetry::ArgValue;
use sxe_vm::Vm;

fn workload_module() -> sxe_ir::Module {
    sxe_workloads::by_name("huffman").expect("exists").build(48)
}

#[test]
fn compiled_output_round_trips_through_text() {
    for v in [Variant::Baseline, Variant::All] {
        let c = Compiler::for_variant(v).try_compile(&workload_module()).expect("compiles");
        let text = c.module.to_string();
        let reparsed = parse_module(&text).expect("compiled IR parses");
        // Textual fixed point (structural equality can differ in the
        // parser-inferred reg_count when DCE leaves high registers
        // unused).
        assert_eq!(reparsed.to_string(), text, "{v}");
    }
}

#[test]
fn compilation_is_deterministic() {
    let m = workload_module();
    let a = Compiler::for_variant(Variant::All).try_compile(&m).expect("compiles");
    let b = Compiler::for_variant(Variant::All).try_compile(&m).expect("compiles");
    assert_eq!(a.module, b.module);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn recompiling_compiled_output_preserves_behaviour() {
    // The pipeline's contract is 32-bit-form input; feeding it its own
    // output is still well-defined and must preserve behaviour (static
    // counts may differ as conversion regenerates extensions).
    let m = workload_module();
    let once = Compiler::for_variant(Variant::All).try_compile(&m).expect("compiles");
    let twice = Compiler::for_variant(Variant::All).try_compile(&once.module).expect("compiles");
    let run = |module: &sxe_ir::Module| {
        let mut vm = Vm::builder(module).target(Target::Ia64).fuel(50_000_000).build();
        vm.run("main", &[]).expect("no trap").ret
    };
    assert_eq!(run(&once.module), run(&twice.module));
}

#[test]
fn static_counts_follow_variant_strength() {
    for w in ["huffman", "compress", "numeric sort", "db"] {
        let m = sxe_workloads::by_name(w).expect("exists").build(32);
        let count = |v: Variant| {
            Compiler::for_variant(v).try_compile(&m).expect("compiles").module.count_extends(None)
        };
        let baseline = count(Variant::Baseline);
        let basic = count(Variant::BasicUdDu);
        let array = count(Variant::Array);
        let all = count(Variant::All);
        assert!(basic <= baseline, "{w}: basic {basic} <= baseline {baseline}");
        assert!(array <= basic, "{w}: array {array} <= basic {basic}");
        assert!(all <= baseline, "{w}: all {all} <= baseline {baseline}");
    }
}

#[test]
fn timing_buckets_are_populated() {
    let m = workload_module();
    let telemetry = Telemetry::enabled();
    Compiler::builder(Variant::All)
        .telemetry(telemetry.clone())
        .build()
        .try_compile(&m)
        .expect("compiles");
    let events = telemetry.events_snapshot();
    let ns = |keep: &dyn Fn(&sxe_telemetry::Event) -> bool| -> u64 {
        events.iter().filter(|e| keep(e)).map(|e| e.dur_ns).sum()
    };
    let total = ns(&|e| e.name == "compile");
    let chains = ns(&|e| {
        e.name == "cache.udu"
            && e.lane.starts_with("cache.step3:@")
            && e.args.contains(&("hit", ArgValue::Bool(false)))
    });
    let step3 = ns(&|e| {
        e.cat == "pass"
            && ["step3-insert", "step3-order", "step3-eliminate", "first-algorithm"]
                .contains(&&*e.name)
    });
    assert!(total > 0);
    assert!(chains > 0, "chains were built");
    assert!(step3 > chains, "elimination ran");
}

#[test]
fn stats_are_consistent() {
    let m = workload_module();
    let c = Compiler::for_variant(Variant::All).try_compile(&m).expect("compiles");
    assert!(c.stats.generated > 0);
    assert!(c.stats.examined >= c.stats.eliminated);
    assert!(c.stats.eliminated >= c.stats.eliminated_via_array);
    assert!(c.stats.dummies > 0, "huffman is full of array accesses");
}

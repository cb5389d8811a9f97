//! Integration tests for the telemetry subsystem: span nesting across
//! containment boundaries, deterministic trace merges under sharding,
//! Chrome-trace round-tripping, schema-valid metrics that reconcile with
//! the compile report, and a byte-identical disabled path.

use sxe_core::Variant;
use sxe_jit::{Compiler, FaultPlan, PassStatus, RollbackCause, Telemetry};
use sxe_telemetry::{ArgValue, Event, Phase};

fn workload_module() -> sxe_ir::Module {
    sxe_workloads::by_name("numeric sort").expect("known workload").build(60)
}

/// Everything about an event that must not depend on thread count:
/// name, category, phase, lane, deterministic span id, and arguments.
/// Only timestamps, durations, and thread ids may vary.
fn normalize(events: &[Event]) -> Vec<(String, &'static str, bool, String, u64, String)> {
    events
        .iter()
        .map(|e| {
            (
                e.name.to_string(),
                e.cat,
                e.ph == Phase::Complete,
                e.lane.to_string(),
                e.span,
                format!("{:?}", e.args),
            )
        })
        .collect()
}

#[test]
fn panicking_pass_closes_its_span_with_an_incident_tag() {
    let module = workload_module();
    // Fault-free dry run to learn the boundary count, then aim a panic
    // at a mid-pipeline boundary.
    let boundaries = Compiler::for_variant(Variant::All)
        .try_compile(&module)
        .expect("compiles")
        .report
        .boundaries();
    assert!(boundaries > 4, "workload should cross several boundaries");
    let plan = FaultPlan {
        seed: 7,
        panic_at: Some(boundaries as u32 / 2),
        ..FaultPlan::default()
    };
    let tel = Telemetry::enabled();
    let compiled = Compiler::builder(Variant::All)
        .telemetry(tel.clone())
        .fault_plan(plan)
        .build()
        .try_compile(&module)
        .expect("compiles");

    let rolled: Vec<_> = compiled
        .report
        .records
        .iter()
        .filter(|r| matches!(r.status, PassStatus::RolledBack(RollbackCause::Panic(_))))
        .collect();
    assert_eq!(rolled.len(), 1, "exactly one injected panic");
    let events = tel.events_snapshot();

    // Every boundary record links to a closed span event — including the
    // one whose body panicked out of catch_unwind.
    for r in &compiled.report.records {
        let id = r.span.expect("telemetry enabled: every record carries a span id");
        let ev = events
            .iter()
            .find(|e| e.span == id)
            .unwrap_or_else(|| panic!("no event for {} span {id}", r.pass));
        assert_eq!(ev.name, r.pass.as_str());
        assert_eq!(ev.ph, Phase::Complete, "span was closed");
    }

    // The panicked boundary's event is tagged as an incident.
    let id = rolled[0].span.unwrap();
    let ev = events.iter().find(|e| e.span == id).unwrap();
    assert!(
        ev.args.contains(&("incident", ArgValue::Bool(true))),
        "panicked span tagged incident: {:?}",
        ev.args
    );
    assert!(
        ev.args.contains(&("status", ArgValue::Str("rolled-back".into()))),
        "status arg records the rollback: {:?}",
        ev.args
    );
    assert!(
        ev.args.iter().any(|(k, _)| *k == "injected"),
        "injected fault named in args: {:?}",
        ev.args
    );
}

#[test]
fn trace_merge_is_deterministic_across_thread_counts() {
    let module = workload_module();
    let trace_with = |threads: usize| {
        let tel = Telemetry::enabled();
        let compiler = Compiler::builder(Variant::All)
            .threads(threads)
            .telemetry(tel.clone())
            .build();
        let compiled = compiler.try_compile(&module).expect("compiles");
        (normalize(&tel.events_snapshot()), compiled.module.to_string())
    };
    let (seq_events, seq_module) = trace_with(1);
    let (par_events, par_module) = trace_with(4);
    assert_eq!(seq_module, par_module, "sharding must not change the module");
    assert!(!seq_events.is_empty());
    assert_eq!(
        seq_events, par_events,
        "merged trace is identical at any thread count (modulo tids and timing)"
    );
}

#[test]
fn chrome_trace_round_trips_through_the_parser() {
    let module = workload_module();
    let tel = Telemetry::enabled();
    let _ = Compiler::builder(Variant::All)
        .telemetry(tel.clone())
        .build()
        .try_compile(&module)
        .expect("compiles");
    let events = tel.events_snapshot();
    assert!(!events.is_empty());

    let doc = sxe_telemetry::json::parse(&tel.chrome_trace()).expect("export parses");
    let trace = doc.get("traceEvents").and_then(|v| v.as_arr()).expect("traceEvents array");
    // One exported record per event plus the process_name metadata record.
    assert_eq!(trace.len(), events.len() + 1);
    for rec in trace {
        let ph = rec.get("ph").and_then(|v| v.as_str()).expect("ph");
        assert!(matches!(ph, "M" | "X" | "i"), "perfetto-known phase, got {ph}");
        assert!(rec.get("name").is_some() && rec.get("pid").is_some());
        if ph == "X" {
            assert!(rec.get("dur").and_then(|v| v.as_f64()).is_some());
        }
    }
    // Span ids survive the round trip, so PassRecord::span can be looked
    // up in the exported file.
    let exported_spans: Vec<f64> = trace
        .iter()
        .filter_map(|r| r.get("args").and_then(|a| a.get("span")).and_then(|v| v.as_f64()))
        .collect();
    let nonzero = events.iter().filter(|e| e.span != 0).count();
    assert_eq!(exported_spans.len(), nonzero);
}

#[test]
fn metrics_reconcile_with_compiled_stats_and_validate() {
    let module = workload_module();
    let tel = Telemetry::enabled();
    let compiled = Compiler::builder(Variant::All)
        .telemetry(tel.clone())
        .build()
        .try_compile(&module)
        .expect("compiles");
    let m = tel.metrics_snapshot();

    assert_eq!(m.counter("compile.modules"), 1);
    assert_eq!(m.counter("sxe.extends_generated"), compiled.stats.generated as u64);
    assert_eq!(m.counter("sxe.extends_examined"), compiled.stats.examined as u64);
    assert_eq!(m.counter("sxe.extends_eliminated.total"), compiled.stats.eliminated as u64);
    assert_eq!(
        m.counter("sxe.extends_eliminated.array"),
        compiled.stats.eliminated_via_array as u64
    );
    assert_eq!(
        m.counter("sxe.extends_eliminated.udu") + m.counter("sxe.extends_eliminated.array"),
        m.counter("sxe.extends_eliminated.total"),
        "elimination taxonomy sums exactly"
    );
    assert_eq!(m.counter("compile.boundaries"), compiled.report.boundaries() as u64);
    assert_eq!(m.counter("compile.incidents"), compiled.report.incidents() as u64);
    assert_eq!(m.counter("compile.gates_skipped"), compiled.report.gates_skipped as u64);
    assert!(compiled.report.gates_skipped > 0, "some boundary left its body unchanged");
    let rewrites: u64 = m
        .counters()
        .filter(|(k, _)| k.starts_with("opt.rewrites."))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(
        rewrites,
        compiled.opt_stats.total() as u64,
        "optimizer rewrites reconcile with OptStats"
    );

    // The export is valid under the checked-in schema.
    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../schemas/metrics.schema.json"
    ))
    .expect("schema file");
    let schema = sxe_telemetry::json::parse(&schema_text).expect("schema parses");
    let doc = sxe_telemetry::json::parse(&tel.metrics_json()).expect("export parses");
    let violations = sxe_telemetry::schema::validate(&schema, &doc);
    assert!(violations.is_empty(), "schema violations: {violations:?}");
}

#[test]
fn disabled_sink_leaves_compilation_untouched() {
    let module = workload_module();
    let plain = Compiler::for_variant(Variant::All).try_compile(&module).expect("compiles");
    let disabled = Compiler::builder(Variant::All)
        .telemetry(Telemetry::disabled())
        .build()
        .try_compile(&module)
        .expect("compiles");
    let tel = Telemetry::enabled();
    let traced =
        Compiler::builder(Variant::All)
            .telemetry(tel.clone())
            .build()
            .try_compile(&module)
            .expect("compiles");

    // Byte-identical module text and identical stats with the sink off…
    assert_eq!(plain.module.to_string(), disabled.module.to_string());
    assert_eq!(format!("{:?}", plain.stats), format!("{:?}", disabled.stats));
    assert_eq!(format!("{:?}", plain.opt_stats), format!("{:?}", disabled.opt_stats));
    // …and the sink being on never changes what is compiled either.
    assert_eq!(plain.module.to_string(), traced.module.to_string());

    // Span ids only exist when the sink is live.
    assert!(plain.report.records.iter().all(|r| r.span.is_none()));
    assert!(traced.report.records.iter().all(|r| r.span.is_some()));
    // A disabled sink exports empty but well-formed documents.
    let off = Telemetry::disabled();
    assert!(off.events_snapshot().is_empty());
    assert!(sxe_telemetry::json::parse(&off.chrome_trace()).is_ok());
    assert!(sxe_telemetry::json::parse(&off.metrics_json()).is_ok());
}

//! Unit tests of the benchmark's own statistics and span bookkeeping.

use std::time::Instant;

use perfbench::stats::{
    median, min_samples_for, parse_vm_hwm_mb, percentile, tail_percentile, Tally, TAIL_MIN_BEYOND,
};
use perfbench::trace::{check_nesting, check_self_within_op, self_times, Span, Tracer};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_is_nearest_rank() {
    let v = ramp(100);
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&[7.0], 50.0), 7.0);
    assert_eq!(percentile(&ramp(3), 50.0), 2.0);
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert_eq!(min_samples_for(99.0), 1000);
    // 1000 samples: rank 990, ten beyond it.
    let v = ramp(1000);
    assert_eq!(tail_percentile(&v, 99.0), Ok(990.0));
    let beyond = v.iter().filter(|&&x| x > 990.0).count();
    assert_eq!(beyond, TAIL_MIN_BEYOND);
    // p90 of 100 samples also has exactly ten beyond.
    assert_eq!(tail_percentile(&ramp(100), 90.0), Ok(90.0));
}

#[test]
fn too_short_a_run_fails_loudly() {
    let err = tail_percentile(&ramp(999), 99.0).expect_err("999 samples cannot support p99");
    assert_eq!(err.samples, 999);
    assert_eq!(err.needed, 1000);
    let msg = err.to_string();
    assert!(
        msg.contains("p99") && msg.contains("1000") && msg.contains("999"),
        "{msg}"
    );
    assert!(tail_percentile(&[], 99.0).is_err());
    assert!(tail_percentile(&ramp(99), 90.0).is_err());
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn vm_hwm_is_read_in_mib() {
    let status =
        "Name:\tperfbench\nVmPeak:\t  999999 kB\nVmHWM:\t    5120 kB\nVmRSS:\t    4096 kB\n";
    assert_eq!(parse_vm_hwm_mb(status), Some(5.0));
    assert_eq!(parse_vm_hwm_mb("VmHWM:   1536 kB"), Some(1.5));
    assert_eq!(parse_vm_hwm_mb("VmRSS:\t4096 kB\n"), None, "no VmHWM line");
    assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None, "not a number");
    assert_eq!(
        parse_vm_hwm_mb("VmHWM:\t4096 MB\n"),
        None,
        "unexpected unit"
    );
    assert!(perfbench::stats::peak_rss_mb().is_some_and(|mb| mb > 0.0));
}

#[test]
fn error_pct_counts_errors_refusals_and_wrong_outputs() {
    let mut t = Tally::default();
    for _ in 0..96 {
        t.ok();
    }
    t.error();
    t.refused();
    t.ok();
    t.ok();
    t.mismatch();
    assert_eq!(t.attempted, 100);
    assert_eq!(t.failed(), 3);
    assert!((t.error_pct() - 3.0).abs() < 1e-12);
    assert_eq!(Tally::default().error_pct(), 0.0);
}

#[test]
fn a_wrong_output_is_counted_once_per_success() {
    let mut t = Tally::default();
    t.ok();
    t.error();
    t.mismatch();
    t.mismatch();
    assert_eq!(
        t.failed(),
        2,
        "the failed call cannot also be a wrong output"
    );
    assert_eq!(t.error_pct(), 100.0);
    let mut other = Tally::default();
    other.ok();
    t.merge(other);
    assert_eq!((t.attempted, t.failed()), (3, 2));
}

#[test]
fn spans_nest_and_self_times_add_up() {
    let mut t = Tracer::new(Instant::now());
    let op = t.begin_op("op");
    let outer = t.begin("outer");
    t.span("inner", || std::hint::black_box((0..1000).sum::<u64>()));
    t.end(outer);
    t.span("sibling", || ());
    t.end(op);
    let spans = t.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[2].parent, Some(1));
    check_nesting(spans).unwrap();
    check_self_within_op(spans).unwrap();
    let selfs = self_times(spans);
    assert_eq!(
        selfs.iter().sum::<u64>(),
        spans[0].dur_ns(),
        "self times partition the op"
    );
}

#[test]
fn a_paused_tracer_records_nothing() {
    let mut t = Tracer::paused(Instant::now());
    let op = t.begin_op("op");
    t.span("x", || ());
    t.end(op);
    assert!(t.spans().is_empty());
    t.set_recording(true);
    let op = t.begin_op("op");
    t.end(op);
    assert_eq!(t.spans().len(), 1);
}

#[test]
fn broken_nesting_is_reported() {
    let span = |parent, start_ns, end_ns| Span {
        op: 1,
        parent,
        name: "s",
        start_ns,
        end_ns,
    };
    assert!(
        check_nesting(&[span(None, 0, 10), span(Some(0), 5, 12)]).is_err(),
        "escapes parent"
    );
    assert!(
        check_nesting(&[span(None, 0, 10), span(None, 1, 2)]).is_err(),
        "two roots"
    );
    assert!(
        check_nesting(&[span(Some(1), 1, 2), span(None, 0, 10)]).is_err(),
        "child first"
    );
    assert!(
        check_nesting(&[span(None, 5, 4)]).is_err(),
        "ends before it starts"
    );
    // Overlapping siblings make self times exceed the op.
    let overlap = [span(None, 0, 10), span(Some(0), 0, 8), span(Some(0), 2, 10)];
    assert!(check_nesting(&overlap).is_ok());
    assert!(check_self_within_op(&overlap).is_err());
}

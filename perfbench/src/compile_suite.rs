//! `compile-suite`: one thread compiles the 17 paper kernels round-robin
//! in a seeded order, each operation `parse_module` + `try_compile`.

use std::time::{Duration, Instant};

use crate::e2e::Part;
use crate::layers::{self, ServeTally, TracedRun};
use crate::stats::{peak_rss_mb, Tally};
use crate::trace::Tracer;
use crate::{compile_kernels, parse_and_compile, ref_texts, seeded_order, Args, Outcome};

/// One worker's share of the end-to-end run. Set-up compiles every
/// kernel once; every later compile must match that text byte for byte
/// (checked between operations, outside the timed window).
///
/// # Errors
/// A failed set-up.
pub fn part(seed: u64, dur: Duration) -> Result<Part, String> {
    let t0 = Instant::now();
    let (ks, refs) = compile_kernels()?;
    let setup_s = t0.elapsed().as_secs_f64();
    let (ref_text, refs_hash) = ref_texts(&refs);
    let order = seeded_order(ks.len(), seed);
    let compiler = crate::compiler();

    let mut tally = Tally::default();
    let mut latencies_ms = Vec::new();
    let mut busy_s = 0.0;
    let start = Instant::now();
    for &k in order.iter().cycle() {
        if start.elapsed() >= dur {
            break;
        }
        let t0 = Instant::now();
        let out = parse_and_compile(&compiler, &ks[k].text);
        let dt = t0.elapsed().as_secs_f64();
        busy_s += dt;
        latencies_ms.push(dt * 1e3);
        match out {
            Ok(c) => {
                tally.ok();
                if c.module.to_string() != ref_text[k] {
                    tally.mismatch();
                }
            }
            Err(_) => tally.error(),
        }
    }
    let rss_mb = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    Ok(Part {
        setup_s,
        busy_s,
        rss_mb,
        tally,
        serve: ServeTally::default(),
        refs_hash,
        latencies_ms,
    })
}

/// The traced run: the same loop through [`layers::compile_op`]
/// (`try_compile` plus the mirrored pipeline), then execution and serve
/// sweeps over the compiled kernels.
///
/// # Errors
/// A failed set-up, sweep or span check.
pub fn run_traced(args: &Args, host_ref_ms: f64) -> Result<Outcome, String> {
    let (ks, refs) = compile_kernels()?;
    let (ref_text, _) = ref_texts(&refs);
    let compiler = crate::compiler();
    let mut t = Tracer::new(Instant::now());
    let order = seeded_order(ks.len(), args.seed);
    let passes = layers::timed_passes(&mut t, &order, args.seconds, |t, k| {
        layers::compile_op(t, &compiler, &ks[k].text)
    });

    let want = layers::decoded_refs(&refs)?;
    let exec = layers::sweep(&mut t, refs.len(), 3, |t, k| {
        layers::exec_op(t, &refs[k].module, &want[k])
    })?;
    let dir = crate::work_dir("compile-suite")?;
    let sources: Vec<&str> = ks.iter().map(|k| k.text.as_str()).collect();
    let serve = layers::serve_sweep(&mut t, &dir, &sources, &ref_text, 50)?;

    let run = TracedRun {
        tracers: vec![t.spans()],
        compile: passes.counts,
        exec,
        serve,
        overhead: passes.overhead,
        host_ref_ms,
    };
    layers::finish(args, &dir, &run, passes.tally, &passes.errors)
}

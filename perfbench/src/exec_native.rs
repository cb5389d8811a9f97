//! `exec-native`: one thread runs the kernels compiled during set-up on
//! machine code, each operation `Vm::builder(m).engine(Engine::Native)
//! .build()` followed by `run("main")`, at default input sizes.

use std::time::{Duration, Instant};

use sxe_ir::Module;
use sxe_vm::{Engine, Vm};

use crate::e2e::Part;
use crate::layers::{self, ExecRef, ServeTally, TracedRun};
use crate::stats::{peak_rss_mb, Tally};
use crate::trace::Tracer;
use crate::{compile_kernels, ref_texts, seeded_order, Args, Outcome};

/// One worker's share of the end-to-end run. Set-up compiles the
/// kernels; each run's return value, heap checksum and instruction
/// count must equal the decoded engine's (checked between operations,
/// outside the timed window).
///
/// # Errors
/// A failed set-up or reference run.
pub fn part(seed: u64, dur: Duration) -> Result<Part, String> {
    let t0 = Instant::now();
    let (ks, refs) = compile_kernels()?;
    let setup_s = t0.elapsed().as_secs_f64();
    let (_, refs_hash) = ref_texts(&refs);
    let want = layers::decoded_refs(&refs)?;
    let order = seeded_order(ks.len(), seed);

    let mut tally = Tally::default();
    let mut latencies_ms = Vec::new();
    let mut busy_s = 0.0;
    let start = Instant::now();
    for &k in order.iter().cycle() {
        if start.elapsed() >= dur {
            break;
        }
        let m: &Module = &refs[k].module;
        let t0 = Instant::now();
        let mut vm = Vm::builder(m).engine(Engine::Native).build();
        let out = vm.run("main", &[]);
        let dt = t0.elapsed().as_secs_f64();
        busy_s += dt;
        latencies_ms.push(dt * 1e3);
        match out {
            Ok(o) => {
                tally.ok();
                let got = ExecRef {
                    ret: o.ret,
                    heap: o.heap_checksum,
                    insts: vm.counters().insts,
                };
                if got != want[k] {
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

/// The traced run: the same loop through [`layers::exec_op`], then a
/// compile sweep over the kernels and a serve sweep.
///
/// # Errors
/// A failed set-up, sweep or span check.
pub fn run_traced(args: &Args, host_ref_ms: f64) -> Result<Outcome, String> {
    let (ks, refs) = compile_kernels()?;
    let want = layers::decoded_refs(&refs)?;
    let mut t = Tracer::new(Instant::now());
    let order = seeded_order(ks.len(), args.seed);
    let passes = layers::timed_passes(&mut t, &order, args.seconds, |t, k| {
        layers::exec_op(t, &refs[k].module, &want[k])
    });

    let compiler = crate::compiler();
    let compile = layers::sweep(&mut t, ks.len(), 3, |t, k| {
        layers::compile_op(t, &compiler, &ks[k].text)
    })?;
    let dir = crate::work_dir("exec-native")?;
    let (ref_text, _) = ref_texts(&refs);
    let sources: Vec<&str> = ks.iter().map(|k| k.text.as_str()).collect();
    let serve = layers::serve_sweep(&mut t, &dir, &sources, &ref_text, 50)?;

    let run = TracedRun {
        tracers: vec![t.spans()],
        compile,
        exec: passes.counts,
        serve,
        overhead: passes.overhead,
        host_ref_ms,
    };
    layers::finish(args, &dir, &run, passes.tally, &passes.errors)
}

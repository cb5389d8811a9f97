//! The traced operations of each layer and the per-layer metrics built
//! from their spans.
//!
//! Every traced run measures every layer. A workload's own loop covers
//! the layers it exercises; short sweeps over the same workload's
//! payloads cover the rest (see `README.md`, "Per-layer metrics").

use std::ops::AddAssign;
use std::path::Path;
use std::time::{Duration, Instant};

use sxe_ir::parse_module;
use sxe_ir::rng::XorShift;
use sxe_jit::Compiler;
use sxe_serve::{
    ArtifactStore, CacheOutcome, Client, ClientError, CompileRequest, CompiledArtifact, Request,
    Response, RetryPolicy, RetryStats, ServeConfig, Server,
};
use sxe_vm::{Engine, Vm};

use crate::mirror;
use crate::stats::{median, Tally};
use crate::trace::{self, Span, Tracer};
use crate::Metric;

/// Counts the per-layer table reports, each summed over one pass over
/// the workload's distinct payloads (so they repeat exactly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Step-2 rewrites (inlining included).
    pub rewrites: usize,
    /// Step-2 fixpoint rounds.
    pub rounds: usize,
    /// Live instructions after step 2.
    pub insts_after_opt: usize,
    /// Extension sites step 3 examined.
    pub ext_examined: usize,
    /// Extensions step 3 eliminated.
    pub ext_eliminated: usize,
    /// Native code bytes attributable to `Extend` instructions.
    pub extend_bytes: usize,
    /// Functions the native backend refused.
    pub refused_fns: usize,
    /// Instructions executed by `main()`.
    pub vm_insts: u64,
}

impl AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.rewrites += o.rewrites;
        self.rounds += o.rounds;
        self.insts_after_opt += o.insts_after_opt;
        self.ext_examined += o.ext_examined;
        self.ext_eliminated += o.ext_eliminated;
        self.extend_bytes += o.extend_bytes;
        self.refused_fns += o.refused_fns;
        self.vm_insts += o.vm_insts;
    }
}

/// Traced compile of one `.sxir` text: parse, `try_compile`, then the
/// mirrored pipeline, whose output must be byte-identical.
///
/// # Errors
/// A parse or compile error, or a mirror that differs.
pub fn compile_op(t: &mut Tracer, compiler: &Compiler, text: &str) -> Result<Counts, String> {
    let op = t.begin_op("op.compile");
    let parsed = t.span("ir.parse", || parse_module(text));
    let result = parsed.map_err(|e| format!("parse: {e}")).map(|m| {
        let compiled = t.span("jit.try_compile", || compiler.try_compile(&m));
        let s = t.begin("jit.mirror");
        let mirrored = mirror::compile(compiler, &m, t);
        t.end(s);
        (compiled, mirrored)
    });
    t.end(op);
    let (compiled, mirrored) = result?;
    let compiled = compiled.map_err(|e| format!("compile: {e}"))?;
    let mirrored = mirrored?;
    if compiled.module.to_string() != mirrored.module.to_string() {
        return Err("mirrored pipeline output differs from try_compile".into());
    }
    Ok(Counts {
        rewrites: mirrored.rewrites,
        rounds: mirrored.rounds,
        insts_after_opt: mirrored.insts_after_opt,
        ext_examined: mirrored.stats.examined,
        ext_eliminated: mirrored.stats.eliminated,
        ..Counts::default()
    })
}

/// What a kernel's `main()` must produce: return value, heap checksum
/// and instruction count, from the decoded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecRef {
    /// Raw return value.
    pub ret: Option<i64>,
    /// Final heap checksum.
    pub heap: u64,
    /// Executed instructions.
    pub insts: u64,
}

/// Run `main()` of `m` on the decoded engine.
///
/// # Errors
/// A trap.
pub fn decoded_ref(m: &sxe_ir::Module) -> Result<ExecRef, String> {
    let mut vm = Vm::builder(m).engine(Engine::Decoded).build();
    let out = vm.run("main", &[]).map_err(|e| e.to_string())?;
    Ok(ExecRef {
        ret: out.ret,
        heap: out.heap_checksum,
        insts: vm.counters().insts,
    })
}

/// [`decoded_ref`] of every compiled kernel.
///
/// # Errors
/// A trap.
pub fn decoded_refs(refs: &[sxe_jit::Compiled]) -> Result<Vec<ExecRef>, String> {
    refs.iter().map(|c| decoded_ref(&c.module)).collect()
}

/// Traced native execution of one compiled kernel: a decoded build, a
/// native build, and the native run of `main()`, checked against `want`.
///
/// # Errors
/// A trap or an outcome that differs from `want`.
pub fn exec_op(t: &mut Tracer, m: &sxe_ir::Module, want: &ExecRef) -> Result<Counts, String> {
    let op = t.begin_op("op.exec");
    let decoded = t.span("vm.decode", || {
        Vm::builder(m).engine(Engine::Decoded).build()
    });
    let mut vm = t.span("native.load", || {
        Vm::builder(m).engine(Engine::Native).build()
    });
    let out = t.span("native.run", || vm.run("main", &[]));
    t.end(op);
    drop(decoded);
    let out = out.map_err(|e| e.to_string())?;
    let got = ExecRef {
        ret: out.ret,
        heap: out.heap_checksum,
        insts: vm.counters().insts,
    };
    if got != *want {
        return Err(format!(
            "native run {got:?} differs from the decoded engine's {want:?}"
        ));
    }
    Ok(Counts {
        extend_bytes: vm.native_code_stats().iter().map(|s| s.2).sum(),
        refused_fns: vm.native_refusals().len(),
        vm_insts: got.insts,
        ..Counts::default()
    })
}

/// One traced compile request through `compile_with_retry`; the request
/// span is named by its outcome (`serve.hit`, `serve.miss`, or
/// `serve.failed`).
///
/// # Errors
/// The client's error.
pub fn request_op(
    t: &mut Tracer,
    client: &Client,
    req: &CompileRequest,
    rng: &mut XorShift,
) -> Result<(CacheOutcome, CompiledArtifact, RetryStats), ClientError> {
    let op = t.begin_op("op.request");
    let s = t.begin("serve.request");
    let r = client.compile_with_retry(req, &RetryPolicy::default(), rng);
    let name = match &r {
        Ok((CacheOutcome::Hit, ..)) => "serve.hit",
        Ok((CacheOutcome::Miss, ..)) => "serve.miss",
        Err(_) => "serve.failed",
    };
    t.end_renamed(s, name);
    t.end(op);
    r
}

/// `n` traced pings.
///
/// # Errors
/// A failed ping.
pub fn ping_probe(t: &mut Tracer, client: &Client, n: usize) -> Result<(), String> {
    for _ in 0..n {
        let op = t.begin_op("op.ping");
        let r = t.span("serve.ping", || client.ping());
        t.end(op);
        r.map_err(|e| format!("ping: {e}"))?;
    }
    Ok(())
}

/// Insert then read back every artifact on a private store in `dir`
/// (fsync included), and round-trip each request/response pair through
/// the wire codec.
///
/// # Errors
/// A failed insert, a read-back or codec round trip that differs.
pub fn store_and_codec_probe(
    t: &mut Tracer,
    dir: &Path,
    pairs: &[(CompileRequest, CompiledArtifact)],
) -> Result<(), String> {
    let mut store = ArtifactStore::open(dir, None).map_err(|e| format!("store: {e}"))?;
    for (req, art) in pairs {
        let bytes = art.to_bytes();
        let op = t.begin_op("op.store");
        let inserted = t.span("serve.store_insert", || store.insert(art.key, &bytes));
        let read = t.span("serve.store_get", || store.get(art.key));
        t.end(op);
        if !inserted || read.as_deref() != Some(&bytes[..]) {
            return Err(format!("store round trip of key {:016x} failed", art.key));
        }

        let request = Request::Compile(req.clone());
        let response = Response::Compiled(CacheOutcome::Miss, art.clone());
        let op = t.begin_op("op.codec");
        let decoded = t.span("serve.codec", || {
            let (rk, rp) = request.encode();
            let (sk, sp) = response.encode();
            (Request::decode(rk, &rp), Response::decode(sk, &sp))
        });
        t.end(op);
        if decoded.0.as_ref() != Ok(&request) || decoded.1.as_ref() != Ok(&response) {
            return Err("codec round trip differs".into());
        }
    }
    Ok(())
}

/// A daemon for the serve probes and the serve-mixed workload: two
/// worker threads, its artifact cache in `dir`.
///
/// # Errors
/// I/O errors starting it.
pub fn start_daemon(dir: &Path) -> Result<(Server, Client), String> {
    let config = ServeConfig {
        cache_dir: dir.to_path_buf(),
        threads: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(0, config).map_err(|e| format!("starting sxed: {e}"))?;
    let client = Client::new(server.port());
    Ok((server, client))
}

/// Shut a daemon down and wait for it.
///
/// # Errors
/// A failed shutdown request.
pub fn stop_daemon(server: Server, client: &Client) -> Result<(), String> {
    let r = client.shutdown();
    server.wait();
    r.map(drop).map_err(|e| format!("stopping sxed: {e}"))
}

/// Serve-layer sweep for the workloads that do not serve: a private
/// daemon, `pings` pings, every source requested twice (a miss, then a
/// hit), and the store and codec probes on the artifacts. Every
/// artifact must equal `want[i]`, the in-process compile's text.
///
/// # Errors
/// Any failed request, mismatch or probe.
pub fn serve_sweep(
    t: &mut Tracer,
    dir: &Path,
    sources: &[&str],
    want: &[String],
    pings: usize,
) -> Result<ServeTally, String> {
    let (server, client) = start_daemon(&dir.join("daemon"))?;
    let mut tally = ServeTally::default();
    let result = (|| {
        ping_probe(t, &client, pings)?;
        let mut rng = XorShift::new(0x5eed);
        let mut pairs = Vec::new();
        for _pass in 0..2 {
            for (src, want) in sources.iter().zip(want) {
                let req = CompileRequest::new(*src);
                match request_op(t, &client, &req, &mut rng) {
                    Ok((outcome, art, rs)) => {
                        tally.record(outcome, &rs);
                        if art.text != *want {
                            return Err("served artifact differs from in-process compile".into());
                        }
                        pairs.push((req, art));
                    }
                    Err(e) => return Err(format!("request: {e}")),
                }
            }
        }
        pairs.truncate(sources.len());
        store_and_codec_probe(t, &dir.join("store"), &pairs)
    })();
    stop_daemon(server, &client)?;
    result.map(|()| tally)
}

/// Hits, misses and refusals seen by the clients.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeTally {
    /// Responses served from the cache.
    pub hits: u64,
    /// Responses compiled fresh.
    pub misses: u64,
    /// Refusals absorbed by retries.
    pub refusals: u64,
}

impl ServeTally {
    /// Account one answered request.
    pub fn record(&mut self, outcome: CacheOutcome, rs: &RetryStats) {
        match outcome {
            CacheOutcome::Hit => self.hits += 1,
            CacheOutcome::Miss => self.misses += 1,
        }
        self.refusals += u64::from(rs.refusals);
    }

    /// Fold in another client's account.
    pub fn merge(&mut self, o: ServeTally) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.refusals += o.refusals;
    }
}

/// Alternating traced and untraced operation times, for the tracing
/// overhead: the same operations, recorded and not recorded.
#[derive(Debug, Clone, Default)]
pub struct Overhead {
    traced: (f64, u64),
    untraced: (f64, u64),
}

impl Overhead {
    /// Account one operation's wall time.
    pub fn add(&mut self, traced: bool, seconds: f64) {
        let slot = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        slot.0 += seconds;
        slot.1 += 1;
    }

    /// Fold in another thread's account.
    pub fn merge(&mut self, o: &Overhead) {
        self.traced.0 += o.traced.0;
        self.traced.1 += o.traced.1;
        self.untraced.0 += o.untraced.0;
        self.untraced.1 += o.untraced.1;
    }

    /// Mean traced minus mean untraced operation time, % of untraced.
    #[must_use]
    pub fn pct(&self) -> f64 {
        let mean = |(s, n): (f64, u64)| s / n.max(1) as f64;
        let untraced = mean(self.untraced);
        if untraced == 0.0 {
            return 0.0;
        }
        100.0 * (mean(self.traced) - untraced) / untraced
    }
}

/// Everything a traced run hands to [`per_layer_metrics`].
#[derive(Debug)]
pub struct TracedRun<'a> {
    /// Every tracer of the run (one per thread).
    pub tracers: Vec<&'a [Span]>,
    /// Compile counts over the compile payloads.
    pub compile: Counts,
    /// Execution counts over the kernels.
    pub exec: Counts,
    /// Client-side serve account.
    pub serve: ServeTally,
    /// Tracing overhead account.
    pub overhead: Overhead,
    /// Host-drift probe, ms.
    pub host_ref_ms: f64,
}

/// Check the spans and build the per-layer metrics.
///
/// # Errors
/// Spans that do not nest, self times that exceed their operation, or a
/// layer that recorded no span.
pub fn per_layer_metrics(run: &TracedRun<'_>) -> Result<Vec<Metric>, String> {
    for spans in &run.tracers {
        trace::check_nesting(spans)?;
        trace::check_self_within_op(spans)?;
    }
    let agg = trace::aggregate(run.tracers.iter().copied());
    let get = |name: &str| {
        agg.get(name)
            .ok_or_else(|| format!("no {name} span was recorded"))
    };
    let mean_us = |name: &str| get(name).map(trace::LayerTotals::mean_self_us_per_op);
    let median_ms = |name: &str| {
        get(name).map(|l| {
            let ms: Vec<f64> = l.durations.iter().map(|&d| d as f64 / 1e6).collect();
            median(&ms)
        })
    };

    // Harness = try_compile minus the mirrored pipeline, per compile op.
    let mut harness = (0.0, 0u64);
    for spans in &run.tracers {
        let mut try_ns: Option<(u32, u64)> = None;
        for s in spans.iter() {
            match s.name {
                "jit.try_compile" => try_ns = Some((s.op, s.dur_ns())),
                "jit.mirror" => {
                    if let Some((_, t)) = try_ns.take().filter(|&(op, _)| op == s.op) {
                        harness.0 += (t as f64 - s.dur_ns() as f64) / 1e3;
                        harness.1 += 1;
                    }
                }
                _ => {}
            }
        }
    }
    if harness.1 == 0 {
        return Err("no compile operation was traced".into());
    }

    let answered = run.serve.hits + run.serve.misses;
    let c = &run.compile;
    let e = &run.exec;
    Ok(vec![
        Metric::new("ir.parse_us", mean_us("ir.parse")?, "us"),
        Metric::new("ir.verify_us", mean_us("ir.verify")?, "us"),
        Metric::new("ir.insts_after_opt", c.insts_after_opt as f64, "count"),
        Metric::new("core.convert_us", mean_us("core.convert")?, "us"),
        Metric::new("opt.inline_us", mean_us("opt.inline")?, "us"),
        Metric::new("opt.copyprop_us", mean_us("opt.copyprop")?, "us"),
        Metric::new("opt.constfold_us", mean_us("opt.constfold")?, "us"),
        Metric::new("opt.simplify_us", mean_us("opt.simplify")?, "us"),
        Metric::new("opt.cse_us", mean_us("opt.cse")?, "us"),
        Metric::new("opt.licm_us", mean_us("opt.licm")?, "us"),
        Metric::new("opt.dce_us", mean_us("opt.dce")?, "us"),
        Metric::new("opt.rewrites", c.rewrites as f64, "count"),
        Metric::new("opt.rounds", c.rounds as f64, "count"),
        Metric::new("core.step3_insert_us", mean_us("core.step3_insert")?, "us"),
        Metric::new("core.step3_order_us", mean_us("core.step3_order")?, "us"),
        Metric::new("analysis.udu_us", mean_us("analysis.udu")?, "us"),
        Metric::new(
            "core.step3_eliminate_us",
            mean_us("core.step3_eliminate")?,
            "us",
        ),
        Metric::new("core.ext_examined", c.ext_examined as f64, "count"),
        Metric::new("core.ext_eliminated", c.ext_eliminated as f64, "count"),
        Metric::new("jit.harness_us", harness.0 / harness.1 as f64, "us"),
        Metric::new("vm.decode_us", mean_us("vm.decode")?, "us"),
        Metric::new("native.load_us", mean_us("native.load")?, "us"),
        Metric::new("native.run_ms", mean_us("native.run")? / 1e3, "ms"),
        Metric::new("native.extend_bytes", e.extend_bytes as f64, "bytes"),
        Metric::new("native.refused_fns", e.refused_fns as f64, "count"),
        Metric::new("vm.insts", e.vm_insts as f64, "count"),
        Metric::new("serve.ping_ms", median_ms("serve.ping")?, "ms"),
        Metric::new("serve.hit_ms", median_ms("serve.hit")?, "ms"),
        Metric::new("serve.miss_ms", median_ms("serve.miss")?, "ms"),
        Metric::new(
            "serve.hit_pct",
            100.0 * run.serve.hits as f64 / answered.max(1) as f64,
            "%",
        ),
        Metric::new("serve.refusals", run.serve.refusals as f64, "count"),
        Metric::new("serve.store_get_us", mean_us("serve.store_get")?, "us"),
        Metric::new(
            "serve.store_insert_us",
            mean_us("serve.store_insert")?,
            "us",
        ),
        Metric::new("serve.codec_us", mean_us("serve.codec")?, "us"),
        Metric::new("trace.overhead_pct", run.overhead.pct(), "%"),
        Metric::new("host.ref_ms", run.host_ref_ms, "ms"),
    ])
}

/// What a workload's traced loop measured.
#[derive(Debug, Default)]
pub struct Passes {
    /// Counts of the first pass.
    pub counts: Counts,
    /// Recorded against unrecorded pass times.
    pub overhead: Overhead,
    /// Error account of the loop's operations.
    pub tally: Tally,
    /// The first few failures.
    pub errors: Vec<String>,
}

/// A workload's traced loop: passes over the payloads in `order` until
/// `dur` has elapsed, `op(t, i)` once per payload. Even passes are
/// recorded, odd ones run the same calls unrecorded, for the tracing
/// overhead.
pub fn timed_passes(
    t: &mut Tracer,
    order: &[usize],
    dur: Duration,
    mut op: impl FnMut(&mut Tracer, usize) -> Result<Counts, String>,
) -> Passes {
    let mut out = Passes::default();
    let start = Instant::now();
    let mut pass = 0;
    while start.elapsed() < dur {
        t.set_recording(pass % 2 == 0);
        for &i in order {
            let t0 = Instant::now();
            let r = op(t, i);
            out.overhead.add(t.recording(), t0.elapsed().as_secs_f64());
            match r {
                Ok(c) if pass == 0 => {
                    out.tally.ok();
                    out.counts += c;
                }
                Ok(_) => out.tally.ok(),
                Err(e) => {
                    out.tally.error();
                    if out.errors.len() < 5 {
                        out.errors.push(e);
                    }
                }
            }
        }
        pass += 1;
    }
    t.set_recording(true);
    out
}

/// A sweep: `reps` recorded passes of `op` over payloads `0..n`,
/// returning the counts of the first.
///
/// # Errors
/// The first failing operation.
pub fn sweep(
    t: &mut Tracer,
    n: usize,
    reps: usize,
    mut op: impl FnMut(&mut Tracer, usize) -> Result<Counts, String>,
) -> Result<Counts, String> {
    let mut counts = Counts::default();
    for rep in 0..reps {
        for i in 0..n {
            let c = op(t, i)?;
            if rep == 0 {
                counts += c;
            }
        }
    }
    Ok(counts)
}

/// Shared tail of every traced run: check the spans, build the per-layer
/// metrics, write the spans next to `dir` and remove `dir`.
///
/// # Errors
/// A span check that fails, or I/O errors.
pub fn finish(
    args: &crate::Args,
    dir: &Path,
    run: &TracedRun<'_>,
    tally: Tally,
    errors: &[String],
) -> Result<crate::Outcome, String> {
    let mut notes: Vec<String> = errors
        .iter()
        .map(|e| format!("traced op failed: {e}"))
        .collect();
    let metrics = per_layer_metrics(run)?;
    let path = dir.with_file_name(format!("{}-seed{}.spans.csv", args.workload, args.seed));
    std::fs::write(&path, trace::to_csv(run.tracers.iter().copied()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let _ = std::fs::remove_dir_all(dir);
    let spans: usize = run.tracers.iter().map(|s| s.len()).sum();
    notes.push(format!(
        "spans: {spans} recorded, nesting and self-time checks passed, written to {}",
        path.display()
    ));
    notes.push(format!(
        "tracing overhead: {:.2}% (mean traced vs untraced operation time)",
        run.overhead.pct()
    ));
    Ok(crate::Outcome {
        correct: tally.failed() == 0,
        tally,
        metrics,
        notes,
    })
}

//! `serve-mixed`: an in-process `sxed` daemon (two workers) driven by two
//! closed-loop client threads through `compile_with_retry`. About 80% of
//! requests repeat the 17 kernels, cached during set-up (hits); about
//! 20% are fresh seeded generated modules (misses: compile plus an
//! fsynced store write).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sxe_fuzz::gen::{generate_module, GenConfig};
use sxe_ir::rng::XorShift;
use sxe_serve::{Client, ClientError, CompileRequest, Server};

use crate::e2e::Part;
use crate::layers::{self, Overhead, ServeTally, TracedRun};
use crate::stats::{peak_rss_mb, Tally};
use crate::trace::{Span, Tracer};
use crate::{
    kernels, parse_and_compile, ref_texts, reference_compiles, text_hash, Args, Kernel, Outcome,
};

/// Client threads (and daemon workers).
const CLIENTS: usize = 2;
/// Share of requests that repeat a cached kernel, in percent.
const HIT_PCT: u64 = 80;
/// Shape of the miss modules: larger than the fuzz default so a miss
/// costs a real compile, far smaller than shapes that take seconds.
const MISS_SHAPE: GenConfig = GenConfig {
    max_funcs: 4,
    max_stmts: 12,
    max_depth: 3,
};
/// Requests per recorded or unrecorded block of the traced loop.
const TRACE_BLOCK: usize = 20;

/// The `.sxir` text of miss `n` of client `lane` under `seed`.
#[must_use]
pub fn miss_source(seed: u64, lane: usize, n: u64) -> String {
    let mut rng = XorShift::new(seed ^ ((lane as u64 + 1) << 56) ^ n);
    generate_module(rng.next_u64(), &MISS_SHAPE).to_string()
}

/// A running daemon whose cache holds the 17 kernels.
struct Daemon {
    server: Option<Server>,
    client: Client,
    dir: PathBuf,
}

impl Daemon {
    /// Set-up: start the daemon on a fresh cache and compile every
    /// kernel once through it, so later requests for them are hits.
    fn start(ks: &[Kernel], dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let (server, client) = layers::start_daemon(&dir)?;
        let daemon = Daemon {
            server: Some(server),
            client,
            dir,
        };
        let mut rng = XorShift::new(1);
        for k in ks {
            let req = CompileRequest::new(k.text.clone());
            daemon
                .client
                .compile_with_retry(&req, &sxe_serve::RetryPolicy::default(), &mut rng)
                .map_err(|e| format!("warming {}: {e}", k.name))?;
        }
        daemon.client.ping().map_err(|e| format!("ping: {e}"))?;
        Ok(daemon)
    }

    /// Shut down, wait, and remove the cache directory.
    fn stop(mut self) -> Result<(), String> {
        let r = match self.server.take() {
            Some(server) => layers::stop_daemon(server, &self.client),
            None => Ok(()),
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        r
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = layers::stop_daemon(server, &self.client);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one client thread measured.
#[derive(Debug, Default)]
struct Lane {
    latencies_ms: Vec<f64>,
    tally: Tally,
    serve: ServeTally,
    /// `(miss index, hash of the served text)`, re-checked after the loop.
    misses: Vec<(u64, u64)>,
    spans: Vec<Span>,
    overhead: Overhead,
    errors: Vec<String>,
}

/// What the client threads share.
#[derive(Clone, Copy)]
struct Load<'a> {
    seed: u64,
    dur: Duration,
    client: &'a Client,
    hits: &'a [CompileRequest],
    ref_text: &'a [String],
    traced: bool,
}

/// One client's closed loop. Hits are checked against the reference
/// text at once; misses are hashed and re-checked after the loop.
fn client_loop(lane: usize, load: Load<'_>) -> Lane {
    let Load {
        seed,
        dur,
        client,
        hits,
        ref_text,
        traced,
    } = load;
    let mut out = Lane::default();
    let mut pick = XorShift::new(seed ^ (0xc0ffee * (lane as u64 + 1)));
    let mut retry_rng = XorShift::new(seed.wrapping_add(lane as u64));
    let mut t = if traced {
        Tracer::new(Instant::now())
    } else {
        Tracer::paused(Instant::now())
    };
    let mut next_miss = 0;
    let start = Instant::now();
    while start.elapsed() < dur {
        if traced {
            t.set_recording((out.latencies_ms.len() / TRACE_BLOCK).is_multiple_of(2));
        }
        let (req, kernel) = if pick.below(100) < HIT_PCT {
            let k = pick.index(hits.len());
            (hits[k].clone(), Some(k))
        } else {
            next_miss += 1;
            (
                CompileRequest::new(miss_source(seed, lane, next_miss - 1)),
                None,
            )
        };
        let t0 = Instant::now();
        let r = layers::request_op(&mut t, client, &req, &mut retry_rng);
        let dt = t0.elapsed().as_secs_f64();
        out.latencies_ms.push(dt * 1e3);
        if traced {
            out.overhead.add(t.recording(), dt);
        }
        match r {
            Ok((outcome, art, rs)) => {
                out.tally.ok();
                out.serve.record(outcome, &rs);
                match kernel {
                    Some(k) if art.text != ref_text[k] => out.tally.mismatch(),
                    Some(_) => {}
                    None => out.misses.push((next_miss - 1, text_hash(&art.text))),
                }
            }
            Err(ClientError::Exhausted(_)) => out.tally.refused(),
            Err(e) => {
                out.tally.error();
                if out.errors.len() < 5 {
                    out.errors.push(e.to_string());
                }
            }
        }
    }
    t.set_recording(true);
    out.spans = t.spans().to_vec();
    out
}

/// Run the clients concurrently; returns the lanes and the loop's wall
/// time.
fn drive(load: Load<'_>) -> (Vec<Lane>, f64) {
    let start = Instant::now();
    let lanes = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|lane| s.spawn(move || client_loop(lane, load)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (lanes, start.elapsed().as_secs_f64())
}

/// Re-compile every miss in-process (two threads) and compare with
/// what the daemon served; returns the number that differ.
fn recheck_misses(seed: u64, lanes: &[Lane]) -> u64 {
    let jobs: Vec<(usize, u64, u64)> = lanes
        .iter()
        .enumerate()
        .flat_map(|(lane, l)| l.misses.iter().map(move |&(n, h)| (lane, n, h)))
        .collect();
    let compiler = crate::compiler();
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(jobs.len().div_ceil(CLIENTS).max(1))
            .map(|chunk| {
                let compiler = &compiler;
                s.spawn(move || {
                    chunk
                        .iter()
                        .filter(|&&(lane, n, h)| {
                            parse_and_compile(compiler, &miss_source(seed, lane, n))
                                .map_or(true, |c| text_hash(&c.module.to_string()) != h)
                        })
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("re-check thread panicked"))
            .sum()
    })
}

/// One worker's share of the end-to-end run. Set-up starts the daemon
/// and caches the kernels through it; after the loop every miss is
/// compiled again in-process and compared.
///
/// # Errors
/// A failed set-up or daemon.
pub fn part(seed: u64, dur: Duration) -> Result<Part, String> {
    let root = crate::work_dir("serve-mixed")?;
    let ks = kernels();
    let t0 = Instant::now();
    let daemon = Daemon::start(&ks, root.join("daemon"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let (ref_text, refs_hash) = ref_texts(&reference_compiles(&ks)?);
    let hits: Vec<CompileRequest> = ks
        .iter()
        .map(|k| CompileRequest::new(k.text.clone()))
        .collect();

    let load = Load {
        seed,
        dur,
        client: &daemon.client,
        hits: &hits,
        ref_text: &ref_text,
        traced: false,
    };
    let (lanes, wall) = drive(load);
    let rss_mb = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    daemon.stop()?;
    let _ = std::fs::remove_dir_all(&root);

    let mut tally = Tally::default();
    let mut serve = ServeTally::default();
    let mut latencies_ms = Vec::new();
    for l in &lanes {
        tally.merge(l.tally);
        serve.merge(l.serve);
        latencies_ms.extend_from_slice(&l.latencies_ms);
        for e in &l.errors {
            eprintln!("perfbench: serve-mixed request failed: {e}");
        }
    }
    for _ in 0..recheck_misses(seed, &lanes) {
        tally.mismatch();
    }
    Ok(Part {
        setup_s,
        busy_s: wall,
        rss_mb,
        tally,
        serve,
        refs_hash,
        latencies_ms,
    })
}

/// Misses whose compile layers the traced run sweeps, per seed.
const SWEEP_MISSES: u64 = 16;

/// The traced run: the same two clients, alternating recorded and
/// unrecorded blocks of requests; then pings, store and codec probes on
/// the workload's payloads, a compile sweep over the kernels plus the
/// first misses, and an execution sweep over the served kernels.
///
/// # Errors
/// A failed set-up, sweep or span check.
pub fn run_traced(args: &Args, host_ref_ms: f64) -> Result<Outcome, String> {
    let root = crate::work_dir("serve-mixed")?;
    let ks = kernels();
    let daemon = Daemon::start(&ks, root.join("daemon"))?;
    let refs = reference_compiles(&ks)?;
    let (ref_text, _) = ref_texts(&refs);
    let hits: Vec<CompileRequest> = ks
        .iter()
        .map(|k| CompileRequest::new(k.text.clone()))
        .collect();

    let load = Load {
        seed: args.seed,
        dur: args.seconds,
        client: &daemon.client,
        hits: &hits,
        ref_text: &ref_text,
        traced: true,
    };
    let (lanes, _) = drive(load);
    let mut tally = Tally::default();
    let mut serve = ServeTally::default();
    let mut overhead = Overhead::default();
    let mut errors = Vec::new();
    for l in &lanes {
        tally.merge(l.tally);
        serve.merge(l.serve);
        overhead.merge(&l.overhead);
        errors.extend(l.errors.iter().cloned());
    }

    let mut t = Tracer::new(Instant::now());
    let probed = (|| {
        layers::ping_probe(&mut t, &daemon.client, 100)?;
        let mut rng = XorShift::new(args.seed);
        let mut sources: Vec<String> = ks.iter().map(|k| k.text.clone()).collect();
        sources.extend((0..SWEEP_MISSES).map(|n| miss_source(args.seed, 0, n)));
        let mut pairs = Vec::new();
        for src in &sources {
            let req = CompileRequest::new(src.clone());
            let (_, art, _) = daemon
                .client
                .compile_with_retry(&req, &sxe_serve::RetryPolicy::default(), &mut rng)
                .map_err(|e| format!("payload request: {e}"))?;
            pairs.push((req, art));
        }
        layers::store_and_codec_probe(&mut t, &root.join("store"), &pairs)?;
        let compiler = crate::compiler();
        let compile = layers::sweep(&mut t, sources.len(), 1, |t, i| {
            layers::compile_op(t, &compiler, &sources[i])
        })?;
        let served = pairs[..ks.len()]
            .iter()
            .map(|(_, art)| sxe_ir::parse_module(&art.text).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let want = layers::decoded_refs(&refs)?;
        let exec = layers::sweep(&mut t, served.len(), 3, |t, k| {
            layers::exec_op(t, &served[k], &want[k])
        })?;
        Ok::<_, String>((compile, exec))
    })();
    daemon.stop()?;
    let (compile, exec) = probed?;
    for _ in 0..recheck_misses(args.seed, &lanes) {
        tally.mismatch();
    }

    let mut tracers: Vec<&[Span]> = lanes.iter().map(|l| l.spans.as_slice()).collect();
    tracers.push(t.spans());
    let run = TracedRun {
        tracers,
        compile,
        exec,
        serve,
        overhead,
        host_ref_ms,
    };
    layers::finish(args, &root, &run, tally, &errors)
}

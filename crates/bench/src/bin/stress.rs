//! `stress` — many-client load driver and crash-recovery gate for the
//! `sxed` compile-service daemon.
//!
//! ```text
//! cargo run --release -p sxe-bench --bin stress -- \
//!     [--clients N] [--requests N] [--threads N] [--queue-capacity N] \
//!     [--scale F] [--seed S] [--gate]
//! ```
//!
//! Default mode starts an in-process daemon and hammers it with
//! `--clients` concurrent retrying clients, each issuing `--requests`
//! workload compiles; it reports modules/sec, cache hit rate, typed
//! refusals absorbed, and the daemon's p99 latency — the numbers behind
//! the serving table in EXPERIMENTS.md.
//!
//! `--gate` is the tier-1 robustness gate. It drives a **real `sxed`
//! subprocess** (found next to this binary, or via `$SXED_BIN`) through
//! the full fault story: warm the cache twice (second pass must hit ≥
//! 90%), shut down cleanly, SIGKILL a daemon mid-cache-write, corrupt a
//! committed entry on disk, restart, and prove every response after
//! recovery is byte-identical to the first pass with the corrupt entry
//! quarantined — plus an in-process overload burst that must shed load
//! with typed refusals and still complete under retry.

use std::io::BufRead as _;
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use sxe_ir::rng::XorShift;
use sxe_jit::cmdline::{Args, ReproCmd};
use sxe_serve::{
    stat_value, CacheOutcome, Client, CompileRequest, CompiledArtifact, Response, RetryPolicy,
    ServeConfig, Server,
};

struct Options {
    clients: usize,
    requests: usize,
    threads: usize,
    queue_capacity: usize,
    scale: f64,
    seed: u64,
    gate: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            clients: 8,
            requests: 4,
            threads: 4,
            queue_capacity: 16,
            scale: 0.05,
            seed: 0xc0ffee,
            gate: false,
        }
    }
}

const USAGE: &str = "usage: stress [--clients N] [--requests N] [--threads N] \
                     [--queue-capacity N] [--scale F] [--seed S] [--gate]";

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = Args::from_env("stress", USAGE);
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--clients" => opts.clients = args.value(),
            "--requests" => opts.requests = args.value(),
            "--threads" => opts.threads = args.value(),
            "--queue-capacity" => opts.queue_capacity = args.value(),
            "--scale" => opts.scale = args.value(),
            "--seed" => opts.seed = args.seed(),
            "--gate" => opts.gate = true,
            _ => args.unexpected(),
        }
    }
    opts
}

/// The 17 workload modules as request sources. `bump` offsets every
/// size, so different bumps produce disjoint artifact keys.
fn workload_sources(scale: f64, bump: u32) -> Vec<(String, String)> {
    sxe_workloads::all()
        .iter()
        .map(|w| {
            let size = w.scaled(scale) + bump;
            (w.name.to_string(), w.build(size).to_string())
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sxe-stress-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------- load mode

fn run_load(opts: &Options) -> Result<(), String> {
    let sources = workload_sources(opts.scale, 0);
    let dir = fresh_dir("load");
    let server = Server::start(
        0,
        ServeConfig {
            cache_dir: dir.clone(),
            threads: opts.threads,
            queue_capacity: opts.queue_capacity,
            retry_after: Duration::from_millis(5),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("cannot start daemon: {e}"))?;
    let client = Client::new(server.port());
    let policy = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };

    let t0 = Instant::now();
    let totals: Vec<(u32, u32, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|c| {
                let client = client.clone();
                let sources = &sources;
                let policy = &policy;
                let seed = opts.seed;
                let requests = opts.requests;
                s.spawn(move || {
                    let mut rng = XorShift::new(seed ^ (c as u64).wrapping_mul(0x9e37));
                    let (mut attempts, mut refusals, mut hits, mut misses) = (0, 0, 0u64, 0u64);
                    for r in 0..requests {
                        let (_, src) = &sources[(c + r) % sources.len()];
                        let (outcome, _, stats) = client
                            .compile_with_retry(&CompileRequest::new(src.clone()), policy, &mut rng)
                            .expect("stressed compile must eventually succeed");
                        attempts += stats.attempts;
                        refusals += stats.refusals;
                        match outcome {
                            CacheOutcome::Hit => hits += 1,
                            CacheOutcome::Miss => misses += 1,
                        }
                    }
                    (attempts, refusals, hits, misses)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = t0.elapsed();

    let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;
    client.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);

    let total_requests = (opts.clients * opts.requests) as u64;
    let attempts: u32 = totals.iter().map(|t| t.0).sum();
    let refusals: u32 = totals.iter().map(|t| t.1).sum();
    let hits: u64 = totals.iter().map(|t| t.2).sum();
    let misses: u64 = totals.iter().map(|t| t.3).sum();
    let p99_ms =
        stat_value(&stats, "serve.latency.p99_ns").unwrap_or(0) as f64 / 1_000_000.0;
    println!("stress: {} clients x {} requests, {} worker threads, queue {}", opts.clients, opts.requests, opts.threads, opts.queue_capacity);
    println!("{:>22} {:>12}", "metric", "value");
    println!("{:>22} {:>12}", "requests", total_requests);
    println!("{:>22} {:>12.1}", "modules/sec", total_requests as f64 / wall.as_secs_f64().max(1e-9));
    println!("{:>22} {:>11.1}%", "cache hit rate", 100.0 * hits as f64 / (hits + misses).max(1) as f64);
    println!("{:>22} {:>12}", "typed refusals", refusals);
    println!("{:>22} {:>12}", "attempts", attempts);
    println!("{:>22} {:>12.2}", "daemon p99 (ms)", p99_ms);
    Ok(())
}

// ---------------------------------------------------------------- gate mode

/// A `sxed` subprocess plus the port scraped from its first stdout line.
/// The stdout pipe is held open for the daemon's lifetime so its final
/// log line never hits a closed pipe.
struct Daemon {
    child: Child,
    client: Client,
    _stdout: std::io::BufReader<std::process::ChildStdout>,
}

fn sxed_binary() -> Result<PathBuf, String> {
    if let Ok(explicit) = std::env::var("SXED_BIN") {
        return Ok(PathBuf::from(explicit));
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name("sxed");
    if sibling.exists() {
        return Ok(sibling);
    }
    Err(format!(
        "cannot find the sxed binary next to {} — build it with `cargo build -p sxe-serve` \
         or set $SXED_BIN",
        me.display()
    ))
}

fn spawn_daemon(cache_dir: &std::path::Path, extra: &[&str]) -> Result<Daemon, String> {
    let bin = sxed_binary()?;
    let mut child = Command::new(&bin)
        .arg("--port")
        .arg("0")
        .arg("--cache-dir")
        .arg(cache_dir)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().ok_or("no stdout from sxed")?;
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| format!("reading sxed banner: {e}"))?;
    let port: u16 = line
        .rsplit_once("127.0.0.1:")
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| format!("unparseable sxed banner: {line:?}"))?;
    Ok(Daemon { child, client: Client::new(port), _stdout: reader })
}

fn compile_all(
    client: &Client,
    sources: &[(String, String)],
) -> Result<Vec<(CacheOutcome, CompiledArtifact)>, String> {
    sources
        .iter()
        .map(|(name, src)| match client.compile_once(&CompileRequest::new(src.clone())) {
            Ok(Response::Compiled(outcome, artifact)) => Ok((outcome, artifact)),
            Ok(other) => Err(format!("{name}: unexpected response {other:?}")),
            Err(e) => Err(format!("{name}: {e}")),
        })
        .collect()
}

fn gate_overload_burst() -> Result<u32, String> {
    let dir = fresh_dir("gate-overload");
    let server = Server::start(
        0,
        ServeConfig {
            cache_dir: dir.clone(),
            threads: 1,
            queue_capacity: 1,
            write_delay: Some(Duration::from_millis(200)),
            retry_after: Duration::from_millis(10),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("overload daemon: {e}"))?;
    let client = Client::new(server.port());
    let sources = workload_sources(0.05, 1000);
    let burst = &sources[..8.min(sources.len())];
    let responses: Vec<Response> = std::thread::scope(|s| {
        let handles: Vec<_> = burst
            .iter()
            .map(|(_, src)| {
                let client = client.clone();
                let src = src.clone();
                s.spawn(move || client.compile_once(&CompileRequest::new(src)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst client aborted — overload must never panic"))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("burst transport error: {e}"))?;
    let refusals = responses.iter().filter(|r| matches!(r, Response::Refused(_))).count() as u32;
    if refusals == 0 {
        return Err("an 8-request burst against a 1-slot queue shed no load".into());
    }
    // Every refused request completes under the retrying client.
    let mut rng = XorShift::new(0xfeed);
    let policy = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
    for (name, src) in burst {
        client
            .compile_with_retry(&CompileRequest::new(src.clone()), &policy, &mut rng)
            .map_err(|e| format!("{name}: retry did not complete: {e}"))?;
    }
    client.shutdown().map_err(|e| format!("overload shutdown: {e}"))?;
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(refusals)
}

fn run_gate(opts: &Options) -> Result<(), String> {
    let sources = workload_sources(opts.scale, 0);
    let dir = fresh_dir("gate");

    // Pass 1 + 2: cold then warm; clean shutdown must drain and persist.
    let mut daemon = spawn_daemon(&dir, &["--threads", "4"])?;
    let pass1 = compile_all(&daemon.client, &sources)?;
    let pass2 = compile_all(&daemon.client, &sources)?;
    let hits = pass2.iter().filter(|(o, _)| *o == CacheOutcome::Hit).count();
    if hits * 10 < sources.len() * 9 {
        return Err(format!("second pass hit {hits}/{} — below the 90% floor", sources.len()));
    }
    for (i, ((_, a1), (_, a2))) in pass1.iter().zip(&pass2).enumerate() {
        if a1 != a2 {
            return Err(format!("{}: warm replay differs from cold compile", sources[i].0));
        }
    }
    daemon.client.shutdown().map_err(|e| format!("clean shutdown: {e}"))?;
    let status = daemon.child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("clean shutdown exited with {status}"));
    }
    println!("stress gate: warm pass hit {hits}/{} and drained cleanly", sources.len());

    // Crash phase: SIGKILL the daemon while cache writes are in flight.
    let mut daemon = spawn_daemon(&dir, &["--threads", "4", "--write-delay-ms", "400"])?;
    let fresh = workload_sources(opts.scale, 3);
    std::thread::scope(|s| {
        for (_, src) in fresh.iter().take(6) {
            let client = daemon.client.clone();
            let src = src.clone();
            s.spawn(move || {
                // The kill lands mid-request; errors are the point.
                let _ = client.compile_once(&CompileRequest::new(src));
            });
        }
        std::thread::sleep(Duration::from_millis(600));
        daemon.child.kill().expect("SIGKILL");
        let _ = daemon.child.wait();
    });

    // Corrupt one committed entry behind the daemon's back.
    let victim = dir.join(format!("{:016x}.art", pass1[0].1.key));
    let mut bytes = std::fs::read(&victim).map_err(|e| format!("read {}: {e}", victim.display()))?;
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&victim, bytes).map_err(|e| format!("corrupt {}: {e}", victim.display()))?;

    // Recovery: restart, replay the original 17 — byte-identical
    // responses, corrupt entry quarantined, no wrong answers.
    let mut daemon = spawn_daemon(&dir, &["--threads", "4"])?;
    let pass3 = compile_all(&daemon.client, &sources)?;
    for (i, ((_, a1), (_, a3))) in pass1.iter().zip(&pass3).enumerate() {
        if a1 != a3 {
            return Err(format!(
                "{}: post-crash response differs from pre-crash (corrupt cache served?)",
                sources[i].0
            ));
        }
    }
    if pass3[0].0 != CacheOutcome::Miss {
        return Err("the corrupted entry was served as a hit instead of quarantined".into());
    }
    let stats = daemon.client.stats().map_err(|e| format!("stats: {e}"))?;
    let quarantined = stat_value(&stats, "serve.cache.quarantined").unwrap_or(0);
    if quarantined < 1 {
        return Err(format!("expected >= 1 quarantined entry, stats say {quarantined}"));
    }
    daemon.client.shutdown().map_err(|e| format!("post-crash shutdown: {e}"))?;
    let status = daemon.child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("post-crash daemon exited with {status}"));
    }
    println!(
        "stress gate: crash recovery OK ({quarantined} quarantined, {} byte-identical replays)",
        sources.len()
    );

    let refusals = gate_overload_burst()?;
    println!("stress gate: overload shed {refusals} request(s) with typed refusals, retries completed");

    let _ = std::fs::remove_dir_all(&dir);
    println!("stress gate: OK");
    Ok(())
}

fn main() -> ExitCode {
    let opts = parse_args();
    let result = if opts.gate { run_gate(&opts) } else { run_load(&opts) };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            let repro = ReproCmd::new("sxe-bench", "stress");
            let repro = if opts.gate { repro.arg("--gate") } else { repro };
            eprintln!("stress: FAILED: {msg}");
            eprintln!("    repro: {repro}");
            ExitCode::FAILURE
        }
    }
}

//! The `sxed` daemon: admission control, worker-pool dispatch, and
//! graceful drain around the persistent [`ArtifactStore`].
//!
//! Threading model:
//!
//! * an **accept loop** blocks in `accept` on a loopback TCP listener
//!   and spawns one handler thread per connection, each with socket
//!   read/write timeouts so a stalled peer cannot pin a thread forever.
//!   Shutdown wakes it with a loopback self-connect, which it drops
//!   unanswered;
//! * handlers perform **admission control** inline: a compile request
//!   either enters the bounded queue or is answered immediately with a
//!   typed [`Refusal`] carrying a `retry_after_ms` hint — the daemon
//!   sheds load, it never hangs or aborts;
//! * a single **dispatcher** drains the queue in batches into
//!   [`sxe_jit::shard::par_map`] — the same fixed-size fork/join pool
//!   the sharded compiler uses — and each worker sends its response
//!   directly to the waiting handler the moment it is done (no batch
//!   barrier on the reply path). Workers compile with `threads(1)`,
//!   so every response is byte-identical to a sequential `sxec` run
//!   regardless of the pool size;
//! * **graceful shutdown** ([`Request::Shutdown`]) stops admitting,
//!   drains every queued and in-flight request, persists and fsyncs
//!   the cache index, then acks with the number of requests drained.
//!
//! Every compile resolves against the [`ArtifactStore`] keyed by
//! [`artifact_key`]; only clean
//! compilations (no incidents, no budget
//! exhaustion, no fault plan) are cached — see
//! [`sxe_jit::artifact`] for the soundness argument.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sxe_ir::parse_module;
use sxe_jit::artifact::artifact_key;
use sxe_jit::{shard, Compiler};
use sxe_telemetry::Telemetry;

use crate::proto::{
    read_frame, CacheOutcome, CompileRequest, CompiledArtifact, Refusal, RefusalReason, Request,
    Response,
};
use crate::store::ArtifactStore;

/// Daemon configuration. `Default` gives production-ish settings; the
/// gates tighten `queue_capacity` / `write_delay` to force the edges.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory of the persistent artifact cache.
    pub cache_dir: PathBuf,
    /// Worker threads for the compile pool (also the dispatch batch
    /// width). Responses are byte-identical at any value.
    pub threads: usize,
    /// Bounded admission queue: compile requests beyond this many
    /// *waiting* (not yet dispatched) are refused.
    pub queue_capacity: usize,
    /// Default per-request fuel budget when the request names none.
    pub default_fuel: Option<u64>,
    /// Default per-request wall-clock budget when the request names none.
    pub default_time_limit: Option<Duration>,
    /// Socket read/write timeout per connection; a peer that stalls
    /// longer is disconnected.
    pub io_timeout: Duration,
    /// Once the first byte of a frame has arrived, the whole frame must
    /// arrive within this long (slow-loris defense): a peer dripping a
    /// frame one byte at a time is answered with a typed error and
    /// disconnected instead of pinning a handler for `io_timeout` per
    /// byte. Waiting *between* frames still uses `io_timeout`.
    pub frame_deadline: Duration,
    /// Connection cap: beyond this many live handler threads, a new
    /// connection is answered immediately with a typed
    /// `connection-limit` refusal (carrying the retry hint) and closed
    /// — bounded threads, never an unexplained hang. `0` disables the
    /// cap.
    pub max_connections: usize,
    /// Backoff hint attached to refusals.
    pub retry_after: Duration,
    /// Test hook: widen the cache-write crash window (see
    /// [`ArtifactStore::open`]). `None` in production.
    pub write_delay: Option<Duration>,
    /// Test hook: panic the compile worker when the request's module
    /// contains a function with this name — proves a job panic is
    /// contained to a typed error without killing the worker pool.
    /// `None` in production.
    pub compile_panic_on: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            cache_dir: PathBuf::from("sxed-cache"),
            threads: 4,
            queue_capacity: 64,
            default_fuel: None,
            default_time_limit: None,
            io_timeout: Duration::from_secs(10),
            frame_deadline: Duration::from_secs(2),
            max_connections: 256,
            retry_after: Duration::from_millis(25),
            write_delay: None,
            compile_panic_on: None,
        }
    }
}

struct Job {
    req: CompileRequest,
    reply: mpsc::Sender<Response>,
}

#[derive(Default)]
struct QueueState {
    pending: VecDeque<Job>,
    in_flight: usize,
}

struct Shared {
    config: ServeConfig,
    queue: Mutex<QueueState>,
    cond: Condvar,
    store: Mutex<ArtifactStore>,
    tel: Telemetry,
    /// No new compile admissions; drain has begun.
    shutting_down: AtomicBool,
    /// Drain complete and index persisted; the accept loop may exit.
    done: AtomicBool,
    /// Cleared when the accept loop returns (see [`wake_accept`]).
    accepting: AtomicBool,
    /// The listener's port, for the shutdown wake's self-connect.
    port: u16,
    active_conns: AtomicU64,
}

/// A running daemon. Dropping the handle does not stop it; send
/// [`Request::Shutdown`] (e.g. via [`Client::shutdown`]) and then
/// [`wait`](Server::wait).
///
/// [`Client::shutdown`]: crate::client::Client::shutdown
pub struct Server {
    shared: Arc<Shared>,
    port: u16,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind a loopback TCP listener on `port` (`0` picks an ephemeral
    /// port — read it back with [`port`](Server::port)), open the
    /// artifact cache, and start serving.
    ///
    /// # Errors
    /// I/O errors binding the socket or opening the cache directory.
    pub fn start(port: u16, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let port = listener.local_addr()?.port();
        let store = ArtifactStore::open(&config.cache_dir, config.write_delay)?;
        let tel = Telemetry::enabled();
        tel.metrics(|m| {
            m.add("serve.cache.recovered_entries", store.len() as u64);
            m.add("serve.cache.swept_tmp", store.stats().swept_tmp);
            // Seed every counter at zero so a stats snapshot always
            // carries the full schema, even before the first event.
            for name in [
                "serve.requests",
                "serve.compiles",
                "serve.refused.queue_full",
                "serve.refused.shutting_down",
                "serve.net.conn_refused",
                "serve.net.frame_deadline_hits",
                "serve.net.malformed_frames",
                "serve.net.proto_errors",
                "serve.worker.panics",
            ] {
                m.add(name, 0);
            }
        });
        let shared = Arc::new(Shared {
            config,
            queue: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
            store: Mutex::new(store),
            tel,
            shutting_down: AtomicBool::new(false),
            done: AtomicBool::new(false),
            accepting: AtomicBool::new(true),
            port,
            active_conns: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatch_loop(&shared))
        };
        Ok(Server { shared, port, accept: Some(accept), dispatcher: Some(dispatcher) })
    }

    /// The bound TCP port (loopback).
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The daemon's telemetry handle (live counters and histograms).
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        self.shared.tel.clone()
    }

    /// Block until the daemon has shut down (a client sent
    /// [`Request::Shutdown`] and the drain finished), then reap the
    /// service threads and linger briefly for handler threads to flush
    /// their final frames.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.active_conns.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Backoff after a failed `accept` (e.g. `EMFILE`), so descriptor
/// exhaustion cannot spin a core.
pub(crate) const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // Checked before the connection is touched: the shutdown wake,
        // or a peer that raced it, is dropped unanswered, as if it had
        // arrived after the listener closed.
        if shared.done.load(Ordering::Acquire) {
            shared.accepting.store(false, Ordering::Release);
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let cap = shared.config.max_connections as u64;
                if cap > 0 && shared.active_conns.load(Ordering::Acquire) >= cap {
                    shared.tel.metrics(|m| m.add("serve.net.conn_refused", 1));
                    let shared = Arc::clone(shared);
                    std::thread::spawn(move || refuse_conn(stream, &shared));
                    continue;
                }
                shared.active_conns.fetch_add(1, Ordering::AcqRel);
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    handle_conn(stream, &shared);
                    shared.active_conns.fetch_sub(1, Ordering::AcqRel);
                });
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Wake a thread parked in a blocking `accept` on loopback `port`,
/// after its stop flag is set, by connecting to it; the accept loop
/// checks the flag first and drops the connection unserved.
///
/// One connect can be lost: under descriptor exhaustion `connect`
/// itself fails while the listener stays parked, and a lost wake would
/// hang whoever joins the accept thread. So the connect is retried,
/// with a backoff capped at [`ACCEPT_BACKOFF`], until `finished`
/// reports the accept loop gone. One connect that succeeds is enough:
/// the loop returns from its next `accept`, even if it is still busy
/// with an earlier connection.
pub(crate) fn wake_accept(port: u16, finished: impl Fn() -> bool) {
    let mut connected = false;
    let mut pause = Duration::from_micros(50);
    while !finished() {
        if !connected {
            connected = TcpStream::connect(("127.0.0.1", port)).is_ok();
        }
        std::thread::sleep(pause);
        pause = (pause * 2).min(ACCEPT_BACKOFF);
    }
}

/// Answer an over-cap connection with a typed `connection-limit`
/// refusal. The peer's request frame is drained first (bounded by a
/// short timeout) so the close never resets the refusal out of the
/// peer's receive buffer; the whole exchange is bounded, so a
/// connection flood costs short-lived threads, not hung clients.
fn refuse_conn(mut stream: TcpStream, shared: &Arc<Shared>) {
    let timeout = shared.config.io_timeout.min(Duration::from_secs(2));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);
    let _ = read_frame(&mut stream);
    let _ = Response::Refused(Refusal {
        retry_after_ms: shared.config.retry_after.as_millis() as u64,
        reason: RefusalReason::ConnectionLimit,
    })
    .write_to(&mut stream);
}

/// Socket reader enforcing the two-phase read discipline of one frame:
/// waiting for a frame to *start* uses the long idle `io_timeout`, but
/// once its first byte has arrived the rest must follow within
/// `frame_deadline` — a slow-loris peer dripping one byte per
/// near-timeout read is cut off at the deadline, not after
/// `frames × io_timeout`.
struct FrameReader<'a> {
    stream: &'a TcpStream,
    idle_timeout: Duration,
    frame_deadline: Duration,
    started: Option<Instant>,
    deadline_hit: bool,
}

impl<'a> FrameReader<'a> {
    fn new(stream: &'a TcpStream, idle_timeout: Duration, frame_deadline: Duration) -> Self {
        let _ = stream.set_read_timeout(Some(idle_timeout));
        FrameReader { stream, idle_timeout, frame_deadline, started: None, deadline_hit: false }
    }
}

impl io::Read for FrameReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut stream = self.stream;
        let Some(t0) = self.started else {
            let n = stream.read(buf)?;
            if n > 0 {
                self.started = Some(Instant::now());
            }
            return Ok(n);
        };
        let elapsed = t0.elapsed();
        if elapsed >= self.frame_deadline {
            self.deadline_hit = true;
            return Err(io::Error::new(io::ErrorKind::TimedOut, "frame deadline exceeded"));
        }
        let remaining = (self.frame_deadline - elapsed).max(Duration::from_millis(1));
        let _ = self.stream.set_read_timeout(Some(remaining.min(self.idle_timeout)));
        match stream.read(buf) {
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
                    && t0.elapsed() >= self.frame_deadline =>
            {
                self.deadline_hit = true;
                Err(io::Error::new(io::ErrorKind::TimedOut, "frame deadline exceeded"))
            }
            other => other,
        }
    }
}

fn handle_conn(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        let mut reader =
            FrameReader::new(&stream, shared.config.io_timeout, shared.config.frame_deadline);
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean EOF at a frame boundary
            Err(e) if reader.deadline_hit => {
                // Slow loris: the frame started but never finished.
                // Typed answer, then hang up.
                shared.tel.metrics(|m| m.add("serve.net.frame_deadline_hits", 1));
                let _ = Response::Error(format!("request dropped: {e}")).write_to(&mut stream);
                return;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Malformed frame (oversize/zero length, truncated
                // mid-frame): the stream offset is unrecoverable, so
                // answer typed and close.
                shared.tel.metrics(|m| m.add("serve.net.malformed_frames", 1));
                let _ = Response::Error(format!("bad frame: {e}")).write_to(&mut stream);
                return;
            }
            Err(_) => return, // idle timeout or broken peer: drop the connection
        };
        let request = match Request::decode(frame.0, &frame.1) {
            Ok(r) => r,
            Err(e) => {
                // The frame itself was well-formed, so the stream is
                // still in sync: answer typed and keep serving.
                shared.tel.metrics(|m| m.add("serve.net.proto_errors", 1));
                let _ = Response::Error(e.to_string()).write_to(&mut stream);
                continue;
            }
        };
        shared.tel.metrics(|m| m.add("serve.requests", 1));
        let stop = matches!(request, Request::Shutdown);
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(render_stats_shared(shared)),
            Request::Compile(req) => handle_compile(shared, req),
            Request::Shutdown => handle_shutdown(shared),
        };
        let written = response.write_to(&mut stream);
        if stop {
            // The ack is out and `done` is set: release the accept loop.
            wake_accept(shared.port, || !shared.accepting.load(Ordering::Acquire));
            return;
        }
        if written.is_err() {
            return;
        }
    }
}

/// Admission control + dispatch for one compile request. Returns a
/// typed [`Refusal`] instead of queueing when the daemon is draining or
/// the bounded queue is full; otherwise blocks until a worker answers.
fn handle_compile(shared: &Arc<Shared>, req: CompileRequest) -> Response {
    let started = Instant::now();
    let refusal = |reason: RefusalReason| {
        let name = match reason {
            RefusalReason::QueueFull => "serve.refused.queue_full",
            RefusalReason::ShuttingDown => "serve.refused.shutting_down",
            RefusalReason::ConnectionLimit => "serve.net.conn_refused",
        };
        shared.tel.metrics(|m| m.add(name, 1));
        Response::Refused(Refusal {
            retry_after_ms: shared.config.retry_after.as_millis() as u64,
            reason,
        })
    };
    if shared.shutting_down.load(Ordering::Acquire) {
        return refusal(RefusalReason::ShuttingDown);
    }
    let (tx, rx) = mpsc::channel();
    {
        let mut q = lock_ok(&shared.queue);
        // Re-check under the lock so no admission races a shutdown drain.
        if shared.shutting_down.load(Ordering::Acquire) {
            return refusal(RefusalReason::ShuttingDown);
        }
        if q.pending.len() >= shared.config.queue_capacity {
            return refusal(RefusalReason::QueueFull);
        }
        q.pending.push_back(Job { req, reply: tx });
        let depth = q.pending.len();
        shared.tel.metrics(|m| m.set_gauge("serve.queue.depth", depth as f64));
        shared.cond.notify_all();
    }
    let response = rx
        .recv()
        .unwrap_or_else(|_| Response::Error("daemon dropped the request".into()));
    shared.tel.metrics(|m| {
        m.observe("serve.latency_ns", started.elapsed().as_nanos() as u64);
    });
    response
}

/// Begin the graceful drain, block until every queued and in-flight
/// request has been answered, persist the cache index, and release the
/// service threads.
fn handle_shutdown(shared: &Arc<Shared>) -> Response {
    let already = shared.shutting_down.swap(true, Ordering::AcqRel);
    let mut q = lock_ok(&shared.queue);
    let drained = (q.pending.len() + q.in_flight) as u64;
    shared.cond.notify_all();
    while !q.pending.is_empty() || q.in_flight > 0 {
        q = shared.cond.wait(q).unwrap_or_else(|e| e.into_inner());
    }
    drop(q);
    if !already {
        let store = lock_ok(&shared.store);
        if let Err(e) = store.persist_index() {
            shared.tel.metrics(|m| m.add("serve.index_persist_errors", 1));
            eprintln!("sxed: failed to persist cache index: {e}");
        }
    }
    shared.done.store(true, Ordering::Release);
    Response::ShutdownAck { drained }
}

/// The dispatcher: pull batches off the admission queue and run them
/// through the shared fork/join pool. Each worker replies to its own
/// handler as soon as its job finishes — batching bounds concurrency,
/// not latency.
fn dispatch_loop(shared: &Arc<Shared>) {
    loop {
        let batch: Vec<Job> = {
            let mut q = lock_ok(&shared.queue);
            // No timeout: both states this waits for are notified under
            // the queue lock after they change (the push in
            // `handle_compile`, the drain flag in `handle_shutdown`), so
            // no wake is lost.
            while q.pending.is_empty() {
                if shared.shutting_down.load(Ordering::Acquire) && q.in_flight == 0 {
                    return;
                }
                q = shared.cond.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            let batch: Vec<Job> = q.pending.drain(..).collect();
            q.in_flight += batch.len();
            shared.tel.metrics(|m| m.set_gauge("serve.queue.depth", 0.0));
            batch
        };
        let n = batch.len();
        shard::par_map(&batch, shared.config.threads, |_, job| {
            // A panicking compile job must not take the dispatcher (and
            // with it the whole daemon) down: contain it to a typed
            // error for this one requester and keep the pool serving.
            let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                compile_one(shared, &job.req)
            }))
            .unwrap_or_else(|payload| {
                shared.tel.metrics(|m| m.add("serve.worker.panics", 1));
                Response::Error(format!(
                    "internal error: compile worker panicked: {}",
                    panic_message(payload.as_ref())
                ))
            });
            // The handler may have died with its connection; the queue
            // already counted the job, so a send failure is just a
            // wasted compile.
            let _ = job.reply.send(response);
        });
        let mut q = lock_ok(&shared.queue);
        q.in_flight -= n;
        shared.cond.notify_all();
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Lock a mutex even if a previous holder panicked: compile-worker
/// panics are contained ([`dispatch_loop`]), and none of the guarded
/// structures are left mid-update by compiler code, so the data is
/// still coherent — refusing to serve after one contained panic would
/// turn an isolated failure into a full outage.
fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Compile (or replay) one request. Cache policy: look up by
/// [`artifact_key`] (which folds in the requested backend but not the
/// budget or thread count); on a miss compile with the request's budget
/// and only insert when the report is clean — a salvaged partial
/// optimization is served to its requester but never cached.
fn compile_one(shared: &Arc<Shared>, req: &CompileRequest) -> Response {
    let module = match parse_module(&req.source) {
        Ok(m) => m,
        Err(e) => return Response::Error(format!("parse error: {e}")),
    };
    if let Some(name) = &shared.config.compile_panic_on {
        if module.iter().any(|(_, f)| f.name == *name) {
            panic!("injected compile panic: function {name:?}");
        }
    }
    let fuel = req.fuel.or(shared.config.default_fuel);
    let time_limit = match req.timeout_ms {
        Some(0) => None,
        Some(ms) => Some(Duration::from_millis(ms)),
        None => shared.config.default_time_limit,
    };
    // threads(1): workers are already parallel across requests, and the
    // sequential path guarantees the response bytes are independent of
    // the pool size.
    let compiler = Compiler::builder(req.variant)
        .target(req.target)
        .budget(fuel, time_limit)
        .threads(1)
        .build();
    let key = artifact_key(&compiler, req.backend, &module);
    {
        let mut store = lock_ok(&shared.store);
        let cached = store.get(key);
        let quarantined = store.stats().quarantined;
        drop(store);
        shared.tel.metrics(|m| {
            let prev = m.counter("serve.cache.quarantined");
            if quarantined > prev {
                m.add("serve.cache.quarantined", quarantined - prev);
            }
        });
        if let Some(bytes) = cached {
            // Entries are checksummed, so this parse cannot fail for a
            // served payload; fall through to a recompile if it somehow
            // does rather than trusting the cache over the compiler.
            if let Ok(artifact) = CompiledArtifact::from_bytes(&bytes) {
                shared.tel.metrics(|m| m.add("serve.cache.hits", 1));
                return Response::Compiled(CacheOutcome::Hit, artifact);
            }
        }
        shared.tel.metrics(|m| m.add("serve.cache.misses", 1));
    }
    let compiled = match compiler.try_compile(&module) {
        Ok(c) => c,
        Err(e) => return Response::Error(format!("compile refused: {e}")),
    };
    shared.tel.metrics(|m| m.add("serve.compiles", 1));
    let artifact = CompiledArtifact {
        key,
        boundaries: compiled.report.boundaries() as u64,
        incidents: compiled.report.incidents() as u64,
        budget_exhausted: compiled.report.budget_exhausted,
        eliminated: compiled.stats.eliminated as u64,
        text: compiled.module.to_string(),
    };
    if compiled.report.clean() {
        let mut store = lock_ok(&shared.store);
        if store.insert(key, &artifact.to_bytes()) {
            shared.tel.metrics(|m| m.add("serve.cache.inserts", 1));
        } else {
            shared.tel.metrics(|m| m.add("serve.cache.write_errors", 1));
        }
    }
    Response::Compiled(CacheOutcome::Miss, artifact)
}

/// Render the `serve.*` stats snapshot as deterministic plain-text
/// `name value` lines (cache state from the store, the rest from the
/// telemetry registry).
#[must_use]
pub fn render_stats(shared_store: &Mutex<ArtifactStore>, tel: &Telemetry, queue_depth: usize) -> String {
    let (len, stats) = {
        let store = lock_ok(shared_store);
        (store.len(), store.stats())
    };
    let reg = tel.metrics_snapshot();
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "serve.cache.entries {len}");
    let _ = writeln!(out, "serve.cache.hits {}", stats.hits);
    let _ = writeln!(out, "serve.cache.misses {}", stats.misses);
    let _ = writeln!(out, "serve.cache.inserts {}", stats.inserts);
    let _ = writeln!(out, "serve.cache.quarantined {}", stats.quarantined);
    let _ = writeln!(out, "serve.cache.swept_tmp {}", stats.swept_tmp);
    let _ = writeln!(out, "serve.cache.write_errors {}", stats.write_errors);
    let _ = writeln!(out, "serve.queue.depth {queue_depth}");
    // Every other `serve.*` counter, in registry (sorted) order: new
    // counters show up here without touching the renderer, and old
    // clients skip the names they don't know (see [`parse_stats`]).
    // Cache counters are excluded — the store's own stats above are
    // authoritative for those.
    for (name, value) in reg.counters_with_prefix("serve.") {
        if !name.starts_with("serve.cache.") {
            let _ = writeln!(out, "{name} {value}");
        }
    }
    let p99 = reg.histogram("serve.latency_ns").map_or(0, |h| h.quantile(0.99));
    let _ = writeln!(out, "serve.latency.p99_ns {p99}");
    out
}

fn render_stats_shared(shared: &Arc<Shared>) -> String {
    let depth = lock_ok(&shared.queue).pending.len();
    render_stats(&shared.store, &shared.tel, depth)
}

/// Parse a [`render_stats`] snapshot into `(name, value)` pairs.
///
/// Forward-compatible by construction: lines that don't fit the
/// `name value` shape — or whose value isn't a `u64` — are skipped, not
/// errors, so a client built against an older daemon keeps working when
/// a newer one grows counters (or line formats) it has never heard of.
#[must_use]
pub fn parse_stats(stats_text: &str) -> Vec<(&str, u64)> {
    stats_text
        .lines()
        .filter_map(|line| {
            let (k, v) = line.split_once(' ')?;
            Some((k, v.trim().parse().ok()?))
        })
        .collect()
}

/// Parse one value back out of a [`render_stats`] snapshot. Unknown or
/// malformed lines are skipped (see [`parse_stats`]).
#[must_use]
pub fn stat_value(stats_text: &str, name: &str) -> Option<u64> {
    parse_stats(stats_text).into_iter().find_map(|(k, v)| (k == name).then_some(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_value_parses_rendered_lines() {
        let text = "serve.cache.hits 12\nserve.latency.p99_ns 4096\n";
        assert_eq!(stat_value(text, "serve.cache.hits"), Some(12));
        assert_eq!(stat_value(text, "serve.latency.p99_ns"), Some(4096));
        assert_eq!(stat_value(text, "serve.cache.misses"), None);
    }

    #[test]
    fn stat_value_skips_unknown_and_malformed_lines() {
        // A future daemon may emit counters (or whole line shapes) this
        // client has never heard of; none of them may break parsing of
        // the lines it does know.
        let text = "serve.cache.hits 12\n\
                    serve.future.exotic_counter 7\n\
                    serve.malformed not-a-number\n\
                    no-space-line\n\
                    serve.latency.p99_ns 4096\n";
        assert_eq!(stat_value(text, "serve.cache.hits"), Some(12));
        assert_eq!(stat_value(text, "serve.latency.p99_ns"), Some(4096));
        assert_eq!(stat_value(text, "serve.future.exotic_counter"), Some(7));
        assert_eq!(stat_value(text, "serve.malformed"), None);
        let parsed = parse_stats(text);
        assert_eq!(parsed.len(), 3);
        assert!(parsed.iter().all(|(k, _)| *k != "serve.malformed"));
    }

    #[test]
    fn stats_round_trip_survives_injected_unknown_line() {
        // Round-trip: render a snapshot, inject an unknown counter line
        // in the middle (as a newer daemon would), and confirm every
        // known value still reads back unchanged.
        let tel = Telemetry::enabled();
        tel.metrics(|m| {
            m.add("serve.requests", 3);
            m.add("serve.net.malformed_frames", 2);
        });
        let dir = std::env::temp_dir().join(format!("sxed-statrt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Mutex::new(ArtifactStore::open(&dir, None).unwrap());
        let rendered = render_stats(&store, &tel, 5);
        let mut lines: Vec<&str> = rendered.lines().collect();
        lines.insert(lines.len() / 2, "serve.v99.new_hotness 1234");
        let injected = lines.join("\n");
        for (name, value) in parse_stats(&rendered) {
            assert_eq!(stat_value(&injected, name), Some(value), "lost {name} after injection");
        }
        assert_eq!(stat_value(&injected, "serve.v99.new_hotness"), Some(1234));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

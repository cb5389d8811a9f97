//! `sxe-serve` — the fault-tolerant compile service.
//!
//! Long-lived build sessions recompile the same modules over and over;
//! this crate turns the sharded, fault-isolated pipeline of `sxe-jit`
//! into a daemon (`sxed`) that amortizes that work across processes and
//! survives the failures a one-shot CLI never sees:
//!
//! * [`proto`] — the length-prefixed frame protocol (compile / ping /
//!   stats / shutdown, typed refusals);
//! * [`store`] — the crash-safe persistent artifact cache: checksummed
//!   entries, atomic renames, quarantine-on-read. `kill -9` at any
//!   moment can cost a cache entry, never an incorrect response;
//! * [`server`] — admission control over a bounded queue, dispatch into
//!   the `shard::par_map` worker pool, graceful drain + index fsync on
//!   shutdown;
//! * [`client`] — a blocking client whose bounded retry backs off
//!   exponentially with deterministic, seeded jitter, guarded by an
//!   equally deterministic circuit breaker;
//! * [`netfault`] — seeded network-fault injection: an in-process
//!   fault proxy ([`NetFaultProxy`]) and a protocol-frame fuzzer, the
//!   wire-level mirror of `sxe-jit`'s `FaultPlan` discipline. The
//!   `netchaos` binary in `sxe-bench` drives both as a gate.
//!
//! The daemon inherits the workspace's determinism contract: a compile
//! response is byte-identical to a sequential `sxec` run of the same
//! request, at any `--threads`, whether it was served fresh or replayed
//! from the cache.

pub mod client;
pub mod netfault;
pub mod proto;
pub mod server;
pub mod store;

pub use client::{
    BreakerPolicy, BreakerState, CircuitBreaker, Client, ClientError, RetryPolicy, RetryStats,
};
pub use netfault::{fuzz_frame, FuzzDelivery, FuzzFrame, NetFaultKind, NetFaultPlan, NetFaultProxy};
pub use proto::{
    CacheOutcome, CompileRequest, CompiledArtifact, ProtoError, Refusal, RefusalReason, Request,
    Response,
};
pub use server::{parse_stats, stat_value, ServeConfig, Server};
pub use store::{crash_point_sweep, ArtifactStore, CrashSweepReport, StoreStats};

#[cfg(test)]
mod e2e {
    use super::*;
    use std::time::{Duration, Instant};

    const SRC: &str = "\
func @main(i32) -> f64 {
b0:
    r1 = newarray.i32 r0
    r2 = const.i32 0
    br b1
b1:
    r3 = const.i32 1
    r0 = sub.i32 r0, r3
    r4 = aload.i32 r1, r0
    r2 = add.i32 r2, r4
    condbr gt.i32 r0, r3, b1, b2
b2:
    r5 = i32tof64.f64 r2
    ret r5
}
";

    fn tmp_cache(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("sxe-serve-e2e-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn start(tag: &str, config: ServeConfig) -> (Server, Client, std::path::PathBuf) {
        let dir = tmp_cache(tag);
        let config = ServeConfig { cache_dir: dir.clone(), ..config };
        let server = Server::start(0, config).unwrap();
        let client = Client::new(server.port());
        (server, client, dir)
    }

    /// Run `f` on its own thread and report whether it returned within
    /// `limit`, so a lost accept wake fails the test instead of hanging
    /// the suite.
    fn returns_within(limit: Duration, f: impl FnOnce() + Send + 'static) -> bool {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        rx.recv_timeout(limit).is_ok()
    }

    #[test]
    fn idle_daemon_shuts_down_without_serving_its_wake() {
        let (server, client, dir) = start("idle", ServeConfig::default());
        let tel = server.telemetry();
        assert_eq!(client.shutdown().unwrap(), 0);
        assert!(
            returns_within(Duration::from_secs(10), move || server.wait()),
            "wait() must return once the shutdown wake reaches the parked accept"
        );
        assert_eq!(
            tel.metrics_snapshot().counter("serve.requests"),
            1,
            "the shutdown is the only request; the wake connection is never handled"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn idle_fault_proxy_stops() {
        // No connection ever reaches the proxy (nor its upstream), so
        // only the self-connect wake can release its parked accept.
        let proxy = NetFaultProxy::start(1, NetFaultPlan::from_seed(1)).unwrap();
        assert!(
            returns_within(Duration::from_secs(10), move || proxy.stop()),
            "stop() must return once the wake reaches the parked accept"
        );
    }

    #[test]
    fn sequential_pings_wake_the_daemon_on_connect() {
        // Every request is a fresh connection, so an accept loop that
        // polled would add its poll interval to each one: a 5 ms poll
        // needs about 500 ms here, a ping itself well under 1 ms.
        let (server, client, dir) = start("pings", ServeConfig::default());
        client.ping().unwrap();
        let t0 = Instant::now();
        for _ in 0..100 {
            client.ping().unwrap();
        }
        let elapsed = t0.elapsed();
        client.shutdown().unwrap();
        server.wait();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(elapsed < Duration::from_millis(250), "100 sequential pings took {elapsed:?}");
    }

    #[test]
    fn compile_misses_then_hits_and_replays_identical_bytes() {
        let (server, client, dir) = start("hit", ServeConfig::default());
        client.ping().unwrap();
        let req = CompileRequest::new(SRC);
        let first = client.compile_once(&req).unwrap();
        let Response::Compiled(CacheOutcome::Miss, a1) = first else {
            panic!("expected fresh compile, got {first:?}")
        };
        assert_eq!(a1.incidents, 0);
        let second = client.compile_once(&req).unwrap();
        let Response::Compiled(CacheOutcome::Hit, a2) = second else {
            panic!("expected cache hit, got {second:?}")
        };
        assert_eq!(a1, a2, "replayed artifact must be byte-identical");
        let stats = client.stats().unwrap();
        assert_eq!(stat_value(&stats, "serve.cache.inserts"), Some(1));
        assert_eq!(stat_value(&stats, "serve.cache.hits"), Some(1));
        assert_eq!(client.shutdown().unwrap(), 0);
        server.wait();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_survives_a_daemon_restart() {
        let config = ServeConfig::default();
        let dir = tmp_cache("restart");
        let config = ServeConfig { cache_dir: dir.clone(), ..config };
        let req = CompileRequest::new(SRC);

        let server = Server::start(0, config.clone()).unwrap();
        let client = Client::new(server.port());
        let Response::Compiled(CacheOutcome::Miss, a1) = client.compile_once(&req).unwrap()
        else {
            panic!("expected miss on first run")
        };
        client.shutdown().unwrap();
        server.wait();

        let server = Server::start(0, config).unwrap();
        let client = Client::new(server.port());
        let Response::Compiled(outcome, a2) = client.compile_once(&req).unwrap() else {
            panic!("expected a compiled response")
        };
        assert_eq!(outcome, CacheOutcome::Hit, "second process must hit the first's cache");
        assert_eq!(a1, a2);
        client.shutdown().unwrap();
        server.wait();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_input_is_a_typed_error_not_a_refusal() {
        let (server, client, dir) = start("bad", ServeConfig::default());
        let resp = client.compile_once(&CompileRequest::new("this is not sxir")).unwrap();
        let Response::Error(msg) = resp else { panic!("expected error, got {resp:?}") };
        assert!(msg.contains("parse error"), "{msg}");
        client.shutdown().unwrap();
        server.wait();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overload_yields_typed_refusals_and_retry_succeeds() {
        // One worker, one queue slot, and slowed cache writes: while the
        // first compile lingers in its write, the second fills the queue
        // and the third must be refused with a retry hint.
        let (server, client, dir) = start(
            "overload",
            ServeConfig {
                threads: 1,
                queue_capacity: 1,
                write_delay: Some(Duration::from_millis(300)),
                retry_after: Duration::from_millis(10),
                ..ServeConfig::default()
            },
        );
        let reqs: Vec<CompileRequest> = (0..6)
            .map(|i| CompileRequest::new(SRC.replace("@main", &format!("@main{i}"))))
            .collect();
        let results: Vec<_> = std::thread::scope(|s| {
            let client = &client;
            let handles: Vec<_> = reqs
                .iter()
                .map(|r| s.spawn(move || client.compile_once(r).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let refused = results
            .iter()
            .filter(|r| matches!(r, Response::Refused(_)))
            .count();
        assert!(refused > 0, "six parallel compiles against one slot must shed load");
        for r in &results {
            if let Response::Refused(refusal) = r {
                assert_eq!(refusal.retry_after_ms, 10);
            }
        }
        // A retrying client gets through once the burst clears.
        let mut rng = sxe_ir::rng::XorShift::new(7);
        let (_, artifact, stats) = client
            .compile_with_retry(&reqs[5], &RetryPolicy::default(), &mut rng)
            .unwrap();
        assert!(stats.attempts >= 1);
        assert!(!artifact.text.is_empty());
        client.shutdown().unwrap();
        server.wait();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_drains_in_flight_work() {
        let (server, client, dir) = start(
            "drain",
            ServeConfig {
                threads: 2,
                write_delay: Some(Duration::from_millis(150)),
                ..ServeConfig::default()
            },
        );
        let reqs: Vec<CompileRequest> = (0..3)
            .map(|i| CompileRequest::new(SRC.replace("@main", &format!("@f{i}"))))
            .collect();
        let (drained, compiles) = std::thread::scope(|s| {
            let client = &client;
            let compiles: Vec<_> = reqs
                .iter()
                .map(|r| s.spawn(move || client.compile_once(r).unwrap()))
                .collect();
            // Let the compiles enter the queue before asking to stop.
            std::thread::sleep(Duration::from_millis(50));
            let drained = client.shutdown().unwrap();
            (drained, compiles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>())
        });
        let answered = compiles
            .iter()
            .filter(|r| matches!(r, Response::Compiled(..)))
            .count();
        assert_eq!(answered, 3, "every admitted request is answered, not dropped: {compiles:?}");
        assert!(drained > 0, "shutdown overlapped in-flight work");
        // After the ack the daemon refuses (or has closed); either way no hang.
        server.wait();
        let late = client.compile_once(&reqs[0]);
        assert!(
            !matches!(late, Ok(Response::Compiled(..))),
            "daemon must not serve after shutdown"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

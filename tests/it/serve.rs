//! Cross-request behavior of the `sxed` compile service: artifact-key
//! identity across requests, refusal under load, and quarantine of
//! corrupted cache entries — plus the [`AnalysisCache`] companion
//! properties the artifact cache's keying is built on.

use std::time::Duration;

use sxe_analysis::AnalysisCache;
use sxe_ir::parse_module;
use sxe_serve::{
    stat_value, BreakerPolicy, BreakerState, CacheOutcome, CircuitBreaker, Client, CompileRequest,
    RefusalReason, Response, RetryPolicy, ServeConfig, Server,
};

const BODY_A: &str = "\
func @work(i32) -> i32 {
b0:
    r1 = const.i32 2
    r2 = add.i32 r0, r1
    r3 = mul.i32 r2, r2
    ret r3
}
";

/// Same function name, different body (the constant changed).
const BODY_B: &str = "\
func @work(i32) -> i32 {
b0:
    r1 = const.i32 3
    r2 = add.i32 r0, r1
    r3 = mul.i32 r2, r2
    ret r3
}
";

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sxe-it-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(tag: &str, config: ServeConfig) -> (Server, Client, std::path::PathBuf) {
    let dir = fresh_dir(tag);
    let server = Server::start(0, ServeConfig { cache_dir: dir.clone(), ..config }).unwrap();
    let client = Client::new(server.port());
    (server, client, dir)
}

fn compiled(resp: Response) -> (CacheOutcome, sxe_serve::CompiledArtifact) {
    match resp {
        Response::Compiled(outcome, artifact) => (outcome, artifact),
        other => panic!("expected a compiled response, got {other:?}"),
    }
}

/// Two sequential daemon requests with the same function name but
/// different bodies must get different artifacts: the key is the
/// structural fingerprint, not the name, so request B can never be
/// served request A's code.
#[test]
fn same_name_different_body_is_a_miss_not_a_stale_hit() {
    let (server, client, dir) = start("fingerprint", ServeConfig::default());
    let (o1, a1) = compiled(client.compile_once(&CompileRequest::new(BODY_A)).unwrap());
    let (o2, a2) = compiled(client.compile_once(&CompileRequest::new(BODY_B)).unwrap());
    assert_eq!(o1, CacheOutcome::Miss);
    assert_eq!(o2, CacheOutcome::Miss, "changed body with the same name must re-compile");
    assert_ne!(a1.key, a2.key, "artifact keys must separate the two bodies");
    assert_ne!(a1.text, a2.text, "the compiled constants differ");

    // Replaying each body hits its own entry, byte-identically.
    let (o3, a3) = compiled(client.compile_once(&CompileRequest::new(BODY_A)).unwrap());
    let (o4, a4) = compiled(client.compile_once(&CompileRequest::new(BODY_B)).unwrap());
    assert_eq!((o3, o4), (CacheOutcome::Hit, CacheOutcome::Hit));
    assert_eq!(a3, a1);
    assert_eq!(a4, a2);
    client.shutdown().unwrap();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The backend is part of the artifact identity: after the native
/// x86-64 backend joined the VM, a cache populated by VM-era requests
/// must never answer a native-era request for the same body — and the
/// two backends keep hitting their *own* entries independently.
#[test]
fn vm_and_native_backend_requests_never_share_cache_entries() {
    let (server, client, dir) = start("backend", ServeConfig::default());
    let native = |src: &str| {
        CompileRequest { backend: sxe_jit::Backend::Native, ..CompileRequest::new(src) }
    };
    let (o1, a1) = compiled(client.compile_once(&CompileRequest::new(BODY_A)).unwrap());
    let (o2, a2) = compiled(client.compile_once(&CompileRequest::new(BODY_A)).unwrap());
    assert_eq!((o1, o2), (CacheOutcome::Miss, CacheOutcome::Hit));
    // Same body, native backend: a MISS with its own key, never A's entry.
    let (o3, a3) = compiled(client.compile_once(&native(BODY_A)).unwrap());
    assert_eq!(o3, CacheOutcome::Miss, "a VM-era entry must not serve a native-era request");
    assert_ne!(a3.key, a1.key, "backend must be folded into the key");
    // Both backends now hit their own entries.
    let (o4, a4) = compiled(client.compile_once(&native(BODY_A)).unwrap());
    let (o5, a5) = compiled(client.compile_once(&CompileRequest::new(BODY_A)).unwrap());
    assert_eq!((o4, o5), (CacheOutcome::Hit, CacheOutcome::Hit));
    assert_eq!(a4, a3);
    assert_eq!(a5, a2);
    client.shutdown().unwrap();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The AnalysisCache companion property: the cache's one staleness
/// rule is an exact comparison against the body its facts describe. A
/// function whose body changed under the same name is a miss, not a
/// stale hit, and an unchanged body hits again.
#[test]
fn analysis_cache_body_change_misses_and_same_body_hits() {
    let module_a = parse_module(BODY_A).unwrap();
    let module_b = parse_module(BODY_B).unwrap();
    let (_, fa) = module_a.iter().next().unwrap();
    let (_, fb) = module_b.iter().next().unwrap();
    assert_ne!(fa.fingerprint(), fb.fingerprint(), "bodies differ, fingerprints must too");

    let mut cache = AnalysisCache::new();
    let _ = cache.udu(fa);
    let _ = cache.udu(fa);
    // Each udu query goes through the cfg first, so a warm re-query
    // scores two hits (cfg + udu).
    assert_eq!((cache.hits(), cache.misses()), (2, 2), "same body is memoized");

    // Same name, different body: the snapshot check forces a recompute
    // even though the cache has an entry under this name.
    let _ = cache.udu(fb);
    assert_eq!((cache.hits(), cache.misses()), (2, 4), "body B must not hit body A's facts");
    assert_eq!(cache.invalidations(), 1);

    // Back to A (a rollback, say): A's facts were dropped, so it
    // recomputes once and then hits again.
    let _ = cache.udu(fa);
    let _ = cache.udu(fa);
    assert_eq!((cache.hits(), cache.misses()), (4, 6));
    assert_eq!(cache.invalidations(), 2);
}

/// Saturating a one-slot queue yields typed `queue-full` refusals with
/// the configured retry hint — and every connection gets an orderly
/// answer (no hangs, no aborts).
#[test]
fn overload_sheds_with_typed_refusals() {
    let (server, client, dir) = start(
        "overload",
        ServeConfig {
            threads: 1,
            queue_capacity: 1,
            write_delay: Some(Duration::from_millis(250)),
            retry_after: Duration::from_millis(15),
            ..ServeConfig::default()
        },
    );
    let sources: Vec<String> =
        (0..6).map(|i| BODY_A.replace("@work", &format!("@work{i}"))).collect();
    let responses: Vec<Response> = std::thread::scope(|s| {
        let client = &client;
        let handles: Vec<_> = sources
            .iter()
            .map(|src| s.spawn(move || client.compile_once(&CompileRequest::new(src.clone())).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let refused: Vec<_> =
        responses.iter().filter_map(|r| match r {
            Response::Refused(refusal) => Some(refusal),
            _ => None,
        }).collect();
    assert!(!refused.is_empty(), "a six-deep burst against one slot must shed load");
    for refusal in refused {
        assert_eq!(refusal.reason, RefusalReason::QueueFull);
        assert_eq!(refusal.retry_after_ms, 15);
    }
    let stats = client.stats().unwrap();
    assert!(stat_value(&stats, "serve.refused.queue_full").unwrap() >= 1);
    client.shutdown().unwrap();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A peer that starts a frame and then stalls (slow loris) is cut off
/// at the frame deadline with a typed error — not after `io_timeout`,
/// and never by pinning the handler thread indefinitely.
#[test]
fn slow_loris_frame_is_cut_off_at_the_deadline_with_a_typed_error() {
    use std::io::{Read as _, Write as _};
    let (server, _client, dir) = start(
        "loris",
        ServeConfig {
            frame_deadline: Duration::from_millis(150),
            io_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    );
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", server.port())).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    stream.set_nodelay(true).unwrap();
    // Claim a 64-byte frame, deliver only the prefix and kind, go silent.
    let mut partial = 64u32.to_be_bytes().to_vec();
    partial.push(0x01);
    stream.write_all(&partial).unwrap();
    let t0 = std::time::Instant::now();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap(); // typed error frame, then close
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "cutoff took {elapsed:?} — the io_timeout, not the frame deadline, fired"
    );
    let (kind, payload) = sxe_serve::proto::read_frame(&mut std::io::Cursor::new(buf))
        .unwrap()
        .expect("a typed error frame must precede the close");
    let Response::Error(msg) = Response::decode(kind, &payload).unwrap() else {
        panic!("expected a typed error response");
    };
    assert!(msg.contains("deadline"), "{msg}");
    assert_eq!(
        server.telemetry().metrics_snapshot().counter("serve.net.frame_deadline_hits"),
        1
    );
    Client::new(server.port()).shutdown().unwrap();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Beyond `max_connections` live handlers, a new connection gets a
/// typed `connection-limit` refusal with the retry hint — and service
/// resumes as soon as the held connections go away.
#[test]
fn connection_cap_refuses_typed_and_recovers() {
    let (server, client, dir) = start(
        "conncap",
        ServeConfig {
            max_connections: 2,
            retry_after: Duration::from_millis(35),
            ..ServeConfig::default()
        },
    );
    // Two idle connections pin the cap (their handlers wait for a frame).
    let held: Vec<std::net::TcpStream> = (0..2)
        .map(|_| std::net::TcpStream::connect(("127.0.0.1", server.port())).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(100)); // let the accept loop count them
    let resp = client.compile_once(&CompileRequest::new(BODY_A)).unwrap();
    let Response::Refused(refusal) = resp else {
        panic!("expected a connection-limit refusal, got {resp:?}")
    };
    assert_eq!(refusal.reason, RefusalReason::ConnectionLimit);
    assert_eq!(refusal.retry_after_ms, 35);
    // Capacity freed: the same request now compiles.
    drop(held);
    std::thread::sleep(Duration::from_millis(100));
    let (outcome, _) = compiled(client.compile_once(&CompileRequest::new(BODY_A)).unwrap());
    assert_eq!(outcome, CacheOutcome::Miss);
    assert!(
        server.telemetry().metrics_snapshot().counter("serve.net.conn_refused") >= 1
    );
    client.shutdown().unwrap();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A compile job that panics is contained to a typed error for its own
/// requester; the dispatcher and worker pool keep serving everyone
/// else.
#[test]
fn worker_panic_is_a_typed_error_and_the_pool_survives() {
    let (server, client, dir) = start(
        "panic",
        ServeConfig {
            compile_panic_on: Some("boom".into()),
            ..ServeConfig::default()
        },
    );
    let bomb = BODY_A.replace("@work", "@boom");
    let resp = client.compile_once(&CompileRequest::new(bomb)).unwrap();
    let Response::Error(msg) = resp else {
        panic!("expected a typed worker-panic error, got {resp:?}")
    };
    assert!(msg.contains("panicked"), "{msg}");
    // The pool is still alive and compiling.
    let (outcome, artifact) = compiled(client.compile_once(&CompileRequest::new(BODY_A)).unwrap());
    assert_eq!(outcome, CacheOutcome::Miss);
    assert!(!artifact.text.is_empty());
    let stats = client.stats().unwrap();
    assert_eq!(stat_value(&stats, "serve.worker.panics"), Some(1));
    client.shutdown().unwrap();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The client-side circuit breaker: consecutive transport failures trip
/// it open (further calls are short-circuited without touching the
/// network), and after the cooldown a half-open probe against a healthy
/// daemon closes it again.
#[test]
fn circuit_breaker_opens_on_dead_daemon_and_recovers_on_probe() {
    // A port with nothing listening: connects fail instantly.
    let dead_port = {
        let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        l.local_addr().unwrap().port()
    };
    let dead = Client::new(dead_port).with_io_timeout(Duration::from_millis(200));
    let policy = RetryPolicy {
        max_attempts: 1,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
    };
    let mut breaker = CircuitBreaker::new(BreakerPolicy {
        failure_threshold: 2,
        cooldown: Duration::from_millis(20),
        max_cooldown: Duration::from_millis(100),
    });
    let mut rng = sxe_ir::rng::XorShift::new(11);
    let req = CompileRequest::new(BODY_A);
    for _ in 0..2 {
        let err = dead.compile_guarded(&req, &policy, &mut breaker, &mut rng).unwrap_err();
        assert!(matches!(err, sxe_serve::ClientError::Io(_)), "{err}");
    }
    assert_eq!(breaker.state(), BreakerState::Open);
    let err = dead.compile_guarded(&req, &policy, &mut breaker, &mut rng).unwrap_err();
    let sxe_serve::ClientError::CircuitOpen { retry_after } = err else {
        panic!("expected a short-circuit, got {err}")
    };
    assert!(retry_after <= Duration::from_millis(20));

    // Past the cooldown, the half-open probe lands on a healthy daemon
    // and closes the breaker.
    let (server, live, dir) = start("breaker", ServeConfig::default());
    std::thread::sleep(Duration::from_millis(30));
    let (outcome, _, _) = live.compile_guarded(&req, &policy, &mut breaker, &mut rng).unwrap();
    assert_eq!(outcome, CacheOutcome::Miss);
    assert_eq!(breaker.state(), BreakerState::Closed);
    live.shutdown().unwrap();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A cache entry corrupted on disk between daemon runs is quarantined on
/// read: the response is recompiled (byte-identical to the original),
/// never served from the damaged bytes.
#[test]
fn corrupted_entry_is_quarantined_and_recompiled() {
    let config = ServeConfig::default();
    let dir = fresh_dir("quarantine");
    let config = ServeConfig { cache_dir: dir.clone(), ..config };

    let server = Server::start(0, config.clone()).unwrap();
    let client = Client::new(server.port());
    let (_, original) = compiled(client.compile_once(&CompileRequest::new(BODY_A)).unwrap());
    client.shutdown().unwrap();
    server.wait();

    // Flip one byte of the committed entry behind the daemon's back.
    let victim = dir.join(format!("{:016x}.art", original.key));
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();

    let server = Server::start(0, config).unwrap();
    let client = Client::new(server.port());
    let (outcome, replay) = compiled(client.compile_once(&CompileRequest::new(BODY_A)).unwrap());
    assert_eq!(outcome, CacheOutcome::Miss, "damaged entry must not be served");
    assert_eq!(replay, original, "recompile must match the pre-corruption artifact");
    let stats = client.stats().unwrap();
    assert_eq!(stat_value(&stats, "serve.cache.quarantined"), Some(1));
    assert!(dir.join("quarantine").join(format!("{:016x}.art", original.key)).exists());
    client.shutdown().unwrap();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

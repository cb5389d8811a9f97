//! The `sxed` wire protocol: length-prefixed frames over a byte stream.
//!
//! Every message is one **frame**:
//!
//! ```text
//! [ length: u32 big-endian ] [ kind: u8 ] [ payload: length-1 bytes ]
//! ```
//!
//! `length` covers the kind byte plus the payload and is capped at
//! [`MAX_FRAME`], so a malformed or hostile peer cannot make the daemon
//! allocate unboundedly. Payloads are UTF-8 text: a block of
//! `key=value` header lines, then one blank line, then an optional body
//! (the `.sxir` module text) — debuggable with `xxd` and stable to
//! extend (unknown header keys are ignored).
//!
//! Request kinds: [`Request::Compile`], [`Request::Ping`],
//! [`Request::Stats`], [`Request::Shutdown`]. Response kinds:
//! [`Response::Compiled`] (a [`CompiledArtifact`] plus the
//! [`CacheOutcome`]), [`Response::Refused`] (a **typed refusal** with a
//! `retry_after_ms` hint — the daemon load-sheds instead of hanging),
//! [`Response::Error`], [`Response::Pong`], [`Response::Stats`], and
//! [`Response::ShutdownAck`].

use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

use sxe_core::Variant;
use sxe_ir::Target;
use sxe_jit::Backend;

/// Maximum frame size (kind + payload) the protocol accepts: 16 MiB.
pub const MAX_FRAME: usize = 16 << 20;

/// Request frame kinds (the `kind` byte).
const REQ_COMPILE: u8 = 0x01;
const REQ_PING: u8 = 0x02;
const REQ_STATS: u8 = 0x03;
const REQ_SHUTDOWN: u8 = 0x04;

/// Response frame kinds.
const RESP_COMPILED: u8 = 0x81;
const RESP_REFUSED: u8 = 0x82;
const RESP_ERROR: u8 = 0x83;
const RESP_PONG: u8 = 0x84;
const RESP_STATS: u8 = 0x85;
const RESP_SHUTDOWN_ACK: u8 = 0x86;

/// A malformed frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn perr(msg: impl Into<String>) -> ProtoError {
    ProtoError(msg.into())
}

/// Write one frame.
///
/// # Errors
/// Propagates I/O errors from `w`.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() + 1;
    assert!(len <= MAX_FRAME, "frame exceeds MAX_FRAME");
    w.write_all(&(len as u32).to_be_bytes())?;
    w.write_all(&[kind])?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame; `Ok(None)` on a clean EOF at a frame boundary.
///
/// EOF is only clean *between* frames: a peer that closes after sending
/// part of the length prefix, or part of the kind/payload, produced a
/// **truncated frame**, reported as a typed
/// [`io::ErrorKind::InvalidData`] error naming the cut point — never a
/// bare `UnexpectedEof` and never silently treated as a boundary.
///
/// # Errors
/// Propagates I/O errors (including read timeouts) and rejects frames
/// larger than [`MAX_FRAME`] or truncated mid-frame with
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < len.len() {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("truncated frame: EOF after {got} of 4 length-prefix bytes"),
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    let mut buf = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("truncated frame: EOF after {got} of {len} frame bytes"),
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let kind = buf[0];
    buf.remove(0);
    Ok(Some((kind, buf)))
}

/// A compile request: the `.sxir` source plus per-request options. The
/// fuel and timeout map onto the interior-atomic
/// [`Budget`](sxe_ir::Budget) of the compilation; `timeout_ms = Some(0)`
/// means "no time limit".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileRequest {
    /// Algorithm variant (default: `all`).
    pub variant: Variant,
    /// Target architecture (default: IA64).
    pub target: Target,
    /// Optional fuel budget for this compilation.
    pub fuel: Option<u64>,
    /// Optional wall-clock budget in milliseconds (overrides the
    /// server's default; `0` disables the deadline).
    pub timeout_ms: Option<u64>,
    /// Execution backend the artifact is requested for (wire header
    /// `backend=vm|native`, default `vm` when absent — older clients
    /// keep their exact key). Part of the cache identity: a native-era
    /// request can never be answered from a VM-era entry.
    pub backend: Backend,
    /// The module, in textual IR form.
    pub source: String,
}

impl CompileRequest {
    /// A request with default options.
    #[must_use]
    pub fn new(source: impl Into<String>) -> CompileRequest {
        CompileRequest {
            variant: Variant::All,
            target: Target::Ia64,
            fuel: None,
            timeout_ms: None,
            backend: Backend::default(),
            source: source.into(),
        }
    }
}

/// A request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Compile a module.
    Compile(CompileRequest),
    /// Liveness probe.
    Ping,
    /// Snapshot the daemon's `serve.*` metrics.
    Stats,
    /// Drain in-flight work, fsync the cache index, stop.
    Shutdown,
}

/// Why a request was refused (load shedding, never a hang).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The admission queue is at capacity.
    QueueFull,
    /// The daemon is draining for shutdown.
    ShuttingDown,
    /// The per-daemon connection cap is reached; the connection was
    /// answered and closed without reading the request body.
    ConnectionLimit,
}

impl fmt::Display for RefusalReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefusalReason::QueueFull => f.write_str("queue-full"),
            RefusalReason::ShuttingDown => f.write_str("shutting-down"),
            RefusalReason::ConnectionLimit => f.write_str("connection-limit"),
        }
    }
}

/// A typed refusal: the daemon is shedding load and tells the client
/// when to come back instead of hanging the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refusal {
    /// Suggested client backoff before retrying.
    pub retry_after_ms: u64,
    /// Why.
    pub reason: RefusalReason,
}

impl Refusal {
    /// The backoff hint as a [`Duration`].
    #[must_use]
    pub fn retry_after(&self) -> Duration {
        Duration::from_millis(self.retry_after_ms)
    }
}

/// Whether a compiled response came from the persistent artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the persistent cache.
    Hit,
    /// Compiled now (and, when clean, cached for next time).
    Miss,
}

/// One compiled module: the durable unit the artifact cache stores and
/// the `compile` response carries. `text` is byte-identical whether the
/// artifact was just compiled or replayed from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledArtifact {
    /// The [`sxe_jit::artifact::artifact_key`] this artifact answers.
    pub key: u64,
    /// Containment boundaries crossed during the original compile.
    pub boundaries: u64,
    /// Incidents recorded (0 for a clean — and therefore cacheable —
    /// compilation).
    pub incidents: u64,
    /// Whether the compile budget ran out (budget-exhausted artifacts
    /// are served but never cached).
    pub budget_exhausted: bool,
    /// Sign extensions eliminated by step 3.
    pub eliminated: u64,
    /// The compiled module, in textual IR form.
    pub text: String,
}

impl CompiledArtifact {
    /// Serialize for the cache file / response payload (header lines,
    /// blank line, module text).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut s = String::new();
        use fmt::Write as _;
        let _ = writeln!(s, "key={:016x}", self.key);
        let _ = writeln!(s, "boundaries={}", self.boundaries);
        let _ = writeln!(s, "incidents={}", self.incidents);
        let _ = writeln!(s, "budget_exhausted={}", u8::from(self.budget_exhausted));
        let _ = writeln!(s, "eliminated={}", self.eliminated);
        let _ = writeln!(s);
        s.push_str(&self.text);
        s.into_bytes()
    }

    /// Parse the [`to_bytes`](Self::to_bytes) form.
    ///
    /// # Errors
    /// [`ProtoError`] on malformed headers or non-UTF-8 payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<CompiledArtifact, ProtoError> {
        let text = std::str::from_utf8(bytes).map_err(|_| perr("artifact is not UTF-8"))?;
        let (headers, body) = split_payload(text)?;
        Ok(CompiledArtifact {
            key: header_u64_hex(&headers, "key")?,
            boundaries: header_u64(&headers, "boundaries")?,
            incidents: header_u64(&headers, "incidents")?,
            budget_exhausted: header_u64(&headers, "budget_exhausted")? != 0,
            eliminated: header_u64(&headers, "eliminated")?,
            text: body.to_string(),
        })
    }
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The compiled module (fresh or from the cache).
    Compiled(CacheOutcome, CompiledArtifact),
    /// Load shed: retry later.
    Refused(Refusal),
    /// The request itself was bad (parse error, verify error, unknown
    /// option); retrying without changing it will not help.
    Error(String),
    /// Liveness answer.
    Pong,
    /// Metrics snapshot (the plain-text lines of
    /// [`render_stats`](crate::server::render_stats)).
    Stats(String),
    /// Shutdown accepted after draining `drained` queued/in-flight
    /// requests; the daemon exits after this frame.
    ShutdownAck {
        /// Requests that were still queued or in flight when the
        /// shutdown began, all of which were answered before this ack.
        drained: u64,
    },
}

type Headers<'a> = Vec<(&'a str, &'a str)>;

fn split_payload(text: &str) -> Result<(Headers<'_>, &str), ProtoError> {
    let (head, body) = match text.split_once("\n\n") {
        Some((h, b)) => (h, b),
        None => (text.trim_end_matches('\n'), ""),
    };
    let mut headers = Vec::new();
    for line in head.lines() {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once('=').ok_or_else(|| perr(format!("bad header `{line}`")))?;
        headers.push((k, v));
    }
    Ok((headers, body))
}

fn header<'a>(headers: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn header_u64(headers: &[(&str, &str)], key: &str) -> Result<u64, ProtoError> {
    header(headers, key)
        .ok_or_else(|| perr(format!("missing header `{key}`")))?
        .parse()
        .map_err(|_| perr(format!("header `{key}` is not a number")))
}

fn header_u64_hex(headers: &[(&str, &str)], key: &str) -> Result<u64, ProtoError> {
    u64::from_str_radix(header(headers, key).ok_or_else(|| perr(format!("missing header `{key}`")))?, 16)
        .map_err(|_| perr(format!("header `{key}` is not hex")))
}

impl Request {
    /// Encode into `(kind, payload)`.
    #[must_use]
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Request::Compile(c) => {
                let mut s = String::new();
                use fmt::Write as _;
                let _ = writeln!(s, "variant={}", c.variant.name());
                let _ = writeln!(s, "target={}", c.target);
                if let Some(fuel) = c.fuel {
                    let _ = writeln!(s, "fuel={fuel}");
                }
                if let Some(t) = c.timeout_ms {
                    let _ = writeln!(s, "timeout_ms={t}");
                }
                if c.backend != Backend::default() {
                    let _ = writeln!(s, "backend={}", c.backend);
                }
                let _ = writeln!(s);
                s.push_str(&c.source);
                (REQ_COMPILE, s.into_bytes())
            }
            Request::Ping => (REQ_PING, Vec::new()),
            Request::Stats => (REQ_STATS, Vec::new()),
            Request::Shutdown => (REQ_SHUTDOWN, Vec::new()),
        }
    }

    /// Decode from `(kind, payload)`.
    ///
    /// # Errors
    /// [`ProtoError`] on an unknown kind or malformed payload.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Request, ProtoError> {
        match kind {
            REQ_COMPILE => {
                let text =
                    std::str::from_utf8(payload).map_err(|_| perr("compile payload not UTF-8"))?;
                let (headers, body) = split_payload(text)?;
                let variant = match header(&headers, "variant") {
                    None => Variant::All,
                    Some(v) => v.parse().map_err(perr)?,
                };
                // An absent header stays compatible with old clients:
                // it means the default target.
                let target = match header(&headers, "target") {
                    None => Target::default(),
                    Some(t) => t.parse::<Target>().map_err(perr)?,
                };
                let fuel = match header(&headers, "fuel") {
                    None => None,
                    Some(_) => Some(header_u64(&headers, "fuel")?),
                };
                let timeout_ms = match header(&headers, "timeout_ms") {
                    None => None,
                    Some(_) => Some(header_u64(&headers, "timeout_ms")?),
                };
                let backend = match header(&headers, "backend") {
                    None => Backend::default(),
                    Some(b) => b.parse().map_err(|e: String| perr(e))?,
                };
                Ok(Request::Compile(CompileRequest {
                    variant,
                    target,
                    fuel,
                    timeout_ms,
                    backend,
                    source: body.to_string(),
                }))
            }
            REQ_PING => Ok(Request::Ping),
            REQ_STATS => Ok(Request::Stats),
            REQ_SHUTDOWN => Ok(Request::Shutdown),
            other => Err(perr(format!("unknown request kind {other:#04x}"))),
        }
    }
}

impl Response {
    /// Encode into `(kind, payload)`.
    #[must_use]
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Response::Compiled(outcome, artifact) => {
                let mut bytes = format!(
                    "cache={}\n",
                    if *outcome == CacheOutcome::Hit { "hit" } else { "miss" }
                )
                .into_bytes();
                bytes.extend_from_slice(&artifact.to_bytes());
                (RESP_COMPILED, bytes)
            }
            Response::Refused(r) => (
                RESP_REFUSED,
                format!("retry_after_ms={}\nreason={}\n", r.retry_after_ms, r.reason).into_bytes(),
            ),
            Response::Error(msg) => (RESP_ERROR, msg.clone().into_bytes()),
            Response::Pong => (RESP_PONG, Vec::new()),
            Response::Stats(text) => (RESP_STATS, text.clone().into_bytes()),
            Response::ShutdownAck { drained } => {
                (RESP_SHUTDOWN_ACK, format!("drained={drained}\n").into_bytes())
            }
        }
    }

    /// Decode from `(kind, payload)`.
    ///
    /// # Errors
    /// [`ProtoError`] on an unknown kind or malformed payload.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Response, ProtoError> {
        match kind {
            RESP_COMPILED => {
                let text =
                    std::str::from_utf8(payload).map_err(|_| perr("response not UTF-8"))?;
                let (first, rest) = text
                    .split_once('\n')
                    .ok_or_else(|| perr("compiled response missing cache line"))?;
                let outcome = match first {
                    "cache=hit" => CacheOutcome::Hit,
                    "cache=miss" => CacheOutcome::Miss,
                    other => return Err(perr(format!("bad cache line `{other}`"))),
                };
                Ok(Response::Compiled(outcome, CompiledArtifact::from_bytes(rest.as_bytes())?))
            }
            RESP_REFUSED => {
                let text =
                    std::str::from_utf8(payload).map_err(|_| perr("response not UTF-8"))?;
                let (headers, _) = split_payload(text)?;
                let reason = match header(&headers, "reason") {
                    Some("queue-full") => RefusalReason::QueueFull,
                    Some("shutting-down") => RefusalReason::ShuttingDown,
                    Some("connection-limit") => RefusalReason::ConnectionLimit,
                    other => return Err(perr(format!("bad refusal reason {other:?}"))),
                };
                Ok(Response::Refused(Refusal {
                    retry_after_ms: header_u64(&headers, "retry_after_ms")?,
                    reason,
                }))
            }
            RESP_ERROR => Ok(Response::Error(
                String::from_utf8(payload.to_vec()).map_err(|_| perr("error not UTF-8"))?,
            )),
            RESP_PONG => Ok(Response::Pong),
            RESP_STATS => Ok(Response::Stats(
                String::from_utf8(payload.to_vec()).map_err(|_| perr("stats not UTF-8"))?,
            )),
            RESP_SHUTDOWN_ACK => {
                let text =
                    std::str::from_utf8(payload).map_err(|_| perr("response not UTF-8"))?;
                let (headers, _) = split_payload(text)?;
                Ok(Response::ShutdownAck { drained: header_u64(&headers, "drained")? })
            }
            other => Err(perr(format!("unknown response kind {other:#04x}"))),
        }
    }

    /// Write this response as one frame.
    ///
    /// # Errors
    /// Propagates I/O errors from `w`.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let (kind, payload) = self.encode();
        write_frame(w, kind, &payload)
    }
}

impl Request {
    /// Write this request as one frame.
    ///
    /// # Errors
    /// Propagates I/O errors from `w`.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let (kind, payload) = self.encode();
        write_frame(w, kind, &payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_request(req: &Request) {
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let (kind, payload) = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(&Request::decode(kind, &payload).unwrap(), req);
    }

    fn roundtrip_response(resp: &Response) {
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let (kind, payload) = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(&Response::decode(kind, &payload).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(&Request::Ping);
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Shutdown);
        roundtrip_request(&Request::Compile(CompileRequest {
            variant: Variant::Array,
            target: Target::Ppc64,
            fuel: Some(4096),
            timeout_ms: Some(250),
            backend: Backend::Native,
            source: "func @f(i32) -> i32 {\nb0:\n    ret r0\n}\n".into(),
        }));
        roundtrip_request(&Request::Compile(CompileRequest {
            variant: Variant::All,
            target: Target::Mips64,
            fuel: None,
            timeout_ms: None,
            backend: Backend::default(),
            source: "func @f(i32) -> i32 {\nb0:\n    ret r0\n}\n".into(),
        }));
        roundtrip_request(&Request::Compile(CompileRequest::new("x\n\ny")));
    }

    #[test]
    fn absent_target_header_defaults_compatibly() {
        // Old clients never send `target=`; the server must decode the
        // payload as the default target rather than reject it.
        let payload = b"variant=all\n\nfunc @f() {\nb0:\n    ret\n}\n";
        let req = Request::decode(REQ_COMPILE, payload).unwrap();
        match req {
            Request::Compile(c) => assert_eq!(c.target, Target::default()),
            other => panic!("expected compile, got {other:?}"),
        }
        let bad = b"target=sparc64\n\nx\n";
        assert!(Request::decode(REQ_COMPILE, bad).is_err());
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(&Response::Pong);
        roundtrip_response(&Response::Error("nope".into()));
        roundtrip_response(&Response::Stats("counter serve.requests 3\n".into()));
        roundtrip_response(&Response::ShutdownAck { drained: 7 });
        roundtrip_response(&Response::Refused(Refusal {
            retry_after_ms: 25,
            reason: RefusalReason::QueueFull,
        }));
        roundtrip_response(&Response::Refused(Refusal {
            retry_after_ms: 40,
            reason: RefusalReason::ConnectionLimit,
        }));
        let artifact = CompiledArtifact {
            key: 0xdead_beef_0123_4567,
            boundaries: 12,
            incidents: 0,
            budget_exhausted: false,
            eliminated: 3,
            text: "func @f(i32) -> i32 {\nb0:\n    ret r0\n}\n".into(),
        };
        roundtrip_response(&Response::Compiled(CacheOutcome::Hit, artifact.clone()));
        roundtrip_response(&Response::Compiled(CacheOutcome::Miss, artifact));
    }

    #[test]
    fn artifact_bytes_roundtrip_preserves_text_exactly() {
        let artifact = CompiledArtifact {
            key: 1,
            boundaries: 0,
            incidents: 0,
            budget_exhausted: true,
            eliminated: 0,
            text: "line1\n\nline3 after a blank line\n".into(),
        };
        let back = CompiledArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        assert_eq!(back, artifact, "bodies containing blank lines survive");
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.push(REQ_PING);
        assert_eq!(
            read_frame(&mut Cursor::new(buf)).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut buf = Vec::new();
        Request::Ping.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 1); // cut mid-frame... for Ping payload is empty
        let mut buf2 = Vec::new();
        Request::Compile(CompileRequest::new("abc")).write_to(&mut buf2).unwrap();
        buf2.truncate(buf2.len() - 2);
        assert!(read_frame(&mut Cursor::new(buf2)).is_err(), "truncated frame errors");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_frame(&mut Cursor::new(Vec::new())).unwrap().is_none());
    }

    /// A reader that hands out its bytes one at a time, so every
    /// `read` call exercises the partial-read path.
    struct OneByte(Cursor<Vec<u8>>);
    impl io::Read for OneByte {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn eof_mid_frame_is_typed_invalid_data_at_every_byte_offset() {
        let mut full = Vec::new();
        Request::Compile(CompileRequest::new("abc")).write_to(&mut full).unwrap();
        // Offset 0 is a clean boundary; every other prefix is a
        // truncated frame and must be a typed InvalidData error that
        // names the cut, never a bare UnexpectedEof.
        for cut in 1..full.len() {
            let prefix = full[..cut].to_vec();
            let err = read_frame(&mut Cursor::new(prefix.clone()))
                .expect_err(&format!("prefix of {cut} bytes must error"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}: {err}");
            assert!(err.to_string().contains("truncated frame"), "cut at {cut}: {err}");
            if cut < 4 {
                assert!(
                    err.to_string().contains("length-prefix"),
                    "cut at {cut} is mid-header: {err}"
                );
            }
            // The same cut through a one-byte-per-read transport (a
            // dribbling peer) classifies identically.
            let err = read_frame(&mut OneByte(Cursor::new(prefix))).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "dribbled cut at {cut}");
        }
        // The full frame still parses, even one byte at a time.
        assert!(read_frame(&mut OneByte(Cursor::new(full))).unwrap().is_some());
    }

    #[test]
    fn non_eof_io_errors_pass_through_untouched() {
        struct Timeout;
        impl io::Read for Timeout {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::TimedOut, "socket timeout"))
            }
        }
        let err = read_frame(&mut Timeout).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "timeouts are not truncation");
    }

    #[test]
    fn variant_names_roundtrip() {
        // The names themselves are pinned in `sxe-core`'s
        // `names_are_pinned_and_parse_back`; the header carries them as is.
        for v in Variant::ALL {
            let req = Request::Compile(CompileRequest { variant: v, ..CompileRequest::new("x\n") });
            let (kind, payload) = req.encode();
            let text = String::from_utf8(payload.clone()).expect("UTF-8 payload");
            let header = format!("variant={}", v.name());
            assert!(text.lines().any(|l| l == header), "{v:?}: {text}");
            assert_eq!(Request::decode(kind, &payload).expect("decodes"), req);
        }
        let err = Request::decode(REQ_COMPILE, b"variant=bogus\n\nx\n").unwrap_err();
        assert_eq!(err.to_string(), "protocol error: unknown variant `bogus`");
    }

    #[test]
    fn unknown_kinds_error() {
        assert!(Request::decode(0x7f, &[]).is_err());
        assert!(Response::decode(0x7f, &[]).is_err());
    }
}

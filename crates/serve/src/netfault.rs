//! Deterministic network-fault injection for the `sxed` wire path.
//!
//! The compile pipeline already has a seeded fault discipline
//! ([`sxe_jit::harness::FaultPlan`]): every chaos run is a pure function
//! of its seed, so any finding replays exactly. This module brings the
//! same discipline to the *network* between [`Client`] and [`Server`]:
//!
//! * [`NetFaultPlan::from_seed`] derives one wire fault (kind + byte
//!   offset) from a seed, mirroring `FaultPlan::from_seed`;
//! * [`NetFaultProxy`] is an in-process TCP proxy that interposes on
//!   loopback and applies the plan to real socket traffic — truncated
//!   requests, dribbled responses, mid-frame disconnects, delayed
//!   accepts, duplicated and garbled frames;
//! * [`fuzz_frame`] derives one malformed protocol frame from a seed
//!   for the protocol fuzzer (`netchaos` in `sxe-bench`).
//!
//! The proxy deliberately knows the frame format (4-byte length prefix,
//! see [`proto`](crate::proto)) so faults land at protocol-meaningful
//! places: inside the length prefix, inside a frame body, between two
//! duplicated frames — not just "somewhere in the byte stream".
//!
//! [`Client`]: crate::client::Client
//! [`Server`]: crate::server::Server
//! [`sxe_jit::harness::FaultPlan`]: sxe_jit::harness::FaultPlan

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sxe_ir::rng::XorShift;

use crate::proto::MAX_FRAME;
use crate::server::{wake_accept, ACCEPT_BACKOFF};

/// One kind of wire-level fault. See each variant for the behavior the
/// daemon must exhibit under it — every kind resolves to a typed
/// response or a clean close, never a hang or a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetFaultKind {
    /// Forward only a prefix of the request frame, then close the
    /// upstream write side cleanly. The daemon must answer a typed
    /// truncated-frame error, which the proxy relays back.
    TruncateRequest,
    /// Relay the request faithfully but dribble the response back one
    /// byte at a time. The client must still succeed — slow reads are
    /// the *client's* timeout to enforce, not a protocol violation.
    SlowResponse,
    /// Forward a prefix of the request frame, then drop both
    /// connections on the floor. The client must surface a typed
    /// transport error immediately; the daemon must log a truncation
    /// and move on.
    MidFrameReset,
    /// Sit on the accepted connection for a plan-determined delay
    /// before relaying anything, then behave faithfully. Exercises the
    /// idle (between-frames) timeout path; the request must succeed.
    DelayedAccept,
    /// Forward the request frame twice back-to-back. The daemon must
    /// answer each frame independently (the duplicate is a *valid*
    /// frame); the proxy relays the first response and discards the
    /// second.
    DuplicateFrame,
    /// Flip seeded bytes inside the frame body (kind byte or payload —
    /// never the length prefix, so the frame stays well-formed at the
    /// framing layer). The daemon must answer typed: unknown kind,
    /// header garbage, or a parse error.
    GarbleFrame,
}

impl NetFaultKind {
    /// Every fault kind, in campaign order.
    pub const ALL: [NetFaultKind; 6] = [
        NetFaultKind::TruncateRequest,
        NetFaultKind::SlowResponse,
        NetFaultKind::MidFrameReset,
        NetFaultKind::DelayedAccept,
        NetFaultKind::DuplicateFrame,
        NetFaultKind::GarbleFrame,
    ];

    /// Stable lowercase name (report keys, CLI).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NetFaultKind::TruncateRequest => "truncate-request",
            NetFaultKind::SlowResponse => "slow-response",
            NetFaultKind::MidFrameReset => "mid-frame-reset",
            NetFaultKind::DelayedAccept => "delayed-accept",
            NetFaultKind::DuplicateFrame => "duplicate-frame",
            NetFaultKind::GarbleFrame => "garble-frame",
        }
    }
}

impl std::fmt::Display for NetFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded wire-fault plan: which fault to inject and the byte offset
/// that parameterizes it (truncation point, garble positions, accept
/// delay). Mirrors [`sxe_jit::harness::FaultPlan`]: the plan is a pure
/// function of the seed, so every campaign case replays bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// Seed this plan was derived from; also seeds the garble RNG.
    pub seed: u64,
    /// The fault to inject.
    pub kind: NetFaultKind,
    /// Raw offset parameter; each kind reduces it into its own range
    /// (e.g. modulo the frame length for truncation).
    pub offset: u64,
}

impl NetFaultPlan {
    /// Derive a plan from a seed: fault kind and offset are both
    /// pseudo-random but fully determined by `seed`.
    #[must_use]
    pub fn from_seed(seed: u64) -> NetFaultPlan {
        let mut rng = XorShift::new(seed);
        let offset = rng.below(4096);
        let kind = *rng.choose(&NetFaultKind::ALL);
        NetFaultPlan { seed, kind, offset }
    }

    /// Derive a plan with the kind pinned and only the offset drawn
    /// from the seed — the campaign sweeps seeds × *every* kind, so the
    /// kind draw of [`from_seed`](NetFaultPlan::from_seed) would leave
    /// gaps.
    #[must_use]
    pub fn with_kind(seed: u64, kind: NetFaultKind) -> NetFaultPlan {
        let mut rng = XorShift::new(seed);
        let offset = rng.below(4096);
        NetFaultPlan { seed, kind, offset }
    }
}

/// Socket timeout for the proxy's own reads and writes: generous enough
/// never to trigger on loopback, tight enough that a wedged peer frees
/// the proxy thread.
const PROXY_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// An in-process fault-injecting TCP proxy on loopback. Point a
/// [`Client`](crate::client::Client) at [`port`](NetFaultProxy::port)
/// and every connection through it suffers the plan's fault on its way
/// to `upstream_port`.
///
/// One thread proxies one connection at a time and otherwise blocks in
/// `accept`; [`stop`](NetFaultProxy::stop) (or drop) wakes it with a
/// loopback self-connect, as the daemon's shutdown wakes its own
/// accept loop.
pub struct NetFaultProxy {
    port: u16,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl NetFaultProxy {
    /// Bind an ephemeral loopback port and start proxying to
    /// `127.0.0.1:upstream_port` with `plan`'s fault applied to every
    /// connection.
    ///
    /// # Errors
    /// I/O errors binding the listener.
    pub fn start(upstream_port: u16, plan: NetFaultPlan) -> io::Result<NetFaultProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let port = listener.local_addr()?.port();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || loop {
                let accepted = listener.accept();
                // `halt` sets `stop`, then wakes this `accept` with a
                // self-connect that is dropped here unproxied.
                if stop.load(Ordering::Acquire) {
                    return;
                }
                match accepted {
                    Ok((client, _)) => {
                        // Fault application is best-effort by design:
                        // a peer that hangs up early is part of chaos.
                        let _ = proxy_conn(client, upstream_port, plan);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                }
            })
        };
        Ok(NetFaultProxy { port, stop, thread: Some(thread) })
    }

    /// The proxy's listening port (loopback).
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Stop accepting and join the proxy thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            wake_accept(self.port, || t.is_finished());
            let _ = t.join();
        }
    }
}

impl Drop for NetFaultProxy {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Read one raw frame — length prefix *included* — off a stream.
fn read_raw_frame(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("proxy saw frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    let mut frame = vec![0u8; 4 + len];
    frame[..4].copy_from_slice(&prefix);
    stream.read_exact(&mut frame[4..])?;
    Ok(frame)
}

/// Reduce the plan's raw offset into a genuine mid-frame truncation
/// point: at least one byte forwarded, at least one withheld, and every
/// region (inside the length prefix, at the kind byte, mid-body) is
/// reachable across offsets.
fn truncation_point(offset: u64, frame_len: usize) -> usize {
    if frame_len <= 1 {
        return 0;
    }
    1 + (offset as usize % (frame_len - 1))
}

/// Apply one connection's worth of fault. Each request/response
/// exchange through the proxy is one connection — the client opens a
/// fresh connection per request, so per-connection faulting covers
/// every request exactly once.
fn proxy_conn(mut client: TcpStream, upstream_port: u16, plan: NetFaultPlan) -> io::Result<()> {
    client.set_read_timeout(Some(PROXY_IO_TIMEOUT))?;
    client.set_write_timeout(Some(PROXY_IO_TIMEOUT))?;
    client.set_nodelay(true)?;
    if plan.kind == NetFaultKind::DelayedAccept {
        std::thread::sleep(Duration::from_millis(10 + plan.offset % 150));
    }
    let mut upstream = TcpStream::connect(("127.0.0.1", upstream_port))?;
    upstream.set_read_timeout(Some(PROXY_IO_TIMEOUT))?;
    upstream.set_write_timeout(Some(PROXY_IO_TIMEOUT))?;
    upstream.set_nodelay(true)?;
    match plan.kind {
        NetFaultKind::DelayedAccept => {
            let req = read_raw_frame(&mut client)?;
            upstream.write_all(&req)?;
            let resp = read_raw_frame(&mut upstream)?;
            client.write_all(&resp)?;
        }
        NetFaultKind::TruncateRequest => {
            let req = read_raw_frame(&mut client)?;
            let cut = truncation_point(plan.offset, req.len());
            upstream.write_all(&req[..cut])?;
            // Clean FIN mid-frame: the daemon must answer a typed
            // truncated-frame error, which we relay back.
            upstream.shutdown(Shutdown::Write)?;
            let resp = read_raw_frame(&mut upstream)?;
            client.write_all(&resp)?;
        }
        NetFaultKind::MidFrameReset => {
            let req = read_raw_frame(&mut client)?;
            let cut = truncation_point(plan.offset, req.len());
            upstream.write_all(&req[..cut])?;
            // Drop both sides with no response at all: the client gets
            // a typed transport error, the daemon a truncation.
            drop(upstream);
        }
        NetFaultKind::SlowResponse => {
            let req = read_raw_frame(&mut client)?;
            upstream.write_all(&req)?;
            let resp = read_raw_frame(&mut upstream)?;
            // Dribble a bounded prefix one byte at a time, then flush
            // the rest — slow enough to interleave reads, fast enough
            // to keep a campaign case under a second.
            let slow = resp.len().min(64 + (plan.offset as usize % 64));
            for i in 0..slow {
                client.write_all(&resp[i..=i])?;
                std::thread::sleep(Duration::from_millis(1));
            }
            client.write_all(&resp[slow..])?;
        }
        NetFaultKind::DuplicateFrame => {
            let req = read_raw_frame(&mut client)?;
            upstream.write_all(&req)?;
            upstream.write_all(&req)?;
            let resp = read_raw_frame(&mut upstream)?;
            client.write_all(&resp)?;
            // The duplicate's answer proves the daemon kept serving the
            // connection; the client never asked for it, so drain and
            // drop it.
            let _ = read_raw_frame(&mut upstream)?;
        }
        NetFaultKind::GarbleFrame => {
            let mut req = read_raw_frame(&mut client)?;
            garble(&mut req, plan);
            upstream.write_all(&req)?;
            let resp = read_raw_frame(&mut upstream)?;
            client.write_all(&resp)?;
        }
    }
    Ok(())
}

/// Deterministically corrupt a raw frame's body. The length prefix is
/// never touched (the framing layer must stay consistent — garbling it
/// is [`fuzz_frame`]'s job); odd offsets hit the kind byte, even ones
/// flip seeded payload bytes.
fn garble(frame: &mut [u8], plan: NetFaultPlan) {
    debug_assert!(frame.len() > 4);
    let mut rng = XorShift::new(plan.seed ^ 0x6761_7262_6c65); // "garble"
    if plan.offset & 1 == 1 || frame.len() == 5 {
        // An unknown/corrupted kind byte.
        frame[4] ^= 0x40 | (rng.below(63) as u8 + 1);
    } else {
        let body = &mut frame[5..];
        let flips = 1 + rng.index(8.min(body.len()));
        for _ in 0..flips {
            let at = rng.index(body.len());
            body[at] ^= rng.below(255) as u8 + 1;
        }
    }
}

/// How a [`fuzz_frame`] should be delivered to the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzDelivery {
    /// One `write_all` of the whole buffer.
    Whole,
    /// One byte per write with a tiny pause — a *fast* loris that
    /// exercises partial-read reassembly without tripping the frame
    /// deadline (the deadline itself has a dedicated gate check).
    Drip,
}

/// One seeded malformed frame for the protocol fuzzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFrame {
    /// Raw bytes to put on the wire.
    pub bytes: Vec<u8>,
    /// Stable shape label (report histogram key).
    pub shape: &'static str,
    /// How to write it.
    pub delivery: FuzzDelivery,
}

/// Derive one malformed (or nonsense-but-well-framed) protocol frame
/// from a seed. Shapes cover every framing-layer invariant: zero and
/// oversize lengths, unknown kinds, bodies shorter than their prefix
/// claims, non-UTF-8 header garbage, and raw bytes with no framing at
/// all. The daemon's obligation for each is a typed error or a clean
/// close — never a panic, hang, or unbounded allocation.
#[must_use]
pub fn fuzz_frame(seed: u64) -> FuzzFrame {
    let mut rng = XorShift::new(seed ^ 0x6675_7a7a); // "fuzz"
    let delivery =
        if rng.chance(1, 8) { FuzzDelivery::Drip } else { FuzzDelivery::Whole };
    let (shape, bytes): (&'static str, Vec<u8>) = match rng.below(7) {
        0 => {
            // Length prefix of zero, then trailing garbage.
            let mut b = vec![0, 0, 0, 0];
            b.extend((0..rng.below(16)).map(|_| rng.below(256) as u8));
            ("zero-length", b)
        }
        1 => {
            // Length prefix beyond MAX_FRAME: must be refused without
            // allocating the claimed size.
            let huge = (MAX_FRAME as u32).saturating_add(1 + rng.below(1 << 20) as u32);
            let mut b = huge.to_be_bytes().to_vec();
            b.push(rng.below(256) as u8);
            ("oversize-length", b)
        }
        2 => {
            // Well-framed, but a kind no decoder knows.
            let len = 1 + rng.below(32) as u32;
            let mut b = len.to_be_bytes().to_vec();
            b.push(0x40 | rng.below(63) as u8); // outside both kind ranges
            b.extend((1..len).map(|_| rng.below(256) as u8));
            ("unknown-kind", b)
        }
        3 => {
            // Prefix claims more body than will ever arrive.
            let claimed = 2 + rng.below(512) as u32;
            let sent = rng.below(u64::from(claimed)) as u32;
            let mut b = claimed.to_be_bytes().to_vec();
            b.push(0x01); // REQ_COMPILE
            b.extend((1..=sent).map(|_| rng.below(256) as u8));
            ("truncated-body", b)
        }
        4 => {
            // Valid compile kind, non-UTF-8 garbage payload.
            let len = 1 + rng.below(64) as u32;
            let mut b = len.to_be_bytes().to_vec();
            b.push(0x01);
            b.extend((1..len).map(|_| 0x80 | rng.below(128) as u8));
            ("binary-garbage-body", b)
        }
        5 => {
            // No framing at all: raw noise the length prefix is read
            // *out of*.
            let n = 1 + rng.below(64) as usize;
            ("raw-noise", (0..n).map(|_| rng.below(256) as u8).collect())
        }
        _ => {
            // Well-framed compile request whose headers are junk text.
            let body = format!(
                "not-a-header {}\nsource=\n\nfunc junk {}",
                rng.below(1000),
                rng.below(1000)
            );
            let mut b = (1 + body.len() as u32).to_be_bytes().to_vec();
            b.push(0x01);
            b.extend(body.into_bytes());
            ("junk-headers", b)
        }
    };
    FuzzFrame { bytes, shape, delivery }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_cover_every_kind() {
        for seed in 0..256 {
            assert_eq!(NetFaultPlan::from_seed(seed), NetFaultPlan::from_seed(seed));
        }
        let mut seen = std::collections::HashSet::new();
        for seed in 0..256 {
            seen.insert(NetFaultPlan::from_seed(seed).kind);
        }
        assert_eq!(seen.len(), NetFaultKind::ALL.len(), "256 seeds must draw every kind");
        for kind in NetFaultKind::ALL {
            let plan = NetFaultPlan::with_kind(9, kind);
            assert_eq!(plan.kind, kind);
            assert_eq!(plan.offset, NetFaultPlan::from_seed(9).offset);
        }
    }

    #[test]
    fn truncation_point_is_a_genuine_mid_frame_cut() {
        for offset in 0..512 {
            for len in 2..40 {
                let cut = truncation_point(offset, len);
                assert!(cut >= 1 && cut < len, "cut {cut} of {len}");
            }
        }
        // Every region must be reachable: prefix bytes, kind byte, body.
        let cuts: std::collections::HashSet<usize> =
            (0..512).map(|o| truncation_point(o, 40)).collect();
        assert!(cuts.contains(&1) && cuts.contains(&4) && cuts.contains(&39));
    }

    #[test]
    fn garble_changes_body_bytes_but_never_the_length_prefix() {
        for seed in 0..128 {
            for kind_parity in [0, 1] {
                let plan = NetFaultPlan {
                    seed,
                    kind: NetFaultKind::GarbleFrame,
                    offset: kind_parity,
                };
                let original: Vec<u8> = (0u8..32).collect();
                let mut frame = original.clone();
                garble(&mut frame, plan);
                assert_eq!(frame[..4], original[..4], "length prefix untouched");
                assert_ne!(frame[4..], original[4..], "body must actually change");
                // Deterministic: same plan, same corruption.
                let mut again = original.clone();
                garble(&mut again, plan);
                assert_eq!(frame, again);
            }
        }
    }

    #[test]
    fn fuzz_frames_are_deterministic_and_span_all_shapes() {
        let mut shapes = std::collections::HashSet::new();
        let mut dripped = 0;
        for seed in 0..512 {
            let f = fuzz_frame(seed);
            assert_eq!(f, fuzz_frame(seed));
            assert!(!f.bytes.is_empty());
            shapes.insert(f.shape);
            dripped += u32::from(f.delivery == FuzzDelivery::Drip);
        }
        assert_eq!(shapes.len(), 7, "512 seeds must draw all shapes: {shapes:?}");
        assert!(dripped > 0, "some frames must drip");
    }
}

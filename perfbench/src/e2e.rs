//! The end-to-end run: the measured loop is split over [`PARTS`] worker
//! processes run one after another, and their samples are pooled.
//!
//! Within one process the loop's speed is steady, but it differs from
//! process to process by up to a third on `exec-native` (memory
//! placement; it persists with address randomisation off and on either
//! CPU). One process per run would report whichever placement it drew;
//! pooling fifteen draws reports their mixture. See `README.md`.

use std::process::{Command, Stdio};
use std::time::Duration;

use crate::layers::ServeTally;
use crate::stats::{self, Tally};
use crate::{Args, Metric, Outcome};

/// Worker processes per end-to-end run.
pub const PARTS: u64 = 15;

/// One worker's share of an end-to-end run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Part {
    /// Set-up time of this worker, s.
    pub setup_s: f64,
    /// Time the loop spent in operations (one client thread) or the
    /// loop's wall time (several), s.
    pub busy_s: f64,
    /// Peak resident set size of the worker, MiB.
    pub rss_mb: f64,
    /// Error account.
    pub tally: Tally,
    /// Cache hits, misses and absorbed refusals (`serve-mixed` only).
    pub serve: ServeTally,
    /// Hash of the reference texts the worker checked against.
    pub refs_hash: u64,
    /// Per-operation latencies, ms.
    pub latencies_ms: Vec<f64>,
}

impl Part {
    /// The single line a worker prints last.
    #[must_use]
    pub fn to_line(&self) -> String {
        let t = &self.tally;
        let mut s = format!(
            "part {} {} {} {} {} {} {} {} {} {} {:x}",
            self.setup_s,
            self.busy_s,
            self.rss_mb,
            t.attempted,
            t.errors,
            t.refused,
            t.mismatched,
            self.serve.hits,
            self.serve.misses,
            self.serve.refusals,
            self.refs_hash
        );
        for l in &self.latencies_ms {
            s.push(' ');
            s.push_str(&l.to_string());
        }
        s
    }

    /// Parse [`to_line`](Self::to_line).
    ///
    /// # Errors
    /// A malformed line.
    pub fn parse(line: &str) -> Result<Part, String> {
        let bad = || format!("malformed worker line: {:.80}", line);
        let mut f = line.split(' ');
        if f.next() != Some("part") {
            return Err(bad());
        }
        let mut num = || f.next().ok_or_else(bad);
        let float = |s: &str| s.parse::<f64>().map_err(|_| bad());
        let int = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let setup_s = float(num()?)?;
        let busy_s = float(num()?)?;
        let rss_mb = float(num()?)?;
        let tally = Tally {
            attempted: int(num()?)?,
            errors: int(num()?)?,
            refused: int(num()?)?,
            mismatched: int(num()?)?,
        };
        let serve = ServeTally {
            hits: int(num()?)?,
            misses: int(num()?)?,
            refusals: int(num()?)?,
        };
        let refs_hash = u64::from_str_radix(num()?, 16).map_err(|_| bad())?;
        let latencies_ms = f.map(float).collect::<Result<Vec<_>, _>>()?;
        Ok(Part {
            setup_s,
            busy_s,
            rss_mb,
            tally,
            serve,
            refs_hash,
            latencies_ms,
        })
    }
}

/// Seed of worker `part` of a run seeded `seed`.
#[must_use]
pub fn part_seed(seed: u64, part: u64) -> u64 {
    seed.wrapping_mul(PARTS + 1).wrapping_add(part)
}

/// Loop length of one worker.
#[must_use]
pub fn part_duration(args: &Args) -> Duration {
    args.seconds / u32::try_from(PARTS).expect("few parts")
}

/// Run the workers one after another and pool their samples.
///
/// # Errors
/// A worker that fails or prints no result.
pub fn run_parts(args: &Args) -> Result<Vec<Part>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut parts = Vec::new();
    for part in 0..PARTS {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.as_secs().to_string()])
            .args(["--part", &part.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting worker {part}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("worker {part} failed ({}): {stdout}", out.status));
        }
        let line = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("worker {part} printed nothing"))?;
        parts.push(Part::parse(line)?);
    }
    Ok(parts)
}

/// The end-to-end metrics of pooled parts: set-up and memory as the
/// median over workers, latency percentiles over every pooled sample,
/// throughput as operations over summed busy time.
///
/// # Errors
/// A run too short for p99 ([`stats::TooFewSamples`]).
pub fn pooled_metrics(parts: &[Part], outcome: &mut Outcome) -> Result<(), String> {
    let mut latencies: Vec<f64> = parts
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);
    if latencies.is_empty() {
        return Err("the measured loop completed no operation".into());
    }
    for p in parts {
        outcome.tally.merge(p.tally);
    }
    let tally = outcome.tally;
    let setup: Vec<f64> = parts.iter().map(|p| p.setup_s).collect();
    let rss: Vec<f64> = parts.iter().map(|p| p.rss_mb).collect();
    let busy: f64 = parts.iter().map(|p| p.busy_s).sum();
    let p50 = stats::percentile(&latencies, 50.0);
    let p99 = stats::tail_percentile(&latencies, 99.0).map_err(|e| e.to_string())?;
    let n = latencies.len();
    outcome.notes.push(format!(
        "latency: {n} samples from {} worker processes, p50 {p50:.4} ms, p99 {p99:.4} ms ({} beyond p99)",
        parts.len(),
        n - (0.99 * n as f64).ceil() as usize
    ));
    outcome.notes.push(format!(
        "set-up per worker (s): {}",
        setup
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    outcome.notes.push(format!(
        "errors: {} of {} attempted failed (error_pct {:.4}%: {} call errors, {} refused after retry, {} wrong outputs)",
        tally.failed(),
        tally.attempted,
        tally.error_pct(),
        tally.errors,
        tally.refused,
        tally.mismatched
    ));
    outcome.metrics.extend([
        Metric::new("setup_s", stats::median(&setup), "s"),
        Metric::new("latency_ms_p50", p50, "ms"),
        Metric::new("latency_ms_p99", p99, "ms"),
        Metric::new("throughput_per_s", n as f64 / busy, "1/s"),
        Metric::new("ok_pct", 100.0 - tally.error_pct(), "%"),
        Metric::new("peak_rss_mb", stats::median(&rss), "MB"),
    ]);
    Ok(())
}

//! The benchmark's own statistics: percentiles, peak memory and the
//! error account. Kept free of any timing so the unit tests in
//! `tests/stats.rs` can pin every rule exactly.

use std::fmt;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A run too short to support the requested tail percentile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    /// The percentile asked for, in hundredths (9900 = p99).
    pub q_centi: u32,
    /// Samples in the run.
    pub samples: usize,
    /// Samples the percentile needs.
    pub needed: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} needs at least {} samples ({} beyond it), the run produced {}; run longer",
            f64::from(self.q_centi) / 100.0,
            self.needed,
            TAIL_MIN_BEYOND,
            self.samples
        )
    }
}

impl std::error::Error for TooFewSamples {}

/// Nearest-rank index (0-based) of percentile `q` (0 < q <= 100) among
/// `n` sorted samples.
fn rank_index(n: usize, q: f64) -> usize {
    let rank = (q / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
///
/// # Panics
/// On an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank_index(sorted.len(), q)]
}

/// Percentile `q` of `sorted`, refused unless at least
/// [`TAIL_MIN_BEYOND`] samples lie strictly beyond its rank.
///
/// # Errors
/// [`TooFewSamples`] when the run is too short.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    let n = sorted.len();
    let needed = min_samples_for(q);
    if n == 0 || n - 1 - rank_index(n, q) < TAIL_MIN_BEYOND {
        return Err(TooFewSamples {
            q_centi: (q * 100.0).round() as u32,
            samples: n,
            needed,
        });
    }
    Ok(sorted[rank_index(n, q)])
}

/// Smallest sample count for which [`tail_percentile`] accepts `q`.
#[must_use]
pub fn min_samples_for(q: f64) -> usize {
    (1..=10_000_000usize)
        .find(|&n| n - 1 - rank_index(n, q) >= TAIL_MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// Median of unsorted values (mean of the middle two for even counts).
///
/// # Panics
/// On an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`
/// (its `VmHWM:` line, which the kernel writes in kB).
#[must_use]
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb as f64 / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set size in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The error account behind `error_pct`: every attempted operation
/// ends in exactly one of success, a failed call, or a refusal that
/// outlived its retries; a success may later be found to have produced
/// output that differs from the reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Calls still refused after every retry.
    pub refused: u64,
    /// Successful calls whose output differed from the reference.
    pub mismatched: u64,
}

impl Tally {
    /// One operation that returned output.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// One operation whose call failed.
    pub fn error(&mut self) {
        self.attempted += 1;
        self.errors += 1;
    }

    /// One operation refused after every retry.
    pub fn refused(&mut self) {
        self.attempted += 1;
        self.refused += 1;
    }

    /// A reference check found that an operation already counted by
    /// [`ok`](Self::ok) produced the wrong output. Saturates at the
    /// number of successes, so a check run twice cannot count an
    /// operation as failed twice.
    pub fn mismatch(&mut self) {
        let successes = self.attempted - self.errors - self.refused;
        if self.mismatched < successes {
            self.mismatched += 1;
        }
    }

    /// Fold another account (another client thread) into this one.
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.refused += o.refused;
        self.mismatched += o.mismatched;
    }

    /// Operations that failed, were refused, or produced wrong output.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.errors + self.refused + self.mismatched
    }

    /// `failed` as a percentage of `attempted` (0 when nothing ran).
    #[must_use]
    pub fn error_pct(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            100.0 * self.failed() as f64 / self.attempted as f64
        }
    }
}

//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span covers exactly one call made from this crate.
//!
//! A span has a name (`<layer>.<stage>`), start and end on one monotonic
//! clock, its parent, and the id of the operation it belongs to; the
//! root span of an operation has no parent. Spans are kept in memory and
//! written out once, at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Operation id, shared by every span of one operation.
    pub op: u32,
    /// Index of the parent span in the same tracer (`None` for the root).
    pub parent: Option<u32>,
    /// `<layer>.<stage>`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span (`None` while the tracer is paused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct Open(Option<u32>);

/// Records spans for one thread. While paused, `begin`/`end` cost one
/// branch and record nothing — the same call sequence then serves as
/// the untraced baseline of the tracing-overhead measurement.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_op: u32,
}

impl Tracer {
    /// A recording tracer whose clock starts at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: true,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    /// A tracer that records nothing until [`set_recording`](Self::set_recording).
    #[must_use]
    pub fn paused(epoch: Instant) -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(epoch)
        }
    }

    /// Switch recording on or off between operations.
    ///
    /// # Panics
    /// If a span is still open.
    pub fn set_recording(&mut self, on: bool) {
        assert!(
            self.stack.is_empty(),
            "recording toggled inside an operation"
        );
        self.on = on;
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn recording(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open the root span of a new operation.
    ///
    /// # Panics
    /// If another operation is still open.
    pub fn begin_op(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        assert!(
            self.stack.is_empty(),
            "operation {name} opened inside another"
        );
        self.next_op += 1;
        self.push(name)
    }

    /// Open a child of the innermost open span.
    ///
    /// # Panics
    /// If no operation is open.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        assert!(
            !self.stack.is_empty(),
            "span {name} opened outside an operation"
        );
        self.push(name)
    }

    fn push(&mut self, name: &'static str) -> Open {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.next_op,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close `span`, which must be the innermost open span.
    ///
    /// # Panics
    /// On out-of-order closing.
    pub fn end(&mut self, span: Open) {
        self.end_as(span, None);
    }

    /// Close `span`, renaming it (for spans classified by their
    /// outcome, such as a cache hit or miss).
    ///
    /// # Panics
    /// On out-of-order closing.
    pub fn end_renamed(&mut self, span: Open, name: &'static str) {
        self.end_as(span, Some(name));
    }

    fn end_as(&mut self, span: Open, rename: Option<&'static str>) {
        let Open(Some(id)) = span else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans closed out of order");
        let end = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        if let Some(name) = rename {
            s.name = name;
        }
    }

    /// Run `f` inside a child span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    /// The spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Check that `spans` (one tracer's) nest: every span ends no earlier
/// than it starts; every child lies inside its parent and belongs to
/// the same operation; every operation has exactly one root, recorded
/// first.
///
/// # Errors
/// A description of the first violation.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut roots: BTreeMap<u32, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        match s.parent {
            None => {
                if roots.insert(s.op, i).is_some() {
                    return Err(format!("operation {} has two root spans", s.op));
                }
            }
            Some(p) => {
                let Some(parent) = spans.get(p as usize).filter(|_| (p as usize) < i) else {
                    return Err(format!("span {i} ({}) has no earlier parent {p}", s.name));
                };
                if parent.op != s.op {
                    return Err(format!("span {i} ({}) crosses operations", s.name));
                }
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} ({}) [{}, {}] escapes its parent {} [{}, {}]",
                        s.name, s.start_ns, s.end_ns, parent.name, parent.start_ns, parent.end_ns
                    ));
                }
                if !roots.contains_key(&s.op) {
                    return Err(format!(
                        "span {i} ({}) precedes its operation's root",
                        s.name
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children of one span are sequential (one thread), so
/// the covered part is the sum of their durations.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Check that within every operation the self times of the non-root
/// spans sum to no more than the root span's duration.
///
/// # Errors
/// The first operation that violates it.
pub fn check_self_within_op(spans: &[Span]) -> Result<(), String> {
    let selfs = self_times(spans);
    let mut inner: BTreeMap<u32, u64> = BTreeMap::new();
    let mut root: BTreeMap<u32, u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        if s.parent.is_none() {
            root.insert(s.op, s.dur_ns());
        } else {
            *inner.entry(s.op).or_default() += self_ns;
        }
    }
    for (op, sum) in inner {
        let total = root.get(&op).copied().unwrap_or(0);
        if sum > total {
            return Err(format!(
                "operation {op}: layer self times {sum} ns exceed its span {total} ns"
            ));
        }
    }
    Ok(())
}

/// Per-name totals over a set of spans: self time summed, the number of
/// distinct operations the name occurs in, and every span duration.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Operations containing at least one span of this name.
    pub ops: u64,
    /// Durations of the individual spans, ns.
    pub durations: Vec<u64>,
}

impl LayerTotals {
    /// Mean self time per operation that reached this layer, in µs.
    #[must_use]
    pub fn mean_self_us_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.ops as f64 / 1e3
        }
    }
}

/// Aggregate spans (of possibly several tracers) by name.
pub fn aggregate<'a>(
    tracers: impl IntoIterator<Item = &'a [Span]>,
) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for spans in tracers {
        let selfs = self_times(spans);
        let mut last_op: BTreeMap<&'static str, u32> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.self_ns += self_ns;
            e.durations.push(s.dur_ns());
            if last_op.insert(s.name, s.op) != Some(s.op) {
                e.ops += 1;
            }
        }
    }
    out
}

/// Render spans as CSV (`lane,op,span,parent,name,start_ns,end_ns`), one
/// line per span; `lane` tells the tracers of different threads apart.
#[must_use]
pub fn to_csv<'a>(tracers: impl IntoIterator<Item = &'a [Span]>) -> String {
    let mut out = String::from("lane,op,span,parent,name,start_ns,end_ns\n");
    for (lane, spans) in tracers.into_iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{lane},{},{i},{parent},{},{},{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
    }
    out
}

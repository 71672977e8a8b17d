//! A std-only span recorder.
//!
//! The benchmark wraps each of its own calls into a crate's public
//! function in a span: name, start, end, the enclosing span, and the id
//! of the operation the call belongs to. Spans are kept in memory and
//! summarised (or written out) when the run ends. A disabled tracer runs
//! the wrapped closure and records nothing, so the traced and untraced
//! runs share one code path.

use crate::alloc_count;
use crate::counting::DistCounters;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `core.build` or `sim.static`
    pub name: &'static str,
    /// index of the enclosing span in [`Tracer::spans`]
    pub parent: Option<usize>,
    /// operation this span belongs to (shared by all its descendants)
    pub op: u64,
    /// start, in nanoseconds since the tracer was created
    pub start_ns: u64,
    /// end, in nanoseconds since the tracer was created
    pub end_ns: u64,
    /// units of work the call did (jobs generated or simulated; 0 if none)
    pub work: u64,
    /// nanoseconds spent inside the counted distribution during the span
    pub dist_ns: u64,
    /// heap allocations made during the span (when counting is enabled)
    pub allocs: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans around calls; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    counters: Option<Arc<DistCounters>>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counters: None,
        }
    }

    /// A recording tracer; spans note the time `counters` accrued inside them.
    #[must_use]
    pub fn on(counters: Arc<DistCounters>) -> Self {
        Self {
            on: true,
            counters: Some(counters),
            ..Self::off()
        }
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` as a new operation: a fresh operation id and a root span.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.op += 1;
        self.span(name, 0, f)
    }

    /// Run `f` inside a span named `name` that did `work` units of work.
    pub fn span<R>(&mut self, name: &'static str, work: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let dist0 = self.dist_ns();
        let allocs0 = alloc_count::count();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
            work,
            dist_ns: 0,
            allocs: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.now_ns();
        let dist_ns = self.dist_ns() - dist0;
        let allocs = alloc_count::count() - allocs0;
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.dist_ns = dist_ns;
        span.allocs = allocs;
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn dist_ns(&self) -> u64 {
        self.counters.as_ref().map_or(0, |c| c.busy_ns())
    }

    /// The spans as JSON lines, one object per span.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{},\"dist_ns\":{},\"allocs\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.work, s.dist_ns, s.allocs
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Totals over the spans whose name starts with a prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// number of spans
    pub count: u64,
    /// summed self time, ns
    pub self_ns: u64,
    /// summed work units
    pub work: u64,
    /// summed counted-distribution time, ns
    pub dist_ns: u64,
    /// summed heap allocations
    pub allocs: u64,
}

impl LayerTotals {
    /// Sum the spans named `prefix` or `prefix.*`.
    #[must_use]
    pub fn of(spans: &[Span], self_ns: &[u64], prefix: &str) -> Self {
        let mut t = Self::default();
        for (s, &own) in spans.iter().zip(self_ns) {
            let hit = s.name == prefix
                || (s.name.starts_with(prefix)
                    && s.name.as_bytes().get(prefix.len()) == Some(&b'.'));
            if hit {
                t.count += 1;
                t.self_ns += own;
                t.work += s.work;
                t.dist_ns += s.dist_ns;
                t.allocs += s.allocs;
            }
        }
        t
    }

    /// Summed self time in milliseconds.
    #[must_use]
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }

    /// Self nanoseconds per work unit (0 when no work was recorded).
    #[must_use]
    pub fn ns_per_work(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.work as f64
        }
    }
}

//! A counting [`Distribution`] wrapper for the traced run.
//!
//! [`Counting`] forwards every trait method to the wrapped distribution
//! (including `closed_form_moments`, so the solvers' memo-bypass choice is
//! unchanged and no result bit moves), counts each call, and times every
//! call except `sample`, which is too cheap and too frequent to time.

use dses_dist::{Distribution, Rng64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The trait methods the wrapper counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `sample`
    Sample,
    /// `support`
    Support,
    /// `cdf`
    Cdf,
    /// `quantile`
    Quantile,
    /// `raw_moment`
    RawMoment,
    /// `mean`
    Mean,
    /// `variance`
    Variance,
    /// `scv`
    Scv,
    /// `prob_in`
    ProbIn,
    /// `partial_moment`
    PartialMoment,
    /// `conditional_moment`
    ConditionalMoment,
    /// `tail_load_fraction`
    TailLoadFraction,
    /// `closed_form_moments`
    ClosedFormMoments,
}

const METHODS: usize = 13;

/// Call counters shared by every wrapper of one run.
#[derive(Debug, Default)]
pub struct DistCounters {
    calls: [AtomicU64; METHODS],
    busy_ns: AtomicU64,
    /// `partial_moment` time and calls, `[closed form, quadrature]`
    partial_ns: [AtomicU64; 2],
    partial_calls: [AtomicU64; 2],
}

impl DistCounters {
    /// Fresh, zeroed counters.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Calls of `m` so far.
    #[must_use]
    pub fn calls(&self, m: Method) -> u64 {
        self.calls[m as usize].load(Ordering::Relaxed)
    }

    /// Calls of every method except `sample`.
    #[must_use]
    pub fn timed_calls(&self) -> u64 {
        let all: u64 = self.calls.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        all - self.calls(Method::Sample)
    }

    /// Nanoseconds spent inside timed calls so far.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Mean microseconds per `partial_moment` call on distributions with
    /// closed-form moments (`quadrature == false`) or without; 0 if none.
    #[must_use]
    pub fn partial_moment_us(&self, quadrature: bool) -> f64 {
        let i = usize::from(quadrature);
        let calls = self.partial_calls[i].load(Ordering::Relaxed);
        if calls == 0 {
            0.0
        } else {
            self.partial_ns[i].load(Ordering::Relaxed) as f64 / calls as f64 / 1e3
        }
    }

    fn timed<R>(&self, m: Method, f: impl FnOnce() -> R) -> R {
        self.timed_ns(m, f).0
    }

    fn timed_ns<R>(&self, m: Method, f: impl FnOnce() -> R) -> (R, u64) {
        let t = Instant::now();
        let out = f();
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls[m as usize].fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        (out, ns)
    }
}

/// A distribution whose calls are counted into shared [`DistCounters`].
#[derive(Debug, Clone)]
pub struct Counting<D> {
    inner: D,
    quadrature: bool,
    counters: Arc<DistCounters>,
}

impl<D: Distribution> Counting<D> {
    /// Wrap `inner`, counting into `counters`.
    pub fn new(inner: D, counters: Arc<DistCounters>) -> Self {
        let quadrature = !inner.closed_form_moments();
        Self {
            inner,
            quadrature,
            counters,
        }
    }
}

impl<D: Distribution> Distribution for Counting<D> {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.counters.calls[Method::Sample as usize].fetch_add(1, Ordering::Relaxed);
        self.inner.sample(rng)
    }
    fn support(&self) -> (f64, f64) {
        self.counters
            .timed(Method::Support, || self.inner.support())
    }
    fn cdf(&self, x: f64) -> f64 {
        self.counters.timed(Method::Cdf, || self.inner.cdf(x))
    }
    fn quantile(&self, p: f64) -> f64 {
        self.counters
            .timed(Method::Quantile, || self.inner.quantile(p))
    }
    fn raw_moment(&self, k: i32) -> f64 {
        self.counters
            .timed(Method::RawMoment, || self.inner.raw_moment(k))
    }
    fn mean(&self) -> f64 {
        self.counters.timed(Method::Mean, || self.inner.mean())
    }
    fn variance(&self) -> f64 {
        self.counters
            .timed(Method::Variance, || self.inner.variance())
    }
    fn scv(&self) -> f64 {
        self.counters.timed(Method::Scv, || self.inner.scv())
    }
    fn prob_in(&self, a: f64, b: f64) -> f64 {
        self.counters
            .timed(Method::ProbIn, || self.inner.prob_in(a, b))
    }
    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        let c = &self.counters;
        let (out, ns) = c.timed_ns(Method::PartialMoment, || self.inner.partial_moment(k, a, b));
        let i = usize::from(self.quadrature);
        c.partial_ns[i].fetch_add(ns, Ordering::Relaxed);
        c.partial_calls[i].fetch_add(1, Ordering::Relaxed);
        out
    }
    fn conditional_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        self.counters.timed(Method::ConditionalMoment, || {
            self.inner.conditional_moment(k, a, b)
        })
    }
    fn tail_load_fraction(&self, x: f64) -> f64 {
        self.counters.timed(Method::TailLoadFraction, || {
            self.inner.tail_load_fraction(x)
        })
    }
    fn closed_form_moments(&self) -> bool {
        self.counters.timed(Method::ClosedFormMoments, || {
            self.inner.closed_form_moments()
        })
    }
}

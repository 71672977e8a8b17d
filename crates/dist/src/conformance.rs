//! The [`Distribution`] contract at the support edges, as a checker any
//! implementation can be run through.
//!
//! SITA analysis splits `(0, +∞)` at cutoffs and reads each band's mass
//! and moments, so it relies on every job-size distribution honouring:
//!
//! * `cdf(0) = 0` and `cdf(+∞) = 1` (job sizes are positive);
//! * `prob_in(0, +∞) = 1`;
//! * partial moments over a partition of `(0, +∞)` summing to the raw
//!   moment — an infinite raw moment must show up as an infinite piece;
//! * `quantile` being the generalised inverse of `cdf`
//!   (`Q(p) = inf{x : F(x) ≥ p}`), which covers step CDFs too.
//!
//! A NaN anywhere in these is a violation: downstream code cannot tell a
//! NaN mass from an empty band.

use crate::traits::Distribution;

/// Relative tolerance for sums and limits.
const REL_TOL: f64 = 1e-6;

/// Probabilities at which the quantile/cdf round trip is checked.
const ROUND_TRIP_P: [f64; 5] = [0.01, 0.1, 0.5, 0.9, 0.99];

/// Moment orders checked for additivity: `E[1/X]` (slowdown) and the
/// first two moments (Pollaczek–Khinchine).
const ORDERS: [i32; 3] = [-1, 1, 2];

/// The first clause of the contract a distribution breaks, with the
/// values that break it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Violation {
    /// `cdf(0)` is not 0.
    CdfAtZero(f64),
    /// `cdf(+∞)` is not 1.
    CdfAtInfinity(f64),
    /// `prob_in(0, +∞)` is not 1.
    MassOfSupport(f64),
    /// The partial moments of order `k` over `(0, q₁] ∪ (q₁, q₂] ∪
    /// (q₂, +∞)` do not sum to `raw`, or one of them is NaN or negative.
    PartitionSum {
        /// moment order
        k: i32,
        /// `raw_moment(k)`
        raw: f64,
        /// the three partial moments, in size order
        pieces: [f64; 3],
    },
    /// `quantile(p) = x` is not the generalised inverse of `cdf`.
    QuantileInverse {
        /// probability
        p: f64,
        /// `quantile(p)`
        x: f64,
        /// `cdf(x)`, which must be at least `p`
        at: f64,
        /// `cdf` just below `x`, which must be at most `p`
        below: f64,
    },
}

/// Checks `d` against the contract in the module docs and returns the
/// first clause it breaks.
///
/// The partition is `(0, q₁] ∪ (q₁, q₂] ∪ (q₂, +∞)` with `q₁, q₂` the
/// 25 % and 90 % quantiles.
pub fn check<D: Distribution + ?Sized>(d: &D) -> Result<(), Violation> {
    let inf = f64::INFINITY;
    let near = |got: f64, want: f64| (got - want).abs() <= REL_TOL * want.abs().max(1.0);
    let at_zero = d.cdf(0.0);
    if !near(at_zero, 0.0) {
        return Err(Violation::CdfAtZero(at_zero));
    }
    let at_inf = d.cdf(inf);
    if !near(at_inf, 1.0) {
        return Err(Violation::CdfAtInfinity(at_inf));
    }
    let mass = d.prob_in(0.0, inf);
    if !near(mass, 1.0) {
        return Err(Violation::MassOfSupport(mass));
    }
    let (q1, q2) = (d.quantile(0.25), d.quantile(0.9));
    for k in ORDERS {
        let raw = d.raw_moment(k);
        let pieces = [
            d.partial_moment(k, 0.0, q1),
            d.partial_moment(k, q1, q2),
            d.partial_moment(k, q2, inf),
        ];
        let sum: f64 = pieces.iter().sum();
        let ok = if raw.is_nan() || pieces.iter().any(|p| p.is_nan() || *p < 0.0) {
            false
        } else if raw.is_infinite() {
            sum.is_infinite()
        } else {
            near(sum, raw)
        };
        if !ok {
            return Err(Violation::PartitionSum { k, raw, pieces });
        }
    }
    for p in ROUND_TRIP_P {
        let x = d.quantile(p);
        let (at, below) = (d.cdf(x), d.cdf(x * (1.0 - 1e-9)));
        if !(x > 0.0 && at >= p - 1e-9 && below <= p + 1e-9) {
            return Err(Violation::QuantileInverse { p, x, at, below });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{
        BoundedPareto, Deterministic, Erlang, Exponential, HyperExponential, LogNormal, Mixture,
        Pareto, Scaled, Uniform, Weibull,
    };
    use crate::empirical::Empirical;
    use crate::rng::Rng64;
    use std::sync::Arc;

    fn erlang(shape: u32) -> Erlang {
        Erlang::with_mean(shape, 1000.0).unwrap()
    }

    fn lognormal() -> LogNormal {
        LogNormal::fit_mean_scv(1000.0, 8.0).unwrap()
    }

    /// One of each implementation, and the forwarders.
    fn roster() -> Vec<(&'static str, Box<dyn Distribution>)> {
        let bp = BoundedPareto::new(1.0, 1.0e6, 1.1).unwrap();
        let mut rng = Rng64::seed_from(7);
        let sample: Vec<f64> = (0..1000).map(|_| bp.sample(&mut rng)).collect();
        let mixture = Mixture::new(vec![
            (0.7, Box::new(Erlang::with_mean(4, 10.0).unwrap()) as Box<dyn Distribution>),
            (0.3, Box::new(LogNormal::fit_mean_scv(100.0, 4.0).unwrap())),
        ])
        .unwrap();
        vec![
            ("Erlang-1", Box::new(erlang(1))),
            ("Erlang-2", Box::new(erlang(2))),
            ("Erlang-4", Box::new(erlang(4))),
            ("Erlang-16", Box::new(erlang(16))),
            ("LogNormal", Box::new(lognormal())),
            ("Exponential", Box::new(Exponential::with_mean(3.0).unwrap())),
            ("HyperExponential", Box::new(HyperExponential::fit_mean_scv(10.0, 16.0).unwrap())),
            ("Weibull", Box::new(Weibull::new(0.7, 2.0).unwrap())),
            ("BoundedPareto", Box::new(bp)),
            ("Pareto", Box::new(Pareto::new(2.0, 1.5).unwrap())),
            ("Uniform", Box::new(Uniform::new(10.0, 20.0).unwrap())),
            ("Deterministic", Box::new(Deterministic::new(5.0).unwrap())),
            ("Empirical", Box::new(Empirical::from_values(&sample).unwrap())),
            ("Mixture", Box::new(mixture)),
            ("Scaled", Box::new(Scaled::new(Erlang::new(3, 0.5).unwrap(), 40.0).unwrap())),
            ("Box<dyn>", Box::new(Box::new(erlang(4)) as Box<dyn Distribution>)),
            ("Arc<dyn>", Box::new(Arc::new(lognormal()) as Arc<dyn Distribution>)),
        ]
    }

    #[test]
    fn every_distribution_honours_the_contract() {
        for (name, d) in roster() {
            assert_eq!(check(d.as_ref()), Ok(()), "{name}");
            // the upper tail keeps its mass when cdf(+∞) is exactly 1
            let q = d.quantile(0.9);
            let tail = d.prob_in(q, f64::INFINITY);
            assert!((tail - (1.0 - d.cdf(q))).abs() < 1e-12, "{name}: P(X > {q}) = {tail}");
        }
        assert_eq!(check(&&erlang(4)), Ok(()), "&Erlang-4");
    }
}

//! The lognormal distribution.
//!
//! A common alternative heavy(ish)-tailed model for job runtimes and — in
//! this workspace — the interarrival distribution used to build *bursty*
//! renewal arrival processes for the paper's §6 experiments: a lognormal
//! with large `σ` has interarrival `C² = e^{σ²} − 1 ≫ 1`.

use crate::rng::Rng64;
use crate::special;
use crate::traits::{DistError, Distribution};

/// Lognormal distribution: `ln X ~ N(mu, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create a lognormal with log-mean `mu` and log-std `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        if !mu.is_finite() {
            return Err(DistError::new(format!("mu = {mu} must be finite")));
        }
        if !(sigma > 0.0) || !sigma.is_finite() {
            return Err(DistError::new(format!("sigma = {sigma} must be positive and finite")));
        }
        Ok(Self { mu, sigma })
    }

    /// Fit a lognormal to a target mean and squared coefficient of
    /// variation (`scv > 0`): `σ² = ln(1 + scv)`,
    /// `μ = ln(mean) − σ²/2`.
    pub fn fit_mean_scv(mean: f64, scv: f64) -> Result<Self, DistError> {
        if !(mean > 0.0) || !mean.is_finite() {
            return Err(DistError::new(format!("mean = {mean} must be positive and finite")));
        }
        if !(scv > 0.0) || !scv.is_finite() {
            return Err(DistError::new(format!("scv = {scv} must be positive and finite")));
        }
        let sigma2 = (1.0 + scv).ln();
        Self::new(mean.ln() - sigma2 / 2.0, sigma2.sqrt())
    }

    /// Log-scale location parameter `μ`.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-scale shape parameter `σ`.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Distribution for LogNormal {
    fn closed_form_moments(&self) -> bool {
        true
    }
    fn sample(&self, rng: &mut Rng64) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }

    fn support(&self) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            special::std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile probability {p} not in [0,1]");
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return f64::INFINITY;
        }
        (self.mu + self.sigma * special::std_normal_quantile(p)).exp()
    }

    fn raw_moment(&self, k: i32) -> f64 {
        // E[X^k] = exp(kμ + k²σ²/2), valid for every integer k
        let kf = f64::from(k);
        (kf * self.mu + 0.5 * kf * kf * self.sigma * self.sigma).exp()
    }

    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        // E[X^k; a<X≤b] = E[X^k]·[Φ(β−kσ) − Φ(α−kσ)]
        // with α = (ln a − μ)/σ, β = (ln b − μ)/σ.
        if b <= a {
            return 0.0;
        }
        let kf = f64::from(k);
        let za = if a <= 0.0 {
            f64::NEG_INFINITY
        } else {
            (a.ln() - self.mu) / self.sigma
        };
        // Φ is total on [−∞, +∞], so b = +∞ needs no special case
        let zb = (b.ln() - self.mu) / self.sigma;
        let phi = special::std_normal_cdf;
        self.raw_moment(k) * (phi(zb - kf * self.sigma) - phi(za - kf * self.sigma))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::fit_mean_scv(0.0, 1.0).is_err());
        assert!(LogNormal::fit_mean_scv(1.0, 0.0).is_err());
    }

    #[test]
    fn fit_matches_mean_and_scv() {
        for &(mean, scv) in &[(1.0, 0.5), (100.0, 43.0), (3.0, 9.0)] {
            let d = LogNormal::fit_mean_scv(mean, scv).unwrap();
            assert!((d.mean() - mean).abs() / mean < 1e-10);
            assert!((d.scv() - scv).abs() / scv < 1e-9);
        }
    }

    #[test]
    fn moments_closed_form() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        let e = std::f64::consts::E;
        assert!((d.mean() - e.sqrt()).abs() < 1e-12);
        assert!((d.raw_moment(2) - e * e).abs() < 1e-10);
        // negative moment: E[1/X] = exp(−μ + σ²/2) = sqrt(e)
        assert!((d.raw_moment(-1) - e.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantile_cdf_round_trip() {
        let d = LogNormal::fit_mean_scv(10.0, 5.0).unwrap();
        for &p in &[0.001, 0.25, 0.5, 0.75, 0.999] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-10, "p = {p}");
        }
    }

    #[test]
    fn partial_moment_full_support_equals_raw() {
        let d = LogNormal::fit_mean_scv(4.0, 3.0).unwrap();
        for k in [-1i32, 0, 1, 2] {
            let pm = d.partial_moment(k, 0.0, f64::INFINITY);
            let raw = d.raw_moment(k);
            assert!((pm - raw).abs() / raw < 1e-10, "k = {k}");
        }
    }

    #[test]
    fn partial_moment_additive() {
        let d = LogNormal::fit_mean_scv(4.0, 3.0).unwrap();
        let whole = d.partial_moment(1, 0.0, f64::INFINITY);
        let parts = d.partial_moment(1, 0.0, 2.0)
            + d.partial_moment(1, 2.0, 50.0)
            + d.partial_moment(1, 50.0, f64::INFINITY);
        assert!((whole - parts).abs() / whole < 1e-10);
    }

    #[test]
    fn sample_median_is_exp_mu() {
        let d = LogNormal::new(1.0, 2.0).unwrap();
        let mut rng = Rng64::seed_from(808);
        let mut v: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        v.sort_by(f64::total_cmp);
        let med = v[50_000];
        let want = 1f64.exp();
        assert!((med - want).abs() / want < 0.05, "median {med} vs {want}");
    }
}

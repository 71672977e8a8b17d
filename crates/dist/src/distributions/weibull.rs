//! The Weibull distribution.
//!
//! With shape `< 1` the Weibull is sub-exponential (heavy-tailed in the
//! practical sense) and is another credible model for job runtimes; with
//! shape `> 1` it is lighter than exponential. Included to let users probe
//! the paper's claim that policy ranking is driven by service-time
//! variability across tail families, not by the Pareto form specifically.

use crate::rng::Rng64;
use crate::special;
use crate::traits::{DistError, Distribution};

/// Weibull distribution with shape `k` and scale `λ`:
/// `F(x) = 1 − exp(−(x/λ)^k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Create a Weibull with shape `shape > 0` and scale `scale > 0`.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistError> {
        if !(shape > 0.0) || !shape.is_finite() {
            return Err(DistError::new(format!("shape = {shape} must be positive and finite")));
        }
        if !(scale > 0.0) || !scale.is_finite() {
            return Err(DistError::new(format!("scale = {scale} must be positive and finite")));
        }
        Ok(Self { shape, scale })
    }

    /// Fit shape to the target `scv` (by solving
    /// `Γ(1+2/k)/Γ(1+1/k)² = 1 + scv`), then scale to the target mean.
    pub fn fit_mean_scv(mean: f64, scv: f64) -> Result<Self, DistError> {
        if !(mean > 0.0) || !mean.is_finite() {
            return Err(DistError::new(format!("mean = {mean} must be positive and finite")));
        }
        if !(scv > 0.0) || !scv.is_finite() {
            return Err(DistError::new(format!("scv = {scv} must be positive and finite")));
        }
        // ratio(k) = Γ(1+2/k)/Γ(1+1/k)^2 is decreasing in k
        let ratio = |k: f64| {
            (special::ln_gamma(1.0 + 2.0 / k) - 2.0 * special::ln_gamma(1.0 + 1.0 / k)).exp()
        };
        let target = 1.0 + scv;
        let mut lo = 0.05;
        let mut hi = 50.0;
        if ratio(lo) < target || ratio(hi) > target {
            return Err(DistError::new(format!("scv = {scv} outside fittable range")));
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if ratio(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let shape = 0.5 * (lo + hi);
        let scale = mean / special::ln_gamma(1.0 + 1.0 / shape).exp();
        Self::new(shape, scale)
    }

    /// Shape parameter `k`.
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `λ`.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Distribution for Weibull {
    fn closed_form_moments(&self) -> bool {
        true
    }
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.scale * rng.standard_exponential().powf(1.0 / self.shape)
    }

    fn support(&self) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-(x / self.scale).powf(self.shape)).exp_m1()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile probability {p} not in [0,1]");
        if p >= 1.0 {
            f64::INFINITY
        } else {
            self.scale * (-(-p).ln_1p()).powf(1.0 / self.shape)
        }
    }

    fn raw_moment(&self, k: i32) -> f64 {
        // E[X^k] = λ^k Γ(1 + k/shape), finite iff 1 + k/shape > 0
        let kf = f64::from(k);
        let arg = 1.0 + kf / self.shape;
        if arg <= 0.0 {
            return f64::INFINITY;
        }
        self.scale.powi(k) * special::ln_gamma(arg).exp()
    }

    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        // E[X^k; a<X≤b] = λ^k [γ(1+k/shape, (b/λ)^shape) − γ(1+k/shape, (a/λ)^shape)]/Γ(·)·Γ(·)
        if b <= a {
            return 0.0;
        }
        let a = a.max(0.0);
        let kf = f64::from(k);
        let arg = 1.0 + kf / self.shape;
        if arg <= 0.0 {
            return if a > 0.0 {
                // finite on intervals excluding zero: numeric fallback
                let hi = if b.is_finite() { b } else { self.quantile(1.0 - 1e-14) };
                crate::numeric::integrate(
                    |x| {
                        let z = (x / self.scale).powf(self.shape);
                        x.powi(k) * self.shape / self.scale
                            * (x / self.scale).powf(self.shape - 1.0)
                            * (-z).exp()
                    },
                    a,
                    hi,
                    256,
                )
            } else {
                f64::INFINITY
            };
        }
        // P(arg, ·) is total at +∞, so b = +∞ needs no special case
        let ta = (a / self.scale).powf(self.shape);
        let tb = (b / self.scale).powf(self.shape);
        let plo = special::reg_gamma_lower(arg, ta.max(0.0));
        let phi = special::reg_gamma_lower(arg, tb.max(0.0));
        self.raw_moment(k) * (phi - plo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, 0.0).is_err());
        assert!(Weibull::fit_mean_scv(1.0, 0.0).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        let w = Weibull::new(1.0, 2.0).unwrap();
        let e = super::super::Exponential::with_mean(2.0).unwrap();
        for &x in &[0.5, 1.0, 4.0] {
            assert!((w.cdf(x) - e.cdf(x)).abs() < 1e-12);
        }
        assert!((w.mean() - 2.0).abs() < 1e-10);
        assert!((w.scv() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fit_matches_targets() {
        for &(mean, scv) in &[(1.0, 0.25), (10.0, 1.0), (5.0, 8.0)] {
            let d = Weibull::fit_mean_scv(mean, scv).unwrap();
            assert!((d.mean() - mean).abs() / mean < 1e-6, "mean for scv={scv}");
            assert!((d.scv() - scv).abs() / scv < 1e-5, "scv {} vs {scv}", d.scv());
        }
    }

    #[test]
    fn heavy_shape_below_one() {
        let d = Weibull::fit_mean_scv(1.0, 10.0).unwrap();
        assert!(d.shape() < 1.0, "shape = {}", d.shape());
    }

    #[test]
    fn quantile_cdf_round_trip() {
        let d = Weibull::new(0.6, 3.0).unwrap();
        for &p in &[0.01, 0.5, 0.99] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-10);
        }
    }

    #[test]
    fn partial_moment_full_support_is_raw() {
        let d = Weibull::new(0.7, 2.0).unwrap();
        for k in [0i32, 1, 2] {
            let pm = d.partial_moment(k, 0.0, f64::INFINITY);
            let raw = d.raw_moment(k);
            assert!((pm - raw).abs() / raw < 1e-9, "k = {k}");
        }
    }

    #[test]
    fn sample_mean_matches() {
        let d = Weibull::new(0.8, 1.0).unwrap();
        let mut rng = Rng64::seed_from(99);
        let n = 300_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - d.mean()).abs() / d.mean() < 0.02, "mean = {mean}");
    }

    #[test]
    fn negative_moment_divergence_matches_shape() {
        // E[X^{-1}] finite iff shape > 1
        let light = Weibull::new(2.0, 1.0).unwrap();
        assert!(light.raw_moment(-1).is_finite());
        let heavy = Weibull::new(0.9, 1.0).unwrap();
        assert_eq!(heavy.raw_moment(-1), f64::INFINITY);
    }
}

//! Distributions that break the [`Distribution`] contract on purpose,
//! for the tests that check a defect is reported rather than hidden.

use dses_dist::{Distribution, Exponential, Rng64};

/// Exponential whose `cdf(∞)` is NaN: the band above any cutoff then
/// has NaN mass.
#[derive(Debug)]
pub(crate) struct NanAtInfinity(pub(crate) Exponential);

impl Distribution for NanAtInfinity {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.0.sample(rng)
    }
    fn support(&self) -> (f64, f64) {
        self.0.support()
    }
    fn cdf(&self, x: f64) -> f64 {
        if x.is_infinite() {
            f64::NAN
        } else {
            self.0.cdf(x)
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        self.0.quantile(p)
    }
    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        self.0.partial_moment(k, a, b)
    }
}

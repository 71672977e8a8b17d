//! Order statistics over measured samples.

/// The median of `values` (the mean of the middle two for an even count);
/// `NaN` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-percentile (`0 < p ≤ 1`): the smallest value with
/// at least a share `p` of the samples at or below it. It is always one of
/// the samples, so it never interpolates across a gap between clusters of
/// values. `NaN` for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_averages_the_middle_of_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 9.0, 3.0, 7.0];
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.2), 1.0);
        assert_eq!(percentile(&v, 0.21), 3.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}

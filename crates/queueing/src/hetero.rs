//! Heterogeneous-host SITA analysis (extension).
//!
//! The paper's architectural model fixes identical hosts (§1.1), but
//! real server banks age in place: a center often pairs an older, slower
//! machine with a newer one. SITA generalises cleanly — host `i` with
//! speed `sᵢ` serving the size band `(c_{i−1}, c_i]` is an M/G/1 whose
//! service *times* are `X/sᵢ`:
//!
//! * `ρᵢ = λᵢ · E[X | band] / sᵢ`
//! * `E[Wᵢ]` from Pollaczek–Khinchine on the scaled moments
//! * per-job slowdown (against reference-speed size) =
//!   `Wᵢ/X + 1/sᵢ`, so `E[S | band] = E[Wᵢ]·E[X⁻¹ | band] + 1/sᵢ`.
//!
//! The interesting design question — should the *fast* host take the
//! giants or the crowd of shorts? — is answered by
//! [`hetero_opt_cutoff`] and explored in the `ablation_hetero` exhibit.

use crate::cutoff::CutoffError;
use crate::mg1::{Mg1, ServiceMoments};
use dses_dist::{numeric, Distribution};

/// Analysis of one heterogeneous SITA host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeteroHost {
    /// size band `(lo, hi]`
    pub interval: (f64, f64),
    /// host speed relative to the reference
    pub speed: f64,
    /// fraction of jobs routed here
    pub job_fraction: f64,
    /// utilisation `λᵢ·E[X|band]/speed`
    pub rho: f64,
    /// fraction of total (reference) work routed here
    pub load_fraction: f64,
    /// mean waiting time
    pub mean_waiting: f64,
    /// mean slowdown vs reference-speed size
    pub mean_slowdown: f64,
}

/// Whole-system heterogeneous SITA analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroSita {
    /// per-host breakdown
    pub hosts: Vec<HeteroHost>,
    /// per-job mean slowdown (reference convention)
    pub mean_slowdown: f64,
    /// per-job mean waiting time
    pub mean_waiting: f64,
}

/// Analyse a SITA system with per-host speeds. `cutoffs.len() + 1` must
/// equal `speeds.len()`.
#[must_use]
pub fn analyze_hetero<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
    cutoffs: &[f64],
    speeds: &[f64],
) -> HeteroSita {
    assert_eq!(
        cutoffs.len() + 1,
        speeds.len(),
        "need one speed per host (cutoffs+1)"
    );
    assert!(
        speeds.iter().all(|&s| s > 0.0 && s.is_finite()),
        "speeds must be positive and finite"
    );
    assert!(lambda > 0.0, "lambda must be positive");
    let (_, sup_hi) = dist.support();
    let sup_hi = if sup_hi.is_finite() { sup_hi } else { f64::INFINITY };
    let total_m1 = dist.raw_moment(1);
    let mut edges = Vec::with_capacity(cutoffs.len() + 2);
    edges.push(0.0);
    edges.extend_from_slice(cutoffs);
    edges.push(sup_hi);
    let mut hosts = Vec::with_capacity(speeds.len());
    let mut mean_slowdown = 0.0;
    let mut mean_waiting = 0.0;
    for (w, &speed) in edges.windows(2).zip(speeds) {
        let (a, b) = (w[0], w[1]);
        let p = dist.prob_in(a, b);
        // a subnormal-probability band is empty (λ·p would underflow
        // to zero anyway); a non-finite mass is a defect of the
        // distribution, not an empty band: the host reports NaN, and
        // so do the aggregates
        // dses-lint: allow(float-totality) -- exact-underflow guard on a finite mass
        let empty = p <= 1e-300 || lambda * p == 0.0;
        if empty || !p.is_finite() {
            let v = if p.is_finite() { 0.0 } else { f64::NAN };
            hosts.push(HeteroHost {
                interval: (a, b),
                speed,
                job_fraction: v,
                rho: v,
                load_fraction: v,
                mean_waiting: v,
                mean_slowdown: v,
            });
            mean_slowdown += v;
            mean_waiting += v;
            continue;
        }
        // dses-lint: allow(panic-hygiene) -- guarded: the branch above `continue`s on vanishing or non-finite mass
        let base = ServiceMoments::of_interval(dist, a, b).expect("positive mass");
        // scale the *time* moments; keep the reference inverse moments
        let scaled = ServiceMoments {
            m1: base.m1 / speed,
            m2: base.m2 / (speed * speed),
            m3: base.m3 / (speed * speed * speed),
            inv1: base.inv1,
            inv2: base.inv2,
        };
        let q = Mg1::new(lambda * p, scaled);
        let waiting = q.mean_waiting();
        let slowdown = waiting * base.inv1 + 1.0 / speed;
        hosts.push(HeteroHost {
            interval: (a, b),
            speed,
            job_fraction: p,
            rho: q.rho(),
            load_fraction: dist.partial_moment(1, a, b) / total_m1,
            mean_waiting: waiting,
            mean_slowdown: slowdown,
        });
        mean_slowdown += p * slowdown;
        mean_waiting += p * waiting;
    }
    HeteroSita {
        hosts,
        mean_slowdown,
        mean_waiting,
    }
}

impl HeteroSita {
    /// Whether every populated host is stable.
    #[must_use]
    pub fn is_stable(&self) -> bool {
        self.hosts
            .iter()
            .all(|h| h.job_fraction <= 0.0 || h.rho < 1.0)
    }
}

/// Best 2-host cutoff for the given speed pair, minimising mean slowdown
/// (grid + golden refinement over the feasible interval).
pub fn hetero_opt_cutoff<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
    speeds: [f64; 2],
) -> Result<f64, CutoffError> {
    let offered = lambda * dist.raw_moment(1);
    let capacity = speeds[0] + speeds[1];
    if offered >= capacity {
        return Err(CutoffError::Infeasible { offered });
    }
    let (lo, hi) = dist.support();
    let hi = if hi.is_finite() { hi } else { dist.quantile(1.0 - 1e-12) };
    let objective = |c: f64| {
        let a = analyze_hetero(dist, lambda, &[c], &speeds);
        if a.is_stable() {
            a.mean_slowdown
        } else {
            f64::INFINITY
        }
    };
    let (llo, lhi) = (lo.max(1e-300).ln(), hi.ln());
    const GRID: usize = 160;
    let mut best_i = 0;
    let mut best_v = f64::INFINITY;
    for i in 0..=GRID {
        let c = (llo + (lhi - llo) * i as f64 / GRID as f64).exp();
        let v = objective(c);
        if v < best_v {
            best_v = v;
            best_i = i;
        }
    }
    if !best_v.is_finite() {
        return Err(CutoffError::SolveFailed(
            "no stable cutoff on the grid".to_string(),
        ));
    }
    let b_lo = (llo + (lhi - llo) * best_i.saturating_sub(1) as f64 / GRID as f64).exp();
    let b_hi = (llo + (lhi - llo) * (best_i + 1).min(GRID) as f64 / GRID as f64).exp();
    Ok(numeric::golden_section_min(objective, b_lo, b_hi, 1e-9 * b_hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sita::SitaAnalysis;
    use dses_dist::fit::{fit_body_tail, BodyTailTargets};
    use dses_dist::Mixture;

    fn c90ish() -> Mixture {
        fit_body_tail(BodyTailTargets {
            mean: 4562.0,
            scv: 43.0,
            min: 60.0,
            max: 2.22e6,
            tail_jobs: 0.013,
            tail_load: 0.5,
        })
        .unwrap()
    }

    #[test]
    fn unit_speeds_match_homogeneous_analysis() {
        let d = c90ish();
        let lambda = 1.2 / d.mean();
        let c = 30_000.0;
        let hetero = analyze_hetero(&d, lambda, &[c], &[1.0, 1.0]);
        let homo = SitaAnalysis::analyze(&d, lambda, &[c]);
        assert!(
            (hetero.mean_slowdown - homo.mean_slowdown).abs() / homo.mean_slowdown < 1e-9
        );
        assert!((hetero.mean_waiting - homo.mean_waiting).abs() / homo.mean_waiting < 1e-9);
        for (h, g) in hetero.hosts.iter().zip(&homo.hosts) {
            assert!((h.rho - g.rho).abs() < 1e-12);
        }
    }

    #[test]
    fn faster_long_host_reduces_slowdown() {
        // speeding up the giant-serving host helps; slowing it hurts
        let d = c90ish();
        let lambda = 1.2 / d.mean();
        let c = 30_000.0;
        let base = analyze_hetero(&d, lambda, &[c], &[1.0, 1.0]).mean_slowdown;
        let fast_long = analyze_hetero(&d, lambda, &[c], &[1.0, 2.0]).mean_slowdown;
        let slow_long = analyze_hetero(&d, lambda, &[c], &[1.0, 0.8]).mean_slowdown;
        assert!(fast_long < base, "{fast_long} vs {base}");
        assert!(slow_long > base, "{slow_long} vs {base}");
    }

    #[test]
    fn opt_cutoff_adapts_to_speed_asymmetry() {
        // with a slow short-host, the optimal cutoff moves down (give
        // the slow host less work)
        let d = c90ish();
        let lambda = 1.2 / d.mean();
        let balanced = hetero_opt_cutoff(&d, lambda, [1.0, 1.0]).unwrap();
        let slow_short = hetero_opt_cutoff(&d, lambda, [0.5, 1.5]).unwrap();
        assert!(
            slow_short < balanced,
            "slow short host should take a smaller band: {slow_short} vs {balanced}"
        );
        // and the optimised system is stable and better than naive reuse
        let naive = analyze_hetero(&d, lambda, &[balanced], &[0.5, 1.5]);
        let tuned = analyze_hetero(&d, lambda, &[slow_short], &[0.5, 1.5]);
        assert!(tuned.is_stable());
        assert!(tuned.mean_slowdown <= naive.mean_slowdown * (1.0 + 1e-9));
    }

    #[test]
    fn capacity_feasibility() {
        let d = c90ish();
        // offered 1.8 > capacity 1.5 → infeasible
        let lambda = 1.8 / d.mean();
        assert!(matches!(
            hetero_opt_cutoff(&d, lambda, [0.5, 1.0]),
            Err(CutoffError::Infeasible { .. })
        ));
        // but fine with capacity 2.5
        assert!(hetero_opt_cutoff(&d, lambda, [1.0, 1.5]).is_ok());
    }

    #[test]
    fn speed_scales_slowdown_floor() {
        // an unloaded fast host gives slowdown ≈ 1/speed for its jobs
        let d = c90ish();
        let lambda = 0.02 / d.mean(); // nearly idle
        let a = analyze_hetero(&d, lambda, &[30_000.0], &[1.0, 4.0]);
        let long_host = a.hosts[1];
        assert!((long_host.mean_slowdown - 0.25).abs() < 0.05);
    }

    #[test]
    fn a_nan_band_mass_is_not_an_empty_host() {
        let d = crate::test_support::NanAtInfinity(dses_dist::Exponential::new(1.0).unwrap());
        let a = analyze_hetero(&d, 1.4, &[1.0], &[1.0, 2.0]);
        assert!(a.hosts[0].job_fraction > 0.0);
        assert!(a.hosts[1].job_fraction.is_nan(), "{:?}", a.hosts[1]);
        assert!(a.mean_slowdown.is_nan(), "mean slowdown {}", a.mean_slowdown);
        assert!(a.mean_waiting.is_nan());
        assert!(!a.is_stable());
    }

    #[test]
    #[should_panic(expected = "one speed per host")]
    fn rejects_mismatched_speeds() {
        let d = c90ish();
        let _ = analyze_hetero(&d, 0.001, &[100.0], &[1.0, 1.0, 1.0]);
    }
}

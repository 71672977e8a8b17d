// dses-lint: allow-file(float-totality) -- transform boundary values (s == 0, t == 0,
// partial sums hitting exactly 1) are mathematically exact special cases, not tolerances
//! The M/G/1 waiting-time *distribution* by transform inversion
//! (extension).
//!
//! Theorem 1 gives moments; tails need the whole distribution. The
//! Pollaczek–Khinchine transform equation gives the Laplace–Stieltjes
//! transform of the FCFS waiting time exactly:
//!
//! ```text
//! W*(s) = (1 − ρ) s / (s − λ(1 − X*(s)))
//! ```
//!
//! where `X*(s) = E[e^{−sX}]` is the service-time transform. We compute
//! `X*` by quantile-space quadrature (works for any [`Distribution`],
//! heavy tails included) and invert `W*` numerically with the
//! Abate–Whitt **Euler** algorithm to get `P(W ≤ t)` — and from it
//! analytic slowdown tail predictions to set against the simulated
//! percentiles of the `ablation_percentiles` exhibit.

use dses_dist::{numeric, Distribution};

/// `E[e^{−sX}]` for a real `s ≥ 0`, via `∫₀¹ exp(−s·Q(u)) du`.
///
/// The quantile-space form needs no density and handles atoms and heavy
/// tails; panels are refined near `u = 1` where `Q` explodes.
#[must_use]
pub fn laplace_transform<D: Distribution + ?Sized>(dist: &D, s: f64) -> f64 {
    assert!(s >= 0.0, "transform argument must be nonnegative");
    if s == 0.0 {
        return 1.0;
    }
    let g = |u: f64| (-s * dist.quantile(u)).exp();
    // body + geometrically refined tail (mirrors the trait's moment rule)
    let split = 0.99;
    let mut total = numeric::integrate(g, 0.0, split, 96);
    let mut lo = split;
    let mut gap = 1.0 - split;
    for _ in 0..40 {
        gap *= 0.5;
        let hi = 1.0 - gap;
        if hi <= lo || gap < 1e-13 {
            break;
        }
        total += numeric::integrate(g, lo, hi, 8);
        lo = hi;
    }
    total + numeric::integrate(g, lo, 1.0, 8)
}

/// A precomputed quantile-space quadrature table: `(x, w)` pairs with
/// `Σ w·g(x) ≈ E[g(X)]`. Building it costs one pass of (possibly
/// bisection-based) quantile evaluations (~3.7k points); every transform
/// evaluation afterwards is a weighted sum over the table. One Euler
/// inversion needs the service transform at all [`EULER_TERMS`] points
/// of a vertical line, and the slowdown tail inverts at thousands of
/// `t`, so the table is built once per band and reused.
struct QuadTable {
    pts: Vec<(f64, f64)>,
}

impl QuadTable {
    fn build<D: Distribution + ?Sized>(dist: &D) -> Self {
        let mut pts = Vec::with_capacity(192 * 16 + 41 * 16);
        let mut push_panel = |a: f64, b: f64| {
            for (u, w) in numeric::gl16_nodes(a, b) {
                let x = dist.quantile(u);
                // u can round to exactly 1.0 inside the refined tail
                // panels; damped integrands vanish there anyway
                if x.is_finite() {
                    pts.push((x, w));
                }
            }
        };
        let split = 0.99;
        let body_panels = 192;
        let w = split / body_panels as f64;
        for i in 0..body_panels {
            push_panel(w * i as f64, w * (i + 1) as f64);
        }
        let mut lo = split;
        let mut gap = 1.0 - split;
        for _ in 0..40 {
            gap *= 0.5;
            let hi = 1.0 - gap;
            if hi <= lo || gap < 1e-13 {
                break;
            }
            push_panel(lo, hi);
            lo = hi;
        }
        push_panel(lo, 1.0);
        Self { pts }
    }

    /// `E[e^{−(a+ikh)X}]` as `(re, im)` for every `k` in
    /// `0..EULER_TERMS` — the whole vertical line one Euler inversion
    /// walks, in a single pass over the table.
    ///
    /// Per point: one `exp` for the damping and one `sin_cos(h·x)` for
    /// the unit step `e^{−ihx}`; the `k`-th term is reached by `k`
    /// complex rotations. Three transcendental calls per point instead
    /// of three per point *and* abscissa; the rotations cost about the
    /// same rounding as forming `k·h·x` directly (relative error
    /// ~`k·ε`, checked against the per-abscissa sum in the tests).
    fn transform_line(&self, a: f64, h: f64) -> [(f64, f64); EULER_TERMS] {
        let mut out = [(0.0, 0.0); EULER_TERMS];
        for &(x, w) in &self.pts {
            let (sin, cos) = (h * x).sin_cos();
            let mut re = w * (-a * x).exp();
            let mut im = 0.0;
            for slot in &mut out {
                slot.0 += re;
                slot.1 += im;
                // (re + i·im)·(cos − i·sin)
                (re, im) = (re * cos + im * sin, im * cos - re * sin);
            }
        }
        out
    }
}

/// Complex division helper: `(a + bi) / (c + di)`.
fn cdiv(a: f64, b: f64, c: f64, d: f64) -> (f64, f64) {
    let den = c * c + d * d;
    ((a * c + b * d) / den, (b * c - a * d) / den)
}

/// Abate–Whitt Euler parameters: `N_BASE` plain partial sums, then
/// binomial averaging over `M_EULER + 1` more; the inversion evaluates
/// the transform at `EULER_TERMS` abscissae `a + ikπ/t`, `k = 0..27`.
const N_BASE: usize = 15;
const M_EULER: usize = 11;
const EULER_TERMS: usize = N_BASE + M_EULER + 1;

/// The M/G/1 FCFS waiting-time CDF `P(W ≤ t)` by Euler inversion of the
/// Pollaczek–Khinchine transform.
///
/// `lambda` is the arrival rate, `dist` the service distribution; the
/// queue must be stable. Accuracy is ~1e-6 for smooth distributions;
/// heavy-tailed service keeps the algorithm stable. Building the
/// quadrature table inside `X*` dominates the cost of one call; the
/// inversion itself is one pass over the table.
///
/// # Panics
/// Panics if the queue is unstable or `t < 0`.
#[must_use]
pub fn mg1_waiting_cdf<D: Distribution + ?Sized>(dist: &D, lambda: f64, t: f64) -> f64 {
    let rho = lambda * dist.raw_moment(1);
    assert!(rho < 1.0, "queue must be stable (rho = {rho})");
    let table = QuadTable::build(dist);
    waiting_cdf_with_table(&table, rho, lambda, t)
}

/// Table-driven inversion core (shared by the waiting and slowdown tails).
fn waiting_cdf_with_table(table: &QuadTable, rho: f64, lambda: f64, t: f64) -> f64 {
    assert!(t >= 0.0, "time must be nonnegative");
    if t == 0.0 {
        // P(W = 0) = 1 − ρ for M/G/1 FCFS
        return 1.0 - rho;
    }
    // Invert F(t) via the transform of the *CDF*: F*(s) = W*(s)/s,
    // along the line s = a + ikh.
    const A: f64 = 18.4; // ~ 8 digits of discretisation error control
    let a = A / (2.0 * t);
    let h = std::f64::consts::PI / t;
    let x_star = table.transform_line(a, h);
    let f_star_re = |k: usize| -> f64 {
        // W*(s) = (1−ρ)s / (s − λ(1 − X*(s))), then Re[W*(s)/s]
        let b = k as f64 * h;
        let (xr, xi) = x_star[k];
        let (nr, ni) = ((1.0 - rho) * a, (1.0 - rho) * b);
        let (dr, di) = (a - lambda * (1.0 - xr), b + lambda * xi);
        let (wr, wi) = cdiv(nr, ni, dr, di);
        let (fr, _) = cdiv(wr, wi, a, b);
        fr
    };
    // partial sums
    let mut partials = [0.0f64; EULER_TERMS];
    let mut sum = 0.5 * f_star_re(0);
    let mut sign = -1.0;
    for (k, slot) in partials.iter_mut().enumerate().skip(1) {
        sum += sign * f_star_re(k);
        sign = -sign;
        *slot = sum;
    }
    // Euler (binomial) averaging of the last M_EULER+1 partial sums
    let mut euler = 0.0;
    let mut binom = 1.0f64;
    let mut binom_sum = 0.0;
    for j in 0..=M_EULER {
        euler += binom * partials[N_BASE + j];
        binom_sum += binom;
        binom = binom * (M_EULER - j) as f64 / (j + 1) as f64;
    }
    euler /= binom_sum;
    // f(t) ≈ (e^{A/2}/t) · [½·Re F̂(a) + Σ_{k≥1} (−1)^k Re F̂(a + ikπ/t)]
    ((A / 2.0).exp() / t * euler).clamp(0.0, 1.0)
}

/// Complementary waiting-time distribution `P(W > t)`.
#[must_use]
pub fn mg1_waiting_ccdf<D: Distribution + ?Sized>(dist: &D, lambda: f64, t: f64) -> f64 {
    1.0 - mg1_waiting_cdf(dist, lambda, t)
}

/// One SITA host: its band of the size distribution and the M/G/1 queue
/// that band feeds.
struct Host<'a, D: Distribution + ?Sized> {
    band: BandDistribution<'a, D>,
    /// Band mass: the share of jobs routed to this host.
    p: f64,
    /// The host's arrival rate `λ·p`.
    lambda: f64,
    /// The host's load `λ·p·E[X | band]`.
    rho: f64,
}

/// Splits `dist` at `cutoffs` into one [`Host`] per band, in size order,
/// leaving out empty bands (a finite mass ≤ 1e-12). Returns `None` when
/// some band's mass or load is not finite: such a band is a defect of
/// the distribution, not an empty host, and the caller reports NaN.
fn split_hosts<'a, D: Distribution + ?Sized>(
    dist: &'a D,
    lambda: f64,
    cutoffs: &[f64],
) -> Option<Vec<Host<'a, D>>> {
    assert!(
        cutoffs.windows(2).all(|w| w[0] < w[1]),
        "cutoffs must be strictly increasing"
    );
    let (_, sup_hi) = dist.support();
    let mut edges = vec![0.0];
    edges.extend_from_slice(cutoffs);
    edges.push(if sup_hi.is_finite() { sup_hi } else { f64::INFINITY });
    let mut hosts = Vec::with_capacity(edges.len() - 1);
    for w in edges.windows(2) {
        let (a, b) = (w[0], w[1]);
        let p = dist.prob_in(a, b);
        if !p.is_finite() {
            return None;
        }
        if p <= 1e-12 {
            continue;
        }
        let band = BandDistribution {
            inner: dist,
            lo: a,
            hi: b,
            mass: p,
            cdf_lo: dist.cdf(a),
        };
        let band_lambda = lambda * p;
        let rho = band_lambda * band.raw_moment(1);
        if !rho.is_finite() {
            return None;
        }
        hosts.push(Host { band, p, lambda: band_lambda, rho });
    }
    Some(hosts)
}

/// Size quantiles per band at which the slowdown tail averages the
/// host's waiting tail (midpoint rule in quantile space).
const SIZE_POINTS: usize = 32;

/// The SITA slowdown tail with everything that does not depend on `s`
/// computed once: per band the [`Host`], its quadrature table and
/// [`SIZE_POINTS`] size quantiles.
struct SlowdownTail<'a, D: Distribution + ?Sized> {
    bands: Vec<TailBand<'a, D>>,
}

struct TailBand<'a, D: Distribution + ?Sized> {
    host: Host<'a, D>,
    /// `None` for a saturated host (ρ ≥ 1), whose tail needs no table.
    table: Option<QuadTable>,
    sizes: [f64; SIZE_POINTS],
}

impl<'a, D: Distribution + ?Sized> SlowdownTail<'a, D> {
    /// `None` when a band's mass or load is not finite.
    fn prepare(dist: &'a D, lambda: f64, cutoffs: &[f64]) -> Option<Self> {
        let bands = split_hosts(dist, lambda, cutoffs)?
            .into_iter()
            .map(|host| TailBand {
                table: (host.rho < 1.0).then(|| QuadTable::build(&host.band)),
                sizes: std::array::from_fn(|i| {
                    host.band.quantile((i as f64 + 0.5) / SIZE_POINTS as f64)
                }),
                host,
            })
            .collect();
        Some(Self { bands })
    }

    /// `P(S > s)`: within a band, `P(S > s | X = x) = P(W > (s−1)x)`,
    /// averaged over the band's size quantiles and mixed by band mass.
    fn ccdf(&self, s: f64) -> f64 {
        let mut tail = 0.0;
        for TailBand { host, table, sizes } in &self.bands {
            let Some(table) = table else {
                tail += host.p; // saturated band: everything above any finite s
                continue;
            };
            if s == 1.0 {
                tail += host.p * host.rho;
                continue;
            }
            let mut acc = 0.0;
            for &x in sizes {
                if !x.is_finite() || x <= 0.0 {
                    continue;
                }
                acc += 1.0 - waiting_cdf_with_table(table, host.rho, host.lambda, (s - 1.0) * x);
            }
            tail += host.p * (acc / SIZE_POINTS as f64);
        }
        tail.clamp(0.0, 1.0)
    }
}

/// Per-job *slowdown* tail `P(S > s)` of a whole SITA system: within
/// band `i`, `P(S > s | X = x) = P(W_i > (s−1)x)`, integrated over the
/// band's conditional size distribution and mixed across bands.
///
/// Together with a bisection on `s` this yields analytic slowdown
/// percentiles for every SITA policy — the `ablation_percentiles`
/// exhibit prints them beside the simulated estimates. Returns NaN when
/// a band's mass or load is not finite.
#[must_use]
pub fn sita_slowdown_ccdf<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
    cutoffs: &[f64],
    s: f64,
) -> f64 {
    assert!(s >= 1.0, "slowdown is at least 1 (got {s})");
    SlowdownTail::prepare(dist, lambda, cutoffs).map_or(f64::NAN, |tail| tail.ccdf(s))
}

/// Analytic slowdown percentile of a SITA system: the smallest `s` with
/// `P(S ≤ s) ≥ q`, by bisection on [`sita_slowdown_ccdf`]. The band
/// tables are built once and shared by every step of the bisection.
/// Returns NaN when a band's mass or load is not finite.
#[must_use]
pub fn sita_slowdown_quantile<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
    cutoffs: &[f64],
    q: f64,
) -> f64 {
    assert!((0.0..1.0).contains(&q), "quantile must be in [0, 1)");
    let Some(tail) = SlowdownTail::prepare(dist, lambda, cutoffs) else {
        return f64::NAN;
    };
    let target = 1.0 - q;
    if tail.ccdf(1.0) <= target {
        return 1.0;
    }
    // bracket upward geometrically
    let mut hi = 2.0;
    for _ in 0..60 {
        if tail.ccdf(hi) <= target {
            break;
        }
        hi *= 2.0;
    }
    let mut lo = 1.0;
    for _ in 0..40 {
        let mid = (lo * hi).sqrt();
        if tail.ccdf(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo * hi).sqrt()
}

/// Per-job waiting-time tail `P(W > t)` of a whole SITA system: each
/// host is an M/G/1 on its conditioned band, and a random job's waiting
/// time is the `p_i`-weighted mixture of the per-host tails.
///
/// This turns Theorem-1-style analysis into *tail* predictions for the
/// paper's policies — something the paper itself never computes.
/// Returns NaN when a band's mass or load is not finite.
///
/// # Panics
/// Panics if some host's queue is unstable.
#[must_use]
pub fn sita_waiting_ccdf<D: Distribution + ?Sized>(
    dist: &D,
    lambda: f64,
    cutoffs: &[f64],
    t: f64,
) -> f64 {
    split_hosts(dist, lambda, cutoffs).map_or(f64::NAN, |hosts| {
        hosts
            .iter()
            .fold(0.0, |tail, h| tail + h.p * mg1_waiting_ccdf(&h.band, h.lambda, t))
    })
}

/// A size distribution conditioned on a band `(lo, hi]` — adapter so the
/// transform machinery can treat one SITA host's service distribution as
/// a standalone [`Distribution`].
struct BandDistribution<'a, D: Distribution + ?Sized> {
    inner: &'a D,
    lo: f64,
    hi: f64,
    mass: f64,
    cdf_lo: f64,
}

impl<D: Distribution + ?Sized> std::fmt::Debug for BandDistribution<'_, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BandDistribution({}, {}]", self.lo, self.hi)
    }
}

impl<D: Distribution + ?Sized> Distribution for BandDistribution<'_, D> {
    fn sample(&self, rng: &mut dses_dist::Rng64) -> f64 {
        // inverse-transform through the conditioned CDF
        let u = self.cdf_lo + self.mass * rng.uniform();
        self.inner.quantile(u.min(1.0))
    }
    fn support(&self) -> (f64, f64) {
        (self.lo.max(self.inner.support().0), self.hi.min(self.inner.support().1))
    }
    fn cdf(&self, x: f64) -> f64 {
        ((self.inner.cdf(x.min(self.hi)) - self.cdf_lo) / self.mass).clamp(0.0, 1.0)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.inner.quantile((self.cdf_lo + self.mass * p).min(1.0))
    }
    fn raw_moment(&self, k: i32) -> f64 {
        self.inner.partial_moment(k, self.lo, self.hi) / self.mass
    }
    fn partial_moment(&self, k: i32, a: f64, b: f64) -> f64 {
        self.inner
            .partial_moment(k, a.max(self.lo), b.min(self.hi))
            / self.mass
    }
}

/// Complementary *slowdown* distribution `P(S > s)` for an M/G/1 FCFS
/// queue, where `S = 1 + W/X` and the tagged job's size is independent of
/// its wait: `P(S > s) = E_X[ P(W > (s−1)·X) ]`, evaluated by combining
/// the transform-inverted waiting tail with quantile-space integration
/// over the size distribution.
///
/// This is the analytic counterpart of the `ablation_percentiles`
/// exhibit's simulated p95/p99 columns. One call builds one quadrature
/// table and runs 48 one-pass inversions over it.
///
/// # Panics
/// Panics for `s < 1` or an unstable queue.
#[must_use]
pub fn mg1_slowdown_ccdf<D: Distribution + ?Sized>(dist: &D, lambda: f64, s: f64) -> f64 {
    assert!(s >= 1.0, "slowdown is at least 1 (got {s})");
    let rho = lambda * dist.raw_moment(1);
    assert!(rho < 1.0, "queue must be stable (rho = {rho})");
    if s == 1.0 {
        // P(S > 1) = P(W > 0) = rho
        return rho;
    }
    // coarse quantile grid over sizes; the waiting tail is smooth in t
    let table = QuadTable::build(dist);
    const POINTS: usize = 48;
    let mut acc = 0.0;
    for i in 0..POINTS {
        let u = (i as f64 + 0.5) / POINTS as f64;
        let x = dist.quantile(u);
        if !x.is_finite() || x <= 0.0 {
            continue;
        }
        acc += 1.0 - waiting_cdf_with_table(&table, rho, lambda, (s - 1.0) * x);
    }
    (acc / POINTS as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dses_dist::prelude::*;

    impl QuadTable {
        /// Reference oracle for [`QuadTable::transform_line`]:
        /// `E[e^{−(a+bi)X}]` as `(re, im)` at one abscissa, with its own
        /// `exp`, `cos` and `sin` per point.
        fn transform(&self, a: f64, b: f64) -> (f64, f64) {
            let mut re = 0.0;
            let mut im = 0.0;
            for &(x, w) in &self.pts {
                let damp = (-a * x).exp();
                re += w * damp * (b * x).cos();
                im -= w * damp * (b * x).sin();
            }
            (re, im)
        }
    }

    /// The C90 body–tail workload (mean 4562 s, C² = 43).
    fn c90() -> impl Distribution {
        dses_dist::fit::fit_body_tail(dses_dist::fit::BodyTailTargets {
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
    fn transform_line_matches_per_abscissa_oracle() {
        let exp = Exponential::new(1.0).unwrap();
        let d = c90();
        let lambda = 1.2 / d.mean();
        let cutoff = crate::cutoff::sita_u_fair_cutoff(&d, lambda).unwrap();
        let hosts = split_hosts(&d, lambda, &[cutoff]).unwrap();
        let tables = [
            QuadTable::build(&exp),
            QuadTable::build(&hosts[0].band),
            QuadTable::build(&hosts[1].band),
        ];
        for table in &tables {
            let x_max = table.pts.iter().map(|&(x, _)| x).fold(0.0, f64::max);
            let w_sum: f64 = table.pts.iter().map(|&(_, w)| w).sum();
            // the last abscissa turns the largest size through 2e4 rad
            let h = 2e4 / ((EULER_TERMS - 1) as f64 * x_max);
            for a in [0.0, 18.4 * h / (2.0 * std::f64::consts::PI)] {
                let line = table.transform_line(a, h);
                for (k, &(re, im)) in line.iter().enumerate() {
                    let (want_re, want_im) = table.transform(a, k as f64 * h);
                    let tol = 1e-12 * w_sum;
                    assert!(
                        (re - want_re).abs() <= tol && (im - want_im).abs() <= tol,
                        "x_max={x_max}, a={a}, k={k}: ({re}, {im}) vs ({want_re}, {want_im})"
                    );
                }
            }
        }
    }

    #[test]
    fn laplace_transform_of_exponential_is_closed_form() {
        let d = Exponential::new(2.0).unwrap();
        for &s in &[0.0, 0.5, 1.0, 5.0] {
            let want = 2.0 / (2.0 + s);
            let got = laplace_transform(&d, s);
            assert!((got - want).abs() < 1e-6, "s = {s}: {got} vs {want}");
        }
    }

    #[test]
    fn laplace_transform_of_deterministic() {
        let d = Deterministic::new(3.0).unwrap();
        for &s in &[0.1f64, 1.0] {
            let want = (-3.0 * s).exp();
            assert!((laplace_transform(&d, s) - want).abs() < 1e-9);
        }
    }

    #[test]
    fn waiting_cdf_matches_mm1_closed_form() {
        // M/M/1: P(W ≤ t) = 1 − ρ e^{−μ(1−ρ)t}
        let mu = 1.0;
        let d = Exponential::new(mu).unwrap();
        for &rho in &[0.3, 0.7] {
            let lambda = rho * mu;
            for &t in &[1e-3, 0.5, 2.0, 8.0, 1e3] {
                let want = 1.0 - rho * (-(mu) * (1.0 - rho) * t).exp();
                let got = mg1_waiting_cdf(&d, lambda, t);
                assert!(
                    (got - want).abs() < 5e-4,
                    "rho={rho}, t={t}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn waiting_cdf_at_zero_is_idle_probability() {
        let d = Exponential::new(1.0).unwrap();
        assert!((mg1_waiting_cdf(&d, 0.6, 0.0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn waiting_cdf_is_monotone_for_md1() {
        let d = Deterministic::new(1.0).unwrap();
        let lambda = 0.8;
        let mut prev = 0.0;
        for i in 1..20 {
            let t = i as f64 * 0.5;
            let f = mg1_waiting_cdf(&d, lambda, t);
            assert!(f >= prev - 5e-4, "t = {t}: {f} < {prev}");
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        // eventually close to 1
        assert!(mg1_waiting_cdf(&d, lambda, 60.0) > 0.99);
    }

    #[test]
    fn sita_tail_mixes_per_host_tails() {
        // two exponential bands via a cutoff on Exponential(1): the
        // system tail must lie between the two hosts' tails and equal
        // the p-weighted mixture
        let d = Exponential::new(1.0).unwrap();
        let lambda = 0.5;
        let cutoff = d.quantile(0.9);
        let t = 2.0;
        let tail = sita_waiting_ccdf(&d, lambda, &[cutoff], t);
        assert!((0.0..=1.0).contains(&tail));
        // heavier load on the short band -> its host dominates the tail
        let no_split = mg1_waiting_ccdf(&d, lambda, t);
        assert!(tail < no_split, "splitting reduces the tail: {tail} vs {no_split}");
    }

    #[test]
    fn sita_tail_on_heavy_tailed_workload_is_finite_and_ordered() {
        let d = c90();
        let lambda = 1.2 / d.mean();
        let cutoff = crate::cutoff::sita_u_fair_cutoff(&d, lambda).unwrap();
        let t1 = sita_waiting_ccdf(&d, lambda, &[cutoff], 1_000.0);
        let t2 = sita_waiting_ccdf(&d, lambda, &[cutoff], 100_000.0);
        assert!(t1 >= t2, "tail must decrease: {t1} vs {t2}");
        assert!((0.0..=1.0).contains(&t1));
    }

    #[test]
    fn slowdown_ccdf_matches_mm1_structure() {
        // M/M/1: P(S > 1) = rho; tail decreasing; sane range
        let d = Exponential::new(1.0).unwrap();
        let lambda = 0.6;
        assert!((mg1_slowdown_ccdf(&d, lambda, 1.0) - 0.6).abs() < 1e-12);
        let t2 = mg1_slowdown_ccdf(&d, lambda, 2.0);
        let t5 = mg1_slowdown_ccdf(&d, lambda, 5.0);
        let t20 = mg1_slowdown_ccdf(&d, lambda, 20.0);
        assert!(t2 > t5 && t5 > t20, "{t2} {t5} {t20}");
        assert!((0.0..=0.6).contains(&t20));
    }

    #[test]
    fn slowdown_ccdf_matches_simulation() {
        use dses_workload::WorkloadBuilder;
        let d = HyperExponential::fit_mean_scv(1.0, 4.0).unwrap();
        let lambda = 0.6;
        let trace = WorkloadBuilder::new(d.clone())
            .jobs(300_000)
            .poisson_load(0.6, 1)
            .seed(61)
            .build();
        use dses_sim::{simulate_dispatch, Dispatcher, MetricsConfig, SystemState};
        struct One;
        impl Dispatcher for One {
            fn dispatch(
                &mut self,
                _: &dses_workload::Job,
                _: &SystemState<'_>,
                _: &mut dses_dist::Rng64,
            ) -> usize {
                0
            }
        }
        let r = simulate_dispatch(&trace, 1, &mut One, 0, MetricsConfig {
            collect_records: true,
            warmup_jobs: 20_000,
            ..MetricsConfig::default()
        });
        let slowdowns: Vec<f64> = r.records.unwrap().iter().map(|j| j.slowdown()).collect();
        let n = slowdowns.len() as f64;
        for s in [2.0, 5.0, 20.0] {
            let empirical = slowdowns.iter().filter(|&&v| v > s).count() as f64 / n;
            let analytic = mg1_slowdown_ccdf(&d, lambda, s);
            assert!(
                (empirical - analytic).abs() < 0.03,
                "s={s}: empirical {empirical} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn sita_slowdown_tail_and_quantile_are_consistent() {
        let d = c90();
        let lambda = 1.2 / d.mean();
        let cutoff = crate::cutoff::sita_u_fair_cutoff(&d, lambda).unwrap();
        // P(S > 1) = per-band utilisation mixture, in (0, 1)
        let at_one = sita_slowdown_ccdf(&d, lambda, &[cutoff], 1.0);
        assert!(at_one > 0.0 && at_one < 1.0);
        // tail decreasing
        let t5 = sita_slowdown_ccdf(&d, lambda, &[cutoff], 5.0);
        let t50 = sita_slowdown_ccdf(&d, lambda, &[cutoff], 50.0);
        assert!(t5 >= t50, "{t5} vs {t50}");
        // quantile inverts the tail
        let p90 = sita_slowdown_quantile(&d, lambda, &[cutoff], 0.9);
        let back = sita_slowdown_ccdf(&d, lambda, &[cutoff], p90);
        assert!((back - 0.1).abs() < 0.02, "P(S > p90) = {back}");
    }

    #[test]
    fn sita_slowdown_quantile_equals_bisection_over_ccdf() {
        // the per-quantile band tables change nothing: the same bisection
        // written over the public ccdf (which rebuilds every table per
        // call) lands on the same bits
        let d = c90();
        let lambda = 1.2 / d.mean();
        let cutoffs = [crate::cutoff::sita_u_fair_cutoff(&d, lambda).unwrap()];
        let q = 0.99;
        let ccdf = |s: f64| sita_slowdown_ccdf(&d, lambda, &cutoffs, s);
        let target = 1.0 - q;
        assert!(ccdf(1.0) > target);
        let mut hi = 2.0;
        for _ in 0..60 {
            if ccdf(hi) <= target {
                break;
            }
            hi *= 2.0;
        }
        let mut lo = 1.0;
        for _ in 0..40 {
            let mid = (lo * hi).sqrt();
            if ccdf(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let want = (lo * hi).sqrt();
        let got = sita_slowdown_quantile(&d, lambda, &cutoffs, q);
        assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
    }

    /// Exponential whose `cdf(∞)` is NaN, as Erlang's and LogNormal's
    /// were: the band above any cutoff then has NaN mass.
    #[derive(Debug)]
    struct NanAtInfinity(Exponential);

    impl Distribution for NanAtInfinity {
        fn sample(&self, rng: &mut dses_dist::Rng64) -> f64 {
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

    #[test]
    fn sita_tails_report_nan_for_a_band_with_nan_mass() {
        let d = NanAtInfinity(Exponential::new(1.0).unwrap());
        assert!(d.prob_in(1.0, f64::INFINITY).is_nan());
        let lambda = 1.4;
        let cutoffs = [1.0];
        for s in [1.0, 2.0] {
            let tail = sita_slowdown_ccdf(&d, lambda, &cutoffs, s);
            assert!(tail.is_nan(), "P(S > {s}) = {tail}");
        }
        let tail = sita_waiting_ccdf(&d, lambda, &cutoffs, 0.5);
        assert!(tail.is_nan(), "P(W > 0.5) = {tail}");
        let p99 = sita_slowdown_quantile(&d, lambda, &cutoffs, 0.99);
        assert!(p99.is_nan(), "p99 = {p99}");
    }

    #[test]
    #[should_panic(expected = "stable")]
    fn rejects_unstable_queue() {
        let d = Exponential::new(1.0).unwrap();
        let _ = mg1_waiting_cdf(&d, 1.5, 1.0);
    }
}

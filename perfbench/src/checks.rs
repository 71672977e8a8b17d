//! The correctness pass: checks on every output the workloads produce.
//!
//! Each check returns the reasons an output is wrong (empty when it is
//! right). A [`Verdict`] collects them per operation; an operation fails
//! if it returned an error where a result was expected or if any check
//! on its output found a reason.

use dses_dist::Moments;
use dses_queueing::SitaAnalysis;
use dses_sim::SimResult;

/// One output row of an operation, compared bit for bit between runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// which operation produced it
    pub label: String,
    /// the values the workload reads from the result
    pub values: Vec<f64>,
}

impl Row {
    /// A row from a label and its values.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Self {
            label: label.into(),
            values,
        }
    }
}

/// The first row at which `a` and `b` differ in any bit, described.
#[must_use]
pub fn first_bit_difference(a: &[Row], b: &[Row]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} rows against {}", a.len(), b.len()));
    }
    a.iter().zip(b).find_map(|(x, y)| {
        if x.label != y.label || x.values.len() != y.values.len() {
            return Some(format!("row `{}` against `{}`", x.label, y.label));
        }
        x.values
            .iter()
            .zip(&y.values)
            .position(|(u, v)| u.to_bits() != v.to_bits())
            .map(|i| {
                format!(
                    "`{}` value {i}: {:e} against {:e}",
                    x.label, x.values[i], y.values[i]
                )
            })
    })
}

/// An operation that failed, with every reason found.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// the operation's label
    pub op: String,
    /// what was wrong
    pub reasons: Vec<String>,
}

/// Operations attempted and the ones that failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// operations checked
    pub attempted: u64,
    /// failed operations, in the order they were checked
    pub failures: Vec<Failure>,
}

impl Verdict {
    /// Record one attempted operation and what its checks found.
    pub fn record(&mut self, op: impl Into<String>, reasons: Vec<String>) {
        self.attempted += 1;
        if !reasons.is_empty() {
            self.failures.push(Failure {
                op: op.into(),
                reasons,
            });
        }
    }

    /// Add a reason found by a later check to an already recorded operation.
    pub fn flag(&mut self, op: &str, reason: String) {
        match self.failures.iter_mut().find(|f| f.op == op) {
            Some(f) => f.reasons.push(reason),
            None => self.failures.push(Failure {
                op: op.to_string(),
                reasons: vec![reason],
            }),
        }
    }

    /// Number of failed operations.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Largest tolerated `|Σ share − 1|` for shares that must partition unity.
pub const SUM_TOL: f64 = 1e-9;

fn finite_moments(name: &str, m: &Moments, out: &mut Vec<String>) {
    if !(m.mean.is_finite() && m.variance.is_finite()) {
        out.push(format!(
            "{name} moments not finite (mean {}, variance {})",
            m.mean, m.variance
        ));
    }
}

fn shares_partition(kind: &str, shares: &[f64], out: &mut Vec<String>) {
    if let Some(s) = shares.iter().find(|s| !(0.0..=1.0).contains(*s)) {
        out.push(format!("host {kind} share {s} outside [0, 1]"));
    }
    let sum: f64 = shares.iter().sum();
    if !((sum - 1.0).abs() <= SUM_TOL) {
        out.push(format!("host {kind} shares sum to {sum}, not 1"));
    }
}

/// Checks on one simulation result with `measured` jobs expected.
#[must_use]
pub fn check_sim(r: &SimResult, measured: u64) -> Vec<String> {
    let mut out = Vec::new();
    finite_moments("slowdown", &r.slowdown, &mut out);
    finite_moments("response", &r.response, &mut out);
    finite_moments("waiting", &r.waiting, &mut out);
    finite_moments("queueing slowdown", &r.queueing_slowdown, &mut out);
    // each job's slowdown is at least 1 up to the rounding of (c − a)/x
    if !(r.slowdown.mean >= 1.0 - 1e-9) {
        out.push(format!("mean slowdown {} below 1", r.slowdown.mean));
    }
    if r.measured != measured {
        out.push(format!("{} jobs measured, expected {measured}", r.measured));
    }
    // Per-host tallies are present unless the run's demand tier left them out.
    if r.per_host.iter().any(|h| h.jobs > 0) {
        let jobs: Vec<f64> = (0..r.per_host.len()).map(|i| r.job_fraction(i)).collect();
        let work: Vec<f64> = (0..r.per_host.len()).map(|i| r.load_fraction(i)).collect();
        shares_partition("job", &jobs, &mut out);
        shares_partition("load", &work, &mut out);
    }
    out
}

/// Whether a trace's realised load is within six standard errors of the
/// target: job sizes with squared coefficient of variation `scv` and
/// exponential interarrivals give a relative standard error of about
/// `sqrt((1 + scv) / n)`.
#[must_use]
pub fn check_realised_load(realised: f64, target: f64, scv: f64, jobs: usize) -> Option<String> {
    let tol = 6.0 * ((1.0 + scv) / jobs as f64).sqrt();
    let rel = realised / target - 1.0;
    (!(rel.abs() <= tol)).then(|| {
        format!(
            "realised load {realised:.4} is {:+.1}% off target {target} (tolerance {:.1}%)",
            100.0 * rel,
            100.0 * tol
        )
    })
}

/// Checks every `SitaAnalysis` must pass: finite per-host values and job
/// and load fractions that partition unity.
#[must_use]
pub fn check_analysis(a: &SitaAnalysis) -> Vec<String> {
    let mut out = Vec::new();
    for (i, h) in a.hosts.iter().enumerate() {
        let values = [
            h.job_fraction,
            h.lambda,
            h.rho,
            h.load_fraction,
            h.mean_waiting,
            h.mean_slowdown,
            h.mean_queueing_slowdown,
            h.mean_response,
        ];
        if !values.iter().all(|v| v.is_finite()) {
            out.push(format!("host {i} has non-finite values {values:?}"));
        }
    }
    if !a.mean_slowdown.is_finite() {
        out.push(format!("mean slowdown {} not finite", a.mean_slowdown));
    }
    let jobs: Vec<f64> = a.hosts.iter().map(|h| h.job_fraction).collect();
    let load: Vec<f64> = a.hosts.iter().map(|h| h.load_fraction).collect();
    shares_partition("job", &jobs, &mut out);
    shares_partition("load", &load, &mut out);
    out
}

/// SITA-E's defining equation: every host carries `1/h` of the load.
#[must_use]
pub fn check_equal_load(a: &SitaAnalysis) -> Vec<String> {
    let h = a.hosts.len() as f64;
    a.hosts
        .iter()
        .enumerate()
        .filter(|(_, x)| !((x.load_fraction - 1.0 / h).abs() <= 1e-6))
        .map(|(i, x)| {
            format!(
                "SITA-E host {i} carries load share {}, not 1/{h}",
                x.load_fraction
            )
        })
        .collect()
}

/// Relative spread tolerated between slowdowns a fair cutoff equalises.
pub const FAIR_TOL: f64 = 1e-3;

/// SITA-U-fair's defining equation: every host that serves jobs has the
/// same expected (queueing) slowdown.
#[must_use]
pub fn check_fair(a: &SitaAnalysis) -> Vec<String> {
    let s: Vec<f64> = a
        .hosts
        .iter()
        .filter(|h| h.job_fraction > 0.0)
        .map(|h| h.mean_queueing_slowdown)
        .collect();
    if s.len() < a.hosts.len() {
        return vec![format!(
            "fair cutoffs leave {} of {} hosts without jobs",
            a.hosts.len() - s.len(),
            a.hosts.len()
        )];
    }
    let lo = s.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if hi - lo <= FAIR_TOL * hi {
        Vec::new()
    } else {
        vec![format!(
            "host slowdowns {s:?} differ by more than {FAIR_TOL} relative"
        )]
    }
}

/// SITA-U-opt's defining property, given the mean slowdown at its cutoffs,
/// at the SITA-E cutoffs, and at each cutoff moved ±0.1 %.
#[must_use]
pub fn check_opt(at_opt: f64, at_sita_e: f64, moved: &[f64]) -> Vec<String> {
    let no_worse = |other: f64| at_opt <= other * (1.0 + 1e-9);
    let mut out = Vec::new();
    if !no_worse(at_sita_e) {
        out.push(format!(
            "opt mean slowdown {at_opt} worse than SITA-E's {at_sita_e}"
        ));
    }
    if let Some(m) = moved.iter().find(|&&m| !no_worse(m)) {
        out.push(format!(
            "opt mean slowdown {at_opt} worse than {m} with a cutoff moved 0.1%"
        ));
    }
    out
}

/// The ρ/2 rule: the short host carries `ρ/2` of the load.
#[must_use]
pub fn check_rule(a: &SitaAnalysis, rho: f64) -> Vec<String> {
    let share = a.hosts[0].load_fraction;
    if (share - rho / 2.0).abs() <= 1e-6 {
        Vec::new()
    } else {
        vec![format!(
            "rule-of-thumb short-host load share {share}, not rho/2 = {}",
            rho / 2.0
        )]
    }
}

/// `P(S > s)` values at increasing `s` must lie in `[0, 1]` and not rise.
#[must_use]
pub fn check_ccdf(values: &[f64]) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(v) = values.iter().find(|v| !(0.0..=1.0).contains(*v)) {
        out.push(format!("slowdown ccdf value {v} outside [0, 1]"));
    }
    if values.windows(2).any(|w| w[1] > w[0]) {
        out.push(format!("slowdown ccdf {values:?} rises with s"));
    }
    out
}

/// A `q`-quantile `x` is bracketed when `P(S > x(1 − 1e-3)) > 1 − q ≥
/// P(S > x(1 + 1e-3))`; the arguments are those two tail values.
#[must_use]
pub fn check_quantile_bracket(x: f64, q: f64, tail_below: f64, tail_above: f64) -> Vec<String> {
    let target = 1.0 - q;
    if x.is_finite() && tail_below > target && tail_above <= target {
        Vec::new()
    } else {
        vec![format!(
            "quantile {x} not bracketed: P(S > x-0.1%) = {tail_below}, P(S > x+0.1%) = {tail_above}, target {target}"
        )]
    }
}

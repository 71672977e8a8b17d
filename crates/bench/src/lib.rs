//! Shared plumbing for the paper-exhibit regenerators.
//!
//! Each binary in `src/bin/` regenerates one table or figure of
//! Schroeder & Harchol-Balter (HPDC 2000); this library holds the common
//! workload setup, load grids and rendering helpers so every exhibit
//! reports the same way. Timing lives in the repo benchmark,
//! `perfbench/`, which does not link this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dses_core::prelude::*;
use dses_core::report::{fmt_num, Table};
use dses_workload::WorkloadPreset;

/// Parse `--threads <n>` (or `--threads=<n>`) from this process's
/// command line: worker threads for an exhibit's simulation fan-out.
/// `0` — the default when the flag is absent — means one worker per
/// available core. Exhibits are bit-for-bit identical for every value;
/// the flag only changes wall-clock time.
#[must_use]
pub fn threads_arg() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let value = if let Some(v) = a.strip_prefix("--threads=") {
            v.to_string()
        } else if a == "--threads" {
            args.next().unwrap_or_default()
        } else {
            continue;
        };
        return value.parse().unwrap_or_else(|_| {
            eprintln!("invalid --threads value {value:?}; expected a non-negative integer");
            std::process::exit(2);
        });
    }
    0
}

/// The worker count [`threads_arg`] resolves to (`0` → all cores).
#[must_use]
pub fn workers_arg() -> usize {
    dses_sim::effective_workers({
        let t = threads_arg();
        (t > 0).then_some(t)
    })
}

/// Parse `--metrics full|auto|means` (or `--metrics=<mode>`) from this
/// process's command line: the collector's demand tier for an exhibit's
/// runs. `auto` — the default when the flag is absent — lets each entry
/// point demand exactly the fields it reads; demanded fields are
/// bitwise identical across modes, so the committed exhibit captures
/// are byte-for-byte the same under `full` and `auto`. `means` forces
/// the slimmest tier everywhere (a throughput knob; undemanded fields
/// read as deterministic empties).
#[must_use]
pub fn metrics_arg() -> MetricsMode {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let value = if let Some(v) = a.strip_prefix("--metrics=") {
            v.to_string()
        } else if a == "--metrics" {
            args.next().unwrap_or_default()
        } else {
            continue;
        };
        return match value.as_str() {
            "full" => MetricsMode::Full,
            "auto" => MetricsMode::Auto,
            "means" => MetricsMode::Means,
            other => {
                eprintln!("invalid --metrics value {other:?}; expected full, auto, or means");
                std::process::exit(2);
            }
        };
    }
    MetricsMode::Auto
}

/// The load grid used by the simulation figures (the paper plots up to
/// 0.8 "because otherwise they become unreadable" but discusses all
/// loads under 1; we include 0.9).
#[must_use]
pub fn load_grid() -> Vec<f64> {
    vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
}

/// A coarser grid for expensive sweeps.
#[must_use]
pub fn coarse_load_grid() -> Vec<f64> {
    vec![0.3, 0.5, 0.7, 0.9]
}

/// Default number of simulated jobs per point for exhibit runs.
/// Big enough for stable means on the heavy-tailed workloads, small
/// enough that every figure regenerates in seconds in release mode.
pub const EXHIBIT_JOBS: usize = 200_000;

/// Default warm-up trim.
pub const EXHIBIT_WARMUP: usize = 5_000;

/// Default seed for exhibit runs (the paper's methodology: one trace,
/// rescaled per load — our builder reuses the same size stream per seed).
pub const EXHIBIT_SEED: u64 = 1997;

/// Build the standard exhibit experiment for a preset. Honors the
/// `--threads <n>` and `--metrics <mode>` flags on the binary's command
/// line (see [`threads_arg`], [`metrics_arg`]), so every exhibit
/// accepts the same knobs.
#[must_use]
pub fn exhibit_experiment(preset: &WorkloadPreset, hosts: usize) -> Experiment<Mixture> {
    Experiment::new(preset.size_dist.clone())
        .hosts(hosts)
        .jobs(EXHIBIT_JOBS)
        .warmup_jobs(EXHIBIT_WARMUP)
        .seed(EXHIBIT_SEED)
        .threads(threads_arg())
        .metrics_mode(metrics_arg())
}

/// Render a set of policy sweeps as two tables (mean slowdown and
/// variance of slowdown vs load), like the top/bottom panels of the
/// paper's figures.
#[must_use]
pub fn render_sweeps(title: &str, loads: &[f64], sweeps: &[LoadSweep]) -> String {
    let mut headers: Vec<String> = vec!["rho".to_string()];
    headers.extend(sweeps.iter().map(|s| s.policy.clone()));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut mean_table = Table::new(format!("{title} — mean slowdown"), &headers_ref);
    let mut var_table = Table::new(format!("{title} — variance of slowdown"), &headers_ref);
    for (i, &rho) in loads.iter().enumerate() {
        let mut mean_row = vec![format!("{rho:.2}")];
        let mut var_row = vec![format!("{rho:.2}")];
        for s in sweeps {
            mean_row.push(fmt_num(s.points[i].mean_slowdown));
            var_row.push(fmt_num(s.points[i].var_slowdown));
        }
        mean_table.push_row(mean_row);
        var_table.push_row(var_row);
    }
    format!("{}\n{}", mean_table.render(), var_table.render())
}

/// Run the given policies over `loads` and render the figure.
///
/// Dispatches through [`Experiment::sweep_grid`]: traces are shared per
/// load and the policy × load grid fans out over worker threads, but the
/// rendered exhibit is bit-for-bit what the sequential per-policy sweeps
/// produced.
#[must_use]
pub fn run_figure(
    title: &str,
    experiment: &Experiment<Mixture>,
    specs: &[PolicySpec],
    loads: &[f64],
) -> String {
    let sweeps = experiment.sweep_grid(specs, loads);
    render_sweeps(title, loads, &sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_increasing_and_subcritical() {
        for g in [load_grid(), coarse_load_grid()] {
            assert!(g.windows(2).all(|w| w[0] < w[1]));
            assert!(g.iter().all(|&r| r > 0.0 && r < 1.0));
        }
    }

    #[test]
    fn exhibit_experiment_is_configured() {
        let p = dses_workload::psc_c90();
        let e = exhibit_experiment(&p, 2);
        assert_eq!(e.num_hosts(), 2);
    }

    #[test]
    fn render_sweeps_produces_both_panels() {
        let p = dses_workload::psc_c90();
        let e = exhibit_experiment(&p, 2).jobs(2_000).warmup_jobs(0);
        let loads = [0.3, 0.6];
        let text = run_figure("test", &e, &[PolicySpec::LeastWorkLeft], &loads);
        assert!(text.contains("mean slowdown"));
        assert!(text.contains("variance of slowdown"));
        assert!(text.contains("Least-Work-Left"));
        assert!(text.contains("0.60"));
    }
}

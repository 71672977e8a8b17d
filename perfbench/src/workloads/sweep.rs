//! `sweep`: the Figure 2–6 simulation grid at exhibit size, through
//! `Experiment::sweep_grid`.
//!
//! All three presets × 2 hosts × eight policies × ρ ∈ {0.1, …, 0.9}, plus
//! C90 at 8 and 32 hosts × {LWL, Shortest-Queue, grouped SITA-E/opt/fair}
//! × ρ ∈ {0.5, 0.7, 0.9} at 25k·h jobs. Long runs: the dispatch kernels
//! and the collector do most of the work, the cutoff solves almost none.

use super::{ms_since, oracle_mismatch, oracle_point, run_point, RunParams, Scale};
use crate::checks::{check_realised_load, check_sim, Row, Verdict};
use crate::tracer::Tracer;
use dses_core::report::{fmt_num, Table};
use dses_core::{CutoffMethod, Experiment, LoadSweep, PolicySpec};
use dses_dist::{Distribution, Mixture};
use dses_sim::{Demand, SimResult, SimWorkspace};
use std::time::Instant;

/// One `sweep_grid` call.
#[derive(Debug, Clone)]
struct Call {
    label: String,
    dist: usize,
    hosts: usize,
    jobs: usize,
    specs: Vec<PolicySpec>,
    loads: Vec<f64>,
}

/// The `sweep` workload, set up.
#[derive(Debug, Clone)]
pub struct Sweep {
    dists: Vec<(&'static str, Mixture)>,
    scv: Vec<f64>,
    calls: Vec<Call>,
    seed: u64,
    warmup: usize,
}

/// The read set of a sweep point (`SweepPoint`'s fields).
fn demand() -> Demand {
    Demand::MEANS | Demand::PER_HOST
}

impl Sweep {
    /// Calibrate the presets and lay out the grid.
    #[must_use]
    pub fn new(scale: Scale, seed: u64) -> Self {
        let presets = [
            dses_workload::psc_c90(),
            dses_workload::psc_j90(),
            dses_workload::ctc_sp2(),
        ];
        let dists: Vec<(&'static str, Mixture)> =
            presets.into_iter().map(|p| (p.name, p.size_dist)).collect();
        let scv = dists.iter().map(|(_, d)| d.scv()).collect();
        let (jobs, per_host, warmup, loads, wide_loads, wide_hosts) = match scale {
            Scale::Full => (
                200_000,
                25_000,
                5_000,
                (1..=9).map(|i| f64::from(i) / 10.0).collect(),
                vec![0.5, 0.7, 0.9],
                vec![8, 32],
            ),
            Scale::Tiny => (3_000, 500, 100, vec![0.3, 0.7], vec![0.7], vec![8]),
        };
        let narrow = vec![
            PolicySpec::Random,
            PolicySpec::RoundRobin,
            PolicySpec::ShortestQueue,
            PolicySpec::LeastWorkLeft,
            PolicySpec::CentralQueue,
            PolicySpec::SitaE,
            PolicySpec::SitaUOpt,
            PolicySpec::SitaUFair,
        ];
        let wide = vec![
            PolicySpec::LeastWorkLeft,
            PolicySpec::ShortestQueue,
            PolicySpec::Grouped {
                method: CutoffMethod::EqualLoad,
            },
            PolicySpec::Grouped {
                method: CutoffMethod::OptSlowdown,
            },
            PolicySpec::Grouped {
                method: CutoffMethod::Fair,
            },
        ];
        let mut calls: Vec<Call> = dists
            .iter()
            .enumerate()
            .map(|(i, (name, _))| Call {
                label: format!("{name} h=2"),
                dist: i,
                hosts: 2,
                jobs,
                specs: narrow.clone(),
                loads: loads.clone(),
            })
            .collect();
        calls.extend(wide_hosts.into_iter().map(|h| Call {
            label: format!("{} h={h}", dists[0].0),
            dist: 0,
            hosts: h,
            jobs: jobs.max(per_host * h),
            specs: wide.clone(),
            loads: wide_loads.clone(),
        }));
        Self {
            dists,
            scv,
            calls,
            seed,
            warmup,
        }
    }

    /// The calibrated size distributions, in call order of reference.
    #[must_use]
    pub fn dists(&self) -> Vec<Mixture> {
        self.dists.iter().map(|(_, d)| d.clone()).collect()
    }

    fn params(&self, call: &Call) -> RunParams {
        RunParams {
            hosts: call.hosts,
            seed: self.seed,
            warmup: self.warmup,
            demand: demand(),
        }
    }

    fn experiment<D: Distribution + Clone + 'static>(&self, dist: D, call: &Call) -> Experiment<D> {
        Experiment::new(dist)
            .hosts(call.hosts)
            .jobs(call.jobs)
            .warmup_jobs(self.warmup)
            .seed(self.seed)
    }

    /// The calibrated C90 distribution.
    #[must_use]
    pub fn c90(&self) -> &Mixture {
        &self.dists[0].1
    }

    /// Jobs in one 2-host point.
    #[must_use]
    pub fn point_jobs(&self) -> usize {
        self.calls[0].jobs
    }

    /// Jobs one pass simulates.
    #[must_use]
    pub fn jobs_per_pass(&self) -> u64 {
        self.calls
            .iter()
            .map(|c| (c.specs.len() * c.loads.len() * c.jobs) as u64)
            .sum()
    }

    /// One pass through `Experiment::sweep_grid` on `threads` workers.
    pub fn pass(&self, threads: usize, op_ms: &mut Vec<f64>) -> Vec<Row> {
        let mut rows = Vec::new();
        for call in &self.calls {
            let exp = self
                .experiment(self.dists[call.dist].1.clone(), call)
                .threads(threads);
            let t = Instant::now();
            let sweeps: Vec<LoadSweep> = exp.sweep_grid(&call.specs, &call.loads);
            op_ms.push(ms_since(t));
            for (spec, sweep) in call.specs.iter().zip(&sweeps) {
                for p in &sweep.points {
                    let values = vec![
                        p.mean_slowdown,
                        p.var_slowdown,
                        p.mean_response,
                        p.var_response,
                        p.mean_waiting,
                        p.load_fraction_host0,
                        p.job_fraction_host0,
                        p.measured as f64,
                    ];
                    rows.push(Row::new(label(call, spec, p.rho), values));
                }
            }
        }
        std::hint::black_box(render(&rows));
        rows
    }

    /// Re-drive every point one at a time through the per-layer functions
    /// on `dists` (the presets, possibly wrapped), checking each result.
    pub fn replay<D: Distribution + Clone + 'static>(
        &self,
        dists: &[D],
        t: &mut Tracer,
        v: &mut Verdict,
    ) -> Vec<Row> {
        let mut ws = SimWorkspace::new();
        let mut out = SimResult::empty();
        let mut rows = Vec::new();
        for call in &self.calls {
            // `sweep_grid` returns policy-major rows; the replay runs load-major
            let mut grid: Vec<Option<Row>> = vec![None; call.specs.len() * call.loads.len()];
            let dist = &dists[call.dist];
            let exp = self.experiment(dist.clone(), call);
            let params = self.params(call);
            for (l, &rho) in call.loads.iter().enumerate() {
                let trace = t.span("workload.trace", call.jobs as u64, |_| exp.trace(rho));
                let realised = check_realised_load(
                    trace.system_load(call.hosts),
                    rho,
                    self.scv[call.dist],
                    call.jobs,
                );
                for (s, spec) in call.specs.iter().enumerate() {
                    let label = label(call, spec, rho);
                    let run = t.op("op.point", |t| {
                        run_point(t, dist, spec, &trace, params, &mut ws, &mut out)
                    });
                    let (values, mut reasons) = match run {
                        Ok(()) => (
                            point_values(&out),
                            check_sim(&out, (call.jobs - self.warmup) as u64),
                        ),
                        // `SweepPoint` of a failed run: NaN moments, nothing measured
                        Err(e) => {
                            let mut nan = vec![f64::NAN; 8];
                            nan[7] = 0.0;
                            (nan, vec![format!("policy resolution failed: {e}")])
                        }
                    };
                    reasons.extend(realised.clone());
                    v.record(label.clone(), reasons);
                    grid[s * call.loads.len() + l] = Some(Row::new(label, values));
                }
            }
            rows.extend(grid.into_iter().flatten());
        }
        t.op("op.render", |t| {
            t.span("report.render", 0, |_| std::hint::black_box(render(&rows)))
        });
        rows
    }

    /// Oracle spot check: on hosts ≤ 8, re-run LWL and the last policy of
    /// each call at its middle load with the event engine, whose means must
    /// equal the sweep's bit for bit.
    pub fn oracle(&self, rows: &[Row], v: &mut Verdict) {
        for call in self.calls.iter().filter(|c| c.hosts <= 8) {
            let rho = call.loads[call.loads.len() / 2];
            let dist = &self.dists[call.dist].1;
            let trace = self.experiment(dist.clone(), call).trace(rho);
            let last = call.specs.last().expect("every call has policies");
            for spec in [&PolicySpec::LeastWorkLeft, last] {
                let label = label(call, spec, rho);
                let Some(row) = rows.iter().find(|r| r.label == label) else {
                    v.flag(&label, "no row for the oracle to compare".to_string());
                    continue;
                };
                match oracle_point(dist, spec, &trace, self.params(call)) {
                    Ok(r) => {
                        let reasons = check_sim(&r, (call.jobs - self.warmup) as u64);
                        for reason in reasons.into_iter().chain(oracle_mismatch(
                            &r,
                            row.values[0],
                            Some(row.values[2]),
                        )) {
                            v.flag(&label, reason);
                        }
                    }
                    Err(e) => v.flag(&label, format!("oracle could not run: {e}")),
                }
            }
        }
    }
}

fn label(call: &Call, spec: &PolicySpec, rho: f64) -> String {
    format!("{} {} rho={rho:.1}", call.label, spec.name())
}

fn point_values(r: &SimResult) -> Vec<f64> {
    vec![
        r.slowdown.mean,
        r.slowdown.variance,
        r.response.mean,
        r.response.variance,
        r.waiting.mean,
        r.load_fraction(0),
        r.job_fraction(0),
        r.measured as f64,
    ]
}

/// The exhibit-style table of mean and variance of slowdown per point.
fn render(rows: &[Row]) -> String {
    let mut table = Table::new(
        "sweep — mean and variance of slowdown",
        &["point", "mean", "variance"],
    );
    for r in rows {
        table.push_row(vec![
            r.label.clone(),
            fmt_num(r.values[0]),
            fmt_num(r.values[1]),
        ]);
    }
    table.render()
}

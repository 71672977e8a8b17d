//! `replicate`: `Experiment::replicate` on C90, 64 replications of
//! 5k-job traces, for h ∈ {2, 8} × {Random, LWL, SITA-U-opt, SITA-U-fair}
//! × ρ ∈ {0.5, 0.7, 0.9}.
//!
//! Short runs, so each run's fixed costs dominate: every lane generates
//! its own trace and resolves its own cutoffs, and the lanes run through
//! the fused kernel in blocks of eight.

use super::{ms_since, oracle_mismatch, oracle_point, prepare, RunParams, Scale};
use crate::checks::{check_realised_load, check_sim, Row, Verdict};
use crate::tracer::Tracer;
use dses_core::report::{fmt_num, Table};
use dses_core::spec::BuiltPolicy;
use dses_core::{Experiment, PolicySpec};
use dses_dist::{derive_seed, Distribution, Mixture};
use dses_sim::{
    simulate_dispatch_fused_into, Demand, Dispatcher, MetricsConfig, SimResult, SimWorkspace,
};
use dses_workload::Trace;
use std::time::Instant;

/// Lanes `Experiment::replicate` fuses into one kernel pass.
const FUSE_WIDTH: usize = 8;

/// One `replicate` call.
#[derive(Debug, Clone)]
struct Call {
    hosts: usize,
    spec: PolicySpec,
    rho: f64,
}

/// The `replicate` workload, set up.
#[derive(Debug, Clone)]
pub struct Replicate {
    dist: Mixture,
    scv: f64,
    calls: Vec<Call>,
    reps: usize,
    jobs: usize,
    warmup: usize,
    seed: u64,
}

impl Replicate {
    /// Calibrate C90 and lay out the calls.
    #[must_use]
    pub fn new(scale: Scale, seed: u64) -> Self {
        let dist = dses_workload::psc_c90().size_dist;
        let scv = dist.scv();
        let (reps, jobs, warmup) = match scale {
            Scale::Full => (64, 5_000, 500),
            Scale::Tiny => (10, 1_000, 100),
        };
        let specs = [
            PolicySpec::Random,
            PolicySpec::LeastWorkLeft,
            PolicySpec::SitaUOpt,
            PolicySpec::SitaUFair,
        ];
        let mut calls = Vec::new();
        for hosts in [2, 8] {
            for spec in &specs {
                for rho in [0.5, 0.7, 0.9] {
                    calls.push(Call {
                        hosts,
                        spec: spec.clone(),
                        rho,
                    });
                }
            }
        }
        Self {
            dist,
            scv,
            calls,
            reps,
            jobs,
            warmup,
            seed,
        }
    }

    /// The calibrated C90 distribution.
    #[must_use]
    pub fn dist(&self) -> &Mixture {
        &self.dist
    }

    fn experiment<D: Distribution + Clone + 'static>(
        &self,
        dist: D,
        hosts: usize,
    ) -> Experiment<D> {
        Experiment::new(dist)
            .hosts(hosts)
            .jobs(self.jobs)
            .warmup_jobs(self.warmup)
            .seed(self.seed)
    }

    /// Jobs in one replication.
    #[must_use]
    pub fn point_jobs(&self) -> usize {
        self.jobs
    }

    /// Jobs one pass simulates.
    #[must_use]
    pub fn jobs_per_pass(&self) -> u64 {
        (self.calls.len() * self.reps * self.jobs) as u64
    }

    /// One pass through `Experiment::replicate` on `threads` workers.
    pub fn pass(&self, threads: usize, op_ms: &mut Vec<f64>) -> Vec<Row> {
        let mut rows = Vec::new();
        for call in &self.calls {
            let exp = self
                .experiment(self.dist.clone(), call.hosts)
                .threads(threads);
            let t = Instant::now();
            let r = exp.replicate(&call.spec, call.rho, self.reps);
            op_ms.push(ms_since(t));
            let values = r.map_or(vec![f64::NAN, f64::NAN], |r| vec![r.mean, r.half_width]);
            rows.push(Row::new(label(call), values));
        }
        std::hint::black_box(render(&rows));
        rows
    }

    /// Re-drive every call lane by lane through the per-layer functions on
    /// `dist` (C90, possibly wrapped), checking every lane. Returns the
    /// rows and each call's lane-0 mean slowdown.
    pub fn replay<D: Distribution + Clone + 'static>(
        &self,
        dist: &D,
        t: &mut Tracer,
        v: &mut Verdict,
    ) -> (Vec<Row>, Vec<f64>) {
        let mut ws = SimWorkspace::new();
        let mut outs: Vec<SimResult> = Vec::new();
        let mut rows = Vec::new();
        let mut lane0 = Vec::new();
        for call in &self.calls {
            let exp = self.experiment(dist.clone(), call.hosts);
            let params = RunParams {
                hosts: call.hosts,
                seed: self.seed,
                warmup: self.warmup,
                demand: Demand::MEANS,
            };
            let mut samples = Vec::with_capacity(self.reps);
            let mut reasons = Vec::new();
            t.op("op.replicate", |t| {
                for lo in (0..self.reps).step_by(FUSE_WIDTH) {
                    let lanes = lo..(lo + FUSE_WIDTH).min(self.reps);
                    let mut traces: Vec<Trace> = Vec::with_capacity(lanes.len());
                    let mut seeds = Vec::with_capacity(lanes.len());
                    for r in lanes.clone() {
                        let seed = derive_seed(self.seed, r as u64);
                        let lane = exp.clone().seed(seed);
                        traces.push(
                            t.span("workload.trace", self.jobs as u64, |_| lane.trace(call.rho)),
                        );
                        seeds.push(seed);
                    }
                    let mut policies: Vec<Box<dyn Dispatcher>> = Vec::with_capacity(lanes.len());
                    let mut cfgs: Vec<MetricsConfig> = Vec::with_capacity(lanes.len());
                    for (trace, &seed) in traces.iter().zip(&seeds) {
                        match prepare(t, dist, &call.spec, trace, RunParams { seed, ..params }) {
                            Ok((BuiltPolicy::Dispatch(p), cfg)) => {
                                policies.push(p);
                                cfgs.push(cfg);
                            }
                            Ok((BuiltPolicy::Central(_), _)) => {
                                reasons.push(
                                    "central-queue lanes are not part of this workload".to_string(),
                                );
                            }
                            Err(e) => reasons.push(format!("lane policy resolution failed: {e}")),
                        }
                    }
                    if policies.len() < traces.len() {
                        return;
                    }
                    let refs: Vec<&Trace> = traces.iter().collect();
                    let jobs = (refs.len() * self.jobs) as u64;
                    t.span("sim.fused", jobs, |_| {
                        simulate_dispatch_fused_into(
                            &refs,
                            call.hosts,
                            &mut policies,
                            &seeds,
                            &cfgs,
                            &mut ws,
                            &mut outs,
                        );
                    });
                    for ((r, out), trace) in lanes.zip(&outs).zip(&traces) {
                        let realised = check_realised_load(
                            trace.system_load(call.hosts),
                            call.rho,
                            self.scv,
                            self.jobs,
                        );
                        let lane = check_sim(out, (self.jobs - self.warmup) as u64)
                            .into_iter()
                            .chain(realised);
                        reasons.extend(lane.map(|reason| format!("lane {r}: {reason}")));
                        samples.push(out.slowdown.mean);
                    }
                }
            });
            let values = if samples.len() == self.reps {
                replicated(&samples)
            } else {
                vec![f64::NAN, f64::NAN]
            };
            lane0.push(samples.first().copied().unwrap_or(f64::NAN));
            if !values.iter().all(|x| x.is_finite()) {
                reasons.push(format!("replicated estimate {values:?} not finite"));
            }
            v.record(label(call), reasons);
            rows.push(Row::new(label(call), values));
        }
        t.op("op.render", |t| {
            t.span("report.render", 0, |_| std::hint::black_box(render(&rows)))
        });
        (rows, lane0)
    }

    /// Oracle spot check: each call's lane 0 re-run with the event engine,
    /// whose mean slowdown must equal the fused lane's bit for bit.
    pub fn oracle(&self, lane0: &[f64], v: &mut Verdict) {
        for (call, &sample) in self.calls.iter().zip(lane0) {
            let seed = derive_seed(self.seed, 0);
            let trace = self
                .experiment(self.dist.clone(), call.hosts)
                .seed(seed)
                .trace(call.rho);
            let params = RunParams {
                hosts: call.hosts,
                seed,
                warmup: self.warmup,
                demand: Demand::MEANS,
            };
            match oracle_point(&self.dist, &call.spec, &trace, params) {
                Ok(r) => {
                    let reasons = check_sim(&r, (self.jobs - self.warmup) as u64);
                    for reason in reasons.into_iter().chain(oracle_mismatch(&r, sample, None)) {
                        v.flag(&label(call), format!("lane 0: {reason}"));
                    }
                }
                Err(e) => v.flag(&label(call), format!("oracle could not run: {e}")),
            }
        }
    }
}

/// `Replicated`'s mean and ~95 % half-width, with its arithmetic.
fn replicated(samples: &[f64]) -> Vec<f64> {
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = if n < 2 {
        0.0
    } else {
        samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1) as f64
    };
    vec![
        mean,
        if n < 2 {
            f64::INFINITY
        } else {
            2.0 * (var / n as f64).sqrt()
        },
    ]
}

fn label(call: &Call) -> String {
    format!(
        "C90 h={} {} rho={:.1}",
        call.hosts,
        call.spec.name(),
        call.rho
    )
}

/// The replicated estimates as a table.
fn render(rows: &[Row]) -> String {
    let mut table = Table::new(
        "replicate — mean slowdown ± 95% half-width",
        &["call", "mean", "half-width"],
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

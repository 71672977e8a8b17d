//! The three workloads and the per-layer path they share.
//!
//! Every workload is a closed loop: the next operation starts when the
//! previous one returns. Each has two ways to run:
//!
//! * `pass` drives the library's public entry points exactly as a user
//!   would (`Experiment::sweep_grid`, `Experiment::replicate`, the
//!   solvers); it is what the end-to-end metrics time.
//! * `replay` re-drives the same operations one at a time through the
//!   per-layer functions those entry points hide, with the same seeds,
//!   inside tracer spans. Its rows must equal the pass's bit for bit, and
//!   its full results feed the correctness checks.

pub mod analytic;
pub mod replicate;
pub mod sweep;

use crate::tracer::Tracer;
use dses_core::spec::BuiltPolicy;
use dses_core::{resolve_cutoff, CutoffMethod, PolicySpec};
use dses_dist::Distribution;
use dses_queueing::CutoffError;
use dses_sim::metrics::Collector;
use dses_sim::{
    simulate_dispatch_into, Demand, DispatchKernel, Dispatcher, EventEngine, MetricsConfig,
    SimResult, SimWorkspace,
};
use dses_workload::Trace;
use std::time::Instant;

/// How big a workload is: the benchmark's size, or a tiny one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// the sizes the benchmark measures
    Full,
    /// the same structure at a few thousand jobs, for tests
    Tiny,
}

/// Milliseconds since `t`.
#[must_use]
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The cutoff rule behind a 2-host SITA spec, if any.
fn cutoff_method(spec: &PolicySpec) -> Option<CutoffMethod> {
    match spec {
        PolicySpec::SitaE => Some(CutoffMethod::EqualLoad),
        PolicySpec::SitaUOpt => Some(CutoffMethod::OptSlowdown),
        PolicySpec::SitaUFair => Some(CutoffMethod::Fair),
        PolicySpec::SitaRuleOfThumb => Some(CutoffMethod::RuleOfThumb),
        _ => None,
    }
}

/// The metrics configuration `Experiment` gives a run: warm-up trim,
/// fairness range from the support, the 2-host split cutoff, and the
/// demand the caller reads.
#[must_use]
pub fn metrics_config<D: Distribution + ?Sized>(
    dist: &D,
    warmup: usize,
    split: Option<f64>,
    demand: Demand,
) -> MetricsConfig {
    let (lo, hi) = dist.support();
    let hi = if hi.is_finite() { hi * 1.01 } else { 1.0e9 };
    MetricsConfig {
        warmup_jobs: warmup,
        collect_records: false,
        fairness_bins: 0,
        fairness_range: (lo.max(1e-3), hi),
        split_cutoff: split,
        slowdown_percentiles: false,
        slo_slowdown: None,
        demand,
        batched: false,
    }
}

/// The span a dispatch kernel runs under, by the state the policy reads.
fn kernel_span(policy: &dyn Dispatcher) -> &'static str {
    let needs = policy.state_needs();
    match policy.dispatch_kernel() {
        DispatchKernel::LeastWorkLeft => "sim.work_left",
        DispatchKernel::Opaque if needs.needs_queue_len() => "sim.queue_len",
        DispatchKernel::Opaque if needs.needs_work_left() => "sim.work_left",
        _ => "sim.static",
    }
}

/// A run's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunParams {
    /// hosts in the system
    pub hosts: usize,
    /// policy seed (the experiment's seed)
    pub seed: u64,
    /// warm-up jobs excluded from the aggregates
    pub warmup: usize,
    /// result families the caller reads
    pub demand: Demand,
}

/// Resolve `spec` on `trace` as `Experiment` does: build the policy,
/// resolve the 2-host split cutoff, and return the metrics configuration.
///
/// # Errors
/// The policy's cutoff resolution error.
pub fn prepare<D: Distribution + ?Sized>(
    t: &mut Tracer,
    dist: &D,
    spec: &PolicySpec,
    trace: &Trace,
    p: RunParams,
) -> Result<(BuiltPolicy, MetricsConfig), CutoffError> {
    let lambda = trace.arrival_rate();
    let built = t.span("core.build", 0, |_| spec.build(dist, lambda, p.hosts))?;
    let split = match (cutoff_method(spec), spec) {
        (Some(m), _) if p.hosts == 2 => t.span("core.resolve", 0, |_| {
            resolve_cutoff(dist, lambda, p.hosts, m).ok().map(|c| c[0])
        }),
        (None, PolicySpec::SitaFixed { cutoffs }) if cutoffs.len() == 1 => Some(cutoffs[0]),
        _ => None,
    };
    Ok((built, metrics_config(dist, p.warmup, split, p.demand)))
}

/// Resolve and simulate one point through the per-layer functions,
/// leaving the result in `out`.
///
/// # Errors
/// The policy's cutoff resolution error.
pub fn run_point<D: Distribution + ?Sized>(
    t: &mut Tracer,
    dist: &D,
    spec: &PolicySpec,
    trace: &Trace,
    p: RunParams,
    ws: &mut SimWorkspace,
    out: &mut SimResult,
) -> Result<(), CutoffError> {
    let (built, cfg) = prepare(t, dist, spec, trace, p)?;
    let jobs = trace.len() as u64;
    match built {
        BuiltPolicy::Dispatch(mut policy) => {
            let name = kernel_span(policy.as_ref());
            t.span(name, jobs, |_| {
                simulate_dispatch_into(trace, p.hosts, policy.as_mut(), p.seed, cfg, ws, out);
            });
        }
        BuiltPolicy::Central(discipline) => {
            let engine = EventEngine::new(p.hosts, cfg);
            t.span("sim.central", jobs, |_| {
                engine.run_central_queue_into(trace, discipline, ws, out)
            });
        }
    }
    Ok(())
}

/// The event-engine oracle for one dispatch point: `EventEngine::run_dispatch`
/// on the same trace, its records put back in arrival order and folded
/// through a fresh collector the way the fast kernels fold them. (The
/// event engine itself records in completion order, so its own streaming
/// moments and warm-up set differ from the kernels' by design.)
///
/// # Errors
/// The policy's cutoff resolution error, a central-queue policy (which
/// has no dispatch oracle), or records that do not match the trace.
pub fn oracle_point<D: Distribution + ?Sized>(
    dist: &D,
    spec: &PolicySpec,
    trace: &Trace,
    p: RunParams,
) -> Result<SimResult, String> {
    let full = RunParams {
        demand: Demand::FULL,
        ..p
    };
    let (built, cfg) =
        prepare(&mut Tracer::off(), dist, spec, trace, full).map_err(|e| e.to_string())?;
    let BuiltPolicy::Dispatch(mut policy) = built else {
        return Err("central-queue policies have no dispatch oracle".to_string());
    };
    let record_all = MetricsConfig {
        warmup_jobs: 0,
        collect_records: true,
        ..cfg
    };
    let run = EventEngine::new(p.hosts, record_all).run_dispatch(trace, policy.as_mut(), p.seed);
    let mut records = run.records.ok_or("event engine kept no records")?;
    records.sort_by_key(|r| r.id);
    if records.len() != trace.len() || records.iter().zip(trace.jobs()).any(|(r, j)| r.id != j.id) {
        return Err("event-engine records do not match the trace's jobs".to_string());
    }
    let mut collector = Collector::with_job_hint(p.hosts, cfg, trace.len());
    for (r, &inv) in records.into_iter().zip(trace.inv_sizes()) {
        collector.record_with_inv(r, inv);
    }
    Ok(collector.finish())
}

/// Compare oracle means with a point's means bit for bit.
#[must_use]
pub fn oracle_mismatch(oracle: &SimResult, slowdown: f64, response: Option<f64>) -> Option<String> {
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    if !same(oracle.slowdown.mean, slowdown)
        || response.is_some_and(|r| !same(oracle.response.mean, r))
    {
        Some(format!(
            "event-engine oracle disagrees: mean slowdown {:e} against {slowdown:e}",
            oracle.slowdown.mean
        ))
    } else {
        None
    }
}

//! Cross-engine golden test for the specialized fast kernels.
//!
//! Every registered dispatch policy (the paper roster plus the rule of
//! thumb, fixed-cutoff, and grouped variants) runs through
//!
//! 1. the fast engine's *specialized* loop (whatever the policy's
//!    [`StateNeeds`] and [`DispatchKernel`] select — the vectorized
//!    closed-form kernels where one is declared),
//! 2. the *opaque* specialized loop (the same policy wrapped so it keeps
//!    its `StateNeeds` but declares `DispatchKernel::Opaque`, so every
//!    job goes through a virtual `dispatch` call),
//! 3. the fast engine's *full* loop (the same policy wrapped so it
//!    claims `StateNeeds::ALL`), and
//! 4. the event engine,
//!
//! on a C90-style trace at three loads, and all four must produce
//! record-for-record identical schedules. Central-queue policies have no
//! dispatch form and are exercised by the event-engine tests instead.
//!
//! The closed-form static kernels also run at h = 1024, where SITA's
//! host lookup binary-searches a 1023-cutoff ladder, and on a trace
//! whose job sizes sit exactly on the cutoffs, where a tie must route
//! left as the policy's own `partition_point` does. Shortest-Queue also
//! runs at h = 16, ρ = 0.8, where the queue-length kernel's tournament
//! heap over the per-host FIFO fronts is four levels deep.

use dses_core::cutoffs::CutoffMethod;
use dses_core::policies::SizeInterval;
use dses_core::spec::{BuiltPolicy, PolicySpec};
use dses_dist::Rng64;
use dses_sim::metrics::JobRecord;
use dses_sim::{
    simulate_dispatch, DispatchKernel, Dispatcher, EventEngine, MetricsConfig, StateNeeds,
    SystemState,
};
use dses_workload::{Job, Trace};

/// Forces the full-state loop: delegates everything but inherits the
/// default `state_needs` of `StateNeeds::ALL`.
struct ForceFull(Box<dyn Dispatcher>);

impl Dispatcher for ForceFull {
    fn dispatch(&mut self, job: &Job, state: &SystemState<'_>, rng: &mut Rng64) -> usize {
        self.0.dispatch(job, state, rng)
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

/// Forces the opaque specialized loop: keeps the wrapped policy's
/// declared `state_needs` but inherits the default
/// `DispatchKernel::Opaque`, so the engine cannot take a closed-form
/// (vectorized) kernel.
struct ForceOpaque(Box<dyn Dispatcher>);

impl Dispatcher for ForceOpaque {
    fn dispatch(&mut self, job: &Job, state: &SystemState<'_>, rng: &mut Rng64) -> usize {
        self.0.dispatch(job, state, rng)
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn state_needs(&self) -> StateNeeds {
        self.0.state_needs()
    }
}

fn records_cfg() -> MetricsConfig {
    MetricsConfig {
        collect_records: true,
        ..MetricsConfig::default()
    }
}

/// Every dispatch-on-arrival policy spec the repo registers.
fn dispatch_roster() -> Vec<PolicySpec> {
    let mut roster = PolicySpec::paper_roster();
    roster.push(PolicySpec::SitaRuleOfThumb);
    roster.push(PolicySpec::SitaFixed {
        cutoffs: vec![5_000.0],
    });
    roster.push(PolicySpec::Grouped {
        method: CutoffMethod::EqualLoad,
    });
    roster
}

fn build_dispatch(spec: &PolicySpec, lambda: f64, hosts: usize) -> Box<dyn Dispatcher> {
    let d = dses_workload::psc_c90().size_dist;
    match spec.build(&d, lambda, hosts).unwrap() {
        BuiltPolicy::Dispatch(p) => p,
        BuiltPolicy::Central(_) => unreachable!("roster is dispatch-only"),
    }
}

fn sorted(mut records: Vec<JobRecord>) -> Vec<JobRecord> {
    records.sort_by_key(|r| r.id);
    records
}

fn assert_kernels_and_engines_agree(spec: &PolicySpec, hosts: usize, rho: f64, seed: u64) {
    let trace = dses_workload::psc_c90().trace(5_000, rho, hosts, seed);
    let lambda = trace.arrival_rate();
    let label = format!("{} (hosts={hosts}, rho={rho})", spec.name());
    assert_kernels_and_engines_agree_on(
        &trace,
        hosts,
        || build_dispatch(spec, lambda, hosts),
        &label,
    );
}

/// Specialized loop ≡ opaque specialized loop ≡ full loop ≡ event engine
/// for `fresh()` on `trace`.
fn assert_kernels_and_engines_agree_on(
    trace: &Trace,
    hosts: usize,
    fresh: impl Fn() -> Box<dyn Dispatcher>,
    label: &str,
) {
    let fast = simulate_dispatch(trace, hosts, fresh().as_mut(), 7, records_cfg());
    let opaque = simulate_dispatch(trace, hosts, &mut ForceOpaque(fresh()), 7, records_cfg());
    let slow = simulate_dispatch(trace, hosts, &mut ForceFull(fresh()), 7, records_cfg());
    let event = EventEngine::new(hosts, records_cfg()).run_dispatch(trace, fresh().as_mut(), 7);

    let fast_records = sorted(fast.records.unwrap());
    assert_eq!(
        fast_records,
        sorted(opaque.records.unwrap()),
        "{label}: specialized loop vs opaque specialized loop"
    );
    assert_eq!(
        fast_records,
        sorted(slow.records.unwrap()),
        "{label}: specialized loop vs full loop"
    );
    assert_eq!(
        fast_records,
        sorted(event.records.unwrap()),
        "{label}: fast engine vs event engine"
    );
}

#[test]
fn every_policy_matches_across_kernels_and_engines_two_hosts() {
    for spec in dispatch_roster() {
        for (i, &rho) in [0.3, 0.6, 0.9].iter().enumerate() {
            assert_kernels_and_engines_agree(&spec, 2, rho, 42 + i as u64);
        }
    }
}

#[test]
fn multi_host_policies_match_across_kernels_and_engines() {
    // four hosts exercises the multi-host cutoff solvers and the grouped
    // policy's two-team LWL; rule-of-thumb stays a 2-host rule
    let roster = [
        PolicySpec::ShortestQueue,
        PolicySpec::LeastWorkLeft,
        PolicySpec::SitaE,
        PolicySpec::SitaUOpt,
        PolicySpec::SitaUFair,
        PolicySpec::Grouped {
            method: CutoffMethod::Fair,
        },
    ];
    for spec in roster {
        for (i, &rho) in [0.3, 0.6, 0.9].iter().enumerate() {
            assert_kernels_and_engines_agree(&spec, 4, rho, 11 + i as u64);
        }
    }

    // h = 16 at rho = 0.8: the queue-length kernel's tournament heap
    // over the FIFO fronts is four levels deep
    let hosts = 16;
    let deep = dses_workload::psc_c90().trace(6_000, 0.8, hosts, 1997);
    let lambda = deep.arrival_rate();
    assert_kernels_and_engines_agree_on(
        &deep,
        hosts,
        || build_dispatch(&PolicySpec::ShortestQueue, lambda, hosts),
        "Shortest-Queue (hosts=16, rho=0.8)",
    );

    // h = 1024: the static kernels at their widest, with SITA on a
    // strictly increasing ladder spanning the C90 size range (1023
    // cutoffs, so the host lookup takes the binary-search path)
    let hosts = 1024;
    let ladder: Vec<f64> = (1..hosts).map(|i| 500.0 * 1.02f64.powi(i as i32)).collect();
    let sita_wide =
        || Box::new(SizeInterval::new(ladder.clone(), "SITA-wide")) as Box<dyn Dispatcher>;
    for (i, &rho) in [0.5, 0.9].iter().enumerate() {
        for spec in [PolicySpec::Random, PolicySpec::RoundRobin] {
            assert_kernels_and_engines_agree(&spec, hosts, rho, 21 + i as u64);
        }
        let trace = dses_workload::psc_c90().trace(5_000, rho, hosts, 21 + i as u64);
        assert_kernels_and_engines_agree_on(
            &trace,
            hosts,
            sita_wide,
            &format!("SITA-wide (rho={rho})"),
        );
    }
    // more hosts than jobs: most hosts never see a job
    let sparse = dses_workload::psc_c90().trace(600, 0.5, hosts, 41);
    let lambda = sparse.arrival_rate();
    assert_kernels_and_engines_agree_on(
        &sparse,
        hosts,
        || build_dispatch(&PolicySpec::Random, lambda, hosts),
        "Random (600 jobs on 1024 hosts)",
    );

    // sizes exactly on the cutoffs, plus straddles and extremes, with
    // dense ties: 63 cutoffs, also past the linear-lookup width
    let hosts = 64;
    let cuts: Vec<f64> = (1..hosts).map(|i| i as f64).collect();
    let mut sizes: Vec<f64> = Vec::new();
    for &c in &cuts {
        sizes.extend_from_slice(&[c, c, c - 0.5, c + 0.5]);
    }
    sizes.extend_from_slice(&[0.25, 1e9]);
    let boundary = Trace::new(
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| Job::new(i as u64, i as f64 * 0.125, s))
            .collect(),
    );
    assert_kernels_and_engines_agree_on(
        &boundary,
        hosts,
        || Box::new(SizeInterval::new(cuts.clone(), "SITA-boundary")),
        "SITA on cutoff-boundary sizes",
    );
}

#[test]
fn declared_needs_never_exceed_the_full_loop() {
    // sanity on the adapters themselves: wrapping must not change the
    // name; ForceFull always claims everything, ForceOpaque keeps the
    // declared needs but hides the closed-form kernel
    let policy = ForceFull(build_dispatch(&PolicySpec::RoundRobin, 1e-6, 2));
    assert_eq!(policy.state_needs(), StateNeeds::ALL);
    assert_eq!(policy.name(), "Round-Robin");
    let inner = build_dispatch(&PolicySpec::RoundRobin, 1e-6, 2);
    assert_ne!(inner.dispatch_kernel(), DispatchKernel::Opaque);
    let needs = inner.state_needs();
    let opaque = ForceOpaque(inner);
    assert_eq!(opaque.state_needs(), needs);
    assert_eq!(opaque.dispatch_kernel(), DispatchKernel::Opaque);
    assert_eq!(opaque.name(), "Round-Robin");
}

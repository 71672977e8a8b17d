//! Contract of the reusable simulation workspaces.
//!
//! The `*_into` entry points run a simulation through caller-owned
//! buffers that are reset — not reallocated — between runs. Reuse is
//! only sound if a workspace carries **zero** observable state from one
//! run into the next: these tests deliberately poison a workspace with a
//! mismatched run (different host count, trace shape, policy, and
//! metrics configuration) and then demand record-level bit-equality with
//! a freshly allocated workspace.

use dses_core::policies::{LeastWorkLeft, RandomPolicy, ShortestQueue};
use dses_sim::{
    simulate_dispatch, simulate_dispatch_into, Dispatcher, EventEngine, MetricsConfig,
    QueueDiscipline, SimResult, SimWorkspace,
};
use dses_workload::{psc_c90, Trace};
use std::sync::Arc;

fn rich_cfg() -> MetricsConfig {
    // every optional collector on: records, fairness bins, percentiles,
    // a split cutoff, and an SLO counter — the widest reset surface
    MetricsConfig {
        warmup_jobs: 100,
        collect_records: true,
        fairness_bins: 12,
        fairness_range: (60.0, 2.3e6),
        split_cutoff: Some(4.0e4),
        slowdown_percentiles: true,
        slo_slowdown: Some(3.0),
        ..MetricsConfig::default()
    }
}

fn assert_results_bitwise_equal(a: &SimResult, b: &SimResult, context: &str) {
    assert_eq!(a.measured, b.measured, "{context}: measured");
    assert_eq!(a.slowdown.mean.to_bits(), b.slowdown.mean.to_bits(), "{context}: slowdown mean");
    assert_eq!(
        a.slowdown.variance.to_bits(),
        b.slowdown.variance.to_bits(),
        "{context}: slowdown variance"
    );
    assert_eq!(a.response.mean.to_bits(), b.response.mean.to_bits(), "{context}: response mean");
    assert_eq!(a.waiting.mean.to_bits(), b.waiting.mean.to_bits(), "{context}: waiting mean");
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{context}: makespan");
    assert_eq!(a.per_host, b.per_host, "{context}: per-host stats");
    assert_eq!(a.records, b.records, "{context}: records");
    assert_eq!(a.slowdown_percentiles, b.slowdown_percentiles, "{context}: percentiles");
    assert_eq!(a.slo_violations, b.slo_violations, "{context}: slo violations");
    match (&a.fairness, &b.fairness) {
        (Some(fa), Some(fb)) => assert_eq!(fa, fb, "{context}: fairness histogram"),
        (None, None) => {}
        _ => panic!("{context}: fairness presence differs"),
    }
    assert_eq!(
        a.short_slowdown.is_some(),
        b.short_slowdown.is_some(),
        "{context}: split presence"
    );
    if let (Some(sa), Some(sb)) = (&a.short_slowdown, &b.short_slowdown) {
        assert_eq!(sa.mean.to_bits(), sb.mean.to_bits(), "{context}: short slowdown");
    }
}

#[test]
fn poisoned_workspace_reproduces_fresh_results_bitwise() {
    let preset = psc_c90();
    let trace_a = preset.trace(6_000, 0.7, 2, 17);
    // run B is mismatched in every dimension: more hosts, fewer jobs,
    // a queue-length policy (fills the FIFO kernel's deques), richer cfg
    let trace_b = preset.trace(900, 0.9, 7, 99);

    // run A goes through the work-left kernel with streaming metrics and
    // through the queue-length kernel with per-job records, so the
    // queue-length kernel's deques and expiry heap are compared record
    // for record after the poison, not only filled by it
    type Fresh = fn() -> Box<dyn Dispatcher>;
    let cases: [(&str, Fresh, MetricsConfig); 2] = [
        ("Least-Work-Left", || Box::new(LeastWorkLeft), MetricsConfig::streaming()),
        ("Shortest-Queue", || Box::new(ShortestQueue), MetricsConfig::full_records()),
    ];
    for (name, policy, cfg) in cases {
        let run_a = |ws: &mut SimWorkspace| {
            let mut out = SimResult::empty();
            simulate_dispatch_into(&trace_a, 2, policy().as_mut(), 5, cfg, ws, &mut out);
            out
        };

        let mut fresh = SimWorkspace::new();
        let clean = run_a(&mut fresh);
        assert_eq!(clean.records.is_some(), cfg.collect_records, "{name}: record collection");

        let mut reused = SimWorkspace::new();
        let first = run_a(&mut reused);
        // poison: a run with a different shape through the same buffers …
        let mut poison_out = SimResult::empty();
        simulate_dispatch_into(
            &trace_b,
            7,
            &mut ShortestQueue,
            123,
            rich_cfg(),
            &mut reused,
            &mut poison_out,
        );
        assert!(poison_out.measured > 0, "poison run must actually execute");
        // … and through the event engine too (both execution models dirty)
        EventEngine::new(3, rich_cfg()).run_dispatch_into(
            &trace_b,
            &mut RandomPolicy,
            7,
            &mut reused,
            &mut poison_out,
        );
        EventEngine::new(2, rich_cfg()).run_central_queue_into(
            &trace_b,
            QueueDiscipline::Sjf,
            &mut reused,
            &mut poison_out,
        );
        let again = run_a(&mut reused);

        assert_results_bitwise_equal(&clean, &first, &format!("{name}: fresh vs fresh workspace"));
        assert_results_bitwise_equal(
            &clean,
            &again,
            &format!("{name}: poisoned-then-reused workspace"),
        );
        // and the convenience wrapper (thread-local workspace) agrees as well
        let wrapper = simulate_dispatch(&trace_a, 2, policy().as_mut(), 5, cfg);
        assert_results_bitwise_equal(&clean, &wrapper, &format!("{name}: thread-local wrapper"));
    }
}

#[test]
fn rich_collectors_survive_workspace_reuse() {
    // same poison dance, but run A itself uses every optional collector —
    // fairness histograms, percentile markers, record buffers and the
    // split accumulators must all reset to exactly-fresh state
    let preset = psc_c90();
    let trace_a = preset.trace(4_000, 0.6, 2, 3);
    let trace_b = preset.trace(700, 0.8, 5, 4);

    let run_a = |ws: &mut SimWorkspace| {
        let mut out = SimResult::empty();
        simulate_dispatch_into(&trace_a, 2, &mut ShortestQueue, 11, rich_cfg(), ws, &mut out);
        out
    };

    let mut fresh = SimWorkspace::new();
    let clean = run_a(&mut fresh);
    assert!(clean.fairness.is_some(), "fairness collector must be active");
    assert!(clean.slowdown_percentiles.is_some(), "percentiles must be active");
    assert!(clean.records.is_some(), "records must be active");

    let mut reused = SimWorkspace::new();
    let _ = run_a(&mut reused);
    let mut sink = SimResult::empty();
    // poison with a *streaming* config: optional collectors get disabled,
    // then must come back identically when re-enabled
    simulate_dispatch_into(
        &trace_b,
        5,
        &mut LeastWorkLeft,
        8,
        MetricsConfig::streaming(),
        &mut reused,
        &mut sink,
    );
    let again = run_a(&mut reused);
    assert_results_bitwise_equal(&clean, &again, "rich collectors after reuse");
}

#[test]
fn pooled_simulation_is_bit_identical_for_worker_counts_1_2_8() {
    // every pool worker thread keeps its own thread-local workspace; the
    // fan-out must still be bit-for-bit the sequential loop for any
    // worker count (workspaces never leak state across grid points)
    let preset = psc_c90();
    let trace = Arc::new(preset.trace(5_000, 0.7, 3, 21));
    let run_grid = |workers: usize| -> Vec<SimResult> {
        let trace = Arc::clone(&trace);
        dses_sim::par_map_indexed(12, workers, move |i| {
            // alternate kernels so neighbouring grid points exercise
            // different workspace buffers on the same worker thread
            if i % 2 == 0 {
                simulate_dispatch(&trace, 3, &mut ShortestQueue, i as u64, MetricsConfig::streaming())
            } else {
                simulate_dispatch(&trace, 3, &mut LeastWorkLeft, i as u64, rich_cfg())
            }
        })
    };
    let reference = run_grid(1);
    for workers in [2usize, 8] {
        let pooled = run_grid(workers);
        assert_eq!(reference.len(), pooled.len());
        for (i, (a, b)) in reference.iter().zip(&pooled).enumerate() {
            assert_results_bitwise_equal(a, b, &format!("{workers} workers, grid point {i}"));
        }
    }
}

#[test]
fn empty_trace_through_a_dirty_workspace_is_clean() {
    let preset = psc_c90();
    let mut ws = SimWorkspace::new();
    let mut out = SimResult::empty();
    // dirty the workspace first
    simulate_dispatch_into(
        &preset.trace(500, 0.8, 4, 2),
        4,
        &mut ShortestQueue,
        1,
        rich_cfg(),
        &mut ws,
        &mut out,
    );
    let empty = Trace::new(vec![]);
    simulate_dispatch_into(
        &empty,
        4,
        &mut ShortestQueue,
        1,
        MetricsConfig::streaming(),
        &mut ws,
        &mut out,
    );
    assert_eq!(out.measured, 0);
    assert_eq!(out.makespan, 0.0);
    assert!(out.per_host.iter().all(|h| h.jobs == 0));
}

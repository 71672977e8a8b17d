//! Zero-allocation gates for the collector's finish path and the
//! block-batched tier.
//!
//! `Collector::finish_into` hands its per-host tallies and record
//! buffer to the output by pointer swap, so a warmed workspace run —
//! including the widest host count, whose per-host vector is the
//! largest hand-off — must perform **zero** heap allocations in steady
//! state. The batched tier's SoA lanes are a grow-once boxed block
//! owned by the collector; once built they are reused forever. The
//! fused replication pass keeps one collector per lane in the same
//! workspace, so it is gated here too.
//!
//! This gate lives in its own test binary: the default harness runs a
//! binary's tests on multiple threads, and any concurrent test would
//! pollute the global allocation counter.

use dses_core::spec::{BuiltPolicy, PolicySpec};
use dses_sim::{
    simulate_dispatch_fused_into, simulate_dispatch_into, Demand, Dispatcher, MetricsConfig,
    SimResult, SimWorkspace,
};
use dses_workload::Trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pass-through allocator counting every allocation and reallocation.
struct CountingAlloc;

static COUNT: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_count_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = COUNT.load(Ordering::Relaxed);
    let out = f();
    (out, COUNT.load(Ordering::Relaxed) - base)
}

fn build(spec: &PolicySpec, lambda: f64, hosts: usize) -> Box<dyn Dispatcher> {
    let d = dses_workload::psc_c90().size_dist;
    match spec.build(&d, lambda, hosts).unwrap() {
        BuiltPolicy::Dispatch(p) => p,
        BuiltPolicy::Central(_) => unreachable!("roster is dispatch-only"),
    }
}

#[test]
fn steady_state_collector_tiers_do_not_allocate() {
    let mut ws = SimWorkspace::new();
    let mut out = SimResult::empty();

    // Every demand tier, including the h=1024 per-host hand-off that
    // finish_into must complete by swap rather than clone.
    let tiers = [
        ("full", MetricsConfig::streaming()),
        (
            "means",
            MetricsConfig {
                demand: Demand::MEANS,
                ..MetricsConfig::streaming()
            },
        ),
        (
            "means+hosts",
            MetricsConfig {
                demand: Demand::MEANS | Demand::PER_HOST,
                ..MetricsConfig::streaming()
            },
        ),
        (
            "batched",
            MetricsConfig {
                demand: Demand::MEANS,
                batched: true,
                ..MetricsConfig::streaming()
            },
        ),
    ];
    for &hosts in &[8usize, 1024] {
        let trace = dses_workload::psc_c90().trace(12_000, 0.7, hosts, 23);
        let lambda = trace.arrival_rate();
        let mut policy = build(&PolicySpec::Random, lambda, hosts);
        for (tier, cfg) in &tiers {
            // warm-up run grows every buffer (and the block lanes) to
            // this shape
            simulate_dispatch_into(&trace, hosts, policy.as_mut(), 1, *cfg, &mut ws, &mut out);
            let (_, allocs) = alloc_count_of(|| {
                for seed in 2..6 {
                    simulate_dispatch_into(
                        &trace,
                        hosts,
                        policy.as_mut(),
                        seed,
                        *cfg,
                        &mut ws,
                        &mut out,
                    );
                }
            });
            assert_eq!(allocs, 0, "{tier} tier allocated in steady state at h={hosts}");
        }
    }

    // Fused lanes: eight SITA-E replications sharing one workspace, on
    // both the full and the batched tier — the lane collectors, banks
    // and result slots are all grow-once.
    let hosts = 8;
    let lanes = 8;
    let traces: Vec<Trace> = (0..lanes)
        .map(|r| dses_workload::psc_c90().trace(5_000, 0.7, hosts, 900 + r as u64))
        .collect();
    let refs: Vec<&Trace> = traces.iter().collect();
    let lambda = traces[0].arrival_rate();
    let mut policies: Vec<Box<dyn Dispatcher>> = (0..lanes)
        .map(|_| build(&PolicySpec::SitaE, lambda, hosts))
        .collect();
    let seeds: Vec<u64> = (0..lanes as u64).collect();
    let mut results = Vec::new();
    for (tier, cfg) in [&tiers[0], &tiers[3]] {
        let cfgs = vec![*cfg; lanes];
        simulate_dispatch_fused_into(
            &refs,
            hosts,
            &mut policies,
            &seeds,
            &cfgs,
            &mut ws,
            &mut results,
        );
        let (_, allocs) = alloc_count_of(|| {
            for _ in 0..4 {
                simulate_dispatch_fused_into(
                    &refs,
                    hosts,
                    &mut policies,
                    &seeds,
                    &cfgs,
                    &mut ws,
                    &mut results,
                );
            }
        });
        assert_eq!(allocs, 0, "fused {tier} tier allocated in steady state");
    }
}

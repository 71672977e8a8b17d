//! The benchmark's own tests, at tiny size. Run them optimised:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use dses_core::spec::BuiltPolicy;
use dses_core::PolicySpec;
use dses_dist::{Distribution, Erlang};
use dses_perfbench::checks::{check_analysis, check_fair, check_sim, first_bit_difference, Row};
use dses_perfbench::counting::{Counting, DistCounters, Method};
use dses_perfbench::report::json;
use dses_perfbench::run::{run, Options, WorkloadName};
use dses_perfbench::tracer::{self_times, LayerTotals, Span};
use dses_perfbench::workloads::Scale;
use dses_queueing::cutoff::{sita_e_cutoffs, sita_u_fair_cutoff};
use dses_queueing::SitaAnalysis;
use dses_sim::{simulate_dispatch, MetricsConfig};

/// The metric names `BENCHMARK.json` declares in one section.
fn declared(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn tiny(workload: WorkloadName, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        scale: Scale::Tiny,
    }
}

#[test]
fn every_workload_prints_every_metric() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.contains(&"setup_s".to_string()));
    assert!(layers.len() > 30);
    for w in WorkloadName::ALL {
        for (trace, names) in [(false, &e2e), (true, &layers)] {
            let out = run(&tiny(w, trace));
            let got: Vec<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(&got, names, "{} trace={trace}", w.as_str());
            assert!(
                out.correct(),
                "{} trace={trace}: {:?}",
                w.as_str(),
                out.problems
            );
            assert!(out.verdict.attempted > 0);
            let line = json(&out);
            for n in names {
                assert!(
                    line.contains(&format!("\"{n}\": {{\"value\": ")),
                    "{n} missing from {line}"
                );
            }
            assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        }
    }
}

#[test]
fn simulation_workloads_pass_their_checks_and_analytic_shows_the_known_defects() {
    for w in [WorkloadName::Sweep, WorkloadName::Replicate] {
        let out = run(&tiny(w, false));
        assert_eq!(out.verdict.failures, Vec::new(), "{}", w.as_str());
    }
    let out = run(&tiny(WorkloadName::Analytic, false));
    let failed: Vec<&str> = out.verdict.failures.iter().map(|f| f.op.as_str()).collect();
    assert!(
        failed.iter().any(|op| op.starts_with("Erlang-4")),
        "{failed:?}"
    );
    assert!(
        failed
            .iter()
            .any(|op| op.starts_with("LogNormal fair rho=0.5")),
        "{failed:?}"
    );
}

fn c90() -> dses_dist::Mixture {
    dses_workload::psc_c90().size_dist
}

#[test]
fn a_fair_cutoff_moved_one_percent_is_flagged() {
    let d = c90();
    let lambda = 0.7 * 2.0 / d.mean();
    let c = sita_u_fair_cutoff(&d, lambda).expect("C90 fair cutoff at rho 0.7");
    assert_eq!(
        check_fair(&SitaAnalysis::analyze(&d, lambda, &[c])),
        Vec::<String>::new()
    );
    assert!(!check_fair(&SitaAnalysis::analyze(&d, lambda, &[c * 1.01])).is_empty());
}

#[test]
fn a_nan_job_fraction_is_flagged() {
    let d = c90();
    let lambda = 0.7 * 2.0 / d.mean();
    let c = sita_e_cutoffs(&d, 2).expect("C90 SITA-E cutoff");
    let mut a = SitaAnalysis::analyze(&d, lambda, &c);
    assert_eq!(check_analysis(&a), Vec::<String>::new());
    a.hosts[1].job_fraction = f64::NAN;
    assert!(!check_analysis(&a).is_empty());
}

#[test]
fn a_slowdown_below_one_is_flagged() {
    let trace = dses_workload::psc_c90().trace(2_000, 0.5, 2, 3);
    let BuiltPolicy::Dispatch(mut p) = PolicySpec::LeastWorkLeft
        .build(&c90(), trace.arrival_rate(), 2)
        .expect("LWL")
    else {
        panic!("LWL dispatches")
    };
    let mut r = simulate_dispatch(&trace, 2, p.as_mut(), 3, MetricsConfig::default());
    assert_eq!(check_sim(&r, 2_000), Vec::<String>::new());
    r.slowdown.mean = 0.99;
    assert!(check_sim(&r, 2_000).iter().any(|m| m.contains("below 1")));
}

#[test]
fn a_traced_result_one_bit_off_is_flagged() {
    let a = vec![Row::new("p", vec![1.5, 2.25]), Row::new("q", vec![3.0])];
    let mut b = a.clone();
    assert_eq!(first_bit_difference(&a, &b), None);
    b[0].values[1] = f64::from_bits(b[0].values[1].to_bits() ^ 1);
    assert!(first_bit_difference(&a, &b).is_some_and(|d| d.contains("`p` value 1")));
}

#[test]
fn wrapping_a_distribution_changes_no_result_bit() {
    let counters = DistCounters::new();
    let erlang = Erlang::with_mean(4, 1000.0).expect("valid Erlang");
    let wrapped = Counting::new(erlang, counters.clone());
    let lambda = 1.4 / 1000.0;
    let plain = SitaAnalysis::analyze(&erlang, lambda, &[900.0]);
    let counted = SitaAnalysis::analyze(&wrapped, lambda, &[900.0]);
    assert_eq!(format!("{plain:?}"), format!("{counted:?}"));
    assert!(counters.calls(Method::PartialMoment) > 0);
    assert_eq!(wrapped.closed_form_moments(), erlang.closed_form_moments());
}

fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name: "x.y",
        parent,
        op: 1,
        start_ns,
        end_ns,
        work: 0,
        dist_ns: 0,
        allocs: 0,
    }
}

#[test]
fn self_time_is_duration_minus_covered_child_time() {
    // root [0, 100] with children [10, 30] and [20, 50] (overlapping:
    // they cover [10, 50]) and [90, 120] (clipped to [90, 100]); the
    // grandchild [12, 18] lies inside the first child.
    let spans = vec![
        span(None, 0, 100),
        span(Some(0), 10, 30),
        span(Some(0), 20, 50),
        span(Some(0), 90, 120),
        span(Some(1), 12, 18),
    ];
    let own = self_times(&spans);
    assert_eq!(own, vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    let t = LayerTotals::of(&spans, &own, "x");
    assert_eq!((t.count, t.self_ns), (5, own.iter().sum()));
    assert_eq!(LayerTotals::of(&spans, &own, "x.y").count, 5);
    assert_eq!(LayerTotals::of(&spans, &own, "x.").count, 0);
}

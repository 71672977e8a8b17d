//! One benchmark run: set-up, the timed closed loop, the correctness
//! pass, and (for a traced run) the per-layer replay.

use crate::alloc_count;
use crate::checks::{first_bit_difference, Row, Verdict};
use crate::counting::{Counting, DistCounters, Method};
use crate::machine::peak_rss_mb;
use crate::stats::{median, percentile};
use crate::tracer::{self_times, LayerTotals, Tracer};
use crate::workloads::analytic::Analytic;
use crate::workloads::replicate::Replicate;
use crate::workloads::sweep::Sweep;
use crate::workloads::{metrics_config, Scale};
use dses_core::{Experiment, PolicySpec};
use dses_dist::Mixture;
use dses_sim::metrics::Collector;
use dses_sim::{available_workers, par_map_indexed, Demand, EventEngine, JobRecord};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// the exhibit simulation grid
    Sweep,
    /// short replicated runs
    Replicate,
    /// solvers, analysis and transforms
    Analytic,
}

impl WorkloadName {
    /// All workloads, in the order `--workload all` runs them.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::Sweep,
        WorkloadName::Replicate,
        WorkloadName::Analytic,
    ];

    /// The command-line name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::Sweep => "sweep",
            WorkloadName::Replicate => "replicate",
            WorkloadName::Analytic => "analytic",
        }
    }

    /// Parse a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.as_str() == s)
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// which workload
    pub workload: WorkloadName,
    /// input seed
    pub seed: u64,
    /// how long the timed closed loop runs, s
    pub seconds: f64,
    /// measure per-layer metrics (a traced run) instead of end-to-end ones
    pub trace: bool,
    /// workload size
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// metric name
    pub name: &'static str,
    /// measured value
    pub value: f64,
    /// unit
    pub unit: &'static str,
    /// samples the value summarises
    pub samples: usize,
}

/// The result of a run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// operations checked and failed
    pub verdict: Verdict,
    /// problems with the measurement itself (a pass or the traced replay
    /// that disagrees with the reference); any makes the run incorrect
    pub problems: Vec<String>,
    /// the metrics the run reports (end-to-end, or per-layer when traced)
    pub metrics: Vec<Metric>,
    /// end-to-end figures that do not apply to every workload, printed
    /// for reading only
    pub extra: Vec<Metric>,
    /// recorded spans as JSON lines (traced runs only)
    pub spans: String,
}

impl Outcome {
    /// Whether the measurement can be trusted: every pass and the replays
    /// reproduced the reference bit for bit. Failed operations are counted
    /// in the verdict, not here.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn compare(&mut self, what: &str, reference: &[Row], rows: &[Row]) {
        if let Some(d) = first_bit_difference(reference, rows) {
            self.problems
                .push(format!("{what} differs from the timed pass: {d}"));
        }
    }
}

/// What a pass produced: its rows and, for `analytic`, the full output
/// the checks read (the simulation workloads' checks replay instead).
struct Pass {
    rows: Vec<Row>,
    analytic: Option<crate::workloads::analytic::Output>,
}

/// A set-up workload.
enum Setup {
    Sweep(Sweep),
    Replicate(Replicate),
    Analytic(Analytic),
}

impl Setup {
    fn new(o: &Options) -> Self {
        match o.workload {
            WorkloadName::Sweep => Setup::Sweep(Sweep::new(o.scale, o.seed)),
            WorkloadName::Replicate => Setup::Replicate(Replicate::new(o.scale, o.seed)),
            WorkloadName::Analytic => Setup::Analytic(Analytic::new(o.scale, o.seed)),
        }
    }

    /// One untraced pass through the public entry points.
    fn pass(&self, threads: usize, op_ms: &mut Vec<f64>) -> Pass {
        match self {
            Setup::Sweep(w) => Pass {
                rows: w.pass(threads, op_ms),
                analytic: None,
            },
            Setup::Replicate(w) => Pass {
                rows: w.pass(threads, op_ms),
                analytic: None,
            },
            Setup::Analytic(w) => {
                let out = w.pass(w.families(), &mut Tracer::off(), op_ms);
                Pass {
                    rows: out.rows.clone(),
                    analytic: Some(out),
                }
            }
        }
    }

    /// Re-drive the workload on counting-wrapped distributions under `t`.
    fn traced_replay(&self, counters: &Arc<DistCounters>, t: &mut Tracer) -> Vec<Row> {
        let wrap = |d: &Mixture| Counting::new(d.clone(), Arc::clone(counters));
        match self {
            Setup::Sweep(w) => {
                let wrapped: Vec<_> = w.dists().iter().map(wrap).collect();
                w.replay(&wrapped, t, &mut Verdict::default())
            }
            Setup::Replicate(w) => w.replay(&wrap(w.dist()), t, &mut Verdict::default()).0,
            Setup::Analytic(w) => {
                let wrapped = w.families().map(
                    wrap,
                    |d| Counting::new(*d, Arc::clone(counters)),
                    |d| Counting::new(*d, Arc::clone(counters)),
                );
                w.pass(&wrapped, t, &mut Vec::new()).rows
            }
        }
    }

    /// For the simulation workloads, the C90 distribution and the jobs in
    /// one of their runs.
    fn simulated(&self) -> Option<(&Mixture, usize)> {
        match self {
            Setup::Sweep(w) => Some((w.c90(), w.point_jobs())),
            Setup::Replicate(w) => Some((w.dist(), w.point_jobs())),
            Setup::Analytic(_) => None,
        }
    }

    /// Copies of the timed loop to run at once. `analytic` runs one
    /// operation at a time on one thread, so it runs one copy per worker:
    /// the median over all copies' passes then sees every core's speed, as
    /// the pool's spread of a simulation pass over the workers does.
    fn copies(&self, threads: usize) -> usize {
        match self {
            Setup::Analytic(_) => threads.max(1),
            Setup::Sweep(_) | Setup::Replicate(_) => 1,
        }
    }

    fn jobs_per_pass(&self) -> u64 {
        match self {
            Setup::Sweep(w) => w.jobs_per_pass(),
            Setup::Replicate(w) => w.jobs_per_pass(),
            Setup::Analytic(_) => 0,
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Fewest timed passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Run the benchmark as `o` says.
#[must_use]
pub fn run(o: &Options) -> Outcome {
    let threads = available_workers();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = Setup::new(o);
        // spawn the pool's workers (a no-op once they exist)
        par_map_indexed(threads, threads, |i| i);
        setup_s.push(t.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let setup = setup.expect("set-up ran");
    let mut out = Outcome::default();
    if o.trace {
        traced(o, &setup, threads, &mut out);
    } else {
        timed(o, &setup, threads, &setup_s, &mut out);
    }
    out
}

/// What one copy of the timed loop measured.
struct Loop {
    walls: Vec<f64>,
    op_ms: Vec<f64>,
    /// the copy's first pass, which its later passes must equal
    first: Pass,
    /// differences of later passes from `first`
    problems: Vec<String>,
    /// peak RSS once every copy has run one pass (`NaN` but in copy 0)
    rss: f64,
}

/// One copy of the closed loop: whole passes until `o.seconds` have passed
/// since `start`, and at least [`MIN_PASSES`].
fn closed_loop(
    o: &Options,
    setup: &Setup,
    threads: usize,
    start: Instant,
    first_done: &Barrier,
    reads_rss: bool,
) -> Loop {
    let mut walls = Vec::new();
    let mut op_ms = Vec::new();
    let mut first: Option<Pass> = None;
    let mut problems = Vec::new();
    let mut rss = f64::NAN;
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < o.seconds {
        let t = Instant::now();
        let pass = setup.pass(threads, &mut op_ms);
        walls.push(t.elapsed().as_secs_f64());
        match &first {
            Some(r) => problems.extend(
                first_bit_difference(&r.rows, &pass.rows)
                    .map(|d| format!("pass {} differs from the timed pass: {d}", walls.len())),
            ),
            None => {
                // the process has run the workload once in every copy; later
                // passes only add allocator fragmentation that varies with
                // thread timing
                first_done.wait();
                if reads_rss {
                    rss = peak_rss_mb();
                }
                first_done.wait();
                first = Some(pass);
            }
        }
    }
    Loop {
        walls,
        op_ms,
        first: first.expect("at least one pass ran"),
        problems,
        rss,
    }
}

/// The end-to-end run: the closed loop for `o.seconds` (one copy per
/// worker for `analytic`, see [`Setup::copies`]), then the correctness pass.
fn timed(o: &Options, setup: &Setup, threads: usize, setup_s: &[f64], out: &mut Outcome) {
    let copies = setup.copies(threads);
    let first_done = Barrier::new(copies);
    let start = Instant::now();
    let loops: Vec<Loop> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..copies)
            .map(|c| {
                let first_done = &first_done;
                s.spawn(move || closed_loop(o, setup, threads, start, first_done, c == 0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a timed loop panicked"))
            .collect()
    });
    let mut walls = Vec::new();
    let mut op_ms = Vec::new();
    for (c, l) in loops.iter().enumerate() {
        out.problems.extend(l.problems.iter().cloned());
        if c > 0 {
            out.compare(
                &format!("copy {c}'s first pass"),
                &loops[0].first.rows,
                &l.first.rows,
            );
        }
        walls.extend(&l.walls);
        op_ms.extend(&l.op_ms);
    }
    let rss = loops[0].rss;
    let reference = &loops[0].first;
    let _ = correctness(setup, reference, out);
    let wall = median(&walls);
    // Each pass runs the same operations in the same order: take every
    // operation's median over the passes, then percentiles over operations.
    let n = op_ms.len() / walls.len();
    let per_op: Vec<f64> = (0..n)
        .map(|i| median(&op_ms.iter().skip(i).step_by(n).copied().collect::<Vec<_>>()))
        .collect();
    let ops = op_ms.len();
    let (p50, p90) = (percentile(&per_op, 0.5), percentile(&per_op, 0.9));
    out.metrics = vec![
        Metric {
            name: "wall_s",
            value: wall,
            unit: "s",
            samples: walls.len(),
        },
        Metric {
            name: "setup_s",
            value: median(setup_s),
            unit: "s",
            samples: setup_s.len(),
        },
        Metric {
            name: "peak_rss_mb",
            value: rss,
            unit: "MB",
            samples: 1,
        },
    ];
    // Printed for reading only: they do not apply to every workload, can
    // be 0, or spread more run to run than a regression bound could allow.
    let v = &out.verdict;
    let jobs = setup.jobs_per_pass();
    let (p50_name, p90_name) = if jobs > 0 {
        ("op_p50_ms", "op_p90_ms")
    } else {
        ("solve_p50_ms", "solve_p90_ms")
    };
    out.extra = vec![
        Metric {
            name: "error_rate",
            value: v.failed() as f64 / v.attempted.max(1) as f64,
            unit: "fraction",
            samples: v.attempted as usize,
        },
        Metric {
            name: p50_name,
            value: p50,
            unit: "ms",
            samples: ops,
        },
        Metric {
            name: p90_name,
            value: p90,
            unit: "ms",
            samples: ops,
        },
    ];
    if jobs > 0 {
        out.extra.push(Metric {
            name: "sim_jobs_per_s",
            value: jobs as f64 / wall,
            unit: "jobs/s",
            samples: walls.len(),
        });
    }
}

/// The correctness pass over a timed pass: the untraced replay (which must
/// reproduce its rows bit for bit), every check, and the oracle. Returns
/// the replay's wall time in seconds (0 for `analytic`, which has none).
fn correctness(setup: &Setup, reference: &Pass, out: &mut Outcome) -> f64 {
    let mut v = Verdict::default();
    let t = Instant::now();
    let replay_s = match (setup, &reference.analytic) {
        (Setup::Sweep(w), _) => {
            let rows = w.replay(&w.dists(), &mut Tracer::off(), &mut v);
            let replay_s = t.elapsed().as_secs_f64();
            out.compare("untraced replay", &reference.rows, &rows);
            w.oracle(&rows, &mut v);
            replay_s
        }
        (Setup::Replicate(w), _) => {
            let (rows, lane0) = w.replay(w.dist(), &mut Tracer::off(), &mut v);
            let replay_s = t.elapsed().as_secs_f64();
            out.compare("untraced replay", &reference.rows, &rows);
            w.oracle(&lane0, &mut v);
            replay_s
        }
        (Setup::Analytic(w), Some(result)) => {
            w.check(result, &mut v);
            0.0
        }
        (Setup::Analytic(_), None) => {
            out.problems
                .push("analytic pass kept no output to check".to_string());
            0.0
        }
    };
    out.verdict = v;
    replay_s
}

/// The per-layer run: an untraced pass as reference, the untraced and
/// traced replays, and the layer metrics from the traced replay's spans.
fn traced(o: &Options, setup: &Setup, threads: usize, out: &mut Outcome) {
    let t = Instant::now();
    let reference = setup.pass(threads, &mut Vec::new());
    let wall_n = t.elapsed().as_secs_f64();
    let mut extras = Extras::default();
    let replay_s = correctness(setup, &reference, out);
    // `analytic`'s pass already runs one op at a time: it is its own replay
    let untraced_s = if let Some((dist, jobs)) = setup.simulated() {
        let t = Instant::now();
        let one = setup.pass(1, &mut Vec::new());
        extras.par_speedup = t.elapsed().as_secs_f64() / wall_n;
        out.compare("1-thread pass", &reference.rows, &one.rows);
        extras.sim(dist, 2, jobs, o.seed);
        replay_s
    } else {
        wall_n
    };
    let counters = DistCounters::new();
    let mut tracer = Tracer::on(Arc::clone(&counters));
    let t = Instant::now();
    alloc_count::enable(true);
    let rows = setup.traced_replay(&counters, &mut tracer);
    alloc_count::enable(false);
    extras.overhead = t.elapsed().as_secs_f64() / untraced_s;
    out.compare("traced replay", &reference.rows, &rows);
    out.metrics = layer_metrics(&tracer, &counters, &extras);
    // Printed for reading only: the fused kernel runs on `replicate`
    // alone, which `BENCHMARK.json` does not gate.
    let spans = tracer.spans();
    out.extra = vec![Metric {
        name: "sim.ns_per_job.fused",
        value: LayerTotals::of(spans, &self_times(spans), "sim.fused").ns_per_work(),
        unit: "ns/job",
        samples: spans.len(),
    }];
    out.spans = tracer.to_jsonl();
}

/// Per-layer figures measured outside the span tree.
#[derive(Debug, Default)]
struct Extras {
    par_speedup: f64,
    overhead: f64,
    dist_calls_per_run: f64,
    ns_per_record_full: f64,
    ns_per_record_means: f64,
}

impl Extras {
    /// The collector replay and the per-run distribution call count, on a
    /// `hosts`-host LWL / SITA-U-opt run of `jobs` jobs at ρ = 0.7.
    fn sim(&mut self, dist: &Mixture, hosts: usize, jobs: usize, seed: u64) {
        let warmup = jobs / 40;
        // dist calls in one 2-host SITA-U-opt run on a prebuilt trace
        let counters = DistCounters::new();
        let exp = Experiment::new(Counting::new(dist.clone(), Arc::clone(&counters)))
            .hosts(hosts)
            .jobs(jobs)
            .warmup_jobs(warmup)
            .seed(seed);
        let trace = exp.trace(0.7);
        let before = counters.timed_calls();
        let _ = exp.try_run_on_trace(&PolicySpec::SitaUOpt, &trace);
        self.dist_calls_per_run = (counters.timed_calls() - before) as f64;
        // replay an LWL run's records through the collector
        let mut cfg = metrics_config(dist, warmup, None, Demand::FULL);
        cfg.collect_records = true;
        let lwl = PolicySpec::LeastWorkLeft.build(dist, trace.arrival_rate(), hosts);
        let Ok(dses_core::spec::BuiltPolicy::Dispatch(mut policy)) = lwl else {
            return;
        };
        let records: Vec<JobRecord> = EventEngine::new(hosts, cfg)
            .run_dispatch(&trace, policy.as_mut(), seed)
            .records
            .unwrap_or_default();
        let inv: Vec<f64> = records.iter().map(|r| 1.0 / r.size).collect();
        cfg.collect_records = false;
        let per_record = |demand: Demand| {
            let cfg = dses_sim::MetricsConfig { demand, ..cfg };
            let times: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    let mut c = Collector::with_job_hint(hosts, cfg, records.len());
                    for (r, &i) in records.iter().zip(&inv) {
                        c.record_with_inv(*r, i);
                    }
                    std::hint::black_box(c.finish());
                    t.elapsed().as_secs_f64() * 1e9 / records.len().max(1) as f64
                })
                .collect();
            median(&times)
        };
        self.ns_per_record_full = per_record(Demand::FULL);
        self.ns_per_record_means = per_record(Demand::MEANS);
    }
}

/// Every per-layer metric, from the traced replay's spans and counters.
fn layer_metrics(tracer: &Tracer, c: &DistCounters, x: &Extras) -> Vec<Metric> {
    let spans = tracer.spans();
    let own = self_times(spans);
    let layer = |prefix: &str| LayerTotals::of(spans, &own, prefix);
    let n = spans.len();
    let m = |name: &'static str, value: f64, unit: &'static str| Metric {
        name,
        value,
        unit,
        samples: n,
    };
    let count = |name: &'static str, value: u64| Metric {
        name,
        value: value as f64,
        unit: "count",
        samples: n,
    };
    let trace = layer("workload.trace");
    let queueing = layer("queueing");
    let sim = layer("sim");
    let runs = sim.count.max(1);
    vec![
        m("workload.trace_ms", trace.self_ms(), "ms"),
        m("workload.ns_per_job", trace.ns_per_work(), "ns/job"),
        count("workload.traces", trace.count),
        count("dist.calls.partial_moment", c.calls(Method::PartialMoment)),
        count("dist.calls.prob_in", c.calls(Method::ProbIn)),
        count("dist.calls.cdf", c.calls(Method::Cdf)),
        count("dist.calls.quantile", c.calls(Method::Quantile)),
        count("dist.calls.sample", c.calls(Method::Sample)),
        m("dist.busy_ms", c.busy_ns() as f64 / 1e6, "ms"),
        m(
            "dist.partial_moment_us.closed",
            c.partial_moment_us(false),
            "us",
        ),
        m(
            "dist.partial_moment_us.quadrature",
            c.partial_moment_us(true),
            "us",
        ),
        m(
            "queueing.cutoff_ms.sita_e",
            layer("queueing.cutoff.sita_e").self_ms(),
            "ms",
        ),
        m(
            "queueing.cutoff_ms.opt",
            layer("queueing.cutoff.opt").self_ms(),
            "ms",
        ),
        m(
            "queueing.cutoff_ms.fair",
            layer("queueing.cutoff.fair").self_ms(),
            "ms",
        ),
        m(
            "queueing.cutoff_ms.opt_multi",
            layer("queueing.cutoff.opt_multi").self_ms(),
            "ms",
        ),
        m(
            "queueing.cutoff_ms.fair_multi",
            layer("queueing.cutoff.fair_multi").self_ms(),
            "ms",
        ),
        m(
            "queueing.analyze_ms",
            layer("queueing.analyze").self_ms(),
            "ms",
        ),
        count("queueing.analyses", layer("queueing.analyze").count),
        m(
            "queueing.transform_ms",
            layer("queueing.transform").self_ms(),
            "ms",
        ),
        m(
            "queueing.self_ms",
            queueing.self_ns.saturating_sub(queueing.dist_ns) as f64 / 1e6,
            "ms",
        ),
        m("core.build_ms", layer("core.build").self_ms(), "ms"),
        count("core.builds", layer("core.build").count),
        m("core.resolve_ms", layer("core.resolve").self_ms(), "ms"),
        m("core.rule_ms", layer("core.rule").self_ms(), "ms"),
        m("core.dist_calls_per_run", x.dist_calls_per_run, "count"),
        m(
            "sim.ns_per_job.static",
            layer("sim.static").ns_per_work(),
            "ns/job",
        ),
        m(
            "sim.ns_per_job.work_left",
            layer("sim.work_left").ns_per_work(),
            "ns/job",
        ),
        m(
            "sim.ns_per_job.queue_len",
            layer("sim.queue_len").ns_per_work(),
            "ns/job",
        ),
        m(
            "sim.ns_per_job.central",
            layer("sim.central").ns_per_work(),
            "ns/job",
        ),
        m("sim.busy_ms", sim.self_ms(), "ms"),
        m(
            "sim.allocs_per_run",
            sim.allocs as f64 / runs as f64,
            "count",
        ),
        m(
            "metrics.ns_per_record.full",
            x.ns_per_record_full,
            "ns/record",
        ),
        m(
            "metrics.ns_per_record.means",
            x.ns_per_record_means,
            "ns/record",
        ),
        m("sim.par_speedup", x.par_speedup, "ratio"),
        m("report.render_ms", layer("report.render").self_ms(), "ms"),
        m("trace.overhead_ratio", x.overhead, "ratio"),
    ]
}

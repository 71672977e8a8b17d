//! `analytic`: the cutoff solvers, the SITA analysis and the slowdown
//! transforms, with no simulation, on one thread.
//!
//! * Every cutoff solver on the three presets × ρ ∈ {0.1, …, 0.9}: SITA-E
//!   at h = 2 and 8, SITA-U-opt, SITA-U-fair, the ρ/2 rule, and the
//!   multi-host opt and fair solvers at h = 4 — each followed by
//!   `SitaAnalysis::analyze` at the solved cutoffs.
//! * The non-Pareto families: Erlang-4 (mean 1000) SITA-E at h = 2, then
//!   `analyze` at that cutoff for each ρ; LogNormal (mean 1000, C² = 8)
//!   opt and fair solves for each ρ.
//! * `sita_slowdown_ccdf` at s ∈ {2, 10, 100, 1000} for C90 SITA-E at
//!   ρ = 0.7, and the p99 `sita_slowdown_quantile` for C90 SITA-U-fair.
//!
//! Nothing here is random: the seed only permutes the order of the
//! solver operations.

use super::{ms_since, Scale};
use crate::checks::{
    check_analysis, check_ccdf, check_equal_load, check_fair, check_opt, check_quantile_bracket,
    check_rule, Row, Verdict,
};
use crate::tracer::Tracer;
use dses_core::report::{fmt_num, Table};
use dses_core::rule_of_thumb_cutoff;
use dses_dist::{Distribution, Erlang, LogNormal, Mixture, Rng64};
use dses_queueing::cutoff::{
    sita_e_cutoffs, sita_u_fair_cutoff, sita_u_fair_cutoffs_multi, sita_u_opt_cutoff,
    sita_u_opt_cutoffs_multi,
};
use dses_queueing::transform::{sita_slowdown_ccdf, sita_slowdown_quantile};
use dses_queueing::{CutoffError, SitaAnalysis};
use std::time::Instant;

/// A cutoff solver, with the host count it solves for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Solver {
    SitaE(usize),
    Opt,
    Fair,
    Rule,
    OptMulti(usize),
    FairMulti(usize),
}

impl Solver {
    fn hosts(self) -> usize {
        match self {
            Solver::SitaE(h) | Solver::OptMulti(h) | Solver::FairMulti(h) => h,
            Solver::Opt | Solver::Fair | Solver::Rule => 2,
        }
    }

    fn name(self) -> String {
        match self {
            Solver::SitaE(h) => format!("sita_e h={h}"),
            Solver::Opt => "opt".to_string(),
            Solver::Fair => "fair".to_string(),
            Solver::Rule => "rule".to_string(),
            Solver::OptMulti(h) => format!("opt_multi h={h}"),
            Solver::FairMulti(h) => format!("fair_multi h={h}"),
        }
    }

    fn span(self) -> &'static str {
        match self {
            Solver::SitaE(_) => "queueing.cutoff.sita_e",
            Solver::Opt => "queueing.cutoff.opt",
            Solver::Fair => "queueing.cutoff.fair",
            Solver::Rule => "core.rule",
            Solver::OptMulti(_) => "queueing.cutoff.opt_multi",
            Solver::FairMulti(_) => "queueing.cutoff.fair_multi",
        }
    }
}

/// One solve, then `analyze` at its cutoffs for each load in `loads`
/// (the solve itself uses the first load).
#[derive(Debug, Clone)]
struct Block {
    family: usize,
    solver: Solver,
    loads: Vec<f64>,
}

/// The distributions the workload solves on: the presets, Erlang-4 and
/// LogNormal, each possibly wrapped.
#[derive(Debug, Clone)]
pub struct Families<P, E, L> {
    /// the three calibrated presets, with their names
    pub presets: Vec<(&'static str, P)>,
    /// Erlang-4 with mean 1000
    pub erlang: E,
    /// LogNormal with mean 1000 and C² = 8
    pub lognormal: L,
}

impl<P, E, L> Families<P, E, L> {
    /// Apply one wrapper to every family.
    pub fn map<P2, E2, L2>(
        &self,
        p: impl Fn(&P) -> P2,
        e: impl Fn(&E) -> E2,
        l: impl Fn(&L) -> L2,
    ) -> Families<P2, E2, L2> {
        Families {
            presets: self.presets.iter().map(|(n, d)| (*n, p(d))).collect(),
            erlang: e(&self.erlang),
            lognormal: l(&self.lognormal),
        }
    }

    fn name(&self, family: usize) -> &'static str {
        match family {
            f if f < self.presets.len() => self.presets[f].0,
            f if f == self.presets.len() => "Erlang-4",
            _ => "LogNormal",
        }
    }
}

/// A solved block.
#[derive(Debug, Clone)]
pub struct Solved {
    label: String,
    block: usize,
    cutoffs: Result<Vec<f64>, CutoffError>,
    analyses: Vec<SitaAnalysis>,
}

/// Everything a pass of the workload produced.
#[derive(Debug, Clone)]
pub struct Output {
    /// the bit-compared rows
    pub rows: Vec<Row>,
    solved: Vec<Solved>,
    /// `P(S > s)` at each `s` of the ccdf op
    ccdf: Option<Vec<f64>>,
    /// the fair cutoffs and the p99 slowdown at them
    quantile: Option<(Vec<f64>, f64)>,
}

/// Load of the C90 operating point the transforms evaluate.
const TRANSFORM_RHO: f64 = 0.7;

/// The slowdown quantile the transform op inverts (`ablation_percentiles`' p99).
const QUANTILE_Q: f64 = 0.99;

/// The `analytic` workload, set up.
#[derive(Debug, Clone)]
pub struct Analytic {
    fam: Families<Mixture, Erlang, LogNormal>,
    means: Vec<f64>,
    blocks: Vec<Block>,
    ccdf_s: Vec<f64>,
    /// the p99 op (several seconds; left out at [`Scale::Tiny`])
    with_quantile: bool,
}

impl Analytic {
    /// Calibrate the presets, build the families and order the blocks by `seed`.
    ///
    /// # Panics
    /// If the Erlang or LogNormal parameters are rejected.
    #[must_use]
    pub fn new(scale: Scale, seed: u64) -> Self {
        let presets = [
            dses_workload::psc_c90(),
            dses_workload::psc_j90(),
            dses_workload::ctc_sp2(),
        ];
        let fam = Families {
            presets: presets.into_iter().map(|p| (p.name, p.size_dist)).collect(),
            erlang: Erlang::with_mean(4, 1000.0).expect("Erlang-4 with mean 1000 is valid"),
            lognormal: LogNormal::fit_mean_scv(1000.0, 8.0)
                .expect("LogNormal with mean 1000, C^2 = 8 is valid"),
        };
        let mut means: Vec<f64> = fam.presets.iter().map(|(_, d)| d.mean()).collect();
        means.push(fam.erlang.mean());
        means.push(fam.lognormal.mean());
        let (loads, solvers): (Vec<f64>, Vec<Solver>) = match scale {
            Scale::Full => (
                (1..=9).map(|i| f64::from(i) / 10.0).collect(),
                vec![
                    Solver::SitaE(2),
                    Solver::SitaE(8),
                    Solver::Opt,
                    Solver::Fair,
                    Solver::Rule,
                    Solver::OptMulti(4),
                    Solver::FairMulti(4),
                ],
            ),
            Scale::Tiny => (
                vec![0.5, 0.7],
                vec![Solver::SitaE(2), Solver::Fair, Solver::Rule],
            ),
        };
        let erlang = fam.presets.len();
        let mut blocks = Vec::new();
        for family in 0..erlang {
            for &rho in &loads {
                blocks.extend(solvers.iter().map(|&solver| Block {
                    family,
                    solver,
                    loads: vec![rho],
                }));
            }
        }
        blocks.push(Block {
            family: erlang,
            solver: Solver::SitaE(2),
            loads: loads.clone(),
        });
        for &rho in &loads {
            for solver in [Solver::Opt, Solver::Fair] {
                blocks.push(Block {
                    family: erlang + 1,
                    solver,
                    loads: vec![rho],
                });
            }
        }
        // Fisher–Yates with the seed: the only thing the seed changes.
        let mut rng = Rng64::seed_from(seed);
        for i in (1..blocks.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            blocks.swap(i, j);
        }
        let ccdf_s = match scale {
            Scale::Full => vec![2.0, 10.0, 100.0, 1000.0],
            Scale::Tiny => vec![10.0],
        };
        let with_quantile = scale == Scale::Full;
        Self {
            fam,
            means,
            blocks,
            ccdf_s,
            with_quantile,
        }
    }

    /// The workload's own distributions.
    #[must_use]
    pub fn families(&self) -> &Families<Mixture, Erlang, LogNormal> {
        &self.fam
    }

    /// Run every operation on `fam` (the families, possibly wrapped),
    /// timing each solver call into `op_ms`.
    pub fn pass<P: Distribution, E: Distribution, L: Distribution>(
        &self,
        fam: &Families<P, E, L>,
        t: &mut Tracer,
        op_ms: &mut Vec<f64>,
    ) -> Output {
        let erlang = fam.presets.len();
        let mut solved = Vec::with_capacity(self.blocks.len());
        for (i, block) in self.blocks.iter().enumerate() {
            let s = t.op("op.solve", |t| match block.family {
                f if f < erlang => self.solve(&fam.presets[f].1, i, t, op_ms),
                f if f == erlang => self.solve(&fam.erlang, i, t, op_ms),
                _ => self.solve(&fam.lognormal, i, t, op_ms),
            });
            solved.push(s);
        }
        let c90 = &fam.presets[0].1;
        let lambda = self.lambda(0, 2, TRANSFORM_RHO);
        let ccdf = self.cutoff_of(&solved, Solver::SitaE(2)).map(|c| {
            self.ccdf_s
                .iter()
                .map(|&s| {
                    t.op("op.ccdf", |t| {
                        t.span("queueing.transform", 0, |_| {
                            sita_slowdown_ccdf(c90, lambda, &c, s)
                        })
                    })
                })
                .collect::<Vec<f64>>()
        });
        let quantile = self
            .cutoff_of(&solved, Solver::Fair)
            .filter(|_| self.with_quantile)
            .map(|c| {
                let x = t.op("op.quantile", |t| {
                    t.span("queueing.transform", 0, |_| {
                        sita_slowdown_quantile(c90, lambda, &c, QUANTILE_Q)
                    })
                });
                (c, x)
            });
        let rows = rows(&solved, ccdf.as_ref(), quantile.as_ref());
        t.op("op.render", |t| {
            t.span("report.render", 0, |_| {
                std::hint::black_box(render(&solved))
            })
        });
        Output {
            rows,
            solved,
            ccdf,
            quantile,
        }
    }

    fn lambda(&self, family: usize, hosts: usize, rho: f64) -> f64 {
        rho * hosts as f64 / self.means[family]
    }

    /// The C90 cutoffs `solver` found at the transform load, if it succeeded.
    fn cutoff_of(&self, solved: &[Solved], solver: Solver) -> Option<Vec<f64>> {
        solved.iter().find_map(|s| {
            let b = &self.blocks[s.block];
            (b.family == 0 && b.solver == solver && b.loads[0] == TRANSFORM_RHO)
                .then(|| s.cutoffs.as_ref().ok().cloned())
                .flatten()
        })
    }

    fn solve<D: Distribution>(
        &self,
        d: &D,
        i: usize,
        t: &mut Tracer,
        op_ms: &mut Vec<f64>,
    ) -> Solved {
        let block = &self.blocks[i];
        let rho = block.loads[0];
        let h = block.solver.hosts();
        let lambda = self.lambda(block.family, h, rho);
        let started = Instant::now();
        let cutoffs = t.span(block.solver.span(), 0, |_| match block.solver {
            Solver::SitaE(h) => sita_e_cutoffs(d, h),
            Solver::Opt => sita_u_opt_cutoff(d, lambda).map(|c| vec![c]),
            Solver::Fair => sita_u_fair_cutoff(d, lambda).map(|c| vec![c]),
            Solver::Rule => Ok(vec![rule_of_thumb_cutoff(d, rho)]),
            Solver::OptMulti(h) => sita_u_opt_cutoffs_multi(d, lambda, h),
            Solver::FairMulti(h) => sita_u_fair_cutoffs_multi(d, lambda, h),
        });
        op_ms.push(ms_since(started));
        let analyses = match &cutoffs {
            Ok(c) => block
                .loads
                .iter()
                .map(|&rho| {
                    let lambda = self.lambda(block.family, h, rho);
                    t.span("queueing.analyze", 0, |_| {
                        SitaAnalysis::analyze(d, lambda, c)
                    })
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        let label = format!(
            "{} {} rho={rho:.1}",
            self.fam.name(block.family),
            block.solver.name()
        );
        Solved {
            label,
            block: i,
            cutoffs,
            analyses,
        }
    }

    /// The correctness pass over one output: each solve (its error and its
    /// defining equation), each analysis, the ccdf and the quantile bracket.
    pub fn check(&self, out: &Output, v: &mut Verdict) {
        let erlang = self.fam.presets.len();
        for s in &out.solved {
            let reasons = match self.blocks[s.block].family {
                f if f < erlang => self.check_solved(&self.fam.presets[f].1, s),
                f if f == erlang => self.check_solved(&self.fam.erlang, s),
                _ => self.check_solved(&self.fam.lognormal, s),
            };
            v.record(s.label.clone(), reasons);
            for (a, rho) in s.analyses.iter().zip(&self.blocks[s.block].loads) {
                v.record(
                    format!("{} analyze rho={rho:.1}", s.label),
                    check_analysis(a),
                );
            }
        }
        let c90 = &self.fam.presets[0].1;
        let lambda = self.lambda(0, 2, TRANSFORM_RHO);
        match &out.ccdf {
            Some(values) => v.record("C90 SITA-E ccdf rho=0.7", check_ccdf(values)),
            None => v.record(
                "C90 SITA-E ccdf rho=0.7",
                vec!["no SITA-E cutoff to evaluate".to_string()],
            ),
        }
        match &out.quantile {
            Some((c, x)) => {
                let below = sita_slowdown_ccdf(c90, lambda, c, (x * (1.0 - 1e-3)).max(1.0));
                let above = sita_slowdown_ccdf(c90, lambda, c, x * (1.0 + 1e-3));
                v.record(
                    "C90 SITA-U-fair p99 rho=0.7",
                    check_quantile_bracket(*x, QUANTILE_Q, below, above),
                );
            }
            None if self.with_quantile => {
                v.record(
                    "C90 SITA-U-fair p99 rho=0.7",
                    vec!["no fair cutoff to evaluate".to_string()],
                );
            }
            None => {}
        }
    }

    /// A solve's own checks: it returned cutoffs, and they satisfy the
    /// solver's defining equation at the first analysed load.
    fn check_solved<D: Distribution>(&self, d: &D, s: &Solved) -> Vec<String> {
        let block = &self.blocks[s.block];
        let cutoffs = match &s.cutoffs {
            Ok(c) => c,
            Err(e) => return vec![format!("solver returned an error: {e}")],
        };
        let Some(a) = s.analyses.first() else {
            return Vec::new();
        };
        let rho = block.loads[0];
        let h = block.solver.hosts();
        let lambda = self.lambda(block.family, h, rho);
        match block.solver {
            Solver::SitaE(_) => check_equal_load(a),
            Solver::Fair | Solver::FairMulti(_) => check_fair(a),
            Solver::Rule => check_rule(a, rho),
            Solver::Opt | Solver::OptMulti(_) => {
                let slowdown = |c: &[f64]| SitaAnalysis::analyze(d, lambda, c).mean_slowdown;
                let at_sita_e = sita_e_cutoffs(d, h).map_or(f64::INFINITY, |c| slowdown(&c));
                let mut moved = Vec::new();
                for i in 0..cutoffs.len() {
                    for f in [1.0 - 1e-3, 1.0 + 1e-3] {
                        let mut c = cutoffs.clone();
                        c[i] *= f;
                        if c.windows(2).all(|w| w[0] < w[1]) {
                            moved.push(slowdown(&c));
                        }
                    }
                }
                check_opt(a.mean_slowdown, at_sita_e, &moved)
            }
        }
    }
}

/// The bit-compared rows: each block's cutoffs and, per analysis, the mean
/// slowdown and every host's job and load fraction; then the transforms.
fn rows(
    solved: &[Solved],
    ccdf: Option<&Vec<f64>>,
    quantile: Option<&(Vec<f64>, f64)>,
) -> Vec<Row> {
    let mut rows: Vec<Row> = solved
        .iter()
        .map(|s| {
            let mut values = s.cutoffs.clone().unwrap_or_else(|_| vec![f64::NAN]);
            for a in &s.analyses {
                values.push(a.mean_slowdown);
                values.extend(
                    a.hosts
                        .iter()
                        .flat_map(|h| [h.job_fraction, h.load_fraction]),
                );
            }
            Row::new(s.label.clone(), values)
        })
        .collect();
    if let Some(v) = ccdf {
        rows.push(Row::new("ccdf", v.clone()));
    }
    if let Some((_, x)) = quantile {
        rows.push(Row::new("p99", vec![*x]));
    }
    rows
}

/// The solved cutoffs and mean slowdowns as a table.
fn render(solved: &[Solved]) -> String {
    let mut table = Table::new(
        "analytic — cutoffs and mean slowdown",
        &["solve", "cutoffs", "mean slowdown"],
    );
    for s in solved {
        let cutoffs = match &s.cutoffs {
            Ok(c) => c.iter().map(|&x| fmt_num(x)).collect::<Vec<_>>().join(" "),
            Err(_) => "-".to_string(),
        };
        let slowdown = s.analyses.first().map_or(f64::NAN, |a| a.mean_slowdown);
        table.push_row(vec![s.label.clone(), cutoffs, fmt_num(slowdown)]);
    }
    table.render()
}

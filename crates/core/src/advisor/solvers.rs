//! The [`Solver`] trait, its implementations (DOT, both ES variants, the
//! §4.2 simple layouts, the Object Advisor, and the ablation grid), and the
//! name-keyed [`Registry`] through which callers select them.

use super::error::ProvisionError;
use super::{Recommendation, SolveContext};
use crate::ablation::{self, AblationConfig, MoveGranularity, ScoreOrder};
use crate::baselines;
use crate::constraints::Constraints;
use crate::dot::{self, DotOutcome, ValidationReport};
use crate::exhaustive;
use crate::problem::{LayoutCostModel, Problem};
use dot_dbms::Layout;
use dot_profiler::ProfileSource;
use dot_workloads::PerfMetric;
use std::rc::Rc;
use std::time::Instant;

/// A storage-provisioning optimizer selectable by name.
pub trait Solver {
    /// The registry id ("dot", "es", "all-hssd", ...).
    fn id(&self) -> &str;
    /// One-line human description for `dot-cli solvers`.
    fn describe(&self) -> String;
    /// Refuse a problem this solver cannot take, reading the problem
    /// alone: sessions ask before they build the profile and constraints
    /// a solve needs. The default takes every problem.
    fn admit(&self, _problem: &Problem<'_>) -> Result<(), ProvisionError> {
        Ok(())
    }
    /// Answer a provisioning request. Implementations must be
    /// deterministic: the same context always yields the same layout.
    fn solve(&self, cx: &SolveContext<'_, '_>) -> Result<Recommendation, ProvisionError>;
}

/// A name-keyed set of solvers. [`Registry::builtin`] registers every
/// optimizer the paper evaluates.
pub struct Registry {
    entries: Vec<Box<dyn Solver>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            entries: Vec::new(),
        }
    }

    /// Every optimizer of the paper's evaluation: DOT (plus its §4.5.3
    /// relaxation variant), both ES variants, the six simple layouts, the
    /// Object Advisor, and the eight ablated DOT configurations.
    pub fn builtin() -> Registry {
        let mut r = Registry::new();
        r.register(Box::new(DotSolver { relaxation: None }));
        r.register(Box::new(DotSolver {
            relaxation: Some(Relaxation {
                step: 0.1,
                min_ratio: 0.01,
            }),
        }));
        r.register(Box::new(EsSolver));
        r.register(Box::new(EsAdditiveSolver));
        r.register(Box::new(ObjectAdvisorSolver));
        for family in [
            Family::Hssd,
            Family::Lssd,
            Family::Hdd,
            Family::Premium,
            Family::Cheapest,
            Family::IndexSplit,
        ] {
            r.register(Box::new(SimpleSolver { family }));
        }
        for granularity in [MoveGranularity::Group, MoveGranularity::Object] {
            for order in [
                ScoreOrder::TimePerCost,
                ScoreOrder::CostSaving,
                ScoreOrder::TimePenalty,
                ScoreOrder::Unsorted,
            ] {
                r.register(Box::new(AblationSolver::new(AblationConfig {
                    granularity,
                    order,
                })));
            }
        }
        r
    }

    /// [`builtin`](Self::builtin), built once per thread and shared by
    /// every session that does not bring its own registry.
    pub(crate) fn shared_builtin() -> Rc<Registry> {
        thread_local! {
            static BUILTIN: Rc<Registry> = Rc::new(Registry::builtin());
        }
        BUILTIN.with(Rc::clone)
    }

    /// Register a solver, replacing any existing entry with the same id.
    pub fn register(&mut self, solver: Box<dyn Solver>) {
        self.entries.retain(|e| e.id() != solver.id());
        self.entries.push(solver);
    }

    /// Registered ids, in registration order.
    pub fn ids(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.id().to_owned()).collect()
    }

    /// Iterate over the registered solvers.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Solver> {
        self.entries.iter().map(|e| e.as_ref())
    }

    /// Look up a solver by id.
    pub fn get(&self, name: &str) -> Result<&dyn Solver, ProvisionError> {
        self.entries
            .iter()
            .find(|e| e.id() == name)
            .map(|e| e.as_ref())
            .ok_or_else(|| ProvisionError::UnknownSolver {
                name: name.to_owned(),
                known: self.ids(),
            })
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::builtin()
    }
}

// ---------------------------------------------------------------------------
// DOT
// ---------------------------------------------------------------------------

/// §4.5.3 relaxation options for [`DotSolver`].
#[derive(Debug, Clone, Copy)]
pub struct Relaxation {
    /// Fractional SLA reduction per retry.
    pub step: f64,
    /// Floor below which the loop gives up.
    pub min_ratio: f64,
}

/// DOT — the paper's optimizer, run as the full Figure 2 pipeline:
/// optimization sweep, simulated validation run, and refinement from
/// runtime statistics when validation fails. With `relaxation` set, an
/// infeasible SLA is relaxed step by step until a layout emerges (§4.5.3);
/// without it, infeasibility is reported with a suggested relaxed SLA.
pub struct DotSolver {
    /// Relaxation options; `None` = fail fast with a suggestion.
    pub relaxation: Option<Relaxation>,
}

impl Solver for DotSolver {
    fn id(&self) -> &str {
        if self.relaxation.is_some() {
            "dot-relaxed"
        } else {
            "dot"
        }
    }

    fn describe(&self) -> String {
        if self.relaxation.is_some() {
            "DOT with the §4.5.3 SLA-relaxation loop (never infeasible while any layout fits)"
                .to_owned()
        } else {
            "DOT: greedy group-move sweep + validation/refinement (Figure 2)".to_owned()
        }
    }

    fn solve(&self, cx: &SolveContext<'_, '_>) -> Result<Recommendation, ProvisionError> {
        let start = Instant::now();
        let problem = cx.problem;
        let mut active_cons = cx.constraints.clone();
        let mut final_sla = problem.sla.ratio;
        let mut outcome = dot::optimize_with(problem, cx.profile, &active_cons, &cx.toc);
        let mut investigated = outcome.layouts_investigated;
        let mut pruned = outcome.layouts_pruned;

        if outcome.layout.is_none() {
            match self.relaxation {
                Some(r) => {
                    // §4.5.3's loop, run on the *session* constraints so
                    // per-query (multi-tenant) caps relax proportionally
                    // instead of being replaced by uniform ones.
                    let mut ratio = problem.sla.ratio;
                    loop {
                        let next = (ratio * (1.0 - r.step)).max(r.min_ratio);
                        let relaxed_cons = cx.constraints.relaxed(next / problem.sla.ratio);
                        let relaxed =
                            dot::optimize_with(problem, cx.profile, &relaxed_cons, &cx.toc);
                        investigated += relaxed.layouts_investigated;
                        pruned += relaxed.layouts_pruned;
                        if relaxed.layout.is_some() {
                            final_sla = next;
                            active_cons = relaxed_cons;
                            outcome = relaxed;
                            break;
                        }
                        if next <= r.min_ratio {
                            return Err(ProvisionError::Infeasible {
                                sla: problem.sla.ratio,
                                suggested_sla: None,
                                layouts_investigated: investigated,
                            });
                        }
                        ratio = next;
                    }
                }
                None => {
                    return Err(ProvisionError::Infeasible {
                        sla: problem.sla.ratio,
                        suggested_sla: if cx.diagnostics {
                            suggest_relaxed_sla(cx, &mut investigated)
                        } else {
                            None
                        },
                        layouts_investigated: investigated,
                    });
                }
            }
        }

        if !cx.diagnostics {
            // Survey mode: the optimization phase is the whole answer.
            let layout = outcome.layout.expect("feasible at this point");
            let estimate = outcome.estimate.expect("estimated");
            return Ok(cx.recommendation(
                self.id(),
                "DOT",
                layout,
                estimate,
                investigated,
                pruned,
                start.elapsed(),
                None,
                0,
                final_sla,
            ));
        }

        // Validation + refinement (Figure 2), generalized to arbitrary
        // constraints: measured caps are the session caps rescaled onto the
        // measured premium reference.
        let mut rounds = 0usize;
        loop {
            let layout = outcome.layout.clone().expect("feasible at this point");
            let estimate = outcome.estimate.clone().expect("estimated");
            let seed = 0xD07 + rounds as u64;
            let measured = cx.toc.measure(problem, &layout, seed);
            let measured_ref = cx.toc.measure(problem, &problem.premium_layout(), seed);
            let measured_cons = active_cons.rescaled(measured_ref);
            let psr = measured_cons.psr(&measured);
            let passed = measured_cons.satisfied(problem, &layout, &measured);
            let margins = measured_cons.violation_margins(problem.workload, &measured);
            let validation = ValidationReport {
                measured,
                psr,
                passed,
                margins,
            };
            if passed || rounds >= cx.refinements {
                return Ok(cx.recommendation(
                    self.id(),
                    "DOT",
                    layout,
                    estimate,
                    investigated,
                    pruned,
                    start.elapsed(),
                    Some(validation),
                    rounds,
                    final_sla,
                ));
            }
            // Refine: re-profile from runtime statistics (test-run counts),
            // reusing the session profile's baseline runs, and redo the
            // optimization phase.
            rounds += 1;
            let refined = cx
                .profile
                .recount(cx.plans, ProfileSource::TestRun { seed });
            let next = dot::optimize_with(problem, &refined, &active_cons, &cx.toc);
            investigated += next.layouts_investigated;
            pruned += next.layouts_pruned;
            if next.layout.is_none() {
                // Refinement lost feasibility: keep the last good layout.
                return Ok(cx.recommendation(
                    self.id(),
                    "DOT",
                    layout,
                    estimate,
                    investigated,
                    pruned,
                    start.elapsed(),
                    Some(validation),
                    rounds,
                    final_sla,
                ));
            }
            outcome = next;
        }
    }
}

/// Cheap infeasibility diagnosis: optimize under capacity constraints only
/// (one extra sweep), then ask how far the SLA must relax for that
/// cost-minimal layout to pass. Guarantees the suggestion is achievable —
/// the layout found is itself feasible at the suggested ratio.
fn suggest_relaxed_sla(cx: &SolveContext<'_, '_>, investigated: &mut usize) -> Option<f64> {
    let unconstrained = Constraints {
        response_caps_ms: None,
        throughput_floor: None,
        reference: cx.constraints.reference.clone(),
        sla: cx.constraints.sla,
    };
    let out = dot::optimize_with(cx.problem, cx.profile, &unconstrained, &cx.toc);
    *investigated += out.layouts_investigated;
    let est = out.estimate?;
    cx.max_feasible_sla(&est)
        .map(|r| r.min(cx.problem.sla.ratio))
}

// ---------------------------------------------------------------------------
// Exhaustive search
// ---------------------------------------------------------------------------

/// Layout-count guard for the literal enumeration: `M^N` beyond this is a
/// typed refusal rather than a multi-year run (§4.4.3 caps ES at 8 objects).
const ES_MAX_LAYOUTS: f64 = 2e6;

/// The literal `M^N` exhaustive search (§4.4.3) — optimal, and tractable
/// only for small object counts.
pub struct EsSolver;

impl Solver for EsSolver {
    fn id(&self) -> &str {
        "es"
    }

    fn describe(&self) -> String {
        "exhaustive search: full M^N enumeration through the planner (optimality baseline)"
            .to_owned()
    }

    fn admit(&self, problem: &Problem<'_>) -> Result<(), ProvisionError> {
        let n = problem.schema.object_count() as f64;
        let space = (problem.pool.len() as f64).powf(n);
        if space > ES_MAX_LAYOUTS {
            return Err(ProvisionError::UnsupportedWorkload {
                solver: self.id().to_owned(),
                reason: format!(
                    "{space:.0} layouts to enumerate (limit {ES_MAX_LAYOUTS:.0}); \
                     use \"es-additive\" or \"dot\""
                ),
            });
        }
        Ok(())
    }

    fn solve(&self, cx: &SolveContext<'_, '_>) -> Result<Recommendation, ProvisionError> {
        let start = Instant::now();
        let problem = cx.problem;
        self.admit(problem)?;
        let out = exhaustive::exhaustive_search_with(problem, cx.constraints, &cx.toc);
        finish_search(
            cx,
            self.id(),
            "ES",
            out.layout,
            out.estimate,
            out.layouts_investigated,
            out.layouts_pruned,
            start,
        )
    }
}

/// The additive branch-and-bound ES for throughput workloads with
/// placement-stable plans (§4.5.3's TPC-C path).
pub struct EsAdditiveSolver;

impl Solver for EsAdditiveSolver {
    fn id(&self) -> &str {
        "es-additive"
    }

    fn describe(&self) -> String {
        "exhaustive search (additive): exact branch-and-bound over group placements \
         for stable-plan throughput workloads"
            .to_owned()
    }

    fn admit(&self, problem: &Problem<'_>) -> Result<(), ProvisionError> {
        if problem.workload.metric != PerfMetric::Throughput {
            return Err(ProvisionError::UnsupportedWorkload {
                solver: self.id().to_owned(),
                reason: "per-query response caps do not decompose over groups; \
                         additive ES requires a throughput workload"
                    .to_owned(),
            });
        }
        if problem.cost_model != LayoutCostModel::Linear {
            return Err(ProvisionError::UnsupportedWorkload {
                solver: self.id().to_owned(),
                reason: "additive ES requires the linear cost model".to_owned(),
            });
        }
        Ok(())
    }

    fn solve(&self, cx: &SolveContext<'_, '_>) -> Result<Recommendation, ProvisionError> {
        let start = Instant::now();
        let problem = cx.problem;
        self.admit(problem)?;
        let out = exhaustive::exhaustive_search_additive_with(
            problem,
            cx.profile,
            cx.constraints,
            &cx.toc,
        )?;
        finish_search(
            cx,
            self.id(),
            "ES",
            out.layout,
            out.estimate,
            out.layouts_investigated,
            out.layouts_pruned,
            start,
        )
    }
}

/// Shared tail of the search solvers: feasible → recommendation,
/// exhausted → infeasible.
#[allow(clippy::too_many_arguments)] // mirrors the provenance record
fn finish_search(
    cx: &SolveContext<'_, '_>,
    id: &str,
    label: &str,
    layout: Option<Layout>,
    estimate: Option<crate::toc::TocEstimate>,
    investigated: usize,
    pruned: usize,
    start: Instant,
) -> Result<Recommendation, ProvisionError> {
    match (layout, estimate) {
        (Some(layout), Some(estimate)) => Ok(cx.recommendation(
            id,
            label,
            layout,
            estimate,
            investigated,
            pruned,
            start.elapsed(),
            None,
            0,
            cx.problem.sla.ratio,
        )),
        _ => Err(ProvisionError::Infeasible {
            sla: cx.problem.sla.ratio,
            suggested_sla: None,
            layouts_investigated: investigated,
        }),
    }
}

// ---------------------------------------------------------------------------
// Simple layouts and the Object Advisor
// ---------------------------------------------------------------------------

/// Which of the §4.2 simple layouts a [`SimpleSolver`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Everything on the pool's HDD-backed class.
    Hdd,
    /// Everything on the pool's L-SSD-backed class.
    Lssd,
    /// Everything on the pool's H-SSD class.
    Hssd,
    /// Everything on the most expensive class (the reference layout).
    Premium,
    /// Everything on the cheapest class.
    Cheapest,
    /// Indices on the H-SSD, data on the L-SSD class (§4.2's split).
    IndexSplit,
}

impl Family {
    fn id(&self) -> &'static str {
        match self {
            Family::Hdd => "all-hdd",
            Family::Lssd => "all-lssd",
            Family::Hssd => "all-hssd",
            Family::Premium => "all-premium",
            Family::Cheapest => "all-cheapest",
            Family::IndexSplit => "index-split",
        }
    }

    fn class_prefix(&self) -> Option<&'static str> {
        match self {
            Family::Hdd => Some("HDD"),
            Family::Lssd => Some("L-SSD"),
            Family::Hssd => Some("H-SSD"),
            _ => None,
        }
    }
}

/// One of the six fixed comparison layouts of §4.2, checked against the
/// session constraints: a violating layout is a typed [`Infeasible`]
/// (with the SLA at which it would pass), never a silent recommendation.
///
/// [`Infeasible`]: ProvisionError::Infeasible
pub struct SimpleSolver {
    /// Which layout.
    pub family: Family,
}

impl Solver for SimpleSolver {
    fn id(&self) -> &str {
        self.family.id()
    }

    fn describe(&self) -> String {
        match self.family {
            Family::Premium => "simple layout: everything on the most expensive class".to_owned(),
            Family::Cheapest => "simple layout: everything on the cheapest class".to_owned(),
            Family::IndexSplit => {
                "simple layout: indices on the H-SSD, everything else on the L-SSD class".to_owned()
            }
            f => format!(
                "simple layout: everything on the pool's {} class",
                f.class_prefix().expect("device families have a prefix")
            ),
        }
    }

    fn solve(&self, cx: &SolveContext<'_, '_>) -> Result<Recommendation, ProvisionError> {
        let start = Instant::now();
        let problem = cx.problem;
        let pool = problem.pool;
        let (label, layout) = match self.family {
            Family::Premium => {
                let id = pool.most_expensive();
                (
                    format!("All {}", pool.class_unchecked(id).name),
                    Layout::uniform(id, problem.schema.object_count()),
                )
            }
            Family::Cheapest => {
                let id = *pool
                    .ids_by_price_desc()
                    .last()
                    .expect("pools are non-empty");
                (
                    format!("All {}", pool.class_unchecked(id).name),
                    Layout::uniform(id, problem.schema.object_count()),
                )
            }
            Family::IndexSplit => (
                "Index H-SSD Data L-SSD".to_owned(),
                baselines::index_hssd_data_lssd(problem).ok_or_else(|| {
                    ProvisionError::ClassUnavailable {
                        class: "H-SSD + L-SSD".to_owned(),
                        pool: pool.name().to_owned(),
                    }
                })?,
            ),
            family => {
                let prefix = family.class_prefix().expect("device family");
                let class = pool
                    .classes()
                    .iter()
                    .find(|c| c.name.starts_with(prefix))
                    .ok_or_else(|| ProvisionError::ClassUnavailable {
                        class: prefix.to_owned(),
                        pool: pool.name().to_owned(),
                    })?;
                (
                    format!("All {}", class.name),
                    Layout::uniform(class.id, problem.schema.object_count()),
                )
            }
        };
        finish_fixed_layout(cx, self.id(), &label, layout, start)
    }
}

/// The Object Advisor of Canim et al. as characterized in §6: greedy
/// per-GB-benefit promotion onto the fastest class, profiled once and
/// layout-blind.
pub struct ObjectAdvisorSolver;

impl Solver for ObjectAdvisorSolver {
    fn id(&self) -> &str {
        "oa"
    }

    fn describe(&self) -> String {
        "Object Advisor (Canim et al.): performance-maximizing greedy promotion, \
         layout-blind profiling"
            .to_owned()
    }

    fn solve(&self, cx: &SolveContext<'_, '_>) -> Result<Recommendation, ProvisionError> {
        let start = Instant::now();
        let layout = baselines::object_advisor(cx.problem);
        finish_fixed_layout(cx, self.id(), "OA", layout, start)
    }
}

/// Shared tail of the single-layout solvers: estimate, constraint-check,
/// and either recommend or report typed infeasibility with a suggestion.
fn finish_fixed_layout(
    cx: &SolveContext<'_, '_>,
    id: &str,
    label: &str,
    layout: Layout,
    start: Instant,
) -> Result<Recommendation, ProvisionError> {
    let est = cx.estimate(&layout);
    if !cx.constraints.satisfied(cx.problem, &layout, &est) {
        let suggested = layout
            .fits(cx.problem.schema, cx.problem.pool)
            .then(|| cx.max_feasible_sla(&est))
            .flatten()
            .map(|r| r.min(cx.problem.sla.ratio));
        return Err(ProvisionError::Infeasible {
            sla: cx.problem.sla.ratio,
            suggested_sla: suggested,
            layouts_investigated: 1,
        });
    }
    Ok(cx.recommendation(
        id,
        label,
        layout,
        est,
        1,
        0,
        start.elapsed(),
        None,
        0,
        cx.problem.sla.ratio,
    ))
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// One cell of the ablation grid (§3.1–§3.3 design choices switched
/// on/off), run as a constraint-checked sweep like DOT but without the
/// validation phase.
pub struct AblationSolver {
    config: AblationConfig,
    id: String,
}

impl AblationSolver {
    /// Wrap an ablated configuration; the id is
    /// `ablation:<granularity>:<order>` in kebab case.
    pub fn new(config: AblationConfig) -> AblationSolver {
        let granularity = match config.granularity {
            MoveGranularity::Group => "group",
            MoveGranularity::Object => "object",
        };
        let order = match config.order {
            ScoreOrder::TimePerCost => "time-per-cost",
            ScoreOrder::CostSaving => "cost-saving",
            ScoreOrder::TimePenalty => "time-penalty",
            ScoreOrder::Unsorted => "unsorted",
        };
        AblationSolver {
            config,
            id: format!("ablation:{granularity}:{order}"),
        }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> AblationConfig {
        self.config
    }
}

impl Solver for AblationSolver {
    fn id(&self) -> &str {
        &self.id
    }

    fn describe(&self) -> String {
        format!(
            "ablated DOT: {:?} moves ordered by {:?}",
            self.config.granularity, self.config.order
        )
    }

    fn solve(&self, cx: &SolveContext<'_, '_>) -> Result<Recommendation, ProvisionError> {
        let start = Instant::now();
        let out = ablation::optimize_ablated_with(
            cx.problem,
            cx.profile,
            cx.constraints,
            self.config,
            &cx.toc,
        );
        let DotOutcome {
            layout,
            estimate,
            layouts_investigated,
            layouts_pruned,
            ..
        } = out;
        match (layout, estimate) {
            (Some(layout), Some(estimate)) => Ok(cx.recommendation(
                self.id(),
                &self.config.label(),
                layout,
                estimate,
                layouts_investigated,
                layouts_pruned,
                start.elapsed(),
                None,
                0,
                cx.problem.sla.ratio,
            )),
            _ => Err(ProvisionError::Infeasible {
                sla: cx.problem.sla.ratio,
                suggested_sla: None,
                layouts_investigated,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::Advisor;
    use dot_storage::catalog;
    use dot_workloads::synth;

    #[test]
    fn builtin_registry_covers_every_paper_comparator() {
        let r = Registry::builtin();
        let ids = r.ids();
        for id in [
            "dot",
            "dot-relaxed",
            "es",
            "es-additive",
            "oa",
            "all-hssd",
            "all-lssd",
            "all-hdd",
            "all-premium",
            "all-cheapest",
            "index-split",
            "ablation:group:time-per-cost",
            "ablation:object:unsorted",
        ] {
            assert!(ids.iter().any(|i| i == id), "missing {id}");
        }
        assert_eq!(ids.len(), 19);
        for s in r.iter() {
            assert!(!s.describe().is_empty());
        }
    }

    #[test]
    fn registering_a_duplicate_id_replaces() {
        let mut r = Registry::new();
        r.register(Box::new(EsSolver));
        r.register(Box::new(EsSolver));
        assert_eq!(r.ids(), vec!["es".to_owned()]);
    }

    #[test]
    fn infeasible_dot_suggests_a_working_sla() {
        // Random writes make every off-premium move violate a 1.0 SLA with
        // a capacity-blocked premium class: DOT must fail with a suggestion
        // that actually works.
        let s = synth::bench_schema(5_000_000.0, 120.0);
        let mut pool = catalog::box2();
        pool.set_capacity("H-SSD", s.total_size_gb() * 0.5);
        let w = synth::mixed_workload(&s);
        let advisor = Advisor::builder(&s, &pool, &w).sla(1.0).build().unwrap();
        let err = advisor.recommend("dot").unwrap_err();
        let ProvisionError::Infeasible {
            sla,
            suggested_sla: Some(suggested),
            ..
        } = err
        else {
            panic!("expected a suggestion, got {err:?}");
        };
        assert!((sla - 1.0).abs() < 1e-12);
        assert!(suggested < 1.0 && suggested > 0.0);
        let relaxed = advisor.with_sla(suggested);
        assert!(relaxed.recommend("dot").is_ok(), "suggestion must work");
    }

    #[test]
    fn dot_relaxed_reports_the_final_sla() {
        let s = synth::bench_schema(5_000_000.0, 120.0);
        let mut pool = catalog::box2();
        pool.set_capacity("H-SSD", s.total_size_gb() * 0.5);
        let w = synth::mixed_workload(&s);
        let advisor = Advisor::builder(&s, &pool, &w).sla(1.0).build().unwrap();
        let rec = advisor.recommend("dot-relaxed").unwrap();
        assert!(rec.provenance.final_sla < 1.0);
        assert_eq!(rec.provenance.solver, "dot-relaxed");
    }

    #[test]
    fn dot_relaxed_preserves_per_query_cap_structure() {
        // Multi-tenant caps + a capacity-blocked premium class: the joint
        // request is infeasible, and the relaxation loop must loosen every
        // tenant's cap *proportionally* rather than replacing them with a
        // uniform SLA.
        let s = synth::bench_schema(5_000_000.0, 120.0);
        let mut pool = catalog::box2();
        pool.set_capacity("H-SSD", s.total_size_gb() * 0.5);
        let w = synth::mixed_workload(&s);
        let ratios: Vec<f64> = (0..w.queries.len())
            .map(|i| if i == 0 { 1.0 } else { 0.9 })
            .collect();
        let advisor = Advisor::builder(&s, &pool, &w)
            .sla(1.0)
            .per_query_slas(ratios.clone())
            .build()
            .unwrap();
        assert!(advisor.recommend("dot").is_err(), "jointly infeasible");
        let rec = advisor.recommend("dot-relaxed").unwrap();
        let multiplier = rec.provenance.final_sla / advisor.sla().ratio;
        assert!(multiplier < 1.0);
        let relaxed = advisor.constraints().relaxed(multiplier);
        // The layout honours the proportionally relaxed per-query caps...
        assert!(relaxed.satisfied(advisor.problem(), &rec.layout, &rec.estimate));
        // ...and those caps still encode the tenants' distinct ratios: the
        // strict query's cap/reference ratio stays 0.9/1.0 of the loose one.
        let caps = relaxed.response_caps_ms.as_ref().unwrap();
        let refs = &relaxed.reference.per_query_ms;
        let slack = |i: usize| caps[i] / refs[i];
        assert!(
            (slack(0) / slack(1) - 0.9).abs() < 1e-9,
            "per-query structure lost: {} vs {}",
            slack(0),
            slack(1)
        );
    }

    #[test]
    fn es_refuses_oversized_enumerations() {
        let s = dot_workloads::tpch::schema(1.0); // 16 objects, 3^16 layouts
        let w = dot_workloads::tpch::original_workload(&s);
        let pool = catalog::box2();
        let advisor = Advisor::builder(&s, &pool, &w).build().unwrap();
        let err = advisor.recommend("es").unwrap_err();
        assert!(matches!(err, ProvisionError::UnsupportedWorkload { .. }));
    }

    #[test]
    fn es_additive_refuses_response_time_workloads() {
        let s = synth::bench_schema(1_000_000.0, 100.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        let advisor = Advisor::builder(&s, &pool, &w).build().unwrap();
        let err = advisor.recommend("es-additive").unwrap_err();
        let ProvisionError::UnsupportedWorkload { solver, .. } = err else {
            panic!("wrong variant");
        };
        assert_eq!(solver, "es-additive");
    }

    #[test]
    fn simple_solver_labels_match_the_paper_figures() {
        let s = synth::bench_schema(1_000_000.0, 100.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        let advisor = Advisor::builder(&s, &pool, &w).sla(0.01).build().unwrap();
        let premium = advisor.recommend("all-hssd").unwrap();
        assert_eq!(premium.label, "All H-SSD");
        let split = advisor.recommend("index-split").unwrap();
        assert_eq!(split.label, "Index H-SSD Data L-SSD");
    }

    #[test]
    fn violating_simple_layout_is_infeasible_with_suggestion() {
        let s = synth::bench_schema(5_000_000.0, 120.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        // Random writes on the HDD are far beyond a 0.9 SLA.
        let advisor = Advisor::builder(&s, &pool, &w).sla(0.9).build().unwrap();
        let err = advisor.recommend("all-hdd").unwrap_err();
        let ProvisionError::Infeasible {
            suggested_sla: Some(suggested),
            ..
        } = err
        else {
            panic!("expected suggestion, got {err:?}");
        };
        let relaxed = advisor.with_sla(suggested);
        assert!(relaxed.recommend("all-hdd").is_ok());
    }
}

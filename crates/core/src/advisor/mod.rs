//! The advisory facade: one front door to every optimizer in the crate.
//!
//! The paper evaluates DOT against exhaustive search, six simple layouts,
//! the Object Advisor, and ablated variants (§4). This module exposes each
//! of them behind a single [`Solver`] trait and a name-keyed
//! [`Registry`], so the CLI, the experiment harness, and
//! library callers all select optimizers by string and receive the same
//! [`Recommendation`] shape back.
//!
//! An [`Advisor`] is one *session* over one provisioning request. It is
//! built with [`Advisor::builder`] from the §2.5 inputs (schema, pool,
//! workload, SLA, engine, cost model), computes the workload profile and
//! derived constraints **once**, and reuses them for every
//! [`recommend`](Advisor::recommend) call — including sibling sessions
//! derived with [`with_sla`](Advisor::with_sla) for SLA sweeps.
//!
//! Failures are typed: see [`ProvisionError`].
//!
//! ```
//! use dot_core::advisor::Advisor;
//! use dot_storage::catalog;
//! use dot_workloads::synth;
//!
//! let schema = synth::bench_schema(5_000_000.0, 120.0);
//! let pool = catalog::box2();
//! let workload = synth::mixed_workload(&schema);
//! let advisor = Advisor::builder(&schema, &pool, &workload).sla(0.5).build()?;
//! // Solvers are selected by name; "dot" is the paper's optimizer.
//! let rec = advisor.recommend("dot")?;
//! assert!(advisor.solver_ids().iter().any(|id| id == "es"));
//! assert!(rec.provenance.layouts_investigated >= 1);
//! # Ok::<(), dot_core::advisor::ProvisionError>(())
//! ```

pub mod error;
pub mod presets;
pub mod solvers;

pub use error::ProvisionError;
pub use solvers::{Registry, Solver};

use crate::constraints::{self, Constraints};
use crate::dot::ValidationReport;
use crate::problem::{LayoutCostModel, Problem};
use crate::report::{self, LayoutEvaluation};
use crate::toc::{CachedEstimator, Estimator, TocEstimate};
use dot_dbms::memo::PlanMemo;
use dot_dbms::{EngineConfig, Layout, Schema};
use dot_profiler::{profile_workload, ProfileSource, WorkloadProfile};
use dot_storage::StoragePool;
use dot_workloads::{PerfMetric, SlaSpec, Workload};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, OnceCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// One line of the per-class bill: what a recommendation spends on each
/// storage class it uses, under the problem's cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassBill {
    /// Storage class name.
    pub class: String,
    /// Data placed on the class, in GB.
    pub gb: f64,
    /// The class's list price in cents/GB/hour.
    pub price_cents_per_gb_hour: f64,
    /// The class's share of `C(L)` in cents/hour (linear or discrete,
    /// whichever model the problem uses).
    pub cents_per_hour: f64,
}

/// How a recommendation came to be: which solver produced it, how hard it
/// searched, and how long that took. All fields serialize — including the
/// elapsed time, carried as integer milliseconds so a JSON round-trip is
/// lossless (unlike `DotOutcome::elapsed`, which is skipped).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Registry id of the solver that produced the recommendation.
    pub solver: String,
    /// Complete layouts the solver evaluated: what its per-candidate
    /// search enumerates, so certified skips (ES's block cut, DOT's doomed
    /// placements and abandoned trials) change nothing here.
    pub layouts_investigated: usize,
    /// Candidates the dominance cut skipped without estimating (see
    /// `toc::ObjectiveBound`): what the per-candidate search cuts, so a
    /// block cut counts each layout of its block and doomed placements
    /// and abandoned trials count nothing. Subset of
    /// `layouts_investigated`; 0 for solvers that never prune and for
    /// pre-pruning serialized records.
    #[serde(default)]
    pub layouts_pruned: usize,
    /// Solver wall-clock time in integer milliseconds.
    pub elapsed_ms: u64,
    /// Validation/refinement rounds run (0 = first recommendation passed).
    pub refinement_rounds: usize,
    /// The relative SLA in force when the layout was found (differs from
    /// the request only when a relaxation loop ran, §4.5.3).
    pub final_sla: f64,
}

/// The uniform answer every solver returns: a layout, its price and
/// performance, the per-class bill, a validation report, and provenance.
/// Fully serializable for the CLI's `--json` mode and experiment logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Human-facing label ("DOT", "All H-SSD", ...), as used in the
    /// paper's figures.
    pub label: String,
    /// The recommended object→class layout.
    pub layout: Layout,
    /// The same layout as object-name → class-name pairs.
    pub placements: Vec<(String, String)>,
    /// TOC estimate of the layout (through the storage-aware planner).
    pub estimate: TocEstimate,
    /// Per-class cost breakdown (classes hosting data only).
    pub bill: Vec<ClassBill>,
    /// Validation report from a simulated test run, when the solver ran
    /// the validation phase (DOT does; single-layout solvers skip it).
    pub validation: Option<ValidationReport>,
    /// Who found the layout and how.
    pub provenance: Provenance,
}

/// Everything a [`Solver`] needs to answer one request: the problem, the
/// session's workload profile, and its derived constraints. Built by
/// [`Advisor::context`]; the profile and constraints are computed once per
/// session and shared across solvers.
#[derive(Debug)]
pub struct SolveContext<'s, 'a> {
    /// The §2.5 problem statement.
    pub problem: &'s Problem<'a>,
    /// The session's workload profile (§3.4), computed once over `plans`:
    /// refinement recounts its baseline runs through them.
    pub profile: &'s WorkloadProfile,
    /// Derived performance + capacity constraints, computed once.
    pub constraints: &'s Constraints,
    /// The session's plan memo: each query's compiled template, priced
    /// under every layout the session looks at. Solvers that re-profile
    /// (refinement) count through it.
    pub plans: &'s PlanMemo<'a>,
    /// Maximum validation/refinement rounds for solvers that run the
    /// Figure 2 validation phase.
    pub refinements: usize,
    /// `false` in survey mode: solvers skip the validation phase and
    /// infeasibility diagnostics (the suggested-SLA search), answering with
    /// the optimization phase alone — what the figure harness times.
    pub diagnostics: bool,
    /// How solvers obtain TOC estimates: priced from the session's
    /// [`PlanMemo`] templates, bit-identical to planning from scratch.
    pub toc: Estimator<'s>,
}

impl SolveContext<'_, '_> {
    /// Estimate `layout`'s TOC through the session's estimator.
    pub fn estimate(&self, layout: &Layout) -> TocEstimate {
        self.toc.estimate(self.problem, layout)
    }
    /// Assemble a [`Recommendation`] from a solved layout, pricing the
    /// per-class bill under the problem's cost model.
    #[allow(clippy::too_many_arguments)] // a provenance record is inherently wide
    pub fn recommendation(
        &self,
        solver: &str,
        label: &str,
        layout: Layout,
        estimate: TocEstimate,
        layouts_investigated: usize,
        layouts_pruned: usize,
        elapsed: Duration,
        validation: Option<ValidationReport>,
        refinement_rounds: usize,
        final_sla: f64,
    ) -> Recommendation {
        let problem = self.problem;
        let space = layout.space_per_class(problem.schema, problem.pool);
        let costs =
            problem
                .cost_model
                .class_costs_cents_per_hour(&layout, problem.schema, problem.pool);
        let bill = problem
            .pool
            .classes()
            .iter()
            .zip(space.iter().zip(&costs))
            .filter(|(_, (&gb, _))| gb > 0.0)
            .map(|(c, (&gb, &cents))| ClassBill {
                class: c.name.clone(),
                gb,
                price_cents_per_gb_hour: c.price_cents_per_gb_hour,
                cents_per_hour: cents,
            })
            .collect();
        Recommendation {
            label: label.to_owned(),
            placements: layout.describe(problem.schema, problem.pool),
            layout,
            estimate,
            bill,
            validation,
            provenance: Provenance {
                solver: solver.to_owned(),
                layouts_investigated,
                layouts_pruned,
                elapsed_ms: elapsed.as_millis() as u64,
                refinement_rounds,
                final_sla,
            },
        }
    }

    /// The loosest relative SLA ratio under which `estimate` meets the
    /// performance constraints implied by the reference, or `None` when no
    /// ratio in `(0, 1]` does. Used to attach a suggestion to
    /// [`ProvisionError::Infeasible`].
    pub fn max_feasible_sla(&self, estimate: &TocEstimate) -> Option<f64> {
        let reference = &self.constraints.reference;
        let ratio = match self.problem.workload.metric {
            PerfMetric::ResponseTime => reference
                .per_query_ms
                .iter()
                .zip(&estimate.per_query_ms)
                .map(|(r, t)| if *t > 0.0 { r / t } else { 1.0 })
                .fold(f64::INFINITY, f64::min),
            PerfMetric::Throughput => {
                if reference.throughput_tasks_per_hour > 0.0 {
                    estimate.throughput_tasks_per_hour / reference.throughput_tasks_per_hour
                } else {
                    1.0
                }
            }
        };
        // Shave a hair off the boundary so the suggestion survives
        // floating-point round-trips through `SlaSpec` cap derivation.
        (ratio > 0.0).then(|| (ratio * (1.0 - 1e-9)).min(1.0))
    }
}

/// Builder for an [`Advisor`] session. Obtained via [`Advisor::builder`];
/// every knob beyond schema/pool/workload has a sensible default.
pub struct AdvisorBuilder<'a> {
    schema: &'a Schema,
    pool: &'a StoragePool,
    workload: &'a Workload,
    sla: SlaSpec,
    engine: Option<EngineConfig>,
    cost_model: LayoutCostModel,
    source: ProfileSource,
    refinements: usize,
    diagnostics: bool,
    per_query_slas: Option<Vec<f64>>,
    registry: Option<Registry>,
}

impl<'a> AdvisorBuilder<'a> {
    /// The relative SLA ratio (§4.3). Default 0.5.
    pub fn sla(mut self, ratio: f64) -> Self {
        self.sla = SlaSpec::relative(ratio);
        self
    }

    /// The relative SLA as a spec.
    pub fn sla_spec(mut self, sla: SlaSpec) -> Self {
        self.sla = sla;
        self
    }

    /// Engine configuration. Default: chosen from the workload's metric
    /// (`dss` for response-time, `oltp` for throughput).
    pub fn engine(mut self, cfg: EngineConfig) -> Self {
        self.engine = Some(cfg);
        self
    }

    /// Layout-cost model. Default linear (§2.1).
    pub fn cost_model(mut self, model: LayoutCostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Where the workload profile comes from. Default planner estimates.
    pub fn profile_source(mut self, source: ProfileSource) -> Self {
        self.source = source;
        self
    }

    /// Maximum validation/refinement rounds (Figure 2). Default 1.
    pub fn refinements(mut self, n: usize) -> Self {
        self.refinements = n;
        self
    }

    /// Survey mode: skip the validation phase and infeasibility
    /// diagnostics, so `recommend` answers with the optimization phase
    /// alone. The experiment harness uses this for figure grids, where the
    /// timing column must cover the sweep and nothing else.
    pub fn survey(mut self) -> Self {
        self.diagnostics = false;
        self
    }

    /// Per-query SLA ratios, parallel to `workload.queries` — the
    /// multi-tenant case where each tenant brings its own SLA. Only valid
    /// for response-time workloads.
    pub fn per_query_slas(mut self, ratios: Vec<f64>) -> Self {
        self.per_query_slas = Some(ratios);
        self
    }

    /// Replace the built-in solver registry (e.g. to add a custom solver).
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Kept only for source compatibility: sessions price every estimate
    /// from their own compiled templates, so there is no shared estimate
    /// cache to attach and the argument is ignored.
    pub fn toc_cache(self, _cache: Arc<CachedEstimator>) -> Self {
        self
    }

    /// Validate the request and open the session. The workload profile is
    /// computed lazily on the first `recommend` call, then cached.
    pub fn build(self) -> Result<Advisor<'a>, ProvisionError> {
        self.workload
            .validate(self.schema)
            .map_err(|reason| ProvisionError::InvalidRequest { reason })?;
        let arity = dot_profiler::group_arity(self.schema);
        if dot_profiler::baseline_count(self.pool.len(), arity)
            .filter(|&n| n <= dot_profiler::MAX_BASELINE_LAYOUTS)
            .is_none()
        {
            return Err(ProvisionError::InvalidRequest {
                reason: format!(
                    "profiling would enumerate {}^{arity} baseline layouts (limit {}); \
                     use fewer storage classes or fewer indexes per table",
                    self.pool.len(),
                    dot_profiler::MAX_BASELINE_LAYOUTS
                ),
            });
        }
        let required_gb = self.schema.total_size_gb();
        let available_gb: f64 = self.pool.capacity_vector().iter().sum();
        if required_gb > available_gb {
            return Err(ProvisionError::CapacityExceeded {
                required_gb,
                available_gb,
            });
        }
        if let Some(ratios) = &self.per_query_slas {
            if self.workload.metric != PerfMetric::ResponseTime {
                return Err(ProvisionError::InvalidRequest {
                    reason: "per-query SLAs require a response-time workload".into(),
                });
            }
            if ratios.len() != self.workload.queries.len() {
                return Err(ProvisionError::InvalidRequest {
                    reason: format!(
                        "{} per-query SLAs for {} queries",
                        ratios.len(),
                        self.workload.queries.len()
                    ),
                });
            }
            if ratios.iter().any(|r| !(*r > 0.0 && *r <= 1.0)) {
                return Err(ProvisionError::InvalidRequest {
                    reason: "per-query SLA ratios must be in (0, 1]".into(),
                });
            }
        }
        let cfg = self.engine.unwrap_or(match self.workload.metric {
            PerfMetric::ResponseTime => EngineConfig::dss(),
            PerfMetric::Throughput => EngineConfig::oltp(),
        });
        let problem = Problem::new(self.schema, self.pool, self.workload, self.sla, cfg)
            .with_cost_model(self.cost_model);
        Ok(Advisor {
            problem,
            source: self.source,
            refinements: self.refinements,
            diagnostics: self.diagnostics,
            per_query_slas: self.per_query_slas,
            registry: self.registry.map_or_else(Registry::shared_builtin, Rc::new),
            profile: OnceCell::new(),
            constraints: OnceCell::new(),
            profile_builds: Rc::new(Cell::new(0)),
            plans: OnceCell::new(),
        })
    }
}

/// One advisory session: owns the problem, computes the workload profile
/// and derived constraints once, and answers [`recommend`](Self::recommend)
/// requests for any registered solver.
pub struct Advisor<'a> {
    problem: Problem<'a>,
    source: ProfileSource,
    refinements: usize,
    diagnostics: bool,
    per_query_slas: Option<Vec<f64>>,
    registry: Rc<Registry>,
    profile: OnceCell<Rc<WorkloadProfile>>,
    constraints: OnceCell<Constraints>,
    /// Shared with sessions derived via [`with_sla`](Self::with_sla), so a
    /// whole sweep can assert "profiled once".
    profile_builds: Rc<Cell<usize>>,
    /// The session's plan memo, created on first use (a session that never
    /// estimates, like a quiescent controller tick, never allocates one)
    /// and shared with [`with_sla`](Self::with_sla) and
    /// [`with_cost_model`](Self::with_cost_model) siblings: templates
    /// depend on neither SLA nor prices.
    plans: OnceCell<Rc<PlanMemo<'a>>>,
}

impl<'a> Advisor<'a> {
    /// Start building a session over the §2.5 inputs.
    pub fn builder(
        schema: &'a Schema,
        pool: &'a StoragePool,
        workload: &'a Workload,
    ) -> AdvisorBuilder<'a> {
        AdvisorBuilder {
            schema,
            pool,
            workload,
            sla: SlaSpec::relative(0.5),
            engine: None,
            cost_model: LayoutCostModel::Linear,
            source: ProfileSource::Estimate,
            refinements: 1,
            diagnostics: true,
            per_query_slas: None,
            registry: None,
        }
    }

    /// Open a session for an already-assembled [`Problem`].
    pub fn for_problem(problem: &Problem<'a>, source: ProfileSource) -> Advisor<'a> {
        Advisor {
            problem: problem.clone(),
            source,
            refinements: 1,
            diagnostics: true,
            per_query_slas: None,
            registry: Registry::shared_builtin(),
            profile: OnceCell::new(),
            constraints: OnceCell::new(),
            profile_builds: Rc::new(Cell::new(0)),
            plans: OnceCell::new(),
        }
    }

    /// The session's problem statement.
    pub fn problem(&self) -> &Problem<'a> {
        &self.problem
    }

    /// The session's SLA.
    pub fn sla(&self) -> SlaSpec {
        self.problem.sla
    }

    /// Maximum validation/refinement rounds solvers may run.
    pub fn refinements(&self) -> usize {
        self.refinements
    }

    /// Override the refinement budget on an open session.
    pub fn set_refinements(&mut self, n: usize) {
        self.refinements = n;
    }

    /// The session's workload profile, computed on first use and cached.
    pub fn profile(&self) -> &WorkloadProfile {
        self.profile.get_or_init(|| {
            self.profile_builds.set(self.profile_builds.get() + 1);
            Rc::new(profile_workload(self.plans(), self.source))
        })
    }

    /// How many times this session (including [`with_sla`](Self::with_sla)
    /// siblings) has computed a workload profile. Stays at 1 no matter how
    /// many solvers run; the conformance suite asserts this.
    pub fn profile_builds(&self) -> usize {
        self.profile_builds.get()
    }

    /// The session's TOC estimator: pricing from the session's
    /// [`PlanMemo`] templates.
    pub fn estimator(&self) -> Estimator<'_> {
        Estimator::direct().memoized(self.plans())
    }

    /// The session's plan memo (see [`dot_dbms::memo`]). Its templates
    /// are compiled on the first planner call.
    pub fn plans(&self) -> &PlanMemo<'a> {
        self.plans.get_or_init(|| {
            let p = &self.problem;
            Rc::new(PlanMemo::new(&p.workload.queries, p.schema, p.pool, &p.cfg))
        })
    }

    /// The derived constraints, computed on first use and cached. With
    /// per-query SLAs, each query's cap uses its own ratio against the
    /// shared premium reference (the multi-tenant construction).
    pub fn constraints(&self) -> &Constraints {
        self.constraints.get_or_init(|| match &self.per_query_slas {
            None => constraints::derive_with_estimator(
                &self.problem,
                self.problem.sla,
                &self.estimator(),
            ),
            Some(ratios) => {
                let reference = self
                    .estimator()
                    .estimate(&self.problem, &self.problem.premium_layout());
                let caps = reference
                    .per_query_ms
                    .iter()
                    .zip(ratios)
                    .map(|(t, ratio)| t / ratio)
                    .collect();
                Constraints {
                    response_caps_ms: Some(caps),
                    throughput_floor: None,
                    reference,
                    sla: self.problem.sla,
                }
            }
        })
    }

    /// Borrow everything a solver needs. Forces the one-time profile and
    /// constraint computation.
    pub fn context(&self) -> SolveContext<'_, 'a> {
        SolveContext {
            problem: &self.problem,
            profile: self.profile(),
            constraints: self.constraints(),
            plans: self.plans(),
            refinements: self.refinements,
            diagnostics: self.diagnostics,
            toc: self.estimator(),
        }
    }

    /// Ids of every registered solver, in registry order.
    pub fn solver_ids(&self) -> Vec<String> {
        self.registry.ids()
    }

    /// Run the solver registered under `id` on this session. A solver
    /// that refuses the problem ([`Solver::admit`]) does so before the
    /// session builds its profile and constraints.
    pub fn recommend(&self, id: &str) -> Result<Recommendation, ProvisionError> {
        self.recommend_with(self.registry.get(id)?)
    }

    /// Run an unregistered solver on this session.
    pub fn recommend_with(&self, solver: &dyn Solver) -> Result<Recommendation, ProvisionError> {
        solver.admit(&self.problem)?;
        solver.solve(&self.context())
    }

    /// Re-provision a deployed layout for this session's (drifted)
    /// workload: run the `"dot"` solver for the fresh target and plan the
    /// migration from `current` to it, with no budget. See
    /// [`crate::replan`] for the plan's semantics.
    pub fn replan(
        &self,
        current: &Layout,
    ) -> Result<crate::replan::ReplanRecommendation, ProvisionError> {
        self.replan_with(current, "dot", &crate::replan::MigrationBudget::unbounded())
    }

    /// [`replan`](Self::replan) with an explicit target solver and
    /// migration budget. The target recommendation is exactly what
    /// [`recommend`](Self::recommend) returns for `solver`; the plan
    /// honors every ceiling `budget` sets.
    pub fn replan_with(
        &self,
        current: &Layout,
        solver: &str,
        budget: &crate::replan::MigrationBudget,
    ) -> Result<crate::replan::ReplanRecommendation, ProvisionError> {
        let target = self.recommend(solver)?;
        let opts = crate::replan::ReplanOptions {
            budget: *budget,
            sla_during_migration: None,
        };
        crate::replan::plan_migration_with(&self.context(), current, target, &opts)
    }

    /// [`replan_with`](Self::replan_with) with the full option set: the
    /// budget's wall-clock ceiling caps the *scheduled* makespan, and
    /// [`ReplanOptions::sla_during_migration`](crate::replan::ReplanOptions)
    /// constrains the in-flight estimate of every wave. See
    /// [`crate::replan`]'s module docs for the wave model.
    pub fn replan_scheduled(
        &self,
        current: &Layout,
        solver: &str,
        opts: &crate::replan::ReplanOptions,
    ) -> Result<crate::replan::ReplanRecommendation, ProvisionError> {
        let target = self.recommend(solver)?;
        crate::replan::plan_migration_with(&self.context(), current, target, opts)
    }

    /// Spread the migration over recurring maintenance windows of
    /// `window_seconds` each by plan continuation: every window replans
    /// from the previous window's final layout with the window length as
    /// its wall-clock ceiling. See [`crate::replan::plan_windowed_rollout`].
    pub fn replan_rollout(
        &self,
        current: &Layout,
        solver: &str,
        opts: &crate::replan::ReplanOptions,
        window_seconds: f64,
    ) -> Result<crate::replan::WindowedRollout, ProvisionError> {
        let target = self.recommend(solver)?;
        crate::replan::plan_windowed_rollout(&self.context(), current, target, opts, window_seconds)
    }

    /// Evaluate an arbitrary labelled layout against this session's
    /// constraints — the figure-bar path of the experiment harness, which
    /// needs numbers even for layouts that violate the SLA. Priced through
    /// the session's estimator, so its compiled templates are reused.
    pub fn evaluate_layout(&self, label: &str, layout: &Layout) -> LayoutEvaluation {
        report::evaluate_with(
            &self.problem,
            self.constraints(),
            label,
            layout,
            &self.estimator(),
        )
    }

    /// Derive a sibling session at a different uniform SLA, **sharing this
    /// session's workload profile** (profiles are SLA-independent, §3.4).
    /// Constraints are re-derived for the new SLA; per-query SLAs, if any,
    /// are not carried over.
    pub fn with_sla(&self, ratio: f64) -> Advisor<'a> {
        self.sibling(self.problem.clone().with_sla(SlaSpec::relative(ratio)))
    }

    /// Derive a sibling session under a different layout-cost model,
    /// sharing the workload profile (profiles depend on placement and
    /// timing, never on prices). The §5.2 α-sweep uses this.
    pub fn with_cost_model(&self, model: LayoutCostModel) -> Advisor<'a> {
        self.sibling(self.problem.clone().with_cost_model(model))
    }

    fn sibling(&self, problem: Problem<'a>) -> Advisor<'a> {
        // Force the shared one-time computation, and with it the plan memo
        // it plans through, so both cells are filled before they are cloned.
        self.profile();
        Advisor {
            problem,
            source: self.source,
            refinements: self.refinements,
            diagnostics: self.diagnostics,
            per_query_slas: None,
            registry: Rc::clone(&self.registry),
            profile: self.profile.clone(),
            constraints: OnceCell::new(),
            profile_builds: Rc::clone(&self.profile_builds),
            plans: self.plans.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dot_storage::catalog;
    use dot_workloads::synth;

    fn setup() -> (
        dot_dbms::Schema,
        dot_storage::StoragePool,
        dot_workloads::Workload,
    ) {
        let s = synth::bench_schema(5_000_000.0, 120.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        (s, pool, w)
    }

    #[test]
    fn profile_is_computed_once_across_solvers_and_sla_siblings() {
        let (s, pool, w) = setup();
        let advisor = Advisor::builder(&s, &pool, &w).sla(0.5).build().unwrap();
        assert_eq!(advisor.profile_builds(), 0, "profile is lazy");
        let _ = advisor.recommend("dot").unwrap();
        let _ = advisor.recommend("oa").unwrap();
        let sibling = advisor.with_sla(0.25);
        let _ = sibling.recommend("dot").unwrap();
        assert_eq!(advisor.profile_builds(), 1);
        assert_eq!(sibling.profile_builds(), 1);
    }

    #[test]
    fn default_sessions_share_one_registry_and_a_custom_one_wins() {
        struct Echo;
        impl Solver for Echo {
            fn id(&self) -> &str {
                "echo"
            }
            fn describe(&self) -> String {
                "echoes nothing".into()
            }
            fn solve(&self, _: &SolveContext<'_, '_>) -> Result<Recommendation, ProvisionError> {
                Err(ProvisionError::InvalidRequest {
                    reason: "echo".into(),
                })
            }
        }
        let (s, pool, w) = setup();
        let a = Advisor::builder(&s, &pool, &w).build().unwrap();
        let b = Advisor::builder(&s, &pool, &w).sla(0.25).build().unwrap();
        let problem = Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let c = Advisor::for_problem(&problem, ProfileSource::Estimate);
        assert!(Rc::ptr_eq(&a.registry, &b.registry));
        assert!(Rc::ptr_eq(&a.registry, &c.registry));
        assert_eq!(a.solver_ids(), Registry::builtin().ids());

        let mut custom = Registry::new();
        custom.register(Box::new(Echo));
        let d = Advisor::builder(&s, &pool, &w)
            .registry(custom)
            .build()
            .unwrap();
        assert!(!Rc::ptr_eq(&a.registry, &d.registry));
        assert_eq!(d.solver_ids(), ["echo"]);
        let err = d.recommend("echo").unwrap_err();
        assert_eq!(err.kind(), "invalid-request");
        assert!(matches!(
            d.recommend("dot"),
            Err(ProvisionError::UnknownSolver { .. })
        ));
        // The shared registry is untouched by the custom session.
        assert!(a.solver_ids().iter().any(|id| id == "dot"));
    }

    #[test]
    fn unsupported_searches_refuse_before_profiling() {
        let (schema, workload) = presets::database("tpch:1:original").unwrap();
        let pool = catalog::full_pool();
        let advisor = Advisor::builder(&schema, &pool, &workload).build().unwrap();
        for id in ["es", "es-additive"] {
            let err = advisor.recommend(id).unwrap_err();
            let ProvisionError::UnsupportedWorkload { solver, .. } = &err else {
                panic!("{id}: wrong variant: {err:?}");
            };
            assert_eq!(solver, id);
            // The refusal is the one a solve itself reports.
            let solver = Registry::builtin();
            let solver = solver.get(id).unwrap();
            assert_eq!(solver.solve(&advisor.context()).unwrap_err(), err);
        }
        let fresh = Advisor::builder(&schema, &pool, &workload).build().unwrap();
        assert!(fresh.recommend("es").is_err());
        assert_eq!(fresh.profile_builds(), 0, "refused before profiling");
        assert!(!fresh.plans().is_compiled());
    }

    #[test]
    fn oversized_database_is_a_typed_capacity_error() {
        let (s, mut pool, w) = setup();
        for class in ["HDD", "L-SSD RAID 0", "H-SSD"] {
            pool.set_capacity(class, 0.001);
        }
        let err = match Advisor::builder(&s, &pool, &w).build() {
            Ok(_) => panic!("oversized database must not build"),
            Err(e) => e,
        };
        assert!(matches!(err, ProvisionError::CapacityExceeded { .. }));
    }

    #[test]
    fn unknown_solver_lists_known_ids() {
        let (s, pool, w) = setup();
        let advisor = Advisor::builder(&s, &pool, &w).build().unwrap();
        let err = advisor.recommend("simplex").unwrap_err();
        let ProvisionError::UnknownSolver { name, known } = err else {
            panic!("wrong variant: {err:?}");
        };
        assert_eq!(name, "simplex");
        assert!(known.iter().any(|k| k == "dot"));
    }

    #[test]
    fn recommendation_serializes_with_integer_elapsed_and_bill() {
        let (s, pool, w) = setup();
        let advisor = Advisor::builder(&s, &pool, &w).sla(0.25).build().unwrap();
        let rec = advisor.recommend("dot").unwrap();
        let billed: f64 = rec.bill.iter().map(|b| b.cents_per_hour).sum();
        assert!((billed - rec.estimate.layout_cost_cents_per_hour).abs() < 1e-9);
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("\"elapsed_ms\""), "elapsed must serialize");
        let back: Recommendation = serde_json::from_str(&json).unwrap();
        assert_eq!(back.provenance.elapsed_ms, rec.provenance.elapsed_ms);
        assert_eq!(back.layout, rec.layout);
    }

    #[test]
    fn per_query_slas_build_per_query_caps() {
        let (s, pool, w) = setup();
        let ratios: Vec<f64> = (0..w.queries.len())
            .map(|i| if i == 0 { 0.9 } else { 0.25 })
            .collect();
        let advisor = Advisor::builder(&s, &pool, &w)
            .per_query_slas(ratios.clone())
            .build()
            .unwrap();
        let cons = advisor.constraints();
        let caps = cons.response_caps_ms.as_ref().unwrap();
        for ((cap, t), ratio) in caps.iter().zip(&cons.reference.per_query_ms).zip(&ratios) {
            assert!((cap - t / ratio).abs() < 1e-9);
        }
    }

    #[test]
    fn mismatched_per_query_slas_are_invalid() {
        let (s, pool, w) = setup();
        let err = Advisor::builder(&s, &pool, &w)
            .per_query_slas(vec![0.5])
            .build()
            .err();
        assert!(matches!(err, Some(ProvisionError::InvalidRequest { .. })));
    }
}

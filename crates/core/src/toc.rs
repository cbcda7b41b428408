//! `estimateTOC`: price a candidate layout (§2.1, §2.3).
//!
//! `TOC = C(L) · t(L, W)` where `t` is the workload execution time under
//! the layout. Estimates go through the storage-aware planner; measured
//! values (for validation) go through the execution simulator with the
//! buffer pool engaged.
//!
//! [`estimate_toc`] is a pure function of the problem and the layout, and
//! every optimizer in the crate calls it in its inner loop — DOT's greedy
//! sweep, both ES variants, the ablation grid, and the SLA sweep. A
//! session's [`Estimator`] prices each candidate from the session's
//! [`PlanMemo`]: every query's template is compiled once, and a layout only
//! re-prices its candidate plans (a few µs per layout). Template estimates
//! are bit-identical to [`estimate_toc`], which stays the memo-free
//! reference (`tests/plan_memo_props.rs`).

use crate::problem::Problem;
use dot_dbms::memo::{Abandon, PlanMemo, Pricer, TrialBounds};
use dot_dbms::plan::PlanStats;
use dot_dbms::query::QuerySpec;
use dot_dbms::{exec, Layout};
use dot_workloads::spec::PerfMetric;
use dot_workloads::Workload;
use serde::{Deserialize, Serialize};

/// The replan-reuse counters, re-exported under the path the whole-layout
/// estimate cache they replaced used to live at (kept only for source
/// compatibility; see [`crate::controller::CachedEstimator`]).
pub use crate::controller::{CacheStats, CachedEstimator};

/// Everything `estimateTOC` knows about one layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TocEstimate {
    /// Hourly layout cost `C(L)` in cents (under the problem's cost model).
    pub layout_cost_cents_per_hour: f64,
    /// One stream's pass time in ms.
    pub stream_time_ms: f64,
    /// Single-execution response time per query, parallel to
    /// `workload.queries`.
    pub per_query_ms: Vec<f64>,
    /// Workload throughput `T(L, W)` in tasks/hour.
    pub throughput_tasks_per_hour: f64,
    /// `C(L) · t(L, W)` in cents for one pass of the workload.
    pub toc_cents_per_pass: f64,
    /// `C(L) / T(L, W)` in cents per task — the paper's headline unit.
    pub toc_cents_per_task: f64,
    /// The quantity DOT minimizes, in cents. For response-time (DSS)
    /// workloads this is `C(L) · t(L, W)` — hardware cost over the time the
    /// workload occupies it. For throughput (OLTP) workloads the paper runs
    /// a **fixed measurement period** (one hour, §4.5), so the objective is
    /// `C(L) · 1 h`: minimize layout cost subject to the throughput floor.
    pub objective_cents: f64,
    /// Plan statistics (INLJ share etc., §4.4.2).
    pub plan_stats: PlanStats,
}

impl TocEstimate {
    /// The estimate of a run under a layout whose `C(L)` is `layout_cost`.
    fn from_run(problem: &Problem<'_>, layout_cost: f64, run: exec::RunResult) -> TocEstimate {
        let per_query_ms = run.queries.iter().map(|q| q.time_ms).collect();
        TocEstimate::from_times(
            problem,
            layout_cost,
            run.stream_time_ms,
            per_query_ms,
            run.stats,
        )
    }

    fn from_times(
        problem: &Problem<'_>,
        layout_cost: f64,
        stream_time_ms: f64,
        per_query_ms: Vec<f64>,
        plan_stats: PlanStats,
    ) -> TocEstimate {
        let throughput = problem.workload.throughput_tasks_per_hour(stream_time_ms);
        let hours = problem.workload.execution_hours(stream_time_ms);
        let toc_cents_per_pass = layout_cost * hours;
        let objective_cents = match problem.workload.metric {
            PerfMetric::ResponseTime => toc_cents_per_pass,
            // §4.5: OLTP runs a fixed 1-hour measurement period.
            PerfMetric::Throughput => layout_cost,
        };
        TocEstimate {
            layout_cost_cents_per_hour: layout_cost,
            stream_time_ms,
            per_query_ms,
            throughput_tasks_per_hour: throughput,
            toc_cents_per_pass,
            toc_cents_per_task: if throughput > 0.0 {
                layout_cost / throughput
            } else {
                f64::INFINITY
            },
            objective_cents,
            plan_stats,
        }
    }

    /// Re-target this estimate — computed for some layout under the delta's
    /// *anchor* problem — to the delta's *observed* problem. The result is
    /// **bit-identical** to a full [`estimate_toc`] of the same layout under
    /// the observed problem, at the cost of one pass over the per-query
    /// times instead of a planner run (the delta's existence proves the
    /// planner would produce the same per-query times; see
    /// [`ProblemDelta::between`]).
    pub fn apply_delta(&self, delta: &ProblemDelta<'_>) -> TocEstimate {
        let w = delta.workload;
        // Re-accumulate the stream time exactly as the planner does: in
        // query order, starting from zero.
        let mut stream_time_ms = 0.0f64;
        for (time_ms, q) in self.per_query_ms.iter().zip(&w.queries) {
            stream_time_ms += time_ms * q.weight;
        }
        let layout_cost = self.layout_cost_cents_per_hour;
        let throughput = w.throughput_tasks_per_hour(stream_time_ms);
        let hours = w.execution_hours(stream_time_ms);
        let toc_cents_per_pass = layout_cost * hours;
        let objective_cents = match w.metric {
            PerfMetric::ResponseTime => toc_cents_per_pass,
            PerfMetric::Throughput => layout_cost,
        };
        TocEstimate {
            layout_cost_cents_per_hour: layout_cost,
            stream_time_ms,
            per_query_ms: self.per_query_ms.clone(),
            throughput_tasks_per_hour: throughput,
            toc_cents_per_pass,
            toc_cents_per_task: if throughput > 0.0 {
                layout_cost / throughput
            } else {
                f64::INFINITY
            },
            objective_cents,
            plan_stats: self.plan_stats,
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental re-estimation
// ---------------------------------------------------------------------------

/// A validated workload delta between an *anchor* problem and an *observed*
/// one, within which [`TocEstimate::apply_delta`] is **exact**.
///
/// [`ProblemDelta::between`] admits exactly the shifts the reweighting
/// drift generators (`dot_workloads::drift`) produce: per-query `weight`,
/// stream `concurrency`, and `tasks_per_stream` may differ, while
/// everything the planner reads — schema, pool, engine configuration, cost
/// model, and the queries' shapes — must be unchanged. Inside that
/// envelope an anchor estimate's per-query times and plan statistics still
/// hold verbatim, and the derived quantities are recomputed through the
/// observed workload's own formulas, so the re-targeted estimate is
/// bit-identical to a full [`estimate_toc`] (pinned by the property suite
/// in `tests/toc_delta_props.rs`). A shift outside the envelope — e.g. a
/// phase change to different queries — yields `None`: that is the validity
/// bound, and callers fall back to full recomputation.
#[derive(Debug, Clone, Copy)]
pub struct ProblemDelta<'a> {
    /// The observed workload estimates are re-targeted to.
    workload: &'a Workload,
}

impl<'a> ProblemDelta<'a> {
    /// Validate that `observed` differs from `anchor` only by reweighting,
    /// returning the delta if so and `None` (recompute in full) otherwise.
    pub fn between(anchor: &Problem<'_>, observed: &Problem<'a>) -> Option<ProblemDelta<'a>> {
        // The planner inputs must match: schema and pool by identity
        // (distinct-but-equal instances conservatively recompute), engine
        // configuration and cost model by value.
        if !std::ptr::eq(anchor.schema, observed.schema)
            || !std::ptr::eq(anchor.pool, observed.pool)
            || anchor.cfg != observed.cfg
            || anchor.cost_model != observed.cost_model
        {
            return None;
        }
        let (a, o) = (anchor.workload, observed.workload);
        if a.metric != o.metric || a.queries.len() != o.queries.len() {
            return None;
        }
        // Queries must match modulo weight: the weight scales only the
        // stream-time accumulation, never the per-query plan. A NaN
        // observed weight matches nothing.
        for (qa, qo) in a.queries.iter().zip(&o.queries) {
            let QuerySpec { name, ops, weight } = qo;
            if *name != qa.name || *ops != qa.ops || weight.is_nan() {
                return None;
            }
        }
        Some(ProblemDelta { workload: o })
    }

    /// The delta to `observed` from an anchor its caller already knows to
    /// be inside the envelope: a problem over the same schema, pool, engine
    /// configuration and cost model, whose workload is a reweighting of the
    /// same queries — the controller's proof is that both are reweightings
    /// of one trace phase. `observed`'s weights must not be NaN.
    pub(crate) fn reweighting(observed: &'a Workload) -> ProblemDelta<'a> {
        ProblemDelta { workload: observed }
    }

    /// The observed workload this delta re-targets estimates to.
    pub fn workload(&self) -> &'a Workload {
        self.workload
    }
}

/// Estimate the TOC of `layout` through the storage-aware planner (the
/// optimization phase's inner loop — deterministic, memo-free).
pub fn estimate_toc(problem: &Problem<'_>, layout: &Layout) -> TocEstimate {
    estimate_toc_at_cost(problem, layout, problem.layout_cost_cents_per_hour(layout))
}

/// [`estimate_toc`] of a layout whose `C(L)` is already known.
fn estimate_toc_at_cost(problem: &Problem<'_>, layout: &Layout, layout_cost: f64) -> TocEstimate {
    let run = exec::estimate_workload(
        &problem.workload.queries,
        problem.schema,
        layout,
        problem.pool,
        &problem.cfg,
    );
    TocEstimate::from_run(problem, layout_cost, run)
}

/// [`estimate_toc`] over the session's compiled templates: the choose
/// step yields each query's `est_time_ms` — the very sum `exec::assemble`
/// computes from the plan — and the stream time accumulates in the same
/// order, so the estimate is bit-identical without materializing a plan.
fn estimate_planned(problem: &Problem<'_>, layout: &Layout, plans: &PlanMemo<'_>) -> TocEstimate {
    let (per_query_ms, plan_stats) = plans.estimate(layout);
    let layout_cost = problem.layout_cost_cents_per_hour(layout);
    from_query_times(problem, layout_cost, per_query_ms, plan_stats)
}

/// The estimate whose queries take `per_query_ms` under a layout whose
/// `C(L)` is `layout_cost`, with the stream time accumulated in workload
/// order as `exec::assemble` does.
fn from_query_times(
    problem: &Problem<'_>,
    layout_cost: f64,
    per_query_ms: Vec<f64>,
    plan_stats: PlanStats,
) -> TocEstimate {
    let mut stream_time_ms = 0.0;
    for (time_ms, q) in per_query_ms.iter().zip(&problem.workload.queries) {
        stream_time_ms += time_ms * q.weight;
    }
    TocEstimate::from_times(
        problem,
        layout_cost,
        stream_time_ms,
        per_query_ms,
        plan_stats,
    )
}

/// [`measure_toc`] over the session's templates: the test run prices the
/// templates' chosen counts through the buffer pool without materializing
/// a plan ([`PlanMemo::test_run`]), exactly as `exec::simulate_workload`
/// prices the plans.
fn measure_planned(
    problem: &Problem<'_>,
    layout: &Layout,
    seed: u64,
    plans: &PlanMemo<'_>,
) -> TocEstimate {
    let run = plans.test_run(layout, seed);
    TocEstimate::from_times(
        problem,
        problem.layout_cost_cents_per_hour(layout),
        run.stream_time_ms,
        run.per_query_ms,
        run.stats,
    )
}

/// Measure the TOC of `layout` with a simulated test run (the validation
/// phase): buffer pool engaged, seeded run-to-run variation.
///
/// # Seed contract
///
/// The run-to-run variation is derived **only** from `seed` (and the
/// problem/layout inputs): no global RNG, no time source, no thread-local
/// state. The same `(problem, layout, seed)` triple therefore yields a
/// bit-identical [`TocEstimate`] no matter which thread computes it or how
/// many worker threads (e.g. a [fleet](crate::fleet) pool) run
/// concurrently. Validation results stay reproducible under parallel batch
/// provisioning; `measured_toc_is_deterministic_across_thread_counts`
/// below pins this down.
pub fn measure_toc(problem: &Problem<'_>, layout: &Layout, seed: u64) -> TocEstimate {
    let run = exec::simulate_workload(
        &problem.workload.queries,
        problem.schema,
        layout,
        problem.pool,
        &problem.cfg,
        seed,
    );
    TocEstimate::from_run(problem, problem.layout_cost_cents_per_hour(layout), run)
}

// ---------------------------------------------------------------------------
// Dominance pruning support
// ---------------------------------------------------------------------------

/// Relative safety margin the bounds concede to floating-point
/// accumulation: per-query times are monotone under pointwise device
/// dominance only up to rounding, so a time bound derived from another
/// layout's times is shaved by this factor before it prunes anything. The
/// exhaustive search's block cut shaves its cost bound by the same factor
/// (see `exhaustive::BlockCut`).
pub(crate) const TIME_BOUND_MARGIN: f64 = 1e-6;

/// Pointwise dominance between a pool's classes at one degree of
/// concurrency: class `a` is *no faster* than class `b` when its latency
/// is at least `b`'s on every I/O pattern. Moving an object to a class
/// that is no faster never makes a query faster (up to
/// [`TIME_BOUND_MARGIN`]): every candidate plan's price is a sum of
/// non-negative counts times latencies, and the planner picks the
/// cheapest.
#[derive(Debug, Clone)]
pub(crate) struct Dominance {
    classes: usize,
    /// `no_faster[a · M + b]`.
    no_faster: Vec<bool>,
}

impl Dominance {
    /// The dominance of `problem`'s pool at its engine's concurrency.
    pub(crate) fn new(problem: &Problem<'_>) -> Dominance {
        let classes = problem.pool.classes();
        let concurrency = problem.cfg.concurrency;
        let mut no_faster = Vec::with_capacity(classes.len() * classes.len());
        for a in classes {
            for b in classes {
                no_faster.push(dot_storage::IO_TYPES.iter().all(|&io| {
                    a.profile.latency_ms(io, concurrency) >= b.profile.latency_ms(io, concurrency)
                }));
            }
        }
        Dominance {
            classes: classes.len(),
            no_faster,
        }
    }

    /// Whether class `a` is no faster than class `b` at any I/O pattern.
    pub(crate) fn no_faster(&self, a: usize, b: usize) -> bool {
        self.no_faster[a * self.classes + b]
    }

    /// Whether every class is no faster than `top`.
    pub(crate) fn dominates_all(&self, top: usize) -> bool {
        (0..self.classes).all(|c| self.no_faster(c, top))
    }
}

/// Deterministic work one search did, beside the counters its outcome
/// reports: what a certified cut saves shows here, while the outcome's
/// `layouts_investigated` and `layouts_pruned` stay those of the
/// per-candidate search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchWork {
    /// Query templates chosen and priced, in estimates and trials alike
    /// (a memo-free estimate prices every query).
    pub templates_priced: usize,
    /// Candidates the search looked at one at a time: every enumerated
    /// candidate except those a block cut skipped as a whole.
    pub layouts_visited: usize,
}

/// An analytic, memo-independent lower bound on any candidate layout's
/// [`TocEstimate::objective_cents`] — the branch-and-bound cut behind the
/// optimizers' dominance pruning.
///
/// - **Throughput** (OLTP, §4.5): the objective *is* `C(L)`, so the bound
///   (the candidate's layout cost) is exact.
/// - **Response time** (DSS): the objective is `C(L) · t(L, W)`. When the
///   premium class pointwise-dominates every class in the pool — no higher
///   latency on any I/O pattern at the workload's concurrency — no layout
///   can stream faster than the all-premium reference, so
///   `C(L) · hours(t(L_0, W))` bounds the objective from below (shaved by
///   `TIME_BOUND_MARGIN`, a one-ulp-scale safety factor against float
///   reassociation). Without pointwise dominance the bound
///   disables itself and nothing is pruned.
///
/// A candidate whose bound already meets the incumbent best objective can
/// be skipped without estimating: every optimizer accepts strictly better
/// objectives only, so the skip cannot change the returned layout — pruned
/// and unpruned sweeps are bit-identical (`tests/pruning_props.rs`). The
/// bound reads only the problem and the premium reference estimate, never
/// a memo, so pruning counters never depend on how estimates were priced.
#[derive(Debug, Clone, Copy)]
pub struct ObjectiveBound {
    mode: BoundMode,
}

#[derive(Debug, Clone, Copy)]
enum BoundMode {
    /// Throughput metric: the objective equals the layout cost.
    LayoutCost,
    /// Response-time metric with a dominance-backed stream-time floor.
    CostTimesHours {
        /// Lower bound on any candidate's execution hours.
        min_hours: f64,
    },
    /// Response-time metric without pointwise dominance: prune nothing.
    Disabled,
}

impl ObjectiveBound {
    /// Build the bound from the all-premium reference estimate (`premium`
    /// must be the estimate of [`Problem::premium_layout`], which every
    /// sweep computes anyway).
    pub fn new(problem: &Problem<'_>, premium: &TocEstimate) -> ObjectiveBound {
        let mode = match problem.workload.metric {
            PerfMetric::Throughput => BoundMode::LayoutCost,
            PerfMetric::ResponseTime => {
                let top = problem.pool.most_expensive().0;
                if Dominance::new(problem).dominates_all(top) {
                    BoundMode::CostTimesHours {
                        min_hours: problem.workload.execution_hours(premium.stream_time_ms)
                            * (1.0 - TIME_BOUND_MARGIN),
                    }
                } else {
                    BoundMode::Disabled
                }
            }
        };
        ObjectiveBound { mode }
    }

    /// Lower bound on `layout`'s objective in cents, or `None` when this
    /// problem admits no pruning.
    pub fn lower_bound(&self, problem: &Problem<'_>, layout: &Layout) -> Option<f64> {
        self.scale(|| problem.layout_cost_cents_per_hour(layout))
    }

    /// [`lower_bound`](Self::lower_bound) of any layout whose `S_j` vector
    /// ([`Layout::space_per_class`]) is `space`, bit for bit.
    pub fn lower_bound_of_space(&self, problem: &Problem<'_>, space: &[f64]) -> Option<f64> {
        self.scale(|| problem.cost_model.cost_of_space(space, problem.pool))
    }

    /// The bound of a layout whose cost `cost` computes, or `None` (and
    /// `cost` not run) when this bound prunes nothing.
    fn scale(&self, cost: impl FnOnce() -> f64) -> Option<f64> {
        match self.mode {
            BoundMode::LayoutCost => Some(cost()),
            BoundMode::CostTimesHours { min_hours } => Some(cost() * min_hours),
            BoundMode::Disabled => None,
        }
    }

    /// Whether this bound can prune at all.
    pub fn is_active(&self) -> bool {
        !matches!(self.mode, BoundMode::Disabled)
    }
}

/// How an optimizer obtains TOC estimates: priced from a session's
/// compiled templates ([`memoized`](Self::memoized)) for every problem its
/// [`PlanMemo`] [serves](PlanMemo::serves), and planned from scratch
/// ([`estimate_toc`]) otherwise — so a mismatched memo can never change an
/// answer. `Copy`; a sweep over many layouts of one problem takes a
/// [`pricer`](Self::pricer) instead.
#[derive(Debug, Clone, Copy)]
pub struct Estimator<'c> {
    plans: Option<&'c PlanMemo<'c>>,
}

impl<'c> Estimator<'c> {
    /// The memo-free estimator: every call runs the planner over the whole
    /// workload ([`estimate_toc`]).
    pub fn direct() -> Estimator<'static> {
        Estimator { plans: None }
    }

    /// This estimator, pricing through `plans` wherever it would run the
    /// planner.
    pub fn memoized<'m>(self, plans: &'m PlanMemo<'m>) -> Estimator<'m>
    where
        'c: 'm,
    {
        Estimator { plans: Some(plans) }
    }

    /// Estimate `layout`'s TOC under `problem`.
    pub fn estimate(&self, problem: &Problem<'_>, layout: &Layout) -> TocEstimate {
        match self.plans_for(problem) {
            Some(plans) => estimate_planned(problem, layout, plans),
            None => estimate_toc(problem, layout),
        }
    }

    /// [`measure_toc`] through the attached memo: a validation run prices
    /// plans chosen from the session's templates through the buffer pool,
    /// bit-identical to [`measure_toc`].
    pub fn measure(&self, problem: &Problem<'_>, layout: &Layout, seed: u64) -> TocEstimate {
        match self.plans_for(problem) {
            Some(plans) => measure_planned(problem, layout, seed, plans),
            None => measure_toc(problem, layout, seed),
        }
    }

    /// An incremental pricer for a run of `problem`'s layouts (see
    /// [`TocPricer`]).
    pub fn pricer<'p>(&self, problem: &'p Problem<'p>) -> TocPricer<'c, 'p> {
        TocPricer {
            problem,
            plans: self.plans_for(problem).map(PlanMemo::pricer),
            planned: 0,
        }
    }

    fn plans_for(&self, problem: &Problem<'_>) -> Option<&'c PlanMemo<'c>> {
        self.plans.filter(|plans| {
            plans.serves(
                &problem.workload.queries,
                problem.schema,
                problem.pool,
                &problem.cfg,
            )
        })
    }
}

/// [`Estimator::estimate`] for a sweep: one problem, layout after layout.
/// Where the estimator's memo serves the problem, each layout re-prices
/// only the queries whose objects changed class since the layout last
/// committed (see [`Pricer`]); otherwise every layout runs
/// [`estimate_toc`]. Either way each estimate is bit-identical to
/// [`estimate_toc`]'s. [`estimate`](Self::estimate) commits the layout it
/// prices; [`trial`](Self::trial) does not, until [`commit`](Self::commit).
#[derive(Debug)]
pub struct TocPricer<'m, 'p> {
    problem: &'p Problem<'p>,
    plans: Option<Pricer<'m>>,
    /// Queries planned by memo-free estimates.
    planned: usize,
}

impl TocPricer<'_, '_> {
    /// Estimate `layout`'s TOC under the pricer's problem.
    pub fn estimate(&mut self, layout: &Layout) -> TocEstimate {
        let layout_cost = self.problem.layout_cost_cents_per_hour(layout);
        self.estimate_at_cost(layout, layout_cost)
    }

    /// [`estimate`](Self::estimate) of a layout whose `S_j` vector
    /// ([`Layout::space_per_class`]) is `space`: `C(L)` is costed from it
    /// instead of summed again, bit for bit the same.
    pub fn estimate_of_space(&mut self, layout: &Layout, space: &[f64]) -> TocEstimate {
        let layout_cost = self
            .problem
            .cost_model
            .cost_of_space(space, self.problem.pool);
        self.estimate_at_cost(layout, layout_cost)
    }

    /// [`estimate_of_space`](Self::estimate_of_space) of a candidate,
    /// priced against the committed layout without committing it
    /// ([`Pricer::trial`]). The estimate's per-query times are written
    /// into `per_query_ms`, a spare buffer (a rejected trial's, say) whose
    /// allocation the estimate takes over. Without a memo this is a full
    /// estimate.
    pub fn trial(&mut self, layout: &Layout, space: &[f64], per_query_ms: Vec<f64>) -> TocEstimate {
        let layout_cost = self
            .problem
            .cost_model
            .cost_of_space(space, self.problem.pool);
        match &mut self.plans {
            Some(plans) => {
                let mut times = per_query_ms;
                let plan_stats = plans.trial(layout, &mut times);
                from_query_times(self.problem, layout_cost, times, plan_stats)
            }
            None => self.estimate_direct(layout, layout_cost),
        }
    }

    /// [`trial`](Self::trial) of a candidate whose `C(L)` is
    /// `layout_cost`, abandoned as soon as it certainly loses under
    /// `bounds` ([`Pricer::trial_within`]). A priced trial's estimate takes
    /// over `spare`'s allocation; an abandoned one leaves it in `spare`.
    /// Without a memo this is a full estimate, never abandoned.
    pub(crate) fn trial_within<H: Fn(f64) -> bool>(
        &mut self,
        layout: &Layout,
        layout_cost: f64,
        spare: &mut Vec<f64>,
        bounds: &TrialBounds<'_, H>,
    ) -> Result<TocEstimate, Abandon> {
        match &mut self.plans {
            Some(plans) => {
                let plan_stats = plans.trial_within(layout, spare, bounds)?;
                let times = std::mem::take(spare);
                Ok(from_query_times(
                    self.problem,
                    layout_cost,
                    times,
                    plan_stats,
                ))
            }
            None => Ok(self.estimate_direct(layout, layout_cost)),
        }
    }

    /// Query templates this pricer has chosen and priced
    /// ([`Pricer::templates_priced`]); without a memo, every query of
    /// every estimate.
    pub fn templates_priced(&self) -> usize {
        match &self.plans {
            Some(plans) => plans.templates_priced(),
            None => self.planned,
        }
    }

    /// Commit the last [`trial`](Self::trial)'s layout ([`Pricer::commit`]);
    /// a no-op without a memo.
    pub fn commit(&mut self) {
        if let Some(plans) = &mut self.plans {
            plans.commit();
        }
    }

    fn estimate_at_cost(&mut self, layout: &Layout, layout_cost: f64) -> TocEstimate {
        match &mut self.plans {
            Some(plans) => {
                let (per_query_ms, plan_stats) = plans.estimate(layout);
                from_query_times(self.problem, layout_cost, per_query_ms, plan_stats)
            }
            None => self.estimate_direct(layout, layout_cost),
        }
    }

    fn estimate_direct(&mut self, layout: &Layout, layout_cost: f64) -> TocEstimate {
        self.planned += self.problem.workload.queries.len();
        estimate_toc_at_cost(self.problem, layout, layout_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dot_dbms::EngineConfig;
    use dot_storage::catalog;
    use dot_workloads::{synth, SlaSpec};

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
    fn premium_layout_is_fast_but_expensive() {
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let premium = estimate_toc(&p, &p.premium_layout());
        let hdd =
            dot_dbms::Layout::uniform(pool.class_by_name("HDD").unwrap().id, s.object_count());
        let cheap = estimate_toc(&p, &hdd);
        assert!(premium.stream_time_ms < cheap.stream_time_ms);
        assert!(premium.layout_cost_cents_per_hour > cheap.layout_cost_cents_per_hour);
        assert_eq!(premium.per_query_ms.len(), w.queries.len());
    }

    #[test]
    fn toc_units_are_consistent() {
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let est = estimate_toc(&p, &p.premium_layout());
        // cents/pass = C(L) [c/h] * t [h].
        let hours = est.stream_time_ms / 3_600_000.0;
        assert!((est.toc_cents_per_pass - est.layout_cost_cents_per_hour * hours).abs() < 1e-12);
        // cents/task * tasks/hour = cents/hour.
        assert!(
            (est.toc_cents_per_task * est.throughput_tasks_per_hour
                - est.layout_cost_cents_per_hour)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn estimate_time_monotone_under_device_dominance() {
        // Cheaper device ⇒ no lower time estimate, whenever "cheaper" also
        // means pointwise slower: if class `b` is at least as fast as class
        // `a` at all four I/O patterns (at the workload's concurrency), no
        // query may be estimated slower on uniform-`b` than on uniform-`a`.
        // (Plain price order is NOT enough — per Table 1 the low-end SSD is
        // pricier than HDD yet slower at random writes.)
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let concurrency = p.cfg.concurrency;
        let estimates: Vec<(usize, TocEstimate)> = pool
            .classes()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    i,
                    estimate_toc(&p, &dot_dbms::Layout::uniform(c.id, s.object_count())),
                )
            })
            .collect();
        let mut dominated_pairs = 0;
        for (ia, ea) in &estimates {
            for (ib, eb) in &estimates {
                let (a, b) = (&pool.classes()[*ia], &pool.classes()[*ib]);
                let b_dominates = dot_storage::IO_TYPES.iter().all(|&io| {
                    b.profile.latency_ms(io, concurrency) <= a.profile.latency_ms(io, concurrency)
                });
                if ia == ib || !b_dominates {
                    continue;
                }
                dominated_pairs += 1;
                assert!(
                    eb.stream_time_ms <= ea.stream_time_ms * (1.0 + 1e-9),
                    "{} dominates {} but streams slower",
                    b.name,
                    a.name
                );
                for (fast, slow) in eb.per_query_ms.iter().zip(&ea.per_query_ms) {
                    assert!(
                        fast <= &(slow * (1.0 + 1e-9)),
                        "{} dominates {} but a query got slower ({fast} > {slow})",
                        b.name,
                        a.name
                    );
                }
            }
        }
        // Box 2 must contain at least one dominated pair (H-SSD is the
        // paper's strictly fastest device at every pattern).
        assert!(
            dominated_pairs >= 2,
            "only {dominated_pairs} dominated pairs"
        );
    }

    #[test]
    fn throughput_objective_is_layout_cost() {
        // §4.5: under a throughput metric the measurement period is fixed at
        // one hour, so the objective reduces to C(L) itself.
        let (s, pool, _) = setup();
        let w = dot_workloads::Workload::oltp(
            "synth-oltp",
            vec![
                synth::rand_read_query(&s, 100.0),
                synth::rand_write_query(&s, 100.0),
            ],
            8,
            1000.0,
        );
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::oltp());
        let layout = p.premium_layout();
        let est = estimate_toc(&p, &layout);
        assert_eq!(
            p.workload.metric,
            dot_workloads::spec::PerfMetric::Throughput
        );
        assert!((est.objective_cents - est.layout_cost_cents_per_hour).abs() < 1e-12);
    }

    #[test]
    fn measured_toc_is_reproducible_per_seed() {
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let l = p.premium_layout();
        assert_eq!(measure_toc(&p, &l, 1), measure_toc(&p, &l, 1));
    }

    #[test]
    fn measured_toc_is_deterministic_across_thread_counts() {
        // The seed contract: the same (problem, layout, seed) triple is
        // bit-identical whether computed serially or by any number of
        // concurrent workers — fleet validation must not drift with the
        // worker-pool size.
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let l = p.premium_layout();
        let serial = measure_toc(&p, &l, 42);
        for workers in [1usize, 2, 8] {
            let measured: Vec<TocEstimate> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| scope.spawn(|| measure_toc(&p, &l, 42)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("measure worker"))
                    .collect()
            });
            for m in measured {
                assert_eq!(m, serial, "{workers} workers drifted from serial");
            }
        }
    }

    #[test]
    fn apply_delta_matches_full_recompute_bitwise() {
        let (s, pool, w) = setup();
        let anchor =
            crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        for shift in [-0.3, -0.05, 0.1, 0.4] {
            let shifted = dot_workloads::drift::shift_read_write(&w, shift);
            let observed = crate::Problem::new(
                &s,
                &pool,
                &shifted,
                SlaSpec::relative(0.5),
                EngineConfig::dss(),
            );
            let delta = ProblemDelta::between(&anchor, &observed).expect("representable shift");
            for layout in pool.ids().map(|c| Layout::uniform(c, s.object_count())) {
                let base = estimate_toc(&anchor, &layout);
                let full = estimate_toc(&observed, &layout);
                assert_eq!(base.apply_delta(&delta), full, "shift {shift}");
            }
        }
        // A phase change swaps the query set: outside the validity bound.
        let phase = dot_workloads::drift::analytical_phase(&s);
        let observed = crate::Problem::new(
            &s,
            &pool,
            &phase,
            SlaSpec::relative(0.5),
            EngineConfig::dss(),
        );
        assert!(ProblemDelta::between(&anchor, &observed).is_none());
        // So is a different engine configuration.
        let other_cfg =
            crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::oltp());
        assert!(ProblemDelta::between(&anchor, &other_cfg).is_none());
    }
}

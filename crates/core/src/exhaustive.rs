//! Exhaustive search (ES) — the optimality baseline of §4.4.3 and §4.5.3.
//!
//! Two variants:
//!
//! * [`exhaustive_search`] — the literal `M^N` enumeration the paper
//!   describes, evaluating every layout through the same storage-aware
//!   planner DOT uses. Tractable only for small object sets (the paper uses
//!   8 TPC-H objects → 3^8 = 6561 layouts; the full 16-object set would be
//!   43 million). Consecutive layouts of the odometer differ in one
//!   object, so each re-prices only the queries that read it.
//! * [`exhaustive_search_additive`] — an exact branch-and-bound over
//!   group placements for **throughput workloads with placement-stable
//!   plans** (TPC-C, §4.5.1): there the planner's cost vector does not
//!   depend on the layout, so workload time decomposes additively over
//!   groups and the full space can be searched with suffix-bound pruning.
//!   This is how the paper's ES completes the 19-object TPC-C search in
//!   minutes rather than years. Pruning does not bound the tree, though:
//!   one solve may enter at most [`ADDITIVE_NODE_BUDGET`] nodes, and past
//!   that it is refused with a typed [`ProvisionError::UnsupportedWorkload`]
//!   instead of holding its caller for minutes.

use crate::advisor::ProvisionError;
use crate::constraints::Constraints;
use crate::problem::{LayoutCostModel, Problem};
use crate::toc::{Estimator, ObjectiveBound, SearchWork, TocEstimate, TIME_BOUND_MARGIN};
use dot_dbms::layout::space_fits;
use dot_dbms::{Layout, ObjectId};
use dot_profiler::baseline::group_placements;
use dot_profiler::WorkloadProfile;
use dot_storage::ClassId;
use dot_workloads::spec::PerfMetric;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Result of an exhaustive search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EsOutcome {
    /// Best feasible layout found, if any.
    pub layout: Option<Layout>,
    /// Its estimate.
    pub estimate: Option<TocEstimate>,
    /// What the search visited. Literal enumeration: complete layouts
    /// the per-layout odometer enumerates (pruned ones included:
    /// enumerated, just not estimated), so a block the certified block cut
    /// skips as a whole still counts every layout in it. Additive search:
    /// search-tree nodes entered, partial group placements included, over
    /// every cap-tightening round.
    pub layouts_investigated: usize,
    /// The visited units cut without estimating, so never more than
    /// `layouts_investigated`: dominance cuts of complete layouts in the
    /// literal enumeration — what the per-layout odometer cuts, so a
    /// skipped block counts each of its layouts here too — and cost-bound
    /// cuts of search-tree nodes (each one a whole subtree) in the
    /// additive search. Defaults to 0 when parsing pre-pruning
    /// serializations.
    #[serde(default)]
    pub layouts_pruned: usize,
    /// Wall-clock time.
    #[serde(skip, default)]
    pub elapsed: Duration,
}

/// Enumerate all `M^N` layouts, evaluating each with the planner-based
/// `estimateTOC`, and return the feasible layout with minimum TOC.
///
/// The search runs one branch per class of the first object, in class
/// order on the caller's thread; each branch runs an odometer over the
/// remaining objects.
pub fn exhaustive_search(problem: &Problem<'_>, cons: &Constraints) -> EsOutcome {
    exhaustive_search_with(problem, cons, &Estimator::direct())
}

/// [`exhaustive_search`] with an explicit TOC estimator, so every layout
/// is priced from the session's templates.
pub fn exhaustive_search_with(
    problem: &Problem<'_>,
    cons: &Constraints,
    toc: &Estimator<'_>,
) -> EsOutcome {
    exhaustive_search_with_pruning(problem, cons, toc, true)
}

/// [`exhaustive_search_with`] with the dominance cut switchable:
/// `prune: false` estimates every enumerated layout. Both settings return
/// the identical optimum (the cut only skips candidates whose objective
/// lower bound already meets the branch's incumbent; see
/// [`ObjectiveBound`]) — the perf-trajectory distillation measures the two
/// against each other. Each branch prunes against its own incumbent, so
/// the pruned count does not depend on the order branches run in.
///
/// With pruning on, whole blocks of the odometer are cut at once where
/// every layout in them would be cut one by one (see `BlockCut`), with
/// the same outcome and counters.
pub fn exhaustive_search_with_pruning(
    problem: &Problem<'_>,
    cons: &Constraints,
    toc: &Estimator<'_>,
    prune: bool,
) -> EsOutcome {
    exhaustive_search_with_work(problem, cons, toc, prune).0
}

/// [`exhaustive_search_with_pruning`], with the work the search did.
pub fn exhaustive_search_with_work(
    problem: &Problem<'_>,
    cons: &Constraints,
    toc: &Estimator<'_>,
    prune: bool,
) -> (EsOutcome, SearchWork) {
    let start = Instant::now();
    let n = problem.schema.object_count();
    let classes: Vec<ClassId> = problem.pool.ids().collect();
    let m = classes.len();
    assert!(m >= 1 && n >= 1);
    // The constraints' reference IS the all-premium estimate, so the bound
    // costs nothing extra to build.
    let bound = prune.then(|| ObjectiveBound::new(problem, &cons.reference));
    let bound = bound.as_ref();
    let mut block = bound.and_then(|b| BlockCut::new(problem, b));
    let mut pricer = toc.pricer(problem);
    // `S_j` of the layout at hand: one pass over the objects feeds the
    // capacity check, the bound and the estimate's `C(L)`.
    let mut space = Vec::with_capacity(m);

    let mut layout = None;
    let mut estimate: Option<TocEstimate> = None;
    let mut best_toc = f64::INFINITY;
    let mut evaluated = 0usize;
    let mut pruned = 0usize;
    let mut visited = 0usize;
    for &first in &classes {
        // Each branch prunes only against its own incumbent, so the
        // pruned count is a property of the branch, not of the branches
        // searched before it.
        let mut branch_layout = None;
        let mut branch_estimate = None;
        let mut branch_toc = f64::INFINITY;
        // Odometer over objects 1..n (object 0 fixed to `first`), stepping
        // one layout in place.
        let mut digits = vec![0usize; n - 1];
        let mut candidate = Layout::uniform(classes[0], n);
        candidate.place(ObjectId(0), first);
        // The odometer's low digits that are 0: the layout at hand starts
        // a block over that many fastest digits (objects `1..=free`).
        let mut free = n - 1;
        loop {
            // Block cut: the largest block starting here that is cut whole
            // is counted as the odometer would count it, layout by layout.
            let cut = block.as_mut().and_then(|block| {
                (1..=free)
                    .rev()
                    .find(|&k| block.cuts(problem, &candidate, k, branch_toc))
            });
            let from = match cut {
                Some(k) => {
                    let layouts = m.pow(k as u32);
                    evaluated += layouts;
                    pruned += layouts;
                    k
                }
                None => {
                    evaluated += 1;
                    visited += 1;
                    candidate.space_per_class_into(problem.schema, problem.pool, &mut space);
                    // Cheap capacity pre-check before paying for planning.
                    if space_fits(&space, problem.pool) {
                        let lb = bound.and_then(|b| b.lower_bound_of_space(problem, &space));
                        if lb.is_some_and(|lb| lb >= branch_toc) {
                            // Dominance cut: cannot beat this branch's incumbent.
                            pruned += 1;
                        } else {
                            let est = pricer.estimate_of_space(&candidate, &space);
                            if cons.performance_satisfied(&est) && est.objective_cents < branch_toc
                            {
                                branch_toc = est.objective_cents;
                                branch_layout = Some(candidate.clone());
                                branch_estimate = Some(est);
                            }
                        }
                    }
                    0
                }
            };
            // Advance the odometer past the layout, or past the block: its
            // low digits are all 0 and would all have reached `M − 1`.
            let Some(i) = digits[from..]
                .iter()
                .position(|&d| d + 1 < m)
                .map(|at| from + at)
            else {
                break;
            };
            for (j, d) in digits[..i].iter_mut().enumerate() {
                *d = 0;
                candidate.place(ObjectId(j + 1), classes[0]);
            }
            digits[i] += 1;
            candidate.place(ObjectId(i + 1), classes[digits[i]]);
            free = i;
        }
        if branch_toc < best_toc {
            best_toc = branch_toc;
            layout = branch_layout;
            estimate = branch_estimate;
        }
    }
    let work = SearchWork {
        templates_priced: pricer.templates_priced(),
        layouts_visited: visited,
    };
    let outcome = EsOutcome {
        layout,
        estimate,
        layouts_investigated: evaluated,
        layouts_pruned: pruned,
        elapsed: start.elapsed(),
    };
    (outcome, work)
}

/// The exhaustive search's block cut. Where the odometer starts a block in
/// which only objects `1..=k` vary (its `k` fastest digits are all 0), the
/// `M^k` layouts of the block share every other object's class. If every
/// one of them certainly fits and is certainly cut by the dominance bound
/// against the branch incumbent — which no layout of the block can move,
/// since none is estimated — the whole block is counted investigated and
/// pruned, exactly as the per-layout odometer would count it, and skipped.
///
/// - **Fit.** A block layout's `S_j` sums, in schema order, the sizes of
///   the objects on class `j`; the block's `U_j` sums the fixed objects on
///   `j` and every free object. Sizes are non-negative and rounding is
///   monotone in each operand of `+`, so `S_j ≤ U_j`, and when `U` fits
///   (`U_j` below every capacity) every layout of the block does.
/// - **Cost.** Under the linear model, the fixed objects' `S_j` with every
///   free object on the cheapest class is, over the reals, no more than
///   any block layout's `C(L)`, since prices are non-negative. The floats
///   differ from the reals by a few ulps of relative error, far inside
///   `TIME_BOUND_MARGIN`, so the bound shaved by that margin is at most
///   every block layout's float `C(L)`. Under the discrete-sized model a
///   free object put on a class not yet in use would add a whole device
///   charge, so the cheapest class bounds nothing; the free objects are
///   left out instead. Each class's charge is non-decreasing in its
///   `S_j`, in floats too, and the fixed objects' `S_j` are at most any
///   block layout's. The objective bound scales the cost monotonically
///   ([`ObjectiveBound::lower_bound_of_space`]), so a shaved bound that
///   meets the incumbent means every layout's own bound meets it.
///
/// The cut needs non-negative sizes and prices; a problem with any
/// negative one gets no block cut.
struct BlockCut {
    /// The cheapest class under the linear model; `None` under the
    /// discrete-sized model, which leaves the free objects out.
    cheapest: Option<usize>,
    bound: ObjectiveBound,
    /// The block's `U_j` and its cost bound's `S_j`.
    upper: Vec<f64>,
    lower: Vec<f64>,
}

impl BlockCut {
    fn new(problem: &Problem<'_>, bound: &ObjectiveBound) -> Option<BlockCut> {
        let pool = problem.pool;
        let sound = problem.schema.objects().iter().all(|o| o.size_gb >= 0.0)
            && pool
                .classes()
                .iter()
                .all(|c| c.price_cents_per_gb_hour >= 0.0);
        if !sound || !bound.is_active() {
            return None;
        }
        let cheapest = match problem.cost_model {
            LayoutCostModel::Linear => pool
                .classes()
                .iter()
                .min_by(|a, b| {
                    a.price_cents_per_gb_hour
                        .total_cmp(&b.price_cents_per_gb_hour)
                })
                .map(|c| c.id.0),
            LayoutCostModel::Discrete { .. } => None,
        };
        Some(BlockCut {
            cheapest,
            bound: *bound,
            upper: vec![0.0; pool.len()],
            lower: vec![0.0; pool.len()],
        })
    }

    /// Whether the block of `layout` whose free objects are `1..=k`
    /// certainly fits and is certainly cut against `incumbent`.
    fn cuts(&mut self, problem: &Problem<'_>, layout: &Layout, k: usize, incumbent: f64) -> bool {
        if incumbent == f64::INFINITY {
            return false;
        }
        self.upper.fill(0.0);
        self.lower.fill(0.0);
        for o in problem.schema.objects() {
            if (1..=k).contains(&o.id.0) {
                for u in &mut self.upper {
                    *u += o.size_gb;
                }
            } else {
                let class = layout.class_of(o.id).0;
                self.upper[class] += o.size_gb;
                self.lower[class] += o.size_gb;
            }
        }
        if !space_fits(&self.upper, problem.pool) {
            return false;
        }
        if let Some(cheapest) = self.cheapest {
            self.lower[cheapest] = self.upper[cheapest];
        }
        self.bound
            .lower_bound_of_space(problem, &self.lower)
            .is_some_and(|lb| lb * (1.0 - TIME_BOUND_MARGIN) >= incumbent)
    }
}

/// Search-tree nodes one [`exhaustive_search_additive`] solve may enter,
/// summed over its cap-tightening rounds. It sits above the 62.8 million
/// nodes of the largest committed benchmark solve (TPC-C at 5 warehouses
/// on box2, SLA 0.25), about 1.5 s of search on a 2-vCPU VM.
pub const ADDITIVE_NODE_BUDGET: usize = 100_000_000;

/// Exact branch-and-bound search over group placements under the additive
/// time model, for throughput workloads whose plans are placement-stable.
///
/// Under plan stability the per-group I/O time shares from the profile sum
/// to the exact planner time, so this search visits (a pruned subset of)
/// `Π_g M^{|g|}` placements and returns the true optimum — the layout ES
/// would find — in a fraction of the time the literal enumeration needs.
///
/// # Errors
/// [`ProvisionError::UnsupportedWorkload`] once the search has entered
/// [`ADDITIVE_NODE_BUDGET`] nodes without finishing.
///
/// # Panics
/// Panics when called on a response-time workload (per-query caps do not
/// decompose over groups) or a non-linear cost model.
pub fn exhaustive_search_additive(
    problem: &Problem<'_>,
    profile: &WorkloadProfile,
    cons: &Constraints,
) -> Result<EsOutcome, ProvisionError> {
    exhaustive_search_additive_with(problem, profile, cons, &Estimator::direct())
}

/// [`exhaustive_search_additive`] with an explicit TOC estimator for the
/// planner-verification step of each candidate optimum.
///
/// # Errors
/// As [`exhaustive_search_additive`].
///
/// # Panics
/// As [`exhaustive_search_additive`].
pub fn exhaustive_search_additive_with(
    problem: &Problem<'_>,
    profile: &WorkloadProfile,
    cons: &Constraints,
    toc: &Estimator<'_>,
) -> Result<EsOutcome, ProvisionError> {
    additive_search(problem, profile, cons, toc, ADDITIVE_NODE_BUDGET)
}

/// [`exhaustive_search_additive_with`] under a node budget of `budget`.
pub(crate) fn additive_search(
    problem: &Problem<'_>,
    profile: &WorkloadProfile,
    cons: &Constraints,
    toc: &Estimator<'_>,
    budget: usize,
) -> Result<EsOutcome, ProvisionError> {
    assert_eq!(
        problem.workload.metric,
        PerfMetric::Throughput,
        "additive ES requires a throughput workload"
    );
    assert_eq!(
        problem.cost_model,
        LayoutCostModel::Linear,
        "additive ES requires the linear cost model"
    );
    let start = Instant::now();
    let pool = problem.pool;
    let schema = problem.schema;
    let concurrency = problem.cfg.concurrency;

    // Layout-independent CPU: reference stream time minus the premium
    // placements' I/O shares.
    let premium = pool.most_expensive();
    let io_premium: f64 = profile
        .groups
        .iter()
        .map(|g| {
            g.io_time_share_ms(&vec![premium; g.objects.len()], pool, concurrency)
                .expect("profile covers premium")
        })
        .sum();
    let cpu_ms = (cons.reference.stream_time_ms - io_premium).max(0.0);

    // Time cap from the throughput floor: T(t) >= floor  ⇔  t <= cap.
    let time_cap_ms = match cons.throughput_floor {
        Some(floor) if floor > 0.0 => {
            problem.workload.concurrency as f64 * problem.workload.tasks_per_stream * 3_600_000.0
                / floor
        }
        _ => f64::INFINITY,
    };

    // Per-group options: (placement, Δspace per class, cost, io time).
    struct Option_ {
        placement: Vec<ClassId>,
        space: Vec<f64>,
        cost: f64,
        time_ms: f64,
    }
    let group_options: Vec<Vec<Option_>> = profile
        .groups
        .iter()
        .map(|g| {
            group_placements(pool, g.objects.len())
                .into_iter()
                .map(|p| {
                    let mut space = vec![0.0; pool.len()];
                    let mut cost = 0.0;
                    for (obj, &class) in g.objects.iter().zip(&p) {
                        let gb = schema.object(*obj).size_gb;
                        space[class.0] += gb;
                        cost += pool.class_unchecked(class).price_cents_per_gb_hour * gb;
                    }
                    let time_ms = g
                        .io_time_share_ms(&p, pool, concurrency)
                        .expect("profile covers every placement");
                    Option_ {
                        placement: p,
                        space,
                        cost,
                        time_ms,
                    }
                })
                .collect()
        })
        .collect();

    // Suffix lower bounds for pruning.
    let n_groups = group_options.len();
    let mut min_cost_rest = vec![0.0; n_groups + 1];
    let mut min_time_rest = vec![0.0; n_groups + 1];
    for i in (0..n_groups).rev() {
        let min_c = group_options[i]
            .iter()
            .map(|o| o.cost)
            .fold(f64::INFINITY, f64::min);
        let min_t = group_options[i]
            .iter()
            .map(|o| o.time_ms)
            .fold(f64::INFINITY, f64::min);
        min_cost_rest[i] = min_cost_rest[i + 1] + min_c;
        min_time_rest[i] = min_time_rest[i + 1] + min_t;
    }

    let caps = pool.capacity_vector();
    struct Search<'s> {
        options: &'s [Vec<Option_>],
        min_cost_rest: &'s [f64],
        min_time_rest: &'s [f64],
        caps: &'s [f64],
        cpu_ms: f64,
        time_cap_ms: f64,
        best_toc: f64,
        best_choice: Vec<usize>,
        choice: Vec<usize>,
        nodes: usize,
        pruned: usize,
        /// Nodes this round may enter; `exhausted` once one more was due.
        node_limit: usize,
        exhausted: bool,
    }
    impl Search<'_> {
        fn dfs(&mut self, i: usize, cost: f64, time: f64, space: &mut [f64]) {
            if self.nodes == self.node_limit {
                self.exhausted = true;
                return;
            }
            self.nodes += 1;
            if time + self.min_time_rest[i] + self.cpu_ms > self.time_cap_ms {
                return;
            }
            // Objective: layout cost (the OLTP TOC is C(L) over a fixed
            // measurement period — see TocEstimate::objective_cents).
            let cost_bound = cost + self.min_cost_rest[i];
            if cost_bound >= self.best_toc {
                self.pruned += 1;
                return;
            }
            if i == self.options.len() {
                self.best_toc = cost;
                self.best_choice = self.choice.clone();
                return;
            }
            for (k, opt) in self.options[i].iter().enumerate() {
                let mut violated = false;
                for (j, d) in opt.space.iter().enumerate() {
                    space[j] += d;
                    if space[j] >= self.caps[j] {
                        violated = true;
                    }
                }
                if !violated {
                    self.choice.push(k);
                    self.dfs(i + 1, cost + opt.cost, time + opt.time_ms, space);
                    self.choice.pop();
                    if self.exhausted {
                        return; // the search is abandoned, `space` with it
                    }
                }
                for (j, d) in opt.space.iter().enumerate() {
                    space[j] -= d;
                }
            }
        }
    }

    // The additive model is exact when plans are placement-stable, but
    // page-sized tables may flip between a trivial scan and an index probe,
    // introducing a sub-percent time error. Since cost minimization drives
    // the optimum onto the time-cap boundary, verify the winner with the
    // planner and tighten the cap slightly if it overshoots.
    let mut cap = time_cap_ms;
    let mut nodes_total = 0usize;
    let mut pruned_total = 0usize;
    let mut result: (Option<Layout>, Option<TocEstimate>) = (None, None);
    for _ in 0..10 {
        let mut search = Search {
            options: &group_options,
            min_cost_rest: &min_cost_rest,
            min_time_rest: &min_time_rest,
            caps: &caps,
            cpu_ms,
            time_cap_ms: cap,
            best_toc: f64::INFINITY,
            best_choice: Vec::new(),
            choice: Vec::new(),
            nodes: 0,
            pruned: 0,
            node_limit: budget - nodes_total,
            exhausted: false,
        };
        let mut space = vec![0.0; pool.len()];
        search.dfs(0, 0.0, 0.0, &mut space);
        nodes_total += search.nodes;
        pruned_total += search.pruned;
        if search.exhausted {
            return Err(ProvisionError::UnsupportedWorkload {
                solver: "es-additive".to_owned(),
                reason: format!(
                    "the search entered {nodes_total} nodes without finishing, \
                     its budget is {budget}"
                ),
            });
        }
        if search.best_choice.len() != n_groups {
            break; // infeasible under this cap
        }
        let mut assignment = vec![premium; schema.object_count()];
        for (gi, &k) in search.best_choice.iter().enumerate() {
            let opt = &group_options[gi][k];
            for (obj, &class) in profile.groups[gi].objects.iter().zip(&opt.placement) {
                assignment[obj.0] = class;
            }
        }
        let layout = Layout::from_assignment(assignment);
        let est = toc.estimate(problem, &layout);
        if cons.performance_satisfied(&est) {
            result = (Some(layout), Some(est));
            break;
        }
        cap *= 0.98;
    }
    let (layout, estimate) = result;

    Ok(EsOutcome {
        layout,
        estimate,
        layouts_investigated: nodes_total,
        layouts_pruned: pruned_total,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints;
    use dot_dbms::memo::PlanMemo;
    use dot_dbms::EngineConfig;
    use dot_profiler::{profile_workload, ProfileSource};
    use dot_storage::catalog;
    use dot_workloads::{synth, tpcc, SlaSpec};

    #[test]
    fn full_es_finds_optimum_and_dot_is_close() {
        let s = synth::bench_schema(5_000_000.0, 120.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let cons = constraints::derive(&p);
        let es = exhaustive_search(&p, &cons);
        assert_eq!(es.layouts_investigated, 9); // 3^2 objects
        assert!(es.layouts_pruned <= es.layouts_investigated);
        let es_toc = es.estimate.as_ref().unwrap().toc_cents_per_pass;

        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let dot = crate::dot::optimize(&p, &prof, &cons);
        let dot_toc = dot.estimate.unwrap().toc_cents_per_pass;
        // ES is optimal: DOT can never beat it, and (per §4.4.3) stays close.
        assert!(dot_toc >= es_toc - 1e-9);
        assert!(dot_toc <= es_toc * 1.25, "dot {dot_toc} vs es {es_toc}");
    }

    #[test]
    fn es_respects_capacity_constraints() {
        let s = synth::bench_schema(5_000_000.0, 120.0);
        let mut pool = catalog::box2();
        // Make the premium class too small for the heap.
        let heap_gb = s.table_by_name("a").unwrap().size_gb();
        pool.set_capacity("H-SSD", heap_gb * 0.9);
        let w = synth::mixed_workload(&s);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.01), EngineConfig::dss());
        let cons = constraints::derive(&p);
        let es = exhaustive_search(&p, &cons);
        assert!(es.layouts_pruned <= es.layouts_investigated);
        let layout = es.layout.expect("loose SLA admits something");
        assert!(layout.fits(&s, &pool));
        let hssd = pool.class_by_name("H-SSD").unwrap().id;
        let heap = s.table_by_name("a").unwrap().object;
        assert_ne!(layout.class_of(heap), hssd);
    }

    #[test]
    fn additive_es_matches_full_es_on_stable_plan_workload() {
        // Small TPC-C instance: plans are placement-stable, so additive ES
        // must find a layout with the same TOC as the literal enumeration
        // would. We compare against full ES on a trimmed object count by
        // using a tiny warehouse count (19 objects is too many for full ES,
        // so instead we verify additive ES against DOT's premium reference
        // invariants).
        let s = tpcc::schema(5.0);
        let pool = catalog::box2();
        let w = tpcc::workload(&s);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.25), EngineConfig::oltp());
        let cons = constraints::derive(&p);
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let es = exhaustive_search_additive(&p, &prof, &cons).expect("within budget");
        // Cuts are a subset of the search-tree nodes entered.
        assert!(es.layouts_pruned > 0);
        assert!(es.layouts_pruned <= es.layouts_investigated);
        let est = es.estimate.expect("feasible");
        // The optimum satisfies the constraints...
        assert!(cons.satisfied(&p, es.layout.as_ref().unwrap(), &est));
        // ...and beats (or ties) both DOT and the premium layout on the
        // OLTP objective (layout cost over the fixed measurement period).
        let dot = crate::dot::optimize(&p, &prof, &cons);
        let dot_obj = dot.estimate.unwrap().objective_cents;
        assert!(est.objective_cents <= dot_obj * 1.001);
        assert!(est.objective_cents < cons.reference.objective_cents);

        // The node budget covers every cap-tightening round: a budget of
        // exactly the nodes entered reproduces the solve, one node fewer
        // is a typed refusal naming both counts.
        let toc = Estimator::direct();
        let exact = additive_search(&p, &prof, &cons, &toc, es.layouts_investigated)
            .expect("a budget of exactly the nodes entered suffices");
        assert_eq!(exact.layout, es.layout);
        assert_eq!(exact.layouts_investigated, es.layouts_investigated);
        let short = es.layouts_investigated - 1;
        match additive_search(&p, &prof, &cons, &toc, short) {
            Err(ProvisionError::UnsupportedWorkload { solver, reason }) => {
                assert_eq!(solver, "es-additive");
                assert!(
                    reason.contains(&format!("entered {short} nodes"))
                        && reason.contains(&format!("budget is {short}")),
                    "{reason}"
                );
            }
            other => panic!("expected a budget refusal, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "throughput workload")]
    fn additive_es_rejects_response_time_workloads() {
        let s = synth::bench_schema(1_000_000.0, 100.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let cons = constraints::derive(&p);
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let _ = exhaustive_search_additive(&p, &prof, &cons);
    }
}

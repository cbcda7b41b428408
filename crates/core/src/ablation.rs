//! Ablations of DOT's design choices.
//!
//! The paper motivates two specific decisions that this module lets you
//! switch off and measure:
//!
//! 1. **Group moves vs. object moves** (§3.1–3.2). "A simple method to
//!    generate a set of move candidates is to move an object `o ∈ O` to a
//!    storage class `s ∈ D` one by one, as was done in [Canim et al.] ...
//!    this approach has a serious limitation as it ignores the interactions
//!    between the objects" — most importantly a table and its index, whose
//!    joint placement decides whether the planner can use index scans at
//!    all. [`MoveGranularity::Object`] reproduces the simple method;
//!    [`MoveGranularity::Group`] is DOT's.
//!
//! 2. **The priority score** (§3.3). DOT orders moves by
//!    `σ = δ_time/δ_cost`. [`ScoreOrder`] offers the obvious alternatives —
//!    pure cost saving, pure time penalty, unsorted — so the benefit of the
//!    ratio score is measurable (the `ablation` experiment binary does).

use crate::constraints::Constraints;
use crate::dot::DotOutcome;
use crate::moves::{enumerate_moves, Move};
use crate::problem::Problem;
use crate::toc::{Estimator, ObjectiveBound};
use dot_profiler::baseline::group_placements;
use dot_profiler::WorkloadProfile;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Whether moves relocate whole object groups (DOT) or single objects (the
/// simple method of Canim et al., as characterized in §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MoveGranularity {
    /// DOT's table-plus-indices group moves.
    Group,
    /// One object at a time, interactions ignored.
    Object,
}

/// Move-ordering strategy for the greedy sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScoreOrder {
    /// DOT's σ = δ_time/δ_cost, ascending (§3.3).
    TimePerCost,
    /// Largest layout-cost saving first.
    CostSaving,
    /// Smallest time penalty first.
    TimePenalty,
    /// Enumeration order (no sort) — the null hypothesis.
    Unsorted,
}

/// Configuration of an ablated optimizer run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AblationConfig {
    /// Move granularity.
    pub granularity: MoveGranularity,
    /// Move ordering.
    pub order: ScoreOrder,
}

impl AblationConfig {
    /// DOT's published configuration.
    pub const DOT: AblationConfig = AblationConfig {
        granularity: MoveGranularity::Group,
        order: ScoreOrder::TimePerCost,
    };

    /// The simple object-at-a-time method the paper contrasts against.
    pub const OBJECT_AT_A_TIME: AblationConfig = AblationConfig {
        granularity: MoveGranularity::Object,
        order: ScoreOrder::TimePerCost,
    };

    /// Short label for reports.
    pub fn label(&self) -> String {
        format!("{:?}/{:?}", self.granularity, self.order)
    }
}

/// Enumerate *object-level* moves: every single object to every other class,
/// scored with the same σ but with `δ_time` computed while the rest of the
/// object's group stays on the premium class — precisely the interaction
/// blindness the paper criticizes.
fn enumerate_object_moves(problem: &Problem<'_>, profile: &WorkloadProfile) -> Vec<Move> {
    let premium = problem.pool.most_expensive();
    let l0 = problem.premium_layout();
    let c0 = problem.layout_cost_cents_per_hour(&l0);
    let concurrency = problem.cfg.concurrency;
    let mut moves = Vec::new();
    for (gi, g) in profile.groups.iter().enumerate() {
        let p0 = vec![premium; g.objects.len()];
        let t0 = g
            .io_time_share_ms(&p0, problem.pool, concurrency)
            .expect("premium placement profiled");
        for (k, &obj) in g.objects.iter().enumerate() {
            for p in group_placements(problem.pool, 1) {
                let class = p[0];
                if class == premium {
                    continue;
                }
                // Placement: only position k moves; the rest stay premium.
                let mut placement = p0.clone();
                placement[k] = class;
                let tp = g
                    .io_time_share_ms(&placement, problem.pool, concurrency)
                    .expect("profile covers single-object deviations");
                let moved = l0.with(obj, class);
                let delta_cost = c0 - problem.layout_cost_cents_per_hour(&moved);
                if delta_cost <= 0.0 {
                    continue;
                }
                let delta_time_ms = tp - t0;
                moves.push(Move {
                    group_index: gi,
                    objects: vec![obj],
                    placement: vec![class],
                    delta_time_ms,
                    delta_cost,
                    score: delta_time_ms / delta_cost,
                });
            }
        }
    }
    moves
}

fn sort_moves(moves: &mut [Move], order: ScoreOrder) {
    match order {
        ScoreOrder::TimePerCost => {
            moves.sort_by(|a, b| a.score.partial_cmp(&b.score).expect("finite scores"))
        }
        ScoreOrder::CostSaving => moves.sort_by(|a, b| {
            b.delta_cost
                .partial_cmp(&a.delta_cost)
                .expect("finite costs")
        }),
        ScoreOrder::TimePenalty => moves.sort_by(|a, b| {
            a.delta_time_ms
                .partial_cmp(&b.delta_time_ms)
                .expect("finite times")
        }),
        ScoreOrder::Unsorted => {}
    }
}

/// Run the greedy sweep (Procedure 1) under an ablated configuration.
pub fn optimize_ablated(
    problem: &Problem<'_>,
    profile: &WorkloadProfile,
    cons: &Constraints,
    config: AblationConfig,
) -> DotOutcome {
    optimize_ablated_with(problem, profile, cons, config, &Estimator::direct())
}

/// [`optimize_ablated`] with an explicit TOC estimator, so the ablated
/// sweeps price from a session's compiled templates too.
pub fn optimize_ablated_with(
    problem: &Problem<'_>,
    profile: &WorkloadProfile,
    cons: &Constraints,
    config: AblationConfig,
    toc: &Estimator<'_>,
) -> DotOutcome {
    let start = Instant::now();
    let mut moves = match config.granularity {
        MoveGranularity::Group => enumerate_moves(problem, profile),
        MoveGranularity::Object => enumerate_object_moves(problem, profile),
    };
    sort_moves(&mut moves, config.order);

    let l0 = problem.premium_layout();
    let est0 = toc.estimate(problem, &l0);
    let bound = ObjectiveBound::new(problem, &est0);
    let mut investigated = 1usize;
    let mut pruned = 0usize;
    let mut current = l0.clone();
    let (mut best, mut best_est, mut best_toc) = if cons.satisfied(problem, &l0, &est0) {
        let t = est0.objective_cents;
        (Some(l0), Some(est0), t)
    } else {
        (None, None, f64::INFINITY)
    };
    for m in &moves {
        let candidate = m.apply(&current);
        investigated += 1;
        // Same dominance cut as `dot::optimize_with` — never changes which
        // layout wins, only skips estimates that cannot beat the incumbent.
        if let Some(lb) = bound.lower_bound(problem, &candidate) {
            if lb >= best_toc {
                pruned += 1;
                continue;
            }
        }
        let est = toc.estimate(problem, &candidate);
        if cons.satisfied(problem, &candidate, &est) && est.objective_cents < best_toc {
            best_toc = est.objective_cents;
            current = candidate;
            best = Some(current.clone());
            best_est = Some(est);
        }
    }
    DotOutcome {
        layout: best,
        estimate: best_est,
        layouts_investigated: investigated,
        layouts_pruned: pruned,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints;
    use dot_dbms::memo::PlanMemo;
    use dot_dbms::EngineConfig;
    use dot_profiler::{profile_workload, ProfileSource};
    use dot_storage::catalog;
    use dot_workloads::{tpch, SlaSpec};

    fn setup() -> (
        dot_dbms::Schema,
        dot_storage::StoragePool,
        dot_workloads::Workload,
    ) {
        let s = tpch::subset_schema(2.0);
        let w = tpch::subset_workload(&s);
        (s, catalog::box2(), w)
    }

    #[test]
    fn dot_config_matches_plain_optimize() {
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let cons = constraints::derive(&p);
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let plain = crate::dot::optimize(&p, &prof, &cons);
        let ablated = optimize_ablated(&p, &prof, &cons, AblationConfig::DOT);
        assert_eq!(plain.layout, ablated.layout);
    }

    #[test]
    fn group_moves_never_lose_to_object_moves_here() {
        // The paper's claim: interaction-aware group moves find layouts at
        // least as good as object-at-a-time moves on index-sensitive
        // workloads.
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let cons = constraints::derive(&p);
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let group = optimize_ablated(&p, &prof, &cons, AblationConfig::DOT);
        let object = optimize_ablated(&p, &prof, &cons, AblationConfig::OBJECT_AT_A_TIME);
        let g = group.estimate.expect("group feasible").objective_cents;
        let o = object.estimate.expect("object feasible").objective_cents;
        assert!(g <= o * 1.0001, "group {g} vs object {o}");
    }

    #[test]
    fn object_moves_are_singletons() {
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let moves = enumerate_object_moves(&p, &prof);
        assert!(!moves.is_empty());
        for m in &moves {
            assert_eq!(m.objects.len(), 1);
            assert_eq!(m.placement.len(), 1);
            assert!(m.delta_cost > 0.0);
        }
        // N objects x (M-1) classes, minus any zero-saving placements.
        assert_eq!(moves.len(), s.object_count() * (pool.len() - 1));
    }

    #[test]
    fn all_orderings_produce_feasible_results() {
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.25), EngineConfig::dss());
        let cons = constraints::derive(&p);
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        for order in [
            ScoreOrder::TimePerCost,
            ScoreOrder::CostSaving,
            ScoreOrder::TimePenalty,
            ScoreOrder::Unsorted,
        ] {
            let cfg = AblationConfig {
                granularity: MoveGranularity::Group,
                order,
            };
            let out = optimize_ablated(&p, &prof, &cons, cfg);
            let layout = out.layout.unwrap_or_else(|| panic!("{order:?} infeasible"));
            let est = out.estimate.expect("estimated");
            assert!(cons.satisfied(&p, &layout, &est), "{order:?} violated");
        }
    }
}

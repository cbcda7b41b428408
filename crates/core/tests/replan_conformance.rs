//! Conformance contract of the re-provisioning planner (ISSUE 4):
//!
//! * with an **unchanged** workload the plan is empty;
//! * with a drifted analytical→transactional pair the plan's final layout
//!   is **bit-identical** to a fresh Advisor recommendation when the
//!   budget is unbounded, and strictly within budget otherwise;
//! * break-even hours are finite and positive whenever the plan is
//!   non-empty;
//! * replanning is bit-identical with the controller's replan memo off,
//!   cold, and warm: a fresh session, a repeat over one session, a
//!   controller's solved trigger and its reused one all agree.

use dot_core::advisor::Advisor;
use dot_core::controller::{CachedEstimator, Controller, ControllerConfig};
use dot_core::replan::{MigrationBudget, MigrationDecision, ReplanRecommendation};
use dot_dbms::Layout;
use dot_storage::{catalog, StoragePool};
use dot_workloads::{drift, tpcc, Workload};
use std::sync::Arc;

/// The drift scenario of the acceptance criteria: one schema, an
/// analytical (TPC-H-shaped, response-time) phase and a transactional
/// (TPC-C, throughput) phase.
fn scenario() -> (dot_dbms::Schema, StoragePool, Workload, Workload) {
    let schema = tpcc::schema(2.0);
    let pool = catalog::box2();
    let before = drift::analytical_phase(&schema);
    let after = tpcc::workload(&schema);
    (schema, pool, before, after)
}

fn deployed_for(schema: &dot_dbms::Schema, pool: &StoragePool, workload: &Workload) -> Layout {
    Advisor::builder(schema, pool, workload)
        .sla(0.5)
        .build()
        .expect("session")
        .recommend("dot")
        .expect("recommendation")
        .layout
}

fn strip_timing(mut rec: ReplanRecommendation) -> ReplanRecommendation {
    rec.target.provenance.elapsed_ms = 0;
    rec
}

#[test]
fn unchanged_workload_yields_an_empty_plan() {
    let (schema, pool, before, after) = scenario();
    for workload in [&before, &after] {
        let advisor = Advisor::builder(&schema, &pool, workload)
            .sla(0.5)
            .build()
            .unwrap();
        let current = advisor.recommend("dot").unwrap().layout;
        let rec = advisor.replan(&current).unwrap();
        assert_eq!(rec.plan.decision, MigrationDecision::Unchanged);
        assert!(rec.plan.steps.is_empty(), "{}", workload.name);
        assert_eq!(rec.plan.final_layout, current);
        assert_eq!(rec.plan.total_bytes, 0.0);
        assert_eq!(rec.plan.break_even_hours, 0.0);
    }
}

#[test]
fn unbounded_drifted_plan_lands_on_the_fresh_recommendation_bit_for_bit() {
    let (schema, pool, before, after) = scenario();
    let current = deployed_for(&schema, &pool, &before);
    let drifted = Advisor::builder(&schema, &pool, &after)
        .sla(0.5)
        .build()
        .unwrap();
    let fresh = drifted.recommend("dot").unwrap();
    let rec = drifted.replan(&current).unwrap();
    assert_eq!(rec.plan.final_layout, fresh.layout, "bit-identical target");
    assert_eq!(rec.target.layout, fresh.layout);
    assert_eq!(rec.plan.decision, MigrationDecision::Migrate);
    // And the reverse drift replans back.
    let analytical = Advisor::builder(&schema, &pool, &before)
        .sla(0.5)
        .build()
        .unwrap();
    let night_layout = rec.plan.final_layout.clone();
    let back = analytical.replan(&night_layout).unwrap();
    assert_eq!(
        back.plan.final_layout,
        analytical.recommend("dot").unwrap().layout
    );
}

#[test]
fn budgeted_plans_stay_strictly_within_every_budget_axis() {
    let (schema, pool, before, after) = scenario();
    let current = deployed_for(&schema, &pool, &before);
    let drifted = Advisor::builder(&schema, &pool, &after)
        .sla(0.5)
        .build()
        .unwrap();
    let full = drifted.replan(&current).unwrap();
    assert!(full.plan.steps.len() >= 2, "scenario must have a real plan");
    type Spent = fn(&ReplanRecommendation) -> f64;
    let cases: [(MigrationBudget, Spent); 3] = [
        (
            MigrationBudget::unbounded().with_max_bytes(full.plan.total_bytes * 0.7),
            |r| r.plan.total_bytes,
        ),
        (
            MigrationBudget::unbounded().with_max_seconds(full.plan.total_seconds * 0.7),
            |r| r.plan.total_seconds,
        ),
        (
            MigrationBudget::unbounded().with_max_cents(full.plan.total_cents * 0.7),
            |r| r.plan.total_cents,
        ),
    ];
    for (budget, actual) in cases {
        let rec = drifted.replan_with(&current, "dot", &budget).unwrap();
        let cap = budget
            .max_bytes
            .or(budget.max_seconds)
            .or(budget.max_cents)
            .unwrap();
        assert!(actual(&rec) <= cap, "plan exceeded its budget: {budget:?}");
        assert!(
            rec.plan.steps.len() < full.plan.steps.len(),
            "a 70% cap must defer something"
        );
    }
}

#[test]
fn break_even_is_finite_and_positive_for_every_non_empty_plan() {
    let (schema, pool, before, after) = scenario();
    let current = deployed_for(&schema, &pool, &before);
    let drifted = Advisor::builder(&schema, &pool, &after)
        .sla(0.5)
        .build()
        .unwrap();
    let full = drifted.replan(&current).unwrap();
    // Sweep budgets from zero to unbounded; every produced plan obeys the
    // break-even contract.
    for fraction in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let budget = if fraction == 1.0 {
            MigrationBudget::unbounded()
        } else {
            MigrationBudget::unbounded().with_max_bytes(full.plan.total_bytes * fraction)
        };
        let rec = drifted.replan_with(&current, "dot", &budget).unwrap();
        if rec.plan.steps.is_empty() {
            assert_eq!(rec.plan.break_even_hours, 0.0);
        } else {
            assert!(
                rec.plan.break_even_hours > 0.0 && rec.plan.break_even_hours.is_finite(),
                "fraction {fraction}: break-even {}",
                rec.plan.break_even_hours
            );
            assert!(rec.plan.savings_cents_per_hour > 0.0);
        }
    }
}

#[test]
fn replan_is_bit_identical_with_the_cache_off_cold_and_warm() {
    let (schema, pool, before, after) = scenario();
    let current = deployed_for(&schema, &pool, &before);
    let config = ControllerConfig::default();
    let session = || {
        Advisor::builder(&schema, &pool, &after)
            .sla(0.5)
            .build()
            .unwrap()
    };
    let replan = |advisor: &Advisor| {
        strip_timing(
            advisor
                .replan_with(&current, &config.solver, &config.budget)
                .unwrap(),
        )
    };

    // Off: no replan memo — a fresh session, a repeat on it, and another
    // fresh session agree.
    let first = session();
    let off = replan(&first);
    assert_eq!(off, replan(&first), "repeat on one session");
    assert_eq!(off, replan(&session()), "fresh session");

    // Cold and warm: a controller deployed on the analytical layout sees
    // the transactional phase (solved), the analytical phase again (which
    // replans back onto `current`), then the transactional phase once
    // more — the same (observed, deployed) pair, answered from its memo.
    // Quiet ticks between the flips sit out the cool-down.
    let counters = Arc::new(CachedEstimator::new());
    let mut controller = Controller::new(
        &schema,
        &pool,
        &before,
        current.clone(),
        0.5,
        config.clone(),
    )
    .unwrap()
    .with_toc_cache(Arc::clone(&counters));
    let mut on_current = Vec::new();
    for phase in [&after, &before, &after] {
        for quiet in 0..=config.cooldown_ticks {
            let deployed = controller.deployed().clone();
            let outcome = controller.observe(phase).unwrap();
            assert_eq!(outcome.triggered(), quiet == 0, "tick {}", outcome.tick);
            if let Some(rec) = outcome.replan {
                if deployed == current && phase.name == after.name {
                    on_current.push((rec, counters.stats()));
                }
            }
        }
    }
    let [(cold, cold_stats), (warm, warm_stats)] = <[_; 2]>::try_from(on_current)
        .expect("the reverse drift replans back, so the transactional phase meets the analytical layout twice");
    assert_eq!(
        (cold_stats.hits, cold_stats.misses),
        (0, 1),
        "cold run solves"
    );
    assert_eq!(
        (warm_stats.hits, warm_stats.misses),
        (1, 2),
        "warm run answers from the memo"
    );
    assert_eq!(off, strip_timing(cold), "cache off vs cold");
    assert_eq!(off, strip_timing(warm), "cache off vs warm");
}

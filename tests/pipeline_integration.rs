//! End-to-end integration tests: the full DOT pipeline over the real
//! workload models, spanning every crate in the workspace.

use dot_core::{constraints, dot, exhaustive, problem::Problem, toc};
use dot_dbms::memo::PlanMemo;
use dot_dbms::EngineConfig;
use dot_profiler::{profile_workload, ProfileSource};
use dot_storage::catalog;
use dot_workloads::{tpcc, tpch, SlaSpec};

/// Small scale factors keep the suite fast; shapes are scale-invariant.
const SF: f64 = 2.0;

#[test]
fn tpch_pipeline_end_to_end() {
    let schema = tpch::schema(SF);
    let workload = tpch::original_workload(&schema);
    let pool = catalog::box2();
    let problem = Problem::new(
        &schema,
        &pool,
        &workload,
        SlaSpec::relative(0.5),
        EngineConfig::dss(),
    );
    let result = dot::run_pipeline(&problem, ProfileSource::Estimate, 2);
    let outcome = &result.outcome;
    let layout = outcome.layout.as_ref().expect("feasible");
    let est = outcome.estimate.as_ref().expect("estimated");

    // Constraint satisfaction and capacity.
    let cons = constraints::derive(&problem);
    assert!(cons.satisfied(&problem, layout, est));
    assert!(layout.fits(&schema, &pool));
    // Strictly cheaper than the all-premium reference.
    assert!(est.toc_cents_per_pass < cons.reference.toc_cents_per_pass);
    // Validation ran.
    assert!(result.validation.is_some());
}

#[test]
fn tpch_dot_beats_premium_by_a_wide_margin_at_relaxed_sla() {
    // The paper's headline: >3x TOC reduction vs All H-SSD at SLA 0.5.
    let schema = tpch::schema(SF);
    let workload = tpch::original_workload(&schema);
    for pool in [catalog::box1(), catalog::box2()] {
        let problem = Problem::new(
            &schema,
            &pool,
            &workload,
            SlaSpec::relative(0.5),
            EngineConfig::dss(),
        );
        let cons = constraints::derive(&problem);
        let profile = profile_workload(
            &PlanMemo::new(&workload.queries, &schema, &pool, &problem.cfg),
            ProfileSource::Estimate,
        );
        let outcome = dot::optimize(&problem, &profile, &cons);
        let est = outcome.estimate.expect("feasible");
        let saving = cons.reference.toc_cents_per_pass / est.toc_cents_per_pass;
        assert!(saving > 3.0, "{}: saving only {saving:.2}x", pool.name());
    }
}

#[test]
fn tpch_subset_dot_close_to_exhaustive() {
    // §4.4.3: DOT within a modest factor of ES, orders of magnitude faster.
    let schema = tpch::subset_schema(SF);
    let workload = tpch::subset_workload(&schema);
    let pool = catalog::box2();
    let problem = Problem::new(
        &schema,
        &pool,
        &workload,
        SlaSpec::relative(0.5),
        EngineConfig::dss(),
    );
    let cons = constraints::derive(&problem);
    let profile = profile_workload(
        &PlanMemo::new(&workload.queries, &schema, &pool, &problem.cfg),
        ProfileSource::Estimate,
    );
    let dot_out = dot::optimize(&problem, &profile, &cons);
    let es_out = exhaustive::exhaustive_search(&problem, &cons);
    let dot_toc = dot_out.estimate.expect("dot feasible").objective_cents;
    let es_toc = es_out.estimate.expect("es feasible").objective_cents;
    assert!(dot_toc >= es_toc - 1e-12, "ES is optimal");
    assert!(
        dot_toc <= es_toc * 1.5,
        "DOT {dot_toc:.4} vs ES {es_toc:.4}: gap too large"
    );
    assert!(dot_out.layouts_investigated < es_out.layouts_investigated / 10);
}

#[test]
fn tpcc_toc_decreases_as_sla_relaxes() {
    // Fig 8's shape: the OLTP objective (layout cost over the measurement
    // period) falls monotonically as the throughput floor loosens.
    let schema = tpcc::schema(20.0);
    let workload = tpcc::workload(&schema);
    let pool = catalog::box2();
    let cfg = EngineConfig::oltp();
    let profile = profile_workload(
        &PlanMemo::new(&workload.queries, &schema, &pool, &cfg),
        ProfileSource::Estimate,
    );
    let mut last = f64::INFINITY;
    for ratio in [0.5, 0.25, 0.125] {
        let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(ratio), cfg);
        let cons = constraints::derive(&problem);
        let outcome = dot::optimize(&problem, &profile, &cons);
        let est = outcome.estimate.expect("feasible");
        assert!(
            est.objective_cents <= last + 1e-9,
            "objective should not increase as SLA relaxes"
        );
        // The throughput floor holds.
        assert!(est.throughput_tasks_per_hour >= cons.throughput_floor.unwrap());
        last = est.objective_cents;
    }
}

#[test]
fn tpcc_additive_es_close_to_dot_and_fast() {
    let schema = tpcc::schema(20.0);
    let workload = tpcc::workload(&schema);
    let pool = catalog::box2();
    let cfg = EngineConfig::oltp();
    let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.25), cfg);
    let cons = constraints::derive(&problem);
    let profile = profile_workload(
        &PlanMemo::new(&workload.queries, &schema, &pool, &cfg),
        ProfileSource::Estimate,
    );
    let es =
        exhaustive::exhaustive_search_additive(&problem, &profile, &cons).expect("within budget");
    assert!(es.layouts_pruned <= es.layouts_investigated);
    let dot_out = dot::optimize(&problem, &profile, &cons);
    let es_obj = es.estimate.expect("es feasible").objective_cents;
    let dot_obj = dot_out.estimate.expect("dot feasible").objective_cents;
    // ES is (near-)optimal; DOT within 30%.
    assert!(dot_obj >= es_obj * 0.999);
    assert!(dot_obj <= es_obj * 1.3, "dot {dot_obj} vs es {es_obj}");
}

#[test]
fn capacity_limited_premium_forces_relaxation() {
    // Fig 9(b): with a tight H-SSD cap, the SLA must relax before any
    // solution exists; the relaxation loop recovers one.
    let schema = tpcc::schema(20.0);
    let workload = tpcc::workload(&schema);
    let mut pool = catalog::box2();
    pool.set_capacity("H-SSD", schema.total_size_gb() * 0.7);
    let cfg = EngineConfig::oltp();
    let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.9), cfg);
    let profile = profile_workload(
        &PlanMemo::new(&workload.queries, &schema, &pool, &cfg),
        ProfileSource::Estimate,
    );
    let (outcome, final_sla) = dot::optimize_with_relaxation(&problem, &profile, 0.2, 0.01);
    let layout = outcome.layout.expect("relaxation recovers");
    assert!(final_sla.ratio < 0.9);
    assert!(layout.fits(&schema, &pool));
}

#[test]
fn refinement_uses_runtime_statistics() {
    // Force a validation failure by profiling from estimates but validating
    // against simulated runs with caching: the pipeline must at least run
    // its refinement loop without diverging.
    let schema = tpch::schema(SF);
    let workload = tpch::modified_workload(&schema);
    let pool = catalog::box1();
    let problem = Problem::new(
        &schema,
        &pool,
        &workload,
        SlaSpec::relative(0.25),
        EngineConfig::dss(),
    );
    let result = dot::run_pipeline(&problem, ProfileSource::Estimate, 3);
    assert!(result.refinement_rounds <= 3);
    if let Some(v) = &result.validation {
        assert!(v.psr >= 0.0 && v.psr <= 1.0);
    }
}

#[test]
fn estimates_are_reproducible_across_calls() {
    let schema = tpch::schema(SF);
    let workload = tpch::original_workload(&schema);
    let pool = catalog::box2();
    let problem = Problem::new(
        &schema,
        &pool,
        &workload,
        SlaSpec::relative(0.5),
        EngineConfig::dss(),
    );
    let l = problem.premium_layout();
    let a = toc::estimate_toc(&problem, &l);
    let b = toc::estimate_toc(&problem, &l);
    assert_eq!(a, b);
}

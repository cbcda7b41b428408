//! Integration tests provisioning the non-paper workloads (YCSB) and
//! exercising the sweep, generalized-provisioning and discrete-cost APIs
//! end to end.

use dot_core::generalized::choose_configuration;
use dot_core::problem::{LayoutCostModel, Problem};
use dot_core::{constraints, dot, sweep};
use dot_dbms::memo::PlanMemo;
use dot_dbms::EngineConfig;
use dot_profiler::{profile_workload, ProfileSource};
use dot_storage::catalog;
use dot_workloads::ycsb::{self, YcsbMix};
use dot_workloads::{tpch, SlaSpec};

#[test]
fn ycsb_c_read_only_moves_off_premium_at_loose_sla() {
    // A read-only point workload: at a loose SLA the L-SSD classes (fast
    // random reads, 18x cheaper than the H-SSD) should win the table.
    let schema = ycsb::schema(5_000_000.0);
    let workload = ycsb::workload(&schema, YcsbMix::C, 300);
    let pool = catalog::box2();
    let cfg = EngineConfig::oltp();
    let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.05), cfg);
    let cons = constraints::derive(&problem);
    let profile = profile_workload(
        &PlanMemo::new(&workload.queries, &schema, &pool, &cfg),
        ProfileSource::Estimate,
    );
    let outcome = dot::optimize(&problem, &profile, &cons);
    let layout = outcome.layout.expect("feasible");
    let table = schema.table_by_name("usertable").unwrap();
    assert_ne!(
        layout.class_of(table.object),
        pool.most_expensive(),
        "read-only usertable should leave the H-SSD at a loose SLA"
    );
}

#[test]
fn ycsb_a_update_heavy_is_stickier_than_c() {
    // Workload A's random writes are pathological off the H-SSD (Table 1:
    // L-SSD RW is 62 ms/row), so A needs a looser SLA than C to move.
    let schema = ycsb::schema(5_000_000.0);
    let pool = catalog::box2();
    let cfg = EngineConfig::oltp();
    let cost_at = |mix: YcsbMix, ratio: f64| {
        let workload = ycsb::workload(&schema, mix, 300);
        let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(ratio), cfg);
        let cons = constraints::derive(&problem);
        let profile = profile_workload(
            &PlanMemo::new(&workload.queries, &schema, &pool, &cfg),
            ProfileSource::Estimate,
        );
        dot::optimize(&problem, &profile, &cons)
            .estimate
            .map(|e| e.layout_cost_cents_per_hour)
    };
    let a = cost_at(YcsbMix::A, 0.25).expect("A feasible");
    let c = cost_at(YcsbMix::C, 0.25).expect("C feasible");
    assert!(
        c <= a,
        "read-only C ({c:.4}) should provision at most as expensively as update-heavy A ({a:.4})"
    );
}

#[test]
fn sla_sweep_traces_the_cost_performance_dial() {
    let schema = tpch::subset_schema(2.0);
    let workload = tpch::subset_workload(&schema);
    let pool = catalog::box1();
    let points = sweep::sla_sweep(
        &schema,
        &pool,
        &workload,
        EngineConfig::dss(),
        &[1.0, 0.5, 0.2],
        ProfileSource::Estimate,
    )
    .expect("request is well-formed");
    // Ratio 1.0 permits no degradation: only zero-traffic objects (unused
    // indexes) may leave the premium class.
    assert!(points[0].objects_moved < points[2].objects_moved);
    // Ratio 0.2 moves the bulk.
    assert!(points[2].objects_moved >= schema.object_count() / 2);
    // The dial is monotone.
    assert!(points[1].objects_moved >= points[0].objects_moved);
    assert!(points[2].objects_moved >= points[1].objects_moved);
}

#[test]
fn generalized_provisioning_is_consistent_with_per_box_runs() {
    let schema = tpch::subset_schema(2.0);
    let workload = tpch::subset_workload(&schema);
    let candidates = vec![catalog::box1(), catalog::box2()];
    let choice = choose_configuration(
        &schema,
        &workload,
        SlaSpec::relative(0.5),
        EngineConfig::dss(),
        &candidates,
        ProfileSource::Estimate,
        LayoutCostModel::Linear,
    );
    let winner = choice.winning().expect("feasible");
    // Re-running DOT on the winning pool alone reproduces the same TOC.
    let pool = &candidates[winner.index];
    let problem = Problem::new(
        &schema,
        pool,
        &workload,
        SlaSpec::relative(0.5),
        EngineConfig::dss(),
    );
    let cons = constraints::derive(&problem);
    let profile = profile_workload(
        &PlanMemo::new(&workload.queries, &schema, pool, &problem.cfg),
        ProfileSource::Estimate,
    );
    let direct = dot::optimize(&problem, &profile, &cons);
    let a = winner
        .recommendation
        .as_ref()
        .unwrap()
        .estimate
        .objective_cents;
    let b = direct.estimate.unwrap().objective_cents;
    assert!((a - b).abs() < 1e-9);
}

#[test]
fn discrete_cost_model_consolidates_classes() {
    let schema = tpch::subset_schema(2.0);
    let workload = tpch::subset_workload(&schema);
    let pool = catalog::box2();
    let cfg = EngineConfig::dss();
    let profile = profile_workload(
        &PlanMemo::new(&workload.queries, &schema, &pool, &cfg),
        ProfileSource::Estimate,
    );
    let classes_used = |alpha: f64| -> usize {
        let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.25), cfg)
            .with_cost_model(LayoutCostModel::Discrete { alpha });
        let cons = constraints::derive(&problem);
        let outcome = dot::optimize(&problem, &profile, &cons);
        outcome
            .layout
            .map(|l| {
                l.space_per_class(&schema, &pool)
                    .iter()
                    .filter(|&&s| s > 0.0)
                    .count()
            })
            .unwrap_or(0)
    };
    let spread = classes_used(0.0);
    let consolidated = classes_used(1.0);
    assert!(
        consolidated <= spread,
        "alpha=1 uses {consolidated} classes vs {spread} at alpha=0"
    );
}

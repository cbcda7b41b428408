//! Property suite for dominance pruning (`toc::ObjectiveBound`): for
//! random problems, the pruned greedy sweep and the pruned exhaustive
//! search return results **bit-identical** to their estimate-everything
//! counterparts — same layout, same estimate, same investigated count —
//! because the cut only skips candidates whose objective lower bound
//! already meets the incumbent and acceptance is strictly-better-only.

use dot_core::constraints;
use dot_core::problem::Problem;
use dot_core::{dot, exhaustive};
use dot_dbms::memo::PlanMemo;
use dot_dbms::query::{Op, QuerySpec, ReadOp, Rel, ScanSpec, UpdateOp};
use dot_dbms::{EngineConfig, SchemaBuilder};
use dot_profiler::{profile_workload, ProfileSource};
use dot_storage::catalog;
use dot_workloads::{SlaSpec, Workload};
use proptest::prelude::*;

/// Random schema: 1–3 tables, each with a primary index and 0–1 secondary.
fn arb_schema() -> impl Strategy<Value = dot_dbms::Schema> {
    proptest::collection::vec(
        (
            1_000.0..5_000_000.0f64, // rows
            40.0..400.0f64,          // row bytes
            proptest::bool::ANY,     // secondary index?
        ),
        1..3,
    )
    .prop_map(|tables| {
        let mut b = SchemaBuilder::new("prop");
        for (i, (rows, bytes, secondary)) in tables.into_iter().enumerate() {
            b = b.table(&format!("t{i}"), rows, bytes).primary_index(8.0);
            if secondary {
                b = b.index(&format!("t{i}_sec"), 8.0);
            }
        }
        b.build()
    })
}

/// A mixed read/write workload (one indexed read per table plus one
/// update), weighted, in either metric.
fn mixed_workload(schema: &dot_dbms::Schema, sel: f64, weights: &[f64], oltp: bool) -> Workload {
    let mut queries: Vec<QuerySpec> = schema
        .tables()
        .iter()
        .map(|t| {
            let pk = schema.primary_index_of(t.id).expect("pk").id;
            QuerySpec::read(
                &format!("q_{}", t.name),
                ReadOp::of(Rel::Scan(ScanSpec::indexed(t.id, sel, pk))),
            )
        })
        .collect();
    let t0 = &schema.tables()[0];
    let pk0 = schema.primary_index_of(t0.id).expect("pk").id;
    queries.push(QuerySpec::transaction(
        "w_0",
        vec![Op::Update(UpdateOp {
            table: t0.id,
            rows: 50.0,
            via: Some(pk0),
            updates_indexed_key: false,
        })],
    ));
    for (q, w) in queries.iter_mut().zip(weights) {
        q.weight = *w;
    }
    if oltp {
        Workload::oltp("prop", queries, 8, 100.0)
    } else {
        Workload::dss("prop", queries)
    }
}

/// Outcomes must agree on everything except the pruned counter itself
/// (and the wall clock, which is never compared).
fn assert_same_dot(pruned: &dot::DotOutcome, plain: &dot::DotOutcome) {
    assert_eq!(pruned.layout, plain.layout);
    assert_eq!(pruned.estimate, plain.estimate);
    assert_eq!(pruned.layouts_investigated, plain.layouts_investigated);
    assert_eq!(plain.layouts_pruned, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DSS: the greedy sweep with the dominance cut returns exactly what
    /// the estimate-everything sweep returns, at any SLA.
    #[test]
    fn pruned_dot_sweep_is_bit_identical_dss(
        schema in arb_schema(),
        sel in 1e-4..0.5f64,
        weights in proptest::collection::vec(0.1..10.0f64, 4),
        sla in 0.05..1.0f64,
    ) {
        let pool = catalog::box2();
        let w = mixed_workload(&schema, sel, &weights, false);
        let p = Problem::new(&schema, &pool, &w, SlaSpec::relative(sla), EngineConfig::dss());
        let cons = constraints::derive(&p);
        let prof = profile_workload(&PlanMemo::new(&w.queries, &schema, &pool, &p.cfg), ProfileSource::Estimate);
        let toc = dot_core::toc::Estimator::direct();
        let with = dot::optimize_with_pruning(&p, &prof, &cons, &toc, true);
        let without = dot::optimize_with_pruning(&p, &prof, &cons, &toc, false);
        assert_same_dot(&with, &without);
    }

    /// OLTP: on throughput workloads the bound is the layout cost itself
    /// (exact), so the cut fires hard — and still changes nothing.
    #[test]
    fn pruned_dot_sweep_is_bit_identical_oltp(
        schema in arb_schema(),
        sel in 1e-4..0.5f64,
        weights in proptest::collection::vec(0.1..10.0f64, 4),
        sla in 0.05..1.0f64,
    ) {
        let pool = catalog::box2();
        let w = mixed_workload(&schema, sel, &weights, true);
        let p = Problem::new(&schema, &pool, &w, SlaSpec::relative(sla), EngineConfig::oltp());
        let cons = constraints::derive(&p);
        let prof = profile_workload(&PlanMemo::new(&w.queries, &schema, &pool, &p.cfg), ProfileSource::Estimate);
        let toc = dot_core::toc::Estimator::direct();
        let with = dot::optimize_with_pruning(&p, &prof, &cons, &toc, true);
        let without = dot::optimize_with_pruning(&p, &prof, &cons, &toc, false);
        assert_same_dot(&with, &without);
    }

    /// Exhaustive search: the pruned enumeration finds the identical
    /// optimum over the identical candidate count, in both metrics.
    #[test]
    fn pruned_exhaustive_search_is_bit_identical(
        schema in arb_schema(),
        sel in 1e-4..0.5f64,
        weights in proptest::collection::vec(0.1..10.0f64, 4),
        sla in 0.05..1.0f64,
        oltp in proptest::bool::ANY,
    ) {
        let pool = catalog::box2();
        let w = mixed_workload(&schema, sel, &weights, oltp);
        let cfg = if oltp { EngineConfig::oltp() } else { EngineConfig::dss() };
        let p = Problem::new(&schema, &pool, &w, SlaSpec::relative(sla), cfg);
        let cons = constraints::derive(&p);
        let toc = dot_core::toc::Estimator::direct();
        let with = exhaustive::exhaustive_search_with_pruning(&p, &cons, &toc, true);
        let without = exhaustive::exhaustive_search_with_pruning(&p, &cons, &toc, false);
        prop_assert_eq!(&with.layout, &without.layout);
        prop_assert_eq!(&with.estimate, &without.estimate);
        prop_assert_eq!(with.layouts_investigated, without.layouts_investigated);
        prop_assert!(with.layouts_pruned <= with.layouts_investigated);
        prop_assert_eq!(without.layouts_pruned, 0);
    }
}

/// The cut must actually fire on the paper's own workloads — a bound that
/// never prunes would pass every equivalence test above while buying
/// nothing. (CI enforces the same invariant on the distilled benchmark
/// numbers.)
#[test]
fn pruning_fires_on_paper_workloads() {
    // DSS / response time: TPC-H subset, as in the conformance suite.
    let s = dot_workloads::tpch::subset_schema(2.0);
    let w = dot_workloads::tpch::subset_workload(&s);
    let pool = catalog::box2();
    let p = Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
    let cons = constraints::derive(&p);
    let toc = dot_core::toc::Estimator::direct();
    let es = exhaustive::exhaustive_search_with_pruning(&p, &cons, &toc, true);
    assert!(
        es.layouts_pruned > 0,
        "ES pruned nothing on the TPC-H subset"
    );
    assert!(es.layouts_pruned <= es.layouts_investigated);

    // OLTP / throughput: TPC-C, where the additive search's suffix bound
    // and the greedy sweep's exact cost bound both cut.
    let s = dot_workloads::tpcc::schema(2.0);
    let w = dot_workloads::tpcc::workload(&s);
    let p = Problem::new(&s, &pool, &w, SlaSpec::relative(0.25), EngineConfig::oltp());
    let cons = constraints::derive(&p);
    let prof = profile_workload(
        &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
        ProfileSource::Estimate,
    );
    let es = exhaustive::exhaustive_search_additive(&p, &prof, &cons).expect("within budget");
    assert!(es.layouts_pruned > 0, "additive ES pruned nothing on TPC-C");
    assert!(
        es.layouts_pruned <= es.layouts_investigated,
        "additive ES cut {} of {} nodes entered",
        es.layouts_pruned,
        es.layouts_investigated
    );
    let dot_out = dot::optimize_with_pruning(&p, &prof, &cons, &toc, true);
    assert!(
        dot_out.layouts_pruned > 0,
        "DOT pruned nothing on TPC-C ({} investigated)",
        dot_out.layouts_investigated
    );
}

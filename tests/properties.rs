//! Property-based tests over the core data structures and optimizer
//! invariants, using randomly generated schemas, workloads and pools.

use dot_core::{constraints, dot, moves, problem::Problem, toc};
use dot_dbms::memo::PlanMemo;
use dot_dbms::query::{QuerySpec, ReadOp, Rel, ScanSpec};
use dot_dbms::{EngineConfig, Layout, SchemaBuilder};
use dot_profiler::{baseline, profile_workload, ProfileSource};
use dot_storage::{catalog, ClassId};
use dot_workloads::{SlaSpec, Workload};
use proptest::prelude::*;

/// Random schema: 1–4 tables, each with a primary index and 0–1 secondary.
fn arb_schema() -> impl Strategy<Value = dot_dbms::Schema> {
    proptest::collection::vec(
        (
            1_000.0..5_000_000.0f64, // rows
            40.0..400.0f64,          // row bytes
            proptest::bool::ANY,     // secondary index?
        ),
        1..4,
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

/// Random read-mostly workload over a schema.
fn workload_for(schema: &dot_dbms::Schema, selectivities: &[f64]) -> Workload {
    let queries: Vec<QuerySpec> = schema
        .tables()
        .iter()
        .zip(selectivities.iter().cycle())
        .map(|(t, &sel)| {
            let pk = schema.primary_index_of(t.id).expect("pk").id;
            QuerySpec::read(
                &format!("q_{}", t.name),
                ReadOp::of(Rel::Scan(ScanSpec::indexed(t.id, sel, pk))),
            )
        })
        .collect();
    Workload::dss("prop", queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Layout cost is the exact dot product of prices and per-class space,
    /// for any assignment.
    #[test]
    fn layout_cost_matches_manual_sum(
        schema in arb_schema(),
        assignment_seed in proptest::collection::vec(0usize..3, 1..16),
    ) {
        let pool = catalog::box2();
        let classes: Vec<ClassId> = pool.ids().collect();
        let assignment: Vec<ClassId> = (0..schema.object_count())
            .map(|i| classes[assignment_seed[i % assignment_seed.len()] % classes.len()])
            .collect();
        let layout = Layout::from_assignment(assignment);
        let mut manual = 0.0;
        for o in schema.objects() {
            manual += pool.class_unchecked(layout.class_of(o.id)).price_cents_per_gb_hour
                * o.size_gb;
        }
        let cost = layout.cost_cents_per_hour(&schema, &pool);
        prop_assert!((cost - manual).abs() < 1e-9);
    }

    /// Estimated response time is monotone in device speed: placing every
    /// object on a strictly faster class can never slow any query down.
    #[test]
    fn time_is_monotone_in_device_speed(
        schema in arb_schema(),
        sel in 1e-5..0.9f64,
    ) {
        let pool = catalog::box2();
        let w = workload_for(&schema, &[sel]);
        let p = Problem::new(&schema, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let hssd = pool.class_by_name("H-SSD").unwrap().id;
        let hdd = pool.class_by_name("HDD").unwrap().id;
        let fast = toc::estimate_toc(&p, &Layout::uniform(hssd, schema.object_count()));
        let slow = toc::estimate_toc(&p, &Layout::uniform(hdd, schema.object_count()));
        for (f, s) in fast.per_query_ms.iter().zip(&slow.per_query_ms) {
            prop_assert!(f <= &(s * 1.0000001), "fast {f} > slow {s}");
        }
    }

    /// Moves preserve the rest of the layout and exactly apply their
    /// placement; scores are finite and sorted.
    #[test]
    fn enumerated_moves_are_wellformed(
        schema in arb_schema(),
        sel in 1e-4..0.5f64,
    ) {
        let pool = catalog::box2();
        let w = workload_for(&schema, &[sel]);
        let p = Problem::new(&schema, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let prof = profile_workload(&PlanMemo::new(&w.queries, &schema, &pool, &p.cfg), ProfileSource::Estimate);
        let l0 = p.premium_layout();
        let ms = moves::enumerate_moves(&p, &prof);
        let mut prev = f64::NEG_INFINITY;
        for m in &ms {
            prop_assert!(m.score.is_finite());
            prop_assert!(m.score >= prev);
            prev = m.score;
            prop_assert!(m.delta_cost > 0.0);
            let applied = m.apply(&l0);
            for o in schema.objects() {
                match m.objects.iter().position(|x| *x == o.id) {
                    Some(k) => prop_assert_eq!(applied.class_of(o.id), m.placement[k]),
                    None => prop_assert_eq!(applied.class_of(o.id), l0.class_of(o.id)),
                }
            }
        }
    }

    /// The DOT recommendation always satisfies capacity and SLA, and never
    /// costs more than the premium layout.
    #[test]
    fn dot_recommendation_invariants(
        schema in arb_schema(),
        sel in 1e-4..0.5f64,
        ratio in 0.05..0.9f64,
    ) {
        let pool = catalog::box2();
        let w = workload_for(&schema, &[sel]);
        let p = Problem::new(&schema, &pool, &w, SlaSpec::relative(ratio), EngineConfig::dss());
        let cons = constraints::derive(&p);
        let prof = profile_workload(&PlanMemo::new(&w.queries, &schema, &pool, &p.cfg), ProfileSource::Estimate);
        let out = dot::optimize(&p, &prof, &cons);
        if let (Some(layout), Some(est)) = (&out.layout, &out.estimate) {
            prop_assert!(layout.fits(&schema, &pool));
            prop_assert!(cons.satisfied(&p, layout, est));
            prop_assert!(est.objective_cents <= cons.reference.objective_cents + 1e-12);
            prop_assert!((cons.psr(est) - 1.0).abs() < 1e-12);
        }
    }

    /// Baseline layouts place every group position-wise, and projections
    /// reconstruct the group placements exactly.
    #[test]
    fn baseline_layouts_are_consistent(schema in arb_schema()) {
        let pool = catalog::box1();
        let arity = baseline::group_arity(&schema);
        prop_assert!(arity >= 2);
        for placement in baseline::baseline_placements(&pool, arity) {
            let layout = baseline::baseline_layout(&schema, &placement);
            for group in schema.object_groups() {
                let proj = baseline::project_placement(&placement, group.len());
                for (k, obj) in group.iter().enumerate() {
                    prop_assert_eq!(layout.class_of(*obj), proj[k]);
                }
            }
        }
    }

    /// The discrete cost model at alpha=0 equals the linear model, and is
    /// monotone in alpha for any fixed layout.
    #[test]
    fn discrete_cost_monotone_in_alpha(
        schema in arb_schema(),
        class_idx in 0usize..3,
    ) {
        use dot_core::problem::LayoutCostModel;
        let pool = catalog::box2();
        let class = pool.classes()[class_idx].id;
        let layout = Layout::uniform(class, schema.object_count());
        let linear = LayoutCostModel::Linear
            .layout_cost_cents_per_hour(&layout, &schema, &pool);
        let mut prev = linear;
        for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let c = LayoutCostModel::Discrete { alpha }
                .layout_cost_cents_per_hour(&layout, &schema, &pool);
            if alpha == 0.0 {
                prop_assert!((c - linear).abs() < 1e-9);
            }
            prop_assert!(c >= prev - 1e-9);
            prev = c;
        }
    }
}

//! Re-provisioning bench: what drift-aware replanning costs against a full
//! from-scratch re-provision, on the analytical→transactional phase flip.
//!
//! The planner's pitch is operational (it answers *whether and in what
//! order* to migrate, not just *where to*), but it must not cost more than
//! the naive alternative it extends. `replan/warm-session` reuses one
//! drifted Advisor session (profile, constraints and plan templates
//! computed once) across repeated replans while
//! `reprovision/cold` pays the whole pipeline every time.
//!
//! Run with: `cargo bench --bench replan`

use criterion::{criterion_group, criterion_main, Criterion};
use dot_core::advisor::Advisor;
use dot_storage::catalog;
use dot_workloads::{drift, tpcc};
use std::time::Instant;

fn bench_replan(c: &mut Criterion) {
    let schema = tpcc::schema(4.0);
    let pool = catalog::box2();
    let day = drift::analytical_phase(&schema);
    let night = tpcc::workload(&schema);

    let deployed = Advisor::builder(&schema, &pool, &day)
        .sla(0.5)
        .build()
        .expect("day session")
        .recommend("dot")
        .expect("day layout")
        .layout;

    // One-shot headline numbers before the timed samples.
    let start = Instant::now();
    let cold_advisor = Advisor::builder(&schema, &pool, &night)
        .sla(0.5)
        .build()
        .expect("cold session");
    let fresh = cold_advisor.recommend("dot").expect("cold re-provision");
    let cold_elapsed = start.elapsed();

    let warm_advisor = Advisor::builder(&schema, &pool, &night)
        .sla(0.5)
        .build()
        .expect("warm session");
    let first = warm_advisor.replan(&deployed).expect("first replan");
    assert_eq!(first.plan.final_layout, fresh.layout);
    let start = Instant::now();
    let mut again = warm_advisor.replan(&deployed).expect("warm replan");
    let warm_elapsed = start.elapsed();
    // Only wall-clock provenance may differ between runs.
    again.target.provenance.elapsed_ms = first.target.provenance.elapsed_ms;
    assert_eq!(again, first, "replanning is deterministic");
    println!(
        "replan: cold re-provision {cold_elapsed:?}, warm replan {warm_elapsed:?} \
         (speedup {:.1}x); plan: {} moves, {:.2} GB, break-even {:.3e} h",
        cold_elapsed.as_secs_f64() / warm_elapsed.as_secs_f64().max(1e-9),
        first.plan.steps.len(),
        first.plan.total_bytes / 1e9,
        first.plan.break_even_hours,
    );

    let mut group = c.benchmark_group("replan");
    group.sample_size(10);
    group.bench_function("reprovision/cold", |b| {
        b.iter(|| {
            Advisor::builder(&schema, &pool, &night)
                .sla(0.5)
                .build()
                .expect("session")
                .recommend("dot")
                .expect("re-provision")
        })
    });
    group.bench_function("replan/warm-session", |b| {
        b.iter(|| warm_advisor.replan(&deployed).expect("replan"))
    });
    group.finish();
}

criterion_group!(benches, bench_replan);
criterion_main!(benches);

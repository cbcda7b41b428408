//! §4.4.3's headline speed comparison: DOT computes layouts orders of
//! magnitude faster than exhaustive search (the paper reports ~9 s vs
//! ~1400 s on the 8-object TPC-H subset; absolute numbers differ on our
//! simulator, the ratio is the point).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dot_core::{constraints, dot, exhaustive, problem::Problem};
use dot_dbms::memo::PlanMemo;
use dot_dbms::EngineConfig;
use dot_profiler::{profile_workload, ProfileSource};
use dot_storage::catalog;
use dot_workloads::{tpch, SlaSpec};

fn bench_optimizers(c: &mut Criterion) {
    let schema = tpch::subset_schema(20.0);
    let workload = tpch::subset_workload(&schema);
    let pool = catalog::box1();
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

    let mut group = c.benchmark_group("optimizer_speed");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("dot", "tpch-subset"), |b| {
        b.iter(|| dot::optimize(&problem, &profile, &cons))
    });
    group.bench_function(BenchmarkId::new("exhaustive", "tpch-subset"), |b| {
        b.iter(|| exhaustive::exhaustive_search(&problem, &cons))
    });
    group.finish();
}

criterion_group!(benches, bench_optimizers);
criterion_main!(benches);

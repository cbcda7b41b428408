//! `estimateTOC` throughput: DOT calls it once per candidate move, so its
//! latency bounds the optimizer's sweep time (Procedure 1's inner loop).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dot_core::{problem::Problem, toc};
use dot_dbms::memo::PlanMemo;
use dot_dbms::EngineConfig;
use dot_profiler::{profile_workload, ProfileSource};
use dot_storage::catalog;
use dot_workloads::{tpch, SlaSpec};

fn bench_estimate(c: &mut Criterion) {
    let schema = tpch::schema(20.0);
    let workload = tpch::original_workload(&schema);
    let pool = catalog::box2();
    let problem = Problem::new(
        &schema,
        &pool,
        &workload,
        SlaSpec::relative(0.5),
        EngineConfig::dss(),
    );
    let premium = problem.premium_layout();
    let mut group = c.benchmark_group("toc_estimate");
    group.bench_function(BenchmarkId::new("estimate_toc", "tpch-original"), |b| {
        b.iter(|| toc::estimate_toc(&problem, &premium))
    });
    group.bench_function(BenchmarkId::new("measure_toc", "tpch-original"), |b| {
        b.iter(|| toc::measure_toc(&problem, &premium, 7))
    });
    let full = catalog::full_pool();
    let full_problem = Problem::new(
        &schema,
        &full,
        &workload,
        SlaSpec::relative(0.5),
        EngineConfig::dss(),
    );
    // Every session profiles its workload over the pool's baselines.
    group.bench_function(
        BenchmarkId::new("profile_workload", "tpch-original/full"),
        |b| {
            b.iter(|| {
                let plans = PlanMemo::new(&workload.queries, &schema, &full, &full_problem.cfg);
                profile_workload(&plans, ProfileSource::Estimate)
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_estimate);
criterion_main!(benches);

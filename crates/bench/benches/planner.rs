//! Micro-benchmarks of the storage-aware planner: per-query planning cost
//! determines how large a move set DOT can evaluate interactively.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dot_dbms::memo::PlanMemo;
use dot_dbms::{planner, EngineConfig, Layout};
use dot_storage::catalog;
use dot_workloads::{tpcc, tpch};

fn bench_planning(c: &mut Criterion) {
    let pool = catalog::box2();
    let mut group = c.benchmark_group("planner");

    let schema = tpch::schema(20.0);
    let workload = tpch::original_workload(&schema);
    let layout = Layout::uniform(pool.most_expensive(), schema.object_count());
    let cfg = EngineConfig::dss();
    group.bench_function(BenchmarkId::new("plan_workload", "tpch-22"), |b| {
        b.iter(|| planner::plan_workload(&workload.queries, &schema, &layout, &pool, &cfg))
    });
    // A session prices compiled templates instead of planning.
    let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
    group.bench_function(BenchmarkId::new("memo_estimate", "tpch-22"), |b| {
        b.iter(|| memo.estimate(&layout))
    });

    let cschema = tpcc::schema(300.0);
    let cworkload = tpcc::workload(&cschema);
    let clayout = Layout::uniform(pool.most_expensive(), cschema.object_count());
    let ccfg = EngineConfig::oltp();
    group.bench_function(BenchmarkId::new("plan_workload", "tpcc-5txn"), |b| {
        b.iter(|| planner::plan_workload(&cworkload.queries, &cschema, &clayout, &pool, &ccfg))
    });
    let cmemo = PlanMemo::new(&cworkload.queries, &cschema, &pool, &ccfg);
    group.bench_function(BenchmarkId::new("memo_estimate", "tpcc-5txn"), |b| {
        b.iter(|| cmemo.estimate(&clayout))
    });
    group.finish();
}

criterion_group!(benches, bench_planning);
criterion_main!(benches);

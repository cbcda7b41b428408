//! Fleet-provisioning bench: serial vs. parallel batch advising.
//!
//! Prints, besides the criterion medians, a one-shot summary with the
//! serial/parallel speedup — the number the fleet worker pool exists to
//! move.
//!
//! Run with: `cargo bench --bench fleet`

use criterion::{criterion_group, criterion_main, Criterion};
use dot_core::fleet::{provision_fleet, FleetConfig, TenantRequest};
use dot_storage::catalog;
use dot_workloads::tpch;
use std::time::Instant;

/// 4 shapes x 4 tenants of TPC-H-subset analytics databases: heavy enough
/// per tenant (8 objects, 8 queries through the planner) that the worker
/// pool has real work to spread, small enough that a sample finishes fast.
fn build_tenants() -> Vec<TenantRequest> {
    let mut tenants = Vec::new();
    for shape in 0..4 {
        let schema = tpch::subset_schema(shape as f64 + 1.0);
        let workload = tpch::subset_workload(&schema);
        for t in 0..4 {
            tenants.push(TenantRequest {
                name: format!("shape{shape}-tenant{t}"),
                pool: catalog::box2(),
                schema: schema.clone(),
                workload: workload.clone(),
                sla: if t % 2 == 0 { 0.5 } else { 0.25 },
                solver: None,
                engine: None,
                refinements: None,
            });
        }
    }
    tenants
}

fn serial_config() -> FleetConfig {
    FleetConfig {
        workers: 1,
        ..FleetConfig::default()
    }
}

fn parallel_config() -> FleetConfig {
    FleetConfig {
        workers: 0, // size to the machine
        ..FleetConfig::default()
    }
}

fn bench_fleet(c: &mut Criterion) {
    let tenants = build_tenants();

    // One-shot headline numbers before the timed samples.
    let start = Instant::now();
    let serial = provision_fleet(&tenants, &serial_config());
    let serial_elapsed = start.elapsed();
    let start = Instant::now();
    let parallel = provision_fleet(&tenants, &parallel_config());
    let parallel_elapsed = start.elapsed();
    assert_eq!(
        serial.aggregate.tenants_provisioned,
        tenants.len(),
        "every synthetic tenant must provision"
    );
    assert_eq!(parallel.aggregate.tenants_provisioned, tenants.len());
    println!(
        "fleet: {} tenants — serial {serial_elapsed:?}, parallel {parallel_elapsed:?} \
         (speedup {:.2}x)",
        tenants.len(),
        serial_elapsed.as_secs_f64() / parallel_elapsed.as_secs_f64().max(1e-9),
    );

    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    group.bench_function("serial/16-tenants", |b| {
        b.iter(|| provision_fleet(&tenants, &serial_config()))
    });
    group.bench_function("parallel/16-tenants", |b| {
        b.iter(|| provision_fleet(&tenants, &parallel_config()))
    });
    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);

//! Controller bench: what one supervision tick costs against the cold
//! re-provision it replaces.
//!
//! The controller's pitch is that watching for drift is cheap: a quiescent
//! tick pays two TOC estimates (the observation's premium reference and
//! the deployed layout) plus a pure signature distance — no workload
//! profiling, no optimizer sweep — while the naive alternative re-runs the
//! whole pipeline on every observation. `controller/tick-quiescent` times
//! the watch path; `controller/reprovision-cold` times the full pipeline
//! it avoids.
//!
//! Run with: `cargo bench --bench controller`

use criterion::{criterion_group, criterion_main, Criterion};
use dot_core::advisor::Advisor;
use dot_core::controller::{Controller, ControllerConfig};
use dot_storage::catalog;
use dot_workloads::{drift, tpcc};
use std::time::Instant;

fn bench_controller(c: &mut Criterion) {
    let schema = tpcc::schema(4.0);
    let pool = catalog::box2();
    let baseline = tpcc::workload(&schema);
    let deployed = Advisor::builder(&schema, &pool, &baseline)
        .sla(0.5)
        .build()
        .expect("baseline session")
        .recommend("dot")
        .expect("baseline layout")
        .layout;

    // A below-threshold observation: the tick scores it and stays quiet.
    let noisy = drift::shift_read_write(&baseline, 0.05);
    let controller = || {
        Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed.clone(),
            0.5,
            ControllerConfig::default(),
        )
        .expect("controller opens")
    };

    // One-shot headline numbers before the timed samples.
    let start = Instant::now();
    let fresh = Advisor::builder(&schema, &pool, &noisy)
        .sla(0.5)
        .build()
        .expect("session")
        .recommend("dot")
        .expect("re-provision");
    let cold_elapsed = start.elapsed();
    let mut warm = controller();
    let first = warm.observe(&noisy).expect("first tick");
    assert!(!first.triggered(), "noise must not trigger");
    let start = Instant::now();
    let again = warm.observe(&noisy).expect("warm tick");
    let tick_elapsed = start.elapsed();
    assert_eq!(again.events.len(), 1, "quiescent ticks only observe");
    println!(
        "controller: cold re-provision {cold_elapsed:?} ({} layouts), \
         quiescent tick {tick_elapsed:?} (speedup {:.1}x)",
        fresh.provenance.layouts_investigated,
        cold_elapsed.as_secs_f64() / tick_elapsed.as_secs_f64().max(1e-9),
    );

    let mut group = c.benchmark_group("controller");
    group.sample_size(10);
    group.bench_function("reprovision-cold", |b| {
        b.iter(|| {
            Advisor::builder(&schema, &pool, &noisy)
                .sla(0.5)
                .build()
                .expect("session")
                .recommend("dot")
                .expect("re-provision")
        })
    });
    group.bench_function("tick-quiescent", |b| {
        let mut supervisor = controller();
        b.iter(|| supervisor.observe(&noisy).expect("tick"))
    });
    group.finish();
}

criterion_group!(benches, bench_controller);
criterion_main!(benches);

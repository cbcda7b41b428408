//! Fleet provisioning: batch-advise 64 synthetic tenant databases
//! concurrently on a worker pool.
//!
//! The fleet is drawn from 8 distinct tenant *shapes* (schema size ×
//! workload), 8 tenants per shape at alternating SLAs — the realistic SaaS
//! case where most tenants run the same application at a handful of sizes.
//!
//! Run with: `cargo run --release --example fleet_provisioning`

use dot_core::fleet::{provision_fleet, FleetConfig, TenantRequest};
use dot_storage::catalog;
use dot_workloads::synth;

fn main() {
    const SHAPES: usize = 8;
    const PER_SHAPE: usize = 8;

    let mut tenants = Vec::with_capacity(SHAPES * PER_SHAPE);
    for shape in 0..SHAPES {
        let rows = 1_000_000.0 * (shape as f64 + 1.0);
        let schema = synth::bench_schema(rows, 120.0);
        let workload = synth::mixed_workload(&schema);
        for t in 0..PER_SHAPE {
            tenants.push(TenantRequest {
                name: format!("shape{shape}-tenant{t}"),
                pool: catalog::box2(),
                schema: schema.clone(),
                workload: workload.clone(),
                sla: if t % 2 == 0 { 0.5 } else { 0.25 },
                solver: None, // "dot"
                engine: None,
                refinements: None,
            });
        }
    }

    let report = provision_fleet(&tenants, &FleetConfig::default());

    println!(
        "provisioned {} of {} tenants in {} ms",
        report.aggregate.tenants_provisioned,
        report.tenants.len(),
        report.wall_ms
    );
    for outcome in report.tenants.iter().take(4) {
        let rec = outcome.recommendation.as_ref().expect("tenant provisioned");
        println!(
            "    {:<18} {:>8.4} cents/hour  ({} layouts investigated)",
            outcome.tenant,
            rec.estimate.layout_cost_cents_per_hour,
            rec.provenance.layouts_investigated
        );
    }
    println!("    ... and {} more", report.tenants.len() - 4);

    println!("\naggregate bill:");
    for line in &report.aggregate.classes {
        println!(
            "    {:<14} {:>10.2} GB  {:>10.4} cents/hour",
            line.class, line.gb, line.cents_per_hour
        );
    }
    println!(
        "    total {:.4} cents/hour",
        report.aggregate.total_cents_per_hour
    );

    assert_eq!(report.aggregate.tenants_provisioned, SHAPES * PER_SHAPE);
}

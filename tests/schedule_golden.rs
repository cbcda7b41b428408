//! Golden migration-schedule snapshot: the tiered-downgrade family where
//! `--sla-during-migration 0.32` **forces an extra wave** (ISSUE 10's
//! acceptance scenario), pinned to a committed expected plan pair under
//! `tests/golden/schedule_sla_extra_wave.json`.
//!
//! The family: four index-free tables with steeply tiered scan heat on the
//! full five-class catalog. The deployed layout overpays (hot table on
//! H-SSD); the solver's target tiers everything down onto striped and
//! plain HDD. Unconstrained, two of the three transfers ride disjoint
//! lanes and pack into one wave — makespan beats the sequential copy. At
//! an in-flight SLA of 0.32 the packed wave's contention estimate breaches
//! the ratio, the scheduler splits it, and the plan runs one wave longer
//! at the sequential makespan while landing on the bit-identical layout.
//!
//! Comparison is **structural** (parse, then `assert_eq!`), after zeroing
//! wall-clock provenance.
//!
//! To regenerate after an intentional behaviour change:
//! `UPDATE_GOLDEN=1 cargo test --test schedule_golden`.

use dot_core::advisor::Advisor;
use dot_core::replan::{MigrationBudget, ReplanOptions, ReplanRecommendation};
use dot_dbms::query::{QuerySpec, ReadOp, Rel, ScanSpec};
use dot_dbms::{Layout, SchemaBuilder};
use dot_storage::{catalog, ClassId};
use dot_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The committed artifact: the same migration planned without and with
/// the in-flight SLA, so the diff *is* the wave split.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct ScheduleGolden {
    unconstrained: ReplanRecommendation,
    sla_constrained: ReplanRecommendation,
}

fn tiered_schema() -> dot_dbms::Schema {
    let mut b = SchemaBuilder::new("tiered");
    for (name, rows, bytes) in [
        ("hot", 800_000.0, 120.0),
        ("warm", 1_200_000.0, 120.0),
        ("cool", 2_000_000.0, 120.0),
        ("cold", 3_000_000.0, 120.0),
    ] {
        b = b.table(name, rows, bytes);
    }
    b.build()
}

fn tiered_workload(schema: &dot_dbms::Schema) -> Workload {
    let weights = [400.0, 60.0, 6.0, 1.0];
    let queries = schema
        .tables()
        .iter()
        .zip(weights)
        .map(|(t, w)| {
            QuerySpec::read(
                &format!("scan_{}", t.name),
                ReadOp::of(Rel::Scan(ScanSpec::full(t.id))),
            )
            .with_weight(w)
        })
        .collect();
    Workload::dss("tiered", queries)
}

fn deployed() -> Layout {
    Layout::from_assignment(vec![ClassId(4), ClassId(2), ClassId(3), ClassId(0)])
}

fn strip(mut rec: ReplanRecommendation) -> ReplanRecommendation {
    rec.target.provenance.elapsed_ms = 0;
    rec
}

fn plan_pair() -> ScheduleGolden {
    let schema = tiered_schema();
    let pool = catalog::full_pool();
    let workload = tiered_workload(&schema);
    let advisor = Advisor::builder(&schema, &pool, &workload)
        .sla(0.4)
        .build()
        .expect("session");
    let current = deployed();
    let unconstrained = strip(
        advisor
            .replan_scheduled(&current, "dot", &ReplanOptions::default())
            .expect("unconstrained plan"),
    );
    let sla_constrained = strip(
        advisor
            .replan_scheduled(
                &current,
                "dot",
                &ReplanOptions {
                    budget: MigrationBudget::unbounded(),
                    sla_during_migration: Some(0.32),
                },
            )
            .expect("constrained plan"),
    );
    ScheduleGolden {
        unconstrained,
        sla_constrained,
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/schedule_sla_extra_wave.json")
}

#[test]
fn the_sla_forced_extra_wave_matches_the_golden_plan() {
    let off = plan_pair();

    // The snapshot must actually witness the acceptance scenario.
    assert!(
        off.unconstrained
            .plan
            .schedule
            .waves
            .iter()
            .any(|w| w.steps.len() >= 2),
        "the unconstrained plan must pack a multi-transfer wave"
    );
    assert!(
        off.sla_constrained.plan.schedule.waves.len() > off.unconstrained.plan.schedule.waves.len(),
        "the SLA must force an extra wave: {} vs {}",
        off.sla_constrained.plan.schedule.waves.len(),
        off.unconstrained.plan.schedule.waves.len()
    );
    assert!(
        off.unconstrained.plan.schedule.makespan_seconds
            < off.unconstrained.plan.schedule.sequential_seconds,
        "the packed plan must beat the sequential copy"
    );
    assert_eq!(
        off.unconstrained.plan.final_layout, off.sla_constrained.plan.final_layout,
        "the SLA changes the packing, never the destination"
    );

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let json = serde_json::to_string_pretty(&off).expect("plans serialize");
        std::fs::write(&path, json + "\n").expect("write golden file");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no golden plan at {} ({e}); run UPDATE_GOLDEN=1 \
             cargo test --test schedule_golden to create it",
            path.display()
        )
    });
    let expected: ScheduleGolden =
        serde_json::from_str(&committed).expect("golden plan parses structurally");
    assert_eq!(
        off, expected,
        "the scheduled plan drifted from the committed golden; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1 cargo \
         test --test schedule_golden"
    );
}

//! Golden maintenance-window trajectory: a byte budget cuts a drift-
//! triggered migration short, and the controller's recurring maintenance
//! window (`window_ticks`) finishes the rollout two windows later — the
//! committed `ControlEvent` log pins the whole arc under
//! `tests/golden/windowed_rollout.json`.
//!
//! The trajectory (TPC-C baseline, two-class box, analytical flip held
//! for seven ticks, cool-down 2, window every 3 ticks):
//!
//! * tick 0 — drift triggers; the budget admits all but the smallest
//!   group: `Partial`, a rollout is pending;
//! * ticks 1-2 — the observation re-baselined, so the held phase is
//!   quiet, and the window has not opened yet;
//! * tick 3 — the window opens with the rollout pending and migrates the
//!   deferred remainder (`Migrate`), clearing the pending flag;
//! * ticks 4-6 — quiet: tick 6's window finds nothing pending and does
//!   not trigger.
//!
//! Comparison is **structural** (parse, then `assert_eq!`).
//!
//! To regenerate after an intentional behaviour change:
//! `UPDATE_GOLDEN=1 cargo test --test windowed_golden`.

use dot_core::advisor::Advisor;
use dot_core::controller::{ControlEvent, Controller, ControllerConfig, TriggerReason};
use dot_core::replan::{MigrationBudget, MigrationDecision};
use dot_storage::catalog;
use dot_workloads::{drift, tpcc};
use std::path::PathBuf;

const TICKS: usize = 7;

fn config(budget: MigrationBudget) -> ControllerConfig {
    ControllerConfig {
        cooldown_ticks: 2,
        window_ticks: Some(3),
        budget,
        ..ControllerConfig::default()
    }
}

fn replay() -> Vec<ControlEvent> {
    let schema = tpcc::schema(2.0);
    let pool = catalog::box2();
    let baseline = tpcc::workload(&schema);
    let deployed = Advisor::builder(&schema, &pool, &baseline)
        .sla(0.5)
        .build()
        .expect("baseline session")
        .recommend("dot")
        .expect("baseline layout")
        .layout;
    let flipped = drift::analytical_phase(&schema);

    // A budget that admits all but the smallest group of the full flip
    // plan, so the first trigger must defer something.
    let full = Advisor::builder(&schema, &pool, &flipped)
        .sla(0.5)
        .build()
        .expect("flipped session")
        .replan_with(&deployed, "dot", &MigrationBudget::unbounded())
        .expect("full plan");
    assert!(full.plan.steps.len() >= 2, "the flip must move two groups");
    let smallest = full
        .plan
        .steps
        .iter()
        .map(|s| s.bytes)
        .fold(f64::INFINITY, f64::min);
    let budget = MigrationBudget {
        max_bytes: Some(full.plan.total_bytes - smallest),
        ..MigrationBudget::unbounded()
    };

    let mut controller = Controller::new(&schema, &pool, &baseline, deployed, 0.5, config(budget))
        .expect("controller opens");
    for _ in 0..TICKS {
        controller.observe(&flipped).expect("tick observes");
    }
    controller.events().to_vec()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/windowed_rollout.json")
}

#[test]
fn the_windowed_rollout_matches_the_golden_log() {
    let log = replay();

    // The log must actually witness the arc: a budget-cut Partial on the
    // drift trigger, then exactly one Window trigger finishing it.
    let decisions: Vec<&MigrationDecision> = log
        .iter()
        .filter_map(|e| match e {
            ControlEvent::Planned { decision, .. } => Some(decision),
            _ => None,
        })
        .collect();
    assert!(
        matches!(
            decisions.first(),
            Some(MigrationDecision::Partial { deferred_groups }) if *deferred_groups >= 1
        ),
        "the first plan must be budget-cut: {decisions:?}"
    );
    assert!(
        matches!(decisions.last(), Some(MigrationDecision::Migrate)),
        "the window must finish the rollout: {decisions:?}"
    );
    let window_ticks: Vec<u64> = log
        .iter()
        .filter_map(|e| match e {
            ControlEvent::Triggered {
                tick,
                reason: TriggerReason::Window { .. },
                ..
            } => Some(*tick),
            _ => None,
        })
        .collect();
    assert_eq!(
        window_ticks,
        vec![3],
        "exactly one maintenance window may fire, at tick 3"
    );

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let json = serde_json::to_string_pretty(&log).expect("log serializes");
        std::fs::write(&path, json + "\n").expect("write golden file");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no golden log at {} ({e}); run UPDATE_GOLDEN=1 \
             cargo test --test windowed_golden to create it",
            path.display()
        )
    });
    let expected: Vec<ControlEvent> =
        serde_json::from_str(&committed).expect("golden log parses structurally");
    assert_eq!(
        log, expected,
        "the windowed-rollout log drifted from the committed golden; if \
         the change is intentional, regenerate with UPDATE_GOLDEN=1 \
         cargo test --test windowed_golden"
    );
}

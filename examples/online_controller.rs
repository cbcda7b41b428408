//! Closing the loop: an online controller supervises a deployed layout
//! through a day of drift and decides for itself when to re-provision.
//!
//! A TPC-C database is provisioned for its transactional baseline. The
//! controller then ingests a scripted trace of observed profiles: two
//! slightly-noisy transactional ticks (below the drift threshold — the
//! controller must stay quiet), an analytical reporting phase held for
//! three ticks (far over the threshold — the controller replans and
//! migrates once, then treats the new phase as its baseline), and finally
//! the flip back (deferred while the cool-down runs, then re-triggered).
//!
//! Run with: `cargo run --release --example online_controller`

use dot_core::advisor::Advisor;
use dot_core::controller::{ControlEvent, Controller, ControllerConfig, TraceStep};
use dot_storage::catalog;
use dot_workloads::tpcc;

fn main() {
    let schema = tpcc::schema(2.0);
    let pool = catalog::box2();
    let baseline = tpcc::workload(&schema);

    // Provision the transactional baseline: this layout goes live.
    let deployed = Advisor::builder(&schema, &pool, &baseline)
        .sla(0.5)
        .build()
        .expect("baseline session")
        .recommend("dot")
        .expect("baseline layout")
        .layout;

    let config = ControllerConfig {
        cooldown_ticks: 2,
        ..ControllerConfig::default()
    };
    println!(
        "supervising {:?} (drift threshold {}, cool-down {} ticks)\n",
        baseline.name, config.drift_threshold, config.cooldown_ticks
    );
    let mut controller = Controller::new(&schema, &pool, &baseline, deployed, 0.5, config)
        .expect("controller opens");

    // The scripted day: noise, a held analytical phase, the flip back.
    let step = |phase: Option<&str>, shift: Option<f64>, repeat: usize| TraceStep {
        shift,
        scale: None,
        phase: phase.map(str::to_owned),
        repeat: Some(repeat),
    };
    let script = vec![
        step(None, Some(0.03), 1),
        step(None, Some(-0.04), 1),
        step(Some("analytical"), None, 3),
        step(Some("baseline"), None, 2),
    ];
    let mut outcomes = Vec::new();
    controller
        .run_steps(&script, |_, tick| tick.map(|o| outcomes.push(o)))
        .expect("trace runs");

    for outcome in &outcomes {
        for event in &outcome.events {
            match event {
                ControlEvent::Observed { tick, distance, .. } => {
                    println!("tick {tick}: observed (distance {distance:.3})")
                }
                ControlEvent::Triggered { tick, reason } => {
                    println!("tick {tick}: TRIGGERED ({reason:?})")
                }
                ControlEvent::Planned { tick, decision, .. } => {
                    println!("tick {tick}: planned {decision:?}")
                }
                ControlEvent::Deferred { tick, reason } => {
                    println!("tick {tick}: deferred ({reason:?})")
                }
                ControlEvent::Applied {
                    tick,
                    objects_moved,
                    bytes_moved,
                } => println!(
                    "tick {tick}: APPLIED — {objects_moved} objects, {:.2} GB migrated",
                    bytes_moved / 1e9
                ),
            }
        }
    }

    let triggers = controller.stats().triggers;
    let applied = controller.stats().applications;

    // The noise ticks stay quiet; the phase flip triggers exactly once
    // (the held phase becomes the new baseline); the flip back triggers
    // again once the cool-down has passed. No flapping in between.
    assert!(!outcomes[0].triggered() && !outcomes[1].triggered());
    assert!(outcomes[2].triggered(), "the phase flip must trigger");
    assert!(
        !outcomes[3].triggered() && !outcomes[4].triggered(),
        "the held phase is the new baseline — no flapping"
    );
    assert_eq!(triggers, 2, "flip out + flip back");
    assert_eq!(applied, 2, "both flips migrate");
    println!(
        "\n{} ticks, {triggers} triggers, {applied} migrations applied — no flap.",
        controller.ticks()
    );
}

//! Golden scenario snapshots: the four scripted drift trajectories of the
//! scenario simulator, each pinned to a committed expected `ControlEvent`
//! log under `tests/golden/`.
//!
//! Comparison is **structural**: the committed JSON parses back into
//! `Vec<ControlEvent>` and is compared with `assert_eq!` — never
//! string-wise — so formatting is irrelevant and every float must match
//! bit for bit.
//!
//! To regenerate after an intentional behaviour change:
//! `UPDATE_GOLDEN=1 cargo test --test scenario_golden`.

mod scenario;

use dot_core::controller::ControlEvent;
use scenario::{run, scenarios};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn check(name: &str) {
    let scenario = scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .expect("known scenario");
    let off = run(&scenario.steps);

    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let json = serde_json::to_string_pretty(&off).expect("log serializes");
        std::fs::write(&path, json + "\n").expect("write golden file");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: no golden log at {} ({e}); run UPDATE_GOLDEN=1 \
             cargo test --test scenario_golden to create it",
            path.display()
        )
    });
    let expected: Vec<ControlEvent> =
        serde_json::from_str(&committed).expect("golden log parses structurally");
    assert_eq!(
        off, expected,
        "{name}: the controller's event log drifted from the committed \
         golden log; if the change is intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test scenario_golden"
    );
}

#[test]
fn gradual_shift_matches_the_golden_log() {
    check("gradual");
}

#[test]
fn sudden_phase_flip_matches_the_golden_log() {
    check("flip");
}

#[test]
fn oscillation_matches_the_golden_log_without_flapping() {
    check("oscillation");
    // Beyond the snapshot: oscillating phases must never trigger on
    // consecutive ticks (the cool-down guarantee, asserted structurally).
    let scenario = scenarios()
        .into_iter()
        .find(|s| s.name == "oscillation")
        .expect("known scenario");
    let log = run(&scenario.steps);
    let trigger_ticks: Vec<u64> = log
        .iter()
        .filter_map(|e| match e {
            ControlEvent::Triggered { tick, .. } => Some(*tick),
            _ => None,
        })
        .collect();
    assert!(!trigger_ticks.is_empty(), "oscillation must trigger at all");
    for pair in trigger_ticks.windows(2) {
        assert!(
            pair[1] - pair[0] >= scenario::config().cooldown_ticks,
            "triggers at ticks {} and {} violate the cool-down",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn diurnal_cycle_matches_the_golden_log() {
    check("diurnal");
    // Beyond the snapshot: a diurnal cycle must not flap — the cool-down
    // spacing holds across day boundaries too.
    let scenario = scenarios()
        .into_iter()
        .find(|s| s.name == "diurnal")
        .expect("known scenario");
    let log = run(&scenario.steps);
    let trigger_ticks: Vec<u64> = log
        .iter()
        .filter_map(|e| match e {
            ControlEvent::Triggered { tick, .. } => Some(*tick),
            _ => None,
        })
        .collect();
    assert!(!trigger_ticks.is_empty(), "the diurnal peak must trigger");
    for pair in trigger_ticks.windows(2) {
        assert!(
            pair[1] - pair[0] >= scenario::config().cooldown_ticks,
            "triggers at ticks {} and {} violate the cool-down",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn flash_crowd_matches_the_golden_log() {
    check("flash");
}

#[test]
fn noise_only_matches_the_golden_log_and_stays_quiet() {
    check("noise");
    let scenario = scenarios()
        .into_iter()
        .find(|s| s.name == "noise")
        .expect("known scenario");
    let log = run(&scenario.steps);
    assert!(
        log.iter()
            .all(|e| matches!(e, ControlEvent::Observed { .. })),
        "sub-threshold noise must produce observations only"
    );
}

//! Deterministic scenario simulator for the online controller: scripted
//! drift trajectories over one fixed TPC-C problem, replayed tick by tick
//! through `dot_core::controller::Controller`, returning the typed
//! [`ControlEvent`] log.
//!
//! The simulator is pure: the problem is fixed, traces are scripted
//! [`TraceStep`]s, and the controller is time-stepped with no wall clock —
//! so a trajectory always yields the same event log. The golden suite (`tests/scenario_golden.rs`) pins the four
//! committed trajectories; the property suite (`tests/controller_props.rs`)
//! covers randomized ones.

use dot_core::advisor::Advisor;
use dot_core::controller::{ControlEvent, Controller, ControllerConfig, TraceStep};
use dot_storage::catalog;
use dot_workloads::tpcc;

/// One scripted trajectory.
pub struct Scenario {
    /// Stable name — also the golden file's stem under `tests/golden/`.
    pub name: &'static str,
    /// The trace script, relative to the TPC-C baseline.
    pub steps: Vec<TraceStep>,
}

fn step(phase: Option<&str>, shift: Option<f64>, repeat: usize) -> TraceStep {
    TraceStep {
        shift,
        scale: None,
        phase: phase.map(str::to_owned),
        repeat: Some(repeat),
    }
}

/// The four committed trajectories: gradual shift, sudden phase flip,
/// oscillation, and noise-only.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        // Reads creep up tick by tick until the drift threshold is crossed.
        Scenario {
            name: "gradual",
            steps: (1..=8)
                .map(|k| step(None, Some(-0.1 * k as f64), 1))
                .collect(),
        },
        // Two noisy transactional ticks, then the analytical phase arrives
        // and holds: exactly one migration, then quiet on the new baseline.
        Scenario {
            name: "flip",
            steps: vec![
                step(None, Some(0.02), 1),
                step(None, Some(-0.03), 1),
                step(Some("analytical"), None, 3),
                step(Some("baseline"), None, 2),
            ],
        },
        // The phases alternate every tick: the cool-down must bound the
        // trigger rate instead of flapping on every observation.
        Scenario {
            name: "oscillation",
            steps: vec![
                step(Some("analytical"), None, 1),
                step(Some("baseline"), None, 1),
                step(Some("analytical"), None, 1),
                step(Some("baseline"), None, 1),
                step(Some("analytical"), None, 1),
                step(Some("baseline"), None, 1),
            ],
        },
        // Sub-threshold noise only: the log is pure observations.
        Scenario {
            name: "noise",
            steps: vec![
                step(None, Some(0.02), 1),
                step(None, Some(-0.04), 1),
                step(None, Some(0.05), 1),
                step(None, Some(-0.01), 1),
                step(None, Some(0.03), 1),
                step(None, Some(-0.05), 1),
            ],
        },
        // Two generated days of a read-heavy diurnal cycle: the peak
        // crosses the threshold, the trough drifts back, and day two must
        // replay day one's decisions against whatever baseline the
        // controller re-anchored on (`dot_core::traces::diurnal`).
        Scenario {
            name: "diurnal",
            steps: dot_core::traces::diurnal(-0.5, 6, 2).expect("valid diurnal spec"),
        },
        // A generated flash crowd: quiet, a 4x demand spike held two
        // ticks, then a linear decay back to baseline
        // (`dot_core::traces::flash_crowd`).
        Scenario {
            name: "flash",
            steps: dot_core::traces::flash_crowd(4.0, 2, 2, 3).expect("valid flash spec"),
        },
    ]
}

/// The simulator's fixed controller configuration.
pub fn config() -> ControllerConfig {
    ControllerConfig {
        cooldown_ticks: 2,
        ..ControllerConfig::default()
    }
}

/// Replay a trajectory and return its log.
// The telemetry suite replays through `Controller::run_source` instead of
// this helper, so it is dead code in that binary.
#[allow(dead_code)]
pub fn run(steps: &[TraceStep]) -> Vec<ControlEvent> {
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
    let mut controller = Controller::new(&schema, &pool, &baseline, deployed, 0.5, config())
        .expect("controller opens");
    controller
        .run_steps(steps, |_, tick| tick.map(drop))
        .expect("trace replays");
    controller.events().to_vec()
}

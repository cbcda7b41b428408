//! Golden trajectories for the measured-telemetry pipeline.
//!
//! Two guarantees pinned here:
//!
//! 1. **The telemetry seam is invisible for scripted observations** —
//!    replaying each committed scenario through a
//!    [`dot_workloads::telemetry::ScriptedSource`] of the expanded script
//!    (instead of ticking its steps in place) reproduces its committed
//!    golden log bit for bit.
//! 2. **A measured drift-triggered migration is itself pinned** — a
//!    [`dot_workloads::telemetry::MeasuredSource`] streams simulated test
//!    runs of a transactional→analytical flip into the controller, the
//!    measured signature crosses the threshold, a migration applies, and
//!    the whole event log matches `tests/golden/measured_flip.json`.
//!
//! To regenerate after an intentional behaviour change:
//! `UPDATE_GOLDEN=1 cargo test --test telemetry_golden`.

mod scenario;

use dot_core::advisor::Advisor;
use dot_core::controller::{expand_trace, ControlEvent, Controller};
use dot_dbms::Layout;
use dot_storage::catalog;
use dot_workloads::telemetry::{MeasuredSource, ScriptedSource};
use dot_workloads::{drift, tpcc, Workload};
use scenario::scenarios;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

#[test]
fn scripted_source_reproduces_every_committed_golden_log() {
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
    for s in scenarios() {
        let committed = std::fs::read_to_string(golden_path(s.name))
            .unwrap_or_else(|e| panic!("{}: no golden log ({e})", s.name));
        let expected: Vec<ControlEvent> =
            serde_json::from_str(&committed).expect("golden log parses structurally");
        let trace = expand_trace(&schema, &baseline, &s.steps).expect("script expands");
        let mut controller = Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed.clone(),
            0.5,
            scenario::config(),
        )
        .expect("controller opens");
        let mut source = ScriptedSource::new(trace);
        controller.run_source(&mut source).expect("source drains");
        assert_eq!(
            controller.events(),
            expected,
            "{}: a ScriptedSource replay must be bit-identical to the \
             committed step-ticked golden log",
            s.name
        );
    }
}

/// The measured trajectory: four transactional ticks, then the analytical
/// reporting phase arrives and holds — observed through simulated test
/// runs, not declared weights.
fn measured_sequence(schema: &dot_dbms::Schema) -> Vec<Workload> {
    let baseline = tpcc::workload(schema);
    let analytical = drift::analytical_phase(schema);
    vec![
        baseline.clone(),
        baseline.clone(),
        baseline,
        analytical.clone(),
        analytical.clone(),
        analytical,
    ]
}

fn replay_measured() -> (Vec<ControlEvent>, Layout) {
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
    let mut source = MeasuredSource::new(&schema, &pool, measured_sequence(&schema), 42);
    // Anchor the controller on the measured baseline (same seed as the
    // first tick), so the session starts quiet instead of scoring the
    // declared-vs-measured weighting gap as drift.
    let measured_baseline = source.measure(&baseline, &deployed, 42).signature();
    let mut controller =
        Controller::new(&schema, &pool, &baseline, deployed, 0.5, scenario::config())
            .expect("controller opens")
            .with_baseline_signature(measured_baseline);
    controller.run_source(&mut source).expect("source drains");
    (controller.events().to_vec(), controller.deployed().clone())
}

#[test]
fn measured_phase_flip_migrates_and_matches_the_golden_log() {
    let (off, off_layout) = replay_measured();

    // The measured flip must actually migrate: the analytical phase's
    // measured signature crosses the threshold and a plan applies.
    assert!(
        off.iter()
            .any(|e| matches!(e, ControlEvent::Triggered { .. })),
        "the measured phase flip must trigger"
    );
    assert!(
        off.iter()
            .any(|e| matches!(e, ControlEvent::Applied { .. })),
        "the measured phase flip must migrate"
    );
    let schema = tpcc::schema(2.0);
    let pool = catalog::box2();
    let baseline = tpcc::workload(&schema);
    let start = Advisor::builder(&schema, &pool, &baseline)
        .sla(0.5)
        .build()
        .expect("baseline session")
        .recommend("dot")
        .expect("baseline layout")
        .layout;
    assert_ne!(off_layout, start, "the deployed layout must move");

    let path = golden_path("measured_flip");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let json = serde_json::to_string_pretty(&off).expect("log serializes");
        std::fs::write(&path, json + "\n").expect("write golden file");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no golden log at {} ({e}); run UPDATE_GOLDEN=1 cargo test \
             --test telemetry_golden to create it",
            path.display()
        )
    });
    let expected: Vec<ControlEvent> =
        serde_json::from_str(&committed).expect("golden log parses structurally");
    assert_eq!(
        off, expected,
        "the measured-telemetry event log drifted from the committed \
         golden log; if the change is intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test telemetry_golden"
    );
}

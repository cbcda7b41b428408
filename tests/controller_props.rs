//! Property-based tests over the online re-provisioning controller: for
//! randomly generated noise amplitudes, drift ramps, and cool-down
//! windows,
//!
//! * **no-flap** — noise strictly below the drift threshold never
//!   triggers (256 cases: the hysteresis/threshold machinery cannot be
//!   provoked by sub-threshold observations);
//! * **monotone drift** ramping past the threshold *eventually* triggers,
//!   and never before the signal actually crosses;
//! * the **cool-down bounds the trigger frequency** exactly: with every
//!   tick over threshold, triggers land every `cooldown` ticks and
//!   nowhere else;
//! * a triggered plan on an **unchanged workload is always the
//!   identity** — the deployed layout never moves and every verdict is
//!   `Unchanged`.

use dot_core::advisor::Advisor;
use dot_core::controller::{ControlEvent, Controller, ControllerConfig, TickOutcome, TraceStep};
use dot_core::replan::MigrationDecision;
use dot_dbms::query::{Op, QuerySpec, ReadOp, Rel, ScanSpec, UpdateOp};
use dot_dbms::{Schema, SchemaBuilder};
use dot_storage::catalog;
use dot_workloads::{drift, Workload};
use proptest::prelude::*;

/// One small table with a primary index: enough structure for plans to
/// react to placement while keeping 256-case suites fast.
fn tiny_schema() -> Schema {
    SchemaBuilder::new("ctl-prop")
        .table("t0", 400_000.0, 120.0)
        .primary_index(8.0)
        .build()
}

/// A mixed read/write workload, so read/write shifts move the signature.
fn mixed_workload(schema: &Schema) -> Workload {
    let table = schema.tables()[0].id;
    let pk = schema.primary_index_of(table).expect("pk").id;
    Workload::dss(
        "ctl-prop",
        vec![
            QuerySpec::read("scan", ReadOp::of(Rel::Scan(ScanSpec::full(table)))),
            QuerySpec::read(
                "probe",
                ReadOp::of(Rel::Scan(ScanSpec::indexed(table, 0.001, pk))),
            ),
            QuerySpec::transaction(
                "upd",
                vec![Op::Update(UpdateOp {
                    table,
                    rows: 150.0,
                    via: Some(pk),
                    updates_indexed_key: false,
                })],
            ),
        ],
    )
}

/// A deployed layout the baseline recommends, plus its controller.
fn controller_for(
    schema: &Schema,
    pool: &dot_storage::StoragePool,
    baseline: &Workload,
    config: ControllerConfig,
) -> Controller {
    let deployed = Advisor::builder(schema, pool, baseline)
        .sla(0.25)
        .build()
        .expect("baseline session")
        .recommend("dot")
        .expect("baseline layout")
        .layout;
    Controller::new(schema, pool, baseline, deployed, 0.25, config).expect("controller opens")
}

/// One step per shift, each one tick of the shifted baseline.
fn shift_steps(shifts: &[f64]) -> Vec<TraceStep> {
    shifts
        .iter()
        .map(|&shift| TraceStep {
            shift: Some(shift),
            ..TraceStep::default()
        })
        .collect()
}

/// The undrifted baseline, held for `ticks` ticks.
fn baseline_step(ticks: usize) -> TraceStep {
    TraceStep {
        repeat: Some(ticks),
        ..TraceStep::default()
    }
}

/// Tick a script through the controller's step API, collecting outcomes.
fn run_steps(controller: &mut Controller, steps: &[TraceStep]) -> Vec<TickOutcome> {
    let mut outcomes = Vec::new();
    controller
        .run_steps(steps, |_, tick| tick.map(|o| outcomes.push(o)))
        .expect("trace runs");
    outcomes
}

fn triggered_ticks(events: &[ControlEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            ControlEvent::Triggered { tick, .. } => Some(*tick),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No-flap: observations whose drift distance stays strictly below the
    /// threshold never trigger, defer, or move the deployed layout —
    /// whatever the noise sequence.
    #[test]
    fn noise_below_threshold_never_triggers(
        amps in proptest::collection::vec(-0.45..0.45f64, 1..8),
    ) {
        let schema = tiny_schema();
        let pool = catalog::box2();
        let baseline = mixed_workload(&schema);
        let observations: Vec<Workload> = amps
            .iter()
            .map(|&a| drift::shift_read_write(&baseline, a))
            .collect();
        // The threshold sits strictly above the worst observation, so
        // every tick is sub-threshold by construction; SLA pressure is
        // taken off the table with an unreachable grace.
        let worst = observations
            .iter()
            .map(|w| drift::profile_distance(&baseline, w))
            .fold(0.0, f64::max);
        let config = ControllerConfig {
            drift_threshold: (worst + 0.05).min(1.0).max(worst * 1.001 + 1e-9),
            sla_grace: 1e9,
            cooldown_ticks: 0,
            ..ControllerConfig::default()
        };
        let mut controller = controller_for(&schema, &pool, &baseline, config);
        let before = controller.deployed().clone();
        let outcomes = run_steps(&mut controller, &shift_steps(&amps));
        for outcome in &outcomes {
            prop_assert!(!outcome.triggered());
            prop_assert_eq!(outcome.events.len(), 1, "quiet ticks only observe");
            prop_assert!(matches!(outcome.events[0], ControlEvent::Observed { .. }));
        }
        prop_assert_eq!(controller.deployed(), &before);
        prop_assert_eq!(triggered_ticks(controller.events()).len(), 0);
    }
}

proptest! {
    /// Monotone drift eventually triggers — and never before the distance
    /// actually crosses the threshold.
    #[test]
    fn monotone_drift_eventually_triggers(
        toward_writes in proptest::bool::ANY,
        ramp in 0.05..0.09f64,
    ) {
        let schema = tiny_schema();
        let pool = catalog::box2();
        let baseline = mixed_workload(&schema);
        let sign = if toward_writes { 1.0 } else { -1.0 };
        let shifts: Vec<f64> = (1..=10).map(|k| sign * ramp * k as f64).collect();
        let observations: Vec<Workload> = shifts
            .iter()
            .map(|&s| drift::shift_read_write(&baseline, s))
            .collect();
        let final_distance =
            drift::profile_distance(&baseline, observations.last().expect("non-empty"));
        prop_assert!(final_distance > 0.0, "the ramp must move the signature");
        let config = ControllerConfig {
            drift_threshold: final_distance * 0.6,
            sla_grace: 1e9,
            cooldown_ticks: 0,
            ..ControllerConfig::default()
        };
        let threshold = config.drift_threshold;
        let mut controller = controller_for(&schema, &pool, &baseline, config);
        let outcomes = run_steps(&mut controller, &shift_steps(&shifts));
        let first_trigger = outcomes.iter().position(|o| o.triggered());
        prop_assert!(first_trigger.is_some(), "monotone drift must trigger");
        for outcome in &outcomes[..first_trigger.expect("checked")] {
            let ControlEvent::Observed { distance, .. } = outcome.events[0] else {
                panic!("first event of a tick is Observed");
            };
            prop_assert!(
                distance < threshold,
                "tick {} did not trigger at distance {} >= threshold {}",
                outcome.tick, distance, threshold
            );
        }
    }

    /// The cool-down bounds the trigger frequency exactly: with every tick
    /// over threshold and nothing ever latching (the plan on an unchanged
    /// workload is `Unchanged`), triggers land at ticks 0, c, 2c, ...
    #[test]
    fn cooldown_bounds_trigger_frequency(
        cooldown in 1usize..5,
        ticks in 4usize..12,
    ) {
        let schema = tiny_schema();
        let pool = catalog::box2();
        let baseline = mixed_workload(&schema);
        let config = ControllerConfig {
            drift_threshold: 0.0, // every observation is over threshold
            cooldown_ticks: cooldown as u64,
            ..ControllerConfig::default()
        };
        let mut controller = controller_for(&schema, &pool, &baseline, config);
        run_steps(&mut controller, &[baseline_step(ticks)]);
        let triggers = triggered_ticks(controller.events());
        let expected: Vec<u64> = (0..ticks as u64).step_by(cooldown).collect();
        prop_assert_eq!(
            triggers, expected,
            "cooldown {} over {} ticks", cooldown, ticks
        );
    }

    /// A triggered plan on an unchanged workload is always the identity:
    /// every verdict is `Unchanged`, no plan has steps, and the deployed
    /// layout never moves.
    #[test]
    fn unchanged_workload_replans_to_the_identity(
        ticks in 1usize..6,
    ) {
        let schema = tiny_schema();
        let pool = catalog::box2();
        let baseline = mixed_workload(&schema);
        let config = ControllerConfig {
            drift_threshold: 0.0,
            cooldown_ticks: 0, // trigger on every tick
            ..ControllerConfig::default()
        };
        let mut controller = controller_for(&schema, &pool, &baseline, config);
        let before = controller.deployed().clone();
        let outcomes = run_steps(&mut controller, &[baseline_step(ticks)]);
        for outcome in &outcomes {
            prop_assert!(outcome.triggered(), "threshold 0 triggers every tick");
            let rec = outcome.replan.as_ref().expect("triggered ticks replan");
            prop_assert_eq!(&rec.plan.decision, &MigrationDecision::Unchanged);
            prop_assert!(rec.plan.steps.is_empty());
            prop_assert_eq!(rec.plan.break_even_hours, 0.0);
            prop_assert!(!outcome
                .events
                .iter()
                .any(|e| matches!(e, ControlEvent::Applied { .. })));
        }
        prop_assert_eq!(controller.deployed(), &before);
    }
}

//! Differential property suite for ticking trace steps in place: for
//! random scripts of read/write shifts, demand scales, phase flips and
//! repeats over all four preset families — with hostile steps mixed in (a
//! scale that overflows a weight to infinity, one that underflows a weight
//! to zero, an unknown phase, a repeat past `MAX_TRACE_TICKS`, drift
//! operators outside their domains) — a controller driven through
//! `Controller::begin_step` / `tick_step` must be indistinguishable from
//! one observing `expand_trace`'s workloads through `Controller::observe`:
//! the same `TickOutcome`s, event log, checkpoint, tick count and typed
//! errors, text included.
//!
//! Two drivers are checked: a whole script through `run_steps` (the fleet
//! and `dot-cli supervise`), and one step at a time, carrying on after a
//! rejected step or a failed tick (the `dot-serve` registry).
//!
//! A third property checks the counters hosts read instead of the log:
//! under both drivers, draining the log every tick, `Controller::stats`
//! equals the counters re-derived from the drained events, failed ticks
//! (a replan whose solver id is unknown) included.

use dot_core::advisor::{presets, Advisor, ProvisionError};
use dot_core::controller::{
    expand_trace, ControlEvent, Controller, ControllerConfig, ControllerStats, ScheduleSummary,
    TickOutcome, TraceStep, MAX_TRACE_TICKS,
};
use dot_dbms::{Layout, Schema};
use dot_storage::{catalog, StoragePool};
use dot_workloads::Workload;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The four preset families of the tenant benchmark.
const FAMILIES: [&str; 4] = [
    "tpcc:2",
    "tpch-subset:2",
    "ycsb:1000000:A",
    "tpch:2:modified",
];

struct Family {
    schema: Schema,
    pool: StoragePool,
    workload: Workload,
    deployed: Layout,
}

fn families() -> &'static [Family] {
    static FAMILIES_CELL: OnceLock<Vec<Family>> = OnceLock::new();
    FAMILIES_CELL.get_or_init(|| {
        FAMILIES
            .iter()
            .map(|preset| {
                let (schema, workload) = presets::database(preset).expect("preset resolves");
                let pool = catalog::box2();
                let deployed = Advisor::builder(&schema, &pool, &workload)
                    .sla(0.5)
                    .build()
                    .expect("baseline session")
                    .recommend("dot")
                    .expect("baseline layout")
                    .layout;
                Family {
                    schema,
                    pool,
                    workload,
                    deployed,
                }
            })
            .collect()
    })
}

fn controller(family: &Family, config: &ControllerConfig) -> Controller {
    Controller::new(
        &family.schema,
        &family.pool,
        &family.workload,
        family.deployed.clone(),
        0.5,
        config.clone(),
    )
    .expect("controller opens")
}

/// One step from drawn parameters: `kind` picks the shape, `u` its
/// magnitude, `repeat` its hold.
fn step((kind, u, repeat): (usize, f64, usize)) -> TraceStep {
    let shift = Some(-0.6 + 1.2 * u);
    let scale = Some(0.3 + 3.0 * u);
    let repeat = (repeat > 0).then_some(repeat);
    let phase = |p: &str| Some(p.to_owned());
    let (shift, scale, phase, repeat) = match kind {
        0 | 1 => (shift, None, None, repeat),
        2 => (None, scale, None, repeat),
        3 => (shift, scale, None, repeat),
        4 => (None, None, phase("analytical"), repeat),
        5 => (shift, scale, phase("analytical"), repeat),
        6 => (shift, None, phase("baseline"), repeat),
        7 => (None, None, None, repeat),
        // Hostile steps.
        8 => (Some(0.9), Some(1e308), None, repeat), // a weight overflows to inf
        // Read weights shrink tenfold, then underflow to 0 while the
        // stream's task count stays positive.
        9 => (Some(0.9), Some(f64::from_bits(1)), None, repeat),
        10 => (None, None, phase("nightly"), repeat),
        11 => (None, None, None, Some(MAX_TRACE_TICKS + 1)),
        12 => (Some(1.0), None, None, repeat),
        _ => (None, Some(f64::NAN), phase("analytical"), repeat),
    };
    TraceStep {
        shift,
        scale,
        phase,
        repeat,
    }
}

fn config((threshold, cooldown): (f64, usize)) -> ControllerConfig {
    ControllerConfig {
        drift_threshold: threshold,
        cooldown_ticks: cooldown as u64,
        ..ControllerConfig::default()
    }
}

/// What a driver saw, tick by tick: each tick's outcome or error, and each
/// rejected step's error.
type Transcript = Vec<Result<TickOutcome, ProvisionError>>;

/// A tick's result with its replan's wall-clock stamp (the one field two
/// solves of the same problem may disagree on) zeroed.
fn timeless(mut tick: Result<TickOutcome, ProvisionError>) -> Result<TickOutcome, ProvisionError> {
    if let Ok(TickOutcome {
        replan: Some(rec), ..
    }) = &mut tick
    {
        rec.target.provenance.elapsed_ms = 0;
    }
    tick
}

fn assert_same_controllers(stepped: &Controller, observed: &Controller) {
    assert_eq!(stepped.events(), observed.events(), "event logs diverge");
    assert_eq!(
        stepped.checkpoint(),
        observed.checkpoint(),
        "checkpoints diverge"
    );
    assert_eq!(stepped.ticks(), observed.ticks(), "tick counts diverge");
    assert_eq!(stepped.deployed(), observed.deployed());
}

/// The registry's driver: one step at a time, a rejected step or a failed
/// tick ends that step only.
fn one_step_at_a_time(family: &Family, config: &ControllerConfig, steps: &[TraceStep]) {
    let mut stepped = controller(family, config);
    let mut observed = controller(family, config);
    let (mut got, mut want): (Transcript, Transcript) = (Vec::new(), Vec::new());
    for step in steps {
        match stepped.begin_step(step) {
            Err(e) => got.push(Err(e)),
            Ok(ticks) => {
                for _ in 0..ticks {
                    let tick = stepped.tick_step();
                    let failed = tick.is_err();
                    got.push(timeless(tick));
                    if failed {
                        break;
                    }
                }
            }
        }
        match expand_trace(&family.schema, &family.workload, std::slice::from_ref(step)) {
            Err(e) => want.push(Err(e)),
            Ok(trace) => {
                for w in &trace {
                    let tick = observed.observe(w);
                    let failed = tick.is_err();
                    want.push(timeless(tick));
                    if failed {
                        break;
                    }
                }
            }
        }
        assert_eq!(got, want, "steps {steps:?}");
    }
    assert_same_controllers(&stepped, &observed);
}

/// The fleet's and the CLI's driver: the whole script, stopping at the
/// first error.
fn whole_script(family: &Family, config: &ControllerConfig, steps: &[TraceStep]) {
    let mut stepped = controller(family, config);
    let mut got: Transcript = Vec::new();
    let run = stepped.run_steps(steps, |_, tick| {
        got.push(timeless(tick.clone()));
        tick.map(drop)
    });
    if let Err(e) = run {
        if !matches!(got.last(), Some(Err(_))) {
            got.push(Err(e)); // rejected before any tick
        }
    }

    let mut observed = controller(family, config);
    let mut want: Transcript = Vec::new();
    match expand_trace(&family.schema, &family.workload, steps) {
        Err(e) => want.push(Err(e)),
        Ok(trace) => {
            for w in &trace {
                let tick = observed.observe(w);
                let failed = tick.is_err();
                want.push(timeless(tick));
                if failed {
                    break;
                }
            }
        }
    }
    assert_eq!(got, want, "steps {steps:?}");
    assert_same_controllers(&stepped, &observed);
}

/// The counters re-derived from a drained log, by matching its events the
/// way hosts counted before the controller kept them.
fn recount(events: &[ControlEvent]) -> ControllerStats {
    let mut stats = ControllerStats::default();
    for event in events {
        match event {
            ControlEvent::Triggered { reason, .. } => {
                stats.triggers += 1;
                stats.last_trigger = Some(reason.clone());
            }
            ControlEvent::Planned {
                waves,
                makespan_seconds,
                ..
            } => {
                stats.last_schedule = Some(ScheduleSummary {
                    waves: *waves,
                    makespan_seconds: *makespan_seconds,
                });
            }
            ControlEvent::Applied { bytes_moved, .. } => {
                stats.applications += 1;
                stats.bytes_moved += bytes_moved;
            }
            _ => {}
        }
    }
    stats
}

fn assert_stats_match(controller: &Controller, drained: &[ControlEvent], steps: &[TraceStep]) {
    let want = recount(drained);
    let got = controller.stats();
    assert_eq!(got, &want, "stats diverge from the log, steps {steps:?}");
    assert_eq!(
        got.bytes_moved.to_bits(),
        want.bytes_moved.to_bits(),
        "steps {steps:?}"
    );
}

/// Both drivers, draining the log after every tick: the controller's
/// counters track the drained log through rejected steps and failed ticks.
fn stats_track_the_drained_log(family: &Family, config: &ControllerConfig, steps: &[TraceStep]) {
    let mut stepped = controller(family, config);
    let mut drained = Vec::new();
    for step in steps {
        let Ok(ticks) = stepped.begin_step(step) else {
            continue;
        };
        for _ in 0..ticks {
            let failed = stepped.tick_step().is_err();
            drained.extend(stepped.drain_events());
            assert_stats_match(&stepped, &drained, steps);
            if failed {
                break;
            }
        }
    }

    let mut whole = controller(family, config);
    let mut drained = Vec::new();
    let _ = whole.run_steps(steps, |controller, tick| {
        drained.extend(controller.drain_events());
        assert_stats_match(controller, &drained, steps);
        tick.map(drop)
    });
    assert_stats_match(&whole, &drained, steps);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn controller_stats_equal_the_counters_of_the_drained_log(
        family in 0usize..4,
        knobs in (0.05..0.6f64, 0usize..3),
        refused in proptest::bool::ANY,
        steps in proptest::collection::vec((0usize..15, 0.0..1.0f64, 0usize..4), 1..8),
    ) {
        let steps: Vec<TraceStep> = steps.into_iter().map(step).collect();
        let mut config = config(knobs);
        if refused {
            // An unknown solver id: every trigger's replan fails after
            // its `Triggered` event is logged.
            config.solver = "simplex".to_owned();
        }
        stats_track_the_drained_log(&families()[family], &config, &steps);
    }

    #[test]
    fn stepping_one_step_at_a_time_matches_expand_and_observe(
        family in 0usize..4,
        knobs in (0.05..0.6f64, 0usize..3),
        steps in proptest::collection::vec((0usize..15, 0.0..1.0f64, 0usize..4), 1..8),
    ) {
        let steps: Vec<TraceStep> = steps.into_iter().map(step).collect();
        one_step_at_a_time(&families()[family], &config(knobs), &steps);
    }

    #[test]
    fn stepping_a_whole_script_matches_expand_and_observe(
        family in 0usize..4,
        knobs in (0.05..0.6f64, 0usize..3),
        steps in proptest::collection::vec((0usize..15, 0.0..1.0f64, 0usize..4), 1..8),
    ) {
        let steps: Vec<TraceStep> = steps.into_iter().map(step).collect();
        whole_script(&families()[family], &config(knobs), &steps);
    }
}

/// Every hostile step, on every family, one at a time and as the middle of
/// a script — so each is exercised however the random draws fall.
#[test]
fn every_hostile_step_errors_identically_on_every_family() {
    let config = ControllerConfig::default();
    for family in families() {
        for kind in 8..15 {
            let hostile = step((kind, 0.5, 2));
            let steps = [step((0, 0.6, 1)), hostile, step((4, 0.0, 1))];
            one_step_at_a_time(family, &config, &steps);
            whole_script(family, &config, &steps);
        }
    }
}

/// A script whose ticks over-run the cap only in total: the script is
/// rejected up front, with the step that crosses the cap named.
#[test]
fn a_script_over_the_tick_cap_is_rejected_before_any_tick() {
    let hold = |ticks| TraceStep {
        repeat: Some(ticks),
        ..TraceStep::default()
    };
    let family = &families()[0];
    let steps = [hold(3), hold(MAX_TRACE_TICKS - 2)];
    whole_script(family, &ControllerConfig::default(), &steps);
}

//! Shared harness for the adversarial controller fuzzer: hostile-trace
//! cases, an *independent* re-implementation of the controller's anti-flap
//! contract checked against its event log, a deterministic splitmix64
//! case generator, and a greedy shrinker that minimizes failing traces
//! before they are committed as regression files.
//!
//! The harness deliberately re-derives the latch/cool-down state machine
//! from the `ControllerConfig` and the `Observed` scores alone — never
//! from the controller's internals — so a divergence between the
//! documented contract and the implementation shows up as a violation.

use dot_core::advisor::{Advisor, ProvisionError};
use dot_core::controller::{
    validate_trace, ControlEvent, Controller, ControllerConfig, DeferReason, TraceStep,
    TriggerReason,
};
use dot_core::replan::MigrationDecision;
use dot_dbms::query::{Op, QuerySpec, ReadOp, Rel, ScanSpec, UpdateOp};
use dot_dbms::{Schema, SchemaBuilder};
use dot_storage::catalog;
use dot_workloads::{drift, Workload};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// One hostile scenario: a controller configuration plus the drift trace
/// thrown at it. Serializable so failing cases shrink down to committed
/// regression files under `tests/golden/adversarial/`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostileCase {
    /// Stable name; doubles as the regression file stem.
    pub name: String,
    /// Relative SLA the controller supervises under.
    pub sla: f64,
    /// The controller's trigger thresholds and replan policy.
    pub config: ControllerConfig,
    /// Deploy a uniform all-HDD layout instead of the solver's
    /// recommendation: a deliberately bad deployment with real SLA
    /// pressure, where a zero budget makes every verdict a `Stay` (the
    /// latch families need this).
    #[serde(default)]
    pub deploy_hdd: bool,
    /// The scripted drift trace (same vocabulary as `--trace` files).
    pub trace: Vec<TraceStep>,
}

/// The pinned outcome summary a committed regression case replays to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Ticks ingested.
    pub ticks: u64,
    /// Ticks that pulled the trigger, in order.
    pub triggered: Vec<u64>,
    /// Over-threshold observations suppressed by the cool-down window.
    pub deferred_cooling: u64,
    /// Over-threshold observations suppressed by the hysteresis latch.
    pub deferred_latched: u64,
    /// Migrations adopted.
    pub applied: u64,
}

/// A regression file: the case plus its pinned verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionCase {
    /// The hostile case.
    pub case: HostileCase,
    /// What replaying it must produce.
    pub verdict: Verdict,
}

/// `tests/golden/adversarial/` in the source tree.
pub fn regression_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/adversarial")
}

/// One small table with a primary index — the `controller_props` shape,
/// small enough that hundreds of fuzz cases stay fast.
pub fn tiny_schema() -> Schema {
    SchemaBuilder::new("adv-fuzz")
        .table("t0", 400_000.0, 120.0)
        .primary_index(8.0)
        .build()
}

/// A mixed read/write workload, so read/write shifts move the signature.
pub fn mixed_workload(schema: &Schema) -> Workload {
    let table = schema.tables()[0].id;
    let pk = schema.primary_index_of(table).expect("pk").id;
    Workload::dss(
        "adv-fuzz",
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

/// Replay a hostile case through a fresh controller and return its full
/// event log. A mid-trace typed error is itself reported as a violation
/// by [`check_invariants`]' caller, so it maps to `Err` here.
pub fn run_case(case: &HostileCase) -> Result<Vec<ControlEvent>, ProvisionError> {
    let schema = tiny_schema();
    let pool = catalog::box2();
    let baseline = mixed_workload(&schema);
    validate_trace(&case.trace)?;
    let deployed = if case.deploy_hdd {
        dot_dbms::Layout::uniform(
            pool.class_by_name("HDD").expect("box2 has an HDD tier").id,
            schema.object_count(),
        )
    } else {
        Advisor::builder(&schema, &pool, &baseline)
            .sla(case.sla)
            .build()?
            .recommend(&case.config.solver)?
            .layout
    };
    let mut controller = Controller::new(
        &schema,
        &pool,
        &baseline,
        deployed,
        case.sla,
        case.config.clone(),
    )?;
    controller.run_steps(&case.trace, |_, tick| tick.map(drop))?;
    Ok(controller.events().to_vec())
}

/// Summarize an event log into the pinned [`Verdict`].
pub fn verdict_of(events: &[ControlEvent]) -> Verdict {
    let mut verdict = Verdict {
        ticks: 0,
        triggered: Vec::new(),
        deferred_cooling: 0,
        deferred_latched: 0,
        applied: 0,
    };
    for event in events {
        match event {
            ControlEvent::Observed { .. } => verdict.ticks += 1,
            ControlEvent::Triggered { tick, .. } => verdict.triggered.push(*tick),
            ControlEvent::Deferred { reason, .. } => match reason {
                DeferReason::CoolingDown { .. } => verdict.deferred_cooling += 1,
                DeferReason::Latched => verdict.deferred_latched += 1,
            },
            ControlEvent::Applied { .. } => verdict.applied += 1,
            ControlEvent::Planned { .. } => {}
        }
    }
    verdict
}

/// Check the controller's anti-flap contract against its event log,
/// re-deriving the latch and cool-down state independently. Returns the
/// first violation as a human-readable description.
pub fn check_invariants(events: &[ControlEvent], config: &ControllerConfig) -> Result<(), String> {
    // Group the flat log into per-tick runs (events stay in tick order).
    let mut ticks: Vec<Vec<&ControlEvent>> = Vec::new();
    for event in events {
        match event {
            ControlEvent::Observed { tick, .. } => {
                if *tick as usize != ticks.len() {
                    return Err(format!(
                        "Observed tick {tick} out of order (expected {})",
                        ticks.len()
                    ));
                }
                ticks.push(vec![event]);
            }
            other => match ticks.last_mut() {
                Some(run) => run.push(other),
                None => return Err(format!("{other:?} before any Observed event")),
            },
        }
    }

    // The independently tracked guard state.
    let mut armed = true;
    let mut latched_pressure = 0.0f64;
    let mut last_trigger: Option<u64> = None;

    for run in &ticks {
        let ControlEvent::Observed {
            tick,
            distance,
            sla_pressure,
            ..
        } = run[0]
        else {
            unreachable!("runs start at their Observed event");
        };
        let (tick, distance, pressure) = (*tick, *distance, *sla_pressure);
        if !(0.0..=1.0).contains(&distance) {
            return Err(format!("tick {tick}: distance {distance} out of [0, 1]"));
        }
        let drift_over = distance >= config.drift_threshold;
        let sla_over = pressure > config.sla_grace;

        // Re-arm exactly per the documented hysteresis contract.
        let cleared = distance <= config.clear_fraction * config.drift_threshold
            && pressure <= config.sla_grace;
        if !armed && (cleared || pressure > latched_pressure) {
            armed = true;
        }

        if !(drift_over || sla_over) {
            if run.len() != 1 {
                return Err(format!(
                    "tick {tick}: sub-threshold observation (distance {distance}, \
                     pressure {pressure}) produced extra events: {run:?}"
                ));
            }
            continue;
        }

        // Over threshold: exactly one of Triggered / Deferred must follow.
        match run.get(1) {
            None => {
                return Err(format!(
                    "tick {tick}: over-threshold observation (distance {distance}, \
                     pressure {pressure}) was silently swallowed"
                ))
            }
            Some(ControlEvent::Deferred {
                reason: DeferReason::Latched,
                ..
            }) => {
                if armed {
                    return Err(format!(
                        "tick {tick}: Latched defer while the latch is armed"
                    ));
                }
                if run.len() != 2 {
                    return Err(format!("tick {tick}: events after a defer: {run:?}"));
                }
            }
            Some(ControlEvent::Deferred {
                reason: DeferReason::CoolingDown { last_trigger_tick },
                ..
            }) => {
                if !armed {
                    return Err(format!(
                        "tick {tick}: CoolingDown defer on an unarmed controller \
                         (Latched must win)"
                    ));
                }
                if Some(*last_trigger_tick) != last_trigger {
                    return Err(format!(
                        "tick {tick}: CoolingDown names trigger tick {last_trigger_tick}, \
                         actual last trigger {last_trigger:?}"
                    ));
                }
                if tick - last_trigger_tick >= config.cooldown_ticks {
                    return Err(format!(
                        "tick {tick}: CoolingDown defer outside the window \
                         (last trigger {last_trigger_tick}, cooldown {})",
                        config.cooldown_ticks
                    ));
                }
                if run.len() != 2 {
                    return Err(format!("tick {tick}: events after a defer: {run:?}"));
                }
            }
            Some(ControlEvent::Triggered { reason, .. }) => {
                if !armed {
                    return Err(format!("tick {tick}: trigger on an unarmed controller"));
                }
                if let Some(last) = last_trigger {
                    if tick - last < config.cooldown_ticks {
                        return Err(format!(
                            "tick {tick}: trigger inside the cool-down window of \
                             tick {last} (cooldown {})",
                            config.cooldown_ticks
                        ));
                    }
                }
                let reason_ok = matches!(
                    (reason, drift_over, sla_over),
                    (TriggerReason::DriftAndSla { .. }, true, true)
                        | (TriggerReason::Drift { .. }, true, false)
                        | (TriggerReason::Sla { .. }, false, true)
                );
                if !reason_ok {
                    return Err(format!(
                        "tick {tick}: trigger reason {reason:?} contradicts the \
                         signals (drift_over={drift_over}, sla_over={sla_over})"
                    ));
                }
                last_trigger = Some(tick);

                let Some(ControlEvent::Planned {
                    decision,
                    total_bytes,
                    total_cents,
                    ..
                }) = run.get(2)
                else {
                    return Err(format!("tick {tick}: trigger without a Planned verdict"));
                };
                if let Some(max) = config.budget.max_bytes {
                    if *total_bytes > max + 1e-6 {
                        return Err(format!(
                            "tick {tick}: plan moves {total_bytes} bytes over the \
                             {max}-byte budget"
                        ));
                    }
                }
                if let Some(max) = config.budget.max_cents {
                    if *total_cents > max + 1e-6 {
                        return Err(format!(
                            "tick {tick}: plan spends {total_cents} cents over the \
                             {max}-cent budget"
                        ));
                    }
                }
                match decision {
                    MigrationDecision::Migrate | MigrationDecision::Partial { .. } => {
                        let Some(ControlEvent::Applied { bytes_moved, .. }) = run.get(3) else {
                            return Err(format!(
                                "tick {tick}: migrating verdict {decision:?} without \
                                 an Applied event"
                            ));
                        };
                        if bytes_moved != total_bytes {
                            return Err(format!(
                                "tick {tick}: Applied moves {bytes_moved} bytes but \
                                 the plan totals {total_bytes}"
                            ));
                        }
                    }
                    MigrationDecision::Unchanged => {
                        if run.len() != 3 {
                            return Err(format!(
                                "tick {tick}: Unchanged verdict with extra events: {run:?}"
                            ));
                        }
                    }
                    MigrationDecision::Stay => {
                        if run.len() != 3 {
                            return Err(format!(
                                "tick {tick}: Stay verdict with extra events: {run:?}"
                            ));
                        }
                        armed = false;
                        latched_pressure = pressure;
                    }
                }
            }
            Some(other) => {
                return Err(format!(
                    "tick {tick}: over-threshold observation followed by {other:?}, \
                     not a Triggered/Deferred event"
                ))
            }
        }
    }
    Ok(())
}

/// Run a case end to end and return the first contract violation, if any
/// (a typed mid-trace error counts: hostile but *valid* traces must never
/// kill the loop).
// The module is compiled into both adversarial test binaries; the
// regression replayer (`adversarial_regressions`) uses only the replay
// half above, so the generator/shrinker half below is dead code there.
#[allow(dead_code)]
pub fn violation_of(case: &HostileCase) -> Option<String> {
    match run_case(case) {
        Err(e) => Some(format!("typed error mid-trace: {e:?}")),
        Ok(events) => check_invariants(&events, &case.config).err(),
    }
}

/// Deterministic splitmix64 stream, the same generator the execution
/// simulator seeds noise with — no external RNG crates.
#[allow(dead_code)]
pub struct Rng(u64);

#[allow(dead_code)]
impl Rng {
    /// A stream for one named fuzz case.
    pub fn for_case(suite: &str, case: u64) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for byte in suite.bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn below(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }
}

/// Drift distance of a pure read/write shift against the fuzz baseline —
/// the scale the generators aim their thresholds at.
#[allow(dead_code)]
pub fn shift_distance(amp: f64) -> f64 {
    let schema = tiny_schema();
    let baseline = mixed_workload(&schema);
    drift::profile_distance(&baseline, &drift::shift_read_write(&baseline, amp))
}

#[allow(dead_code)]
fn shift_step(shift: f64) -> TraceStep {
    TraceStep {
        shift: Some(shift),
        scale: None,
        phase: None,
        repeat: None,
    }
}

/// Generate one hostile case. Four families, all tuned toward the
/// controller's decision boundaries rather than uniform noise:
///
/// * **boundary** — oscillate right at the drift threshold (amplitudes
///   whose distance lands within ±10% of it), hunting hysteresis flapping;
/// * **ramp** — creep upward strictly *below* the threshold, hunting
///   spurious triggers;
/// * **spike** — hammer inside the cool-down window, hunting triggers that
///   ignore it or defers that misattribute the window;
/// * **latch** — a zero migration budget forces every verdict to `Stay`,
///   then oscillate across the clear threshold, hunting latches that
///   never re-arm or defers that re-litigate the verdict.
#[allow(dead_code)]
pub fn generate_case(case_index: u64) -> HostileCase {
    let mut rng = Rng::for_case("adversarial", case_index);
    let family = rng.below(0, 4);
    let cooldown = rng.below(0, 5) as u64;
    let clear_fraction = rng.uniform(0.0, 1.0);
    // Half the cases keep SLA pressure in play; half isolate drift.
    let sla_grace = if rng.next_u64() % 2 == 0 { 0.02 } else { 1e9 };
    let mut config = ControllerConfig {
        clear_fraction,
        sla_grace,
        cooldown_ticks: cooldown,
        ..ControllerConfig::default()
    };
    let mut trace = Vec::new();
    let name;
    match family {
        0 => {
            name = format!("boundary-{case_index}");
            let amp = rng.uniform(0.15, 0.6);
            config.drift_threshold = (shift_distance(amp) * rng.uniform(0.9, 1.1)).clamp(1e-6, 1.0);
            let lull = amp * rng.uniform(0.0, 0.5);
            for k in 0..rng.below(4, 12) {
                trace.push(shift_step(if k % 2 == 0 { amp } else { lull }));
            }
        }
        1 => {
            name = format!("ramp-{case_index}");
            let steps = rng.below(4, 12);
            let amp = rng.uniform(0.2, 0.6);
            config.drift_threshold =
                (shift_distance(amp) * rng.uniform(1.01, 1.6)).clamp(1e-6, 1.0);
            for k in 1..=steps {
                trace.push(shift_step(amp * k as f64 / steps as f64));
            }
        }
        2 => {
            name = format!("spike-{case_index}");
            config.drift_threshold = rng.uniform(0.01, 0.1);
            config.cooldown_ticks = rng.below(2, 6) as u64;
            let spike = rng.uniform(0.3, 0.7);
            for _ in 0..rng.below(2, 5) {
                trace.push(shift_step(spike));
                let inside = rng.below(1, config.cooldown_ticks as usize + 1);
                trace.push(shift_step(spike * rng.uniform(0.8, 1.0)));
                trace.push(TraceStep {
                    shift: Some(spike * 0.05),
                    scale: None,
                    phase: None,
                    repeat: Some(inside),
                });
            }
        }
        _ => {
            name = format!("latch-{case_index}");
            // A bad all-HDD deployment under real SLA pressure, with no
            // migration budget: every triggered plan is a Stay, engaging
            // the hysteresis latch at that tick's pressure.
            config.budget = dot_core::replan::MigrationBudget::zero();
            config.cooldown_ticks = 0;
            config.sla_grace = 0.0;
            config.drift_threshold = rng.uniform(0.5, 1.0);
            // SLA pressure is the worst per-query margin excess, so
            // reweighting shifts cannot move it — only a different query
            // set can. Engage the latch on one *phase* first (whichever
            // presses less), then flip phases: the harder-pressing phase
            // must pierce the latch, everything else must latch-defer.
            let first = if rng.next_u64() % 2 == 0 {
                "baseline"
            } else {
                "analytical"
            };
            for round in 0..rng.below(2, 4) {
                let other = if first == "baseline" {
                    "analytical"
                } else {
                    "baseline"
                };
                let phase = if round % 2 == 0 { first } else { other };
                trace.push(TraceStep {
                    shift: None,
                    scale: None,
                    phase: Some(phase.to_owned()),
                    repeat: Some(rng.below(2, 4)),
                });
                trace.push(shift_step(rng.uniform(0.0, 0.3)));
            }
        }
    }
    HostileCase {
        name,
        sla: 0.25,
        config,
        deploy_hdd: family == 3,
        trace,
    }
}

/// Greedily shrink a failing case: drop whole steps, then pull shift
/// amplitudes toward zero and repeats toward one, keeping every candidate
/// that still violates the contract. Bounded, deterministic, no RNG.
#[allow(dead_code)]
pub fn shrink(case: &HostileCase) -> HostileCase {
    let mut best = case.clone();
    let mut budget = 200usize;
    loop {
        let mut improved = false;
        // Pass 1: drop each step.
        let mut i = 0;
        while i < best.trace.len() && budget > 0 {
            if best.trace.len() > 1 {
                let mut candidate = best.clone();
                candidate.trace.remove(i);
                budget -= 1;
                if violation_of(&candidate).is_some() {
                    best = candidate;
                    improved = true;
                    continue; // same index now names the next step
                }
            }
            i += 1;
        }
        // Pass 2: soften each step.
        for i in 0..best.trace.len() {
            if budget == 0 {
                break;
            }
            let step = &best.trace[i];
            let mut softer = Vec::new();
            if let Some(shift) = step.shift {
                if shift.abs() > 1e-3 {
                    softer.push(TraceStep {
                        shift: Some(shift / 2.0),
                        ..step.clone()
                    });
                }
            }
            if step.repeat.unwrap_or(1) > 1 {
                softer.push(TraceStep {
                    repeat: Some(step.repeat.unwrap_or(1) / 2),
                    ..step.clone()
                });
            }
            for candidate_step in softer {
                let mut candidate = best.clone();
                candidate.trace[i] = candidate_step;
                budget = budget.saturating_sub(1);
                if violation_of(&candidate).is_some() {
                    best = candidate;
                    improved = true;
                    break;
                }
            }
        }
        if !improved || budget == 0 {
            return best;
        }
    }
}

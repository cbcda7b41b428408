//! The online control loop: detect workload drift, decide when it warrants
//! re-provisioning, and invoke [`Advisor::replan`] automatically.
//!
//! The advisor answers one-shot *"what layout?"* questions; its motivation
//! is operational. Workloads drift — analytical and transactional phases
//! alternate over shared storage, demand scales, read/write balances move —
//! and the recommended configuration goes stale. `replan` (PR 4) prices the
//! migration once someone asks; this module supplies the missing half of
//! the loop: **deciding when to ask**.
//!
//! A [`Controller`] supervises one deployed layout. Each call to
//! [`observe`](Controller::observe) is one time step ("tick") fed with the
//! currently observed workload profile; the controller
//!
//! 1. computes the **drift distance** between the deployed recommendation's
//!    baseline profile and the observation
//!    ([`dot_workloads::drift::profile_distance`]: read/write mix, demand,
//!    class weights, each normalized to `[0, 1]`);
//! 2. fuses it with **SLA telemetry**: the deployed layout is estimated
//!    under the observed workload and graded with per-class
//!    [violation margins](crate::constraints::ViolationMargin) — the same
//!    graded signal [`ValidationReport`](crate::dot::ValidationReport) now
//!    carries — whose worst excess over the caps is the *SLA pressure*;
//! 3. **triggers** a replan when either signal crosses its configured
//!    threshold, subject to two anti-flap guards: a *cool-down* (at least
//!    [`cooldown_ticks`](ControllerConfig::cooldown_ticks) between
//!    triggers) and a *hysteresis latch* (after a plan concludes migration
//!    cannot pay for itself, the controller disarms until the signal falls
//!    below [`clear_fraction`](ControllerConfig::clear_fraction) of the
//!    trigger threshold — the same over-threshold signal is not
//!    re-litigated every tick; SLA pressure climbing past the level the
//!    latch engaged at is new information and pierces it);
//! 4. **applies** a migrating plan: the plan's final layout becomes the
//!    deployed layout and the observation becomes the new baseline.
//!
//! Every step emits typed [`ControlEvent`]s (`Observed` / `Triggered` /
//! `Planned` / `Deferred` / `Applied`) into an append-only log. The
//! controller is pure over its injected profile trace — no wall clock, no
//! randomness — so a scripted trajectory always yields the same event log;
//! the scenario-simulator test suite replays committed trajectories and
//! pins the logs bit for bit.
//!
//! A replan is a pure function of the observed workload and the deployed
//! layout (everything else the solve reads is fixed when the controller is
//! built), so each controller remembers its last [`REPLAN_MEMO`] finished
//! replans keyed by exact equality of that pair, and a triggered tick that
//! repeats one — a flash crowd cycling through the same `scale` steps —
//! reuses the answer instead of re-solving. Controllers of one host count
//! that reuse in a shared [`CachedEstimator`].
//!
//! [`fleet::supervise_tenant`](crate::fleet::supervise_tenant) runs a
//! [`TraceStep`] script through one controller, for `supervise_fleet` and
//! `dot-cli supervise`; hosts read its counters from [`Controller::stats`].
//!
//! ```
//! use dot_core::controller::{Controller, ControllerConfig};
//! use dot_core::advisor::Advisor;
//! use dot_storage::catalog;
//! use dot_workloads::{drift, tpcc};
//!
//! let schema = tpcc::schema(2.0);
//! let pool = catalog::box2();
//! let day = tpcc::workload(&schema);
//! let deployed = Advisor::builder(&schema, &pool, &day).sla(0.5).build()?
//!     .recommend("dot")?.layout;
//!
//! let mut controller =
//!     Controller::new(&schema, &pool, &day, deployed, 0.5, ControllerConfig::default())?;
//! // Observing the baseline itself is quiet...
//! let tick = controller.observe(&day)?;
//! assert!(tick.replan.is_none());
//! // ...while a phase flip crosses the drift threshold and replans.
//! let night = drift::analytical_phase(&schema);
//! let tick = controller.observe(&night)?;
//! assert!(tick.replan.is_some());
//! # Ok::<(), dot_core::advisor::ProvisionError>(())
//! ```

use crate::advisor::{Advisor, ProvisionError};
use crate::constraints;
use crate::problem::{LayoutCostModel, Problem};
use crate::replan::{MigrationBudget, MigrationDecision, ReplanRecommendation};
use crate::toc::{ProblemDelta, TocEstimate};
use dot_dbms::{EngineConfig, Layout, Schema};
use dot_storage::StoragePool;
use dot_workloads::drift::{self, SignatureShape, WorkloadSignature};
use dot_workloads::telemetry::TelemetrySource;
use dot_workloads::{SlaSpec, Workload};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Trigger thresholds and replan policy of a [`Controller`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Profile distance at or above which the controller triggers
    /// (distances are bounded to `[0, 1]`; see
    /// [`drift::profile_distance`]).
    pub drift_threshold: f64,
    /// Hysteresis: after a trigger latches (a `Stay` verdict), re-arm once
    /// the drift distance falls below `clear_fraction × drift_threshold`
    /// and the SLA pressure clears — or once the pressure worsens past
    /// the level the latch engaged at. In `[0, 1]`.
    pub clear_fraction: f64,
    /// SLA pressure (worst violation-margin excess over the caps) above
    /// which the controller triggers even without drift.
    pub sla_grace: f64,
    /// Minimum ticks between triggers; over-threshold observations inside
    /// the window defer instead (`0` disables the cool-down).
    pub cooldown_ticks: u64,
    /// Registry id of the target solver `replan` runs.
    pub solver: String,
    /// Migration budget every triggered plan honors.
    pub budget: MigrationBudget,
    /// Recurring maintenance window: every `n` ticks, a controller whose
    /// last applied plan was [`MigrationDecision::Partial`] re-triggers to
    /// continue the rollout from the deployed (partial) layout — even with
    /// drift and SLA pressure quiet. `None` (the default) disables the
    /// window; a deferred rollout then waits for the next drift/SLA
    /// trigger, as before this knob existed.
    #[serde(default)]
    pub window_ticks: Option<u64>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            drift_threshold: 0.15,
            clear_fraction: 0.5,
            sla_grace: 0.02,
            cooldown_ticks: 3,
            solver: "dot".to_owned(),
            budget: MigrationBudget::unbounded(),
            window_ticks: None,
        }
    }
}

impl ControllerConfig {
    /// Typed domain check of every knob.
    pub fn validate(&self) -> Result<(), ProvisionError> {
        for (name, v, lo, hi) in [
            // Distances are clamped to [0, 1], so a larger threshold would
            // silently disable the drift trigger — reject it instead.
            ("drift_threshold", self.drift_threshold, 0.0, 1.0),
            ("clear_fraction", self.clear_fraction, 0.0, 1.0),
            ("sla_grace", self.sla_grace, 0.0, f64::INFINITY),
        ] {
            if !(v >= lo && v <= hi && v.is_finite()) {
                return Err(ProvisionError::InvalidRequest {
                    reason: format!("controller {name} {v} out of [{lo}, {hi}]"),
                });
            }
        }
        if self.solver.is_empty() {
            return Err(ProvisionError::InvalidRequest {
                reason: "controller solver id is empty".to_owned(),
            });
        }
        if self.window_ticks == Some(0) {
            return Err(ProvisionError::InvalidRequest {
                reason: "controller window_ticks must be at least 1 (use null to disable)"
                    .to_owned(),
            });
        }
        self.budget.validate()
    }
}

/// What pulled a replan trigger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TriggerReason {
    /// An operator asked directly (the one-shot `dot-cli replan` path —
    /// the loop itself never emits this).
    Manual,
    /// No trigger occurred (supervision provenance over a quiet trace).
    Quiescent,
    /// The drift distance crossed the threshold.
    Drift {
        /// The observed profile distance.
        distance: f64,
    },
    /// The SLA pressure crossed the grace threshold.
    Sla {
        /// The observed pressure (worst margin excess).
        pressure: f64,
    },
    /// Both signals crossed at once.
    DriftAndSla {
        /// The observed profile distance.
        distance: f64,
        /// The observed pressure.
        pressure: f64,
    },
    /// A maintenance window opened with a partial rollout pending: the
    /// controller replans from the deployed layout to continue it, with
    /// drift and SLA pressure both quiet.
    Window {
        /// The configured window period ([`ControllerConfig::window_ticks`]).
        every_ticks: u64,
    },
}

/// Why an over-threshold observation did *not* trigger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeferReason {
    /// Inside the cool-down window of the last trigger.
    CoolingDown {
        /// The tick of the trigger the window counts from.
        last_trigger_tick: u64,
    },
    /// The hysteresis latch from an earlier `Stay` verdict has not
    /// re-armed: the signal neither fell below the clear threshold nor
    /// worsened past the pressure the latch engaged at.
    Latched,
}

/// One entry of the controller's append-only event log. Events carry no
/// wall-clock and no reuse statistics, so a scripted trace produces the
/// identical log on every run, whether a replan was solved or reused.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlEvent {
    /// One profile observation was ingested and scored.
    Observed {
        /// The time step.
        tick: u64,
        /// Profile distance against the current baseline, in `[0, 1]`.
        distance: f64,
        /// Graded SLA pressure of the deployed layout under the
        /// observation (`0` = within every cap).
        sla_pressure: f64,
        /// Whether the deployed layout meets the observation's derived
        /// constraints (capacity included).
        feasible: bool,
    },
    /// A signal crossed its threshold with the controller armed and cool.
    Triggered {
        /// The time step.
        tick: u64,
        /// Which signal(s) fired.
        reason: TriggerReason,
    },
    /// The triggered replan produced a verdict.
    Planned {
        /// The time step.
        tick: u64,
        /// The planner's verdict.
        decision: MigrationDecision,
        /// Moves admitted into the plan.
        moves: usize,
        /// Total data movement in bytes.
        total_bytes: f64,
        /// Total migration spend in cents.
        total_cents: f64,
        /// Hourly TOC savings against the stay rate.
        savings_cents_per_hour: f64,
        /// Hours until the savings repay the bill (`0` for empty plans).
        break_even_hours: f64,
        /// Parallel waves the plan's transfer schedule packs into
        /// (`0` for plans that move nothing).
        #[serde(default)]
        waves: usize,
        /// Scheduled wall-clock of the migration: the wave critical path,
        /// never more than the sequential copy time.
        #[serde(default)]
        makespan_seconds: f64,
    },
    /// An over-threshold observation was suppressed by an anti-flap guard.
    Deferred {
        /// The time step.
        tick: u64,
        /// Which guard held it back.
        reason: DeferReason,
    },
    /// A migrating plan was adopted: its final layout is now deployed and
    /// the observation became the new baseline profile.
    Applied {
        /// The time step.
        tick: u64,
        /// Objects whose storage class changed.
        objects_moved: usize,
        /// Bytes the migration moves.
        bytes_moved: f64,
    },
}

impl ControlEvent {
    /// The event's time step.
    pub fn tick(&self) -> u64 {
        match self {
            ControlEvent::Observed { tick, .. }
            | ControlEvent::Triggered { tick, .. }
            | ControlEvent::Planned { tick, .. }
            | ControlEvent::Deferred { tick, .. }
            | ControlEvent::Applied { tick, .. } => *tick,
        }
    }
}

/// Provenance shared by every control-surface `--json` output: the one-shot
/// `dot-cli replan` (trigger stub [`TriggerReason::Manual`]) and each
/// supervised tenant (its last trigger, or [`TriggerReason::Quiescent`]) —
/// so scripts parse one schema whichever surface produced the plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlProvenance {
    /// Wall-clock of the control action in integer milliseconds.
    pub elapsed_ms: u64,
    /// What pulled the trigger.
    pub trigger: TriggerReason,
}

/// The `dot-cli replan --json` output: the re-provisioning answer wrapped
/// with [`ControlProvenance`], schema-compatible with `supervise` tenants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanEnvelope {
    /// Provenance of the one-shot plan (`trigger` is always `Manual`).
    pub provenance: ControlProvenance,
    /// The full re-provisioning answer.
    pub replan: ReplanRecommendation,
}

/// How the most recent plan's transfers pack into parallel waves — the
/// schedule digest `Observe` streams surface next to the tenant counters,
/// so operators can see the in-flight wall-clock a migration commits the
/// tenant to without parsing the full plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSummary {
    /// Parallel transfer waves in the plan (`0` for plans moving nothing).
    pub waves: usize,
    /// The wave critical path in seconds — never more than the sequential
    /// copy time.
    pub makespan_seconds: f64,
}

/// A controller's running counters over the events it has logged, updated
/// as each tick appends them — so hosts read them instead of re-deriving
/// them from event logs they may already have drained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControllerStats {
    /// `Triggered` events logged.
    pub triggers: usize,
    /// `Applied` events logged (plans that moved the deployed layout).
    pub applications: usize,
    /// The reason of the last `Triggered` event.
    pub last_trigger: Option<TriggerReason>,
    /// The schedule digest of the last `Planned` event.
    pub last_schedule: Option<ScheduleSummary>,
    /// Bytes moved, summed over the `Applied` events in log order.
    pub bytes_moved: f64,
}

impl ControllerStats {
    fn count(&mut self, events: &[ControlEvent]) {
        for event in events {
            match event {
                ControlEvent::Triggered { reason, .. } => {
                    self.triggers += 1;
                    self.last_trigger = Some(reason.clone());
                }
                ControlEvent::Planned {
                    waves,
                    makespan_seconds,
                    ..
                } => {
                    self.last_schedule = Some(ScheduleSummary {
                        waves: *waves,
                        makespan_seconds: *makespan_seconds,
                    });
                }
                ControlEvent::Applied { bytes_moved, .. } => {
                    self.applications += 1;
                    self.bytes_moved += bytes_moved;
                }
                ControlEvent::Observed { .. } | ControlEvent::Deferred { .. } => {}
            }
        }
    }

    /// The provenance a session summary stamps: `elapsed_ms` and the last
    /// trigger ([`TriggerReason::Quiescent`] before any).
    pub fn provenance(&self, elapsed_ms: u64) -> ControlProvenance {
        ControlProvenance {
            elapsed_ms,
            trigger: self
                .last_trigger
                .clone()
                .unwrap_or(TriggerReason::Quiescent),
        }
    }
}

/// Everything one [`Controller::observe`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TickOutcome {
    /// The time step this observation was ingested at.
    pub tick: u64,
    /// The events this tick appended to the log, in order.
    pub events: Vec<ControlEvent>,
    /// The full replan answer when this tick triggered.
    pub replan: Option<ReplanRecommendation>,
}

impl TickOutcome {
    /// Whether this tick pulled the trigger.
    pub fn triggered(&self) -> bool {
        self.replan.is_some()
    }
}

/// One scripted observation of a profile trace, relative to the baseline
/// workload: an optional phase selection followed by optional drift
/// operators, repeated for `repeat` ticks. The CLI's `--trace` files, the
/// fleet's supervision requests, and the test suite's scenario simulator
/// all speak this vocabulary. A [`Controller`] ticks a step in place
/// ([`begin_step`](Controller::begin_step) /
/// [`tick_step`](Controller::tick_step)); [`expand_trace`] turns a script
/// into the equivalent workload sequence for
/// [`observe`](Controller::observe).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceStep {
    /// Read/write shift in `(-1, 1)` applied to the step's workload
    /// (positive drifts toward writes); see
    /// [`drift::shift_read_write`].
    #[serde(default)]
    pub shift: Option<f64>,
    /// Demand scale factor `> 0`; see [`drift::scale_throughput`].
    #[serde(default)]
    pub scale: Option<f64>,
    /// Which phase the step observes before drifting: `"baseline"` (the
    /// default) or `"analytical"` (the scan-heavy reporting phase of
    /// [`drift::analytical_phase`]).
    #[serde(default)]
    pub phase: Option<String>,
    /// How many consecutive ticks this observation holds (default 1).
    #[serde(default)]
    pub repeat: Option<usize>,
}

/// Ceiling on a script's length in ticks: each tick costs at least an
/// `O(queries)` re-score, so a runaway `repeat` is a typed error rather
/// than a stalled session.
pub const MAX_TRACE_TICKS: usize = 100_000;

/// The workload a [`TraceStep`] observes before drifting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Baseline,
    Analytical,
}

/// Validate step `i` of a script, `ticks_before` ticks in: its phase and
/// drift operators' domains, and that its repeats keep the script within
/// [`MAX_TRACE_TICKS`]. Answers the step's phase and tick count.
fn check_step(
    i: usize,
    step: &TraceStep,
    ticks_before: usize,
) -> Result<(Phase, usize), ProvisionError> {
    let bad = |what: String| ProvisionError::InvalidRequest {
        reason: format!("trace step {i}: {what}"),
    };
    let phase = match step.phase.as_deref() {
        None | Some("baseline") => Phase::Baseline,
        Some("analytical") => Phase::Analytical,
        Some(other) => {
            return Err(bad(format!(
                "unknown phase {other:?} (known: baseline, analytical)"
            )))
        }
    };
    if let Some(shift) = step.shift {
        if !(shift > -1.0 && shift < 1.0) {
            return Err(bad(format!("shift {shift} out of (-1, 1)")));
        }
    }
    if let Some(scale) = step.scale {
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(bad(format!("scale {scale} must be positive and finite")));
        }
    }
    let repeat = step.repeat.unwrap_or(1);
    if !(1..=MAX_TRACE_TICKS).contains(&repeat) || ticks_before + repeat > MAX_TRACE_TICKS {
        return Err(bad(format!(
            "repeat {repeat} must be >= 1 and keep the trace within \
             {MAX_TRACE_TICKS} ticks"
        )));
    }
    Ok((phase, repeat))
}

/// Validate a trace script, every step with a typed error naming the
/// offender (domain errors, unknown phases, and traces longer than
/// [`MAX_TRACE_TICKS`]) — the errors [`expand_trace`] reports, without
/// building a workload.
pub fn validate_trace(steps: &[TraceStep]) -> Result<(), ProvisionError> {
    let mut ticks = 0;
    for (i, step) in steps.iter().enumerate() {
        ticks += check_step(i, step, ticks)?.1;
    }
    Ok(())
}

/// Expand a trace script into the observed-workload sequence, validating
/// it as [`validate_trace`] does. Every tick is a whole workload, so hosts
/// tick steps in place instead ([`Controller::begin_step`]); this is the
/// reference those ticks are checked against.
pub fn expand_trace(
    schema: &Schema,
    baseline: &Workload,
    steps: &[TraceStep],
) -> Result<Vec<Workload>, ProvisionError> {
    let mut out = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let (phase, repeat) = check_step(i, step, out.len())?;
        let mut w = match phase {
            Phase::Baseline => baseline.clone(),
            Phase::Analytical => drift::analytical_phase(schema),
        };
        if let Some(shift) = step.shift {
            w = drift::shift_read_write(&w, shift);
        }
        if let Some(scale) = step.scale {
            w = drift::scale_throughput(&w, scale);
        }
        out.extend(std::iter::repeat(w).take(repeat));
    }
    Ok(out)
}

/// The estimates a quiescent tick re-targets incrementally instead of
/// recomputing: one full observation's problem inputs plus the two
/// estimates (deployed layout, premium reference) its scoring needed.
/// While subsequent observations stay inside [`ProblemDelta`]'s validity
/// envelope — the reweighting shifts the drift generators produce — each
/// tick costs one `O(queries)` re-accumulation per estimate instead of two
/// planner runs, with bit-identical results; anything else (a phase
/// change, an adopted migration) refreshes the anchor through the full
/// path.
struct DeltaAnchor {
    /// The observation the anchored estimates were computed under.
    workload: Workload,
    /// The trace phase `workload` reweights, when a step was ticked: a
    /// later step of the same phase is inside the envelope by
    /// construction, so it re-targets without comparing workloads.
    phase: Option<Phase>,
    /// Engine configuration the anchor session resolved to.
    cfg: EngineConfig,
    /// Cost model of the anchor problem.
    cost_model: LayoutCostModel,
    /// The layout `deployed_estimate` was computed for.
    deployed: Layout,
    /// The deployed layout's estimate under the anchor observation.
    deployed_estimate: TocEstimate,
    /// The premium-reference estimate behind the anchor's constraints.
    reference_estimate: TocEstimate,
}

/// Finished replans each controller keeps for reuse.
pub const REPLAN_MEMO: usize = 8;

/// Replan-reuse counters shared, through an `Arc`, by the controllers of
/// one host (a `dot-serve` registry, a supervised fleet). The name is that
/// of the whole-layout TOC estimate cache these counters replaced, kept
/// for source compatibility.
#[derive(Debug, Default)]
pub struct CachedEstimator {
    hits: AtomicU64,
    misses: AtomicU64,
    entries: AtomicUsize,
}

/// Snapshot of a [`CachedEstimator`]'s counters; serializable so fleet
/// reports and the daemon's `Stats` frame can carry it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Triggered ticks answered from a controller's replan memo.
    pub hits: u64,
    /// Replans actually solved.
    pub misses: u64,
    /// Answers resident across the controllers (never more than `misses`).
    pub entries: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when no controller ever replanned.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl CachedEstimator {
    /// Zeroed counters.
    pub fn new() -> CachedEstimator {
        CachedEstimator::default()
    }

    /// Zeroed counters. Kept only for source compatibility: the memo each
    /// controller keeps has no setting to size it, so the argument is
    /// ignored.
    pub fn with_capacity(_max_entries: usize) -> CachedEstimator {
        CachedEstimator::default()
    }

    /// Counter snapshot (atomics only, so it never contends with a tick).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }
}

/// A controller's last [`REPLAN_MEMO`] finished replans, oldest first,
/// keyed by the exact (observed workload, deployed layout) they answered.
/// Never persisted: a resumed controller starts empty.
#[derive(Default)]
struct ReplanMemo {
    answers: VecDeque<(Workload, Layout, ReplanRecommendation)>,
    counters: Option<Arc<CachedEstimator>>,
}

impl ReplanMemo {
    fn get(&self, observed: &Workload, deployed: &Layout) -> Option<ReplanRecommendation> {
        let (_, _, rec) = self
            .answers
            .iter()
            .find(|(w, l, _)| l == deployed && w == observed)?;
        if let Some(c) = &self.counters {
            c.hits.fetch_add(1, Ordering::Relaxed);
        }
        Some(rec.clone())
    }

    /// Count a solve, and keep its answer (evicting the oldest if full).
    fn solved(
        &mut self,
        observed: &Workload,
        deployed: &Layout,
        rec: &Result<ReplanRecommendation, ProvisionError>,
    ) {
        if let Some(c) = &self.counters {
            c.misses.fetch_add(1, Ordering::Relaxed);
        }
        let Ok(rec) = rec else { return };
        if self.answers.len() == REPLAN_MEMO {
            self.answers.pop_front();
        } else if let Some(c) = &self.counters {
            c.entries.fetch_add(1, Ordering::Relaxed);
        }
        self.answers
            .push_back((observed.clone(), deployed.clone(), rec.clone()));
    }

    fn clear(&mut self) {
        if let Some(c) = &self.counters {
            c.entries.fetch_sub(self.answers.len(), Ordering::Relaxed);
        }
        self.answers.clear();
    }
}

impl Drop for ReplanMemo {
    fn drop(&mut self) {
        self.clear();
    }
}

/// The serializable control-loop state of a [`Controller`]: everything a
/// restarted host needs to resume a session bit-identically, given the
/// same problem inputs (schema, pool, SLA, config) it was opened with.
///
/// The internal `DeltaAnchor` is deliberately absent — it caches estimator
/// *outputs*, which a resumed controller rebuilds on its first tick with
/// bit-identical results (the anchor is an optimization, never a second
/// source of truth). Likewise the event log: events already streamed to a
/// client are not replayed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerCheckpoint {
    /// Ticks ingested so far (the next observation is tick `tick`).
    pub tick: u64,
    /// Whether the hysteresis latch is armed.
    pub armed: bool,
    /// The SLA pressure in force when the latch engaged.
    pub latched_pressure: f64,
    /// The tick of the last trigger (cool-down bookkeeping).
    pub last_trigger: Option<u64>,
    /// The baseline signature drift is measured against.
    pub baseline: WorkloadSignature,
    /// The layout deployed as of the checkpoint.
    pub deployed: Layout,
    /// Whether the last applied plan was partial, leaving a rollout for
    /// the next maintenance window to continue. Absent in checkpoints
    /// written before maintenance windows existed — those resumed sessions
    /// simply wait for the next drift/SLA trigger, which is what they
    /// would have done anyway.
    #[serde(default)]
    pub pending_rollout: bool,
}

/// Shared by [`Controller::new`] and [`Controller::with_checkpoint`]: a
/// layout is only deployable if it covers the schema and stays inside the
/// pool.
fn validate_deployed(
    schema: &Schema,
    pool: &StoragePool,
    deployed: &Layout,
) -> Result<(), ProvisionError> {
    if deployed.len() != schema.object_count() {
        return Err(ProvisionError::InvalidRequest {
            reason: format!(
                "deployed layout covers {} objects, schema has {}",
                deployed.len(),
                schema.object_count()
            ),
        });
    }
    if let Some(&alien) = deployed.assignment().iter().find(|c| c.0 >= pool.len()) {
        return Err(ProvisionError::InvalidRequest {
            reason: format!(
                "deployed layout places an object on {alien}, but pool {:?} has only {} classes",
                pool.name(),
                pool.len()
            ),
        });
    }
    Ok(())
}

/// One trace phase's workload, kept for ticking steps in place: the
/// declared demand every step starts from, and one reusable copy the
/// current step's drift operators reweight.
struct PhaseView {
    /// The phase reweighted to the current step's observation. Its name
    /// stays the phase's: [`Controller::materialize`] names a copy.
    observed: Workload,
    /// The phase's declared per-query weights, stream count and tasks.
    weights: Vec<f64>,
    concurrency: u32,
    tasks_per_stream: f64,
    shape: SignatureShape,
    /// Whether a session opens over the declared phase. If so, one opens
    /// over every reweighting whose demand is in the workload's domain:
    /// the queries are the same, and nothing else a session checks moves.
    opens: bool,
}

/// The step [`Controller::tick_step`] observes, derived once per step.
struct StepView {
    phase: Phase,
    shift: Option<f64>,
    scale: Option<f64>,
    /// Whether a session opens over the observation (else its ticks take
    /// the full path, which reports the typed error).
    opens: bool,
    /// `(write_fraction, tasks_per_pass)` of the observation's signature.
    sign: (f64, f64),
    /// Its class shares, parallel to the phase shape's classes.
    shares: Vec<f64>,
}

/// Open the advisory session a tick scores and replans in.
fn open_session<'s>(
    schema: &'s Schema,
    pool: &'s StoragePool,
    observed: &'s Workload,
    sla: f64,
    engine: Option<EngineConfig>,
    refinements: Option<usize>,
) -> Result<Advisor<'s>, ProvisionError> {
    let mut builder = Advisor::builder(schema, pool, observed).sla(sla);
    if let Some(engine) = engine {
        builder = builder.engine(engine);
    }
    if let Some(rounds) = refinements {
        builder = builder.refinements(rounds);
    }
    builder.build()
}

/// Grade a deployed layout's estimate against the constraints: the SLA
/// pressure and whether the layout is feasible.
fn grade(
    cons: &constraints::Constraints,
    problem: &Problem<'_>,
    deployed: &Layout,
    estimate: &TocEstimate,
) -> (f64, bool) {
    (
        cons.pressure(estimate),
        cons.satisfied(problem, deployed, estimate),
    )
}

/// The online re-provisioning controller: one deployed layout under
/// supervision. See the [module docs](self) for the loop's semantics.
///
/// The controller *owns* its problem inputs (the schema, pool and baseline
/// workload), so long-running hosts — the `dot-serve` session registry,
/// where tenants attach and detach while the daemon runs — can store
/// controllers without tying them to a caller's borrow.
pub struct Controller {
    schema: Schema,
    pool: StoragePool,
    /// The declared baseline workload trace steps drift relative to.
    workload: Workload,
    /// Trace phases ticked so far, built on first use (by [`Phase`]).
    phases: [Option<Box<PhaseView>>; 2],
    /// The step `tick_step` observes.
    step: Option<StepView>,
    sla: f64,
    engine: Option<EngineConfig>,
    config: ControllerConfig,
    replans: ReplanMemo,
    baseline: WorkloadSignature,
    deployed: Layout,
    anchor: Option<DeltaAnchor>,
    refinements: Option<usize>,
    tick: u64,
    armed: bool,
    /// The SLA pressure in force when the hysteresis latch engaged;
    /// pressure beyond this re-arms the controller (see `observe`).
    latched_pressure: f64,
    last_trigger: Option<u64>,
    /// True after a `Partial` plan lands, until a later plan completes the
    /// rollout — the arming condition of the maintenance-window trigger.
    pending_rollout: bool,
    events: Vec<ControlEvent>,
    stats: ControllerStats,
}

impl Controller {
    /// Open a controller over the deployed layout, with `baseline` being
    /// the workload the layout was provisioned for. Validates the layout
    /// against the schema and pool, the SLA domain, and the config.
    pub fn new(
        schema: &Schema,
        pool: &StoragePool,
        baseline: &Workload,
        deployed: Layout,
        sla: f64,
        config: ControllerConfig,
    ) -> Result<Controller, ProvisionError> {
        Controller::from_parts(
            schema.clone(),
            pool.clone(),
            baseline.clone(),
            deployed,
            sla,
            config,
        )
    }

    /// [`new`](Self::new) over owned inputs, for hosts that resolved them
    /// for this controller alone (no copies are made).
    pub fn from_parts(
        schema: Schema,
        pool: StoragePool,
        baseline: Workload,
        deployed: Layout,
        sla: f64,
        config: ControllerConfig,
    ) -> Result<Controller, ProvisionError> {
        ProvisionError::check_sla(sla, "")?;
        config.validate()?;
        validate_deployed(&schema, &pool, &deployed)?;
        Ok(Controller {
            baseline: drift::signature(&baseline),
            schema,
            pool,
            workload: baseline,
            phases: [None, None],
            step: None,
            sla,
            engine: None,
            config,
            replans: ReplanMemo::default(),
            deployed,
            anchor: None,
            refinements: None,
            tick: 0,
            armed: true,
            latched_pressure: 0.0,
            last_trigger: None,
            pending_rollout: false,
            events: Vec::new(),
            stats: ControllerStats::default(),
        })
    }

    /// Count this controller's replan reuse in `counters`, shared with the
    /// other controllers of its host. The memo starts over, so every
    /// resident answer is one `counters` saw solved.
    pub fn with_toc_cache(mut self, counters: Arc<CachedEstimator>) -> Self {
        self.replans.clear();
        self.replans.counters = Some(counters);
        self
    }

    /// Force an engine configuration on every observation's session (the
    /// default picks per observation from the workload's metric, as
    /// [`Advisor::builder`] does).
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = Some(engine);
        self.replans.clear();
        self.anchor = None;
        self
    }

    /// Validation/refinement rounds for every triggered replan's target
    /// solve (the default is [`Advisor::builder`]'s, currently 1) — so a
    /// problem file's `refinements` means the same thing under `supervise`
    /// as it does under `provision` and `replan`.
    pub fn with_refinements(mut self, rounds: usize) -> Self {
        self.refinements = Some(rounds);
        self.replans.clear();
        self
    }

    /// Replace the baseline signature drift is scored against. A session
    /// driven by a measured [`TelemetrySource`] opens with the *measured*
    /// baseline of the deployed layout
    /// ([`MeasuredSource::measure`](dot_workloads::telemetry::MeasuredSource::measure)):
    /// measured and declared signatures weigh query classes differently,
    /// so scoring measured observations against the constructor's declared
    /// baseline would read spurious drift on a perfectly quiet stream.
    pub fn with_baseline_signature(mut self, baseline: WorkloadSignature) -> Self {
        self.baseline = baseline;
        self
    }

    /// Snapshot the control-loop state for persistence. Resuming a fresh
    /// controller (same problem inputs) from this checkpoint continues the
    /// event log bit-identically — see [`with_checkpoint`](Self::with_checkpoint).
    pub fn checkpoint(&self) -> ControllerCheckpoint {
        ControllerCheckpoint {
            tick: self.tick,
            armed: self.armed,
            latched_pressure: self.latched_pressure,
            last_trigger: self.last_trigger,
            baseline: self.baseline.clone(),
            deployed: self.deployed.clone(),
            pending_rollout: self.pending_rollout,
        }
    }

    /// Resume from a [`checkpoint`](Self::checkpoint) taken by an earlier
    /// incarnation over the same problem inputs. Neither the delta anchor
    /// nor the replan memo is restored — the first resumed tick rebuilds
    /// the anchor through the full estimation path, and the first repeated
    /// trigger re-solves, with bit-identical events (both only hold
    /// outputs of pure functions). The checkpoint's deployed layout is
    /// validated like a constructor argument, so a corrupted snapshot is a
    /// typed error, not a latent panic.
    pub fn with_checkpoint(
        mut self,
        checkpoint: &ControllerCheckpoint,
    ) -> Result<Self, ProvisionError> {
        validate_deployed(&self.schema, &self.pool, &checkpoint.deployed)?;
        self.tick = checkpoint.tick;
        self.armed = checkpoint.armed;
        self.latched_pressure = checkpoint.latched_pressure;
        self.last_trigger = checkpoint.last_trigger;
        self.baseline = checkpoint.baseline.clone();
        self.deployed = checkpoint.deployed.clone();
        self.pending_rollout = checkpoint.pending_rollout;
        self.anchor = None;
        self.replans.clear();
        self.events.clear();
        Ok(self)
    }

    /// The layout currently deployed (updated when a plan is applied).
    pub fn deployed(&self) -> &Layout {
        &self.deployed
    }

    /// The current baseline signature drift is measured against.
    pub fn baseline(&self) -> &WorkloadSignature {
        &self.baseline
    }

    /// The full append-only event log, over every tick so far. The log
    /// grows by one-plus events per tick and is never truncated by the
    /// controller itself; long-lived callers (a supervision daemon ticking
    /// indefinitely, rather than a bounded trace replay) should ship and
    /// [`drain_events`](Self::drain_events) periodically.
    pub fn events(&self) -> &[ControlEvent] {
        &self.events
    }

    /// Take every logged event out of the controller, leaving the log
    /// empty (tick numbering, the baseline, and the latch state are
    /// untouched) — the bounded-memory surface for callers that observe
    /// indefinitely.
    pub fn drain_events(&mut self) -> Vec<ControlEvent> {
        std::mem::take(&mut self.events)
    }

    /// Ticks ingested so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// The counters over every event this controller has logged, drained
    /// or not (plus any a resumed session was seeded with).
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Seed the counters of a session resumed from a checkpoint, which
    /// does not carry them.
    pub fn with_stats(mut self, stats: ControllerStats) -> Self {
        self.stats = stats;
        self
    }

    /// Append a tick's events to the log and count them: the one place
    /// events enter the log, so [`stats`](Self::stats) never drifts from it.
    fn log(&mut self, events: &[ControlEvent]) {
        self.stats.count(events);
        self.events.extend_from_slice(events);
    }

    /// The active configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Ingest one observed workload profile: score it, maybe trigger, and
    /// return this tick's events (also appended to [`events`](Self::events))
    /// plus the replan answer when one ran. The drift signature is the
    /// *declared* one ([`drift::signature`]); telemetry sources that
    /// measure their signatures go through
    /// [`observe_with_signature`](Self::observe_with_signature).
    pub fn observe(&mut self, observed: &Workload) -> Result<TickOutcome, ProvisionError> {
        self.observe_with_signature(observed, drift::signature(observed))
    }

    /// [`observe`](Self::observe) with an externally derived signature:
    /// the caller supplies what drift is scored with (a measured signature
    /// from a [`TelemetrySource`], or the declared one), while everything
    /// else — SLA pressure, triggers, replans, re-baselining onto
    /// `signature` when a plan lands — is unchanged. Passing
    /// `drift::signature(observed)` reproduces [`observe`](Self::observe)
    /// exactly, which is how the scripted source keeps golden trajectories
    /// bit-identical.
    pub fn observe_with_signature(
        &mut self,
        observed: &Workload,
        signature: WorkloadSignature,
    ) -> Result<TickOutcome, ProvisionError> {
        self.tick(Some((observed, signature)))
    }

    /// Begin a trace step: validate it — the errors [`expand_trace`]
    /// reports for a one-step script, text included — and derive its
    /// observation in place, over this controller's baseline or the
    /// analytical phase (built once, on first use). Answers how many ticks
    /// the step holds; each is one [`tick_step`](Self::tick_step). Nothing
    /// here allocates per tick, and a step's memory does not grow with its
    /// `repeat`.
    pub fn begin_step(&mut self, step: &TraceStep) -> Result<usize, ProvisionError> {
        let (phase, repeat) = check_step(0, step, 0)?;
        let slot = &mut self.phases[phase as usize];
        let view = match slot {
            Some(view) => view,
            None => {
                let declared = match phase {
                    Phase::Baseline => self.workload.clone(),
                    Phase::Analytical => drift::analytical_phase(&self.schema),
                };
                let opens = open_session(
                    &self.schema,
                    &self.pool,
                    &declared,
                    self.sla,
                    self.engine,
                    self.refinements,
                )
                .is_ok();
                slot.insert(Box::new(PhaseView {
                    weights: declared.queries.iter().map(|q| q.weight).collect(),
                    concurrency: declared.concurrency,
                    tasks_per_stream: declared.tasks_per_stream,
                    shape: SignatureShape::of(&declared),
                    opens,
                    observed: declared,
                }))
            }
        };
        let w = &mut view.observed;
        for (q, &weight) in w.queries.iter_mut().zip(&view.weights) {
            q.weight = weight;
        }
        w.concurrency = view.concurrency;
        w.tasks_per_stream = view.tasks_per_stream;
        if let Some(shift) = step.shift {
            drift::shift_in_place(w, shift);
        }
        if let Some(scale) = step.scale {
            drift::scale_in_place(w, scale);
        }
        let in_domain = |x: f64| x.is_finite() && x > 0.0;
        let mut shares = self.step.take().map(|s| s.shares).unwrap_or_default();
        let sign = view.shape.sign(w, &mut shares);
        self.step = Some(StepView {
            phase,
            shift: step.shift,
            scale: step.scale,
            opens: view.opens
                && w.concurrency > 0
                && in_domain(w.tasks_per_stream)
                && w.queries.iter().all(|q| in_domain(q.weight)),
            sign,
            shares,
        });
        Ok(repeat)
    }

    /// One tick of the step begun last (the undrifted baseline before any
    /// step): exactly [`observe`](Self::observe) of the workload
    /// [`expand_trace`] would produce for it. While the delta anchor was
    /// taken on the step's phase and the deployed layout, the tick scores
    /// in place, with no workload copy, session or deep compare; a
    /// workload is built only to refresh the anchor or to replan.
    pub fn tick_step(&mut self) -> Result<TickOutcome, ProvisionError> {
        if self.step.is_none() {
            self.begin_step(&TraceStep::default())?;
        }
        self.tick(None)
    }

    /// Tick a whole script through [`begin_step`](Self::begin_step) and
    /// [`tick_step`](Self::tick_step), handing each tick's result to
    /// `on_tick` (which may drain the event log). The script is validated
    /// first, so a bad step ticks nothing, with [`expand_trace`]'s error.
    /// Stops at the first error `on_tick` returns.
    pub fn run_steps<E: From<ProvisionError>>(
        &mut self,
        steps: &[TraceStep],
        mut on_tick: impl FnMut(&mut Controller, Result<TickOutcome, ProvisionError>) -> Result<(), E>,
    ) -> Result<(), E> {
        validate_trace(steps)?;
        for step in steps {
            for _ in 0..self.begin_step(step)? {
                let outcome = self.tick_step();
                on_tick(self, outcome)?;
            }
        }
        Ok(())
    }

    /// The current step's observation as a workload of its own, named as
    /// [`expand_trace`] names it.
    fn materialize(&self) -> Workload {
        let step = self.step.as_ref().expect("a step was begun");
        let view = self.phases[step.phase as usize]
            .as_deref()
            .expect("begin_step builds the step's phase");
        Workload {
            name: drift::drift_name(&view.observed.name, step.shift, step.scale),
            ..view.observed.clone()
        }
    }

    /// One tick over `input` — an observed workload and the signature
    /// drift is scored with — or, when `None`, over the current step.
    fn tick(
        &mut self,
        input: Option<(&Workload, WorkloadSignature)>,
    ) -> Result<TickOutcome, ProvisionError> {
        let tick = self.tick;
        // A step scores in place while the anchor was taken on its phase
        // under the deployed layout; any other tick materializes its
        // observation and opens a session over it.
        let step = match input {
            Some(_) => None,
            None => self.step.as_ref().map(|step| {
                let view = self.phases[step.phase as usize].as_deref();
                (step, view.expect("begin_step builds the step's phase"))
            }),
        };
        let in_place = step.filter(|(s, _)| {
            s.opens
                && self
                    .anchor
                    .as_ref()
                    .is_some_and(|a| a.phase == Some(s.phase) && a.deployed == self.deployed)
        });
        let materialized;
        let (observed, distance, mut signature) = match (input, in_place) {
            (Some((observed, signature)), _) => (
                observed,
                self.baseline.distance(&signature),
                Some(signature),
            ),
            (None, Some((step, view))) => {
                let distance = view
                    .shape
                    .distance_from(&self.baseline, step.sign, &step.shares);
                (&view.observed, distance, None)
            }
            (None, None) => {
                materialized = self.materialize();
                let signature = drift::signature(&materialized);
                let distance = self.baseline.distance(&signature);
                (&materialized, distance, Some(signature))
            }
        };
        // A rejected observation is not a tick: the counter only advances
        // once the session opens, so ticks() always equals the number of
        // Observed events in the log.
        let session = match in_place {
            Some(_) => None,
            None => Some(open_session(
                &self.schema,
                &self.pool,
                observed,
                self.sla,
                self.engine,
                self.refinements,
            )?),
        };
        self.tick += 1;

        // Incremental path: when the observation differs from the anchored
        // one only by reweighting (the [`ProblemDelta`] envelope) and the
        // deployed layout is unchanged, both per-tick estimates are
        // re-targeted in O(queries) instead of two planner runs. An
        // in-place step is inside the envelope by construction; a session's
        // observation is compared with the anchor's. The delta path is
        // bit-identical to full recomputation, so the event log never
        // depends on which path scored a tick; anything outside the
        // envelope refreshes the anchor.
        let anchor = self.anchor.as_ref().filter(|a| a.deployed == self.deployed);
        let (problem, delta) = match (&session, anchor) {
            (Some(advisor), _) => {
                let problem = advisor.problem().clone();
                let delta = anchor.and_then(|a| {
                    let anchored =
                        Problem::new(&self.schema, &self.pool, &a.workload, problem.sla, a.cfg)
                            .with_cost_model(a.cost_model);
                    ProblemDelta::between(&anchored, &problem)
                });
                (problem, delta)
            }
            (None, Some(a)) => {
                let sla = SlaSpec::relative(self.sla);
                let problem = Problem::new(&self.schema, &self.pool, observed, sla, a.cfg)
                    .with_cost_model(a.cost_model);
                (problem, Some(ProblemDelta::reweighting(observed)))
            }
            (None, None) => unreachable!("in-place ticks have an anchor"),
        };
        let (sla_pressure, feasible) = match (delta, anchor, &session) {
            (Some(delta), Some(a), _) => {
                let estimate = a.deployed_estimate.apply_delta(&delta);
                let reference = a.reference_estimate.apply_delta(&delta);
                let cons = constraints::from_reference(&problem, reference, problem.sla);
                grade(&cons, &problem, &self.deployed, &estimate)
            }
            (_, _, Some(advisor)) => {
                let estimate = advisor.estimator().estimate(&problem, &self.deployed);
                let cons = advisor.constraints();
                let graded = grade(cons, &problem, &self.deployed, &estimate);
                self.anchor = Some(DeltaAnchor {
                    workload: observed.clone(),
                    phase: step.map(|(s, _)| s.phase),
                    cfg: problem.cfg,
                    cost_model: problem.cost_model,
                    deployed: self.deployed.clone(),
                    deployed_estimate: estimate,
                    reference_estimate: cons.reference.clone(),
                });
                graded
            }
            _ => unreachable!("in-place ticks have an anchor"),
        };

        let mut events = vec![ControlEvent::Observed {
            tick,
            distance,
            sla_pressure,
            feasible,
        }];
        let drift_over = distance >= self.config.drift_threshold;
        let sla_over = sla_pressure > self.config.sla_grace;

        // Hysteresis: a latched controller re-arms once the fused signal
        // falls well below the trigger point — or when the SLA pressure
        // climbs past what it was when the latch engaged. The latch exists
        // to stop re-litigating an *unchanged* Stay verdict; worsening
        // pressure is new information that can flip the verdict (the stay
        // rate carries an SLA-violation surcharge), so it pierces the
        // latch.
        let cleared = distance <= self.config.clear_fraction * self.config.drift_threshold
            && sla_pressure <= self.config.sla_grace;
        if !self.armed && (cleared || sla_pressure > self.latched_pressure) {
            self.armed = true;
        }

        // A maintenance window opens every `window_ticks` ticks, but only
        // pulls the trigger while a partial rollout is pending — a quiet,
        // fully-deployed tenant sails through its windows untouched. The
        // window shares the drift/SLA anti-flap guards (cool-down, latch),
        // so a `Stay`-latched rollout does not get re-litigated every
        // window until the latch clears.
        let window_due = self.pending_rollout
            && self
                .config
                .window_ticks
                .is_some_and(|n| tick > 0 && tick % n == 0);

        let mut replan = None;
        if drift_over || sla_over || window_due {
            let cooling = self
                .last_trigger
                .filter(|last| tick - last < self.config.cooldown_ticks);
            if !self.armed {
                events.push(ControlEvent::Deferred {
                    tick,
                    reason: DeferReason::Latched,
                });
            } else if let Some(last) = cooling {
                events.push(ControlEvent::Deferred {
                    tick,
                    reason: DeferReason::CoolingDown {
                        last_trigger_tick: last,
                    },
                });
            } else {
                let reason = match (drift_over, sla_over) {
                    (true, true) => TriggerReason::DriftAndSla {
                        distance,
                        pressure: sla_pressure,
                    },
                    (true, false) => TriggerReason::Drift { distance },
                    (false, true) => TriggerReason::Sla {
                        pressure: sla_pressure,
                    },
                    (false, false) => TriggerReason::Window {
                        every_ticks: self.config.window_ticks.unwrap_or(0),
                    },
                };
                events.push(ControlEvent::Triggered { tick, reason });
                self.last_trigger = Some(tick);
                // An in-place tick builds its workload and session only
                // now: the replan and its memo key need them.
                let step_observed;
                let step_session;
                let (observed, advisor) = match &session {
                    Some(advisor) => (observed, Ok(advisor)),
                    None => {
                        step_observed = self.materialize();
                        signature = Some(drift::signature(&step_observed));
                        step_session = open_session(
                            &self.schema,
                            &self.pool,
                            &step_observed,
                            self.sla,
                            self.engine,
                            self.refinements,
                        );
                        (&step_observed, step_session.as_ref())
                    }
                };
                let solved = advisor.map_err(Clone::clone).and_then(|advisor| {
                    if let Some(reused) = self.replans.get(observed, &self.deployed) {
                        return Ok(reused);
                    }
                    let solved = advisor.replan_with(
                        &self.deployed,
                        &self.config.solver,
                        &self.config.budget,
                    );
                    self.replans.solved(observed, &self.deployed, &solved);
                    solved
                });
                let signature = signature
                    .take()
                    .expect("a replanned tick has its signature");
                let rec = match solved {
                    Ok(rec) => rec,
                    Err(e) => {
                        // The observation and the trigger happened: keep
                        // their events in the log before surfacing the
                        // replan failure (supervision reports rely on it).
                        self.log(&events);
                        return Err(e);
                    }
                };
                events.push(ControlEvent::Planned {
                    tick,
                    decision: rec.plan.decision.clone(),
                    moves: rec.plan.steps.len(),
                    total_bytes: rec.plan.total_bytes,
                    total_cents: rec.plan.total_cents,
                    savings_cents_per_hour: rec.plan.savings_cents_per_hour,
                    break_even_hours: rec.plan.break_even_hours,
                    waves: rec.plan.schedule.waves.len(),
                    makespan_seconds: rec.plan.schedule.makespan_seconds,
                });
                match rec.plan.decision {
                    MigrationDecision::Migrate | MigrationDecision::Partial { .. } => {
                        let objects_moved = rec
                            .plan
                            .steps
                            .iter()
                            .map(|s| {
                                s.from
                                    .iter()
                                    .zip(&s.mv.placement)
                                    .filter(|(from, to)| from != to)
                                    .count()
                            })
                            .sum();
                        events.push(ControlEvent::Applied {
                            tick,
                            objects_moved,
                            bytes_moved: rec.plan.total_bytes,
                        });
                        self.deployed = rec.plan.final_layout.clone();
                        self.baseline = signature;
                        // A full migration completes any pending rollout; a
                        // partial one leaves (or starts) a remainder for
                        // the next maintenance window.
                        self.pending_rollout =
                            matches!(rec.plan.decision, MigrationDecision::Partial { .. });
                    }
                    MigrationDecision::Unchanged => {
                        // The fresh recommendation confirms the deployed
                        // layout serves this profile: adopt it as baseline
                        // so the distance signal resets without a move.
                        // Any pending rollout is complete — the target the
                        // windows were walking toward is what's deployed.
                        self.baseline = signature;
                        self.pending_rollout = false;
                    }
                    MigrationDecision::Stay => {
                        // Migration cannot pay for itself here; latch until
                        // the signal clears (or the pressure worsens past
                        // today's level) instead of re-litigating the same
                        // verdict every tick.
                        self.armed = false;
                        self.latched_pressure = sla_pressure;
                    }
                }
                replan = Some(rec);
            }
        }

        self.log(&events);
        Ok(TickOutcome {
            tick,
            events,
            replan,
        })
    }

    /// Drain a [`TelemetrySource`] through
    /// [`observe_with_signature`](Self::observe_with_signature), collecting
    /// every tick's outcome. Each tick the source is handed the layout
    /// *currently* deployed — so a measured source profiles execution under
    /// every layout the loop itself migrates to mid-stream. Stops at the
    /// first typed error.
    pub fn run_source(
        &mut self,
        source: &mut dyn TelemetrySource,
    ) -> Result<Vec<TickOutcome>, ProvisionError> {
        let mut outcomes = Vec::new();
        while let Some(tick) = source.next_observation(&self.deployed) {
            outcomes.push(self.observe_with_signature(&tick.workload, tick.signature)?);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dot_storage::catalog;
    use dot_workloads::tpcc;

    fn setup() -> (Schema, StoragePool, Workload) {
        let schema = tpcc::schema(2.0);
        let pool = catalog::box2();
        let baseline = tpcc::workload(&schema);
        (schema, pool, baseline)
    }

    fn step(shift: Option<f64>, phase: Option<&str>) -> TraceStep {
        TraceStep {
            shift,
            phase: phase.map(str::to_owned),
            ..TraceStep::default()
        }
    }

    /// Tick a script through the step API, collecting every outcome.
    fn run_steps(c: &mut Controller, steps: &[TraceStep]) -> Vec<TickOutcome> {
        let mut outcomes = Vec::new();
        c.run_steps(steps, |_, tick| tick.map(|o| outcomes.push(o)))
            .unwrap();
        outcomes
    }

    fn deployed_for(schema: &Schema, pool: &StoragePool, w: &Workload) -> Layout {
        Advisor::builder(schema, pool, w)
            .sla(0.5)
            .build()
            .unwrap()
            .recommend("dot")
            .unwrap()
            .layout
    }

    #[test]
    fn quiet_observations_never_trigger() {
        let (schema, pool, baseline) = setup();
        let deployed = deployed_for(&schema, &pool, &baseline);
        let mut c = Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed.clone(),
            0.5,
            ControllerConfig::default(),
        )
        .unwrap();
        for _ in 0..3 {
            let tick = c.observe(&baseline).unwrap();
            assert!(!tick.triggered());
            assert_eq!(tick.events.len(), 1, "quiet ticks only observe");
            let ControlEvent::Observed {
                distance, feasible, ..
            } = tick.events[0]
            else {
                panic!("expected Observed, got {:?}", tick.events[0]);
            };
            assert_eq!(distance, 0.0);
            assert!(feasible);
        }
        assert_eq!(c.deployed(), &deployed);
        assert_eq!(c.ticks(), 3);
        assert_eq!(c.events().len(), 3);
        // Draining empties the log without resetting the clock.
        assert_eq!(c.drain_events().len(), 3);
        assert!(c.events().is_empty());
        assert_eq!(c.ticks(), 3);
        c.observe(&baseline).unwrap();
        assert_eq!(c.events().len(), 1);
        assert_eq!(c.ticks(), 4);
    }

    #[test]
    fn per_tick_draining_reproduces_the_accumulated_log() {
        // Regression for long-running sessions: a host that drains every
        // tick must see the same events, in the same order, as one that
        // lets the log accumulate — and the controller's internal buffer
        // must stay bounded by a single tick's events, never growing
        // toward the trace-length cap.
        let (schema, pool, baseline) = setup();
        let deployed = deployed_for(&schema, &pool, &baseline);
        let script = [
            step(None, None),
            step(Some(0.05), None),
            step(None, Some("analytical")),
            step(None, Some("analytical")),
            step(None, None),
        ];
        let steps = expand_trace(&schema, &baseline, &script).unwrap();
        let mut accumulated = Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed.clone(),
            0.5,
            ControllerConfig::default(),
        )
        .unwrap();
        run_steps(&mut accumulated, &script);

        let mut drained = Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed,
            0.5,
            ControllerConfig::default(),
        )
        .unwrap();
        let mut shipped = Vec::new();
        for observed in &steps {
            let outcome = drained.observe(observed).unwrap();
            let tick_events = drained.drain_events();
            assert_eq!(tick_events, outcome.events, "drain returns this tick");
            assert!(
                drained.events().is_empty(),
                "the internal log must not accumulate across drained ticks"
            );
            shipped.extend(tick_events);
        }
        assert_eq!(shipped, accumulated.events());
        assert_eq!(drained.ticks(), accumulated.ticks());
        assert_eq!(drained.deployed(), accumulated.deployed());
    }

    #[test]
    fn quiescent_ticks_reuse_the_anchor_instead_of_estimating() {
        let (schema, pool, baseline) = setup();
        let deployed = deployed_for(&schema, &pool, &baseline);
        let mut c = Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed,
            0.5,
            ControllerConfig::default(),
        )
        .unwrap();
        let anchored = |c: &Controller| c.anchor.as_ref().map(|a| a.workload.clone());
        // The first tick anchors through the estimator.
        c.observe(&baseline).unwrap();
        assert_eq!(anchored(&c), Some(baseline.clone()), "full path anchors");
        // Quiescent and representably-drifted ticks ride the delta path:
        // the full path would have re-anchored on the new observation.
        c.observe(&baseline).unwrap();
        c.observe(&drift::shift_read_write(&baseline, 0.05))
            .unwrap();
        assert_eq!(
            anchored(&c),
            Some(baseline.clone()),
            "in-envelope ticks must not run the full estimate"
        );
        // A phase change exceeds the validity bound: the estimator runs
        // again and re-anchors on the new phase.
        let phase = drift::analytical_phase(&schema);
        c.observe(&phase).unwrap();
        assert_eq!(anchored(&c), Some(phase));
    }

    #[test]
    fn phase_flip_triggers_applies_and_resets_the_baseline() {
        let (schema, pool, baseline) = setup();
        let deployed = deployed_for(&schema, &pool, &baseline);
        let mut c = Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed.clone(),
            0.5,
            ControllerConfig::default(),
        )
        .unwrap();
        let flipped = drift::analytical_phase(&schema);
        let tick = c.observe(&flipped).unwrap();
        assert!(tick.triggered());
        let kinds: Vec<&str> = tick
            .events
            .iter()
            .map(|e| match e {
                ControlEvent::Observed { .. } => "observed",
                ControlEvent::Triggered { .. } => "triggered",
                ControlEvent::Planned { .. } => "planned",
                ControlEvent::Deferred { .. } => "deferred",
                ControlEvent::Applied { .. } => "applied",
            })
            .collect();
        assert_eq!(kinds, ["observed", "triggered", "planned", "applied"]);
        assert_ne!(c.deployed(), &deployed, "the flip must move objects");
        // The observation became the baseline: repeating it is quiet.
        let again = c.observe(&flipped).unwrap();
        assert!(!again.triggered());
        let ControlEvent::Observed { distance, .. } = again.events[0] else {
            panic!("expected Observed");
        };
        assert_eq!(distance, 0.0);
    }

    #[test]
    fn cooldown_defers_repeat_triggers() {
        let (schema, pool, baseline) = setup();
        let deployed = deployed_for(&schema, &pool, &baseline);
        let config = ControllerConfig {
            drift_threshold: 0.0, // every observation is over threshold
            cooldown_ticks: 3,
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(&schema, &pool, &baseline, deployed, 0.5, config).unwrap();
        // Tick 0 triggers (Unchanged verdict); ticks 1-2 cool down; tick 3
        // triggers again.
        for (tick, expect_trigger) in [(0u64, true), (1, false), (2, false), (3, true)] {
            let out = c.observe(&baseline).unwrap();
            assert_eq!(out.tick, tick);
            assert_eq!(out.triggered(), expect_trigger, "tick {tick}");
            if !expect_trigger {
                assert!(matches!(
                    out.events[1],
                    ControlEvent::Deferred {
                        reason: DeferReason::CoolingDown {
                            last_trigger_tick: 0
                        },
                        ..
                    }
                ));
            }
        }
    }

    #[test]
    fn replan_failures_keep_the_ticks_events_in_the_log() {
        let (schema, pool, baseline) = setup();
        let deployed = deployed_for(&schema, &pool, &baseline);
        // An unknown solver id passes config validation (only emptiness is
        // checked there) and surfaces as a typed error from the replan —
        // after the observation and the trigger already happened.
        let config = ControllerConfig {
            drift_threshold: 0.0,
            solver: "simplex".to_owned(),
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(&schema, &pool, &baseline, deployed, 0.5, config).unwrap();
        let err = c.observe(&baseline).unwrap_err();
        assert!(matches!(err, ProvisionError::UnknownSolver { .. }));
        assert_eq!(c.ticks(), 1, "the observation was ingested");
        let kinds: Vec<bool> = c
            .events()
            .iter()
            .map(|e| matches!(e, ControlEvent::Triggered { .. }))
            .collect();
        assert_eq!(
            kinds,
            [false, true],
            "Observed + Triggered must be preserved, got {:?}",
            c.events()
        );
    }

    #[test]
    fn worsening_sla_pressure_pierces_the_latch() {
        let schema = tpcc::schema(2.0);
        let pool = catalog::box2();
        let baseline = tpcc::workload(&schema);
        let heavier = drift::shift_read_write(&baseline, -0.6);
        // An all-HDD deployment violates both phases; the read-shifted one
        // presses harder (the premium reference gains more from shedding
        // writes than the HDD does) — precondition asserted through the
        // public surfaces, so the scenario stays honest if the engine
        // model moves.
        let hdd = Layout::uniform(pool.class_by_name("HDD").unwrap().id, schema.object_count());
        let pressure_under = |w: &Workload| {
            let advisor = Advisor::builder(&schema, &pool, w)
                .sla(0.5)
                .build()
                .unwrap();
            let est = advisor.estimator().estimate(advisor.problem(), &hdd);
            crate::constraints::sla_pressure(&advisor.constraints().violation_margins(w, &est))
        };
        let (mild, bad) = (pressure_under(&baseline), pressure_under(&heavier));
        assert!(
            bad > mild && mild > 0.0,
            "precondition: {bad} must exceed {mild} > 0"
        );

        let config = ControllerConfig {
            drift_threshold: 1.0, // the drift axis never fires here
            sla_grace: 0.0,
            cooldown_ticks: 0,
            budget: MigrationBudget::zero(), // every plan is a Stay
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(&schema, &pool, &baseline, hdd, 0.5, config).unwrap();
        // Tick 0: SLA pressure triggers, the zero budget forces Stay, and
        // the latch engages at today's pressure.
        let t0 = c.observe(&baseline).unwrap();
        assert!(t0.triggered());
        assert_eq!(t0.replan.unwrap().plan.decision, MigrationDecision::Stay);
        // Tick 1: the same pressure is not new information — latched.
        let t1 = c.observe(&baseline).unwrap();
        assert!(!t1.triggered());
        assert!(matches!(
            t1.events[1],
            ControlEvent::Deferred {
                reason: DeferReason::Latched,
                ..
            }
        ));
        // Tick 2: pressure climbs past the latch point — it pierces.
        let t2 = c.observe(&heavier).unwrap();
        assert!(t2.triggered(), "worsening pressure must re-arm the latch");
    }

    #[test]
    fn scripted_source_reproduces_step_ticks_bit_identically() {
        // The telemetry seam must be invisible for scripted observations:
        // draining a ScriptedSource of the expanded script through
        // run_source yields exactly the event log ticking the script's
        // steps in place produces — the contract that keeps every
        // committed golden trajectory valid under both paths.
        let (schema, pool, baseline) = setup();
        let deployed = deployed_for(&schema, &pool, &baseline);
        let script = [
            step(Some(0.05), None),
            step(None, Some("analytical")),
            step(None, None),
        ];
        let trace = expand_trace(&schema, &baseline, &script).unwrap();
        let mut direct = Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed.clone(),
            0.5,
            ControllerConfig::default(),
        )
        .unwrap();
        run_steps(&mut direct, &script);

        let mut sourced = Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed,
            0.5,
            ControllerConfig::default(),
        )
        .unwrap();
        let mut source = dot_workloads::telemetry::ScriptedSource::new(trace);
        sourced.run_source(&mut source).unwrap();
        assert_eq!(sourced.events(), direct.events());
        assert_eq!(sourced.deployed(), direct.deployed());
        assert_eq!(sourced.baseline(), direct.baseline());
    }

    #[test]
    fn measured_source_with_measured_baseline_is_quiet_on_a_quiet_stream() {
        // A measured session opens with the measured baseline (same seed
        // as the first tick): the first observation then scores zero
        // drift, and the stream stays quiet — no spurious trigger from the
        // declared-vs-measured weighting mismatch.
        let (schema, pool, baseline) = setup();
        let deployed = deployed_for(&schema, &pool, &baseline);
        let source = dot_workloads::telemetry::MeasuredSource::new(
            &schema,
            &pool,
            vec![baseline.clone()],
            11,
        );
        let measured = source.measure(&baseline, &deployed, 11).signature();
        let mut c = Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed,
            0.5,
            ControllerConfig::default(),
        )
        .unwrap()
        .with_baseline_signature(measured);
        let mut source = source;
        let outcomes = c.run_source(&mut source).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].triggered());
        let ControlEvent::Observed { distance, .. } = outcomes[0].events[0] else {
            panic!("expected Observed");
        };
        assert_eq!(distance, 0.0, "tick 0 re-measures the baseline exactly");
    }

    #[test]
    fn events_round_trip_through_serde() {
        let events = vec![
            ControlEvent::Observed {
                tick: 0,
                distance: 0.25,
                sla_pressure: 0.125,
                feasible: false,
            },
            ControlEvent::Triggered {
                tick: 0,
                reason: TriggerReason::DriftAndSla {
                    distance: 0.25,
                    pressure: 0.125,
                },
            },
            ControlEvent::Planned {
                tick: 0,
                decision: MigrationDecision::Partial { deferred_groups: 2 },
                moves: 3,
                total_bytes: 1.5e9,
                total_cents: 0.125,
                savings_cents_per_hour: 0.25,
                break_even_hours: 0.5,
                waves: 2,
                makespan_seconds: 40.0,
            },
            ControlEvent::Deferred {
                tick: 1,
                reason: DeferReason::CoolingDown {
                    last_trigger_tick: 0,
                },
            },
            ControlEvent::Applied {
                tick: 2,
                objects_moved: 5,
                bytes_moved: 1.5e9,
            },
        ];
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<ControlEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
        let envelope_provenance = ControlProvenance {
            elapsed_ms: 12,
            trigger: TriggerReason::Manual,
        };
        let json = serde_json::to_string(&envelope_provenance).unwrap();
        assert!(json.contains("\"Manual\""), "{json}");
        let back: ControlProvenance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, envelope_provenance);
    }

    #[test]
    fn expand_trace_validates_and_repeats() {
        let (schema, _, baseline) = setup();
        let steps = vec![
            TraceStep {
                shift: Some(-0.3),
                scale: Some(2.0),
                phase: None,
                repeat: Some(2),
            },
            TraceStep {
                shift: None,
                scale: None,
                phase: Some("analytical".to_owned()),
                repeat: None,
            },
        ];
        let trace = expand_trace(&schema, &baseline, &steps).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0], trace[1]);
        assert_eq!(trace[2], drift::analytical_phase(&schema));
        for (step, needle) in [
            (
                TraceStep {
                    shift: Some(1.5),
                    scale: None,
                    phase: None,
                    repeat: None,
                },
                "shift",
            ),
            (
                TraceStep {
                    shift: None,
                    scale: Some(0.0),
                    phase: None,
                    repeat: None,
                },
                "scale",
            ),
            (
                TraceStep {
                    shift: None,
                    scale: None,
                    phase: Some("lunar".to_owned()),
                    repeat: None,
                },
                "lunar",
            ),
            (
                TraceStep {
                    shift: None,
                    scale: None,
                    phase: None,
                    repeat: Some(0),
                },
                "repeat",
            ),
        ] {
            let err = expand_trace(&schema, &baseline, &[step]).unwrap_err();
            let ProvisionError::InvalidRequest { reason } = err else {
                panic!("expected InvalidRequest");
            };
            assert!(reason.contains(needle), "{reason}");
        }
    }

    #[test]
    fn malformed_controllers_are_typed_errors() {
        let (schema, pool, baseline) = setup();
        let short = Layout::uniform(pool.most_expensive(), 1);
        assert!(matches!(
            Controller::new(
                &schema,
                &pool,
                &baseline,
                short,
                0.5,
                ControllerConfig::default()
            ),
            Err(ProvisionError::InvalidRequest { .. })
        ));
        let ok = Layout::uniform(pool.most_expensive(), schema.object_count());
        assert!(matches!(
            Controller::new(
                &schema,
                &pool,
                &baseline,
                ok.clone(),
                7.0,
                ControllerConfig::default()
            ),
            Err(ProvisionError::InvalidRequest { .. })
        ));
        let bad_cfg = ControllerConfig {
            drift_threshold: f64::NAN,
            ..ControllerConfig::default()
        };
        assert!(matches!(
            Controller::new(&schema, &pool, &baseline, ok, 0.5, bad_cfg),
            Err(ProvisionError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn checkpoint_resume_continues_the_trajectory_bit_identically() {
        // A trace with a mid-stream migration: the checkpoint must carry
        // the re-baselined signature and the migrated layout, and the
        // resumed twin (which rebuilds its delta anchor from scratch) must
        // emit exactly the events the uninterrupted run emits.
        let (schema, pool, baseline) = setup();
        let deployed = deployed_for(&schema, &pool, &baseline);
        let config = ControllerConfig {
            cooldown_ticks: 2,
            ..ControllerConfig::default()
        };
        let steps = [
            step(Some(0.02), None),
            step(None, Some("analytical")),
            step(None, Some("analytical")),
            step(None, None),
            step(None, None),
        ];
        let mut uninterrupted = Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed.clone(),
            0.5,
            config.clone(),
        )
        .unwrap();
        run_steps(&mut uninterrupted, &steps);
        let golden = uninterrupted.drain_events();

        // Run the prefix, checkpoint right after the migration landed,
        // and resume a fresh controller for the suffix.
        let mut prefix =
            Controller::new(&schema, &pool, &baseline, deployed, 0.5, config.clone()).unwrap();
        run_steps(&mut prefix, &steps[..2]);
        let mut events = prefix.drain_events();
        let checkpoint = prefix.checkpoint();
        assert_eq!(checkpoint.tick, 2);
        drop(prefix);

        // The checkpoint round-trips through the wire encoding (that is
        // how the serve registry persists it).
        let json = serde_json::to_string(&checkpoint).unwrap();
        let restored: ControllerCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, checkpoint);

        let deployed_again = deployed_for(&schema, &pool, &baseline);
        let mut resumed = Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed_again,
            0.5,
            config.clone(),
        )
        .unwrap()
        .with_checkpoint(&restored)
        .unwrap();
        assert_eq!(resumed.ticks(), 2);
        run_steps(&mut resumed, &steps[2..]);
        events.extend(resumed.drain_events());
        assert_eq!(events, golden, "resume must not fork the event log");

        // A corrupted checkpoint (layout off the pool) is a typed error.
        let mut corrupt = checkpoint.clone();
        corrupt.deployed = Layout::uniform(dot_storage::ClassId(pool.len()), schema.object_count());
        let fresh = Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed_for(&schema, &pool, &baseline),
            0.5,
            config,
        )
        .unwrap();
        assert!(matches!(
            fresh.with_checkpoint(&corrupt),
            Err(ProvisionError::InvalidRequest { .. })
        ));
    }

    /// A budget that admits all but the cheapest step of the full
    /// phase-flip plan — enough to force a `Partial` verdict on the first
    /// trigger while leaving the remainder affordable in one more window.
    fn partial_budget(
        schema: &Schema,
        pool: &StoragePool,
        deployed: &Layout,
        flipped: &Workload,
    ) -> MigrationBudget {
        let advisor = Advisor::builder(schema, pool, flipped)
            .sla(0.5)
            .build()
            .unwrap();
        let rec = advisor
            .replan_with(deployed, "dot", &MigrationBudget::unbounded())
            .unwrap();
        assert!(
            rec.plan.steps.len() >= 2,
            "the flip must move at least two groups for a partial split"
        );
        let smallest = rec
            .plan
            .steps
            .iter()
            .map(|s| s.bytes)
            .fold(f64::INFINITY, f64::min);
        MigrationBudget {
            max_bytes: Some(rec.plan.total_bytes - smallest),
            ..MigrationBudget::unbounded()
        }
    }

    #[test]
    fn maintenance_window_continues_a_partial_rollout() {
        let (schema, pool, baseline) = setup();
        let deployed = deployed_for(&schema, &pool, &baseline);
        let flipped = drift::analytical_phase(&schema);
        let config = ControllerConfig {
            cooldown_ticks: 0,
            window_ticks: Some(3),
            budget: partial_budget(&schema, &pool, &deployed, &flipped),
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(&schema, &pool, &baseline, deployed, 0.5, config).unwrap();

        // Tick 0: the flip triggers on drift; the byte budget cuts the
        // plan short, leaving a rollout pending.
        let out = c.observe(&flipped).unwrap();
        assert!(out.triggered());
        let plan = &out.replan.as_ref().unwrap().plan;
        assert!(matches!(
            plan.decision,
            MigrationDecision::Partial { deferred_groups } if deferred_groups >= 1
        ));

        // Ticks 1-2: the observation re-baselined, so the same profile is
        // quiet — and the window (every 3 ticks) has not opened yet.
        for _ in 0..2 {
            let out = c.observe(&flipped).unwrap();
            assert!(!out.triggered());
            assert_eq!(out.events.len(), 1, "observed only");
        }

        // Tick 3: the maintenance window opens with a rollout pending and
        // continues it from the partially-migrated layout.
        let out = c.observe(&flipped).unwrap();
        assert!(out.triggered());
        assert!(matches!(
            out.events[1],
            ControlEvent::Triggered {
                reason: TriggerReason::Window { every_ticks: 3 },
                ..
            }
        ));
        let plan = &out.replan.as_ref().unwrap().plan;
        assert!(
            matches!(plan.decision, MigrationDecision::Migrate),
            "the remainder fits the same budget: {:?}",
            plan.decision
        );

        // Ticks 4-6: the rollout completed, so the next window (tick 6)
        // passes without pulling the trigger.
        for tick in 4..=6 {
            let out = c.observe(&flipped).unwrap();
            assert!(!out.triggered(), "tick {tick} must stay quiet");
        }
    }

    #[test]
    fn pending_rollout_survives_a_checkpoint_resume() {
        let (schema, pool, baseline) = setup();
        let deployed = deployed_for(&schema, &pool, &baseline);
        let flipped = drift::analytical_phase(&schema);
        let config = ControllerConfig {
            cooldown_ticks: 0,
            window_ticks: Some(2),
            budget: partial_budget(&schema, &pool, &deployed, &flipped),
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(
            &schema,
            &pool,
            &baseline,
            deployed.clone(),
            0.5,
            config.clone(),
        )
        .unwrap();
        c.observe(&flipped).unwrap();
        let checkpoint = c.checkpoint();
        assert!(checkpoint.pending_rollout, "tick 0 left a partial rollout");

        // The wire encoding round-trips the flag; a checkpoint written
        // before the field existed (the key removed) parses as false.
        let json = serde_json::to_string(&checkpoint).unwrap();
        let restored: ControllerCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, checkpoint);
        let mut value = serde::Serialize::to_value(&checkpoint);
        if let serde::Value::Object(entries) = &mut value {
            entries.retain(|(k, _)| k != "pending_rollout");
        }
        let legacy = <ControllerCheckpoint as serde::Deserialize>::from_value(&value).unwrap();
        assert!(!legacy.pending_rollout);

        // The resumed twin picks the rollout up at its next window tick.
        let mut resumed = Controller::new(&schema, &pool, &baseline, deployed, 0.5, config)
            .unwrap()
            .with_checkpoint(&restored)
            .unwrap();
        let quiet = resumed.observe(&flipped).unwrap();
        assert!(!quiet.triggered(), "tick 1 is off-window");
        let windowed = resumed.observe(&flipped).unwrap();
        assert!(windowed.triggered(), "tick 2 opens the window");
        assert!(matches!(
            windowed.events[1],
            ControlEvent::Triggered {
                reason: TriggerReason::Window { every_ticks: 2 },
                ..
            }
        ));
    }

    #[test]
    fn window_without_pending_rollout_stays_quiet() {
        let (schema, pool, baseline) = setup();
        let deployed = deployed_for(&schema, &pool, &baseline);
        let config = ControllerConfig {
            window_ticks: Some(1),
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(&schema, &pool, &baseline, deployed, 0.5, config).unwrap();
        for _ in 0..4 {
            let out = c.observe(&baseline).unwrap();
            assert!(!out.triggered());
            assert_eq!(out.events.len(), 1, "a quiet tenant sails through windows");
        }
    }

    #[test]
    fn zero_window_ticks_is_a_typed_config_error() {
        let (schema, pool, baseline) = setup();
        let deployed = deployed_for(&schema, &pool, &baseline);
        let config = ControllerConfig {
            window_ticks: Some(0),
            ..ControllerConfig::default()
        };
        assert!(matches!(
            Controller::new(&schema, &pool, &baseline, deployed, 0.5, config),
            Err(ProvisionError::InvalidRequest { .. })
        ));
    }
}

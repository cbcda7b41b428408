//! Online re-provisioning: migrate a deployed layout toward the layout a
//! drifted workload wants, schedule the copies, and say whether the move
//! pays for itself.
//!
//! DOT answers *"what layout?"* for a workload snapshot. Mixed workloads
//! drift — analytical phases give way to transactional ones, demand scales,
//! read/write balances shift (see `dot_workloads::drift`) — and the layout
//! provisioned for yesterday's snapshot is then either over-priced or
//! SLA-violating for today's. Re-provisioning from scratch answers what the
//! *new* layout should be, but not the operational question: **is migrating
//! to it worth the data movement?**
//!
//! [`plan_migration_with`] (surfaced as `Advisor::replan` /
//! `Advisor::replan_scheduled`) answers both. Given the currently-deployed
//! [`Layout`] and a session over the *drifted* workload, it diffs the
//! deployed layout against the fresh recommendation group by group, prices
//! each object-group move three ways —
//!
//! * **data movement**: bytes leaving the source class, as a bulk
//!   sequential read off the source device and a bulk sequential write onto
//!   the target device (`StorageClass::bulk_read_seconds` /
//!   [`bulk_write_seconds`](dot_storage::StorageClass::bulk_write_seconds),
//!   Table 1's single-thread anchors);
//! * **migration cost in cents**: double residency — during the copy the
//!   moved gigabytes are billed on *both* classes for the transfer
//!   duration;
//! * **TOC delta**: the change in the drifted workload's hourly TOC rate
//!   from applying the move to the running layout (telescoping, so the
//!   per-move deltas sum *exactly* to the plan's end-to-end delta — the
//!   conservation property the test suite pins);
//!
//! — and assembles a [`MigrationPlan`]: moves ordered by migration
//! priority (win-win first, then performance-restoring, then cost-saving in
//! the paper's ascending-σ order, Eq. 4), greedily admitted under an
//! optional [`MigrationBudget`] (bytes, wall-clock seconds, or cents), with
//! a **break-even horizon** — hours until the new layout's TOC savings
//! repay the migration bill.
//!
//! ## The wave schedule
//!
//! Moves do **not** run one after another. Each transfer occupies its
//! source and target storage classes for its duration
//! ([`TransferLanes`]); transfers on disjoint `(source, target)` pairs
//! contend for nothing and overlap freely. The planner packs the admitted
//! step sequence into parallel **waves** ([`MigrationSchedule`]): a step
//! joins the open wave while its class set is disjoint from every
//! in-flight transfer's (and, when an in-flight SLA is set, while the wave
//! still meets it); the first step that cannot join closes the wave and
//! opens the next. A wave's duration is its *longest* member — its
//! transfers run concurrently — so the plan's `total_seconds` is the
//! schedule's critical path, never more than the sequential sum (the
//! property suite pins `makespan ≤ sequential`, with the final layout
//! bit-identical either way: group moves touch disjoint objects, so the
//! packing cannot change where anything lands).
//!
//! ## The SLA during the migration
//!
//! A wave is not free for the live traffic: while a transfer holds a
//! class, workload I/O against that class shares the device with the bulk
//! stream. [`ReplanOptions::sla_during_migration`] sets a relative SLA the
//! *in-flight* estimate must keep: for every wave the planner inflates the
//! pre-wave estimate by the contended I/O share and the double-residency
//! rate (`inflight_estimate`'s model) and checks it against constraints
//! derived at the during-migration ratio. A step whose addition would
//! violate them is pushed into a **new wave** (trading makespan for
//! headroom); a step that violates them even *alone* means no schedule
//! exists at that ratio, and planning fails with a typed
//! [`ProvisionError::Infeasible`] carrying a suggested looser ratio.
//!
//! ## Maintenance windows
//!
//! A rollout too big for one sitting runs as **plan continuation**:
//! [`plan_windowed_rollout`] plans a migration whose makespan fits one
//! maintenance window, executes it on paper, and replans from the partial
//! plan's `final_layout` for the next window, until the target is reached
//! (or a window stops paying). The per-window plans chain exactly because
//! a `Partial` plan's final layout is a valid deployed layout for the next
//! request — the same invariant the online `Controller` uses to resume
//! rollouts on its window trigger.
//!
//! ## The stay rate, and why break-even stays finite
//!
//! The counterfactual to migrating is *staying put*. A deployed layout that
//! still meets the drifted constraints pays its own TOC rate; one that
//! violates them cannot be kept for free — the SLA has a price — so its
//! stay rate is surcharged by the premium reference rate (the §4.3
//! reference is what serving the workload compliantly costs at worst). A
//! plan is only non-empty when its savings against the stay rate are
//! strictly positive — a migration that can never repay its bill collapses
//! to the identity plan with [`MigrationDecision::Stay`] — so
//! `break_even_hours` is finite and positive for every non-empty plan, and
//! `0` for empty ones.
//!
//! TOC rates are the problem's objective read hourly: for throughput
//! workloads `C(L) · 1h` (the paper's fixed measurement period, §4.5); for
//! response-time workloads `C(L) · t(L, W)` per pass, with the workload
//! recurring hourly — the same quantity every optimizer in this crate
//! minimizes.

use crate::advisor::{ProvisionError, Recommendation, SolveContext};
use crate::constraints::{self, Constraints};
use crate::moves::{finite_ratio, Move};
use crate::toc::TocEstimate;
use dot_dbms::{Layout, ObjectId, ObjectKind, Schema, PAGE_BYTES};
use dot_profiler::GroupProfile;
use dot_storage::{ClassId, TransferLanes};
use dot_workloads::spec::PerfMetric;
use dot_workloads::SlaSpec;
use serde::{Deserialize, Serialize};

/// Resource ceilings for one migration. `None` means unlimited; a plan
/// honors every ceiling that is set (totals stay `<=` the ceiling, with a
/// relative tolerance of one part in 10⁹ so a budget read back from a
/// previous plan's own totals — e.g. through JSON — never defers a move
/// over the last floating-point bit).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MigrationBudget {
    /// Maximum bytes of data movement.
    #[serde(default)]
    pub max_bytes: Option<f64>,
    /// Maximum *scheduled* wall-clock in seconds: the wave critical path
    /// ([`MigrationSchedule::makespan_seconds`]), not the sequential sum —
    /// transfers on disjoint device pairs overlap.
    #[serde(default)]
    pub max_seconds: Option<f64>,
    /// Maximum migration spend in cents.
    #[serde(default)]
    pub max_cents: Option<f64>,
}

/// `total` fits under `cap` up to a relative epsilon: float accumulations
/// that differ from the cap only by summation-order noise still admit.
fn fits(total: f64, cap: f64) -> bool {
    total <= cap + cap.abs() * 1e-9 + 1e-9
}

impl MigrationBudget {
    /// No ceilings: the plan reaches the fresh recommendation exactly.
    pub fn unbounded() -> Self {
        MigrationBudget::default()
    }

    /// All ceilings zero: the plan is always the identity.
    pub fn zero() -> Self {
        MigrationBudget {
            max_bytes: Some(0.0),
            max_seconds: Some(0.0),
            max_cents: Some(0.0),
        }
    }

    /// Set the byte ceiling.
    pub fn with_max_bytes(mut self, bytes: f64) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// Set the scheduled wall-clock ceiling in seconds.
    pub fn with_max_seconds(mut self, seconds: f64) -> Self {
        self.max_seconds = Some(seconds);
        self
    }

    /// Set the spend ceiling in cents.
    pub fn with_max_cents(mut self, cents: f64) -> Self {
        self.max_cents = Some(cents);
        self
    }

    /// True when no ceiling is set.
    pub fn is_unbounded(&self) -> bool {
        self.max_bytes.is_none() && self.max_seconds.is_none() && self.max_cents.is_none()
    }

    /// Would totals of `(bytes, seconds, cents)` still fit? `seconds` is
    /// the prospective *makespan*, which grows monotonically as steps are
    /// admitted, so greedy admission under this check is sound.
    fn admits(&self, bytes: f64, seconds: f64, cents: f64) -> bool {
        self.max_bytes.map_or(true, |cap| fits(bytes, cap))
            && self.max_seconds.map_or(true, |cap| fits(seconds, cap))
            && self.max_cents.map_or(true, |cap| fits(cents, cap))
    }

    /// Typed domain check: every set ceiling must be finite and `>= 0`.
    pub fn validate(&self) -> Result<(), ProvisionError> {
        for (name, cap) in [
            ("bytes", self.max_bytes),
            ("seconds", self.max_seconds),
            ("cents", self.max_cents),
        ] {
            if let Some(v) = cap {
                if !(v >= 0.0 && v.is_finite()) {
                    return Err(ProvisionError::InvalidRequest {
                        reason: format!("migration budget {name} {v} must be finite and >= 0"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Knobs of one scheduled re-provisioning request beyond the target solver.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ReplanOptions {
    /// Resource ceilings for the migration (unbounded by default).
    #[serde(default)]
    pub budget: MigrationBudget,
    /// Relative SLA ratio in `(0, 1]` the **in-flight** estimate of every
    /// wave must keep (see the module docs). `None` constrains only the
    /// final layout, as the paper does.
    #[serde(default)]
    pub sla_during_migration: Option<f64>,
}

impl ReplanOptions {
    /// Typed domain check for the budget and the during-migration SLA.
    pub fn validate(&self) -> Result<(), ProvisionError> {
        self.budget.validate()?;
        if let Some(r) = self.sla_during_migration {
            if !(r.is_finite() && r > 0.0 && r <= 1.0) {
                return Err(ProvisionError::InvalidRequest {
                    reason: format!("sla-during-migration ratio {r} out of (0, 1]"),
                });
            }
        }
        Ok(())
    }
}

/// One object-group move of a migration plan, priced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationStep {
    /// The move, in Procedure 2's shape (`delta_*` and `score` are
    /// measured against the *deployed* layout, not `L_0`; `score` is `0`
    /// when the move saves no hourly cost — σ is undefined there).
    pub mv: Move,
    /// Source placement the group leaves, parallel to `mv.objects`.
    pub from: Vec<ClassId>,
    /// Bytes leaving their class (objects already in place contribute 0).
    pub bytes: f64,
    /// Bulk-copy duration: sequential read off each source device plus
    /// sequential write onto each target device, one stream, in seconds.
    pub transfer_seconds: f64,
    /// Double-residency cost of the copy in cents: the moved gigabytes are
    /// billed on both classes for the transfer duration.
    pub migration_cost_cents: f64,
    /// Change in the drifted workload's hourly TOC rate from applying this
    /// move to the running layout (negative = saves). Telescoping: the sum
    /// over a plan's steps equals the rate delta between the deployed and
    /// final layouts exactly.
    pub toc_delta_cents_per_hour: f64,
}

/// One wave of concurrently-running transfers: every member's source and
/// target classes are pairwise disjoint, so they share no device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationWave {
    /// Indices into [`MigrationPlan::steps`], in admission order. Waves
    /// partition the step list into contiguous runs.
    pub steps: Vec<usize>,
    /// Wave duration: the *longest* member transfer (they overlap).
    pub seconds: f64,
    /// Extra hourly cost while the wave is in flight: the double-residency
    /// rate of every moving gigabyte, in cents/hour.
    pub inflight_rate_cents_per_hour: f64,
}

/// How a plan's steps are packed into parallel waves, and what the packing
/// buys: `makespan_seconds ≤ sequential_seconds`, always.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MigrationSchedule {
    /// The waves, in execution order.
    pub waves: Vec<MigrationWave>,
    /// Critical path: the sum of wave durations.
    pub makespan_seconds: f64,
    /// What the same steps would take run one after another.
    pub sequential_seconds: f64,
}

/// What the planner concluded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MigrationDecision {
    /// The drifted workload recommends the deployed layout itself.
    Unchanged,
    /// Migration cannot repay its bill (or no move fits the budget): keep
    /// the deployed layout.
    Stay,
    /// Migrate fully to the fresh recommendation.
    Migrate,
    /// The budget admitted only part of the move sequence.
    Partial {
        /// Object *groups* the budget kept out of the plan (each deferred
        /// group may span several object moves). Serialized as
        /// `deferred_groups`; the historical `deferred_moves` key — which
        /// always held this group count — still parses.
        #[serde(alias = "deferred_moves")]
        deferred_groups: usize,
    },
}

/// An ordered, priced, budget-honoring migration from a deployed layout
/// toward the drifted workload's recommendation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// The planner's verdict.
    pub decision: MigrationDecision,
    /// Moves in admission order (migration priority; see module docs).
    pub steps: Vec<MigrationStep>,
    /// How the steps pack into parallel waves.
    #[serde(default)]
    pub schedule: MigrationSchedule,
    /// The layout after every step — the fresh recommendation when the
    /// budget is unbounded, the deployed layout when the plan is empty.
    pub final_layout: Layout,
    /// Total data movement in bytes.
    pub total_bytes: f64,
    /// Scheduled wall clock in seconds: the wave critical path
    /// ([`MigrationSchedule::makespan_seconds`]), never more than the
    /// sequential sum of the steps.
    pub total_seconds: f64,
    /// Total migration spend in cents.
    pub total_cents: f64,
    /// Hourly TOC savings of the final layout against the stay rate
    /// (strictly positive whenever the plan is non-empty).
    pub savings_cents_per_hour: f64,
    /// Hours until the savings repay `total_cents`: finite and positive
    /// for every non-empty plan, `0` for empty ones.
    pub break_even_hours: f64,
}

/// The full answer of a re-provisioning request: the fresh recommendation
/// for the drifted workload, how the deployed layout fares under it, and
/// the migration plan bridging the two. Fully serializable for the CLI's
/// `--json` mode and fleet reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanRecommendation {
    /// The drifted workload's fresh recommendation (the migration target).
    pub target: Recommendation,
    /// TOC estimate of the *deployed* layout under the drifted workload.
    pub current_estimate: TocEstimate,
    /// Whether the deployed layout still meets the drifted constraints.
    pub current_feasible: bool,
    /// Hourly cost of staying put: the deployed layout's TOC rate,
    /// surcharged by the premium reference rate when it violates the
    /// drifted constraints (an SLA violation is never free).
    pub stay_rate_cents_per_hour: f64,
    /// The plan.
    pub plan: MigrationPlan,
}

/// A multi-window rollout: the same migration spread over recurring
/// maintenance windows by plan continuation — each window replans from the
/// previous window's `final_layout` with the window length as its
/// wall-clock ceiling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedRollout {
    /// One [`ReplanRecommendation`] per window, in execution order. Every
    /// window before the last makes progress (a `Partial` plan always
    /// carries at least one step).
    pub windows: Vec<ReplanRecommendation>,
    /// The layout after the last window.
    pub final_layout: Layout,
    /// Scheduled wall clock summed over the windows, in seconds.
    pub total_seconds: f64,
    /// Migration spend summed over the windows, in cents.
    pub total_cents: f64,
    /// `true` when the rollout reached the fresh recommendation;
    /// `false` when a window concluded staying put was the better deal.
    pub complete: bool,
}

/// The hourly TOC rate the planner compares layouts on: the problem
/// objective read per hour (see module docs).
pub fn toc_rate_cents_per_hour(estimate: &TocEstimate) -> f64 {
    estimate.objective_cents
}

/// Sequential row-writes needed to repopulate `object` on a new device:
/// table rows for heaps, index entries for indexes, pages for temp/log
/// (whose content is page-granular, not row-granular).
fn write_units(schema: &Schema, object: ObjectId) -> f64 {
    let o = schema.object(object);
    match o.kind {
        ObjectKind::Table => schema
            .tables()
            .iter()
            .find(|t| t.object == object)
            .map(|t| t.rows)
            .unwrap_or_else(|| o.size_gb * 1e9 / PAGE_BYTES),
        ObjectKind::Index => schema
            .indexes()
            .iter()
            .find(|i| i.object == object)
            .map(|i| i.entries)
            .unwrap_or_else(|| o.size_gb * 1e9 / PAGE_BYTES),
        ObjectKind::Temp | ObjectKind::Log => o.size_gb * 1e9 / PAGE_BYTES,
    }
}

/// A candidate group move with its migration price, before budget
/// admission.
struct Candidate {
    mv: Move,
    from: Vec<ClassId>,
    bytes: f64,
    seconds: f64,
    cents: f64,
    /// Distinct source and target classes of the moving objects — the
    /// transfer lanes this step occupies for its duration.
    classes: Vec<ClassId>,
    /// Double-residency rate while the step is in flight, cents/hour.
    residency_rate: f64,
    rank: u8,
    key: f64,
}

/// `T^p[g]` for a group under `placement`, or a typed error naming the
/// group and the placement when the profile does not cover it — a
/// user-supplied deployed layout must never abort the planner.
fn group_time_ms(
    cx: &SolveContext<'_, '_>,
    gi: usize,
    g: &GroupProfile,
    placement: &[ClassId],
    role: &str,
) -> Result<f64, ProvisionError> {
    g.io_time_share_ms(placement, cx.problem.pool, cx.problem.cfg.concurrency)
        .ok_or_else(|| ProvisionError::InvalidRequest {
            reason: format!(
                "workload profile does not cover the {role} placement {:?} of group {gi} ({})",
                placement.iter().map(|c| c.0).collect::<Vec<_>>(),
                cx.problem.schema.object(g.objects[0]).name,
            ),
        })
}

/// Diff `current` against `target` group by group and price each move.
fn candidates(
    cx: &SolveContext<'_, '_>,
    current: &Layout,
    target: &Layout,
) -> Result<Vec<Candidate>, ProvisionError> {
    let problem = cx.problem;
    let c_current = problem.layout_cost_cents_per_hour(current);
    let mut out = Vec::new();
    for (gi, g) in cx.profile.groups.iter().enumerate() {
        let from: Vec<ClassId> = g.objects.iter().map(|&o| current.class_of(o)).collect();
        let to: Vec<ClassId> = g.objects.iter().map(|&o| target.class_of(o)).collect();
        if from == to {
            continue;
        }
        let t_from = group_time_ms(cx, gi, g, &from, "deployed")?;
        let t_to = group_time_ms(cx, gi, g, &to, "target")?;
        let delta_time_ms = t_to - t_from;
        let mut moved = current.clone();
        for (&o, &class) in g.objects.iter().zip(&to) {
            moved.place(o, class);
        }
        let delta_cost = c_current - problem.layout_cost_cents_per_hour(&moved);

        let mut bytes = 0.0;
        let mut seconds = 0.0;
        let mut cents = 0.0;
        let mut residency_rate = 0.0;
        let mut classes: Vec<ClassId> = Vec::new();
        for (&o, (&src, &dst)) in g.objects.iter().zip(from.iter().zip(&to)) {
            if src == dst {
                continue;
            }
            let gb = problem.schema.object(o).size_gb;
            let src_class = problem.pool.class_unchecked(src);
            let dst_class = problem.pool.class_unchecked(dst);
            let copy_seconds = src_class.bulk_read_seconds(gb * 1e9 / PAGE_BYTES)
                + dst_class.bulk_write_seconds(write_units(problem.schema, o));
            bytes += gb * 1e9;
            seconds += copy_seconds;
            cents += (copy_seconds / 3_600.0)
                * gb
                * (src_class.price_cents_per_gb_hour + dst_class.price_cents_per_gb_hour);
            residency_rate +=
                gb * (src_class.price_cents_per_gb_hour + dst_class.price_cents_per_gb_hour);
            for c in [src, dst] {
                if !classes.contains(&c) {
                    classes.push(c);
                }
            }
        }

        // Migration priority: free wins first, then performance-restoring
        // moves (biggest speedup first), then the paper's cost-saving moves
        // in ascending-σ order (Eq. 4). Keys go through `finite_ratio`, so
        // a subnormal δ_cost can never inject inf/NaN into the sort.
        let (rank, key) = if delta_cost > 0.0 && delta_time_ms <= 0.0 {
            (0, finite_ratio(delta_time_ms, delta_cost))
        } else if delta_cost <= 0.0 {
            (1, delta_time_ms)
        } else {
            (2, finite_ratio(delta_time_ms, delta_cost))
        };
        out.push(Candidate {
            mv: Move {
                group_index: gi,
                objects: g.objects.clone(),
                placement: to,
                delta_time_ms,
                delta_cost,
                score: finite_ratio(delta_time_ms, delta_cost),
            },
            from,
            bytes,
            seconds,
            cents,
            classes,
            residency_rate,
            rank,
            key,
        });
    }
    out.sort_by(|a, b| {
        a.rank
            .cmp(&b.rank)
            .then(a.key.total_cmp(&b.key))
            .then(a.mv.group_index.cmp(&b.mv.group_index))
    });
    Ok(out)
}

/// The TOC estimate the live traffic sees *while a wave is in flight*:
/// the pre-wave estimate, inflated by contention and double residency.
///
/// Every group with an object on an `occupied` class shares its devices
/// with a bulk stream, so its I/O time share is paid twice (fair-share
/// halved bandwidth); the whole stream stretches by
/// `(stream + contended) / stream`, and per-query times stretch with it.
/// The layout bills the double-residency rate on top while the wave runs.
fn inflight_estimate(
    cx: &SolveContext<'_, '_>,
    pre_layout: &Layout,
    pre_est: &TocEstimate,
    occupied: &TransferLanes,
    residency_rate_cents_per_hour: f64,
) -> Result<TocEstimate, ProvisionError> {
    let problem = cx.problem;
    let mut contended_ms = 0.0;
    for (gi, g) in cx.profile.groups.iter().enumerate() {
        let placement: Vec<ClassId> = g.objects.iter().map(|&o| pre_layout.class_of(o)).collect();
        if placement.iter().all(|&c| occupied.is_free(c)) {
            continue;
        }
        contended_ms += group_time_ms(cx, gi, g, &placement, "deployed")?;
    }
    let stream = pre_est.stream_time_ms;
    let factor = if stream > 0.0 {
        (stream + contended_ms) / stream
    } else {
        1.0
    };
    let layout_cost = pre_est.layout_cost_cents_per_hour + residency_rate_cents_per_hour;
    let stream_time_ms = stream * factor;
    let w = problem.workload;
    let throughput = w.throughput_tasks_per_hour(stream_time_ms);
    let hours = w.execution_hours(stream_time_ms);
    let toc_cents_per_pass = layout_cost * hours;
    Ok(TocEstimate {
        layout_cost_cents_per_hour: layout_cost,
        stream_time_ms,
        per_query_ms: pre_est.per_query_ms.iter().map(|t| t * factor).collect(),
        throughput_tasks_per_hour: throughput,
        toc_cents_per_pass,
        toc_cents_per_task: if throughput > 0.0 {
            layout_cost / throughput
        } else {
            f64::INFINITY
        },
        objective_cents: match w.metric {
            PerfMetric::ResponseTime => toc_cents_per_pass,
            PerfMetric::Throughput => layout_cost,
        },
        plan_stats: pre_est.plan_stats,
    })
}

/// Plan the migration from `current` to `target`'s layout under
/// `opts.budget`, on the session context the target was solved in: a
/// budget whose wall-clock ceiling caps the *scheduled* makespan, and an
/// optional SLA the in-flight estimate of every wave must keep. See the
/// module docs for the decision rules; `Advisor::replan` and
/// `Advisor::replan_scheduled` are the usual entry points.
pub fn plan_migration_with(
    cx: &SolveContext<'_, '_>,
    current: &Layout,
    target: Recommendation,
    opts: &ReplanOptions,
) -> Result<ReplanRecommendation, ProvisionError> {
    opts.validate()?;
    let problem = cx.problem;
    if current.len() != problem.schema.object_count() {
        return Err(ProvisionError::InvalidRequest {
            reason: format!(
                "current layout covers {} objects, schema has {}",
                current.len(),
                problem.schema.object_count()
            ),
        });
    }
    if let Some(&bad) = current
        .assignment()
        .iter()
        .find(|c| c.0 >= problem.pool.len())
    {
        return Err(ProvisionError::InvalidRequest {
            reason: format!(
                "current layout places an object on {bad}, but pool {:?} has only {} classes",
                problem.pool.name(),
                problem.pool.len()
            ),
        });
    }

    let current_estimate = cx.estimate(current);
    let current_feasible = cx
        .constraints
        .satisfied(problem, current, &current_estimate);
    let current_rate = toc_rate_cents_per_hour(&current_estimate);
    let stay_rate = if current_feasible {
        current_rate
    } else {
        current_rate + toc_rate_cents_per_hour(&cx.constraints.reference)
    };

    // Constraints the in-flight estimate of every wave must keep, derived
    // once from the session's premium reference at the during-migration
    // ratio.
    let inflight_cx: Option<Constraints> = opts.sla_during_migration.map(|r| {
        constraints::from_reference(
            problem,
            cx.constraints.reference.clone(),
            SlaSpec::relative(r),
        )
    });
    let budget = &opts.budget;

    // Greedy admission in priority order; TOC deltas telescope over the
    // running layout, so interactions between moves are priced exactly.
    // Steps pack into waves next-fit: a step joins the open wave while its
    // lanes are free and the wave still meets the in-flight SLA, else the
    // wave closes. Waves are therefore contiguous runs of the admitted
    // step sequence, and the prospective makespan grows monotonically —
    // which is what makes budget admission on it sound.
    let mut steps: Vec<MigrationStep> = Vec::new();
    let mut deferred = 0usize;
    let mut running = current.clone();
    let mut running_est = current_estimate.clone();
    let mut rate_before = current_rate;
    let (mut total_bytes, mut total_cents) = (0.0, 0.0);
    let mut sequential_seconds = 0.0;

    let mut waves: Vec<MigrationWave> = Vec::new();
    let mut closed_seconds = 0.0;
    let mut open_steps: Vec<usize> = Vec::new();
    let mut open_max = 0.0f64;
    let mut open_residency = 0.0f64;
    let mut lanes = TransferLanes::new(problem.pool.len());
    // The layout (and its estimate) every transfer of the open wave reads
    // from and the live traffic runs on while the wave is in flight.
    let mut pre_wave_layout = current.clone();
    let mut pre_wave_est = current_estimate.clone();

    for cand in candidates(cx, current, &target.layout)? {
        // Can the open wave take this transfer? Lanes must be free, and —
        // when an in-flight SLA is set — the grown wave must still keep it.
        let disjoint = !open_steps.is_empty() && cand.classes.iter().all(|&c| lanes.is_free(c));
        let extend = disjoint
            && match &inflight_cx {
                None => true,
                Some(icx) => {
                    let mut occ = lanes.clone();
                    occ.try_claim_set(&cand.classes);
                    let est = inflight_estimate(
                        cx,
                        &pre_wave_layout,
                        &pre_wave_est,
                        &occ,
                        open_residency + cand.residency_rate,
                    )?;
                    icx.performance_satisfied(&est)
                }
            };
        let makespan = if extend {
            closed_seconds + open_max.max(cand.seconds)
        } else {
            closed_seconds + open_max + cand.seconds
        };
        if !budget.admits(total_bytes + cand.bytes, makespan, total_cents + cand.cents) {
            deferred += 1;
            continue;
        }
        if !extend {
            // The step opens a new wave. An empty wave always has the
            // lanes, but the in-flight SLA must hold even for a lone
            // transfer — if it cannot, no schedule exists at this ratio.
            if let (Some(icx), Some(r)) = (&inflight_cx, opts.sla_during_migration) {
                let mut occ = TransferLanes::new(problem.pool.len());
                occ.try_claim_set(&cand.classes);
                let est = inflight_estimate(cx, &running, &running_est, &occ, cand.residency_rate)?;
                if !icx.performance_satisfied(&est) {
                    let worst = icx
                        .violation_margins(problem.workload, &est)
                        .iter()
                        .map(|m| m.ratio)
                        .fold(1.0_f64, f64::max);
                    return Err(ProvisionError::Infeasible {
                        sla: r,
                        suggested_sla: if worst > 1.0 && (r / worst) > 0.0 {
                            Some(r / worst)
                        } else {
                            None
                        },
                        layouts_investigated: steps.len() + 1,
                    });
                }
            }
            if !open_steps.is_empty() {
                waves.push(MigrationWave {
                    steps: std::mem::take(&mut open_steps),
                    seconds: open_max,
                    inflight_rate_cents_per_hour: open_residency,
                });
                closed_seconds += open_max;
                open_max = 0.0;
                open_residency = 0.0;
                lanes.clear();
            }
            pre_wave_layout = running.clone();
            pre_wave_est = running_est.clone();
        }
        lanes.try_claim_set(&cand.classes);
        open_steps.push(steps.len());
        open_max = open_max.max(cand.seconds);
        open_residency += cand.residency_rate;

        running = cand.mv.apply(&running);
        running_est = cx.estimate(&running);
        let rate_after = toc_rate_cents_per_hour(&running_est);
        steps.push(MigrationStep {
            mv: cand.mv,
            from: cand.from,
            bytes: cand.bytes,
            transfer_seconds: cand.seconds,
            migration_cost_cents: cand.cents,
            toc_delta_cents_per_hour: rate_after - rate_before,
        });
        rate_before = rate_after;
        total_bytes += cand.bytes;
        sequential_seconds += cand.seconds;
        total_cents += cand.cents;
    }
    if !open_steps.is_empty() {
        waves.push(MigrationWave {
            steps: std::mem::take(&mut open_steps),
            seconds: open_max,
            inflight_rate_cents_per_hour: open_residency,
        });
        closed_seconds += open_max;
    }
    let mut schedule = MigrationSchedule {
        waves,
        makespan_seconds: closed_seconds,
        sequential_seconds,
    };

    let mut savings = stay_rate - rate_before;
    // A migration that can never repay its bill collapses to the identity
    // plan: staying is the rational verdict (retry with a looser budget —
    // a partial plan's savings can be negative even when the full plan's
    // are not).
    if !steps.is_empty() && savings <= 0.0 {
        deferred += steps.len();
        steps.clear();
        running = current.clone();
        (total_bytes, total_cents) = (0.0, 0.0);
        schedule = MigrationSchedule::default();
        savings = 0.0;
    }
    let total_seconds = schedule.makespan_seconds;

    let decision = if target.layout == *current {
        MigrationDecision::Unchanged
    } else if steps.is_empty() {
        MigrationDecision::Stay
    } else if deferred == 0 {
        MigrationDecision::Migrate
    } else {
        MigrationDecision::Partial {
            deferred_groups: deferred,
        }
    };
    let break_even_hours = if steps.is_empty() {
        0.0
    } else {
        total_cents / savings
    };
    Ok(ReplanRecommendation {
        target,
        current_estimate,
        current_feasible,
        stay_rate_cents_per_hour: stay_rate,
        plan: MigrationPlan {
            decision,
            steps,
            schedule,
            final_layout: running,
            total_bytes,
            total_seconds,
            total_cents,
            savings_cents_per_hour: savings,
            break_even_hours,
        },
    })
}

/// Spread a migration over recurring maintenance windows of
/// `window_seconds` each (see the module docs): plan with the window as
/// the wall-clock ceiling, continue from the partial plan's `final_layout`,
/// repeat until the rollout reaches the target (`complete`) or a window
/// concludes staying put is the better deal. `Advisor::replan_rollout` is
/// the usual entry point.
pub fn plan_windowed_rollout(
    cx: &SolveContext<'_, '_>,
    current: &Layout,
    target: Recommendation,
    opts: &ReplanOptions,
    window_seconds: f64,
) -> Result<WindowedRollout, ProvisionError> {
    if !(window_seconds.is_finite() && window_seconds > 0.0) {
        return Err(ProvisionError::InvalidRequest {
            reason: format!(
                "maintenance window of {window_seconds} seconds must be finite and > 0"
            ),
        });
    }
    let mut wopts = *opts;
    wopts.budget.max_seconds = Some(
        opts.budget
            .max_seconds
            .map_or(window_seconds, |s| s.min(window_seconds)),
    );
    let mut windows = Vec::new();
    let mut layout = current.clone();
    let (mut total_seconds, mut total_cents) = (0.0, 0.0);
    let mut complete = false;
    // Every window before a terminal verdict retires >= 1 group (a Partial
    // plan is never empty), so groups + 2 windows bound any rollout.
    for _ in 0..cx.profile.groups.len() + 2 {
        let rec = plan_migration_with(cx, &layout, target.clone(), &wopts)?;
        layout = rec.plan.final_layout.clone();
        total_seconds += rec.plan.total_seconds;
        total_cents += rec.plan.total_cents;
        let decision = rec.plan.decision.clone();
        windows.push(rec);
        match decision {
            MigrationDecision::Unchanged | MigrationDecision::Migrate => {
                complete = true;
                break;
            }
            MigrationDecision::Stay => break,
            MigrationDecision::Partial { .. } => {}
        }
    }
    Ok(WindowedRollout {
        windows,
        final_layout: layout,
        total_seconds,
        total_cents,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::Advisor;
    use dot_storage::catalog;
    use dot_workloads::{drift, tpcc};

    fn phases() -> (
        dot_dbms::Schema,
        dot_storage::StoragePool,
        dot_workloads::Workload,
        dot_workloads::Workload,
    ) {
        let schema = tpcc::schema(2.0);
        let pool = catalog::box2();
        let before = drift::analytical_phase(&schema);
        let after = tpcc::workload(&schema);
        (schema, pool, before, after)
    }

    /// The phase-flip fixture solved both ways: the deployed (analytical)
    /// layout and the drifted advisor that wants to move off it.
    fn flip<'a>(
        schema: &'a dot_dbms::Schema,
        pool: &'a dot_storage::StoragePool,
        before: &'a dot_workloads::Workload,
        after: &'a dot_workloads::Workload,
    ) -> (Layout, Advisor<'a>) {
        let analytical = Advisor::builder(schema, pool, before)
            .sla(0.5)
            .build()
            .unwrap();
        let current = analytical.recommend("dot").unwrap().layout;
        let drifted = Advisor::builder(schema, pool, after)
            .sla(0.5)
            .build()
            .unwrap();
        (current, drifted)
    }

    #[test]
    fn unchanged_workload_yields_the_identity_plan() {
        let (schema, pool, before, _) = phases();
        let advisor = Advisor::builder(&schema, &pool, &before)
            .sla(0.5)
            .build()
            .unwrap();
        let current = advisor.recommend("dot").unwrap().layout;
        let rec = advisor.replan(&current).unwrap();
        assert_eq!(rec.plan.decision, MigrationDecision::Unchanged);
        assert!(rec.plan.steps.is_empty());
        assert!(rec.plan.schedule.waves.is_empty());
        assert_eq!(rec.plan.schedule.makespan_seconds, 0.0);
        assert_eq!(rec.plan.final_layout, current);
        assert_eq!(rec.plan.total_bytes, 0.0);
        assert_eq!(rec.plan.break_even_hours, 0.0);
        assert!(rec.current_feasible);
    }

    #[test]
    fn phase_flip_migrates_to_the_fresh_recommendation() {
        let (schema, pool, before, after) = phases();
        let (current, drifted) = flip(&schema, &pool, &before, &after);
        let fresh = drifted.recommend("dot").unwrap();
        assert_ne!(fresh.layout, current, "the phase flip must move objects");

        let rec = drifted.replan(&current).unwrap();
        assert_eq!(rec.plan.final_layout, fresh.layout);
        assert_eq!(rec.plan.decision, MigrationDecision::Migrate);
        assert!(
            !rec.current_feasible,
            "the analytical layout cannot hold \
                 the OLTP floor — the scenario this planner exists for"
        );
        assert!(rec.plan.total_bytes > 0.0);
        assert!(rec.plan.total_seconds > 0.0);
        assert!(rec.plan.total_cents > 0.0);
        assert!(rec.plan.savings_cents_per_hour > 0.0);
        assert!(
            rec.plan.break_even_hours > 0.0 && rec.plan.break_even_hours.is_finite(),
            "break-even {} must be finite and positive",
            rec.plan.break_even_hours
        );
    }

    #[test]
    fn schedule_partitions_steps_and_never_beats_sequential() {
        let (schema, pool, before, after) = phases();
        let (current, drifted) = flip(&schema, &pool, &before, &after);
        let rec = drifted.replan(&current).unwrap();
        let plan = &rec.plan;
        let sched = &plan.schedule;

        // total_seconds is the critical path, and it never exceeds the
        // sequential sum of the steps.
        assert_eq!(plan.total_seconds, sched.makespan_seconds);
        let seq: f64 = plan.steps.iter().map(|s| s.transfer_seconds).sum();
        assert!((sched.sequential_seconds - seq).abs() < 1e-9);
        assert!(sched.makespan_seconds <= seq + 1e-9);

        // Waves partition the step list into contiguous runs.
        let flat: Vec<usize> = sched.waves.iter().flat_map(|w| w.steps.clone()).collect();
        assert_eq!(flat, (0..plan.steps.len()).collect::<Vec<_>>());
        let wave_sum: f64 = sched.waves.iter().map(|w| w.seconds).sum();
        assert!((wave_sum - sched.makespan_seconds).abs() < 1e-9);

        // Within a wave, transfers never share a storage class.
        for w in &sched.waves {
            let mut lanes = TransferLanes::new(pool.len());
            assert!(w.seconds > 0.0);
            for &si in &w.steps {
                let s = &plan.steps[si];
                let mut classes: Vec<ClassId> = Vec::new();
                for (&src, &dst) in s.from.iter().zip(&s.mv.placement) {
                    if src != dst {
                        classes.extend([src, dst]);
                    }
                }
                classes.dedup();
                assert!(
                    lanes.try_claim_set(&classes),
                    "wave members must occupy disjoint classes"
                );
                assert!(s.transfer_seconds <= w.seconds + 1e-9);
            }
        }
    }

    #[test]
    fn toc_deltas_telescope_to_the_end_to_end_delta() {
        let (schema, pool, before, after) = phases();
        let (current, drifted) = flip(&schema, &pool, &before, &after);
        let rec = drifted.replan(&current).unwrap();
        let sum: f64 = rec
            .plan
            .steps
            .iter()
            .map(|s| s.toc_delta_cents_per_hour)
            .sum();
        let end_to_end =
            toc_rate_cents_per_hour(&drifted.context().estimate(&rec.plan.final_layout))
                - toc_rate_cents_per_hour(&rec.current_estimate);
        assert!(
            (sum - end_to_end).abs() < 1e-9,
            "sum {sum} vs end-to-end {end_to_end}"
        );
    }

    #[test]
    fn zero_budget_is_the_identity_plan() {
        let (schema, pool, before, after) = phases();
        let (current, drifted) = flip(&schema, &pool, &before, &after);
        let rec = drifted
            .replan_with(&current, "dot", &MigrationBudget::zero())
            .unwrap();
        assert!(rec.plan.steps.is_empty());
        assert!(rec.plan.schedule.waves.is_empty());
        assert_eq!(rec.plan.final_layout, current);
        assert_eq!(rec.plan.decision, MigrationDecision::Stay);
        assert_eq!(rec.plan.break_even_hours, 0.0);
    }

    #[test]
    fn byte_budget_is_honored_and_partial_plans_say_so() {
        let (schema, pool, before, after) = phases();
        let (current, drifted) = flip(&schema, &pool, &before, &after);
        let unbounded = drifted.replan(&current).unwrap();
        assert!(unbounded.plan.steps.len() >= 2, "need a divisible plan");
        // Cap at just under the full movement: something must be deferred.
        let cap = unbounded.plan.total_bytes * 0.6;
        let budget = MigrationBudget::unbounded().with_max_bytes(cap);
        let rec = drifted.replan_with(&current, "dot", &budget).unwrap();
        assert!(rec.plan.total_bytes <= cap);
        match rec.plan.decision {
            MigrationDecision::Partial { deferred_groups } => assert!(deferred_groups >= 1),
            MigrationDecision::Stay => assert!(rec.plan.steps.is_empty()),
            ref other => panic!("expected a budget-limited plan, got {other:?}"),
        }
        if !rec.plan.steps.is_empty() {
            assert!(rec.plan.savings_cents_per_hour > 0.0);
            assert!(rec.plan.break_even_hours.is_finite());
        }
    }

    #[test]
    fn budget_from_a_plans_own_totals_reproduces_it() {
        // The round-trip the epsilon in `admits` exists for: feed a plan's
        // own totals back as the budget and the identical plan must come
        // out — no move deferred over a float accumulation's last bit.
        let (schema, pool, before, after) = phases();
        let (current, drifted) = flip(&schema, &pool, &before, &after);
        let first = drifted.replan(&current).unwrap();
        assert_eq!(first.plan.decision, MigrationDecision::Migrate);
        let budget = MigrationBudget::unbounded()
            .with_max_bytes(first.plan.total_bytes)
            .with_max_seconds(first.plan.total_seconds)
            .with_max_cents(first.plan.total_cents);
        let again = drifted.replan_with(&current, "dot", &budget).unwrap();
        assert_eq!(again.plan, first.plan);

        // ...and the same holds after the totals round-trip through JSON.
        let json = serde_json::to_string(&budget).unwrap();
        let parsed: MigrationBudget = serde_json::from_str(&json).unwrap();
        let thrice = drifted.replan_with(&current, "dot", &parsed).unwrap();
        assert_eq!(thrice.plan, first.plan);
    }

    #[test]
    fn deferral_counts_groups_not_object_moves() {
        let (schema, pool, before, after) = phases();
        let (current, drifted) = flip(&schema, &pool, &before, &after);
        let unbounded = drifted.replan(&current).unwrap();
        // Pick a step that moves a whole two-object group (table + index):
        // the historical `deferred_moves` name suggested it would count 2.
        let (di, victim) = unbounded
            .plan
            .steps
            .iter()
            .enumerate()
            .rev()
            .find(|(_, s)| {
                s.from
                    .iter()
                    .zip(&s.mv.placement)
                    .filter(|(a, b)| a != b)
                    .count()
                    >= 2
            })
            .expect("fixture must move a table and its index together");
        let cap = unbounded.plan.total_bytes - victim.bytes;
        let rec = drifted
            .replan_with(
                &current,
                "dot",
                &MigrationBudget::unbounded().with_max_bytes(cap),
            )
            .unwrap();
        assert!(
            !rec.plan
                .steps
                .iter()
                .any(|s| s.mv.group_index == victim.mv.group_index),
            "the victim group must be the one deferred"
        );
        let expected_deferred = unbounded.plan.steps.len() - rec.plan.steps.len();
        assert!(expected_deferred >= 1, "step {di} should not have fit");
        assert_eq!(
            rec.plan.decision,
            MigrationDecision::Partial {
                deferred_groups: expected_deferred
            },
            "deferral is counted per group, not per object move"
        );
    }

    #[test]
    fn legacy_deferred_moves_key_still_parses() {
        let legacy = r#"{"Partial":{"deferred_moves":3}}"#;
        let parsed: MigrationDecision = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed, MigrationDecision::Partial { deferred_groups: 3 });
        // The new name round-trips.
        let json = serde_json::to_string(&parsed).unwrap();
        assert!(json.contains("deferred_groups"), "{json}");
        let back: MigrationDecision = serde_json::from_str(&json).unwrap();
        assert_eq!(back, parsed);
    }

    #[test]
    fn loose_inflight_sla_does_not_change_the_plan() {
        let (schema, pool, before, after) = phases();
        let (current, drifted) = flip(&schema, &pool, &before, &after);
        let plain = drifted.replan(&current).unwrap();
        let opts = ReplanOptions {
            budget: MigrationBudget::unbounded(),
            sla_during_migration: Some(0.01),
        };
        let eased = drifted.replan_scheduled(&current, "dot", &opts).unwrap();
        assert_eq!(eased.plan, plain.plan);
    }

    #[test]
    fn impossible_inflight_sla_is_a_typed_infeasibility() {
        // During the first wave the live traffic still runs on the
        // analytical layout *plus* transfer contention: demanding full
        // reference performance (ratio 1.0) mid-copy cannot be met.
        let (schema, pool, before, after) = phases();
        let (current, drifted) = flip(&schema, &pool, &before, &after);
        let opts = ReplanOptions {
            budget: MigrationBudget::unbounded(),
            sla_during_migration: Some(1.0),
        };
        match drifted.replan_scheduled(&current, "dot", &opts) {
            Err(ProvisionError::Infeasible {
                sla, suggested_sla, ..
            }) => {
                assert_eq!(sla, 1.0);
                let s = suggested_sla.expect("the margins name a workable ratio");
                assert!(s > 0.0 && s < 1.0, "suggested {s}");
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn replan_options_domain_is_validated() {
        let (schema, pool, before, after) = phases();
        let (current, drifted) = flip(&schema, &pool, &before, &after);
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let opts = ReplanOptions {
                budget: MigrationBudget::unbounded(),
                sla_during_migration: Some(bad),
            };
            assert!(
                matches!(
                    drifted.replan_scheduled(&current, "dot", &opts),
                    Err(ProvisionError::InvalidRequest { .. })
                ),
                "ratio {bad} must be rejected"
            );
        }
        // Bad maintenance windows are typed errors too.
        for bad in [0.0, -60.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    drifted.replan_rollout(&current, "dot", &ReplanOptions::default(), bad),
                    Err(ProvisionError::InvalidRequest { .. })
                ),
                "window of {bad} seconds must be rejected"
            );
        }
    }

    #[test]
    fn windowed_rollout_reaches_the_target_by_continuation() {
        let (schema, pool, before, after) = phases();
        let (current, drifted) = flip(&schema, &pool, &before, &after);
        let full = drifted.replan(&current).unwrap();
        assert!(full.plan.steps.len() >= 2, "need a divisible plan");
        // A window long enough for the largest single transfer but not the
        // whole rollout: the migration must spread over several windows.
        let longest = full
            .plan
            .steps
            .iter()
            .map(|s| s.transfer_seconds)
            .fold(0.0f64, f64::max);
        let window = longest * 1.01;
        assert!(window < full.plan.schedule.sequential_seconds);
        let rollout = drifted
            .replan_rollout(&current, "dot", &ReplanOptions::default(), window)
            .unwrap();
        assert!(rollout.complete, "the rollout must finish");
        assert_eq!(rollout.final_layout, full.plan.final_layout);
        assert!(rollout.windows.len() >= 2, "must take several windows");
        for (i, w) in rollout.windows.iter().enumerate() {
            assert!(
                w.plan.total_seconds <= window * (1.0 + 1e-9),
                "window {i} overruns: {} > {window}",
                w.plan.total_seconds
            );
            if i + 1 < rollout.windows.len() {
                assert!(matches!(
                    w.plan.decision,
                    MigrationDecision::Partial { .. } | MigrationDecision::Migrate
                ));
                // Continuation: the next window starts where this one ended.
                assert_eq!(
                    rollout.windows[i + 1]
                        .current_estimate
                        .layout_cost_cents_per_hour,
                    drifted
                        .context()
                        .estimate(&w.plan.final_layout)
                        .layout_cost_cents_per_hour
                );
            }
        }
        // Windows together move exactly what the one-shot plan moves.
        let moved: f64 = rollout.windows.iter().map(|w| w.plan.total_bytes).sum();
        assert!((moved - full.plan.total_bytes).abs() < 1e-6);
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let (schema, pool, _, after) = phases();
        let drifted = Advisor::builder(&schema, &pool, &after)
            .sla(0.5)
            .build()
            .unwrap();
        // Wrong object count.
        let short = Layout::uniform(pool.most_expensive(), 1);
        assert!(matches!(
            drifted.replan(&short),
            Err(ProvisionError::InvalidRequest { .. })
        ));
        // Class id outside the pool.
        let alien = Layout::uniform(ClassId(99), schema.object_count());
        assert!(matches!(
            drifted.replan(&alien),
            Err(ProvisionError::InvalidRequest { .. })
        ));
        // NaN budget.
        let current = Layout::uniform(pool.most_expensive(), schema.object_count());
        let bad = MigrationBudget::unbounded().with_max_cents(f64::NAN);
        assert!(matches!(
            drifted.replan_with(&current, "dot", &bad),
            Err(ProvisionError::InvalidRequest { .. })
        ));
        // Unknown solver propagates untouched.
        assert!(matches!(
            drifted.replan_with(&current, "simplex", &MigrationBudget::unbounded()),
            Err(ProvisionError::UnknownSolver { .. })
        ));
    }

    #[test]
    fn replan_recommendation_round_trips_through_serde() {
        let (schema, pool, before, after) = phases();
        let (current, drifted) = flip(&schema, &pool, &before, &after);
        let rec = drifted.replan(&current).unwrap();
        let json = serde_json::to_string(&rec).expect("replan serializes");
        let back: ReplanRecommendation = serde_json::from_str(&json).expect("replan parses");
        assert_eq!(back, rec);
    }

    #[test]
    fn plans_without_a_schedule_field_still_parse() {
        // Plans serialized before the scheduler existed lack `schedule`:
        // they deserialize with an empty one.
        let (schema, pool, before, after) = phases();
        let (current, drifted) = flip(&schema, &pool, &before, &after);
        let rec = drifted.replan(&current).unwrap();
        let mut v = serde::Serialize::to_value(&rec.plan);
        if let serde::Value::Object(entries) = &mut v {
            entries.retain(|(k, _)| k != "schedule");
        }
        let parsed =
            <MigrationPlan as serde::Deserialize>::from_value(&v).expect("legacy plan parses");
        assert_eq!(parsed.schedule, MigrationSchedule::default());
        assert_eq!(parsed.steps, rec.plan.steps);
    }
}

//! Fleet provisioning: batch-advise N tenant databases concurrently.
//!
//! The paper's advisor answers for one database at a time. A production
//! service provisions *fleets* — hundreds of tenant databases.
//! [`provision_fleet`] runs one [`Advisor`] session per tenant over a
//! scoped-thread worker pool and folds the answers into a [`FleetReport`]:
//! per-tenant recommendations (or typed errors) and an aggregate bill
//! across the fleet. [`supervise_fleet`] runs one [`Controller`] per
//! tenant and counts their replan reuse in one shared
//! [`CachedEstimator`].
//!
//! Determinism: recommendations are bit-identical whether the fleet runs
//! serially or on any number of workers —
//! [`measure_toc`](crate::toc::measure_toc)'s seed contract keeps
//! validation runs thread-independent. Only wall-clock fields differ.
//!
//! ```
//! use dot_core::fleet::{self, FleetConfig, TenantRequest};
//! use dot_storage::catalog;
//! use dot_workloads::synth;
//!
//! let schema = synth::bench_schema(2_000_000.0, 120.0);
//! let tenants: Vec<TenantRequest> = (0..4)
//!     .map(|i| TenantRequest {
//!         name: format!("tenant-{i}"),
//!         pool: catalog::box2(),
//!         schema: schema.clone(),
//!         workload: synth::mixed_workload(&schema),
//!         sla: 0.5,
//!         solver: None,      // defaults to "dot"
//!         engine: None,      // defaults from the workload's metric
//!         refinements: None, // defaults to FleetConfig::refinements
//!     })
//!     .collect();
//! let report = fleet::provision_fleet(&tenants, &FleetConfig::default());
//! assert_eq!(report.aggregate.tenants_provisioned, 4);
//! assert_eq!(report.aggregate.tenants_failed, 0);
//! ```

use crate::advisor::{Advisor, ProvisionError, Recommendation};
use crate::controller::{
    validate_trace, ControlEvent, ControlProvenance, Controller, ControllerConfig, ControllerStats,
    TraceStep,
};
use crate::controller::{CacheStats, CachedEstimator};
use crate::replan::{MigrationBudget, MigrationDecision, ReplanRecommendation};
use dot_dbms::Layout;
use dot_dbms::{EngineConfig, Schema};
use dot_storage::StoragePool;
use dot_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One tenant database to provision: the §2.5 inputs, owned (so manifests
/// deserialize straight into requests), plus the solver to run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantRequest {
    /// Tenant label, echoed in the report.
    pub name: String,
    /// The tenant's storage pool.
    pub pool: StoragePool,
    /// The tenant's schema.
    pub schema: Schema,
    /// The tenant's workload.
    pub workload: Workload,
    /// Relative SLA ratio in `(0, 1]`.
    pub sla: f64,
    /// Registry id of the solver to run; `None` means `"dot"`.
    #[serde(default)]
    pub solver: Option<String>,
    /// Engine configuration; `None` picks the default for the workload's
    /// metric (as the single-tenant builder does).
    #[serde(default)]
    pub engine: Option<EngineConfig>,
    /// Validation/refinement rounds for this tenant; `None` uses the
    /// fleet-wide [`FleetConfig::refinements`].
    #[serde(default)]
    pub refinements: Option<usize>,
}

impl TenantRequest {
    /// The solver this tenant runs (default `"dot"`).
    pub fn solver_id(&self) -> &str {
        self.solver.as_deref().unwrap_or("dot")
    }
}

/// Knobs for a fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Worker threads; `0` sizes the pool to the machine's available
    /// parallelism. The pool never exceeds the tenant count.
    pub workers: usize,
    /// Validation/refinement rounds per tenant (as
    /// [`AdvisorBuilder::refinements`](crate::advisor::AdvisorBuilder::refinements));
    /// a tenant's own [`TenantRequest::refinements`] wins over this.
    pub refinements: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 0,
            refinements: 1,
        }
    }
}

/// What happened to one tenant: exactly one of `recommendation` / `error`
/// is set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantOutcome {
    /// The tenant's label.
    pub tenant: String,
    /// The solver that ran.
    pub solver: String,
    /// The recommendation, when provisioning succeeded.
    pub recommendation: Option<Recommendation>,
    /// The typed failure, when it did not.
    pub error: Option<ProvisionError>,
}

/// One class's share of the fleet-wide bill (summed by class name across
/// tenants, in first-appearance order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateLine {
    /// Storage class name.
    pub class: String,
    /// Data the fleet places on the class, in GB.
    pub gb: f64,
    /// The class's share of the fleet bill in cents/hour.
    pub cents_per_hour: f64,
}

/// The fleet-wide bill: what provisioning every recommended tenant costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateBill {
    /// Per-class totals across all provisioned tenants.
    pub classes: Vec<AggregateLine>,
    /// Sum of every provisioned tenant's hourly layout cost, in cents.
    pub total_cents_per_hour: f64,
    /// Tenants that received a recommendation.
    pub tenants_provisioned: usize,
    /// Tenants that failed with a typed error.
    pub tenants_failed: usize,
}

/// Everything a fleet run produced: per-tenant outcomes (in request
/// order), the aggregate bill, and wall-clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// One outcome per tenant, in request order.
    pub tenants: Vec<TenantOutcome>,
    /// The fleet-wide bill over the provisioned tenants.
    pub aggregate: AggregateBill,
    /// Wall-clock time of the whole batch in integer milliseconds.
    pub wall_ms: u64,
}

/// Provision every tenant in `tenants`, concurrently. Per-tenant failures (infeasible SLA, oversized
/// database, unknown solver id, ...) are typed outcomes in the report, not
/// errors of the batch: a fleet run always returns a full report.
pub fn provision_fleet(tenants: &[TenantRequest], config: &FleetConfig) -> FleetReport {
    let (outcomes, wall_ms) = run_pool(tenants, config, |tenant| {
        provision_one(tenant, config.refinements)
    });
    let aggregate = aggregate_bill(&outcomes);
    FleetReport {
        aggregate,
        wall_ms,
        tenants: outcomes,
    }
}

/// The shared batch machinery of the three fleet runs: run `work` over
/// every item on a scoped-thread worker pool sized by `config`. Outcomes
/// come back in item order, with the batch wall clock.
fn run_pool<T, O, F>(items: &[T], config: &FleetConfig, work: F) -> (Vec<O>, u64)
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    let start = Instant::now();
    let slots: Vec<Mutex<Option<O>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = effective_workers(config.workers, items.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("outcome slot") = Some(work(item));
            });
        }
    });
    let outcomes: Vec<O> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("outcome slot")
                .expect("every index was claimed by a worker")
        })
        .collect();
    (outcomes, start.elapsed().as_millis() as u64)
}

fn effective_workers(requested: usize, tenant_count: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let workers = if requested == 0 { hw } else { requested };
    workers.clamp(1, tenant_count.max(1))
}

/// Validate the SLA and open a session — the per-tenant front half shared
/// by both batch paths.
fn tenant_advisor<'a>(
    name: &str,
    schema: &'a Schema,
    pool: &'a StoragePool,
    workload: &'a Workload,
    sla: f64,
    refinements: usize,
    engine: Option<EngineConfig>,
) -> Result<Advisor<'a>, ProvisionError> {
    ProvisionError::check_sla(sla, &format!("tenant {name:?}"))?;
    let mut builder = Advisor::builder(schema, pool, workload)
        .sla(sla)
        .refinements(refinements);
    if let Some(engine) = engine {
        builder = builder.engine(engine);
    }
    builder.build()
}

fn provision_one(tenant: &TenantRequest, refinements: usize) -> TenantOutcome {
    let solver = tenant.solver_id().to_owned();
    let result = tenant_advisor(
        &tenant.name,
        &tenant.schema,
        &tenant.pool,
        &tenant.workload,
        tenant.sla,
        tenant.refinements.unwrap_or(refinements),
        tenant.engine,
    )
    .and_then(|advisor| advisor.recommend(&solver));
    let (recommendation, error) = match result {
        Ok(rec) => (Some(rec), None),
        Err(e) => (None, Some(e)),
    };
    TenantOutcome {
        tenant: tenant.name.clone(),
        solver,
        recommendation,
        error,
    }
}

fn aggregate_bill(outcomes: &[TenantOutcome]) -> AggregateBill {
    let mut classes: Vec<AggregateLine> = Vec::new();
    let mut total = 0.0;
    let mut provisioned = 0usize;
    let mut failed = 0usize;
    for outcome in outcomes {
        let Some(rec) = &outcome.recommendation else {
            failed += 1;
            continue;
        };
        provisioned += 1;
        for line in &rec.bill {
            total += line.cents_per_hour;
            match classes.iter_mut().find(|c| c.class == line.class) {
                Some(agg) => {
                    agg.gb += line.gb;
                    agg.cents_per_hour += line.cents_per_hour;
                }
                None => classes.push(AggregateLine {
                    class: line.class.clone(),
                    gb: line.gb,
                    cents_per_hour: line.cents_per_hour,
                }),
            }
        }
    }
    AggregateBill {
        classes,
        total_cents_per_hour: total,
        tenants_provisioned: provisioned,
        tenants_failed: failed,
    }
}

// ---------------------------------------------------------------------------
// Fleet-wide re-provisioning
// ---------------------------------------------------------------------------

/// One tenant to re-provision: the same inputs as a [`TenantRequest`] —
/// with the *drifted* workload — plus the layout the tenant currently
/// runs on and an optional per-tenant migration budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplanTenantRequest {
    /// Tenant label, echoed in the report.
    pub name: String,
    /// The tenant's storage pool.
    pub pool: StoragePool,
    /// The tenant's schema.
    pub schema: Schema,
    /// The tenant's *drifted* workload.
    pub workload: Workload,
    /// Relative SLA ratio in `(0, 1]` for the drifted phase.
    pub sla: f64,
    /// Registry id of the target solver; `None` means `"dot"`.
    #[serde(default)]
    pub solver: Option<String>,
    /// Engine configuration; `None` picks the drifted workload's default.
    #[serde(default)]
    pub engine: Option<EngineConfig>,
    /// Validation/refinement rounds for this tenant; `None` uses the
    /// fleet-wide [`FleetConfig::refinements`] (as in [`TenantRequest`]).
    #[serde(default)]
    pub refinements: Option<usize>,
    /// The layout the tenant is deployed on today.
    pub current_layout: Layout,
    /// Migration budget; `None` means unbounded.
    #[serde(default)]
    pub budget: Option<MigrationBudget>,
}

impl ReplanTenantRequest {
    /// The target solver this tenant runs (default `"dot"`).
    pub fn solver_id(&self) -> &str {
        self.solver.as_deref().unwrap_or("dot")
    }
}

/// What happened to one re-provisioned tenant: exactly one of `replan` /
/// `error` is set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanOutcome {
    /// The tenant's label.
    pub tenant: String,
    /// The target solver that ran.
    pub solver: String,
    /// The re-provisioning answer, when planning succeeded.
    pub replan: Option<ReplanRecommendation>,
    /// The typed failure, when it did not.
    pub error: Option<ProvisionError>,
}

/// Fleet-wide migration totals over every planned tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationTotals {
    /// Tenants whose plan moves data (full or partial).
    pub tenants_migrating: usize,
    /// Tenants told to stay on their deployed layout (identity plans,
    /// `Unchanged` included).
    pub tenants_staying: usize,
    /// Tenants that failed with a typed error.
    pub tenants_failed: usize,
    /// Total data movement across the fleet, bytes.
    pub total_bytes: f64,
    /// Total bulk-copy wall clock across the fleet, seconds.
    pub total_seconds: f64,
    /// Total migration spend across the fleet, cents.
    pub total_cents: f64,
    /// Summed hourly TOC savings of every non-identity plan.
    pub total_savings_cents_per_hour: f64,
}

/// Everything a fleet re-provisioning run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanFleetReport {
    /// One outcome per tenant, in request order.
    pub tenants: Vec<ReplanOutcome>,
    /// Fleet-wide migration totals.
    pub totals: MigrationTotals,
    /// Wall-clock time of the whole batch in integer milliseconds.
    pub wall_ms: u64,
}

/// Re-provision every tenant concurrently — the drift-time sibling of
/// [`provision_fleet`]. Per-tenant failures are typed outcomes, never
/// errors of the batch.
pub fn replan_fleet(tenants: &[ReplanTenantRequest], config: &FleetConfig) -> ReplanFleetReport {
    let (outcomes, wall_ms) = run_pool(tenants, config, |tenant| {
        replan_one(tenant, config.refinements)
    });
    let totals = migration_totals(&outcomes);
    ReplanFleetReport {
        totals,
        wall_ms,
        tenants: outcomes,
    }
}

fn replan_one(tenant: &ReplanTenantRequest, refinements: usize) -> ReplanOutcome {
    let solver = tenant.solver_id().to_owned();
    let budget = tenant.budget.unwrap_or_default();
    let result = tenant_advisor(
        &tenant.name,
        &tenant.schema,
        &tenant.pool,
        &tenant.workload,
        tenant.sla,
        tenant.refinements.unwrap_or(refinements),
        tenant.engine,
    )
    .and_then(|advisor| advisor.replan_with(&tenant.current_layout, &solver, &budget));
    let (replan, error) = match result {
        Ok(rec) => (Some(rec), None),
        Err(e) => (None, Some(e)),
    };
    ReplanOutcome {
        tenant: tenant.name.clone(),
        solver,
        replan,
        error,
    }
}

fn migration_totals(outcomes: &[ReplanOutcome]) -> MigrationTotals {
    let mut totals = MigrationTotals {
        tenants_migrating: 0,
        tenants_staying: 0,
        tenants_failed: 0,
        total_bytes: 0.0,
        total_seconds: 0.0,
        total_cents: 0.0,
        total_savings_cents_per_hour: 0.0,
    };
    for outcome in outcomes {
        let Some(rec) = &outcome.replan else {
            totals.tenants_failed += 1;
            continue;
        };
        match rec.plan.decision {
            MigrationDecision::Migrate | MigrationDecision::Partial { .. } => {
                totals.tenants_migrating += 1;
                totals.total_bytes += rec.plan.total_bytes;
                totals.total_seconds += rec.plan.total_seconds;
                totals.total_cents += rec.plan.total_cents;
                totals.total_savings_cents_per_hour += rec.plan.savings_cents_per_hour;
            }
            MigrationDecision::Unchanged | MigrationDecision::Stay => {
                totals.tenants_staying += 1;
            }
        }
    }
    totals
}

// ---------------------------------------------------------------------------
// Fleet-wide supervision: one online controller per tenant
// ---------------------------------------------------------------------------

/// One tenant to supervise: the provisioning inputs with the *baseline*
/// workload the deployed layout was provisioned for, the layout itself,
/// and a scripted observation trace (each step drifts the baseline; see
/// [`TraceStep`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuperviseTenantRequest {
    /// Tenant label, echoed in the report.
    pub name: String,
    /// The tenant's storage pool.
    pub pool: StoragePool,
    /// The tenant's schema.
    pub schema: Schema,
    /// The baseline workload the deployed layout was provisioned for.
    pub workload: Workload,
    /// Relative SLA ratio in `(0, 1]`.
    pub sla: f64,
    /// Target solver for triggered replans; `None` uses the controller
    /// config's solver.
    #[serde(default)]
    pub solver: Option<String>,
    /// Engine configuration forced on every observation; `None` picks each
    /// observation's metric default.
    #[serde(default)]
    pub engine: Option<EngineConfig>,
    /// Validation/refinement rounds for every triggered replan; `None`
    /// uses the fleet-wide [`FleetConfig::refinements`] (as in
    /// [`TenantRequest`]).
    #[serde(default)]
    pub refinements: Option<usize>,
    /// The layout the tenant is deployed on today.
    pub current_layout: Layout,
    /// The scripted observation trace, relative to the baseline workload.
    pub trace: Vec<TraceStep>,
    /// Per-tenant controller config; `None` uses the fleet-wide one.
    #[serde(default)]
    pub controller: Option<ControllerConfig>,
}

/// What supervising one tenant produced: the full control-event log plus
/// summary counters, or a typed error (with the events up to the failing
/// tick preserved).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuperviseOutcome {
    /// The tenant's label.
    pub tenant: String,
    /// The solver triggered replans ran.
    pub solver: String,
    /// The controller's append-only event log.
    pub events: Vec<ControlEvent>,
    /// The layout deployed after the trace (the input layout when nothing
    /// was applied); `None` only when the controller could not be built.
    pub final_layout: Option<Layout>,
    /// Ticks ingested.
    pub ticks: u64,
    /// Replans triggered.
    pub triggers: usize,
    /// Plans applied (deployed layout actually moved).
    pub applications: usize,
    /// `ControlEvent`-compatible provenance: the tenant's supervision wall
    /// clock and its last trigger reason
    /// ([`Quiescent`](crate::controller::TriggerReason::Quiescent) over a
    /// quiet trace) — the same schema `dot-cli replan --json` stamps with
    /// [`Manual`](crate::controller::TriggerReason::Manual).
    pub provenance: ControlProvenance,
    /// The typed failure, when supervision aborted.
    pub error: Option<ProvisionError>,
}

/// Fleet-wide supervision totals.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SuperviseTotals {
    /// Tenants whose whole trace ran.
    pub tenants_supervised: usize,
    /// Tenants that aborted with a typed error.
    pub tenants_failed: usize,
    /// Ticks ingested across the fleet.
    pub ticks: u64,
    /// Replans triggered across the fleet.
    pub triggers: usize,
    /// Plans applied across the fleet.
    pub applications: usize,
    /// Bytes moved by every applied plan.
    pub total_bytes_moved: f64,
}

/// Everything a fleet supervision run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuperviseFleetReport {
    /// One outcome per tenant, in request order.
    pub tenants: Vec<SuperviseOutcome>,
    /// Fleet-wide totals.
    pub totals: SuperviseTotals,
    /// Replan reuse across the fleet's controllers: triggered ticks
    /// answered from a controller's memo (`hits`) and replans solved
    /// (`misses`).
    pub cache: CacheStats,
    /// Wall-clock time of the whole batch in integer milliseconds.
    pub wall_ms: u64,
}

/// Supervise every tenant concurrently — one [`Controller`] per tenant
/// replaying its trace, all counting replan reuse in one
/// [`CachedEstimator`] — the closed-loop sibling of [`provision_fleet`] /
/// [`replan_fleet`]. Event logs are deterministic at any worker count;
/// only wall-clock fields differ between runs. Per-tenant failures are
/// typed outcomes, never errors of the batch.
pub fn supervise_fleet(
    tenants: &[SuperviseTenantRequest],
    config: &FleetConfig,
    controller: &ControllerConfig,
) -> SuperviseFleetReport {
    let reuse = Arc::new(CachedEstimator::new());
    let (runs, wall_ms) = run_pool(tenants, config, |tenant| {
        let mut events = Vec::new();
        let (mut outcome, stats) =
            supervise_tenant(tenant, controller, config.refinements, &reuse, |event| {
                events.push(event);
                Ok(())
            });
        outcome.events = events;
        (outcome, stats.bytes_moved)
    });
    let mut totals = SuperviseTotals::default();
    for (outcome, bytes_moved) in &runs {
        if outcome.error.is_some() {
            totals.tenants_failed += 1;
        } else {
            totals.tenants_supervised += 1;
        }
        totals.ticks += outcome.ticks;
        totals.triggers += outcome.triggers;
        totals.applications += outcome.applications;
        totals.total_bytes_moved += bytes_moved;
    }
    SuperviseFleetReport {
        totals,
        cache: reuse.stats(),
        wall_ms,
        tenants: runs.into_iter().map(|(outcome, _)| outcome).collect(),
    }
}

/// Supervise one tenant: validate its trace, open its [`Controller`]
/// (counting replan reuse in `reuse`), tick the whole trace, and hand
/// each event to `sink` as its tick completes — events of a failed tick
/// included. The outcome's counters come from the controller's
/// [`stats`](Controller::stats), which are also returned; its `events`
/// stay empty, since the sink received them. `controller` and
/// `refinements` apply where the tenant names none of its own.
///
/// A tick's typed failure, or the sink's, ends the session as the
/// outcome's `error`; `final_layout` is `None` only when the trace or the
/// controller was rejected before any tick. Both [`supervise_fleet`] and
/// `dot-cli supervise --stream` run their tenants through here.
pub fn supervise_tenant(
    tenant: &SuperviseTenantRequest,
    controller: &ControllerConfig,
    refinements: usize,
    reuse: &Arc<CachedEstimator>,
    mut sink: impl FnMut(ControlEvent) -> Result<(), ProvisionError>,
) -> (SuperviseOutcome, ControllerStats) {
    let start = Instant::now();
    let mut config = tenant
        .controller
        .clone()
        .unwrap_or_else(|| controller.clone());
    if let Some(solver) = &tenant.solver {
        config.solver = solver.clone();
    }
    let solver = config.solver.clone();
    let opened = validate_trace(&tenant.trace).and_then(|()| {
        let controller = Controller::new(
            &tenant.schema,
            &tenant.pool,
            &tenant.workload,
            tenant.current_layout.clone(),
            tenant.sla,
            config,
        )?
        .with_toc_cache(Arc::clone(reuse))
        .with_refinements(tenant.refinements.unwrap_or(refinements));
        Ok(match tenant.engine {
            Some(engine) => controller.with_engine(engine),
            None => controller,
        })
    });
    // The controller's log is drained every tick, so it stays bounded
    // however long the trace runs.
    let (controller, error) = match opened {
        Ok(mut controller) => {
            let error = controller
                .run_steps(&tenant.trace, |controller, outcome| {
                    controller
                        .drain_events()
                        .into_iter()
                        .try_for_each(&mut sink)?;
                    outcome.map(drop)
                })
                .err();
            (Some(controller), error)
        }
        Err(e) => (None, Some(e)),
    };
    let stats = controller
        .as_ref()
        .map(|c| c.stats().clone())
        .unwrap_or_default();
    let outcome = SuperviseOutcome {
        tenant: tenant.name.clone(),
        solver,
        events: Vec::new(),
        final_layout: controller.as_ref().map(|c| c.deployed().clone()),
        ticks: controller.as_ref().map_or(0, Controller::ticks),
        triggers: stats.triggers,
        applications: stats.applications,
        provenance: stats.provenance(start.elapsed().as_millis() as u64),
        error,
    };
    (outcome, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::TriggerReason;
    use dot_storage::catalog;
    use dot_workloads::synth;

    fn tenant(name: &str, rows: f64, sla: f64, solver: Option<&str>) -> TenantRequest {
        let schema = synth::bench_schema(rows, 120.0);
        let workload = synth::mixed_workload(&schema);
        TenantRequest {
            name: name.to_owned(),
            pool: catalog::box2(),
            schema,
            workload,
            sla,
            solver: solver.map(str::to_owned),
            engine: None,
            refinements: None,
        }
    }

    /// A fleet of 3 shapes x 2 tenants, plus one broken tenant.
    fn mixed_fleet() -> Vec<TenantRequest> {
        let mut tenants = Vec::new();
        for (i, rows) in [1_000_000.0, 3_000_000.0, 5_000_000.0].iter().enumerate() {
            tenants.push(tenant(&format!("shape{i}-a"), *rows, 0.5, None));
            tenants.push(tenant(&format!("shape{i}-b"), *rows, 0.25, None));
        }
        tenants.push(tenant("broken", 1_000_000.0, 7.0, None));
        tenants
    }

    fn normalized(mut report: FleetReport) -> FleetReport {
        report.wall_ms = 0;
        for outcome in &mut report.tenants {
            if let Some(rec) = &mut outcome.recommendation {
                rec.provenance.elapsed_ms = 0;
            }
        }
        report
    }

    #[test]
    fn parallel_fleet_matches_serial_bit_for_bit() {
        let tenants = mixed_fleet();
        let serial = provision_fleet(
            &tenants,
            &FleetConfig {
                workers: 1,
                ..FleetConfig::default()
            },
        );
        let parallel = provision_fleet(
            &tenants,
            &FleetConfig {
                workers: 8,
                ..FleetConfig::default()
            },
        );
        assert_eq!(normalized(serial), normalized(parallel));
    }

    #[test]
    fn aggregate_bill_sums_tenant_bills() {
        let tenants = mixed_fleet();
        let report = provision_fleet(&tenants, &FleetConfig::default());
        let expected: f64 = report
            .tenants
            .iter()
            .filter_map(|o| o.recommendation.as_ref())
            .map(|r| r.estimate.layout_cost_cents_per_hour)
            .sum();
        assert!((report.aggregate.total_cents_per_hour - expected).abs() < 1e-9);
        let by_class: f64 = report
            .aggregate
            .classes
            .iter()
            .map(|c| c.cents_per_hour)
            .sum();
        assert!((by_class - expected).abs() < 1e-9);
    }

    #[test]
    fn per_tenant_failures_are_typed_outcomes() {
        let tenants = mixed_fleet();
        let report = provision_fleet(&tenants, &FleetConfig::default());
        let broken = report
            .tenants
            .iter()
            .find(|o| o.tenant == "broken")
            .expect("broken tenant reported");
        assert!(broken.recommendation.is_none());
        assert!(matches!(
            broken.error,
            Some(ProvisionError::InvalidRequest { .. })
        ));
        // An unknown solver id is a per-tenant error too, not a panic.
        let odd = vec![tenant("odd", 1_000_000.0, 0.5, Some("simplex"))];
        let report = provision_fleet(&odd, &FleetConfig::default());
        assert!(matches!(
            report.tenants[0].error,
            Some(ProvisionError::UnknownSolver { .. })
        ));
    }

    #[test]
    fn per_tenant_engine_and_refinements_are_honored() {
        let base = tenant("t", 1_000_000.0, 0.5, None);
        let mut tuned = base.clone();
        tuned.engine = Some(EngineConfig::oltp());
        tuned.refinements = Some(0);
        let default_run = provision_fleet(&[base], &FleetConfig::default());
        let tuned_run = provision_fleet(&[tuned], &FleetConfig::default());
        let d = default_run.tenants[0].recommendation.as_ref().unwrap();
        let t = tuned_run.tenants[0].recommendation.as_ref().unwrap();
        // A DSS workload under the OLTP engine runs at OLTP concurrency:
        // the estimate must move, proving the override reached the builder.
        assert_ne!(
            d.estimate.stream_time_ms, t.estimate.stream_time_ms,
            "engine override did not reach the advisor"
        );
        assert_eq!(t.provenance.refinement_rounds, 0);
        assert!(t.validation.is_some(), "refinements: 0 still validates");
    }

    #[test]
    fn report_round_trips_through_serde() {
        let tenants = mixed_fleet();
        let report = provision_fleet(&tenants, &FleetConfig::default());
        let json = serde_json::to_string(&report).expect("report serializes");
        let back: FleetReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(back, report);
    }

    /// A replan fleet over one drifting shape: tenants share the schema
    /// and drifted workload, each deployed on the
    /// layout the *analytical* phase recommended, plus one broken tenant.
    fn replan_fleet_requests() -> Vec<ReplanTenantRequest> {
        use dot_workloads::{drift, tpcc};
        let schema = tpcc::schema(2.0);
        let pool = catalog::box2();
        let analytical = drift::analytical_phase(&schema);
        let advisor = Advisor::builder(&schema, &pool, &analytical)
            .sla(0.5)
            .build()
            .unwrap();
        let current = advisor.recommend("dot").unwrap().layout;
        let drifted = tpcc::workload(&schema);
        let mut tenants: Vec<ReplanTenantRequest> = (0..3)
            .map(|i| ReplanTenantRequest {
                name: format!("tenant-{i}"),
                pool: pool.clone(),
                schema: schema.clone(),
                workload: drifted.clone(),
                sla: 0.5,
                solver: None,
                engine: None,
                refinements: None,
                current_layout: current.clone(),
                budget: None,
            })
            .collect();
        tenants[2].budget = Some(MigrationBudget::zero());
        tenants.push(ReplanTenantRequest {
            name: "broken".into(),
            pool,
            schema,
            workload: drifted,
            sla: 9.0,
            solver: None,
            engine: None,
            refinements: None,
            current_layout: current,
            budget: None,
        });
        tenants
    }

    #[test]
    fn replan_fleet_plans_migrations_and_totals_add_up() {
        let tenants = replan_fleet_requests();
        let report = replan_fleet(&tenants, &FleetConfig::default());
        assert_eq!(report.tenants.len(), 4);
        assert_eq!(report.totals.tenants_migrating, 2);
        assert_eq!(report.totals.tenants_staying, 1, "zero budget stays");
        assert_eq!(report.totals.tenants_failed, 1);
        let by_hand: f64 = report
            .tenants
            .iter()
            .filter_map(|o| o.replan.as_ref())
            .map(|r| r.plan.total_cents)
            .sum();
        assert!((report.totals.total_cents - by_hand).abs() < 1e-9);
        assert!(report.totals.total_bytes > 0.0);
        assert!(report.totals.total_savings_cents_per_hour > 0.0);
        // The batch is deterministic across worker counts.
        let serial = replan_fleet(
            &tenants,
            &FleetConfig {
                workers: 1,
                ..FleetConfig::default()
            },
        );
        let strip = |mut r: ReplanFleetReport| {
            r.wall_ms = 0;
            for o in &mut r.tenants {
                if let Some(rec) = &mut o.replan {
                    rec.target.provenance.elapsed_ms = 0;
                }
            }
            r
        };
        assert_eq!(strip(serial), strip(report));
    }

    #[test]
    fn replan_fleet_report_round_trips_through_serde() {
        let tenants = replan_fleet_requests();
        let report = replan_fleet(&tenants, &FleetConfig::default());
        let json = serde_json::to_string(&report).expect("report serializes");
        let back: ReplanFleetReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(back, report);
    }

    /// Three tenants over one TPC-C shape: one sees a phase flip, one a
    /// quiet trace, one a broken trace step.
    fn supervise_requests() -> Vec<SuperviseTenantRequest> {
        use dot_workloads::tpcc;
        let schema = tpcc::schema(2.0);
        let pool = catalog::box2();
        let baseline = tpcc::workload(&schema);
        let advisor = Advisor::builder(&schema, &pool, &baseline)
            .sla(0.5)
            .build()
            .unwrap();
        let current = advisor.recommend("dot").unwrap().layout;
        let step = |phase: Option<&str>, shift: Option<f64>, repeat: usize| TraceStep {
            shift,
            scale: None,
            phase: phase.map(str::to_owned),
            repeat: Some(repeat),
        };
        let make = |name: &str, trace: Vec<TraceStep>| SuperviseTenantRequest {
            name: name.to_owned(),
            pool: pool.clone(),
            schema: schema.clone(),
            workload: baseline.clone(),
            sla: 0.5,
            solver: None,
            engine: None,
            refinements: None,
            current_layout: current.clone(),
            trace,
            controller: None,
        };
        vec![
            make(
                "flipper",
                vec![step(None, Some(0.05), 2), step(Some("analytical"), None, 2)],
            ),
            make("quiet", vec![step(None, Some(0.02), 3)]),
            make("broken", vec![step(Some("lunar"), None, 1)]),
        ]
    }

    fn strip_supervise(mut report: SuperviseFleetReport) -> SuperviseFleetReport {
        report.wall_ms = 0;
        for outcome in &mut report.tenants {
            outcome.provenance.elapsed_ms = 0;
        }
        report
    }

    #[test]
    fn supervise_fleet_triggers_on_drift_and_stays_deterministic() {
        let tenants = supervise_requests();
        let controller = ControllerConfig::default();
        let report = supervise_fleet(&tenants, &FleetConfig::default(), &controller);
        assert_eq!(report.tenants.len(), 3);
        assert_eq!(report.totals.tenants_supervised, 2);
        assert_eq!(report.totals.tenants_failed, 1);

        let flipper = &report.tenants[0];
        assert!(flipper.triggers >= 1, "the phase flip must trigger");
        assert!(flipper.applications >= 1, "the flip plan must apply");
        assert_ne!(
            flipper.final_layout.as_ref().unwrap(),
            &tenants[0].current_layout
        );
        assert!(matches!(
            flipper.provenance.trigger,
            TriggerReason::Drift { .. } | TriggerReason::DriftAndSla { .. }
        ));

        let quiet = &report.tenants[1];
        assert_eq!(quiet.triggers, 0, "noise must not trigger");
        assert_eq!(quiet.ticks, 3);
        assert_eq!(quiet.provenance.trigger, TriggerReason::Quiescent);
        assert_eq!(
            quiet.final_layout.as_ref().unwrap(),
            &tenants[1].current_layout
        );

        let broken = &report.tenants[2];
        assert!(matches!(
            broken.error,
            Some(ProvisionError::InvalidRequest { .. })
        ));
        assert!(broken.events.is_empty());

        assert!(report.totals.total_bytes_moved > 0.0);

        // Bit-identical event logs and reuse counts across worker counts.
        let serial = supervise_fleet(
            &tenants,
            &FleetConfig {
                workers: 1,
                ..FleetConfig::default()
            },
            &controller,
        );
        assert_eq!(strip_supervise(serial), strip_supervise(report));
    }

    #[test]
    fn supervise_fleet_report_round_trips_through_serde() {
        let tenants = supervise_requests();
        let report = supervise_fleet(
            &tenants,
            &FleetConfig::default(),
            &ControllerConfig::default(),
        );
        let json = serde_json::to_string(&report).expect("report serializes");
        let back: SuperviseFleetReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(back, report);
    }

    #[test]
    fn supervise_fleet_replays_correlated_generated_traces() {
        // Three tenants riding one generated diurnal wave, each lagged two
        // ticks behind the last (crate::traces::correlated_fleet): the
        // generators must plug straight into the fleet supervisor.
        use dot_workloads::tpcc;
        let base = crate::traces::diurnal(-0.5, 4, 2).expect("valid diurnal spec");
        let traces = crate::traces::correlated_fleet(3, 2, &base).expect("valid fleet spec");
        let base_ticks: usize = base.iter().map(|s| s.repeat.unwrap_or(1)).sum();

        let schema = tpcc::schema(2.0);
        let pool = catalog::box2();
        let baseline = tpcc::workload(&schema);
        let current = Advisor::builder(&schema, &pool, &baseline)
            .sla(0.5)
            .build()
            .unwrap()
            .recommend("dot")
            .unwrap()
            .layout;
        let tenants: Vec<SuperviseTenantRequest> = traces
            .into_iter()
            .enumerate()
            .map(|(t, trace)| SuperviseTenantRequest {
                name: format!("tenant-{t}"),
                pool: pool.clone(),
                schema: schema.clone(),
                workload: baseline.clone(),
                sla: 0.5,
                solver: None,
                engine: None,
                refinements: None,
                current_layout: current.clone(),
                trace,
                controller: None,
            })
            .collect();

        let report = supervise_fleet(
            &tenants,
            &FleetConfig::default(),
            &ControllerConfig::default(),
        );
        assert_eq!(report.totals.tenants_supervised, 3);
        assert_eq!(report.totals.tenants_failed, 0);
        for (t, outcome) in report.tenants.iter().enumerate() {
            // Tenant t holds at baseline for 2t ticks before the shared wave.
            assert_eq!(outcome.ticks as usize, base_ticks + 2 * t);
            for event in &outcome.events {
                if let ControlEvent::Triggered { tick, .. } = event {
                    assert!(
                        *tick >= 2 * t as u64,
                        "tenant {t} triggered during its baseline hold at tick {tick}"
                    );
                }
            }
        }
        // The wave's −0.5 read/write swing at peak is a real drift: the
        // undelayed tenant must trigger at least once.
        assert!(
            report.tenants[0].triggers >= 1,
            "the diurnal peak must trigger"
        );
    }
}

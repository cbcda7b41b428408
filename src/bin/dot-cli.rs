//! `dot-cli` — provision storage from the command line, through the
//! `dot_core::advisor` facade.
//!
//! ```text
//! dot-cli catalog                      list built-in pools and Table 1 profiles
//! dot-cli solvers                      list every registered solver id
//! dot-cli provision <problem.json>     run a solver on a problem file
//!         [--solver <id>]              pick the optimizer (default "dot")
//!         [--json]                     emit the serialized Recommendation
//! dot-cli fleet     <manifest.json>    batch-provision N tenant databases
//!         [--solver <id>]              default solver for tenants naming none
//!         [--json]                     emit the serialized FleetReport
//! dot-cli replan    <problem.json>     plan a migration for a drifted workload
//!         --current <layout.json>      the deployed layout (or a saved
//!                                      `provision --json` recommendation)
//!         [--solver <id>]              target solver (default "dot")
//!         [--budget-bytes <n>]         data-movement ceiling in bytes
//!         [--budget-seconds <n>]       scheduled wall-clock ceiling in seconds
//!                                      (the wave makespan, not the copy sum)
//!         [--budget-cents <n>]         migration-spend ceiling in cents
//!         [--sla-during-migration <r>] relative SLA the *in-flight* estimate
//!                                      must hold while transfer waves run
//!         [--window-seconds <n>]       split the rollout into recurring
//!                                      maintenance windows of this length,
//!                                      replanning between windows
//!         [--json]                     emit the ReplanEnvelope (provenance + plan)
//! dot-cli supervise <problem.json>     run the online controller over a trace
//!         --trace <trace.json>         scripted observations (TraceStep array)
//!         --trace-gen <spec>           generate the trace instead, e.g.
//!                                      "diurnal:amplitude=-0.4,period=8,days=3"
//!                                      (see `dot_core::traces::generate`)
//!         [--current <layout.json>]    deployed layout (default: provision the
//!                                      problem's baseline with the solver)
//!         [--solver <id>]              replan target solver (default "dot")
//!         [--drift-threshold <x>]      trigger distance in [0, 1] (default 0.15)
//!         [--cooldown <n>]             min ticks between triggers (default 3)
//!         [--window-ticks <n>]         maintenance window: every n ticks,
//!                                      continue a pending partial rollout
//!                                      even with drift and SLA quiet
//!         [--budget-*]                 migration budget, as replan
//!         [--json]                     emit the serialized SuperviseFleetReport
//!         [--stream]                   emit JSON-lines ControlEvent frames per
//!                                      tick instead of one batched report
//! dot-cli serve     [flags]            run the provisioning daemon (see
//!                                      `dot-serve --help`; same entry point)
//! dot-cli explain   <problem.json>     show premium-layout plans and I/O
//! ```
//!
//! `replan` reads the *drifted* problem (same format as `provision`) plus
//! the layout the database is deployed on today, and answers with an
//! ordered migration plan: per-move data movement, transfer time from the
//! device models, double-residency migration cost, and the break-even
//! horizon — or a `stay`/`unchanged` verdict when migrating is not worth
//! the movement. Unknown keys in problem files, fleet manifests, and trace
//! files are rejected as invalid requests rather than silently ignored.
//!
//! `supervise --stream` swaps the batched report for a live JSON-lines
//! stream of the `dot-serve` wire protocol's frames: one `Event` frame per
//! control event as each tick completes, a final `Detached` frame carrying
//! the tenant summary (or an `Error` frame with the typed failure), so a
//! supervised session scripts identically whether it ran offline or
//! against the daemon.
//!
//! `supervise` closes the loop: the problem file describes the *baseline*
//! phase, and the trace file scripts a sequence of observed profiles as
//! drifts of that baseline — a JSON array of steps like
//! `[{"shift": 0.3}, {"phase": "analytical", "repeat": 2}, {"scale": 2.0}]`
//! — which the online controller (`dot_core::controller`) replays,
//! triggering `replan` whenever the drift distance or SLA pressure crosses
//! its threshold (with hysteresis and a cool-down, so it never flaps), and
//! logging typed `ControlEvent`s. Both `--json` outputs stamp the shared
//! `ControlProvenance` schema: `replan` with the `Manual` trigger stub,
//! `supervise` with each tenant's last trigger reason.
//!
//! A problem file names a storage pool (built-in or inline JSON), a database
//! (preset like `"tpch:20:original"`, `"tpcc:300"`, `"ycsb:10000000:A"`, or
//! inline schema+workload JSON), a relative SLA, and an engine preset:
//!
//! ```json
//! { "pool": "box2", "database": "tpch:4:original", "sla": 0.5, "engine": "dss" }
//! ```
//!
//! A fleet manifest is a worker count plus one such entry per tenant —
//! the same fields as a problem file (`engine` and `refinements`
//! included), plus optional `name` and `solver`:
//!
//! ```json
//! { "workers": 4, "tenants": [
//!     { "name": "acme", "pool": "box2", "database": "tpch-subset:1", "sla": 0.5 },
//!     { "pool": "box2", "database": "tpcc:2", "sla": 0.25, "solver": "es-additive" }
//! ] }
//! ```
//!
//! Tenants are provisioned concurrently (`dot_core::fleet`); the report
//! carries per-tenant recommendations or typed errors and the fleet-wide
//! bill. A manifest's `cache_capacity` key is accepted and ignored (there
//! is no shared estimate cache to size any more). Per-tenant failures do
//! not fail the batch — only a malformed manifest does.
//!
//! Failures exit with a distinct code per [`ProvisionError`] variant (see
//! [`exit_code`]), so scripts can tell an unknown pool from an infeasible
//! SLA without parsing stderr; `--json` renders the error itself as JSON.

use dot_core::advisor::{presets, Advisor, ProvisionError, Recommendation};
use dot_core::controller::{
    ControlEvent, ControlProvenance, ControllerConfig, DeferReason, ReplanEnvelope, TraceStep,
    TriggerReason,
};
use dot_core::fleet::{self, FleetConfig, FleetReport, SuperviseTenantRequest, TenantRequest};
use dot_core::replan::{
    MigrationBudget, MigrationDecision, ReplanOptions, ReplanRecommendation, WindowedRollout,
};
use dot_dbms::{explain, planner, EngineConfig, Layout, Schema};
use dot_storage::StoragePool;
use dot_workloads::Workload;
use serde::Deserialize;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Deserialize)]
struct ProblemFile {
    pool: PoolSpec,
    database: DbSpec,
    sla: f64,
    #[serde(default)]
    engine: Option<String>,
    #[serde(default)]
    refinements: Option<usize>,
}

/// The keys a problem file / fleet tenant entry / fleet manifest accepts.
/// The vendored serde derive ignores unknown keys, so the loaders check
/// them explicitly: a typo'd or unsupported key is an invalid request, not
/// a silently-dropped setting.
const PROBLEM_KEYS: [&str; 5] = ["pool", "database", "sla", "engine", "refinements"];
const TENANT_KEYS: [&str; 7] = [
    "name",
    "pool",
    "database",
    "sla",
    "solver",
    "engine",
    "refinements",
];
// `cache_capacity` is accepted for older manifests and ignored.
const MANIFEST_KEYS: [&str; 3] = ["workers", "cache_capacity", "tenants"];

/// Reject unknown keys at one level of a parsed JSON object (nested
/// structures — inline pools, schemas — validate through their own types).
fn check_keys(value: &serde::Value, allowed: &[&str], context: &str) -> Result<(), ProvisionError> {
    let Some(entries) = value.as_object() else {
        return Ok(()); // a shape error surfaces from the typed parse
    };
    for (key, _) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err(ProvisionError::InvalidRequest {
                reason: format!(
                    "{context}: unknown key {key:?} (known: {})",
                    allowed.join(", ")
                ),
            });
        }
    }
    Ok(())
}

#[derive(Deserialize)]
#[serde(untagged)]
enum PoolSpec {
    Name(String),
    Custom(StoragePool),
}

#[derive(Deserialize)]
#[serde(untagged)]
enum DbSpec {
    Preset(String),
    Custom { schema: Schema, workload: Workload },
}

/// Everything a problem file resolves to.
struct Request {
    pool: StoragePool,
    schema: Schema,
    workload: Workload,
    sla: f64,
    engine: EngineConfig,
    /// Whether the file named an engine explicitly. `supervise` only forces
    /// `engine` onto the controller then — otherwise each observation picks
    /// its own metric default (a phase flip changes the metric).
    engine_explicit: bool,
    refinements: usize,
}

fn load(path: &str) -> Result<Request, ProvisionError> {
    let text = std::fs::read_to_string(path).map_err(|e| ProvisionError::InvalidRequest {
        reason: format!("read {path}: {e}"),
    })?;
    let value: serde::Value =
        serde_json::from_str(&text).map_err(|e| ProvisionError::InvalidRequest {
            reason: format!("parse {path}: {e}"),
        })?;
    check_keys(&value, &PROBLEM_KEYS, path)?;
    let file = ProblemFile::from_value(&value).map_err(|e| ProvisionError::InvalidRequest {
        reason: format!("parse {path}: {e}"),
    })?;
    ProvisionError::check_sla(file.sla, "")?;
    let pool = match file.pool {
        PoolSpec::Custom(pool) => {
            ProvisionError::check_pool(&pool, "")?;
            pool
        }
        PoolSpec::Name(name) => presets::pool(&name)?,
    };
    let (schema, workload) = match file.database {
        DbSpec::Custom { schema, workload } => (schema, workload),
        DbSpec::Preset(preset) => presets::database(&preset)?,
    };
    let engine_explicit = file.engine.is_some();
    let engine = presets::engine(file.engine.as_deref(), &workload)?;
    Ok(Request {
        pool,
        schema,
        workload,
        sla: file.sla,
        engine,
        engine_explicit,
        refinements: file.refinements.unwrap_or(1),
    })
}

#[derive(Deserialize)]
struct FleetManifest {
    #[serde(default)]
    workers: Option<usize>,
    tenants: Vec<TenantEntry>,
}

#[derive(Deserialize)]
struct TenantEntry {
    #[serde(default)]
    name: Option<String>,
    pool: PoolSpec,
    database: DbSpec,
    sla: f64,
    #[serde(default)]
    solver: Option<String>,
    #[serde(default)]
    engine: Option<String>,
    #[serde(default)]
    refinements: Option<usize>,
}

fn load_fleet(path: &str) -> Result<(Vec<TenantRequest>, FleetConfig), ProvisionError> {
    let text = std::fs::read_to_string(path).map_err(|e| ProvisionError::InvalidRequest {
        reason: format!("read {path}: {e}"),
    })?;
    let value: serde::Value =
        serde_json::from_str(&text).map_err(|e| ProvisionError::InvalidRequest {
            reason: format!("parse {path}: {e}"),
        })?;
    check_keys(&value, &MANIFEST_KEYS, path)?;
    if let Some(entries) = value.as_object() {
        if let Some((_, serde::Value::Array(tenants))) =
            entries.iter().find(|(k, _)| k == "tenants")
        {
            for (i, tenant) in tenants.iter().enumerate() {
                check_keys(tenant, &TENANT_KEYS, &format!("{path}: tenant {i}"))?;
            }
        }
    }
    let manifest =
        FleetManifest::from_value(&value).map_err(|e| ProvisionError::InvalidRequest {
            reason: format!("parse {path}: {e}"),
        })?;
    if manifest.tenants.is_empty() {
        return Err(ProvisionError::InvalidRequest {
            reason: format!("{path}: a fleet manifest needs at least one tenant"),
        });
    }
    let mut tenants = Vec::with_capacity(manifest.tenants.len());
    for (i, entry) in manifest.tenants.into_iter().enumerate() {
        let name = entry.name.unwrap_or_else(|| format!("tenant-{i}"));
        ProvisionError::check_sla(entry.sla, &format!("tenant {name:?}"))?;
        let pool = match entry.pool {
            PoolSpec::Custom(pool) => {
                ProvisionError::check_pool(&pool, &format!("tenant {name:?}"))?;
                pool
            }
            PoolSpec::Name(name) => presets::pool(&name)?,
        };
        let (schema, workload) = match entry.database {
            DbSpec::Custom { schema, workload } => (schema, workload),
            DbSpec::Preset(preset) => presets::database(&preset)?,
        };
        // A named engine preset resolves here; absent, the library picks
        // the workload-metric default (same as single-tenant problems).
        let engine = match entry.engine.as_deref() {
            Some(name) => Some(presets::engine(Some(name), &workload)?),
            None => None,
        };
        tenants.push(TenantRequest {
            name,
            pool,
            schema,
            workload,
            sla: entry.sla,
            solver: entry.solver,
            engine,
            refinements: entry.refinements,
        });
    }
    let defaults = FleetConfig::default();
    Ok((
        tenants,
        FleetConfig {
            workers: manifest.workers.unwrap_or(defaults.workers),
            ..defaults
        },
    ))
}

fn cmd_fleet(path: &str, default_solver: Option<&str>, json: bool) -> Result<(), ProvisionError> {
    let (mut tenants, config) = load_fleet(path)?;
    // An explicit --solver becomes the default for tenants whose manifest
    // entry names none (a per-tenant "solver" field still wins). The flag
    // is an operator-level input like pool/engine presets: a typo fails
    // the whole batch fast with the unknown-solver exit code, rather than
    // surfacing as N identical per-tenant errors and a zero exit.
    if let Some(default) = default_solver {
        dot_core::advisor::Registry::builtin().get(default)?;
        for tenant in &mut tenants {
            tenant.solver.get_or_insert_with(|| default.to_owned());
        }
    }
    let report = fleet::provision_fleet(&tenants, &config);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| {
                ProvisionError::InvalidRequest {
                    reason: format!("serialize fleet report: {e}"),
                }
            })?
        );
        return Ok(());
    }
    print_fleet_report(&report);
    Ok(())
}

fn print_fleet_report(report: &FleetReport) {
    println!("fleet of {} tenant(s):", report.tenants.len());
    for outcome in &report.tenants {
        match (&outcome.recommendation, &outcome.error) {
            (Some(rec), _) => println!(
                "    {:<20} {:<12} {:>10.4} cents/hour  ({} layouts in {} ms)",
                outcome.tenant,
                outcome.solver,
                rec.estimate.layout_cost_cents_per_hour,
                rec.provenance.layouts_investigated,
                rec.provenance.elapsed_ms,
            ),
            (None, Some(err)) => {
                println!(
                    "    {:<20} {:<12} error[{}]: {err}",
                    outcome.tenant,
                    outcome.solver,
                    err.kind()
                )
            }
            (None, None) => unreachable!("an outcome is a recommendation or an error"),
        }
    }
    println!(
        "\naggregate bill ({} provisioned, {} failed):",
        report.aggregate.tenants_provisioned, report.aggregate.tenants_failed
    );
    for line in &report.aggregate.classes {
        println!(
            "    {:<14} {:>10.2} GB  {:>10.4} cents/hour",
            line.class, line.gb, line.cents_per_hour
        );
    }
    println!(
        "    total {:.4} cents/hour",
        report.aggregate.total_cents_per_hour
    );
    println!("\nwall clock {} ms", report.wall_ms);
}

fn cmd_catalog() {
    use dot_storage::catalog;
    println!("built-in pools:");
    for pool in [catalog::box1(), catalog::box2(), catalog::full_pool()] {
        println!("  {} —", pool.name());
        for class in pool.classes() {
            println!(
                "      {:<14} {:>8.1} GB  {:>10.3e} cents/GB/hour  RR {:>6.3} ms",
                class.name,
                class.capacity_gb,
                class.price_cents_per_gb_hour,
                class.profile.at_c1[1],
            );
        }
    }
    println!("\ndatabase presets: {}", presets::DATABASE_HINT);
}

fn cmd_solvers() {
    let registry = dot_core::advisor::Registry::builtin();
    println!("registered solvers (pass to provision via --solver <id>):");
    for solver in registry.iter() {
        println!("  {:<28} {}", solver.id(), solver.describe());
    }
}

fn cmd_provision(path: &str, solver: &str, json: bool) -> Result<(), ProvisionError> {
    let req = load(path)?;
    let advisor = Advisor::builder(&req.schema, &req.pool, &req.workload)
        .sla(req.sla)
        .engine(req.engine)
        .refinements(req.refinements)
        .build()?;
    let rec = advisor.recommend(solver)?;
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rec).map_err(|e| ProvisionError::InvalidRequest {
                reason: format!("serialize recommendation: {e}"),
            })?
        );
        return Ok(());
    }
    print_report(&req, &advisor, &rec);
    Ok(())
}

fn print_report(req: &Request, advisor: &Advisor<'_>, rec: &Recommendation) {
    println!(
        "database: {} objects, {:.1} GB; pool {}; relative SLA {}; solver {}\n",
        req.schema.object_count(),
        req.schema.total_size_gb(),
        req.pool.name(),
        req.sla,
        rec.provenance.solver,
    );
    println!("recommended layout ({}):", rec.label);
    for (object, class) in &rec.placements {
        println!("    {object:<28} -> {class}");
    }
    println!("\nbill:");
    for line in &rec.bill {
        println!(
            "    {:<14} {:>10.2} GB  {:>10.4} cents/hour",
            line.class, line.gb, line.cents_per_hour
        );
    }
    let premium = advisor.evaluate_layout("premium", &advisor.problem().premium_layout());
    println!(
        "\nlayout cost {:.4} cents/hour (all-premium: {:.4}); objective {:.4} cents; \
         {} layouts investigated in {} ms",
        rec.estimate.layout_cost_cents_per_hour,
        premium.layout_cost_cents_per_hour,
        rec.estimate.objective_cents,
        rec.provenance.layouts_investigated,
        rec.provenance.elapsed_ms,
    );
    if (rec.provenance.final_sla - req.sla).abs() > 1e-12 {
        println!(
            "SLA relaxed from {} to {:.3} to admit a layout",
            req.sla, rec.provenance.final_sla
        );
    }
    if let Some(v) = &rec.validation {
        println!(
            "validation: PSR {:.0}% ({}), {} refinement round(s)",
            v.psr * 100.0,
            if v.passed { "passed" } else { "not passed" },
            rec.provenance.refinement_rounds
        );
    }
}

/// Load a deployed layout: either a bare serialized `Layout`, or any JSON
/// object carrying a `"layout"` key — so `provision --json` output files
/// work directly as `--current` inputs.
fn load_layout(path: &str) -> Result<Layout, ProvisionError> {
    let text = std::fs::read_to_string(path).map_err(|e| ProvisionError::InvalidRequest {
        reason: format!("read {path}: {e}"),
    })?;
    let value: serde::Value =
        serde_json::from_str(&text).map_err(|e| ProvisionError::InvalidRequest {
            reason: format!("parse {path}: {e}"),
        })?;
    let nested = value
        .as_object()
        .and_then(|entries| entries.iter().find(|(k, _)| k == "layout"))
        .map(|(_, v)| v);
    Layout::from_value(nested.unwrap_or(&value)).map_err(|e| ProvisionError::InvalidRequest {
        reason: format!("{path}: neither a Layout nor a Recommendation: {e}"),
    })
}

/// The `dot-cli replan --window-seconds --json` output: the maintenance-
/// window rollout wrapped with the same provenance as [`ReplanEnvelope`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, Deserialize)]
struct RolloutEnvelope {
    provenance: ControlProvenance,
    rollout: WindowedRollout,
}

fn cmd_replan(
    path: &str,
    current_path: &str,
    solver: &str,
    opts: &ReplanOptions,
    window_seconds: Option<f64>,
    json: bool,
) -> Result<(), ProvisionError> {
    let start = Instant::now();
    let req = load(path)?;
    let current = load_layout(current_path)?;
    let advisor = Advisor::builder(&req.schema, &req.pool, &req.workload)
        .sla(req.sla)
        .engine(req.engine)
        .refinements(req.refinements)
        .build()?;
    // A window length splits the plan into recurring maintenance windows:
    // each window replans from where the previous one left off.
    if let Some(window) = window_seconds {
        let rollout = advisor.replan_rollout(&current, solver, opts, window)?;
        if json {
            let envelope = RolloutEnvelope {
                provenance: ControlProvenance {
                    elapsed_ms: start.elapsed().as_millis() as u64,
                    trigger: TriggerReason::Manual,
                },
                rollout,
            };
            println!(
                "{}",
                serde_json::to_string_pretty(&envelope).map_err(|e| {
                    ProvisionError::InvalidRequest {
                        reason: format!("serialize rollout envelope: {e}"),
                    }
                })?
            );
            return Ok(());
        }
        print_rollout_report(&req, window, &rollout);
        return Ok(());
    }
    let rec = advisor.replan_scheduled(&current, solver, opts)?;
    if json {
        // The one-shot plan shares the control-loop provenance schema; an
        // operator pulling the trigger by hand is the `Manual` stub.
        let envelope = ReplanEnvelope {
            provenance: ControlProvenance {
                elapsed_ms: start.elapsed().as_millis() as u64,
                trigger: TriggerReason::Manual,
            },
            replan: rec,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&envelope).map_err(|e| {
                ProvisionError::InvalidRequest {
                    reason: format!("serialize replan envelope: {e}"),
                }
            })?
        );
        return Ok(());
    }
    print_replan_report(&req, &advisor, &rec);
    Ok(())
}

fn print_rollout_report(req: &Request, window_seconds: f64, rollout: &WindowedRollout) {
    println!(
        "windowed rollout for workload {:?} on pool {}: {} maintenance window(s) of {:.0} s",
        req.workload.name,
        req.pool.name(),
        rollout.windows.len(),
        window_seconds,
    );
    for (i, rec) in rollout.windows.iter().enumerate() {
        let s = &rec.plan.schedule;
        println!(
            "    window {i}: {} move(s) in {} wave(s), {:.0} s makespan \
             ({:.0} s sequential), {:.2} GB",
            rec.plan.steps.len(),
            s.waves.len(),
            s.makespan_seconds,
            s.sequential_seconds,
            rec.plan.total_bytes / 1e9,
        );
    }
    println!(
        "rollout {}: {:.2} GB total in {:.0} s of scheduled transfer for {:.3e} cents",
        if rollout.complete {
            "reaches the target"
        } else {
            "stalls (budget exhausted before the target)"
        },
        rollout
            .windows
            .iter()
            .map(|w| w.plan.total_bytes)
            .sum::<f64>()
            / 1e9,
        rollout.total_seconds,
        rollout.total_cents,
    );
}

fn print_replan_report(req: &Request, advisor: &Advisor<'_>, rec: &ReplanRecommendation) {
    let pool = &req.pool;
    println!(
        "drifted workload {:?} on pool {}; relative SLA {}; target solver {}",
        req.workload.name,
        pool.name(),
        req.sla,
        rec.target.provenance.solver,
    );
    println!(
        "deployed layout: {:.4} cents/hour, {} under the drifted constraints",
        rec.current_estimate.layout_cost_cents_per_hour,
        if rec.current_feasible {
            "still feasible"
        } else {
            "SLA-VIOLATING"
        },
    );
    match &rec.plan.decision {
        MigrationDecision::Unchanged => {
            println!("\nverdict: unchanged — the drifted workload recommends the deployed layout");
            return;
        }
        MigrationDecision::Stay => {
            println!(
                "\nverdict: stay — migration cannot repay its bill under this budget \
                 (target layout: {:.4} cents/hour)",
                rec.target.estimate.layout_cost_cents_per_hour
            );
            return;
        }
        MigrationDecision::Migrate => {
            println!("\nverdict: migrate ({} moves)", rec.plan.steps.len())
        }
        MigrationDecision::Partial { deferred_groups } => println!(
            "\nverdict: partial migration ({} moves, {} group(s) deferred by the budget)",
            rec.plan.steps.len(),
            deferred_groups
        ),
    }
    let schema = &req.schema;
    for step in &rec.plan.steps {
        for ((&obj, &src), &dst) in step
            .mv
            .objects
            .iter()
            .zip(&step.from)
            .zip(&step.mv.placement)
        {
            if src == dst {
                continue;
            }
            println!(
                "    {:<28} {:<14} -> {:<14} {:>9.2} GB",
                schema.object(obj).name,
                pool.class_unchecked(src).name,
                pool.class_unchecked(dst).name,
                schema.object(obj).size_gb,
            );
        }
    }
    println!(
        "\nmigration: {:.2} GB moved in {:.0} s for {:.3e} cents; \
         saves {:.3e} cents/hour; break-even in {:.3e} h",
        rec.plan.total_bytes / 1e9,
        rec.plan.total_seconds,
        rec.plan.total_cents,
        rec.plan.savings_cents_per_hour,
        rec.plan.break_even_hours,
    );
    let sched = &rec.plan.schedule;
    if !sched.waves.is_empty() {
        println!(
            "schedule: {} wave(s), makespan {:.0} s (sequential {:.0} s, {:.0}% of it)",
            sched.waves.len(),
            sched.makespan_seconds,
            sched.sequential_seconds,
            if sched.sequential_seconds > 0.0 {
                100.0 * sched.makespan_seconds / sched.sequential_seconds
            } else {
                100.0
            },
        );
    }
    let premium = advisor.evaluate_layout("premium", &advisor.problem().premium_layout());
    println!(
        "final layout {:.4} cents/hour (target: {:.4}, all-premium: {:.4})",
        advisor
            .problem()
            .layout_cost_cents_per_hour(&rec.plan.final_layout),
        rec.target.estimate.layout_cost_cents_per_hour,
        premium.layout_cost_cents_per_hour,
    );
}

/// Where `supervise` gets its trace: a scripted JSON file (`--trace`) or a
/// generator spec (`--trace-gen`, parsed by [`dot_core::traces::generate`]).
enum TraceSource {
    File(String),
    Generated(String),
}

/// The keys a trace step accepts (see `dot_core::controller::TraceStep`).
const TRACE_KEYS: [&str; 4] = ["shift", "scale", "phase", "repeat"];

fn load_trace(path: &str) -> Result<Vec<TraceStep>, ProvisionError> {
    let text = std::fs::read_to_string(path).map_err(|e| ProvisionError::InvalidRequest {
        reason: format!("read {path}: {e}"),
    })?;
    let value: serde::Value =
        serde_json::from_str(&text).map_err(|e| ProvisionError::InvalidRequest {
            reason: format!("parse {path}: {e}"),
        })?;
    let Some(steps) = value.as_array() else {
        return Err(ProvisionError::InvalidRequest {
            reason: format!("{path}: a trace is a JSON array of steps"),
        });
    };
    if steps.is_empty() {
        return Err(ProvisionError::InvalidRequest {
            reason: format!("{path}: a trace needs at least one step"),
        });
    }
    for (i, step) in steps.iter().enumerate() {
        check_keys(step, &TRACE_KEYS, &format!("{path}: trace step {i}"))?;
    }
    Vec::<TraceStep>::from_value(&value).map_err(|e| ProvisionError::InvalidRequest {
        reason: format!("parse {path}: {e}"),
    })
}

#[allow(clippy::too_many_arguments)] // mirrors the flag surface
fn cmd_supervise(
    path: &str,
    trace_source: &TraceSource,
    current_path: Option<&str>,
    solver: &str,
    budget: &MigrationBudget,
    drift_threshold: Option<f64>,
    cooldown: Option<u64>,
    window_ticks: Option<u64>,
    json: bool,
    stream: bool,
) -> Result<(), ProvisionError> {
    let req = load(path)?;
    let trace = match trace_source {
        TraceSource::File(path) => load_trace(path)?,
        TraceSource::Generated(spec) => dot_core::traces::generate(spec)?,
    };
    let mut config = ControllerConfig {
        solver: solver.to_owned(),
        budget: *budget,
        ..ControllerConfig::default()
    };
    if let Some(threshold) = drift_threshold {
        config.drift_threshold = threshold;
    }
    if let Some(ticks) = cooldown {
        config.cooldown_ticks = ticks;
    }
    if window_ticks.is_some() {
        config.window_ticks = window_ticks;
    }
    config.validate()?;
    // The deployed layout: given, or what the baseline problem recommends.
    let current = match current_path {
        Some(p) => load_layout(p)?,
        None => {
            Advisor::builder(&req.schema, &req.pool, &req.workload)
                .sla(req.sla)
                .engine(req.engine)
                .refinements(req.refinements)
                .build()?
                .recommend(solver)?
                .layout
        }
    };
    let tenant = SuperviseTenantRequest {
        name: "tenant-0".to_owned(),
        pool: req.pool.clone(),
        schema: req.schema.clone(),
        workload: req.workload.clone(),
        sla: req.sla,
        solver: None,
        engine: req.engine_explicit.then_some(req.engine),
        refinements: Some(req.refinements),
        current_layout: current,
        trace,
        controller: None,
    };
    if stream {
        return stream_supervise(&tenant, &config);
    }
    let report = fleet::supervise_fleet(&[tenant], &FleetConfig::default(), &config);
    // A single-tenant batch never fails as a batch; the tenant's own typed
    // error is the command's failure, surfaced through the usual exit-code
    // path. In `--json` mode the error document *replaces* the report —
    // stdout must stay one valid JSON value (main renders it).
    if let Some(e) = &report.tenants[0].error {
        if !json {
            print_supervise_report(&req, &config, &report);
        }
        return Err(e.clone());
    }
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| {
                ProvisionError::InvalidRequest {
                    reason: format!("serialize supervise report: {e}"),
                }
            })?
        );
        return Ok(());
    }
    print_supervise_report(&req, &config, &report);
    Ok(())
}

/// `--stream`: supervise the tenant through [`fleet::supervise_tenant`],
/// emitting the `dot-serve` wire protocol's response frames as JSON lines
/// — one `Event` frame per control event as each tick completes, then a
/// `Detached` frame with the tenant's summary (an `Error` frame carries a
/// mid-trace typed failure; events already streamed stay valid). A trace
/// or controller rejected before any tick is the command's error, with no
/// frame.
fn stream_supervise(
    tenant: &SuperviseTenantRequest,
    config: &ControllerConfig,
) -> Result<(), ProvisionError> {
    use dot_serve::protocol::{ProtocolError, Response, ResponseFrame, TenantSummary};
    let mut out = std::io::stdout().lock();
    let mut emit = |response: Response| -> Result<(), ProvisionError> {
        dot_serve::framing::write_frame(&mut out, &ResponseFrame { id: 0, response })
            .and_then(|()| out.flush())
            .map_err(|e| ProvisionError::InvalidRequest {
                reason: format!("write stream: {e}"),
            })
    };
    let reuse = Default::default();
    let refinements = FleetConfig::default().refinements;
    let (outcome, _) = fleet::supervise_tenant(tenant, config, refinements, &reuse, |event| {
        emit(Response::Event { tenant: 0, event })
    });
    match outcome.error {
        Some(error) if outcome.final_layout.is_none() => Err(error),
        Some(error) => {
            emit(Response::Error {
                error: ProtocolError::Provision {
                    error: error.clone(),
                },
            })?;
            Err(error)
        }
        None => emit(Response::Detached {
            summary: TenantSummary {
                tenant: 0,
                name: outcome.tenant,
                ticks: outcome.ticks,
                triggers: outcome.triggers,
                applications: outcome.applications,
                provenance: outcome.provenance,
            },
        }),
    }
}

fn print_supervise_report(
    req: &Request,
    config: &ControllerConfig,
    report: &fleet::SuperviseFleetReport,
) {
    let outcome = &report.tenants[0];
    println!(
        "supervising baseline {:?} on pool {}; relative SLA {}; solver {}; \
         drift threshold {}, cool-down {} tick(s)\n",
        req.workload.name,
        req.pool.name(),
        req.sla,
        outcome.solver,
        config.drift_threshold,
        config.cooldown_ticks,
    );
    for event in &outcome.events {
        match event {
            ControlEvent::Observed {
                tick,
                distance,
                sla_pressure,
                feasible,
            } => println!(
                "    tick {tick:>3}  observed   distance {distance:.3}  sla-pressure {sla_pressure:.3}{}",
                if *feasible { "" } else { "  SLA-VIOLATING" }
            ),
            ControlEvent::Triggered { tick, reason } => {
                let why = match reason {
                    TriggerReason::Manual => "manual".to_owned(),
                    TriggerReason::Quiescent => "quiescent".to_owned(),
                    TriggerReason::Drift { distance } => format!("drift {distance:.3}"),
                    TriggerReason::Sla { pressure } => format!("sla pressure {pressure:.3}"),
                    TriggerReason::DriftAndSla { distance, pressure } => {
                        format!("drift {distance:.3} + sla pressure {pressure:.3}")
                    }
                    TriggerReason::Window { every_ticks } => {
                        format!("maintenance window (every {every_ticks} ticks)")
                    }
                };
                println!("    tick {tick:>3}  TRIGGERED  {why}");
            }
            ControlEvent::Planned {
                tick,
                decision,
                moves,
                total_bytes,
                break_even_hours,
                ..
            } => {
                let verdict = match decision {
                    MigrationDecision::Unchanged => "unchanged".to_owned(),
                    MigrationDecision::Stay => "stay".to_owned(),
                    MigrationDecision::Migrate => format!(
                        "migrate ({moves} moves, {:.2} GB, break-even {break_even_hours:.3e} h)",
                        total_bytes / 1e9
                    ),
                    MigrationDecision::Partial { deferred_groups } => format!(
                        "partial ({moves} moves, {deferred_groups} group(s) deferred, {:.2} GB)",
                        total_bytes / 1e9
                    ),
                };
                println!("    tick {tick:>3}  planned    {verdict}");
            }
            ControlEvent::Deferred { tick, reason } => {
                let why = match reason {
                    DeferReason::CoolingDown { last_trigger_tick } => {
                        format!("cooling down (last trigger tick {last_trigger_tick})")
                    }
                    DeferReason::Latched => "latched (signal has not cleared)".to_owned(),
                };
                println!("    tick {tick:>3}  deferred   {why}");
            }
            ControlEvent::Applied {
                tick,
                objects_moved,
                bytes_moved,
            } => println!(
                "    tick {tick:>3}  APPLIED    {objects_moved} object(s) moved, {:.2} GB",
                bytes_moved / 1e9
            ),
        }
    }
    println!(
        "\n{} tick(s): {} trigger(s), {} plan(s) applied, {:.2} GB moved; \
         {} replan(s) reused, {} solved; wall clock {} ms",
        outcome.ticks,
        outcome.triggers,
        outcome.applications,
        report.totals.total_bytes_moved / 1e9,
        report.cache.hits,
        report.cache.misses,
        report.wall_ms,
    );
    if let Some(err) = &outcome.error {
        println!("aborted: error[{}]: {err}", err.kind());
    }
}

fn cmd_explain(path: &str) -> Result<(), ProvisionError> {
    let req = load(path)?;
    let layout = dot_dbms::Layout::uniform(req.pool.most_expensive(), req.schema.object_count());
    let planned = planner::plan_workload(
        &req.workload.queries,
        &req.schema,
        &layout,
        &req.pool,
        &req.engine,
    );
    print!(
        "{}",
        explain::explain_workload(&planned, &req.schema, &layout, &req.pool, &req.engine)
    );
    Ok(())
}

/// One distinct exit code per [`ProvisionError`] variant, so scripts can
/// branch on the failure kind. 1 stays reserved for usage errors.
fn exit_code(err: &ProvisionError) -> u8 {
    match err {
        ProvisionError::InvalidRequest { .. } => 2,
        ProvisionError::UnknownSolver { .. } => 3,
        ProvisionError::UnknownPool { .. } => 4,
        ProvisionError::UnknownPreset { .. } => 5,
        ProvisionError::UnknownEngine { .. } => 6,
        ProvisionError::Infeasible { .. } => 7,
        ProvisionError::CapacityExceeded { .. } => 8,
        ProvisionError::UnsupportedWorkload { .. } => 9,
        ProvisionError::ClassUnavailable { .. } => 10,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dot-cli <catalog|solvers|provision|fleet|replan|supervise|explain> [args]\n\
         \n\
         dot-cli catalog\n\
         dot-cli solvers\n\
         dot-cli provision <problem.json> [--solver <id>] [--json]\n\
         dot-cli fleet <manifest.json> [--solver <id>] [--json]\n\
         dot-cli replan <problem.json> --current <layout.json> [--solver <id>]\n\
         \x20               [--budget-bytes <n>] [--budget-seconds <n>] [--budget-cents <n>]\n\
         \x20               [--sla-during-migration <r>] [--window-seconds <n>] [--json]\n\
         dot-cli supervise <problem.json> (--trace <trace.json> | --trace-gen <spec>)\n\
         \x20               [--current <layout.json>]\n\
         \x20               [--solver <id>] [--drift-threshold <x>] [--cooldown <n>]\n\
         \x20               [--window-ticks <n>]\n\
         \x20               [--budget-bytes <n>] [--budget-seconds <n>] [--budget-cents <n>]\n\
         \x20               [--json | --stream]\n\
         dot-cli serve [--listen <addr>] [--unix-socket <path>] [--workers <n>] [--cache-capacity <n>]\n\
         \x20               [--state-dir <dir>] [--tenant-inflight <n>] [--busy-retry-ms <n>]\n\
         dot-cli explain <problem.json>"
    );
    ExitCode::FAILURE
}

/// Every accepted flag, with whether it consumes the next argument (the
/// scanner needs this to step over values that themselves start with `--`
/// would-be flags).
const KNOWN_FLAGS: [(&str, bool); 14] = [
    ("--json", false),
    ("--stream", false),
    ("--solver", true),
    ("--current", true),
    ("--budget-bytes", true),
    ("--budget-seconds", true),
    ("--budget-cents", true),
    ("--sla-during-migration", true),
    ("--window-seconds", true),
    ("--window-ticks", true),
    ("--trace", true),
    ("--trace-gen", true),
    ("--drift-threshold", true),
    ("--cooldown", true),
];

/// The flags each subcommand accepts. A typo'd flag — or a real flag on
/// the wrong subcommand (`provision --current`, `replan
/// --drift-threshold`) — is a usage error naming it and listing what this
/// subcommand takes; never silently ignored, matching the unknown-key
/// policy of the JSON loaders.
fn allowed_flags(subcommand: &str) -> &'static [&'static str] {
    match subcommand {
        "provision" | "fleet" => &["--json", "--solver"],
        "replan" => &[
            "--json",
            "--solver",
            "--current",
            "--budget-bytes",
            "--budget-seconds",
            "--budget-cents",
            "--sla-during-migration",
            "--window-seconds",
        ],
        "supervise" => &[
            "--json",
            "--stream",
            "--solver",
            "--current",
            "--trace",
            "--trace-gen",
            "--drift-threshold",
            "--cooldown",
            "--window-ticks",
            "--budget-bytes",
            "--budget-seconds",
            "--budget-cents",
        ],
        // catalog, solvers, explain (and unknown subcommands, which fail
        // to usage anyway) take no flags.
        _ => &[],
    }
}

fn reject_unknown_flags(args: &[String]) -> Result<(), ExitCode> {
    let allowed = allowed_flags(args.get(1).map(String::as_str).unwrap_or(""));
    let mut i = 1; // skip argv[0]
    while i < args.len() {
        let arg = &args[i];
        if arg.starts_with("--") {
            if !allowed.contains(&arg.as_str()) {
                eprintln!(
                    "error: unknown flag {arg:?} for this subcommand (accepted: {})",
                    if allowed.is_empty() {
                        "none".to_owned()
                    } else {
                        allowed.join(", ")
                    }
                );
                return Err(ExitCode::FAILURE);
            }
            let takes_value = KNOWN_FLAGS
                .iter()
                .find(|(flag, _)| flag == arg)
                .map(|(_, takes)| *takes)
                .unwrap_or(false);
            i += 1 + usize::from(takes_value);
        } else {
            i += 1;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    // The daemon owns its flag surface (one parser for `dot-serve` and
    // `dot-cli serve`, so the two entry points cannot drift); hand over
    // before this binary's own flag discipline sees the arguments.
    if args.get(1).map(String::as_str) == Some("serve") {
        return ExitCode::from(dot_serve::cli::run(&args[2..]).clamp(0, 255) as u8);
    }
    if let Err(code) = reject_unknown_flags(&args) {
        return code;
    }
    let json = args.iter().any(|a| a == "--json");
    let stream = args.iter().any(|a| a == "--stream");
    if json && stream {
        eprintln!("error: --json and --stream are mutually exclusive");
        return ExitCode::FAILURE;
    }
    // `provision` defaults a missing flag to "dot"; `fleet` keeps the
    // distinction so the manifest's per-tenant solvers are only overridden
    // by an explicit flag.
    let solver_flag = match args.iter().position(|a| a == "--solver") {
        Some(i) => match args.get(i + 1) {
            Some(id) => Some(id.clone()),
            None => {
                eprintln!("error: --solver needs a solver id (see dot-cli solvers)");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // `replan`-only flags: the deployed layout and the migration budget.
    let value_flag = |flag: &str| -> Result<Option<String>, ExitCode> {
        match args.iter().position(|a| a == flag) {
            Some(i) => match args.get(i + 1) {
                Some(v) => Ok(Some(v.clone())),
                None => {
                    eprintln!("error: {flag} needs a value");
                    Err(ExitCode::FAILURE)
                }
            },
            None => Ok(None),
        }
    };
    let current_flag = match value_flag("--current") {
        Ok(v) => v,
        Err(code) => return code,
    };
    let trace_flag = match value_flag("--trace") {
        Ok(v) => v,
        Err(code) => return code,
    };
    let trace_gen_flag = match value_flag("--trace-gen") {
        Ok(v) => v,
        Err(code) => return code,
    };
    // Numeric knobs share one parse-or-usage-error path, generic over the
    // value type (f64 thresholds/budgets, u64 tick counts).
    fn parse_flag<T: std::str::FromStr>(
        raw: Result<Option<String>, ExitCode>,
        flag: &str,
        wants: &str,
    ) -> Result<Option<T>, ExitCode> {
        match raw? {
            Some(raw) => match raw.parse::<T>() {
                Ok(v) => Ok(Some(v)),
                Err(_) => {
                    eprintln!("error: {flag} needs {wants}, got {raw:?}");
                    Err(ExitCode::FAILURE)
                }
            },
            None => Ok(None),
        }
    }
    let drift_threshold = match parse_flag::<f64>(
        value_flag("--drift-threshold"),
        "--drift-threshold",
        "a number",
    ) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let cooldown = match parse_flag::<u64>(
        value_flag("--cooldown"),
        "--cooldown",
        "a whole number of ticks",
    ) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let mut budget = MigrationBudget::unbounded();
    budget.max_bytes =
        match parse_flag::<f64>(value_flag("--budget-bytes"), "--budget-bytes", "a number") {
            Ok(v) => v,
            Err(code) => return code,
        };
    budget.max_seconds = match parse_flag::<f64>(
        value_flag("--budget-seconds"),
        "--budget-seconds",
        "a number",
    ) {
        Ok(v) => v,
        Err(code) => return code,
    };
    budget.max_cents =
        match parse_flag::<f64>(value_flag("--budget-cents"), "--budget-cents", "a number") {
            Ok(v) => v,
            Err(code) => return code,
        };
    let sla_during_migration = match parse_flag::<f64>(
        value_flag("--sla-during-migration"),
        "--sla-during-migration",
        "a relative SLA ratio in (0, 1]",
    ) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let window_seconds = match parse_flag::<f64>(
        value_flag("--window-seconds"),
        "--window-seconds",
        "a window length in seconds",
    ) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let window_ticks = match parse_flag::<u64>(
        value_flag("--window-ticks"),
        "--window-ticks",
        "a whole number of ticks",
    ) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let replan_opts = ReplanOptions {
        budget,
        sla_during_migration,
    };
    let result = match args.get(1).map(String::as_str) {
        Some("catalog") => {
            cmd_catalog();
            Ok(())
        }
        Some("solvers") => {
            cmd_solvers();
            Ok(())
        }
        Some("provision") => match args.get(2).filter(|a| !a.starts_with("--")) {
            Some(path) => cmd_provision(path, solver_flag.as_deref().unwrap_or("dot"), json),
            None => return usage(),
        },
        Some("fleet") => match args.get(2).filter(|a| !a.starts_with("--")) {
            Some(path) => cmd_fleet(path, solver_flag.as_deref(), json),
            None => return usage(),
        },
        Some("replan") => match (args.get(2).filter(|a| !a.starts_with("--")), &current_flag) {
            (Some(path), Some(current)) => cmd_replan(
                path,
                current,
                solver_flag.as_deref().unwrap_or("dot"),
                &replan_opts,
                window_seconds,
                json,
            ),
            _ => {
                eprintln!("error: replan needs a drifted problem file and --current <layout.json>");
                return usage();
            }
        },
        Some("supervise") => {
            let source = match (&trace_flag, &trace_gen_flag) {
                (Some(path), None) => Some(TraceSource::File(path.clone())),
                (None, Some(spec)) => Some(TraceSource::Generated(spec.clone())),
                (Some(_), Some(_)) => {
                    eprintln!("error: --trace and --trace-gen are mutually exclusive");
                    return ExitCode::FAILURE;
                }
                (None, None) => None,
            };
            match (args.get(2).filter(|a| !a.starts_with("--")), source) {
                (Some(path), Some(source)) => cmd_supervise(
                    path,
                    &source,
                    current_flag.as_deref(),
                    solver_flag.as_deref().unwrap_or("dot"),
                    &budget,
                    drift_threshold,
                    cooldown,
                    window_ticks,
                    json,
                    stream,
                ),
                _ => {
                    eprintln!(
                        "error: supervise needs a baseline problem file and --trace \
                         <trace.json> or --trace-gen <spec>"
                    );
                    return usage();
                }
            }
        }
        Some("explain") => match args.get(2) {
            Some(path) => cmd_explain(path),
            None => return usage(),
        },
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if json {
                // Machine consumers get the typed error itself.
                if let Ok(body) = serde_json::to_string_pretty(&e) {
                    println!("{body}");
                }
            }
            eprintln!("error[{}]: {e}", e.kind());
            ExitCode::from(exit_code(&e))
        }
    }
}

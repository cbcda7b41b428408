//! Distill the bench suite into a committed perf trajectory.
//!
//! Re-measures the repo's headline hot paths with the same fixtures the
//! criterion benches use — cold solve, warm replan, quiescent controller
//! tick (against the two-full-estimate tick it replaced), the decode of one
//! `Observe` request line, a workload profile, a solve that refines after
//! a failed validation, replan reuse on a supervised fleet, the
//! `dot-serve` daemon's concurrent observe-tick throughput (the median of
//! several samples, with their range), the
//! registry restore latency from a persisted multi-tenant snapshot, the
//! bytes the registry writes per applied migration at two tenant counts, the
//! scripted vs. measured telemetry observe tick, the scheduled-vs-
//! sequential migration makespan on the tiered-downgrade family, and the
//! dominance-pruned vs. estimate-everything sweeps on every
//! conformance workload family — and writes the medians to a
//! `BENCH_<pr>.json` at the repo root. Committing the file per PR gives the
//! repo a perf trajectory that reviews and CI can hold regressions against.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dot-bench --bin distill                 # write BENCH_27.json
//! cargo run --release -p dot-bench --bin distill -- --out <path> # write elsewhere
//! cargo run --release -p dot-bench --bin distill -- --check <path> # validate a file
//! ```
//!
//! `--check` parses the file and fails (exit 1) when the trajectory breaks
//! an invariant the code promises: the quiescent tick must undercut the
//! two-full-estimate tick it replaced, a supervised fleet whose traces
//! repeat must reuse some replans, the daemon must sustain a positive
//! concurrent tick rate, a persisted registry must restore its tenants in
//! bounded time, the bytes persisted per applied migration must stay flat
//! from 8 to 64 tenants (the journal appends one tenant's record, it does
//! not rewrite the registry), the scheduled migration makespan must never
//! exceed the sequential copy it packs, every conformance family must
//! prune a nonzero
//! number of candidates, the pruned sweeps must not run meaningfully
//! slower than their estimate-everything counterparts, and every pruning
//! cell's `layouts_investigated` and `layouts_pruned` must equal the same
//! (family, solver) cell's in the previous `BENCH_<pr>.json` in the
//! working directory: the counts are deterministic, and a cut that
//! changed them changed what the search enumerates.

use dot_core::advisor::{presets, Advisor};
use dot_core::controller::{Controller, ControllerConfig, TraceStep};
use dot_core::fleet::{supervise_fleet, FleetConfig, SuperviseTenantRequest};
use dot_core::problem::Problem;
use dot_core::toc::{self, Estimator};
use dot_core::{constraints, dot, exhaustive};
use dot_dbms::memo::PlanMemo;
use dot_dbms::EngineConfig;
use dot_profiler::{profile_workload, ProfileSource};
use dot_storage::catalog;
use dot_workloads::{drift, synth, tpcc, tpch, ycsb, PerfMetric, SlaSpec};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// Where the trajectory for this PR lives, relative to the repo root.
const DEFAULT_PATH: &str = "BENCH_27.json";
/// Timed samples per measurement (a warmup run precedes them).
const SAMPLES: usize = 5;
/// `--check`: a pruned sweep may be up to this factor slower than the
/// estimate-everything sweep before it counts as a regression (headroom
/// for machine noise on the near-tie families).
const PRUNED_SLOWDOWN_TOLERANCE: f64 = 1.5;
/// `--check`: the slowdown ratio is only meaningful above this median.
/// The two-object sweeps finish in ~10 µs, where scheduler jitter alone
/// swings the ratio past any tolerance; a real regression on a cell that
/// small cannot hide — it would push the median over the floor.
const SLOWDOWN_NOISE_FLOOR_MS: f64 = 0.05;
/// `--check`: families whose largest cell investigates more candidates
/// than this must prune some of them. Below it (the two-object YCSB and
/// synthetic spaces, enumerated most-expensive-first) every candidate
/// undercuts the incumbent and there is legitimately nothing to cut.
const NONTRIVIAL_INVESTIGATED: usize = 10;
/// `--check`: the bytes persisted per applied migration at the larger
/// tenant count may exceed those at the smaller by at most this factor.
/// A whole-registry rewrite per migration grows with the tenant count
/// (8x from 8 to 64 tenants); one journal record plus amortized
/// compaction does not.
const DURABILITY_GROWTH_TOLERANCE: f64 = 1.5;
/// The tenant counts of the durability cells.
const DURABILITY_TENANTS: [usize; 2] = [8, 64];

#[derive(Debug, Serialize, Deserialize)]
struct Trajectory {
    /// Format version of this file, not of the repo.
    schema_version: u32,
    /// The PR whose benches were distilled (matches the filename).
    pr: u32,
    /// Timed samples behind each median.
    samples: usize,
    hot_paths: HotPaths,
    telemetry: TelemetryNumbers,
    scheduler: SchedulerNumbers,
    fleet: FleetNumbers,
    daemon: DaemonNumbers,
    restore: RestoreNumbers,
    /// Bytes persisted per applied migration, one cell per tenant count
    /// (absent from files older than the journal).
    #[serde(default)]
    durability: Option<Vec<DurabilityCell>>,
    pruning: Vec<PruningCell>,
}

/// Medians for the paths the controller/replan benches watch, in ms.
#[derive(Debug, Serialize, Deserialize)]
struct HotPaths {
    /// Full pipeline on a fresh session (profile + constraints + sweep).
    cold_solve_ms: f64,
    /// Replan on a warm session (profile, constraints and plan templates
    /// already built).
    warm_replan_ms: f64,
    /// Quiescent controller tick — incremental delta re-estimation.
    tick_quiescent_ms: f64,
    /// The same quiescent tick through the step API (`begin_step` +
    /// `tick_step`): the observation derived in place, no workload built.
    /// Absent from files before schema 9.
    #[serde(default)]
    tick_step_ms: Option<f64>,
    /// The tick cost this replaced: two full TOC estimates of the observed
    /// problem (deployed layout + premium reference).
    tick_two_full_estimates_ms: f64,
    /// Decode of one `Observe` request line as the daemon receives it, in
    /// µs: the median per decode over batched samples (a single decode is
    /// too short to time on its own). Absent from files before schema 10.
    #[serde(default)]
    decode_observe_us: Option<f64>,
    /// The estimate profile of tpcc:16 on the full pool over a fresh plan
    /// memo, the templates' compile included. Absent from files before
    /// schema 11.
    #[serde(default)]
    profile_ms: Option<f64>,
    /// `recommend("dot")` on tpch:1:original over the full pool, on a warm
    /// session: its first validation fails, so the solve includes a
    /// refinement round. Absent from files before schema 11.
    #[serde(default)]
    refined_solve_ms: Option<f64>,
}

/// Telemetry-tick medians: one quiescent controller observation fed from a
/// scripted source (declared signature, no execution) vs a measured source
/// (one simulated test run of the stream folded into the signature) — the
/// price of observing what actually ran instead of what was declared.
#[derive(Debug, Serialize, Deserialize)]
struct TelemetryNumbers {
    /// Median scripted-source tick, ms (signature from declared weights).
    tick_scripted_ms: f64,
    /// Median measured-source tick, ms (simulate the stream under the
    /// deployed layout, fold the run, derive the signature, observe).
    tick_measured_ms: f64,
}

/// Migration-schedule numbers on the tiered-downgrade family (four
/// index-free tables on the five-class catalog, hot table overpaying on
/// H-SSD): the wave-packed makespan against the sequential copy it
/// replaces, plus the same plan re-packed under an in-flight SLA of 0.32
/// — the committed golden's extra-wave scenario.
#[derive(Debug, Serialize, Deserialize)]
struct SchedulerNumbers {
    /// Transfer steps in the plan.
    steps: usize,
    /// Waves after unconstrained next-fit packing.
    waves: usize,
    /// Wall-clock of the packed schedule (max transfer per wave, summed).
    makespan_seconds: f64,
    /// What the same steps cost copied one at a time.
    sequential_seconds: f64,
    /// Waves once `sla_during_migration = 0.32` splits the packed wave.
    sla_waves: usize,
    /// Makespan under that in-flight SLA (≥ the unconstrained makespan,
    /// ≤ the sequential copy).
    sla_makespan_seconds: f64,
    /// Median wall time of one scheduled replan, ms (plan + pack + both
    /// feasibility estimates).
    replan_scheduled_ms: f64,
}

/// Replan reuse on a supervised fleet whose flash-crowd traces repeat
/// their `scale` steps: triggered ticks answered from a controller's
/// replan memo (`hits`) against replans solved (`misses`).
#[derive(Debug, Serialize, Deserialize)]
struct FleetNumbers {
    tenants: usize,
    triggers: usize,
    hit_rate: f64,
    hits: u64,
    misses: u64,
}

/// `dot-serve` daemon throughput: concurrent quiescent observe ticks over
/// TCP, every tenant on its own connection.
#[derive(Debug, Serialize, Deserialize)]
struct DaemonNumbers {
    /// Concurrently attached tenants (one connection and thread each).
    tenants: usize,
    /// Observe ticks replayed across all tenants in one sample.
    ticks: u64,
    /// Aggregate tick rate, the median over [`SAMPLES`] samples of
    /// `ticks / wall seconds` while all tenants streamed concurrently —
    /// transport, framing, and registry locking included.
    observe_ticks_per_sec: f64,
    /// The slowest sample's rate (absent from files of one sample).
    #[serde(default)]
    observe_ticks_per_sec_min: Option<f64>,
    /// The fastest sample's rate (absent from files of one sample).
    #[serde(default)]
    observe_ticks_per_sec_max: Option<f64>,
}

/// Registry restore latency: how long a restarted daemon takes to bring a
/// persisted multi-tenant snapshot back to serving — the recovery cost a
/// crash or rolling restart pays before clients can resume by tenant id.
#[derive(Debug, Serialize, Deserialize)]
struct RestoreNumbers {
    /// Tenants in the persisted snapshot.
    tenants: usize,
    /// Median wall time for `Registry::open` to parse the snapshot and
    /// rebuild every tenant's controller at its checkpoint (re-resolving
    /// the problem, no re-solving).
    restore_ms: f64,
}

/// Write volume of the registry's durability points: bytes written to
/// the state directory (journal appends and manifest compactions) over a
/// window of applied migrations, per migration. A count, not a timing: it
/// moves only with the encoded sizes (the wall-clock `elapsed_ms` field
/// can add a digit).
#[derive(Debug, Serialize, Deserialize)]
struct DurabilityCell {
    /// Attached tenants, each migrating once per round.
    tenants: usize,
    /// Applied migrations in the window.
    applied: usize,
    /// Bytes written over the window, per applied migration.
    bytes_per_applied_tick: f64,
}

/// One (conformance family, solver) cell of the pruning comparison. The
/// pruned and estimate-everything medians are per sweep, from samples
/// taken interleaved ([`paired_median_ms`]), every estimate priced through
/// the family's session plan memo as a solve prices it.
#[derive(Debug, Serialize, Deserialize)]
struct PruningCell {
    family: String,
    solver: String,
    layouts_investigated: usize,
    layouts_pruned: usize,
    median_ms_pruned: f64,
    /// `None` for the additive ES, whose suffix bound has no off switch.
    median_ms_unpruned: Option<f64>,
}

/// Interleaved samples per pruned-vs-unpruned comparison.
const PAIRED_SAMPLES: usize = 15;
/// Each timed sample is a batch of calls lasting at least this long, so
/// scheduler jitter averages out of sub-millisecond calls.
const PAIRED_BATCH_MS: f64 = 5.0;

/// Median per-sweep ms of `a` and of `b`, sampled interleaved: each sample
/// times a batch of `a` and a batch of `b`, alternating which runs first,
/// so a slow stretch of the machine lands on both sides of the comparison.
fn paired_median_ms(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    // One warmup run each, which also sizes the batch.
    let reps = batch_reps(batch_ms(&mut a, 1).max(batch_ms(&mut b, 1)));
    let (mut a_ms, mut b_ms) = (Vec::new(), Vec::new());
    for sample in 0..PAIRED_SAMPLES {
        if sample % 2 == 0 {
            a_ms.push(batch_ms(&mut a, reps));
            b_ms.push(batch_ms(&mut b, reps));
        } else {
            b_ms.push(batch_ms(&mut b, reps));
            a_ms.push(batch_ms(&mut a, reps));
        }
    }
    (median(a_ms), median(b_ms))
}

/// Median per-call ms of `f` over [`SAMPLES`] samples, each a batch of
/// calls lasting at least [`PAIRED_BATCH_MS`] (a warmup call sizes it), so
/// a sub-millisecond call is not one scheduler hiccup away from doubling.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let reps = batch_reps(batch_ms(&mut f, 1));
    median((0..SAMPLES).map(|_| batch_ms(&mut f, reps)).collect())
}

/// Per-call ms of `reps` back-to-back calls of `f`.
fn batch_ms(f: &mut dyn FnMut(), reps: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Calls per batch for a call lasting `call_ms`: enough to fill
/// [`PAIRED_BATCH_MS`].
fn batch_reps(call_ms: f64) -> usize {
    (PAIRED_BATCH_MS / call_ms.max(1e-6))
        .ceil()
        .clamp(1.0, 10_000.0) as usize
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|x, y| x.partial_cmp(y).expect("finite sample"));
    samples[samples.len() / 2]
}

/// The hot-path medians, on the controller/replan bench fixture (TPC-C,
/// day/night phase flip).
fn measure_hot_paths() -> HotPaths {
    let schema = tpcc::schema(4.0);
    let pool = catalog::box2();
    let day = drift::analytical_phase(&schema);
    let night = tpcc::workload(&schema);
    let deployed = Advisor::builder(&schema, &pool, &day)
        .sla(0.5)
        .build()
        .expect("day session")
        .recommend("dot")
        .expect("day layout")
        .layout;

    let cold_solve_ms = median_ms(|| {
        black_box(
            Advisor::builder(&schema, &pool, &night)
                .sla(0.5)
                .build()
                .expect("session")
                .recommend("dot")
                .expect("re-provision"),
        );
    });

    let warm_advisor = Advisor::builder(&schema, &pool, &night)
        .sla(0.5)
        .build()
        .expect("warm session");
    let warm_replan_ms = median_ms(|| {
        black_box(warm_advisor.replan(&deployed).expect("replan"));
    });

    // Quiescent tick: below-threshold drift against a layout deployed for
    // the night baseline, watched by the incremental controller (the first
    // tick anchors, the timed ticks ride the delta).
    let night_deployed = warm_advisor.recommend("dot").expect("night layout").layout;
    let noisy = drift::shift_read_write(&night, 0.05);
    let mut supervisor = Controller::new(
        &schema,
        &pool,
        &night,
        night_deployed.clone(),
        0.5,
        ControllerConfig::default(),
    )
    .expect("controller opens");
    let first = supervisor.observe(&noisy).expect("first tick");
    assert!(!first.triggered(), "noise must not trigger");
    let tick_quiescent_ms = median_ms(|| {
        black_box(supervisor.observe(&noisy).expect("tick"));
    });

    // The same tick as a daemon takes it from an `Observe` frame: begin
    // the step, then tick it in place.
    let mut stepper = Controller::new(
        &schema,
        &pool,
        &night,
        night_deployed.clone(),
        0.5,
        ControllerConfig::default(),
    )
    .expect("controller opens");
    let step = TraceStep {
        shift: Some(0.05),
        ..TraceStep::default()
    };
    stepper.begin_step(&step).expect("valid step");
    let first = stepper.tick_step().expect("first step tick");
    assert!(!first.triggered(), "noise must not trigger");
    let tick_step_ms = median_ms(|| {
        stepper.begin_step(&step).expect("valid step");
        black_box(stepper.tick_step().expect("step tick"));
    });

    // What that tick used to pay: two full estimates of the observed
    // problem — the deployed layout and the premium reference.
    let observed = Problem::new(
        &schema,
        &pool,
        &noisy,
        SlaSpec::relative(0.5),
        EngineConfig::oltp(),
    );
    let premium = observed.premium_layout();
    let tick_two_full_estimates_ms = median_ms(|| {
        black_box(toc::estimate_toc(&observed, &night_deployed));
        black_box(toc::estimate_toc(&observed, &premium));
    });

    HotPaths {
        cold_solve_ms,
        warm_replan_ms,
        tick_quiescent_ms,
        tick_step_ms: Some(tick_step_ms),
        tick_two_full_estimates_ms,
        decode_observe_us: Some(measure_decode_observe_us()),
        profile_ms: Some(measure_profile_ms()),
        refined_solve_ms: Some(measure_refined_solve_ms()),
    }
}

/// Profiling from estimates, as a fresh session pays for it: tpcc:16 on the
/// full pool (125 baselines), a new memo per call.
fn measure_profile_ms() -> f64 {
    let (schema, workload) = presets::database("tpcc:16").expect("preset");
    let pool = catalog::full_pool();
    let cfg = presets::engine(None, &workload).expect("engine");
    median_ms(|| {
        let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
        black_box(profile_workload(&memo, ProfileSource::Estimate));
    })
}

/// A solve whose first validation fails: tpch:1:original on the full pool
/// re-profiles from a test run and sweeps again. The session is warm, so
/// the cell times the solve, the refinement round included.
fn measure_refined_solve_ms() -> f64 {
    let (schema, workload) = presets::database("tpch:1:original").expect("preset");
    let pool = catalog::full_pool();
    let advisor = Advisor::builder(&schema, &pool, &workload)
        .build()
        .expect("session");
    let rec = advisor.recommend("dot").expect("recommendation");
    assert!(
        rec.provenance.refinement_rounds >= 1,
        "the refined-solve cell must refine"
    );
    median_ms(|| {
        black_box(advisor.recommend("dot").expect("recommendation"));
    })
}

/// The decode of a quiescent tenant's `Observe` line, shaped like the
/// replay benchmark's: `dot_serve::framing::parse_request` on the line.
fn measure_decode_observe_us() -> f64 {
    use dot_serve::framing::parse_request;
    use dot_serve::protocol::{Request, RequestFrame};
    let line = serde_json::to_string(&RequestFrame {
        id: 123_457,
        request: Request::Observe {
            tenant: 17,
            step: TraceStep {
                scale: Some(1.082_341_257_913_4),
                ..TraceStep::default()
            },
        },
    })
    .expect("frame encodes");
    let decode_ms = median_ms(|| {
        black_box(parse_request(black_box(&line)).expect("frame decodes"));
    });
    decode_ms * 1e3
}

/// Telemetry-tick medians on the TPC-C fixture: the same sub-threshold
/// noisy observation, once with the declared signature (scripted path) and
/// once measured — a seeded test run simulated under the deployed layout
/// each tick, folded into a `MeasuredProfile`, its signature handed to
/// `observe_with_signature`. Both controllers anchor so every timed tick
/// is quiescent (the steady-state telemetry regime; a trigger would time
/// the replanner instead).
fn measure_telemetry() -> TelemetryNumbers {
    use dot_workloads::telemetry::{MeasuredSource, ScriptedSource};

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
    let noisy = drift::shift_read_write(&baseline, 0.02);

    let mut scripted = Controller::new(
        &schema,
        &pool,
        &baseline,
        deployed.clone(),
        0.5,
        ControllerConfig::default(),
    )
    .expect("controller opens");
    let first = scripted
        .run_source(&mut ScriptedSource::new(vec![noisy.clone()]))
        .expect("first tick");
    assert!(!first[0].triggered(), "noise must not trigger");
    let tick_scripted_ms = median_ms(|| {
        let mut source = ScriptedSource::new(vec![noisy.clone()]);
        let outcomes = scripted.run_source(&mut source).expect("tick");
        assert!(!outcomes[0].triggered(), "noise must not trigger");
        black_box(outcomes);
    });

    // The measured controller anchors on the measured baseline, so the
    // declared-vs-measured weighting gap does not score as drift; each
    // timed tick simulates under a fresh seed (seeded noise wobble stays
    // far below the threshold).
    let source = MeasuredSource::new(&schema, &pool, Vec::new(), 0);
    let mut measured = Controller::new(
        &schema,
        &pool,
        &baseline,
        deployed.clone(),
        0.5,
        ControllerConfig::default(),
    )
    .expect("controller opens")
    .with_baseline_signature(source.measure(&noisy, &deployed, 0).signature());
    let mut tick_seed = 0u64;
    let mut observe_measured = |seed: u64| {
        let profile = source.measure(&noisy, &deployed, seed);
        measured
            .observe_with_signature(&noisy, profile.signature())
            .expect("tick")
    };
    let first = observe_measured(0);
    assert!(!first.triggered(), "the measured baseline must stay quiet");
    let tick_measured_ms = median_ms(|| {
        tick_seed += 1;
        let outcome = observe_measured(tick_seed);
        assert!(!outcome.triggered(), "seeded wobble must not trigger");
        black_box(outcome);
    });

    TelemetryNumbers {
        tick_scripted_ms,
        tick_measured_ms,
    }
}

/// Scheduled-vs-sequential migration numbers on the tiered-downgrade
/// family — the same fixture `tests/schedule_golden.rs` pins. The
/// unconstrained plan must pack transfers onto disjoint device lanes and
/// beat the sequential copy; the 0.32 in-flight SLA splits the packed
/// wave and pushes the makespan back toward (never past) sequential.
fn measure_scheduler() -> SchedulerNumbers {
    use dot_core::replan::{MigrationBudget, ReplanOptions};
    use dot_dbms::query::{QuerySpec, ReadOp, Rel, ScanSpec};
    use dot_dbms::{Layout, SchemaBuilder};
    use dot_storage::ClassId;
    use dot_workloads::Workload;

    let mut b = SchemaBuilder::new("tiered");
    for (name, rows, bytes) in [
        ("hot", 800_000.0, 120.0),
        ("warm", 1_200_000.0, 120.0),
        ("cool", 2_000_000.0, 120.0),
        ("cold", 3_000_000.0, 120.0),
    ] {
        b = b.table(name, rows, bytes);
    }
    let schema = b.build();
    let weights = [400.0, 60.0, 6.0, 1.0];
    let queries = schema
        .tables()
        .iter()
        .zip(weights)
        .map(|(t, w)| {
            QuerySpec::read(
                &format!("scan_{}", t.name),
                ReadOp::of(Rel::Scan(ScanSpec::full(t.id))),
            )
            .with_weight(w)
        })
        .collect();
    let workload = Workload::dss("tiered", queries);
    let pool = catalog::full_pool();
    let current = Layout::from_assignment(vec![ClassId(4), ClassId(2), ClassId(3), ClassId(0)]);

    let advisor = Advisor::builder(&schema, &pool, &workload)
        .sla(0.4)
        .build()
        .expect("tiered session");
    let unconstrained = advisor
        .replan_scheduled(&current, "dot", &ReplanOptions::default())
        .expect("unconstrained schedule");
    let sla_opts = ReplanOptions {
        budget: MigrationBudget::unbounded(),
        sla_during_migration: Some(0.32),
    };
    let constrained = advisor
        .replan_scheduled(&current, "dot", &sla_opts)
        .expect("SLA-constrained schedule");

    let replan_scheduled_ms = median_ms(|| {
        black_box(
            advisor
                .replan_scheduled(&current, "dot", &sla_opts)
                .expect("scheduled replan"),
        );
    });

    let sched = &unconstrained.plan.schedule;
    let sla_sched = &constrained.plan.schedule;
    assert_eq!(
        unconstrained.plan.final_layout, constrained.plan.final_layout,
        "the in-flight SLA must change the packing, never the destination"
    );
    SchedulerNumbers {
        steps: unconstrained.plan.steps.len(),
        waves: sched.waves.len(),
        makespan_seconds: sched.makespan_seconds,
        sequential_seconds: sched.sequential_seconds,
        sla_waves: sla_sched.waves.len(),
        sla_makespan_seconds: sla_sched.makespan_seconds,
        replan_scheduled_ms,
    }
}

/// Four TPC-C tenants, each supervised over a flash crowd that recurs
/// three times: a crowd that returns at a scale a tenant already replanned
/// for, on the layout it then ran, is answered from the controller's
/// replan memo instead of being re-solved.
fn measure_fleet() -> FleetNumbers {
    let schema = tpcc::schema(2.0);
    let pool = catalog::box2();
    let workload = tpcc::workload(&schema);
    let deployed = Advisor::builder(&schema, &pool, &workload)
        .sla(0.5)
        .build()
        .expect("baseline session")
        .recommend("dot")
        .expect("baseline layout")
        .layout;
    let tenants: Vec<SuperviseTenantRequest> = [3.0, 4.0, 6.0, 8.0]
        .iter()
        .enumerate()
        .map(|(t, &peak)| {
            let crowd = dot_core::traces::flash_crowd(peak, 4, 2, 2).expect("valid crowd");
            SuperviseTenantRequest {
                name: format!("crowd-{t}"),
                pool: pool.clone(),
                schema: schema.clone(),
                workload: workload.clone(),
                sla: 0.5,
                solver: None,
                engine: None,
                refinements: None,
                current_layout: deployed.clone(),
                trace: crowd
                    .iter()
                    .cloned()
                    .cycle()
                    .take(3 * crowd.len())
                    .collect(),
                controller: None,
            }
        })
        .collect();
    let report = supervise_fleet(
        &tenants,
        &FleetConfig::default(),
        &ControllerConfig::default(),
    );
    assert_eq!(report.totals.tenants_supervised, tenants.len());
    FleetNumbers {
        tenants: tenants.len(),
        triggers: report.totals.triggers,
        hit_rate: report.cache.hit_rate(),
        hits: report.cache.hits,
        misses: report.cache.misses,
    }
}

/// Concurrent observe-tick throughput through the `dot-serve` daemon: an
/// in-process server on an ephemeral port, 8 tenants on 8 connections,
/// each replaying sub-threshold drift ticks (the steady-state serving
/// regime — quiescent incremental re-estimation, no migrations). The
/// clock covers the full stack:
/// JSON framing, the worker pool, per-tenant locking, and the tick itself.
fn measure_daemon() -> DaemonNumbers {
    use dot_serve::framing::write_frame;
    use dot_serve::protocol::{ProblemSpec, Request, RequestFrame, Response, ResponseFrame};
    use dot_serve::{Server, ServerConfig};
    use std::io::{BufRead, BufReader};
    use std::net::{SocketAddr, TcpStream};

    const TENANTS: usize = 8;
    const TICKS_PER_TENANT: u64 = 32;

    let server = Server::bind(ServerConfig {
        listen: Some("127.0.0.1:0".to_owned()),
        workers: TENANTS,
        ..ServerConfig::default()
    })
    .expect("daemon binds");
    let addr = server.local_addr().expect("tcp addr");
    let run = std::thread::spawn(move || server.run().expect("daemon runs"));

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
        next_id: u64,
    }
    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            Client {
                reader: BufReader::new(stream.try_clone().expect("clone")),
                writer: stream,
                next_id: 1,
            }
        }
        fn send(&mut self, request: Request) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            write_frame(&mut self.writer, &RequestFrame { id, request }).expect("send");
            id
        }
        fn recv(&mut self) -> ResponseFrame {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("recv");
            serde_json::from_str(line.trim()).expect("response frame")
        }
        /// One observe tick: drain the streamed events to `ObserveDone`.
        fn tick(&mut self, tenant: u64, step: &TraceStep) {
            self.send(Request::Observe {
                tenant,
                step: step.clone(),
            });
            loop {
                match self.recv().response {
                    Response::Event { .. } => {}
                    Response::ObserveDone { .. } => return,
                    other => panic!("observe: {other:?}"),
                }
            }
        }
    }

    let spec: ProblemSpec =
        serde_json::from_str(r#"{ "pool": "box2", "database": "tpcc:2", "sla": 0.5 }"#)
            .expect("problem spec");
    let step = TraceStep {
        shift: Some(0.02),
        scale: None,
        phase: None,
        repeat: Some(1),
    };

    // Attach (and anchor with one untimed warmup tick) before the clock
    // starts, so the measured window is pure steady-state serving.
    let mut clients: Vec<(Client, u64)> = (0..TENANTS)
        .map(|i| {
            let mut client = Client::connect(addr);
            client.send(Request::AttachTenant {
                name: Some(format!("bench-{i}")),
                problem: spec.clone(),
                deployed: None,
                controller: None,
            });
            let tenant = match client.recv().response {
                Response::Attached { tenant, .. } => tenant,
                other => panic!("attach: {other:?}"),
            };
            client.tick(tenant, &step);
            (client, tenant)
        })
        .collect();

    let ticks = TENANTS as u64 * TICKS_PER_TENANT;
    let mut rates = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let workers: Vec<_> = clients
            .drain(..)
            .map(|(mut client, tenant)| {
                let step = step.clone();
                std::thread::spawn(move || {
                    for _ in 0..TICKS_PER_TENANT {
                        client.tick(tenant, &step);
                    }
                    (client, tenant)
                })
            })
            .collect();
        clients = workers
            .into_iter()
            .map(|w| w.join().expect("tenant thread"))
            .collect();
        rates.push(ticks as f64 / start.elapsed().as_secs_f64().max(1e-9));
    }
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rate"));

    let (mut control, _) = clients.pop().expect("a client remains");
    control.send(Request::Shutdown);
    match control.recv().response {
        Response::ShuttingDown { tenants } => assert_eq!(tenants.len(), TENANTS),
        other => panic!("shutdown: {other:?}"),
    }
    run.join().expect("daemon unwinds");

    DaemonNumbers {
        tenants: TENANTS,
        ticks,
        observe_ticks_per_sec: rates[rates.len() / 2],
        observe_ticks_per_sec_min: rates.first().copied(),
        observe_ticks_per_sec_max: rates.last().copied(),
    }
}

/// Restore latency: persist an 8-tenant registry snapshot (the daemon
/// throughput fixture's spec), then time `Registry::open` cold-starting
/// from it — snapshot parse, problem re-resolution, and per-tenant
/// controller reconstruction at the checkpointed layout, with no solver
/// sweep on the restore path.
fn measure_restore() -> RestoreNumbers {
    use dot_serve::protocol::ProblemSpec;
    use dot_serve::registry::RegistryConfig;
    use dot_serve::Registry;

    const TENANTS: usize = 8;

    let state_dir =
        std::env::temp_dir().join(format!("dot-distill-restore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let config = RegistryConfig {
        state_dir: Some(state_dir.clone()),
        ..RegistryConfig::default()
    };

    let spec: ProblemSpec =
        serde_json::from_str(r#"{ "pool": "box2", "database": "tpcc:2", "sla": 0.5 }"#)
            .expect("problem spec");
    let registry = Registry::open(config.clone()).expect("registry opens");
    for i in 0..TENANTS {
        registry
            .attach(Some(format!("restore-{i}")), &spec, None, None)
            .expect("attach");
    }
    let (flushed, durability) = registry.flush_all();
    assert_eq!(flushed.len(), TENANTS);
    durability.expect("the snapshot reaches the disk");
    drop(registry);

    let restore_ms = median_ms(|| {
        let restored = Registry::open(config.clone()).expect("registry restores");
        let (tenants, _, _) = restored.stats();
        assert_eq!(tenants, TENANTS, "every tenant restores");
        black_box(restored);
    });

    let _ = std::fs::remove_dir_all(&state_dir);
    RestoreNumbers {
        tenants: TENANTS,
        restore_ms,
    }
}

/// Bytes the registry persists per applied migration, at each of
/// [`DURABILITY_TENANTS`].
fn measure_durability() -> Vec<DurabilityCell> {
    DURABILITY_TENANTS
        .iter()
        .map(|&n| durability_cell(n))
        .collect()
}

/// Attach `tenants` TPC-C tenants to a persisting registry, then flip every
/// tenant between the analytical phase and its baseline for a few rounds
/// (the flip trajectory's controller knobs, so each flip applies one
/// migration) and count the bytes written to the state directory. The
/// window spans several compactions at both tenant counts, so their
/// amortized share is in the number.
fn durability_cell(tenants: usize) -> DurabilityCell {
    use dot_serve::protocol::ProblemSpec;
    use dot_serve::registry::RegistryConfig;
    use dot_serve::Registry;

    /// Migrations per tenant in the window.
    const ROUNDS: usize = 8;

    let state_dir = std::env::temp_dir().join(format!(
        "dot-distill-durability-{tenants}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&state_dir);
    let registry = Registry::open(RegistryConfig {
        state_dir: Some(state_dir.clone()),
        ..RegistryConfig::default()
    })
    .expect("registry opens");
    let spec: ProblemSpec =
        serde_json::from_str(r#"{ "pool": "box2", "database": "tpcc:2", "sla": 0.5 }"#)
            .expect("problem spec");
    let layout = registry.provision(&spec, None).expect("provision").layout;
    let config = ControllerConfig {
        cooldown_ticks: 2,
        ..ControllerConfig::default()
    };
    let ids: Vec<u64> = (0..tenants)
        .map(|i| {
            registry
                .attach(
                    Some(format!("durable-{i}")),
                    &spec,
                    Some(layout.clone()),
                    Some(config.clone()),
                )
                .expect("attach")
                .0
        })
        .collect();
    let phase = |phase: &str| TraceStep {
        shift: None,
        scale: None,
        phase: Some(phase.to_owned()),
        repeat: Some(3),
    };
    let flips = [phase("analytical"), phase("baseline")];
    let before = registry.bytes_persisted();
    let mut applied = 0;
    for round in 0..ROUNDS {
        for &id in &ids {
            let counters = registry
                .observe(id, &flips[round % 2], &mut |_| Ok(()))
                .unwrap_or_else(|_| panic!("tenant {id} observes"));
            counters.durability.expect("the migration reaches the disk");
            if round + 1 == ROUNDS {
                applied += counters.applications;
            }
        }
    }
    let bytes = registry.bytes_persisted() - before;
    drop(registry);
    let _ = std::fs::remove_dir_all(&state_dir);
    assert!(
        applied >= tenants * ROUNDS,
        "every flip applies a migration ({applied} applied)"
    );
    DurabilityCell {
        tenants,
        applied,
        bytes_per_applied_tick: bytes as f64 / applied as f64,
    }
}

/// Pruned vs. estimate-everything sweeps on the four conformance families
/// (`crates/core/tests/solver_conformance.rs` fixtures).
fn measure_pruning() -> Vec<PruningCell> {
    /// Full ES is only timed where the enumeration is small enough to
    /// sample repeatedly.
    const ES_TIMED_LAYOUTS: f64 = 10_000.0;

    let pool = catalog::box2();
    let families: Vec<(&str, dot_dbms::Schema, dot_workloads::Workload, f64)> = vec![
        {
            let s = tpch::subset_schema(1.0);
            let w = tpch::subset_workload(&s);
            ("tpch", s, w, 0.5)
        },
        {
            let s = tpcc::schema(5.0);
            let w = tpcc::workload(&s);
            ("tpcc", s, w, 0.25)
        },
        {
            let s = ycsb::schema(2_000_000.0);
            let w = ycsb::workload(&s, ycsb::YcsbMix::B, 300);
            ("ycsb", s, w, 0.25)
        },
        {
            let s = synth::bench_schema(5_000_000.0, 120.0);
            let w = synth::mixed_workload(&s);
            ("synth", s, w, 0.5)
        },
    ];

    let mut cells = Vec::new();
    for (family, schema, workload, sla) in &families {
        let cfg = match workload.metric {
            PerfMetric::ResponseTime => EngineConfig::dss(),
            PerfMetric::Throughput => EngineConfig::oltp(),
        };
        let p = Problem::new(schema, &pool, workload, SlaSpec::relative(*sla), cfg);
        let cons = constraints::derive(&p);
        // Every cell prices through one session memo, as a solve does.
        let memo = PlanMemo::new(&workload.queries, schema, &pool, &p.cfg);
        let prof = profile_workload(&memo, ProfileSource::Estimate);
        let estimator = Estimator::direct().memoized(&memo);

        let out = dot::optimize_with_pruning(&p, &prof, &cons, &estimator, true);
        let (pruned_ms, unpruned_ms) = paired_median_ms(
            || {
                black_box(dot::optimize_with_pruning(
                    &p, &prof, &cons, &estimator, true,
                ));
            },
            || {
                black_box(dot::optimize_with_pruning(
                    &p, &prof, &cons, &estimator, false,
                ));
            },
        );
        cells.push(PruningCell {
            family: (*family).to_owned(),
            solver: "dot".to_owned(),
            layouts_investigated: out.layouts_investigated,
            layouts_pruned: out.layouts_pruned,
            median_ms_pruned: pruned_ms,
            median_ms_unpruned: Some(unpruned_ms),
        });

        let space = (pool.len() as f64).powf(schema.object_count() as f64);
        if space <= ES_TIMED_LAYOUTS {
            let out = exhaustive::exhaustive_search_with_pruning(&p, &cons, &estimator, true);
            let (pruned_ms, unpruned_ms) = paired_median_ms(
                || {
                    black_box(exhaustive::exhaustive_search_with_pruning(
                        &p, &cons, &estimator, true,
                    ));
                },
                || {
                    black_box(exhaustive::exhaustive_search_with_pruning(
                        &p, &cons, &estimator, false,
                    ));
                },
            );
            cells.push(PruningCell {
                family: (*family).to_owned(),
                solver: "es".to_owned(),
                layouts_investigated: out.layouts_investigated,
                layouts_pruned: out.layouts_pruned,
                median_ms_pruned: pruned_ms,
                median_ms_unpruned: Some(unpruned_ms),
            });
        }

        if workload.metric == PerfMetric::Throughput {
            let out = exhaustive::exhaustive_search_additive_with(&p, &prof, &cons, &estimator)
                .expect("the conformance families fit the additive ES budget");
            cells.push(PruningCell {
                family: (*family).to_owned(),
                solver: "es-additive".to_owned(),
                layouts_investigated: out.layouts_investigated,
                layouts_pruned: out.layouts_pruned,
                median_ms_pruned: median_ms(|| {
                    black_box(
                        exhaustive::exhaustive_search_additive_with(&p, &prof, &cons, &estimator)
                            .expect("within budget"),
                    );
                }),
                median_ms_unpruned: None,
            });
        }
    }
    cells
}

fn distill(path: &str) {
    let trajectory = Trajectory {
        schema_version: 11,
        pr: 27,
        samples: SAMPLES,
        hot_paths: measure_hot_paths(),
        telemetry: measure_telemetry(),
        scheduler: measure_scheduler(),
        fleet: measure_fleet(),
        daemon: measure_daemon(),
        restore: measure_restore(),
        durability: Some(measure_durability()),
        pruning: measure_pruning(),
    };
    let json = serde_json::to_string_pretty(&trajectory).expect("trajectory serializes");
    std::fs::write(path, json + "\n").expect("trajectory written");
    println!("distill: wrote {path}");
    summarize(&trajectory);
}

fn summarize(t: &Trajectory) {
    let h = &t.hot_paths;
    println!(
        "distill: cold solve {:.1} ms, warm replan {:.2} ms, quiescent tick {:.4} ms \
         (two-full-estimate tick {:.3} ms, {:.0}x; step tick {:.4} ms); \
         Observe line decode {:.3} us; profile {:.3} ms, refined solve {:.3} ms",
        h.cold_solve_ms,
        h.warm_replan_ms,
        h.tick_quiescent_ms,
        h.tick_two_full_estimates_ms,
        h.tick_two_full_estimates_ms / h.tick_quiescent_ms.max(1e-9),
        h.tick_step_ms.unwrap_or(f64::NAN),
        h.decode_observe_us.unwrap_or(f64::NAN),
        h.profile_ms.unwrap_or(f64::NAN),
        h.refined_solve_ms.unwrap_or(f64::NAN),
    );
    println!(
        "distill: telemetry tick {:.4} ms scripted vs {:.4} ms measured ({:.1}x)",
        t.telemetry.tick_scripted_ms,
        t.telemetry.tick_measured_ms,
        t.telemetry.tick_measured_ms / t.telemetry.tick_scripted_ms.max(1e-9),
    );
    let s = &t.scheduler;
    println!(
        "distill: schedule {} steps in {} wave(s) — makespan {:.1} s vs {:.1} s \
         sequential; SLA 0.32 repacks to {} wave(s) at {:.1} s \
         (scheduled replan {:.2} ms)",
        s.steps,
        s.waves,
        s.makespan_seconds,
        s.sequential_seconds,
        s.sla_waves,
        s.sla_makespan_seconds,
        s.replan_scheduled_ms,
    );
    println!(
        "distill: fleet replan reuse {} of {} triggers ({:.1}%) over {} tenants",
        t.fleet.hits,
        t.fleet.triggers,
        t.fleet.hit_rate * 100.0,
        t.fleet.tenants
    );
    let d = &t.daemon;
    match (d.observe_ticks_per_sec_min, d.observe_ticks_per_sec_max) {
        (Some(min), Some(max)) => println!(
            "distill: daemon {:.0} observe ticks/s (samples {:.0}-{:.0}) over {} concurrent \
             tenants ({} ticks each)",
            d.observe_ticks_per_sec, min, max, d.tenants, d.ticks
        ),
        _ => println!(
            "distill: daemon {:.0} observe ticks/s over {} concurrent tenants ({} ticks)",
            d.observe_ticks_per_sec, d.tenants, d.ticks
        ),
    }
    println!(
        "distill: registry restore {:.1} ms for {} persisted tenants",
        t.restore.restore_ms, t.restore.tenants
    );
    for c in t.durability.iter().flatten() {
        println!(
            "distill: {:.0} bytes persisted per applied migration at {} tenants ({} applied)",
            c.bytes_per_applied_tick, c.tenants, c.applied
        );
    }
    for c in &t.pruning {
        match c.median_ms_unpruned {
            Some(unpruned) => println!(
                "distill: {}/{} pruned {}/{} — {:.2} ms vs {:.2} ms unpruned",
                c.family,
                c.solver,
                c.layouts_pruned,
                c.layouts_investigated,
                c.median_ms_pruned,
                unpruned
            ),
            None => println!(
                "distill: {}/{} pruned {}/{} — {:.2} ms (bound always on)",
                c.family, c.solver, c.layouts_pruned, c.layouts_investigated, c.median_ms_pruned
            ),
        }
    }
}

fn check(path: &str) {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => fail(&format!("cannot read {path}: {e}")),
    };
    let t: Trajectory = match serde_json::from_str(&raw) {
        Ok(t) => t,
        Err(e) => fail(&format!("{path} does not parse as a trajectory: {e}")),
    };
    let h = &t.hot_paths;
    for (name, v) in [
        ("cold_solve_ms", h.cold_solve_ms),
        ("warm_replan_ms", h.warm_replan_ms),
        ("tick_quiescent_ms", h.tick_quiescent_ms),
        ("tick_two_full_estimates_ms", h.tick_two_full_estimates_ms),
    ] {
        if !v.is_finite() || v <= 0.0 {
            fail(&format!("{path}: {name} = {v} is not a positive median"));
        }
    }
    // Cells added after the first schema: required from their schema on.
    for (name, value, since) in [
        ("tick_step_ms", h.tick_step_ms, 9),
        ("decode_observe_us", h.decode_observe_us, 10),
        ("profile_ms", h.profile_ms, 11),
        ("refined_solve_ms", h.refined_solve_ms, 11),
    ] {
        match value {
            Some(v) if !v.is_finite() || v <= 0.0 => {
                fail(&format!("{path}: {name} = {v} is not a positive median"))
            }
            None if t.schema_version >= since => fail(&format!(
                "{path}: schema {} must carry hot_paths.{name}",
                t.schema_version
            )),
            _ => {}
        }
    }
    if h.tick_quiescent_ms >= h.tick_two_full_estimates_ms {
        fail(&format!(
            "{path}: quiescent tick ({} ms) must undercut the two-full-estimate \
             tick it replaced ({} ms)",
            h.tick_quiescent_ms, h.tick_two_full_estimates_ms
        ));
    }
    let tel = &t.telemetry;
    for (name, v) in [
        ("tick_scripted_ms", tel.tick_scripted_ms),
        ("tick_measured_ms", tel.tick_measured_ms),
    ] {
        if !v.is_finite() || v <= 0.0 {
            fail(&format!("{path}: {name} = {v} is not a positive median"));
        }
    }
    // A measured tick simulates a test run the scripted tick skips; it may
    // never be meaningfully *cheaper* than the scripted path (the 0.8
    // factor is machine-noise headroom on sub-millisecond medians).
    if tel.tick_measured_ms < tel.tick_scripted_ms * 0.8 {
        fail(&format!(
            "{path}: measured telemetry tick ({} ms) undercuts the scripted \
             tick ({} ms) — the simulation cost went missing",
            tel.tick_measured_ms, tel.tick_scripted_ms
        ));
    }
    let s = &t.scheduler;
    if s.steps == 0 || s.waves == 0 || s.sla_waves == 0 {
        fail(&format!(
            "{path}: the scheduler trajectory must pack a non-empty plan \
             ({} steps, {} waves, {} SLA waves)",
            s.steps, s.waves, s.sla_waves
        ));
    }
    for (name, v) in [
        ("makespan_seconds", s.makespan_seconds),
        ("sequential_seconds", s.sequential_seconds),
        ("sla_makespan_seconds", s.sla_makespan_seconds),
        ("replan_scheduled_ms", s.replan_scheduled_ms),
    ] {
        if !v.is_finite() || v <= 0.0 {
            fail(&format!("{path}: scheduler {name} = {v} is not positive"));
        }
    }
    // The scheduler's whole promise: packing may only shrink the wall
    // clock, and an in-flight SLA may only give some of that shrink back.
    let tol = 1e-9 * s.sequential_seconds.max(1.0);
    if s.makespan_seconds > s.sequential_seconds + tol {
        fail(&format!(
            "{path}: scheduled makespan ({} s) exceeds the sequential copy \
             ({} s)",
            s.makespan_seconds, s.sequential_seconds
        ));
    }
    if s.sla_makespan_seconds > s.sequential_seconds + tol {
        fail(&format!(
            "{path}: SLA-constrained makespan ({} s) exceeds the sequential \
             copy ({} s)",
            s.sla_makespan_seconds, s.sequential_seconds
        ));
    }
    if s.sla_waves < s.waves {
        fail(&format!(
            "{path}: the in-flight SLA must never merge waves ({} < {})",
            s.sla_waves, s.waves
        ));
    }
    // The replan memo's whole promise: a trace that repeats its inputs
    // reuses answers, and every trigger is either reused or solved.
    let f = &t.fleet;
    if f.hits == 0 {
        fail(&format!(
            "{path}: a supervised fleet repeating its traces reused no replans"
        ));
    }
    if f.hits + f.misses != f.triggers as u64 {
        fail(&format!(
            "{path}: {} reused + {} solved replans do not add up to {} triggers",
            f.hits, f.misses, f.triggers
        ));
    }
    let d = &t.daemon;
    if d.tenants == 0 || d.ticks == 0 {
        fail(&format!(
            "{path}: daemon trajectory must replay ticks over attached tenants \
             ({} tenants, {} ticks)",
            d.tenants, d.ticks
        ));
    }
    if !d.observe_ticks_per_sec.is_finite() || d.observe_ticks_per_sec <= 0.0 {
        fail(&format!(
            "{path}: daemon observe_ticks_per_sec = {} is not a positive rate",
            d.observe_ticks_per_sec
        ));
    }
    if let (Some(min), Some(max)) = (d.observe_ticks_per_sec_min, d.observe_ticks_per_sec_max) {
        if !(min <= d.observe_ticks_per_sec && d.observe_ticks_per_sec <= max) {
            fail(&format!(
                "{path}: daemon median {} ticks/s lies outside its samples' range {min}-{max}",
                d.observe_ticks_per_sec
            ));
        }
    }
    if let Some(cells) = &t.durability {
        let per_tick = |tenants: usize| match cells.iter().find(|c| c.tenants == tenants) {
            Some(c) if c.applied > 0 && c.bytes_per_applied_tick > 0.0 => c.bytes_per_applied_tick,
            _ => fail(&format!(
                "{path}: no durability cell with applied migrations at {tenants} tenants"
            )),
        };
        let [small, large] = DURABILITY_TENANTS;
        let (few, many) = (per_tick(small), per_tick(large));
        if many > few * DURABILITY_GROWTH_TOLERANCE {
            fail(&format!(
                "{path}: {many} bytes persisted per applied migration at {large} tenants \
                 against {few} at {small}: the cost grows with the tenant count"
            ));
        }
    }
    let r = &t.restore;
    if r.tenants == 0 {
        fail(&format!(
            "{path}: the restore trajectory must cover persisted tenants"
        ));
    }
    if !r.restore_ms.is_finite() || r.restore_ms <= 0.0 {
        fail(&format!(
            "{path}: restore_ms = {} is not a positive median",
            r.restore_ms
        ));
    }
    if t.pruning.is_empty() {
        fail(&format!("{path}: no pruning cells recorded"));
    }
    let mut families: Vec<&str> = t.pruning.iter().map(|c| c.family.as_str()).collect();
    families.sort_unstable();
    families.dedup();
    let grand_total: usize = t.pruning.iter().map(|c| c.layouts_pruned).sum();
    if grand_total == 0 {
        fail(&format!(
            "{path}: zero pruned candidates across every conformance workload"
        ));
    }
    for family in families {
        let cells = || t.pruning.iter().filter(|c| c.family == family);
        let total: usize = cells().map(|c| c.layouts_pruned).sum();
        let widest = cells().map(|c| c.layouts_investigated).max().unwrap_or(0);
        if total == 0 && widest > NONTRIVIAL_INVESTIGATED {
            fail(&format!(
                "{path}: conformance family {family} investigated {widest} \
                 candidates but pruned zero"
            ));
        }
    }
    if let Some((previous, before)) = previous_trajectory(path) {
        for c in &t.pruning {
            let Some(b) = before
                .pruning
                .iter()
                .find(|b| b.family == c.family && b.solver == c.solver)
            else {
                continue;
            };
            if (c.layouts_investigated, c.layouts_pruned)
                != (b.layouts_investigated, b.layouts_pruned)
            {
                fail(&format!(
                    "{path}: {}/{} investigated {} and pruned {} layouts, against {} and {} \
                     in {previous}",
                    c.family,
                    c.solver,
                    c.layouts_investigated,
                    c.layouts_pruned,
                    b.layouts_investigated,
                    b.layouts_pruned
                ));
            }
        }
    }
    for c in &t.pruning {
        if let Some(unpruned) = c.median_ms_unpruned {
            if c.median_ms_pruned <= SLOWDOWN_NOISE_FLOOR_MS {
                continue;
            }
            if c.median_ms_pruned > unpruned * PRUNED_SLOWDOWN_TOLERANCE {
                fail(&format!(
                    "{path}: {}/{} pruned sweep ({} ms) is slower than the \
                     estimate-everything sweep ({} ms) beyond tolerance",
                    c.family, c.solver, c.median_ms_pruned, unpruned
                ));
            }
        }
    }
    println!("check: {path} ok");
    summarize(&t);
}

/// The `BENCH_<pr>.json` in the working directory that precedes `path`:
/// the one with the largest number below `path`'s own, or the largest of
/// all when `path` is not named `BENCH_<pr>.json` (a fresh distillation).
/// `None` when there is none, or it does not parse.
fn previous_trajectory(path: &str) -> Option<(String, Trajectory)> {
    let number = |name: &str| -> Option<u32> {
        name.strip_prefix("BENCH_")?
            .strip_suffix(".json")?
            .parse()
            .ok()
    };
    let own = std::path::Path::new(path)
        .file_name()
        .and_then(|name| number(name.to_str()?))
        .unwrap_or(u32::MAX);
    let previous = std::fs::read_dir(".")
        .ok()?
        .filter_map(|entry| number(entry.ok()?.file_name().to_str()?))
        .filter(|&n| n < own)
        .max()?;
    let name = format!("BENCH_{previous}.json");
    let raw = std::fs::read_to_string(&name).ok()?;
    Some((name, serde_json::from_str(&raw).ok()?))
}

fn fail(msg: &str) -> ! {
    eprintln!("distill: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        None => distill(DEFAULT_PATH),
        Some((flag, rest)) if flag == "--out" => match rest {
            [path] => distill(path),
            _ => fail("--out takes exactly one path"),
        },
        Some((flag, rest)) if flag == "--check" => match rest {
            [] => check(DEFAULT_PATH),
            [path] => check(path),
            _ => fail("--check takes at most one path"),
        },
        Some((flag, _)) => fail(&format!("unknown flag {flag} (use --out or --check)")),
    }
}

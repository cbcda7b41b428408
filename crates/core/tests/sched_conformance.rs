//! Conformance contract of the migration scheduler (ISSUE 10):
//!
//! * waves partition the admitted steps into **contiguous runs**, in
//!   admission order;
//! * within a wave every transfer holds disjoint lanes — replaying the
//!   schedule through [`TransferLanes`] claims every step's class set
//!   without a single rejection;
//! * the makespan is the sum of the wave critical paths, never exceeds
//!   the sequential copy time, and the sequential time is the plain sum
//!   of the transfers;
//! * the scheduled plan lands on the **same final layout** as the
//!   unscheduled planner — packing changes time, never placement;
//! * an in-flight SLA can only *split* waves (monotone makespan), and on
//!   the tiered-downgrade family a ratio of 0.32 demonstrably forces an
//!   extra wave while keeping the final layout bit-identical;
//! * schedules are bit-identical on a fresh session and on a repeat over
//!   one session.
//!
//! Families: the TPC-C drift flip on the two-class box and on the full
//! five-class catalog (serial schedules — every step shares a lane), and
//! a four-table "tiered downgrade" on the full catalog whose moves use
//! pairwise-disjoint lanes (parallel waves, makespan < sequential).

use dot_core::advisor::Advisor;
use dot_core::replan::{MigrationBudget, ReplanOptions, ReplanRecommendation};
use dot_dbms::query::{QuerySpec, ReadOp, Rel, ScanSpec};
use dot_dbms::{Layout, SchemaBuilder};
use dot_storage::{catalog, ClassId, StoragePool, TransferLanes};
use dot_workloads::{drift, tpcc, Workload};

/// Four index-free tables with steeply tiered scan heat. Index-free keeps
/// every object group a singleton, so each migration step occupies exactly
/// one `(source, target)` lane pair — the geometry parallel waves need.
fn tiered_schema() -> dot_dbms::Schema {
    let mut b = SchemaBuilder::new("tiered");
    for (name, rows, bytes) in [
        ("hot", 800_000.0, 120.0),
        ("warm", 1_200_000.0, 120.0),
        ("cool", 2_000_000.0, 120.0),
        ("cold", 3_000_000.0, 120.0),
    ] {
        b = b.table(name, rows, bytes);
    }
    b.build()
}

fn tiered_workload(schema: &dot_dbms::Schema) -> Workload {
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
    Workload::dss("tiered", queries)
}

/// The deployed layout of the tiered-downgrade family: the hot table
/// overpays on H-SSD, the rest sit scattered below it. The solver's
/// target (`[1, 0, 1, 0]` — striped HDD for the scanned tables, plain
/// HDD for the rest) shares no class with two of the three moves, so the
/// schedule genuinely overlaps.
fn tiered_deployed() -> Layout {
    Layout::from_assignment(vec![ClassId(4), ClassId(2), ClassId(3), ClassId(0)])
}

struct Family {
    name: &'static str,
    schema: dot_dbms::Schema,
    pool: StoragePool,
    workload: Workload,
    current: Layout,
    sla: f64,
}

fn families() -> Vec<Family> {
    let tpcc_schema = tpcc::schema(2.0);
    let mut out = Vec::new();
    for (name, pool) in [
        ("tpcc-flip-box2", catalog::box2()),
        ("tpcc-flip-full", catalog::full_pool()),
    ] {
        let before = drift::analytical_phase(&tpcc_schema);
        let current = Advisor::builder(&tpcc_schema, &pool, &before)
            .sla(0.5)
            .build()
            .expect("session")
            .recommend("dot")
            .expect("analytical deployment")
            .layout;
        out.push(Family {
            name,
            schema: tpcc_schema.clone(),
            pool,
            workload: tpcc::workload(&tpcc_schema),
            current,
            sla: 0.5,
        });
    }
    let schema = tiered_schema();
    let workload = tiered_workload(&schema);
    out.push(Family {
        name: "tiered-downgrade",
        schema,
        pool: catalog::full_pool(),
        workload,
        current: tiered_deployed(),
        sla: 0.4,
    });
    out
}

fn replan(family: &Family, opts: &ReplanOptions) -> ReplanRecommendation {
    Advisor::builder(&family.schema, &family.pool, &family.workload)
        .sla(family.sla)
        .build()
        .expect("session")
        .replan_scheduled(&family.current, "dot", opts)
        .expect("scheduled replan")
}

/// Every structural invariant a schedule must keep, for any plan.
fn assert_schedule_invariants(family: &Family, rec: &ReplanRecommendation) {
    let plan = &rec.plan;
    let sched = &plan.schedule;
    let n = plan.steps.len();

    // Waves partition the steps into contiguous runs, in order.
    let flattened: Vec<usize> = sched.waves.iter().flat_map(|w| w.steps.clone()).collect();
    assert_eq!(
        flattened,
        (0..n).collect::<Vec<_>>(),
        "{}: waves must partition the steps contiguously",
        family.name
    );
    assert!(
        sched.waves.iter().all(|w| !w.steps.is_empty()),
        "{}: no empty waves",
        family.name
    );

    // Within a wave, lanes are disjoint: replaying the schedule through
    // the occupancy tracker claims every class set without a rejection.
    for (wi, wave) in sched.waves.iter().enumerate() {
        let mut lanes = TransferLanes::new(family.pool.len());
        let mut critical = 0.0f64;
        let mut residency = 0.0f64;
        for &si in &wave.steps {
            let step = &plan.steps[si];
            let mut classes: Vec<ClassId> = step.from.clone();
            classes.extend(step.mv.placement.iter().copied());
            assert!(
                lanes.try_claim_set(&classes),
                "{}: wave {wi} step {si} collides on a lane",
                family.name
            );
            critical = critical.max(step.transfer_seconds);
            residency += step.toc_delta_cents_per_hour.max(0.0);
        }
        assert!(
            (wave.seconds - critical).abs() <= 1e-9 * critical.max(1.0),
            "{}: wave {wi} seconds {} != critical path {critical}",
            family.name,
            wave.seconds
        );
        assert!(
            wave.inflight_rate_cents_per_hour >= 0.0 && residency.is_finite(),
            "{}: wave {wi} in-flight rate must be a finite rate",
            family.name
        );
    }

    // Makespan is the sum of wave critical paths; sequential is the plain
    // sum; packing can only shrink the wall clock.
    let wave_sum: f64 = sched.waves.iter().map(|w| w.seconds).sum();
    let step_sum: f64 = plan.steps.iter().map(|s| s.transfer_seconds).sum();
    let tol = 1e-9 * step_sum.max(1.0);
    assert!(
        (sched.makespan_seconds - wave_sum).abs() <= tol,
        "{}: makespan {} != wave sum {wave_sum}",
        family.name,
        sched.makespan_seconds
    );
    assert!(
        (sched.sequential_seconds - step_sum).abs() <= tol,
        "{}: sequential {} != step sum {step_sum}",
        family.name,
        sched.sequential_seconds
    );
    assert!(
        sched.makespan_seconds <= sched.sequential_seconds + tol,
        "{}: makespan {} exceeds sequential {}",
        family.name,
        sched.makespan_seconds,
        sched.sequential_seconds
    );

    // Replaying the moves lands exactly on the plan's final layout.
    let mut running = family.current.clone();
    for step in &plan.steps {
        running = step.mv.apply(&running);
    }
    assert_eq!(
        running, plan.final_layout,
        "{}: steps must replay to the final layout",
        family.name
    );
}

#[test]
fn every_family_schedules_within_the_sequential_envelope() {
    for family in families() {
        let rec = replan(&family, &ReplanOptions::default());
        assert!(
            !rec.plan.steps.is_empty(),
            "{}: the family must migrate",
            family.name
        );
        assert_schedule_invariants(&family, &rec);
    }
}

#[test]
fn scheduling_never_changes_the_final_layout() {
    for family in families() {
        let advisor = Advisor::builder(&family.schema, &family.pool, &family.workload)
            .sla(family.sla)
            .build()
            .unwrap();
        let plain = advisor.replan(&family.current).unwrap();
        let scheduled = advisor
            .replan_scheduled(&family.current, "dot", &ReplanOptions::default())
            .unwrap();
        assert_eq!(
            plain.plan.final_layout, scheduled.plan.final_layout,
            "{}: packing must not move the destination",
            family.name
        );
        assert_eq!(
            plain.plan.steps, scheduled.plan.steps,
            "{}: packing must not reorder or drop steps",
            family.name
        );
    }
}

#[test]
fn the_tiered_family_overlaps_transfers_on_disjoint_lanes() {
    let family = families().pop().expect("tiered family");
    assert_eq!(family.name, "tiered-downgrade");
    let rec = replan(&family, &ReplanOptions::default());
    let sched = &rec.plan.schedule;
    assert!(
        sched.waves.iter().any(|w| w.steps.len() >= 2),
        "the tiered family must pack at least one multi-transfer wave, got {:?}",
        sched.waves
    );
    assert!(
        sched.makespan_seconds < sched.sequential_seconds,
        "overlap must beat the sequential copy: {} vs {}",
        sched.makespan_seconds,
        sched.sequential_seconds
    );
}

#[test]
fn an_inflight_sla_forces_an_extra_wave_on_the_tiered_family() {
    let family = families().pop().expect("tiered family");
    let free = replan(&family, &ReplanOptions::default());
    let constrained = replan(
        &family,
        &ReplanOptions {
            budget: MigrationBudget::unbounded(),
            sla_during_migration: Some(0.32),
        },
    );
    assert_schedule_invariants(&family, &constrained);
    assert!(
        constrained.plan.schedule.waves.len() > free.plan.schedule.waves.len(),
        "r=0.32 must split the packed wave: {} vs {} waves",
        constrained.plan.schedule.waves.len(),
        free.plan.schedule.waves.len()
    );
    assert!(
        constrained.plan.schedule.makespan_seconds >= free.plan.schedule.makespan_seconds,
        "splitting can only stretch the makespan"
    );
    assert_eq!(
        constrained.plan.final_layout, free.plan.final_layout,
        "the SLA changes the packing, never the destination"
    );
}

#[test]
fn inflight_sla_ratios_keep_the_makespan_monotone() {
    let family = families().pop().expect("tiered family");
    let mut last = 0.0f64;
    // Tighter ratios can only split more; makespan grows monotonically
    // until the ratio turns infeasible.
    for r in [0.25, 0.3, 0.32, 0.34] {
        let rec = replan(
            &family,
            &ReplanOptions {
                budget: MigrationBudget::unbounded(),
                sla_during_migration: Some(r),
            },
        );
        assert_schedule_invariants(&family, &rec);
        assert!(
            rec.plan.schedule.makespan_seconds >= last - 1e-9,
            "r={r}: makespan {} regressed below {last}",
            rec.plan.schedule.makespan_seconds
        );
        last = rec.plan.schedule.makespan_seconds;
    }
}

#[test]
fn schedules_are_bit_identical_across_sessions_and_repeats() {
    fn strip(mut rec: ReplanRecommendation) -> ReplanRecommendation {
        rec.target.provenance.elapsed_ms = 0;
        rec
    }
    let opts = ReplanOptions {
        budget: MigrationBudget::unbounded(),
        sla_during_migration: Some(0.32),
    };
    let family = families().pop().expect("tiered family");
    let session = || {
        Advisor::builder(&family.schema, &family.pool, &family.workload)
            .sla(family.sla)
            .build()
            .unwrap()
    };
    let first = session();
    let once = strip(
        first
            .replan_scheduled(&family.current, "dot", &opts)
            .unwrap(),
    );
    let again = strip(
        first
            .replan_scheduled(&family.current, "dot", &opts)
            .unwrap(),
    );
    let fresh = strip(
        session()
            .replan_scheduled(&family.current, "dot", &opts)
            .unwrap(),
    );
    assert_eq!(once, again, "repeat on one session");
    assert_eq!(once, fresh, "fresh session");
}

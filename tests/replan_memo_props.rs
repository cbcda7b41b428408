//! The controller's replan memo, checked by independent re-derivation.
//!
//! A flash crowd that recurs drives a TPC-C controller through triggered
//! ticks that repeat an (observed workload, deployed layout) pair it has
//! already replanned. On every triggered tick the controller's answer —
//! solved or reused — must equal a fresh `Advisor::replan_with` built
//! outside the controller for the same observation and deployed layout
//! (wall-clock provenance zeroed). The shared counters must account for
//! every trigger, and a resumed controller must re-solve.

use dot_core::advisor::Advisor;
use dot_core::controller::{expand_trace, CachedEstimator, Controller, ControllerConfig};
use dot_core::replan::ReplanRecommendation;
use dot_core::traces;
use dot_dbms::{Layout, Schema};
use dot_storage::{catalog, StoragePool};
use dot_workloads::{tpcc, Workload};
use std::sync::Arc;

const SLA: f64 = 0.5;

struct Fixture {
    schema: Schema,
    pool: StoragePool,
    baseline: Workload,
    deployed: Layout,
    /// Three passes of one flash crowd: every pass repeats the first's
    /// `scale` steps exactly.
    trace: Vec<Workload>,
}

fn fixture() -> Fixture {
    let schema = tpcc::schema(2.0);
    let pool = catalog::box2();
    let baseline = tpcc::workload(&schema);
    let deployed = Advisor::builder(&schema, &pool, &baseline)
        .sla(SLA)
        .build()
        .expect("baseline session")
        .recommend("dot")
        .expect("baseline layout")
        .layout;
    let crowd = traces::flash_crowd(4.0, 4, 2, 2).expect("valid crowd");
    let steps: Vec<_> = crowd
        .iter()
        .cloned()
        .cycle()
        .take(3 * crowd.len())
        .collect();
    let trace = expand_trace(&schema, &baseline, &steps).expect("trace expands");
    Fixture {
        schema,
        pool,
        baseline,
        deployed,
        trace,
    }
}

fn controller(f: &Fixture, counters: &Arc<CachedEstimator>) -> Controller {
    Controller::new(
        &f.schema,
        &f.pool,
        &f.baseline,
        f.deployed.clone(),
        SLA,
        ControllerConfig::default(),
    )
    .expect("controller opens")
    .with_toc_cache(Arc::clone(counters))
}

fn strip(mut rec: ReplanRecommendation) -> ReplanRecommendation {
    rec.target.provenance.elapsed_ms = 0;
    rec
}

/// The replan a fresh session derives for `observed` on `deployed`.
fn fresh_replan(f: &Fixture, observed: &Workload, deployed: &Layout) -> ReplanRecommendation {
    let config = ControllerConfig::default();
    let advisor = Advisor::builder(&f.schema, &f.pool, observed)
        .sla(SLA)
        .build()
        .expect("fresh session");
    strip(
        advisor
            .replan_with(deployed, &config.solver, &config.budget)
            .expect("fresh replan"),
    )
}

#[test]
fn every_triggered_tick_equals_a_fresh_replan_and_repeats_are_reused() {
    let f = fixture();
    let counters = Arc::new(CachedEstimator::new());
    let mut c = controller(&f, &counters);
    let mut triggered = 0u64;
    for (tick, observed) in f.trace.iter().enumerate() {
        let deployed = c.deployed().clone();
        let outcome = c.observe(observed).expect("tick");
        if let Some(rec) = outcome.replan {
            triggered += 1;
            assert_eq!(
                strip(rec),
                fresh_replan(&f, observed, &deployed),
                "tick {tick}: the controller's replan differs from a fresh one"
            );
        }
        let stats = counters.stats();
        assert!(
            stats.entries as u64 <= stats.misses,
            "tick {tick}: {stats:?}"
        );
    }
    let stats = counters.stats();
    assert!(stats.hits > 0, "a recurring crowd must reuse: {stats:?}");
    assert_eq!(
        stats.hits + stats.misses,
        triggered,
        "every trigger is reused or solved"
    );
    drop(c);
    assert_eq!(
        counters.stats().entries,
        0,
        "a dropped controller's answers leave"
    );
}

#[test]
fn the_first_repeat_after_a_checkpoint_resume_is_solved_again() {
    let f = fixture();
    // An uninterrupted run finds the first reused tick.
    let counters = Arc::new(CachedEstimator::new());
    let mut reference = controller(&f, &counters);
    let mut outcomes = Vec::new();
    let mut first_reuse = None;
    for (tick, observed) in f.trace.iter().enumerate() {
        let hits = counters.stats().hits;
        outcomes.push(reference.observe(observed).expect("tick"));
        if first_reuse.is_none() && counters.stats().hits > hits {
            first_reuse = Some(tick);
        }
    }
    let reuse = first_reuse.expect("the recurring crowd reuses a replan");

    // A controller resumed from its own checkpoint just before that tick
    // has forgotten its answers: the same tick solves, with the same
    // events and replan.
    let counters = Arc::new(CachedEstimator::new());
    let mut resumed = controller(&f, &counters);
    for observed in &f.trace[..reuse] {
        resumed.observe(observed).expect("tick");
    }
    let before = counters.stats();
    let checkpoint = resumed.checkpoint();
    let mut resumed = resumed
        .with_checkpoint(&checkpoint)
        .expect("checkpoint resumes");
    assert_eq!(counters.stats().entries, 0, "resuming empties the memo");
    let outcome = resumed.observe(&f.trace[reuse]).expect("tick");
    let after = counters.stats();
    assert_eq!(after.hits, before.hits, "the repeat must not be reused");
    assert_eq!(after.misses, before.misses + 1, "the repeat is solved");
    assert_eq!(outcome.events, outcomes[reuse].events);
    assert_eq!(
        outcome.replan.map(strip),
        outcomes[reuse].replan.clone().map(strip)
    );
}

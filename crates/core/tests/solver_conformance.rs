//! Solver-conformance matrix: every entry in the builtin registry is held
//! to the same contract on every workload family the repo ships — TPC-H
//! (DSS/response time), TPC-C (OLTP/throughput), YCSB (key-value
//! throughput), and the synthetic mixed workload. Each cell of the matrix
//! runs the solver on two sessions over the same request and asserts —
//!
//! * deterministic: the first run, a repeat on the same session (its
//!   templates already compiled), and a run on a fresh session agree on
//!   every field except wall-clock;
//! * honest: every returned layout satisfies the session constraints
//!   (capacity + SLA) and carries a bill that sums to its layout cost;
//! * typed: a solver that cannot answer fails with `Infeasible` or
//!   `UnsupportedWorkload`, never a panic or an unknown-id error;
//! * ordered: ES (optimal where it runs) never loses to DOT, and DOT never
//!   loses to the best feasible simple layout / Object Advisor;
//! * frugal: each session computes its workload profile once.

use dot_core::advisor::{Advisor, ProvisionError, Recommendation};
use dot_storage::catalog;
use dot_workloads::{synth, tpcc, tpch, ycsb, PerfMetric};

/// Strip the only field allowed to differ between runs: wall-clock.
fn normalized(mut rec: Recommendation) -> Recommendation {
    rec.provenance.elapsed_ms = 0;
    rec
}

/// The §4.2 comparison points: simple layouts plus the Object Advisor.
const BASELINE_IDS: [&str; 7] = [
    "all-hssd",
    "all-lssd",
    "all-hdd",
    "all-premium",
    "all-cheapest",
    "index-split",
    "oa",
];

/// Run the full registry over one workload family on two sessions, assert
/// the per-cell contract, and return the feasible
/// recommendations by solver id.
fn run_matrix_family(
    family: &str,
    schema: &dot_dbms::Schema,
    pool: &dot_storage::StoragePool,
    workload: &dot_workloads::Workload,
    sla: f64,
) -> Vec<(String, Recommendation)> {
    let uncached = Advisor::builder(schema, pool, workload)
        .sla(sla)
        .build()
        .expect("well-formed request");
    let fresh = Advisor::builder(schema, pool, workload)
        .sla(sla)
        .build()
        .expect("well-formed request");

    let mut feasible = Vec::new();
    for id in uncached.solver_ids() {
        let cell = format!("{family}/{id}");
        let off = uncached.recommend(&id);
        let cold = fresh.recommend(&id);
        let warm = uncached.recommend(&id);
        match (off, cold, warm) {
            (Ok(off), Ok(cold), Ok(warm)) => {
                // The headline: only wall-clock may differ between runs.
                let off = normalized(off);
                assert_eq!(off, normalized(cold), "{cell}: fresh session diverged");
                assert_eq!(off, normalized(warm), "{cell}: repeat run diverged");

                let problem = uncached.problem();
                assert!(
                    uncached
                        .constraints()
                        .satisfied(problem, &off.layout, &off.estimate)
                        // The relaxation solver answers for a looser SLA; it
                        // must still fit and meet the SLA it reports.
                        || off.provenance.final_sla < problem.sla.ratio,
                    "{cell}: returned layout violates the constraints"
                );
                assert!(
                    off.layout.fits(problem.schema, problem.pool),
                    "{cell}: layout exceeds capacity"
                );
                let billed: f64 = off.bill.iter().map(|l| l.cents_per_hour).sum();
                assert!(
                    (billed - off.estimate.layout_cost_cents_per_hour).abs() < 1e-9,
                    "{cell}: bill sums to {billed}, layout costs {}",
                    off.estimate.layout_cost_cents_per_hour
                );
                assert_eq!(
                    off.provenance.solver, id,
                    "{cell}: provenance names {}",
                    off.provenance.solver
                );
                assert!(off.provenance.layouts_investigated >= 1);
                feasible.push((id, off));
            }
            (Err(off), Err(cold), Err(warm)) => {
                assert_eq!(off.kind(), cold.kind(), "{cell}: fresh error kind differs");
                assert_eq!(off.kind(), warm.kind(), "{cell}: repeat error kind differs");
                assert!(
                    matches!(
                        off,
                        ProvisionError::Infeasible { .. }
                            | ProvisionError::UnsupportedWorkload { .. }
                    ),
                    "{cell}: unexpected error {off}"
                );
            }
            (off, cold, warm) => panic!(
                "{cell}: feasibility flapped across runs \
                 (first={}, fresh={}, repeat={})",
                if off.is_ok() { "ok" } else { "err" },
                if cold.is_ok() { "ok" } else { "err" },
                if warm.is_ok() { "ok" } else { "err" },
            ),
        }
    }

    // Frugality: each session profiled once for the whole registry.
    assert_eq!(uncached.profile_builds(), 1, "{family}: profile once");
    assert_eq!(fresh.profile_builds(), 1, "{family}: profile once");

    // Ordering per cell (§4.4.3): every exhaustive anchor that ran beats
    // or ties DOT, and DOT never loses to the best feasible baseline.
    let objective = |id: &str| -> Option<f64> {
        feasible
            .iter()
            .find(|(i, _)| i == id)
            .map(|(_, r)| r.estimate.objective_cents)
    };
    let dot = objective("dot").unwrap_or_else(|| panic!("{family}: DOT must be feasible"));
    let mut anchors = 0;
    // The literal enumeration is the true optimum: its bound is exact (up
    // to float noise). The additive branch-and-bound is exact only up to
    // its planner-verification slack, hence the 0.1% tolerance.
    for (anchor, tolerance) in [("es", 1e-9), ("es-additive", dot * 0.001)] {
        if let Some(es) = objective(anchor) {
            anchors += 1;
            assert!(
                es <= dot + tolerance,
                "{family}: {anchor} {es} must not lose to DOT {dot}"
            );
        }
    }
    assert!(anchors >= 1, "{family}: no exhaustive anchor ran");
    let baseline = feasible
        .iter()
        .filter(|(id, _)| BASELINE_IDS.contains(&id.as_str()))
        .map(|(_, r)| r.estimate.objective_cents)
        .min_by(|a, b| a.partial_cmp(b).expect("finite objectives"))
        .expect("premium is always feasible");
    assert!(
        dot <= baseline + 1e-9,
        "{family}: DOT {dot} must not lose to the best baseline {baseline}"
    );
    // The premium reference is always feasible by construction.
    assert!(feasible.iter().any(|(id, _)| id == "all-premium"));
    feasible
}

#[test]
fn matrix_tpch_response_time() {
    let schema = tpch::subset_schema(1.0);
    let workload = tpch::subset_workload(&schema);
    assert_eq!(workload.metric, PerfMetric::ResponseTime);
    let feasible = run_matrix_family("tpch", &schema, &catalog::box2(), &workload, 0.5);
    // The 8-object subset is within full ES reach: the true optimum anchors
    // this cell.
    assert!(feasible.iter().any(|(id, _)| id == "es"));
}

#[test]
fn matrix_tpcc_throughput() {
    let schema = tpcc::schema(5.0);
    let workload = tpcc::workload(&schema);
    assert_eq!(workload.metric, PerfMetric::Throughput);
    let feasible = run_matrix_family("tpcc", &schema, &catalog::box2(), &workload, 0.25);
    // 3^19 layouts: the literal ES must have refused, leaving the additive
    // branch-and-bound as the cell's optimality anchor.
    assert!(feasible.iter().all(|(id, _)| id != "es"));
    assert!(feasible.iter().any(|(id, _)| id == "es-additive"));
}

#[test]
fn matrix_ycsb_throughput() {
    let schema = ycsb::schema(2_000_000.0);
    let workload = ycsb::workload(&schema, ycsb::YcsbMix::B, 300);
    assert_eq!(workload.metric, PerfMetric::Throughput);
    run_matrix_family("ycsb", &schema, &catalog::box2(), &workload, 0.25);
}

#[test]
fn matrix_synth_mixed() {
    let schema = synth::bench_schema(5_000_000.0, 120.0);
    let workload = synth::mixed_workload(&schema);
    run_matrix_family("synth", &schema, &catalog::box2(), &workload, 0.5);
}

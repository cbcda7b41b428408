//! Serializable evaluation records shared by the experiment harness, the
//! examples, and EXPERIMENTS.md generation.

use crate::constraints::Constraints;
use crate::problem::Problem;
use crate::toc::{measure_toc, Estimator, TocEstimate};
use dot_dbms::Layout;
use serde::{Deserialize, Serialize};

/// Evaluation of one labelled layout against a problem and its constraints —
/// one bar/point of the paper's figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutEvaluation {
    /// Layout label ("All H-SSD", "DOT Box2", ...).
    pub label: String,
    /// `C(L)` in cents/hour.
    pub layout_cost_cents_per_hour: f64,
    /// Workload response time in seconds (one stream pass).
    pub response_time_s: f64,
    /// Throughput in tasks/hour.
    pub throughput_tasks_per_hour: f64,
    /// TOC in cents per workload pass.
    pub toc_cents_per_pass: f64,
    /// TOC in cents per task.
    pub toc_cents_per_task: f64,
    /// The optimizer's objective in cents (C·t for DSS; C·1h for OLTP).
    pub objective_cents: f64,
    /// Performance satisfaction ratio, percent (§4.3).
    pub psr_percent: f64,
    /// Share of joins planned as indexed nested-loop joins, percent.
    pub inlj_percent: f64,
    /// Object-name → class-name placement (for Fig 4/6- and Table 3-style
    /// reports).
    pub placements: Vec<(String, String)>,
}

fn build(
    problem: &Problem<'_>,
    cons: &Constraints,
    label: &str,
    layout: &Layout,
    est: TocEstimate,
) -> LayoutEvaluation {
    LayoutEvaluation {
        label: label.to_owned(),
        layout_cost_cents_per_hour: est.layout_cost_cents_per_hour,
        response_time_s: est.stream_time_ms / 1000.0,
        throughput_tasks_per_hour: est.throughput_tasks_per_hour,
        toc_cents_per_pass: est.toc_cents_per_pass,
        toc_cents_per_task: est.toc_cents_per_task,
        objective_cents: est.objective_cents,
        psr_percent: cons.psr(&est) * 100.0,
        inlj_percent: est.plan_stats.inlj_share() * 100.0,
        placements: layout.describe(problem.schema, problem.pool),
    }
}

/// Evaluate a layout with planner estimates.
pub fn evaluate(
    problem: &Problem<'_>,
    cons: &Constraints,
    label: &str,
    layout: &Layout,
) -> LayoutEvaluation {
    evaluate_with(problem, cons, label, layout, &Estimator::direct())
}

/// [`evaluate`] with an explicit TOC estimator, so sessions price from
/// their compiled templates.
pub fn evaluate_with(
    problem: &Problem<'_>,
    cons: &Constraints,
    label: &str,
    layout: &Layout,
    toc: &Estimator<'_>,
) -> LayoutEvaluation {
    let est = toc.estimate(problem, layout);
    build(problem, cons, label, layout, est)
}

/// Evaluate a layout with a simulated test run (measured numbers, as the
/// paper's figures report).
pub fn evaluate_measured(
    problem: &Problem<'_>,
    cons: &Constraints,
    label: &str,
    layout: &Layout,
    seed: u64,
) -> LayoutEvaluation {
    let est = measure_toc(problem, layout, seed);
    build(problem, cons, label, layout, est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints;
    use dot_dbms::EngineConfig;
    use dot_storage::catalog;
    use dot_workloads::{synth, SlaSpec};

    #[test]
    fn evaluation_reports_complete_record() {
        let s = synth::bench_schema(2_000_000.0, 120.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let cons = constraints::derive(&p);
        let e = evaluate(&p, &cons, "All H-SSD", &p.premium_layout());
        assert_eq!(e.label, "All H-SSD");
        assert!((e.psr_percent - 100.0).abs() < 1e-9);
        assert_eq!(e.placements.len(), s.object_count());
        assert!(e.toc_cents_per_pass > 0.0);
        // Serializes cleanly.
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("All H-SSD"));
    }

    #[test]
    fn measured_evaluation_differs_but_is_close() {
        let s = synth::bench_schema(2_000_000.0, 120.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let cons = constraints::derive(&p);
        let l = p.premium_layout();
        let est = evaluate(&p, &cons, "x", &l);
        let meas = evaluate_measured(&p, &cons, "x", &l, 1);
        // Caching makes measured runs at most marginally slower and usually
        // faster.
        assert!(meas.response_time_s <= est.response_time_s * 1.05);
    }
}

//! Workload and SLA specifications (§2.3, §2.4, §4.3 of the paper).

use dot_dbms::query::QuerySpec;
use dot_dbms::Schema;
use serde::{Deserialize, Serialize};

/// The performance metric a workload's SLA is expressed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PerfMetric {
    /// Per-query response-time caps (the paper's TPC-H workloads).
    ResponseTime,
    /// Aggregate throughput floor in tasks/hour (the paper's TPC-C
    /// workload, where the task is a NewOrder transaction).
    Throughput,
}

/// A workload `W`: `c` identical concurrent streams of a query sequence
/// (§2.3), plus the metadata needed to evaluate its SLA and TOC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Display name.
    pub name: String,
    /// The per-stream query sequence. Repetitions are expressed through each
    /// query's `weight`.
    pub queries: Vec<QuerySpec>,
    /// Degree of concurrency `c`: identical streams running simultaneously.
    pub concurrency: u32,
    /// SLA metric for this workload.
    pub metric: PerfMetric,
    /// Number of *tasks* completed by one pass of one stream — the unit of
    /// the paper's throughput `T(L, W)` in tasks/hour. For TPC-C this counts
    /// NewOrder transactions (the tpmC convention); for DSS it counts
    /// queries.
    pub tasks_per_stream: f64,
}

impl Workload {
    /// Build a single-stream response-time workload (DSS convention).
    pub fn dss(name: &str, queries: Vec<QuerySpec>) -> Self {
        let tasks: f64 = queries.iter().map(|q| q.weight).sum();
        Workload {
            name: name.to_owned(),
            queries,
            concurrency: 1,
            metric: PerfMetric::ResponseTime,
            tasks_per_stream: tasks,
        }
    }

    /// Build a throughput workload of `concurrency` identical streams.
    pub fn oltp(
        name: &str,
        queries: Vec<QuerySpec>,
        concurrency: u32,
        tasks_per_stream: f64,
    ) -> Self {
        Workload {
            name: name.to_owned(),
            queries,
            concurrency,
            metric: PerfMetric::Throughput,
            tasks_per_stream,
        }
    }

    /// Total queries per stream (weights included).
    pub fn queries_per_stream(&self) -> f64 {
        self.queries.iter().map(|q| q.weight).sum()
    }

    /// Convert one stream's elapsed time into workload throughput in
    /// tasks/hour: all `c` streams progress in parallel.
    pub fn throughput_tasks_per_hour(&self, stream_time_ms: f64) -> f64 {
        if stream_time_ms <= 0.0 {
            return 0.0;
        }
        let passes_per_hour = 3_600_000.0 / stream_time_ms;
        self.concurrency as f64 * self.tasks_per_stream * passes_per_hour
    }

    /// Workload execution time `t(L, W)` in hours for one pass of every
    /// stream, given one stream's elapsed time. Streams run concurrently, so
    /// a pass of the workload takes one stream-time.
    pub fn execution_hours(&self, stream_time_ms: f64) -> f64 {
        stream_time_ms / 3_600_000.0
    }

    /// Validate all queries against a schema-independent contract.
    pub fn validate(&self, _schema: &Schema) -> Result<(), String> {
        if self.queries.is_empty() {
            return Err(format!("workload {}: no queries", self.name));
        }
        if self.concurrency == 0 {
            return Err(format!("workload {}: zero concurrency", self.name));
        }
        for q in &self.queries {
            q.validate()?;
        }
        if !(self.tasks_per_stream.is_finite() && self.tasks_per_stream > 0.0) {
            return Err(format!(
                "workload {}: tasks per stream must be positive and finite",
                self.name
            ));
        }
        Ok(())
    }
}

/// The paper's *relative SLA* (§4.3): a layout must deliver at least
/// `ratio` of the performance achieved with all objects on the premium
/// class. `ratio = 0.5` ⇒ response times may at most double (DSS) or
/// throughput at most halve (OLTP) versus the all-H-SSD baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlaSpec {
    /// The relative performance floor in `(0, 1]`.
    pub ratio: f64,
}

impl SlaSpec {
    /// Construct, validating the domain.
    pub fn relative(ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "relative SLA must be in (0,1]");
        SlaSpec { ratio }
    }

    /// Response-time cap derived from a best-case time: `t_best / ratio`.
    pub fn response_cap_ms(&self, best_ms: f64) -> f64 {
        best_ms / self.ratio
    }

    /// Throughput floor derived from a best-case throughput:
    /// `T_best · ratio`.
    pub fn throughput_floor(&self, best_tasks_per_hour: f64) -> f64 {
        best_tasks_per_hour * self.ratio
    }
}

/// Fraction of queries meeting their caps — the paper's *performance
/// satisfaction ratio* (PSR, §4.3). `times` and `caps` are parallel.
pub fn performance_satisfaction_ratio(times_ms: &[f64], caps_ms: &[f64]) -> f64 {
    assert_eq!(times_ms.len(), caps_ms.len());
    if times_ms.is_empty() {
        return 1.0;
    }
    let met = times_ms
        .iter()
        .zip(caps_ms)
        .filter(|(t, cap)| *t <= *cap)
        .count();
    met as f64 / times_ms.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dot_dbms::query::{ReadOp, Rel, ScanSpec};
    use dot_dbms::TableId;

    fn q(name: &str, weight: f64) -> QuerySpec {
        QuerySpec::read(name, ReadOp::of(Rel::Scan(ScanSpec::full(TableId(0))))).with_weight(weight)
    }

    #[test]
    fn dss_counts_tasks_from_weights() {
        let w = Workload::dss("w", vec![q("a", 3.0), q("b", 2.0)]);
        assert_eq!(w.queries_per_stream(), 5.0);
        assert_eq!(w.tasks_per_stream, 5.0);
        assert_eq!(w.concurrency, 1);
        assert_eq!(w.metric, PerfMetric::ResponseTime);
    }

    #[test]
    fn throughput_math() {
        let w = Workload::oltp("o", vec![q("t", 100.0)], 300, 45.0);
        // One pass per hour per stream.
        let t = w.throughput_tasks_per_hour(3_600_000.0);
        assert!((t - 300.0 * 45.0).abs() < 1e-9);
        // Twice as fast, twice the throughput.
        assert!((w.throughput_tasks_per_hour(1_800_000.0) - 2.0 * t).abs() < 1e-9);
        assert_eq!(w.throughput_tasks_per_hour(0.0), 0.0);
    }

    #[test]
    fn execution_hours_is_stream_time() {
        let w = Workload::oltp("o", vec![q("t", 1.0)], 300, 1.0);
        assert!((w.execution_hours(7_200_000.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sla_caps_and_floors() {
        let sla = SlaSpec::relative(0.5);
        assert!((sla.response_cap_ms(100.0) - 200.0).abs() < 1e-12);
        assert!((sla.throughput_floor(1000.0) - 500.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "relative SLA")]
    fn sla_domain_enforced() {
        let _ = SlaSpec::relative(0.0);
    }

    #[test]
    fn psr_counts_met_fractions() {
        let times = [1.0, 2.0, 3.0, 4.0];
        let caps = [2.0, 2.0, 2.0, 2.0];
        assert!((performance_satisfaction_ratio(&times, &caps) - 0.5).abs() < 1e-12);
        assert_eq!(performance_satisfaction_ratio(&[], &[]), 1.0);
    }

    #[test]
    fn workload_validation() {
        let schema = dot_dbms::SchemaBuilder::new("s")
            .table("t", 10.0, 10.0)
            .build();
        let empty = Workload::dss("e", vec![]);
        assert!(empty.validate(&schema).is_err());
        let ok = Workload::dss("k", vec![q("a", 1.0)]);
        assert!(ok.validate(&schema).is_ok());
        for weight in [f64::INFINITY, f64::NAN] {
            let w = Workload::dss("w", vec![q("a", 1.0).with_weight(weight)]);
            assert!(w.validate(&schema).is_err(), "weight {weight}");
        }
        for tasks in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let w = Workload::oltp("t", vec![q("a", 1.0)], 1, tasks);
            assert!(w.validate(&schema).is_err(), "tasks {tasks}");
        }
    }
}

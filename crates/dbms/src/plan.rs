//! Physical plans: the operators the planner chose for one query under one
//! layout.
//!
//! The paper reports plan-level facts — most prominently the fraction of
//! joins executed as indexed nested-loop joins, which rises from 11% to 50%
//! when DOT tightens placement onto the H-SSD (§4.4.2) — so planned queries
//! retain their operator choices for inspection, not just their costs.

use crate::cost::CostVector;
use crate::schema::{IndexId, TableId};
use serde::{Deserialize, Serialize};

/// Access path chosen for one base-table scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessPath {
    /// Sequential heap scan.
    SeqScan,
    /// B+-tree index scan through the given index.
    IndexScan(IndexId),
}

impl AccessPath {
    /// Short label for plan descriptions.
    pub fn label(&self) -> String {
        match self {
            AccessPath::SeqScan => "seq".into(),
            AccessPath::IndexScan(i) => format!("idx{}", i.0),
        }
    }
}

/// Join algorithm chosen for one join node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinAlgo {
    /// Hash join (build inner, probe outer), possibly spilling.
    Hash,
    /// Indexed nested-loop join probing the inner's index per outer row.
    IndexedNlj,
}

impl JoinAlgo {
    /// Short label for plan descriptions.
    pub const fn label(self) -> &'static str {
        match self {
            JoinAlgo::Hash => "HJ",
            JoinAlgo::IndexedNlj => "INLJ",
        }
    }
}

/// One planned query: operator choices plus its cost ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedQuery {
    /// Query name (from the spec).
    pub name: String,
    /// Access path per scan, in the order scans appear in the spec.
    pub access_paths: Vec<(TableId, AccessPath)>,
    /// Join algorithm per join node, outermost-first.
    pub joins: Vec<JoinAlgo>,
    /// Whether any operator spilled to temp space.
    pub spilled: bool,
    /// Per-object I/O counts and CPU for ONE execution of the query.
    pub cost: CostVector,
    /// Estimated single-execution response time in ms under the layout the
    /// query was planned for.
    pub est_time_ms: f64,
    /// Repetitions of the query in its stream (copied from the spec).
    pub weight: f64,
}

impl PlannedQuery {
    /// Number of joins planned as indexed nested-loop joins.
    pub fn inlj_count(&self) -> usize {
        self.joins
            .iter()
            .filter(|j| **j == JoinAlgo::IndexedNlj)
            .count()
    }

    /// Whether `other` chose the same physical operators as `self`: equal
    /// access paths, join algorithms and spill flag. For two plans of the
    /// same query this is exactly equality of their
    /// [`describe`](Self::describe) signatures, without formatting them.
    pub fn same_choices(&self, other: &PlannedQuery) -> bool {
        self.access_paths == other.access_paths
            && self.joins == other.joins
            && self.spilled == other.spilled
    }

    /// Compact plan signature, e.g. `Q3[seq,idx1,seq;HJ,INLJ]`. Two queries
    /// with equal signatures chose identical physical plans — the profiler's
    /// pruning test (§3.4).
    pub fn describe(&self) -> String {
        let paths: Vec<String> = self.access_paths.iter().map(|(_, p)| p.label()).collect();
        let joins: Vec<&str> = self.joins.iter().map(|j| j.label()).collect();
        format!(
            "{}[{}{}{}]{}",
            self.name,
            paths.join(","),
            if joins.is_empty() { "" } else { ";" },
            joins.join(","),
            if self.spilled { "*" } else { "" }
        )
    }
}

/// Plan-level statistics over a whole planned workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Total join nodes.
    pub joins: usize,
    /// Joins executed as INLJ.
    pub inlj: usize,
    /// Scans executed through an index.
    pub index_scans: usize,
    /// Total scans.
    pub scans: usize,
}

impl PlanStats {
    /// Accumulate one planned query.
    pub fn add(&mut self, q: &PlannedQuery) {
        self.joins += q.joins.len();
        self.inlj += q.inlj_count();
        self.scans += q.access_paths.len();
        self.index_scans += q
            .access_paths
            .iter()
            .filter(|(_, p)| matches!(p, AccessPath::IndexScan(_)))
            .count();
    }

    /// INLJ share of all joins (the paper's "% INLJ"), 0 when no joins.
    pub fn inlj_share(&self) -> f64 {
        if self.joins == 0 {
            0.0
        } else {
            self.inlj as f64 / self.joins as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PlannedQuery {
        PlannedQuery {
            name: "Q3".into(),
            access_paths: vec![
                (TableId(0), AccessPath::SeqScan),
                (TableId(1), AccessPath::IndexScan(IndexId(1))),
            ],
            joins: vec![JoinAlgo::Hash, JoinAlgo::IndexedNlj],
            spilled: true,
            cost: CostVector::zero(4),
            est_time_ms: 123.0,
            weight: 3.0,
        }
    }

    #[test]
    fn describe_is_stable_signature() {
        assert_eq!(sample().describe(), "Q3[seq,idx1;HJ,INLJ]*");
    }

    #[test]
    fn same_choices_ignores_costs_but_not_operators() {
        let mut cheaper = sample();
        cheaper.est_time_ms = 1.0;
        assert!(sample().same_choices(&cheaper));
        let mut unspilled = sample();
        unspilled.spilled = false;
        assert!(!sample().same_choices(&unspilled));
        let mut hashed = sample();
        hashed.joins[1] = JoinAlgo::Hash;
        assert!(!sample().same_choices(&hashed));
    }

    #[test]
    fn inlj_counting() {
        assert_eq!(sample().inlj_count(), 1);
        let mut stats = PlanStats::default();
        stats.add(&sample());
        stats.add(&sample());
        assert_eq!(stats.joins, 4);
        assert_eq!(stats.inlj, 2);
        assert!((stats.inlj_share() - 0.5).abs() < 1e-12);
        assert_eq!(stats.index_scans, 2);
        assert_eq!(stats.scans, 4);
    }

    #[test]
    fn empty_stats_share_is_zero() {
        assert_eq!(PlanStats::default().inlj_share(), 0.0);
    }
}

//! The execution surface: estimate or simulate a workload stream under a
//! layout.
//!
//! Two entry points mirror the paper's two ways of obtaining workload
//! behaviour (§3.4):
//!
//! * [`estimate_workload`] — "an estimate computed by our extended query
//!   optimizer": plans every query and prices the plans' I/O ledgers against
//!   the layout. No caching, no noise; this is what DOT's optimization phase
//!   calls thousands of times.
//! * [`simulate_workload`] — "a sample test run of the workload": the same
//!   plans, but with the buffer-pool model applied and small deterministic
//!   run-to-run variation, standing in for a real execution. This is what
//!   the validation phase and the OLTP profiling path use.

use crate::bufferpool::BufferPool;
use crate::config::EngineConfig;
use crate::cost::CostVector;
use crate::layout::Layout;
use crate::plan::{PlanStats, PlannedQuery};
use crate::planner;
use crate::query::QuerySpec;
use crate::schema::Schema;
use dot_storage::StoragePool;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Timing of one query within a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRun {
    /// Query name.
    pub name: String,
    /// Response time of a single execution, ms.
    pub time_ms: f64,
    /// Repetitions within the stream.
    pub weight: f64,
}

/// Result of running (or estimating) one workload stream under a layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Per-query timings, in workload order.
    pub queries: Vec<QueryRun>,
    /// Aggregated per-object I/O and CPU, weighted by repetitions.
    pub cost: CostVector,
    /// Total stream time: `Σ weight·time`, ms.
    pub stream_time_ms: f64,
    /// Plan statistics (INLJ share etc.).
    pub stats: PlanStats,
}

/// Typed failure of [`RunResult::query_time_ms`]: the stream ran no query
/// by the requested name. Carries every name the stream *did* run, so a
/// caller's error message can point at the near-miss instead of silently
/// treating a typo as "query was free".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnknownQueryError {
    /// The name that matched nothing.
    pub name: String,
    /// The query names the stream ran, in workload order.
    pub known: Vec<String>,
}

impl std::fmt::Display for UnknownQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no query {:?} in this run (ran: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownQueryError {}

impl RunResult {
    /// Response time of the named query (first match). An unknown name is
    /// a typed [`UnknownQueryError`] — never a silent `None` a caller can
    /// swallow as a zero-cost query.
    pub fn query_time_ms(&self, name: &str) -> Result<f64, UnknownQueryError> {
        self.queries
            .iter()
            .find(|q| q.name == name)
            .map(|q| q.time_ms)
            .ok_or_else(|| UnknownQueryError {
                name: name.to_owned(),
                known: self.queries.iter().map(|q| q.name.clone()).collect(),
            })
    }
}

/// Plan and price a workload stream without executing it (the optimizer
/// path). Deterministic and cache-blind, per §3.5.
pub fn estimate_workload(
    queries: &[QuerySpec],
    schema: &Schema,
    layout: &Layout,
    pool: &StoragePool,
    cfg: &EngineConfig,
) -> RunResult {
    let planned = planner::plan_workload(queries, schema, layout, pool, cfg);
    assemble(&planned, schema, layout, pool, cfg, None)
}

/// Simulate a test run: identical plans (a real DBMS's planner is equally
/// cache-blind) but with buffer-pool absorption and ±3% deterministic
/// pseudo-noise derived from `seed`.
pub fn simulate_workload(
    queries: &[QuerySpec],
    schema: &Schema,
    layout: &Layout,
    pool: &StoragePool,
    cfg: &EngineConfig,
    seed: u64,
) -> RunResult {
    let planned = planner::plan_workload(queries, schema, layout, pool, cfg);
    assemble(&planned, schema, layout, pool, cfg, Some(seed))
}

/// Price already-planned queries under `layout`: the shared pricing step of
/// [`estimate_workload`] (`test_run: None`) and [`simulate_workload`]
/// (`test_run: Some(seed)`, buffer pool and seeded noise engaged). Callers
/// that hold plans already (plans materialized from a
/// [`PlanMemo`](crate::memo::PlanMemo)'s templates, the profiler) price
/// them here instead of planning the layout again.
pub fn assemble<P: Borrow<PlannedQuery>>(
    planned: &[P],
    schema: &Schema,
    layout: &Layout,
    pool: &StoragePool,
    cfg: &EngineConfig,
    test_run: Option<u64>,
) -> RunResult {
    // The pool is shared across the whole stream: hit rates depend on the
    // total volume touched by every query. The summed ledger is then reused
    // as the scratch that holds each query's cache-absorbed counts.
    let (test_run, mut absorbed) = match test_run {
        Some(seed) => {
            let bp = BufferPool::new(cfg.buffer_gb);
            let mut all = CostVector::zero(schema.object_count());
            for q in planned {
                all.absorb(&q.borrow().cost);
            }
            (
                Some((bp, bp.touched_read_gb(schema, &all), seed)),
                Some(all),
            )
        }
        None => (None, None),
    };

    let mut total = CostVector::zero(schema.object_count());
    let mut runs = Vec::with_capacity(planned.len());
    let mut stream_time_ms = 0.0;
    let mut stats = PlanStats::default();
    for (i, q) in planned.iter().enumerate() {
        let q = q.borrow();
        stats.add(q);
        let effective = match (test_run, absorbed.as_mut()) {
            (Some((bp, touched_gb, _)), Some(absorbed)) => {
                absorbed.clone_from(&q.cost);
                bp.apply(schema, absorbed, touched_gb);
                &*absorbed
            }
            _ => &q.cost,
        };
        let mut time_ms = effective.time_ms(layout, pool, cfg.concurrency);
        if let Some((_, _, seed)) = test_run {
            time_ms *= noise_factor(seed, i as u64);
        }
        total.absorb_scaled(effective, q.weight);
        stream_time_ms += time_ms * q.weight;
        runs.push(QueryRun {
            name: q.name.clone(),
            time_ms,
            weight: q.weight,
        });
    }
    RunResult {
        queries: runs,
        cost: total,
        stream_time_ms,
        stats,
    }
}

/// Deterministic multiplicative noise in `[0.97, 1.03]` from a splitmix-style
/// hash of `(seed, k)`. Keeps test runs reproducible without an RNG
/// dependency in this crate.
pub(crate) fn noise_factor(seed: u64, k: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    0.97 + 0.06 * unit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ReadOp, Rel, ScanSpec};
    use crate::schema::SchemaBuilder;
    use dot_storage::catalog;

    fn setup() -> (Schema, StoragePool, Layout, EngineConfig, Vec<QuerySpec>) {
        let s = SchemaBuilder::new("t")
            .table("a", 2_000_000.0, 120.0)
            .primary_index(8.0)
            .table("b", 100_000.0, 100.0)
            .primary_index(8.0)
            .build();
        let pool = catalog::box2();
        let layout = Layout::uniform(pool.most_expensive(), s.object_count());
        let cfg = EngineConfig::dss();
        let a = s.table_by_name("a").unwrap().id;
        let b = s.table_by_name("b").unwrap().id;
        let queries = vec![
            QuerySpec::read("scan_a", ReadOp::of(Rel::Scan(ScanSpec::full(a)))).with_weight(3.0),
            QuerySpec::read("scan_b", ReadOp::of(Rel::Scan(ScanSpec::full(b)))),
        ];
        (s, pool, layout, cfg, queries)
    }

    #[test]
    fn estimate_is_deterministic() {
        let (s, pool, layout, cfg, queries) = setup();
        let r1 = estimate_workload(&queries, &s, &layout, &pool, &cfg);
        let r2 = estimate_workload(&queries, &s, &layout, &pool, &cfg);
        assert_eq!(r1, r2);
        assert_eq!(r1.queries.len(), 2);
        assert!(r1.stream_time_ms > 0.0);
    }

    #[test]
    fn stream_time_weights_repetitions() {
        let (s, pool, layout, cfg, queries) = setup();
        let r = estimate_workload(&queries, &s, &layout, &pool, &cfg);
        let expect = r.queries[0].time_ms * 3.0 + r.queries[1].time_ms;
        assert!((r.stream_time_ms - expect).abs() < 1e-9);
    }

    #[test]
    fn simulation_is_no_slower_than_estimate_modulo_noise() {
        let (s, pool, layout, cfg, queries) = setup();
        let est = estimate_workload(&queries, &s, &layout, &pool, &cfg);
        let sim = simulate_workload(&queries, &s, &layout, &pool, &cfg, 7);
        // Caching can only remove I/O; noise is bounded by ±3%.
        assert!(sim.stream_time_ms <= est.stream_time_ms * 1.031);
    }

    #[test]
    fn simulation_is_seed_deterministic() {
        let (s, pool, layout, cfg, queries) = setup();
        let a = simulate_workload(&queries, &s, &layout, &pool, &cfg, 42);
        let b = simulate_workload(&queries, &s, &layout, &pool, &cfg, 42);
        assert_eq!(a, b);
        let c = simulate_workload(&queries, &s, &layout, &pool, &cfg, 43);
        assert_ne!(a.stream_time_ms, c.stream_time_ms);
    }

    #[test]
    fn query_time_lookup() {
        let (s, pool, layout, cfg, queries) = setup();
        let r = estimate_workload(&queries, &s, &layout, &pool, &cfg);
        assert!(r.query_time_ms("scan_a").unwrap() > 0.0);
        let err = r.query_time_ms("nope").unwrap_err();
        assert_eq!(err.name, "nope");
        assert_eq!(err.known, ["scan_a", "scan_b"]);
        let shown = err.to_string();
        assert!(
            shown.contains("nope") && shown.contains("scan_a"),
            "{shown}"
        );
    }

    #[test]
    fn noise_is_bounded_and_varied() {
        let mut seen_lo = false;
        let mut seen_hi = false;
        for k in 0..1000 {
            let f = noise_factor(1, k);
            assert!((0.97..=1.03).contains(&f));
            if f < 0.99 {
                seen_lo = true;
            }
            if f > 1.01 {
                seen_hi = true;
            }
        }
        assert!(seen_lo && seen_hi);
    }
}

//! A per-session plan memo: compile each query once, then only re-price.
//!
//! Every candidate layout a solve session looks at (profiling baselines,
//! the DOT sweep, exhaustive search, validation) asks for the same
//! queries' plans under another placement. The candidates the planner
//! chooses between never change with the layout — their ledgers are
//! layout-free, and Eq. 1 only re-prices them — so [`PlanMemo`] compiles
//! each query into a template on first use and answers every later
//! request by pricing the template under the layout. Answers are
//! bit-identical to [`plan_query`](crate::planner::plan_query)'s, which is
//! itself compile then choose.
//!
//! The memo binds the session's planner inputs (queries, schema, pool,
//! engine configuration), so a request only needs the layout. It is
//! dropped with its session.

use crate::config::EngineConfig;
use crate::layout::Layout;
use crate::plan::{PlanStats, PlannedQuery};
use crate::planner::{compile, Latencies, QueryTemplate};
use crate::query::QuerySpec;
use crate::schema::Schema;
use dot_storage::StoragePool;
use std::sync::OnceLock;

/// Compiled planning for one session's workload. `Sync`: once compiled,
/// the templates are read-only, so exhaustive search's scoped workers
/// share one template set without locking.
pub struct PlanMemo<'a> {
    queries: &'a [QuerySpec],
    schema: &'a Schema,
    pool: &'a StoragePool,
    cfg: EngineConfig,
    /// Templates and the pool's service-time table, built on the first
    /// request so a session that never plans compiles nothing.
    compiled: OnceLock<Compiled>,
}

struct Compiled {
    templates: Vec<QueryTemplate>,
    latencies: Latencies,
}

/// A layout's plan choices over the whole workload: one code per access
/// path and join decision. Two layouts of one session share a key exactly
/// when every query's plans have [`PlannedQuery::same_choices`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChoiceKey(Vec<u8>);

impl<'a> PlanMemo<'a> {
    /// A memo over `queries` planned against `schema`, `pool` and `cfg`.
    /// Compiles nothing until the first request.
    pub fn new(
        queries: &'a [QuerySpec],
        schema: &'a Schema,
        pool: &'a StoragePool,
        cfg: &EngineConfig,
    ) -> PlanMemo<'a> {
        PlanMemo {
            queries,
            schema,
            pool,
            cfg: *cfg,
            compiled: OnceLock::new(),
        }
    }

    /// The schema the queries are planned against.
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// The storage pool layouts draw classes from.
    pub fn pool(&self) -> &'a StoragePool {
        self.pool
    }

    /// The engine configuration plans are costed under.
    pub fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Whether this memo was built over exactly these planner inputs (the
    /// same instances, and an equal engine configuration), so its plans
    /// may stand in for [`plan_query`](crate::planner::plan_query)'s.
    pub fn serves(
        &self,
        queries: &[QuerySpec],
        schema: &Schema,
        pool: &StoragePool,
        cfg: &EngineConfig,
    ) -> bool {
        std::ptr::eq(self.queries, queries)
            && std::ptr::eq(self.schema, schema)
            && std::ptr::eq(self.pool, pool)
            && self.cfg == *cfg
    }

    /// Every query's plan under `layout`, in workload order: bit-identical
    /// to [`plan_workload`](crate::planner::plan_workload)'s.
    pub fn plan_workload(&self, layout: &Layout) -> Vec<PlannedQuery> {
        let compiled = self.compiled();
        compiled
            .templates
            .iter()
            .map(|t| t.plan(&compiled.latencies, layout))
            .collect()
    }

    /// What an estimate needs from the plans under `layout`, without
    /// materializing them: every query's `est_time_ms`, in workload order,
    /// and the plans' summed [`PlanStats`].
    pub fn estimate(&self, layout: &Layout) -> (Vec<f64>, PlanStats) {
        let compiled = self.compiled();
        let mut slots = Vec::new();
        let mut stats = PlanStats::default();
        let times = compiled
            .templates
            .iter()
            .map(|t| t.estimate(&compiled.latencies, layout, &mut slots, &mut stats))
            .collect();
        (times, stats)
    }

    /// The plan choices every query makes under `layout`.
    pub fn choice_key(&self, layout: &Layout) -> ChoiceKey {
        let compiled = self.compiled();
        let mut slots = Vec::new();
        let mut codes = Vec::new();
        for t in &compiled.templates {
            t.choice_codes(&compiled.latencies, layout, &mut slots, &mut codes);
        }
        ChoiceKey(codes)
    }

    /// Whether the templates have been compiled (by a first request).
    pub fn is_compiled(&self) -> bool {
        self.compiled.get().is_some()
    }

    fn compiled(&self) -> &Compiled {
        self.compiled.get_or_init(|| Compiled {
            templates: self
                .queries
                .iter()
                .map(|q| compile(q, self.schema, &self.cfg))
                .collect(),
            latencies: Latencies::new(self.pool, self.cfg.concurrency),
        })
    }
}

impl std::fmt::Debug for PlanMemo<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanMemo")
            .field("queries", &self.queries.len())
            .field("compiled", &self.is_compiled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan_query;
    use crate::testkit::{probe_join_query, range_query, two_table_schema};
    use dot_storage::catalog;

    #[test]
    fn memoized_plans_match_the_planner_and_are_shared() {
        let schema = two_table_schema();
        let pool = catalog::box2();
        let cfg = EngineConfig::dss();
        let queries = vec![
            range_query(&schema, 0.002),
            range_query(&schema, 0.3),
            probe_join_query(&schema, 0.001),
        ];
        let memo = PlanMemo::new(&queries, &schema, &pool, &cfg);
        assert!(!memo.is_compiled(), "lazy until the first request");
        for class in pool.ids() {
            let layout = Layout::uniform(class, schema.object_count());
            let (times, stats) = memo.estimate(&layout);
            let plans = memo.plan_workload(&layout);
            let mut want_stats = PlanStats::default();
            for (i, q) in queries.iter().enumerate() {
                let direct = plan_query(q, &schema, &layout, &pool, &cfg);
                assert_eq!(times[i].to_bits(), direct.est_time_ms.to_bits());
                want_stats.add(&direct);
                assert_eq!(plans[i], direct);
            }
            assert_eq!(stats, want_stats);
        }
        assert!(memo.is_compiled());
    }
}

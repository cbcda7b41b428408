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
//!
//! A sweep that walks from layout to layout — Procedure 1's group moves,
//! exhaustive search's odometer, the profiling baselines — changes a few
//! objects per step, and a template's plan reads only the classes of its
//! own objects. [`PlanMemo::pricer`] hands out a [`Pricer`] that keeps
//! every template's last answer and re-runs the choose step only for the
//! templates that touch an object whose class changed.

use crate::config::EngineConfig;
use crate::layout::Layout;
use crate::object::ObjectId;
use crate::plan::{PlanStats, PlannedQuery};
use crate::planner::{compile, Latencies, QueryTemplate};
use crate::query::QuerySpec;
use crate::schema::Schema;
use dot_storage::{ClassId, IoCounts, StoragePool};
use std::sync::OnceLock;

/// Compiled planning for one session's workload. `Sync`: once compiled,
/// the templates are read-only, so threads may share one template set
/// without locking.
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

    /// The objects whose class the plan of the workload's `query`-th
    /// query can read — those some candidate of its template charges —
    /// ascending. Its plan and price under a layout depend on these
    /// objects' classes alone.
    pub fn query_objects(&self, query: usize) -> &[ObjectId] {
        self.compiled().templates[query].objects()
    }

    /// An incremental pricer over this memo's templates, for a run of
    /// layouts that differ in a few objects each. Compiles the templates
    /// if no request has yet.
    pub fn pricer(&self) -> Pricer<'_> {
        let compiled = self.compiled();
        let mut readers = vec![Vec::new(); self.schema.object_count()];
        for (i, t) in compiled.templates.iter().enumerate() {
            for object in t.objects() {
                readers[object.0].push(i);
            }
        }
        let n = compiled.templates.len();
        Pricer {
            compiled,
            readers,
            classes: Vec::new(),
            times: vec![0.0; n],
            stats: vec![PlanStats::default(); n],
            codes: vec![Vec::new(); n],
            stale: vec![true; n],
            slots: Vec::new(),
        }
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

/// Prices a run of layouts over one memo's templates, re-running the
/// choose step only where a layout moved something a query reads.
///
/// A template's plan and price read the classes of its own objects and
/// nothing else, so the pricer keeps each template's last `est_time_ms`,
/// [`PlanStats`] and choice codes, and compares each layout it is given
/// with the last one: only the templates that touch an object whose class
/// changed are chosen again. The answers are then re-assembled in
/// workload order, so [`estimate`](Self::estimate) and
/// [`choice_key`](Self::choice_key) are bit-identical to
/// [`PlanMemo::estimate`] and [`PlanMemo::choice_key`] on every layout,
/// whatever layouts came before it.
pub struct Pricer<'m> {
    compiled: &'m Compiled,
    /// Per object, the templates whose objects include it.
    readers: Vec<Vec<usize>>,
    /// Classes of the layout last priced; empty before the first.
    classes: Vec<ClassId>,
    /// Per template, its answer under `classes`.
    times: Vec<f64>,
    stats: Vec<PlanStats>,
    codes: Vec<Vec<u8>>,
    /// Templates whose answer no longer matches `classes`.
    stale: Vec<bool>,
    slots: Vec<IoCounts>,
}

impl Pricer<'_> {
    /// [`PlanMemo::estimate`] of `layout`: every query's `est_time_ms`, in
    /// workload order, and the plans' summed [`PlanStats`].
    pub fn estimate(&mut self, layout: &Layout) -> (Vec<f64>, PlanStats) {
        self.sync(layout);
        let mut stats = PlanStats::default();
        for s in &self.stats {
            stats.joins += s.joins;
            stats.inlj += s.inlj;
            stats.index_scans += s.index_scans;
            stats.scans += s.scans;
        }
        (self.times.clone(), stats)
    }

    /// [`PlanMemo::choice_key`] of `layout`.
    pub fn choice_key(&mut self, layout: &Layout) -> ChoiceKey {
        self.sync(layout);
        ChoiceKey(self.codes.concat())
    }

    /// Bring every template's answer up to `layout`: mark the templates
    /// reading an object whose class changed (all of them on the first
    /// layout, or on one of another length), then choose those again.
    fn sync(&mut self, layout: &Layout) {
        let assignment = layout.assignment();
        if self.classes.len() == assignment.len() {
            for (o, (last, &class)) in self.classes.iter_mut().zip(assignment).enumerate() {
                if *last != class {
                    *last = class;
                    for &t in self.readers.get(o).into_iter().flatten() {
                        self.stale[t] = true;
                    }
                }
            }
        } else {
            self.classes.clear();
            self.classes.extend_from_slice(assignment);
            self.stale.fill(true);
        }
        let compiled = self.compiled;
        for (t, template) in compiled.templates.iter().enumerate() {
            if !std::mem::take(&mut self.stale[t]) {
                continue;
            }
            let (stats, codes) = (&mut self.stats[t], &mut self.codes[t]);
            *stats = PlanStats::default();
            codes.clear();
            self.times[t] =
                template.evaluate(&compiled.latencies, layout, &mut self.slots, stats, codes);
        }
    }
}

impl std::fmt::Debug for Pricer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pricer")
            .field("queries", &self.times.len())
            .field("objects", &self.classes.len())
            .finish()
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

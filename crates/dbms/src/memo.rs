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
//! templates that touch an object whose class changed. A sweep that tries
//! candidates around an incumbent prices each one with
//! [`Pricer::trial`], against the layout last committed, and
//! [`commit`](Pricer::commit)s only the candidate it accepts.

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
            trial: Trial::default(),
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
///
/// [`estimate`](Self::estimate) and [`choice_key`](Self::choice_key)
/// commit the layout they price: the next layout is compared with it.
/// [`trial`](Self::trial) prices a layout against the committed one and
/// leaves it committed, so a run of candidates that each differ from one
/// incumbent in a few objects re-prices only those objects' readers, and
/// a rejected candidate is never priced back; [`commit`](Self::commit)
/// adopts the last trial's layout and answers.
pub struct Pricer<'m> {
    compiled: &'m Compiled,
    /// Per object, the templates whose objects include it.
    readers: Vec<Vec<usize>>,
    /// Classes of the committed layout; empty before the first.
    classes: Vec<ClassId>,
    /// Per template, its answer under `classes`.
    times: Vec<f64>,
    stats: Vec<PlanStats>,
    codes: Vec<Vec<u8>>,
    /// Templates whose answer no longer matches the layout being priced.
    stale: Vec<bool>,
    slots: Vec<IoCounts>,
    /// The last trial, until a commit adopts it or a sync drops it.
    trial: Trial,
}

/// What a [`Pricer::trial`] found that differs from the committed state.
#[derive(Default)]
struct Trial {
    /// Whether `moved` and `answers` describe a trial not yet committed.
    pending: bool,
    /// The objects whose class the trial changed, with their new class.
    moved: Vec<(usize, ClassId)>,
    /// The templates the trial chose again, with their answers.
    answers: Vec<Answer>,
    /// The answers' choice codes, end to end.
    codes: Vec<u8>,
}

/// One template's answer under a trial layout.
struct Answer {
    template: usize,
    time_ms: f64,
    stats: PlanStats,
    /// The answer's run of [`Trial::codes`].
    codes: std::ops::Range<usize>,
}

impl Pricer<'_> {
    /// [`PlanMemo::estimate`] of `layout`: every query's `est_time_ms`, in
    /// workload order, and the plans' summed [`PlanStats`].
    pub fn estimate(&mut self, layout: &Layout) -> (Vec<f64>, PlanStats) {
        self.sync(layout);
        (self.times.clone(), sum_stats(&self.stats))
    }

    /// [`PlanMemo::choice_key`] of `layout`.
    pub fn choice_key(&mut self, layout: &Layout) -> ChoiceKey {
        self.sync(layout);
        ChoiceKey(self.codes.concat())
    }

    /// [`estimate`](Self::estimate) of `layout`, priced against the
    /// committed layout without committing it: the templates reading an
    /// object whose class differs are chosen again, and the rest answer as
    /// committed. Every query's `est_time_ms` is written into `times`, in
    /// workload order, and the plans' summed [`PlanStats`] returned. With
    /// nothing committed yet (or a layout of another length) the trial
    /// prices every template and commits `layout` itself.
    pub fn trial(&mut self, layout: &Layout, times: &mut Vec<f64>) -> PlanStats {
        let assignment = layout.assignment();
        if self.classes.len() != assignment.len() {
            self.sync(layout);
            times.clone_from(&self.times);
            return sum_stats(&self.stats);
        }
        let trial = &mut self.trial;
        trial.pending = true;
        trial.moved.clear();
        trial.answers.clear();
        trial.codes.clear();
        for (o, (&last, &class)) in self.classes.iter().zip(assignment).enumerate() {
            if last != class {
                trial.moved.push((o, class));
                for &t in self.readers.get(o).into_iter().flatten() {
                    self.stale[t] = true;
                }
            }
        }
        times.clear();
        let mut total = PlanStats::default();
        let compiled = self.compiled;
        for (t, template) in compiled.templates.iter().enumerate() {
            let (time_ms, stats) = if std::mem::take(&mut self.stale[t]) {
                let mut stats = PlanStats::default();
                let start = trial.codes.len();
                let time_ms = template.evaluate(
                    &compiled.latencies,
                    layout,
                    &mut self.slots,
                    &mut stats,
                    &mut trial.codes,
                );
                trial.answers.push(Answer {
                    template: t,
                    time_ms,
                    stats,
                    codes: start..trial.codes.len(),
                });
                (time_ms, stats)
            } else {
                (self.times[t], self.stats[t])
            };
            times.push(time_ms);
            add_stats(&mut total, &stats);
        }
        total
    }

    /// Make the last [`trial`](Self::trial)'s layout the committed one,
    /// with its answers. A no-op when no trial is pending: none was made,
    /// it was committed already, or an [`estimate`](Self::estimate) or
    /// [`choice_key`](Self::choice_key) has committed another layout since.
    pub fn commit(&mut self) {
        let trial = &mut self.trial;
        if !std::mem::take(&mut trial.pending) {
            return;
        }
        for &(o, class) in &trial.moved {
            self.classes[o] = class;
        }
        for answer in &trial.answers {
            let t = answer.template;
            self.times[t] = answer.time_ms;
            self.stats[t] = answer.stats;
            self.codes[t].clear();
            self.codes[t].extend_from_slice(&trial.codes[answer.codes.clone()]);
        }
    }

    /// Bring every template's answer up to `layout` and commit it: mark
    /// the templates reading an object whose class changed (all of them on
    /// the first layout, or on one of another length), then choose those
    /// again. A pending trial is dropped.
    fn sync(&mut self, layout: &Layout) {
        self.trial.pending = false;
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

/// The sum of per-template [`PlanStats`].
fn sum_stats(stats: &[PlanStats]) -> PlanStats {
    let mut total = PlanStats::default();
    for s in stats {
        add_stats(&mut total, s);
    }
    total
}

fn add_stats(total: &mut PlanStats, s: &PlanStats) {
    total.joins += s.joins;
    total.inlj += s.inlj;
    total.index_scans += s.index_scans;
    total.scans += s.scans;
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

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
//! exhaustive search's odometer — changes a few objects per step, and a
//! template's plan reads only the classes of its own objects.
//! [`PlanMemo::pricer`] hands out a [`Pricer`] that keeps every template's
//! last answer and re-runs the choose step only for the templates that
//! touch an object whose class changed. A sweep that tries candidates
//! around an incumbent prices each one with [`Pricer::trial`], against the
//! layout last committed, and [`commit`](Pricer::commit)s only the
//! candidate it accepts.
//!
//! A sweep that only needs to know a candidate loses, not what it costs,
//! prices it with [`Pricer::trial_within`]: the trial is abandoned as soon
//! as a query exceeds its cap or a lower bound on the stream time is
//! already hopeless, and an abandoned trial cannot be committed. Every
//! template the pricer chooses and prices is counted
//! ([`Pricer::templates_priced`]).
//!
//! A validation run needs the chosen plans' I/O, not the plans:
//! [`PlanMemo::test_run`] runs the buffer pool and the seeded noise over
//! the templates' chosen counts, bit for bit as a run of the materialized
//! plans.
//!
//! Profiling asks less of a layout: which plans it gets, not what they
//! cost. [`PlanMemo::decisions`] hands out a [`Decisions`] walk that keeps
//! every template's decision codes in one buffer and re-decides only the
//! templates reading a moved object, by comparing candidate prices alone:
//! it sums no ledger and prices no plan. [`PlanMemo::workload_io`] then
//! counts a layout's I/O straight from the templates, without
//! materializing plans.

use crate::bufferpool::{touched_read_gb_of, BufferPool};
use crate::config::EngineConfig;
use crate::exec::noise_factor;
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
    /// Per object, the templates whose objects include it.
    readers: Vec<Vec<usize>>,
    /// Per template `t`, where its decision codes sit in a workload's
    /// codes: `code_starts[t]..code_starts[t + 1]`.
    code_starts: Vec<usize>,
}

impl Compiled {
    /// The templates reading `object` (none for an object the schema does
    /// not have).
    fn readers(&self, object: usize) -> &[usize] {
        self.readers.get(object).map_or(&[], Vec::as_slice)
    }

    /// Write the decision codes of template `t` under `layout` into its run
    /// of the workload's `codes`.
    fn decide(&self, t: usize, layout: &Layout, codes: &mut [u8]) {
        let run = &mut codes[self.code_starts[t]..self.code_starts[t + 1]];
        self.templates[t].decide(&self.latencies, layout, run);
    }

    /// Every template's decision codes under `layout`, in workload order.
    fn key(&self, layout: &Layout) -> ChoiceKey {
        let mut codes = vec![0; self.code_starts[self.templates.len()]];
        for t in 0..self.templates.len() {
            self.decide(t, layout, &mut codes);
        }
        ChoiceKey(codes)
    }
}

/// A layout's plan choices over the whole workload: one code per access
/// path and join decision. Two layouts of one session share a key exactly
/// when every query's plans have [`PlannedQuery::same_choices`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChoiceKey(Vec<u8>);

impl ChoiceKey {
    /// The key's codes: what [`Decisions::key`] answers for its layout.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

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

    /// The per-object I/O counts of one run of the workload under
    /// `layout`, each query's weighted by its repetitions: bit-identical to
    /// the `cost.io` of [`exec::assemble`](crate::exec::assemble) over
    /// [`plan_workload`](Self::plan_workload)'s plans with no test run,
    /// without materializing a plan.
    pub fn workload_io(&self, layout: &Layout) -> Vec<IoCounts> {
        let compiled = self.compiled();
        let mut slots = Vec::new();
        let mut io = vec![IoCounts::ZERO; self.schema.object_count()];
        for t in &compiled.templates {
            t.add_io(&compiled.latencies, layout, &mut slots, &mut io);
        }
        io
    }

    /// A simulated test run of the workload under `layout` with `seed`:
    /// bit for bit what [`exec::assemble`](crate::exec::assemble) measures
    /// over [`plan_workload`](Self::plan_workload)'s plans with
    /// `Some(seed)` (buffer pool and noise engaged), without materializing
    /// a plan. The pool's hit rate reads the chosen counts summed over the
    /// whole stream, so every template is chosen first; each query's
    /// absorbed counts are then priced, noised, and added into the
    /// per-object I/O scaled by its weight. Objects a template does not
    /// charge would only add `+0.0` or `0 · weight` to sums that started
    /// at `+0.0`, which changes no bit for the finite weights a validated
    /// workload carries.
    pub fn test_run(&self, layout: &Layout, seed: u64) -> TestRun {
        let compiled = self.compiled();
        let objects = self.schema.object_count();
        let mut stats = PlanStats::default();
        let mut slots = Vec::new();
        // Every template's chosen counts, a run per template in workload
        // order, and the whole stream's sum the pool's hit rate reads.
        let mut chosen = Vec::new();
        let mut cpu_ms = Vec::with_capacity(compiled.templates.len());
        let mut io = vec![IoCounts::ZERO; objects];
        for t in &compiled.templates {
            cpu_ms.push(t.choose_counts(&compiled.latencies, layout, &mut slots, &mut stats));
            for (object, counts) in t.objects().iter().zip(&slots) {
                io[object.0] += *counts;
            }
            chosen.extend_from_slice(&slots);
        }
        let pool = BufferPool::new(self.cfg.buffer_gb);
        let hit_rate = pool.hit_rate(touched_read_gb_of(self.schema, &io));
        io.fill(IoCounts::ZERO);

        let mut per_query_ms = Vec::with_capacity(compiled.templates.len());
        let mut stream_time_ms = 0.0;
        let mut runs = chosen.as_mut_slice();
        for (i, (t, &cpu_ms)) in compiled.templates.iter().zip(&cpu_ms).enumerate() {
            let (run, rest) = runs.split_at_mut(t.objects().len());
            runs = rest;
            if hit_rate != 0.0 {
                for (object, counts) in t.objects().iter().zip(run.iter_mut()) {
                    pool.absorb(self.schema.object(*object).size_gb, counts, hit_rate);
                }
            }
            let time_ms =
                t.price(&compiled.latencies, layout, run, cpu_ms) * noise_factor(seed, i as u64);
            for (object, counts) in t.objects().iter().zip(run.iter()) {
                io[object.0] += counts.scaled(t.weight());
            }
            stream_time_ms += time_ms * t.weight();
            per_query_ms.push(time_ms);
        }
        TestRun {
            per_query_ms,
            stream_time_ms,
            io,
            stats,
        }
    }

    /// The plan choices every query makes under `layout`.
    pub fn choice_key(&self, layout: &Layout) -> ChoiceKey {
        self.compiled().key(layout)
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
        let n = compiled.templates.len();
        Pricer {
            compiled,
            walk: Walk::new(n),
            times: vec![0.0; n],
            stats: vec![PlanStats::default(); n],
            slots: Vec::new(),
            trial: Trial {
                pending: false,
                moved: Vec::with_capacity(compiled.readers.len()),
                answers: Vec::with_capacity(n),
            },
            suffix_ms: vec![0.0; n + 1],
            reassociation: 1.0 - 4.0 * n as f64 * f64::EPSILON,
            priced: 0,
        }
    }

    /// An incremental walk of [`choice_key`](Self::choice_key)s, for a run
    /// of layouts that differ in a few objects each. Compiles the templates
    /// if no request has yet.
    pub fn decisions(&self) -> Decisions<'_> {
        let compiled = self.compiled();
        Decisions {
            compiled,
            walk: Walk::new(compiled.templates.len()),
            codes: vec![0; compiled.code_starts[compiled.templates.len()]],
        }
    }

    /// Whether the templates have been compiled (by a first request).
    pub fn is_compiled(&self) -> bool {
        self.compiled.get().is_some()
    }

    fn compiled(&self) -> &Compiled {
        self.compiled.get_or_init(|| {
            let templates: Vec<QueryTemplate> = self
                .queries
                .iter()
                .map(|q| compile(q, self.schema, &self.cfg))
                .collect();
            let mut readers = vec![Vec::new(); self.schema.object_count()];
            let mut code_starts = vec![0];
            for (i, t) in templates.iter().enumerate() {
                for object in t.objects() {
                    readers[object.0].push(i);
                }
                code_starts.push(code_starts[i] + t.decisions());
            }
            Compiled {
                templates,
                latencies: Latencies::new(self.pool, self.cfg.concurrency),
                readers,
                code_starts,
            }
        })
    }
}

/// The classes of the layout a walk last committed, and the templates a
/// layout moving some of them leaves stale.
struct Walk {
    /// Classes of the committed layout; empty before the first.
    classes: Vec<ClassId>,
    /// Templates whose answer no longer matches the layout being priced.
    stale: Vec<bool>,
}

impl Walk {
    fn new(templates: usize) -> Walk {
        Walk {
            classes: Vec::new(),
            stale: vec![true; templates],
        }
    }

    /// Commit `layout`: mark the templates reading an object whose class
    /// changed (all of them on the first layout, or on one of another
    /// length).
    fn commit(&mut self, compiled: &Compiled, layout: &Layout) {
        let assignment = layout.assignment();
        if self.classes.len() == assignment.len() {
            for (o, (last, &class)) in self.classes.iter_mut().zip(assignment).enumerate() {
                if *last != class {
                    *last = class;
                    for &t in compiled.readers(o) {
                        self.stale[t] = true;
                    }
                }
            }
        } else {
            self.classes.clear();
            self.classes.extend_from_slice(assignment);
            self.stale.fill(true);
        }
    }
}

/// What [`PlanMemo::test_run`] measures: every query's single-execution
/// time in workload order, their weighted sum, the per-object I/O of the
/// whole stream and the plans' summed [`PlanStats`] — the `queries`' times,
/// `stream_time_ms`, `cost.io` and `stats` of the equivalent
/// [`RunResult`](crate::exec::RunResult).
#[derive(Debug, Clone, PartialEq)]
pub struct TestRun {
    /// Per query, in workload order, its measured time in ms.
    pub per_query_ms: Vec<f64>,
    /// `Σ weight · time` in workload order, ms.
    pub stream_time_ms: f64,
    /// Per object, the stream's cache-absorbed counts weighted by
    /// repetitions.
    pub io: Vec<IoCounts>,
    /// The plans' summed statistics.
    pub stats: PlanStats,
}

/// Walks a run of layouts deciding every query's plan choices, re-deciding
/// only the templates that read an object whose class changed.
///
/// Its one buffer holds every template's decision codes at a fixed place,
/// so a layout costs no allocation: [`key`](Self::key) overwrites the
/// stale templates' runs and answers the whole buffer, the bytes of
/// [`PlanMemo::choice_key`] whatever layouts came before. Profiling keys
/// its baselines this way.
pub struct Decisions<'m> {
    compiled: &'m Compiled,
    walk: Walk,
    codes: Vec<u8>,
}

impl Decisions<'_> {
    /// The bytes of [`PlanMemo::choice_key`] of `layout`, valid until the
    /// next call.
    pub fn key(&mut self, layout: &Layout) -> &[u8] {
        self.walk.commit(self.compiled, layout);
        for (t, stale) in self.walk.stale.iter_mut().enumerate() {
            if std::mem::take(stale) {
                self.compiled.decide(t, layout, &mut self.codes);
            }
        }
        &self.codes
    }
}

/// Prices a run of layouts over one memo's templates, re-running the
/// choose step only where a layout moved something a query reads.
///
/// A template's plan and price read the classes of its own objects and
/// nothing else, so the pricer keeps each template's last `est_time_ms`
/// and [`PlanStats`], and compares each layout it is given with the last
/// one: only the templates that touch an object whose class changed are
/// chosen again. The answers are then re-assembled in workload order, so
/// [`estimate`](Self::estimate) is bit-identical to [`PlanMemo::estimate`]
/// on every layout, whatever layouts came before it.
///
/// [`estimate`](Self::estimate) and [`choice_key`](Self::choice_key)
/// commit the layout they price: the next layout is compared with it.
/// [`trial`](Self::trial) prices a layout against the committed one and
/// leaves it committed, so a run of candidates that each differ from one
/// incumbent in a few objects re-prices only those objects' readers, and
/// a rejected candidate is never priced back; [`commit`](Self::commit)
/// adopts the last trial's layout and answers.
///
/// [`trial_within`](Self::trial_within) prices a trial under
/// [`TrialBounds`] and abandons it once it certainly loses; its buffers are
/// sized when the pricer is made, so neither a priced nor an abandoned
/// trial allocates.
pub struct Pricer<'m> {
    compiled: &'m Compiled,
    /// The committed layout's classes and the stale templates.
    walk: Walk,
    /// Per template, its answer under the committed layout.
    times: Vec<f64>,
    stats: Vec<PlanStats>,
    slots: Vec<IoCounts>,
    /// The last trial, until a commit adopts it or a sync drops it.
    trial: Trial,
    /// `suffix_ms[t]`: the stream-time bound's terms of templates `t..`,
    /// summed from the last one back.
    suffix_ms: Vec<f64>,
    /// `1 − 4nε` for `n` templates: what a bound summed in another order
    /// than the stream time is shaved by (see
    /// [`trial_within`](Self::trial_within)).
    reassociation: f64,
    /// Templates chosen and priced since the pricer was made.
    priced: usize,
}

/// Bounds under which [`Pricer::trial_within`] abandons a trial that
/// certainly loses.
#[derive(Debug, Clone, Copy)]
pub struct TrialBounds<'b, H> {
    /// Per query, in workload order, the time it must not exceed: a trial
    /// is abandoned at the first query whose time is over its cap.
    pub caps_ms: Option<&'b [f64]>,
    /// Per query, in workload order, a lower bound on its time under any
    /// layout; empty for no stream-time bound.
    pub floors_ms: &'b [f64],
    /// Whether a candidate whose stream time is at least the argument
    /// certainly loses. It must be monotone: true at `t` means true at
    /// every `t' ≥ t`.
    pub hopeless: H,
}

/// Why [`Pricer::trial_within`] abandoned a trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Abandon {
    /// The `query`-th query takes `time_ms`, over its cap.
    OverCap {
        /// The query's position in the workload.
        query: usize,
        /// Its time under the trial layout.
        time_ms: f64,
    },
    /// The stream time is at least `stream_floor_ms`, which is hopeless.
    Hopeless {
        /// The stream-time lower bound that was hopeless.
        stream_floor_ms: f64,
    },
}

/// What a [`Pricer::trial`] found that differs from the committed state.
struct Trial {
    /// Whether `moved` and `answers` describe a trial not yet committed.
    pending: bool,
    /// The objects whose class the trial changed, with their new class.
    moved: Vec<(usize, ClassId)>,
    /// The templates the trial chose again, with their answers.
    answers: Vec<Answer>,
}

/// One template's answer under a trial layout.
struct Answer {
    template: usize,
    time_ms: f64,
    stats: PlanStats,
}

impl Pricer<'_> {
    /// [`PlanMemo::estimate`] of `layout`: every query's `est_time_ms`, in
    /// workload order, and the plans' summed [`PlanStats`].
    pub fn estimate(&mut self, layout: &Layout) -> (Vec<f64>, PlanStats) {
        self.sync(layout);
        (self.times.clone(), sum_stats(&self.stats))
    }

    /// [`PlanMemo::choice_key`] of `layout`, which is committed as
    /// [`estimate`](Self::estimate) commits it.
    pub fn choice_key(&mut self, layout: &Layout) -> ChoiceKey {
        self.sync(layout);
        self.compiled.key(layout)
    }

    /// [`estimate`](Self::estimate) of `layout`, priced against the
    /// committed layout without committing it: the templates reading an
    /// object whose class differs are chosen again, and the rest answer as
    /// committed. Every query's `est_time_ms` is written into `times`, in
    /// workload order, and the plans' summed [`PlanStats`] returned. With
    /// nothing committed yet (or a layout of another length) the trial
    /// prices every template and commits `layout` itself.
    pub fn trial(&mut self, layout: &Layout, times: &mut Vec<f64>) -> PlanStats {
        let unbounded = TrialBounds {
            caps_ms: None,
            floors_ms: &[],
            hopeless: |_: f64| false,
        };
        match self.trial_within(layout, times, &unbounded) {
            Ok(stats) => stats,
            Err(abandon) => unreachable!("an unbounded trial abandoned: {abandon:?}"),
        }
    }

    /// [`trial`](Self::trial) of `layout`, abandoned as soon as it
    /// certainly loses under `bounds`. The stale templates are priced one
    /// at a time in workload order, and the trial is abandoned
    ///
    /// - when a query's time, computed or committed, is over its cap: the
    ///   full trial would carry that very time; or
    /// - when a lower bound on the stream time is `hopeless`. The bound
    ///   adds, per query, its weight times its committed or computed time,
    ///   or for a stale query not yet priced its floor. Each term is at
    ///   most the full trial's (a floor is a lower bound on the query's
    ///   time), and rounding is monotone in each operand of `+` and `×` on
    ///   non-negative values, so the bound summed in workload order is at
    ///   most the stream time the full trial would sum. The bound is kept
    ///   as the priced prefix plus a suffix summed from the back, two
    ///   orders of the same `n` non-negative terms, which differ from the
    ///   workload-order sum by less than `2nε` relatively; shaving by
    ///   `4nε` keeps it below that sum. It is checked once before anything
    ///   is priced and after each stale template, the only steps that
    ///   raise it, for `O(1)` each.
    ///
    /// An abandoned trial clears its stale flags, cannot be
    /// [`commit`](Self::commit)ted, and leaves `times` holding a prefix of
    /// the answers; the committed state is untouched. A trial that is not
    /// abandoned answers exactly as [`trial`](Self::trial). With nothing
    /// committed yet (or a layout of another length) the trial prices
    /// every template, commits `layout` itself and is never abandoned.
    ///
    /// # Errors
    /// The [`Abandon`] reason, with the bound that fired.
    pub fn trial_within<H: Fn(f64) -> bool>(
        &mut self,
        layout: &Layout,
        times: &mut Vec<f64>,
        bounds: &TrialBounds<'_, H>,
    ) -> Result<PlanStats, Abandon> {
        let assignment = layout.assignment();
        if self.walk.classes.len() != assignment.len() {
            self.sync(layout);
            times.clone_from(&self.times);
            return Ok(sum_stats(&self.stats));
        }
        let trial = &mut self.trial;
        trial.pending = true;
        trial.moved.clear();
        trial.answers.clear();
        let compiled = self.compiled;
        let walk = &mut self.walk;
        for (o, (&last, &class)) in walk.classes.iter().zip(assignment).enumerate() {
            if last != class {
                trial.moved.push((o, class));
                for &t in compiled.readers(o) {
                    walk.stale[t] = true;
                }
            }
        }
        // Abandon the trial before template `from`: clear the stale flags
        // it has not reached, and drop the trial.
        let abandon = |walk: &mut Walk, trial: &mut Trial, from: usize, why: Abandon| {
            walk.stale[from..].fill(false);
            trial.pending = false;
            Err(why)
        };
        let bounded = !bounds.floors_ms.is_empty();
        if bounded {
            let suffix = &mut self.suffix_ms;
            let mut sum = 0.0;
            for (t, template) in compiled.templates.iter().enumerate().rev() {
                let time_ms = if walk.stale[t] {
                    bounds.floors_ms[t]
                } else {
                    self.times[t]
                };
                sum += time_ms * template.weight();
                suffix[t] = sum;
            }
            let stream_floor_ms = sum * self.reassociation;
            if (bounds.hopeless)(stream_floor_ms) {
                return abandon(walk, trial, 0, Abandon::Hopeless { stream_floor_ms });
            }
        }
        times.clear();
        let mut total = PlanStats::default();
        let mut prefix_ms = 0.0;
        for (t, template) in compiled.templates.iter().enumerate() {
            let stale = std::mem::take(&mut walk.stale[t]);
            let (time_ms, stats) = if stale {
                let mut stats = PlanStats::default();
                let time_ms =
                    template.estimate(&compiled.latencies, layout, &mut self.slots, &mut stats);
                self.priced += 1;
                trial.answers.push(Answer {
                    template: t,
                    time_ms,
                    stats,
                });
                (time_ms, stats)
            } else {
                (self.times[t], self.stats[t])
            };
            times.push(time_ms);
            add_stats(&mut total, &stats);
            if bounds
                .caps_ms
                .and_then(|caps| caps.get(t))
                .is_some_and(|&cap| time_ms > cap)
            {
                return abandon(walk, trial, t + 1, Abandon::OverCap { query: t, time_ms });
            }
            if bounded {
                prefix_ms += time_ms * template.weight();
                if stale {
                    let stream_floor_ms = (prefix_ms + self.suffix_ms[t + 1]) * self.reassociation;
                    if (bounds.hopeless)(stream_floor_ms) {
                        return abandon(walk, trial, t + 1, Abandon::Hopeless { stream_floor_ms });
                    }
                }
            }
        }
        Ok(total)
    }

    /// How many templates this pricer has chosen and priced: the work its
    /// estimates and trials did, whatever they answered.
    pub fn templates_priced(&self) -> usize {
        self.priced
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
            self.walk.classes[o] = class;
        }
        for answer in &trial.answers {
            let t = answer.template;
            self.times[t] = answer.time_ms;
            self.stats[t] = answer.stats;
        }
    }

    /// Bring every template's answer up to `layout` and commit it: the
    /// templates reading an object whose class changed are chosen again. A
    /// pending trial is dropped.
    fn sync(&mut self, layout: &Layout) {
        self.trial.pending = false;
        self.walk.commit(self.compiled, layout);
        let compiled = self.compiled;
        for (t, template) in compiled.templates.iter().enumerate() {
            if !std::mem::take(&mut self.walk.stale[t]) {
                continue;
            }
            let stats = &mut self.stats[t];
            *stats = PlanStats::default();
            self.times[t] = template.estimate(&compiled.latencies, layout, &mut self.slots, stats);
            self.priced += 1;
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
            .field("objects", &self.walk.classes.len())
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

//! Property suite for the dense workload profile, Procedure 2's move list
//! and Procedure 1's in-place sweep (`dot_profiler::profile_workload`,
//! `dot_core::moves::enumerate_moves`, `dot_core::dot::optimize_with_pruning`).
//!
//! The oracle is a frozen copy of the hash-map profile these replaced —
//! one `HashMap<Vec<ClassId>, Vec<IoCounts>>` per group, filled baseline by
//! baseline with last-wins overwrites — together with the move list that
//! allocated a layout per move and the sweep that cloned a layout and
//! summed `S_j` up to three times per candidate. Over every preset family
//! on box1, box2 and the full pool, from estimates and from seeded test
//! runs:
//!
//! - every group's counts and `T^p[g]` agree bit for bit on every
//!   placement, with the same baseline and profiled counts, and a
//!   placement that is empty, of the wrong length, or names a class
//!   outside the pool has none;
//! - the move sequences are equal, `δ_time`, `δ_cost` and `σ` bit for bit,
//!   under the linear and the discrete-sized cost model;
//! - the sweep returns the same `DotOutcome` — layout, estimate bits and
//!   both counters — with pruning on and off across an SLA grid, on the
//!   pools as built and with capacities tight enough that the premium
//!   layout and some candidates do not fit.
//!
//! The exhaustive search is held to a frozen copy of its per-layout
//! odometer, which cut one layout at a time: on every problem of the same
//! grid that `es` admits, the search with its block cut returns the same
//! `EsOutcome` — layout, estimate bits and both counters. And the
//! certified cuts must fire on the paper's workloads: with pruning on,
//! DOT on tpcc:16/full prices fewer templates and ES on the TPC-H subset
//! visits fewer layouts one by one.

use dot_core::advisor::presets;
use dot_core::constraints::{self, Constraints};
use dot_core::dot::{self, DotOutcome};
use dot_core::exhaustive::{self, EsOutcome};
use dot_core::moves::{self, Move};
use dot_core::problem::{LayoutCostModel, Problem};
use dot_core::toc::{Estimator, TocEstimate};
use dot_dbms::memo::PlanMemo;
use dot_dbms::{EngineConfig, Layout, Schema};
use dot_profiler::baseline::group_placements;
use dot_profiler::{profile_workload, ProfileSource, WorkloadProfile};
use dot_storage::{ClassId, StoragePool, IO_TYPES};
use dot_workloads::{PerfMetric, SlaSpec, Workload};
use std::time::Duration;

const FAMILIES: [&str; 5] = [
    "tpch:1:original",
    "tpch:1:modified",
    "tpch-subset:1",
    "tpcc:10",
    "ycsb:1000000:A",
];

const SLAS: [f64; 5] = [0.1, 0.3, 0.5, 0.8, 1.0];

/// Largest `M^N` the `es` solver admits (`ES_MAX_LAYOUTS`).
const ES_MAX_LAYOUTS: f64 = 2e6;

/// The frozen hash-map profile, move list, sweep and per-layout odometer.
mod reference {
    use dot_core::constraints::Constraints;
    use dot_core::dot::DotOutcome;
    use dot_core::exhaustive::EsOutcome;
    use dot_core::moves::Move;
    use dot_core::problem::Problem;
    use dot_core::toc::{Estimator, ObjectiveBound};
    use dot_dbms::layout::space_fits;
    use dot_dbms::memo::{ChoiceKey, PlanMemo};
    use dot_dbms::{exec, Layout, ObjectId};
    use dot_profiler::baseline::{
        baseline_placements, group_arity, group_placements, place_baseline,
    };
    use dot_profiler::ProfileSource;
    use dot_storage::{ClassId, IoCounts, StoragePool};
    use std::collections::HashMap;
    use std::time::Duration;

    pub struct Group {
        pub objects: Vec<ObjectId>,
        pub by_placement: HashMap<Vec<ClassId>, Vec<IoCounts>>,
    }

    impl Group {
        pub fn io_time_share_ms(
            &self,
            placement: &[ClassId],
            pool: &StoragePool,
            concurrency: u32,
        ) -> Option<f64> {
            let counts = self.by_placement.get(placement)?;
            let mut total = 0.0;
            for (k, c) in counts.iter().enumerate() {
                let class = pool.class_unchecked(placement[k]);
                total += class.profile.service_time_ms(c, concurrency);
            }
            Some(total)
        }
    }

    pub struct Profile {
        pub groups: Vec<Group>,
        pub arity: usize,
        pub baseline_count: usize,
        pub profiled_count: usize,
    }

    pub fn profile_workload(plans: &PlanMemo<'_>, source: ProfileSource) -> Profile {
        let (schema, pool, cfg) = (plans.schema(), plans.pool(), plans.cfg());
        let arity = group_arity(schema);
        let placements = baseline_placements(pool, arity);
        let groups = schema.object_groups();
        let mut pricer = plans.pricer();
        let mut layout = Layout::uniform(placements[0][0], schema.object_count());

        let mut group_profiles: Vec<Group> = groups
            .iter()
            .map(|objs| Group {
                objects: objs.clone(),
                by_placement: HashMap::new(),
            })
            .collect();
        let mut runs: HashMap<ChoiceKey, Vec<IoCounts>> = HashMap::new();
        let test_run = match source {
            ProfileSource::Estimate => None,
            ProfileSource::TestRun { seed } => Some(seed),
        };
        for p in &placements {
            place_baseline(&mut layout, &groups, p);
            let io = runs.entry(pricer.choice_key(&layout)).or_insert_with(|| {
                let planned = plans.plan_workload(&layout);
                exec::assemble(&planned, schema, &layout, pool, cfg, test_run)
                    .cost
                    .io
            });
            for gp in group_profiles.iter_mut() {
                let key = &p[..gp.objects.len()];
                match gp.by_placement.get_mut(key) {
                    Some(counts) => {
                        for (slot, o) in counts.iter_mut().zip(&gp.objects) {
                            *slot = io[o.0];
                        }
                    }
                    None => {
                        let counts = gp.objects.iter().map(|o| io[o.0]).collect();
                        gp.by_placement.insert(key.to_vec(), counts);
                    }
                }
            }
        }
        Profile {
            groups: group_profiles,
            arity,
            baseline_count: placements.len(),
            profiled_count: runs.len(),
        }
    }

    fn finite_ratio(num: f64, den: f64) -> f64 {
        let ratio = num / den;
        if ratio.is_finite() {
            ratio
        } else {
            0.0
        }
    }

    pub fn enumerate_moves(problem: &Problem<'_>, profile: &Profile) -> Vec<Move> {
        let premium = problem.pool.most_expensive();
        let l0 = problem.premium_layout();
        let c0 = problem.layout_cost_cents_per_hour(&l0);
        let concurrency = problem.cfg.concurrency;

        let mut moves = Vec::new();
        for (gi, g) in profile.groups.iter().enumerate() {
            let p0 = vec![premium; g.objects.len()];
            let t0 = g
                .io_time_share_ms(&p0, problem.pool, concurrency)
                .expect("profile covers the premium placement");
            for p in group_placements(problem.pool, g.objects.len()) {
                if p.iter().all(|&c| c == premium) {
                    continue;
                }
                let tp = g
                    .io_time_share_ms(&p, problem.pool, concurrency)
                    .expect("profile covers every group placement");
                let mut moved = l0.clone();
                for (obj, &class) in g.objects.iter().zip(&p) {
                    moved.place(*obj, class);
                }
                let delta_cost = c0 - problem.layout_cost_cents_per_hour(&moved);
                if delta_cost <= 0.0 {
                    continue;
                }
                let delta_time_ms = tp - t0;
                moves.push(Move {
                    group_index: gi,
                    objects: g.objects.clone(),
                    placement: p,
                    delta_time_ms,
                    delta_cost,
                    score: finite_ratio(delta_time_ms, delta_cost),
                });
            }
        }
        moves.sort_by(|a, b| {
            a.score
                .total_cmp(&b.score)
                .then(a.group_index.cmp(&b.group_index))
                .then(a.placement.cmp(&b.placement))
        });
        moves
    }

    pub fn optimize_with_pruning(
        problem: &Problem<'_>,
        profile: &Profile,
        cons: &Constraints,
        toc: &Estimator<'_>,
        prune: bool,
    ) -> DotOutcome {
        let mut pricer = toc.pricer(problem);
        let l0 = problem.premium_layout();
        let est0 = pricer.estimate(&l0);
        let bound = prune.then(|| ObjectiveBound::new(problem, &est0));
        let mut investigated = 1usize;
        let mut pruned = 0usize;

        let mut current = l0.clone();
        let (mut best, mut best_est, mut best_toc) = if cons.satisfied(problem, &l0, &est0) {
            let t = est0.objective_cents;
            (Some(l0), Some(est0), t)
        } else {
            (None, None, f64::INFINITY)
        };

        for m in enumerate_moves(problem, profile) {
            let candidate = m.apply(&current);
            investigated += 1;
            if let Some(lb) = bound
                .as_ref()
                .and_then(|b| b.lower_bound(problem, &candidate))
            {
                if lb >= best_toc {
                    pruned += 1;
                    continue;
                }
            }
            let est = pricer.estimate(&candidate);
            if cons.satisfied(problem, &candidate, &est) && est.objective_cents < best_toc {
                best_toc = est.objective_cents;
                current = candidate;
                best = Some(current.clone());
                best_est = Some(est);
            }
        }

        DotOutcome {
            layout: best,
            estimate: best_est,
            layouts_investigated: investigated,
            layouts_pruned: pruned,
            elapsed: Duration::ZERO,
        }
    }

    /// The exhaustive search as it cut one layout at a time: one branch
    /// per class of object 0, each an odometer over the other objects,
    /// pruning against the branch's own incumbent.
    pub fn exhaustive_search_with_pruning(
        problem: &Problem<'_>,
        cons: &Constraints,
        toc: &Estimator<'_>,
        prune: bool,
    ) -> EsOutcome {
        let n = problem.schema.object_count();
        let classes: Vec<ClassId> = problem.pool.ids().collect();
        let m = classes.len();
        let bound = prune.then(|| ObjectiveBound::new(problem, &cons.reference));
        let bound = bound.as_ref();
        let mut pricer = toc.pricer(problem);
        let mut space = Vec::with_capacity(m);

        let mut layout = None;
        let mut estimate = None;
        let mut best_toc = f64::INFINITY;
        let mut evaluated = 0usize;
        let mut pruned = 0usize;
        for &first in &classes {
            let mut branch_layout = None;
            let mut branch_estimate = None;
            let mut branch_toc = f64::INFINITY;
            let mut digits = vec![0usize; n - 1];
            let mut candidate = Layout::uniform(classes[0], n);
            candidate.place(ObjectId(0), first);
            loop {
                evaluated += 1;
                candidate.space_per_class_into(problem.schema, problem.pool, &mut space);
                if space_fits(&space, problem.pool) {
                    let lb = bound.and_then(|b| b.lower_bound_of_space(problem, &space));
                    if lb.is_some_and(|lb| lb >= branch_toc) {
                        pruned += 1;
                    } else {
                        let est = pricer.estimate_of_space(&candidate, &space);
                        if cons.performance_satisfied(&est) && est.objective_cents < branch_toc {
                            branch_toc = est.objective_cents;
                            branch_layout = Some(candidate.clone());
                            branch_estimate = Some(est);
                        }
                    }
                }
                let Some(i) = digits.iter().position(|&d| d + 1 < m) else {
                    break;
                };
                for (j, d) in digits[..i].iter_mut().enumerate() {
                    *d = 0;
                    candidate.place(ObjectId(j + 1), classes[0]);
                }
                digits[i] += 1;
                candidate.place(ObjectId(i + 1), classes[digits[i]]);
            }
            if branch_toc < best_toc {
                best_toc = branch_toc;
                layout = branch_layout;
                estimate = branch_estimate;
            }
        }
        EsOutcome {
            layout,
            estimate,
            layouts_investigated: evaluated,
            layouts_pruned: pruned,
            elapsed: Duration::ZERO,
        }
    }
}

/// Every preset family's database with its default engine.
fn databases() -> Vec<(String, Schema, Workload, EngineConfig)> {
    FAMILIES
        .iter()
        .map(|&family| {
            let (schema, workload) = presets::database(family).expect("preset");
            let cfg = presets::engine(None, &workload).expect("engine");
            (family.to_owned(), schema, workload, cfg)
        })
        .collect()
}

fn pools() -> Vec<(&'static str, StoragePool)> {
    presets::POOL_NAMES
        .iter()
        .map(|&name| (name, presets::pool(name).expect("pool")))
        .collect()
}

/// `pool` with every class capped below the database, so the premium
/// layout does not fit and some candidates overflow a class.
fn tight(pool: &StoragePool, schema: &Schema) -> StoragePool {
    let mut tight = pool.clone();
    let cap = schema.total_size_gb() * 0.6;
    let names: Vec<String> = pool.classes().iter().map(|c| c.name.clone()).collect();
    for name in names {
        tight.set_capacity(&name, cap);
    }
    tight
}

fn sources() -> [ProfileSource; 2] {
    [ProfileSource::Estimate, ProfileSource::TestRun { seed: 19 }]
}

fn assert_profiles_agree(
    got: &WorkloadProfile,
    want: &reference::Profile,
    pool: &StoragePool,
    concurrency: u32,
    case: &str,
) {
    assert_eq!(got.arity, want.arity, "{case}");
    assert_eq!(got.baseline_count, want.baseline_count, "{case}");
    assert_eq!(got.profiled_count, want.profiled_count, "{case}");
    assert_eq!(got.groups.len(), want.groups.len(), "{case}");
    let alien = ClassId(pool.len());
    for (gi, (g, r)) in got.groups.iter().zip(&want.groups).enumerate() {
        assert_eq!(g.objects, r.objects, "{case} group {gi}");
        let k = g.objects.len();
        let placements = group_placements(pool, k);
        assert_eq!(r.by_placement.len(), placements.len(), "{case} group {gi}");
        for p in &placements {
            let counts = g.counts(p).expect("dense table covers every placement");
            let want_counts = &r.by_placement[p];
            assert_eq!(counts.len(), want_counts.len(), "{case} {gi} {p:?}");
            for (c, w) in counts.iter().zip(want_counts) {
                for io in IO_TYPES {
                    assert_eq!(c[io].to_bits(), w[io].to_bits(), "{case} {gi} {p:?}");
                }
            }
            let t = g.io_time_share_ms(p, pool, concurrency).unwrap();
            let want_t = r.io_time_share_ms(p, pool, concurrency).unwrap();
            assert_eq!(t.to_bits(), want_t.to_bits(), "{case} {gi} {p:?}");

            let mut longer = p.clone();
            longer.push(p[0]);
            assert!(g.counts(&longer).is_none(), "{case} {gi} {longer:?}");
            assert!(g.counts(&p[..k - 1]).is_none(), "{case} {gi}");
            for at in 0..k {
                let mut outside = p.clone();
                outside[at] = alien;
                assert!(g.counts(&outside).is_none(), "{case} {gi} {outside:?}");
                assert!(g.io_time_share_ms(&outside, pool, concurrency).is_none());
            }
        }
        assert!(g.counts(&[]).is_none(), "{case} {gi}");
        assert!(g.io_time_share_ms(&[], pool, concurrency).is_none());
    }
}

fn assert_moves_agree(got: &[Move], want: &[Move], case: &str) {
    assert_eq!(got.len(), want.len(), "{case}");
    for (i, (m, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(m.group_index, w.group_index, "{case} move {i}");
        assert_eq!(m.objects, w.objects, "{case} move {i}");
        assert_eq!(m.placement, w.placement, "{case} move {i}");
        assert_eq!(
            m.delta_time_ms.to_bits(),
            w.delta_time_ms.to_bits(),
            "{case} move {i}"
        );
        assert_eq!(
            m.delta_cost.to_bits(),
            w.delta_cost.to_bits(),
            "{case} move {i}"
        );
        assert_eq!(m.score.to_bits(), w.score.to_bits(), "{case} move {i}");
    }
}

fn estimate_bits(est: &TocEstimate) -> Vec<u64> {
    let mut bits = vec![
        est.layout_cost_cents_per_hour.to_bits(),
        est.stream_time_ms.to_bits(),
        est.throughput_tasks_per_hour.to_bits(),
        est.toc_cents_per_pass.to_bits(),
        est.toc_cents_per_task.to_bits(),
        est.objective_cents.to_bits(),
    ];
    bits.extend(est.per_query_ms.iter().map(|t| t.to_bits()));
    bits
}

fn assert_outcomes_agree(mut got: DotOutcome, want: &DotOutcome, case: &str) {
    got.elapsed = Duration::ZERO;
    assert_eq!(&got, want, "{case}");
    assert_eq!(
        got.estimate.as_ref().map(estimate_bits),
        want.estimate.as_ref().map(estimate_bits),
        "{case}"
    );
    assert_eq!(
        got.estimate.as_ref().map(|e| e.plan_stats),
        want.estimate.as_ref().map(|e| e.plan_stats),
        "{case}"
    );
    let layout: Option<&Layout> = got.layout.as_ref();
    assert_eq!(layout, want.layout.as_ref(), "{case}");
}

#[test]
fn dense_profile_equals_the_hash_map_profile_on_every_placement() {
    for (family, schema, workload, cfg) in databases() {
        for (pool_name, pool) in pools() {
            let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
            for source in sources() {
                let case = format!("{family}/{pool_name}/{source:?}");
                let got = profile_workload(&memo, source);
                let want = reference::profile_workload(&memo, source);
                assert_profiles_agree(&got, &want, &pool, cfg.concurrency, &case);
            }
        }
    }
}

#[test]
fn moves_and_sweeps_equal_the_allocating_reference() {
    let mut pruned_somewhere = false;
    let mut infeasible_somewhere = false;
    for (family, schema, workload, cfg) in databases() {
        for (pool_name, built) in pools() {
            for (capacity, pool) in [("roomy", built.clone()), ("tight", tight(&built, &schema))] {
                let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
                let toc = Estimator::direct().memoized(&memo);
                for source in sources() {
                    let profile = profile_workload(&memo, source);
                    let frozen = reference::profile_workload(&memo, source);
                    let mut models = vec![LayoutCostModel::Linear];
                    if workload.metric == PerfMetric::ResponseTime {
                        models.push(LayoutCostModel::Discrete { alpha: 0.5 });
                    }
                    for model in models {
                        let base =
                            Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.5), cfg)
                                .with_cost_model(model);
                        let case = format!("{family}/{pool_name}/{capacity}/{source:?}/{model:?}");
                        assert_moves_agree(
                            &moves::enumerate_moves(&base, &profile),
                            &reference::enumerate_moves(&base, &frozen),
                            &case,
                        );
                        for sla in SLAS {
                            let problem = base.clone().with_sla(SlaSpec::relative(sla));
                            let cons: Constraints =
                                constraints::derive_with_estimator(&problem, problem.sla, &toc);
                            for prune in [true, false] {
                                let case = format!("{case}/sla {sla}/prune {prune}");
                                let got = dot::optimize_with_pruning(
                                    &problem, &profile, &cons, &toc, prune,
                                );
                                let want = reference::optimize_with_pruning(
                                    &problem, &frozen, &cons, &toc, prune,
                                );
                                pruned_somewhere |= want.layouts_pruned > 0;
                                infeasible_somewhere |= want.layout.is_none();
                                assert_outcomes_agree(got, &want, &case);
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(pruned_somewhere, "the grid must exercise the dominance cut");
    assert!(
        infeasible_somewhere,
        "the grid must exercise an infeasible sweep"
    );
}

fn assert_es_outcomes_agree(got: &EsOutcome, want: &EsOutcome, case: &str) {
    assert_eq!(got.layout, want.layout, "{case}");
    assert_eq!(
        got.estimate.as_ref().map(estimate_bits),
        want.estimate.as_ref().map(estimate_bits),
        "{case}"
    );
    assert_eq!(got.estimate, want.estimate, "{case}");
    assert_eq!(
        got.layouts_investigated, want.layouts_investigated,
        "{case}"
    );
    assert_eq!(got.layouts_pruned, want.layouts_pruned, "{case}");
}

#[test]
fn exhaustive_search_equals_the_per_layout_odometer() {
    let mut admitted = 0usize;
    let mut skipped_somewhere = false;
    for (family, schema, workload, cfg) in databases() {
        for (pool_name, built) in pools() {
            let space = (built.len() as f64).powf(schema.object_count() as f64);
            if space > ES_MAX_LAYOUTS {
                continue;
            }
            for (capacity, pool) in [("roomy", built.clone()), ("tight", tight(&built, &schema))] {
                let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
                let toc = Estimator::direct().memoized(&memo);
                let mut models = vec![LayoutCostModel::Linear];
                if workload.metric == PerfMetric::ResponseTime {
                    models.push(LayoutCostModel::Discrete { alpha: 0.5 });
                }
                for model in models {
                    for sla in SLAS {
                        let problem =
                            Problem::new(&schema, &pool, &workload, SlaSpec::relative(sla), cfg)
                                .with_cost_model(model);
                        let cons = constraints::derive_with_estimator(&problem, problem.sla, &toc);
                        for prune in [true, false] {
                            let case = format!(
                                "{family}/{pool_name}/{capacity}/{model:?}/sla {sla}/prune {prune}"
                            );
                            let (got, work) = exhaustive::exhaustive_search_with_work(
                                &problem, &cons, &toc, prune,
                            );
                            let want = reference::exhaustive_search_with_pruning(
                                &problem, &cons, &toc, prune,
                            );
                            assert_es_outcomes_agree(&got, &want, &case);
                            skipped_somewhere |= work.layouts_visited < got.layouts_investigated;
                            admitted += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(admitted > 0, "the grid must hold problems ES admits");
    assert!(skipped_somewhere, "the grid must exercise the block cut");
}

#[test]
fn cuts_fire_on_paper_workloads() {
    // DOT on tpcc:16/full: doomed placements and early-exit trials price
    // fewer templates than the estimate-every-candidate sweep.
    let (schema, workload) = presets::database("tpcc:16").expect("preset");
    let cfg = presets::engine(None, &workload).expect("engine");
    let pool = presets::pool("full").expect("pool");
    let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
    let toc = Estimator::direct().memoized(&memo);
    let profile = profile_workload(&memo, ProfileSource::Estimate);
    let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.5), cfg);
    let cons = constraints::derive_with_estimator(&problem, problem.sla, &toc);
    let (cut, cut_work) = dot::optimize_with_work(&problem, &profile, &cons, &toc, true);
    let (plain, plain_work) = dot::optimize_with_work(&problem, &profile, &cons, &toc, false);
    assert_eq!(cut.layout, plain.layout);
    assert_eq!(cut.layouts_investigated, plain.layouts_investigated);
    assert!(
        cut_work.templates_priced < plain_work.templates_priced,
        "dot priced {} templates with the cuts, {} without",
        cut_work.templates_priced,
        plain_work.templates_priced
    );

    // ES on the TPC-H subset (§4.4.3): the block cut visits fewer layouts
    // one by one than the odometer enumerates.
    let (schema, workload) = presets::database("tpch-subset:1").expect("preset");
    let cfg = presets::engine(None, &workload).expect("engine");
    let pool = presets::pool("box2").expect("pool");
    let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
    let toc = Estimator::direct().memoized(&memo);
    let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.5), cfg);
    let cons = constraints::derive_with_estimator(&problem, problem.sla, &toc);
    let (es, work) = exhaustive::exhaustive_search_with_work(&problem, &cons, &toc, true);
    assert!(
        work.layouts_visited < es.layouts_investigated,
        "es visited {} of {} layouts one by one ({} pruned)",
        work.layouts_visited,
        es.layouts_investigated,
        es.layouts_pruned
    );
}

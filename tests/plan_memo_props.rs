//! Property suite for compiled plan templates and the session plan memo
//! (`dot_dbms::planner::compile`, `dot_dbms::memo::PlanMemo`):
//!
//! - every plan the templates choose equals, bit for bit, the plan a frozen
//!   copy of the recursive planner derives from scratch
//!   (`tests/reference_planner`): operators, dense ledger, `est_time_ms`.
//!   This holds on random and uniform layouts of every preset family and a
//!   join/sort testkit database that spills, over box1, box2, full and a
//!   40-class pool, under dss, oltp and an interpolated concurrency, at
//!   normal and tiny `work_mem`;
//! - a session's estimates and measurements equal the memo-free reference
//!   (`toc::estimate_toc`, `toc::measure_toc`) bit for bit, with the
//!   session's template memo off (the reference), cold and warm, and with
//!   one memo shared across threads;
//! - choice keys group layouts exactly by `PlannedQuery::same_choices`;
//! - SLA and cost-model siblings share one template set;
//! - an incremental `Pricer` walking from layout to layout — re-classing a
//!   few objects, skipping layouts as pruning does, jumping to unrelated
//!   layouts — answers every estimate and choice key bit-identically to
//!   the memo and to the frozen recursive planner, and a query's estimate
//!   depends on the classes of its own objects alone;
//! - walks that interleave `Pricer::trial` of candidates around a
//!   committed incumbent, `commit`, `estimate` and `choice_key` answer bit
//!   for bit like the memo and the frozen planner, an uncommitted trial
//!   leaves the next estimate unchanged, and `TocPricer::trial` matches
//!   `toc::estimate_toc` with and without a memo;
//! - profiling's decision-only walk (`PlanMemo::decisions`) keys every
//!   layout of a walk with exactly `PlanMemo::choice_key`'s bytes, and its
//!   plan-free estimate counts (`PlanMemo::workload_io`) equal the I/O of
//!   the assembled run of the materialized plans bit for bit;
//! - bounded trials (`Pricer::trial_within`) walked beside plain trials
//!   answer exactly like them when not abandoned; an abandoned trial's
//!   reason holds of the plain trial's answer (the query is over its cap,
//!   or the stream-time bound is at most its stream time), it cannot be
//!   committed, and it leaves the committed state untouched;
//! - the premise of the sweeps' certified cuts holds: moving objects to
//!   classes no faster at any I/O pattern (at the engine's concurrency)
//!   never makes a query faster by more than the cuts' `1e-6` margin;
//! - plan-free test runs (`PlanMemo::test_run`) equal the assembled run of
//!   the materialized plans with the buffer pool and noise engaged — every
//!   query's time, the stream time, the per-object I/O and the plan
//!   statistics — on every walk case under several seeds;
//! - a test-run recount from a profile's reused baseline partition
//!   (`WorkloadProfile::recount`) equals a fresh test-run profile on every
//!   preset family over box1, box2 and the full pool.

mod reference_planner;

use dot_core::advisor::{presets, Advisor};
use dot_core::problem::Problem;
use dot_core::toc::{self, TocEstimate};
use dot_dbms::memo::{Abandon, PlanMemo, TrialBounds};
use dot_dbms::plan::{PlanStats, PlannedQuery};
use dot_dbms::planner::plan_query;
use dot_dbms::query::{InsertOp, Op, QuerySpec, ReadOp, Rel, ScanSpec, UpdateOp};
use dot_dbms::{exec, testkit, EngineConfig, Layout, Schema, SchemaBuilder};
use dot_profiler::{
    baseline_layout, baseline_placements, group_arity, profile_workload, ProfileSource,
    WorkloadProfile,
};
use dot_storage::{catalog, ClassId, StoragePool, IO_TYPES};
use dot_workloads::{SlaSpec, Workload};

const FAMILIES: [&str; 5] = [
    "tpch:1:original",
    "tpch:1:modified",
    "tpch-subset:1",
    "tpcc:10",
    "ycsb:1000000:A",
];

/// Deterministic splitmix64 step.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_layout(objects: usize, pool: &StoragePool, rng: &mut u64) -> Layout {
    Layout::from_assignment(
        (0..objects)
            .map(|_| ClassId(splitmix(rng) as usize % pool.len()))
            .collect(),
    )
}

/// The testkit schema with a join and a sort that each touch the temp
/// object on their own (a hash build, a sort), a layout-sensitive range
/// scan, a hash join whose inner may be read through its index, and
/// transactions whose later read ops re-charge objects and CPU that
/// earlier ops already charged (so summing each op on its own matters).
fn testkit_database() -> (Schema, Workload) {
    let schema = testkit::two_table_schema();
    let dim = schema.table_by_name("dim").expect("dim").id;
    let fact = schema.table_by_name("fact").expect("fact").id;
    let fact_pk = schema.index_by_name("fact_pkey").expect("pk").id;
    let queries = vec![
        testkit::range_query(&schema, 0.002),
        testkit::probe_join_query(&schema, 0.001),
        testkit::probe_join_query(&schema, 0.5),
        QuerySpec::read(
            "sorted_dim",
            ReadOp::of(Rel::Scan(ScanSpec::full(dim))).with_sort(200_000.0, 150.0),
        ),
        QuerySpec::read(
            "hash_over_index",
            ReadOp::of(Rel::join(
                Rel::Scan(ScanSpec::filtered(dim, 0.3)),
                ScanSpec::indexed(fact, 0.0005, fact_pk),
                0.01,
                None,
            )),
        ),
        QuerySpec::transaction(
            "write_then_report",
            vec![
                Op::Insert(InsertOp {
                    table: fact,
                    rows: 7.3,
                    sequential_keys: false,
                }),
                Op::Read(
                    ReadOp::of(Rel::join(
                        Rel::join(
                            Rel::Scan(ScanSpec::indexed(fact, 0.0003, fact_pk)),
                            ScanSpec::filtered(dim, 0.7),
                            0.37,
                            None,
                        ),
                        ScanSpec::indexed(fact, 0.011, fact_pk),
                        1.3,
                        Some(fact_pk),
                    ))
                    .with_agg(1_234.5)
                    .with_sort(91_000.7, 33.3),
                ),
                Op::Update(UpdateOp {
                    table: fact,
                    rows: 3.1,
                    via: Some(fact_pk),
                    updates_indexed_key: false,
                }),
            ],
        )
        .with_weight(2.7),
        QuerySpec::transaction(
            "write_then_probe",
            vec![
                Op::Insert(InsertOp {
                    table: fact,
                    rows: 3.0,
                    sequential_keys: true,
                }),
                Op::Read(ReadOp::of(Rel::Scan(ScanSpec::indexed(
                    fact, 0.0001, fact_pk,
                )))),
                Op::Update(UpdateOp {
                    table: fact,
                    rows: 2.0,
                    via: Some(fact_pk),
                    updates_indexed_key: true,
                }),
            ],
        ),
    ];
    (schema, Workload::dss("testkit", queries))
}

/// Every preset family plus the testkit database.
fn databases() -> Vec<(String, Schema, Workload)> {
    let mut out: Vec<(String, Schema, Workload)> = FAMILIES
        .iter()
        .map(|&family| {
            let (schema, workload) = presets::database(family).expect("preset");
            (family.to_owned(), schema, workload)
        })
        .collect();
    let (schema, workload) = testkit_database();
    out.push(("testkit".to_owned(), schema, workload));
    out
}

/// A pool of 40 classes cycling through the catalog's devices, each priced
/// a little differently.
fn forty_class_pool() -> StoragePool {
    let classes = (0..40)
        .map(|k| {
            let mut class = catalog::all_classes()[k % 5].clone();
            class.name = format!("class-{k}");
            class.price_cents_per_gb_hour *= 1.0 + k as f64 / 100.0;
            class
        })
        .collect();
    StoragePool::new("forty", classes)
}

/// The built-in pools and the 40-class pool.
fn pools() -> Vec<(String, StoragePool)> {
    let mut out: Vec<(String, StoragePool)> = presets::POOL_NAMES
        .iter()
        .map(|&name| (name.to_owned(), presets::pool(name).expect("pool")))
        .collect();
    out.push(("forty".to_owned(), forty_class_pool()));
    out
}

/// dss, oltp and a concurrency between the two anchors (interpolated
/// service times), each also with a `work_mem` so small that every sort
/// and hash build spills.
fn engines() -> Vec<EngineConfig> {
    let mut interpolated = EngineConfig::dss();
    interpolated.concurrency = 16;
    let mut out = Vec::new();
    for cfg in [EngineConfig::dss(), EngineConfig::oltp(), interpolated] {
        let mut spilling = cfg;
        spilling.work_mem_gb = 1e-6;
        out.extend([cfg, spilling]);
    }
    out
}

/// Every (database, built-in pool) pair under its default engine and a
/// spilling one: the session suites' cases.
fn session_cases() -> Vec<(String, Schema, Workload, StoragePool, EngineConfig)> {
    let mut out = Vec::new();
    for (family, schema, workload) in databases() {
        for pool_name in presets::POOL_NAMES {
            let pool = presets::pool(pool_name).expect("pool");
            let cfg = presets::engine(None, &workload).expect("engine");
            let mut spilling = cfg;
            spilling.work_mem_gb = 1e-6;
            for cfg in [cfg, spilling] {
                let label = format!("{family}/{pool_name}/work_mem={}", cfg.work_mem_gb);
                out.push((label, schema.clone(), workload.clone(), pool.clone(), cfg));
            }
        }
    }
    out
}

fn assert_same_plan(label: &str, got: &PlannedQuery, want: &PlannedQuery) {
    assert_eq!(
        got.est_time_ms.to_bits(),
        want.est_time_ms.to_bits(),
        "{label}: est_time_ms"
    );
    assert_eq!(
        got.cost.cpu_ms.to_bits(),
        want.cost.cpu_ms.to_bits(),
        "{label}: cpu_ms"
    );
    assert_eq!(got.cost.io.len(), want.cost.io.len(), "{label}: objects");
    for (object, (a, b)) in got.cost.io.iter().zip(&want.cost.io).enumerate() {
        for io in IO_TYPES {
            assert_eq!(
                a[io].to_bits(),
                b[io].to_bits(),
                "{label}: object {object} {io}"
            );
        }
    }
    assert_eq!(got, want, "{label}");
}

fn assert_bit_identical(label: &str, got: &TocEstimate, want: &TocEstimate) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.per_query_ms),
        bits(&want.per_query_ms),
        "{label}: per_query_ms"
    );
    assert_eq!(
        got.stream_time_ms.to_bits(),
        want.stream_time_ms.to_bits(),
        "{label}: stream_time_ms"
    );
    assert_eq!(got.plan_stats, want.plan_stats, "{label}: plan_stats");
    assert_eq!(
        got.objective_cents.to_bits(),
        want.objective_cents.to_bits(),
        "{label}: objective_cents"
    );
    assert_eq!(got, want, "{label}");
}

/// Check every query of `workload` on `layout`: `plan_query`, the memo's
/// materialized plan and its estimate-only price all match the frozen
/// recursive planner, and so does `estimate_toc`'s stream.
fn check_against_reference(
    label: &str,
    memo: &PlanMemo<'_>,
    problem: &Problem<'_>,
    layout: &Layout,
) {
    let (schema, pool, cfg) = (problem.schema, problem.pool, &problem.cfg);
    let reference: Vec<PlannedQuery> = problem
        .workload
        .queries
        .iter()
        .map(|q| reference_planner::plan_query(q, schema, layout, pool, cfg))
        .collect();
    let (times, stats) = memo.estimate(layout);
    let memoized = memo.plan_workload(layout);
    let mut want_stats = PlanStats::default();
    for (i, (q, want)) in problem.workload.queries.iter().zip(&reference).enumerate() {
        let label = format!("{label} {}", q.name);
        assert_same_plan(&label, &plan_query(q, schema, layout, pool, cfg), want);
        assert_same_plan(&label, &memoized[i], want);
        assert_eq!(
            times[i].to_bits(),
            want.est_time_ms.to_bits(),
            "{label}: estimate"
        );
        want_stats.add(want);
    }
    assert_eq!(stats, want_stats, "{label}: plan stats");
    let want_run = exec::assemble(&reference, schema, layout, pool, cfg, None);
    let got = toc::estimate_toc(problem, layout);
    assert_eq!(
        got.stream_time_ms.to_bits(),
        want_run.stream_time_ms.to_bits(),
        "{label}: stream time"
    );
}

#[test]
fn templates_plan_exactly_as_the_recursive_planner() {
    let mut rng = 0x5EED_0004u64;
    let mut checked = 0usize;
    for (family, schema, workload) in databases() {
        for (pool_name, pool) in pools() {
            for cfg in engines() {
                let label = format!(
                    "{family}/{pool_name}/c={}/work_mem={}",
                    cfg.concurrency, cfg.work_mem_gb
                );
                let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.5), cfg);
                let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
                let layouts = (0..6)
                    .map(|_| random_layout(schema.object_count(), &pool, &mut rng))
                    .chain(
                        pool.ids()
                            .map(|c| Layout::uniform(c, schema.object_count())),
                    );
                for layout in layouts {
                    check_against_reference(&label, &memo, &problem, &layout);
                    checked += workload.queries.len();
                }
            }
        }
    }
    assert!(checked > 10_000, "{checked} plans checked");
}

/// A pool of 40 classes and a table with 14 indexes: an insert touches the
/// heap, every index and the log, so its plan reads 16 objects' classes.
fn wide_problem() -> (Schema, StoragePool, Workload) {
    let mut builder = SchemaBuilder::new("wide")
        .table("events", 2_000_000.0, 120.0)
        .primary_index(8.0);
    for i in 0..13 {
        builder = builder.index(&format!("events_k{i}"), 8.0);
    }
    let schema = builder
        .table("lookup", 50_000.0, 80.0)
        .primary_index(8.0)
        .log(1.0)
        .build();
    let events = schema.table_by_name("events").expect("events").id;
    let lookup = schema.table_by_name("lookup").expect("lookup");
    let pk = schema.primary_index_of(lookup.id).expect("pk").id;
    let queries = vec![
        QuerySpec::transaction(
            "ingest",
            vec![Op::Insert(InsertOp {
                table: events,
                rows: 10.0,
                sequential_keys: false,
            })],
        ),
        QuerySpec::read(
            "probe",
            ReadOp::of(Rel::Scan(ScanSpec::indexed(lookup.id, 0.001, pk))),
        ),
    ];
    (
        schema,
        forty_class_pool(),
        Workload::oltp("wide", queries, 8, 1000.0),
    )
}

#[test]
fn forty_class_pool_plans_match_the_recursive_planner() {
    let (schema, pool, workload) = wide_problem();
    let cfg = EngineConfig::oltp();
    let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
    let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.5), cfg);
    let estimator = toc::Estimator::direct().memoized(&memo);
    let mut rng = 0x5EED_0006u64;
    for _ in 0..20 {
        let layout = random_layout(schema.object_count(), &pool, &mut rng);
        check_against_reference("wide", &memo, &problem, &layout);
        assert_bit_identical(
            "wide",
            &estimator.estimate(&problem, &layout),
            &toc::estimate_toc(&problem, &layout),
        );
    }
    // Profiling it would enumerate 40^15 baselines: sessions refuse it.
    let refused = Advisor::builder(&schema, &pool, &workload)
        .engine(cfg)
        .build();
    assert!(
        matches!(
            refused,
            Err(dot_core::advisor::ProvisionError::InvalidRequest { .. })
        ),
        "{:?}",
        refused.err()
    );
}

#[test]
fn choice_keys_group_layouts_exactly_by_same_choices() {
    let (mut shared, mut distinct) = (0usize, 0usize);
    for (family, schema, workload) in databases() {
        for pool_name in presets::POOL_NAMES {
            let pool = presets::pool(pool_name).expect("pool");
            for cfg in engines() {
                let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
                let layouts: Vec<Layout> = baseline_placements(&pool, group_arity(&schema))
                    .iter()
                    .map(|p| baseline_layout(&schema, p))
                    .collect();
                let plans: Vec<Vec<PlannedQuery>> = layouts
                    .iter()
                    .map(|l| {
                        workload
                            .queries
                            .iter()
                            .map(|q| reference_planner::plan_query(q, &schema, l, &pool, &cfg))
                            .collect()
                    })
                    .collect();
                let keys: Vec<_> = layouts.iter().map(|l| memo.choice_key(l)).collect();
                for a in 0..layouts.len() {
                    for b in a + 1..layouts.len() {
                        let same = plans[a]
                            .iter()
                            .zip(&plans[b])
                            .all(|(x, y)| x.same_choices(y));
                        assert_eq!(
                            keys[a] == keys[b],
                            same,
                            "{family}/{pool_name}: baselines {a} and {b}"
                        );
                        if same {
                            shared += 1;
                        } else {
                            distinct += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        shared > 0 && distinct > 0,
        "{shared} shared, {distinct} distinct"
    );
}

#[test]
fn session_estimates_equal_the_reference_with_cache_off_cold_and_warm() {
    let mut rng = 0x5EED_0001u64;
    for (label, schema, workload, pool, cfg) in session_cases() {
        let layouts: Vec<Layout> = (0..8)
            .map(|_| random_layout(schema.object_count(), &pool, &mut rng))
            .chain(
                pool.ids()
                    .map(|c| Layout::uniform(c, schema.object_count())),
            )
            .collect();
        let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.5), cfg);
        let reference: Vec<TocEstimate> = layouts
            .iter()
            .map(|l| toc::estimate_toc(&problem, l))
            .collect();

        // Off is the memo-free reference above; cold is a fresh session's
        // first pass, which compiles its templates; warm is a second pass
        // over the same session, priced from the compiled templates.
        let advisor = Advisor::builder(&schema, &pool, &workload)
            .engine(cfg)
            .build()
            .expect("session");
        assert!(
            !advisor.plans().is_compiled(),
            "{label}: a fresh session compiles lazily"
        );
        let estimator = advisor.estimator();
        for mode in ["cold", "warm"] {
            for (layout, want) in layouts.iter().zip(&reference) {
                let got = estimator.estimate(advisor.problem(), layout);
                assert_bit_identical(&format!("{label} cache {mode}"), &got, want);
            }
            assert!(
                advisor.plans().is_compiled(),
                "{label} cache {mode}: estimates price the session's templates"
            );
        }
    }
}

#[test]
fn session_measurements_equal_the_reference() {
    let mut rng = 0x5EED_0002u64;
    for (label, schema, workload, pool, cfg) in session_cases() {
        let advisor = Advisor::builder(&schema, &pool, &workload)
            .engine(cfg)
            .build()
            .expect("session");
        let estimator = advisor.estimator();
        for seed in 0..3 {
            let layout = random_layout(schema.object_count(), &pool, &mut rng);
            let want = toc::measure_toc(advisor.problem(), &layout, seed);
            let got = estimator.measure(advisor.problem(), &layout, seed);
            assert_bit_identical(&format!("{label} seed {seed}"), &got, &want);
        }
    }
}

#[test]
fn session_estimates_equal_the_reference_under_shared_worker_threads() {
    let mut rng = 0x5EED_0003u64;
    for (label, schema, workload, pool, cfg) in session_cases() {
        let layouts: Vec<Layout> = (0..12)
            .map(|_| random_layout(schema.object_count(), &pool, &mut rng))
            .collect();
        let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.5), cfg);
        let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
        let estimator = toc::Estimator::direct().memoized(&memo);
        // Threads share one Copy view of a memo; the first of them
        // compiles the shared templates.
        let results: Vec<Vec<TocEstimate>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        layouts
                            .iter()
                            .map(|l| estimator.estimate(&problem, l))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        assert!(memo.is_compiled(), "{label}: the workers priced templates");
        for per_thread in results {
            for (layout, got) in layouts.iter().zip(&per_thread) {
                let want = toc::estimate_toc(&problem, layout);
                assert_bit_identical(&format!("{label} threaded"), got, &want);
            }
        }
    }
}

#[test]
fn siblings_share_the_memo_and_quiet_sessions_allocate_none() {
    let (schema, workload) = presets::database("tpch-subset:1").expect("preset");
    let pool = catalog::box2();
    let advisor = Advisor::builder(&schema, &pool, &workload)
        .build()
        .expect("session");
    assert!(
        !advisor.plans().is_compiled(),
        "nothing compiled before a solve"
    );
    let rec = advisor.recommend("dot").expect("dot");
    assert!(advisor.plans().is_compiled());
    let sibling = advisor.with_sla(0.25);
    assert!(std::ptr::eq(sibling.plans(), advisor.plans()));
    let priced =
        advisor.with_cost_model(dot_core::problem::LayoutCostModel::Discrete { alpha: 0.5 });
    assert!(std::ptr::eq(priced.plans(), advisor.plans()));
    // A sibling prices the recommended layout from the shared templates.
    let again = sibling.estimator().estimate(sibling.problem(), &rec.layout);
    assert_bit_identical(
        "sibling",
        &again,
        &toc::estimate_toc(sibling.problem(), &rec.layout),
    );
    assert_eq!(
        sibling.recommend("dot").expect("sibling dot").layout,
        advisor.with_sla(0.25).recommend("dot").expect("dot").layout
    );
}

/// Every (database, pool, engine) a pricer walks: each preset family and
/// the testkit database on every built-in pool and the 40-class pool,
/// under the database's default engine and one whose sorts and hash
/// builds all spill.
fn walk_cases() -> Vec<(String, Schema, Workload, StoragePool, EngineConfig)> {
    let mut out = Vec::new();
    for (family, schema, workload) in databases() {
        for (pool_name, pool) in pools() {
            let cfg = presets::engine(None, &workload).expect("engine");
            let mut spilling = cfg;
            spilling.work_mem_gb = 1e-6;
            for cfg in [cfg, spilling] {
                let label = format!("{family}/{pool_name}/work_mem={}", cfg.work_mem_gb);
                out.push((label, schema.clone(), workload.clone(), pool.clone(), cfg));
            }
        }
    }
    out
}

/// The next layout of a seeded walk: mostly one to three objects moved to
/// random classes (a DOT group move or an odometer step), sometimes an
/// unrelated random layout or a uniform one (a reset).
fn step(layout: &Layout, pool: &StoragePool, rng: &mut u64) -> Layout {
    let n = layout.len();
    match splitmix(rng) % 10 {
        0 => random_layout(n, pool, rng),
        1 => Layout::uniform(ClassId(splitmix(rng) as usize % pool.len()), n),
        _ => {
            let mut next = layout.clone();
            for _ in 0..1 + splitmix(rng) % 3 {
                let object = dot_dbms::ObjectId(splitmix(rng) as usize % n);
                next.place(object, ClassId(splitmix(rng) as usize % pool.len()));
            }
            next
        }
    }
}

#[test]
fn pricer_walks_answer_bit_identically_to_the_memo_and_the_reference_planner() {
    let mut rng = 0x5EED_0007u64;
    let (mut priced, mut skipped) = (0usize, 0usize);
    let (mut keys_shared, mut keys_distinct) = (0usize, 0usize);
    for (label, schema, workload, pool, cfg) in walk_cases() {
        let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
        let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.5), cfg);
        let mut pricer = memo.pricer();
        let mut toc_pricer = toc::Estimator::direct().memoized(&memo).pricer(&problem);
        let mut layout = random_layout(schema.object_count(), &pool, &mut rng);
        let mut last: Option<(dot_dbms::memo::ChoiceKey, Vec<PlannedQuery>)> = None;
        for i in 0..32 {
            if i > 0 {
                layout = step(&layout, &pool, &mut rng);
            }
            // Pruning skips candidates: the pricer never sees them.
            if splitmix(&mut rng) % 4 == 0 {
                skipped += 1;
                continue;
            }
            priced += 1;
            let label = format!("{label} step {i}");
            let reference: Vec<PlannedQuery> = workload
                .queries
                .iter()
                .map(|q| reference_planner::plan_query(q, &schema, &layout, &pool, &cfg))
                .collect();
            // Either call may come first, or alone: both keep the pricer
            // in step with the layout.
            let ask = splitmix(&mut rng) % 3;
            if ask != 1 {
                let (times, stats) = pricer.estimate(&layout);
                let (want_times, want_stats) = memo.estimate(&layout);
                let mut reference_stats = PlanStats::default();
                for (j, want) in reference.iter().enumerate() {
                    assert_eq!(times[j].to_bits(), want_times[j].to_bits(), "{label}: memo");
                    assert_eq!(
                        times[j].to_bits(),
                        want.est_time_ms.to_bits(),
                        "{label}: reference {}",
                        want.name
                    );
                    reference_stats.add(want);
                }
                assert_eq!(stats, want_stats, "{label}: memo stats");
                assert_eq!(stats, reference_stats, "{label}: reference stats");
                assert_bit_identical(
                    &label,
                    &toc_pricer.estimate(&layout),
                    &toc::estimate_toc(&problem, &layout),
                );
            }
            if ask != 0 {
                let key = pricer.choice_key(&layout);
                assert_eq!(key, memo.choice_key(&layout), "{label}: choice key");
                if let Some((last_key, last_plans)) = &last {
                    let same = last_plans
                        .iter()
                        .zip(&reference)
                        .all(|(a, b)| a.same_choices(b));
                    assert_eq!(*last_key == key, same, "{label}: key vs reference choices");
                    keys_shared += usize::from(same);
                    keys_distinct += usize::from(!same);
                }
                last = Some((key, reference));
            }
        }
    }
    assert!(
        priced > 1_000 && skipped > 200 && keys_shared > 0 && keys_distinct > 0,
        "{priced} priced, {skipped} skipped, keys {keys_shared} shared, {keys_distinct} distinct"
    );
}

/// `(times, stats)` against the frozen recursive planner, bit for bit.
fn assert_matches_reference(
    label: &str,
    times: &[f64],
    stats: PlanStats,
    queries: &[QuerySpec],
    layout: &Layout,
    (schema, pool, cfg): (&Schema, &StoragePool, &EngineConfig),
) {
    let mut want_stats = PlanStats::default();
    assert_eq!(times.len(), queries.len(), "{label}: one time per query");
    for (q, time) in queries.iter().zip(times) {
        let want = reference_planner::plan_query(q, schema, layout, pool, cfg);
        assert_eq!(
            time.to_bits(),
            want.est_time_ms.to_bits(),
            "{label}: {}",
            q.name
        );
        want_stats.add(&want);
    }
    assert_eq!(stats, want_stats, "{label}: reference stats");
}

#[test]
fn pricer_trials_and_commits_answer_bit_identically() {
    let mut rng = 0x5EED_000Au64;
    let (mut trials, mut commits, mut dropped) = (0usize, 0usize, 0usize);
    for (label, schema, workload, pool, cfg) in walk_cases() {
        let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
        let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.5), cfg);
        let mut pricer = memo.pricer();
        let mut toc_pricer = toc::Estimator::direct().memoized(&memo).pricer(&problem);
        let mut direct = toc::Estimator::direct().pricer(&problem);
        let env = (&schema, &pool, &cfg);
        // The pricer's committed layout, and the last trial's candidate.
        let mut committed = random_layout(schema.object_count(), &pool, &mut rng);
        let (times, stats) = pricer.estimate(&committed);
        assert_matches_reference(&label, &times, stats, &workload.queries, &committed, env);
        toc_pricer.estimate(&committed);
        let mut pending: Option<Layout> = None;
        let mut times = Vec::new();
        for i in 0..48 {
            let label = format!("{label} step {i}");
            match splitmix(&mut rng) % 6 {
                // A candidate around the incumbent, most of the time.
                0..=2 => {
                    let candidate = step(&committed, &pool, &mut rng);
                    let stats = pricer.trial(&candidate, &mut times);
                    let (want_times, want_stats) = memo.estimate(&candidate);
                    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&times), bits(&want_times), "{label}: trial vs memo");
                    assert_eq!(stats, want_stats, "{label}: trial stats vs memo");
                    assert_matches_reference(
                        &label,
                        &times,
                        stats,
                        &workload.queries,
                        &candidate,
                        env,
                    );
                    let space = candidate.space_per_class(&schema, &pool);
                    let want = toc::estimate_toc(&problem, &candidate);
                    let spare = std::mem::take(&mut times);
                    let got = toc_pricer.trial(&candidate, &space, spare);
                    assert_bit_identical(&format!("{label}: toc trial"), &got, &want);
                    times = got.per_query_ms;
                    let got = direct.trial(&candidate, &space, Vec::new());
                    assert_bit_identical(&format!("{label}: memo-free trial"), &got, &want);
                    trials += 1;
                    pending = Some(candidate);
                }
                3 => {
                    pricer.commit();
                    toc_pricer.commit();
                    direct.commit();
                    if let Some(candidate) = pending.take() {
                        committed = candidate;
                        commits += 1;
                        // The committed answers and codes are the trial's.
                        let key = pricer.choice_key(&committed);
                        assert_eq!(key, memo.choice_key(&committed), "{label}: key");
                    }
                }
                // An estimate of the committed layout: an uncommitted trial
                // must not have moved it.
                4 => {
                    dropped += usize::from(pending.take().is_some());
                    let (times, stats) = pricer.estimate(&committed);
                    assert_matches_reference(
                        &label,
                        &times,
                        stats,
                        &workload.queries,
                        &committed,
                        env,
                    );
                    assert_bit_identical(
                        &format!("{label}: toc estimate"),
                        &toc_pricer.estimate(&committed),
                        &toc::estimate_toc(&problem, &committed),
                    );
                }
                // A jump: `choice_key` commits the layout it keys, and a
                // pending trial is dropped.
                _ => {
                    pending = None;
                    committed = step(&committed, &pool, &mut rng);
                    let key = pricer.choice_key(&committed);
                    assert_eq!(key, memo.choice_key(&committed), "{label}: jump key");
                    toc_pricer.estimate(&committed);
                }
            }
        }
    }
    assert!(
        trials > 1_000 && commits > 100 && dropped > 100,
        "{trials} trials, {commits} commits, {dropped} dropped"
    );
}

#[test]
fn a_query_estimate_reads_only_its_own_objects_classes() {
    let mut rng = 0x5EED_0008u64;
    let mut checked = 0usize;
    for (label, schema, workload, pool, cfg) in walk_cases() {
        let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
        for _ in 0..3 {
            let layout = random_layout(schema.object_count(), &pool, &mut rng);
            let (times, _) = memo.estimate(&layout);
            for (q, time) in times.iter().enumerate() {
                let own = memo.query_objects(q);
                assert!(own.windows(2).all(|w| w[0] < w[1]), "{label}: ascending");
                // Re-class every other object at random.
                let mut moved = layout.clone();
                for o in 0..schema.object_count() {
                    let object = dot_dbms::ObjectId(o);
                    if own.binary_search(&object).is_err() {
                        moved.place(object, ClassId(splitmix(&mut rng) as usize % pool.len()));
                    }
                }
                let (again, _) = memo.estimate(&moved);
                assert_eq!(
                    again[q].to_bits(),
                    time.to_bits(),
                    "{label}: {} moved with objects it does not read",
                    workload.queries[q].name
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 1_000, "{checked} queries checked");
}

#[test]
fn a_pricer_for_a_problem_its_memo_does_not_serve_plans_from_scratch() {
    let (schema, workload) = presets::database("tpch-subset:1").expect("preset");
    let pool = catalog::box2();
    let memo = PlanMemo::new(&workload.queries, &schema, &pool, &EngineConfig::oltp());
    let problem = Problem::new(
        &schema,
        &pool,
        &workload,
        SlaSpec::relative(0.5),
        EngineConfig::dss(),
    );
    let mut pricer = toc::Estimator::direct().memoized(&memo).pricer(&problem);
    let mut rng = 0x5EED_0009u64;
    for _ in 0..8 {
        let layout = random_layout(schema.object_count(), &pool, &mut rng);
        assert_bit_identical(
            "unserved",
            &pricer.estimate(&layout),
            &toc::estimate_toc(&problem, &layout),
        );
    }
    assert!(!memo.is_compiled(), "an unserved memo is never priced");
}

#[test]
fn decision_walks_key_every_layout_like_the_memo() {
    let mut rng = 0x5EED_000Au64;
    let (mut keyed, mut changed) = (0usize, 0usize);
    for (label, schema, workload, pool, cfg) in walk_cases() {
        let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
        let mut decisions = memo.decisions();
        let mut layout = random_layout(schema.object_count(), &pool, &mut rng);
        let mut last: Option<Vec<u8>> = None;
        for i in 0..32 {
            if i > 0 {
                layout = step(&layout, &pool, &mut rng);
            }
            // Pruning skips candidates: the walk never sees them.
            if splitmix(&mut rng) % 4 == 0 {
                continue;
            }
            let key = decisions.key(&layout).to_vec();
            let want = memo.choice_key(&layout);
            assert_eq!(key, want.as_bytes(), "{label} step {i}: decision-only key");
            keyed += 1;
            changed += usize::from(last.as_ref().is_some_and(|l| *l != key));
            last = Some(key);
        }
    }
    assert!(
        keyed > 1_000 && changed > 0,
        "{keyed} keyed, {changed} changed"
    );
}

#[test]
fn plan_free_estimate_counts_equal_the_assembled_run() {
    let mut rng = 0x5EED_000Bu64;
    for (label, schema, workload, pool, cfg) in walk_cases() {
        let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
        let mut layout = random_layout(schema.object_count(), &pool, &mut rng);
        for i in 0..8 {
            if i > 0 {
                layout = step(&layout, &pool, &mut rng);
            }
            let got = memo.workload_io(&layout);
            let planned = memo.plan_workload(&layout);
            let want = exec::assemble(&planned, &schema, &layout, &pool, &cfg, None)
                .cost
                .io;
            assert_eq!(
                got.len(),
                want.len(),
                "{label} step {i}: one count per object"
            );
            for (o, (g, w)) in got.iter().zip(&want).enumerate() {
                for io in IO_TYPES {
                    assert_eq!(
                        g[io].to_bits(),
                        w[io].to_bits(),
                        "{label} step {i}: object {o} {io:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn plan_free_test_runs_equal_the_assembled_run() {
    let mut rng = 0x5EED_000Cu64;
    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    for (label, schema, workload, pool, cfg) in walk_cases() {
        let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
        let mut layout = random_layout(schema.object_count(), &pool, &mut rng);
        for i in 0..6 {
            if i > 0 {
                layout = step(&layout, &pool, &mut rng);
            }
            for seed in [1, 0xD07, 41, u64::MAX] {
                let label = format!("{label} step {i} seed {seed}");
                let got = memo.test_run(&layout, seed);
                let planned = memo.plan_workload(&layout);
                let want = exec::assemble(&planned, &schema, &layout, &pool, &cfg, Some(seed));
                let want_times: Vec<f64> = want.queries.iter().map(|q| q.time_ms).collect();
                assert_eq!(bits(&got.per_query_ms), bits(&want_times), "{label}: times");
                assert_eq!(
                    got.stream_time_ms.to_bits(),
                    want.stream_time_ms.to_bits(),
                    "{label}: stream time"
                );
                assert_eq!(got.stats, want.stats, "{label}: plan stats");
                assert_eq!(got.io.len(), want.cost.io.len(), "{label}");
                for (o, (g, w)) in got.io.iter().zip(&want.cost.io).enumerate() {
                    for io in IO_TYPES {
                        assert_eq!(g[io].to_bits(), w[io].to_bits(), "{label}: {o} {io:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn bounded_trials_answer_like_trials_or_certainly_lose() {
    let mut rng = 0x5EED_000Du64;
    let (mut priced, mut over_cap, mut hopeless) = (0usize, 0usize, 0usize);
    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    for (label, schema, workload, pool, cfg) in walk_cases() {
        let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
        let n = workload.queries.len();
        let mut bounded = memo.pricer();
        let mut plain = memo.pricer();
        let mut committed = random_layout(schema.object_count(), &pool, &mut rng);
        let (committed_times, _) = bounded.estimate(&committed);
        plain.estimate(&committed);
        // Caps around the first committed answers, and a stream-time
        // threshold around their sum: some trials pass, some do not.
        let caps: Vec<f64> = committed_times
            .iter()
            .map(|t| t * (0.8 + 0.6 * (splitmix(&mut rng) % 1000) as f64 / 1000.0))
            .collect();
        let floors = vec![0.0; n];
        let (mut times, mut want) = (Vec::new(), Vec::new());
        for i in 0..40 {
            let label = format!("{label} step {i}");
            let candidate = step(&committed, &pool, &mut rng);
            let stream_cap: f64 = committed_times
                .iter()
                .zip(&workload.queries)
                .map(|(t, q)| t * q.weight)
                .sum::<f64>()
                * (0.5 + (splitmix(&mut rng) % 1000) as f64 / 1000.0);
            let bounds = TrialBounds {
                caps_ms: (i % 3 != 0).then_some(caps.as_slice()),
                floors_ms: if i % 2 == 0 { &floors[..] } else { &[] },
                hopeless: |t: f64| t > stream_cap,
            };
            let got = bounded.trial_within(&candidate, &mut times, &bounds);
            let want_stats = plain.trial(&candidate, &mut want);
            let stream: f64 = want
                .iter()
                .zip(&workload.queries)
                .fold(0.0, |sum, (t, q)| sum + t * q.weight);
            match got {
                Ok(stats) => {
                    assert_eq!(bits(&times), bits(&want), "{label}: times");
                    assert_eq!(stats, want_stats, "{label}: stats");
                    priced += 1;
                    if splitmix(&mut rng) % 2 == 0 {
                        bounded.commit();
                        plain.commit();
                        committed = candidate;
                    }
                }
                Err(Abandon::OverCap { query, time_ms }) => {
                    assert_eq!(time_ms.to_bits(), want[query].to_bits(), "{label}");
                    assert!(time_ms > caps[query], "{label}: not over its cap");
                    over_cap += 1;
                    bounded.commit(); // a no-op: an abandoned trial is dropped
                }
                Err(Abandon::Hopeless { stream_floor_ms }) => {
                    assert!(stream_floor_ms > stream_cap, "{label}: not hopeless");
                    assert!(stream_floor_ms <= stream, "{label}: bound over the stream");
                    hopeless += 1;
                    bounded.commit();
                }
            }
            // The committed state is the same in both pricers.
            let (got, got_stats) = bounded.estimate(&committed);
            let (want_times, want_stats) = plain.estimate(&committed);
            assert_eq!(bits(&got), bits(&want_times), "{label}: committed");
            assert_eq!(got_stats, want_stats, "{label}: committed stats");
        }
    }
    assert!(
        priced > 100 && over_cap > 100 && hopeless > 100,
        "{priced} priced, {over_cap} over a cap, {hopeless} hopeless"
    );
}

/// Two profiles agree bit for bit on every group's counts at every
/// placement, and on their baseline and profiled counts.
fn assert_profiles_bit_identical(label: &str, got: &WorkloadProfile, want: &WorkloadProfile) {
    assert_eq!(got.arity, want.arity, "{label}");
    assert_eq!(got.baseline_count, want.baseline_count, "{label}");
    assert_eq!(got.profiled_count, want.profiled_count, "{label}");
    assert_eq!(got.groups.len(), want.groups.len(), "{label}");
    for (gi, (g, w)) in got.groups.iter().zip(&want.groups).enumerate() {
        assert_eq!(g.objects, w.objects, "{label} group {gi}");
        assert_eq!(g.placement_count(), w.placement_count(), "{label} {gi}");
        for code in 0..g.placement_count() {
            let placement: Vec<ClassId> = g.placement_at(code).collect();
            let counts = g.counts(&placement).expect("dense table");
            let want = w.counts(&placement).expect("dense table");
            for (c, d) in counts.iter().zip(want) {
                for io in IO_TYPES {
                    assert_eq!(c[io].to_bits(), d[io].to_bits(), "{label} {gi} {code}");
                }
            }
        }
    }
    assert_eq!(got, want, "{label}");
}

#[test]
fn a_test_run_recount_from_a_reused_partition_equals_a_fresh_profile() {
    let mut recounted = 0usize;
    for family in FAMILIES {
        let (schema, workload) = presets::database(family).expect("preset");
        let cfg = presets::engine(None, &workload).expect("engine");
        for pool_name in presets::POOL_NAMES {
            let pool = presets::pool(pool_name).expect("pool");
            let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
            let estimated = profile_workload(&memo, ProfileSource::Estimate);
            for seed in [0xD07, 0xD08, 41] {
                let source = ProfileSource::TestRun { seed };
                let label = format!("{family}/{pool_name}/seed {seed}");
                let fresh = profile_workload(&memo, source);
                let recount = estimated.recount(&memo, source);
                assert_profiles_bit_identical(&label, &recount, &fresh);
                // Counting back from the test run restores the estimate.
                let back = recount.recount(&memo, ProfileSource::Estimate);
                assert_profiles_bit_identical(&label, &back, &estimated);
                recounted += 1;
            }
        }
    }
    assert_eq!(recounted, FAMILIES.len() * presets::POOL_NAMES.len() * 3);
}

#[test]
fn query_times_are_monotone_under_pointwise_class_dominance() {
    let mut rng = 0x5EED_000Eu64;
    let mut slower_pairs = 0usize;
    for (label, schema, workload, pool, cfg) in walk_cases() {
        let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
        let no_faster = |a: ClassId, b: ClassId| {
            IO_TYPES.iter().all(|&io| {
                let (a, b) = (pool.class_unchecked(a), pool.class_unchecked(b));
                a.profile.latency_ms(io, cfg.concurrency)
                    >= b.profile.latency_ms(io, cfg.concurrency)
            })
        };
        for i in 0..24 {
            let fast = random_layout(schema.object_count(), &pool, &mut rng);
            // Move some objects to classes no faster than their own.
            let mut slow = fast.clone();
            for o in 0..schema.object_count() {
                let object = dot_dbms::ObjectId(o);
                let class = ClassId(splitmix(&mut rng) as usize % pool.len());
                if splitmix(&mut rng) % 2 == 0 && no_faster(class, fast.class_of(object)) {
                    slow.place(object, class);
                }
            }
            let (fast_times, _) = memo.estimate(&fast);
            let (slow_times, _) = memo.estimate(&slow);
            for (q, (f, s)) in fast_times.iter().zip(&slow_times).enumerate() {
                assert!(
                    *s >= f * (1.0 - 1e-6),
                    "{label} step {i}: query {q} runs {s} ms on the slower layout, {f} on the faster"
                );
            }
            slower_pairs += usize::from(slow != fast);
        }
    }
    assert!(slower_pairs > 500, "{slower_pairs} pairs");
}

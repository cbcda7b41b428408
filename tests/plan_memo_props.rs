//! Property suite for the session plan memo (`dot_dbms::memo::PlanMemo`):
//!
//! - a session's estimates and measurements equal the memo-free reference
//!   (`toc::estimate_toc`, `toc::measure_toc`) bit for bit, on random
//!   layouts of every preset family (and a join/sort testkit database that
//!   spills) over every built-in pool, with the TOC
//!   cache off, cold and warm, and under exhaustive search's threads;
//! - a query's plan never changes when an object outside its footprint
//!   moves, and every object its plan charges lies inside the footprint;
//! - footprints whose key would overflow are planned directly and still
//!   answer correctly.

use dot_core::advisor::{presets, Advisor};
use dot_core::problem::Problem;
use dot_core::toc::{self, CachedEstimator, TocEstimate};
use dot_dbms::memo::PlanMemo;
use dot_dbms::planner::{footprint, plan_query};
use dot_dbms::query::{InsertOp, Op, QuerySpec, ReadOp, Rel, ScanSpec};
use dot_dbms::{testkit, EngineConfig, Layout, ObjectId, Schema, SchemaBuilder};
use dot_storage::{catalog, ClassId, StoragePool};
use dot_workloads::{SlaSpec, Workload};
use std::sync::Arc;

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
/// object on their own (a hash build, a sort), plus a layout-sensitive
/// range scan.
fn testkit_database() -> (Schema, Workload) {
    let schema = testkit::two_table_schema();
    let dim = schema.table_by_name("dim").expect("dim").id;
    let queries = vec![
        testkit::range_query(&schema, 0.002),
        testkit::probe_join_query(&schema, 0.001),
        testkit::probe_join_query(&schema, 0.5),
        QuerySpec::read(
            "sorted_dim",
            ReadOp::of(Rel::Scan(ScanSpec::full(dim))).with_sort(200_000.0, 150.0),
        ),
    ];
    (schema, Workload::dss("testkit", queries))
}

/// Every (family, pool) pair with its engine, plus a `work_mem` so small
/// that every sort and hash build spills, exercising the temp object.
fn cases() -> Vec<(String, Schema, Workload, StoragePool, EngineConfig)> {
    let mut databases: Vec<(&str, Schema, Workload)> = FAMILIES
        .iter()
        .map(|&family| {
            let (schema, workload) = presets::database(family).expect("preset");
            (family, schema, workload)
        })
        .collect();
    let (schema, workload) = testkit_database();
    databases.push(("testkit", schema, workload));
    let mut out = Vec::new();
    for (family, schema, workload) in databases {
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

#[test]
fn session_estimates_equal_the_reference_with_cache_off_cold_and_warm() {
    let mut rng = 0x5EED_0001u64;
    for (label, schema, workload, pool, cfg) in cases() {
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

        let cache = Arc::new(CachedEstimator::new());
        for mode in ["off", "cold", "warm"] {
            let mut builder = Advisor::builder(&schema, &pool, &workload).engine(cfg);
            if mode != "off" {
                builder = builder.toc_cache(Arc::clone(&cache));
            }
            let advisor = builder.build().expect("session");
            let estimator = advisor.estimator();
            for (layout, want) in layouts.iter().zip(&reference) {
                let got = estimator.estimate(advisor.problem(), layout);
                assert_bit_identical(&format!("{label} cache {mode}"), &got, want);
            }
            if mode == "warm" {
                assert!(cache.stats().hits >= layouts.len() as u64, "{label}");
            } else {
                assert!(
                    !advisor.plans().is_empty(),
                    "{label}: misses plan via the memo"
                );
            }
        }
    }
}

#[test]
fn session_measurements_equal_the_reference() {
    let mut rng = 0x5EED_0002u64;
    for (label, schema, workload, pool, cfg) in cases() {
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
    for (label, schema, workload, pool, cfg) in cases() {
        let layouts: Vec<Layout> = (0..12)
            .map(|_| random_layout(schema.object_count(), &pool, &mut rng))
            .collect();
        let cache = CachedEstimator::new();
        let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.5), cfg);
        let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
        for estimator in [
            toc::Estimator::direct().memoized(&memo),
            cache.scope(&problem).memoized(&memo),
        ] {
            // Exhaustive search's workers share one Copy view across scoped
            // threads; several threads missing on the same plans race to
            // insert them.
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
            assert!(
                !memo.is_empty(),
                "{label}: the workers planned via the memo"
            );
            for per_thread in results {
                for (layout, got) in layouts.iter().zip(&per_thread) {
                    let want = toc::estimate_toc(&problem, layout);
                    assert_bit_identical(&format!("{label} threaded"), got, &want);
                }
            }
        }
    }
}

#[test]
fn moving_an_object_outside_the_footprint_never_changes_the_plan() {
    let mut rng = 0x5EED_0004u64;
    for (label, schema, workload, pool, cfg) in cases() {
        for q in &workload.queries {
            let fp = footprint(q, &schema, &cfg);
            let outside: Vec<ObjectId> = schema
                .objects()
                .iter()
                .map(|o| o.id)
                .filter(|o| !fp.contains(o))
                .collect();
            if outside.is_empty() {
                continue;
            }
            for _ in 0..3 {
                let base = random_layout(schema.object_count(), &pool, &mut rng);
                let planned = plan_query(q, &schema, &base, &pool, &cfg);
                let mut moved = base.clone();
                for &o in &outside {
                    moved.place(o, ClassId(splitmix(&mut rng) as usize % pool.len()));
                }
                let replanned = plan_query(q, &schema, &moved, &pool, &cfg);
                assert_eq!(
                    replanned.est_time_ms.to_bits(),
                    planned.est_time_ms.to_bits(),
                    "{label} {}",
                    q.name
                );
                assert_eq!(replanned, planned, "{label} {}", q.name);
            }
        }
    }
}

#[test]
fn every_charged_object_lies_inside_the_footprint() {
    let mut rng = 0x5EED_0005u64;
    for (label, schema, workload, pool, cfg) in cases() {
        for q in &workload.queries {
            let fp = footprint(q, &schema, &cfg);
            assert!(
                fp.windows(2).all(|w| w[0] < w[1]),
                "{label}: sorted, distinct"
            );
            for _ in 0..3 {
                let layout = random_layout(schema.object_count(), &pool, &mut rng);
                let planned = plan_query(q, &schema, &layout, &pool, &cfg);
                for (i, counts) in planned.cost.io.iter().enumerate() {
                    if !counts.is_zero() {
                        assert!(
                            fp.contains(&ObjectId(i)),
                            "{label} {}: charges {} outside its footprint",
                            q.name,
                            schema.objects()[i].name
                        );
                    }
                }
            }
        }
    }
}

/// A pool of 40 classes and a table with 14 indexes: an insert's footprint
/// (heap, every index, the log) has 40^16 placements, beyond a u64 key.
fn wide_problem() -> (Schema, StoragePool, Workload) {
    let classes = (0..40)
        .map(|k| {
            let mut class = catalog::all_classes()[k % 5].clone();
            class.name = format!("class-{k}");
            class.price_cents_per_gb_hour *= 1.0 + k as f64 / 100.0;
            class
        })
        .collect();
    let pool = StoragePool::new("wide", classes);
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
    (schema, pool, Workload::oltp("wide", queries, 8, 1000.0))
}

#[test]
fn overflowing_footprints_are_planned_directly_and_answer_correctly() {
    let (schema, pool, workload) = wide_problem();
    let cfg = EngineConfig::oltp();
    assert!(footprint(&workload.queries[0], &schema, &cfg).len() >= 16);
    let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
    let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.5), cfg);
    let estimator = toc::Estimator::direct().memoized(&memo);
    let mut rng = 0x5EED_0006u64;
    for _ in 0..20 {
        let layout = random_layout(schema.object_count(), &pool, &mut rng);
        for (i, q) in workload.queries.iter().enumerate() {
            assert_eq!(
                *memo.plan(i, &layout),
                plan_query(q, &schema, &layout, &pool, &cfg)
            );
        }
        assert_bit_identical(
            "wide",
            &estimator.estimate(&problem, &layout),
            &toc::estimate_toc(&problem, &layout),
        );
    }
    // Only the small read's plans are memoized; the insert is re-planned.
    assert!(memo.len() <= 20, "{} plans held", memo.len());
    // A session over the same problem estimates through its own memo.
    let advisor = Advisor::builder(&schema, &pool, &workload)
        .engine(cfg)
        .build()
        .expect("session");
    let premium = advisor.problem().premium_layout();
    assert_bit_identical(
        "wide reference",
        &advisor.constraints().reference,
        &toc::estimate_toc(advisor.problem(), &premium),
    );
    let layout = random_layout(schema.object_count(), &pool, &mut rng);
    assert_bit_identical(
        "wide session",
        &advisor.estimator().estimate(advisor.problem(), &layout),
        &toc::estimate_toc(advisor.problem(), &layout),
    );
}

#[test]
fn siblings_share_the_memo_and_quiet_sessions_allocate_none() {
    let (schema, workload) = presets::database("tpch-subset:1").expect("preset");
    let pool = catalog::box2();
    let advisor = Advisor::builder(&schema, &pool, &workload)
        .build()
        .expect("session");
    assert!(advisor.plans().is_empty(), "nothing planned before a solve");
    let rec = advisor.recommend("dot").expect("dot");
    let held = advisor.plans().len();
    assert!(held > 0);
    let sibling = advisor.with_sla(0.25);
    assert!(std::ptr::eq(sibling.plans(), advisor.plans()));
    let priced =
        advisor.with_cost_model(dot_core::problem::LayoutCostModel::Discrete { alpha: 0.5 });
    assert!(std::ptr::eq(priced.plans(), advisor.plans()));
    // Re-estimating the recommended layout from a sibling plans nothing new.
    let again = sibling.estimator().estimate(sibling.problem(), &rec.layout);
    assert_eq!(advisor.plans().len(), held);
    assert_bit_identical(
        "sibling",
        &again,
        &toc::estimate_toc(sibling.problem(), &rec.layout),
    );
}

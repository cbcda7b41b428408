//! Property suite for `toc::CachedEstimator`: for random problems and
//! layouts, cached estimates are **bit-identical** to the uncached
//! `estimate_toc` — on the miss path, the hit path, after eviction has
//! flushed entries, across concurrent threads sharing one cache, and when
//! several distinct problems share one cache.

use dot_core::problem::{LayoutCostModel, Problem};
use dot_core::toc::{self, CachedEstimator};
use dot_dbms::query::{QuerySpec, ReadOp, Rel, ScanSpec};
use dot_dbms::{EngineConfig, Layout, SchemaBuilder};
use dot_storage::{catalog, ClassId};
use dot_workloads::{SlaSpec, Workload};
use proptest::prelude::*;

/// Random schema: 1–4 tables, each with a primary index and 0–1 secondary.
fn arb_schema() -> impl Strategy<Value = dot_dbms::Schema> {
    proptest::collection::vec(
        (
            1_000.0..5_000_000.0f64, // rows
            40.0..400.0f64,          // row bytes
            proptest::bool::ANY,     // secondary index?
        ),
        1..4,
    )
    .prop_map(|tables| {
        let mut b = SchemaBuilder::new("prop");
        for (i, (rows, bytes, secondary)) in tables.into_iter().enumerate() {
            b = b.table(&format!("t{i}"), rows, bytes).primary_index(8.0);
            if secondary {
                b = b.index(&format!("t{i}_sec"), 8.0);
            }
        }
        b.build()
    })
}

/// Random read-mostly workload over a schema.
fn workload_for(schema: &dot_dbms::Schema, sel: f64) -> Workload {
    let queries: Vec<QuerySpec> = schema
        .tables()
        .iter()
        .map(|t| {
            let pk = schema.primary_index_of(t.id).expect("pk").id;
            QuerySpec::read(
                &format!("q_{}", t.name),
                ReadOp::of(Rel::Scan(ScanSpec::indexed(t.id, sel, pk))),
            )
        })
        .collect();
    Workload::dss("prop", queries)
}

/// Random layouts over box2's three classes, seeded by a digit vector.
fn layouts_from_seed(object_count: usize, seed: &[usize]) -> Vec<Layout> {
    let pool = catalog::box2();
    let classes: Vec<ClassId> = pool.ids().collect();
    // A handful of distinct layouts: rotate the seed for each.
    (0..4)
        .map(|rot| {
            let assignment: Vec<ClassId> = (0..object_count)
                .map(|i| classes[seed[(i + rot) % seed.len()] % classes.len()])
                .collect();
            Layout::from_assignment(assignment)
        })
        .collect()
}

/// Deterministic splitmix64 step, so the churn test's access pattern is
/// scrambled (no cyclic scan the eviction policy could resonate with) yet
/// reproducible.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Regression: a warm cache at capacity must sustain a hit-rate floor under
/// key churn. The key set is slightly larger than the cache, and accesses
/// are scrambled-random, so a sane eviction policy (evict one victim per
/// admission) keeps nearly the whole cache resident and hits at about
/// `capacity / keys`. The old flush-the-world eviction cleared an entire
/// shard every time it filled, sawtoothing occupancy and halving the hit
/// rate — this test fails against it.
/// Every copy of `value` with exactly one leaf of its serialized tree
/// changed (a number moved, a flag flipped, a string extended) that still
/// deserializes and re-serializes to the changed tree.
fn one_field_variants<T: serde::Serialize + serde::Deserialize>(value: &T) -> Vec<T> {
    use serde::Value;
    /// Perturb leaf number `target` (depth-first) of `v`; `seen` counts
    /// leaves visited so far. Returns whether the leaf was found.
    fn perturb(v: &mut Value, target: usize, seen: &mut usize) -> bool {
        match v {
            Value::Array(items) => items.iter_mut().any(|i| perturb(i, target, seen)),
            Value::Object(entries) => entries.iter_mut().any(|(_, i)| perturb(i, target, seen)),
            leaf => {
                *seen += 1;
                if *seen - 1 != target {
                    return false;
                }
                match leaf {
                    Value::Number(n) if n.abs() > 1e15 => *n *= 2.0,
                    Value::Number(n) => *n += 1.0,
                    Value::Bool(b) => *b = !*b,
                    Value::String(s) => s.push('x'),
                    _ => {}
                }
                true
            }
        }
    }
    let original = value.to_value();
    let mut variants = Vec::new();
    for target in 0.. {
        let mut changed = original.clone();
        if !perturb(&mut changed, target, &mut 0) {
            break;
        }
        if changed == original {
            continue;
        }
        if let Ok(variant) = T::from_value(&changed) {
            if variant.to_value() == changed {
                variants.push(variant);
            }
        }
    }
    variants
}

#[test]
fn fingerprint_changes_with_every_estimate_input_and_ignores_sla() {
    use dot_core::advisor::presets;
    for family in ["tpch-subset:1", "tpcc:10"] {
        let (schema, workload) = presets::database(family).expect("preset");
        let pool = catalog::box2();
        let cfg = presets::engine(None, &workload).expect("engine");
        let base = Problem::new(&schema, &pool, &workload, SlaSpec::relative(0.5), cfg);
        let fp = toc::problem_fingerprint(&base);
        for sla in [0.1, 0.25, 1.0] {
            let sibling = base.clone().with_sla(SlaSpec::relative(sla));
            assert_eq!(
                toc::problem_fingerprint(&sibling),
                fp,
                "{family}: SLA {sla}"
            );
        }
        let changed = |what: &str, variant: Problem<'_>| {
            assert_ne!(toc::problem_fingerprint(&variant), fp, "{family}: {what}");
        };
        let schemas = one_field_variants(&schema);
        let pools = one_field_variants(&pool);
        let workloads = one_field_variants(&workload);
        let cfgs = one_field_variants(&cfg);
        let models = one_field_variants(&LayoutCostModel::Discrete { alpha: 0.5 });
        for (what, n) in [
            ("schema", schemas.len()),
            ("pool", pools.len()),
            ("workload", workloads.len()),
            ("cfg", cfgs.len()),
            ("cost model", models.len()),
        ] {
            assert!(n > 0, "{family}: no {what} field was varied");
        }
        for s in &schemas {
            changed(
                "schema",
                Problem {
                    schema: s,
                    ..base.clone()
                },
            );
        }
        for p in &pools {
            changed(
                "pool",
                Problem {
                    pool: p,
                    ..base.clone()
                },
            );
        }
        for w in &workloads {
            changed(
                "workload",
                Problem {
                    workload: w,
                    ..base.clone()
                },
            );
        }
        for c in &cfgs {
            changed(
                "cfg",
                Problem {
                    cfg: *c,
                    ..base.clone()
                },
            );
        }
        let discrete = base
            .clone()
            .with_cost_model(LayoutCostModel::Discrete { alpha: 0.5 });
        changed("cost model", discrete.clone());
        let discrete_fp = toc::problem_fingerprint(&discrete);
        for m in models {
            let variant = base.clone().with_cost_model(m);
            assert_ne!(
                toc::problem_fingerprint(&variant),
                discrete_fp,
                "{family}: cost model"
            );
        }
    }
}

#[test]
fn warm_cache_at_capacity_sustains_hit_rate_under_churn() {
    // 6 objects over box2's 3 classes = 729 distinct layouts, so every
    // shard of the cache holds several times its per-shard capacity worth
    // of keys and eviction is continuously exercised.
    let schema = SchemaBuilder::new("churn")
        .table("t0", 2_000_000.0, 120.0)
        .primary_index(8.0)
        .table("t1", 1_000_000.0, 80.0)
        .primary_index(8.0)
        .table("t2", 500_000.0, 60.0)
        .primary_index(8.0)
        .build();
    let pool = catalog::box2();
    let w = workload_for(&schema, 0.01);
    let p = Problem::new(
        &schema,
        &pool,
        &w,
        SlaSpec::relative(0.5),
        EngineConfig::dss(),
    );
    let classes: Vec<ClassId> = pool.ids().collect();
    let n = schema.object_count();
    assert_eq!(n, 6);
    let layouts: Vec<Layout> = (0..classes.len().pow(n as u32))
        .map(|mut code| {
            let assignment: Vec<ClassId> = (0..n)
                .map(|_| {
                    let c = classes[code % classes.len()];
                    code /= classes.len();
                    c
                })
                .collect();
            Layout::from_assignment(assignment)
        })
        .collect();
    assert_eq!(layouts.len(), 729);

    // Capacity 512 (32 per shard) against ~46 keys per shard: well over
    // capacity everywhere, but close enough that a policy which keeps the
    // cache full hits on most accesses.
    let cache = CachedEstimator::with_capacity(512);
    let view = cache.scope(&p);
    for l in &layouts {
        view.estimate(&p, l);
    }
    let warm = cache.stats();

    let mut state = 0xC0FFEE_u64;
    let churn = 2_000usize;
    for _ in 0..churn {
        let l = &layouts[(splitmix(&mut state) % layouts.len() as u64) as usize];
        view.estimate(&p, l);
    }
    let stats = cache.stats();
    let hits = stats.hits - warm.hits;
    let misses = stats.misses - warm.misses;
    assert_eq!(hits + misses, churn as u64);
    let rate = hits as f64 / churn as f64;
    assert!(
        rate >= 0.58,
        "churn hit rate {rate:.3} is below the 0.58 floor \
         (single-victim eviction keeps shards full and hits at roughly \
         capacity/keys ≈ 0.70; flush-the-world eviction sawtooths shard \
         occupancy and collapses to ≈ 0.43)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Miss, hit, and post-eviction paths all return the exact value the
    /// cache-blind `estimate_toc` computes — even with a capacity so small
    /// that shards flush constantly.
    #[test]
    fn cached_estimates_match_uncached_incl_eviction(
        schema in arb_schema(),
        sel in 1e-4..0.5f64,
        seed in proptest::collection::vec(0usize..3, 1..16),
        capacity in 1usize..64,
    ) {
        let pool = catalog::box2();
        let w = workload_for(&schema, sel);
        let p = Problem::new(&schema, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let layouts = layouts_from_seed(schema.object_count(), &seed);
        let reference: Vec<_> = layouts.iter().map(|l| toc::estimate_toc(&p, l)).collect();

        let cache = CachedEstimator::with_capacity(capacity);
        let view = cache.scope(&p);
        for round in 0..3 {
            for (l, expect) in layouts.iter().zip(&reference) {
                let got = view.estimate(&p, l);
                prop_assert_eq!(&got, expect, "round {} diverged", round);
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, 3 * layouts.len() as u64);
    }

    /// Concurrent workers sharing one cache all read bit-identical values,
    /// racing misses included.
    #[test]
    fn shared_cache_is_consistent_across_threads(
        schema in arb_schema(),
        sel in 1e-4..0.5f64,
        seed in proptest::collection::vec(0usize..3, 1..16),
    ) {
        let pool = catalog::box2();
        let w = workload_for(&schema, sel);
        let p = Problem::new(&schema, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let layouts = layouts_from_seed(schema.object_count(), &seed);
        let reference: Vec<_> = layouts.iter().map(|l| toc::estimate_toc(&p, l)).collect();

        let cache = CachedEstimator::new();
        let view = cache.scope(&p);
        let from_threads: Vec<Vec<toc::TocEstimate>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| layouts.iter().map(|l| view.estimate(&p, l)).collect())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cache worker"))
                .collect()
        });
        for worker in from_threads {
            for (got, expect) in worker.iter().zip(&reference) {
                prop_assert_eq!(got, expect);
            }
        }
    }

    /// Distinct problems sharing one cache never cross-contaminate: the
    /// cost model changes the estimate, so each problem must read back its
    /// own values.
    #[test]
    fn problems_do_not_cross_contaminate(
        schema in arb_schema(),
        sel in 1e-4..0.5f64,
        seed in proptest::collection::vec(0usize..3, 1..16),
        alpha in 0.1..1.0f64,
    ) {
        let pool = catalog::box2();
        let w = workload_for(&schema, sel);
        let linear =
            Problem::new(&schema, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let discrete = linear
            .clone()
            .with_cost_model(LayoutCostModel::Discrete { alpha });
        let layouts = layouts_from_seed(schema.object_count(), &seed);

        let cache = CachedEstimator::new();
        let linear_view = cache.scope(&linear);
        let discrete_view = cache.scope(&discrete);
        for l in &layouts {
            // Interleave so a confused key would surface immediately.
            prop_assert_eq!(linear_view.estimate(&linear, l), toc::estimate_toc(&linear, l));
            prop_assert_eq!(
                discrete_view.estimate(&discrete, l),
                toc::estimate_toc(&discrete, l)
            );
        }
    }
}

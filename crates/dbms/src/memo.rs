//! A per-session plan memo: plan each query once per placement of its own
//! objects.
//!
//! Eq. 1 of the paper prices a query object by object, and the planner
//! reads a layout only through the classes of the query's
//! [footprint]. Every candidate layout a solve
//! session looks at (profiling baselines, the DOT sweep, exhaustive search,
//! validation) therefore re-derives the same per-query plans many times
//! over: a layout change that moves one object re-plans only the queries
//! that read it. [`PlanMemo`] keys each plan by `(query, mixed-radix code of
//! its footprint's classes)` and hands back the memoized plan, bit-identical
//! to what [`plan_query`] computes for that layout.
//!
//! The memo binds the session's planner inputs (queries, schema, pool,
//! engine configuration), so a lookup only needs the query index and the
//! layout. It grows for the life of its session and is dropped with it.

use crate::config::EngineConfig;
use crate::layout::Layout;
use crate::object::ObjectId;
use crate::plan::PlannedQuery;
use crate::planner::{footprint, plan_query};
use crate::query::QuerySpec;
use crate::schema::Schema;
use dot_storage::StoragePool;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Memoized planning for one session's workload. `Sync`: the per-query
/// maps are independently locked shards, and planning happens outside the
/// lock, so exhaustive search's scoped workers share one memo without
/// serializing. Two workers missing on the same key both plan it (the
/// plans are identical) and the first insert wins.
pub struct PlanMemo<'a> {
    queries: &'a [QuerySpec],
    schema: &'a Schema,
    pool: &'a StoragePool,
    cfg: EngineConfig,
    /// Footprints and maps, built on the first planner call so a session
    /// that never plans allocates nothing here.
    state: OnceLock<MemoState>,
}

struct MemoState {
    /// Per query: its footprint, or `None` when the footprint's code would
    /// overflow the `u64` key (that query is planned directly every time).
    footprints: Vec<Option<Vec<ObjectId>>>,
    /// Per query: footprint code → plan. One lock per query is the shard.
    plans: Vec<Mutex<PlansByCode>>,
}

type PlansByCode = HashMap<u64, Arc<PlannedQuery>, BuildHasherDefault<CodeHasher>>;

impl<'a> PlanMemo<'a> {
    /// A memo over `queries` planned against `schema`, `pool` and `cfg`.
    /// Allocates nothing until the first [`plan`](Self::plan).
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
            state: OnceLock::new(),
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
    /// may stand in for [`plan_query`]'s.
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

    /// The plan of query `index` under `layout`: bit-identical to
    /// [`plan_query`]`(&queries[index], schema, layout, pool, cfg)`.
    pub fn plan(&self, index: usize, layout: &Layout) -> Arc<PlannedQuery> {
        let state = self.state.get_or_init(|| self.build_state());
        let Some(code) = state.footprints[index]
            .as_deref()
            .and_then(|objects| footprint_code(objects, layout, self.pool.len()))
        else {
            return Arc::new(self.plan_directly(index, layout));
        };
        let shard = &state.plans[index];
        if let Some(hit) = shard.lock().expect("plan memo lock").get(&code) {
            return Arc::clone(hit);
        }
        let planned = Arc::new(self.plan_directly(index, layout));
        Arc::clone(
            shard
                .lock()
                .expect("plan memo lock")
                .entry(code)
                .or_insert(planned),
        )
    }

    /// Every query's plan under `layout`, in workload order.
    pub fn plan_workload(&self, layout: &Layout) -> Vec<Arc<PlannedQuery>> {
        (0..self.queries.len())
            .map(|i| self.plan(i, layout))
            .collect()
    }

    /// Memoized plans currently held, over all queries.
    pub fn len(&self) -> usize {
        self.state.get().map_or(0, |state| {
            state
                .plans
                .iter()
                .map(|shard| shard.lock().expect("plan memo lock").len())
                .sum()
        })
    }

    /// True while no plan is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn plan_directly(&self, index: usize, layout: &Layout) -> PlannedQuery {
        plan_query(
            &self.queries[index],
            self.schema,
            layout,
            self.pool,
            &self.cfg,
        )
    }

    fn build_state(&self) -> MemoState {
        let radix = self.pool.len() as u64;
        let footprints = self
            .queries
            .iter()
            .map(|q| {
                let objects = footprint(q, self.schema, &self.cfg);
                // Every code is below radix^len, so a footprint whose
                // placements all fit in a u64 can never overflow its key.
                u32::try_from(objects.len())
                    .ok()
                    .and_then(|len| radix.checked_pow(len))
                    .map(|_| objects)
            })
            .collect();
        MemoState {
            footprints,
            plans: self.queries.iter().map(|_| Mutex::default()).collect(),
        }
    }
}

impl std::fmt::Debug for PlanMemo<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanMemo")
            .field("queries", &self.queries.len())
            .field("plans", &self.len())
            .finish()
    }
}

/// The mixed-radix code `Σ_k class(o_k) · radix^k` of the footprint's
/// placement under `layout`, or `None` when some class id lies outside the
/// pool (a foreign layout is planned directly, never keyed).
fn footprint_code(objects: &[ObjectId], layout: &Layout, radix: usize) -> Option<u64> {
    let mut code = 0u64;
    for &object in objects.iter().rev() {
        let class = layout.class_of(object).0;
        if class >= radix {
            return None;
        }
        code = code * radix as u64 + class as u64;
    }
    Some(code)
}

/// Hasher for footprint codes: one splitmix64 finalizer round over the
/// `u64` key, cheap and well mixed in both the bits `HashMap` indexes by
/// and the bits it tags with.
#[derive(Default)]
struct CodeHasher(u64);

impl Hasher for CodeHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{range_query, two_table_schema};
    use dot_storage::{catalog, ClassId};

    #[test]
    fn memoized_plans_match_the_planner_and_are_shared() {
        let schema = two_table_schema();
        let pool = catalog::box2();
        let cfg = EngineConfig::dss();
        let queries = vec![range_query(&schema, 0.002), range_query(&schema, 0.3)];
        let memo = PlanMemo::new(&queries, &schema, &pool, &cfg);
        assert!(memo.is_empty(), "lazy until the first plan");
        for class in pool.ids() {
            let layout = Layout::uniform(class, schema.object_count());
            for (i, q) in queries.iter().enumerate() {
                let direct = plan_query(q, &schema, &layout, &pool, &cfg);
                assert_eq!(*memo.plan(i, &layout), direct);
                assert_eq!(*memo.plan(i, &layout), direct, "hit path");
            }
        }
        assert_eq!(memo.len(), queries.len() * pool.len());
    }

    #[test]
    fn codes_are_distinct_per_placement_and_reject_foreign_classes() {
        let objects = [ObjectId(0), ObjectId(2)];
        let mut seen = std::collections::HashSet::new();
        for a in 0..3 {
            for b in 0..3 {
                let layout = Layout::from_assignment(vec![ClassId(a), ClassId(0), ClassId(b)]);
                assert!(seen.insert(footprint_code(&objects, &layout, 3).unwrap()));
            }
        }
        let foreign = Layout::from_assignment(vec![ClassId(3), ClassId(0), ClassId(0)]);
        assert_eq!(footprint_code(&objects, &foreign, 3), None);
    }
}

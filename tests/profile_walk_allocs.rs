//! Profiling's baseline walk allocates a fixed few buffers plus one key per
//! run, whatever the number of baselines: `BaselineRuns::partition` keys
//! every baseline in one reused buffer and copies a key only when it is
//! new. Pinned on tpcc:16 and tpch:1:original over box1 (27 baselines)
//! and the full pool (125), so a walk that allocated once per baseline —
//! a key, a plan, a layout — would miss the pin by the baselines it
//! shares.
//!
//! The binary counts every allocation through its own global allocator,
//! so it holds this one test only.

use dot_core::advisor::presets;
use dot_dbms::memo::PlanMemo;
use dot_dbms::Layout;
use dot_profiler::BaselineRuns;
use dot_storage::ClassId;
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The walk's own buffers: the digit places, the layout, the decision
/// walk's classes, stale flags and codes, the key map and the run index.
const FIXED_ALLOCATIONS: usize = 7;

#[test]
fn the_baseline_walk_allocates_a_fixed_count_plus_one_per_new_key() {
    let mut shared = 0usize;
    for family in ["tpcc:16", "tpch:1:original"] {
        let (schema, workload) = presets::database(family).expect("preset");
        let cfg = presets::engine(None, &workload).expect("engine");
        for pool_name in ["box1", "full"] {
            let pool = presets::pool(pool_name).expect("pool");
            let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
            // Compile the templates first: the walk is what is counted.
            memo.choice_key(&Layout::uniform(ClassId(0), schema.object_count()));

            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let runs = BaselineRuns::partition(&memo);
            let made = ALLOCATIONS.load(Ordering::SeqCst) - before;

            assert_eq!(
                made,
                FIXED_ALLOCATIONS + runs.run_count(),
                "{family}/{pool_name}: {} baselines in {} runs",
                runs.baseline_count(),
                runs.run_count()
            );
            shared += runs.baseline_count() - runs.run_count();
        }
    }
    assert!(shared > 100, "only {shared} baselines shared a key");
}

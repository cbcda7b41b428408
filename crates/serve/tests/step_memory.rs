//! A step's memory must not grow with its `repeat`: one `Observe` frame of
//! `{"shift": 0.01, "repeat": 20000}` ticks a tpch-subset tenant 20,000
//! times from one derived observation, so the registry's peak heap during
//! the step stays within a fixed allowance. (Materializing every repeat as
//! a workload first costs about 2.6 KB a tick, some 52 MB here.)
//!
//! The binary counts every allocation through its own global allocator,
//! so it holds this one test only.

use dot_serve::protocol::{DbSpec, PoolSpec};
use dot_serve::registry::{Registry, RegistryConfig};
use dot_serve::ProblemSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::SeqCst) + by;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak heap growth allowed over one step, whatever its `repeat`.
const ALLOWANCE_BYTES: usize = 1 << 20;

#[test]
fn a_long_step_ticks_in_bounded_memory() {
    let registry = Registry::new(RegistryConfig::default());
    let spec = ProblemSpec {
        pool: PoolSpec::Name("box2".to_owned()),
        database: DbSpec::Preset("tpch-subset:2".to_owned()),
        sla: 0.5,
        engine: None,
        refinements: None,
    };
    let (tenant, _) = registry.attach(None, &spec, None, None).expect("attach");
    let step = serde_json::from_str(r#"{"shift": 0.01, "repeat": 20000}"#).expect("step");

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let mut events = 0usize;
    let counters = registry
        .observe(tenant, &step, &mut |_| {
            events += 1;
            Ok(())
        })
        .expect("observe");
    let growth = PEAK.load(Ordering::SeqCst) - before;

    assert_eq!(counters.ticks, 20_000);
    assert_eq!(counters.triggers, 0, "a 1% shift stays quiescent");
    assert_eq!(events, 20_000, "one Observed event per tick");
    assert!(
        growth < ALLOWANCE_BYTES,
        "a 20,000-repeat step grew the heap by {growth} bytes at its peak"
    );
}

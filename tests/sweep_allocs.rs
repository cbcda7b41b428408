//! The DOT sweep allocates a fixed set of buffers per solve, whatever the
//! number of candidates it prices or abandons: moves are placement codes,
//! a candidate is stepped in place, a rejected estimate's per-query buffer
//! is handed to the next trial, and an abandoned trial keeps it. Pinned on
//! tpcc:16/full, tpch:1:original over box2 and the full pool, and the
//! TPC-H subset over box1, with the certified cuts on and off, across an
//! SLA grid whose solves price very different numbers of templates: every
//! solve of one problem and setting must make the same number of
//! allocations. A sweep that allocated once per candidate — a layout, a
//! per-query buffer dropped by an abandoned trial — would miss the pin by
//! the candidates its solves differ in.
//!
//! The binary counts every allocation through its own global allocator,
//! so it holds this one test only.

use dot_core::advisor::presets;
use dot_core::constraints;
use dot_core::dot;
use dot_core::problem::Problem;
use dot_core::toc::Estimator;
use dot_dbms::memo::PlanMemo;
use dot_profiler::{profile_workload, ProfileSource};
use dot_workloads::SlaSpec;
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

const SLAS: [f64; 5] = [0.1, 0.3, 0.5, 0.8, 1.0];

#[test]
fn a_dot_solve_allocates_the_same_whatever_it_prices() {
    let mut widest_spread = 0.0f64;
    for (family, pool_name) in [
        ("tpcc:16", "full"),
        ("tpch:1:original", "box2"),
        ("tpch:1:original", "full"),
        ("tpch-subset:1", "box1"),
    ] {
        let (schema, workload) = presets::database(family).expect("preset");
        let cfg = presets::engine(None, &workload).expect("engine");
        let pool = presets::pool(pool_name).expect("pool");
        let memo = PlanMemo::new(&workload.queries, &schema, &pool, &cfg);
        let toc = Estimator::direct().memoized(&memo);
        let profile = profile_workload(&memo, ProfileSource::Estimate);
        for prune in [true, false] {
            let mut counts = Vec::new();
            for sla in SLAS {
                let problem = Problem::new(&schema, &pool, &workload, SlaSpec::relative(sla), cfg);
                let cons = constraints::derive_with_estimator(&problem, problem.sla, &toc);
                let before = ALLOCATIONS.load(Ordering::SeqCst);
                let (outcome, work) =
                    dot::optimize_with_work(&problem, &profile, &cons, &toc, prune);
                let made = ALLOCATIONS.load(Ordering::SeqCst) - before;
                assert!(outcome.layout.is_some(), "{family}/{pool_name} at {sla}");
                counts.push((sla, made, work.templates_priced));
            }
            let case = format!(
                "{family}/{pool_name}/prune {prune}: (sla, allocations, templates) {counts:?}"
            );
            assert!(
                counts.iter().all(|&(_, made, _)| made == counts[0].1),
                "{case}"
            );
            let priced = counts.iter().map(|&(_, _, t)| t as f64);
            let spread = priced.clone().fold(0.0, f64::max) / priced.fold(f64::MAX, f64::min);
            widest_spread = widest_spread.max(spread);
        }
    }
    assert!(
        widest_spread >= 2.0,
        "the grid's solves must price very different numbers of templates \
         (widest spread {widest_spread})"
    );
}

//! Cost vectors: per-object, per-pattern I/O counts plus CPU time.
//!
//! A [`CostVector`] is the planner's ledger. It is *layout-independent data*
//! — how many I/Os of each type hit each object — that becomes a time only
//! when priced against a layout's device latencies. This is what makes the
//! paper's profiling phase possible: the same χ counts are re-priced under
//! every candidate placement (Eq. 1).

use crate::layout::Layout;
use crate::object::ObjectId;
use dot_storage::{IoCounts, IoType, StoragePool};
use serde::{Deserialize, Serialize};

/// Per-object I/O counts plus CPU milliseconds for one query (or plan
/// fragment, or whole workload — the type is additive).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostVector {
    /// `io[o.0]` = I/O counts charged to object `o`.
    pub io: Vec<IoCounts>,
    /// CPU time in milliseconds.
    pub cpu_ms: f64,
}

impl CostVector {
    /// Zero cost over `n_objects` objects.
    pub fn zero(n_objects: usize) -> Self {
        CostVector {
            io: vec![IoCounts::ZERO; n_objects],
            cpu_ms: 0.0,
        }
    }

    /// Charge `count` operations of type `io` to `object`.
    pub fn charge(&mut self, object: ObjectId, io: IoType, count: f64) {
        self.io[object.0][io] += count;
    }

    /// Charge CPU milliseconds.
    pub fn charge_cpu_ms(&mut self, ms: f64) {
        self.cpu_ms += ms;
    }

    /// Add another vector in place.
    pub fn absorb(&mut self, other: &CostVector) {
        debug_assert_eq!(self.io.len(), other.io.len());
        for (a, b) in self.io.iter_mut().zip(other.io.iter()) {
            *a += *b;
        }
        self.cpu_ms += other.cpu_ms;
    }

    /// Add `other` scaled by `factor` (query repetition) in place: each
    /// count and the CPU time is multiplied by `factor`, then added.
    pub fn absorb_scaled(&mut self, other: &CostVector, factor: f64) {
        debug_assert_eq!(self.io.len(), other.io.len());
        for (a, b) in self.io.iter_mut().zip(other.io.iter()) {
            *a += b.scaled(factor);
        }
        self.cpu_ms += other.cpu_ms * factor;
    }

    /// Total I/O service time in ms under `layout` at `concurrency`:
    /// `Σ_o Σ_r χ_r[o] · τ^{L(o)}_r(c)` — Eq. 1 summed over all objects.
    pub fn io_time_ms(&self, layout: &Layout, pool: &StoragePool, concurrency: u32) -> f64 {
        let mut total = 0.0;
        for (i, counts) in self.io.iter().enumerate() {
            if counts.is_zero() {
                continue;
            }
            let class = pool.class_unchecked(layout.class_of(ObjectId(i)));
            total += class.profile.service_time_ms(counts, concurrency);
        }
        total
    }

    /// Estimated response time: I/O time plus CPU time (§3.5).
    pub fn time_ms(&self, layout: &Layout, pool: &StoragePool, concurrency: u32) -> f64 {
        self.io_time_ms(layout, pool, concurrency) + self.cpu_ms
    }

    /// Aggregate I/O over all objects (for reports).
    pub fn total_io(&self) -> IoCounts {
        self.io.iter().fold(IoCounts::ZERO, |acc, &c| acc + c)
    }
}

/// Yao's approximation for the number of distinct pages touched when `k`
/// rows are fetched at random from a table of `pages` pages holding `rows`
/// rows. Used for unclustered index-scan heap costs, like PostgreSQL's
/// `index_pages_fetched`.
///
/// We use the standard Cardenas approximation
/// `pages · (1 − (1 − 1/pages)^k)`, which is accurate for `rows ≫ pages`.
pub fn yao_pages_fetched(pages: f64, k: f64) -> f64 {
    if k <= 0.0 {
        return 0.0;
    }
    if pages <= 1.0 {
        return pages.min(1.0);
    }
    // (1 - 1/p)^k = exp(k·ln(1-1/p)); stable for large p.
    let per_page_miss = (k * (1.0 - 1.0 / pages).ln()).exp();
    pages * (1.0 - per_page_miss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dot_storage::{catalog, ClassId};

    #[test]
    fn charge_and_absorb() {
        let mut a = CostVector::zero(3);
        a.charge(ObjectId(0), IoType::SeqRead, 100.0);
        a.charge(ObjectId(2), IoType::RandWrite, 5.0);
        a.charge_cpu_ms(7.0);
        let mut b = CostVector::zero(3);
        b.charge(ObjectId(0), IoType::SeqRead, 50.0);
        b.charge_cpu_ms(3.0);
        a.absorb(&b);
        assert_eq!(a.io[0][IoType::SeqRead], 150.0);
        assert_eq!(a.io[2][IoType::RandWrite], 5.0);
        assert_eq!(a.cpu_ms, 10.0);
        assert_eq!(a.total_io().total(), 155.0);
    }

    #[test]
    fn scaling() {
        let mut a = CostVector::zero(1);
        a.charge(ObjectId(0), IoType::RandRead, 10.0);
        a.charge_cpu_ms(1.0);
        let mut b = CostVector::zero(1);
        b.charge(ObjectId(0), IoType::RandRead, 1.0);
        b.absorb_scaled(&a, 3.0);
        assert_eq!(b.io[0][IoType::RandRead], 31.0);
        assert_eq!(b.cpu_ms, 3.0);
    }

    #[test]
    fn io_time_depends_on_layout() {
        let pool = catalog::box2();
        let hdd = pool.class_by_name("HDD").unwrap().id;
        let hssd = pool.class_by_name("H-SSD").unwrap().id;
        let mut cv = CostVector::zero(1);
        cv.charge(ObjectId(0), IoType::RandRead, 1000.0);
        let on_hdd = cv.io_time_ms(&Layout::uniform(hdd, 1), &pool, 1);
        let on_hssd = cv.io_time_ms(&Layout::uniform(hssd, 1), &pool, 1);
        // Table 1: 13.32 ms vs 0.091 ms per random read.
        assert!((on_hdd - 13_320.0).abs() < 1.0);
        assert!((on_hssd - 91.0).abs() < 0.1);
        assert_eq!(cv.time_ms(&Layout::uniform(hdd, 1), &pool, 1), on_hdd + 0.0);
    }

    #[test]
    fn empty_objects_cost_nothing() {
        let pool = catalog::box2();
        let cv = CostVector::zero(5);
        assert_eq!(
            cv.io_time_ms(&Layout::uniform(ClassId(0), 5), &pool, 1),
            0.0
        );
    }

    #[test]
    fn yao_basic_properties() {
        // Fetching zero rows touches zero pages.
        assert_eq!(yao_pages_fetched(1000.0, 0.0), 0.0);
        // Fetching one row touches ~one page.
        let one = yao_pages_fetched(1000.0, 1.0);
        assert!((one - 1.0).abs() < 0.01, "{one}");
        // Never exceeds the table size.
        assert!(yao_pages_fetched(1000.0, 1e9) <= 1000.0);
        // Monotone in k.
        let a = yao_pages_fetched(1000.0, 100.0);
        let b = yao_pages_fetched(1000.0, 200.0);
        assert!(b > a);
        // With k == pages, substantially fewer than k distinct pages.
        let c = yao_pages_fetched(1000.0, 1000.0);
        assert!(c < 1000.0 && c > 600.0 - 10.0, "{c}");
    }

    #[test]
    fn yao_degenerate_single_page() {
        assert_eq!(yao_pages_fetched(1.0, 5.0), 1.0);
        assert_eq!(yao_pages_fetched(1.0, 0.0), 0.0);
    }
}

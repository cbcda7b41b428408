//! A deliberately simple shared-buffer model, used only by *test runs*.
//!
//! The paper's estimator ignores caching ("For simplicity, we do not analyze
//! the effect of cached data in the buffer pool", §3.5) but its validation
//! phase executes the workload for real, where the 4 GB of shared buffers do
//! absorb I/O. Reproducing that split keeps the validation phase honest: the
//! optimizer may recommend a layout whose *measured* behaviour differs from
//! its estimate, triggering refinement (§3, Figure 2).
//!
//! Model: reads compete for the pool in proportion to the total volume of
//! data the workload touches. Random reads against any object are absorbed
//! at the global hit rate; sequential scans benefit only when the scanned
//! object itself fits comfortably in the pool (large scans evict themselves —
//! the classic scan-thrashing behaviour). Writes always reach the device.

use crate::cost::CostVector;
use crate::object::ObjectId;
use crate::schema::Schema;
use dot_storage::{IoCounts, IoType};
use serde::{Deserialize, Serialize};

/// Maximum hit rate the model will credit (there is always cold traffic).
const MAX_HIT_RATE: f64 = 0.95;
/// A sequential scan benefits from caching only if the object occupies at
/// most this fraction of the pool.
const SCAN_CACHE_FRACTION: f64 = 0.5;

/// Shared-buffer pool of a given size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BufferPool {
    /// Pool size in GB.
    pub size_gb: f64,
}

impl BufferPool {
    /// Create a pool of `size_gb` gigabytes.
    pub fn new(size_gb: f64) -> Self {
        assert!(size_gb >= 0.0, "buffer size must be non-negative");
        BufferPool { size_gb }
    }

    /// Global read hit rate for a workload that touches `touched_gb` of
    /// distinct data.
    pub fn hit_rate(&self, touched_gb: f64) -> f64 {
        if touched_gb <= 0.0 {
            return 0.0;
        }
        (self.size_gb / touched_gb).min(MAX_HIT_RATE)
    }

    /// Total distinct data (GB) read by a cost vector.
    pub fn touched_read_gb(&self, schema: &Schema, cost: &CostVector) -> f64 {
        touched_read_gb_of(schema, &cost.io)
    }

    /// Apply the cache model in place: reduce `cost`'s read I/O counts by
    /// the modelled hit rates. `touched_gb` should cover the whole workload
    /// the pool is shared by, not just this query.
    pub fn apply(&self, schema: &Schema, cost: &mut CostVector, touched_gb: f64) {
        let h = self.hit_rate(touched_gb);
        if h == 0.0 {
            return;
        }
        for (i, counts) in cost.io.iter_mut().enumerate() {
            self.absorb(schema.object(ObjectId(i)).size_gb, counts, h);
        }
    }

    /// [`apply`](Self::apply)'s step for one object of `object_gb`
    /// gigabytes at hit rate `h`.
    pub(crate) fn absorb(&self, object_gb: f64, counts: &mut IoCounts, h: f64) {
        counts[IoType::RandRead] *= 1.0 - h;
        if object_gb <= self.size_gb * SCAN_CACHE_FRACTION {
            counts[IoType::SeqRead] *= 1.0 - h;
        }
    }
}

/// [`BufferPool::touched_read_gb`] of per-object counts `io`: the sizes of
/// the objects with reads, summed in object order.
pub(crate) fn touched_read_gb_of(schema: &Schema, io: &[IoCounts]) -> f64 {
    io.iter()
        .enumerate()
        .filter(|(_, c)| c.reads() > 0.0)
        .map(|(i, _)| schema.object(ObjectId(i)).size_gb)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    fn schema() -> Schema {
        SchemaBuilder::new("t")
            .table("big", 50_000_000.0, 120.0) // ~7.4 GB
            .primary_index(8.0)
            .table("tiny", 10_000.0, 100.0) // ~1.3 MB
            .primary_index(8.0)
            .build()
    }

    #[test]
    fn hit_rate_saturates() {
        let bp = BufferPool::new(4.0);
        assert_eq!(bp.hit_rate(0.0), 0.0);
        assert!((bp.hit_rate(8.0) - 0.5).abs() < 1e-12);
        assert_eq!(bp.hit_rate(0.001), MAX_HIT_RATE);
    }

    #[test]
    fn random_reads_absorbed_everywhere_scans_only_for_small_objects() {
        let s = schema();
        let bp = BufferPool::new(4.0);
        let big = s.table_by_name("big").unwrap();
        let tiny = s.table_by_name("tiny").unwrap();
        let mut cv = CostVector::zero(s.object_count());
        cv.charge(big.object, IoType::SeqRead, 1000.0);
        cv.charge(big.object, IoType::RandRead, 1000.0);
        cv.charge(tiny.object, IoType::SeqRead, 100.0);
        cv.charge(big.object, IoType::RandWrite, 10.0);
        let touched = bp.touched_read_gb(&s, &cv);
        let mut out = cv.clone();
        bp.apply(&s, &mut out, touched);
        // Random reads on the big table shrink.
        assert!(out.io[big.object.0][IoType::RandRead] < 1000.0);
        // The big table does not fit in half the pool: its scans are intact.
        assert_eq!(out.io[big.object.0][IoType::SeqRead], 1000.0);
        // The tiny table's scans are absorbed.
        assert!(out.io[tiny.object.0][IoType::SeqRead] < 100.0);
        // Writes untouched.
        assert_eq!(out.io[big.object.0][IoType::RandWrite], 10.0);
    }

    #[test]
    fn zero_sized_pool_is_identity() {
        let s = schema();
        let bp = BufferPool::new(0.0);
        let mut cv = CostVector::zero(s.object_count());
        cv.charge(
            s.table_by_name("big").unwrap().object,
            IoType::RandRead,
            7.0,
        );
        let mut out = cv.clone();
        bp.apply(&s, &mut out, 10.0);
        assert_eq!(out, cv);
    }

    #[test]
    fn touched_gb_counts_only_read_objects() {
        let s = schema();
        let bp = BufferPool::new(4.0);
        let mut cv = CostVector::zero(s.object_count());
        cv.charge(
            s.table_by_name("tiny").unwrap().object,
            IoType::RandWrite,
            5.0,
        );
        assert_eq!(bp.touched_read_gb(&s, &cv), 0.0);
        cv.charge(s.table_by_name("big").unwrap().object, IoType::SeqRead, 1.0);
        let big_gb = s.table_by_name("big").unwrap().size_gb();
        assert!((bp.touched_read_gb(&s, &cv) - big_gb).abs() < 1e-9);
    }
}

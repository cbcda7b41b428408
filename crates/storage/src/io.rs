//! The four canonical DBMS I/O access patterns and per-pattern counters.
//!
//! The paper (§3.3) models all query I/O as a mix of sequential read (SR),
//! random read (RR), sequential write (SW) and random write (RW) operations,
//! following the methodology of Canim et al.'s Object Advisor. Every layer of
//! this reproduction — device profiles, plan cost models, workload profiles,
//! DOT's priority scores — is expressed over this four-element set `R`.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Index, IndexMut, Mul};

/// One of the four I/O access patterns of the paper's model (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoType {
    /// Sequential read — table scans, bulk reads (`SR`). Unit: one page read.
    SeqRead,
    /// Random read — index probes, unclustered lookups (`RR`). Unit: one page read.
    RandRead,
    /// Sequential write — appends, bulk loads (`SW`). Unit: one row written,
    /// matching the paper's Table 1 which reports SW/RW in ms *per row*.
    SeqWrite,
    /// Random write — in-place updates (`RW`). Unit: one row written.
    RandWrite,
}

/// All four I/O types, in the order used throughout tables and arrays.
pub const IO_TYPES: [IoType; 4] = [
    IoType::SeqRead,
    IoType::RandRead,
    IoType::SeqWrite,
    IoType::RandWrite,
];

impl IoType {
    /// Dense index of this type into `[f64; 4]`-shaped tables.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            IoType::SeqRead => 0,
            IoType::RandRead => 1,
            IoType::SeqWrite => 2,
            IoType::RandWrite => 3,
        }
    }

    /// Short label as used in the paper ("SR", "RR", "SW", "RW").
    pub const fn label(self) -> &'static str {
        match self {
            IoType::SeqRead => "SR",
            IoType::RandRead => "RR",
            IoType::SeqWrite => "SW",
            IoType::RandWrite => "RW",
        }
    }

    /// True for the two read patterns.
    #[inline]
    pub const fn is_read(self) -> bool {
        matches!(self, IoType::SeqRead | IoType::RandRead)
    }

    /// True for the two random patterns.
    #[inline]
    pub const fn is_random(self) -> bool {
        matches!(self, IoType::RandRead | IoType::RandWrite)
    }
}

impl std::fmt::Display for IoType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A per-pattern vector of I/O operation counts: `χ_r` for `r ∈ {SR,RR,SW,RW}`.
///
/// Counts are `f64` because profiles are produced both by test runs (integer
/// counts) and by optimizer estimates (fractional expected counts), and
/// because workload profiles are averaged over query repetitions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct IoCounts {
    counts: [f64; 4],
}

impl IoCounts {
    /// The zero vector.
    pub const ZERO: IoCounts = IoCounts { counts: [0.0; 4] };

    /// Build from explicit per-pattern counts.
    pub fn new(seq_read: f64, rand_read: f64, seq_write: f64, rand_write: f64) -> Self {
        IoCounts {
            counts: [seq_read, rand_read, seq_write, rand_write],
        }
    }

    /// A vector with a single nonzero component.
    pub fn only(io: IoType, count: f64) -> Self {
        let mut c = IoCounts::ZERO;
        c[io] = count;
        c
    }

    /// Total number of operations across all four patterns.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Sum of the two read-pattern counts.
    pub fn reads(&self) -> f64 {
        self[IoType::SeqRead] + self[IoType::RandRead]
    }

    /// Sum of the two write-pattern counts.
    pub fn writes(&self) -> f64 {
        self[IoType::SeqWrite] + self[IoType::RandWrite]
    }

    /// True if every component is zero.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0.0)
    }

    /// Iterate `(IoType, count)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (IoType, f64)> + '_ {
        IO_TYPES.iter().map(move |&t| (t, self[t]))
    }

    /// Service time of these counts at the given per-operation times
    /// (`latencies[io.index()]`, ms): `Σ_r χ_r · τ_r`.
    pub fn time_ms(&self, latencies: &[f64; 4]) -> f64 {
        self.iter().map(|(io, n)| n * latencies[io.index()]).sum()
    }

    /// Component-wise scale by `factor` (e.g. query repetition counts).
    pub fn scaled(&self, factor: f64) -> IoCounts {
        IoCounts {
            counts: [
                self.counts[0] * factor,
                self.counts[1] * factor,
                self.counts[2] * factor,
                self.counts[3] * factor,
            ],
        }
    }
}

impl Index<IoType> for IoCounts {
    type Output = f64;
    #[inline]
    fn index(&self, io: IoType) -> &f64 {
        &self.counts[io.index()]
    }
}

impl IndexMut<IoType> for IoCounts {
    #[inline]
    fn index_mut(&mut self, io: IoType) -> &mut f64 {
        &mut self.counts[io.index()]
    }
}

impl Add for IoCounts {
    type Output = IoCounts;
    fn add(self, rhs: IoCounts) -> IoCounts {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for IoCounts {
    fn add_assign(&mut self, rhs: IoCounts) {
        for i in 0..4 {
            self.counts[i] += rhs.counts[i];
        }
    }
}

impl Mul<f64> for IoCounts {
    type Output = IoCounts;
    fn mul(self, rhs: f64) -> IoCounts {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_type_indices_are_dense_and_distinct() {
        let mut seen = [false; 4];
        for t in IO_TYPES {
            assert!(!seen[t.index()], "duplicate index for {t}");
            seen[t.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn labels_match_paper_abbreviations() {
        assert_eq!(IoType::SeqRead.label(), "SR");
        assert_eq!(IoType::RandRead.label(), "RR");
        assert_eq!(IoType::SeqWrite.label(), "SW");
        assert_eq!(IoType::RandWrite.label(), "RW");
    }

    #[test]
    fn read_write_random_predicates() {
        assert!(IoType::SeqRead.is_read());
        assert!(IoType::RandRead.is_read());
        assert!(!IoType::SeqWrite.is_read());
        assert!(IoType::RandRead.is_random());
        assert!(IoType::RandWrite.is_random());
        assert!(!IoType::SeqRead.is_random());
    }

    #[test]
    fn counts_arithmetic() {
        let a = IoCounts::new(1.0, 2.0, 3.0, 4.0);
        let b = IoCounts::only(IoType::RandRead, 10.0);
        let c = a + b;
        assert_eq!(c[IoType::RandRead], 12.0);
        assert_eq!(c.total(), 20.0);
        assert_eq!(c.reads(), 13.0);
        assert_eq!(c.writes(), 7.0);
        let d = c * 2.0;
        assert_eq!(d.total(), 40.0);
    }

    #[test]
    fn zero_detection() {
        assert!(IoCounts::ZERO.is_zero());
        assert!(!IoCounts::only(IoType::SeqWrite, 1e-9).is_zero());
    }

    #[test]
    fn iter_yields_canonical_order() {
        let a = IoCounts::new(1.0, 2.0, 3.0, 4.0);
        let collected: Vec<_> = a.iter().collect();
        assert_eq!(collected[0], (IoType::SeqRead, 1.0));
        assert_eq!(collected[3], (IoType::RandWrite, 4.0));
    }
}

//! Device specifications and the `StorageClass` abstraction consumed by the
//! rest of the stack.
//!
//! A *storage class* (§2.2) is "an individual device, or a RAID group":
//! anything a database object can be placed on wholesale. The optimizer only
//! ever sees the class's price `p_j`, capacity `c_j`, and I/O profile
//! `τ^d_r`; the underlying [`DeviceSpec`] is kept so Table 2 can be
//! regenerated and so synthetic configurations can be priced from first
//! principles.

use crate::cost::CostModel;
use crate::profile::IoProfile;
use serde::{Deserialize, Serialize};

/// Index of a storage class within a [`StoragePool`](crate::StoragePool).
///
/// Class ids are dense indices assigned by the pool; they are meaningless
/// across pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClassId(pub usize);

impl std::fmt::Display for ClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Broad device technology, used for reporting and sanity checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Rotational hard disk drive.
    Hdd,
    /// Flash SSD with multi-level cells (the paper's "low-end SSD").
    SsdMlc,
    /// Flash SSD with single-level cells (the paper's "high-end SSD").
    SsdSlc,
}

impl DeviceKind {
    /// Human-readable label.
    pub const fn label(self) -> &'static str {
        match self {
            DeviceKind::Hdd => "HDD",
            DeviceKind::SsdMlc => "MLC SSD",
            DeviceKind::SsdSlc => "SLC SSD",
        }
    }
}

/// Physical description of one device model — the contents of the paper's
/// Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name ("WD Caviar Black", "FusionIO ioDrive", ...).
    pub model: String,
    /// Device technology.
    pub kind: DeviceKind,
    /// Usable capacity in GB.
    pub capacity_gb: f64,
    /// Purchase price in cents.
    pub purchase_cents: f64,
    /// Average power draw in watts (paper: mean of read and write draw).
    pub power_watts: f64,
    /// Host interface ("SATA II", "PCI-Express", ...).
    pub interface: String,
}

impl DeviceSpec {
    /// Validate physical plausibility.
    pub fn validate(&self) -> Result<(), crate::StorageError> {
        if self.capacity_gb <= 0.0 || self.capacity_gb.is_nan() {
            return Err(crate::StorageError::InvalidSpec(format!(
                "{}: capacity must be positive",
                self.model
            )));
        }
        if self.purchase_cents < 0.0 || self.power_watts < 0.0 {
            return Err(crate::StorageError::InvalidSpec(format!(
                "{}: negative cost or power",
                self.model
            )));
        }
        Ok(())
    }
}

/// A provisionable storage class: the unit of data placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageClass {
    /// Dense id within its pool (assigned by [`StoragePool`](crate::StoragePool)).
    pub id: ClassId,
    /// Display name ("HDD RAID 0", "H-SSD", ...).
    pub name: String,
    /// Constituent device model(s). One entry for a bare device, `n` entries
    /// for an `n`-way RAID 0 group.
    pub devices: Vec<DeviceSpec>,
    /// Extra purchase cost in cents not attributable to a device (RAID
    /// controller).
    pub controller_cents: f64,
    /// Extra power draw in watts (RAID controller surcharge).
    pub controller_watts: f64,
    /// Measured or derived I/O service-time profile.
    pub profile: IoProfile,
    /// Usable capacity in GB (sum of constituent devices for RAID 0).
    pub capacity_gb: f64,
    /// Storage price in cents/GB/hour — `p_j` of the paper.
    pub price_cents_per_gb_hour: f64,
}

impl StorageClass {
    /// Build a class from a single bare device, pricing it with `model`.
    pub fn from_device(
        name: &str,
        spec: DeviceSpec,
        profile: IoProfile,
        model: &CostModel,
    ) -> Self {
        let price =
            model.price_cents_per_gb_hour(spec.purchase_cents, spec.power_watts, spec.capacity_gb);
        StorageClass {
            id: ClassId(usize::MAX),
            name: name.to_owned(),
            capacity_gb: spec.capacity_gb,
            devices: vec![spec],
            controller_cents: 0.0,
            controller_watts: 0.0,
            profile,
            price_cents_per_gb_hour: price,
        }
    }

    /// Total purchase cost (cents) including the controller.
    pub fn total_purchase_cents(&self) -> f64 {
        self.devices.iter().map(|d| d.purchase_cents).sum::<f64>() + self.controller_cents
    }

    /// Total average power draw (watts) including the controller.
    pub fn total_power_watts(&self) -> f64 {
        self.devices.iter().map(|d| d.power_watts).sum::<f64>() + self.controller_watts
    }

    /// Recompute the price from the constituent specs under `model`. The
    /// catalog stores published Table 1 prices verbatim; this method lets
    /// tests confirm that the analytic model agrees with them.
    pub fn computed_price_cents_per_gb_hour(&self, model: &CostModel) -> f64 {
        model.price_cents_per_gb_hour(
            self.total_purchase_cents(),
            self.total_power_watts(),
            self.capacity_gb,
        )
    }

    /// Override the published price with the analytically computed one.
    /// Used for synthetic devices that have no published price.
    pub fn with_computed_price(mut self, model: &CostModel) -> Self {
        self.price_cents_per_gb_hour = self.computed_price_cents_per_gb_hour(model);
        self
    }

    /// Hourly cost (cents/hour) of `gb` gigabytes resident on this class —
    /// one term of the layout cost `C(L) = Σ p_j · S_j` (§2.1).
    pub fn residency_cost_cents_per_hour(&self, gb: f64) -> f64 {
        self.price_cents_per_gb_hour * gb
    }

    /// Seconds to stream `pages` pages *off* this class with one bulk
    /// reader: `pages · τ_SR(c=1)`. The single-thread anchor applies —
    /// a migration copy job is one sequential stream, not a concurrent
    /// workload. Used by the re-provisioning planner to price the read
    /// side of an object-group move.
    pub fn bulk_read_seconds(&self, pages: f64) -> f64 {
        pages * self.profile.at_c1[crate::IoType::SeqRead.index()] / 1_000.0
    }

    /// Seconds to stream `rows` row-writes *onto* this class with one bulk
    /// writer: `rows · τ_SW(c=1)` (Table 1 reports SW per row). The write
    /// side of an object-group move; the caller derives `rows` from the
    /// object's schema statistics.
    pub fn bulk_write_seconds(&self, rows: f64) -> f64 {
        rows * self.profile.at_c1[crate::IoType::SeqWrite.index()] / 1_000.0
    }

    /// Validate spec and profile consistency: the class's devices, and
    /// [`validate_terms`](Self::validate_terms).
    pub fn validate(&self) -> Result<(), crate::StorageError> {
        if self.devices.is_empty() {
            return Err(crate::StorageError::InvalidSpec(format!(
                "{}: class has no devices",
                self.name
            )));
        }
        for d in &self.devices {
            d.validate()?;
        }
        self.validate_terms()
    }

    /// Validate what the optimizer reads of the class: strictly positive
    /// latencies and capacity, and a positive, finite price (an infinite
    /// one makes `C(L)` of every layout not or partly on the class
    /// `∞ · 0`, NaN). A pool decoded from a request or a
    /// file is held to this; its device list is descriptive, and nothing
    /// prices it.
    pub fn validate_terms(&self) -> Result<(), crate::StorageError> {
        self.profile.validate()?;
        if self.capacity_gb <= 0.0 || self.capacity_gb.is_nan() {
            return Err(crate::StorageError::InvalidSpec(format!(
                "{}: capacity must be positive",
                self.name
            )));
        }
        if !(self.price_cents_per_gb_hour > 0.0 && self.price_cents_per_gb_hour.is_finite()) {
            return Err(crate::StorageError::InvalidSpec(format!(
                "{}: price must be positive and finite",
                self.name
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec {
            model: "TestDisk 1000".into(),
            kind: DeviceKind::Hdd,
            capacity_gb: 100.0,
            purchase_cents: 26_280.0, // 1 cent/hour amortized under PAPER model
            power_watts: 0.0,
            interface: "SATA II".into(),
        }
    }

    #[test]
    fn from_device_prices_correctly() {
        let c = StorageClass::from_device(
            "Test",
            spec(),
            IoProfile::flat([0.1, 1.0, 0.1, 1.0]),
            &CostModel::PAPER,
        );
        // 1 cent/hour over 100 GB = 0.01 cents/GB/hour.
        assert!((c.price_cents_per_gb_hour - 0.01).abs() < 1e-12);
        assert!((c.residency_cost_cents_per_hour(50.0) - 0.5).abs() < 1e-12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn bulk_transfer_uses_the_single_thread_anchors() {
        let c = StorageClass::from_device(
            "Test",
            spec(),
            IoProfile::from_anchors([0.1, 1.0, 0.02, 1.0], [0.5, 2.0, 0.08, 3.0]),
            &CostModel::PAPER,
        );
        // 10,000 pages at 0.1 ms/page = 1 s; the c=300 anchor must not leak in.
        assert!((c.bulk_read_seconds(10_000.0) - 1.0).abs() < 1e-12);
        // 100,000 rows at 0.02 ms/row = 2 s.
        assert!((c.bulk_write_seconds(100_000.0) - 2.0).abs() < 1e-12);
        assert_eq!(c.bulk_read_seconds(0.0), 0.0);
    }

    #[test]
    fn totals_include_controller() {
        let mut c = StorageClass::from_device(
            "Test",
            spec(),
            IoProfile::flat([0.1, 1.0, 0.1, 1.0]),
            &CostModel::PAPER,
        );
        c.devices.push(spec());
        c.controller_cents = 11_000.0;
        c.controller_watts = 8.25;
        assert!((c.total_purchase_cents() - (2.0 * 26_280.0 + 11_000.0)).abs() < 1e-9);
        assert!((c.total_power_watts() - 8.25).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut c = StorageClass::from_device(
            "Test",
            spec(),
            IoProfile::flat([0.1, 1.0, 0.1, 1.0]),
            &CostModel::PAPER,
        );
        c.devices.clear();
        assert!(c.validate().is_err());

        let mut bad = spec();
        bad.capacity_gb = -1.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn computed_price_matches_published_for_simple_device() {
        let c = StorageClass::from_device(
            "Test",
            spec(),
            IoProfile::flat([0.1, 1.0, 0.1, 1.0]),
            &CostModel::PAPER,
        );
        let recomputed = c.computed_price_cents_per_gb_hour(&CostModel::PAPER);
        assert!((recomputed - c.price_cents_per_gb_hour).abs() < 1e-12);
    }
}

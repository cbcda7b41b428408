//! A pool of storage classes: the `D = {d_1, …, d_M}` of the problem
//! definition (§2.2), with its price vector `P` and capacity vector `C`.

use crate::device::{ClassId, StorageClass};
use serde::{Deserialize, Serialize};

/// An ordered collection of storage classes available on one machine.
///
/// The pool assigns dense [`ClassId`]s on construction. Per the paper, class
/// order is irrelevant to the optimizer except for tie-breaking; by
/// convention we keep catalog order (cheapest per GB-hour first is *not*
/// guaranteed — use [`StoragePool::ids_by_price_desc`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoragePool {
    name: String,
    classes: Vec<StorageClass>,
}

impl StoragePool {
    /// Build a pool, assigning dense ids in the given order.
    ///
    /// # Panics
    /// Panics if a class fails [`StorageClass::validate`] (its devices
    /// included) or [`validate`](Self::validate) rejects the pool: two
    /// classes share a name (names are used as stable keys in reports and
    /// layouts), say.
    pub fn new(name: &str, mut classes: Vec<StorageClass>) -> Self {
        for (i, c) in classes.iter_mut().enumerate() {
            c.id = ClassId(i);
        }
        let pool = StoragePool {
            name: name.to_owned(),
            classes,
        };
        let checked = pool.classes.iter().try_for_each(StorageClass::validate);
        if let Err(e) = checked.and_then(|()| pool.validate()) {
            panic!("{e}");
        }
        pool
    }

    /// Check what every consumer of a pool assumes, without panicking:
    /// each class passes [`StorageClass::validate_terms`] (strictly
    /// positive prices, capacities and latencies), each class's id is its
    /// position, and no two classes share a name. A pool decoded from a
    /// request or a file gets this check before it is used.
    ///
    /// # Errors
    /// [`StorageError::InvalidSpec`](crate::StorageError::InvalidSpec)
    /// naming the first offending class.
    pub fn validate(&self) -> Result<(), crate::StorageError> {
        let invalid = |msg: String| Err(crate::StorageError::InvalidSpec(msg));
        for (i, c) in self.classes.iter().enumerate() {
            match c.validate_terms() {
                Err(crate::StorageError::InvalidSpec(msg)) => {
                    return invalid(format!("class {:?}: {msg}", c.name));
                }
                Err(other) => return Err(other),
                Ok(()) => {}
            }
            if c.id != ClassId(i) {
                return invalid(format!(
                    "class {:?} has id {} at position {i}",
                    c.name, c.id.0
                ));
            }
            if self.classes[..i].iter().any(|other| other.name == c.name) {
                return invalid(format!("duplicate class name {:?}", c.name));
            }
        }
        Ok(())
    }

    /// Pool display name ("Box 1", "Box 2", ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All classes in id order.
    pub fn classes(&self) -> &[StorageClass] {
        &self.classes
    }

    /// Number of storage classes `M`.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True if the pool is empty (never the case for valid problems).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Look a class up by id.
    pub fn class(&self, id: ClassId) -> Result<&StorageClass, crate::StorageError> {
        self.classes
            .get(id.0)
            .ok_or(crate::StorageError::UnknownClass(id))
    }

    /// Look a class up by id, panicking on a foreign id. Most call sites
    /// construct ids from this very pool, where a miss is a logic error.
    pub fn class_unchecked(&self, id: ClassId) -> &StorageClass {
        &self.classes[id.0]
    }

    /// Look a class up by display name.
    pub fn class_by_name(&self, name: &str) -> Option<&StorageClass> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// All class ids in id order.
    pub fn ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len()).map(ClassId)
    }

    /// Ids sorted by price per GB-hour, most expensive first. The head of
    /// this ordering is DOT's initial layout target `d_1` (§3.1).
    pub fn ids_by_price_desc(&self) -> Vec<ClassId> {
        let mut ids: Vec<ClassId> = self.ids().collect();
        ids.sort_by(|a, b| {
            let pa = self.classes[a.0].price_cents_per_gb_hour;
            let pb = self.classes[b.0].price_cents_per_gb_hour;
            pb.partial_cmp(&pa).expect("prices are finite")
        });
        ids
    }

    /// The most expensive class per GB-hour — the paper's `d_1`, where the
    /// initial layout `L_0` places every object.
    pub fn most_expensive(&self) -> ClassId {
        self.ids_by_price_desc()[0]
    }

    /// Price vector `P` in id order (cents/GB/hour).
    pub fn price_vector(&self) -> Vec<f64> {
        self.classes
            .iter()
            .map(|c| c.price_cents_per_gb_hour)
            .collect()
    }

    /// Capacity vector `C` in id order (GB).
    pub fn capacity_vector(&self) -> Vec<f64> {
        self.classes.iter().map(|c| c.capacity_gb).collect()
    }

    /// Replace the capacity of the named class (used by the capacity-sweep
    /// experiments, §4.4.3 / §4.5.3). Returns `true` if the class existed.
    pub fn set_capacity(&mut self, name: &str, capacity_gb: f64) -> bool {
        if let Some(c) = self.classes.iter_mut().find(|c| c.name == name) {
            c.capacity_gb = capacity_gb;
            true
        } else {
            false
        }
    }

    /// Replace the price of the named class (used by price-sensitivity
    /// sweeps). Returns `true` if the class existed.
    pub fn set_price(&mut self, name: &str, cents_per_gb_hour: f64) -> bool {
        assert!(cents_per_gb_hour > 0.0, "price must be positive");
        if let Some(c) = self.classes.iter_mut().find(|c| c.name == name) {
            c.price_cents_per_gb_hour = cents_per_gb_hour;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn ids_are_dense_and_ordered() {
        let pool = catalog::box1();
        for (i, c) in pool.classes().iter().enumerate() {
            assert_eq!(c.id, ClassId(i));
        }
        let ids: Vec<ClassId> = pool.ids().collect();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn most_expensive_is_hssd_on_both_boxes() {
        for pool in [catalog::box1(), catalog::box2()] {
            let top = pool.most_expensive();
            assert_eq!(pool.class_unchecked(top).name, catalog::names::HSSD);
        }
    }

    #[test]
    fn price_desc_ordering() {
        let pool = catalog::full_pool();
        let ids = pool.ids_by_price_desc();
        let prices: Vec<f64> = ids
            .iter()
            .map(|&id| pool.class_unchecked(id).price_cents_per_gb_hour)
            .collect();
        for w in prices.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn validation_names_the_offending_class() {
        let reason = |pool: &StoragePool| match pool.validate() {
            Err(crate::StorageError::InvalidSpec(msg)) => msg,
            other => panic!("expected an invalid spec, got {other:?}"),
        };
        assert!(catalog::full_pool().validate().is_ok());

        let mut negative = catalog::box2();
        negative.classes[1].price_cents_per_gb_hour = -1.0;
        let msg = reason(&negative);
        assert!(
            msg.contains(&format!("{:?}", negative.classes[1].name)),
            "{msg}"
        );
        assert!(msg.contains("price must be positive"), "{msg}");

        let mut infinite = catalog::box2();
        infinite.classes[0].price_cents_per_gb_hour = f64::INFINITY;
        assert!(reason(&infinite).contains("price must be positive and finite"));

        let mut duplicate = catalog::box2();
        duplicate.classes[2].name = duplicate.classes[0].name.clone();
        let msg = reason(&duplicate);
        assert!(msg.contains("duplicate class name"), "{msg}");

        let mut renumbered = catalog::box2();
        renumbered.classes[0].id = ClassId(7);
        let msg = reason(&renumbered);
        assert!(msg.contains("has id 7 at position 0"), "{msg}");
    }

    #[test]
    fn unknown_class_is_an_error() {
        let pool = catalog::box1();
        assert!(pool.class(ClassId(99)).is_err());
    }

    #[test]
    fn set_capacity_updates_vector() {
        let mut pool = catalog::box2();
        assert!(pool.set_capacity(catalog::names::HSSD, 21.0));
        let hssd = pool.class_by_name(catalog::names::HSSD).unwrap();
        assert_eq!(hssd.capacity_gb, 21.0);
        assert!(!pool.set_capacity("No Such Device", 1.0));
    }

    #[test]
    #[should_panic(expected = "duplicate class name")]
    fn duplicate_names_rejected() {
        let _ = StoragePool::new("dup", vec![catalog::hdd_class(), catalog::hdd_class()]);
    }
}

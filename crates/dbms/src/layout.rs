//! Data layouts: the mapping `L : O → D` (§2.2) with capacity validation and
//! the hourly layout cost `C(L) = Σ_j p_j · S_j` (§2.1).

use crate::object::ObjectId;
use crate::schema::Schema;
use dot_storage::{ClassId, StoragePool};
use serde::{Deserialize, Serialize};

/// A complete assignment of every object to a storage class.
#[derive(Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Layout {
    assignment: Vec<ClassId>,
}

/// Written out so that `clone_from` reuses the target's buffer: the
/// derived `clone_from` allocates a fresh `Vec`, and sweeps step a
/// candidate from the incumbent with it once per candidate.
impl Clone for Layout {
    fn clone(&self) -> Self {
        Layout {
            assignment: self.assignment.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.assignment.clone_from(&source.assignment);
    }
}

impl Layout {
    /// Place every one of `n_objects` objects on `class`.
    pub fn uniform(class: ClassId, n_objects: usize) -> Self {
        Layout {
            assignment: vec![class; n_objects],
        }
    }

    /// Build from an explicit assignment vector (indexed by `ObjectId`).
    pub fn from_assignment(assignment: Vec<ClassId>) -> Self {
        Layout { assignment }
    }

    /// Number of objects covered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when the layout covers no objects.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Storage class of `object`.
    #[inline]
    pub fn class_of(&self, object: ObjectId) -> ClassId {
        self.assignment[object.0]
    }

    /// Move `object` onto `class`.
    pub fn place(&mut self, object: ObjectId, class: ClassId) {
        self.assignment[object.0] = class;
    }

    /// A copy with `object` moved onto `class`.
    pub fn with(&self, object: ObjectId, class: ClassId) -> Layout {
        let mut l = self.clone();
        l.place(object, class);
        l
    }

    /// Raw assignment slice (indexed by `ObjectId`).
    pub fn assignment(&self) -> &[ClassId] {
        &self.assignment
    }

    /// Space used on each storage class, GB, indexed by `ClassId`:
    /// the `S_j` vector of §2.1.
    pub fn space_per_class(&self, schema: &Schema, pool: &StoragePool) -> Vec<f64> {
        let mut space = Vec::new();
        self.space_per_class_into(schema, pool, &mut space);
        space
    }

    /// [`space_per_class`](Self::space_per_class) written into `space`,
    /// reusing its allocation.
    pub fn space_per_class_into(&self, schema: &Schema, pool: &StoragePool, space: &mut Vec<f64>) {
        space.clear();
        space.resize(pool.len(), 0.0);
        for o in schema.objects() {
            space[self.class_of(o.id).0] += o.size_gb;
        }
    }

    /// Hourly layout cost in cents: `C(L) = Σ_j p_j · S_j` (§2.1).
    pub fn cost_cents_per_hour(&self, schema: &Schema, pool: &StoragePool) -> f64 {
        self.space_per_class(schema, pool)
            .iter()
            .zip(pool.classes())
            .map(|(&s, c)| c.price_cents_per_gb_hour * s)
            .sum()
    }

    /// Check every class's capacity constraint `Σ_{o ∈ O_j} s_i < c_j`.
    /// Returns the ids of violated classes (empty = feasible).
    pub fn capacity_violations(&self, schema: &Schema, pool: &StoragePool) -> Vec<ClassId> {
        self.space_per_class(schema, pool)
            .iter()
            .enumerate()
            .filter(|&(j, &s)| s >= pool.classes()[j].capacity_gb)
            .map(|(j, _)| ClassId(j))
            .collect()
    }

    /// True when all capacity constraints hold.
    pub fn fits(&self, schema: &Schema, pool: &StoragePool) -> bool {
        space_fits(&self.space_per_class(schema, pool), pool)
    }

    /// Objects resident on `class`, in id order — the `O_j` of §2.2.
    pub fn objects_on(&self, class: ClassId) -> impl Iterator<Item = ObjectId> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter(move |&(_, &c)| c == class)
            .map(|(i, _)| ObjectId(i))
    }

    /// Render the layout as `name→class` pairs for reports (paper Fig. 4/6,
    /// Table 3).
    pub fn describe(&self, schema: &Schema, pool: &StoragePool) -> Vec<(String, String)> {
        schema
            .objects()
            .iter()
            .map(|o| {
                (
                    o.name.clone(),
                    pool.class_unchecked(self.class_of(o.id)).name.clone(),
                )
            })
            .collect()
    }
}

/// Whether a layout whose `S_j` vector ([`Layout::space_per_class`]) is
/// `space` meets every capacity constraint: [`Layout::fits`] without
/// recomputing the vector.
pub fn space_fits(space: &[f64], pool: &StoragePool) -> bool {
    !space
        .iter()
        .zip(pool.classes())
        .any(|(&s, c)| s >= c.capacity_gb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use dot_storage::catalog;

    fn small_schema() -> Schema {
        SchemaBuilder::new("t")
            .table("a", 1_000_000.0, 100.0)
            .primary_index(8.0)
            .table("b", 500_000.0, 200.0)
            .primary_index(8.0)
            .build()
    }

    #[test]
    fn uniform_layout_places_everything_once() {
        let s = small_schema();
        let pool = catalog::box2();
        let hssd = pool.class_by_name("H-SSD").unwrap().id;
        let l = Layout::uniform(hssd, s.object_count());
        for o in s.objects() {
            assert_eq!(l.class_of(o.id), hssd);
        }
        let space = l.space_per_class(&s, &pool);
        assert!((space[hssd.0] - s.total_size_gb()).abs() < 1e-9);
        assert_eq!(space.iter().filter(|&&x| x > 0.0).count(), 1);
    }

    #[test]
    fn cost_is_price_times_space() {
        let s = small_schema();
        let pool = catalog::box2();
        let hssd = pool.class_by_name("H-SSD").unwrap();
        let l = Layout::uniform(hssd.id, s.object_count());
        let expect = hssd.price_cents_per_gb_hour * s.total_size_gb();
        assert!((l.cost_cents_per_hour(&s, &pool) - expect).abs() < 1e-9);
    }

    #[test]
    fn moving_to_cheaper_class_reduces_cost() {
        let s = small_schema();
        let pool = catalog::box2();
        let hssd = pool.class_by_name("H-SSD").unwrap().id;
        let hdd = pool.class_by_name("HDD").unwrap().id;
        let l0 = Layout::uniform(hssd, s.object_count());
        let l1 = l0.with(s.objects()[0].id, hdd);
        assert!(l1.cost_cents_per_hour(&s, &pool) < l0.cost_cents_per_hour(&s, &pool));
        // Original untouched.
        assert_eq!(l0.class_of(s.objects()[0].id), hssd);
    }

    #[test]
    fn capacity_violation_detected() {
        let s = small_schema();
        let mut pool = catalog::box2();
        pool.set_capacity("H-SSD", 0.01);
        let hssd = pool.class_by_name("H-SSD").unwrap().id;
        let l = Layout::uniform(hssd, s.object_count());
        assert!(!l.fits(&s, &pool));
        assert_eq!(l.capacity_violations(&s, &pool), vec![hssd]);
    }

    #[test]
    fn objects_on_partition_the_space() {
        let s = small_schema();
        let pool = catalog::box2();
        let ids: Vec<_> = pool.ids().collect();
        let mut l = Layout::uniform(ids[0], s.object_count());
        l.place(ObjectId(1), ids[1]);
        l.place(ObjectId(2), ids[2]);
        let total: usize = ids.iter().map(|&c| l.objects_on(c).count()).sum();
        assert_eq!(total, s.object_count());
        assert_eq!(l.objects_on(ids[1]).next(), Some(ObjectId(1)));
    }

    #[test]
    fn clone_from_reuses_the_buffer() {
        let a = Layout::uniform(ClassId(1), 6);
        let mut b = Layout::uniform(ClassId(0), 6);
        let buffer = b.assignment().as_ptr();
        b.clone_from(&a);
        assert_eq!(b, a);
        assert_eq!(b.assignment().as_ptr(), buffer, "no reallocation");
    }

    #[test]
    fn describe_pairs_names() {
        let s = small_schema();
        let pool = catalog::box2();
        let l = Layout::uniform(pool.most_expensive(), s.object_count());
        let d = l.describe(&s, &pool);
        assert_eq!(d.len(), s.object_count());
        assert_eq!(d[0].0, "a");
        assert_eq!(d[0].1, "H-SSD");
    }
}

//! Baseline layout enumeration (§3.4).
//!
//! For group arity `K` and `M` storage classes there are `M^K` baseline
//! layouts `L_p`, `p ∈ D^K`: layout `L_p` assigns position `k` of every
//! object group (position 0 = the table's heap, positions 1.. = its indices)
//! to class `p[min(k, K-1)]`. With `K = 2` this is exactly the paper's
//! `L(i,j)`: "all the tables on d_i and all the indices on d_j".

use dot_dbms::{Layout, ObjectId, Schema};
use dot_storage::{ClassId, StoragePool};

/// The maximum object-group size `K` for a schema: 1 + the largest number
/// of indices on any single table (singleton temp/log groups count as 1).
pub fn group_arity(schema: &Schema) -> usize {
    schema
        .tables()
        .iter()
        .map(|t| 1 + schema.indexes_of(t.id).count())
        .max()
        .unwrap_or(1)
}

/// The most baseline layouts (`M^K`) a profile may enumerate. Every
/// built-in database preset on every built-in pool stays far below it (the
/// largest is TPC-C on the full pool, 5^3 = 125), and profiling at the
/// bound stays well under a second. Sessions refuse larger problems up
/// front: a pool of 40 classes and a table with 14 indexes would otherwise
/// enumerate 40^15 baselines.
pub const MAX_BASELINE_LAYOUTS: usize = 1 << 14;

/// `M^K`: how many placements [`baseline_placements`] enumerates for
/// `classes` storage classes at group arity `arity`, or `None` when that
/// overflows `usize`.
pub fn baseline_count(classes: usize, arity: usize) -> Option<usize> {
    u32::try_from(arity)
        .ok()
        .and_then(|k| classes.checked_pow(k))
}

/// All `M^K` position-wise placements `p ∈ D^K`, in lexicographic order.
/// Callers bound `M^K` first (see [`MAX_BASELINE_LAYOUTS`]).
pub fn baseline_placements(pool: &StoragePool, arity: usize) -> Vec<Vec<ClassId>> {
    assert!(arity >= 1, "arity must be at least 1");
    let ids: Vec<ClassId> = pool.ids().collect();
    let count = baseline_count(ids.len(), arity).unwrap_or(usize::MAX);
    let mut out = Vec::with_capacity(count.min(MAX_BASELINE_LAYOUTS));
    let mut current = vec![ids[0]; arity];
    fill(&ids, &mut current, 0, &mut out);
    out
}

fn fill(ids: &[ClassId], current: &mut Vec<ClassId>, pos: usize, out: &mut Vec<Vec<ClassId>>) {
    if pos == current.len() {
        out.push(current.clone());
        return;
    }
    for &id in ids {
        current[pos] = id;
        fill(ids, current, pos + 1, out);
    }
}

/// The baseline layout `L_p`: every group's position `k` object goes to
/// `p[min(k, |p|-1)]`.
pub fn baseline_layout(schema: &Schema, placement: &[ClassId]) -> Layout {
    assert!(!placement.is_empty());
    let mut layout = Layout::uniform(placement[0], schema.object_count());
    place_baseline(&mut layout, &schema.object_groups(), placement);
    layout
}

/// Turn `layout` into the baseline `L_p` in place, given the schema's
/// [`object_groups`](Schema::object_groups): [`baseline_layout`] without
/// re-deriving the groups or allocating a layout per baseline.
pub fn place_baseline(layout: &mut Layout, groups: &[Vec<ObjectId>], placement: &[ClassId]) {
    assert!(!placement.is_empty());
    for i in 0..layout.len() {
        layout.place(ObjectId(i), placement[0]);
    }
    for group in groups {
        for (k, &obj) in group.iter().enumerate() {
            layout.place(obj, placement[k.min(placement.len() - 1)]);
        }
    }
}

/// Project a full-arity placement `p ∈ D^K` down to a group of size `k`:
/// the within-group placement the group experiences under `L_p`.
pub fn project_placement(placement: &[ClassId], group_len: usize) -> Vec<ClassId> {
    (0..group_len)
        .map(|k| placement[k.min(placement.len() - 1)])
        .collect()
}

/// All placements `D^k` for a single group of size `k` (the move targets of
/// Procedure 2), lexicographic.
pub fn group_placements(pool: &StoragePool, group_len: usize) -> Vec<Vec<ClassId>> {
    baseline_placements(pool, group_len)
}

/// Convenience: the objects of each group, as produced by
/// [`Schema::object_groups`], paired with their group index.
pub fn groups_of(schema: &Schema) -> Vec<Vec<ObjectId>> {
    schema.object_groups()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dot_dbms::SchemaBuilder;
    use dot_storage::catalog;

    fn schema() -> Schema {
        SchemaBuilder::new("t")
            .table("a", 1_000_000.0, 100.0)
            .primary_index(8.0)
            .index("a_sec", 8.0)
            .table("b", 10_000.0, 100.0)
            .primary_index(8.0)
            .build()
    }

    #[test]
    fn arity_is_largest_group() {
        let s = schema();
        assert_eq!(group_arity(&s), 3); // a + pkey + secondary
    }

    #[test]
    fn placement_count_is_m_to_k() {
        let pool = catalog::box2();
        assert_eq!(baseline_placements(&pool, 1).len(), 3);
        assert_eq!(baseline_placements(&pool, 2).len(), 9);
        assert_eq!(baseline_placements(&pool, 3).len(), 27);
        // All distinct.
        let p = baseline_placements(&pool, 2);
        let unique: std::collections::HashSet<_> = p.iter().cloned().collect();
        assert_eq!(unique.len(), 9);
    }

    #[test]
    fn baseline_count_is_checked() {
        assert_eq!(baseline_count(3, 2), Some(9));
        assert_eq!(baseline_count(5, 3), Some(125));
        assert_eq!(baseline_count(40, 15), None, "40^15 overflows a u64");
        assert_eq!(baseline_count(2, usize::MAX), None);
        let pool = catalog::box2();
        assert_eq!(
            baseline_placements(&pool, 3).len(),
            baseline_count(pool.len(), 3).unwrap()
        );
    }

    #[test]
    fn baseline_layout_assigns_positionwise() {
        let s = schema();
        let pool = catalog::box2();
        let ids: Vec<ClassId> = pool.ids().collect();
        let p = vec![ids[0], ids[1], ids[2]];
        let l = baseline_layout(&s, &p);
        let a = s.table_by_name("a").unwrap();
        let a_pk = s.index_by_name("a_pkey").unwrap();
        let a_sec = s.index_by_name("a_sec").unwrap();
        let b = s.table_by_name("b").unwrap();
        let b_pk = s.index_by_name("b_pkey").unwrap();
        assert_eq!(l.class_of(a.object), ids[0]);
        assert_eq!(l.class_of(a_pk.object), ids[1]);
        assert_eq!(l.class_of(a_sec.object), ids[2]);
        assert_eq!(l.class_of(b.object), ids[0]);
        assert_eq!(l.class_of(b_pk.object), ids[1]);
    }

    #[test]
    fn short_placement_saturates() {
        // K=2 placement applied to a 3-member group: index positions 1 and 2
        // share p[1], the paper's "all the indices on d_j".
        let s = schema();
        let pool = catalog::box2();
        let ids: Vec<ClassId> = pool.ids().collect();
        let l = baseline_layout(&s, &[ids[2], ids[0]]);
        let a_pk = s.index_by_name("a_pkey").unwrap();
        let a_sec = s.index_by_name("a_sec").unwrap();
        assert_eq!(l.class_of(a_pk.object), ids[0]);
        assert_eq!(l.class_of(a_sec.object), ids[0]);
    }

    #[test]
    fn projection_matches_layout() {
        let s = schema();
        let pool = catalog::box2();
        for p in baseline_placements(&pool, group_arity(&s)) {
            let l = baseline_layout(&s, &p);
            for g in s.object_groups() {
                let proj = project_placement(&p, g.len());
                for (k, &obj) in g.iter().enumerate() {
                    assert_eq!(l.class_of(obj), proj[k]);
                }
            }
        }
    }
}

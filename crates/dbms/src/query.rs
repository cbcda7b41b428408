//! The declarative query IR.
//!
//! A [`QuerySpec`] describes *what* a query does — which tables it reads
//! with which selectivities, which join structure connects them, what it
//! writes — while leaving *how* (access paths, join algorithms, spills) to
//! the storage-aware planner. This split is the heart of the paper's §3.5:
//! the cheapest physical plan changes when the data layout changes, so plans
//! must be (re)derived per candidate layout rather than baked into the
//! workload description.
//!
//! Read queries are left-deep join trees over filtered base-table scans —
//! sufficient for the TPC-H templates' planner-visible structure — plus an
//! optional top-level sort. DML operations (inserts, in-place updates and
//! key lookups) compose OLTP transactions.

use crate::schema::{IndexId, TableId};
use serde::{Deserialize, Serialize};

/// A base-table scan with a filter predicate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanSpec {
    /// Table being read.
    pub table: TableId,
    /// Fraction of the table's rows that survive the full predicate.
    pub selectivity: f64,
    /// An index able to serve (part of) the predicate, making an index scan
    /// available to the planner.
    pub index: Option<IndexId>,
    /// Fraction of rows the *index-served* portion of the predicate narrows
    /// to (`>= selectivity`; the residual predicate is applied after the
    /// heap fetch). Ignored when `index` is `None`.
    pub index_selectivity: f64,
}

impl ScanSpec {
    /// Full-table scan with no predicate.
    pub fn full(table: TableId) -> Self {
        ScanSpec {
            table,
            selectivity: 1.0,
            index: None,
            index_selectivity: 1.0,
        }
    }

    /// Filtered scan with no usable index.
    pub fn filtered(table: TableId, selectivity: f64) -> Self {
        ScanSpec {
            table,
            selectivity,
            index: None,
            index_selectivity: selectivity,
        }
    }

    /// Filtered scan whose whole predicate is servable by `index`.
    pub fn indexed(table: TableId, selectivity: f64, index: IndexId) -> Self {
        ScanSpec {
            table,
            selectivity,
            index: Some(index),
            index_selectivity: selectivity,
        }
    }

    /// Validate numeric domains.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.selectivity) {
            return Err(format!(
                "scan selectivity {} out of [0,1]",
                self.selectivity
            ));
        }
        if self.index.is_some() && self.index_selectivity + 1e-12 < self.selectivity {
            return Err("index_selectivity must be >= selectivity".into());
        }
        Ok(())
    }
}

/// A relational expression: a scan, or a left-deep join of an expression
/// with a base-table scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Rel {
    /// Leaf: filtered base-table scan.
    Scan(ScanSpec),
    /// Left-deep join node.
    Join(Box<JoinSpec>),
}

impl Rel {
    /// Convenience constructor for a join node.
    pub fn join(
        outer: Rel,
        inner: ScanSpec,
        rows_per_outer: f64,
        inner_index: Option<IndexId>,
    ) -> Rel {
        Rel::Join(Box::new(JoinSpec {
            outer,
            inner,
            rows_per_outer,
            inner_index,
        }))
    }

    /// All scans in the tree, outermost first.
    pub fn scans(&self) -> Vec<&ScanSpec> {
        let mut out = Vec::new();
        self.collect_scans(&mut out);
        out
    }

    fn collect_scans<'a>(&'a self, out: &mut Vec<&'a ScanSpec>) {
        match self {
            Rel::Scan(s) => out.push(s),
            Rel::Join(j) => {
                j.outer.collect_scans(out);
                out.push(&j.inner);
            }
        }
    }

    /// Number of join nodes in the tree.
    pub fn join_count(&self) -> usize {
        match self {
            Rel::Scan(_) => 0,
            Rel::Join(j) => 1 + j.outer.join_count(),
        }
    }

    /// Validate the whole tree.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Rel::Scan(s) => s.validate(),
            Rel::Join(j) => {
                j.outer.validate()?;
                j.inner.validate()?;
                if !(j.rows_per_outer.is_finite() && j.rows_per_outer >= 0.0) {
                    return Err("rows_per_outer must be finite and >= 0".into());
                }
                Ok(())
            }
        }
    }
}

/// A join between an already-computed outer relation and a base-table scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinSpec {
    /// Outer (probe/driving) side.
    pub outer: Rel,
    /// Inner base-table scan (build/lookup side).
    pub inner: ScanSpec,
    /// Mean join-output rows per outer row (encodes join selectivity).
    pub rows_per_outer: f64,
    /// Index on the inner join key, enabling an indexed nested-loop join.
    pub inner_index: Option<IndexId>,
}

/// A read-only query: a relational tree, optionally aggregated and sorted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadOp {
    /// Relational body.
    pub rel: Rel,
    /// Rows aggregated at the top (`0` = no aggregate). CPU-only.
    pub agg_rows: f64,
    /// Rows sorted at the top (`0` = no sort). May spill to temp space.
    pub sort_rows: f64,
    /// Mean width of sorted rows in bytes (spill sizing).
    pub sort_row_bytes: f64,
}

impl ReadOp {
    /// A plain read with neither aggregate nor sort.
    pub fn of(rel: Rel) -> Self {
        ReadOp {
            rel,
            agg_rows: 0.0,
            sort_rows: 0.0,
            sort_row_bytes: 0.0,
        }
    }

    /// Attach a top-level sort.
    pub fn with_sort(mut self, rows: f64, row_bytes: f64) -> Self {
        self.sort_rows = rows;
        self.sort_row_bytes = row_bytes;
        self
    }

    /// Attach a top-level aggregate over `rows` input rows.
    pub fn with_agg(mut self, rows: f64) -> Self {
        self.agg_rows = rows;
        self
    }
}

/// Append rows to a table (and maintain its indexes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InsertOp {
    /// Target table.
    pub table: TableId,
    /// Rows inserted.
    pub rows: f64,
    /// True when inserted keys are monotone (appends land sequentially in
    /// both heap and primary index — the common OLTP pattern for
    /// order/history tables); false forces random index maintenance.
    pub sequential_keys: bool,
}

/// Update rows in place, located through an optional index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateOp {
    /// Target table.
    pub table: TableId,
    /// Rows updated.
    pub rows: f64,
    /// Index used to locate the rows (point lookups); `None` means the rows
    /// are already at hand from a previous read in the same transaction.
    pub via: Option<IndexId>,
    /// True when the updated column is itself indexed, forcing index
    /// maintenance writes.
    pub updates_indexed_key: bool,
}

/// One operation of a query/transaction body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Read-only query block.
    Read(ReadOp),
    /// Row insertion.
    Insert(InsertOp),
    /// In-place update.
    Update(UpdateOp),
}

/// A named query (DSS) or transaction (OLTP): a sequence of operations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// Display name ("Q1", "NewOrder", ...).
    pub name: String,
    /// Operation sequence.
    pub ops: Vec<Op>,
    /// Repetitions of this query within one workload stream.
    pub weight: f64,
}

impl QuerySpec {
    /// Single-read query with weight 1.
    pub fn read(name: &str, read: ReadOp) -> Self {
        QuerySpec {
            name: name.to_owned(),
            ops: vec![Op::Read(read)],
            weight: 1.0,
        }
    }

    /// Multi-operation transaction with weight 1.
    pub fn transaction(name: &str, ops: Vec<Op>) -> Self {
        QuerySpec {
            name: name.to_owned(),
            ops,
            weight: 1.0,
        }
    }

    /// Copy with a different weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Validate all operations.
    pub fn validate(&self) -> Result<(), String> {
        if self.ops.is_empty() {
            return Err(format!("query {}: empty body", self.name));
        }
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return Err(format!(
                "query {}: weight must be positive and finite",
                self.name
            ));
        }
        for op in &self.ops {
            match op {
                Op::Read(r) => r.rel.validate()?,
                Op::Insert(i) => {
                    if !(i.rows.is_finite() && i.rows >= 0.0) {
                        return Err("insert rows must be finite and >= 0".into());
                    }
                }
                Op::Update(u) => {
                    if !(u.rows.is_finite() && u.rows >= 0.0) {
                        return Err("update rows must be finite and >= 0".into());
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_constructors() {
        let f = ScanSpec::full(TableId(0));
        assert_eq!(f.selectivity, 1.0);
        assert!(f.index.is_none());
        let s = ScanSpec::indexed(TableId(1), 0.01, IndexId(2));
        assert_eq!(s.index, Some(IndexId(2)));
        assert_eq!(s.index_selectivity, 0.01);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn scan_validation() {
        let mut s = ScanSpec::filtered(TableId(0), 2.0);
        assert!(s.validate().is_err());
        s.selectivity = 0.5;
        s.index = Some(IndexId(0));
        s.index_selectivity = 0.1; // narrower than total selectivity: invalid
        assert!(s.validate().is_err());
    }

    #[test]
    fn rel_tree_traversal() {
        let t = Rel::join(
            Rel::join(
                Rel::Scan(ScanSpec::filtered(TableId(0), 0.1)),
                ScanSpec::full(TableId(1)),
                2.0,
                Some(IndexId(0)),
            ),
            ScanSpec::full(TableId(2)),
            1.0,
            None,
        );
        assert_eq!(t.join_count(), 2);
        let scans = t.scans();
        assert_eq!(scans.len(), 3);
        assert_eq!(scans[0].table, TableId(0));
        assert_eq!(scans[2].table, TableId(2));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn query_validation() {
        let q = QuerySpec::read(
            "q",
            ReadOp::of(Rel::Scan(ScanSpec::full(TableId(0)))).with_sort(100.0, 64.0),
        );
        assert!(q.validate().is_ok());
        let empty = QuerySpec {
            name: "e".into(),
            ops: vec![],
            weight: 1.0,
        };
        assert!(empty.validate().is_err());
        for weight in [0.0, f64::INFINITY, f64::NAN] {
            assert!(
                q.clone().with_weight(weight).validate().is_err(),
                "{weight}"
            );
        }
        for rows in [-1.0, f64::INFINITY, f64::NAN] {
            let insert = QuerySpec::transaction(
                "i",
                vec![Op::Insert(InsertOp {
                    table: TableId(0),
                    rows,
                    sequential_keys: false,
                })],
            );
            assert!(insert.validate().is_err(), "insert {rows}");
            let update = QuerySpec::transaction(
                "u",
                vec![Op::Update(UpdateOp {
                    table: TableId(0),
                    rows,
                    via: None,
                    updates_indexed_key: false,
                })],
            );
            assert!(update.validate().is_err(), "update {rows}");
            let join = Rel::join(
                Rel::Scan(ScanSpec::full(TableId(0))),
                ScanSpec::full(TableId(1)),
                rows,
                None,
            );
            assert!(join.validate().is_err(), "rows_per_outer {rows}");
        }
    }

    #[test]
    fn read_op_builders() {
        let r = ReadOp::of(Rel::Scan(ScanSpec::full(TableId(0))))
            .with_agg(1000.0)
            .with_sort(10.0, 32.0);
        assert_eq!(r.agg_rows, 1000.0);
        assert_eq!(r.sort_rows, 10.0);
    }
}

//! A frozen copy of the recursive storage-aware planner as it stood before
//! planning was split into a layout-free compile step and a pricing step.
//!
//! It re-plans a query from scratch under every layout, building dense
//! per-object ledgers for every candidate. The template suite compares the
//! current planner against it plan for plan, bit for bit. Do not "fix" or
//! modernize this file: its value is that it does not share code with the
//! planner it checks.

#![allow(dead_code)]

use dot_dbms::cost::{yao_pages_fetched, CostVector};
use dot_dbms::plan::{AccessPath, JoinAlgo, PlannedQuery};
use dot_dbms::query::{InsertOp, JoinSpec, Op, QuerySpec, ReadOp, Rel, ScanSpec, UpdateOp};
use dot_dbms::{EngineConfig, Layout, Schema, PAGE_BYTES};
use dot_storage::{IoType, StoragePool};

/// Heap-order correlation above which index-driven heap fetches are costed
/// as sequential rather than random.
const CLUSTERED_THRESHOLD: f64 = 0.8;

/// Plan one query under `layout` and return its operator choices and cost
/// ledger for a single execution.
pub fn plan_query(
    q: &QuerySpec,
    schema: &Schema,
    layout: &Layout,
    pool: &StoragePool,
    cfg: &EngineConfig,
) -> PlannedQuery {
    let mut cost = CostVector::zero(schema.object_count());
    let mut paths = Vec::new();
    let mut joins = Vec::new();
    let mut spilled = false;
    for op in &q.ops {
        match op {
            Op::Read(r) => {
                let plan = plan_read(r, schema, layout, pool, cfg);
                cost.absorb(&plan.cost);
                paths.extend(plan.paths);
                joins.extend(plan.joins);
                spilled |= plan.spilled;
            }
            Op::Insert(ins) => cost.absorb(&cost_insert(ins, schema, cfg)),
            Op::Update(upd) => cost.absorb(&cost_update(upd, schema, cfg)),
        }
    }
    let est_time_ms = cost.time_ms(layout, pool, cfg.concurrency);
    PlannedQuery {
        name: q.name.clone(),
        access_paths: paths,
        joins,
        spilled,
        cost,
        est_time_ms,
        weight: q.weight,
    }
}

/// Whether an operator holding `bytes` overflows `work_mem` and must spill
/// to the temp object (when the schema declares one).
fn exceeds_work_mem(bytes: f64, cfg: &EngineConfig) -> bool {
    bytes > cfg.work_mem_gb * 1e9
}

/// Whether a hash join's build side (the filtered inner) spills: its rows
/// are the inner scan's output rows whichever access path reads them.
fn hash_build_spills(join: &JoinSpec, schema: &Schema, cfg: &EngineConfig) -> bool {
    let inner = schema.table(join.inner.table);
    exceeds_work_mem(inner.rows * join.inner.selectivity * inner.row_bytes, cfg)
}

/// Whether a read's top-level sort spills (external merge).
fn sort_spills(r: &ReadOp, cfg: &EngineConfig) -> bool {
    r.sort_rows > 1.0 && exceeds_work_mem(r.sort_rows * r.sort_row_bytes, cfg)
}

/// Intermediate result of planning a relational subtree.
struct RelPlan {
    cost: CostVector,
    rows: f64,
    row_bytes: f64,
    paths: Vec<(dot_dbms::TableId, AccessPath)>,
    joins: Vec<JoinAlgo>,
    spilled: bool,
}

fn plan_read(
    r: &ReadOp,
    schema: &Schema,
    layout: &Layout,
    pool: &StoragePool,
    cfg: &EngineConfig,
) -> RelPlan {
    let mut plan = plan_rel(&r.rel, schema, layout, pool, cfg);
    // Top-level aggregate: CPU only.
    if r.agg_rows > 0.0 {
        plan.cost.charge_cpu_ms(r.agg_rows * cfg.cpu.agg_ns * 1e-6);
    }
    // Top-level sort: external merge if it exceeds work_mem and a temp
    // object exists to spill into.
    if r.sort_rows > 1.0 {
        let n = r.sort_rows;
        plan.cost
            .charge_cpu_ms(n * n.log2().max(1.0) * cfg.cpu.sort_ns * 1e-6);
        let bytes = n * r.sort_row_bytes;
        if sort_spills(r, cfg) {
            if let Some(temp) = schema.temp_object() {
                let pages = bytes / PAGE_BYTES;
                // One write pass + one read pass (single-level merge).
                plan.cost.charge(temp.id, IoType::SeqWrite, n);
                plan.cost.charge(temp.id, IoType::SeqRead, pages);
                plan.spilled = true;
            }
        }
    }
    plan
}

fn plan_rel(
    rel: &Rel,
    schema: &Schema,
    layout: &Layout,
    pool: &StoragePool,
    cfg: &EngineConfig,
) -> RelPlan {
    match rel {
        Rel::Scan(scan) => plan_scan(scan, schema, layout, pool, cfg),
        Rel::Join(join) => {
            let outer = plan_rel(&join.outer, schema, layout, pool, cfg);
            let inner_table = schema.table(join.inner.table);

            // Candidate 1: hash join. Build the (filtered) inner via its own
            // best access path, then hash both sides.
            let mut hash = plan_scan(&join.inner, schema, layout, pool, cfg);
            let build_rows = hash.rows;
            hash.cost
                .charge_cpu_ms((build_rows + outer.rows) * cfg.cpu.hash_ns * 1e-6);
            let build_bytes = build_rows * inner_table.row_bytes;
            let mut hash_spilled = false;
            if hash_build_spills(join, schema, cfg) {
                if let Some(temp) = schema.temp_object() {
                    // Grace hash join: both sides partitioned to temp and
                    // re-read once.
                    let spill_bytes = build_bytes + outer.rows * outer.row_bytes;
                    let pages = spill_bytes / PAGE_BYTES;
                    hash.cost
                        .charge(temp.id, IoType::SeqWrite, build_rows + outer.rows);
                    hash.cost.charge(temp.id, IoType::SeqRead, pages);
                    hash_spilled = true;
                }
            }
            let hash_time = hash.cost.time_ms(layout, pool, cfg.concurrency);

            // Candidate 2: indexed nested-loop join, when the inner join key
            // is indexed. Per outer row: one leaf probe on the index plus
            // expected heap fetches; upper B+-tree levels are costed once
            // (they stay cached across probes).
            let inlj = join.inner_index.map(|idx_id| {
                let idx = schema.index(idx_id);
                let heap_corr = idx.correlation >= CLUSTERED_THRESHOLD
                    || (idx.primary && inner_table.clustered);
                let mut cv = CostVector::zero(schema.object_count());
                let probes = outer.rows.max(0.0);
                let matches_per_probe = join.rows_per_outer.max(0.0);
                // One-time descent of the upper levels.
                cv.charge(idx.object, IoType::RandRead, idx.height());
                // Per-probe leaf page.
                cv.charge(idx.object, IoType::RandRead, probes);
                // Heap fetches.
                let heap_fetch_rows = probes * matches_per_probe;
                if heap_corr {
                    let pages = (heap_fetch_rows / (inner_table.rows / inner_table.pages()))
                        .max(probes.min(heap_fetch_rows));
                    cv.charge(inner_table.object, IoType::SeqRead, pages);
                } else {
                    cv.charge(inner_table.object, IoType::RandRead, heap_fetch_rows);
                }
                cv.charge_cpu_ms(
                    probes * idx.height() * cfg.cpu.index_tuple_ns * 1e-6
                        + heap_fetch_rows * cfg.cpu.tuple_ns * 1e-6,
                );
                cv
            });
            let inlj_time = inlj
                .as_ref()
                .map(|cv| cv.time_ms(layout, pool, cfg.concurrency));

            let out_rows = outer.rows * join.rows_per_outer;
            let out_bytes = outer.row_bytes + inner_table.row_bytes;
            let mut result = outer;
            match (inlj, inlj_time) {
                (Some(cv), Some(t)) if t < hash_time => {
                    result.cost.absorb(&cv);
                    result.joins.push(JoinAlgo::IndexedNlj);
                    // The INLJ reads the inner purely through its index; the
                    // inner scan's access path is the index probe itself.
                    result.paths.push((
                        join.inner.table,
                        AccessPath::IndexScan(join.inner_index.expect("inlj requires index")),
                    ));
                }
                _ => {
                    result.cost.absorb(&hash.cost);
                    result.joins.push(JoinAlgo::Hash);
                    result.paths.extend(hash.paths);
                    result.spilled |= hash_spilled;
                }
            }
            result.rows = out_rows;
            result.row_bytes = out_bytes;
            result
        }
    }
}

fn plan_scan(
    scan: &ScanSpec,
    schema: &Schema,
    layout: &Layout,
    pool: &StoragePool,
    cfg: &EngineConfig,
) -> RelPlan {
    let table = schema.table(scan.table);
    let out_rows = table.rows * scan.selectivity;

    // Candidate 1: sequential scan.
    let mut seq = CostVector::zero(schema.object_count());
    seq.charge(table.object, IoType::SeqRead, table.pages());
    seq.charge_cpu_ms(table.rows * cfg.cpu.tuple_ns * 1e-6 + cfg.cpu.operator_overhead_ms);
    let seq_time = seq.time_ms(layout, pool, cfg.concurrency);

    // Candidate 2: index scan, when the spec names a usable index.
    let index_candidate = scan.index.map(|idx_id| {
        let idx = schema.index(idx_id);
        let mut cv = CostVector::zero(schema.object_count());
        let fetched = table.rows * scan.index_selectivity;
        // Descent plus the leaf range covering the matched entries.
        let leaf_pages = (scan.index_selectivity * idx.leaf_pages()).max(1.0);
        cv.charge(idx.object, IoType::RandRead, idx.height() + leaf_pages);
        // Heap fetches: sequential when the index correlates with heap
        // order, Yao-estimated random page reads otherwise.
        if idx.correlation >= CLUSTERED_THRESHOLD || (idx.primary && table.clustered) {
            let pages = (scan.index_selectivity * table.pages()).max(1.0);
            cv.charge(table.object, IoType::SeqRead, pages);
        } else {
            let pages = yao_pages_fetched(table.pages(), fetched);
            cv.charge(table.object, IoType::RandRead, pages);
        }
        cv.charge_cpu_ms(
            fetched * (cfg.cpu.index_tuple_ns + cfg.cpu.tuple_ns) * 1e-6
                + cfg.cpu.operator_overhead_ms,
        );
        cv
    });

    match index_candidate {
        Some(cv) if cv.time_ms(layout, pool, cfg.concurrency) < seq_time => RelPlan {
            cost: cv,
            rows: out_rows,
            row_bytes: table.row_bytes,
            paths: vec![(
                scan.table,
                AccessPath::IndexScan(scan.index.expect("index candidate requires index")),
            )],
            joins: Vec::new(),
            spilled: false,
        },
        _ => RelPlan {
            cost: seq,
            rows: out_rows,
            row_bytes: table.row_bytes,
            paths: vec![(scan.table, AccessPath::SeqScan)],
            joins: Vec::new(),
            spilled: false,
        },
    }
}

/// I/O and CPU charges for an insert: heap append, index maintenance, and a
/// WAL record when the schema declares a log object. Write charges are per
/// row, matching Table 1's ms/row write calibration.
fn cost_insert(ins: &InsertOp, schema: &Schema, cfg: &EngineConfig) -> CostVector {
    let table = schema.table(ins.table);
    let mut cv = CostVector::zero(schema.object_count());
    cv.charge(table.object, IoType::SeqWrite, ins.rows);
    for idx in schema.indexes_of(ins.table) {
        let io = if ins.sequential_keys && idx.primary {
            IoType::SeqWrite
        } else {
            IoType::RandWrite
        };
        cv.charge(idx.object, io, ins.rows);
    }
    if let Some(log) = schema.log_object() {
        cv.charge(log.id, IoType::SeqWrite, ins.rows);
    }
    cv.charge_cpu_ms(ins.rows * cfg.cpu.tuple_ns * 1e-6);
    cv
}

/// I/O and CPU charges for an in-place update: locate (index leaf + heap
/// random read), rewrite (heap random write), plus index maintenance when
/// the updated column is indexed, plus WAL.
fn cost_update(upd: &UpdateOp, schema: &Schema, cfg: &EngineConfig) -> CostVector {
    let table = schema.table(upd.table);
    let mut cv = CostVector::zero(schema.object_count());
    if let Some(idx_id) = upd.via {
        let idx = schema.index(idx_id);
        // Leaf probe per row; upper levels once.
        cv.charge(idx.object, IoType::RandRead, idx.height() + upd.rows);
        cv.charge_cpu_ms(upd.rows * idx.height() * cfg.cpu.index_tuple_ns * 1e-6);
    }
    cv.charge(table.object, IoType::RandRead, upd.rows);
    cv.charge(table.object, IoType::RandWrite, upd.rows);
    if upd.updates_indexed_key {
        if let Some(pk) = schema.primary_index_of(upd.table) {
            cv.charge(pk.object, IoType::RandWrite, upd.rows);
        }
    }
    if let Some(log) = schema.log_object() {
        cv.charge(log.id, IoType::SeqWrite, upd.rows);
    }
    cv.charge_cpu_ms(upd.rows * cfg.cpu.tuple_ns * 1e-6);
    cv
}

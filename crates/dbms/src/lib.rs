//! # dot-dbms
//!
//! A from-scratch relational-engine *simulator* standing in for the paper's
//! extended PostgreSQL 9.0.1 (§3.5 of *Towards Cost-Effective Storage
//! Provisioning for DBMSs*, VLDB 2011).
//!
//! The paper needs exactly two things from its DBMS:
//!
//! 1. a **storage-aware cost-based query planner** — given a candidate data
//!    layout, re-choose access paths (sequential vs. index scan) and join
//!    algorithms (hash join vs. indexed nested-loop join) using per-device
//!    I/O service times, and
//! 2. an **I/O accounting surface** — per-object, per-pattern I/O operation
//!    counts (`χ_r[o]`) plus a response-time estimate, obtainable either from
//!    the optimizer without executing (the DSS path, §4.4) or from a test run
//!    (the OLTP path, §4.5).
//!
//! This crate provides both over a declarative query IR:
//!
//! * [`schema`] — tables, B+-tree indices, analytic page/height statistics,
//!   and the dense [`object::ObjectId`] space (tables, indices, temp, log)
//!   that layouts map onto storage classes;
//! * [`layout`] — the `L : O → D` mapping with capacity validation and the
//!   layout cost `C(L) = Σ p_j · S_j` (§2.1);
//! * [`query`] — the query IR: left-deep join trees over filtered scans,
//!   plus DML operations for OLTP transactions;
//! * [`planner`] — cost-based physical planning per layout, in two steps:
//!   compile a query's layout-free candidate ledgers once, then price them
//!   under each layout ([`plan`] holds the chosen physical operators,
//!   [`cost`] the arithmetic);
//! * [`memo`] — a per-session plan memo holding each query's compiled
//!   template, so a solve compiles once and afterwards only re-prices;
//! * [`explain`] — EXPLAIN-style rendering of plans and per-object I/O;
//! * [`exec`] — the execution simulator: turns a planned workload into
//!   per-object I/O traces and elapsed time, optionally applying the
//!   buffer-pool model ([`bufferpool`]) that the *estimator* deliberately
//!   ignores (the paper does the same — §3.5);
//! * [`config`] — engine parameters (concurrency, work_mem, CPU cost
//!   constants, buffer size).
//!
//! Plan choice really does flip with placement, which is the paper's central
//! mechanism:
//!
//! ```
//! use dot_dbms::{config::EngineConfig, layout::Layout, planner};
//! use dot_dbms::testkit::{two_table_schema, range_query};
//! use dot_storage::catalog;
//!
//! let pool = catalog::box2();
//! let schema = two_table_schema();
//! let q = range_query(&schema, 0.002);
//! let cfg = EngineConfig::dss();
//!
//! let hdd = pool.class_by_name("HDD").unwrap().id;
//! let hssd = pool.class_by_name("H-SSD").unwrap().id;
//!
//! // Everything on the HDD: random index probes are ruinous, planner scans.
//! let all_hdd = Layout::uniform(hdd, schema.object_count());
//! let p1 = planner::plan_query(&q, &schema, &all_hdd, &pool, &cfg);
//! // Everything on the H-SSD: random reads are nearly free, planner probes.
//! let all_hssd = Layout::uniform(hssd, schema.object_count());
//! let p2 = planner::plan_query(&q, &schema, &all_hssd, &pool, &cfg);
//! assert_ne!(p1.describe(), p2.describe());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bufferpool;
pub mod config;
pub mod cost;
pub mod exec;
pub mod explain;
pub mod layout;
pub mod memo;
pub mod object;
pub mod plan;
pub mod planner;
pub mod query;
pub mod schema;
pub mod testkit;

pub use config::EngineConfig;
pub use layout::Layout;
pub use object::{DbObject, ObjectId, ObjectKind};
pub use schema::{IndexDef, IndexId, Schema, SchemaBuilder, TableDef, TableId};

/// Database page size in bytes. PostgreSQL's default, which the paper's
/// measurements are expressed against.
pub const PAGE_BYTES: f64 = 8192.0;

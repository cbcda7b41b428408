//! # dot-profiler
//!
//! The profiling phase of DOT (§3.4 of *Towards Cost-Effective Storage
//! Provisioning for DBMSs*): measure the workload's I/O behaviour over a
//! small set of **baseline layouts** and distill it into a
//! [`WorkloadProfile`] — the `X = {χ^p_r[o]}` table that the optimization
//! phase prices under arbitrary candidate placements.
//!
//! Why baselines work: object placement changes I/O *through plan choice*,
//! and (per the paper's §3.2 heuristic) plans react to the placement of a
//! table and its own indices — an **object group** — but are assumed
//! independent of other groups' placement. So profiling the `M^K` layouts
//! `L_p` that give *every* group the same position-wise placement `p`
//! (tables on `d_i`, indices on `d_j`, ... ) observes every within-group
//! placement pattern at cost `O(M^K)` instead of `O(M^N)`.
//!
//! Profiles can be sourced from optimizer estimates (the paper's TPC-H path)
//! or from simulated test runs (its TPC-C path), and plan-signature
//! **pruning** (§3.4, §4.5.1) skips baselines whose plans provably match an
//! already-profiled one — which collapses TPC-C to a single profiled layout
//! exactly as in the paper.
//!
//! Each group's counts live in one dense table of `M^k` rows (`k` objects
//! in the group), indexed by the placement's lexicographic mixed-radix
//! code — the order [`baseline_placements`] enumerates. Baseline `b` of the
//! `M^K` writes its counts at row `b / M^(K−k)`, its length-`k` prefix, so
//! [`GroupProfile::io_time_share_ms`] reads a row by arithmetic.
//!
//! Baselines are keyed by their plan decisions alone ([`BaselineRuns`]):
//! the keys are decided in one reused buffer, never priced, and only a
//! key's first baseline is counted — from the templates, without plans,
//! for estimates. A profile keeps that partition, so
//! [`WorkloadProfile::recount`] re-profiles from test runs without walking
//! the baselines again.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod baseline;
pub mod profile;

pub use baseline::{
    baseline_count, baseline_layout, baseline_placements, group_arity, MAX_BASELINE_LAYOUTS,
};
pub use profile::{profile_workload, BaselineRuns, GroupProfile, ProfileSource, WorkloadProfile};

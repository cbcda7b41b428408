//! Provisioning-as-a-service: the `dot-serve` daemon.
//!
//! The advisory stack (`dot-core`) answers one question at a time; real
//! consolidated-storage operation (§2.5 of the paper) is many tenants
//! drifting *concurrently*, each with a deployed layout under
//! supervision. This crate turns the offline [`Controller`] loop into a
//! long-running service:
//!
//! - [`protocol`] — the versioned JSON-lines request/response vocabulary
//!   (one JSON document per line; `Observe` streams events).
//! - [`framing`] — timeout-tolerant line framing with a size ceiling.
//! - [`registry`] — per-tenant controller sessions counting their replan
//!   reuse in one shared [`CachedEstimator`]; per-tenant mutexes give
//!   cross-tenant concurrency with per-tenant determinism.
//! - [`server`] — TCP + Unix-socket listeners, a bounded std-thread
//!   worker pool, and graceful drain-and-flush shutdown.
//! - [`cli`] — the argument surface shared by the `dot-serve` binary and
//!   the `dot-cli serve` passthrough.
//!
//! The daemon adds **no second control path**: every request lands on the
//! same `Advisor` / `Controller` code the offline CLI runs, with the same
//! typed [`ProvisionError`]s, so a scripted trace replayed through a
//! socket produces bit-identical [`ControlEvent`]s to
//! `dot-cli supervise` over the same inputs (pinned by
//! `tests/serve_daemon.rs` against the scenario simulator's golden
//! trajectories).
//!
//! [`Controller`]: dot_core::controller::Controller
//! [`CachedEstimator`]: dot_core::controller::CachedEstimator
//! [`ProvisionError`]: dot_core::advisor::ProvisionError
//! [`ControlEvent`]: dot_core::controller::ControlEvent

#![warn(missing_docs)]

pub mod cli;
pub mod framing;
pub mod protocol;
pub mod registry;
pub mod server;

pub use protocol::{
    ProblemSpec, ProtocolError, Request, RequestFrame, Response, ResponseFrame, TenantId,
    TenantSummary, PROTOCOL_VERSION,
};
pub use registry::Registry;
pub use server::{Server, ServerConfig};

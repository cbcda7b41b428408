//! The versioned JSON-lines wire protocol of the `dot-serve` daemon.
//!
//! Every frame is one JSON document on one line, terminated by `\n`.
//! Clients send [`RequestFrame`]s — a client-chosen correlation `id` plus a
//! [`Request`] — and the daemon answers with one or more [`ResponseFrame`]s
//! echoing that id. Most requests produce exactly one response; `Observe`
//! *streams*: zero or more [`Response::Event`] frames (one per
//! [`ControlEvent`] the tick logged, shipped as each tick completes)
//! followed by a terminal [`Response::ObserveDone`].
//!
//! Enums use serde's externally-tagged encoding, so a request line looks
//! like:
//!
//! ```text
//! {"id":1,"request":{"Hello":{"version":1}}}
//! {"id":2,"request":{"AttachTenant":{"problem":{"pool":"box2","database":"tpcc:2","sla":0.5}}}}
//! {"id":3,"request":{"Observe":{"tenant":1,"step":{"phase":"analytical"}}}}
//! ```
//!
//! Every reject path is a typed [`Response::Error`] carrying a
//! [`ProtocolError`]; per-tenant failures (an infeasible SLA, a malformed
//! trace step) are [`ProtocolError::Provision`] frames scoped to that
//! request — they never terminate the connection, the tenant, or the
//! daemon. A rejected frame is answered with the client's id whenever the
//! line revealed one — any top-level `id` of a well-formed line, or an id
//! read in full before the line went wrong — and with id `0` otherwise.
//! Ids are exact: integer fields decode and encode as exact integers, so
//! every `u64` id round-trips.
//!
//! The protocol is versioned by [`PROTOCOL_VERSION`]; `Hello` performs the
//! handshake and an unsupported version is a typed error, not a hangup.

use dot_core::advisor::presets;
use dot_core::advisor::{ProvisionError, Recommendation};
use dot_core::controller::CacheStats;
use dot_core::controller::{ControlEvent, ControlProvenance, ControllerConfig, TraceStep};
use dot_dbms::{EngineConfig, Layout, Schema};
use dot_storage::StoragePool;
use dot_workloads::Workload;
use serde::{Deserialize, Serialize};

/// The schedule digest an `ObserveDone` frame carries, kept by each
/// tenant's controller.
pub use dot_core::controller::ScheduleSummary;

/// The wire-protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// The server identification string sent in the `Hello` response.
pub const SERVER_NAME: &str = concat!("dot-serve/", env!("CARGO_PKG_VERSION"));

/// Registry handle of an attached tenant, unique for the daemon's lifetime.
pub type TenantId = u64;

/// One request line: a client-chosen correlation id plus the operation.
/// The daemon echoes `id` on every frame the request produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestFrame {
    /// Correlation id, echoed verbatim (use `0` if you do not correlate).
    pub id: u64,
    /// The operation.
    pub request: Request,
}

/// Every operation the daemon accepts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Version handshake. Optional but recommended as the first frame.
    Hello {
        /// The protocol version the client speaks.
        version: u32,
    },
    /// One-shot provisioning: solve the problem and answer with the
    /// recommendation. No tenant state is created.
    Provision {
        /// The provisioning inputs.
        problem: ProblemSpec,
        /// Registry id of the solver to run; `None` means `"dot"`.
        #[serde(default)]
        solver: Option<String>,
    },
    /// Register a tenant: the baseline problem plus the deployed layout,
    /// answered with the tenant id subsequent `Observe` calls address.
    AttachTenant {
        /// Tenant label echoed in summaries (defaults to `tenant-<id>`).
        #[serde(default)]
        name: Option<String>,
        /// The baseline problem the deployed layout was provisioned for.
        problem: ProblemSpec,
        /// The layout the tenant runs on today; `None` provisions the
        /// baseline with the controller's solver and deploys that.
        #[serde(default)]
        deployed: Option<Layout>,
        /// Controller knobs; `None` uses [`ControllerConfig::default`].
        #[serde(default)]
        controller: Option<ControllerConfig>,
    },
    /// Feed one scripted observation to a tenant's controller. The step is
    /// relative to the tenant's baseline workload (same [`TraceStep`]
    /// vocabulary as `dot-cli supervise` traces); `repeat` observes it for
    /// several consecutive ticks. Streams the ticks' [`ControlEvent`]s.
    Observe {
        /// The tenant to tick.
        tenant: TenantId,
        /// The scripted observation.
        step: TraceStep,
    },
    /// Unregister a tenant, answering with its final summary.
    DetachTenant {
        /// The tenant to remove.
        tenant: TenantId,
    },
    /// Fleet totals plus the tenants' replan-reuse counters.
    Stats,
    /// Graceful shutdown: stop accepting connections, drain in-flight
    /// ticks, and answer with every attached tenant's flushed summary.
    Shutdown,
}

/// One response line: the correlated request id plus the payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseFrame {
    /// The id of the request this frame answers (`0` when the request was
    /// too malformed to carry one).
    pub id: u64,
    /// The payload.
    pub response: Response,
}

/// Every frame the daemon emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake answer.
    Hello {
        /// The protocol version the daemon speaks.
        version: u32,
        /// Server identification, e.g. `dot-serve/0.1.0`.
        server: String,
    },
    /// The one-shot provisioning answer.
    Provisioned {
        /// The full serialized recommendation (boxed: it dwarfs every
        /// other frame and would otherwise size them all).
        recommendation: Box<Recommendation>,
    },
    /// A tenant was registered.
    Attached {
        /// The handle `Observe` / `DetachTenant` address.
        tenant: TenantId,
        /// The tenant's label.
        name: String,
    },
    /// One control event of an in-flight `Observe` stream.
    Event {
        /// The tenant whose controller logged the event.
        tenant: TenantId,
        /// The typed event, exactly as the controller logged it.
        event: ControlEvent,
    },
    /// Terminal frame of an `Observe` stream: the tenant's cumulative
    /// counters after the ticks this request ingested.
    ObserveDone {
        /// The tenant that ticked.
        tenant: TenantId,
        /// Ticks ingested over the tenant's lifetime.
        ticks: u64,
        /// Replans triggered over the tenant's lifetime.
        triggers: usize,
        /// Plans applied over the tenant's lifetime.
        applications: usize,
        /// The transfer schedule of the tenant's most recent plan (`None`
        /// until a replan runs). Absent on frames from daemons predating
        /// the wave scheduler.
        #[serde(default)]
        schedule: Option<ScheduleSummary>,
    },
    /// A durability point of this request did not reach the disk: the
    /// state the terminal frame right after it acknowledges (`Attached`,
    /// `ObserveDone`, `Detached` or `ShuttingDown`) holds in memory but may
    /// not survive a restart. Never a terminal frame itself, and absent
    /// whenever the write succeeded.
    NotDurable {
        /// The failed write's error.
        reason: String,
    },
    /// A tenant was unregistered; its final summary.
    Detached {
        /// The flushed summary.
        summary: TenantSummary,
    },
    /// Fleet totals and replan-reuse counters.
    Stats {
        /// Tenants currently attached.
        tenants: usize,
        /// Ticks ingested across all current tenants.
        ticks: u64,
        /// Replans triggered across all current tenants.
        triggers: usize,
        /// Plans applied across all current tenants.
        applications: usize,
        /// Replan reuse across the tenants' controllers: triggered ticks
        /// answered from a controller's memo (`hits`), replans solved
        /// (`misses`), and answers resident (`entries`). The field keeps
        /// the name of the estimate cache it replaced.
        cache: CacheStats,
    },
    /// Graceful shutdown acknowledged; every tenant's flushed summary, in
    /// attach order.
    ShuttingDown {
        /// The flushed summaries.
        tenants: Vec<TenantSummary>,
    },
    /// The request was rejected; the typed reason.
    Error {
        /// Why.
        error: ProtocolError,
    },
}

/// A tenant's lifetime summary, flushed on detach and on shutdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSummary {
    /// The tenant's handle.
    pub tenant: TenantId,
    /// The tenant's label.
    pub name: String,
    /// Ticks ingested.
    pub ticks: u64,
    /// Replans triggered.
    pub triggers: usize,
    /// Plans applied.
    pub applications: usize,
    /// The shared control-surface provenance: wall-clock since attach plus
    /// the last trigger reason (`Quiescent` over a quiet session) — the
    /// same schema `dot-cli replan --json` and `supervise` stamp.
    pub provenance: ControlProvenance,
}

/// Why a request was rejected. Every reject path of the daemon maps onto
/// exactly one variant, so clients can branch without parsing messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProtocolError {
    /// The line was not a well-formed request frame (bad UTF-8, bad JSON,
    /// an unknown top-level key, or a shape the protocol does not know).
    Malformed {
        /// Human-readable diagnosis.
        reason: String,
    },
    /// The line exceeded the frame-size ceiling; the connection closes,
    /// since the stream cannot be resynchronized.
    Oversized {
        /// The ceiling in bytes.
        limit_bytes: usize,
    },
    /// The `Hello` named a protocol version this daemon does not speak.
    UnsupportedVersion {
        /// What the client asked for.
        requested: u32,
        /// What this daemon speaks.
        supported: u32,
    },
    /// The addressed tenant is not attached (never was, or detached).
    UnknownTenant {
        /// The unknown handle.
        tenant: TenantId,
    },
    /// The daemon is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The tenant's bounded in-flight observe budget is exhausted — a hot
    /// tenant degrades to typed rejects instead of queueing unboundedly on
    /// its slot mutex. Back off for `retry_after_ms` and resend; other
    /// tenants are unaffected.
    Busy {
        /// The saturated tenant.
        tenant: TenantId,
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// A tick of this tenant's controller panicked. The panic was
    /// contained: the daemon and every other tenant keep serving, but this
    /// tenant's in-memory state can no longer be trusted and every further
    /// `Observe` answers this same error until the tenant is detached.
    Faulted {
        /// The poisoned tenant.
        tenant: TenantId,
        /// The contained panic's message.
        reason: String,
    },
    /// The provisioning layer rejected the request — a per-tenant typed
    /// error (infeasible SLA, unknown preset, malformed trace step, ...)
    /// that never disturbs other tenants or the daemon.
    Provision {
        /// The typed provisioning failure.
        error: ProvisionError,
    },
}

impl ProtocolError {
    /// Stable machine-readable tag, mirroring
    /// [`ProvisionError::kind`](dot_core::advisor::ProvisionError::kind).
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolError::Malformed { .. } => "malformed",
            ProtocolError::Oversized { .. } => "oversized",
            ProtocolError::UnsupportedVersion { .. } => "unsupported-version",
            ProtocolError::UnknownTenant { .. } => "unknown-tenant",
            ProtocolError::ShuttingDown => "shutting-down",
            ProtocolError::Busy { .. } => "busy",
            ProtocolError::Faulted { .. } => "faulted",
            ProtocolError::Provision { .. } => "provision",
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Malformed { reason } => write!(f, "malformed frame: {reason}"),
            ProtocolError::Oversized { limit_bytes } => {
                write!(f, "frame exceeds {limit_bytes} bytes")
            }
            ProtocolError::UnsupportedVersion {
                requested,
                supported,
            } => write!(
                f,
                "protocol version {requested} unsupported (this daemon speaks {supported})"
            ),
            ProtocolError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            ProtocolError::ShuttingDown => write!(f, "daemon is shutting down"),
            ProtocolError::Busy {
                tenant,
                retry_after_ms,
            } => write!(
                f,
                "tenant {tenant} is busy; retry after {retry_after_ms} ms"
            ),
            ProtocolError::Faulted { tenant, reason } => {
                write!(f, "tenant {tenant} is faulted: {reason}")
            }
            ProtocolError::Provision { error } => write!(f, "{error}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Problem specifications
// ---------------------------------------------------------------------------

/// The provisioning inputs of a request, in the same shape as a `dot-cli`
/// problem file: a pool (built-in name or inline), a database (preset
/// string or inline schema + workload), a relative SLA, and optional
/// engine/refinement overrides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// The storage pool.
    pub pool: PoolSpec,
    /// The database.
    pub database: DbSpec,
    /// Relative SLA ratio in `(0, 1]`.
    pub sla: f64,
    /// Engine preset name (`"dss"` / `"oltp"`); `None` picks the
    /// workload-metric default per observation.
    #[serde(default)]
    pub engine: Option<String>,
    /// Validation/refinement rounds (default 1).
    #[serde(default)]
    pub refinements: Option<usize>,
}

/// A storage pool: a built-in catalog name or an inline definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum PoolSpec {
    /// A built-in pool name (`"box1"`, `"box2"`, `"full"`).
    Name(String),
    /// An inline pool definition.
    Custom(StoragePool),
}

/// A database: a preset string or an inline schema + workload pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum DbSpec {
    /// A preset like `"tpch:20:original"`, `"tpcc:300"`, `"ycsb:1000000:A"`.
    Preset(String),
    /// An inline database.
    Custom {
        /// The schema.
        schema: Schema,
        /// The workload.
        workload: Workload,
    },
}

/// A [`ProblemSpec`] with every indirection resolved.
#[derive(Debug, Clone)]
pub struct ResolvedProblem {
    /// The storage pool.
    pub pool: StoragePool,
    /// The schema.
    pub schema: Schema,
    /// The baseline workload.
    pub workload: Workload,
    /// Relative SLA ratio.
    pub sla: f64,
    /// The engine, only when the spec named one explicitly (observations
    /// otherwise pick their own metric default, as the CLI does).
    pub engine: Option<EngineConfig>,
    /// Validation/refinement rounds.
    pub refinements: usize,
}

impl ProblemSpec {
    /// Resolve presets and validate the SLA domain and an inline pool.
    pub fn resolve(&self) -> Result<ResolvedProblem, ProvisionError> {
        ProvisionError::check_sla(self.sla, "")?;
        let pool = match &self.pool {
            PoolSpec::Custom(pool) => {
                ProvisionError::check_pool(pool, "")?;
                pool.clone()
            }
            PoolSpec::Name(name) => presets::pool(name)?,
        };
        let (schema, workload) = match &self.database {
            DbSpec::Custom { schema, workload } => (schema.clone(), workload.clone()),
            DbSpec::Preset(preset) => presets::database(preset)?,
        };
        let engine = match self.engine.as_deref() {
            Some(name) => Some(presets::engine(Some(name), &workload)?),
            None => None,
        };
        Ok(ResolvedProblem {
            pool,
            schema,
            workload,
            sla: self.sla,
            engine,
            refinements: self.refinements.unwrap_or(1),
        })
    }
}

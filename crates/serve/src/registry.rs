//! The daemon's tenant registry: many concurrent per-tenant
//! [`Controller`] sessions, counting their replan reuse in one shared
//! [`CachedEstimator`].
//!
//! Locking discipline: the registry's own mutex guards only the tenant
//! *map* (attach/detach/lookup — held for moments); each tenant carries
//! its own mutex serializing that tenant's ticks. Observes on different
//! tenants therefore run concurrently, while two connections observing the
//! same tenant serialize — the controller's event order stays a single
//! deterministic log. Shutdown sets a flag (new work is answered with
//! [`ProtocolError::ShuttingDown`]), then flushes tenants one by one;
//! taking each tenant's lock naturally waits out that tenant's in-flight
//! ticks, so flushed summaries count every tick a client was promised.
//!
//! Three hardening layers ride on top of that core:
//!
//! - **Persistence** — with a `state_dir` configured, the registry
//!   snapshots itself to `registry.json` on attach, detach, every
//!   applied migration, and graceful shutdown. All disk I/O belongs to
//!   one dedicated writer thread (the private `Persister`): callers enqueue a
//!   snapshot built under the persister's lock — so a later enqueue can
//!   never carry an older view of the registry — and the writer performs
//!   the fsync'd tmp-file + rename sequence serially, so two durability
//!   points can never race the temp file or publish out of order, and a
//!   migrating tenant is never blocked on the disk. [`Registry::open`]
//!   restores the snapshot, so clients reconnect and resume by tenant id
//!   after a restart — even a `kill -9`, which at worst loses the quiet
//!   ticks since the last applied plan. What is persisted per tenant is
//!   a [`TenantSnapshot`]: the problem spec, the controller config, and
//!   the controller's [`ControllerCheckpoint`] — a resumed session
//!   continues the event log bit-identically. A durability point whose
//!   write fails is reported to the caller that waited on it (a
//!   [`Durability`] error), never acknowledged as on disk.
//! - **Backpressure** — each tenant carries a bounded in-flight observe
//!   budget; overflow is a typed [`ProtocolError::Busy`] reject instead
//!   of an unbounded queue on the slot mutex.
//! - **Panic containment** — each tick runs under `catch_unwind`; a
//!   panicking tick marks only that tenant faulted (every further observe
//!   answers [`ProtocolError::Faulted`]) and poisoned locks are recovered
//!   instead of `.unwrap()`-crashing the daemon, so one tenant's bug
//!   never disturbs another tenant or the process.

use crate::protocol::{ProblemSpec, ProtocolError, ScheduleSummary, TenantId, TenantSummary};
use dot_core::advisor::{Advisor, ProvisionError, Recommendation};
use dot_core::controller::{
    expand_trace, ControlEvent, ControlProvenance, Controller, ControllerCheckpoint,
    ControllerConfig, TraceStep, TriggerReason,
};
use dot_core::controller::{CacheStats, CachedEstimator};
use dot_dbms::{Layout, Schema};
use dot_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Instant;

/// Version stamp of the on-disk [`RegistrySnapshot`]; a mismatch is a
/// typed startup error, never a silent misparse.
pub const SNAPSHOT_VERSION: u32 = 1;

/// The snapshot's file name inside the state directory.
pub const STATE_FILE: &str = "registry.json";

/// Lock a mutex, recovering a poisoned one: the daemon contains panics
/// per tenant (the fault flag keeps inconsistent state from being
/// reused), so poisoning is bookkeeping, not a reason to crash every
/// other tenant's session.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Render a `catch_unwind` payload (almost always a `&str` or `String`).
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "tick panicked (non-string payload)".to_owned()
    }
}

/// Wait on a condvar, recovering a poisoned guard — the same policy as
/// [`lock_recover`].
fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|p| p.into_inner())
}

/// Single-writer snapshot persistence.
///
/// Why a writer thread instead of writing at the call site: durability
/// points fire concurrently from every worker thread (attach, detach,
/// each applied migration, shutdown), and ad-hoc writes would race the
/// temp file — interleaved bytes, a rename losing to a truncation, or a
/// stale snapshot published over a newer one. Here the *snapshot build*
/// runs under the queue lock, so enqueue order is registry-state order
/// (a later ticket can never carry an older view), and the *disk write*
/// belongs to exactly one thread, so writes are serial and in ticket
/// order. The queue holds only the freshest pending snapshot: a burst of
/// durability points coalesces into one write.
///
/// Callers that need a durability barrier (attach/detach replies,
/// graceful shutdown, the end of an observe step that applied a plan)
/// [`sync`](Persister::sync) on their ticket — crucially *without*
/// holding any tenant lock, so a slow disk stalls the one caller that
/// asked for durability, never the tenant or the tenant map — and learn
/// whether their state reached the disk.
struct Persister {
    shared: Arc<PersisterShared>,
    writer: Option<thread::JoinHandle<()>>,
}

struct PersisterShared {
    dir: PathBuf,
    queue: Mutex<PersistQueue>,
    /// Signaled when `pending` is set or `stop` latches.
    work: Condvar,
    /// Signaled when `written` advances (sync barriers wait on it).
    done: Condvar,
}

#[derive(Default)]
struct PersistQueue {
    /// The freshest snapshot not yet picked up by the writer.
    pending: Option<RegistrySnapshot>,
    /// Tickets issued (monotone enqueue counter).
    enqueued: u64,
    /// The highest ticket whose write attempt completed. Failed writes
    /// advance it too: a barrier must not hang on a full disk.
    written: u64,
    /// The highest ticket whose write succeeded. A snapshot is built from
    /// the registry state at its ticket, so every ticket up to this one is
    /// on disk.
    durable: u64,
    /// Why the most recent failed write failed.
    failure: Option<String>,
    stop: bool,
}

impl Persister {
    fn start(dir: PathBuf) -> Persister {
        let shared = Arc::new(PersisterShared {
            dir,
            queue: Mutex::new(PersistQueue::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let writer = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || shared.write_loop())
        };
        Persister {
            shared,
            writer: Some(writer),
        }
    }

    /// Enqueue the snapshot `build` returns, replacing any pending one.
    /// `build` runs under the queue lock — that is what makes tickets
    /// monotone in registry state. Returns the ticket for [`sync`].
    fn enqueue(&self, build: impl FnOnce() -> RegistrySnapshot) -> u64 {
        let mut queue = lock_recover(&self.shared.queue);
        queue.pending = Some(build());
        queue.enqueued += 1;
        self.shared.work.notify_one();
        queue.enqueued
    }

    /// Block until the write for `ticket` (or a fresher one) completed,
    /// and answer whether `ticket`'s state is on disk: `Err` carries the
    /// latest write error, unless a fresher write has landed since.
    fn sync(&self, ticket: u64) -> Durability {
        let mut queue = lock_recover(&self.shared.queue);
        while queue.written < ticket {
            queue = wait_recover(&self.shared.done, queue);
        }
        if queue.durable >= ticket {
            Ok(())
        } else {
            Err(queue.failure.clone().unwrap_or_default())
        }
    }
}

impl Drop for Persister {
    /// Stop the writer, draining any pending snapshot first — dropping
    /// the registry never discards an enqueued durability point.
    fn drop(&mut self) {
        lock_recover(&self.shared.queue).stop = true;
        self.shared.work.notify_all();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

impl PersisterShared {
    fn write_loop(&self) {
        loop {
            let (snapshot, ticket) = {
                let mut queue = lock_recover(&self.queue);
                loop {
                    if let Some(snapshot) = queue.pending.take() {
                        break (snapshot, queue.enqueued);
                    }
                    if queue.stop {
                        return;
                    }
                    queue = wait_recover(&self.work, queue);
                }
            };
            // Persistence failures must not fail the request that asked
            // for them (the in-memory registry stays authoritative), and
            // nothing — not even a panicking filesystem — may kill the
            // writer while barriers wait on it: hand the failure to the
            // barriers and carry on.
            let failure =
                match catch_unwind(AssertUnwindSafe(|| write_snapshot(&self.dir, &snapshot))) {
                    Ok(Ok(())) => None,
                    Ok(Err(e)) => Some(format!("failed to persist registry state: {e}")),
                    Err(payload) => Some(format!(
                        "registry persistence panicked: {}",
                        panic_reason(payload)
                    )),
                };
            let mut queue = lock_recover(&self.queue);
            queue.written = queue.written.max(ticket);
            match failure {
                None => queue.durable = queue.durable.max(ticket),
                Some(reason) => {
                    eprintln!("dot-serve: {reason}");
                    queue.failure = Some(reason);
                }
            }
            self.done.notify_all();
        }
    }
}

/// Whether a durability point reached the disk: `Err` carries why the
/// write that covered it failed. The in-memory state stands either way.
pub type Durability = Result<(), String>;

/// Registry knobs (the server copies these out of its own config).
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Kept only for source compatibility: there is no shared estimate
    /// cache to size, and the registry ignores it.
    pub cache_capacity: usize,
    /// Directory for the registry snapshot; `None` disables persistence.
    pub state_dir: Option<PathBuf>,
    /// Per-tenant in-flight observe budget (running + queued); the
    /// request over the budget is answered [`ProtocolError::Busy`].
    pub tenant_inflight_limit: usize,
    /// The back-off hint stamped on `Busy` rejects, in milliseconds.
    pub busy_retry_ms: u64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            cache_capacity: 1 << 16,
            state_dir: None,
            tenant_inflight_limit: 4,
            busy_retry_ms: 50,
        }
    }
}

/// One attached tenant: identity plus the mutex serializing its ticks.
struct TenantSlot {
    id: TenantId,
    name: String,
    state: Mutex<TenantState>,
    /// Observes currently running or queued on `state` (the budget).
    inflight: AtomicUsize,
    /// Set when a tick panicked: the contained panic's message. A faulted
    /// tenant's in-memory state is never ticked again (its last durable
    /// snapshot stays valid, so a restart recovers the tenant).
    fault: Mutex<Option<String>>,
    /// The last durably-consistent snapshot, refreshed at attach, on
    /// every applied migration, and at graceful shutdown. `persist` reads
    /// only this (never the live state), so snapshotting the registry
    /// does not wait on in-flight ticks.
    durable: Mutex<TenantSnapshot>,
}

/// The parts of a tenant that change as it ticks.
struct TenantState {
    controller: Controller,
    /// Schema clone for [`expand_trace`] (the controller owns its own).
    schema: Schema,
    /// The baseline workload trace steps drift relative to.
    baseline: Workload,
    triggers: usize,
    applications: usize,
    last_trigger: Option<TriggerReason>,
    /// Schedule digest of the most recent `Planned` event (not persisted:
    /// a restored tenant reports `None` until its next replan).
    last_schedule: Option<ScheduleSummary>,
    attached: Instant,
    /// Wall-clock milliseconds accumulated by earlier incarnations of a
    /// restored tenant (summaries report lifetime, not since-restart).
    prior_elapsed_ms: u64,
}

/// Everything needed to restore one tenant after a restart: the inputs
/// ([`ProblemSpec`] + [`ControllerConfig`]) plus the control-loop state
/// ([`ControllerCheckpoint`]) and the summary counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSnapshot {
    /// The tenant's handle, preserved across restarts.
    pub tenant: TenantId,
    /// The tenant's label.
    pub name: String,
    /// The baseline problem (presets re-resolve identically on restore).
    pub problem: ProblemSpec,
    /// The controller knobs.
    pub controller: ControllerConfig,
    /// The control-loop state as of the snapshot.
    pub checkpoint: ControllerCheckpoint,
    /// Replans triggered as of the snapshot.
    pub triggers: usize,
    /// Plans applied as of the snapshot.
    pub applications: usize,
    /// The last trigger reason as of the snapshot.
    pub last_trigger: Option<TriggerReason>,
    /// Wall-clock milliseconds attached as of the snapshot.
    pub elapsed_ms: u64,
}

/// The whole registry on disk: one JSON document, written atomically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// [`SNAPSHOT_VERSION`] at write time.
    pub version: u32,
    /// The id counter (restored ids never collide with new attaches).
    pub next_id: u64,
    /// Every attached tenant, in attach order.
    pub tenants: Vec<TenantSnapshot>,
}

/// Cumulative counters answered at the end of an `Observe` stream.
#[derive(Debug, Clone)]
pub struct TenantCounters {
    /// Ticks ingested over the tenant's lifetime.
    pub ticks: u64,
    /// Replans triggered over the tenant's lifetime.
    pub triggers: usize,
    /// Plans applied over the tenant's lifetime.
    pub applications: usize,
    /// The most recent plan's transfer-schedule digest (`None` until a
    /// replan runs; fleet-total counters carry `None` too).
    pub last_schedule: Option<ScheduleSummary>,
    /// Whether the plans this step applied reached the disk (`Ok` when
    /// none needed to, or the registry does not persist).
    pub durability: Durability,
}

/// Why an `Observe` stream stopped early.
#[derive(Debug)]
pub enum ObserveFailure {
    /// A typed protocol/provisioning reject — answer with an error frame.
    Protocol(ProtocolError),
    /// The event sink (the client connection) failed — drop the client.
    Io(io::Error),
}

impl From<ProvisionError> for ObserveFailure {
    fn from(error: ProvisionError) -> Self {
        ObserveFailure::Protocol(ProtocolError::Provision { error })
    }
}

/// Decrement-on-drop guard for a tenant's in-flight budget, so every
/// return path (success, typed error, sink failure, even a panic
/// unwinding past the observe) releases the slot it took.
struct InflightPermit<'a>(&'a AtomicUsize);

impl<'a> InflightPermit<'a> {
    fn acquire(slot: &'a TenantSlot, limit: usize) -> Option<InflightPermit<'a>> {
        let prev = slot.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= limit {
            slot.inflight.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(InflightPermit(&slot.inflight))
    }
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The daemon's shared state: the tenant map, the replan-reuse counters,
/// and the shutdown latch.
pub struct Registry {
    cache: Arc<CachedEstimator>,
    config: RegistryConfig,
    /// Attach-ordered (shutdown summaries flush in attach order).
    tenants: Mutex<Vec<Arc<TenantSlot>>>,
    next_id: AtomicU64,
    shutting_down: AtomicBool,
    /// The snapshot writer; `None` without a `state_dir`.
    persister: Option<Persister>,
}

impl Registry {
    /// An empty registry. Persistence still applies if the config names a
    /// `state_dir`, but nothing is restored — use [`open`](Registry::open)
    /// for the restore-on-startup path.
    pub fn new(config: RegistryConfig) -> Registry {
        Registry {
            cache: Arc::new(CachedEstimator::new()),
            tenants: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            persister: config.state_dir.clone().map(Persister::start),
            config,
        }
    }

    /// Open a registry: create the state directory if configured, and
    /// restore the snapshot found there (if any) so tenants survive a
    /// daemon restart. A snapshot that cannot be restored — unreadable,
    /// wrong version, or a problem that no longer resolves — is a typed
    /// startup error, never a silently-empty registry.
    pub fn open(config: RegistryConfig) -> io::Result<Registry> {
        let registry = Registry::new(config);
        if let Some(dir) = registry.config.state_dir.clone() {
            std::fs::create_dir_all(&dir)?;
            let path = dir.join(STATE_FILE);
            match std::fs::read_to_string(&path) {
                Ok(text) => registry.restore(&text).map_err(|reason| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}: {reason}", path.display()),
                    )
                })?,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(registry)
    }

    /// Rebuild the tenant map from a serialized [`RegistrySnapshot`].
    fn restore(&self, text: &str) -> Result<(), String> {
        let snapshot: RegistrySnapshot =
            serde_json::from_str(text).map_err(|e| format!("malformed snapshot: {e}"))?;
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(format!(
                "snapshot version {} unsupported (this daemon writes {SNAPSHOT_VERSION})",
                snapshot.version
            ));
        }
        let mut max_id = 0;
        let mut tenants: Vec<Arc<TenantSlot>> = Vec::with_capacity(snapshot.tenants.len());
        for snap in snapshot.tenants {
            // The daemon never writes colliding ids, so a duplicate means
            // a hand-edited or corrupted snapshot: fail loud at startup
            // (like a version mismatch) instead of letting `slot()`
            // silently serve whichever twin attached first.
            if tenants.iter().any(|slot| slot.id == snap.tenant) {
                return Err(format!("duplicate tenant id {} in snapshot", snap.tenant));
            }
            max_id = max_id.max(snap.tenant);
            let slot = self
                .restore_slot(snap)
                .map_err(|(name, e)| format!("tenant {name:?}: {e}"))?;
            tenants.push(Arc::new(slot));
        }
        // Ids stay unique even against a snapshot whose counter lagged.
        self.next_id
            .store(snapshot.next_id.max(max_id + 1), Ordering::SeqCst);
        *lock_recover(&self.tenants) = tenants;
        Ok(())
    }

    /// Reopen one tenant's session from its snapshot: re-resolve the
    /// problem, rebuild the controller, and resume its checkpoint. No
    /// solving happens here — the deployed layout comes from the
    /// checkpoint, so restore latency is parsing plus construction.
    fn restore_slot(&self, snap: TenantSnapshot) -> Result<TenantSlot, (String, ProvisionError)> {
        let fail = |e| (snap.name.clone(), e);
        let resolved = snap.problem.resolve().map_err(fail)?;
        let mut controller = Controller::new(
            &resolved.schema,
            &resolved.pool,
            &resolved.workload,
            snap.checkpoint.deployed.clone(),
            resolved.sla,
            snap.controller.clone(),
        )
        .map_err(fail)?
        .with_toc_cache(Arc::clone(&self.cache))
        .with_refinements(resolved.refinements);
        if let Some(engine) = resolved.engine {
            controller = controller.with_engine(engine);
        }
        let controller = controller.with_checkpoint(&snap.checkpoint).map_err(fail)?;
        Ok(TenantSlot {
            id: snap.tenant,
            name: snap.name.clone(),
            state: Mutex::new(TenantState {
                controller,
                schema: resolved.schema,
                baseline: resolved.workload,
                triggers: snap.triggers,
                applications: snap.applications,
                last_trigger: snap.last_trigger.clone(),
                last_schedule: None,
                attached: Instant::now(),
                prior_elapsed_ms: snap.elapsed_ms,
            }),
            inflight: AtomicUsize::new(0),
            fault: Mutex::new(None),
            durable: Mutex::new(snap),
        })
    }

    /// Hand the current tenant map to the persister (no-op without one).
    /// Reads only the durable per-tenant snapshots, so it never waits on
    /// an in-flight tick, and the disk write happens on the writer
    /// thread — the returned ticket is what [`persist_sync`] waits on.
    fn persist(&self) -> u64 {
        match &self.persister {
            Some(p) => p.enqueue(|| {
                let slots: Vec<Arc<TenantSlot>> = lock_recover(&self.tenants).clone();
                self.build_snapshot(&slots)
            }),
            None => 0,
        }
    }

    /// Persist and wait for the write to complete — the durability
    /// barrier for replies that promise the state is on disk (attach,
    /// detach). Never called with a tenant lock held.
    fn persist_sync(&self) -> Durability {
        let ticket = self.persist();
        self.persister.as_ref().map_or(Ok(()), |p| p.sync(ticket))
    }

    /// Persist an explicit slot list and wait — `flush_all` passes the
    /// pre-flush set so graceful shutdown durably writes the tenants it
    /// just flushed, even though the live map is already empty.
    fn persist_slots_sync(&self, slots: &[Arc<TenantSlot>]) -> Durability {
        let Some(p) = &self.persister else {
            return Ok(());
        };
        let ticket = p.enqueue(|| self.build_snapshot(slots));
        p.sync(ticket)
    }

    fn build_snapshot(&self, slots: &[Arc<TenantSlot>]) -> RegistrySnapshot {
        RegistrySnapshot {
            version: SNAPSHOT_VERSION,
            next_id: self.next_id.load(Ordering::SeqCst),
            tenants: slots
                .iter()
                .map(|s| lock_recover(&s.durable).clone())
                .collect(),
        }
    }

    /// The replan-reuse counters every tenant's controller counts in.
    pub fn cache(&self) -> &Arc<CachedEstimator> {
        &self.cache
    }

    /// Whether the shutdown latch is set.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Set the shutdown latch; `true` for the caller that set it first.
    pub fn begin_shutdown(&self) -> bool {
        !self.shutting_down.swap(true, Ordering::SeqCst)
    }

    fn reject_if_shutting_down(&self) -> Result<(), ProtocolError> {
        if self.is_shutting_down() {
            Err(ProtocolError::ShuttingDown)
        } else {
            Ok(())
        }
    }

    fn slot(&self, tenant: TenantId) -> Result<Arc<TenantSlot>, ProtocolError> {
        lock_recover(&self.tenants)
            .iter()
            .find(|s| s.id == tenant)
            .cloned()
            .ok_or(ProtocolError::UnknownTenant { tenant })
    }

    /// One-shot provisioning; no tenant state.
    pub fn provision(
        &self,
        spec: &ProblemSpec,
        solver: Option<&str>,
    ) -> Result<Recommendation, ProtocolError> {
        self.reject_if_shutting_down()?;
        let resolved = spec.resolve().map_err(provision)?;
        let mut builder = Advisor::builder(&resolved.schema, &resolved.pool, &resolved.workload);
        builder = builder.sla(resolved.sla).refinements(resolved.refinements);
        if let Some(engine) = resolved.engine {
            builder = builder.engine(engine);
        }
        let advisor = builder.build().map_err(provision)?;
        advisor
            .recommend(solver.unwrap_or("dot"))
            .map_err(provision)
    }

    /// [`attach_with_durability`](Self::attach_with_durability), for
    /// callers that do not report whether the attach reached the disk.
    pub fn attach(
        &self,
        name: Option<String>,
        spec: &ProblemSpec,
        deployed: Option<Layout>,
        config: Option<ControllerConfig>,
    ) -> Result<(TenantId, String), ProtocolError> {
        self.attach_with_durability(name, spec, deployed, config)
            .map(|(id, name, _)| (id, name))
    }

    /// Register a tenant: validate the problem, provision the baseline
    /// when no deployed layout is given, and open its controller. The id
    /// is allocated under the table lock *after* the shutdown re-check,
    /// so a rejected attach never burns an id (a restored registry's
    /// counter stays collision-free). The attached tenant stands even when
    /// its durability point fails; the [`Durability`] says so.
    pub fn attach_with_durability(
        &self,
        name: Option<String>,
        spec: &ProblemSpec,
        deployed: Option<Layout>,
        config: Option<ControllerConfig>,
    ) -> Result<(TenantId, String, Durability), ProtocolError> {
        self.reject_if_shutting_down()?;
        let resolved = spec.resolve().map_err(provision)?;
        let config = config.unwrap_or_default();
        config.validate().map_err(provision)?;
        // No deployed layout: deploy what the controller's own solver
        // recommends for the baseline — the same choice `dot-cli
        // supervise` makes without `--current`.
        let deployed = match deployed {
            Some(layout) => layout,
            None => {
                let mut builder =
                    Advisor::builder(&resolved.schema, &resolved.pool, &resolved.workload);
                builder = builder.sla(resolved.sla).refinements(resolved.refinements);
                if let Some(engine) = resolved.engine {
                    builder = builder.engine(engine);
                }
                builder
                    .build()
                    .map_err(provision)?
                    .recommend(&config.solver)
                    .map_err(provision)?
                    .layout
            }
        };
        let mut controller = Controller::new(
            &resolved.schema,
            &resolved.pool,
            &resolved.workload,
            deployed,
            resolved.sla,
            config.clone(),
        )
        .map_err(provision)?
        .with_toc_cache(Arc::clone(&self.cache))
        .with_refinements(resolved.refinements);
        if let Some(engine) = resolved.engine {
            controller = controller.with_engine(engine);
        }
        {
            let mut tenants = lock_recover(&self.tenants);
            // An attach that raced the shutdown latch must not leak a
            // tenant the flush already missed — and must not have
            // allocated an id yet, either.
            if self.is_shutting_down() {
                return Err(ProtocolError::ShuttingDown);
            }
            let id = self.next_id.fetch_add(1, Ordering::SeqCst);
            let name = name.unwrap_or_else(|| format!("tenant-{id}"));
            let durable = TenantSnapshot {
                tenant: id,
                name: name.clone(),
                problem: spec.clone(),
                controller: config,
                checkpoint: controller.checkpoint(),
                triggers: 0,
                applications: 0,
                last_trigger: None,
                elapsed_ms: 0,
            };
            tenants.push(Arc::new(TenantSlot {
                id,
                name: name.clone(),
                state: Mutex::new(TenantState {
                    controller,
                    schema: resolved.schema,
                    baseline: resolved.workload,
                    triggers: 0,
                    applications: 0,
                    last_trigger: None,
                    last_schedule: None,
                    attached: Instant::now(),
                    prior_elapsed_ms: 0,
                }),
                inflight: AtomicUsize::new(0),
                fault: Mutex::new(None),
                durable: Mutex::new(durable),
            }));
            drop(tenants);
            Ok((id, name, self.persist_sync()))
        }
    }

    /// Tick a tenant's controller through one scripted step, streaming
    /// each tick's events through `sink` as the tick completes. The
    /// tenant's lock is held for the whole step, so concurrent observes of
    /// one tenant serialize while other tenants proceed — up to the
    /// tenant's in-flight budget, past which the request is a typed
    /// [`ProtocolError::Busy`] reject. Each tick runs under
    /// `catch_unwind`: a panic faults this tenant (every later observe
    /// answers [`ProtocolError::Faulted`]) and nothing else.
    pub fn observe(
        &self,
        tenant: TenantId,
        step: &TraceStep,
        sink: &mut dyn FnMut(&ControlEvent) -> io::Result<()>,
    ) -> Result<TenantCounters, ObserveFailure> {
        self.reject_if_shutting_down()
            .map_err(ObserveFailure::Protocol)?;
        let slot = self.slot(tenant).map_err(ObserveFailure::Protocol)?;
        if let Some(reason) = lock_recover(&slot.fault).clone() {
            return Err(ObserveFailure::Protocol(ProtocolError::Faulted {
                tenant,
                reason,
            }));
        }
        // The budget check happens *before* queueing on the state mutex:
        // the over-budget request is answered immediately, it does not
        // join the queue it was rejected for.
        let Some(_permit) = InflightPermit::acquire(&slot, self.config.tenant_inflight_limit)
        else {
            return Err(ObserveFailure::Protocol(ProtocolError::Busy {
                tenant,
                retry_after_ms: self.config.busy_retry_ms,
            }));
        };
        let mut state = lock_recover(&slot.state);
        // Re-check under the tenant lock: a shutdown that latched while we
        // waited will flush right after we release, and must not lose
        // ticks it never promised the flusher. Same for a fault: the tick
        // we queued behind may have poisoned the tenant.
        self.reject_if_shutting_down()
            .map_err(ObserveFailure::Protocol)?;
        if let Some(reason) = lock_recover(&slot.fault).clone() {
            return Err(ObserveFailure::Protocol(ProtocolError::Faulted {
                tenant,
                reason,
            }));
        }
        let trace = expand_trace(&state.schema, &state.baseline, std::slice::from_ref(step))?;
        let mut durability = None;
        for observed in &trace {
            #[cfg(feature = "test-hooks")]
            if slot.name.contains("__slow__") {
                // Fault-injection hook: make each tick slow enough that a
                // concurrent client can observe the in-flight budget.
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            let state = &mut *state;
            let ticked = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "test-hooks")]
                if slot.name.contains("__panic__") {
                    panic!("test-hooks: injected tick panic");
                }
                state.controller.observe(observed)
            }));
            let failed = match ticked {
                Ok(outcome) => outcome.err(),
                Err(payload) => {
                    // The panic was contained before it could poison the
                    // state mutex, but the controller may have died
                    // mid-update: latch the fault so this tenant is never
                    // ticked again, and answer with the typed frame.
                    let reason = panic_reason(payload);
                    *lock_recover(&slot.fault) = Some(reason.clone());
                    return Err(ObserveFailure::Protocol(ProtocolError::Faulted {
                        tenant,
                        reason,
                    }));
                }
            };
            // Even a failed tick logged its observation (and possibly the
            // trigger) before erroring — stream those, then the error.
            let mut applied = false;
            for event in state.controller.drain_events() {
                match &event {
                    ControlEvent::Triggered { reason, .. } => {
                        state.triggers += 1;
                        state.last_trigger = Some(reason.clone());
                    }
                    ControlEvent::Planned {
                        waves,
                        makespan_seconds,
                        ..
                    } => {
                        state.last_schedule = Some(ScheduleSummary {
                            waves: *waves,
                            makespan_seconds: *makespan_seconds,
                        });
                    }
                    ControlEvent::Applied { .. } => {
                        state.applications += 1;
                        applied = true;
                    }
                    _ => {}
                }
                sink(&event).map_err(ObserveFailure::Io)?;
            }
            if applied {
                // A migration landed: this tick is a durability point.
                // Refresh the snapshot and enqueue it right away — the
                // writer thread races the rest of the step, so even a
                // `kill -9` before the step ends usually resumes from the
                // migrated layout — at worst the ticks after it are
                // re-fed. Only memory work happens here; the tenant never
                // waits on the disk under its own lock.
                refresh_durable(&slot, state);
                durability = Some(self.persist());
            }
            if let Some(e) = failed {
                return Err(e.into());
            }
        }
        let mut counters = TenantCounters {
            ticks: state.controller.ticks(),
            triggers: state.triggers,
            applications: state.applications,
            last_schedule: state.last_schedule,
            durability: Ok(()),
        };
        drop(state);
        // The terminal frame is the durability barrier: once the client
        // sees this step's counters, its applied plans are on disk — or
        // the counters say they are not. The wait happens after the tenant
        // lock is released, so a slow disk stalls only this client, never
        // the tenant's queue.
        if let (Some(ticket), Some(p)) = (durability, &self.persister) {
            counters.durability = p.sync(ticket);
        }
        Ok(counters)
    }

    /// Unregister a tenant, flushing its final summary, and say whether
    /// the registry without it reached the disk.
    pub fn detach(&self, tenant: TenantId) -> Result<(TenantSummary, Durability), ProtocolError> {
        let slot = {
            let mut tenants = lock_recover(&self.tenants);
            let idx = tenants
                .iter()
                .position(|s| s.id == tenant)
                .ok_or(ProtocolError::UnknownTenant { tenant })?;
            tenants.remove(idx)
        };
        let durability = self.persist_sync();
        Ok((summarize(&slot), durability))
    }

    /// Fleet totals plus the replan-reuse counters. Tenant locks are
    /// taken one at a time, so totals are per-tenant consistent (a tenant
    /// mid-step is counted as of its last completed tick).
    pub fn stats(&self) -> (usize, TenantCounters, CacheStats) {
        let slots: Vec<Arc<TenantSlot>> = lock_recover(&self.tenants).clone();
        let mut totals = TenantCounters {
            ticks: 0,
            triggers: 0,
            applications: 0,
            last_schedule: None,
            durability: Ok(()),
        };
        for slot in &slots {
            let state = lock_recover(&slot.state);
            totals.ticks += state.controller.ticks();
            totals.triggers += state.triggers;
            totals.applications += state.applications;
        }
        (slots.len(), totals, self.cache.stats())
    }

    /// Flush every tenant for shutdown, in attach order. Taking each
    /// tenant's lock waits out its in-flight ticks; the emptied map makes
    /// later detaches answer [`ProtocolError::UnknownTenant`]. The flushed
    /// set is persisted, so a graceful shutdown's state file carries every
    /// tenant's final checkpoint for the next daemon to restore — or the
    /// [`Durability`] says it does not.
    pub fn flush_all(&self) -> (Vec<TenantSummary>, Durability) {
        let slots: Vec<Arc<TenantSlot>> = std::mem::take(&mut *lock_recover(&self.tenants));
        let summaries = slots
            .iter()
            .map(|slot| {
                let state = lock_recover(&slot.state);
                if lock_recover(&slot.fault).is_none() {
                    // A faulted tenant's live state is not trustworthy;
                    // its durable snapshot stays at the last apply.
                    refresh_durable(slot, &state);
                }
                summarize_locked(slot, &state)
            })
            .collect();
        let durability = self.persist_slots_sync(&slots);
        (summaries, durability)
    }
}

/// Atomic, durable snapshot write: a temp file synced and renamed into
/// place, so a crash mid-write can never leave a truncated
/// `registry.json` — and the fsyncs extend that past process death to
/// power loss (the bytes reach stable storage before the rename
/// publishes them; the rename reaches the directory before the write is
/// declared done). Called only from the persister's writer thread, which
/// is what makes the shared temp path race-free.
fn write_snapshot(dir: &Path, snapshot: &RegistrySnapshot) -> io::Result<()> {
    #[cfg(feature = "test-hooks")]
    if snapshot
        .tenants
        .iter()
        .any(|t| t.name.contains("__nodisk__"))
    {
        // Fault-injection hook: a registry holding a "__nodisk__" tenant
        // behaves like a full disk.
        return Err(io::Error::other("test-hooks: injected write failure"));
    }
    let tmp = dir.join(format!("{STATE_FILE}.tmp"));
    let mut file = std::fs::File::create(&tmp)?;
    crate::framing::write_json(&mut file, snapshot, "")?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(STATE_FILE))?;
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Refresh a tenant's durable snapshot from its live state (caller holds
/// the state lock, which is what makes the copy consistent).
fn refresh_durable(slot: &TenantSlot, state: &TenantState) {
    let mut durable = lock_recover(&slot.durable);
    durable.checkpoint = state.controller.checkpoint();
    durable.triggers = state.triggers;
    durable.applications = state.applications;
    durable.last_trigger = state.last_trigger.clone();
    durable.elapsed_ms = state.prior_elapsed_ms + state.attached.elapsed().as_millis() as u64;
}

fn provision(error: ProvisionError) -> ProtocolError {
    ProtocolError::Provision { error }
}

/// A tenant's lifetime summary — the same counters and provenance schema
/// `supervise_fleet` stamps on a [`SuperviseOutcome`](dot_core::fleet::SuperviseOutcome).
fn summarize(slot: &TenantSlot) -> TenantSummary {
    let state = lock_recover(&slot.state);
    summarize_locked(slot, &state)
}

fn summarize_locked(slot: &TenantSlot, state: &TenantState) -> TenantSummary {
    TenantSummary {
        tenant: slot.id,
        name: slot.name.clone(),
        ticks: state.controller.ticks(),
        triggers: state.triggers,
        applications: state.applications,
        provenance: ControlProvenance {
            elapsed_ms: state.prior_elapsed_ms + state.attached.elapsed().as_millis() as u64,
            trigger: state
                .last_trigger
                .clone()
                .unwrap_or(TriggerReason::Quiescent),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    fn spec() -> ProblemSpec {
        serde_json::from_str("{\"pool\": \"box2\", \"database\": \"tpcc:2\", \"sla\": 0.5}")
            .expect("problem spec")
    }

    fn step(text: &str) -> TraceStep {
        serde_json::from_str(text).expect("trace step")
    }

    #[test]
    fn over_budget_observes_are_busy_rejects_not_queued_waits() {
        let registry = Registry::new(RegistryConfig {
            tenant_inflight_limit: 1,
            busy_retry_ms: 7,
            ..RegistryConfig::default()
        });
        let (tenant, _) = registry.attach(None, &spec(), None, None).expect("attach");
        let registry = Arc::new(registry);

        // Thread A holds the tenant's only budget slot: its sink blocks
        // on a channel after the first event, deterministically pinning
        // the tenant in-flight while the main thread probes it.
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let worker = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                let mut first = true;
                registry.observe(tenant, &step("{\"shift\": 0.02}"), &mut |_| {
                    if first {
                        first = false;
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                    }
                    Ok(())
                })
            })
        };
        entered_rx.recv().expect("worker entered its tick");

        // The budget is spent: the second observe answers Busy with the
        // configured back-off, without queueing on the state mutex.
        let err = registry.observe(tenant, &step("{\"shift\": 0.02}"), &mut |_| Ok(()));
        match err {
            Err(ObserveFailure::Protocol(ProtocolError::Busy {
                tenant: busy,
                retry_after_ms,
            })) => {
                assert_eq!(busy, tenant);
                assert_eq!(retry_after_ms, 7);
            }
            Err(ObserveFailure::Protocol(other)) => panic!("expected Busy, got {other:?}"),
            Err(ObserveFailure::Io(e)) => panic!("expected Busy, got io error {e}"),
            Ok(_) => panic!("expected Busy, observe succeeded"),
        }

        release_tx.send(()).unwrap();
        worker.join().expect("worker").expect("first observe");

        // The permit was released: the retry goes through.
        let counters = registry
            .observe(tenant, &step("{\"shift\": 0.02}"), &mut |_| Ok(()))
            .expect("retry after budget freed");
        assert_eq!(counters.ticks, 2);
    }

    #[test]
    fn rejected_attaches_never_burn_ids() {
        // Ids are allocated under the table lock after the shutdown
        // re-check, so the successful attaches' ids are contiguous from 1
        // and a post-shutdown attach consumes nothing.
        let registry = Registry::new(RegistryConfig::default());
        let mut ids = Vec::new();
        for _ in 0..3 {
            let (id, _) = registry.attach(None, &spec(), None, None).expect("attach");
            ids.push(id);
        }
        assert_eq!(ids, vec![1, 2, 3]);

        registry.begin_shutdown();
        assert!(matches!(
            registry.attach(None, &spec(), None, None),
            Err(ProtocolError::ShuttingDown)
        ));
        // The rejected attach must not have advanced the counter (a
        // restored registry would mint a colliding id otherwise).
        assert_eq!(registry.next_id.load(Ordering::SeqCst), 4);
    }

    fn temp_state_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dot-serve-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> io::Result<Registry> {
        Registry::open(RegistryConfig {
            state_dir: Some(dir.to_path_buf()),
            ..RegistryConfig::default()
        })
    }

    #[test]
    fn concurrent_durability_points_keep_the_snapshot_parseable_and_fresh() {
        // Regression: durability points used to write the shared temp
        // file from whichever worker thread they fired on, so two racing
        // persists could truncate each other mid-rename (an unreadable
        // `registry.json`) or publish a stale snapshot over a newer one.
        // The single-writer persister serializes them: every read below
        // parses, and the final snapshot is the freshest state.
        let dir = temp_state_dir("race");
        let registry = Arc::new(open(&dir).expect("open"));
        // A pre-solved layout makes each attach cheap (no solver sweep),
        // so the hammer exercises persistence, not provisioning.
        let layout = registry.provision(&spec(), None).expect("provision").layout;

        let workers: Vec<_> = (0..4)
            .map(|t| {
                let registry = Arc::clone(&registry);
                let layout = layout.clone();
                let dir = dir.clone();
                thread::spawn(move || {
                    for i in 0..6 {
                        let (id, _) = registry
                            .attach(
                                Some(format!("t{t}-{i}")),
                                &spec(),
                                Some(layout.clone()),
                                None,
                            )
                            .expect("attach");
                        // Attach replied, so its snapshot is on disk —
                        // and however many sibling persists are racing,
                        // the published file always parses.
                        let text = std::fs::read_to_string(dir.join(STATE_FILE))
                            .expect("snapshot exists once attach replied");
                        let snapshot: RegistrySnapshot =
                            serde_json::from_str(&text).expect("snapshot parses mid-hammer");
                        assert_eq!(snapshot.version, SNAPSHOT_VERSION);
                        if i % 2 == 0 {
                            registry.detach(id).expect("detach").1.expect("durable");
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("worker");
        }

        // Last write wins and it is the *newest* state: a reopened
        // registry restores exactly the live survivors.
        let (live, _, _) = registry.stats();
        assert_eq!(live, 4 * 3, "half of each worker's attaches detached");
        drop(registry);
        let reopened = open(&dir).expect("reopen");
        let (restored, _, _) = reopened.stats();
        assert_eq!(restored, live, "the final snapshot is the freshest");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_rejects_duplicate_tenant_ids() {
        // The daemon never writes colliding ids, so a duplicate is a
        // hand-edited or corrupted snapshot: startup fails loud (like a
        // version mismatch) instead of serving whichever twin is first.
        let dir = temp_state_dir("dup");
        {
            let registry = open(&dir).expect("open");
            registry
                .attach(Some("twin".to_owned()), &spec(), None, None)
                .expect("attach");
        }
        let path = dir.join(STATE_FILE);
        let mut snapshot: RegistrySnapshot =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("read")).expect("parse");
        let twin = snapshot.tenants[0].clone();
        snapshot.tenants.push(twin);
        std::fs::write(&path, serde_json::to_string(&snapshot).expect("encode")).expect("write");

        let err = match open(&dir) {
            Ok(_) => panic!("duplicate ids must fail startup"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("duplicate tenant id 1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Arrays and objects open at the deepest point of `v`.
    fn nesting(v: &serde::Value) -> usize {
        match v {
            serde::Value::Array(items) => 1 + items.iter().map(nesting).max().unwrap_or(0),
            serde::Value::Object(entries) => {
                1 + entries.iter().map(|(_, v)| nesting(v)).max().unwrap_or(0)
            }
            _ => 0,
        }
    }

    #[test]
    fn the_deepest_preset_frame_is_far_below_the_parser_recursion_limit() {
        // Inline problems nest deepest (a workload's plans are `Rel` join
        // trees), so every preset family goes inline: in the attach frame,
        // in the snapshot that persists it, and in the Provisioned answer.
        use crate::protocol::{DbSpec, PoolSpec, Request, RequestFrame, Response, ResponseFrame};
        let dir = temp_state_dir("depth");
        let registry = open(&dir).expect("open");
        let mut deepest = 0;
        for preset in [
            "tpch:1:original",
            "tpch:1:modified",
            "tpch-subset:1",
            "tpcc:2",
            "ycsb:1000:E",
        ] {
            let (schema, workload) = dot_core::advisor::presets::database(preset).expect("preset");
            let problem = ProblemSpec {
                pool: PoolSpec::Custom(dot_storage::catalog::box2()),
                database: DbSpec::Custom { schema, workload },
                sla: 0.5,
                engine: None,
                refinements: None,
            };
            let recommendation = registry.provision(&problem, None).expect("provision");
            let attach = RequestFrame {
                id: 1,
                request: Request::AttachTenant {
                    name: None,
                    problem: problem.clone(),
                    deployed: Some(recommendation.layout.clone()),
                    controller: Some(ControllerConfig::default()),
                },
            };
            registry
                .attach(None, &problem, Some(recommendation.layout.clone()), None)
                .expect("attach");
            let answer = ResponseFrame {
                id: 1,
                response: Response::Provisioned {
                    recommendation: Box::new(recommendation),
                },
            };
            deepest = deepest
                .max(nesting(&serde::Serialize::to_value(&attach)))
                .max(nesting(&serde::Serialize::to_value(&answer)));
        }
        let snapshot: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join(STATE_FILE)).expect("read"))
                .expect("snapshot parses");
        deepest = deepest.max(nesting(&snapshot));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(deepest >= 8, "inline join trees nest ({deepest} levels)");
        assert!(
            deepest * 4 <= serde_json::RECURSION_LIMIT,
            "the deepest preset frame nests {deepest} levels, too close to the \
             parser's limit of {}",
            serde_json::RECURSION_LIMIT
        );
    }
}

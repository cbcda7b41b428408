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
//!   keeps a *manifest* and a *journal* there. The manifest
//!   ([`STATE_FILE`], `registry.json`) is one [`RegistrySnapshot`] of
//!   every tenant. The journal ([`JOURNAL_FILE`], `registry.log`) is an
//!   append-only log of [`TenantSnapshot`] records, one per line:
//!   `{"sum":"<16 hex digits>","tenant":<TenantSnapshot>}`, where `sum`
//!   is the lowercase FNV-1a 64-bit hash of the snapshot's exact bytes.
//!   An applied migration appends one record for just its tenant, so its
//!   cost does not grow with the tenant count. Attach, detach, graceful
//!   shutdown, dropping the registry, and a journal grown past
//!   `COMPACT_RATIO` times the manifest all *compact*: the manifest is
//!   rewritten atomically (tmp file, fsync, rename, directory fsync) and
//!   the journal truncated. All disk I/O belongs to one dedicated writer
//!   thread (the private `Persister`): callers enqueue a manifest or a
//!   record built under the persister's lock — so a later enqueue can
//!   never carry an older view — and the writer commits them serially,
//!   appending every pending record with one write and one `fdatasync`
//!   (group commit), so a migrating tenant is never blocked on the disk.
//!   [`Registry::open`] reads the manifest, then replays the journal: a
//!   record replaces its tenant's entry only when that tenant is in the
//!   manifest and the record's checkpoint tick is strictly newer (so a
//!   crash between a compaction's rename and its truncation never rolls a
//!   tenant back); the bytes after the last newline are a torn write and
//!   are ignored; a complete line that fails its checksum is a typed
//!   startup error. Clients therefore reconnect and resume by tenant id
//!   after a restart — even a `kill -9`, which at worst loses the quiet
//!   ticks since the last applied plan. A [`TenantSnapshot`] holds the
//!   problem spec, the controller config, and the controller's
//!   [`ControllerCheckpoint`] — a resumed session continues the event log
//!   bit-identically. A durability point whose write fails is reported to
//!   the caller that waited on it (a [`Durability`] error), never
//!   acknowledged as on disk.
//! - **Backpressure** — each tenant carries a bounded in-flight observe
//!   budget; overflow is a typed [`ProtocolError::Busy`] reject instead
//!   of an unbounded queue on the slot mutex.
//! - **Panic containment** — each tick runs under `catch_unwind`; a
//!   panicking tick marks only that tenant faulted (every further observe
//!   answers [`ProtocolError::Faulted`]) and poisoned locks are recovered
//!   instead of `.unwrap()`-crashing the daemon, so one tenant's bug
//!   never disturbs another tenant or the process.

use crate::protocol::{
    ProblemSpec, ProtocolError, ResolvedProblem, ScheduleSummary, TenantId, TenantSummary,
};
use dot_core::advisor::{Advisor, ProvisionError, Recommendation};
use dot_core::controller::{CacheStats, CachedEstimator};
use dot_core::controller::{
    ControlEvent, Controller, ControllerCheckpoint, ControllerConfig, ControllerStats, TraceStep,
    TriggerReason,
};
use dot_dbms::Layout;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Instant;

/// Version stamp of the on-disk [`RegistrySnapshot`]; a mismatch is a
/// typed startup error, never a silent misparse.
pub const SNAPSHOT_VERSION: u32 = 1;

/// The manifest's file name inside the state directory.
pub const STATE_FILE: &str = "registry.json";

/// The journal's file name inside the state directory.
pub const JOURNAL_FILE: &str = "registry.log";

/// A journal that would grow past this multiple of the manifest's size is
/// compacted instead, which bounds restore work at this multiple plus one
/// manifest parse while keeping the amortized bytes per applied migration
/// flat in the tenant count (one record, plus a manifest rewrite every
/// `COMPACT_RATIO` manifests' worth of records).
const COMPACT_RATIO: u64 = 4;

/// Every journal line starts with these bytes, then the checksum's 16
/// lowercase hex digits, then [`RECORD_MID`], the snapshot, and `}`.
const RECORD_HEAD: &[u8] = b"{\"sum\":\"";
const RECORD_MID: &[u8] = b"\",\"tenant\":";
const SUM_DIGITS: usize = 16;

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

/// Single-writer persistence of the manifest and the journal.
///
/// Why a writer thread instead of writing at the call site: durability
/// points fire concurrently from every worker thread (attach, detach,
/// each applied migration, shutdown), and ad-hoc writes would race the
/// temp file and the journal's tail — interleaved bytes, a rename losing
/// to a truncation, or a stale view published over a newer one. Here the
/// *manifest or record build* runs under the queue lock, so enqueue order
/// is registry-state order (a later ticket can never carry an older
/// view), and the *disk write* belongs to exactly one thread, so writes
/// are serial and in ticket order. The queue holds only the freshest
/// pending manifest and the freshest pending record per tenant: a burst
/// of durability points coalesces into one commit.
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
    queue: Mutex<PersistQueue>,
    /// Signaled when work is pending or `stop` latches.
    work: Condvar,
    /// Signaled when `written` advances (sync barriers wait on it).
    done: Condvar,
    /// Bytes the writer has put on disk (manifests and journal records).
    bytes_written: AtomicU64,
}

#[derive(Default)]
struct PersistQueue {
    /// The freshest whole-registry manifest not yet picked up by the
    /// writer: it is compacted into `registry.json`.
    manifest: Option<Manifest>,
    /// The freshest record per tenant enqueued after `manifest` (or since
    /// the last pickup): they are appended to the journal.
    records: Vec<Arc<TenantSnapshot>>,
    /// Tickets issued (monotone enqueue counter).
    enqueued: u64,
    /// The highest ticket whose write attempt completed. Failed writes
    /// advance it too: a barrier must not hang on a full disk.
    written: u64,
    /// The highest ticket whose write succeeded. Manifests and records are
    /// built from the registry state at their ticket, so every ticket up
    /// to this one is on disk.
    durable: u64,
    /// Why the most recent failed write failed.
    failure: Option<String>,
    stop: bool,
}

impl Persister {
    fn start(journal: Journal) -> Persister {
        let shared = Arc::new(PersisterShared {
            queue: Mutex::new(PersistQueue::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            bytes_written: AtomicU64::new(0),
        });
        let writer = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || shared.write_loop(journal))
        };
        Persister {
            shared,
            writer: Some(writer),
        }
    }

    /// Issue a ticket for work `add` put in the queue (under its lock —
    /// that is what makes tickets monotone in registry state).
    fn enqueue(&self, add: impl FnOnce(&mut PersistQueue)) -> u64 {
        let mut queue = lock_recover(&self.shared.queue);
        add(&mut queue);
        queue.enqueued += 1;
        self.shared.work.notify_one();
        queue.enqueued
    }

    /// Enqueue the manifest `build` returns. It supersedes every pending
    /// record: it was built later, from state at least as new.
    fn enqueue_manifest(&self, build: impl FnOnce() -> Manifest) -> u64 {
        self.enqueue(|queue| {
            queue.records.clear();
            queue.manifest = Some(build());
        })
    }

    /// Enqueue the tenant record `build` returns, replacing any pending
    /// record of the same tenant.
    fn enqueue_record(&self, build: impl FnOnce() -> Arc<TenantSnapshot>) -> u64 {
        self.enqueue(|queue| {
            let record = build();
            match queue.records.iter_mut().find(|r| r.tenant == record.tenant) {
                Some(pending) => *pending = record,
                None => queue.records.push(record),
            }
        })
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
    /// Stop the writer, draining any pending work and then compacting a
    /// non-empty journal — dropping the registry never discards an
    /// enqueued durability point, and leaves the state in the manifest.
    fn drop(&mut self) {
        lock_recover(&self.shared.queue).stop = true;
        self.shared.work.notify_all();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

impl PersisterShared {
    fn write_loop(&self, mut journal: Journal) {
        loop {
            let picked = {
                let mut queue = lock_recover(&self.queue);
                loop {
                    if queue.manifest.is_some() || !queue.records.is_empty() {
                        let records = std::mem::take(&mut queue.records);
                        break Some((queue.manifest.take(), records, queue.enqueued));
                    }
                    if queue.stop {
                        break None;
                    }
                    queue = wait_recover(&self.work, queue);
                }
            };
            let Some((manifest, records, ticket)) = picked else {
                // Everything enqueued is written: leave the state in the
                // manifest alone.
                if journal.log_bytes > 0 {
                    self.commit(|| journal.compact());
                }
                return;
            };
            let failure = self.commit(|| journal.commit(manifest, &records));
            let mut queue = lock_recover(&self.queue);
            queue.written = queue.written.max(ticket);
            match failure {
                None => queue.durable = queue.durable.max(ticket),
                Some(reason) => queue.failure = Some(reason),
            }
            self.done.notify_all();
        }
    }

    /// Run one disk write, counting its bytes. Persistence failures must
    /// not fail the request that asked for them (the in-memory registry
    /// stays authoritative), and nothing — not even a panicking
    /// filesystem — may kill the writer while barriers wait on it: the
    /// failure is returned for the barriers, and the writer carries on.
    fn commit(&self, write: impl FnOnce() -> io::Result<u64>) -> Option<String> {
        let failure = match catch_unwind(AssertUnwindSafe(write)) {
            Ok(Ok(bytes)) => {
                self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
                return None;
            }
            Ok(Err(e)) => format!("failed to persist registry state: {e}"),
            Err(payload) => format!("registry persistence panicked: {}", panic_reason(payload)),
        };
        eprintln!("dot-serve: {failure}");
        Some(failure)
    }
}

/// The manifest as the writer holds it: [`RegistrySnapshot`]'s fields in
/// its order, sharing the tenants' snapshots instead of copying them, so
/// it encodes to the same bytes.
#[derive(Default, Serialize)]
struct Manifest {
    version: u32,
    next_id: u64,
    tenants: Vec<Arc<TenantSnapshot>>,
}

/// The writer thread's account of the state directory: the registry that
/// manifest + journal restore to, and where the journal's tail is.
struct Journal {
    dir: PathBuf,
    /// What a restart would restore after every commit so far (failed
    /// commits included: the next compaction writes it).
    registry: Manifest,
    /// The tenants of the manifest on disk. Only their records may be
    /// appended: restore ignores a record whose tenant the manifest lacks.
    in_manifest: Vec<TenantId>,
    manifest_bytes: u64,
    /// The journal, opened on first use.
    log: Option<File>,
    /// Length of the journal's valid prefix (whole, checked records).
    log_bytes: u64,
    /// The file may hold bytes past `log_bytes` (a torn tail, a failed
    /// append, or a journal this process never read): the next append
    /// cuts them off first.
    stale_tail: bool,
    /// Encode buffer for one group commit, reused.
    batch: Vec<u8>,
}

impl Journal {
    /// A journal over `dir` whose on-disk contents were not read: the
    /// first write is a compaction that truncates whatever log is there.
    fn unread(dir: PathBuf) -> Journal {
        Journal {
            dir,
            registry: Manifest::default(),
            in_manifest: Vec::new(),
            manifest_bytes: 0,
            log: None,
            log_bytes: 0,
            stale_tail: true,
            batch: Vec::new(),
        }
    }

    /// Apply one pickup: the manifest (if any) replaces the registry, and
    /// each record its tenant's entry. Appends the records when their
    /// tenants are all in the manifest on disk and the journal stays
    /// within `COMPACT_RATIO` manifests; compacts otherwise. Returns the
    /// bytes written.
    fn commit(
        &mut self,
        manifest: Option<Manifest>,
        records: &[Arc<TenantSnapshot>],
    ) -> io::Result<u64> {
        let mut compact = manifest.is_some();
        if let Some(manifest) = manifest {
            self.registry = manifest;
        }
        self.batch.clear();
        for record in records {
            // A record of a tenant detached since it was enqueued is moot.
            let tenants = &mut self.registry.tenants;
            let Some(entry) = tenants.iter_mut().find(|t| t.tenant == record.tenant) else {
                continue;
            };
            *entry = Arc::clone(record);
            compact |= !self.in_manifest.contains(&record.tenant);
            encode_record(&mut self.batch, record)?;
        }
        let log_bytes = self.log_bytes + self.batch.len() as u64;
        if compact || log_bytes > COMPACT_RATIO * self.manifest_bytes {
            return self.compact();
        }
        if self.batch.is_empty() {
            return Ok(0);
        }
        #[cfg(feature = "test-hooks")]
        if records.iter().any(|r| r.name.contains("__nodisk__")) {
            // Fault-injection hook: a "__nodisk__" tenant's records land
            // on a full disk.
            return Err(io::Error::other("test-hooks: injected write failure"));
        }
        self.append()
    }

    /// Append the encoded batch with one write and one `fdatasync`.
    fn append(&mut self) -> io::Result<u64> {
        let file = match &mut self.log {
            Some(file) => file,
            None => self.log.insert(open_journal(&self.dir)?),
        };
        if self.stale_tail {
            file.set_len(self.log_bytes)?;
        }
        // Until the append is synced, the tail past `log_bytes` is unknown.
        self.stale_tail = true;
        file.seek(SeekFrom::Start(self.log_bytes))?;
        file.write_all(&self.batch)?;
        file.sync_data()?;
        self.stale_tail = false;
        self.log_bytes += self.batch.len() as u64;
        Ok(self.batch.len() as u64)
    }

    /// Rewrite the manifest from `registry` — a temp file synced and
    /// renamed into place, so a crash mid-write can never leave a
    /// truncated `registry.json`, and the fsyncs extend that past process
    /// death to power loss (the bytes reach stable storage before the
    /// rename publishes them; the rename reaches the directory before the
    /// write is declared done) — then truncate the journal, whose records
    /// the manifest now holds. Runs only on the writer thread, which is
    /// what makes the shared temp path race-free.
    fn compact(&mut self) -> io::Result<u64> {
        #[cfg(feature = "test-hooks")]
        if self
            .registry
            .tenants
            .iter()
            .any(|t| t.name.contains("__nodisk__"))
        {
            // Fault-injection hook: a registry holding a "__nodisk__"
            // tenant cannot compact, as on a full disk.
            return Err(io::Error::other("test-hooks: injected write failure"));
        }
        let tmp = self.dir.join(format!("{STATE_FILE}.tmp"));
        let mut file = File::create(&tmp)?;
        crate::framing::write_json(&mut file, &self.registry, "")?;
        let bytes = file.stream_position()?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, self.dir.join(STATE_FILE))?;
        #[cfg(unix)]
        File::open(&self.dir)?.sync_all()?;
        self.manifest_bytes = bytes;
        self.in_manifest = self.registry.tenants.iter().map(|t| t.tenant).collect();
        // A crash before the truncation reaches the disk leaves records
        // that restore skips: none is newer than the manifest now is.
        if self.log.is_none() && (self.log_bytes > 0 || self.stale_tail) {
            match OpenOptions::new()
                .write(true)
                .open(self.dir.join(JOURNAL_FILE))
            {
                Ok(file) => self.log = Some(file),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        if let Some(file) = &self.log {
            file.set_len(0)?;
        }
        self.log_bytes = 0;
        self.stale_tail = false;
        Ok(bytes)
    }
}

/// Open the journal for writing, creating it (and syncing the directory
/// entry, so appended records cannot vanish with it) when it is absent.
fn open_journal(dir: &Path) -> io::Result<File> {
    let path = dir.join(JOURNAL_FILE);
    match OpenOptions::new().write(true).create_new(true).open(&path) {
        Ok(file) => {
            #[cfg(unix)]
            File::open(dir)?.sync_all()?;
            Ok(file)
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
            OpenOptions::new().write(true).open(&path)
        }
        Err(e) => Err(e),
    }
}

/// FNV-1a, 64-bit: any change confined to one byte changes the hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Append one journal line for `record` to `out`: the snapshot is encoded
/// in place, then its checksum is written into the head.
fn encode_record(out: &mut Vec<u8>, record: &TenantSnapshot) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(RECORD_HEAD);
    out.extend_from_slice(&[b'0'; SUM_DIGITS]);
    out.extend_from_slice(RECORD_MID);
    let payload = out.len();
    crate::framing::write_json(out, record, "}\n")?;
    let sum = format!("{:016x}", fnv1a(&out[payload..out.len() - 2]));
    let digits = start + RECORD_HEAD.len();
    out[digits..digits + SUM_DIGITS].copy_from_slice(sum.as_bytes());
    Ok(())
}

/// Check and decode one journal line (without its newline).
fn decode_record(line: &[u8]) -> Result<TenantSnapshot, String> {
    let body = line
        .strip_prefix(RECORD_HEAD)
        .and_then(|rest| rest.strip_suffix(b"}"))
        .filter(|body| body.len() > SUM_DIGITS)
        .ok_or("not a journal record")?;
    let (sum, rest) = body.split_at(SUM_DIGITS);
    let payload = rest
        .strip_prefix(RECORD_MID)
        .ok_or("not a journal record")?;
    if format!("{:016x}", fnv1a(payload)).as_bytes() != sum {
        return Err("checksum mismatch".to_owned());
    }
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| format!("unreadable tenant snapshot: {e}"))
}

/// What a state directory holds, read and checked: the registry a restart
/// restores (manifest + journal), and where the journal's valid prefix
/// ends.
struct StoredState {
    /// `None` without a manifest.
    snapshot: Option<RegistrySnapshot>,
    manifest_bytes: u64,
    log_bytes: u64,
    /// The journal has bytes past its valid prefix (a torn last write).
    torn: bool,
}

/// Read the manifest and replay the journal over it. A missing or empty
/// journal costs one failed open and no parse.
fn read_state(dir: &Path) -> io::Result<StoredState> {
    let invalid = |path: &Path, reason: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {reason}", path.display()),
        )
    };
    let manifest_path = dir.join(STATE_FILE);
    let (mut snapshot, manifest_bytes) = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => (
            Some(parse_manifest(&text).map_err(|reason| invalid(&manifest_path, reason))?),
            text.len() as u64,
        ),
        Err(e) if e.kind() == io::ErrorKind::NotFound => (None, 0),
        Err(e) => return Err(e),
    };
    let log_path = dir.join(JOURNAL_FILE);
    let log = match std::fs::read(&log_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut tenants = snapshot.as_mut().map(|s| &mut s.tenants);
    let mut offset = 0;
    // Only whole lines count: the bytes after the last newline are a
    // write the crash cut short, so they are ignored.
    while let Some(len) = log[offset..].iter().position(|&b| b == b'\n') {
        let record = decode_record(&log[offset..offset + len])
            .map_err(|reason| invalid(&log_path, format!("record at byte {offset}: {reason}")))?;
        if let Some(entry) = tenants
            .as_deref_mut()
            .and_then(|tenants| tenants.iter_mut().find(|t| t.tenant == record.tenant))
        {
            if record.checkpoint.tick > entry.checkpoint.tick {
                *entry = record;
            }
        }
        offset += len + 1;
    }
    Ok(StoredState {
        snapshot,
        manifest_bytes,
        log_bytes: offset as u64,
        torn: offset < log.len(),
    })
}

/// Parse and check a manifest: the version, and unique tenant ids.
fn parse_manifest(text: &str) -> Result<RegistrySnapshot, String> {
    let snapshot: RegistrySnapshot =
        serde_json::from_str(text).map_err(|e| format!("malformed snapshot: {e}"))?;
    if snapshot.version != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot version {} unsupported (this daemon writes {SNAPSHOT_VERSION})",
            snapshot.version
        ));
    }
    // The daemon never writes colliding ids, so a duplicate means a
    // hand-edited or corrupted snapshot: fail loud at startup (like a
    // version mismatch) instead of letting `slot()` silently serve
    // whichever twin attached first.
    for (i, snap) in snapshot.tenants.iter().enumerate() {
        if snapshot.tenants[..i]
            .iter()
            .any(|t| t.tenant == snap.tenant)
        {
            return Err(format!("duplicate tenant id {} in snapshot", snap.tenant));
        }
    }
    Ok(snapshot)
}

/// The registry a restart in `dir` would restore: the manifest with the
/// journal replayed over it, or `None` when there is no manifest. Errors
/// as [`Registry::open`] does, without building any tenant session.
pub fn load_state(dir: &Path) -> io::Result<Option<RegistrySnapshot>> {
    read_state(dir).map(|stored| stored.snapshot)
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
    /// Directory for the registry's manifest and journal; `None` disables
    /// persistence.
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
    /// every applied migration, and at graceful shutdown. Persistence
    /// reads only this (never the live state), so it does not wait on
    /// in-flight ticks; the persister shares it instead of copying it.
    durable: Mutex<Arc<TenantSnapshot>>,
}

impl TenantSlot {
    /// The slot of a tenant opened at its durable snapshot: the snapshot
    /// names it, seeds its controller's counters (zero for a fresh
    /// attach), and carries the wall clock of its earlier incarnations.
    fn new(controller: Controller, durable: Arc<TenantSnapshot>) -> TenantSlot {
        let controller = controller.with_stats(ControllerStats {
            triggers: durable.triggers,
            applications: durable.applications,
            last_trigger: durable.last_trigger.clone(),
            ..ControllerStats::default()
        });
        TenantSlot {
            id: durable.tenant,
            name: durable.name.clone(),
            state: Mutex::new(TenantState {
                controller,
                attached: Instant::now(),
                prior_elapsed_ms: durable.elapsed_ms,
            }),
            inflight: AtomicUsize::new(0),
            fault: Mutex::new(None),
            durable: Mutex::new(durable),
        }
    }
}

/// The parts of a tenant that change as it ticks: the controller, whose
/// [`stats`](Controller::stats) are the tenant's counters (a restored
/// tenant's are seeded from its snapshot, with no schedule digest until
/// its next replan), and its wall clock.
struct TenantState {
    controller: Controller,
    attached: Instant,
    /// Wall-clock milliseconds accumulated by earlier incarnations of a
    /// restored tenant (summaries report lifetime, not since-restart).
    prior_elapsed_ms: u64,
}

impl TenantState {
    /// Wall-clock milliseconds over the tenant's lifetime.
    fn elapsed_ms(&self) -> u64 {
        self.prior_elapsed_ms + self.attached.elapsed().as_millis() as u64
    }
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

/// The whole registry on disk: the manifest, one JSON document written
/// atomically — and, with the journal replayed over it, what a restart
/// restores ([`load_state`]).
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
    /// The manifest and journal writer; `None` without a `state_dir`.
    persister: Option<Persister>,
}

impl Registry {
    /// An empty registry. Persistence still applies if the config names a
    /// `state_dir`, but nothing is restored — use [`open`](Registry::open)
    /// for the restore-on-startup path.
    pub fn new(config: RegistryConfig) -> Registry {
        let journal = config.state_dir.clone().map(Journal::unread);
        let mut registry = Registry::unpersisted(config);
        registry.persister = journal.map(Persister::start);
        registry
    }

    fn unpersisted(config: RegistryConfig) -> Registry {
        Registry {
            cache: Arc::new(CachedEstimator::new()),
            tenants: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            persister: None,
            config,
        }
    }

    /// Open a registry: create the state directory if configured, and
    /// restore the manifest and journal found there (if any) so tenants
    /// survive a daemon restart. State that cannot be restored — an
    /// unreadable manifest, a wrong version, a journal line that fails its
    /// checksum before the last, or a problem that no longer resolves — is
    /// a typed startup error, never a silently-empty registry. Opening
    /// writes nothing.
    pub fn open(config: RegistryConfig) -> io::Result<Registry> {
        let Some(dir) = config.state_dir.clone() else {
            return Ok(Registry::new(config));
        };
        std::fs::create_dir_all(&dir)?;
        let stored = read_state(&dir)?;
        let mut registry = Registry::unpersisted(config);
        let tenants = match stored.snapshot {
            Some(snapshot) => registry.restore(snapshot).map_err(|reason| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {reason}", dir.join(STATE_FILE).display()),
                )
            })?,
            None => Vec::new(),
        };
        let journal = Journal {
            in_manifest: tenants.iter().map(|t| t.tenant).collect(),
            registry: Manifest {
                version: SNAPSHOT_VERSION,
                next_id: registry.next_id.load(Ordering::SeqCst),
                tenants,
            },
            manifest_bytes: stored.manifest_bytes,
            log_bytes: stored.log_bytes,
            stale_tail: stored.torn,
            ..Journal::unread(dir)
        };
        registry.persister = Some(Persister::start(journal));
        Ok(registry)
    }

    /// Rebuild the tenant map from a restored [`RegistrySnapshot`],
    /// answering the tenants' snapshots for the persister to share.
    fn restore(&self, snapshot: RegistrySnapshot) -> Result<Vec<Arc<TenantSnapshot>>, String> {
        let mut max_id = 0;
        let mut tenants = Vec::with_capacity(snapshot.tenants.len());
        let mut durable = Vec::with_capacity(snapshot.tenants.len());
        for snap in snapshot.tenants {
            max_id = max_id.max(snap.tenant);
            let snap = Arc::new(snap);
            let slot = self
                .restore_slot(&snap)
                .map_err(|(name, e)| format!("tenant {name:?}: {e}"))?;
            tenants.push(Arc::new(slot));
            durable.push(snap);
        }
        // Ids stay unique even against a snapshot whose counter lagged.
        self.next_id
            .store(snapshot.next_id.max(max_id + 1), Ordering::SeqCst);
        *lock_recover(&self.tenants) = tenants;
        Ok(durable)
    }

    /// Reopen one tenant's session from its snapshot: re-resolve the
    /// problem, rebuild the controller, and resume its checkpoint. No
    /// solving happens here — the deployed layout comes from the
    /// checkpoint, so restore latency is parsing plus construction.
    fn restore_slot(
        &self,
        snap: &Arc<TenantSnapshot>,
    ) -> Result<TenantSlot, (String, ProvisionError)> {
        let fail = |e| (snap.name.clone(), e);
        let resolved = snap.problem.resolve().map_err(fail)?;
        let controller = self
            .open_controller(
                resolved,
                snap.checkpoint.deployed.clone(),
                snap.controller.clone(),
            )
            .and_then(|c| c.with_checkpoint(&snap.checkpoint))
            .map_err(fail)?;
        Ok(TenantSlot::new(controller, Arc::clone(snap)))
    }

    /// Open a tenant's controller over its resolved problem, counting its
    /// replan reuse in the registry's shared counters.
    fn open_controller(
        &self,
        resolved: ResolvedProblem,
        deployed: Layout,
        config: ControllerConfig,
    ) -> Result<Controller, ProvisionError> {
        let controller = Controller::from_parts(
            resolved.schema,
            resolved.pool,
            resolved.workload,
            deployed,
            resolved.sla,
            config,
        )?
        .with_toc_cache(Arc::clone(&self.cache))
        .with_refinements(resolved.refinements);
        Ok(match resolved.engine {
            Some(engine) => controller.with_engine(engine),
            None => controller,
        })
    }

    /// Hand the current tenant map to the persister as a manifest (no-op
    /// without one). Reads only the durable per-tenant snapshots, so it
    /// never waits on an in-flight tick, and the disk write happens on the
    /// writer thread — the returned ticket is what [`persist_sync`] waits
    /// on.
    fn persist(&self) -> u64 {
        match &self.persister {
            Some(p) => p.enqueue_manifest(|| {
                let slots: Vec<Arc<TenantSlot>> = lock_recover(&self.tenants).clone();
                self.manifest(&slots)
            }),
            None => 0,
        }
    }

    /// Hand one tenant's durable snapshot to the persister as a journal
    /// record (no-op without one); returns the ticket to sync on.
    fn persist_tenant(&self, slot: &TenantSlot) -> u64 {
        match &self.persister {
            Some(p) => p.enqueue_record(|| Arc::clone(&lock_recover(&slot.durable))),
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
        let ticket = p.enqueue_manifest(|| self.manifest(slots));
        p.sync(ticket)
    }

    fn manifest(&self, slots: &[Arc<TenantSlot>]) -> Manifest {
        Manifest {
            version: SNAPSHOT_VERSION,
            next_id: self.next_id.load(Ordering::SeqCst),
            tenants: slots
                .iter()
                .map(|s| Arc::clone(&lock_recover(&s.durable)))
                .collect(),
        }
    }

    /// Bytes the registry has written to its state directory so far:
    /// manifest rewrites and journal appends (0 without persistence).
    pub fn bytes_persisted(&self) -> u64 {
        self.persister
            .as_ref()
            .map_or(0, |p| p.shared.bytes_written.load(Ordering::Relaxed))
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
        advisor(&resolved)
            .and_then(|advisor| advisor.recommend(solver.unwrap_or("dot")))
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
                advisor(&resolved)
                    .and_then(|advisor| advisor.recommend(&config.solver))
                    .map_err(provision)?
                    .layout
            }
        };
        let controller = self
            .open_controller(resolved, deployed, config.clone())
            .map_err(provision)?;
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
            tenants.push(Arc::new(TenantSlot::new(controller, Arc::new(durable))));
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
        // Deriving the step (its phase's first use opens a session) and
        // every tick are contained: a panic faults this tenant only.
        let ticks = contained(&slot, || state.controller.begin_step(step))??;
        let mut durability = None;
        for _ in 0..ticks {
            #[cfg(feature = "test-hooks")]
            if slot.name.contains("__slow__") {
                // Fault-injection hook: make each tick slow enough that a
                // concurrent client can observe the in-flight budget.
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            let state = &mut *state;
            let applied_before = state.controller.stats().applications;
            let failed = contained(&slot, || {
                #[cfg(feature = "test-hooks")]
                if slot.name.contains("__panic__") {
                    panic!("test-hooks: injected tick panic");
                }
                state.controller.tick_step()
            })?
            .err();
            // Even a failed tick logged its observation (and possibly the
            // trigger) before erroring — stream those, then the error.
            for event in state.controller.drain_events() {
                sink(&event).map_err(ObserveFailure::Io)?;
            }
            if state.controller.stats().applications != applied_before {
                // A migration landed: this tick is a durability point.
                // Refresh the snapshot and enqueue its journal record right
                // away — the
                // writer thread races the rest of the step, so even a
                // `kill -9` before the step ends usually resumes from the
                // migrated layout — at worst the ticks after it are
                // re-fed. Only memory work happens here; the tenant never
                // waits on the disk under its own lock.
                refresh_durable(&slot, state);
                durability = Some(self.persist_tenant(&slot));
            }
            if let Some(e) = failed {
                return Err(e.into());
            }
        }
        let stats = state.controller.stats();
        let mut counters = TenantCounters {
            ticks: state.controller.ticks(),
            triggers: stats.triggers,
            applications: stats.applications,
            last_schedule: stats.last_schedule,
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
            let stats = state.controller.stats();
            totals.ticks += state.controller.ticks();
            totals.triggers += stats.triggers;
            totals.applications += stats.applications;
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

/// Run a tenant's controller work under `catch_unwind`. A panic is
/// contained before it can poison the state mutex, but the controller may
/// have died mid-update: latch the fault so this tenant is never ticked
/// again, and answer with the typed frame.
fn contained<T>(slot: &TenantSlot, work: impl FnOnce() -> T) -> Result<T, ObserveFailure> {
    catch_unwind(AssertUnwindSafe(work)).map_err(|payload| {
        let reason = panic_reason(payload);
        *lock_recover(&slot.fault) = Some(reason.clone());
        ObserveFailure::Protocol(ProtocolError::Faulted {
            tenant: slot.id,
            reason,
        })
    })
}

/// Refresh a tenant's durable snapshot from its live state (caller holds
/// the state lock, which is what makes the copy consistent).
fn refresh_durable(slot: &TenantSlot, state: &TenantState) {
    let mut shared = lock_recover(&slot.durable);
    let durable = Arc::make_mut(&mut shared);
    let stats = state.controller.stats();
    durable.checkpoint = state.controller.checkpoint();
    durable.triggers = stats.triggers;
    durable.applications = stats.applications;
    durable.last_trigger = stats.last_trigger.clone();
    durable.elapsed_ms = state.elapsed_ms();
}

fn provision(error: ProvisionError) -> ProtocolError {
    ProtocolError::Provision { error }
}

/// The advisory session over a tenant's resolved baseline problem.
fn advisor(resolved: &ResolvedProblem) -> Result<Advisor<'_>, ProvisionError> {
    let builder = Advisor::builder(&resolved.schema, &resolved.pool, &resolved.workload)
        .sla(resolved.sla)
        .refinements(resolved.refinements);
    match resolved.engine {
        Some(engine) => builder.engine(engine),
        None => builder,
    }
    .build()
}

/// A tenant's lifetime summary, read from its controller's counters — the
/// same counters and provenance schema
/// [`supervise_tenant`](dot_core::fleet::supervise_tenant) stamps on a
/// [`SuperviseOutcome`](dot_core::fleet::SuperviseOutcome).
fn summarize(slot: &TenantSlot) -> TenantSummary {
    let state = lock_recover(&slot.state);
    summarize_locked(slot, &state)
}

fn summarize_locked(slot: &TenantSlot, state: &TenantState) -> TenantSummary {
    let stats = state.controller.stats();
    TenantSummary {
        tenant: slot.id,
        name: slot.name.clone(),
        ticks: state.controller.ticks(),
        triggers: stats.triggers,
        applications: stats.applications,
        provenance: stats.provenance(state.elapsed_ms()),
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

    #[test]
    fn the_journal_never_outgrows_its_compaction_ratio() {
        let dir = temp_state_dir("ratio");
        let registry = open(&dir).expect("open");
        let config = ControllerConfig {
            cooldown_ticks: 2,
            ..ControllerConfig::default()
        };
        let (tenant, _) = registry
            .attach(None, &spec(), None, Some(config))
            .expect("attach");
        let size = |file: &str| std::fs::metadata(dir.join(file)).map_or(0, |m| m.len());
        let flips = [
            step("{\"phase\": \"analytical\", \"repeat\": 3}"),
            step("{\"baseline\": true, \"repeat\": 3}"),
        ];
        let mut compactions = 0;
        let mut last_log = 0;
        for round in 0..16 {
            let counters = registry
                .observe(tenant, &flips[round % 2], &mut |_| Ok(()))
                .expect("observe");
            assert_eq!(counters.applications, round + 1, "each flip migrates");
            counters.durability.expect("durable");
            let log = size(JOURNAL_FILE);
            assert!(
                log <= COMPACT_RATIO * size(STATE_FILE),
                "a {log}-byte journal beside a {}-byte manifest",
                size(STATE_FILE)
            );
            if log < last_log {
                compactions += 1;
            }
            last_log = log;
        }
        assert!(
            compactions >= 2,
            "{compactions} compactions in 16 migrations"
        );
        drop(registry);
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

//! The registry journal's restore contract: the manifest (`registry.json`)
//! plus the journal of per-tenant records (`registry.log`) restore exactly
//! what a compacted manifest holds; a torn last record is ignored, never an
//! error; a corrupt record before the last is a typed startup error; and
//! opening a state directory writes nothing.

use dot_core::controller::{ControlEvent, ControllerConfig, TraceStep};
use dot_serve::protocol::{ProblemSpec, TenantId};
use dot_serve::registry::{load_state, RegistryConfig, RegistrySnapshot, JOURNAL_FILE, STATE_FILE};
use dot_serve::Registry;
use std::io;
use std::path::{Path, PathBuf};

fn spec() -> ProblemSpec {
    serde_json::from_str("{\"pool\": \"box2\", \"database\": \"tpcc:2\", \"sla\": 0.5}")
        .expect("problem spec")
}

/// The scenario simulator's knobs (cool-down short enough for the flip
/// trajectory's second migration).
fn config() -> ControllerConfig {
    ControllerConfig {
        cooldown_ticks: 2,
        ..ControllerConfig::default()
    }
}

fn steps(texts: &[&str]) -> Vec<TraceStep> {
    texts
        .iter()
        .map(|s| serde_json::from_str(s).expect("trace step"))
        .collect()
}

/// Two migrations, at ticks 2 and 5.
fn flip() -> Vec<TraceStep> {
    steps(&[
        "{\"shift\": 0.02}",
        "{\"shift\": -0.03}",
        "{\"phase\": \"analytical\", \"repeat\": 3}",
        "{\"baseline\": true, \"repeat\": 2}",
    ])
}

/// Two days of a read-heavy diurnal cycle.
fn diurnal() -> Vec<TraceStep> {
    dot_core::traces::diurnal(-0.5, 6, 2).expect("valid diurnal spec")
}

/// The phases alternate every tick.
fn oscillation() -> Vec<TraceStep> {
    steps(&[
        "{\"phase\": \"analytical\"}",
        "{\"baseline\": true}",
        "{\"phase\": \"analytical\"}",
        "{\"baseline\": true}",
        "{\"phase\": \"analytical\"}",
        "{\"baseline\": true}",
    ])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dot-serve-journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> io::Result<Registry> {
    Registry::open(RegistryConfig {
        state_dir: Some(dir.to_path_buf()),
        ..RegistryConfig::default()
    })
}

/// Feed `steps` to `tenant`, returning the streamed events.
fn observe(registry: &Registry, tenant: TenantId, steps: &[TraceStep]) -> Vec<ControlEvent> {
    let mut events = Vec::new();
    for step in steps {
        let counters = registry
            .observe(tenant, step, &mut |event| {
                events.push(event.clone());
                Ok(())
            })
            .unwrap_or_else(|_| panic!("tenant {tenant} observes {step:?}"));
        counters.durability.expect("applied plans reach the disk");
    }
    events
}

/// A persisting registry with one tenant per trajectory, each fed its
/// whole trajectory (round-robin, one step per tenant at a time). The
/// registry stays live, so its journal is not compacted yet.
fn run_tenants(dir: &Path, trajectories: &[Vec<TraceStep>]) -> (Registry, Vec<TenantId>) {
    let registry = open(dir).expect("open");
    let layout = registry.provision(&spec(), None).expect("provision").layout;
    let ids: Vec<TenantId> = (0..trajectories.len())
        .map(|i| {
            registry
                .attach(
                    Some(format!("tenant-{i}")),
                    &spec(),
                    Some(layout.clone()),
                    Some(config()),
                )
                .expect("attach")
                .0
        })
        .collect();
    let longest = trajectories.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..longest {
        for (id, steps) in ids.iter().zip(trajectories) {
            if let Some(step) = steps.get(k) {
                observe(&registry, *id, std::slice::from_ref(step));
            }
        }
    }
    (registry, ids)
}

/// The state directory's two files, as a crash would leave them.
struct Files {
    manifest: Vec<u8>,
    log: Vec<u8>,
}

impl Files {
    fn read(dir: &Path) -> Files {
        Files {
            manifest: std::fs::read(dir.join(STATE_FILE)).expect("manifest"),
            log: std::fs::read(dir.join(JOURNAL_FILE)).unwrap_or_default(),
        }
    }

    /// Write the manifest and `log` into a fresh `dir`.
    fn write(&self, dir: &Path, log: &[u8]) {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("state dir");
        std::fs::write(dir.join(STATE_FILE), &self.manifest).expect("manifest");
        std::fs::write(dir.join(JOURNAL_FILE), log).expect("journal");
    }

    /// Byte offsets where each journal record starts.
    fn record_starts(&self) -> Vec<usize> {
        let mut starts = vec![0];
        starts.extend(
            self.log
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        );
        starts.pop(); // the end of the last record
        starts
    }
}

/// The restored registry with the wall-clock field zeroed.
fn comparable(snapshot: Option<RegistrySnapshot>) -> RegistrySnapshot {
    let mut snapshot = snapshot.expect("a manifest");
    for t in &mut snapshot.tenants {
        t.elapsed_ms = 0;
    }
    snapshot
}

fn load(dir: &Path) -> RegistrySnapshot {
    comparable(load_state(dir).expect("state loads"))
}

fn total_ticks(snapshot: &RegistrySnapshot) -> u64 {
    snapshot.tenants.iter().map(|t| t.checkpoint.tick).sum()
}

#[test]
fn manifest_plus_journal_restores_what_the_compacted_manifest_holds() {
    let trajectories = [flip(), diurnal(), oscillation()];
    let live = temp_dir("differential-live");
    let crashed = temp_dir("differential-crashed");
    let (registry, ids) = run_tenants(&live, &trajectories);
    let files = Files::read(&live);
    assert!(
        files.record_starts().len() >= 4,
        "applied ticks are journal records ({} bytes)",
        files.log.len()
    );
    // The crash image: the manifest of the last attach plus the journal.
    files.write(&crashed, &files.log);
    // Dropping the registry compacts: the manifest takes the records in
    // and the journal is emptied.
    drop(registry);
    let compacted_log = std::fs::read(live.join(JOURNAL_FILE)).expect("journal");
    assert!(compacted_log.is_empty(), "compaction truncates the journal");

    let from_journal = load(&crashed);
    let from_manifest = load(&live);
    assert_eq!(from_journal, from_manifest);
    assert!(
        from_manifest.tenants.iter().all(|t| t.applications > 0),
        "every tenant migrated"
    );

    // Both restore to sessions that continue identically.
    let continuation = [flip(), diurnal(), oscillation()];
    let mut logs = Vec::new();
    for dir in [&crashed, &live] {
        let registry = open(dir).expect("restore");
        let events: Vec<Vec<ControlEvent>> = ids
            .iter()
            .zip(&continuation)
            .map(|(id, steps)| observe(&registry, *id, steps))
            .collect();
        logs.push(events);
    }
    assert_eq!(logs[0], logs[1]);
    assert!(logs[0].iter().all(|events| !events.is_empty()));
    let _ = std::fs::remove_dir_all(&live);
    let _ = std::fs::remove_dir_all(&crashed);
}

#[test]
fn a_torn_last_record_restores_the_state_before_it_at_every_byte_offset() {
    let live = temp_dir("torn-live");
    let (registry, ids) = run_tenants(&live, &[flip(), flip()]);
    let files = Files::read(&live);
    drop(registry);
    let starts = files.record_starts();
    let last = *starts.last().expect("a record");
    assert!(starts.len() >= 2, "{} records", starts.len());

    let dir = temp_dir("torn");
    files.write(&dir, &files.log[..last]);
    let before = load(&dir);
    files.write(&dir, &files.log);
    let after = load(&dir);
    assert_ne!(before, after, "the last record changes the restored state");

    // Every cut inside the last record, its newline included, is a torn
    // write: restore ignores it.
    for cut in last..files.log.len() {
        files.write(&dir, &files.log[..cut]);
        assert_eq!(load(&dir), before, "journal cut at byte {cut}");
    }

    // The full restore path agrees, and the next append cuts the torn
    // tail off before writing: the journal stays readable.
    let cut = last + (files.log.len() - last) / 2;
    files.write(&dir, &files.log[..cut]);
    let registry = open(&dir).expect("a torn tail is not an error");
    let (tenants, counters, _) = registry.stats();
    assert_eq!(tenants, 2);
    assert_eq!(counters.ticks, total_ticks(&before));
    let tenant = before
        .tenants
        .iter()
        .min_by_key(|t| t.checkpoint.tick)
        .expect("a tenant");
    assert!(ids.contains(&tenant.tenant));
    // Re-feed what the torn record had covered, and migrate again.
    observe(
        &registry,
        tenant.tenant,
        &steps(&[
            "{\"baseline\": true, \"repeat\": 2}",
            "{\"phase\": \"analytical\", \"repeat\": 3}",
        ]),
    );
    let appended = Files::read(&dir);
    assert!(appended.log.len() > cut, "the migration appended a record");
    assert_eq!(
        *appended.log.last().expect("journal bytes"),
        b'\n',
        "the journal ends in a whole record"
    );
    let restored = load(&dir);
    assert!(total_ticks(&restored) > total_ticks(&before));
    drop(registry);
    let _ = std::fs::remove_dir_all(&live);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_record_before_the_last_is_a_typed_startup_error() {
    let live = temp_dir("corrupt-live");
    let (registry, _) = run_tenants(&live, &[flip(), flip()]);
    let files = Files::read(&live);
    drop(registry);
    let starts = files.record_starts();
    let last = *starts.last().expect("a record");
    assert!(starts.len() >= 2, "{} records", starts.len());

    let dir = temp_dir("corrupt");
    // Every byte of every record but the last, newlines included, flipped
    // two ways: to a non-ASCII byte, and by its lowest bit (a digit stays a
    // digit and a letter a letter, so the JSON still parses and only the
    // checksum can tell).
    for (at, flip) in (0..last).flat_map(|at| [(at, 0xff), (at, 0x01)]) {
        let mut log = files.log.clone();
        log[at] ^= flip;
        files.write(&dir, &log);
        let err = load_state(&dir).expect_err(&format!("byte {at} flipped by {flip:#x}"));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let reason = err.to_string();
        assert!(
            reason.contains(JOURNAL_FILE) && reason.contains("record at byte"),
            "{reason}"
        );
    }
    // Startup fails the same way.
    let mut log = files.log.clone();
    log[last / 2] ^= 0xff;
    files.write(&dir, &log);
    match open(&dir) {
        Ok(_) => panic!("a corrupt journal must fail startup"),
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
    }
    let _ = std::fs::remove_dir_all(&live);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_between_compaction_and_truncation_never_rolls_a_tenant_back() {
    let live = temp_dir("rollback-live");
    let (registry, ids) = run_tenants(&live, &[flip(), flip()]);
    // Quiet ticks after the last migration: only a compaction (here the
    // graceful shutdown's) persists them.
    for &id in &ids {
        observe(
            &registry,
            id,
            &steps(&["{\"baseline\": true, \"repeat\": 2}"]),
        );
    }
    let journaled = Files::read(&live);
    let (_, durability) = registry.flush_all();
    durability.expect("the shutdown compaction lands");
    let compacted = Files::read(&live);
    drop(registry);
    assert!(
        compacted.log.is_empty(),
        "the compaction truncated the journal"
    );
    let after = load(&live);

    // The crash image: the compaction's manifest renamed into place, the
    // journal it made redundant not yet truncated. Its records are older
    // than the manifest's entries, and replaying them must not win.
    let dir = temp_dir("rollback");
    compacted.write(&dir, &journaled.log);
    assert!(!journaled.log.is_empty());
    assert_eq!(load(&dir), after);
    let journal_only = {
        journaled.write(&dir, &journaled.log);
        load(&dir)
    };
    assert!(
        total_ticks(&after) > total_ticks(&journal_only),
        "the quiet ticks are only in the compacted manifest"
    );
    let _ = std::fs::remove_dir_all(&live);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn opening_state_writes_nothing() {
    let dir = temp_dir("quiet-open");
    let (registry, _) = run_tenants(&dir, &[flip()]);
    drop(registry);
    // A compacted state directory: the manifest and an empty journal.
    std::fs::remove_file(dir.join(JOURNAL_FILE)).expect("journal exists");
    let manifest = std::fs::read(dir.join(STATE_FILE)).expect("manifest");
    let modified = || {
        std::fs::metadata(dir.join(STATE_FILE))
            .and_then(|m| m.modified())
            .expect("mtime")
    };
    let mtime = modified();
    let registry = open(&dir).expect("restore");
    assert_eq!(registry.stats().0, 1);
    drop(registry);
    assert!(
        !dir.join(JOURNAL_FILE).exists(),
        "no journal is created without a record to append"
    );
    assert_eq!(
        std::fs::read(dir.join(STATE_FILE)).expect("manifest"),
        manifest
    );
    assert_eq!(modified(), mtime, "the manifest is not rewritten");
    let _ = std::fs::remove_dir_all(&dir);
}

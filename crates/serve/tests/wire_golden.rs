//! Wire golden: the exact bytes the daemon puts on the wire.
//!
//! Every `Response` variant, every `ProtocolError` kind (every
//! `ProvisionError` inside `Provision`), every `ControlEvent` variant,
//! real `Provisioned` frames, a real registry snapshot, numeric edge cases,
//! hostile strings, and the registry's typed refusals of inline pools that
//! fail validation (a negative price, a duplicate class name, a class id
//! that is not its position) are encoded with [`write_frame`] (compact, one line
//! each) and with `serde_json::to_string_pretty`, and both streams must
//! equal the committed files byte for byte. The committed files were
//! written by the Value-tree encoder the streaming encoder replaced, so a
//! pass means clients see the same bytes as before.
//!
//! To regenerate after an intentional wire change:
//! `UPDATE_GOLDEN=1 cargo test -p dot-serve --test wire_golden`.

use dot_core::advisor::ProvisionError;
use dot_core::controller::{
    CacheStats, ControlEvent, ControlProvenance, ControllerConfig, DeferReason, TraceStep,
    TriggerReason,
};
use dot_core::replan::MigrationDecision;
use dot_serve::framing::write_frame;
use dot_serve::protocol::{
    DbSpec, PoolSpec, ProblemSpec, ProtocolError, Request, RequestFrame, Response, ResponseFrame,
    ScheduleSummary, TenantSummary,
};
use dot_serve::registry::{RegistryConfig, RegistrySnapshot, STATE_FILE};
use dot_serve::Registry;
use dot_storage::{catalog, StoragePool};
use serde::{Serialize, Value};
use std::path::PathBuf;

/// Both encodings of everything pinned, in push order.
#[derive(Default)]
struct Wire {
    compact: Vec<u8>,
    pretty: String,
}

impl Wire {
    fn push<T: Serialize>(&mut self, value: &T) {
        write_frame(&mut self.compact, value).expect("writing to memory cannot fail");
        self.pretty
            .push_str(&serde_json::to_string_pretty(value).expect("pretty encoding"));
        self.pretty.push('\n');
    }

    fn frame(&mut self, id: u64, response: Response) {
        self.push(&ResponseFrame { id, response });
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn spec(pool: &str, database: &str, sla: f64) -> ProblemSpec {
    serde_json::from_str(&format!(
        "{{\"pool\": \"{pool}\", \"database\": \"{database}\", \"sla\": {sla}}}"
    ))
    .expect("problem spec")
}

/// Every control-character, quoting and non-ASCII case the string
/// escaper distinguishes.
fn hostile_strings() -> Vec<String> {
    vec![
        (0u8..0x20).map(char::from).collect(),
        "quote \" backslash \\ slash / apostrophe '".to_owned(),
        "é ü ß — 日本語 😀 \u{7f} \u{80} \u{2028} \u{fffd}".to_owned(),
        String::new(),
        "\\\"\\u0000\"\\".to_owned(),
        "plain ascii run".to_owned(),
    ]
}

fn every_control_event() -> Vec<ControlEvent> {
    let triggers = [
        TriggerReason::Manual,
        TriggerReason::Quiescent,
        TriggerReason::Drift { distance: 0.3125 },
        TriggerReason::Sla { pressure: 1.0e-7 },
        TriggerReason::DriftAndSla {
            distance: f64::NAN,
            pressure: f64::INFINITY,
        },
        TriggerReason::Window { every_ticks: 12 },
    ];
    let decisions = [
        MigrationDecision::Unchanged,
        MigrationDecision::Stay,
        MigrationDecision::Migrate,
        MigrationDecision::Partial { deferred_groups: 3 },
    ];
    let mut events = vec![
        ControlEvent::Observed {
            tick: 0,
            distance: 0.0,
            sla_pressure: -0.0,
            feasible: true,
        },
        ControlEvent::Observed {
            tick: u64::MAX,
            distance: 0.1 + 0.2,
            sla_pressure: f64::NEG_INFINITY,
            feasible: false,
        },
        ControlEvent::Deferred {
            tick: 9,
            reason: DeferReason::CoolingDown {
                last_trigger_tick: 7,
            },
        },
        ControlEvent::Deferred {
            tick: 10,
            reason: DeferReason::Latched,
        },
        ControlEvent::Applied {
            tick: 11,
            objects_moved: 4,
            bytes_moved: 5.0e-324,
        },
    ];
    events.extend(
        triggers
            .into_iter()
            .enumerate()
            .map(|(i, reason)| ControlEvent::Triggered {
                tick: i as u64 + 1,
                reason,
            }),
    );
    events.extend(
        decisions
            .into_iter()
            .enumerate()
            .map(|(i, decision)| ControlEvent::Planned {
                tick: i as u64 + 20,
                decision,
                moves: i,
                total_bytes: 9.0e15,
                total_cents: 1234.5678,
                savings_cents_per_hour: -0.25,
                break_even_hours: f64::INFINITY,
                waves: i + 1,
                makespan_seconds: 2f64.powi(53) + 1.0,
            }),
    );
    events
}

fn every_provision_error() -> Vec<ProvisionError> {
    let known = vec!["dot".to_owned(), "es".to_owned()];
    vec![
        ProvisionError::Infeasible {
            sla: 0.05,
            suggested_sla: Some(0.1),
            layouts_investigated: 17,
        },
        ProvisionError::Infeasible {
            sla: 1.0,
            suggested_sla: None,
            layouts_investigated: 0,
        },
        ProvisionError::CapacityExceeded {
            required_gb: 2048.5,
            available_gb: 1024.0,
        },
        ProvisionError::UnknownSolver {
            name: "simplex".to_owned(),
            known: known.clone(),
        },
        ProvisionError::UnknownPool {
            name: "box9".to_owned(),
            known: vec![],
        },
        ProvisionError::UnknownPreset {
            name: "tpch:x".to_owned(),
            hint: "try \"tpch:1:original\"".to_owned(),
        },
        ProvisionError::UnknownEngine {
            name: "olap".to_owned(),
            known,
        },
        ProvisionError::ClassUnavailable {
            class: "H-SSD".to_owned(),
            pool: "box1".to_owned(),
        },
        ProvisionError::UnsupportedWorkload {
            solver: "es-additive".to_owned(),
            reason: "DSS workload".to_owned(),
        },
        ProvisionError::InvalidRequest {
            reason: "sla 7 out of (0, 1]\n\tat line 1".to_owned(),
        },
    ]
}

fn every_protocol_error() -> Vec<ProtocolError> {
    let mut errors = vec![
        ProtocolError::Malformed {
            reason: hostile_strings()[0].clone(),
        },
        ProtocolError::Oversized {
            limit_bytes: 4 << 20,
        },
        ProtocolError::UnsupportedVersion {
            requested: u32::MAX,
            supported: 1,
        },
        ProtocolError::UnknownTenant { tenant: u64::MAX },
        ProtocolError::ShuttingDown,
        ProtocolError::Busy {
            tenant: 3,
            retry_after_ms: 50,
        },
        ProtocolError::Faulted {
            tenant: 4,
            reason: "tick panicked: \"index out of bounds\"".to_owned(),
        },
    ];
    errors.extend(
        every_provision_error()
            .into_iter()
            .map(|error| ProtocolError::Provision { error }),
    );
    errors
}

fn summary(tenant: u64, name: &str, trigger: TriggerReason) -> TenantSummary {
    TenantSummary {
        tenant,
        name: name.to_owned(),
        ticks: 9_007_199_254_740_993,
        triggers: 2,
        applications: 1,
        provenance: ControlProvenance {
            elapsed_ms: 0,
            trigger,
        },
    }
}

/// The flip trajectory of the persistence suite: noise, an analytical
/// phase that migrates, then back.
fn flip_steps() -> Vec<TraceStep> {
    [
        "{\"shift\": 0.02}",
        "{\"shift\": -0.03}",
        "{\"phase\": \"analytical\", \"repeat\": 3}",
        "{\"phase\": \"baseline\", \"repeat\": 2}",
    ]
    .iter()
    .map(|s| serde_json::from_str(s).expect("trace step"))
    .collect()
}

/// Box 2 decoded with one edit to its JSON that validation rejects: a
/// class priced at −1 cents/GB/h, two classes named "HDD", and a class
/// whose id is 7 at position 0. (An infinite price is refused too, but it
/// encodes as `null`, which decodes to NaN, so its frame cannot be pinned
/// as a line that decodes back to itself.)
fn invalid_pools() -> Vec<StoragePool> {
    let json = serde_json::to_string(&catalog::box2()).expect("pool encodes");
    let edit = |from: &str, to: &str| {
        assert!(json.contains(from), "box2 encodes {from}");
        serde_json::from_str(&json.replacen(from, to, 1)).expect("edited pool decodes")
    };
    let price = "\"price_cents_per_gb_hour\":";
    let at = json.find(price).expect("a priced class") + price.len();
    let end = at + json[at..].find([',', '}']).expect("price ends");
    let negative = format!("{price}{}", &json[at..end]);
    vec![
        edit(&negative, &format!("{price}-1.0")),
        edit("\"name\":\"L-SSD RAID 0\"", "\"name\":\"HDD\""),
        edit("{\"id\":0,", "{\"id\":7,"),
    ]
}

fn temp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dot-serve-wire-golden-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

/// Build the whole pinned stream.
fn encode_everything() -> Wire {
    let mut wire = Wire::default();

    // Requests, one per variant.
    let requests = vec![
        Request::Hello { version: 1 },
        Request::Provision {
            problem: spec("box2", "tpch:1:original", 0.5),
            solver: Some("es".to_owned()),
        },
        Request::AttachTenant {
            name: None,
            problem: spec("full", "ycsb:1000000:A", 0.25),
            deployed: None,
            controller: Some(ControllerConfig::default()),
        },
        Request::Observe {
            tenant: 1,
            step: flip_steps()[2].clone(),
        },
        Request::DetachTenant { tenant: u64::MAX },
        Request::Stats,
        Request::Shutdown,
    ];
    for (i, request) in requests.into_iter().enumerate() {
        wire.push(&RequestFrame {
            id: i as u64,
            request,
        });
    }

    // Every response variant that needs no registry.
    wire.frame(
        1,
        Response::Hello {
            version: 1,
            server: "dot-serve/0.1.0".to_owned(),
        },
    );
    wire.frame(
        u64::MAX,
        Response::Attached {
            tenant: 9_007_199_254_740_993,
            name: "tenant-\"quoted\"\n".to_owned(),
        },
    );
    for event in every_control_event() {
        wire.frame(
            2,
            Response::Event {
                tenant: 1 << 53,
                event,
            },
        );
    }
    wire.frame(
        3,
        Response::ObserveDone {
            tenant: 1,
            ticks: 0,
            triggers: 0,
            applications: 0,
            schedule: None,
        },
    );
    wire.frame(
        3,
        Response::ObserveDone {
            tenant: 1,
            ticks: 9_000_000_000_000_000,
            triggers: 8_999_999_999_999_999,
            applications: 1,
            schedule: Some(ScheduleSummary {
                waves: 2,
                makespan_seconds: 1.0e-7,
            }),
        },
    );
    for reason in hostile_strings() {
        wire.frame(4, Response::NotDurable { reason });
    }
    wire.frame(
        5,
        Response::Detached {
            summary: summary(1, "acme", TriggerReason::Quiescent),
        },
    );
    wire.frame(
        6,
        Response::Stats {
            tenants: 0,
            ticks: 0,
            triggers: 0,
            applications: 0,
            cache: CacheStats {
                hits: 0,
                misses: 0,
                entries: 0,
            },
        },
    );
    wire.frame(
        6,
        Response::Stats {
            tenants: 36,
            ticks: u64::MAX,
            triggers: 490,
            applications: 27,
            cache: CacheStats {
                hits: 11,
                misses: 7,
                entries: 7,
            },
        },
    );
    wire.frame(7, Response::ShuttingDown { tenants: vec![] });
    wire.frame(
        7,
        Response::ShuttingDown {
            tenants: vec![
                summary(1, "a", TriggerReason::Drift { distance: 0.5 }),
                summary(2, "", TriggerReason::Window { every_ticks: 4 }),
            ],
        },
    );
    for error in every_protocol_error() {
        wire.frame(8, Response::Error { error });
    }

    // Real answers from a registry: two Provisioned frames (the solver's
    // wall-clock zeroed), the flip trajectory's events, and the snapshot
    // the registry persisted after them.
    let dir = temp_state_dir("snapshot");
    let registry = Registry::new(RegistryConfig {
        state_dir: Some(dir.clone()),
        ..RegistryConfig::default()
    });
    for (pool, database) in [("full", "tpch:10:original"), ("box2", "tpcc:16")] {
        let mut recommendation = registry
            .provision(&spec(pool, database, 0.5), None)
            .expect("preset provisions");
        recommendation.provenance.elapsed_ms = 0;
        wire.frame(
            9,
            Response::Provisioned {
                recommendation: Box::new(recommendation),
            },
        );
    }
    let (tenant, _) = registry
        .attach(
            Some("flip".to_owned()),
            &spec("box2", "tpcc:2", 0.5),
            None,
            Some(ControllerConfig {
                cooldown_ticks: 2,
                ..ControllerConfig::default()
            }),
        )
        .expect("attach");
    for step in flip_steps() {
        let mut events = Vec::new();
        let counters = registry
            .observe(tenant, &step, &mut |event| {
                events.push(event.clone());
                Ok(())
            })
            .unwrap_or_else(|_| panic!("observe {step:?}"));
        assert!(counters.durability.is_ok(), "snapshot reached the disk");
        for event in events {
            wire.frame(10, Response::Event { tenant, event });
        }
    }
    // Applied ticks are journal records; dropping the registry compacts
    // them into the manifest read here.
    drop(registry);
    let on_disk = std::fs::read_to_string(dir.join(STATE_FILE)).expect("snapshot written");
    let mut snapshot: RegistrySnapshot = serde_json::from_str(&on_disk).expect("snapshot parses");
    assert_eq!(
        serde_json::to_string(&snapshot).expect("snapshot encodes"),
        on_disk,
        "the persisted snapshot is the compact encoding of itself"
    );
    assert!(
        snapshot.tenants.iter().any(|t| t.applications > 0),
        "the snapshot carries a migrated tenant"
    );
    for t in &mut snapshot.tenants {
        t.elapsed_ms = 0;
    }
    wire.push(&snapshot);
    let _ = std::fs::remove_dir_all(&dir);

    // Numbers at every branch of the number printer, and raw values.
    let floats: Vec<f64> = vec![
        0.0,
        -0.0,
        2f64.powi(53),
        2f64.powi(53) + 1.0,
        9.0e15,
        -9.0e15,
        8_999_999_999_999_999.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0e-7,
        5.0e-324,
        f64::MIN_POSITIVE / 4.0,
        u64::MAX as f64,
        1.0e300,
        -2.5,
        0.1,
    ];
    wire.push(&floats);
    let ids: Vec<u64> = vec![
        0,
        1 << 53,
        (1 << 53) + 1,
        9_000_000_000_000_000,
        8_999_999_999_999_999,
        u64::MAX,
    ];
    wire.push(&ids);
    wire.push(&vec![i64::MIN, -1, i64::MAX]);
    wire.push(&(u8::MAX, -7i32, 0.5f32, true));
    wire.push(&hostile_strings());
    wire.push(&vec![Some(1.5), None]);
    let nested: Vec<Vec<Vec<u32>>> = vec![vec![], vec![vec![]], vec![vec![1, 2], vec![]]];
    wire.push(&nested);
    wire.push(&Value::Object(vec![]));
    wire.push(&Value::Object(vec![
        ("".to_owned(), Value::Array(vec![])),
        ("k\"\\\n😀".to_owned(), Value::Object(vec![])),
        (
            "nested".to_owned(),
            Value::Array(vec![
                Value::Null,
                Value::Bool(false),
                Value::Number(-0.0),
                Value::String(hostile_strings()[0].clone()),
                Value::Object(vec![(
                    "x".to_owned(),
                    Value::Array(vec![Value::Array(vec![])]),
                )]),
            ]),
        ),
    ]));

    // Inline pools that fail validation: each Provision frame is refused
    // with a typed invalid-request naming the class, never answered.
    let registry = Registry::new(RegistryConfig::default());
    for pool in invalid_pools() {
        let problem = ProblemSpec {
            pool: PoolSpec::Custom(pool),
            database: DbSpec::Preset("tpch-subset:1".to_owned()),
            sla: 0.5,
            engine: None,
            refinements: None,
        };
        let error = registry
            .provision(&problem, None)
            .expect_err("an invalid pool is refused");
        match &error {
            ProtocolError::Provision { error } => {
                assert_eq!(error.kind(), "invalid-request", "{error}");
            }
            other => panic!("expected a provision error, got {other}"),
        }
        wire.push(&RequestFrame {
            id: 11,
            request: Request::Provision {
                problem,
                solver: None,
            },
        });
        wire.frame(11, Response::Error { error });
    }
    wire
}

fn check(name: &str, actual: &[u8]) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "no golden file at {} ({e}); run UPDATE_GOLDEN=1 cargo test -p dot-serve \
             --test wire_golden to create it",
            path.display()
        )
    });
    if committed != actual {
        let committed = String::from_utf8_lossy(&committed);
        let actual = String::from_utf8_lossy(actual);
        let line = committed
            .lines()
            .zip(actual.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| committed.lines().count().min(actual.lines().count()));
        panic!(
            "{name} drifted from the committed wire bytes at line {}:\n committed: {:?}\n    actual: {:?}",
            line + 1,
            committed.lines().nth(line),
            actual.lines().nth(line)
        );
    }
}

#[test]
fn every_frame_encodes_to_the_committed_bytes() {
    let wire = encode_everything();
    check("wire_compact.jsonl", &wire.compact);
    check("wire_pretty.txt", wire.pretty.as_bytes());
}

#[test]
fn every_pinned_compact_frame_parses_back_to_its_own_bytes() {
    // Decoding then re-encoding is the identity: `null`, `0` for -0.0 and
    // the shortest round-trip float digits all read back to themselves.
    let committed = std::fs::read_to_string(golden_path("wire_compact.jsonl"))
        .expect("committed compact golden");
    for line in committed.lines() {
        let value: Value = serde_json::from_str(line).expect("golden line parses");
        assert_eq!(serde_json::to_string(&value).expect("re-encodes"), line);
    }
}

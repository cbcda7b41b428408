//! Wire-level protocol conformance: round-trips for every frame shape and
//! a typed error frame for every reject path — malformed lines, oversized
//! lines, version mismatches, unknown tenants, provisioning failures, and
//! requests racing shutdown. All against a live in-process daemon.

use dot_serve::framing::write_frame;
use dot_serve::protocol::{
    DbSpec, PoolSpec, ProblemSpec, ProtocolError, Request, RequestFrame, Response, ResponseFrame,
    PROTOCOL_VERSION,
};
use dot_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

/// A line-oriented test client over any stream.
struct Client<S: std::io::Read + Write> {
    reader: BufReader<S>,
    writer: S,
}

impl Client<TcpStream> {
    fn connect(addr: std::net::SocketAddr) -> Client<TcpStream> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }
}

impl<S: std::io::Read + Write> Client<S> {
    fn send(&mut self, id: u64, request: Request) {
        write_frame(&mut self.writer, &RequestFrame { id, request }).expect("send");
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

    fn recv(&mut self) -> ResponseFrame {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(!line.is_empty(), "connection closed mid-conversation");
        serde_json::from_str(line.trim()).expect("parse response")
    }

    /// EOF — the server closed this connection.
    fn recv_eof(&mut self) {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert_eq!(n, 0, "expected EOF, got {line:?}");
    }
}

fn spec(pool: &str, database: &str, sla: f64) -> ProblemSpec {
    serde_json::from_str(&format!(
        "{{\"pool\": {pool:?}, \"database\": {database:?}, \"sla\": {sla}}}"
    ))
    .expect("problem spec")
}

fn start(config: ServerConfig) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let handle = thread::spawn(move || server.run().expect("run"));
    (addr, handle)
}

fn small_config() -> ServerConfig {
    ServerConfig {
        listen: Some("127.0.0.1:0".to_owned()),
        workers: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn hello_round_trips_and_wrong_versions_get_a_typed_reject() {
    let (addr, handle) = start(small_config());
    let mut client = Client::connect(addr);

    client.send(
        1,
        Request::Hello {
            version: PROTOCOL_VERSION,
        },
    );
    let frame = client.recv();
    assert_eq!(frame.id, 1);
    match frame.response {
        Response::Hello { version, server } => {
            assert_eq!(version, PROTOCOL_VERSION);
            assert!(server.starts_with("dot-serve/"), "{server}");
        }
        other => panic!("{other:?}"),
    }

    client.send(2, Request::Hello { version: 999 });
    let frame = client.recv();
    assert_eq!(frame.id, 2);
    match frame.response {
        Response::Error {
            error:
                ProtocolError::UnsupportedVersion {
                    requested,
                    supported,
                },
        } => {
            assert_eq!(requested, 999);
            assert_eq!(supported, PROTOCOL_VERSION);
        }
        other => panic!("{other:?}"),
    }

    client.send(3, Request::Shutdown);
    assert!(matches!(
        client.recv().response,
        Response::ShuttingDown { .. }
    ));
    handle.join().unwrap();
}

#[test]
fn malformed_lines_get_typed_error_frames_and_the_connection_survives() {
    let (addr, handle) = start(small_config());
    let mut client = Client::connect(addr);

    // Unparseable JSON: no recoverable id, answered with id 0.
    client.send_raw("this is not json");
    let frame = client.recv();
    assert_eq!(frame.id, 0);
    assert!(matches!(
        frame.response,
        Response::Error {
            error: ProtocolError::Malformed { .. }
        }
    ));

    // Well-formed JSON, unknown request shape: the client's id survives
    // into the error frame.
    client.send_raw("{\"id\": 42, \"request\": {\"Frobnicate\": {}}}");
    let frame = client.recv();
    assert_eq!(frame.id, 42);
    assert!(matches!(
        frame.response,
        Response::Error {
            error: ProtocolError::Malformed { .. }
        }
    ));

    // Blank lines are keep-alives, not frames: the next real frame still
    // gets served, proving the connection survived every reject above.
    client.send_raw("");
    client.send(5, Request::Stats);
    let frame = client.recv();
    assert_eq!(frame.id, 5);
    match frame.response {
        Response::Stats { tenants, ticks, .. } => {
            assert_eq!((tenants, ticks), (0, 0));
        }
        other => panic!("{other:?}"),
    }

    client.send(6, Request::Shutdown);
    assert!(matches!(
        client.recv().response,
        Response::ShuttingDown { .. }
    ));
    handle.join().unwrap();
}

#[test]
fn oversized_lines_are_rejected_and_the_connection_closes() {
    let config = ServerConfig {
        max_frame_bytes: 256,
        ..small_config()
    };
    let (addr, handle) = start(config);
    let mut client = Client::connect(addr);

    client.send_raw(&"x".repeat(4096));
    let frame = client.recv();
    assert_eq!(frame.id, 0);
    match frame.response {
        Response::Error {
            error: ProtocolError::Oversized { limit_bytes },
        } => assert_eq!(limit_bytes, 256),
        other => panic!("{other:?}"),
    }
    // The stream cannot be resynchronized: the server hangs up.
    client.recv_eof();

    let mut second = Client::connect(addr);
    second.send(1, Request::Shutdown);
    assert!(matches!(
        second.recv().response,
        Response::ShuttingDown { .. }
    ));
    handle.join().unwrap();
}

#[test]
fn unknown_tenants_and_provisioning_failures_are_scoped_typed_errors() {
    let (addr, handle) = start(small_config());
    let mut client = Client::connect(addr);

    // Observe/detach a tenant that never attached.
    client.send(
        1,
        Request::Observe {
            tenant: 7,
            step: serde_json::from_str("{}").unwrap(),
        },
    );
    match client.recv().response {
        Response::Error {
            error: ProtocolError::UnknownTenant { tenant },
        } => assert_eq!(tenant, 7),
        other => panic!("{other:?}"),
    }
    client.send(2, Request::DetachTenant { tenant: 7 });
    assert!(matches!(
        client.recv().response,
        Response::Error {
            error: ProtocolError::UnknownTenant { tenant: 7 }
        }
    ));

    // A provisioning failure carries the inner typed ProvisionError.
    client.send(
        3,
        Request::Provision {
            problem: spec("no-such-pool", "tpcc:2", 0.5),
            solver: None,
        },
    );
    match client.recv().response {
        Response::Error {
            error: error @ ProtocolError::Provision { .. },
        } => {
            assert_eq!(error.kind(), "provision");
            let ProtocolError::Provision { error: inner } = error else {
                unreachable!()
            };
            assert_eq!(inner.kind(), "unknown-pool");
        }
        other => panic!("{other:?}"),
    }

    // An out-of-domain SLA at attach time is the same scoped reject — and
    // the daemon is still fully alive afterwards.
    client.send(
        4,
        Request::AttachTenant {
            name: None,
            problem: spec("box2", "tpcc:2", 7.0),
            deployed: None,
            controller: None,
        },
    );
    match client.recv().response {
        Response::Error {
            error: ProtocolError::Provision { error },
        } => assert_eq!(error.kind(), "invalid-request"),
        other => panic!("{other:?}"),
    }

    client.send(5, Request::Stats);
    assert!(matches!(client.recv().response, Response::Stats { .. }));

    client.send(6, Request::Shutdown);
    match client.recv().response {
        Response::ShuttingDown { tenants } => assert!(tenants.is_empty()),
        other => panic!("{other:?}"),
    }
    handle.join().unwrap();
}

/// An inline problem whose profile would enumerate 40^15 baseline layouts:
/// a pool of 40 classes and a table with 14 indexes.
fn oversized_baseline_problem() -> ProblemSpec {
    use dot_dbms::query::{InsertOp, Op, QuerySpec};
    use dot_storage::{catalog, StoragePool};
    let classes = (0..40)
        .map(|k| {
            let mut class = catalog::all_classes()[k % 5].clone();
            class.name = format!("class-{k}");
            class
        })
        .collect();
    let mut builder = dot_dbms::SchemaBuilder::new("wide")
        .table("events", 2_000_000.0, 120.0)
        .primary_index(8.0);
    for i in 0..13 {
        builder = builder.index(&format!("events_k{i}"), 8.0);
    }
    let schema = builder.log(1.0).build();
    let events = schema.table_by_name("events").expect("events").id;
    let ingest = QuerySpec::transaction(
        "ingest",
        vec![Op::Insert(InsertOp {
            table: events,
            rows: 10.0,
            sequential_keys: false,
        })],
    );
    ProblemSpec {
        pool: PoolSpec::Custom(StoragePool::new("wide", classes)),
        database: DbSpec::Custom {
            schema,
            workload: dot_workloads::Workload::oltp("wide", vec![ingest], 8, 1000.0),
        },
        sla: 0.5,
        engine: None,
        refinements: None,
    }
}

#[test]
fn oversized_baseline_enumerations_get_a_prompt_typed_reject() {
    let (addr, handle) = start(small_config());
    let mut client = Client::connect(addr);
    for (id, solver) in [(1, None), (2, Some("es".to_owned()))] {
        let started = std::time::Instant::now();
        client.send(
            id,
            Request::Provision {
                problem: oversized_baseline_problem(),
                solver,
            },
        );
        let frame = client.recv();
        assert_eq!(frame.id, id);
        match frame.response {
            Response::Error {
                error: ProtocolError::Provision { error },
            } => {
                assert_eq!(error.kind(), "invalid-request");
                assert!(error.to_string().contains("baseline"), "{error}");
            }
            other => panic!("{other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "refused after {:?}",
            started.elapsed()
        );
    }
    client.send(3, Request::Shutdown);
    assert!(matches!(
        client.recv().response,
        Response::ShuttingDown { .. }
    ));
    handle.join().unwrap();
}

/// A JSON number too large for an `f64` parses as infinity; a workload
/// weight of `1e400` must be refused before any solver prices it.
#[test]
fn an_infinite_inline_weight_gets_a_typed_invalid_request() {
    let (schema, workload) = dot_core::advisor::presets::database("tpch-subset:1").unwrap();
    let frame = RequestFrame {
        id: 1,
        request: Request::Provision {
            problem: ProblemSpec {
                pool: PoolSpec::Name("box2".to_owned()),
                database: DbSpec::Custom { schema, workload },
                sla: 0.5,
                engine: None,
                refinements: None,
            },
            solver: None,
        },
    };
    let line = serde_json::to_string(&frame).unwrap();
    let at = line.find("\"weight\":").expect("a weight field") + "\"weight\":".len();
    let end = at + line[at..].find([',', '}']).expect("end of the number");
    let line = format!("{}1e400{}", &line[..at], &line[end..]);

    let (addr, handle) = start(small_config());
    let mut client = Client::connect(addr);
    client.send_raw(&line);
    let frame = client.recv();
    assert_eq!(frame.id, 1);
    match frame.response {
        Response::Error {
            error: ProtocolError::Provision { error },
        } => {
            assert_eq!(error.kind(), "invalid-request");
            assert!(error.to_string().contains("weight"), "{error}");
        }
        other => panic!("{other:?}"),
    }
    client.send(2, Request::Shutdown);
    assert!(matches!(
        client.recv().response,
        Response::ShuttingDown { .. }
    ));
    handle.join().unwrap();
}

/// Ids past 2^53 are exact on the wire both ways: decoded as integers,
/// not rounded through a double, and echoed as their exact digits — on
/// answers and on rejects alike.
#[test]
fn ids_past_two_to_the_53_round_trip_exactly() {
    let (addr, handle) = start(small_config());
    let mut client = Client::connect(addr);
    for id in [(1u64 << 53) + 1, u64::MAX - 1] {
        for request in ["\"Stats\"", "{\"Nope\":{}}"] {
            client.send_raw(&format!("{{\"id\":{id},\"request\":{request}}}"));
            let mut line = String::new();
            client.reader.read_line(&mut line).expect("recv");
            assert!(line.starts_with(&format!("{{\"id\":{id},")), "{line}");
            let frame: ResponseFrame = serde_json::from_str(line.trim()).expect("parse response");
            assert_eq!(frame.id, id);
        }
    }
    client.send(u64::MAX - 1, Request::Shutdown);
    let frame = client.recv();
    assert_eq!(frame.id, u64::MAX - 1);
    assert!(matches!(frame.response, Response::ShuttingDown { .. }));
    handle.join().unwrap();
}

/// A request line nested 100,000 deep fits well under the frame ceiling;
/// parsing it must end in a typed reject, not a stack overflow that takes
/// every tenant down with the daemon.
#[test]
fn a_frame_nested_past_the_recursion_limit_is_malformed_and_the_daemon_serves_on() {
    let depth = 100_000;
    let line = format!(
        "{{\"id\":1,\"request\":{}{}}}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let (addr, handle) = start(small_config());
    let mut client = Client::connect(addr);
    client.send_raw(&line);
    let frame = client.recv();
    assert_eq!(frame.id, 1, "the reject answers the frame's leading id");
    match frame.response {
        Response::Error {
            error: ProtocolError::Malformed { reason },
        } => assert!(reason.contains("recursion limit"), "{reason}"),
        other => panic!("{other:?}"),
    }
    client.send(
        2,
        Request::Hello {
            version: PROTOCOL_VERSION,
        },
    );
    let frame = client.recv();
    assert_eq!(frame.id, 2);
    assert!(matches!(frame.response, Response::Hello { .. }));
    client.send(3, Request::Shutdown);
    assert!(matches!(
        client.recv().response,
        Response::ShuttingDown { .. }
    ));
    handle.join().unwrap();
}

#[test]
fn requests_after_shutdown_get_the_shutting_down_reject() {
    let (addr, handle) = start(small_config());
    let mut first = Client::connect(addr);
    let mut second = Client::connect(addr);

    first.send(1, Request::Shutdown);
    assert!(matches!(
        first.recv().response,
        Response::ShuttingDown { .. }
    ));

    // The second connection was accepted before the latch. Depending on
    // how the drain races, its request is either answered with the typed
    // reject or the connection was already closed — but a *served* frame
    // must be the typed reject, never a silent success.
    let _ = write_frame(
        &mut second.writer,
        &RequestFrame {
            id: 2,
            request: Request::Stats,
        },
    );
    let mut line = String::new();
    let n = second.reader.read_line(&mut line).unwrap_or(0);
    if n > 0 {
        let frame: ResponseFrame = serde_json::from_str(line.trim()).expect("parse response");
        assert!(matches!(
            frame.response,
            Response::Error {
                error: ProtocolError::ShuttingDown
            }
        ));
    }
    handle.join().unwrap();
}

#[cfg(unix)]
#[test]
fn unix_domain_socket_speaks_the_same_protocol() {
    use std::os::unix::net::UnixStream;
    let path = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("dot-serve-test.sock");
    let config = ServerConfig {
        listen: None,
        unix_socket: Some(path.clone()),
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(config).expect("bind uds");
    assert!(server.local_addr().is_none());
    let handle = thread::spawn(move || server.run().expect("run"));

    let stream = UnixStream::connect(&path).expect("connect uds");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut client = Client {
        reader: BufReader::new(stream.try_clone().unwrap()),
        writer: stream,
    };
    client.send(
        1,
        Request::Hello {
            version: PROTOCOL_VERSION,
        },
    );
    assert!(matches!(client.recv().response, Response::Hello { .. }));
    client.send(2, Request::Shutdown);
    assert!(matches!(
        client.recv().response,
        Response::ShuttingDown { .. }
    ));
    handle.join().unwrap();
    assert!(!path.exists(), "socket file should be removed on shutdown");
}

#[test]
fn every_request_and_response_shape_round_trips_through_json() {
    use dot_serve::protocol::TenantSummary;
    let requests = vec![
        Request::Hello { version: 1 },
        Request::Provision {
            problem: spec("box2", "tpcc:2", 0.5),
            solver: Some("dot".to_owned()),
        },
        Request::AttachTenant {
            name: Some("acme".to_owned()),
            problem: spec("box2", "tpcc:2", 0.5),
            deployed: None,
            controller: None,
        },
        Request::Observe {
            tenant: 3,
            step: serde_json::from_str("{\"shift\": 0.2, \"repeat\": 2}").unwrap(),
        },
        Request::DetachTenant { tenant: 3 },
        Request::Stats,
        Request::Shutdown,
    ];
    for (i, request) in requests.into_iter().enumerate() {
        let frame = RequestFrame {
            id: i as u64,
            request,
        };
        let json = serde_json::to_string(&frame).unwrap();
        let back: RequestFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(back, frame, "{json}");
    }

    let errors = vec![
        ProtocolError::Malformed {
            reason: "nope".to_owned(),
        },
        ProtocolError::Oversized { limit_bytes: 256 },
        ProtocolError::UnsupportedVersion {
            requested: 2,
            supported: 1,
        },
        ProtocolError::UnknownTenant { tenant: 9 },
        ProtocolError::ShuttingDown,
        ProtocolError::Busy {
            tenant: 9,
            retry_after_ms: 50,
        },
        ProtocolError::Faulted {
            tenant: 9,
            reason: "tick panicked".to_owned(),
        },
        ProtocolError::Provision {
            error: dot_core::advisor::ProvisionError::InvalidRequest {
                reason: "sla 7 out of (0, 1]".to_owned(),
            },
        },
    ];
    let mut kinds: Vec<&str> = errors.iter().map(|e| e.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 8, "kinds must be distinct");
    for error in errors {
        let frame = ResponseFrame {
            id: 1,
            response: Response::Error { error },
        };
        let json = serde_json::to_string(&frame).unwrap();
        let back: ResponseFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(back, frame, "{json}");
        assert!(!format!(
            "{}",
            match &frame.response {
                Response::Error { error } => error,
                _ => unreachable!(),
            }
        )
        .is_empty());
    }

    let summary = ResponseFrame {
        id: 2,
        response: Response::Detached {
            summary: TenantSummary {
                tenant: 1,
                name: "acme".to_owned(),
                ticks: 12,
                triggers: 2,
                applications: 1,
                provenance: serde_json::from_str(
                    "{\"elapsed_ms\": 5, \"trigger\": {\"Drift\": {\"distance\": 0.3}}}",
                )
                .unwrap(),
            },
        },
    };
    let json = serde_json::to_string(&summary).unwrap();
    let back: ResponseFrame = serde_json::from_str(&json).unwrap();
    assert_eq!(back, summary);
}

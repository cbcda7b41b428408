//! End-to-end daemon conformance: the `dot-serve` protocol hosts many
//! concurrent tenants whose streamed [`ControlEvent`]s are **bit
//! identical** to the offline scenario simulator's trajectories — the
//! daemon adds transport and concurrency, never a second control path.
//!
//! Also pinned here: per-tenant typed errors never disturb other tenants
//! or the daemon, and graceful shutdown drains in-flight ticks and
//! flushes every tenant's provenance.

mod scenario;

use dot_core::controller::ControlEvent;
use dot_serve::framing::write_frame;
use dot_serve::protocol::{
    ProblemSpec, ProtocolError, Request, RequestFrame, Response, ResponseFrame, TenantId,
    PROTOCOL_VERSION,
};
use dot_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
            next_id: 1,
        }
    }

    fn request(&mut self, request: Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.writer, &RequestFrame { id, request }).expect("send");
        id
    }

    fn recv(&mut self) -> ResponseFrame {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(!line.is_empty(), "server closed the connection");
        serde_json::from_str(line.trim()).expect("parse response")
    }

    fn attach(&mut self, name: &str) -> TenantId {
        let id = self.request(Request::AttachTenant {
            name: Some(name.to_owned()),
            problem: problem_spec(),
            deployed: None,
            controller: Some(scenario::config()),
        });
        let frame = self.recv();
        assert_eq!(frame.id, id);
        match frame.response {
            Response::Attached {
                tenant,
                name: echoed,
            } => {
                assert_eq!(echoed, name);
                tenant
            }
            other => panic!("attach: {other:?}"),
        }
    }

    /// Observe one step, collecting the streamed events through the
    /// terminal `ObserveDone` (panics on an error frame).
    fn observe(
        &mut self,
        tenant: TenantId,
        step: &dot_core::controller::TraceStep,
    ) -> (Vec<ControlEvent>, u64) {
        let id = self.request(Request::Observe {
            tenant,
            step: step.clone(),
        });
        let mut events = Vec::new();
        loop {
            let frame = self.recv();
            assert_eq!(frame.id, id, "frames correlate to the observe request");
            match frame.response {
                Response::Event {
                    tenant: from,
                    event,
                } => {
                    assert_eq!(from, tenant, "events are scoped to the tenant");
                    events.push(event);
                }
                Response::ObserveDone {
                    tenant: from,
                    ticks,
                    ..
                } => {
                    assert_eq!(from, tenant);
                    return (events, ticks);
                }
                other => panic!("observe: {other:?}"),
            }
        }
    }
}

/// The simulator's fixed problem, spelled as the wire-protocol spec: the
/// `box2` pool, the 2-warehouse TPC-C preset, SLA 0.5 — exactly what
/// `scenario::run` builds in process.
fn problem_spec() -> ProblemSpec {
    serde_json::from_str("{\"pool\": \"box2\", \"database\": \"tpcc:2\", \"sla\": 0.5}")
        .expect("problem spec")
}

#[test]
fn concurrent_tenants_stream_bit_identical_trajectories_and_shutdown_flushes() {
    let scenarios = scenario::scenarios();
    // The offline truth, one log per trajectory.
    let expected: Vec<Vec<ControlEvent>> =
        scenarios.iter().map(|s| scenario::run(&s.steps)).collect();
    let expected = Arc::new(expected);
    let scenarios = Arc::new(scenarios);

    let server = Server::bind(ServerConfig {
        listen: Some("127.0.0.1:0".to_owned()),
        workers: 8,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let run = thread::spawn(move || server.run().expect("run"));

    // 8 tenants (each trajectory twice), one connection per tenant, all
    // replaying concurrently against the shared daemon.
    let mut workers = Vec::new();
    for tenant_idx in 0..8usize {
        let scenarios = Arc::clone(&scenarios);
        let expected = Arc::clone(&expected);
        workers.push(thread::spawn(move || {
            let scn = &scenarios[tenant_idx % scenarios.len()];
            let golden = &expected[tenant_idx % scenarios.len()];
            let mut client = Client::connect(addr);
            let tenant = client.attach(&format!("tenant-{}-{}", scn.name, tenant_idx));
            let mut events = Vec::new();
            let mut ticks = 0;
            for step in &scn.steps {
                let (step_events, total_ticks) = client.observe(tenant, step);
                events.extend(step_events);
                ticks = total_ticks;
            }
            assert_eq!(
                &events, golden,
                "tenant {tenant} ({}) must stream the offline trajectory bit-identically",
                scn.name
            );
            let expected_ticks: usize = scn.steps.iter().map(|s| s.repeat.unwrap_or(1)).sum();
            assert_eq!(ticks as usize, expected_ticks);
            (tenant, ticks)
        }));
    }
    let replayed: Vec<(TenantId, u64)> = workers
        .into_iter()
        .map(|w| w.join().expect("tenant thread"))
        .collect();

    // One control connection: fleet stats, one explicit detach, then the
    // graceful shutdown flushing everything still attached.
    let mut control = Client::connect(addr);
    let id = control.request(Request::Stats);
    let frame = control.recv();
    assert_eq!(frame.id, id);
    let total_ticks: u64 = replayed.iter().map(|(_, t)| t).sum();
    match frame.response {
        Response::Stats {
            tenants,
            ticks,
            triggers,
            cache,
            ..
        } => {
            assert_eq!(tenants, 8);
            assert_eq!(ticks, total_ticks);
            // Every trigger was either answered from its controller's
            // replan memo or solved, and only solved answers are resident.
            assert_eq!(
                cache.hits + cache.misses,
                triggers as u64,
                "reuse counters must account for every trigger: {cache:?}"
            );
            assert!(cache.entries as u64 <= cache.misses, "{cache:?}");
        }
        other => panic!("stats: {other:?}"),
    }

    let (first_tenant, first_ticks) = replayed[0];
    control.request(Request::DetachTenant {
        tenant: first_tenant,
    });
    match control.recv().response {
        Response::Detached { summary } => {
            assert_eq!(summary.tenant, first_tenant);
            assert_eq!(summary.ticks, first_ticks);
        }
        other => panic!("detach: {other:?}"),
    }

    control.request(Request::Shutdown);
    match control.recv().response {
        Response::ShuttingDown { tenants } => {
            assert_eq!(tenants.len(), 7, "the detached tenant is not re-flushed");
            for summary in &tenants {
                let (_, ticks) = replayed
                    .iter()
                    .find(|(t, _)| *t == summary.tenant)
                    .expect("flushed summary matches an attached tenant");
                assert_eq!(summary.ticks, *ticks, "{}", summary.name);
                // Every summary carries provenance: a wall clock and the
                // last trigger reason (Quiescent for the noise tenants).
                assert!(!summary.name.is_empty());
            }
        }
        other => panic!("shutdown: {other:?}"),
    }
    run.join().expect("daemon unwinds cleanly");
}

#[test]
fn one_tenants_typed_error_never_disturbs_another() {
    let server = Server::bind(ServerConfig {
        listen: Some("127.0.0.1:0".to_owned()),
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let run = thread::spawn(move || server.run().expect("run"));

    let mut healthy = Client::connect(addr);
    let mut faulty = Client::connect(addr);
    let healthy_tenant = healthy.attach("healthy");
    let faulty_tenant = faulty.attach("faulty");

    // An out-of-domain step is a typed, request-scoped reject...
    let bad_step: dot_core::controller::TraceStep =
        serde_json::from_str("{\"shift\": 5.0}").unwrap();
    let id = faulty.request(Request::Observe {
        tenant: faulty_tenant,
        step: bad_step,
    });
    let frame = faulty.recv();
    assert_eq!(frame.id, id);
    match frame.response {
        Response::Error {
            error: ProtocolError::Provision { error },
        } => assert_eq!(error.kind(), "invalid-request"),
        other => panic!("faulty observe: {other:?}"),
    }

    // ...that neither detaches the faulty tenant nor touches the healthy
    // one: both still observe successfully afterwards.
    let ok_step = serde_json::from_str("{\"shift\": 0.02}").unwrap();
    let (_, faulty_ticks) = faulty.observe(faulty_tenant, &ok_step);
    assert_eq!(faulty_ticks, 1, "the failed step never ticked");
    let (events, healthy_ticks) = healthy.observe(healthy_tenant, &ok_step);
    assert_eq!(healthy_ticks, 1);
    assert!(
        matches!(events.as_slice(), [ControlEvent::Observed { .. }]),
        "{events:?}"
    );

    // The daemon itself never wavered: hello still answers.
    let id = healthy.request(Request::Hello {
        version: PROTOCOL_VERSION,
    });
    let frame = healthy.recv();
    assert_eq!(frame.id, id);
    assert!(matches!(frame.response, Response::Hello { .. }));

    healthy.request(Request::Shutdown);
    match healthy.recv().response {
        Response::ShuttingDown { tenants } => assert_eq!(tenants.len(), 2),
        other => panic!("shutdown: {other:?}"),
    }
    run.join().expect("daemon unwinds cleanly");
}

/// The `dot-cli serve` passthrough boots the same daemon as the
/// standalone binary: spawn it on an ephemeral port, handshake over TCP,
/// and shut it down through the protocol.
#[test]
fn dot_cli_serve_passthrough_runs_the_daemon() {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_dot-cli"))
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dot-cli serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("announcement");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement {line:?}"))
        .parse()
        .expect("bound address");

    let mut client = Client::connect(addr);
    client.request(Request::Hello {
        version: PROTOCOL_VERSION,
    });
    assert!(matches!(client.recv().response, Response::Hello { .. }));
    client.request(Request::Shutdown);
    assert!(matches!(
        client.recv().response,
        Response::ShuttingDown { .. }
    ));
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "{status:?}");
}

//! Registry persistence conformance: a daemon with a state directory
//! snapshots its tenants, a successor restores them, and a client that
//! reconnects by tenant id resumes its trajectory **bit-identically** to
//! the uninterrupted offline replay — restart adds durability, never a
//! second control path.

use dot_core::advisor::Advisor;
use dot_core::controller::{expand_trace, ControlEvent, Controller, ControllerConfig, TraceStep};
use dot_serve::framing::write_frame;
use dot_serve::protocol::{ProblemSpec, Request, RequestFrame, Response, ResponseFrame, TenantId};
use dot_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
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
            problem: spec(),
            deployed: None,
            controller: Some(config()),
        });
        let frame = self.recv();
        assert_eq!(frame.id, id);
        match frame.response {
            Response::Attached { tenant, .. } => tenant,
            other => panic!("attach: {other:?}"),
        }
    }

    fn observe(&mut self, tenant: TenantId, step: &TraceStep) -> (Vec<ControlEvent>, u64) {
        let id = self.request(Request::Observe {
            tenant,
            step: step.clone(),
        });
        let mut events = Vec::new();
        loop {
            let frame = self.recv();
            assert_eq!(frame.id, id);
            match frame.response {
                Response::Event {
                    tenant: from,
                    event,
                } => {
                    assert_eq!(from, tenant);
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

fn spec() -> ProblemSpec {
    serde_json::from_str("{\"pool\": \"box2\", \"database\": \"tpcc:2\", \"sla\": 0.5}")
        .expect("problem spec")
}

/// The scenario simulator's controller knobs (cool-down short enough for
/// the flip trajectory's second trigger).
fn config() -> ControllerConfig {
    ControllerConfig {
        cooldown_ticks: 2,
        ..ControllerConfig::default()
    }
}

/// The flip trajectory: drift noise, then an analytical phase that
/// triggers a migration, then back — the offline golden has two applied
/// plans (ticks 2 and 5), so a resumed session must carry a re-baselined
/// signature *and* a migrated layout across the restart.
fn flip_steps() -> Vec<TraceStep> {
    [
        "{\"shift\": 0.02}",
        "{\"shift\": -0.03}",
        "{\"phase\": \"analytical\", \"repeat\": 3}",
        "{\"baseline\": true, \"repeat\": 2}",
    ]
    .iter()
    .map(|s| serde_json::from_str(s).expect("trace step"))
    .collect()
}

/// The uninterrupted offline truth, replayed in process.
fn offline_events(steps: &[TraceStep]) -> Vec<ControlEvent> {
    let resolved = spec().resolve().expect("resolve");
    let config = config();
    let layout = Advisor::builder(&resolved.schema, &resolved.pool, &resolved.workload)
        .sla(resolved.sla)
        .refinements(resolved.refinements)
        .build()
        .expect("advisor")
        .recommend(&config.solver)
        .expect("recommend")
        .layout;
    let mut controller = Controller::new(
        &resolved.schema,
        &resolved.pool,
        &resolved.workload,
        layout,
        resolved.sla,
        config,
    )
    .expect("controller")
    .with_refinements(resolved.refinements);
    let trace = expand_trace(&resolved.schema, &resolved.workload, steps).expect("trace");
    for observed in &trace {
        controller.observe(observed).expect("tick");
    }
    controller.drain_events()
}

fn temp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dot-serve-persistence-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(state_dir: PathBuf) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        listen: Some("127.0.0.1:0".to_owned()),
        workers: 2,
        state_dir: Some(state_dir),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let handle = thread::spawn(move || server.run().expect("run"));
    (addr, handle)
}

#[test]
fn graceful_shutdown_state_resumes_bit_identically_in_a_new_daemon() {
    let steps = flip_steps();
    let golden = offline_events(&steps);
    let dir = temp_state_dir("resume");

    // Daemon 1: attach, replay the two-step prefix, shut down gracefully
    // (which flushes every tenant's checkpoint to the state file).
    let (addr, run) = start(dir.clone());
    let mut client = Client::connect(addr);
    let tenant = client.attach("acme");
    let mut events = Vec::new();
    for step in &steps[..2] {
        let (step_events, _) = client.observe(tenant, step);
        events.extend(step_events);
    }
    client.request(Request::Shutdown);
    match client.recv().response {
        Response::ShuttingDown { tenants } => {
            assert_eq!(tenants.len(), 1);
            assert_eq!(tenants[0].tenant, tenant);
            assert_eq!(tenants[0].ticks, 2);
        }
        other => panic!("shutdown: {other:?}"),
    }
    run.join().expect("daemon 1 unwinds");
    assert!(
        dir.join("registry.json").exists(),
        "graceful shutdown must leave a snapshot"
    );

    // Daemon 2, same state dir: the tenant is restored under its old id
    // and the client resumes mid-trajectory — across the restart the
    // session still has to *trigger and apply two migrations*.
    let (addr, run) = start(dir.clone());
    let mut client = Client::connect(addr);

    // Stats show the restored tenant before any new request touched it.
    client.request(Request::Stats);
    match client.recv().response {
        Response::Stats { tenants, ticks, .. } => {
            assert_eq!(tenants, 1, "the restored tenant is attached");
            assert_eq!(ticks, 2, "counters survive the restart");
        }
        other => panic!("stats: {other:?}"),
    }

    let mut ticks = 0;
    for step in &steps[2..] {
        let (step_events, total) = client.observe(tenant, step);
        events.extend(step_events);
        ticks = total;
    }
    assert_eq!(ticks, 7, "lifetime tick count spans both daemons");
    assert_eq!(
        events, golden,
        "prefix + resumed suffix must equal the uninterrupted offline trajectory"
    );

    // A fresh attach on the restored daemon must not collide with the
    // restored tenant's id.
    let newcomer = client.attach("newcomer");
    assert_ne!(newcomer, tenant, "restored ids are reserved");

    // Detach the resumed tenant: its lifetime counters match the golden
    // trajectory's triggers, applications and last trigger reason.
    let triggers = golden
        .iter()
        .filter(|e| matches!(e, ControlEvent::Triggered { .. }))
        .count();
    let last_trigger = golden
        .iter()
        .rev()
        .find_map(|e| match e {
            ControlEvent::Triggered { reason, .. } => Some(reason.clone()),
            _ => None,
        })
        .expect("the golden trajectory triggers");
    let applications = golden
        .iter()
        .filter(|e| matches!(e, ControlEvent::Applied { .. }))
        .count();
    client.request(Request::DetachTenant { tenant });
    match client.recv().response {
        Response::Detached { summary } => {
            assert_eq!(summary.tenant, tenant);
            assert_eq!(summary.ticks, 7);
            assert_eq!(summary.triggers, triggers);
            assert_eq!(summary.applications, applications);
            assert_eq!(summary.provenance.trigger, last_trigger);
        }
        other => panic!("detach: {other:?}"),
    }

    client.request(Request::Shutdown);
    match client.recv().response {
        Response::ShuttingDown { tenants } => {
            assert_eq!(tenants.len(), 1, "only the newcomer is left to flush");
            assert_eq!(tenants[0].tenant, newcomer);
        }
        other => panic!("shutdown: {other:?}"),
    }
    run.join().expect("daemon 2 unwinds");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_daemon_without_state_survives_and_one_with_state_starts_empty() {
    // No state dir: nothing is written anywhere, the daemon behaves as
    // before (persistence is strictly opt-in).
    let server = Server::bind(ServerConfig {
        listen: Some("127.0.0.1:0".to_owned()),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let run = thread::spawn(move || server.run().expect("run"));
    let mut client = Client::connect(addr);
    let tenant = client.attach("ephemeral");
    assert_eq!(tenant, 1);
    client.request(Request::Shutdown);
    assert!(matches!(
        client.recv().response,
        Response::ShuttingDown { .. }
    ));
    run.join().expect("daemon unwinds");

    // A fresh state dir starts empty and is created on demand.
    let dir = temp_state_dir("fresh");
    let (addr, run) = start(dir.clone());
    let mut client = Client::connect(addr);
    client.request(Request::Stats);
    match client.recv().response {
        Response::Stats { tenants, .. } => assert_eq!(tenants, 0),
        other => panic!("stats: {other:?}"),
    }
    client.request(Request::Shutdown);
    assert!(matches!(
        client.recv().response,
        Response::ShuttingDown { .. }
    ));
    run.join().expect("daemon unwinds");
    assert!(dir.is_dir(), "the state dir is created on bind");
    let _ = std::fs::remove_dir_all(&dir);
}

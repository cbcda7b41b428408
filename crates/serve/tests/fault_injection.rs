//! Hardening conformance under injected faults (requires the
//! `test-hooks` feature): a tenant whose tick panics is contained — the
//! daemon and every other tenant keep serving bit-identically — a tenant
//! whose ticks are slow exhausts its in-flight budget into typed `Busy`
//! rejects on the wire, and a durability write that fails reaches the
//! client as a typed `NotDurable` frame instead of a silent acknowledgement.

use dot_core::advisor::Advisor;
use dot_core::controller::{expand_trace, ControlEvent, Controller, ControllerConfig, TraceStep};
use dot_serve::framing::write_frame;
use dot_serve::protocol::{
    ProblemSpec, ProtocolError, Request, RequestFrame, Response, ResponseFrame, TenantId,
    PROTOCOL_VERSION,
};
use dot_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
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
            controller: None,
        });
        let frame = self.recv();
        assert_eq!(frame.id, id);
        match frame.response {
            Response::Attached { tenant, .. } => tenant,
            other => panic!("attach: {other:?}"),
        }
    }

    /// Observe one step through `ObserveDone`, panicking on error frames.
    fn observe(&mut self, tenant: TenantId, step: &TraceStep) -> (Vec<ControlEvent>, u64) {
        match self.try_observe(tenant, step) {
            Ok(done) => done,
            Err(error) => panic!("observe: {error:?}"),
        }
    }

    /// Observe one step; a typed error frame ends the stream as `Err`.
    fn try_observe(
        &mut self,
        tenant: TenantId,
        step: &TraceStep,
    ) -> Result<(Vec<ControlEvent>, u64), ProtocolError> {
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
                    assert_eq!(from, tenant);
                    events.push(event);
                }
                Response::ObserveDone {
                    tenant: from,
                    ticks,
                    ..
                } => {
                    assert_eq!(from, tenant);
                    return Ok((events, ticks));
                }
                Response::Error { error } => return Err(error),
                other => panic!("observe: {other:?}"),
            }
        }
    }
}

fn spec() -> ProblemSpec {
    serde_json::from_str("{\"pool\": \"box2\", \"database\": \"tpcc:2\", \"sla\": 0.5}")
        .expect("problem spec")
}

fn step(text: &str) -> TraceStep {
    serde_json::from_str(text).expect("trace step")
}

/// The offline truth the daemon's healthy tenants must match bit for bit:
/// the same spec, default controller config, replayed in process.
fn offline_events(steps: &[TraceStep]) -> Vec<ControlEvent> {
    let resolved = spec().resolve().expect("resolve");
    let config = ControllerConfig::default();
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

#[test]
fn a_panicking_tick_faults_only_its_own_tenant() {
    let server = Server::bind(ServerConfig {
        listen: Some("127.0.0.1:0".to_owned()),
        workers: 8,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let run = thread::spawn(move || server.run().expect("run"));

    let steps = [
        step("{\"shift\": 0.01}"),
        step("{\"shift\": -0.01, \"repeat\": 2}"),
    ];
    let golden = offline_events(&steps);

    // 8 tenants; the last one's name carries the panic hook.
    let mut control = Client::connect(addr);
    let poisoned = control.attach("tenant-__panic__");

    // The injected panic comes back as a typed Faulted frame, not a dead
    // socket or a dead daemon.
    let failure = control
        .try_observe(poisoned, &steps[0])
        .expect_err("a panicking tick must fail the observe");
    match &failure {
        ProtocolError::Faulted { tenant, reason } => {
            assert_eq!(*tenant, poisoned);
            assert!(reason.contains("injected tick panic"), "{reason}");
        }
        other => panic!("expected Faulted, got {other:?}"),
    }
    // The fault latches: a retry answers the same typed error instead of
    // re-ticking possibly-inconsistent state.
    let retry = control
        .try_observe(poisoned, &steps[0])
        .expect_err("a faulted tenant must stay faulted");
    assert!(matches!(retry, ProtocolError::Faulted { .. }));

    // The other 7 tenants — attached and observed after the panic, on
    // their own connections — stream the offline trajectory untouched.
    let mut workers = Vec::new();
    for i in 0..7 {
        let steps = steps.clone();
        let golden = golden.clone();
        workers.push(thread::spawn(move || {
            let mut client = Client::connect(addr);
            let tenant = client.attach(&format!("healthy-{i}"));
            let mut events = Vec::new();
            for step in &steps {
                let (step_events, _) = client.observe(tenant, step);
                events.extend(step_events);
            }
            assert_eq!(
                events, golden,
                "tenant healthy-{i} must be untouched by the fault"
            );
        }));
    }
    for w in workers {
        w.join().expect("healthy tenant thread");
    }

    // The daemon itself never wavered: hello, stats, and a graceful
    // shutdown flushing all 8 tenants (the faulted one flushed with the
    // zero ticks it completed).
    let id = control.request(Request::Hello {
        version: PROTOCOL_VERSION,
    });
    let frame = control.recv();
    assert_eq!(frame.id, id);
    assert!(matches!(frame.response, Response::Hello { .. }));

    control.request(Request::Stats);
    match control.recv().response {
        Response::Stats { tenants, ticks, .. } => {
            assert_eq!(tenants, 8);
            assert_eq!(ticks, 7 * 3, "7 healthy tenants x 3 ticks each");
        }
        other => panic!("stats: {other:?}"),
    }

    control.request(Request::Shutdown);
    match control.recv().response {
        Response::ShuttingDown { tenants } => {
            assert_eq!(tenants.len(), 8);
            let flushed = tenants
                .iter()
                .find(|s| s.tenant == poisoned)
                .expect("faulted tenant still flushes a summary");
            assert_eq!(flushed.ticks, 0, "the panicked tick never counted");
        }
        other => panic!("shutdown: {other:?}"),
    }
    run.join().expect("daemon unwinds cleanly");
}

#[test]
fn an_over_budget_tenant_answers_busy_on_the_wire() {
    let server = Server::bind(ServerConfig {
        listen: Some("127.0.0.1:0".to_owned()),
        workers: 4,
        tenant_inflight_limit: 1,
        busy_retry_ms: 20,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let run = thread::spawn(move || server.run().expect("run"));

    let mut control = Client::connect(addr);
    let tenant = control.attach("tenant-__slow__");

    // A long, slow observe (the hook sleeps every tick) pins the tenant's
    // single budget slot; the holder signals once its first event frame
    // arrives, so the probe below lands inside the busy window.
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let holder = thread::spawn(move || {
        let mut client = Client::connect(addr);
        let id = client.request(Request::Observe {
            tenant,
            step: step("{\"shift\": 0.01, \"repeat\": 40}"),
        });
        let mut signalled = false;
        loop {
            let frame = client.recv();
            assert_eq!(frame.id, id);
            match frame.response {
                Response::Event { .. } => {
                    if !signalled {
                        signalled = true;
                        entered_tx.send(()).unwrap();
                    }
                }
                Response::ObserveDone { ticks, .. } => return ticks,
                other => panic!("holder: {other:?}"),
            }
        }
    });
    entered_rx.recv().expect("holder entered its stream");

    let busy = control
        .try_observe(tenant, &step("{\"shift\": 0.01}"))
        .expect_err("the second observe must be rejected");
    match busy {
        ProtocolError::Busy {
            tenant: from,
            retry_after_ms,
        } => {
            assert_eq!(from, tenant);
            assert_eq!(retry_after_ms, 20);
        }
        other => panic!("expected Busy, got {other:?}"),
    }

    // Once the holder drains, the budget frees and the retry goes through.
    let ticks = holder.join().expect("holder thread");
    assert_eq!(ticks, 40);
    let (_, ticks) = control.observe(tenant, &step("{\"shift\": 0.01}"));
    assert_eq!(ticks, 41);

    control.request(Request::Shutdown);
    assert!(matches!(
        control.recv().response,
        Response::ShuttingDown { .. }
    ));
    run.join().expect("daemon unwinds cleanly");
}

/// Send `request` and read its frames through the terminal one: the
/// `NotDurable` reasons that preceded it, and the terminal response.
fn exchange(client: &mut Client, request: Request) -> (Vec<String>, Response) {
    let id = client.request(request);
    let mut not_durable = Vec::new();
    loop {
        let frame = client.recv();
        assert_eq!(frame.id, id, "frames correlate to their request");
        match frame.response {
            Response::NotDurable { reason } => not_durable.push(reason),
            Response::Event { .. } => {}
            terminal => return (not_durable, terminal),
        }
    }
}

#[test]
fn a_failed_durability_write_is_reported_not_acknowledged() {
    let state_dir = std::env::temp_dir().join(format!("dot-serve-nodisk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let server = Server::bind(ServerConfig {
        listen: Some("127.0.0.1:0".to_owned()),
        workers: 2,
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let run = thread::spawn(move || server.run().expect("run"));
    let mut client = Client::connect(addr);
    let attach = |name: &str| Request::AttachTenant {
        name: Some(name.to_owned()),
        problem: spec(),
        deployed: None,
        controller: None,
    };

    // A healthy attach is durable: no NotDurable frame precedes it.
    let (failures, response) = exchange(&mut client, attach("healthy"));
    assert!(failures.is_empty(), "{failures:?}");
    assert!(
        matches!(response, Response::Attached { .. }),
        "{response:?}"
    );

    // While the hooked tenant is attached every snapshot write fails: its
    // attach and an applied migration are acknowledged, but only after a
    // typed frame saying the state is not on disk.
    let (failures, response) = exchange(&mut client, attach("tenant-__nodisk__"));
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].contains("injected write failure"),
        "{failures:?}"
    );
    let Response::Attached { tenant: nodisk, .. } = response else {
        panic!("attach: {response:?}");
    };
    let (failures, response) = exchange(
        &mut client,
        Request::Observe {
            tenant: nodisk,
            step: step("{\"phase\": \"analytical\"}"),
        },
    );
    let Response::ObserveDone { applications, .. } = response else {
        panic!("observe: {response:?}");
    };
    assert_eq!(applications, 1, "the phase flip must apply a migration");
    assert_eq!(failures.len(), 1, "{failures:?}");
    let on_disk = std::fs::read_to_string(state_dir.join("registry.json")).expect("snapshot");
    assert!(
        !on_disk.contains("__nodisk__"),
        "the failed writes must not have published the hooked tenant"
    );

    // Detaching the hooked tenant makes the next write succeed, so the
    // detach is durable again — and so is everything after it.
    let (failures, response) = exchange(&mut client, Request::DetachTenant { tenant: nodisk });
    assert!(failures.is_empty(), "{failures:?}");
    assert!(
        matches!(response, Response::Detached { .. }),
        "{response:?}"
    );
    let (failures, response) = exchange(&mut client, Request::Shutdown);
    assert!(failures.is_empty(), "{failures:?}");
    assert!(
        matches!(response, Response::ShuttingDown { .. }),
        "{response:?}"
    );
    run.join().expect("daemon unwinds cleanly");
    let on_disk = std::fs::read_to_string(state_dir.join("registry.json")).expect("snapshot");
    assert!(on_disk.contains("healthy") && !on_disk.contains("__nodisk__"));
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_failed_journal_append_fails_only_its_own_tenants_record() {
    use dot_serve::registry::{load_state, RegistryConfig};
    use dot_serve::Registry;

    let state_dir =
        std::env::temp_dir().join(format!("dot-serve-nodisk-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let registry = Registry::open(RegistryConfig {
        state_dir: Some(state_dir.clone()),
        ..RegistryConfig::default()
    })
    .expect("open");
    let attach = |name: &str| {
        registry
            .attach_with_durability(Some(name.to_owned()), &spec(), None, None)
            .expect("attach")
    };
    let flip = step("{\"phase\": \"analytical\"}");
    let migrate = |tenant: TenantId| {
        let counters = registry
            .observe(tenant, &flip, &mut |_| Ok(()))
            .unwrap_or_else(|_| panic!("tenant {tenant} observes"));
        assert_eq!(counters.applications, 1, "the phase flip applies a plan");
        counters.durability
    };

    let (healthy, _, durability) = attach("healthy");
    durability.expect("a healthy attach compacts");
    let (nodisk, _, durability) = attach("tenant-__nodisk__");
    let reason = durability.expect_err("a compaction holding the hooked tenant fails");
    assert!(reason.contains("injected write failure"), "{reason}");

    // While the hooked tenant is attached, the healthy tenant's record
    // still reaches the journal, and the hooked tenant's does not.
    migrate(healthy).expect("the healthy tenant's record is appended");
    let reason = migrate(nodisk).expect_err("the hooked tenant's record fails");
    assert!(reason.contains("injected write failure"), "{reason}");
    let on_disk = load_state(&state_dir)
        .expect("state loads")
        .expect("a manifest");
    assert_eq!(on_disk.tenants.len(), 1, "the hooked tenant never landed");
    assert_eq!(on_disk.tenants[0].tenant, healthy);
    assert_eq!(
        on_disk.tenants[0].applications, 1,
        "the record was replayed"
    );

    // A tenant whose attach could not compact is not in the manifest on
    // disk, where restore would skip its records: its migration cannot
    // be journaled either, and says so.
    let (late, _, durability) = attach("late");
    assert!(
        durability.is_err(),
        "a compaction holding the hooked tenant fails"
    );
    let reason = migrate(late).expect_err("a record the manifest cannot restore");
    assert!(reason.contains("injected write failure"), "{reason}");

    // Every compaction fails while the hooked tenant is attached — a
    // detach of the healthy tenant among them — and the next one after it
    // leaves succeeds.
    let (_, durability) = registry.detach(healthy).expect("detach");
    assert!(
        durability.is_err(),
        "a compaction holding the hooked tenant fails"
    );
    let (_, durability) = registry.detach(nodisk).expect("detach");
    durability.expect("the compaction without the hooked tenant lands");
    drop(registry);
    let on_disk = load_state(&state_dir)
        .expect("state loads")
        .expect("a manifest");
    assert_eq!(on_disk.tenants.len(), 1);
    assert_eq!(on_disk.tenants[0].tenant, late);
    assert_eq!(on_disk.tenants[0].applications, 1, "its migration landed");
    let _ = std::fs::remove_dir_all(&state_dir);
}

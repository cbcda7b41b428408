//! The durability acceptance test: `kill -9` a `dot-serve` daemon
//! mid-session, restart it on the same `--state-dir`, re-attach by tenant
//! id, and the resumed trajectory matches the uninterrupted offline
//! scenario simulator golden — a hard crash costs at most the quiet ticks
//! since the last durability point (attach/apply/detach/shutdown), never
//! the session.

mod scenario;

use dot_core::controller::{ControlEvent, TraceStep};
use dot_serve::framing::write_frame;
use dot_serve::protocol::{ProblemSpec, Request, RequestFrame, Response, ResponseFrame, TenantId};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
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

/// The simulator's fixed problem, spelled as the wire-protocol spec.
fn problem_spec() -> ProblemSpec {
    serde_json::from_str("{\"pool\": \"box2\", \"database\": \"tpcc:2\", \"sla\": 0.5}")
        .expect("problem spec")
}

/// Spawn the standalone daemon on an ephemeral port with a state dir and
/// wait for its readiness announcement. The stdout reader is returned
/// alongside the child: dropping it would close the pipe and turn the
/// daemon's final "shut down" println into a broken-pipe abort.
fn spawn_daemon(state_dir: &Path) -> (Child, SocketAddr, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dot-serve"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--state-dir",
            state_dir.to_str().expect("utf-8 state dir"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dot-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("announcement");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement {line:?}"))
        .parse()
        .expect("bound address");
    (child, addr, stdout)
}

fn step(text: &str) -> TraceStep {
    serde_json::from_str(text).expect("trace step")
}

#[test]
fn kill_dash_nine_then_restart_resumes_the_golden_trajectory() {
    // The flip trajectory: two migrations (ticks 2 and 5), so the crash
    // window sits between two applied plans and the resumed session still
    // has drift to detect and a plan to apply.
    let scenarios = scenario::scenarios();
    let flip = scenarios
        .iter()
        .find(|s| s.name == "flip")
        .expect("flip scenario");
    let golden = scenario::run(&flip.steps);

    let state_dir: PathBuf =
        std::env::temp_dir().join(format!("dot-serve-kill9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    // Daemon 1: attach and replay the first three script steps (ticks
    // 0..=4 — past the tick-2 migration, which is a durability point that
    // checkpoints the tenant at tick 3).
    let (mut child, addr, _stdout) = spawn_daemon(&state_dir);
    let mut client = Client::connect(addr);
    let tenant = client.attach("acme");
    let mut pre_kill = Vec::new();
    for s in &flip.steps[..3] {
        let (events, _) = client.observe(tenant, s);
        pre_kill.extend(events);
    }
    assert_eq!(
        pre_kill.as_slice(),
        &golden[..pre_kill.len()],
        "the pre-crash stream is a golden prefix"
    );

    // SIGKILL: no flush, no graceful anything.
    child.kill().expect("kill -9 the daemon");
    child.wait().expect("reap");

    // Daemon 2, same state dir. The durable checkpoint is the tick-2
    // apply (tick 3); the two quiet analytical ticks after it are the
    // documented loss window. The client discovers the resume point from
    // Stats and replays from there.
    let (mut child, addr, _stdout) = spawn_daemon(&state_dir);
    let mut client = Client::connect(addr);
    client.request(Request::Stats);
    let resumed_at = match client.recv().response {
        Response::Stats { tenants, ticks, .. } => {
            assert_eq!(tenants, 1, "the tenant survived the kill");
            assert_eq!(
                ticks, 3,
                "the durable checkpoint is the tick-2 apply, not the crash point"
            );
            ticks
        }
        other => panic!("stats: {other:?}"),
    };

    // Replay everything from the checkpoint: the rest of the analytical
    // phase, then the baseline steps — by the same tenant id.
    let mut resumed = Vec::new();
    let (events, _) = client.observe(tenant, &step("{\"phase\": \"analytical\", \"repeat\": 2}"));
    resumed.extend(events);
    let (events, ticks) = client.observe(tenant, &step("{\"baseline\": true, \"repeat\": 2}"));
    resumed.extend(events);
    assert_eq!(ticks, 7, "lifetime ticks span the crash");

    let expected: Vec<ControlEvent> = golden
        .iter()
        .filter(|e| e.tick() >= resumed_at)
        .cloned()
        .collect();
    assert_eq!(
        resumed, expected,
        "the resumed trajectory (including the second migration) matches the golden"
    );

    // Graceful shutdown this time.
    client.request(Request::Shutdown);
    match client.recv().response {
        Response::ShuttingDown { tenants } => {
            assert_eq!(tenants.len(), 1);
            assert_eq!(tenants[0].ticks, 7);
        }
        other => panic!("shutdown: {other:?}"),
    }
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "{status:?}");
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn kill_dash_nine_with_a_torn_journal_tail_resumes_both_tenants() {
    // Two tenants each run the whole flip trajectory (migrations at ticks
    // 2 and 5, each a journal record), the daemon is SIGKILLed, and a
    // half-written record is appended to the journal before the restart —
    // what a crash mid-append leaves. The restart ignores the torn tail
    // and restores both tenants at their last migration.
    let scenarios = scenario::scenarios();
    let flip = scenarios
        .iter()
        .find(|s| s.name == "flip")
        .expect("flip scenario");
    let golden = scenario::run(&flip.steps);
    let last_apply = golden
        .iter()
        .filter(|e| matches!(e, ControlEvent::Applied { .. }))
        .map(ControlEvent::tick)
        .max()
        .expect("the flip trajectory migrates");
    let applied = golden
        .iter()
        .filter(|e| matches!(e, ControlEvent::Applied { .. }))
        .count();
    assert!(applied >= 2, "the flip golden applies {applied} plans");

    let state_dir: PathBuf =
        std::env::temp_dir().join(format!("dot-serve-kill9-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    let (mut child, addr, _stdout) = spawn_daemon(&state_dir);
    let mut client = Client::connect(addr);
    let tenants = [client.attach("acme"), client.attach("globex")];
    for s in &flip.steps {
        for &tenant in &tenants {
            client.observe(tenant, s);
        }
    }
    child.kill().expect("kill -9 the daemon");
    child.wait().expect("reap");

    let journal = state_dir.join(dot_serve::registry::JOURNAL_FILE);
    let mut log = std::fs::read(&journal).expect("applied ticks left a journal");
    let records: Vec<&[u8]> = log
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(
        records.len(),
        applied * tenants.len(),
        "one record per applied tick"
    );
    let half = records[0][..records[0].len() / 2].to_vec();
    log.extend_from_slice(&half);
    std::fs::write(&journal, &log).expect("append the torn record");

    // The durable checkpoint is the last migration; the quiet ticks after
    // it are the documented loss window.
    let resumed_at = last_apply + 1;
    let (mut child, addr, _stdout) = spawn_daemon(&state_dir);
    let mut client = Client::connect(addr);
    client.request(Request::Stats);
    match client.recv().response {
        Response::Stats {
            tenants: n, ticks, ..
        } => {
            assert_eq!(n, 2, "both tenants survived the kill");
            assert_eq!(
                ticks,
                2 * resumed_at,
                "each resumes after its last migration"
            );
        }
        other => panic!("stats: {other:?}"),
    }
    let total: u64 = flip
        .steps
        .iter()
        .map(|s| s.repeat.unwrap_or(1) as u64)
        .sum();
    let rest = step(&format!(
        "{{\"baseline\": true, \"repeat\": {}}}",
        total - resumed_at
    ));
    let expected: Vec<ControlEvent> = golden
        .iter()
        .filter(|e| e.tick() >= resumed_at)
        .cloned()
        .collect();
    for &tenant in &tenants {
        let (events, ticks) = client.observe(tenant, &rest);
        assert_eq!(ticks, total, "lifetime ticks span the crash");
        assert_eq!(events, expected, "tenant {tenant} resumes the golden");
    }

    // A graceful shutdown compacts the journal into the manifest.
    client.request(Request::Shutdown);
    match client.recv().response {
        Response::ShuttingDown { tenants: flushed } => assert_eq!(flushed.len(), 2),
        other => panic!("shutdown: {other:?}"),
    }
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "{status:?}");
    assert_eq!(
        std::fs::metadata(&journal).expect("journal").len(),
        0,
        "shutdown leaves the state in the manifest"
    );
    let _ = std::fs::remove_dir_all(&state_dir);
}

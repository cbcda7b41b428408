//! The daemon itself: listeners, a bounded worker pool, and the
//! per-connection request loop.
//!
//! Threading model (std threads only — the workspace carries no async
//! runtime): one acceptor thread per listener pushes accepted connections
//! onto an mpsc channel; a bounded pool of worker threads pulls
//! connections off it and runs each connection's request loop to
//! completion. Sockets read with a short timeout, so an idle worker
//! notices the shutdown latch within one poll interval instead of
//! blocking forever; the latch-setter also makes a dummy connection to
//! each listener so blocking `accept` calls wake immediately.
//!
//! Graceful shutdown (`Shutdown` request): latch the flag — new requests
//! are answered with [`ProtocolError::ShuttingDown`] — then flush every
//! tenant (waiting out in-flight ticks, see [`Registry::flush_all`]),
//! answer with the summaries, wake the acceptors, and let [`Server::run`]
//! join every thread before returning.

use crate::framing::{parse_request, write_frame, FrameReader, Lined, MAX_FRAME_BYTES};
use crate::protocol::{
    ProtocolError, Request, Response, ResponseFrame, PROTOCOL_VERSION, SERVER_NAME,
};
use crate::registry::{lock_recover, Durability, ObserveFailure, Registry, RegistryConfig};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Everything a daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP listen address (e.g. `127.0.0.1:0` for an ephemeral port);
    /// `None` for Unix-socket-only daemons.
    pub listen: Option<String>,
    /// Unix-domain socket path; `None` for TCP-only daemons.
    pub unix_socket: Option<PathBuf>,
    /// Worker threads; `0` sizes the pool to the machine's available
    /// parallelism (capped at 8 — connections, not cores, are the unit).
    pub workers: usize,
    /// Per-frame size ceiling in bytes.
    pub max_frame_bytes: usize,
    /// Socket read timeout: how quickly idle workers notice shutdown.
    pub poll_interval: Duration,
    /// Registry state directory (manifest + journal); `None` disables
    /// persistence. With a directory, `bind` restores the state found
    /// there, so tenants survive restarts and clients resume by tenant id.
    pub state_dir: Option<PathBuf>,
    /// Per-tenant in-flight observe budget (overflow answers
    /// [`ProtocolError::Busy`]).
    pub tenant_inflight_limit: usize,
    /// The back-off hint stamped on `Busy` rejects, in milliseconds.
    pub busy_retry_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let registry = RegistryConfig::default();
        ServerConfig {
            listen: Some("127.0.0.1:0".to_owned()),
            unix_socket: None,
            workers: 0,
            max_frame_bytes: MAX_FRAME_BYTES,
            poll_interval: Duration::from_millis(25),
            state_dir: None,
            tenant_inflight_limit: registry.tenant_inflight_limit,
            busy_retry_ms: registry.busy_retry_ms,
        }
    }
}

/// One accepted client connection, transport-erased.
enum Connection {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Connection {
    fn try_clone(&self) -> io::Result<Connection> {
        match self {
            Connection::Tcp(s) => s.try_clone().map(Connection::Tcp),
            #[cfg(unix)]
            Connection::Unix(s) => s.try_clone().map(Connection::Unix),
        }
    }

    fn set_read_timeout(&self, dur: Duration) -> io::Result<()> {
        match self {
            Connection::Tcp(s) => s.set_read_timeout(Some(dur)),
            #[cfg(unix)]
            Connection::Unix(s) => s.set_read_timeout(Some(dur)),
        }
    }

    fn set_nodelay(&self) -> io::Result<()> {
        match self {
            // A request/reply stream of small frames stalls ~40 ms per
            // round trip behind Nagle's algorithm: ship each frame as
            // soon as it is written.
            Connection::Tcp(s) => s.set_nodelay(true),
            #[cfg(unix)]
            Connection::Unix(_) => Ok(()),
        }
    }
}

impl Read for Connection {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Connection::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Connection::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Connection {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Connection::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Connection::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Connection::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Connection::Unix(s) => s.flush(),
        }
    }
}

/// Where to poke dummy connections so blocking acceptors wake up.
struct Waker {
    tcp: Option<SocketAddr>,
    #[cfg(unix)]
    unix: Option<PathBuf>,
}

impl Waker {
    fn wake(&self) {
        if let Some(addr) = self.tcp {
            let _ = TcpStream::connect(addr);
        }
        #[cfg(unix)]
        if let Some(path) = &self.unix {
            let _ = UnixStream::connect(path);
        }
    }
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    config: ServerConfig,
    registry: Arc<Registry>,
    tcp: Option<TcpListener>,
    local_addr: Option<SocketAddr>,
    #[cfg(unix)]
    unix: Option<UnixListener>,
}

impl Server {
    /// Bind the configured listeners (at least one of `listen` /
    /// `unix_socket` must be set). A stale Unix socket file left by a
    /// crashed daemon is removed before binding.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let tcp = match &config.listen {
            Some(addr) => Some(TcpListener::bind(addr.as_str())?),
            None => None,
        };
        #[cfg(unix)]
        let unix = match &config.unix_socket {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                Some(UnixListener::bind(path)?)
            }
            None => None,
        };
        #[cfg(not(unix))]
        if config.unix_socket.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ));
        }
        let local_addr = tcp.as_ref().map(|l| l.local_addr()).transpose()?;
        #[cfg(unix)]
        let none_bound = tcp.is_none() && unix.is_none();
        #[cfg(not(unix))]
        let none_bound = tcp.is_none();
        if none_bound {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no listener configured: set a TCP address or a unix socket path",
            ));
        }
        let registry = Registry::open(RegistryConfig {
            state_dir: config.state_dir.clone(),
            tenant_inflight_limit: config.tenant_inflight_limit,
            busy_retry_ms: config.busy_retry_ms,
            ..RegistryConfig::default()
        })?;
        Ok(Server {
            registry: Arc::new(registry),
            config,
            tcp,
            local_addr,
            #[cfg(unix)]
            unix,
        })
    }

    /// The bound TCP address (the actual port when `:0` was requested).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// The daemon's registry (tests observe reuse counters through it).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Serve until a client requests `Shutdown`; returns after every
    /// acceptor and worker thread joined and the Unix socket file (if
    /// any) was removed.
    pub fn run(self) -> io::Result<()> {
        let registry = &self.registry;
        let config = &self.config;
        let waker = Waker {
            tcp: self.local_addr,
            #[cfg(unix)]
            unix: self.config.unix_socket.clone(),
        };
        let workers = match config.workers {
            0 => thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            n => n,
        };
        let (tx, rx) = mpsc::channel::<Connection>();
        let rx = Arc::new(Mutex::new(rx));
        thread::scope(|s| {
            for _ in 0..workers {
                let rx = Arc::clone(&rx);
                let waker = &waker;
                s.spawn(move || loop {
                    // Hold the receiver lock only for the pull, never
                    // while serving; recover it if a sibling panicked
                    // mid-pull (the channel itself is still consistent).
                    let conn = { lock_recover(&rx).recv() };
                    match conn {
                        Ok(conn) => {
                            // A panic below tenant containment (framing,
                            // transport) costs this connection, never the
                            // worker or the daemon.
                            let _ = catch_unwind(AssertUnwindSafe(|| {
                                serve_connection(conn, registry, config, waker)
                            }));
                        }
                        Err(_) => break, // acceptors gone, queue drained
                    }
                });
            }
            if let Some(listener) = &self.tcp {
                let tx = tx.clone();
                s.spawn(move || accept_loop(listener.incoming(), Connection::Tcp, tx, registry));
            }
            #[cfg(unix)]
            if let Some(listener) = &self.unix {
                let tx = tx.clone();
                s.spawn(move || accept_loop(listener.incoming(), Connection::Unix, tx, registry));
            }
            // Workers see a disconnected channel once every acceptor
            // dropped its clone.
            drop(tx);
        });
        #[cfg(unix)]
        if let Some(path) = &self.config.unix_socket {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Accept until the shutdown latch is set (the latch-setter wakes us with
/// a dummy connection, which is dropped unserved).
fn accept_loop<S, I>(
    incoming: I,
    wrap: fn(S) -> Connection,
    tx: mpsc::Sender<Connection>,
    registry: &Registry,
) where
    I: Iterator<Item = io::Result<S>>,
{
    for conn in incoming {
        if registry.is_shutting_down() {
            break;
        }
        if let Ok(conn) = conn {
            if tx.send(wrap(conn)).is_err() {
                break;
            }
        }
    }
}

/// One connection's request loop: read lines, answer frames, until EOF,
/// an unrecoverable framing error, or shutdown.
fn serve_connection(
    conn: Connection,
    registry: &Registry,
    config: &ServerConfig,
    waker: &Waker,
) -> io::Result<()> {
    conn.set_read_timeout(config.poll_interval)?;
    conn.set_nodelay()?;
    let mut writer = conn.try_clone()?;
    let mut reader = FrameReader::new(conn, config.max_frame_bytes);
    loop {
        match reader.next_line()? {
            Lined::Eof => return Ok(()),
            Lined::TimedOut => {
                // Idle connections are closed once the daemon drains.
                if registry.is_shutting_down() {
                    return Ok(());
                }
            }
            Lined::Oversized => {
                // The stream cannot be resynchronized past an oversized
                // line: report and hang up.
                write_frame(
                    &mut writer,
                    &ResponseFrame {
                        id: 0,
                        response: Response::Error {
                            error: ProtocolError::Oversized {
                                limit_bytes: config.max_frame_bytes,
                            },
                        },
                    },
                )?;
                return Ok(());
            }
            Lined::Line(line) => {
                let done = match parse_request(&line) {
                    Err(reject) => {
                        write_frame(&mut writer, &reject)?;
                        false
                    }
                    // A frame that arrived after the latch gets the typed
                    // reject (not silence) before this connection drains.
                    Ok(frame) if registry.is_shutting_down() => {
                        write_frame(
                            &mut writer,
                            &ResponseFrame {
                                id: frame.id,
                                response: Response::Error {
                                    error: ProtocolError::ShuttingDown,
                                },
                            },
                        )?;
                        true
                    }
                    Ok(frame) => {
                        serve_request(frame.id, frame.request, &mut writer, registry, waker)?
                    }
                };
                if done || registry.is_shutting_down() {
                    return Ok(());
                }
            }
        }
    }
}

/// Answer one request; `Ok(true)` means the connection should close (the
/// request was the shutdown trigger).
fn serve_request(
    id: u64,
    request: Request,
    writer: &mut Connection,
    registry: &Registry,
    waker: &Waker,
) -> io::Result<bool> {
    let reply = |writer: &mut Connection, response: Response| {
        write_frame(writer, &ResponseFrame { id, response })
    };
    // A failed durability point goes out as its own frame just before the
    // terminal frame that would otherwise imply the state is on disk.
    let durable = |writer: &mut Connection, durability: Durability| match durability {
        Ok(()) => Ok(()),
        Err(reason) => reply(writer, Response::NotDurable { reason }),
    };
    match request {
        Request::Hello { version } => {
            let response = if version == PROTOCOL_VERSION {
                Response::Hello {
                    version: PROTOCOL_VERSION,
                    server: SERVER_NAME.to_owned(),
                }
            } else {
                Response::Error {
                    error: ProtocolError::UnsupportedVersion {
                        requested: version,
                        supported: PROTOCOL_VERSION,
                    },
                }
            };
            reply(writer, response)?;
        }
        Request::Provision { problem, solver } => {
            let response = match registry.provision(&problem, solver.as_deref()) {
                Ok(recommendation) => Response::Provisioned {
                    recommendation: Box::new(recommendation),
                },
                Err(error) => Response::Error { error },
            };
            reply(writer, response)?;
        }
        Request::AttachTenant {
            name,
            problem,
            deployed,
            controller,
        } => {
            let response =
                match registry.attach_with_durability(name, &problem, deployed, controller) {
                    Ok((tenant, name, durability)) => {
                        durable(writer, durability)?;
                        Response::Attached { tenant, name }
                    }
                    Err(error) => Response::Error { error },
                };
            reply(writer, response)?;
        }
        Request::Observe { tenant, step } => {
            // Stream each tick's events as the tick completes, then the
            // terminal counter frame — or the typed error that stopped
            // the stream (events already shipped stay valid).
            let streamed = registry.observe(tenant, &step, &mut |event| {
                write_frame(
                    writer,
                    &ResponseFrame {
                        id,
                        response: Response::Event {
                            tenant,
                            event: event.clone(),
                        },
                    },
                )
            });
            let response = match streamed {
                Ok(counters) => {
                    durable(writer, counters.durability)?;
                    Response::ObserveDone {
                        tenant,
                        ticks: counters.ticks,
                        triggers: counters.triggers,
                        applications: counters.applications,
                        schedule: counters.last_schedule,
                    }
                }
                Err(ObserveFailure::Protocol(error)) => Response::Error { error },
                Err(ObserveFailure::Io(e)) => return Err(e),
            };
            reply(writer, response)?;
        }
        Request::DetachTenant { tenant } => {
            let response = match registry.detach(tenant) {
                Ok((summary, durability)) => {
                    durable(writer, durability)?;
                    Response::Detached { summary }
                }
                Err(error) => Response::Error { error },
            };
            reply(writer, response)?;
        }
        Request::Stats => {
            let (tenants, totals, cache) = registry.stats();
            reply(
                writer,
                Response::Stats {
                    tenants,
                    ticks: totals.ticks,
                    triggers: totals.triggers,
                    applications: totals.applications,
                    cache,
                },
            )?;
        }
        Request::Shutdown => {
            if registry.begin_shutdown() {
                // First shutdown wins: drain (flush waits out in-flight
                // ticks), answer with the flushed summaries, then wake
                // the blocking acceptors so the whole daemon unwinds.
                let (tenants, durability) = registry.flush_all();
                durable(writer, durability)?;
                reply(writer, Response::ShuttingDown { tenants })?;
                waker.wake();
                return Ok(true);
            }
            reply(
                writer,
                Response::Error {
                    error: ProtocolError::ShuttingDown,
                },
            )?;
            return Ok(true);
        }
    }
    Ok(false)
}

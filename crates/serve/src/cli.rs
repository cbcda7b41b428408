//! The daemon's argument surface, shared by the standalone `dot-serve`
//! binary and the `dot-cli serve` passthrough (one parser, so the two
//! entry points cannot drift).

use crate::server::{Server, ServerConfig};
use std::io::Write;
use std::path::PathBuf;

/// The flag reference printed on `--help` and on bad usage.
pub const USAGE: &str = "\
usage: dot-serve [--listen <addr>] [--unix-socket <path>]
                 [--workers <n>] [--cache-capacity <entries>]
                 [--state-dir <path>] [--tenant-inflight <n>]
                 [--busy-retry-ms <ms>]

Long-running provisioning daemon speaking the JSON-lines protocol
(see the `dot_serve::protocol` docs). One request per line; `Observe`
streams one `Event` frame per control event. Shut down with a
`Shutdown` request — the daemon drains in-flight ticks and answers
with every tenant's flushed summary.

options:
  --listen <addr>            TCP listen address (default 127.0.0.1:7411;
                             use port 0 for an ephemeral port)
  --unix-socket <path>       also listen on a Unix-domain socket
  --workers <n>              worker threads (default: CPU count, max 8)
  --cache-capacity <n>       accepted and ignored (there is no shared
                             estimate cache to size any more)
  --state-dir <path>         persist the tenant registry here (manifest on
                             attach/detach/shutdown, a journal record per
                             applied plan; restored on startup, so
                             clients resume by tenant id)
  --tenant-inflight <n>      per-tenant in-flight observe budget before
                             requests are answered Busy (default 4, min 1)
  --busy-retry-ms <ms>       back-off hint stamped on Busy rejects
                             (default 50)
";

/// Parse `args` (without the program name) into a [`ServerConfig`].
pub fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig {
        listen: None,
        ..ServerConfig::default()
    };
    let mut unix: Option<PathBuf> = None;
    let mut listen: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--listen" => listen = Some(value("--listen")?),
            "--unix-socket" => unix = Some(PathBuf::from(value("--unix-socket")?)),
            "--workers" => {
                config.workers = value("--workers")?
                    .parse::<usize>()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--cache-capacity" => {
                value("--cache-capacity")?
                    .parse::<usize>()
                    .map_err(|e| format!("--cache-capacity: {e}"))?;
            }
            "--state-dir" => {
                config.state_dir = Some(PathBuf::from(value("--state-dir")?));
            }
            "--tenant-inflight" => {
                let n = value("--tenant-inflight")?
                    .parse::<usize>()
                    .map_err(|e| format!("--tenant-inflight: {e}"))?;
                if n == 0 {
                    return Err("--tenant-inflight must be at least 1".to_owned());
                }
                config.tenant_inflight_limit = n;
            }
            "--busy-retry-ms" => {
                config.busy_retry_ms = value("--busy-retry-ms")?
                    .parse::<u64>()
                    .map_err(|e| format!("--busy-retry-ms: {e}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // TCP stays on by default; `--unix-socket` alone turns it off only
    // when no `--listen` was asked for.
    config.listen = match (listen, &unix) {
        (Some(addr), _) => Some(addr),
        (None, Some(_)) => None,
        (None, None) => Some("127.0.0.1:7411".to_owned()),
    };
    config.unix_socket = unix;
    Ok(config)
}

/// Run the daemon: bind, announce the bound endpoints on stdout (one
/// `listening on ...` line each, parseable by wrappers waiting for
/// readiness), and serve until a `Shutdown` request. Returns the process
/// exit code.
pub fn run(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return 0;
    }
    let config = match parse_args(args) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("dot-serve: {msg}\n{USAGE}");
            return 2;
        }
    };
    let server = match Server::bind(config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("dot-serve: bind: {e}");
            return 2;
        }
    };
    if let Some(addr) = server.local_addr() {
        println!("listening on {addr}");
    }
    if let Some(path) = &config.unix_socket {
        println!("listening on unix:{}", path.display());
    }
    // Wrappers block on the announcement lines; make sure they ship even
    // through a pipe.
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => {
            println!("shut down");
            0
        }
        Err(e) => {
            eprintln!("dot-serve: {e}");
            1
        }
    }
}

//! The daemon's per-request CPU path without the socket: decode a request
//! line, serve it from the [`Registry`], and encode every response frame
//! into a caller-owned buffer — what `dot-serve` does for each line it
//! reads, minus the transport.

use dot_core::advisor::{Advisor, ProvisionError, Recommendation};
use dot_core::controller::ControlEvent;
use dot_core::toc::CachedEstimator;
use dot_serve::framing::{parse_request, parse_response, write_frame};
use dot_serve::protocol::ResolvedProblem;
use dot_serve::registry::ObserveFailure;
use dot_serve::{ProblemSpec, ProtocolError, Registry, Request, Response, ResponseFrame};
use std::sync::Arc;
use std::time::Instant;

/// Answer one request line, appending its response frames to `out`.
pub fn serve_line(registry: &Registry, line: &str, out: &mut Vec<u8>) {
    let frame = match parse_request(line) {
        Ok(frame) => frame,
        Err(reject) => return encode(out, &reject),
    };
    let id = frame.id;
    let response = match frame.request {
        Request::Provision { problem, solver } => {
            provisioned(registry.provision(&problem, solver.as_deref()))
        }
        Request::AttachTenant {
            name,
            problem,
            deployed,
            controller,
        } => match registry.attach(name, &problem, deployed, controller) {
            Ok((tenant, name)) => Response::Attached { tenant, name },
            Err(error) => Response::Error { error },
        },
        Request::Observe { tenant, step } => {
            let streamed = registry.observe(tenant, &step, &mut |event| {
                encode_event(out, id, tenant, event);
                Ok(())
            });
            observe_done(tenant, streamed)
        }
        other => unsupported(&other),
    };
    encode(out, &ResponseFrame { id, response });
}

/// Self time of each stage of one traced operation, in nanoseconds.
#[derive(Clone, Copy, Default)]
pub struct Spans {
    pub decode: u64,
    /// `Registry::provision` or `Registry::observe`, minus the event
    /// frames encoded inside it.
    pub registry: u64,
    pub encode: u64,
}

/// Times of the calls behind one solve — resolve, advisor build (forcing
/// the profile, premium reference and constraints), recommend — in
/// nanoseconds.
#[derive(Clone, Copy, Default)]
pub struct SolveSpans {
    pub resolve: u64,
    pub build: u64,
    pub recommend: u64,
}

impl SolveSpans {
    pub fn total(&self) -> u64 {
        self.resolve + self.build + self.recommend
    }
}

fn timed<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *acc += start.elapsed().as_nanos() as u64;
    r
}

/// [`serve_line`] for `Provision` and `Observe` lines, with a span around
/// each public call it makes: the decode, the registry call, and every
/// encode. The registry is the same, so the answers are the same bytes.
pub fn serve_line_traced(registry: &Registry, line: &str, out: &mut Vec<u8>) -> Spans {
    let mut s = Spans::default();
    let frame = match timed(&mut s.decode, || parse_request(line)) {
        Ok(frame) => frame,
        Err(reject) => {
            timed(&mut s.encode, || encode(out, &reject));
            return s;
        }
    };
    let id = frame.id;
    let mut inner = 0u64;
    let start = Instant::now();
    let response = match frame.request {
        Request::Provision { problem, solver } => {
            provisioned(registry.provision(&problem, solver.as_deref()))
        }
        Request::Observe { tenant, step } => {
            let streamed = registry.observe(tenant, &step, &mut |event| {
                timed(&mut inner, || encode_event(out, id, tenant, event));
                Ok(())
            });
            observe_done(tenant, streamed)
        }
        other => unsupported(&other),
    };
    s.registry = (start.elapsed().as_nanos() as u64).saturating_sub(inner);
    s.encode = inner;
    timed(&mut s.encode, || {
        encode(out, &ResponseFrame { id, response })
    });
    s
}

/// Time the calls a solve of `problem` makes, through `cache`: what
/// `Registry::provision` runs for a request, and `Registry::attach` for a
/// tenant's baseline. A failed call ends the solve; the answer itself is
/// discarded (the oracle checks the registry's).
pub fn solve_traced(
    cache: &Arc<CachedEstimator>,
    problem: &ProblemSpec,
    solver: &str,
) -> SolveSpans {
    let mut s = SolveSpans::default();
    let Ok(resolved) = timed(&mut s.resolve, || problem.resolve()) else {
        return s;
    };
    let built = timed(&mut s.build, || {
        advisor(&resolved, Some(Arc::clone(cache))).inspect(|advisor| {
            advisor.context();
        })
    });
    if let Ok(advisor) = built {
        let _ = timed(&mut s.recommend, || advisor.recommend(solver));
    }
    s
}

/// [`solve_traced`] for one `Provision` request line.
pub fn provision_traced(cache: &Arc<CachedEstimator>, line: &str) -> SolveSpans {
    match parse_request(line).map(|frame| frame.request) {
        Ok(Request::Provision { problem, solver }) => {
            solve_traced(cache, &problem, solver.as_deref().unwrap_or("dot"))
        }
        _ => SolveSpans::default(),
    }
}

/// Open an advisory session the way `Registry::provision` and
/// `Registry::attach` do: the problem's SLA, refinements and engine,
/// through `cache` when one is given.
pub fn advisor(
    resolved: &ResolvedProblem,
    cache: Option<Arc<CachedEstimator>>,
) -> Result<Advisor<'_>, ProvisionError> {
    let mut builder = Advisor::builder(&resolved.schema, &resolved.pool, &resolved.workload)
        .sla(resolved.sla)
        .refinements(resolved.refinements);
    if let Some(cache) = cache {
        builder = builder.toc_cache(cache);
    }
    if let Some(engine) = resolved.engine {
        builder = builder.engine(engine);
    }
    builder.build()
}

fn provisioned(answer: Result<Recommendation, ProtocolError>) -> Response {
    match answer {
        Ok(recommendation) => Response::Provisioned {
            recommendation: Box::new(recommendation),
        },
        Err(error) => Response::Error { error },
    }
}

fn observe_done(
    tenant: u64,
    streamed: Result<dot_serve::registry::TenantCounters, ObserveFailure>,
) -> Response {
    match streamed {
        Ok(counters) => Response::ObserveDone {
            tenant,
            ticks: counters.ticks,
            triggers: counters.triggers,
            applications: counters.applications,
            schedule: counters.last_schedule,
        },
        Err(ObserveFailure::Protocol(error)) => Response::Error { error },
        Err(ObserveFailure::Io(e)) => unreachable!("event sink writes to memory: {e}"),
    }
}

fn unsupported(request: &Request) -> Response {
    Response::Error {
        error: ProtocolError::Malformed {
            reason: format!("the benchmark does not stream {request:?}"),
        },
    }
}

fn encode_event(out: &mut Vec<u8>, id: u64, tenant: u64, event: &ControlEvent) {
    encode(
        out,
        &ResponseFrame {
            id,
            response: Response::Event {
                tenant,
                event: event.clone(),
            },
        },
    );
}

fn encode(out: &mut Vec<u8>, frame: &ResponseFrame) {
    write_frame(out, frame).expect("writing to memory cannot fail");
}

/// Decode every frame of one operation's output.
pub fn decode_frames(bytes: &[u8]) -> Vec<ResponseFrame> {
    String::from_utf8_lossy(bytes)
        .lines()
        .map(|line| parse_response(line).expect("the registry's frames parse"))
        .collect()
}

/// Whether two outputs of one operation agree once the only wall-clock
/// field of any frame, a recommendation's `provenance.elapsed_ms`, is
/// ignored.
pub fn same_answer(a: &[u8], b: &[u8]) -> bool {
    if a == b {
        return true;
    }
    let strip = |bytes: &[u8]| {
        let mut frames = decode_frames(bytes);
        for frame in &mut frames {
            if let Response::Provisioned { recommendation } = &mut frame.response {
                recommendation.provenance.elapsed_ms = 0;
            }
        }
        frames
    };
    strip(a) == strip(b)
}

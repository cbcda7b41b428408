//! Replays: one pass of a workload's request stream through a registry
//! built from fresh state, timing each operation from outside.

use crate::gen::Workload;
use crate::oracle::{self, Oracle};
use crate::serve::{
    provision_traced, same_answer, serve_line, serve_line_traced, solve_traced, SolveSpans, Spans,
};
use crate::stats::median;
use dot_core::controller::{expand_trace, Controller, ControllerConfig};
use dot_core::toc::{CacheStats, CachedEstimator};
use dot_serve::framing::parse_request;
use dot_serve::registry::{RegistryConfig, STATE_FILE};
use dot_serve::{Registry, Request};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Times `Registry::new` is timed per replay where it is the whole set-up
/// (provision-mix). It takes microseconds, so one timing is at the mercy
/// of a single page fault or preemption; the replay reports the median.
const BARE_SETUP_REPEATS: usize = 64;

fn nanos(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The output bytes of every operation of one replay.
#[derive(Default)]
pub struct Reference {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Reference {
    pub fn get(&self, op: usize) -> &[u8] {
        let start = if op == 0 { 0 } else { self.ends[op - 1] };
        &self.bytes[start..self.ends[op]]
    }

    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// Per-tenant set-up stage times of one traced replay, in nanoseconds.
#[derive(Clone, Copy, Default)]
pub struct SetupSpans {
    /// The tenant's baseline solve, on a shadow cache.
    pub solve: SolveSpans,
    /// `Registry::attach` (tenant-steady) or this tenant's share of
    /// `Registry::open` (tenant-drift).
    pub attach: u64,
}

/// Shadow timings of one op, made outside its timing on state of their
/// own that is fed the same requests: a `Provision`'s solve through a
/// shadow cache of the registry's capacity, or a tick's `expand_trace`
/// and `Controller::observe` on a controller built the way
/// `Registry::attach` builds one.
#[derive(Clone, Copy, Default)]
pub struct Shadow {
    pub solve: SolveSpans,
    pub expand: u64,
    pub controller: u64,
}

pub struct Replay {
    pub setup_ns: u64,
    pub wall_ns: u64,
    pub lat_ns: Vec<u64>,
    /// Traced replays only: stage self times and shadow timings per op.
    pub spans: Vec<Spans>,
    pub setup_spans: Vec<SetupSpans>,
    pub shadow: Vec<Shadow>,
    /// Ops whose output differs from the reference replay's.
    pub mismatches: usize,
    pub cache: CacheStats,
    pub snapshot_bytes: u64,
}

pub struct Bench<'w> {
    w: &'w Workload,
    dir: PathBuf,
    /// tenant-drift: the registry snapshot every replay restores.
    snapshot: Option<String>,
    attach_lines: Vec<String>,
}

impl<'w> Bench<'w> {
    /// Prepare the workload's replays under the private directory `dir`.
    /// tenant-drift attaches its tenants once here, to a persisting
    /// registry, and keeps the snapshot that registry wrote.
    pub fn new(w: &'w Workload, dir: PathBuf) -> std::io::Result<Bench<'w>> {
        let attach_lines = w
            .tenants
            .iter()
            .enumerate()
            .map(|(k, t)| t.attach_line(k))
            .collect();
        let mut bench = Bench {
            w,
            dir,
            snapshot: None,
            attach_lines,
        };
        if w.persist {
            let state = bench.dir.join("prepare");
            let registry = Registry::open(bench.config(w.cache_capacity, Some(state.clone())))?;
            let mut out = Vec::new();
            for line in &bench.attach_lines {
                serve_line(&registry, line, &mut out);
            }
            drop(registry);
            bench.snapshot = Some(std::fs::read_to_string(state.join(STATE_FILE))?);
            std::fs::remove_dir_all(&state)?;
        }
        Ok(bench)
    }

    fn config(&self, capacity: usize, state_dir: Option<PathBuf>) -> RegistryConfig {
        RegistryConfig {
            cache_capacity: capacity,
            state_dir,
            ..RegistryConfig::default()
        }
    }

    /// Bring up a registry from fresh state and time it: `Registry::new`
    /// (provision-mix), `Registry::new` plus every tenant's attach
    /// (tenant-steady), or `Registry::open` restoring the prepared
    /// snapshot (tenant-drift).
    fn setup(
        &self,
        capacity: usize,
        traced: bool,
        setup_spans: &mut Vec<SetupSpans>,
    ) -> std::io::Result<(Registry, u64, Option<PathBuf>)> {
        if traced {
            setup_spans.extend(self.shadow_baselines());
        }
        if let Some(snapshot) = &self.snapshot {
            let state = self.dir.join("state");
            if state.exists() {
                std::fs::remove_dir_all(&state)?;
            }
            std::fs::create_dir_all(&state)?;
            std::fs::write(state.join(STATE_FILE), snapshot)?;
            let start = Instant::now();
            let registry = Registry::open(self.config(capacity, Some(state.clone())))?;
            let ns = nanos(start);
            let share = ns / self.w.tenants.len() as u64;
            for s in setup_spans.iter_mut() {
                s.attach = share;
            }
            return Ok((registry, ns, Some(state)));
        }
        if self.attach_lines.is_empty() {
            let mut times = Vec::with_capacity(BARE_SETUP_REPEATS);
            let mut registry = None;
            for _ in 0..BARE_SETUP_REPEATS {
                drop(registry.take());
                let start = Instant::now();
                registry = Some(Registry::new(self.config(capacity, None)));
                times.push(nanos(start) as f64);
            }
            let registry = registry.expect("at least one registry is built");
            return Ok((registry, median(&times) as u64, None));
        }
        let mut out = Vec::new();
        let start = Instant::now();
        let registry = Registry::new(self.config(capacity, None));
        if traced {
            for (line, spans) in self.attach_lines.iter().zip(setup_spans.iter_mut()) {
                let Ok(frame) = parse_request(line) else {
                    unreachable!("generated attach lines parse")
                };
                let Request::AttachTenant {
                    name,
                    problem,
                    deployed,
                    controller,
                } = frame.request
                else {
                    unreachable!("attach lines carry AttachTenant")
                };
                let at = Instant::now();
                let _ = registry.attach(name, &problem, deployed, controller);
                spans.attach = nanos(at);
            }
        } else {
            for line in &self.attach_lines {
                serve_line(&registry, line, &mut out);
            }
        }
        Ok((registry, nanos(start), None))
    }

    /// Time the solve each tenant's attach runs through a cache of their
    /// own, so the registry's cache counters stay those of an untraced
    /// replay.
    fn shadow_baselines(&self) -> Vec<SetupSpans> {
        let cache = Arc::new(CachedEstimator::with_capacity(self.w.cache_capacity));
        let solver = ControllerConfig::default().solver;
        self.w
            .tenants
            .iter()
            .map(|t| SetupSpans {
                solve: solve_traced(&cache, &t.problem, &solver),
                attach: 0,
            })
            .collect()
    }

    /// One replay from fresh state. With `reference`, every op's output is
    /// compared with it (outside the timing); with `keep`, the outputs are
    /// returned as a new reference. `capacity` overrides the workload's
    /// cache capacity (the provision-mix reference replay). Traced replays
    /// need the oracle's baselines for their shadow controllers.
    pub fn replay(
        &self,
        traced: Option<&Oracle>,
        reference: Option<&Reference>,
        keep: bool,
        capacity: usize,
    ) -> std::io::Result<(Replay, Option<Reference>)> {
        let wall = Instant::now();
        let mut setup_spans = Vec::new();
        let (registry, setup_ns, state) =
            self.setup(capacity, traced.is_some(), &mut setup_spans)?;
        let n = self.w.ops.len();
        let mut lat_ns = Vec::with_capacity(n);
        let mut spans = Vec::new();
        let mut shadow = Vec::new();
        let mut kept = keep.then(Reference::default);
        let mut mismatches = 0;
        let config = ControllerConfig::default();
        let shadow_cache = Arc::new(CachedEstimator::with_capacity(self.w.cache_capacity));
        let mut controllers: Vec<Controller> = match traced {
            Some(o) => o
                .baselines
                .iter()
                .map(|b| oracle::controller(b, &config).with_toc_cache(Arc::clone(&shadow_cache)))
                .collect(),
            None => Vec::new(),
        };
        let mut out = Vec::with_capacity(64 << 10);
        for (i, line) in self.w.ops.iter().enumerate() {
            out.clear();
            if traced.is_some() {
                let start = Instant::now();
                let s = serve_line_traced(&registry, line, &mut out);
                lat_ns.push(nanos(start));
                spans.push(s);
            } else {
                let start = Instant::now();
                serve_line(&registry, line, &mut out);
                lat_ns.push(nanos(start));
            }
            if let Some(o) = traced {
                let mut sh = Shadow::default();
                if o.baselines.is_empty() {
                    sh.solve = provision_traced(&shadow_cache, line);
                } else {
                    let k = i % controllers.len();
                    let tick = i / controllers.len();
                    let b = &o.baselines[k];
                    let step = &self.w.tenants[k].steps[tick];
                    let start = Instant::now();
                    let observed = expand_trace(
                        &b.resolved.schema,
                        &b.resolved.workload,
                        std::slice::from_ref(step),
                    )
                    .expect("generated steps are valid");
                    sh.expand = nanos(start);
                    let start = Instant::now();
                    for workload in &observed {
                        let _ = controllers[k].observe(workload);
                    }
                    sh.controller = nanos(start);
                    controllers[k].drain_events();
                }
                shadow.push(sh);
            }
            if let Some(r) = reference {
                if !same_answer(r.get(i), &out) {
                    mismatches += 1;
                }
            }
            if let Some(k) = kept.as_mut() {
                k.bytes.extend_from_slice(&out);
                k.ends.push(k.bytes.len());
            }
        }
        let cache = registry.cache().stats();
        // Dropping the registry joins its persister, so the snapshot on
        // disk is final before it is measured.
        drop(registry);
        let mut snapshot_bytes = 0;
        if let Some(state) = state {
            snapshot_bytes = std::fs::metadata(state.join(STATE_FILE))?.len();
            std::fs::remove_dir_all(&state)?;
        }
        let replay = Replay {
            setup_ns,
            wall_ns: nanos(wall),
            lat_ns,
            spans,
            setup_spans,
            shadow,
            mismatches,
            cache,
            snapshot_bytes,
        };
        Ok((replay, kept))
    }
}

//! Independent re-derivation of every answer a replay must give, run
//! outside the timed replays: provision answers from a fresh `Advisor`
//! with no TOC cache, tenant event streams from an offline `Controller`
//! with no TOC cache fed the same trace.

use crate::gen::Workload;
use crate::serve::decode_frames;
use dot_core::advisor::{Advisor, ProvisionError, Recommendation};
use dot_core::controller::{expand_trace, ControlEvent, Controller, ControllerConfig};
use dot_core::replan::MigrationDecision;
use dot_core::toc::estimate_toc;
use dot_dbms::Layout;
use dot_serve::protocol::{ResolvedProblem, ScheduleSummary};
use dot_serve::{ProblemSpec, ProtocolError, Request, Response};

/// What one operation must answer.
pub enum Expect {
    /// A recommendation (layout, objective, and the premium layout's
    /// objective under the same problem), or a typed error's kind.
    Provision(Result<(Layout, f64, f64), &'static str>),
    /// One tick: its events, then the tenant's cumulative counters.
    Tick {
        events: Vec<ControlEvent>,
        ticks: u64,
        triggers: usize,
        applications: usize,
        schedule: Option<ScheduleSummary>,
    },
}

/// A tenant's resolved baseline problem and cold baseline solve.
pub struct Baseline {
    pub resolved: ResolvedProblem,
    pub deployed: Layout,
    pub toc_vs_premium: f64,
    pub layouts_investigated: usize,
    pub layouts_pruned: usize,
}

pub struct Oracle {
    pub ops: Vec<Expect>,
    pub baselines: Vec<Baseline>,
}

/// What a tick did, from the oracle's events.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum TickKind {
    Quiescent,
    Replan,
    Applied,
}

/// Controller event totals over one replay.
#[derive(Default)]
pub struct ControlCounts {
    pub triggers: usize,
    pub stays: usize,
    pub migrations: usize,
    pub deferred: usize,
    /// Model seconds: sum of the `makespan_seconds` of applied plans.
    pub makespan_s: f64,
}

fn solve<'r>(
    resolved: &'r ResolvedProblem,
    solver: &str,
) -> Result<(Advisor<'r>, Recommendation), ProvisionError> {
    let advisor = crate::serve::advisor(resolved, None)?;
    let rec = advisor.recommend(solver)?;
    Ok((advisor, rec))
}

fn premium_objective(advisor: &Advisor<'_>) -> f64 {
    let problem = advisor.problem();
    estimate_toc(problem, &problem.premium_layout()).objective_cents
}

fn expect_provision(spec: &ProblemSpec, solver: Option<&str>) -> Expect {
    let answer = spec.resolve().and_then(|resolved| {
        let (advisor, rec) = solve(&resolved, solver.unwrap_or("dot"))?;
        Ok((
            rec.layout,
            rec.estimate.objective_cents,
            premium_objective(&advisor),
        ))
    });
    Expect::Provision(answer.map_err(|e| e.kind()))
}

fn baseline(spec: &ProblemSpec, config: &ControllerConfig) -> Baseline {
    let resolved = spec.resolve().expect("tenant presets resolve");
    let (deployed, ratio, investigated, pruned) = {
        let (advisor, rec) =
            solve(&resolved, &config.solver).expect("tenant baselines are feasible");
        let ratio = rec.estimate.objective_cents / premium_objective(&advisor);
        (
            rec.layout,
            ratio,
            rec.provenance.layouts_investigated,
            rec.provenance.layouts_pruned,
        )
    };
    Baseline {
        resolved,
        deployed,
        toc_vs_premium: ratio,
        layouts_investigated: investigated,
        layouts_pruned: pruned,
    }
}

/// Build a controller the way `Registry::attach` does, minus the cache.
pub fn controller(b: &Baseline, config: &ControllerConfig) -> Controller {
    let r = &b.resolved;
    let mut controller = Controller::new(
        &r.schema,
        &r.pool,
        &r.workload,
        b.deployed.clone(),
        r.sla,
        config.clone(),
    )
    .expect("tenant controllers open")
    .with_refinements(r.refinements);
    if let Some(engine) = r.engine {
        controller = controller.with_engine(engine);
    }
    controller
}

pub fn derive(w: &Workload) -> Oracle {
    let config = ControllerConfig::default();
    if w.tenants.is_empty() {
        let ops = w
            .ops
            .iter()
            .map(
                |line| match dot_serve::framing::parse_request(line).map(|f| f.request) {
                    Ok(Request::Provision { problem, solver }) => {
                        expect_provision(&problem, solver.as_deref())
                    }
                    _ => unreachable!("provision-mix streams only Provision requests"),
                },
            )
            .collect();
        return Oracle {
            ops,
            baselines: Vec::new(),
        };
    }
    let baselines: Vec<Baseline> = w
        .tenants
        .iter()
        .map(|t| baseline(&t.problem, &config))
        .collect();
    let mut controllers: Vec<Controller> =
        baselines.iter().map(|b| controller(b, &config)).collect();
    let mut triggers = vec![0usize; baselines.len()];
    let mut applications = vec![0usize; baselines.len()];
    let mut schedules: Vec<Option<ScheduleSummary>> = vec![None; baselines.len()];
    let n = w.tenants.len();
    let ticks = w.ops.len() / n;
    let mut ops = Vec::with_capacity(w.ops.len());
    for tick in 0..ticks {
        for k in 0..n {
            let b = &baselines[k];
            let step = &w.tenants[k].steps[tick];
            let observed = expand_trace(
                &b.resolved.schema,
                &b.resolved.workload,
                std::slice::from_ref(step),
            )
            .expect("generated steps are valid");
            let c = &mut controllers[k];
            for workload in &observed {
                c.observe(workload).expect("offline ticks succeed");
            }
            let events = c.drain_events();
            for event in &events {
                match event {
                    ControlEvent::Triggered { .. } => triggers[k] += 1,
                    ControlEvent::Applied { .. } => applications[k] += 1,
                    ControlEvent::Planned {
                        waves,
                        makespan_seconds,
                        ..
                    } => {
                        schedules[k] = Some(ScheduleSummary {
                            waves: *waves,
                            makespan_seconds: *makespan_seconds,
                        })
                    }
                    _ => {}
                }
            }
            ops.push(Expect::Tick {
                events,
                ticks: c.ticks(),
                triggers: triggers[k],
                applications: applications[k],
                schedule: schedules[k],
            });
        }
    }
    Oracle { ops, baselines }
}

impl Oracle {
    /// Check one operation's output frames; `true` when they match.
    pub fn matches(&self, op: usize, output: &[u8]) -> bool {
        let frames = decode_frames(output);
        match &self.ops[op] {
            Expect::Provision(expected) => {
                let [frame] = frames.as_slice() else {
                    return false;
                };
                match (&frame.response, expected) {
                    (Response::Provisioned { recommendation }, Ok((layout, objective, _))) => {
                        recommendation.layout == *layout
                            && recommendation.estimate.objective_cents == *objective
                    }
                    (
                        Response::Error {
                            error: ProtocolError::Provision { error },
                        },
                        Err(kind),
                    ) => error.kind() == *kind,
                    _ => false,
                }
            }
            Expect::Tick {
                events,
                ticks,
                triggers,
                applications,
                schedule,
            } => {
                let Some((done, streamed)) = frames.split_last() else {
                    return false;
                };
                let streamed_ok = streamed.len() == events.len()
                    && streamed.iter().zip(events).all(|(frame, want)| {
                        matches!(&frame.response, Response::Event { event, .. } if event == want)
                    });
                let done_ok = matches!(
                    &done.response,
                    Response::ObserveDone { ticks: t, triggers: tr, applications: a, schedule: s, .. }
                        if t == ticks && tr == triggers && a == applications && s == schedule
                );
                streamed_ok && done_ok
            }
        }
    }

    /// Mean recommended-TOC ÷ premium-TOC: over feasible requests on
    /// provision-mix, over the tenants' baseline solves otherwise.
    pub fn toc_vs_premium(&self) -> f64 {
        let ratios: Vec<f64> = if self.baselines.is_empty() {
            self.ops
                .iter()
                .filter_map(|e| match e {
                    Expect::Provision(Ok((_, objective, premium))) => Some(objective / premium),
                    _ => None,
                })
                .collect()
        } else {
            self.baselines.iter().map(|b| b.toc_vs_premium).collect()
        };
        crate::stats::mean(&ratios)
    }

    /// Per-op tick kinds (empty on provision-mix).
    pub fn tick_kinds(&self) -> Vec<TickKind> {
        self.ops
            .iter()
            .filter_map(|e| match e {
                Expect::Tick { events, .. } => Some(
                    if events
                        .iter()
                        .any(|e| matches!(e, ControlEvent::Applied { .. }))
                    {
                        TickKind::Applied
                    } else if events
                        .iter()
                        .any(|e| matches!(e, ControlEvent::Triggered { .. }))
                    {
                        TickKind::Replan
                    } else {
                        TickKind::Quiescent
                    },
                ),
                _ => None,
            })
            .collect()
    }

    pub fn control_counts(&self) -> ControlCounts {
        let mut c = ControlCounts::default();
        for e in &self.ops {
            let Expect::Tick { events, .. } = e else {
                continue;
            };
            let mut planned_makespan = 0.0;
            for event in events {
                match event {
                    ControlEvent::Triggered { .. } => c.triggers += 1,
                    ControlEvent::Deferred { .. } => c.deferred += 1,
                    ControlEvent::Planned {
                        decision,
                        makespan_seconds,
                        ..
                    } => {
                        planned_makespan = *makespan_seconds;
                        if matches!(
                            decision,
                            MigrationDecision::Stay | MigrationDecision::Unchanged
                        ) {
                            c.stays += 1;
                        }
                    }
                    ControlEvent::Applied { .. } => {
                        c.migrations += 1;
                        c.makespan_s += planned_makespan;
                    }
                    ControlEvent::Observed { .. } => {}
                }
            }
        }
        c
    }
}

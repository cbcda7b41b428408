//! Procedure 1 — the DOT optimization sweep — and the four-phase pipeline of
//! Figure 2 (profiling → optimization → validation → refinement), plus the
//! SLA-relaxation loop of §4.5.3.

use crate::constraints::{self, Constraints};
use crate::moves::coded_moves;
use crate::problem::Problem;
use crate::toc::{
    Dominance, Estimator, ObjectiveBound, SearchWork, TocEstimate, TIME_BOUND_MARGIN,
};
use dot_dbms::layout::space_fits;
use dot_dbms::memo::{Abandon, TrialBounds};
use dot_dbms::Layout;
use dot_profiler::{ProfileSource, WorkloadProfile};
use dot_workloads::spec::PerfMetric;
use dot_workloads::{SlaSpec, Workload};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Result of one optimization sweep (Procedure 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DotOutcome {
    /// The recommended layout `L*`, or `None` when no investigated layout
    /// satisfied the constraints ("infeasible", §3).
    pub layout: Option<Layout>,
    /// Estimate of the recommended layout.
    pub estimate: Option<TocEstimate>,
    /// Layouts investigated (`|∆| + 1`, counting `L_0`): what the
    /// per-candidate sweep enumerates. Pruned candidates still count: they
    /// were enumerated, just not estimated. So does every candidate a
    /// certified skip passes over (a doomed placement, an abandoned
    /// trial), so those skips never change this count.
    pub layouts_investigated: usize,
    /// Candidates the dominance cut ([`ObjectiveBound`]) skipped without
    /// estimating: what the per-candidate sweep cuts. Doomed placements
    /// and abandoned trials are not counted here, so certified skips never
    /// change this count. Defaults to 0 when parsing pre-pruning
    /// serializations.
    #[serde(default)]
    pub layouts_pruned: usize,
    /// Wall-clock time of the sweep.
    #[serde(skip, default)]
    pub elapsed: Duration,
}

/// Procedure 1: start from `L_0` (everything on the most expensive class),
/// apply the sorted move sequence one by one, keeping each move whose
/// resulting layout stays feasible **and improves the best TOC seen**, and
/// return the feasible layout with the minimum estimated TOC.
///
/// Note on fidelity: the paper's pseudocode updates `L ← L_new` on *every*
/// feasible move. Taken literally, later (higher-σ, i.e. worse
/// time-per-cent) moves for a group overwrite its earlier cheaper
/// placement, and the sweep ends far from the optimum — irreconcilable with
/// the paper's measured result that DOT lands within 16% of exhaustive
/// search (§4.4.3). Gating acceptance on TOC improvement (greedy descent
/// over the same sorted move sequence) reproduces the published behaviour;
/// we take that as the intended reading of "returns the layout with the
/// minimum estimated TOC amongst all the candidates".
pub fn optimize(
    problem: &Problem<'_>,
    profile: &WorkloadProfile,
    cons: &Constraints,
) -> DotOutcome {
    optimize_with(problem, profile, cons, &Estimator::direct())
}

/// [`optimize`] with an explicit TOC estimator, so the sweep's inner-loop
/// estimates price from a session's compiled templates (the advisory
/// facade passes its session's [`Estimator`]).
pub fn optimize_with(
    problem: &Problem<'_>,
    profile: &WorkloadProfile,
    cons: &Constraints,
    toc: &Estimator<'_>,
) -> DotOutcome {
    optimize_with_pruning(problem, profile, cons, toc, true)
}

/// [`optimize_with`] with the dominance cut switchable: `prune: false`
/// runs the historical estimate-every-candidate sweep. Both settings
/// return the identical recommendation (the cut only skips candidates
/// whose objective lower bound already meets the incumbent; see
/// [`ObjectiveBound`]) — the perf-trajectory distillation measures the two
/// against each other.
///
/// With pruning on, two more certified cuts skip candidates the sweep
/// would reject anyway, without changing the outcome or its counters (see
/// `SweepCuts`): doomed placements are not priced at all, and a trial is
/// abandoned once it certainly loses.
pub fn optimize_with_pruning(
    problem: &Problem<'_>,
    profile: &WorkloadProfile,
    cons: &Constraints,
    toc: &Estimator<'_>,
    prune: bool,
) -> DotOutcome {
    optimize_with_work(problem, profile, cons, toc, prune).0
}

/// [`optimize_with_pruning`], with the work the sweep did.
pub fn optimize_with_work(
    problem: &Problem<'_>,
    profile: &WorkloadProfile,
    cons: &Constraints,
    toc: &Estimator<'_>,
    prune: bool,
) -> (DotOutcome, SearchWork) {
    let start = Instant::now();
    // Every candidate is the incumbent plus one group move, so each is
    // priced against the committed incumbent: only the queries that read
    // the moved group are chosen again, and only an accepted candidate is
    // committed.
    let mut pricer = toc.pricer(problem);
    let mut current = problem.premium_layout();
    let est0 = pricer.estimate(&current);
    let bound = prune.then(|| ObjectiveBound::new(problem, &est0));
    let mut cuts = prune.then(|| SweepCuts::new(problem, profile, cons, &est0));
    let mut investigated = 1usize;
    let mut pruned = 0usize;

    // The best layout is always `current`: it only moves on acceptance.
    let (mut best_est, mut best_toc) = if cons.satisfied(problem, &current, &est0) {
        let t = est0.objective_cents;
        (Some(est0), t)
    } else {
        (None, f64::INFINITY)
    };

    // Each candidate is stepped in place from `current`, and its `S_j`
    // vector, summed once, feeds the bound, `C(L)` and the capacity check.
    // A rejected estimate's per-query buffer is handed to the next trial.
    let mut candidate = current.clone();
    let mut space = Vec::with_capacity(problem.pool.len());
    let mut spare = Vec::new();
    for m in coded_moves(problem, profile) {
        candidate.clone_from(&current);
        m.step(profile, &mut candidate);
        investigated += 1;
        candidate.space_per_class_into(problem.schema, problem.pool, &mut space);
        // Dominance cut: a candidate whose objective lower bound already
        // meets the incumbent cannot be accepted (acceptance is strict),
        // so its estimate is never needed.
        if let Some(lb) = bound
            .as_ref()
            .and_then(|b| b.lower_bound_of_space(problem, &space))
        {
            if lb >= best_toc {
                pruned += 1;
                continue;
            }
        }
        if !space_fits(&space, problem.pool) {
            continue;
        }
        let (group, code) = (m.group_index(), m.code());
        let est = match &mut cuts {
            Some(cuts) => {
                if cuts.doomed(group, code) {
                    continue;
                }
                let layout_cost = problem.cost_model.cost_of_space(&space, problem.pool);
                let trial = {
                    let bounds = cuts.bounds(layout_cost, best_toc);
                    pricer.trial_within(&candidate, layout_cost, &mut spare, &bounds)
                };
                match trial {
                    Ok(est) => est,
                    Err(abandon) => {
                        if cuts.abandon_dooms(abandon) {
                            cuts.doom(group, code);
                        }
                        continue;
                    }
                }
            }
            None => pricer.trial(&candidate, &space, std::mem::take(&mut spare)),
        };
        if cons.performance_satisfied(&est) && est.objective_cents < best_toc {
            best_toc = est.objective_cents;
            pricer.commit();
            std::mem::swap(&mut current, &mut candidate);
            if let Some(displaced) = best_est.replace(est) {
                spare = displaced.per_query_ms;
            }
            if let Some(cuts) = &mut cuts {
                cuts.lift_dooms();
            }
        } else {
            if let Some(cuts) = cuts.as_mut().filter(|c| c.rejection_dooms(&est)) {
                cuts.doom(group, code);
            }
            spare = est.per_query_ms;
        }
    }

    let work = SearchWork {
        templates_priced: pricer.templates_priced(),
        layouts_visited: investigated,
    };
    let outcome = DotOutcome {
        layout: best_est.is_some().then_some(current),
        estimate: best_est,
        layouts_investigated: investigated,
        layouts_pruned: pruned,
        elapsed: start.elapsed(),
    };
    (outcome, work)
}

/// The sweep's certified cuts beside the dominance cut: doomed placements
/// and early-exit trials. Both rest on the premise [`ObjectiveBound`]
/// uses: a query's time is monotone under pointwise class dominance
/// ([`Dominance`]) up to `TIME_BOUND_MARGIN` (`m`), i.e. moving objects to
/// classes that are no faster leaves every query at least `(1 − m)` times
/// as slow. Every candidate is the incumbent with one group moved, and
/// only a candidate that meets every constraint *and* strictly improves
/// the incumbent's objective is accepted.
///
/// **Doomed placements.** When a candidate — group `g` on placement `p` —
/// fails the performance constraints by more than the margin, every
/// candidate that puts `g` on a placement no faster than `p` at each
/// position (the rest of the layout is the same incumbent) fails them too:
///
/// - a query over its cap by more than the margin (`t · (1 − m) > cap`)
///   stays over it, as the doomed candidate's time is at least
///   `t · (1 − m)`;
/// - a stream time `t` whose `t · (1 − m) · (1 − 4nε)` misses the
///   throughput floor keeps missing it: each weighted term of the doomed
///   candidate's sum is at least `(1 − m)` times this one's, rounding is
///   monotone in each operand of `+` and `×` on non-negative values, and
///   re-associating `n` terms moves a sum by less than `2nε` relatively.
///   The shaved time must be positive, because
///   `throughput_tasks_per_hour(t ≤ 0)` is `0`, a "miss" that a slower
///   candidate with a positive time need not repeat.
///
/// So such a rejection dooms those placements until the next acceptance
/// moves the incumbent. A doomed candidate is skipped without being
/// priced; it counts as investigated, not as pruned.
///
/// **Early-exit trials.** A trial is abandoned ([`TrialBounds`]) when a
/// query's time is over its cap, or when a lower bound on its stream time
/// already misses the throughput floor (again only for a positive bound)
/// or, for a response-time workload, prices the candidate at or above the
/// incumbent objective. Both tests compute exactly what the estimate
/// computes from its stream time, and both are monotone in it: rounding is
/// monotone in each operand of `+`, `×` and `/` on non-negative values, so
/// the throughput `c · 3.6e6 / t` does not rise and `C(L) · (t / 3.6e6)`
/// does not fall as `t` grows (for `C(L) ≥ 0`, which positive prices
/// give). A hopeless lower bound therefore means a hopeless estimate. The
/// stream-time bound (`Pricer::trial_within`) charges each stale query
/// not yet priced its premium time shaved by `m` when the premium class
/// dominates every class — no layout runs a query faster than the
/// all-premium one — and `0` otherwise. An abandoned candidate would have
/// been rejected, so skipping its remaining templates changes nothing; an
/// accepted one is always priced in full, so its estimate is
/// bit-identical.
struct SweepCuts<'a> {
    workload: &'a Workload,
    caps_ms: Option<&'a [f64]>,
    floor: Option<f64>,
    /// Per query, the least time any layout can give it (empty when the
    /// workload's weights are not all finite and non-negative, which turns
    /// the stream-time bound off).
    floors_ms: Vec<f64>,
    /// `(1 − m) · (1 − 4nε)`: what a rejected stream time is shaved by
    /// before it dooms.
    doom_shave: f64,
    dominance: Dominance,
    classes: usize,
    /// Per group: its size, and where its doomers start in `doomers`.
    arity: Vec<usize>,
    starts: Vec<usize>,
    /// Per group, how many doomers it has since the last acceptance.
    doomed: Vec<usize>,
    /// The placement codes that doom their group's slower placements, a
    /// run per group with room for every placement.
    doomers: Vec<usize>,
}

impl<'a> SweepCuts<'a> {
    fn new(
        problem: &Problem<'a>,
        profile: &WorkloadProfile,
        cons: &'a Constraints,
        premium: &TocEstimate,
    ) -> SweepCuts<'a> {
        let dominance = Dominance::new(problem);
        let workload = problem.workload;
        let weighted = workload
            .queries
            .iter()
            .all(|q| q.weight.is_finite() && q.weight >= 0.0);
        let floors_ms = if !weighted {
            Vec::new()
        } else if dominance.dominates_all(problem.pool.most_expensive().0) {
            premium
                .per_query_ms
                .iter()
                .map(|t| t * (1.0 - TIME_BOUND_MARGIN))
                .collect()
        } else {
            vec![0.0; workload.queries.len()]
        };
        let n = workload.queries.len() as f64;
        let mut starts = Vec::with_capacity(profile.groups.len());
        let mut next = 0;
        for g in &profile.groups {
            starts.push(next);
            next += g.placement_count();
        }
        SweepCuts {
            workload,
            caps_ms: cons.response_caps_ms.as_deref(),
            floor: cons.throughput_floor,
            floors_ms,
            doom_shave: (1.0 - TIME_BOUND_MARGIN) * (1.0 - 4.0 * n * f64::EPSILON),
            dominance,
            classes: problem.pool.len(),
            arity: profile.groups.iter().map(|g| g.objects.len()).collect(),
            starts,
            doomed: vec![0; profile.groups.len()],
            doomers: vec![0; next],
        }
    }

    /// The trial bounds of a candidate costing `layout_cost` against the
    /// incumbent objective `best`.
    fn bounds(&self, layout_cost: f64, best: f64) -> TrialBounds<'_, impl Fn(f64) -> bool + '_> {
        let over_incumbent = self.workload.metric == PerfMetric::ResponseTime && layout_cost >= 0.0;
        TrialBounds {
            caps_ms: self.caps_ms,
            floors_ms: &self.floors_ms,
            hopeless: move |t: f64| {
                (over_incumbent && layout_cost * self.workload.execution_hours(t) >= best)
                    || self.misses_floor(t)
            },
        }
    }

    /// Whether a stream time of at least `t` misses the throughput floor.
    fn misses_floor(&self, t: f64) -> bool {
        self.floor
            .is_some_and(|floor| t > 0.0 && self.workload.throughput_tasks_per_hour(t) < floor)
    }

    /// Whether an abandoned trial's reason clears the margin.
    fn abandon_dooms(&self, abandon: Abandon) -> bool {
        match abandon {
            Abandon::OverCap { query, time_ms } => self
                .caps_ms
                .and_then(|caps| caps.get(query))
                .is_some_and(|&cap| time_ms * (1.0 - TIME_BOUND_MARGIN) > cap),
            Abandon::Hopeless { stream_floor_ms } => {
                self.misses_floor(stream_floor_ms * self.doom_shave)
            }
        }
    }

    /// Whether a priced, rejected estimate fails a performance constraint
    /// by more than the margin.
    fn rejection_dooms(&self, est: &TocEstimate) -> bool {
        let over_cap = self.caps_ms.is_some_and(|caps| {
            est.per_query_ms
                .iter()
                .zip(caps)
                .any(|(t, &cap)| t * (1.0 - TIME_BOUND_MARGIN) > cap)
        });
        over_cap || self.misses_floor(est.stream_time_ms * self.doom_shave)
    }

    /// Doom every placement of `group` no faster than placement `code`.
    fn doom(&mut self, group: usize, code: usize) {
        self.doomers[self.starts[group] + self.doomed[group]] = code;
        self.doomed[group] += 1;
    }

    /// Whether some doomer of `group` makes placement `code` no faster.
    fn doomed(&self, group: usize, code: usize) -> bool {
        let start = self.starts[group];
        let doomers = &self.doomers[start..start + self.doomed[group]];
        doomers
            .iter()
            .any(|&doomer| self.no_faster(self.arity[group], code, doomer))
    }

    /// Whether placement `a` is no faster than placement `b` at each of
    /// their `k` positions (codes are base-`M` class digits).
    fn no_faster(&self, k: usize, mut a: usize, mut b: usize) -> bool {
        let m = self.classes;
        for _ in 0..k {
            if !self.dominance.no_faster(a % m, b % m) {
                return false;
            }
            a /= m;
            b /= m;
        }
        true
    }

    /// An acceptance moved the incumbent: no placement is doomed any more.
    fn lift_dooms(&mut self) {
        self.doomed.fill(0);
    }
}

/// Outcome of the validation phase: a simulated test run of the recommended
/// layout checked against *measured* reference performance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Measured (simulated test-run) estimate of the recommended layout.
    pub measured: TocEstimate,
    /// PSR of the measured run against measured-reference caps.
    pub psr: f64,
    /// Whether the test run met every constraint.
    pub passed: bool,
    /// Graded per-class violation margins of the measured run against the
    /// measured caps (`ratio > 1` = violating), so telemetry consumers see
    /// *how far* each class sits from its constraint, not just pass/fail.
    /// Defaults to empty when parsing pre-margin serializations, keeping
    /// the serde surface backward-compatible.
    #[serde(default)]
    pub margins: Vec<crate::constraints::ViolationMargin>,
}

impl ValidationReport {
    /// The graded SLA pressure of the run: how far the worst class sits
    /// beyond its cap (`0` when the run passed everywhere, or when the
    /// report predates margins).
    pub fn sla_pressure(&self) -> f64 {
        crate::constraints::sla_pressure(&self.margins)
    }
}

/// Result of the full pipeline (Figure 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineResult {
    /// Final optimization outcome.
    pub outcome: DotOutcome,
    /// Validation of the final recommendation (absent when infeasible).
    pub validation: Option<ValidationReport>,
    /// Refinement rounds performed (0 = first recommendation validated).
    pub refinement_rounds: usize,
}

/// Run the four phases of Figure 2: profile the workload, optimize, validate
/// the recommendation with a test run, and — if validation fails — refine by
/// re-profiling from *runtime statistics* (test-run counts) and re-running
/// the optimization, up to `max_refinements` times.
///
/// This is a thin paper-shaped wrapper over the advisory facade: it opens a
/// one-shot [`Advisor`](crate::advisor::Advisor) session, runs the `"dot"`
/// solver, and folds the uniform [`Recommendation`](crate::advisor::Recommendation)
/// (or typed infeasibility) back into the pipeline's historical result
/// shape. New code should use the facade directly.
pub fn run_pipeline(
    problem: &Problem<'_>,
    source: ProfileSource,
    max_refinements: usize,
) -> PipelineResult {
    let mut advisor = crate::advisor::Advisor::for_problem(problem, source);
    advisor.set_refinements(max_refinements);
    match advisor.recommend("dot") {
        Ok(rec) => PipelineResult {
            outcome: DotOutcome {
                layout: Some(rec.layout),
                estimate: Some(rec.estimate),
                layouts_investigated: rec.provenance.layouts_investigated,
                layouts_pruned: rec.provenance.layouts_pruned,
                elapsed: Duration::from_millis(rec.provenance.elapsed_ms),
            },
            validation: rec.validation,
            refinement_rounds: rec.provenance.refinement_rounds,
        },
        Err(err) => {
            let layouts_investigated = match err {
                crate::advisor::ProvisionError::Infeasible {
                    layouts_investigated,
                    ..
                } => layouts_investigated,
                _ => 0,
            };
            PipelineResult {
                outcome: DotOutcome {
                    layout: None,
                    estimate: None,
                    layouts_investigated,
                    layouts_pruned: 0,
                    elapsed: Duration::ZERO,
                },
                validation: None,
                refinement_rounds: 0,
            }
        }
    }
}

/// §4.5.3's relaxation loop: when the constraints admit no feasible layout
/// (e.g. a tight capacity limit plus a tight SLA), slightly relax the
/// relative SLA and retry until a recommendation emerges. Returns the
/// outcome together with the SLA that finally admitted it.
pub fn optimize_with_relaxation(
    problem: &Problem<'_>,
    profile: &WorkloadProfile,
    relaxation_step: f64,
    min_ratio: f64,
) -> (DotOutcome, SlaSpec) {
    assert!(relaxation_step > 0.0 && relaxation_step < 1.0);
    let mut sla = problem.sla;
    loop {
        let cons = constraints::derive_with_estimator(problem, sla, &Estimator::direct());
        let outcome = optimize(problem, profile, &cons);
        if outcome.layout.is_some() || sla.ratio <= min_ratio {
            return (outcome, sla);
        }
        let next = (sla.ratio * (1.0 - relaxation_step)).max(min_ratio);
        sla = SlaSpec::relative(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dot_dbms::memo::PlanMemo;
    use dot_dbms::EngineConfig;
    use dot_profiler::profile_workload;
    use dot_storage::catalog;
    use dot_workloads::{synth, SlaSpec};

    fn setup() -> (
        dot_dbms::Schema,
        dot_storage::StoragePool,
        dot_workloads::Workload,
    ) {
        let s = synth::bench_schema(5_000_000.0, 120.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        (s, pool, w)
    }

    #[test]
    fn dot_keeps_premium_when_nothing_feasible_saves() {
        // The mixed workload's random writes make every off-premium move
        // violate a 0.5 SLA (Table 1: RW on any cheaper class is 10–60x
        // slower) — DOT must then return the premium layout itself.
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let cons = constraints::derive(&p);
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let out = optimize(&p, &prof, &cons);
        let est = out.estimate.expect("premium is feasible");
        assert!((est.toc_cents_per_pass - cons.reference.toc_cents_per_pass).abs() < 1e-9);
    }

    #[test]
    fn dot_beats_the_premium_layout_on_toc() {
        // Scan-dominated workload: CPU bounds the degradation, so cheaper
        // classes are admissible and DOT must exploit them.
        let (s, pool, _) = setup();
        let w =
            dot_workloads::Workload::dss("scans", vec![synth::seq_read_query(&s).with_weight(3.0)]);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let cons = constraints::derive(&p);
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let out = optimize(&p, &prof, &cons);
        let est = out.estimate.expect("feasible");
        assert!(est.toc_cents_per_pass < cons.reference.toc_cents_per_pass);
        // And the recommendation honours the SLA caps.
        assert!(cons.satisfied(&p, out.layout.as_ref().unwrap(), &est));
        assert!(out.layouts_investigated > 1);
    }

    #[test]
    fn tighter_sla_cannot_be_cheaper() {
        let (s, pool, w) = setup();
        let toc_at = |ratio: f64| {
            let p =
                crate::Problem::new(&s, &pool, &w, SlaSpec::relative(ratio), EngineConfig::dss());
            let cons = constraints::derive(&p);
            let prof = profile_workload(
                &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
                ProfileSource::Estimate,
            );
            optimize(&p, &prof, &cons)
                .estimate
                .expect("feasible")
                .toc_cents_per_pass
        };
        let loose = toc_at(0.25);
        let tight = toc_at(0.9);
        assert!(loose <= tight + 1e-12, "loose {loose} vs tight {tight}");
    }

    #[test]
    fn infeasible_constraints_return_none_and_relaxation_recovers() {
        let (s, pool, w) = setup();
        // Cap the premium class below the database size: L_0 violates
        // capacity, and a ratio-1.0 SLA forbids every move.
        let mut tight_pool = pool.clone();
        tight_pool.set_capacity("H-SSD", s.total_size_gb() * 0.5);
        let p = crate::Problem::new(
            &s,
            &tight_pool,
            &w,
            SlaSpec::relative(1.0),
            EngineConfig::dss(),
        );
        let cons = constraints::derive(&p);
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &tight_pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let out = optimize(&p, &prof, &cons);
        assert!(out.layout.is_none(), "ratio-1.0 + tight capacity must fail");

        let (relaxed, final_sla) = optimize_with_relaxation(&p, &prof, 0.2, 0.005);
        assert!(relaxed.layout.is_some(), "relaxation must recover");
        assert!(final_sla.ratio < 1.0);
    }

    #[test]
    fn pipeline_validates_and_reports() {
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.25), EngineConfig::dss());
        let r = run_pipeline(&p, ProfileSource::Estimate, 2);
        assert!(r.outcome.layout.is_some());
        let v = r.validation.expect("validated");
        assert!(v.psr >= 0.0 && v.psr <= 1.0);
    }

    #[test]
    fn moves_accumulate_across_groups() {
        // With several groups, the final layout can differ from L0 in more
        // than one group — Procedure 1 applies moves to the *current* L.
        let s = dot_dbms::SchemaBuilder::new("multi")
            .table("hot", 2_000_000.0, 120.0)
            .primary_index(8.0)
            .table("cold", 2_000_000.0, 120.0)
            .primary_index(8.0)
            .build();
        let pool = catalog::box2();
        let hot = s.table_by_name("hot").unwrap().id;
        let queries = vec![dot_dbms::query::QuerySpec::read(
            "hot_scan",
            dot_dbms::query::ReadOp::of(dot_dbms::query::Rel::Scan(
                dot_dbms::query::ScanSpec::full(hot),
            )),
        )];
        let w = dot_workloads::Workload::dss("hotcold", queries);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let cons = constraints::derive(&p);
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let out = optimize(&p, &prof, &cons);
        let layout = out.layout.unwrap();
        let premium = pool.most_expensive();
        // The cold group is never read: it must land on the cheapest class.
        let cold_obj = s.table_by_name("cold").unwrap().object;
        let cheapest = pool.ids_by_price_desc().last().copied().unwrap();
        assert_eq!(layout.class_of(cold_obj), cheapest);
        // And at least two groups moved off the premium class.
        let moved = s
            .objects()
            .iter()
            .filter(|o| layout.class_of(o.id) != premium)
            .count();
        assert!(moved >= 2, "moved {moved}");
    }
}

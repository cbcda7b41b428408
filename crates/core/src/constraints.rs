//! Performance and capacity constraints (§2.4, §4.3).
//!
//! The paper expresses SLAs *relative to the best case*: a layout must keep
//! each query within `1/ratio` of its response time on the all-premium
//! layout (DSS), or keep throughput above `ratio` of the all-premium
//! throughput (OLTP). Constraints are derived once from `L_0` and then
//! checked against every candidate's estimate.

use crate::problem::Problem;
use crate::toc::{Estimator, TocEstimate};
use dot_dbms::Layout;
use dot_workloads::spec::{performance_satisfaction_ratio, PerfMetric};
use dot_workloads::{SlaSpec, Workload};
use serde::{Deserialize, Serialize};

/// One performance constraint's graded verdict: how close an estimate runs
/// to its cap, as a ratio where `1.0` sits exactly on the constraint and
/// anything above violates it. Response-time classes report
/// `time / cap` per query; throughput workloads report one `floor /
/// throughput` line named `"throughput"` — in both conventions *larger is
/// worse*, so thresholds compose across metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViolationMargin {
    /// The constraint's class: the query name, or `"throughput"`.
    pub class: String,
    /// Load ratio against the cap (`> 1` = violating).
    pub ratio: f64,
}

/// The graded pressure a set of margins exerts: how far the worst class
/// sits *beyond* its constraint (`0` when every class is within its cap).
pub fn sla_pressure(margins: &[ViolationMargin]) -> f64 {
    worst_excess(margins.iter().map(|m| m.ratio))
}

/// How far the worst of some violation ratios sits beyond 1 (`0` when
/// none does).
fn worst_excess(ratios: impl Iterator<Item = f64>) -> f64 {
    ratios.map(|r| r - 1.0).fold(0.0, f64::max).max(0.0)
}

/// A query's violation ratio: its time over its cap.
fn cap_ratio(time_ms: f64, cap_ms: f64) -> f64 {
    if cap_ms > 0.0 {
        time_ms / cap_ms
    } else {
        1.0
    }
}

/// A throughput floor's violation ratio: the floor over the throughput.
fn floor_ratio(floor: f64, tasks_per_hour: f64) -> f64 {
    if tasks_per_hour > 0.0 {
        floor / tasks_per_hour
    } else if floor > 0.0 {
        f64::MAX // a stalled workload violates any positive floor
    } else {
        1.0
    }
}

/// Derived constraints for one problem instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraints {
    /// Per-query response caps in ms (DSS workloads).
    pub response_caps_ms: Option<Vec<f64>>,
    /// Throughput floor in tasks/hour (OLTP workloads).
    pub throughput_floor: Option<f64>,
    /// The reference (all-premium) estimate the caps were derived from.
    pub reference: TocEstimate,
    /// The SLA the caps encode.
    pub sla: SlaSpec,
}

/// Derive constraints from the premium layout under the problem's SLA.
pub fn derive(problem: &Problem<'_>) -> Constraints {
    derive_with_estimator(problem, problem.sla, &Estimator::direct())
}

/// Derive constraints for an explicit SLA, obtaining the premium-layout
/// reference through `toc` — so sessions price it from their compiled
/// templates like every other estimate.
pub fn derive_with_estimator(
    problem: &Problem<'_>,
    sla: SlaSpec,
    toc: &Estimator<'_>,
) -> Constraints {
    let reference = toc.estimate(problem, &problem.premium_layout());
    from_reference(problem, reference, sla)
}

/// Build constraints from an existing reference estimate (e.g. a *measured*
/// premium run during validation).
pub fn from_reference(problem: &Problem<'_>, reference: TocEstimate, sla: SlaSpec) -> Constraints {
    match problem.workload.metric {
        PerfMetric::ResponseTime => Constraints {
            response_caps_ms: Some(
                reference
                    .per_query_ms
                    .iter()
                    .map(|&t| sla.response_cap_ms(t))
                    .collect(),
            ),
            throughput_floor: None,
            reference,
            sla,
        },
        PerfMetric::Throughput => Constraints {
            response_caps_ms: None,
            throughput_floor: Some(sla.throughput_floor(reference.throughput_tasks_per_hour)),
            reference,
            sla,
        },
    }
}

impl Constraints {
    /// The paper's `feasible({L_new, C}, {T', T})`: capacity constraints on
    /// the layout plus performance constraints on its estimate.
    pub fn satisfied(&self, problem: &Problem<'_>, layout: &Layout, est: &TocEstimate) -> bool {
        if !layout.fits(problem.schema, problem.pool) {
            return false;
        }
        self.performance_satisfied(est)
    }

    /// Performance constraints only (no capacity check).
    pub fn performance_satisfied(&self, est: &TocEstimate) -> bool {
        if let Some(caps) = &self.response_caps_ms {
            if est.per_query_ms.iter().zip(caps).any(|(t, cap)| t > cap) {
                return false;
            }
        }
        if let Some(floor) = self.throughput_floor {
            if est.throughput_tasks_per_hour < floor {
                return false;
            }
        }
        true
    }

    /// The same constraints re-expressed against a different reference
    /// estimate — e.g. a *measured* premium run during validation. Each cap
    /// keeps its ratio to the reference (`cap_i / ref_i`), so per-query
    /// SLAs (multi-tenant caps) survive the rescaling; for the uniform case
    /// this reduces exactly to [`from_reference`] on the new reference.
    pub fn rescaled(&self, reference: TocEstimate) -> Constraints {
        let response_caps_ms = self.response_caps_ms.as_ref().map(|caps| {
            caps.iter()
                .zip(&self.reference.per_query_ms)
                .zip(&reference.per_query_ms)
                .map(|((cap, old), new)| if *old > 0.0 { new * (cap / old) } else { *cap })
                .collect()
        });
        let throughput_floor = self.throughput_floor.map(|floor| {
            if self.reference.throughput_tasks_per_hour > 0.0 {
                reference.throughput_tasks_per_hour
                    * (floor / self.reference.throughput_tasks_per_hour)
            } else {
                floor
            }
        });
        Constraints {
            response_caps_ms,
            throughput_floor,
            reference,
            sla: self.sla,
        }
    }

    /// Uniformly relax these constraints by `multiplier` in `(0, 1]`: every
    /// per-query ratio and the throughput ratio shrink by the same factor,
    /// so caps grow (and the floor falls) **proportionally** — per-query
    /// (multi-tenant) cap structure survives, unlike re-deriving from a
    /// single uniform SLA. `relaxed(1.0)` is the identity.
    pub fn relaxed(&self, multiplier: f64) -> Constraints {
        assert!(
            multiplier > 0.0 && multiplier <= 1.0,
            "relaxation multiplier must be in (0, 1]"
        );
        Constraints {
            response_caps_ms: self
                .response_caps_ms
                .as_ref()
                .map(|caps| caps.iter().map(|cap| cap / multiplier).collect()),
            throughput_floor: self.throughput_floor.map(|floor| floor * multiplier),
            reference: self.reference.clone(),
            sla: SlaSpec::relative(self.sla.ratio * multiplier),
        }
    }

    /// Graded violation margins of an estimate against these constraints,
    /// one [`ViolationMargin`] per performance constraint. `workload` names
    /// the classes (its queries are parallel to the response caps). Unlike
    /// [`performance_satisfied`](Self::performance_satisfied)'s yes/no,
    /// margins say *how far* each class sits from its cap — the graded
    /// telemetry signal the online controller fuses with drift distance.
    pub fn violation_margins(
        &self,
        workload: &Workload,
        est: &TocEstimate,
    ) -> Vec<ViolationMargin> {
        if let Some(caps) = &self.response_caps_ms {
            est.per_query_ms
                .iter()
                .zip(caps)
                .zip(&workload.queries)
                .map(|((t, cap), q)| ViolationMargin {
                    class: q.name.clone(),
                    ratio: cap_ratio(*t, *cap),
                })
                .collect()
        } else if let Some(floor) = self.throughput_floor {
            vec![ViolationMargin {
                class: "throughput".to_owned(),
                ratio: floor_ratio(floor, est.throughput_tasks_per_hour),
            }]
        } else {
            Vec::new()
        }
    }

    /// [`sla_pressure`] of an estimate's [`violation_margins`](Self::violation_margins),
    /// without building the margins (no class names are copied).
    pub fn pressure(&self, est: &TocEstimate) -> f64 {
        if let Some(caps) = &self.response_caps_ms {
            worst_excess(
                est.per_query_ms
                    .iter()
                    .zip(caps)
                    .map(|(t, cap)| cap_ratio(*t, *cap)),
            )
        } else if let Some(floor) = self.throughput_floor {
            worst_excess(std::iter::once(floor_ratio(
                floor,
                est.throughput_tasks_per_hour,
            )))
        } else {
            worst_excess(std::iter::empty())
        }
    }

    /// Performance satisfaction ratio (§4.3): fraction of queries meeting
    /// their caps. For throughput workloads this is 1.0/0.0 on the floor
    /// (the paper: "the throughput performance itself serves as such an
    /// indicator").
    pub fn psr(&self, est: &TocEstimate) -> f64 {
        match (&self.response_caps_ms, self.throughput_floor) {
            (Some(caps), _) => performance_satisfaction_ratio(&est.per_query_ms, caps),
            (None, Some(floor)) => {
                if est.throughput_tasks_per_hour >= floor {
                    1.0
                } else {
                    0.0
                }
            }
            (None, None) => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dot_dbms::EngineConfig;
    use dot_storage::catalog;
    use dot_workloads::{synth, tpcc};

    #[test]
    fn response_caps_scale_with_sla() {
        let s = synth::bench_schema(2_000_000.0, 120.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let c = derive(&p);
        let caps = c.response_caps_ms.as_ref().unwrap();
        for (cap, t) in caps.iter().zip(&c.reference.per_query_ms) {
            assert!((cap - t * 2.0).abs() < 1e-9);
        }
        assert!(c.throughput_floor.is_none());
        // The premium layout trivially satisfies its own derived caps.
        assert!(c.satisfied(&p, &p.premium_layout(), &c.reference));
        assert_eq!(c.psr(&c.reference), 1.0);
    }

    #[test]
    fn throughput_floor_for_oltp() {
        let s = tpcc::schema(5.0);
        let pool = catalog::box2();
        let w = tpcc::workload(&s);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.25), EngineConfig::oltp());
        let c = derive(&p);
        assert!(c.response_caps_ms.is_none());
        let floor = c.throughput_floor.unwrap();
        assert!((floor - 0.25 * c.reference.throughput_tasks_per_hour).abs() < 1e-9);
        assert!(c.performance_satisfied(&c.reference));
    }

    #[test]
    fn slow_layout_fails_tight_sla() {
        let s = synth::bench_schema(2_000_000.0, 120.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.9), EngineConfig::dss());
        let c = derive(&p);
        let hdd =
            dot_dbms::Layout::uniform(pool.class_by_name("HDD").unwrap().id, s.object_count());
        let est = crate::toc::estimate_toc(&p, &hdd);
        assert!(!c.performance_satisfied(&est));
        assert!(c.psr(&est) < 1.0);
    }

    #[test]
    fn relaxed_scales_caps_proportionally_and_keeps_their_structure() {
        let s = synth::bench_schema(2_000_000.0, 120.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let c = derive(&p);
        let relaxed = c.relaxed(0.5);
        let (before, after) = (
            c.response_caps_ms.as_ref().unwrap(),
            relaxed.response_caps_ms.as_ref().unwrap(),
        );
        for (b, a) in before.iter().zip(after) {
            assert!((a - b * 2.0).abs() < 1e-9, "cap {b} relaxed to {a}");
        }
        assert!((relaxed.sla.ratio - 0.25).abs() < 1e-12);
        // Identity at multiplier 1.
        assert_eq!(c.relaxed(1.0).response_caps_ms, c.response_caps_ms);
    }

    #[test]
    fn rescaled_matches_from_reference_for_uniform_slas() {
        let s = synth::bench_schema(2_000_000.0, 120.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let c = derive(&p);
        let measured = crate::toc::measure_toc(&p, &p.premium_layout(), 7);
        let a = c.rescaled(measured.clone());
        let b = from_reference(&p, measured, p.sla);
        let (ca, cb) = (
            a.response_caps_ms.as_ref().unwrap(),
            b.response_caps_ms.as_ref().unwrap(),
        );
        for (x, y) in ca.iter().zip(cb) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn violation_margins_grade_both_metrics() {
        // Response time: margins are per query, named, and consistent with
        // the boolean check — worst ratio > 1 iff performance fails.
        let s = synth::bench_schema(2_000_000.0, 120.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.9), EngineConfig::dss());
        let c = derive(&p);
        let reference_margins = c.violation_margins(&w, &c.reference);
        assert_eq!(reference_margins.len(), w.queries.len());
        for (m, q) in reference_margins.iter().zip(&w.queries) {
            assert_eq!(m.class, q.name);
            // The reference runs at exactly `ratio` of each cap.
            assert!((m.ratio - 0.9).abs() < 1e-9, "{}: {}", m.class, m.ratio);
        }
        assert_eq!(sla_pressure(&reference_margins), 0.0);
        let hdd =
            dot_dbms::Layout::uniform(pool.class_by_name("HDD").unwrap().id, s.object_count());
        let est = crate::toc::estimate_toc(&p, &hdd);
        let margins = c.violation_margins(&w, &est);
        assert!(sla_pressure(&margins) > 0.0, "HDD must violate a 0.9 SLA");
        assert_eq!(c.pressure(&est), sla_pressure(&margins));
        assert_eq!(
            margins.iter().any(|m| m.ratio > 1.0),
            !c.performance_satisfied(&est)
        );

        // Throughput: one "throughput" line, ratio floor/measured.
        let ts = tpcc::schema(2.0);
        let tw = tpcc::workload(&ts);
        let tp = crate::Problem::new(
            &ts,
            &pool,
            &tw,
            SlaSpec::relative(0.5),
            EngineConfig::oltp(),
        );
        let tc = derive(&tp);
        let margins = tc.violation_margins(&tw, &tc.reference);
        assert_eq!(margins.len(), 1);
        assert_eq!(margins[0].class, "throughput");
        assert!((margins[0].ratio - 0.5).abs() < 1e-9);
        let stalled = crate::toc::TocEstimate {
            throughput_tasks_per_hour: 0.0,
            ..tc.reference.clone()
        };
        let margins = tc.violation_margins(&tw, &stalled);
        assert_eq!(tc.pressure(&stalled), sla_pressure(&margins));
    }

    #[test]
    fn capacity_violation_fails() {
        let s = synth::bench_schema(2_000_000.0, 120.0);
        let mut pool = catalog::box2();
        pool.set_capacity("H-SSD", 1e-4);
        let w = synth::mixed_workload(&s);
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let c = derive(&p);
        let premium = p.premium_layout();
        let est = crate::toc::estimate_toc(&p, &premium);
        assert!(!c.satisfied(&p, &premium, &est));
        // ...even though performance is fine.
        assert!(c.performance_satisfied(&est));
    }
}

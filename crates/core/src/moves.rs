//! Procedure 2 — `enumerateMoves`: object-group moves and their priority
//! scores (§3.2, §3.3).
//!
//! A move `m(g, p)` relocates an entire object group `g` (a table plus its
//! indices) to a placement `p ∈ D^{|g|}`. Considering whole-group placements
//! captures table↔index interaction (the index-scan-vs-seq-scan flip), while
//! placements across different groups are assumed independent — the paper's
//! central complexity trade: `O(G · M^K)` moves instead of `O(M^N)` layouts.
//!
//! Each move is scored `σ[m] = δ_time[m] / δ_cost[m]` (Eq. 4): the I/O-time
//! penalty per cent of hourly layout-cost saving, both measured against the
//! all-premium initial layout `L_0`. Moves are applied in ascending-score
//! order, so the cheapest performance per saved cent goes first.
//!
//! The sweep consumes moves as placement codes: a group and the row of its
//! dense profile table ([`GroupProfile::placement_at`] decodes it).
//! [`Move`] is the same move with its objects and placement written out.

use crate::problem::Problem;
use dot_dbms::{Layout, ObjectId};
use dot_profiler::{GroupProfile, WorkloadProfile};
use dot_storage::ClassId;
use serde::{Deserialize, Serialize};

/// One candidate move `m(g, p)` with its score components.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Move {
    /// Index of the group in [`WorkloadProfile::groups`].
    pub group_index: usize,
    /// The group's objects (position 0 = heap).
    pub objects: Vec<ObjectId>,
    /// Target placement, parallel to `objects`.
    pub placement: Vec<ClassId>,
    /// `δ_time[m] = T^p[g] − T^{p_0}[g]` (Eq. 2), ms.
    pub delta_time_ms: f64,
    /// `δ_cost[m] = C(L_0) − C(m(L_0))` (Eq. 3), cents/hour.
    pub delta_cost: f64,
    /// `σ[m] = δ_time / δ_cost` (Eq. 4).
    pub score: f64,
}

impl Move {
    /// Apply the move to a layout, returning `m(L)`.
    pub fn apply(&self, layout: &Layout) -> Layout {
        let mut l = layout.clone();
        for (obj, &class) in self.objects.iter().zip(&self.placement) {
            l.place(*obj, class);
        }
        l
    }
}

/// A [`Move`] as the sweep consumes it: the placement is its code in the
/// group's profile table, so a move owns no allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CodedMove {
    /// Index of the group in [`WorkloadProfile::groups`].
    group_index: usize,
    /// The target placement's code ([`GroupProfile::placement_at`]).
    code: usize,
    /// `δ_time[m]` (Eq. 2), ms.
    delta_time_ms: f64,
    /// `δ_cost[m]` (Eq. 3), cents/hour.
    delta_cost: f64,
    /// `σ[m]` (Eq. 4).
    score: f64,
}

impl CodedMove {
    /// The index of the move's group in [`WorkloadProfile::groups`].
    pub(crate) fn group_index(self) -> usize {
        self.group_index
    }

    /// The target placement's code ([`GroupProfile::placement_at`]).
    pub(crate) fn code(self) -> usize {
        self.code
    }

    /// Place the move's group onto its placement in `layout`.
    pub(crate) fn step(self, profile: &WorkloadProfile, layout: &mut Layout) {
        let g = &profile.groups[self.group_index];
        for (obj, class) in g.objects.iter().zip(g.placement_at(self.code)) {
            layout.place(*obj, class);
        }
    }

    /// The move with its objects and placement written out.
    fn to_move(self, profile: &WorkloadProfile) -> Move {
        let g = &profile.groups[self.group_index];
        Move {
            group_index: self.group_index,
            objects: g.objects.clone(),
            placement: g.placement_at(self.code).collect(),
            delta_time_ms: self.delta_time_ms,
            delta_cost: self.delta_cost,
            score: self.score,
        }
    }
}

/// `num / den`, clamped to a finite value: `0.0` when the quotient is
/// `inf`/NaN (a zero or subnormal denominator). Scores and priority keys
/// built from this never poison a sort — daemon ticks sort candidate moves
/// on these keys, and an abort there would take the tenant down with it.
pub(crate) fn finite_ratio(num: f64, den: f64) -> f64 {
    let ratio = num / den;
    if ratio.is_finite() {
        ratio
    } else {
        0.0
    }
}

/// Enumerate all moves `m(g, p)` for every group and placement, scored and
/// sorted ascending by `σ`, then group, then placement (Procedure 2). The
/// identity placement (all objects staying on `d_1`) is skipped — it saves
/// nothing — and so is every move that saves no cost. This is the list
/// the DOT sweep walks, written out.
pub fn enumerate_moves(problem: &Problem<'_>, profile: &WorkloadProfile) -> Vec<Move> {
    coded_moves(problem, profile)
        .iter()
        .map(|m| m.to_move(profile))
        .collect()
}

/// [`enumerate_moves`] as [`CodedMove`]s.
///
/// `δ_cost` is costed from the `S_j` vector of `m(L_0)` without summing
/// it: off `d_1`, class `j` holds exactly the group's objects placed on
/// it, and `d_1` holds the rest. Each of those sums depends only on which
/// of the group's positions it covers, so it is read from a per-group
/// table of the `2^k` subsets' sums, each summed in schema order as
/// [`Layout::space_per_class`] sums it, bit for bit.
pub(crate) fn coded_moves(problem: &Problem<'_>, profile: &WorkloadProfile) -> Vec<CodedMove> {
    let pool = problem.pool;
    let m = pool.len();
    if m < 2 {
        return Vec::new();
    }
    let premium = pool.most_expensive();
    let c0 = problem.layout_cost_cents_per_hour(&problem.premium_layout());
    let concurrency = problem.cfg.concurrency;
    let mut positions = vec![usize::MAX; problem.schema.object_count()];
    let mut masks = vec![0usize; m];
    let mut space = vec![0.0; m];

    let mut moves = Vec::new();
    for (gi, g) in profile.groups.iter().enumerate() {
        let sums = GroupSpace::new(problem, g, &mut positions);
        let identity = g.objects.iter().fold(0, |code, _| code * m + premium.0);
        let t0 = g.io_time_share_at(identity, pool, concurrency);
        for code in 0..g.placement_count() {
            if code == identity {
                continue;
            }
            masks.fill(0);
            for (at, class) in g.placement_at(code).enumerate() {
                masks[class.0] |= 1 << at;
            }
            for (j, (s, &mask)) in space.iter_mut().zip(&masks).enumerate() {
                *s = if j == premium.0 {
                    sums.premium[mask]
                } else {
                    sums.moved[mask]
                };
            }
            let delta_cost = c0 - problem.cost_model.cost_of_space(&space, pool);
            if delta_cost <= 0.0 {
                continue;
            }
            let delta_time_ms = g.io_time_share_at(code, pool, concurrency) - t0;
            moves.push(CodedMove {
                group_index: gi,
                code,
                delta_time_ms,
                delta_cost,
                score: finite_ratio(delta_time_ms, delta_cost),
            });
        }
    }
    moves.sort_unstable_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then(a.group_index.cmp(&b.group_index))
            .then(a.code.cmp(&b.code))
    });
    moves
}

/// One group's `S_j` sums, per subset of its positions (bit `i` of the
/// index is position `i`), each summed in schema order from `0.0`.
struct GroupSpace {
    /// The premium class's `S` when exactly these positions stay on it,
    /// with every object outside the group.
    premium: Vec<f64>,
    /// A class's `S` when it holds exactly these positions.
    moved: Vec<f64>,
}

impl GroupSpace {
    /// The sums of `g`'s subsets. `positions` is per-object scratch, all
    /// `usize::MAX`, and is left so.
    fn new(problem: &Problem<'_>, g: &GroupProfile, positions: &mut [usize]) -> GroupSpace {
        let subsets = 1usize << g.objects.len();
        let mut sums = GroupSpace {
            premium: vec![0.0; subsets],
            moved: vec![0.0; subsets],
        };
        for (at, obj) in g.objects.iter().enumerate() {
            positions[obj.0] = at;
        }
        for o in problem.schema.objects() {
            match positions[o.id.0] {
                usize::MAX => {
                    for s in &mut sums.premium {
                        *s += o.size_gb;
                    }
                }
                at => {
                    for mask in (0..subsets).filter(|mask| mask & 1 << at != 0) {
                        sums.premium[mask] += o.size_gb;
                        sums.moved[mask] += o.size_gb;
                    }
                }
            }
        }
        for obj in &g.objects {
            positions[obj.0] = usize::MAX;
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dot_dbms::memo::PlanMemo;
    use dot_dbms::EngineConfig;
    use dot_profiler::{profile_workload, ProfileSource};
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
    fn moves_cover_all_non_identity_placements() {
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let moves = enumerate_moves(&p, &prof);
        // One group of size 2 (table + pkey): 3^2 − 1 = 8 non-identity
        // placements, all of which save cost (every other class is cheaper).
        assert_eq!(moves.len(), 8);
        let unique: std::collections::HashSet<_> =
            moves.iter().map(|m| m.placement.clone()).collect();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn moves_sorted_ascending_by_score() {
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let moves = enumerate_moves(&p, &prof);
        for pair in moves.windows(2) {
            assert!(pair[0].score <= pair[1].score);
        }
    }

    #[test]
    fn delta_cost_is_positive_and_consistent() {
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let l0 = p.premium_layout();
        let c0 = p.layout_cost_cents_per_hour(&l0);
        for m in enumerate_moves(&p, &prof) {
            assert!(m.delta_cost > 0.0);
            let applied = m.apply(&l0);
            let saved = c0 - p.layout_cost_cents_per_hour(&applied);
            assert!((saved - m.delta_cost).abs() < 1e-9);
        }
    }

    #[test]
    fn apply_moves_only_the_group() {
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let l0 = p.premium_layout();
        let m = &enumerate_moves(&p, &prof)[0];
        let applied = m.apply(&l0);
        for o in s.objects() {
            if m.objects.contains(&o.id) {
                let k = m.objects.iter().position(|x| *x == o.id).unwrap();
                assert_eq!(applied.class_of(o.id), m.placement[k]);
            } else {
                assert_eq!(applied.class_of(o.id), l0.class_of(o.id));
            }
        }
    }

    #[test]
    fn score_is_delta_time_per_delta_cost() {
        // Eq. 4: σ[m] = δ_time[m] / δ_cost[m], exactly, for every move.
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let moves = enumerate_moves(&p, &prof);
        assert!(!moves.is_empty());
        for m in &moves {
            assert!(m.score.is_finite());
            let sigma = m.delta_time_ms / m.delta_cost;
            assert!(
                (m.score - sigma).abs() <= 1e-12 * sigma.abs().max(1.0),
                "score {} != δ_time/δ_cost {}",
                m.score,
                sigma
            );
        }
    }

    #[test]
    fn cheap_slow_moves_score_higher_than_cheap_fast_moves() {
        // Moving the heavily-read group to the HDD must score worse (higher
        // σ) than moving it to the L-SSD RAID 0, which is nearly as cheap
        // per saved cent but far less painful.
        let (s, pool, w) = setup();
        let p = crate::Problem::new(&s, &pool, &w, SlaSpec::relative(0.5), EngineConfig::dss());
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &p.cfg),
            ProfileSource::Estimate,
        );
        let hdd = pool.class_by_name("HDD").unwrap().id;
        let lraid = pool.class_by_name("L-SSD RAID 0").unwrap().id;
        let moves = enumerate_moves(&p, &prof);
        let score_of = |class: ClassId| {
            moves
                .iter()
                .find(|m| m.placement.iter().all(|&c| c == class))
                .map(|m| m.score)
                .unwrap()
        };
        assert!(score_of(hdd) > score_of(lraid));
    }
}

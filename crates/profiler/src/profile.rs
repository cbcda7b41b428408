//! Workload profiles: the `X = {χ^p_r[o]}` table of §3.4.
//!
//! A profile records, for every object group `g` and every within-group
//! placement `p ∈ D^{|g|}`, the accumulated I/O counts each object of `g`
//! receives when the whole workload runs with that placement in force. The
//! optimizer turns these into the *I/O time share* `T^p[g]` of Eq. 1 and the
//! move scores of §3.3.

use crate::baseline::{baseline_placements, group_arity, place_baseline};
use dot_dbms::memo::{ChoiceKey, PlanMemo};
use dot_dbms::{exec, Layout, ObjectId};
use dot_storage::{ClassId, IoCounts, StoragePool};
use std::collections::HashMap;

/// How profile counts are obtained (§3.4: "(a) an estimate computed by our
/// extended query optimizer ... or (b) a sample test run").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileSource {
    /// Optimizer estimates — deterministic, cache-blind (TPC-H path, §4.4).
    Estimate,
    /// Simulated test run with the buffer pool engaged (TPC-C path, §4.5).
    TestRun {
        /// Noise seed for the simulated run.
        seed: u64,
    },
}

/// Profile of one object group across its placements.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupProfile {
    /// The group's objects (position 0 = heap, 1.. = indices).
    pub objects: Vec<ObjectId>,
    /// Per-placement accumulated counts, parallel to `objects`.
    pub by_placement: HashMap<Vec<ClassId>, Vec<IoCounts>>,
}

impl GroupProfile {
    /// Counts under a specific within-group placement.
    pub fn counts(&self, placement: &[ClassId]) -> Option<&[IoCounts]> {
        self.by_placement.get(placement).map(|v| v.as_slice())
    }

    /// The I/O time share `T^p[g] = Σ_{o∈g} Σ_r χ^p_r[o] · τ^{p[o]}_r`
    /// (Eq. 1) at the given concurrency.
    pub fn io_time_share_ms(
        &self,
        placement: &[ClassId],
        pool: &StoragePool,
        concurrency: u32,
    ) -> Option<f64> {
        let counts = self.by_placement.get(placement)?;
        let mut total = 0.0;
        for (k, c) in counts.iter().enumerate() {
            let class = pool.class_unchecked(placement[k]);
            total += class.profile.service_time_ms(c, concurrency);
        }
        Some(total)
    }
}

/// The complete profile of a workload over a storage pool.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// One entry per object group, in
    /// [`Schema::object_groups`](dot_dbms::Schema::object_groups) order.
    pub groups: Vec<GroupProfile>,
    /// Group arity `K` used for the baselines.
    pub arity: usize,
    /// Number of baseline layouts enumerated (`M^K`).
    pub baseline_count: usize,
    /// Baselines actually profiled after plan-signature pruning.
    pub profiled_count: usize,
}

impl WorkloadProfile {
    /// The group profile containing `object`, if any.
    pub fn group_of(&self, object: ObjectId) -> Option<(usize, &GroupProfile)> {
        self.groups
            .iter()
            .enumerate()
            .find(|(_, g)| g.objects.contains(&object))
    }
}

/// Profile the memo's workload over every baseline layout of its pool
/// (§3.4), with plan-signature pruning: a baseline whose per-query physical
/// plans are identical to an already-profiled baseline's reuses its counts
/// instead of re-running. Since I/O counts are a pure function of the
/// chosen plans, pruning is lossless for estimates and matches the paper's
/// §4.5.1 optimization for test runs (TPC-C collapses to one profiled
/// layout).
///
/// Baselines are priced through `plans`' compiled templates. Two baselines
/// with the same plan choices share a [`ChoiceKey`], and only the first
/// baseline of each key materializes its plans, which are priced as they
/// are ([`exec::assemble`]), never planned a second time. Consecutive
/// baselines differ in a few positions, so each key re-prices only the
/// queries that read an object whose class changed.
pub fn profile_workload(plans: &PlanMemo<'_>, source: ProfileSource) -> WorkloadProfile {
    let (schema, pool, cfg) = (plans.schema(), plans.pool(), plans.cfg());
    let arity = group_arity(schema);
    let placements = baseline_placements(pool, arity);
    let groups = schema.object_groups();
    let mut pricer = plans.pricer();
    let mut layout = Layout::uniform(placements[0][0], schema.object_count());

    let mut group_profiles: Vec<GroupProfile> = groups
        .iter()
        .map(|objs| GroupProfile {
            objects: objs.clone(),
            by_placement: HashMap::new(),
        })
        .collect();

    // The per-object counts of each distinct set of plan choices, from the
    // one baseline run that priced it.
    let mut runs: HashMap<ChoiceKey, Vec<IoCounts>> = HashMap::new();
    let test_run = match source {
        ProfileSource::Estimate => None,
        ProfileSource::TestRun { seed } => Some(seed),
    };

    for p in &placements {
        place_baseline(&mut layout, &groups, p);
        let io = runs.entry(pricer.choice_key(&layout)).or_insert_with(|| {
            let planned = plans.plan_workload(&layout);
            exec::assemble(&planned, schema, &layout, pool, cfg, test_run)
                .cost
                .io
        });
        for gp in group_profiles.iter_mut() {
            // A group no longer than the arity sees the placement's
            // prefix: `project_placement(p, k)` is `p[..k]`. A later
            // baseline with the same prefix overwrites the counts.
            let key = &p[..gp.objects.len()];
            match gp.by_placement.get_mut(key) {
                Some(counts) => {
                    for (slot, o) in counts.iter_mut().zip(&gp.objects) {
                        *slot = io[o.0];
                    }
                }
                None => {
                    let counts = gp.objects.iter().map(|o| io[o.0]).collect();
                    gp.by_placement.insert(key.to_vec(), counts);
                }
            }
        }
    }

    WorkloadProfile {
        groups: group_profiles,
        arity,
        baseline_count: placements.len(),
        profiled_count: runs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{baseline_layout, project_placement};
    use dot_dbms::{EngineConfig, Schema};
    use dot_storage::catalog;
    use dot_workloads::{synth, tpcc, Workload};

    fn synth_setup() -> (Schema, StoragePool, Workload, EngineConfig) {
        let s = synth::bench_schema(2_000_000.0, 120.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&s);
        (s, pool, w, EngineConfig::dss())
    }

    #[test]
    fn profile_covers_every_group_placement() {
        let (s, pool, w, cfg) = synth_setup();
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &cfg),
            ProfileSource::Estimate,
        );
        assert_eq!(prof.groups.len(), s.object_groups().len());
        for g in &prof.groups {
            let expected = pool.len().pow(g.objects.len() as u32);
            assert_eq!(g.by_placement.len(), expected);
        }
    }

    #[test]
    fn io_time_share_prices_correctly() {
        let (s, pool, w, cfg) = synth_setup();
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &cfg),
            ProfileSource::Estimate,
        );
        let g = &prof.groups[0];
        let hdd = pool.class_by_name("HDD").unwrap().id;
        let hssd = pool.class_by_name("H-SSD").unwrap().id;
        let key_hdd = vec![hdd; g.objects.len()];
        let key_hssd = vec![hssd; g.objects.len()];
        let t_hdd = g.io_time_share_ms(&key_hdd, &pool, 1).unwrap();
        let t_hssd = g.io_time_share_ms(&key_hssd, &pool, 1).unwrap();
        assert!(t_hdd > t_hssd, "hdd {t_hdd} vs hssd {t_hssd}");
        assert!(g
            .io_time_share_ms(&[hdd; 9][..g.objects.len()], &pool, 1)
            .is_some());
        assert!(g.io_time_share_ms(&[], &pool, 1).is_none());
    }

    #[test]
    fn pruning_collapses_tpcc_to_few_runs() {
        // §4.5.1: all TPC-C plans are stable modulo the page-sized tables,
        // so pruning must collapse the 27 baselines dramatically.
        let s = tpcc::schema(20.0);
        let pool = catalog::box2();
        let w = tpcc::workload(&s);
        let cfg = EngineConfig::oltp();
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &cfg),
            ProfileSource::Estimate,
        );
        assert_eq!(prof.baseline_count, 27);
        assert!(
            prof.profiled_count <= prof.baseline_count / 2,
            "profiled {} of {}",
            prof.profiled_count,
            prof.baseline_count
        );
    }

    #[test]
    fn group_lookup_by_object() {
        let (s, pool, w, cfg) = synth_setup();
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &cfg),
            ProfileSource::Estimate,
        );
        let heap = s.table_by_name("a").unwrap().object;
        let (gi, g) = prof.group_of(heap).unwrap();
        assert_eq!(g.objects[0], heap);
        assert_eq!(gi, 0);
        assert!(prof.group_of(ObjectId(999)).is_none());
    }

    /// Re-derive a profile the long way: plan every baseline, detect
    /// repeated plans by their formatted signatures, and run each unseen
    /// baseline through the planner again.
    fn replanned_profile(
        w: &Workload,
        s: &Schema,
        pool: &StoragePool,
        cfg: &EngineConfig,
        source: ProfileSource,
    ) -> (HashMap<Vec<ClassId>, Vec<IoCounts>>, usize) {
        let mut seen: HashMap<String, Vec<IoCounts>> = HashMap::new();
        let mut by_baseline = HashMap::new();
        for p in baseline_placements(pool, group_arity(s)) {
            let layout = baseline_layout(s, &p);
            let planned = dot_dbms::planner::plan_workload(&w.queries, s, &layout, pool, cfg);
            let signature: Vec<String> = planned.iter().map(|q| q.describe()).collect();
            let io = seen
                .entry(signature.join("|"))
                .or_insert_with(|| {
                    let run = match source {
                        ProfileSource::Estimate => {
                            exec::estimate_workload(&w.queries, s, &layout, pool, cfg)
                        }
                        ProfileSource::TestRun { seed } => {
                            exec::simulate_workload(&w.queries, s, &layout, pool, cfg, seed)
                        }
                    };
                    run.cost.io
                })
                .clone();
            by_baseline.insert(p, io);
        }
        (by_baseline, seen.len())
    }

    #[test]
    fn memoized_profile_is_bit_identical_to_replanning_every_baseline() {
        let (s, _, w, cfg) = synth_setup();
        let tpcc_schema = tpcc::schema(20.0);
        let tpcc_workload = tpcc::workload(&tpcc_schema);
        let cases = [
            (&s, &w, cfg, catalog::box2()),
            (&s, &w, cfg, catalog::full_pool()),
            (
                &tpcc_schema,
                &tpcc_workload,
                EngineConfig::oltp(),
                catalog::box1(),
            ),
        ];
        for (schema, workload, cfg, pool) in cases {
            for source in [ProfileSource::Estimate, ProfileSource::TestRun { seed: 9 }] {
                let memo = PlanMemo::new(&workload.queries, schema, &pool, &cfg);
                let prof = profile_workload(&memo, source);
                let (by_baseline, distinct) =
                    replanned_profile(workload, schema, &pool, &cfg, source);
                assert_eq!(prof.profiled_count, distinct, "{source:?}");
                for (p, io) in &by_baseline {
                    for g in &prof.groups {
                        let key = project_placement(p, g.objects.len());
                        let counts = g.counts(&key).expect("profiled placement");
                        for (o, c) in g.objects.iter().zip(counts) {
                            for io_type in dot_storage::IO_TYPES {
                                let (got, want) = (c[io_type], io[o.0][io_type]);
                                assert_eq!(got.to_bits(), want.to_bits(), "{source:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn test_run_profile_is_reproducible() {
        let (s, pool, w, cfg) = synth_setup();
        let a = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &cfg),
            ProfileSource::TestRun { seed: 5 },
        );
        let b = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &cfg),
            ProfileSource::TestRun { seed: 5 },
        );
        assert_eq!(a, b);
    }
}

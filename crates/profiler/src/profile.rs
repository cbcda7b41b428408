//! Workload profiles: the `X = {χ^p_r[o]}` table of §3.4.
//!
//! A profile records, for every object group `g` and every within-group
//! placement `p ∈ D^{|g|}`, the accumulated I/O counts each object of `g`
//! receives when the whole workload runs with that placement in force. The
//! optimizer turns these into the *I/O time share* `T^p[g]` of Eq. 1 and the
//! move scores of §3.3.

use crate::baseline::{baseline_count, group_arity};
use dot_dbms::memo::PlanMemo;
use dot_dbms::{Layout, ObjectId, Schema};
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
///
/// The counts live in one dense table of `M^k` rows of `k` counts (`M`
/// storage classes, `k = |g|`), row `c` holding the placement whose
/// lexicographic mixed-radix code is `c` — `Σ_i p[i] · M^(k−1−i)`, the
/// order [`group_placements`](crate::baseline::group_placements)
/// enumerates — so a lookup is a few multiplications, never a hash.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupProfile {
    /// The group's objects (position 0 = heap, 1.. = indices).
    pub objects: Vec<ObjectId>,
    /// The radix `M` of the placement codes: the profiled pool's size.
    classes: usize,
    /// `M^k` rows of counts, each parallel to `objects`.
    table: Vec<IoCounts>,
}

impl GroupProfile {
    /// Counts under a specific within-group placement, or `None` for a
    /// placement of another length or one naming a class outside the
    /// profiled pool.
    pub fn counts(&self, placement: &[ClassId]) -> Option<&[IoCounts]> {
        self.code_of(placement).map(|code| self.counts_at(code))
    }

    /// The I/O time share `T^p[g] = Σ_{o∈g} Σ_r χ^p_r[o] · τ^{p[o]}_r`
    /// (Eq. 1) at the given concurrency.
    pub fn io_time_share_ms(
        &self,
        placement: &[ClassId],
        pool: &StoragePool,
        concurrency: u32,
    ) -> Option<f64> {
        let code = self.code_of(placement)?;
        Some(self.io_time_share_at(code, pool, concurrency))
    }

    /// How many placements the table holds, `M^k`: codes run from 0 up to
    /// this.
    pub fn placement_count(&self) -> usize {
        self.table.len() / self.objects.len()
    }

    /// The code of `placement`, or `None` for a placement of another length
    /// or one naming a class outside the profiled pool.
    fn code_of(&self, placement: &[ClassId]) -> Option<usize> {
        if placement.len() != self.objects.len() {
            return None;
        }
        placement.iter().try_fold(0usize, |code, class| {
            (class.0 < self.classes).then(|| code * self.classes + class.0)
        })
    }

    /// The placement whose code is `code` (below
    /// [`placement_count`](Self::placement_count)), position by position.
    pub fn placement_at(&self, code: usize) -> impl Iterator<Item = ClassId> {
        let m = self.classes;
        let k = self.objects.len();
        let mut place = m.pow(k.saturating_sub(1) as u32);
        (0..k).map(move |_| {
            let class = ClassId(code / place % m);
            place /= m;
            class
        })
    }

    /// [`counts`](Self::counts) of the placement whose code is `code`.
    fn counts_at(&self, code: usize) -> &[IoCounts] {
        let k = self.objects.len();
        &self.table[code * k..(code + 1) * k]
    }

    /// [`io_time_share_ms`](Self::io_time_share_ms) of the placement whose
    /// code is `code`, bit for bit.
    pub fn io_time_share_at(&self, code: usize, pool: &StoragePool, concurrency: u32) -> f64 {
        let mut total = 0.0;
        for (c, class) in self.counts_at(code).iter().zip(self.placement_at(code)) {
            total += pool
                .class_unchecked(class)
                .profile
                .service_time_ms(c, concurrency);
        }
        total
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
    /// The baselines' partition into runs, kept so the profile can be
    /// [`recount`](Self::recount)ed from another source.
    runs: BaselineRuns,
}

impl WorkloadProfile {
    /// The group profile containing `object`, if any.
    pub fn group_of(&self, object: ObjectId) -> Option<(usize, &GroupProfile)> {
        self.groups
            .iter()
            .enumerate()
            .find(|(_, g)| g.objects.contains(&object))
    }

    /// This profile's baselines counted again from `source`, over the memo
    /// `plans` it was profiled from: bit-identical to
    /// [`profile_workload`]`(plans, source)`, without walking the
    /// baselines again. Refinement re-profiles from test runs this way.
    pub fn recount(&self, plans: &PlanMemo<'_>, source: ProfileSource) -> WorkloadProfile {
        self.runs.clone().count(plans, source)
    }
}

/// Profile the memo's workload over every baseline layout of its pool
/// (§3.4), with plan-signature pruning: a baseline whose per-query physical
/// plans make the same decisions as an already-profiled baseline's reuses
/// its counts instead of re-running. Since I/O counts are a pure function
/// of the chosen plans, pruning is lossless for estimates and matches the
/// paper's §4.5.1 optimization for test runs (TPC-C collapses to one
/// profiled layout).
///
/// Profiling is two steps. [`BaselineRuns::partition`] keys every baseline
/// by its plan decisions alone, and [`BaselineRuns::count`] counts one
/// baseline per key (a *run*) and fills every group's dense table. Keys
/// are decided, never priced; estimated counts are summed straight from
/// the templates, without materializing plans.
pub fn profile_workload(plans: &PlanMemo<'_>, source: ProfileSource) -> WorkloadProfile {
    BaselineRuns::partition(plans).count(plans, source)
}

/// The baselines of a memo's workload partitioned into *runs* (§4.5.1):
/// baselines whose plans make the same decisions share a run, and one
/// count of the run's first baseline stands for all of them. Runs are
/// numbered in the order of their first baselines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineRuns {
    /// Group arity `K`.
    arity: usize,
    /// Storage classes `M`.
    classes: usize,
    /// Per object, the place value `M^(K−1−i)` of the digit of a
    /// baseline's code that names its class, `i` being the object's
    /// position in its group, capped at `K − 1`.
    places: Vec<usize>,
    /// Per baseline, in code order, the index of its run.
    run_of: Vec<usize>,
    /// How many runs.
    runs: usize,
}

impl BaselineRuns {
    /// Partition the memo's baselines. They are walked by code, rewriting
    /// one layout in place, and keyed by [`PlanMemo::decisions`]: a
    /// baseline re-decides only the queries that read an object whose
    /// class changed, and its key is looked up in place. Beyond a fixed
    /// few buffers, the walk allocates one key per run, whatever the
    /// number of baselines.
    pub fn partition(plans: &PlanMemo<'_>) -> BaselineRuns {
        let schema = plans.schema();
        let arity = group_arity(schema);
        let classes = plans.pool().len();
        let baselines = baseline_count(classes, arity).expect("callers bound M^K");
        let places = digit_places(schema, classes, arity);
        let mut layout = Layout::uniform(ClassId(0), schema.object_count());
        let mut decisions = plans.decisions();
        let mut keys: HashMap<Vec<u8>, usize> = HashMap::with_capacity(baselines);
        let mut run_of = Vec::with_capacity(baselines);
        for b in 0..baselines {
            place_code(&mut layout, &places, classes, b);
            let key = decisions.key(&layout);
            let run = match keys.get(key) {
                Some(&run) => run,
                None => {
                    let run = keys.len();
                    keys.insert(key.to_vec(), run);
                    run
                }
            };
            run_of.push(run);
        }
        BaselineRuns {
            arity,
            classes,
            places,
            run_of,
            runs: keys.len(),
        }
    }

    /// How many baselines the partition covers (`M^K`).
    pub fn baseline_count(&self) -> usize {
        self.run_of.len()
    }

    /// How many runs the baselines fall into: the baselines profiled.
    pub fn run_count(&self) -> usize {
        self.runs
    }

    /// Count every run from `source` under its first baseline and fill
    /// every group's dense table, over the memo `plans` the partition was
    /// made from. Estimates are summed from the templates
    /// ([`PlanMemo::workload_io`]), and so is a test run's cache-absorbed,
    /// weighted I/O ([`PlanMemo::test_run`]), neither materializing a plan. One loop in baseline order
    /// writes each baseline's counts at its prefix's code in every group's
    /// table, so a later baseline with the same prefix overwrites them.
    pub fn count(self, plans: &PlanMemo<'_>, source: ProfileSource) -> WorkloadProfile {
        let schema = plans.schema();
        let m = self.classes;
        let mut group_profiles: Vec<GroupProfile> = schema
            .object_groups()
            .into_iter()
            .map(|objects| GroupProfile {
                table: vec![IoCounts::ZERO; m.pow(objects.len() as u32) * objects.len()],
                objects,
                classes: m,
            })
            .collect();
        // A group no longer than the arity sees the baseline's prefix
        // (`project_placement(p, k)` is `p[..k]`), whose code is the
        // baseline's code divided by `M^(K−k)`.
        let strides: Vec<usize> = group_profiles
            .iter()
            .map(|g| m.pow((self.arity - g.objects.len()) as u32))
            .collect();

        let mut layout = Layout::uniform(ClassId(0), schema.object_count());
        let mut counts: Vec<Vec<IoCounts>> = Vec::with_capacity(self.runs);
        for (b, &run) in self.run_of.iter().enumerate() {
            // Runs are numbered by their first baselines.
            if run == counts.len() {
                place_code(&mut layout, &self.places, m, b);
                counts.push(match source {
                    ProfileSource::Estimate => plans.workload_io(&layout),
                    ProfileSource::TestRun { seed } => plans.test_run(&layout, seed).io,
                });
            }
            let io = &counts[run];
            // A later baseline with the same prefix overwrites the counts.
            for (gp, stride) in group_profiles.iter_mut().zip(&strides) {
                let k = gp.objects.len();
                let code = b / stride;
                let row = &mut gp.table[code * k..(code + 1) * k];
                for (slot, o) in row.iter_mut().zip(&gp.objects) {
                    *slot = io[o.0];
                }
            }
        }

        WorkloadProfile {
            groups: group_profiles,
            arity: self.arity,
            baseline_count: self.baseline_count(),
            profiled_count: self.runs,
            runs: self,
        }
    }
}

/// [`BaselineRuns::places`] of `schema`'s objects: position `i` of a group
/// (0 the table's heap, `1..` its indexes in schema order; temp and log
/// objects are singleton groups) takes digit `min(i, K−1)` of the
/// baseline's placement, whose place value is `M^(K−1−min(i, K−1))`.
fn digit_places(schema: &Schema, classes: usize, arity: usize) -> Vec<usize> {
    let place = |position: usize| classes.pow((arity - 1 - position.min(arity - 1)) as u32);
    let mut places = vec![place(0); schema.object_count()];
    for table in schema.tables() {
        for (i, index) in schema.indexes_of(table.id).enumerate() {
            places[index.object.0] = place(i + 1);
        }
    }
    places
}

/// Rewrite `layout` in place into baseline `b`: each object takes the
/// digit of `b` at its place value.
fn place_code(layout: &mut Layout, places: &[usize], classes: usize, b: usize) {
    for (o, &place) in places.iter().enumerate() {
        layout.place(ObjectId(o), ClassId(b / place % classes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{
        baseline_layout, baseline_placements, group_placements, project_placement,
    };
    use dot_dbms::{exec, EngineConfig, Schema};
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
        let alien = ClassId(pool.len());
        for g in &prof.groups {
            let k = g.objects.len();
            for p in group_placements(&pool, k) {
                assert_eq!(g.counts(&p).map(<[IoCounts]>::len), Some(k), "{p:?}");
                let mut longer = p.clone();
                longer.push(p[0]);
                assert!(g.counts(&longer).is_none());
                let mut outside = p;
                outside[k - 1] = alien;
                assert!(g.counts(&outside).is_none());
            }
            assert!(g.counts(&[]).is_none());
        }
    }

    #[test]
    fn codes_decode_to_the_placements_they_index() {
        let (s, pool, w, cfg) = synth_setup();
        let prof = profile_workload(
            &PlanMemo::new(&w.queries, &s, &pool, &cfg),
            ProfileSource::Estimate,
        );
        for g in &prof.groups {
            let placements = group_placements(&pool, g.objects.len());
            assert_eq!(g.placement_count(), placements.len());
            for (code, p) in placements.iter().enumerate() {
                assert_eq!(g.code_of(p), Some(code));
                assert_eq!(g.placement_at(code).collect::<Vec<_>>(), *p);
                assert_eq!(g.counts_at(code), g.counts(p).unwrap());
                let share = g.io_time_share_at(code, &pool, 4);
                assert_eq!(Some(share), g.io_time_share_ms(p, &pool, 4));
            }
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

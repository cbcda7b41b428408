//! Workload drift generators and the drift *detection* metric: before/after
//! pairs for re-provisioning, and the profile distance an online controller
//! thresholds on.
//!
//! DOT provisions a layout once, against a workload snapshot. Real mixed
//! workloads *drift*: the HTAP literature describes systems that swing
//! between analytical phases (scan-heavy, response-time SLAs) and
//! transactional phases (update-heavy, throughput SLAs), which flips the
//! index-scan-vs-seq-scan trade DOT's move scores are built on. These
//! generators perturb an existing [`Workload`] — or produce a matched
//! analytical/transactional pair over one schema — so the re-provisioning
//! planner (`dot_core::replan`) can be exercised and benchmarked against
//! every workload family in this crate (TPC-H, TPC-C, YCSB, synthetic).
//!
//! The detection half is [`signature`] / [`profile_distance`]: a workload
//! collapses to a [`WorkloadSignature`] (read/write mix, demand, and
//! per-query-class weight shares), and two signatures are compared with a
//! bounded distance in `[0, 1]`. The controller (`dot_core::controller`)
//! computes this distance between the deployed recommendation's baseline
//! profile and each observed profile, and replans when it crosses a
//! threshold.
//!
//! All generators and the metric are pure: they never mutate their input,
//! and the same inputs always produce the same result.

use crate::spec::{PerfMetric, Workload};
use dot_dbms::query::{Op, QuerySpec, ReadOp, Rel, ScanSpec};
use dot_dbms::Schema;
use serde::{Deserialize, Serialize};

/// True when any operation of the query writes (insert or update) — the
/// read/write classification behind [`signature`]'s write fraction, shared
/// with the measured-telemetry fold ([`crate::telemetry`]) so declared and
/// measured signatures agree on what counts as a write.
pub fn writes(q: &QuerySpec) -> bool {
    q.ops
        .iter()
        .any(|op| matches!(op, Op::Insert(_) | Op::Update(_)))
}

/// Shift the read/write balance of a workload by reweighting its queries.
///
/// `shift ∈ (-1, 1)`: positive values scale every write-bearing query's
/// weight by `1 + shift` and every read-only query's by `1 - shift`
/// (drift toward a transactional phase); negative values drift toward an
/// analytical phase. `tasks_per_stream` is rescaled by the total-weight
/// ratio so throughput workloads keep their task accounting consistent.
///
/// # Panics
///
/// Panics when `shift` is outside `(-1, 1)` (a weight would become
/// non-positive, which [`Workload::validate`] rejects).
pub fn shift_read_write(workload: &Workload, shift: f64) -> Workload {
    assert!(
        shift > -1.0 && shift < 1.0,
        "shift {shift} out of (-1, 1): weights must stay positive"
    );
    let mut drifted = workload.clone();
    shift_in_place(&mut drifted, shift);
    drifted.name = drift_name(&workload.name, Some(shift), None);
    drifted
}

/// Scale a workload's demand by `factor > 0`.
///
/// Throughput workloads scale their degree of concurrency (more identical
/// streams, never below 1); response-time workloads scale every query's
/// weight (longer streams) — in both cases `tasks_per_stream` follows, so
/// derived throughput floors and task counts stay consistent.
///
/// # Panics
///
/// Panics when `factor` is not strictly positive and finite.
pub fn scale_throughput(workload: &Workload, factor: f64) -> Workload {
    assert!(
        factor > 0.0 && factor.is_finite(),
        "scale factor {factor} must be positive and finite"
    );
    let mut drifted = workload.clone();
    scale_in_place(&mut drifted, factor);
    drifted.name = drift_name(&workload.name, None, Some(factor));
    drifted
}

/// The arithmetic of [`shift_read_write`], in place: only the weights and
/// `tasks_per_stream` change (the name is left alone, and the caller
/// checks the domain). A controller reweights one reusable copy of a
/// workload with this instead of cloning it every tick.
pub fn shift_in_place(workload: &mut Workload, shift: f64) {
    let old_total: f64 = workload.queries.iter().map(|q| q.weight).sum();
    for q in &mut workload.queries {
        let factor = if writes(q) { 1.0 + shift } else { 1.0 - shift };
        q.weight *= factor;
    }
    let new_total: f64 = workload.queries.iter().map(|q| q.weight).sum();
    workload.tasks_per_stream = workload.tasks_per_stream * new_total / old_total;
}

/// The arithmetic of [`scale_throughput`], in place (name untouched,
/// domain checked by the caller).
pub fn scale_in_place(workload: &mut Workload, factor: f64) {
    match workload.metric {
        PerfMetric::Throughput => {
            let c = (workload.concurrency as f64 * factor).round().max(1.0);
            workload.concurrency = c as u32;
        }
        PerfMetric::ResponseTime => {
            for q in &mut workload.queries {
                q.weight *= factor;
            }
            workload.tasks_per_stream *= factor;
        }
    }
}

/// The name [`shift_read_write`] then [`scale_throughput`] give a workload
/// called `base`: `+rw±s.ss` for a shift, then `+xf.ff` for a scale.
pub fn drift_name(base: &str, shift: Option<f64>, scale: Option<f64>) -> String {
    use std::fmt::Write;
    let mut name = base.to_owned();
    if let Some(shift) = shift {
        let _ = write!(name, "+rw{shift:+.2}");
    }
    if let Some(factor) = scale {
        let _ = write!(name, "+x{factor:.2}");
    }
    name
}

/// One query class's share of a workload's total weight, keyed by the
/// query's name (classes are merged when a workload repeats a name).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassWeight {
    /// Query-class name.
    pub class: String,
    /// The class's share of the workload's total weight, in `[0, 1]`.
    pub weight: f64,
}

/// The drift-detection fingerprint of a workload: the low-dimensional view
/// of its profile an online controller compares across observations.
///
/// Three axes capture the drifts the generators in this module produce —
/// and the ones the HTAP literature describes:
///
/// * **read/write mix** ([`write_fraction`](Self::write_fraction)): the
///   share of total query weight carried by write-bearing queries, moved
///   by [`shift_read_write`] and the analytical↔transactional phase flip;
/// * **demand** ([`tasks_per_pass`](Self::tasks_per_pass)): tasks completed
///   by one pass of all concurrent streams, moved by [`scale_throughput`];
/// * **class weights** ([`class_weights`](Self::class_weights)): the
///   normalized weight distribution over query classes, moved whenever the
///   *shape* of the mix changes (new reporting queries, a retired
///   transaction type) even at a constant read/write balance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSignature {
    /// Share of total query weight carried by write-bearing queries.
    pub write_fraction: f64,
    /// Tasks completed by one pass of the whole workload:
    /// `concurrency × tasks_per_stream`.
    pub tasks_per_pass: f64,
    /// Per-query-class weight shares, sorted by class name; shares sum
    /// to 1.
    pub class_weights: Vec<ClassWeight>,
}

/// Collapse a workload to its [`WorkloadSignature`].
pub fn signature(workload: &Workload) -> WorkloadSignature {
    let shape = SignatureShape::of(workload);
    let mut shares = Vec::new();
    let (write_fraction, tasks_per_pass) = shape.sign(workload, &mut shares);
    WorkloadSignature {
        write_fraction,
        tasks_per_pass,
        class_weights: shape
            .classes
            .into_iter()
            .zip(shares)
            .map(|(class, weight)| ClassWeight { class, weight })
            .collect(),
    }
}

/// What a signature needs of a workload's *shape* — its query classes and
/// which queries write — computed once, so that signing every reweighting
/// of the workload (a drift step's observation) allocates nothing.
/// [`signature`] itself signs through it, so the two never disagree.
#[derive(Debug, Clone)]
pub struct SignatureShape {
    /// Distinct query-class names, sorted.
    classes: Vec<String>,
    /// Per query, in workload order.
    slots: Vec<Slot>,
}

/// One query's place in a [`SignatureShape`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Its class's index in the sorted classes.
    class: usize,
    /// Whether it is the first query of its class.
    first: bool,
    writes: bool,
}

impl SignatureShape {
    /// The shape of `workload`.
    pub fn of(workload: &Workload) -> SignatureShape {
        // Classes in first-seen order, then renumbered by sorted name.
        let mut seen: Vec<&str> = Vec::with_capacity(workload.queries.len());
        let mut slots: Vec<Slot> = workload
            .queries
            .iter()
            .map(|q| {
                let found = seen.iter().position(|c| *c == q.name);
                let class = found.unwrap_or_else(|| {
                    seen.push(&q.name);
                    seen.len() - 1
                });
                Slot {
                    class,
                    first: found.is_none(),
                    writes: writes(q),
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..seen.len()).collect();
        order.sort_unstable_by_key(|&k| seen[k]);
        let mut rank = vec![0; seen.len()];
        for (r, &k) in order.iter().enumerate() {
            rank[k] = r;
        }
        for slot in &mut slots {
            slot.class = rank[slot.class];
        }
        SignatureShape {
            classes: order.iter().map(|&k| seen[k].to_owned()).collect(),
            slots,
        }
    }

    /// Sign `workload`, which must have this shape (a reweighting of the
    /// workload the shape was taken of): its class shares go into
    /// `shares`, parallel to the sorted classes, and the answer is
    /// `(write_fraction, tasks_per_pass)` — exactly [`signature`]'s.
    pub fn sign(&self, workload: &Workload, shares: &mut Vec<f64>) -> (f64, f64) {
        let total: f64 = workload.queries.iter().map(|q| q.weight).sum();
        let write: f64 = workload
            .queries
            .iter()
            .zip(&self.slots)
            .filter(|(_, slot)| slot.writes)
            .map(|(q, _)| q.weight)
            .sum();
        shares.clear();
        shares.resize(self.classes.len(), 0.0);
        for (q, slot) in workload.queries.iter().zip(&self.slots) {
            let share = if total > 0.0 { q.weight / total } else { 0.0 };
            if slot.first {
                shares[slot.class] = share;
            } else {
                shares[slot.class] += share;
            }
        }
        (
            if total > 0.0 { write / total } else { 0.0 },
            workload.concurrency as f64 * workload.tasks_per_stream,
        )
    }

    /// [`WorkloadSignature::distance`] from `baseline` to the signature
    /// [`sign`](Self::sign) answered, without materializing it.
    pub fn distance_from(
        &self,
        baseline: &WorkloadSignature,
        (write_fraction, tasks_per_pass): (f64, f64),
        shares: &[f64],
    ) -> f64 {
        distance(
            baseline.write_fraction,
            baseline.tasks_per_pass,
            baseline
                .class_weights
                .iter()
                .map(|c| (c.class.as_str(), c.weight)),
            write_fraction,
            tasks_per_pass,
            self.classes
                .iter()
                .map(String::as_str)
                .zip(shares.iter().copied()),
        )
    }
}

/// The profile distance between two signatures given as parts, each with
/// its class shares sorted by class name (see
/// [`WorkloadSignature::distance`]).
fn distance<'a, 'b>(
    rw_a: f64,
    tasks_a: f64,
    classes_a: impl Iterator<Item = (&'a str, f64)>,
    rw_b: f64,
    tasks_b: f64,
    classes_b: impl Iterator<Item = (&'b str, f64)>,
) -> f64 {
    let rw = (rw_a - rw_b).abs();
    let peak = tasks_a.max(tasks_b);
    let demand = if peak > 0.0 {
        (tasks_a - tasks_b).abs() / peak
    } else {
        0.0
    };
    // Total variation over the merged (sorted) class lists.
    let mut variation = 0.0;
    let (mut a, mut b) = (classes_a.peekable(), classes_b.peekable());
    loop {
        match (a.peek(), b.peek()) {
            (Some(&(ca, wa)), Some(&(cb, wb))) if ca == cb => {
                variation += (wa - wb).abs();
                a.next();
                b.next();
            }
            (Some(&(ca, wa)), Some(&(cb, _))) if ca < cb => {
                variation += wa;
                a.next();
            }
            (Some(_), Some(&(_, wb))) => {
                variation += wb;
                b.next();
            }
            (Some(&(_, wa)), None) => {
                variation += wa;
                a.next();
            }
            (None, Some(&(_, wb))) => {
                variation += wb;
                b.next();
            }
            (None, None) => break,
        }
    }
    let classes = variation / 2.0;
    // Each axis is ≤ 1 by construction; the summed variation can creep
    // past it by a few ulps, so pin the documented bound exactly.
    rw.max(demand).max(classes).min(1.0)
}

impl WorkloadSignature {
    /// Bounded profile distance in `[0, 1]`: the largest drift along any of
    /// the three axes. Each axis is itself normalized to `[0, 1]` —
    /// absolute difference for the write fraction, relative change for
    /// demand (`|a − b| / max(a, b)`), and total-variation distance for the
    /// class-weight distributions (classes absent on one side count with
    /// weight 0) — so one threshold governs all of them. The distance is
    /// symmetric, `0` exactly for identical signatures, and monotone in
    /// each generator's drift parameter (the property suite pins this).
    pub fn distance(&self, other: &WorkloadSignature) -> f64 {
        distance(
            self.write_fraction,
            self.tasks_per_pass,
            self.class_weights
                .iter()
                .map(|c| (c.class.as_str(), c.weight)),
            other.write_fraction,
            other.tasks_per_pass,
            other
                .class_weights
                .iter()
                .map(|c| (c.class.as_str(), c.weight)),
        )
    }
}

/// [`WorkloadSignature::distance`] between two workloads' signatures — the
/// metric the online controller thresholds on.
pub fn profile_distance(a: &Workload, b: &Workload) -> f64 {
    signature(a).distance(&signature(b))
}

/// A matched analytical→transactional drift pair over one schema: the
/// "TPC-H by day, TPC-C by night" phase flip of mixed workloads.
///
/// `analytical` is a single-stream, response-time workload of full scans
/// over every table of `schema` (reporting queries that favour cheap
/// sequential devices); `transactional` is the OLTP workload the caller
/// supplies for the *same* schema (e.g. [`crate::tpcc::workload`]), whose
/// random writes favour premium devices. Provision for the first, then
/// re-plan for the second: the recommended placements flip, and the gap
/// between them is exactly what a migration planner must bridge.
pub fn analytical_phase(schema: &Schema) -> Workload {
    let queries: Vec<QuerySpec> = schema
        .tables()
        .iter()
        .map(|t| {
            QuerySpec::read(
                &format!("report_{}", t.name),
                ReadOp::of(Rel::Scan(ScanSpec::full(t.id))).with_agg(t.rows),
            )
        })
        .collect();
    Workload::dss(&format!("{}-analytical", schema.name()), queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synth, tpcc, tpch, ycsb};

    #[test]
    fn shift_moves_weight_toward_writes_and_validates() {
        let s = synth::bench_schema(1_000_000.0, 120.0);
        let w = synth::mixed_workload(&s);
        let drifted = shift_read_write(&w, 0.5);
        drifted.validate(&s).expect("drifted workload stays valid");
        for (before, after) in w.queries.iter().zip(&drifted.queries) {
            if writes(before) {
                assert!(after.weight > before.weight, "{}", before.name);
            } else {
                assert!(after.weight < before.weight, "{}", before.name);
            }
        }
        // Negative shift drifts the other way.
        let analytical = shift_read_write(&w, -0.5);
        assert!(analytical.queries[0].weight > w.queries[0].weight);
        // The original is untouched.
        assert_eq!(w.queries[0].weight, 1.0);
    }

    #[test]
    fn shift_rescales_tasks_with_total_weight() {
        let s = tpcc::schema(2.0);
        let w = tpcc::workload(&s);
        let drifted = shift_read_write(&w, 0.3);
        let old_total: f64 = w.queries.iter().map(|q| q.weight).sum();
        let new_total: f64 = drifted.queries.iter().map(|q| q.weight).sum();
        let expect = w.tasks_per_stream * new_total / old_total;
        assert!((drifted.tasks_per_stream - expect).abs() < 1e-9);
        assert_eq!(drifted.metric, PerfMetric::Throughput);
        assert_eq!(drifted.concurrency, w.concurrency);
    }

    #[test]
    fn scale_throughput_scales_concurrency_for_oltp_and_weights_for_dss() {
        let oltp_schema = tpcc::schema(2.0);
        let oltp = tpcc::workload(&oltp_schema);
        let doubled = scale_throughput(&oltp, 2.0);
        assert_eq!(doubled.concurrency, oltp.concurrency * 2);
        assert_eq!(doubled.tasks_per_stream, oltp.tasks_per_stream);

        let dss_schema = tpch::subset_schema(1.0);
        let dss = tpch::subset_workload(&dss_schema);
        let halved = scale_throughput(&dss, 0.5);
        assert_eq!(halved.concurrency, dss.concurrency);
        assert!((halved.tasks_per_stream - dss.tasks_per_stream * 0.5).abs() < 1e-9);
        halved.validate(&dss_schema).expect("still valid");
        // Never below one stream.
        let tiny = scale_throughput(&oltp, 1e-6);
        assert_eq!(tiny.concurrency, 1);
    }

    #[test]
    fn analytical_phase_is_read_only_over_every_table() {
        let s = tpcc::schema(2.0);
        let a = analytical_phase(&s);
        assert_eq!(a.metric, PerfMetric::ResponseTime);
        assert_eq!(a.queries.len(), s.tables().len());
        assert!(a.queries.iter().all(|q| !writes(q)));
        a.validate(&s).expect("analytical phase validates");
        // The pair shares the schema with the transactional phase.
        let t = tpcc::workload(&s);
        assert_eq!(t.metric, PerfMetric::Throughput);
    }

    #[test]
    fn distance_is_zero_on_identity_and_symmetric() {
        let s = tpcc::schema(2.0);
        let w = tpcc::workload(&s);
        assert_eq!(profile_distance(&w, &w), 0.0);
        let drifted = shift_read_write(&w, 0.4);
        let ab = profile_distance(&w, &drifted);
        let ba = profile_distance(&drifted, &w);
        assert!(ab > 0.0);
        assert_eq!(ab, ba, "distance must be symmetric");
    }

    #[test]
    fn distance_is_bounded_and_monotone_in_shift() {
        let s = synth::bench_schema(1_000_000.0, 120.0);
        let w = synth::mixed_workload(&s);
        let mut last = 0.0;
        for step in 1..=9 {
            let shift = step as f64 * 0.1;
            let d = profile_distance(&w, &shift_read_write(&w, shift));
            assert!(d >= last, "shift {shift}: {d} < {last}");
            assert!((0.0..=1.0).contains(&d), "distance {d} out of [0, 1]");
            last = d;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn distance_sees_demand_scaling_and_phase_flips() {
        let s = tpcc::schema(2.0);
        let w = tpcc::workload(&s);
        // Demand axis: doubling concurrency halves-complements to 0.5.
        let doubled = scale_throughput(&w, 2.0);
        let d = profile_distance(&w, &doubled);
        assert!((d - 0.5).abs() < 1e-9, "2x demand must read 0.5, got {d}");
        // The phase flip moves every axis: disjoint classes, zero writes.
        let flip = profile_distance(&w, &analytical_phase(&s));
        assert!(flip > 0.9, "phase flip must read near 1, got {flip}");
        // A signature round-trips through serde.
        let sig = signature(&w);
        let json = serde_json::to_string(&sig).unwrap();
        let back: WorkloadSignature = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sig);
    }

    #[test]
    fn repeated_classes_merge_and_sort_and_the_shape_signs_alike() {
        let s = synth::bench_schema(1_000_000.0, 120.0);
        let mut w = synth::mixed_workload(&s);
        // Two more queries reusing the first and last class names, out of
        // name order.
        let mut again = w.queries[0].clone().with_weight(2.0);
        again.name = w.queries[3].name.clone();
        w.queries.push(again);
        w.queries.push(w.queries[0].clone().with_weight(0.5));
        let sig = signature(&w);
        assert_eq!(sig.class_weights.len(), 4);
        assert!(sig
            .class_weights
            .windows(2)
            .all(|p| p[0].class < p[1].class));
        let total: f64 = sig.class_weights.iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);

        let shape = SignatureShape::of(&w);
        let mut shares = Vec::new();
        let baseline = signature(&tpcc::workload(&tpcc::schema(1.0)));
        for shift in [-0.5, 0.0, 0.3] {
            let drifted = scale_throughput(&shift_read_write(&w, shift), 1.5);
            let sign = shape.sign(&drifted, &mut shares);
            let expect = signature(&drifted);
            assert_eq!(sign, (expect.write_fraction, expect.tasks_per_pass));
            let weights: Vec<f64> = expect.class_weights.iter().map(|c| c.weight).collect();
            assert_eq!(shares, weights);
            for from in [&baseline, &sig, &expect] {
                assert_eq!(
                    shape.distance_from(from, sign, &shares),
                    from.distance(&expect)
                );
            }
        }
    }

    #[test]
    fn generators_cover_every_workload_family() {
        let tpch_s = tpch::subset_schema(1.0);
        let tpcc_s = tpcc::schema(1.0);
        let ycsb_s = ycsb::schema(100_000.0);
        for (schema, w) in [
            (&tpch_s, tpch::subset_workload(&tpch_s)),
            (&tpcc_s, tpcc::workload(&tpcc_s)),
            (&ycsb_s, ycsb::workload(&ycsb_s, ycsb::YcsbMix::A, 300)),
        ] {
            shift_read_write(&w, 0.4).validate(schema).unwrap();
            scale_throughput(&w, 3.0).validate(schema).unwrap();
        }
    }
}

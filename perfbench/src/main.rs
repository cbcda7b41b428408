//! Replay benchmark of `dot-serve` requests served in-process.
//!
//! ```text
//! perfbench --workload <provision-mix|tenant-steady|tenant-drift>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One caller thread sends the daemon's JSON-lines requests to a
//! `dot_serve::Registry`, each decoded with `framing::parse_request` and
//! every response frame encoded with `framing::write_frame`, in a closed
//! loop. After one untimed warm-up replay and an untimed reference replay
//! checked against the oracle, the run replays the same seeded stream from
//! fresh state until `--seconds` have passed; each op's latency is its
//! minimum across those replays. The last stdout line is the result
//! object; the line before it holds per-run diagnostics. See README.md for
//! the metric definitions and the evidence behind the estimator.

mod gen;
mod oracle;
mod replay;
mod serve;
mod stats;

use replay::{Bench, Reference, Replay};
use stats::{mean, median, percentile_sorted};
use std::path::PathBuf;
use std::time::Instant;

/// Scratch state of a run, such as tenant-drift's state directories,
/// relative to the checkout root the benchmark runs from.
const WORK_DIR: &str = ".bench_build/perfbench-work";

/// Timed replays a run makes at the least, however long they take.
const MIN_REPLAYS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    if !gen::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            gen::WORKLOADS,
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-op minimum across `replays` of `f(replay, op)`: the op's time in
/// the least contended replay. The host's contention comes in episodes
/// that slow whole replays 1.5–2×, and the share of replays they hit
/// varies from run to run; a per-op median follows that share, while the
/// minimum needs only one replay outside an episode.
fn per_op_minima(replays: &[&Replay], n: usize, f: impl Fn(&Replay, usize) -> u64) -> Vec<f64> {
    (0..n)
        .map(|i| replays.iter().map(|r| f(r, i)).min().unwrap_or(0) as f64)
        .collect()
}

/// `(p50, p99)` over ops of per-op minima, in microseconds, and the sum
/// of the per-op minima in seconds.
fn latency_summary(minima_ns: &[f64]) -> (f64, f64, f64) {
    let mut sorted = minima_ns.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        percentile_sorted(&sorted, 0.50) / 1e3,
        percentile_sorted(&sorted, 0.99) / 1e3,
        sorted.iter().sum::<f64>() / 1e9,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> std::io::Result<()> {
    let started = Instant::now();
    let w = gen::generate(&args.workload, args.seed).expect("workload name was checked");
    let dir = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = measure(args, &w, dir.clone(), started);
    std::fs::remove_dir_all(&dir)?;
    let (diagnostics, correct, attempted, failed, metrics) = result?;
    println!("{diagnostics}");
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

type Outcome = (String, bool, usize, usize, Vec<Metric>);

fn measure(
    args: &Args,
    w: &gen::Workload,
    dir: PathBuf,
    started: Instant,
) -> std::io::Result<Outcome> {
    let n = w.ops.len();
    let bench = Bench::new(w, dir)?;

    // Warm-up: untimed, from fresh state like every later replay. The
    // peak RSS is read straight after it, before the oracle and the
    // reference outputs exist, so it holds the registry and the request
    // stream alone.
    let (warm, _) = bench.replay(None, None, false, w.cache_capacity)?;
    let peak_rss = stats::peak_rss_mib();

    // Oracle and reference replay, untimed: every answer of the reference
    // is checked against the oracle, and every later replay must
    // reproduce it. On provision-mix the reference runs through an
    // unbounded cache, whose misses count the distinct estimates the
    // stream asks for: the working set, against the capacity the
    // registry runs with.
    let oracle_start = Instant::now();
    let oracle = oracle::derive(w);
    let oracle_s = oracle_start.elapsed().as_secs_f64();
    let capacity = if w.tenants.is_empty() {
        usize::MAX / 2
    } else {
        w.cache_capacity
    };
    let (first, reference) = bench.replay(None, None, true, capacity)?;
    let reference: Reference = reference.expect("the reference replay keeps its outputs");
    let oracle_failures = (0..n)
        .filter(|&i| !oracle.matches(i, reference.get(i)))
        .count();
    let mut attempted = n;
    let mut failed = oracle_failures;
    let distinct = if w.tenants.is_empty() {
        first.cache.misses
    } else {
        warm.cache.entries as u64
    };

    // Timed replays: untraced ones for the end-to-end metrics; with
    // --trace 1, traced ones interleaved for the per-layer metrics.
    let timed_start = Instant::now();
    let mut untraced: Vec<Replay> = Vec::new();
    let mut traced: Vec<Replay> = Vec::new();
    while untraced.len() < MIN_REPLAYS || timed_start.elapsed().as_secs_f64() < args.seconds {
        let (r, _) = bench.replay(None, Some(&reference), false, w.cache_capacity)?;
        failed += r.mismatches;
        attempted += n;
        untraced.push(r);
        if args.trace {
            let (r, _) = bench.replay(Some(&oracle), Some(&reference), false, w.cache_capacity)?;
            failed += r.mismatches;
            attempted += n;
            traced.push(r);
        }
    }
    let timed_s = timed_start.elapsed().as_secs_f64();

    let plain: Vec<&Replay> = untraced.iter().collect();
    let minima = per_op_minima(&plain, n, |r, i| r.lat_ns[i]);
    let (p50, p99, sum_s) = latency_summary(&minima);
    let setup_s = median(&plain.iter().map(|r| r.setup_ns as f64).collect::<Vec<_>>()) / 1e9;
    let success_rate = 1.0 - failed as f64 / attempted as f64;
    let counts = oracle.control_counts();

    let metrics = if args.trace {
        layer_metrics(w, &oracle, &reference, &warm, &traced, p50)
    } else {
        vec![
            m("setup_s", setup_s, "s"),
            m("op_p50_us", p50, "us"),
            m("op_p99_us", p99, "us"),
            m("ops_per_s", n as f64 / sum_s, "1/s"),
            m("success_rate", success_rate, "ratio"),
            m("peak_rss_mb", peak_rss, "MiB"),
            m("toc_vs_premium", oracle.toc_vs_premium(), "ratio"),
        ]
    };

    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    let classes: Vec<String> = w
        .classes
        .iter()
        .map(|(c, k)| {
            let share = if w.tenants.is_empty() {
                *k as f64 / n as f64
            } else {
                *k as f64 / w.tenants.len() as f64
            };
            format!("\"{c}\": {{\"count\": {k}, \"share\": {share:.4}}}")
        })
        .collect();
    let diagnostics = format!(
        concat!(
            "{{\"diagnostics\": {{\"workload\": \"{}\", \"seed\": {}, \"ops_per_replay\": {}, ",
            "\"tenants\": {}, \"classes\": {{{}}}, ",
            "\"working_set\": {{\"distinct_estimates\": {}, \"cache_capacity\": {}, \"evictions\": {}}}, ",
            "\"replays\": {}, \"traced_replays\": {}, ",
            "\"replay_wall_ms\": {{\"min\": {:.3}, \"median\": {:.3}, \"max\": {:.3}}}, ",
            "\"controller\": {{\"triggers\": {}, \"stays\": {}, \"migrations\": {}, \"deferred\": {}, \"makespan_s\": {}}}, ",
            "\"oracle_failures\": {}, \"oracle_s\": {:.3}, \"timed_s\": {:.3}, \"total_s\": {:.3}}}}}"
        ),
        w.name,
        args.seed,
        n,
        w.tenants.len(),
        classes.join(", "),
        distinct,
        w.cache_capacity,
        warm.cache.misses - warm.cache.entries as u64,
        untraced.len(),
        traced.len(),
        walls.iter().cloned().fold(f64::INFINITY, f64::min),
        median(&walls),
        walls.iter().cloned().fold(0.0, f64::max),
        counts.triggers,
        counts.stays,
        counts.migrations,
        counts.deferred,
        counts.makespan_s,
        oracle_failures,
        oracle_s,
        timed_s,
        started.elapsed().as_secs_f64(),
    );
    Ok((diagnostics, failed == 0, attempted, failed, metrics))
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    w: &gen::Workload,
    oracle: &oracle::Oracle,
    reference: &Reference,
    warm: &Replay,
    traced: &[Replay],
    untraced_p50_us: f64,
) -> Vec<Metric> {
    let n = w.ops.len();
    let t: Vec<&Replay> = traced.iter().collect();
    let per_op = |f: &dyn Fn(&Replay, usize) -> u64| per_op_minima(&t, n, f);
    let (traced_p50, _, _) = latency_summary(&per_op(&|r, i| r.lat_ns[i]));
    let decode = per_op(&|r, i| r.spans[i].decode);
    let encode = per_op(&|r, i| r.spans[i].encode);

    // Registry layers beside the shadow's: on tenant ticks, the
    // registry's time beyond the shadow's `expand_trace` and
    // `Controller::observe` is its overhead on quiescent ticks and its
    // persist (snapshot write and fsync) on applied ones.
    use oracle::TickKind::*;
    let kinds = oracle.tick_kinds();
    let applied = |i: usize| kinds.get(i) == Some(&Applied);
    let beyond_shadow = |r: &Replay, i: usize| {
        r.spans[i]
            .registry
            .saturating_sub(r.shadow[i].expand + r.shadow[i].controller)
    };

    // Coverage: the stage times the per-layer metrics report — decode,
    // encode, the shadow's solve, expand and controller, and persist on
    // applied ticks — over the op times of the registry's own path. Time
    // the registry spends outside those layers lowers it.
    let coverage = median(
        &traced
            .iter()
            .map(|r| {
                let staged: u64 = (0..n)
                    .map(|i| {
                        let (s, sh) = (&r.spans[i], &r.shadow[i]);
                        let persist = if applied(i) { beyond_shadow(r, i) } else { 0 };
                        s.decode + s.encode + sh.solve.total() + sh.expand + sh.controller + persist
                    })
                    .sum();
                staged as f64 / r.lat_ns.iter().sum::<u64>() as f64
            })
            .collect::<Vec<_>>(),
    );

    // Solver-side layers: per request on provision-mix; per tenant
    // baseline solve (what attach runs) on the tenant workloads.
    let (resolve_us, build_us, recommend_us, attach_us);
    let (investigated, pruned);
    if w.tenants.is_empty() {
        let solve =
            |f: fn(&serve::SolveSpans) -> u64| mean(&per_op(&|r, i| f(&r.shadow[i].solve))) / 1e3;
        resolve_us = solve(|s| s.resolve);
        build_us = solve(|s| s.build);
        recommend_us = solve(|s| s.recommend);
        attach_us = 0.0;
        let mut inv = 0;
        let mut pru = 0;
        for i in 0..n {
            for frame in serve::decode_frames(reference.get(i)) {
                if let dot_serve::Response::Provisioned { recommendation } = frame.response {
                    inv += recommendation.provenance.layouts_investigated;
                    pru += recommendation.provenance.layouts_pruned;
                }
            }
        }
        investigated = inv;
        pruned = pru;
    } else {
        let tenants = w.tenants.len();
        let setup = |f: fn(&replay::SetupSpans) -> u64| {
            mean(&per_op_minima(&t, tenants, |r, k| f(&r.setup_spans[k]))) / 1e3
        };
        resolve_us = setup(|s| s.solve.resolve);
        build_us = setup(|s| s.solve.build);
        recommend_us = setup(|s| s.solve.recommend);
        attach_us = setup(|s| s.attach);
        investigated = oracle
            .baselines
            .iter()
            .map(|b| b.layouts_investigated)
            .sum();
        pruned = oracle.baselines.iter().map(|b| b.layouts_pruned).sum();
    }

    // Controller and registry layers, split by what the oracle says each
    // tick did.
    let (mut expand_us, mut quiescent_us, mut replan_us) = (0.0, 0.0, 0.0);
    let (mut observe_us, mut overhead_us, mut persist_us) = (0.0, 0.0, 0.0);
    if !kinds.is_empty() {
        let expand = per_op(&|r, i| r.shadow[i].expand);
        let ctrl = per_op(&|r, i| r.shadow[i].controller);
        let beyond = per_op(&beyond_shadow);
        let over = |pick: &dyn Fn(oracle::TickKind) -> bool, v: &[f64]| {
            mean(
                &(0..n)
                    .filter(|&i| pick(kinds[i]))
                    .map(|i| v[i])
                    .collect::<Vec<_>>(),
            ) / 1e3
        };
        expand_us = mean(&expand) / 1e3;
        quiescent_us = over(&|k| k == Quiescent, &ctrl);
        replan_us = over(&|k| k != Quiescent, &ctrl);
        observe_us = mean(&per_op(&|r, i| r.spans[i].registry)) / 1e3;
        overhead_us = over(&|k| k == Quiescent, &beyond);
        persist_us = over(&|k| k == Applied, &beyond);
    }
    let counts = oracle.control_counts();
    let cache = warm.cache;
    let snapshot_bytes = median(
        &traced
            .iter()
            .map(|r| r.snapshot_bytes as f64)
            .collect::<Vec<_>>(),
    );
    vec![
        m("framing.decode_us", mean(&decode) / 1e3, "us"),
        m("framing.encode_us", mean(&encode) / 1e3, "us"),
        m(
            "framing.bytes_per_op",
            reference.total_bytes() as f64 / n as f64,
            "bytes",
        ),
        m("protocol.resolve_us", resolve_us, "us"),
        m("advisor.build_us", build_us, "us"),
        m("solver.recommend_us", recommend_us, "us"),
        m("solver.layouts_investigated", investigated as f64, "count"),
        m("solver.layouts_pruned", pruned as f64, "count"),
        m("toc.hits", cache.hits as f64, "count"),
        m("toc.misses", cache.misses as f64, "count"),
        m("toc.hit_rate", cache.hit_rate(), "ratio"),
        m(
            "toc.evictions",
            (cache.misses - cache.entries as u64) as f64,
            "count",
        ),
        m("traces.expand_us", expand_us, "us"),
        m("controller.tick_quiescent_us", quiescent_us, "us"),
        m("controller.tick_replan_us", replan_us, "us"),
        m("controller.triggers", counts.triggers as f64, "count"),
        m("controller.stays", counts.stays as f64, "count"),
        m("controller.migrations", counts.migrations as f64, "count"),
        m("controller.deferred", counts.deferred as f64, "count"),
        m("controller.makespan_s", counts.makespan_s, "s"),
        m("registry.observe_us", observe_us, "us"),
        m("registry.overhead_us", overhead_us, "us"),
        m("registry.persist_us", persist_us, "us"),
        m("registry.snapshot_bytes", snapshot_bytes, "bytes"),
        m("registry.attach_us", attach_us, "us"),
        m("trace.coverage", coverage, "ratio"),
        m("trace.overhead", traced_p50 / untraced_p50_us, "ratio"),
    ]
}

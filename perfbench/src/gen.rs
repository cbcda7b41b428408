//! Stratified, seeded workload generators.
//!
//! Every workload is a fixed design: a fixed number of requests (or
//! tenants) per class, every (database, pool) combination of a class
//! equally often, and the other parameters assigned by rule. The seed
//! picks the send order, where each re-ask lands, and where in its trace
//! each tenant starts — never how many of each kind a run contains. An
//! unstratified stream lets the seed decide how many expensive solves a
//! run holds, which moves throughput more than most code changes do.

use crate::stats::Rng;
use dot_core::controller::TraceStep;
use dot_core::traces;
use dot_serve::protocol::{DbSpec, PoolSpec};
use dot_serve::{ProblemSpec, Request, RequestFrame};

/// The registry's TOC-cache capacity on provision-mix, in entries: a
/// deployment setting, set well below the stream's distinct estimates so
/// that evictions happen. Each run reports both numbers.
pub const PROVISION_CACHE_CAPACITY: usize = 8192;

/// The registry's TOC-cache capacity on the tenant workloads: the
/// daemon's default, which their working sets fit.
pub const TENANT_CACHE_CAPACITY: usize = 1 << 16;

pub const WORKLOADS: [&str; 3] = ["provision-mix", "tenant-steady", "tenant-drift"];

const POOLS: [&str; 3] = ["box1", "box2", "full"];
const TPCH_SF: [u32; 7] = [1, 2, 5, 10, 20, 30, 50];
const SUBSET_SF: [u32; 5] = [1, 2, 5, 10, 20];
const TPCC_WAREHOUSES: [u32; 9] = [1, 2, 4, 8, 16, 32, 64, 150, 300];
const YCSB_RECORDS: [u32; 3] = [100_000, 1_000_000, 10_000_000];
const YCSB_MIXES: [&str; 6] = ["A", "B", "C", "D", "E", "F"];

/// SLA ratio `k` of the grid 0.25, 0.30, ..., 0.75 (`k` in `0..11`).
fn sla(k: usize) -> f64 {
    (25 + 5 * k) as f64 / 100.0
}

fn spec(pool: &str, database: &str, sla: f64) -> ProblemSpec {
    ProblemSpec {
        pool: PoolSpec::Name(pool.to_owned()),
        database: DbSpec::Preset(database.to_owned()),
        sla,
        engine: None,
        refinements: None,
    }
}

fn frame(id: u64, request: Request) -> String {
    serde_json::to_string(&RequestFrame { id, request }).expect("request frames serialize")
}

/// Every (database, pool) pair.
fn cross(databases: &[String], pools: &[&'static str]) -> Vec<(String, &'static str)> {
    databases
        .iter()
        .flat_map(|db| pools.iter().map(move |&p| (db.clone(), p)))
        .collect()
}

/// One benchmark workload: the request lines of one replay plus what the
/// harness needs to set each replay up.
pub struct Workload {
    pub name: &'static str,
    /// The timed request lines, in send order.
    pub ops: Vec<String>,
    /// The tenants, in attach order (ids `1..=tenants.len()`); empty for
    /// provision-mix.
    pub tenants: Vec<Tenant>,
    /// `(class, count)`: requests per class on provision-mix, tenants per
    /// class on the tenant workloads.
    pub classes: Vec<(String, usize)>,
    pub cache_capacity: usize,
    /// Whether the registry persists to a state directory.
    pub persist: bool,
}

/// One tenant of a tenant workload.
pub struct Tenant {
    pub class: &'static str,
    pub problem: ProblemSpec,
    /// One step per tick (`repeat` is never set).
    pub steps: Vec<TraceStep>,
}

impl Tenant {
    /// The `AttachTenant` line that registers this tenant.
    pub fn attach_line(&self, index: usize) -> String {
        frame(
            index as u64 + 1,
            Request::AttachTenant {
                name: Some(format!("t{}-{}", index + 1, self.class)),
                problem: self.problem.clone(),
                deployed: None,
                controller: None,
            },
        )
    }
}

pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "provision-mix" => Some(provision_mix(seed)),
        "tenant-steady" => Some(tenant_steady(seed)),
        "tenant-drift" => Some(tenant_drift(seed)),
        _ => None,
    }
}

/// One request class of provision-mix.
struct Class {
    name: &'static str,
    /// Fresh requests per replay.
    count: usize,
    combos: Vec<(String, &'static str)>,
    /// SLA grid indices the class draws from.
    slas: Vec<usize>,
    solver: Option<&'static str>,
    /// Re-asks of this class's problems at another SLA, per replay.
    reasks: usize,
}

/// One-shot `Provision` requests (1089 per replay, so p99 has ten
/// operations above it): cold dot solves over TPC-H (original, modified,
/// subset), TPC-C and YCSB A–F on every pool; a tenth on the `es` solver;
/// requests that must come back as typed errors; and 30% re-asks of a
/// recent problem at another SLA, which share its TOC-cache entries.
fn provision_mix(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let dbs = |f: &dyn Fn(u32) -> String, xs: &[u32]| xs.iter().map(|&x| f(x)).collect::<Vec<_>>();
    let ycsb: Vec<String> = YCSB_RECORDS
        .iter()
        .flat_map(|r| YCSB_MIXES.iter().map(move |m| format!("ycsb:{r}:{m}")))
        .collect();
    let all_slas: Vec<usize> = (0..11).collect();
    // The exhaustive solver refuses TPC-C and full TPC-H search spaces with
    // a typed `unsupported-workload` error; one pool per database, in turn.
    let unsupported: Vec<(String, &'static str)> = dbs(&|w| format!("tpcc:{w}"), &TPCC_WAREHOUSES)
        .into_iter()
        .chain(dbs(&|sf| format!("tpch:{sf}:original"), &TPCH_SF))
        .chain(dbs(&|sf| format!("tpch:{sf}:modified"), &TPCH_SF))
        .enumerate()
        .map(|(i, db)| (db, POOLS[i % POOLS.len()]))
        .collect();
    let classes = [
        Class {
            name: "tpch-original",
            count: 84,
            combos: cross(&dbs(&|sf| format!("tpch:{sf}:original"), &TPCH_SF), &POOLS),
            slas: all_slas.clone(),
            solver: None,
            reasks: 44,
        },
        Class {
            name: "tpch-modified",
            count: 84,
            combos: cross(&dbs(&|sf| format!("tpch:{sf}:modified"), &TPCH_SF), &POOLS),
            slas: all_slas.clone(),
            solver: None,
            reasks: 44,
        },
        Class {
            name: "tpch-subset",
            count: 105,
            combos: cross(&dbs(&|sf| format!("tpch-subset:{sf}"), &SUBSET_SF), &POOLS),
            slas: all_slas.clone(),
            solver: None,
            reasks: 55,
        },
        Class {
            name: "tpcc",
            count: 189,
            combos: cross(&dbs(&|w| format!("tpcc:{w}"), &TPCC_WAREHOUSES), &POOLS),
            slas: all_slas.clone(),
            solver: None,
            reasks: 99,
        },
        Class {
            name: "ycsb",
            count: 162,
            combos: cross(&ycsb, &POOLS),
            slas: all_slas.clone(),
            solver: None,
            reasks: 85,
        },
        Class {
            name: "es-ycsb",
            count: 54,
            combos: cross(&ycsb, &POOLS),
            slas: all_slas.clone(),
            solver: Some("es"),
            reasks: 0,
        },
        // Exhaustive search over the 3^8 subset layouts of a two-class
        // pool; the tight part of the SLA grid keeps each under ~15 ms.
        Class {
            name: "es-tpch-subset",
            count: 40,
            combos: cross(
                &dbs(&|sf| format!("tpch-subset:{sf}"), &SUBSET_SF),
                &POOLS[..2],
            ),
            slas: (0..7).collect(),
            solver: Some("es"),
            reasks: 0,
        },
        // TPC-H SF 100 on the modified workload: no layout meets an SLA of
        // 0.45 or more on any pool, so the answer is a typed `infeasible`.
        Class {
            name: "infeasible-sla",
            count: 21,
            combos: cross(&["tpch:100:modified".to_owned()], &POOLS),
            slas: (4..11).collect(),
            solver: None,
            reasks: 0,
        },
        Class {
            name: "es-unsupported",
            count: unsupported.len(),
            combos: unsupported,
            slas: all_slas,
            solver: Some("es"),
            reasks: 0,
        },
    ];

    // The requests are a fixed design: each combination of a class asked
    // `count / combos` times at SLAs spread over the class's grid, and the
    // first `reasks` of them asked again at the SLA five grid steps away.
    // The seed orders the fresh requests and places each re-ask 1 to 16
    // requests after its original — near enough to share its TOC-cache
    // entries. Because the design is the same for every seed, so are the
    // replay's cost and answer mix; the seed moves the cache traffic.
    let mut fresh: Vec<(Option<&str>, ProblemSpec, bool)> = Vec::new();
    for c in &classes {
        let reps = c.count / c.combos.len();
        let stride = (c.slas.len() / reps).max(1);
        let design = (0..reps).flat_map(|j| {
            c.combos
                .iter()
                .enumerate()
                .map(move |(i, combo)| (combo, (i + j * stride) % c.slas.len()))
        });
        for (n, ((db, pool), k)) in design.enumerate() {
            fresh.push((c.solver, spec(pool, db, sla(c.slas[k])), n < c.reasks));
        }
    }
    rng.shuffle(&mut fresh);
    let mut ops = Vec::new();
    let push = |ops: &mut Vec<String>, problem: ProblemSpec, solver: Option<&str>| {
        let id = ops.len() as u64 + 1;
        ops.push(frame(
            id,
            Request::Provision {
                problem,
                solver: solver.map(str::to_owned),
            },
        ));
    };
    // Re-asks waiting for their slot: (due after fresh request #, problem).
    let mut pending: Vec<(usize, ProblemSpec)> = Vec::new();
    for (pos, (solver, problem, reask)) in fresh.into_iter().enumerate() {
        if reask {
            let k = ((problem.sla * 100.0).round() as usize - 25) / 5;
            let mut again = problem.clone();
            again.sla = sla((k + 5) % 11);
            pending.push((pos + 1 + rng.below(16), again));
        }
        push(&mut ops, problem, solver);
        pending.sort_by_key(|(due, _)| std::cmp::Reverse(*due));
        while pending.last().is_some_and(|(due, _)| *due <= pos) {
            let (_, again) = pending.pop().expect("checked non-empty");
            push(&mut ops, again, None);
        }
    }
    while let Some((_, again)) = pending.pop() {
        push(&mut ops, again, None);
    }
    let mut counts: Vec<(String, usize)> = classes
        .iter()
        .map(|c| (c.name.to_owned(), c.count))
        .collect();
    counts.extend(
        classes
            .iter()
            .filter(|c| c.reasks > 0)
            .map(|c| (format!("re-ask-{}", c.name), c.reasks)),
    );
    Workload {
        name: "provision-mix",
        ops,
        tenants: Vec::new(),
        classes: counts,
        cache_capacity: PROVISION_CACHE_CAPACITY,
        persist: false,
    }
}

/// Expand a generated script into one step per tick.
fn per_tick(steps: Vec<TraceStep>) -> Vec<TraceStep> {
    steps
        .into_iter()
        .flat_map(|mut step| {
            let n = step.repeat.take().unwrap_or(1);
            std::iter::repeat_n(step, n)
        })
        .collect()
}

/// Round-robin the tenants' ticks into `Observe` lines: tick 0 of every
/// tenant, then tick 1, and so on, as a fleet of agents reporting in turn.
fn observe_ops(tenants: &[Tenant], ticks: usize) -> Vec<String> {
    let mut ops = Vec::with_capacity(tenants.len() * ticks);
    for tick in 0..ticks {
        for (k, tenant) in tenants.iter().enumerate() {
            ops.push(frame(
                ops.len() as u64 + 1,
                Request::Observe {
                    tenant: k as u64 + 1,
                    step: tenant.steps[tick].clone(),
                },
            ));
        }
    }
    ops
}

fn tenant_workload(
    name: &'static str,
    mut rng: Rng,
    mut tenants: Vec<Tenant>,
    ticks: usize,
    persist: bool,
) -> Workload {
    rng.shuffle(&mut tenants);
    let mut classes: Vec<(String, usize)> = Vec::new();
    for t in &tenants {
        match classes.iter_mut().find(|(c, _)| c == t.class) {
            Some((_, n)) => *n += 1,
            None => classes.push((t.class.to_owned(), 1)),
        }
    }
    Workload {
        name,
        ops: observe_ops(&tenants, ticks),
        tenants,
        classes,
        cache_capacity: TENANT_CACHE_CAPACITY,
        persist,
    }
}

const STEADY_TICKS: usize = 448;

/// 36 tenants — nine per preset family, one per (size, pool) pair — each
/// replaying its own diurnal drift with amplitude at most 0.05: below
/// every trigger, so each op is a quiescent `Observe`.
fn tenant_steady(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let ycsb: Vec<(String, &'static str)> = (0..9)
        .map(|i| (format!("ycsb:1000000:{}", YCSB_MIXES[i % 6]), POOLS[i % 3]))
        .collect();
    let families: [(&'static str, Vec<(String, &'static str)>); 4] = [
        (
            "tpcc",
            cross(&["tpcc:1", "tpcc:2", "tpcc:4"].map(String::from), &POOLS),
        ),
        (
            "tpch-subset",
            cross(
                &["tpch-subset:1", "tpch-subset:2", "tpch-subset:5"].map(String::from),
                &POOLS,
            ),
        ),
        ("ycsb", ycsb),
        (
            "tpch-modified",
            cross(
                &["tpch:1:modified", "tpch:2:modified", "tpch:5:modified"].map(String::from),
                &POOLS,
            ),
        ),
    ];
    let mut tenants = Vec::new();
    for (class, combos) in &families {
        for (i, (db, pool)) in combos.iter().enumerate() {
            let amplitude = [-0.05, 0.04, -0.03, 0.05, -0.04, 0.03][i % 6];
            let period = [8usize, 12, 16, 24, 32][i % 5];
            let days = STEADY_TICKS.div_ceil(period) + 1;
            let day = per_tick(traces::diurnal(amplitude, period, days).expect("valid diurnal"));
            // Start each tenant at its own point of the day.
            let offset = rng.below(period);
            tenants.push(Tenant {
                class,
                problem: spec(pool, db, sla(i)),
                steps: day[offset..offset + STEADY_TICKS].to_vec(),
            });
        }
    }
    tenant_workload("tenant-steady", rng, tenants, STEADY_TICKS, false)
}

const DRIFT_TICKS: usize = 144;

/// 36 persisted tenants whose traces cross the drift or SLA thresholds:
/// slow diurnal swings, flash crowds, and one flip each from the
/// transactional baseline into the analytical reporting phase. Each class
/// covers the same twelve (preset, pool) pairs, so replans of tenants on
/// one preset share TOC-cache entries.
///
/// Migrations are kept under 1% of the ticks. Each applied plan waits for
/// an fsync'd snapshot, whose latency follows the host's disk and swings
/// about 2× over minutes. With migrations this rare, p99 falls on replan
/// ticks and the fsyncs are a small share of a replay, so that swing does
/// not dominate the run-to-run spread. `registry.persist_us` still
/// measures them.
fn tenant_drift(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let databases = [
        "tpcc:2",
        "tpcc:4",
        "tpch-subset:1",
        "tpch-subset:2",
        "ycsb:1000000:A",
        "ycsb:1000000:B",
    ]
    .map(String::from);
    let combos = cross(&databases, &["box2", "full"]);
    let mut tenants = Vec::new();
    for class in ["diurnal", "flash-crowd", "phase-flip"] {
        for (i, (db, pool)) in combos.iter().enumerate() {
            // A fixed design of trace parameters over the twelve pairs;
            // the seed picks where in its cycle each tenant starts, or
            // when a phase-flip tenant flips.
            let (a, b, c) = (i % 3, (i / 3) % 3, (i / 2) % 2);
            let script = match class {
                "diurnal" => {
                    let amplitude = [-1.0, 1.0][c] * [0.3, 0.4, 0.5][a];
                    traces::diurnal(amplitude, [96, 120, 144][b], 1)
                }
                "flash-crowd" => {
                    traces::flash_crowd([3.0, 4.0, 6.0][a], [4, 7, 10][b], [2, 3][c], [2, 4][i % 2])
                }
                // One flip into the analytical phase, at a seeded tick.
                _ => {
                    let flip = 24 + rng.below(96);
                    Ok(vec![
                        TraceStep {
                            shift: None,
                            scale: None,
                            phase: None,
                            repeat: Some(flip),
                        },
                        TraceStep {
                            shift: None,
                            scale: None,
                            phase: Some("analytical".to_owned()),
                            repeat: Some(DRIFT_TICKS - flip),
                        },
                    ])
                }
            };
            let cycle = per_tick(script.expect("valid trace parameters"));
            let offset = if class == "phase-flip" {
                0
            } else {
                rng.below(cycle.len())
            };
            let steps = cycle
                .iter()
                .cycle()
                .skip(offset)
                .take(DRIFT_TICKS)
                .cloned()
                .collect();
            tenants.push(Tenant {
                class,
                problem: spec(pool, db, [0.4, 0.5, 0.6][i % 3]),
                steps,
            });
        }
    }
    tenant_workload("tenant-drift", rng, tenants, DRIFT_TICKS, true)
}

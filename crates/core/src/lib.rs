//! # dot-core
//!
//! **DOT** — the TOC-minimizing data-layout optimizer of *Towards
//! Cost-Effective Storage Provisioning for DBMSs* (VLDB 2011) — together
//! with every comparator the paper evaluates against, all behind one
//! advisory facade.
//!
//! The problem (§2.5): given database objects `O`, storage classes `D` with
//! prices `P` and capacities `C`, and a workload `W` with performance
//! constraints `T`, find the layout `L : O → D` minimizing the total
//! operating cost `TOC = C(L) · t(L, W)` subject to capacity and SLA
//! constraints.
//!
//! ## Quickstart: the `Advisor` facade
//!
//! An [`advisor::Advisor`] session owns one provisioning request, computes
//! the workload profile and derived constraints once, and answers for any
//! optimizer in the [`advisor::Registry`] — selected **by name** — with a
//! uniform, serializable [`advisor::Recommendation`]. Failures are typed
//! ([`advisor::ProvisionError`]), including infeasibility with a suggested
//! relaxed SLA.
//!
//! ```
//! use dot_core::advisor::Advisor;
//! use dot_storage::catalog;
//! use dot_workloads::synth;
//!
//! let schema = synth::bench_schema(20_000_000.0, 120.0);
//! let pool = catalog::box2();
//! let workload = synth::mixed_workload(&schema);
//!
//! let advisor = Advisor::builder(&schema, &pool, &workload)
//!     .sla(0.5) // every query may be at most 2x slower than all-premium
//!     .build()?;
//!
//! // Optimizers are selected by registry id: "dot", "es", "oa",
//! // "all-hssd", "ablation:object:unsorted", ...
//! let rec = advisor.recommend("dot")?;
//! assert_eq!(rec.provenance.solver, "dot");
//!
//! // DOT never beats the premium reference's performance, but never loses
//! // to it on cost; the same session answers for any other solver without
//! // re-profiling the workload.
//! let premium = advisor.recommend("all-premium")?;
//! assert!(
//!     rec.estimate.layout_cost_cents_per_hour
//!         <= premium.estimate.layout_cost_cents_per_hour
//! );
//! assert_eq!(advisor.profile_builds(), 1);
//! # Ok::<(), dot_core::advisor::ProvisionError>(())
//! ```
//!
//! ## Modules, following the paper's structure
//!
//! * [`advisor`] — the facade: `Advisor` sessions, the `Solver` trait and
//!   name-keyed registry, uniform `Recommendation`s, typed
//!   `ProvisionError`s, and preset resolution for the scriptable surface;
//! * [`problem`] — the problem statement plus the two layout-cost models
//!   (linear §2.1, discrete-sized §5.2);
//! * [`toc`] — `estimateTOC`: price a layout's workload behaviour through
//!   the storage-aware planner (estimates) or the execution simulator
//!   (validation test runs);
//! * [`constraints`] — relative-SLA caps derived from the premium layout,
//!   capacity checks, PSR;
//! * [`moves`] — Procedure 2: object groups, per-group placement moves,
//!   priority scores `σ = δ_time / δ_cost` (§3.3);
//! * [`dot`] — Procedure 1 (the greedy move sweep); the Figure 2 pipeline
//!   of `run_pipeline` is kept as a thin wrapper over the facade's `"dot"`
//!   solver, as is the §4.5.3 SLA-relaxation loop;
//! * [`exhaustive`] — the ES comparator (§4.4.3/§4.5.3): full `M^N`
//!   enumeration through the planner, and an additive branch-and-bound
//!   variant for throughput workloads whose plans are placement-stable;
//! * [`fleet`] — batch provisioning: N tenant databases advised
//!   concurrently over a scoped-thread worker pool, with an aggregate bill
//!   in the report (supervised fleets also count their controllers'
//!   replan reuse, [`controller::CachedEstimator`]);
//! * [`replan`] — online re-provisioning under workload drift: diff a
//!   deployed layout against the drifted recommendation, price each
//!   object-group move (bytes, transfer time, cents), and emit a
//!   budget-honoring migration plan with a break-even horizon;
//! * [`controller`] — the closed loop over `replan`: ingest observed
//!   workload profiles, score drift distance and graded SLA pressure,
//!   trigger replans past configurable thresholds (with hysteresis and a
//!   cool-down so the loop never flaps), and log typed `ControlEvent`s; a
//!   triggered tick that repeats one of the controller's recent (observed
//!   workload, deployed layout) pairs reuses that replan instead of
//!   re-solving;
//! * [`baselines`] — the six simple layouts of §4.2 and the Object Advisor
//!   of Canim et al. as characterized in §6;
//! * [`ablation`] — switchable design choices (group vs. object moves,
//!   score orderings) for measuring what each of DOT's decisions buys;
//! * [`generalized`] — §5.1: choose the best storage configuration from a
//!   set of options by running the advisor on each;
//! * [`report`] — serializable evaluation records shared by the experiment
//!   harness and the examples;
//! * [`sweep`] — SLA and price sensitivity sweeps (the purchasing/capacity
//!   planning direction §7 sketches as future work);
//! * [`tenancy`] — multi-tenant colocation: several databases with distinct
//!   SLAs jointly provisioned on one box through per-query SLA caps (the
//!   paper's acknowledged limitation, §1);
//! * [`traces`] — parameterized drift-trace generators (diurnal cycles,
//!   flash crowds, tenant-onboarding waves, correlated multi-tenant drift)
//!   producing the [`controller::TraceStep`] sequences the controller and
//!   fleet supervisor replay.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ablation;
pub mod advisor;
pub mod baselines;
pub mod constraints;
pub mod controller;
pub mod dot;
pub mod exhaustive;
pub mod fleet;
pub mod generalized;
pub mod moves;
pub mod problem;
pub mod replan;
pub mod report;
pub mod sweep;
pub mod tenancy;
pub mod toc;
pub mod traces;

pub use advisor::{Advisor, ProvisionError, Recommendation, Solver};
pub use constraints::Constraints;
pub use controller::{ControlEvent, Controller, ControllerConfig, TraceStep, TriggerReason};
pub use dot::{DotOutcome, PipelineResult};
pub use fleet::{provision_fleet, FleetConfig, FleetReport, TenantRequest};
pub use problem::{LayoutCostModel, Problem};
pub use replan::{MigrationBudget, MigrationDecision, MigrationPlan, ReplanRecommendation};
pub use toc::{CacheStats, CachedEstimator, TocEstimate};

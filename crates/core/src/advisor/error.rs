//! The typed failure surface of the advisory API.
//!
//! Every way a provisioning request can fail — infeasibility, capacity,
//! unknown names — is a distinct [`ProvisionError`] variant, replacing the
//! `Option<Layout>` / `Result<_, String>` mix the free functions used to
//! expose. Variants are serializable so the CLI's `--json` mode can emit
//! them, and carry enough context (suggested relaxed SLA, known names) for
//! a caller to recover without string matching.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why an advisory request failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProvisionError {
    /// No investigated layout satisfied the SLA and capacity constraints.
    Infeasible {
        /// The relative SLA ratio in force when the search failed.
        sla: f64,
        /// A relaxed SLA ratio under which a feasible layout is known to
        /// exist (§4.5.3's recovery direction), when one could be found.
        suggested_sla: Option<f64>,
        /// Layouts the solver investigated before giving up.
        layouts_investigated: usize,
    },
    /// The database cannot fit on the pool no matter the layout.
    CapacityExceeded {
        /// Total database size in GB.
        required_gb: f64,
        /// Total pool capacity in GB.
        available_gb: f64,
    },
    /// No solver with this id is registered.
    UnknownSolver {
        /// The requested id.
        name: String,
        /// Every registered id, for the error message and for callers that
        /// want to present a choice.
        known: Vec<String>,
    },
    /// No built-in storage pool with this name.
    UnknownPool {
        /// The requested pool name.
        name: String,
        /// The built-in pool names.
        known: Vec<String>,
    },
    /// No database preset matching this spec.
    UnknownPreset {
        /// The requested preset string.
        name: String,
        /// The accepted preset grammar.
        hint: String,
    },
    /// No engine preset with this name.
    UnknownEngine {
        /// The requested engine name.
        name: String,
        /// The accepted engine names.
        known: Vec<String>,
    },
    /// The pool has no storage class of the family this solver places onto.
    ClassUnavailable {
        /// The class family the solver needed (e.g. "L-SSD").
        class: String,
        /// The pool that lacks it.
        pool: String,
    },
    /// The solver cannot run on this kind of problem (e.g. additive ES on a
    /// response-time workload).
    UnsupportedWorkload {
        /// The solver that refused.
        solver: String,
        /// Why it refused.
        reason: String,
    },
    /// The request itself is malformed (bad SLA domain, unparsable input).
    InvalidRequest {
        /// What was wrong.
        reason: String,
    },
}

impl ProvisionError {
    /// Typed domain check for a relative SLA ratio, shared by every
    /// surface that accepts one (problem files, fleet manifests, fleet
    /// tenant requests) so the accepted range and wording cannot drift.
    /// `context` names the offender on multi-tenant surfaces (e.g.
    /// `tenant "acme"`); pass `""` for single requests.
    pub fn check_sla(ratio: f64, context: &str) -> Result<(), ProvisionError> {
        if ratio > 0.0 && ratio <= 1.0 {
            return Ok(());
        }
        let prefix = if context.is_empty() {
            String::new()
        } else {
            format!("{context}: ")
        };
        Err(ProvisionError::InvalidRequest {
            reason: format!("{prefix}sla {ratio} out of (0, 1]"),
        })
    }

    /// Typed validity check for a pool a request or file defines inline,
    /// shared by every surface that accepts one:
    /// [`StoragePool::validate`](dot_storage::StoragePool::validate)'s
    /// verdict as an `invalid-request` naming the pool and the class.
    /// `context` names the offender as for [`check_sla`](Self::check_sla).
    pub fn check_pool(
        pool: &dot_storage::StoragePool,
        context: &str,
    ) -> Result<(), ProvisionError> {
        let detail = match pool.validate() {
            Ok(()) => return Ok(()),
            Err(dot_storage::StorageError::InvalidSpec(msg)) => msg,
            Err(other) => other.to_string(),
        };
        let prefix = if context.is_empty() {
            String::new()
        } else {
            format!("{context}: ")
        };
        Err(ProvisionError::InvalidRequest {
            reason: format!("{prefix}pool {:?}: {detail}", pool.name()),
        })
    }

    /// Stable machine-readable kind name (one per variant); the CLI maps
    /// these onto distinct exit codes.
    pub fn kind(&self) -> &'static str {
        match self {
            ProvisionError::Infeasible { .. } => "infeasible",
            ProvisionError::CapacityExceeded { .. } => "capacity-exceeded",
            ProvisionError::UnknownSolver { .. } => "unknown-solver",
            ProvisionError::UnknownPool { .. } => "unknown-pool",
            ProvisionError::UnknownPreset { .. } => "unknown-preset",
            ProvisionError::UnknownEngine { .. } => "unknown-engine",
            ProvisionError::ClassUnavailable { .. } => "class-unavailable",
            ProvisionError::UnsupportedWorkload { .. } => "unsupported-workload",
            ProvisionError::InvalidRequest { .. } => "invalid-request",
        }
    }
}

impl fmt::Display for ProvisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvisionError::Infeasible {
                sla,
                suggested_sla,
                layouts_investigated,
            } => {
                write!(
                    f,
                    "infeasible: no layout satisfies the relative SLA {sla} \
                     ({layouts_investigated} layouts investigated)"
                )?;
                if let Some(s) = suggested_sla {
                    write!(f, "; relaxing the SLA to {s:.3} would admit one")?;
                }
                Ok(())
            }
            ProvisionError::CapacityExceeded {
                required_gb,
                available_gb,
            } => write!(
                f,
                "capacity exceeded: the database needs {required_gb:.1} GB but the \
                 pool holds only {available_gb:.1} GB"
            ),
            ProvisionError::UnknownSolver { name, known } => {
                write!(f, "unknown solver {name:?} (known: {})", known.join(", "))
            }
            ProvisionError::UnknownPool { name, known } => write!(
                f,
                "unknown pool preset {name:?} (known: {})",
                known.join(", ")
            ),
            ProvisionError::UnknownPreset { name, hint } => {
                write!(f, "unknown database preset {name:?} ({hint})")
            }
            ProvisionError::UnknownEngine { name, known } => write!(
                f,
                "unknown engine preset {name:?} (known: {})",
                known.join(", ")
            ),
            ProvisionError::ClassUnavailable { class, pool } => {
                write!(f, "pool {pool:?} has no {class} storage class")
            }
            ProvisionError::UnsupportedWorkload { solver, reason } => {
                write!(f, "solver {solver:?} cannot run on this problem: {reason}")
            }
            ProvisionError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
        }
    }
}

impl std::error::Error for ProvisionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_a_distinct_kind_and_round_trips() {
        let variants = vec![
            ProvisionError::Infeasible {
                sla: 0.5,
                suggested_sla: Some(0.25),
                layouts_investigated: 7,
            },
            ProvisionError::CapacityExceeded {
                required_gb: 10.0,
                available_gb: 5.0,
            },
            ProvisionError::UnknownSolver {
                name: "x".into(),
                known: vec!["dot".into()],
            },
            ProvisionError::UnknownPool {
                name: "x".into(),
                known: vec!["box2".into()],
            },
            ProvisionError::UnknownPreset {
                name: "x".into(),
                hint: "tpch:<sf>:<flavor>".into(),
            },
            ProvisionError::UnknownEngine {
                name: "x".into(),
                known: vec!["dss".into()],
            },
            ProvisionError::ClassUnavailable {
                class: "L-SSD".into(),
                pool: "Box 9".into(),
            },
            ProvisionError::UnsupportedWorkload {
                solver: "es-additive".into(),
                reason: "response-time workload".into(),
            },
            ProvisionError::InvalidRequest {
                reason: "sla 7 out of (0, 1]".into(),
            },
        ];
        let mut kinds: Vec<&str> = variants.iter().map(|v| v.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), variants.len(), "kinds must be distinct");
        for v in &variants {
            assert!(!v.to_string().is_empty());
            let json = serde_json::to_string(v).unwrap();
            let back: ProvisionError = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, v);
        }
    }

    #[test]
    fn infeasible_message_carries_the_suggestion() {
        let e = ProvisionError::Infeasible {
            sla: 0.9,
            suggested_sla: Some(0.45),
            layouts_investigated: 12,
        };
        let msg = e.to_string();
        assert!(msg.contains("0.9") && msg.contains("0.450"), "{msg}");
    }
}

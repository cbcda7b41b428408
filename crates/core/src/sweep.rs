//! Parameter sweeps: SLA and price sensitivity of DOT's recommendations.
//!
//! The paper's conclusion points at exactly this use: "extending the DOT
//! framework to help make purchasing and capacity planning decisions; for
//! example, by running DOT iteratively to determine the TOC and SLA
//! performance of different hardware configurations under consideration"
//! (§7). These helpers drive the [`Advisor`] facade across a grid of SLAs
//! or perturbed prices and return the resulting cost/performance curves.
//! One advisory session serves a whole SLA sweep, so the workload is
//! profiled exactly once per grid.

use crate::advisor::{Advisor, ProvisionError, Recommendation};
use dot_dbms::{EngineConfig, Schema};
use dot_profiler::ProfileSource;
use dot_storage::StoragePool;
use dot_workloads::{SlaSpec, Workload};
use serde::Serialize;

/// One point of an SLA sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SlaPoint {
    /// The relative SLA ratio.
    pub ratio: f64,
    /// DOT's objective (cents), if feasible.
    pub objective_cents: Option<f64>,
    /// Hourly layout cost (cents), if feasible.
    pub layout_cost_cents_per_hour: Option<f64>,
    /// Objects placed off the premium class.
    pub objects_moved: usize,
}

/// Run DOT at each SLA ratio and report the cost/placement trajectory —
/// the data behind Fig 8's "TOC decreases as the SLA relaxes" and Table 3's
/// migration gradient. One advisor session drives the whole grid: its
/// profile and compiled plan templates are built once and shared by every
/// [`with_sla`] sibling, so each point only re-prices layouts.
///
/// Fails with a typed error only when the request itself is broken (e.g.
/// the database cannot fit on the pool at all); per-point infeasibility is
/// reported in the point.
///
/// [`with_sla`]: Advisor::with_sla
pub fn sla_sweep(
    schema: &Schema,
    pool: &StoragePool,
    workload: &Workload,
    cfg: EngineConfig,
    ratios: &[f64],
    source: ProfileSource,
) -> Result<Vec<SlaPoint>, ProvisionError> {
    let advisor = Advisor::builder(schema, pool, workload)
        .engine(cfg)
        .profile_source(source)
        .build()?;
    Ok(ratios
        .iter()
        .map(|&ratio| point_for(&advisor.with_sla(ratio), ratio))
        .collect())
}

fn point_for(advisor: &Advisor<'_>, ratio: f64) -> SlaPoint {
    match advisor.recommend("dot") {
        Ok(rec) => SlaPoint {
            ratio,
            objective_cents: Some(rec.estimate.objective_cents),
            layout_cost_cents_per_hour: Some(rec.estimate.layout_cost_cents_per_hour),
            objects_moved: objects_moved(advisor, &rec),
        },
        Err(_) => SlaPoint {
            ratio,
            objective_cents: None,
            layout_cost_cents_per_hour: None,
            objects_moved: 0,
        },
    }
}

fn objects_moved(advisor: &Advisor<'_>, rec: &Recommendation) -> usize {
    let premium = advisor.problem().pool.most_expensive();
    rec.layout
        .assignment()
        .iter()
        .filter(|&&class| class != premium)
        .count()
}

/// One point of a price-sensitivity sweep.
#[derive(Debug, Clone, Serialize)]
pub struct PricePoint {
    /// Multiplier applied to the perturbed class's price.
    pub factor: f64,
    /// Perturbed price (cents/GB/hour).
    pub price_cents_per_gb_hour: f64,
    /// DOT's objective (cents), if feasible.
    pub objective_cents: Option<f64>,
    /// GB placed on the perturbed class by the recommendation.
    pub gb_on_class: f64,
}

/// Re-run DOT with the named class's price scaled by each factor — "how far
/// would flash have to fall for DOT to move the fact table there?" Each
/// factor gets its own advisory session over the perturbed pool.
#[allow(clippy::too_many_arguments)] // a sweep is inherently a wide config
pub fn price_sensitivity(
    schema: &Schema,
    base_pool: &StoragePool,
    workload: &Workload,
    sla: SlaSpec,
    cfg: EngineConfig,
    class_name: &str,
    factors: &[f64],
    source: ProfileSource,
) -> Result<Vec<PricePoint>, ProvisionError> {
    let base_price = base_pool
        .class_by_name(class_name)
        .ok_or_else(|| ProvisionError::ClassUnavailable {
            class: class_name.to_owned(),
            pool: base_pool.name().to_owned(),
        })?
        .price_cents_per_gb_hour;
    factors
        .iter()
        .map(|&factor| {
            let mut pool = base_pool.clone();
            let price = base_price * factor;
            pool.set_price(class_name, price);
            let advisor = Advisor::builder(schema, &pool, workload)
                .sla_spec(sla)
                .engine(cfg)
                .profile_source(source)
                .build()?;
            let class_id = pool.class_by_name(class_name).expect("still present").id;
            Ok(match advisor.recommend("dot") {
                Ok(rec) => PricePoint {
                    factor,
                    price_cents_per_gb_hour: price,
                    objective_cents: Some(rec.estimate.objective_cents),
                    gb_on_class: rec.layout.space_per_class(schema, &pool)[class_id.0],
                },
                Err(_) => PricePoint {
                    factor,
                    price_cents_per_gb_hour: price,
                    objective_cents: None,
                    gb_on_class: 0.0,
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dot_storage::catalog;
    use dot_workloads::tpch;

    #[test]
    fn sla_sweep_is_monotone_in_cost_and_moves() {
        let schema = tpch::subset_schema(2.0);
        let workload = tpch::subset_workload(&schema);
        let pool = catalog::box2();
        let points = sla_sweep(
            &schema,
            &pool,
            &workload,
            EngineConfig::dss(),
            &[0.9, 0.5, 0.25, 0.1],
            ProfileSource::Estimate,
        )
        .expect("request is well-formed");
        assert_eq!(points.len(), 4);
        let mut last_cost = f64::INFINITY;
        for p in &points {
            let c = p.layout_cost_cents_per_hour.expect("feasible");
            assert!(c <= last_cost + 1e-9, "cost rose as SLA relaxed");
            last_cost = c;
        }
        // Looser SLAs move at least as many objects.
        assert!(points.last().unwrap().objects_moved >= points[0].objects_moved);
    }

    #[test]
    fn cheap_premium_attracts_data() {
        // Scale the H-SSD price down until it is nearly free: DOT should
        // leave (more) data on it; scale it up 10x: less data on it.
        let schema = tpch::subset_schema(2.0);
        let workload = tpch::subset_workload(&schema);
        let pool = catalog::box2();
        let points = price_sensitivity(
            &schema,
            &pool,
            &workload,
            SlaSpec::relative(0.25),
            EngineConfig::dss(),
            "H-SSD",
            &[0.001, 1.0, 10.0],
            ProfileSource::Estimate,
        )
        .expect("request is well-formed");
        let nearly_free = points[0].gb_on_class;
        let expensive = points[2].gb_on_class;
        assert!(
            nearly_free >= expensive,
            "free H-SSD holds {nearly_free} GB < expensive holds {expensive} GB"
        );
        // At ~zero price everything should sit on the premium class.
        assert!((nearly_free - schema.total_size_gb()).abs() < 1e-6);
    }

    #[test]
    fn unfittable_database_is_a_typed_error_not_a_panic() {
        let schema = tpch::subset_schema(2.0);
        let workload = tpch::subset_workload(&schema);
        let mut pool = catalog::box2();
        pool.set_capacity("H-SSD", 0.001); // nothing fits anywhere
        pool.set_capacity("HDD", 0.001);
        pool.set_capacity("L-SSD RAID 0", 0.001);
        let err = sla_sweep(
            &schema,
            &pool,
            &workload,
            EngineConfig::dss(),
            &[0.5],
            ProfileSource::Estimate,
        )
        .expect_err("database cannot fit");
        assert!(matches!(err, ProvisionError::CapacityExceeded { .. }));
    }

    #[test]
    fn unknown_price_class_is_a_typed_error() {
        let schema = tpch::subset_schema(1.0);
        let workload = tpch::subset_workload(&schema);
        let pool = catalog::box2();
        let err = price_sensitivity(
            &schema,
            &pool,
            &workload,
            SlaSpec::relative(0.5),
            EngineConfig::dss(),
            "Optane",
            &[1.0],
            ProfileSource::Estimate,
        )
        .expect_err("no such class");
        assert!(matches!(err, ProvisionError::ClassUnavailable { .. }));
    }
}

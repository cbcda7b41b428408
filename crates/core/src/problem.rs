//! The provisioning problem statement (§2.5) and layout-cost models
//! (§2.1 linear, §5.2 discrete-sized).

use dot_dbms::{EngineConfig, Layout, Schema};
use dot_storage::{StorageClass, StoragePool};
use dot_workloads::{SlaSpec, Workload};
use serde::{Deserialize, Serialize};

/// How the hourly layout cost `C(L)` is computed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LayoutCostModel {
    /// §2.1: `C(L) = Σ_j p_j · S_j` — cost scales linearly with the space
    /// actually used on each class.
    Linear,
    /// §5.2: storage is bought in whole devices. For every class that hosts
    /// any data, `C(L) = Σ_j [α·(p_j·c_j) + (1−α)·(S_j/c_j)·(p_j·c_j)]`:
    /// an `α`-weighted full-device charge plus a `(1−α)`-weighted
    /// proportional charge.
    Discrete {
        /// Weight of the full-device (fixed) component, in `[0, 1]`.
        alpha: f64,
    },
}

impl LayoutCostModel {
    /// Hourly cost in cents of `layout` under this model.
    pub fn layout_cost_cents_per_hour(
        &self,
        layout: &Layout,
        schema: &Schema,
        pool: &StoragePool,
    ) -> f64 {
        self.cost_of_space(&layout.space_per_class(schema, pool), pool)
    }

    /// [`layout_cost_cents_per_hour`](Self::layout_cost_cents_per_hour) of
    /// any layout whose `S_j` vector ([`Layout::space_per_class`]) is
    /// `space`, bit for bit.
    pub fn cost_of_space(&self, space: &[f64], pool: &StoragePool) -> f64 {
        space
            .iter()
            .zip(pool.classes())
            .map(|(&s, c)| self.class_cost(s, c))
            .sum()
    }

    /// The per-class decomposition of `C(L)`: element `j` is what class `j`
    /// charges for this layout (0 for unused classes), and the sum is
    /// exactly [`layout_cost_cents_per_hour`](Self::layout_cost_cents_per_hour).
    /// This is the itemized bill the advisory API reports per
    /// recommendation.
    pub fn class_costs_cents_per_hour(
        &self,
        layout: &Layout,
        schema: &Schema,
        pool: &StoragePool,
    ) -> Vec<f64> {
        layout
            .space_per_class(schema, pool)
            .iter()
            .zip(pool.classes())
            .map(|(&s, c)| self.class_cost(s, c))
            .collect()
    }

    /// What `class` charges per hour for `s` GB placed on it.
    fn class_cost(&self, s: f64, class: &StorageClass) -> f64 {
        match *self {
            LayoutCostModel::Linear => class.price_cents_per_gb_hour * s,
            LayoutCostModel::Discrete { alpha } => {
                assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
                if s <= 0.0 {
                    return 0.0;
                }
                let device = class.price_cents_per_gb_hour * class.capacity_gb;
                alpha * device + (1.0 - alpha) * (s / class.capacity_gb) * device
            }
        }
    }
}

/// The full input of §2.5: objects (via the schema), storage classes with
/// prices and capacities (via the pool), the workload with its performance
/// constraints, and the engine configuration used for estimation.
#[derive(Debug, Clone)]
pub struct Problem<'a> {
    /// Database schema: objects `O` with sizes `s_i`, plus statistics.
    pub schema: &'a Schema,
    /// Storage classes `D` with prices `P` and capacities `C`.
    pub pool: &'a StoragePool,
    /// Workload `W` (queries, concurrency, metric).
    pub workload: &'a Workload,
    /// Relative SLA (§4.3) from which per-query caps or a throughput floor
    /// are derived.
    pub sla: SlaSpec,
    /// Engine configuration (concurrency, memory, CPU constants).
    pub cfg: EngineConfig,
    /// Layout-cost model (linear unless exercising §5.2).
    pub cost_model: LayoutCostModel,
}

impl<'a> Problem<'a> {
    /// Standard (linear-cost) problem.
    pub fn new(
        schema: &'a Schema,
        pool: &'a StoragePool,
        workload: &'a Workload,
        sla: SlaSpec,
        cfg: EngineConfig,
    ) -> Self {
        Problem {
            schema,
            pool,
            workload,
            sla,
            cfg,
            cost_model: LayoutCostModel::Linear,
        }
    }

    /// Same problem under a different layout-cost model.
    pub fn with_cost_model(mut self, cost_model: LayoutCostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Same problem under a different SLA.
    pub fn with_sla(mut self, sla: SlaSpec) -> Self {
        self.sla = sla;
        self
    }

    /// Hourly layout cost `C(L)` in cents under the problem's cost model.
    pub fn layout_cost_cents_per_hour(&self, layout: &Layout) -> f64 {
        self.cost_model
            .layout_cost_cents_per_hour(layout, self.schema, self.pool)
    }

    /// The initial layout `L_0`: every object on the most expensive class
    /// (§3.1), which is also the premium-performance reference of the
    /// relative SLA (§4.3).
    pub fn premium_layout(&self) -> Layout {
        Layout::uniform(self.pool.most_expensive(), self.schema.object_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dot_storage::catalog;
    use dot_workloads::synth;

    #[test]
    fn linear_cost_matches_layout_method() {
        let schema = synth::bench_schema(1_000_000.0, 100.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&schema);
        let p = Problem::new(
            &schema,
            &pool,
            &w,
            SlaSpec::relative(0.5),
            EngineConfig::dss(),
        );
        let l = p.premium_layout();
        assert!(
            (p.layout_cost_cents_per_hour(&l) - l.cost_cents_per_hour(&schema, &pool)).abs()
                < 1e-12
        );
    }

    #[test]
    fn discrete_cost_interpolates_between_proportional_and_full_device() {
        let schema = synth::bench_schema(1_000_000.0, 100.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&schema);
        let base = Problem::new(
            &schema,
            &pool,
            &w,
            SlaSpec::relative(0.5),
            EngineConfig::dss(),
        );
        let l = base.premium_layout();
        let linear = base.layout_cost_cents_per_hour(&l);

        let p0 = base
            .clone()
            .with_cost_model(LayoutCostModel::Discrete { alpha: 0.0 });
        assert!((p0.layout_cost_cents_per_hour(&l) - linear).abs() < 1e-9);

        let p1 = base
            .clone()
            .with_cost_model(LayoutCostModel::Discrete { alpha: 1.0 });
        let hssd = pool.class_by_name("H-SSD").unwrap();
        let full_device = hssd.price_cents_per_gb_hour * hssd.capacity_gb;
        assert!((p1.layout_cost_cents_per_hour(&l) - full_device).abs() < 1e-9);

        let p_half = base.with_cost_model(LayoutCostModel::Discrete { alpha: 0.5 });
        let half = p_half.layout_cost_cents_per_hour(&l);
        assert!(half > linear && half < full_device);
    }

    #[test]
    fn discrete_cost_skips_unused_classes() {
        let schema = synth::bench_schema(1_000_000.0, 100.0);
        let pool = catalog::box2();
        let w = synth::mixed_workload(&schema);
        let p = Problem::new(
            &schema,
            &pool,
            &w,
            SlaSpec::relative(0.5),
            EngineConfig::dss(),
        )
        .with_cost_model(LayoutCostModel::Discrete { alpha: 1.0 });
        // Everything on one class: only that device is bought.
        let hdd = pool.class_by_name("HDD").unwrap();
        let l = Layout::uniform(hdd.id, schema.object_count());
        let expect = hdd.price_cents_per_gb_hour * hdd.capacity_gb;
        assert!((p.layout_cost_cents_per_hour(&l) - expect).abs() < 1e-9);
    }

    #[test]
    fn premium_layout_is_most_expensive_everywhere() {
        let schema = synth::bench_schema(1_000_000.0, 100.0);
        let pool = catalog::box1();
        let w = synth::mixed_workload(&schema);
        let p = Problem::new(
            &schema,
            &pool,
            &w,
            SlaSpec::relative(0.5),
            EngineConfig::dss(),
        );
        let l = p.premium_layout();
        for o in schema.objects() {
            assert_eq!(l.class_of(o.id), pool.most_expensive());
        }
    }
}

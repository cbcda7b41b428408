//! Name → object resolution for the scriptable surface: built-in storage
//! pools, database presets, and engine presets, each failing with its own
//! [`ProvisionError`] variant so the CLI can map them to distinct exit
//! codes.

use super::error::ProvisionError;
use dot_dbms::{EngineConfig, Schema};
use dot_storage::{catalog, StoragePool};
use dot_workloads::{tpcc, tpch, ycsb, PerfMetric, Workload};

/// The built-in pool names accepted by [`pool`].
pub const POOL_NAMES: [&str; 3] = ["box1", "box2", "full"];

/// The engine preset names accepted by [`engine`].
pub const ENGINE_NAMES: [&str; 2] = ["dss", "oltp"];

/// The accepted database-preset grammar, for error messages and help text.
pub const DATABASE_HINT: &str =
    "tpch:<sf>:<original|modified> | tpch-subset:<sf> | tpcc:<warehouses> | ycsb:<records>:<A-F>";

/// Resolve a built-in storage pool by name.
pub fn pool(name: &str) -> Result<StoragePool, ProvisionError> {
    match name {
        "box1" => Ok(catalog::box1()),
        "box2" => Ok(catalog::box2()),
        "full" => Ok(catalog::full_pool()),
        other => Err(ProvisionError::UnknownPool {
            name: other.to_owned(),
            known: POOL_NAMES.iter().map(|s| s.to_string()).collect(),
        }),
    }
}

/// Resolve a database preset string (`"tpch:20:original"`, `"tpcc:300"`,
/// `"ycsb:10000000:A"`, ...) into a schema and workload.
pub fn database(preset: &str) -> Result<(Schema, Workload), ProvisionError> {
    let unknown = || ProvisionError::UnknownPreset {
        name: preset.to_owned(),
        hint: DATABASE_HINT.to_owned(),
    };
    let number = |text: &str, what: &str| -> Result<f64, ProvisionError> {
        text.parse().map_err(|_| ProvisionError::InvalidRequest {
            reason: format!("bad {what} {text:?} in preset {preset:?}"),
        })
    };
    let parts: Vec<&str> = preset.split(':').collect();
    match parts.as_slice() {
        ["tpch", sf, flavor] => {
            let schema = tpch::schema(number(sf, "scale factor")?);
            let workload = match *flavor {
                "original" => tpch::original_workload(&schema),
                "modified" => tpch::modified_workload(&schema),
                _ => return Err(unknown()),
            };
            Ok((schema, workload))
        }
        ["tpch-subset", sf] => {
            let schema = tpch::subset_schema(number(sf, "scale factor")?);
            let workload = tpch::subset_workload(&schema);
            Ok((schema, workload))
        }
        ["tpcc", warehouses] => {
            let schema = tpcc::schema(number(warehouses, "warehouse count")?);
            let workload = tpcc::workload(&schema);
            Ok((schema, workload))
        }
        ["ycsb", records, mix] => {
            let mix = match mix.to_ascii_uppercase().as_str() {
                "A" => ycsb::YcsbMix::A,
                "B" => ycsb::YcsbMix::B,
                "C" => ycsb::YcsbMix::C,
                "D" => ycsb::YcsbMix::D,
                "E" => ycsb::YcsbMix::E,
                "F" => ycsb::YcsbMix::F,
                _ => return Err(unknown()),
            };
            let schema = ycsb::schema(number(records, "record count")?);
            let workload = ycsb::workload(&schema, mix, 300);
            Ok((schema, workload))
        }
        _ => Err(unknown()),
    }
}

/// Resolve an engine preset. With `None`, pick the engine matching the
/// workload's metric (the common case).
pub fn engine(name: Option<&str>, workload: &Workload) -> Result<EngineConfig, ProvisionError> {
    match name {
        Some("dss") => Ok(EngineConfig::dss()),
        Some("oltp") => Ok(EngineConfig::oltp()),
        Some(other) => Err(ProvisionError::UnknownEngine {
            name: other.to_owned(),
            known: ENGINE_NAMES.iter().map(|s| s.to_string()).collect(),
        }),
        None => Ok(match workload.metric {
            PerfMetric::ResponseTime => EngineConfig::dss(),
            PerfMetric::Throughput => EngineConfig::oltp(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_pool_resolves() {
        for name in POOL_NAMES {
            assert!(pool(name).is_ok(), "{name}");
        }
        assert!(matches!(
            pool("box9"),
            Err(ProvisionError::UnknownPool { .. })
        ));
    }

    #[test]
    fn presets_resolve_and_unknowns_are_typed() {
        assert!(database("tpch:1:original").is_ok());
        assert!(database("tpch-subset:2").is_ok());
        assert!(database("tpcc:2").is_ok());
        assert!(database("ycsb:1000:a").is_ok());
        assert!(matches!(
            database("tpch:1:bogus"),
            Err(ProvisionError::UnknownPreset { .. })
        ));
        assert!(matches!(
            database("oracle:12c"),
            Err(ProvisionError::UnknownPreset { .. })
        ));
        assert!(matches!(
            database("tpch:abc:original"),
            Err(ProvisionError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn every_preset_on_every_pool_profiles_within_the_baseline_bound() {
        for preset in [
            "tpch:1:original",
            "tpch:1:modified",
            "tpch-subset:1",
            "tpcc:1",
            "ycsb:1000:a",
        ] {
            let (schema, _) = database(preset).unwrap();
            let arity = dot_profiler::group_arity(&schema);
            for name in POOL_NAMES {
                let classes = pool(name).unwrap().len();
                let count = dot_profiler::baseline_count(classes, arity).unwrap();
                assert!(
                    count <= dot_profiler::MAX_BASELINE_LAYOUTS,
                    "{preset} on {name}"
                );
            }
        }
    }

    #[test]
    fn engine_defaults_follow_the_metric() {
        let (_, dss) = database("tpch-subset:1").unwrap();
        let (_, oltp) = database("tpcc:1").unwrap();
        assert_eq!(
            engine(None, &dss).unwrap().concurrency,
            EngineConfig::dss().concurrency
        );
        assert_eq!(
            engine(None, &oltp).unwrap().concurrency,
            EngineConfig::oltp().concurrency
        );
        assert!(matches!(
            engine(Some("olap"), &dss),
            Err(ProvisionError::UnknownEngine { .. })
        ));
    }
}

//! End-to-end smoke tests for the `dot-cli` binary: every subcommand runs
//! against a real (small) problem and produces the expected surface, and
//! every `ProvisionError` variant maps to its own exit code — so the
//! scriptable surface documented in the README can never silently rot.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dot-cli"))
}

/// Write a small problem file into the target directory and return its path.
fn problem_file(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create target tmpdir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write problem file");
    path
}

const DSS_PROBLEM: &str = r#"{ "pool": "box2", "database": "tpch-subset:1", "sla": 0.5 }"#;
const OLTP_PROBLEM: &str = r#"{ "pool": "box2", "database": "tpcc:2", "sla": 0.25 }"#;

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Run `provision` on `problem`, assert the expected exit code, and return
/// stderr for message checks.
fn provision_fails(name: &str, problem: &str, extra: &[&str], code: i32) -> String {
    let path = problem_file(name, problem);
    let out = cli()
        .arg("provision")
        .arg(&path)
        .args(extra)
        .output()
        .expect("run dot-cli");
    assert_eq!(
        out.status.code(),
        Some(code),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn catalog_lists_builtin_pools_and_presets() {
    let out = cli().arg("catalog").output().expect("run dot-cli");
    let text = stdout_of(&out);
    for expected in [
        "built-in pools",
        "Box 1",
        "Box 2",
        "H-SSD",
        "database presets",
    ] {
        assert!(text.contains(expected), "missing {expected:?} in:\n{text}");
    }
}

#[test]
fn solvers_lists_every_registered_optimizer() {
    let out = cli().arg("solvers").output().expect("run dot-cli");
    let text = stdout_of(&out);
    for id in [
        "dot",
        "dot-relaxed",
        "es",
        "es-additive",
        "oa",
        "all-hssd",
        "all-hdd",
        "index-split",
        "ablation:group:time-per-cost",
        "ablation:object:unsorted",
    ] {
        assert!(text.contains(id), "missing solver {id:?} in:\n{text}");
    }
}

#[test]
fn provision_recommends_a_layout_for_a_small_dss_problem() {
    let path = problem_file("dss.json", DSS_PROBLEM);
    let out = cli()
        .arg("provision")
        .arg(&path)
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    assert!(text.contains("recommended layout"), "no layout in:\n{text}");
    assert!(text.contains("bill:"), "no bill in:\n{text}");
    assert!(text.contains("PSR"), "no PSR report in:\n{text}");
}

#[test]
fn provision_json_emits_a_serialized_recommendation_per_solver() {
    // The acceptance surface: every solver family answers with the same
    // Recommendation shape. (es-additive needs the OLTP problem; "es" is
    // exercised on the 8-object subset.)
    let dss = problem_file("dss_json.json", DSS_PROBLEM);
    let oltp = problem_file("oltp_json.json", OLTP_PROBLEM);
    let cases: &[(&PathBuf, &str)] = &[
        (&dss, "dot"),
        (&dss, "dot-relaxed"),
        (&dss, "es"),
        (&oltp, "es-additive"),
        (&dss, "oa"),
        (&dss, "all-hssd"),
        (&dss, "all-premium"),
        (&dss, "ablation:group:time-per-cost"),
        (&dss, "ablation:object:unsorted"),
    ];
    for (path, solver) in cases {
        let out = cli()
            .args(["provision"])
            .arg(path)
            .args(["--solver", solver, "--json"])
            .output()
            .expect("run dot-cli");
        let text = stdout_of(&out);
        let value: serde::Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{solver}: bad JSON ({e})"));
        let object = value.as_object().expect("top-level object");
        for key in [
            "label",
            "layout",
            "placements",
            "estimate",
            "bill",
            "provenance",
        ] {
            assert!(
                object.iter().any(|(k, _)| k == key),
                "{solver}: missing key {key:?} in:\n{text}"
            );
        }
        // Provenance names the solver and carries serialized timing.
        let (_, provenance) = object.iter().find(|(k, _)| k == "provenance").unwrap();
        let provenance = provenance.as_object().unwrap();
        let (_, id) = provenance.iter().find(|(k, _)| k == "solver").unwrap();
        assert_eq!(id.as_str(), Some(*solver));
        assert!(
            provenance.iter().any(|(k, _)| k == "elapsed_ms"),
            "{solver}: elapsed_ms must serialize"
        );
    }
}

const FLEET_MANIFEST: &str = r#"{ "workers": 4, "tenants": [
    { "name": "acme",  "pool": "box2", "database": "tpch-subset:1", "sla": 0.5 },
    { "name": "bravo", "pool": "box2", "database": "tpch-subset:1", "sla": 0.25 },
    { "pool": "box2", "database": "tpcc:2", "sla": 0.25, "solver": "es-additive" }
] }"#;

#[test]
fn fleet_provisions_a_manifest_and_reports_the_bill() {
    let path = problem_file("fleet.json", FLEET_MANIFEST);
    let out = cli().arg("fleet").arg(&path).output().expect("run dot-cli");
    let text = stdout_of(&out);
    for expected in [
        "fleet of 3 tenant(s)",
        "acme",
        "bravo",
        "tenant-2", // unnamed tenants get positional names
        "aggregate bill (3 provisioned, 0 failed)",
        "total",
        "wall clock",
    ] {
        assert!(text.contains(expected), "missing {expected:?} in:\n{text}");
    }
}

#[test]
fn fleet_json_round_trips_through_serde() {
    let path = problem_file("fleet_json.json", FLEET_MANIFEST);
    let out = cli()
        .args(["fleet"])
        .arg(&path)
        .arg("--json")
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    // The emitted report parses back into the typed FleetReport...
    let report: dot_core::fleet::FleetReport =
        serde_json::from_str(&text).expect("fleet report deserializes");
    assert_eq!(report.tenants.len(), 3);
    assert_eq!(report.aggregate.tenants_provisioned, 3);
    // ...and the identically-shaped tenants got bit-identical layouts.
    let acme = report.tenants[0].recommendation.as_ref().unwrap();
    assert_eq!(report.tenants[0].tenant, "acme");
    assert_eq!(report.tenants[0].solver, "dot");
    assert!(acme.provenance.layouts_investigated >= 1);
    // Re-serializing loses nothing.
    let again = serde_json::to_string(&report).expect("report re-serializes");
    let back: dot_core::fleet::FleetReport = serde_json::from_str(&again).unwrap();
    assert_eq!(back, report);
}

#[test]
fn fleet_aggregate_bill_schema_snapshot() {
    // The aggregate-bill JSON shape is scriptable surface: pin its keys.
    let path = problem_file("fleet_schema.json", FLEET_MANIFEST);
    let out = cli()
        .args(["fleet"])
        .arg(&path)
        .arg("--json")
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    let value: serde::Value = serde_json::from_str(&text).expect("valid JSON");
    let report = value.as_object().expect("top-level object");
    let report_keys: Vec<&str> = report.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(report_keys, ["tenants", "aggregate", "wall_ms"]);
    let (_, aggregate) = report.iter().find(|(k, _)| k == "aggregate").unwrap();
    let aggregate = aggregate.as_object().expect("aggregate object");
    let keys: Vec<&str> = aggregate.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "classes",
            "total_cents_per_hour",
            "tenants_provisioned",
            "tenants_failed"
        ],
        "aggregate-bill schema changed: update the README's Fleet mode section"
    );
    let (_, classes) = aggregate.iter().find(|(k, _)| k == "classes").unwrap();
    let first = classes.as_array().expect("classes array")[0]
        .as_object()
        .expect("class line object");
    let line_keys: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(line_keys, ["class", "gb", "cents_per_hour"]);
}

#[test]
fn fleet_malformed_manifest_is_invalid_request_exit_2() {
    for (name, manifest, needle) in [
        ("fleet_trunc.json", r#"{ "tenants": ["#, "parse"),
        ("fleet_empty.json", r#"{ "tenants": [] }"#, "at least one"),
        (
            "fleet_sla.json",
            r#"{ "tenants": [ { "pool": "box2", "database": "tpcc:2", "sla": 9.0 } ] }"#,
            "sla",
        ),
    ] {
        let path = problem_file(name, manifest);
        let out = cli().arg("fleet").arg(&path).output().expect("run dot-cli");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{name}: unhelpful error: {err}");
    }
    // An unknown preset inside a tenant keeps its own exit code.
    let path = problem_file(
        "fleet_preset.json",
        r#"{ "tenants": [ { "pool": "box2", "database": "oracle:12c", "sla": 0.5 } ] }"#,
    );
    let out = cli().arg("fleet").arg(&path).output().expect("run dot-cli");
    assert_eq!(out.status.code(), Some(5));
    // So does an unknown engine preset — the field is honored, not dropped.
    let path = problem_file(
        "fleet_engine.json",
        r#"{ "tenants": [
            { "pool": "box2", "database": "tpch-subset:1", "sla": 0.5, "engine": "olap" }
        ] }"#,
    );
    let out = cli().arg("fleet").arg(&path).output().expect("run dot-cli");
    assert_eq!(out.status.code(), Some(6));
}

#[test]
fn fleet_tenant_entries_honor_engine_and_refinements() {
    // The single-tenant problem-file fields keep working inside a fleet
    // manifest instead of being silently dropped.
    let path = problem_file(
        "fleet_tuned.json",
        r#"{ "tenants": [
            { "name": "tuned", "pool": "box2", "database": "tpch-subset:1", "sla": 0.5,
              "engine": "dss", "refinements": 0 }
        ] }"#,
    );
    let out = cli()
        .args(["fleet"])
        .arg(&path)
        .arg("--json")
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    let report: dot_core::fleet::FleetReport =
        serde_json::from_str(&text).expect("fleet report deserializes");
    let rec = report.tenants[0]
        .recommendation
        .as_ref()
        .expect("provisioned");
    assert_eq!(rec.provenance.refinement_rounds, 0);
    assert!(rec.validation.is_some());
}

#[test]
fn fleet_solver_flag_sets_the_default_without_overriding_manifest_entries() {
    // --solver fills in tenants whose manifest entry names no solver; an
    // explicit per-tenant "solver" field still wins.
    let path = problem_file(
        "fleet_solver_flag.json",
        r#"{ "tenants": [
            { "name": "defaulted", "pool": "box2", "database": "tpch-subset:1", "sla": 0.5 },
            { "name": "pinned", "pool": "box2", "database": "tpch-subset:1", "sla": 0.5,
              "solver": "all-premium" }
        ] }"#,
    );
    let out = cli()
        .args(["fleet"])
        .arg(&path)
        .args(["--solver", "oa", "--json"])
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    let report: dot_core::fleet::FleetReport =
        serde_json::from_str(&text).expect("fleet report deserializes");
    assert_eq!(report.tenants[0].solver, "oa");
    assert_eq!(report.tenants[1].solver, "all-premium");

    // A typo'd flag fails the batch fast with the unknown-solver exit
    // code, matching `provision` — never a "successful" all-error report.
    let out = cli()
        .args(["fleet"])
        .arg(&path)
        .args(["--solver", "dto"])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("dto"), "{err}");
}

#[test]
fn fleet_per_tenant_failures_do_not_fail_the_batch() {
    // One healthy tenant plus one whose solver mismatches the workload:
    // the batch exits 0 and reports the typed per-tenant error in-band.
    let path = problem_file(
        "fleet_partial.json",
        r#"{ "tenants": [
            { "name": "ok",  "pool": "box2", "database": "tpch-subset:1", "sla": 0.5 },
            { "name": "bad", "pool": "box2", "database": "tpch-subset:1", "sla": 0.5,
              "solver": "es-additive" }
        ] }"#,
    );
    let out = cli()
        .args(["fleet"])
        .arg(&path)
        .arg("--json")
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    let report: dot_core::fleet::FleetReport =
        serde_json::from_str(&text).expect("fleet report deserializes");
    assert_eq!(report.aggregate.tenants_provisioned, 1);
    assert_eq!(report.aggregate.tenants_failed, 1);
    let bad = &report.tenants[1];
    assert!(matches!(
        bad.error,
        Some(dot_core::ProvisionError::UnsupportedWorkload { .. })
    ));
}

#[test]
fn fleet_unknown_manifest_keys_are_rejected_not_ignored() {
    // A typo'd manifest key used to be silently dropped (the vendored
    // serde derive ignores unknown fields); it must be a typed invalid
    // request naming the key, at every manifest level.
    for (name, manifest, bad_key) in [
        (
            "fleet_key_top.json",
            r#"{ "workres": 4, "tenants": [
                { "pool": "box2", "database": "tpch-subset:1", "sla": 0.5 } ] }"#,
            "workres",
        ),
        (
            "fleet_key_tenant.json",
            r#"{ "tenants": [
                { "pool": "box2", "database": "tpch-subset:1", "sla": 0.5,
                  "refinments": 2 } ] }"#,
            "refinments",
        ),
    ] {
        let path = problem_file(name, manifest);
        let out = cli().arg("fleet").arg(&path).output().expect("run dot-cli");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(bad_key) && err.contains("unknown key"),
            "{name}: error must name the key: {err}"
        );
    }
    // Problem files behave the same way.
    let err = provision_fails(
        "problem_key.json",
        r#"{ "pool": "box2", "database": "tpch-subset:1", "sla": 0.5, "solvr": "dot" }"#,
        &[],
        2,
    );
    assert!(
        err.contains("solvr") && err.contains("unknown key"),
        "{err}"
    );
}

const LOOSE_OLTP_PROBLEM: &str = r#"{ "pool": "box2", "database": "tpcc:2", "sla": 0.05 }"#;

/// Provision `problem`, write the JSON recommendation next to it, and
/// return the recommendation file's path (the `--current` input).
fn provisioned_layout(name: &str, problem: &str) -> PathBuf {
    let problem_path = problem_file(name, problem);
    let out = cli()
        .arg("provision")
        .arg(&problem_path)
        .arg("--json")
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    let layout_path = problem_file(&format!("{name}.layout.json"), &text);
    layout_path
}

#[test]
fn replan_unchanged_workload_says_so() {
    let current = provisioned_layout("replan_same.json", DSS_PROBLEM);
    let problem = problem_file("replan_same2.json", DSS_PROBLEM);
    let out = cli()
        .arg("replan")
        .arg(&problem)
        .args(["--current", current.to_str().unwrap()])
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    assert!(
        text.contains("unchanged"),
        "no unchanged verdict in:\n{text}"
    );
}

#[test]
fn replan_drifted_problem_emits_a_migration_plan() {
    // Deploy the loose-SLA (cheap) layout, then drift to the tight SLA:
    // the deployed layout violates the drifted floor and must migrate.
    let current = provisioned_layout("replan_loose.json", LOOSE_OLTP_PROBLEM);
    let drifted = problem_file("replan_tight.json", OLTP_PROBLEM);
    let out = cli()
        .arg("replan")
        .arg(&drifted)
        .args(["--current", current.to_str().unwrap()])
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    for expected in ["verdict: migrate", "migration:", "break-even"] {
        assert!(text.contains(expected), "missing {expected:?} in:\n{text}");
    }

    // --json emits the ReplanEnvelope: the serializable recommendation
    // wrapped with the ControlEvent-compatible provenance the supervise
    // subcommand also stamps (elapsed_ms + trigger reason; the one-shot
    // CLI path is the "Manual" stub).
    let out = cli()
        .arg("replan")
        .arg(&drifted)
        .args(["--current", current.to_str().unwrap(), "--json"])
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    let envelope: dot_core::controller::ReplanEnvelope =
        serde_json::from_str(&text).expect("replan envelope deserializes");
    assert_eq!(
        envelope.provenance.trigger,
        dot_core::controller::TriggerReason::Manual
    );
    assert!(text.contains("\"elapsed_ms\""), "provenance must serialize");
    let rec = envelope.replan;
    assert!(!rec.plan.steps.is_empty());
    assert!(!rec.current_feasible);
    assert!(rec.plan.break_even_hours > 0.0 && rec.plan.break_even_hours.is_finite());
    assert_eq!(rec.plan.final_layout, rec.target.layout);
    // The graded validation margins ride along in the target's report.
    let validation = rec.target.validation.expect("dot validates");
    assert!(!validation.margins.is_empty(), "margins must serialize");

    // A zero byte budget is the identity plan.
    let out = cli()
        .arg("replan")
        .arg(&drifted)
        .args([
            "--current",
            current.to_str().unwrap(),
            "--budget-bytes",
            "0",
        ])
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    assert!(
        text.contains("verdict: stay"),
        "no stay verdict in:\n{text}"
    );
}

#[test]
fn replan_usage_and_malformed_inputs_fail_with_typed_codes() {
    // Missing --current is a usage error.
    let problem = problem_file("replan_usage.json", OLTP_PROBLEM);
    let out = cli()
        .arg("replan")
        .arg(&problem)
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(1));

    // A layout file that is neither a Layout nor a Recommendation is an
    // invalid request (exit 2) naming the file.
    let bogus = problem_file("replan_bogus_layout.json", r#"{ "not": "a layout" }"#);
    let out = cli()
        .arg("replan")
        .arg(&problem)
        .args(["--current", bogus.to_str().unwrap()])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("replan_bogus_layout"), "{err}");

    // A non-numeric budget is a usage error before any work happens.
    let current = provisioned_layout("replan_budget_usage.json", OLTP_PROBLEM);
    let out = cli()
        .arg("replan")
        .arg(&problem)
        .args([
            "--current",
            current.to_str().unwrap(),
            "--budget-cents",
            "lots",
        ])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(1));

    // A typo'd flag is a usage error naming it — never silently ignored
    // (a dropped --budget-byte would otherwise run an unbudgeted plan).
    let out = cli()
        .arg("replan")
        .arg(&problem)
        .args([
            "--current",
            current.to_str().unwrap(),
            "--budget-byte",
            "100",
        ])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--budget-byte") && err.contains("unknown flag"),
        "{err}"
    );

    // Flags are scoped per subcommand: a real flag on the wrong
    // subcommand is rejected too, never silently dropped.
    let out = cli()
        .arg("provision")
        .arg(&problem)
        .args(["--drift-threshold", "0.3"])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--drift-threshold") && err.contains("subcommand"),
        "{err}"
    );
}

#[test]
fn replan_hostile_current_layouts_fail_typed_not_panic() {
    // The replan path used to panic (debug) or misplan (release) on
    // user-supplied layouts that do not fit the problem; both shapes must
    // be typed invalid requests (exit 2) that name what is wrong.
    let problem = problem_file("replan_hostile.json", OLTP_PROBLEM);

    // Too few objects for the schema.
    let short = problem_file("replan_short_layout.json", r#"{ "assignment": [0, 1] }"#);
    let out = cli()
        .arg("replan")
        .arg(&problem)
        .args(["--current", short.to_str().unwrap()])
        .output()
        .expect("run dot-cli");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("objects"),
        "must name the size mismatch: {err}"
    );

    // Right object count, but a class id the pool does not have.
    let n = dot_workloads::tpcc::schema(2.0).object_count();
    let foreign = problem_file(
        "replan_foreign_class.json",
        &format!(
            r#"{{ "assignment": [{}] }}"#,
            std::iter::repeat("99")
                .take(n)
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    let out = cli()
        .arg("replan")
        .arg(&problem)
        .args(["--current", foreign.to_str().unwrap()])
        .output()
        .expect("run dot-cli");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("classes"),
        "must name the foreign class: {err}"
    );
}

#[test]
fn replan_inflight_sla_is_honored_or_rejected_typed() {
    let current = provisioned_layout("replan_sla_loose.json", LOOSE_OLTP_PROBLEM);
    let drifted = problem_file("replan_sla_tight.json", OLTP_PROBLEM);

    // A ratio outside (0, 1] is an invalid request before any planning.
    let out = cli()
        .arg("replan")
        .arg(&drifted)
        .args([
            "--current",
            current.to_str().unwrap(),
            "--sla-during-migration",
            "1.5",
        ])
        .output()
        .expect("run dot-cli");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The deployed loose layout already violates the drifted SLA, so no
    // wave can keep a high in-flight ratio: a typed infeasibility (exit
    // 7), carrying the suggested workable ratio.
    let out = cli()
        .arg("replan")
        .arg(&drifted)
        .args([
            "--current",
            current.to_str().unwrap(),
            "--sla-during-migration",
            "0.9",
        ])
        .output()
        .expect("run dot-cli");
    assert_eq!(
        out.status.code(),
        Some(7),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("infeasible"), "{err}");

    // A non-numeric ratio is a usage error.
    let out = cli()
        .arg("replan")
        .arg(&drifted)
        .args([
            "--current",
            current.to_str().unwrap(),
            "--sla-during-migration",
            "plenty",
        ])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn replan_window_seconds_reports_a_windowed_rollout() {
    let current = provisioned_layout("replan_win_loose.json", LOOSE_OLTP_PROBLEM);
    let drifted = problem_file("replan_win_tight.json", OLTP_PROBLEM);
    let out = cli()
        .arg("replan")
        .arg(&drifted)
        .args([
            "--current",
            current.to_str().unwrap(),
            "--window-seconds",
            "6",
        ])
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    for expected in [
        "windowed rollout",
        "window 0:",
        "wave(s)",
        "rollout reaches the target",
    ] {
        assert!(text.contains(expected), "missing {expected:?} in:\n{text}");
    }

    // --json emits the provenance-stamped rollout, structurally parseable.
    #[derive(serde::Deserialize)]
    struct Envelope {
        provenance: dot_core::controller::ControlProvenance,
        rollout: dot_core::replan::WindowedRollout,
    }
    let out = cli()
        .arg("replan")
        .arg(&drifted)
        .args([
            "--current",
            current.to_str().unwrap(),
            "--window-seconds",
            "6",
            "--json",
        ])
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    let envelope: Envelope = serde_json::from_str(&text).expect("rollout envelope deserializes");
    assert_eq!(
        envelope.provenance.trigger,
        dot_core::controller::TriggerReason::Manual
    );
    let rollout = envelope.rollout;
    assert!(rollout.complete, "the rollout must reach the target");
    assert!(
        rollout.windows.len() >= 2,
        "6 s windows must split the flip"
    );
    for rec in &rollout.windows {
        assert!(
            rec.plan.schedule.makespan_seconds <= 6.0 + 1e-6,
            "window overran its ceiling: {}",
            rec.plan.schedule.makespan_seconds
        );
    }

    // A non-positive window is a usage error.
    let out = cli()
        .arg("replan")
        .arg(&drifted)
        .args([
            "--current",
            current.to_str().unwrap(),
            "--window-seconds",
            "0",
        ])
        .output()
        .expect("run dot-cli");
    assert!(!out.status.success());
}

const SUPERVISE_TRACE: &str = r#"[
    { "shift": 0.03 },
    { "phase": "analytical", "repeat": 2 },
    { "phase": "baseline" }
]"#;

#[test]
fn supervise_replays_a_trace_and_reports_the_event_log() {
    let problem = problem_file("supervise.json", OLTP_PROBLEM);
    let trace = problem_file("supervise_trace.json", SUPERVISE_TRACE);
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    for expected in [
        "supervising",
        "observed",
        "TRIGGERED",
        "APPLIED",
        "trigger(s)",
    ] {
        assert!(text.contains(expected), "missing {expected:?} in:\n{text}");
    }
}

#[test]
fn supervise_window_ticks_continues_a_budget_cut_rollout() {
    // A byte budget cuts the flip short at tick 0; the recurring
    // maintenance window picks the rollout back up without a new drift
    // signal.
    let problem = problem_file("supervise_window.json", OLTP_PROBLEM);
    let trace = problem_file(
        "supervise_window_trace.json",
        r#"[ { "phase": "analytical", "repeat": 6 } ]"#,
    );
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args([
            "--trace",
            trace.to_str().unwrap(),
            "--cooldown",
            "1",
            "--window-ticks",
            "2",
            "--budget-bytes",
            "60000000",
        ])
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    for expected in ["partial", "deferred", "maintenance window (every 2 ticks)"] {
        assert!(text.contains(expected), "missing {expected:?} in:\n{text}");
    }

    // A zero window is a typed config error, not a silent no-op.
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace", trace.to_str().unwrap(), "--window-ticks", "0"])
        .output()
        .expect("run dot-cli");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("window_ticks"), "{err}");
}

#[test]
fn supervise_json_shares_the_control_provenance_schema() {
    let problem = problem_file("supervise_json.json", OLTP_PROBLEM);
    let trace = problem_file("supervise_json_trace.json", SUPERVISE_TRACE);
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace", trace.to_str().unwrap(), "--json"])
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    let report: dot_core::fleet::SuperviseFleetReport =
        serde_json::from_str(&text).expect("supervise report deserializes");
    assert_eq!(report.tenants.len(), 1);
    let tenant = &report.tenants[0];
    assert!(tenant.error.is_none());
    assert_eq!(tenant.ticks, 4);
    assert!(tenant.triggers >= 1, "the phase flip must trigger");
    assert!(tenant.applications >= 1);
    // The provenance object is the same schema replan --json stamps, with
    // the loop's actual trigger in place of the Manual stub.
    assert!(matches!(
        tenant.provenance.trigger,
        dot_core::controller::TriggerReason::Drift { .. }
            | dot_core::controller::TriggerReason::DriftAndSla { .. }
    ));
    assert!(text.contains("\"elapsed_ms\""), "provenance must serialize");
}

#[test]
fn supervise_stream_emits_daemon_protocol_frames() {
    // `--stream` speaks the `dot-serve` wire protocol: one `Event` frame
    // per control event as each tick completes, then a terminal
    // `Detached` frame with the tenant summary — so a script written
    // against the daemon parses the one-shot CLI stream unchanged.
    let problem = problem_file("supervise_stream.json", OLTP_PROBLEM);
    let trace = problem_file("supervise_stream_trace.json", SUPERVISE_TRACE);
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace", trace.to_str().unwrap(), "--stream"])
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    let frames: Vec<dot_serve::protocol::ResponseFrame> = text
        .lines()
        .map(|line| dot_serve::framing::parse_response(line).expect("protocol frame"))
        .collect();
    assert!(frames.len() > 1, "stream must carry events:\n{text}");
    let (last, events) = frames.split_last().unwrap();
    let mut observed = 0;
    for frame in events {
        match &frame.response {
            dot_serve::protocol::Response::Event { tenant: 0, event } => {
                if matches!(event, dot_core::controller::ControlEvent::Observed { .. }) {
                    observed += 1;
                }
            }
            other => panic!("expected an Event frame, got {other:?}"),
        }
    }
    // The trace is 4 ticks; every tick logs its observation.
    assert_eq!(observed, 4, "{text}");
    match &last.response {
        dot_serve::protocol::Response::Detached { summary } => {
            assert_eq!(summary.ticks, 4);
            assert!(summary.triggers >= 1, "the phase flip must trigger");
            assert!(summary.applications >= 1);
        }
        other => panic!("expected the terminal Detached frame, got {other:?}"),
    }

    // The two output modes are exclusive: asking for both is a usage
    // error before any work happens.
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace", trace.to_str().unwrap(), "--json", "--stream"])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mutually exclusive"), "{err}");
}

/// Parse a `supervise --stream` stdout into its frames.
fn stream_frames(out: &Output) -> Vec<dot_serve::protocol::Response> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| {
            dot_serve::framing::parse_response(line)
                .expect("protocol frame")
                .response
        })
        .collect()
}

#[test]
fn supervise_stream_and_json_report_the_same_session() {
    use dot_serve::protocol::Response;
    let problem = problem_file("supervise_parity.json", OLTP_PROBLEM);
    let trace = problem_file("supervise_parity_trace.json", SUPERVISE_TRACE);
    let run = |mode: &str| {
        cli()
            .arg("supervise")
            .arg(&problem)
            .args(["--trace", trace.to_str().unwrap(), mode])
            .output()
            .expect("run dot-cli")
    };
    let json = run("--json");
    let report: dot_core::fleet::SuperviseFleetReport =
        serde_json::from_str(&stdout_of(&json)).expect("supervise report deserializes");
    let tenant = &report.tenants[0];
    let stream = run("--stream");
    stdout_of(&stream);
    let mut frames = stream_frames(&stream);
    let Some(Response::Detached { summary }) = frames.pop() else {
        panic!("the stream must end with a Detached frame: {frames:?}");
    };
    let events: Vec<dot_core::controller::ControlEvent> = frames
        .into_iter()
        .map(|frame| match frame {
            Response::Event { tenant: 0, event } => event,
            other => panic!("expected an Event frame, got {other:?}"),
        })
        .collect();
    assert_eq!(events, tenant.events, "the two modes log different events");
    assert_eq!(summary.ticks, tenant.ticks);
    assert_eq!(summary.triggers, tenant.triggers);
    assert_eq!(summary.applications, tenant.applications);
    assert_eq!(summary.provenance.trigger, tenant.provenance.trigger);
    assert!(tenant.triggers >= 1 && tenant.applications >= 1);
}

#[test]
fn supervise_stream_ends_a_failed_replan_with_an_error_frame() {
    // `es` refuses tpcc (3^19 layouts past its enumeration limit), so the
    // phase flip's replan fails after its trigger: the stream carries the
    // two observations and the trigger, then the typed error, and no
    // summary.
    use dot_core::controller::ControlEvent;
    use dot_serve::protocol::{ProtocolError, Response};
    let problem = problem_file("supervise_es.json", OLTP_PROBLEM);
    let trace = problem_file("supervise_es_trace.json", SUPERVISE_TRACE);
    let provisioned = cli()
        .arg("provision")
        .arg(&problem)
        .arg("--json")
        .output()
        .expect("run dot-cli");
    let current = problem_file("supervise_es_current.json", &stdout_of(&provisioned));
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace", trace.to_str().unwrap(), "--solver", "es"])
        .args(["--current", current.to_str().unwrap(), "--stream"])
        .output()
        .expect("run dot-cli");
    assert_eq!(
        out.status.code(),
        Some(9),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let frames = stream_frames(&out);
    assert_eq!(frames.len(), 4, "{frames:?}");
    let event = |i: usize| match &frames[i] {
        Response::Event { tenant: 0, event } => event.clone(),
        other => panic!("frame {i}: expected an Event frame, got {other:?}"),
    };
    assert!(matches!(event(0), ControlEvent::Observed { tick: 0, .. }));
    assert!(matches!(event(1), ControlEvent::Observed { tick: 1, .. }));
    assert!(matches!(event(2), ControlEvent::Triggered { tick: 1, .. }));
    match &frames[3] {
        Response::Error {
            error:
                ProtocolError::Provision {
                    error: dot_core::advisor::ProvisionError::UnsupportedWorkload { solver, .. },
                },
        } => assert_eq!(solver, "es"),
        other => panic!("expected the UnsupportedWorkload Error frame, got {other:?}"),
    }
}

#[test]
fn supervise_usage_and_malformed_traces_fail_with_typed_codes() {
    // Missing --trace is a usage error.
    let problem = problem_file("supervise_usage.json", OLTP_PROBLEM);
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(1));

    // A typo'd trace-step key is an invalid request naming it.
    let bad = problem_file("supervise_bad_trace.json", r#"[ { "shfit": 0.3 } ]"#);
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace", bad.to_str().unwrap()])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("shfit") && err.contains("unknown key"),
        "{err}"
    );

    // An out-of-domain step is a typed invalid request, not a panic.
    let out_of_domain = problem_file("supervise_domain_trace.json", r#"[ { "shift": 1.5 } ]"#);
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace", out_of_domain.to_str().unwrap()])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("shift"), "{err}");

    // An empty trace is rejected before any work happens.
    let empty = problem_file("supervise_empty_trace.json", "[]");
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace", empty.to_str().unwrap()])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(2));

    // An unknown phase surfaces as the tenant's typed error with exit 2.
    let lunar = problem_file("supervise_lunar_trace.json", r#"[ { "phase": "lunar" } ]"#);
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace", lunar.to_str().unwrap()])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(2));

    // In --json mode the failure's stdout is ONE valid JSON value — the
    // typed error document, never the report with an error appended.
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace", lunar.to_str().unwrap(), "--json"])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8_lossy(&out.stdout);
    let value: serde::Value = serde_json::from_str(&text).expect("single JSON document");
    assert!(
        value
            .as_object()
            .expect("tagged error object")
            .iter()
            .any(|(k, _)| k == "InvalidRequest"),
        "{text}"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("lunar"), "{err}");
}

#[test]
fn supervise_trace_gen_generates_and_replays_a_trace() {
    // `--trace-gen` swaps the trace file for a generator spec; a flash
    // crowd spikes demand hard enough to trigger at least one replan.
    let problem = problem_file("supervise_gen.json", OLTP_PROBLEM);
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace-gen", "flash-crowd:peak=4,quiet=1,spike=2,decay=2"])
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    for expected in ["supervising", "observed", "trigger(s)"] {
        assert!(text.contains(expected), "missing {expected:?} in:\n{text}");
    }

    // The two trace sources are exclusive: naming both is a usage error.
    let trace = problem_file("supervise_gen_trace.json", SUPERVISE_TRACE);
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--trace-gen", "diurnal"])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mutually exclusive"), "{err}");

    // A malformed spec is a typed invalid request naming the generator.
    let out = cli()
        .arg("supervise")
        .arg(&problem)
        .args(["--trace-gen", "lunar:phase=full"])
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("lunar"), "{err}");
}

#[test]
fn explain_prints_plans_for_the_premium_layout() {
    let path = problem_file("explain.json", DSS_PROBLEM);
    let out = cli()
        .arg("explain")
        .arg(&path)
        .output()
        .expect("run dot-cli");
    let text = stdout_of(&out);
    assert!(text.contains("workload:"), "no workload header in:\n{text}");
}

#[test]
fn bad_usage_fails_with_the_generic_code() {
    let out = cli().output().expect("run dot-cli");
    assert_eq!(out.status.code(), Some(1), "no-arg run must fail with 1");

    let out = cli().arg("frobnicate").output().expect("run dot-cli");
    assert_eq!(out.status.code(), Some(1), "unknown subcommand");
}

// One malformed-input probe per ProvisionError variant the CLI can hit,
// each with its own exit code and a message naming the offending input.

#[test]
fn out_of_range_sla_is_invalid_request_exit_2() {
    let err = provision_fails(
        "bad_sla.json",
        r#"{ "pool": "box2", "database": "tpch-subset:1", "sla": 7.0 }"#,
        &[],
        2,
    );
    assert!(err.contains("sla"), "unhelpful error: {err}");
}

#[test]
fn unparsable_problem_file_is_invalid_request_exit_2() {
    let err = provision_fails("truncated.json", r#"{ "pool": "box2", "#, &[], 2);
    assert!(err.contains("parse"), "unhelpful error: {err}");
}

#[test]
fn unknown_solver_is_exit_3_and_lists_known_ids() {
    let err = provision_fails("solver.json", DSS_PROBLEM, &["--solver", "simplex"], 3);
    assert!(err.contains("simplex") && err.contains("dot"), "{err}");
}

#[test]
fn unknown_pool_is_exit_4() {
    let err = provision_fails(
        "bad_pool.json",
        r#"{ "pool": "box9", "database": "tpch-subset:1", "sla": 0.5 }"#,
        &[],
        4,
    );
    assert!(err.contains("box9"), "{err}");
}

#[test]
fn unknown_database_preset_is_exit_5() {
    let err = provision_fails(
        "bad_preset.json",
        r#"{ "pool": "box2", "database": "tpch:1:bogus", "sla": 0.5 }"#,
        &[],
        5,
    );
    assert!(err.contains("tpch:1:bogus"), "{err}");
}

#[test]
fn unknown_engine_preset_is_exit_6() {
    let err = provision_fails(
        "bad_engine.json",
        r#"{ "pool": "box2", "database": "tpch-subset:1", "sla": 0.5, "engine": "olap" }"#,
        &[],
        6,
    );
    assert!(err.contains("olap") && err.contains("dss"), "{err}");
}

#[test]
fn infeasible_sla_is_exit_7_with_a_suggestion() {
    // Ratio 1.0 forbids any degradation; the TPC-H subset workload cannot
    // move a byte off the premium class without slowing some query, and
    // the premium class itself is capped via an inline pool. Easier: a
    // custom pool is overkill — the ycsb:A update-heavy mix at ratio 1.0
    // keeps everything premium, which IS feasible. So probe with tpcc at a
    // ratio above what any off-premium layout can meet but with the H-SSD
    // capped so the premium layout is out too.
    let err = provision_fails(
        "infeasible.json",
        r#"{ "pool": { "name": "Tiny", "classes": [
                { "id": 0, "name": "H-SSD", "devices": [],
                  "controller_cents": 0.0, "controller_watts": 0.0,
                  "capacity_gb": 0.8, "price_cents_per_gb_hour": 0.169,
                  "profile": { "at_c1": [0.013, 0.013, 0.015, 0.015],
                               "at_c300": [0.013, 0.013, 0.015, 0.015] } },
                { "id": 1, "name": "HDD", "devices": [],
                  "controller_cents": 0.0, "controller_watts": 0.0,
                  "capacity_gb": 1000.0, "price_cents_per_gb_hour": 0.000347,
                  "profile": { "at_c1": [0.005, 6.0, 0.006, 8.0],
                               "at_c300": [0.037, 2.4, 0.035, 3.6] } }
            ] },
            "database": "tpch-subset:1", "sla": 1.0 }"#,
        &[],
        7,
    );
    assert!(err.contains("infeasible"), "{err}");
}

#[test]
fn oversized_database_is_capacity_exceeded_exit_8() {
    let err = provision_fails(
        "capacity.json",
        r#"{ "pool": { "name": "Thimble", "classes": [
                { "id": 0, "name": "H-SSD", "devices": [],
                  "controller_cents": 0.0, "controller_watts": 0.0,
                  "capacity_gb": 0.01, "price_cents_per_gb_hour": 0.169,
                  "profile": { "at_c1": [0.013, 0.013, 0.015, 0.015],
                               "at_c300": [0.013, 0.013, 0.015, 0.015] } }
            ] },
            "database": "tpch-subset:1", "sla": 0.5 }"#,
        &[],
        8,
    );
    assert!(err.contains("capacity"), "{err}");
}

#[test]
fn invalid_inline_pools_are_invalid_request_exit_2() {
    let class = |id: usize, name: &str, price: &str| {
        format!(
            r#"{{ "id": {id}, "name": "{name}", "devices": [],
                  "controller_cents": 0.0, "controller_watts": 0.0,
                  "capacity_gb": 1000.0, "price_cents_per_gb_hour": {price},
                  "profile": {{ "at_c1": [0.005, 6.0, 0.006, 8.0],
                               "at_c300": [0.037, 2.4, 0.035, 3.6] }} }}"#
        )
    };
    for (probe, classes, want) in [
        (
            "negative-price",
            [class(0, "H-SSD", "-1.0"), class(1, "HDD", "0.000347")],
            "class \"H-SSD\": H-SSD: price must be positive and finite",
        ),
        (
            "infinite-price",
            [class(0, "H-SSD", "1e400"), class(1, "HDD", "0.000347")],
            "price must be positive and finite",
        ),
        (
            "duplicate-name",
            [class(0, "HDD", "0.169"), class(1, "HDD", "0.000347")],
            "duplicate class name \"HDD\"",
        ),
        (
            "renumbered",
            [class(7, "H-SSD", "0.169"), class(1, "HDD", "0.000347")],
            "class \"H-SSD\" has id 7 at position 0",
        ),
    ] {
        let problem = format!(
            r#"{{ "pool": {{ "name": "Probe", "classes": [{}] }},
                "database": "tpch-subset:1", "sla": 0.5 }}"#,
            classes.join(", ")
        );
        let err = provision_fails(&format!("{probe}.json"), &problem, &[], 2);
        assert!(err.contains("invalid-request"), "{probe}: {err}");
        assert!(err.contains(want), "{probe}: {err}");
    }
}

#[test]
fn solver_workload_mismatch_is_unsupported_exit_9() {
    let err = provision_fails(
        "mismatch.json",
        DSS_PROBLEM,
        &["--solver", "es-additive"],
        9,
    );
    assert!(err.contains("es-additive"), "{err}");
}

#[test]
fn json_flag_renders_the_typed_error_too() {
    let path = problem_file(
        "json_err.json",
        r#"{ "pool": "box9", "database": "tpch-subset:1", "sla": 0.5 }"#,
    );
    let out = cli()
        .arg("provision")
        .arg(&path)
        .arg("--json")
        .output()
        .expect("run dot-cli");
    assert_eq!(out.status.code(), Some(4));
    let text = String::from_utf8_lossy(&out.stdout);
    let value: serde::Value = serde_json::from_str(&text).expect("error serializes as JSON");
    let object = value.as_object().expect("tagged error object");
    assert!(object.iter().any(|(k, _)| k == "UnknownPool"), "{text}");
}

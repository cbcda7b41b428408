//! Smoke tests running each of the `examples/` end-to-end via
//! `cargo run --example`, so the documented quickstart commands keep
//! working. Examples are built in release mode (as their doc headers
//! instruct) and share the workspace target directory, so after
//! `cargo build --release` these tests only pay each example's runtime
//! (sub-second apiece).

use std::process::Command;

fn run_example(name: &str) -> String {
    run_example_with(name, &[])
}

fn run_example_with(name: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args(["run", "--quiet", "--release", "--example", name])
        .current_dir(env!("CARGO_MANIFEST_DIR"));
    if !args.is_empty() {
        cmd.arg("--").args(args);
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("spawn cargo run --example {name}: {e}"));
    assert!(
        out.status.success(),
        "example {name} failed with {:?}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn quickstart_runs() {
    let text = run_example("quickstart");
    assert!(text.contains("TOC:"), "output:\n{text}");
    assert!(text.contains("PSR"), "output:\n{text}");
}

#[test]
fn dss_provisioning_runs() {
    // Scale factor 1 keeps the smoke test fast; the default is 20.
    let text = run_example_with("dss_provisioning", &["1"]);
    assert!(text.contains("TPC-H SF 1"), "output:\n{text}");
}

#[test]
fn oltp_provisioning_runs() {
    let text = run_example("oltp_provisioning");
    assert!(text.contains("TPC-C"), "output:\n{text}");
}

#[test]
fn capacity_planning_runs() {
    let text = run_example("capacity_planning");
    assert!(!text.trim().is_empty(), "capacity_planning printed nothing");
}

#[test]
fn multi_tenant_runs() {
    let text = run_example("multi_tenant");
    assert!(!text.trim().is_empty(), "multi_tenant printed nothing");
}

#[test]
fn fleet_provisioning_runs() {
    let text = run_example("fleet_provisioning");
    assert!(
        text.contains("provisioned 64 of 64 tenants"),
        "output:\n{text}"
    );
    assert!(text.contains("aggregate bill"), "output:\n{text}");
}

#[test]
fn workload_drift_runs() {
    let text = run_example("workload_drift");
    assert!(text.contains("SLA-violating"), "output:\n{text}");
    assert!(text.contains("break-even"), "output:\n{text}");
    assert!(text.contains("identity plan"), "output:\n{text}");
}

#[test]
fn online_controller_runs() {
    let text = run_example("online_controller");
    assert!(text.contains("TRIGGERED"), "output:\n{text}");
    assert!(text.contains("APPLIED"), "output:\n{text}");
    assert!(text.contains("no flap"), "output:\n{text}");
}

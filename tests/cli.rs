//! End-to-end tests of the `cloudlb` CLI binary.

use std::process::Command;

fn cloudlb(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cloudlb"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn run_subcommand_reports_penalty() {
    let out = cloudlb(&["run", "--app", "jacobi2d", "--cores", "4", "--iters", "20"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("jacobi2d on 4 cores"), "{stdout}");
    assert!(stdout.contains("penalty"), "{stdout}");
    assert!(stdout.contains("W/node"), "{stdout}");
}

#[test]
fn run_subcommand_json_is_parseable() {
    let out = cloudlb(&[
        "run", "--app", "wave2d", "--cores", "4", "--iters", "20", "--json",
    ]);
    assert!(out.status.success());
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    assert_eq!(v["scenario"]["app"], "wave2d");
    assert_eq!(v["scenario"]["cores"], 4);
    assert!(v["timing_penalty"].as_f64().expect("number") > 0.0);
    assert!(v["base_s"].as_f64().expect("number") > 0.0);
    assert_eq!(v["network"], serde_json::Value::Null, "inactive layers are null");
}

#[test]
fn run_text_and_json_report_the_same_run() {
    let args = ["run", "--app", "jacobi2d", "--cores", "8", "--iters", "30", "--bg", "none"];
    let text = cloudlb(&args);
    assert!(text.status.success(), "{}", String::from_utf8_lossy(&text.stderr));
    let stdout = String::from_utf8_lossy(&text.stdout);
    assert!(stdout.contains("(penalty 0.0 %), 0 migrations"), "{stdout}");

    let json = cloudlb(&[&args[..], &["--json"]].concat());
    assert!(json.status.success(), "{}", String::from_utf8_lossy(&json.stderr));
    let v: serde_json::Value = serde_json::from_slice(&json.stdout).expect("valid JSON");
    assert_eq!(v["timing_penalty"].as_f64(), Some(0.0));
    assert_eq!(v["migrations"], 0);
    assert_eq!(v["scenario"]["bg"], "None");
}

#[test]
fn run_json_carries_the_network_impact() {
    let out = cloudlb(&[
        "run", "--cores", "8", "--iters", "30", "--net-fault", "flaky_cloud", "--json",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(
        matches!(&v["network"], serde_json::Value::Object(_)),
        "network impact missing: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(v["network"]["net_penalty"].as_f64().is_some());
    assert!(matches!(&v["scenario"]["net_fault"], serde_json::Value::Object(_)));
    assert_eq!(v["failures"], serde_json::Value::Null);
}

#[test]
fn unknown_app_is_a_clean_error_not_a_panic() {
    for cmd in ["run", "trace"] {
        let out = cloudlb(&[cmd, "--app", "linpack"]);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown application"), "{cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}

#[test]
fn matrix_json_stdout_is_the_points_array_alone() {
    let out = cloudlb(&["matrix", "--app", "jacobi2d", "--fast", "--json"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(matches!(&v, serde_json::Value::Array(a) if a.len() == 2), "{v:?}");
    assert_eq!(v[0]["cores"], 4);
    assert_eq!(v[1]["cores"], 8);
}

#[test]
fn fig1_subcommand_prints_a_timeline() {
    let out = cloudlb(&["fig1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("interfered"), "{stdout}");
    assert!(stdout.contains("pe   0"), "{stdout}");
}

#[test]
fn bad_flags_fail_with_usage() {
    for args in [&["run", "--cores", "7"][..], &["bogus"][..], &[][..]] {
        let out = cloudlb(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn trace_subcommand_renders_timeline_and_profile() {
    let out = cloudlb(&["trace", "--app", "jacobi2d", "--cores", "4", "--iters", "10"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("legend:"), "{stdout}");
    assert!(stdout.contains("usage profile"), "{stdout}");
    assert!(stdout.contains("% app"), "{stdout}");
}

#[test]
fn scenario_file_drives_a_run() {
    let path = std::env::temp_dir().join("cloudlb_cli_test_scenario.json");
    std::fs::write(
        &path,
        r#"{"app":"wave2d","cores":4,"iterations":15,"strategy":"cloudrefine",
            "lb_period":5,"bg":{"TwoCore":{"demand_frac":1.0}},"bg_weight":1.0,
            "seed":3,"trace":false}"#,
    )
    .expect("temp file");
    let out = cloudlb(&["run", "--scenario", path.to_str().expect("utf8")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wave2d on 4 cores"), "{stdout}");
}

#[test]
fn missing_scenario_file_fails_cleanly() {
    let out = cloudlb(&["run", "--scenario", "/nonexistent/scn.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

//! Self-tests of the benchmark: the timing decorator must not perturb a
//! run, the digest must ignore engine bookkeeping, and the metric tables
//! must match `BENCHMARK.json`.

use crate::digest::{parse_table, run_digest, PointMeans};
use crate::host::{median, percentile};
use crate::passes::eval_point;
use crate::probe::{run_plain, run_traced};
use crate::workloads::{arms, Workload};
use crate::{END_TO_END, PER_LAYER};
use cloudlb_core::{evaluate_cells, try_run_scenario, BgPattern, CellSpec, Scenario};
use cloudlb_runtime::FastForward;

/// One small scenario per preset.
fn presets() -> Vec<Scenario> {
    let small = |mut s: Scenario| {
        s.iterations = 20;
        s
    };
    vec![
        small(Scenario::paper("jacobi2d", 8, "cloudrefine")),
        small(Scenario::noisy_cloud("wave2d", 8, "robustcloudrefine")),
        small(Scenario::flaky_cloud("jacobi2d", 8, "cloudrefine")),
        small(Scenario::failure_drill("wave2d", 8, "cloudrefine")),
        small(Scenario::spot_storm("mol3d", 8, "cloudrefine")),
        small(Scenario::autoscale("jacobi2d", 8, "cloudrefine")),
        Scenario::scale("jacobi2d", 16, "hiercloudrefine"),
    ]
}

#[test]
fn timing_decorator_leaves_results_unchanged() {
    for s in presets() {
        let reference = try_run_scenario(&s).expect("preset runs");
        let (traced, probe) = run_traced(&s);
        assert_eq!(
            traced.as_ref(),
            Ok(&reference),
            "traced {} {:?}",
            s.app,
            s.strategy
        );
        assert_eq!(
            run_plain(&s).as_ref(),
            Ok(&reference),
            "plain {} {:?}",
            s.app,
            s.strategy
        );
        assert_eq!(
            probe.plans.plan_ns.len(),
            reference.lb_steps,
            "one plan per LB step"
        );
        assert!(probe.exec_s > 0.0 && probe.setup_s > 0.0);
    }
}

#[test]
fn digest_ignores_fast_forward_bookkeeping() {
    let mut on = Scenario::paper("jacobi2d", 8, "cloudrefine");
    on.bg = BgPattern::None;
    on.iterations = 60;
    on.fast_forward = FastForward::On;
    let off = Scenario {
        fast_forward: FastForward::Off,
        ..on.clone()
    };
    let (r_on, r_off) = (
        try_run_scenario(&on).unwrap(),
        try_run_scenario(&off).unwrap(),
    );
    assert!(
        r_on.ff_windows > 0 && r_on.events_skipped > 0,
        "the clean run must fast-forward"
    );
    assert_eq!(r_off.events_skipped, 0);
    assert_eq!(run_digest(&r_on), run_digest(&r_off));

    let other = Scenario {
        seed: on.seed + 1,
        ..on
    };
    assert_ne!(
        run_digest(&try_run_scenario(&other).unwrap()),
        run_digest(&r_on)
    );
}

#[test]
fn traced_fold_reproduces_evaluate_cells_means() {
    let cell = CellSpec::paper("wave2d", 4, 20, "cloudrefine");
    let seeds = [5, 6];
    let runs: Vec<_> = seeds
        .iter()
        .flat_map(|&seed| arms(&cell, seed))
        .map(|s| try_run_scenario(&s).unwrap())
        .collect();
    let point = evaluate_cells(std::slice::from_ref(&cell), &seeds, 2)
        .pop()
        .unwrap();
    assert_eq!(eval_point(&cell, &runs), PointMeans::of(&point));
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name:?} outside [A-Za-z0-9_.-]"
        );
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
        assert_eq!(
            names.iter().filter(|n| *n == name).count(),
            1,
            "{name} listed twice"
        );
    }
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let json = include_str!("../../BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    let listed = json.matches("\"name\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}

#[test]
fn recorded_digests_name_known_workloads() {
    let table = parse_table(include_str!("../digests.txt"));
    assert!(!table.is_empty());
    for (w, _, d) in &table {
        assert!(Workload::parse(w).is_some(), "unknown workload {w}");
        assert!(
            d.runs.is_some(),
            "{w}: every recorded entry carries a runs digest"
        );
    }
}

#[test]
fn order_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.5), 5.0);
    assert_eq!(percentile(&xs, 0.9), 9.0);
    assert_eq!(percentile(&[], 0.5), 0.0);
}

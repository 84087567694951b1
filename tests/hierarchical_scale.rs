//! Gates for the scale configuration (32 chares/core, 30 iterations,
//! LB every 3, fast-forward ON) and the hierarchical `hiercloudrefine`
//! arm. The cheap tests cover quality parity at the paper's own scale,
//! determinism and chare conservation at a CI-sized slice of the scale
//! shape, and the boundary-ghost capture regression; the `#[ignore]`d
//! test runs the full 32k-core / 1M-chare configuration (minutes, run
//! with `cargo test --release --test hierarchical_scale -- --ignored`).

use cloudlb_apps::grids::{near_square_factors, Block2D};
use cloudlb_apps::Jacobi2D;
use cloudlb_core::{run_scenario, Scenario};
use cloudlb_runtime::{FastForward, RunResult, SimExecutor};

/// Chares per core in the scale configuration (mirrors the bench).
const ODF: usize = 32;
/// Grid points per chare side — small on purpose: block size scales the
/// simulated time, not the event count, so tiny blocks keep the gates
/// cheap without changing what is exercised.
const BLOCK: usize = 32;

/// Run the scale scenario on `cores` with the app built directly at
/// `ODF` chares per core (the `Scenario` constructors fix 16/core).
fn scale_run(cores: usize, strategy: &str, ff: FastForward) -> RunResult {
    let (cx, cy) = near_square_factors(ODF * cores);
    let app = Jacobi2D::new(Block2D::new(cx * BLOCK, cy * BLOCK, cx, cy));
    let mut scn = Scenario::scale("jacobi2d", cores, strategy);
    scn.fast_forward = ff;
    SimExecutor::new(&app, scn.run_config(), scn.bg_script(&app)).run()
}

fn assert_conserving(r: &RunResult, cores: usize, chares: usize, iters: usize) {
    assert_eq!(r.final_mapping.len(), chares, "mapping must cover every chare");
    assert!(
        r.final_mapping.iter().all(|&pe| pe < cores),
        "a chare landed outside the cluster"
    );
    assert_eq!(r.iter_times.len(), iters, "run must complete every iteration");
}

/// At the paper's own scale (8 nodes x 4 cores, interference on), the
/// hierarchical arm must stay within 5% of flat CloudRefine's makespan:
/// restricting refinement to per-node scope plus a surplus exchange may
/// not cost real balance quality where the flat algorithm works well.
#[test]
fn hiercloudrefine_matches_flat_at_paper_scale() {
    for seed in [1, 2, 3] {
        let run_arm = |strategy: &str| {
            let mut scn = Scenario::paper("jacobi2d", 32, strategy);
            scn.seed = seed;
            run_scenario(&scn)
        };
        let flat = run_arm("cloudrefine");
        let hier = run_arm("hiercloudrefine");
        let ratio = hier.app_time.as_secs_f64() / flat.app_time.as_secs_f64();
        assert!(
            ratio <= 1.05,
            "hiercloudrefine makespan is {:.1}% of flat at seed {seed} (allowed 105%)",
            ratio * 100.0
        );
    }
}

/// Regression: a boundary ghost that pops at the same instant as the
/// window's final park must land in the capture template. The capture
/// used to close while that ghost sat in the pop buffer — out of the
/// queue, not yet in the inbox — so the template silently dropped it and
/// every replay deadlocked the receiving chare. This exact shape (32
/// cores, 32 chares/core) hits the race in its first captured window.
#[test]
fn boundary_ghost_at_the_final_park_survives_capture() {
    let on = scale_run(32, "nolb", FastForward::On);
    let off = scale_run(32, "nolb", FastForward::Off);
    assert!(on.ff_windows > 0, "the scale shape must actually macro-step");
    assert_eq!(off.ff_windows, 0);
    assert_eq!(
        on.scrub_ff(),
        off,
        "fast-forward diverged from the event-by-event run on the race shape"
    );
}

/// A CI-sized slice of the scale configuration: rerunning the same
/// scenario is bit-identical, both arms conserve chares, and the
/// fast-forward engine engages.
#[test]
fn modest_scale_run_is_deterministic_and_conserving() {
    let cores = 64;
    let chares = ODF * cores;
    for strategy in ["cloudrefine", "hiercloudrefine"] {
        let first = scale_run(cores, strategy, FastForward::On);
        assert_conserving(&first, cores, chares, 30);
        assert!(first.ff_windows > 0, "{strategy}: scale windows must coalesce");
        let rerun = scale_run(cores, strategy, FastForward::On);
        assert_eq!(first, rerun, "{strategy}: rerun diverged");
    }
}

/// The full 32k-core / 1M-chare configuration of the `scale` bench:
/// conservation and bit-identical reruns at the headline scale. Takes
/// minutes even in release, so it only runs when asked for explicitly.
#[test]
#[ignore = "minutes-long: run with --release -- --ignored"]
fn full_scale_32k_cores_1m_chares_conserves() {
    let cores = 32_768;
    let chares = ODF * cores;
    assert_eq!(chares, 1_048_576);
    let first = scale_run(cores, "cloudrefine", FastForward::On);
    assert_conserving(&first, cores, chares, 30);
    assert!(first.ff_windows > 0);
    let rerun = scale_run(cores, "cloudrefine", FastForward::On);
    assert_eq!(first, rerun, "full-scale rerun diverged");
}

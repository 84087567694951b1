//! Differential gate for the steady-state fast-forward engine: with
//! macro-stepping ON, every scenario preset must produce a `RunResult`
//! bit-identical (after [`RunResult::scrub_ff`], which zeroes only the
//! two observability counters) to the event-by-event run with it OFF —
//! same iteration times, same migrations, same energy, same event
//! accounting. The matrix covers every preset constructor × four apps ×
//! both arms × the three CI seeds, so interference, dirty telemetry,
//! network chaos, and a permanent core kill are all exercised.
//!
//! Every `clean/*` row must also complete and fast-forward at least one
//! window. Two property tests pin the engine's conservatism: a clean run
//! actually coalesces almost every LB window, and a mid-run disturbance
//! forces the fallback for exactly as long as the disturbance is
//! pending, with replay resuming once it drains.

use cloudlb_core::{par_map, try_run_scenario, BgPattern, Scenario};
use cloudlb_runtime::{FastForward, RunResult, RuntimeError};

const SEEDS: [u64; 3] = [1, 2, 3];
// Four LB windows: capture needs one, replay another, and the engine
// always runs the final window live — fewer than 40 iterations at the
// default period of 10 would leave nothing to macro-step.
const ITERS: usize = 40;

fn with_ff(mut scn: Scenario, ff: FastForward) -> Scenario {
    scn.fast_forward = ff;
    scn
}

/// Every preset constructor × app × arm × CI seed, with iterations
/// reduced so the whole matrix stays CI-sized.
fn preset_matrix() -> Vec<(String, Scenario)> {
    // Clean machine (the normalization base), with the arm's strategy
    // restored after `base_of` forces `nolb`: the presets below all keep
    // scheduled disturbances live in the queue for most of a short run,
    // so this row is where the replay path itself gets exercised.
    fn clean(app: &str, cores: usize, strategy: &str) -> Scenario {
        let mut scn = Scenario::paper(app, cores, strategy).base_of();
        scn.strategy = strategy.to_string();
        scn
    }
    type Preset = (&'static str, fn(&str, usize, &str) -> Scenario, &'static str);
    let presets: [Preset; 5] = [
        ("clean", clean, "cloudrefine"),
        ("paper", Scenario::paper, "cloudrefine"),
        ("noisy_cloud", Scenario::noisy_cloud, "robustcloudrefine"),
        ("flaky_cloud", Scenario::flaky_cloud, "cloudrefine"),
        ("failure_drill", Scenario::failure_drill, "cloudrefine"),
    ];
    let mut out = Vec::new();
    for (name, make, lb_arm) in presets {
        for app in ["jacobi2d", "wave2d", "mol3d", "stencil3d"] {
            for arm in ["nolb", lb_arm] {
                for seed in SEEDS {
                    let mut scn = make(app, 8, arm);
                    scn.iterations = ITERS;
                    scn.seed = seed;
                    out.push((format!("{name}/{app}/{arm}/seed{seed}"), scn));
                }
            }
        }
    }
    out
}

fn run(scn: &Scenario) -> Result<RunResult, RuntimeError> {
    try_run_scenario(scn)
}

#[test]
fn fast_forward_is_bit_identical_across_every_preset() {
    let matrix = preset_matrix();
    let runs: Vec<Scenario> = matrix
        .iter()
        .flat_map(|(_, scn)| {
            [with_ff(scn.clone(), FastForward::On), with_ff(scn.clone(), FastForward::Off)]
        })
        .collect();
    let mut results = par_map(cloudlb_core::default_jobs(), runs, |scn| run(&scn)).into_iter();

    let mut replayed_anywhere = false;
    for (label, _) in &matrix {
        let (on_res, off_res) = (results.next().unwrap(), results.next().unwrap());
        // Nothing disturbs a clean row, so the fast path must engage on
        // every one of them, not merely somewhere in the matrix.
        let clean = label.starts_with("clean/");
        match (on_res, off_res) {
            (Ok(on), Ok(off)) => {
                replayed_anywhere |= on.ff_windows > 0;
                assert!(
                    !clean || on.ff_windows > 0,
                    "the clean row {label} never fast-forwarded"
                );
                assert_eq!(
                    off.ff_windows, 0,
                    "the off arm must never macro-step ({label})"
                );
                assert_eq!(
                    on.scrub_ff(),
                    off,
                    "fast-forward diverged from the event-by-event run for {label}"
                );
            }
            // A scenario that cannot complete must fail identically in
            // both modes (same error, not just "both failed").
            (Err(on), Err(off)) => {
                assert!(!clean, "the clean row {label} failed: {on}");
                assert_eq!(on, off, "error diverged for {label}");
            }
            (on, off) => panic!(
                "one arm failed and the other did not for {label}: on={on:?} off={off:?}"
            ),
        }
    }
    // Sanity: the matrix contained at least one scenario where the fast
    // path actually engaged, so the equality above covered real replays.
    assert!(replayed_anywhere, "no scenario in the matrix ever fast-forwarded");
}

#[test]
fn clean_runs_coalesce_almost_every_window() {
    // On a clean machine with a static mapping, every LB window after the
    // first (the capture) is identical, so at most a couple of windows at
    // the edges may run live.
    let mut scn = Scenario::paper("jacobi2d", 8, "nolb").base_of();
    scn.iterations = 80;
    scn.fast_forward = FastForward::On;
    let r = try_run_scenario(&scn).expect("clean run");
    let windows = scn.iterations / scn.lb_period;
    assert!(
        r.ff_windows >= windows - 3,
        "expected nearly all {windows} windows coalesced, got {}",
        r.ff_windows
    );
    assert!(r.events_skipped > 0);
}

#[test]
fn a_pending_disturbance_forces_fallback_until_it_drains() {
    // The window scan refuses to capture or replay while *any* scheduled
    // background event is still live in the queue, so a finite bg pulse
    // suppresses macro-stepping from t = 0 until the pulse fully drains —
    // and replay resumes afterwards. A longer pulse therefore strictly
    // shrinks the number of coalesced windows, and every variant stays
    // bit-identical to its event-by-event twin.
    let clean = {
        let mut s = Scenario::paper("wave2d", 8, "nolb").base_of();
        s.iterations = 80;
        s
    };
    let pulse = |demand_frac: f64| {
        let mut s = clean.clone();
        s.bg = BgPattern::TwoCore { demand_frac };
        s
    };

    let mut windows = Vec::new();
    for scn in [clean.clone(), pulse(0.15), pulse(0.5)] {
        let on = try_run_scenario(&with_ff(scn.clone(), FastForward::On)).unwrap();
        let off = try_run_scenario(&with_ff(scn, FastForward::Off)).unwrap();
        windows.push(on.ff_windows);
        assert_eq!(on.scrub_ff(), off, "disturbed run diverged");
    }
    let (clean_w, short_w, long_w) = (windows[0], windows[1], windows[2]);
    assert!(
        short_w < clean_w,
        "a pulse must cost at least one window (clean {clean_w}, short {short_w})"
    );
    assert!(
        short_w > 0,
        "replay must resume once the short pulse drains"
    );
    assert!(
        long_w < short_w,
        "a longer pulse must suppress more windows (short {short_w}, long {long_w})"
    );
}

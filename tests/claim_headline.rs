//! CLAIM-50: the paper's headline — "we were able to reduce the execution
//! time penalty and energy overhead by at least 50%" (§I), "reduce timing
//! penalty and energy consumption by more than 50% compared to the case
//! where there is no load balancing" (§VI).
//!
//! We assert the timing-penalty half of the claim at 8+ cores for all
//! three applications (4 cores sits at the capacity bound `P/(P−1)` where
//! the reduction is ~46 % — see EXPERIMENTS.md), and the energy direction
//! everywhere, with the ≥ 50 % energy reduction at Mol3D where the paper's
//! effect is strongest.

use cloudlb::prelude::*;

fn cell(app: &str, cores: usize) -> EvalPoint {
    // 100 iterations (the paper-scenario default): shorter horizons leave
    // the pre-first-LB transient dominating the mean and understate the
    // steady-state reduction.
    evaluate(app, cores, 100, "cloudrefine", &[1])
}

#[test]
fn timing_penalty_halved_for_all_apps_at_8_cores() {
    for app in ["jacobi2d", "wave2d", "mol3d"] {
        let p = cell(app, 8);
        assert!(
            p.penalty_reduction() >= 0.5,
            "{app}: reduction {:.2} (noLB {:.2} → LB {:.2})",
            p.penalty_reduction(),
            p.penalty_nolb,
            p.penalty_lb
        );
    }
}

#[test]
fn timing_penalty_halved_at_16_cores() {
    for app in ["jacobi2d", "mol3d"] {
        let p = cell(app, 16);
        assert!(
            p.penalty_reduction() >= 0.5,
            "{app}@16: reduction {:.2}",
            p.penalty_reduction()
        );
    }
}

#[test]
fn mol3d_nolb_penalty_reaches_the_papers_magnitude() {
    // Fig. 2(c): "the timing penalty for Mol3D for the noLB case was very
    // high (up to 400%)".
    let p = cell("mol3d", 8);
    assert!(p.penalty_nolb > 2.5, "Mol3D noLB penalty only {:.2}", p.penalty_nolb);
    // "our load balancing scheme reduces the timing penalty significantly"
    assert!(p.penalty_lb < 1.0, "Mol3D LB penalty {:.2}", p.penalty_lb);
}

#[test]
fn energy_overhead_always_improves_and_mol3d_halves_it() {
    for app in ["jacobi2d", "wave2d", "mol3d"] {
        let p = cell(app, 8);
        assert!(
            p.energy_overhead_lb < p.energy_overhead_nolb,
            "{app}: energy overhead LB {:.2} !< noLB {:.2}",
            p.energy_overhead_lb,
            p.energy_overhead_nolb
        );
        // Fig. 4 shape: balanced runs draw more power...
        assert!(p.power_lb_w > p.power_nolb_w, "{app}: power shape inverted");
        // ...and never exceed the machine's envelope.
        assert!(p.power_lb_w <= 170.0 + 1e-6);
        assert!(p.power_nolb_w >= 40.0 - 1e-6);
    }
    let m = cell("mol3d", 8);
    assert!(
        m.energy_reduction() >= 0.5,
        "Mol3D energy overhead reduction {:.2}",
        m.energy_reduction()
    );
}

#[test]
fn penalties_shrink_as_cores_grow() {
    // §V-A: "our load balancing scheme helps reducing the timing penalty
    // as we increase the number of cores for all applications."
    let p8 = cell("jacobi2d", 8);
    let p16 = cell("jacobi2d", 16);
    assert!(
        p16.penalty_lb <= p8.penalty_lb + 0.03,
        "LB penalty grew with cores: {:.3} @8 vs {:.3} @16",
        p8.penalty_lb,
        p16.penalty_lb
    );
}

#[test]
fn background_job_also_benefits_for_fair_shared_apps() {
    // §V-A: "Our scheme significantly reduces the timing penalty for the
    // background load ... in case of Jacobi2D and Wave2D."
    for app in ["jacobi2d", "wave2d"] {
        let p = cell(app, 8);
        assert!(
            p.bg_penalty_lb < p.bg_penalty_nolb,
            "{app}: BG penalty LB {:.2} !< noLB {:.2}",
            p.bg_penalty_lb,
            p.bg_penalty_nolb
        );
    }
}

/// Records where flat CloudRefine goes inert on the paper preset
/// (ROADMAP item 7): a core is light only if its slack exceeds
/// `ε = 0.05 · T_avg`, and the 2-core interferer's slack per clean core
/// falls below that near 40 cores. At 40 cores Jacobi2D still migrates;
/// at 48 flat CloudRefine commits nothing, while `hiercloudrefine` keeps
/// migrating and beats it on penalty. This pins today's behaviour so a
/// change to the light-core test shows up here; it is not a target.
#[test]
fn flat_cloudrefine_goes_inert_between_40_and_48_cores() {
    let run = |cores: usize, strategy: &str| {
        let mut scn = Scenario::paper("jacobi2d", cores, strategy);
        scn.iterations = 30;
        scn.seed = 1;
        let base = try_run_scenario(&scn.base_of()).expect("base run");
        let r = try_run_scenario(&scn).expect("interfered run");
        (r.migrations, r.timing_penalty_vs(&base))
    };
    let (flat40, _) = run(40, "cloudrefine");
    assert!(flat40 > 0, "flat CloudRefine should still migrate at 40 cores");
    let (flat48, flat48_penalty) = run(48, "cloudrefine");
    assert_eq!(flat48, 0, "flat CloudRefine should be inert at 48 cores");
    let (hier48, hier48_penalty) = run(48, "hiercloudrefine");
    assert!(hier48 > 0, "hiercloudrefine should still migrate at 48 cores");
    assert!(
        hier48_penalty < flat48_penalty,
        "hiercloudrefine penalty {hier48_penalty:.3} !< flat {flat48_penalty:.3} at 48 cores"
    );
}

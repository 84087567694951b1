//! SCALE — cloud-datacenter scale: 32k cores / 1M chares.
//!
//! Runs the paper's clean Jacobi2D setup blown up ×1000 — 32,768 cores,
//! 1,048,576 chares (32 per core) — with the fast-forward macro-stepper
//! pinned ON, under [`Scenario::scale`]. `CLOUDLB_FAST=1` shrinks the
//! cluster to 2,048 cores / 65,536 chares for smoke runs.
//!
//! Four hard gates, any of which **fails the bench (exit 1)**:
//! 1. chare conservation — every chare mapped, every home a valid core;
//! 2. bit-identical rerun of the gated flat-CloudRefine arm;
//! 3. `CLOUDLB_SCALE_BUDGET_S` wall-clock budget on that arm (unset = no
//!    budget);
//! 4. paper-scale quality parity — `hiercloudrefine` makespan within 5 %
//!    of flat CloudRefine on the paper's 8 × 4-core cluster across three
//!    seeds.
//!
//! A run that cannot complete is reported with its typed error and also
//! exits 1. The hierarchical arm runs at full scale too and prints its
//! wall time and makespan ratio against the flat arm (at scale the clean
//! run gives refinement little to do, so the ratio should sit at 1.0
//! within noise).

use cloudlb_apps::grids::{near_square_factors, Block2D};
use cloudlb_apps::Jacobi2D;
use cloudlb_bench::Settings;
use cloudlb_core::{try_run_scenario, Scenario};
use cloudlb_runtime::SimExecutor;
use std::time::Instant;

/// Over-decomposition factor of the scale run: 32 chares per core, twice
/// the paper default, so refinement still has fine granules at 32k cores.
const SCALE_ODF: usize = 32;

/// Points per block edge in the scale grid. Small blocks keep per-task
/// compute tiny; the event count — what the simulator actually pays for —
/// is set by the chare count, not the block size.
const SCALE_BLOCK: usize = 32;

/// Run the scale scenario and its gates; `Err` names the first failure.
fn scale_sweep(s: &Settings) -> Result<(), String> {
    let cores = if s.fast { 2_048 } else { 32_768 };
    let (cx, cy) = near_square_factors(SCALE_ODF * cores);
    let app = Jacobi2D::new(Block2D::new(cx * SCALE_BLOCK, cy * SCALE_BLOCK, cx, cy));
    let chares = app.grid.num_chares();
    let budget_s: Option<f64> = std::env::var("CLOUDLB_SCALE_BUDGET_S")
        .ok()
        .map(|v| v.parse().expect("CLOUDLB_SCALE_BUDGET_S: bad number"));
    let budget_str =
        budget_s.map_or_else(|| "none".to_string(), |b| format!("{b:.0}s"));
    println!(
        "({cores} cores, {chares} chares ({SCALE_ODF}/core), 30 iterations, \
         LB every 3, fast-forward ON, budget {budget_str})"
    );
    let run = |scn: &Scenario| {
        SimExecutor::new(&app, scn.run_config(), scn.bg_script(&app))
            .try_run()
            .map_err(|e| format!("{} run failed: {e}", scn.strategy))
    };

    // Gated arm: flat CloudRefine.
    let scn = Scenario::scale("jacobi2d", cores, "cloudrefine");
    let t0 = Instant::now();
    let flat = run(&scn)?;
    let wall_s = t0.elapsed().as_secs_f64();
    println!(
        "flat:  {wall_s:.2}s ({} events, {} windows replayed, {} pops skipped, \
         peak queue {})",
        flat.sim_events, flat.ff_windows, flat.events_skipped, flat.peak_queue_depth
    );

    // Gate 1: chare conservation — the placement covers every chare and
    // never points outside the cluster.
    if flat.final_mapping.len() != chares {
        return Err(format!(
            "conservation: final mapping covers {} of {chares} chares",
            flat.final_mapping.len()
        ));
    }
    if let Some(&bad) = flat.final_mapping.iter().find(|&&pe| pe >= cores) {
        return Err(format!("conservation: a chare landed on core {bad} of {cores}"));
    }
    if flat.iter_times.len() != scn.iterations {
        return Err(format!(
            "run completed {} of {} iterations",
            flat.iter_times.len(),
            scn.iterations
        ));
    }

    // Gate 2: determinism — the same scenario rerun must be bit-identical.
    if run(&scn)? != flat {
        return Err("rerun of the scale scenario diverged from the first run".to_string());
    }
    println!("rerun: bit-identical");

    // Gate 3: wall-clock budget on the gated arm.
    if let Some(budget) = budget_s {
        if wall_s > budget {
            return Err(format!(
                "budget: flat arm took {wall_s:.2}s, over the {budget:.0}s budget"
            ));
        }
    }

    // Informational at scale: the hierarchical arm.
    let hscn = Scenario::scale("jacobi2d", cores, "hiercloudrefine");
    let t1 = Instant::now();
    let hier = run(&hscn)?;
    let hier_wall_s = t1.elapsed().as_secs_f64();
    let hier_makespan_ratio = hier.app_time.as_secs_f64() / flat.app_time.as_secs_f64();
    println!("hier:  {hier_wall_s:.2}s (makespan ratio vs flat {hier_makespan_ratio:.4})");

    // Gate 4: quality parity at the paper's own scale (8 nodes × 4
    // cores, interference on), where refinement genuinely works.
    let parity_cores = 32;
    for seed in [1, 2, 3] {
        let run_arm = |strategy: &str| {
            let mut scn = Scenario::paper("jacobi2d", parity_cores, strategy);
            scn.seed = seed;
            try_run_scenario(&scn).map_err(|e| {
                format!("parity: {strategy} at {parity_cores} cores, seed {seed} failed: {e}")
            })
        };
        let f = run_arm("cloudrefine")?;
        let h = run_arm("hiercloudrefine")?;
        let ratio = h.app_time.as_secs_f64() / f.app_time.as_secs_f64();
        println!("parity seed {seed}: hier/flat makespan {ratio:.4}");
        if ratio > 1.05 {
            return Err(format!(
                "parity: hiercloudrefine makespan is {:.1}% of flat CloudRefine \
                 at {parity_cores} cores, seed {seed} (allowed 105%)",
                ratio * 100.0
            ));
        }
    }
    Ok(())
}

fn main() {
    let s = Settings::from_env();
    cloudlb_bench::header("Scale — 32k cores / 1M chares");
    if let Err(e) = scale_sweep(&s) {
        eprintln!("SCALE GATE FAILED: {e}");
        std::process::exit(1);
    }
    println!("SCALE OK");
}

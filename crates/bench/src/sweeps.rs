//! The perf sweeps behind `BENCH_*.json`, shared by the `harness = false`
//! bench targets and the `cloudlb-bench` baseline-refresh binary.

use crate::baseline::{PipelineRecord, ScaleRecord, SweepRecord};
use crate::Settings;
use cloudlb_apps::grids::{near_square_factors, Block2D};
use cloudlb_apps::Jacobi2D;
use cloudlb_core::{
    evaluate_cells, evaluate_cells_stream, par_map, pipeline_stream, run_scenario, CellSpec,
    PipelineConfig, Scenario,
};
use cloudlb_runtime::{FastForward, RunResult, SimExecutor};
use std::time::Instant;

/// The paper-sweep throughput baseline (`BENCH_fast.json` /
/// `BENCH_sweep.json`): the full Fig. 2 / Fig. 4 matrix through the
/// parallel sweep engine, fast-forward pinned OFF so the record measures
/// the raw event-by-event engine, plus the informational flaky-network
/// probe. Prints progress; returns the record to serialize.
pub fn perf_sweep(s: &Settings) -> SweepRecord {
    let name = if s.fast { "fast" } else { "sweep" };
    println!(
        "(cores {:?}, {} iterations, seeds {:?}, jobs {})",
        s.cores, s.iterations, s.seeds, s.jobs
    );

    // Fast-forward is pinned OFF: this baseline measures the raw
    // event-by-event engine, and the macro-stepper has its own dedicated
    // baseline (`BENCH_fastforward.json`, see [`fastforward_sweep`]).
    let cells: Vec<CellSpec> = ["jacobi2d", "wave2d", "mol3d"]
        .iter()
        .flat_map(|app| {
            s.cores.iter().map(move |&c| {
                let mut cell = CellSpec::paper(app, c, s.iterations, "cloudrefine");
                cell.fast_forward = FastForward::Off;
                cell
            })
        })
        .collect();
    let runs = cells.len() * s.seeds.len() * 3;

    let t0 = Instant::now();
    let points = evaluate_cells(&cells, &s.seeds, s.jobs);
    let wall_s = t0.elapsed().as_secs_f64();

    let sim_events: u64 = points.iter().map(|p| p.sim_events).sum();
    let peak_queue_depth = points.iter().map(|p| p.peak_queue_depth).max().unwrap_or(0);
    let events_per_sec = sim_events as f64 / wall_s;
    println!(
        "{} runs in {:.2}s — {:.0} events/s ({} events, peak queue depth {})",
        runs, wall_s, events_per_sec, sim_events, peak_queue_depth
    );

    // Informational flaky-network probe: the same apps under the
    // `flaky_cloud` degradation model, at the largest core count. Chaos
    // runs are legitimately slower (retries, partitions), so this arm is
    // recorded but never gated — the regression gate stays on the clean
    // sweep, proving the chaos layer is free when disabled.
    let probe_cores = s.cores.iter().copied().max().unwrap_or(8);
    let probe: Vec<Scenario> = ["jacobi2d", "wave2d", "mol3d"]
        .iter()
        .flat_map(|app| {
            s.seeds.iter().map(move |&seed| {
                let mut scn = Scenario::flaky_cloud(app, probe_cores, "cloudrefine");
                scn.iterations = s.iterations;
                scn.seed = seed;
                scn
            })
        })
        .collect();
    let probe_runs = probe.len();
    let t1 = Instant::now();
    let results = par_map(s.jobs, probe, |scn| run_scenario(&scn));
    let flaky_wall_s = t1.elapsed().as_secs_f64();
    let flaky_events: u64 = results.iter().map(|r| r.sim_events).sum();
    let flaky_events_per_sec = flaky_events as f64 / flaky_wall_s;
    let retries: u64 = results.iter().map(|r| r.net.migration_retries).sum();
    let aborts: u64 = results.iter().map(|r| r.net.migration_aborts).sum();
    println!(
        "flaky probe: {} runs in {:.2}s — {:.0} events/s \
         ({} migration retries, {} aborts; informational, not gated)",
        probe_runs, flaky_wall_s, flaky_events_per_sec, retries, aborts
    );

    // Informational spot-storm probe: the same apps under the elastic
    // `spot_storm` preset (acquire, then revoke both original nodes with
    // lead time). Evacuation churn is legitimately slower, so like the
    // flaky arm this is recorded but never gated — the regression gate
    // stays on the clean sweep, proving the membership layer is free when
    // disabled.
    let storm: Vec<Scenario> = ["jacobi2d", "wave2d", "mol3d"]
        .iter()
        .flat_map(|app| {
            s.seeds.iter().map(move |&seed| {
                let mut scn = Scenario::spot_storm(app, probe_cores, "cloudrefine");
                scn.iterations = s.iterations;
                scn.seed = seed;
                scn
            })
        })
        .collect();
    let storm_runs = storm.len();
    let t2 = Instant::now();
    let results = par_map(s.jobs, storm, |scn| run_scenario(&scn));
    let storm_wall_s = t2.elapsed().as_secs_f64();
    let storm_events: u64 = results.iter().map(|r| r.sim_events).sum();
    let storm_events_per_sec = storm_events as f64 / storm_wall_s;
    let drained: usize = results.iter().map(|r| r.elastic.chares_drained).sum();
    let rolled_back: usize = results.iter().map(|r| r.elastic.chares_rolled_back).sum();
    println!(
        "spot-storm probe: {} runs in {:.2}s — {:.0} events/s \
         ({} chares drained, {} rolled back; informational, not gated)",
        storm_runs, storm_wall_s, storm_events_per_sec, drained, rolled_back
    );

    SweepRecord {
        name: name.to_string(),
        fast: s.fast,
        jobs: s.jobs,
        cores: s.cores.clone(),
        seeds: s.seeds.clone(),
        iterations: s.iterations,
        runs,
        wall_s,
        sim_events,
        events_per_sec,
        peak_queue_depth,
        flaky_wall_s,
        flaky_events_per_sec,
        storm_wall_s,
        storm_events_per_sec,
        ff_windows: points.iter().map(|p| p.ff_windows).sum(),
        events_skipped: points.iter().map(|p| p.events_skipped).sum(),
        // No fast-forward comparison arm in this sweep (it pins the
        // engine off): the off-arm fields are genuinely absent, not 0.
        off_wall_s: None,
        off_events_per_sec: None,
        speedup: None,
    }
}

/// The clean long-run sweep behind `BENCH_fastforward.json`: every app on
/// every core count, both a settled `nolb` arm and a `cloudrefine` arm,
/// no interference.
fn ff_scenarios(s: &Settings, iterations: usize, ff: FastForward) -> Vec<Scenario> {
    let mut out = Vec::new();
    for app in ["jacobi2d", "wave2d", "mol3d", "stencil3d"] {
        for &cores in &s.cores {
            for strategy in ["nolb", "cloudrefine"] {
                for &seed in &s.seeds {
                    let mut scn = Scenario::paper(app, cores, strategy).base_of();
                    scn.strategy = strategy.to_string();
                    scn.iterations = iterations;
                    scn.seed = seed;
                    scn.fast_forward = ff;
                    out.push(scn);
                }
            }
        }
    }
    out
}

fn ff_run(s: &Settings, iterations: usize, ff: FastForward) -> (Vec<RunResult>, f64) {
    let t0 = Instant::now();
    let results = par_map(s.jobs, ff_scenarios(s, iterations, ff), |scn| run_scenario(&scn));
    (results, t0.elapsed().as_secs_f64())
}

/// Differential check + throughput for the fast-forward engine: run the
/// clean long sweep with the macro-stepper OFF and ON, compare every
/// `RunResult` bit for bit (after scrubbing the two observability
/// counters), and return the record for `BENCH_fastforward.json`.
/// `Err` lists the diverging runs — callers exit non-zero on it.
pub fn fastforward_sweep(s: &Settings) -> Result<SweepRecord, String> {
    // Long horizons amortize the one live capture window per template.
    let iterations = if s.fast { 300 } else { 1000 };
    println!(
        "(cores {:?}, {} iterations, seeds {:?}, jobs {}, clean network)",
        s.cores, iterations, s.seeds, s.jobs
    );

    let (off, off_wall_s) = ff_run(s, iterations, FastForward::Off);
    let (on, wall_s) = ff_run(s, iterations, FastForward::On);
    let runs = on.len();

    // Aggregate the ON arm before the differential check consumes it.
    let sim_events: u64 = on.iter().map(|r| r.sim_events).sum();
    let ff_windows: usize = on.iter().map(|r| r.ff_windows).sum();
    let events_skipped: u64 = on.iter().map(|r| r.events_skipped).sum();
    let peak_queue_depth = on.iter().map(|r| r.peak_queue_depth).max().unwrap_or(0);

    // Hard gate: bit-identical physics, run by run.
    let mut divergent = Vec::new();
    for (i, (scn, (a, b))) in ff_scenarios(s, iterations, FastForward::On)
        .iter()
        .zip(on.into_iter().zip(off))
        .enumerate()
    {
        assert!(a.ff_windows > 0, "run {i} ({}/{}) never fast-forwarded", scn.app, scn.cores);
        if a.scrub_ff() != b {
            divergent.push(format!(
                "run {i}: {} on {} cores, strategy {}, seed {}",
                scn.app, scn.cores, scn.strategy, scn.seed
            ));
        }
    }
    if !divergent.is_empty() {
        return Err(format!(
            "{}/{runs} runs diverged between fast-forward on and off:\n{}",
            divergent.len(),
            divergent.join("\n")
        ));
    }
    println!("differential check: {runs}/{runs} runs bit-identical across modes");

    // Throughput. `sim_events` counts skipped pops too, so the two modes
    // share a numerator and the wall-clock ratio is the whole story.
    let events_per_sec = sim_events as f64 / wall_s;
    let off_events_per_sec = sim_events as f64 / off_wall_s;
    let speedup = events_per_sec / off_events_per_sec;
    println!(
        "on:  {runs} runs in {wall_s:.2}s — {events_per_sec:.0} events/s \
         ({ff_windows} windows replayed, {events_skipped} of {sim_events} pops skipped)"
    );
    println!("off: {runs} runs in {off_wall_s:.2}s — {off_events_per_sec:.0} events/s");
    println!("speedup: {speedup:.2}x");

    Ok(SweepRecord {
        name: "fastforward".to_string(),
        fast: s.fast,
        jobs: s.jobs,
        cores: s.cores.clone(),
        seeds: s.seeds.clone(),
        iterations,
        runs,
        wall_s,
        sim_events,
        events_per_sec,
        peak_queue_depth,
        flaky_wall_s: 0.0,
        flaky_events_per_sec: 0.0,
        storm_wall_s: 0.0,
        storm_events_per_sec: 0.0,
        ff_windows,
        events_skipped,
        off_wall_s: Some(off_wall_s),
        off_events_per_sec: Some(off_events_per_sec),
        speedup: Some(speedup),
    })
}

/// The streaming-pipeline bench behind `BENCH_pipeline.json`: throughput,
/// utilization and memory-bound telemetry for the sweep engine at its
/// default window ([`PipelineConfig::new`]). `Err` carries the first
/// failed gate — callers exit non-zero on it.
pub fn pipeline_sweep(s: &Settings) -> Result<PipelineRecord, String> {
    // The checked-in baseline was recorded at 4 workers, and at 1 the
    // pipeline short-circuits to a serial loop where the live-results
    // gate is vacuous, so the bench floors the pool size.
    let jobs = s.jobs.max(4);
    let cfg = PipelineConfig::new(jobs);
    let live_bound = cfg.window();
    println!(
        "(jobs {jobs}, live bound {live_bound}, {} iterations, seeds {:?})",
        s.iterations, s.seeds
    );

    // --- Uniform arm: the real cell matrix through the streaming engine.
    let cells: Vec<CellSpec> = ["jacobi2d", "wave2d", "mol3d"]
        .iter()
        .flat_map(|app| {
            s.cores.iter().map(move |&c| {
                let mut cell = CellSpec::paper(app, c, s.iterations, "cloudrefine");
                cell.fast_forward = FastForward::Off;
                cell
            })
        })
        .collect();
    let mut sim_events: u64 = 0;
    let mut points = 0usize;
    let stats = evaluate_cells_stream(&cells, &s.seeds, jobs, |_, p| {
        sim_events += p.sim_events;
        points += 1;
    });
    let events_per_sec = sim_events as f64 / stats.wall_s;
    let cells_per_sec = points as f64 / stats.wall_s;
    println!(
        "uniform: {} cells ({} runs) in {:.2}s — {:.0} events/s, {:.1} cells/s, \
         utilization {:.2}, reorder peak {}, live peak {} (bound {}), \
         {} injector claims, {} steals",
        points, stats.packets, stats.wall_s, events_per_sec, cells_per_sec,
        stats.utilization, stats.reorder_peak, stats.live_peak, live_bound,
        stats.injector_claims, stats.steals
    );
    if stats.live_peak > live_bound {
        return Err(format!(
            "memory bound: uniform arm held {} live results, over the bound {}",
            stats.live_peak, live_bound
        ));
    }

    // --- Flood arm: the memory bound under tens of thousands of packets.
    let flood_packets = 20_000usize;
    let mut checksum = 0u64;
    let flood_stats = pipeline_stream(
        &cfg,
        0..flood_packets as u64,
        |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13),
        |_, r| checksum = checksum.wrapping_add(r),
    );
    println!(
        "flood: {} packets in {:.2}s — {:.0} packets/s, live peak {} (bound {}), \
         reorder peak {} (checksum {checksum:#x})",
        flood_packets, flood_stats.wall_s, flood_stats.packets_per_sec,
        flood_stats.live_peak, live_bound, flood_stats.reorder_peak
    );
    if flood_stats.live_peak > live_bound {
        return Err(format!(
            "memory bound: flood arm held {} live results, over the bound {} \
             ({} packets)",
            flood_stats.live_peak, live_bound, flood_packets
        ));
    }

    Ok(PipelineRecord {
        name: "pipeline".to_string(),
        fast: s.fast,
        jobs,
        seeds: s.seeds.clone(),
        iterations: s.iterations,
        cells: points,
        wall_s: stats.wall_s,
        sim_events,
        events_per_sec,
        cells_per_sec,
        utilization: stats.utilization,
        reorder_peak: stats.reorder_peak,
        live_peak: stats.live_peak,
        live_bound,
        injector_claims: stats.injector_claims,
        steals: stats.steals,
        flood_packets,
        flood_live_peak: flood_stats.live_peak,
        flood_reorder_peak: flood_stats.reorder_peak,
        flood_packets_per_sec: flood_stats.packets_per_sec,
    })
}

/// Over-decomposition factor of the scale run: 32 chares per core, twice
/// the paper default, so refinement still has fine granules at 32k cores.
const SCALE_ODF: usize = 32;

/// Points per block edge in the scale grid. Small blocks keep per-task
/// compute tiny; the event count — what the simulator actually pays for —
/// is set by the chare count, not the block size.
const SCALE_BLOCK: usize = 32;

/// The paper's setup blown up to cloud-datacenter size, behind
/// `BENCH_scale.json`: a clean Jacobi2D run over 32,768 cores and
/// 1,048,576 chares (`CLOUDLB_FAST`: 2,048 cores / 65,536 chares) with
/// fast-forward pinned ON, under [`Scenario::scale`].
///
/// Four hard gates, any of which fails the bench:
/// 1. chare conservation — every chare mapped, every home a valid core;
/// 2. bit-identical rerun of the gated flat-CloudRefine arm;
/// 3. `CLOUDLB_SCALE_BUDGET_S` wall-clock budget on that arm (unset = no
///    budget);
/// 4. paper-scale quality parity — `hiercloudrefine` makespan within 5 %
///    of flat CloudRefine on the paper's 8 × 4-core cluster across three
///    seeds.
///
/// The hierarchical arm also runs at full scale (informational wall/
/// events, plus its makespan ratio against the flat arm — at scale the
/// clean run gives refinement little to do, so the ratio should sit at
/// 1.0 within noise).
pub fn scale_sweep(s: &Settings) -> Result<ScaleRecord, String> {
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

    // Gated arm: flat CloudRefine.
    let scn = Scenario::scale("jacobi2d", cores, "cloudrefine");
    let t0 = Instant::now();
    let flat = SimExecutor::new(&app, scn.run_config(), scn.bg_script(&app)).run();
    let wall_s = t0.elapsed().as_secs_f64();
    let events_per_sec = flat.sim_events as f64 / wall_s;
    println!(
        "flat:  {wall_s:.2}s — {events_per_sec:.0} events/s ({} events, \
         {} windows replayed, {} pops skipped, peak queue {})",
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
    let rerun = SimExecutor::new(&app, scn.run_config(), scn.bg_script(&app)).run();
    if rerun != flat {
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
    let hier = SimExecutor::new(&app, hscn.run_config(), hscn.bg_script(&app)).run();
    let hier_wall_s = t1.elapsed().as_secs_f64();
    let hier_events_per_sec = hier.sim_events as f64 / hier_wall_s;
    let hier_makespan_ratio = hier.app_time.as_secs_f64() / flat.app_time.as_secs_f64();
    println!(
        "hier:  {hier_wall_s:.2}s — {hier_events_per_sec:.0} events/s \
         (makespan ratio vs flat {hier_makespan_ratio:.4})"
    );

    // Gate 4: quality parity at the paper's own scale (8 nodes × 4
    // cores, interference on), where refinement genuinely works.
    let parity_cores = 32;
    let parity_seeds: Vec<u64> = vec![1, 2, 3];
    let mut parity_worst_ratio = 0.0f64;
    for &seed in &parity_seeds {
        let run_arm = |strategy: &str| {
            let mut scn = Scenario::paper("jacobi2d", parity_cores, strategy);
            scn.seed = seed;
            run_scenario(&scn)
        };
        let f = run_arm("cloudrefine");
        let h = run_arm("hiercloudrefine");
        let ratio = h.app_time.as_secs_f64() / f.app_time.as_secs_f64();
        println!("parity seed {seed}: hier/flat makespan {ratio:.4}");
        parity_worst_ratio = parity_worst_ratio.max(ratio);
        if ratio > 1.05 {
            return Err(format!(
                "parity: hiercloudrefine makespan is {:.1}% of flat CloudRefine \
                 at {parity_cores} cores, seed {seed} (allowed 105%)",
                ratio * 100.0
            ));
        }
    }

    Ok(ScaleRecord {
        name: "scale".to_string(),
        fast: s.fast,
        cores,
        chares,
        chares_per_core: SCALE_ODF,
        iterations: scn.iterations,
        lb_period: scn.lb_period,
        wall_s,
        sim_events: flat.sim_events,
        events_per_sec,
        peak_queue_depth: flat.peak_queue_depth,
        ff_windows: flat.ff_windows,
        events_skipped: flat.events_skipped,
        rerun_identical: true,
        hier_wall_s,
        hier_events_per_sec,
        hier_makespan_ratio,
        parity_cores,
        parity_seeds,
        parity_worst_ratio,
        budget_s,
    })
}

//! One pass of a workload: every scenario run once, results checked and
//! digested, with host time measured around the whole pass (plain) or
//! additionally at each layer boundary (traced).

use crate::digest::{error_digest, run_digest, Digest, Fnv, PointMeans};
use crate::host::process_cpu_s;
use crate::probe::{run_plain, run_traced, RunProbe};
use crate::workloads::{matrix_cells, matrix_seeds, Workload, SWEEP_JOBS};
use cloudlb_core::{evaluate_cells, pipeline_stream, CellSpec, PipelineConfig, Scenario};
use cloudlb_runtime::RunResult;
use cloudlb_sim::stats::mean;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Engine and physics counters summed over a pass. They repeat exactly
/// from pass to pass, so they double as a determinism check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub sim_events: u64,
    pub events_skipped: u64,
    pub ff_windows: u64,
    pub lb_steps: u64,
    pub migrations: u64,
    pub migration_bytes: u64,
    pub retransmits: u64,
    pub migration_retries: u64,
    pub migration_aborts: u64,
    pub recoveries: u64,
    pub replayed_iters: u64,
    pub chares_drained: u64,
    pub peak_queue_depth: u64,
}

impl Counts {
    fn add_run(&mut self, r: &RunResult) {
        self.sim_events += r.sim_events;
        self.events_skipped += r.events_skipped;
        self.ff_windows += r.ff_windows as u64;
        self.lb_steps += r.lb_steps as u64;
        self.migrations += r.migrations as u64;
        self.migration_bytes += r.migration_bytes;
        self.retransmits += r.net.retransmits;
        self.migration_retries += r.net.migration_retries;
        self.migration_aborts += r.net.migration_aborts;
        self.recoveries += r.recoveries as u64;
        self.replayed_iters += r.replayed_iters as u64;
        self.chares_drained += r.elastic.chares_drained as u64;
        self.peak_queue_depth = self.peak_queue_depth.max(r.peak_queue_depth as u64);
    }

    /// Events the engine executed one by one (replayed ones excluded).
    pub fn events_executed(&self) -> u64 {
        self.sim_events - self.events_skipped
    }

    /// The counts both a plain `evaluate_cells` pass (which sees only
    /// `EvalPoint`s) and a traced pass can observe.
    pub fn shared(&self) -> [u64; 4] {
        [
            self.events_executed(),
            self.ff_windows,
            self.migrations,
            self.peak_queue_depth,
        ]
    }
}

/// Host time at each layer boundary of a traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    /// Worker threads (1 = serial loop).
    pub jobs: usize,
    /// Per-run set-up (`Scenario` → `SimExecutor`), summed.
    pub setup_s: f64,
    /// `try_run_with_strategy`, summed (plan calls included).
    pub exec_s: f64,
    /// Time inside the balancer's `plan`, summed.
    pub plan_s: f64,
    /// Per-run closure time (set-up + run), summed.
    pub busy_s: f64,
    /// Reducer callback time, summed.
    pub reduce_s: f64,
    /// Per-run closure time of each run.
    pub run_s: Vec<f64>,
    /// Host microseconds of each `plan` call.
    pub plan_us: Vec<f64>,
    pub plan_tasks: u64,
    pub plan_moves: u64,
    /// `PipelineStats` of the sweep (`None` on serial workloads).
    pub pipeline: Option<cloudlb_core::PipelineStats>,
}

impl Layers {
    fn add(&mut self, probe: &RunProbe, run_s: f64) {
        self.setup_s += probe.setup_s;
        self.exec_s += probe.exec_s;
        self.busy_s += run_s;
        self.run_s.push(run_s);
        for &ns in &probe.plans.plan_ns {
            self.plan_s += ns as f64 * 1e-9;
            self.plan_us.push(ns as f64 * 1e-3);
        }
        self.plan_tasks += probe.plans.tasks;
        self.plan_moves += probe.plans.moves;
    }

    /// Executor time outside the balancer.
    pub fn self_s(&self) -> f64 {
        self.exec_s - self.plan_s
    }

    pub fn live_peak(&self) -> usize {
        self.pipeline.as_ref().map_or(1, |p| p.live_peak)
    }

    pub fn reorder_peak(&self) -> usize {
        self.pipeline.as_ref().map_or(0, |p| p.reorder_peak)
    }
}

/// The outcome of one pass.
#[derive(Debug)]
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub digest: Digest,
    pub counts: Counts,
    /// Runs attempted.
    pub runs: usize,
    /// Runs that returned `Err`, panicked or broke an invariant.
    pub errors: usize,
    /// First few error messages.
    pub notes: Vec<String>,
    /// Layer timings (traced passes only).
    pub layers: Option<Layers>,
}

/// Accumulates run results in run order.
#[derive(Default)]
struct Fold {
    runs: Fnv,
    counts: Counts,
    n: usize,
    errors: usize,
    notes: Vec<String>,
}

impl Fold {
    fn push(&mut self, s: &Scenario, r: &Result<RunResult, String>) {
        self.n += 1;
        let problem = match r {
            Ok(r) => {
                self.runs.word(run_digest(r));
                self.counts.add_run(r);
                check_run(s, r).err()
            }
            Err(e) => {
                self.runs.word(error_digest(e));
                Some(e.clone())
            }
        };
        if let Some(msg) = problem {
            self.note(format!(
                "{} {} cores seed {}: {msg}",
                s.app, s.cores, s.seed
            ));
        }
    }

    fn note(&mut self, msg: String) {
        self.errors += 1;
        if self.notes.len() < 5 {
            self.notes.push(msg);
        }
    }
}

/// Oracle checks on a finished run: every iteration ran and every chare
/// sits on a core of the (grown) cluster.
fn check_run(s: &Scenario, r: &RunResult) -> Result<(), String> {
    if r.iter_times.len() != s.iterations {
        return Err(format!(
            "{} of {} iterations recorded",
            r.iter_times.len(),
            s.iterations
        ));
    }
    if r.app_time.as_secs_f64() <= 0.0 || !r.energy.energy_j.is_finite() {
        return Err(format!(
            "implausible run: {:?}, {} J",
            r.app_time, r.energy.energy_j
        ));
    }
    let cores = s.total_cores();
    if let Some(pe) = r.final_mapping.iter().find(|&&pe| pe >= cores) {
        return Err(format!(
            "chare mapped to core {pe} of a {cores}-core cluster"
        ));
    }
    Ok(())
}

/// One untraced pass, through the user-facing entry point of `workload`.
pub fn plain(workload: Workload, seed: u64, runs: &[Scenario]) -> Pass {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut fold = Fold::default();
    let mut digest = Digest::default();
    if workload == Workload::PaperMatrix {
        let cells = matrix_cells();
        let seeds = matrix_seeds(seed);
        fold.n = runs.len();
        match catch_unwind(AssertUnwindSafe(|| {
            evaluate_cells(&cells, &seeds, SWEEP_JOBS)
        })) {
            Ok(points) => {
                let mut h = Fnv::default();
                for p in &points {
                    h.word(PointMeans::of(p).digest());
                    fold.counts.sim_events += p.sim_events;
                    fold.counts.events_skipped += p.events_skipped;
                    fold.counts.ff_windows += p.ff_windows as u64;
                    // `migrations` is the LB arm's mean; the base and noLB
                    // arms never migrate.
                    fold.counts.migrations += (p.migrations * seeds.len() as f64).round() as u64;
                    fold.counts.peak_queue_depth =
                        fold.counts.peak_queue_depth.max(p.peak_queue_depth as u64);
                }
                digest.points = Some(h.finish());
            }
            Err(_) => {
                fold.errors = runs.len();
                fold.notes.push("evaluate_cells panicked".to_string());
            }
        }
    } else {
        for s in runs {
            let r = run_plain(s);
            fold.push(s, &r);
        }
        digest.runs = Some(fold.runs.finish());
    }
    finish(fold, digest, None, t0, cpu0)
}

/// One traced pass: the same runs with every layer boundary timed.
/// Paper-matrix goes through `pipeline_stream` with a timed per-run
/// closure and a timed reducer that re-folds the cell means.
pub fn traced(workload: Workload, runs: &[Scenario]) -> Pass {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut fold = Fold::default();
    let mut layers = Layers {
        jobs: workload.jobs(),
        ..Layers::default()
    };
    let mut digest = Digest::default();
    if workload == Workload::PaperMatrix {
        let cells = matrix_cells();
        let per_cell = runs.len() / cells.len();
        let mut cell_runs: Vec<RunResult> = Vec::with_capacity(per_cell);
        let mut cell_ok = true;
        let mut points = Fnv::default();
        let cfg = PipelineConfig::new(SWEEP_JOBS);
        let timed_run = |s: Scenario| {
            let t = Instant::now();
            let (r, probe) = run_traced(&s);
            (r, probe, t.elapsed().as_secs_f64())
        };
        let stats = pipeline_stream(&cfg, runs.iter().cloned(), timed_run, |seq, out| {
            let t = Instant::now();
            let (r, probe, run_s) = out;
            fold.push(&runs[seq], &r);
            layers.add(&probe, run_s);
            match r {
                Ok(r) => cell_runs.push(r),
                Err(_) => cell_ok = false,
            }
            if seq % per_cell == per_cell - 1 {
                if cell_ok {
                    points.word(eval_point(&cells[seq / per_cell], &cell_runs).digest());
                }
                cell_runs.clear();
                cell_ok = true;
            }
            layers.reduce_s += t.elapsed().as_secs_f64();
        });
        layers.pipeline = Some(stats);
        digest.points = (fold.errors == 0).then(|| points.finish());
    } else {
        for s in runs {
            let t = Instant::now();
            let (r, probe) = run_traced(s);
            let run_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            fold.push(s, &r);
            layers.add(&probe, run_s);
            layers.reduce_s += t.elapsed().as_secs_f64();
        }
    }
    digest.runs = Some(fold.runs.finish());
    finish(fold, digest, Some(layers), t0, cpu0)
}

fn finish(fold: Fold, digest: Digest, layers: Option<Layers>, t0: Instant, cpu0: f64) -> Pass {
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        digest,
        counts: fold.counts,
        runs: fold.n,
        errors: fold.errors,
        notes: fold.notes,
        layers,
    }
}

/// The paper's cell means ([`crate::digest::POINT_FIELDS`]) over
/// `[base, noLB, LB] × seed` runs, folded in
/// the order and with the arithmetic `evaluate_cells` uses, so the point
/// digests of a traced and a plain pass must agree bit for bit.
pub(crate) fn eval_point(cell: &CellSpec, runs: &[RunResult]) -> PointMeans {
    let mut v: [Vec<f64>; 11] = Default::default();
    for arm in runs.chunks_exact(3) {
        let (base, nolb, lb) = (&arm[0], &arm[1], &arm[2]);
        v[0].push(nolb.timing_penalty_vs(base));
        v[1].push(lb.timing_penalty_vs(base));
        if let Some(p) = nolb.bg_penalties.get(&0) {
            v[2].push(*p);
        }
        if let Some(p) = lb.bg_penalties.get(&0) {
            v[3].push(*p);
        }
        v[4].push(base.energy.avg_power_per_node_w);
        v[5].push(nolb.energy.avg_power_per_node_w);
        v[6].push(lb.energy.avg_power_per_node_w);
        v[7].push(nolb.energy_overhead_vs(base));
        v[8].push(lb.energy_overhead_vs(base));
        v[9].push(lb.migrations as f64);
        v[10].push(lb.lb_steps as f64);
    }
    PointMeans {
        app: cell.app.clone(),
        cores: cell.cores,
        means: std::array::from_fn(|i| mean(&v[i])),
    }
}

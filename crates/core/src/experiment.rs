//! Experiment execution: base / noLB / LB triples, seed averaging, and
//! the paper's metrics.
//!
//! For each `(application, core count)` cell the paper reports:
//! * **timing penalty** of the parallel job, with and without LB, as a
//!   percentage of the interference-free run (Fig. 2);
//! * **timing penalty of the background job** under both regimes (Fig. 2);
//! * **average power** per node and **energy overhead** normalized to the
//!   interference-free run (Fig. 4).
//!
//! `evaluate` reproduces one cell by running the three scenarios over a
//! set of seeds and averaging — the paper averages three repeated runs.
//! [`report_scenario`] measures one arbitrary scenario the same way
//! (against its base) and prices each active chaos layer against a twin
//! without it.
//!
//! # Parallel sweeps
//!
//! Every `(app, cores, arm, seed)` run is an independent deterministic
//! simulation, so [`evaluate_cells`] streams whole matrices through the
//! [`crate::pipeline`] work-stealing pipeline as sequence-numbered
//! packets. Results come back in submission order and are reduced with
//! exactly the serial code's fold, so averaged [`EvalPoint`]s are
//! bit-identical for any worker count (see `tests/parallel_sweep.rs`
//! and `tests/pipeline_stream.rs`); [`evaluate_cells_stream`] exposes
//! the same sweep with O(jobs) peak live runs for studies too large to
//! materialize.

use crate::pipeline::{default_jobs, pipeline_stream, PipelineConfig, PipelineStats};
use crate::scenario::Scenario;
use cloudlb_runtime::{FastForward, RunResult, RuntimeError, SimExecutor};
use cloudlb_sim::stats::mean;
use serde::{Deserialize, Serialize};

/// Execute a single scenario. Panics if an injected failure turns out
/// unrecoverable; use [`try_run_scenario`] for failure experiments.
pub fn run_scenario(s: &Scenario) -> RunResult {
    try_run_scenario(s).unwrap_or_else(|e| panic!("scenario failed: {e}"))
}

/// Execute a single scenario, reporting unrecoverable injected failures
/// as typed errors.
pub fn try_run_scenario(s: &Scenario) -> Result<RunResult, RuntimeError> {
    s.validate().map_err(RuntimeError::InvalidConfig)?;
    let app = s.build_app();
    let bg = s.bg_script(app.as_ref());
    let fail = s.fail_script(app.as_ref());
    let mut exec = SimExecutor::new(app.as_ref(), s.run_config(), bg).with_failures(fail);
    if let Some(spec) = s.telemetry {
        exec = exec.with_telemetry(spec);
    }
    if let Some(spec) = &s.net_fault {
        exec = exec.with_net_faults(spec.clone());
    }
    let membership = s.membership_script(app.as_ref());
    if !membership.is_empty() {
        exec = exec.with_membership(membership);
    }
    exec.try_run()
}

/// Everything `cloudlb run` reports about one scenario, from the runs
/// [`report_scenario`] made: the scenario itself, its paper metrics
/// against the interference-free base, and one impact per active chaos
/// layer, each priced against a twin without that layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Application makespan of the interference-free base run (s).
    pub base_s: f64,
    /// Application makespan of the scenario run (s).
    pub app_s: f64,
    /// `(T_run − T_base) / T_base` (fraction).
    pub timing_penalty: f64,
    /// Energy overhead of the run vs the base (fraction).
    pub energy_overhead: f64,
    /// Average power per node over the run (W).
    pub power_per_node_w: f64,
    /// Migrations committed.
    pub migrations: usize,
    /// LB steps taken.
    pub lb_steps: usize,
    /// Steady-state LB windows the run macro-stepped.
    pub ff_windows: usize,
    /// Event pops those windows skipped.
    pub events_skipped: u64,
    /// Failure layer vs a failure-free twin (`fail` non-empty).
    pub failures: Option<FailureImpact>,
    /// Telemetry layer vs a clean-telemetry twin.
    pub telemetry: Option<TelemetryImpact>,
    /// Network layer vs a clean-network twin.
    pub network: Option<NetworkImpact>,
    /// Membership layer vs a static-cluster twin.
    pub membership: Option<ElasticityImpact>,
}

/// Run `s` with its base and one clean twin per active chaos layer, all
/// through [`try_run_scenario`], and gather the metrics into one
/// [`ScenarioReport`]. The scenario is validated before anything runs.
pub fn report_scenario(s: &Scenario) -> Result<ScenarioReport, RuntimeError> {
    s.validate().map_err(RuntimeError::InvalidConfig)?;
    let base = try_run_scenario(&s.base_of())?;
    let run = try_run_scenario(s)?;
    // The twin of `s` with one layer switched off, run only when that
    // layer is active.
    let twin = |active: bool, strip: fn(&mut Scenario)| {
        if !active {
            return Ok(None);
        }
        let mut clean = s.clone();
        strip(&mut clean);
        try_run_scenario(&clean).map(Some)
    };
    let failures = twin(!s.fail.is_empty(), |c| c.fail.clear())?
        .map(|clean| failure_impact(&run, &clean));
    let telemetry = twin(s.telemetry.is_some_and(|t| t.is_active()), |c| c.telemetry = None)?
        .map(|clean| telemetry_impact(&run, &clean));
    let network = twin(s.net_fault.as_ref().is_some_and(|n| n.is_active()), |c| {
        c.net_fault = None
    })?
    .map(|clean| network_impact(&run, &clean));
    let membership = twin(s.membership.as_ref().is_some_and(|m| m.is_active()), |c| {
        c.membership = None
    })?
    .map(|clean| elasticity_impact(&run, &clean, s));
    Ok(ScenarioReport {
        scenario: s.clone(),
        base_s: base.app_time.as_secs_f64(),
        app_s: run.app_time.as_secs_f64(),
        timing_penalty: run.timing_penalty_vs(&base),
        energy_overhead: run.energy_overhead_vs(&base),
        power_per_node_w: run.energy.avg_power_per_node_w,
        migrations: run.migrations,
        lb_steps: run.lb_steps,
        ff_windows: run.ff_windows,
        events_skipped: run.events_skipped,
        failures,
        telemetry,
        network,
        membership,
    })
}

/// The cost of dirty counters: a telemetry-corrupted run compared against
/// the same scenario over clean telemetry, plus the validation and
/// decision counters that explain where the damage went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryImpact {
    /// Cores-per-window whose raw Eq. 2 value went negative.
    pub clamped_op: usize,
    /// Windows that read stale/dropped counters.
    pub missing_samples: usize,
    /// `Σ t_i > T_lb` violations.
    pub task_overrun: usize,
    /// `t_idle > T_lb` violations.
    pub implausible_idle: usize,
    /// Migrations suppressed by the hysteresis noise-floor gate.
    pub suppressed: usize,
    /// A→B→A oscillations damped.
    pub oscillations: usize,
    /// `O_p` outliers rejected by the robust estimator.
    pub outliers_rejected: usize,
    /// Migrations actually committed.
    pub migrations: usize,
    /// Wall-time penalty of the corruption:
    /// `(T_noisy − T_clean) / T_clean`.
    pub noise_penalty: f64,
}

/// Compare a telemetry-corrupted run against its clean-telemetry twin.
pub fn telemetry_impact(noisy: &RunResult, clean: &RunResult) -> TelemetryImpact {
    TelemetryImpact {
        clamped_op: noisy.telemetry.clamped_op,
        missing_samples: noisy.telemetry.missing_samples,
        task_overrun: noisy.telemetry.task_overrun,
        implausible_idle: noisy.telemetry.implausible_idle,
        suppressed: noisy.decisions.suppressed,
        oscillations: noisy.decisions.oscillations,
        outliers_rejected: noisy.decisions.outliers_rejected,
        migrations: noisy.migrations,
        noise_penalty: noisy.timing_penalty_vs(clean),
    }
}

/// The cost of a degraded interconnect: a network-chaos run compared
/// against the same scenario over a clean network, plus the damage
/// counters that explain where the time went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkImpact {
    /// Message copies destroyed by loss or partitions.
    pub lost_copies: u64,
    /// Ghost retransmissions forced by the reliable transport.
    pub retransmits: u64,
    /// Duplicate deliveries suppressed by sequence numbering.
    pub duplicates_dropped: u64,
    /// Migration data/ACK re-sends beyond the first attempt.
    pub migration_retries: u64,
    /// Migrations aborted on deadline/attempt exhaustion (the chare stayed
    /// on its source core and was re-planned at a later LB step).
    pub migration_aborts: u64,
    /// Scheduled partition time summed over windows, in seconds.
    pub partition_s: f64,
    /// Migrations actually committed.
    pub migrations: usize,
    /// Wall-time penalty of the chaos: `(T_flaky − T_clean) / T_clean`.
    pub net_penalty: f64,
}

/// Compare a network-chaos run against its clean-network twin.
pub fn network_impact(flaky: &RunResult, clean: &RunResult) -> NetworkImpact {
    NetworkImpact {
        lost_copies: flaky.net.lost_copies,
        retransmits: flaky.net.retransmits,
        duplicates_dropped: flaky.net.duplicates_dropped,
        migration_retries: flaky.net.migration_retries,
        migration_aborts: flaky.net.migration_aborts,
        partition_s: flaky.net.partition_us as f64 / 1e6,
        migrations: flaky.migrations,
        net_penalty: flaky.timing_penalty_vs(clean),
    }
}

/// The cost of surviving failures: a failure-injected run compared against
/// the same scenario without its failure schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureImpact {
    /// Cores killed during the run.
    pub failures: usize,
    /// Rollback/replay cycles completed.
    pub recoveries: usize,
    /// Chare-iterations re-executed during replay.
    pub replayed_iters: usize,
    /// Seconds spent in detection, restore and re-balancing pauses.
    pub recovery_time_s: f64,
    /// Wall-time penalty of the failures: `(T_fail − T_clean) / T_clean`.
    pub failure_penalty: f64,
}

/// Compare a failure-injected run against its failure-free twin.
pub fn failure_impact(failed: &RunResult, clean: &RunResult) -> FailureImpact {
    FailureImpact {
        failures: failed.failures,
        recoveries: failed.recoveries,
        replayed_iters: failed.replayed_iters,
        recovery_time_s: failed.recovery_time.as_secs_f64(),
        failure_penalty: failed.timing_penalty_vs(clean),
    }
}

/// The cost of elastic membership churn: an elastic run compared against a
/// *capacity-tracking* clean twin — a hypothetical run doing the measured
/// clean twin's work at a throughput that follows the scenario's capacity
/// trajectory — so losing half the machine for the tail of the run is
/// priced as capacity, not blamed on the evacuation machinery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticityImpact {
    /// Preemption notices delivered.
    pub notices: usize,
    /// Nodes hard-revoked.
    pub nodes_revoked: usize,
    /// Nodes acquired mid-run.
    pub acquisitions: usize,
    /// Acquired nodes that completed warm-up.
    pub warmups: usize,
    /// Node evacuations started on notice.
    pub evacuations_attempted: usize,
    /// Evacuations that emptied the node before its revocation.
    pub evacuations_completed: usize,
    /// Chares drained off doomed nodes before revocation.
    pub chares_drained: usize,
    /// Chares rescued by an in-flight transfer landing after revocation.
    pub chares_rescued: usize,
    /// Chares lost to revocation and restored from checkpoint (rollback).
    pub chares_rolled_back: usize,
    /// Raw wall-time penalty: `(T_elastic − T_clean) / T_clean`.
    pub penalty: f64,
    /// Time-averaged active capacity of the elastic run, as a fraction of
    /// the initial cores ([`Scenario::capacity_avg_frac`]).
    pub capacity_avg_frac: f64,
    /// Capacity-adjusted penalty: `T_elastic / T_tracking − 1`, where
    /// `T_tracking` is the capacity-tracking clean twin's makespan
    /// ([`Scenario::capacity_tracking_makespan`]) — what the churn cost
    /// beyond the capacity it took away.
    pub capacity_adjusted_penalty: f64,
}

/// Compare an elastic-membership run against its static-cluster twin.
pub fn elasticity_impact(
    elastic: &RunResult,
    clean: &RunResult,
    scn: &Scenario,
) -> ElasticityImpact {
    let cap = scn.capacity_avg_frac();
    let t_elastic = elastic.app_time.as_secs_f64();
    let t_clean = clean.app_time.as_secs_f64().max(f64::MIN_POSITIVE);
    let base_s = scn.base_time_estimate(scn.build_app().as_ref());
    let t_tracking = scn.capacity_tracking_makespan(t_clean, base_s).max(f64::MIN_POSITIVE);
    ElasticityImpact {
        notices: elastic.elastic.notices,
        nodes_revoked: elastic.elastic.nodes_revoked,
        acquisitions: elastic.elastic.acquisitions,
        warmups: elastic.elastic.warmups,
        evacuations_attempted: elastic.elastic.evacuations_attempted,
        evacuations_completed: elastic.elastic.evacuations_completed,
        chares_drained: elastic.elastic.chares_drained,
        chares_rescued: elastic.elastic.chares_rescued,
        chares_rolled_back: elastic.elastic.chares_rolled_back,
        penalty: elastic.timing_penalty_vs(clean),
        capacity_avg_frac: cap,
        capacity_adjusted_penalty: t_elastic / t_tracking - 1.0,
    }
}

/// Averaged metrics for one `(app, cores)` cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalPoint {
    /// Application name.
    pub app: String,
    /// Core count.
    pub cores: usize,
    /// App timing penalty without LB (fraction, e.g. 1.0 = +100 %).
    pub penalty_nolb: f64,
    /// App timing penalty with the paper's balancer.
    pub penalty_lb: f64,
    /// Background-job timing penalty without LB.
    pub bg_penalty_nolb: f64,
    /// Background-job timing penalty with LB.
    pub bg_penalty_lb: f64,
    /// Average power per node, interference-free base run (W).
    pub power_base_w: f64,
    /// Average power per node without LB (W).
    pub power_nolb_w: f64,
    /// Average power per node with LB (W).
    pub power_lb_w: f64,
    /// Energy overhead vs base without LB (fraction).
    pub energy_overhead_nolb: f64,
    /// Energy overhead vs base with LB (fraction).
    pub energy_overhead_lb: f64,
    /// Mean migrations per LB run.
    pub migrations: f64,
    /// Mean LB steps per LB run.
    pub lb_steps: f64,
    /// Simulator events processed across every run of the cell (base,
    /// noLB and LB arms, all seeds). Includes the pops the fast-forward
    /// engine skipped, so the figure is mode-independent.
    pub sim_events: u64,
    /// Largest pending-event backlog any run of the cell reached.
    pub peak_queue_depth: usize,
    /// Steady-state LB windows macro-stepped across every run of the cell.
    #[serde(default)]
    pub ff_windows: usize,
    /// Event pops those replayed windows skipped (subset of `sim_events`).
    #[serde(default)]
    pub events_skipped: u64,
}

impl EvalPoint {
    /// Fractional reduction of the app timing penalty achieved by LB
    /// (the paper's headline claims ≥ 0.5 here).
    pub fn penalty_reduction(&self) -> f64 {
        if self.penalty_nolb <= 0.0 {
            return 0.0;
        }
        1.0 - self.penalty_lb / self.penalty_nolb
    }

    /// Fractional reduction of the energy overhead achieved by LB.
    pub fn energy_reduction(&self) -> f64 {
        if self.energy_overhead_nolb <= 0.0 {
            return 0.0;
        }
        1.0 - self.energy_overhead_lb / self.energy_overhead_nolb
    }
}

/// One `(app, cores)` cell of the paper matrix, to be evaluated as a
/// base / noLB / LB triple per seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Application name (`jacobi2d`, `wave2d`, `mol3d`, `stencil3d`).
    pub app: String,
    /// Core count.
    pub cores: usize,
    /// Iterations per run (the figures use 100).
    pub iterations: usize,
    /// Registry name of the balanced arm's strategy.
    pub strategy: String,
    /// Fast-forward mode applied to every arm of the cell (default `auto`).
    #[serde(default)]
    pub fast_forward: FastForward,
}

impl CellSpec {
    /// The paper-matrix cell for `app` on `cores` cores.
    pub fn paper(app: &str, cores: usize, iterations: usize, strategy: &str) -> Self {
        CellSpec {
            app: app.to_string(),
            cores,
            iterations,
            strategy: strategy.to_string(),
            fast_forward: FastForward::default(),
        }
    }

    /// The `[base, noLB, LB]` scenario triple for one seed, in the arm
    /// order the reduction consumes them.
    fn arms(&self, seed: u64) -> [Scenario; 3] {
        let mut lb_scn = Scenario::paper(&self.app, self.cores, &self.strategy);
        lb_scn.iterations = self.iterations;
        lb_scn.seed = seed;
        lb_scn.fast_forward = self.fast_forward;
        let mut nolb_scn = Scenario { strategy: "nolb".into(), ..lb_scn.clone() };
        nolb_scn.seed = seed;
        let base_scn = lb_scn.base_of();
        [base_scn, nolb_scn, lb_scn]
    }
}

/// Evaluate many cells at once through the streaming pipeline (see
/// [`crate::pipeline`]): every `(cell, seed, arm)` run is a packet
/// fanned out over `jobs` work-stealing workers, and finished runs are
/// folded per cell in seed order as they stream back. This is the
/// `collect_all` path — it materializes one [`EvalPoint`] per cell (but
/// never more than [`PipelineConfig::window`] `RunResult`s). Bit-identical
/// to running [`evaluate`] serially per cell, for any `jobs`.
pub fn evaluate_cells(cells: &[CellSpec], seeds: &[u64], jobs: usize) -> Vec<EvalPoint> {
    let mut out = Vec::with_capacity(cells.len());
    evaluate_cells_stream(cells, seeds, jobs, |_ci, point| out.push(point));
    out
}

/// The memory-bounded sweep driver: stream every `(cell, seed, arm)` run
/// through the pipeline and hand each finished cell's [`EvalPoint`] to
/// `consume(cell_index, point)` **in cell order**. Scenarios are
/// generated lazily and at most [`PipelineConfig::window`] runs are alive
/// at once, so arbitrarily large cell lists sweep at flat memory — the
/// consumer decides what to keep (e.g. fold into a
/// [`crate::stream_agg::StreamSummary`]).
///
/// The per-cell fold is exactly the serial code's fold (same push order,
/// same [`mean`] calls), so the emitted points are bit-identical to the
/// serial path for any worker count.
pub fn evaluate_cells_stream<C>(
    cells: &[CellSpec],
    seeds: &[u64],
    jobs: usize,
    mut consume: C,
) -> PipelineStats
where
    C: FnMut(usize, EvalPoint),
{
    assert!(!seeds.is_empty());
    let cfg = PipelineConfig::new(jobs);
    let runs = cells
        .iter()
        .flat_map(|cell| seeds.iter().flat_map(move |&seed| cell.arms(seed)));

    let per_cell = seeds.len() * 3;
    let mut reducer: Option<CellReducer> = None;
    let stats = pipeline_stream(&cfg, runs, |scn| run_scenario(&scn), |seq, result| {
        let ci = seq / per_cell;
        let r = reducer.get_or_insert_with(|| CellReducer::new(cells[ci].clone()));
        r.push(result);
        if seq % per_cell == per_cell - 1 {
            let done = reducer.take().expect("reducer exists at cell boundary");
            consume(ci, done.finalize());
        }
    });
    debug_assert!(reducer.is_none(), "every cell must close on a triple boundary");
    stats
}

/// Incremental per-cell fold: consumes one [`RunResult`] at a time in
/// `[base, noLB, LB] × seed` submission order and averages into an
/// [`EvalPoint`]. The push sequence and the final [`mean`] calls are
/// exactly the batch code's fold, so the averages are reproducible to
/// the last bit while only the current triple's runs stay alive.
struct CellReducer {
    cell: CellSpec,
    /// Arms of the in-progress triple ([base, noLB]; LB folds eagerly).
    base: Option<RunResult>,
    nolb: Option<RunResult>,
    penalty_nolb: Vec<f64>,
    penalty_lb: Vec<f64>,
    bg_nolb: Vec<f64>,
    bg_lb: Vec<f64>,
    power_base: Vec<f64>,
    power_nolb: Vec<f64>,
    power_lb: Vec<f64>,
    energy_nolb: Vec<f64>,
    energy_lb: Vec<f64>,
    migrations: Vec<f64>,
    lb_steps: Vec<f64>,
    sim_events: u64,
    peak_queue_depth: usize,
    ff_windows: usize,
    events_skipped: u64,
}

impl CellReducer {
    fn new(cell: CellSpec) -> Self {
        CellReducer {
            cell,
            base: None,
            nolb: None,
            penalty_nolb: Vec::new(),
            penalty_lb: Vec::new(),
            bg_nolb: Vec::new(),
            bg_lb: Vec::new(),
            power_base: Vec::new(),
            power_nolb: Vec::new(),
            power_lb: Vec::new(),
            energy_nolb: Vec::new(),
            energy_lb: Vec::new(),
            migrations: Vec::new(),
            lb_steps: Vec::new(),
            sim_events: 0,
            peak_queue_depth: 0,
            ff_windows: 0,
            events_skipped: 0,
        }
    }

    /// Feed the next run of this cell (submission order: base, noLB, LB
    /// per seed). The third arm completes a triple and folds it.
    fn push(&mut self, run: RunResult) {
        match (&self.base, &self.nolb) {
            (None, _) => self.base = Some(run),
            (Some(_), None) => self.nolb = Some(run),
            (Some(_), Some(_)) => {
                let base = self.base.take().expect("base arm present");
                let nolb = self.nolb.take().expect("noLB arm present");
                let lb = run;
                self.penalty_nolb.push(nolb.timing_penalty_vs(&base));
                self.penalty_lb.push(lb.timing_penalty_vs(&base));
                if let Some(p) = nolb.bg_penalties.get(&0) {
                    self.bg_nolb.push(*p);
                }
                if let Some(p) = lb.bg_penalties.get(&0) {
                    self.bg_lb.push(*p);
                }
                self.power_base.push(base.energy.avg_power_per_node_w);
                self.power_nolb.push(nolb.energy.avg_power_per_node_w);
                self.power_lb.push(lb.energy.avg_power_per_node_w);
                self.energy_nolb.push(nolb.energy_overhead_vs(&base));
                self.energy_lb.push(lb.energy_overhead_vs(&base));
                self.migrations.push(lb.migrations as f64);
                self.lb_steps.push(lb.lb_steps as f64);
                for r in [&base, &nolb, &lb] {
                    self.sim_events += r.sim_events;
                    self.peak_queue_depth = self.peak_queue_depth.max(r.peak_queue_depth);
                    self.ff_windows += r.ff_windows;
                    self.events_skipped += r.events_skipped;
                }
            }
        }
    }

    fn finalize(self) -> EvalPoint {
        assert!(
            self.base.is_none() && self.nolb.is_none(),
            "cell finalized mid-triple"
        );
        EvalPoint {
            app: self.cell.app.clone(),
            cores: self.cell.cores,
            penalty_nolb: mean(&self.penalty_nolb),
            penalty_lb: mean(&self.penalty_lb),
            bg_penalty_nolb: mean(&self.bg_nolb),
            bg_penalty_lb: mean(&self.bg_lb),
            power_base_w: mean(&self.power_base),
            power_nolb_w: mean(&self.power_nolb),
            power_lb_w: mean(&self.power_lb),
            energy_overhead_nolb: mean(&self.energy_nolb),
            energy_overhead_lb: mean(&self.energy_lb),
            migrations: mean(&self.migrations),
            lb_steps: mean(&self.lb_steps),
            sim_events: self.sim_events,
            peak_queue_depth: self.peak_queue_depth,
            ff_windows: self.ff_windows,
            events_skipped: self.events_skipped,
        }
    }
}

/// Run the base / noLB / LB triple for one cell, averaged over `seeds`.
///
/// `lb_strategy` is the balanced arm's registry name (the paper's scheme
/// is `cloudrefine`; ablations swap in others). `iterations` scales run
/// length (the figures use 100). Runs are spread across
/// [`default_jobs`] workers (`CLOUDLB_JOBS` / `--jobs`); the result is
/// bit-identical for any worker count.
pub fn evaluate(
    app: &str,
    cores: usize,
    iterations: usize,
    lb_strategy: &str,
    seeds: &[u64],
) -> EvalPoint {
    let cell = CellSpec::paper(app, cores, iterations, lb_strategy);
    evaluate_cells(std::slice::from_ref(&cell), seeds, default_jobs())
        .pop()
        .expect("one cell in, one point out")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small but end-to-end cell: Jacobi2D on 4 cores over the paper's
    /// 100-iteration horizon (shorter runs leave the pre-first-LB window
    /// dominating the average). This is the paper's whole story in one
    /// assertion set, so it is worth its couple of seconds.
    #[test]
    fn jacobi_4core_cell_reproduces_paper_shape() {
        let p = evaluate("jacobi2d", 4, 100, "cloudrefine", &[1]);
        // Interference with fair sharing roughly doubles the noLB run.
        assert!(p.penalty_nolb > 0.6, "noLB penalty {:.2}", p.penalty_nolb);
        // 4 cores is the hardest cell (the capacity bound is 4/3, and
        // Algorithm 1 stops refining once interfered cores stop looking
        // heavy): the paper's own Fig. 2 is worst here too. Require a 40 %
        // cut at P = 4; the ≥ 50 % headline is asserted at P ≥ 8 by the
        // claim_headline integration test.
        assert!(
            p.penalty_reduction() >= 0.4,
            "reduction {:.2} (noLB {:.2} → LB {:.2})",
            p.penalty_reduction(),
            p.penalty_nolb,
            p.penalty_lb
        );
        // LB runs hotter but uses less energy (Fig. 4 shape).
        assert!(p.power_lb_w > p.power_nolb_w, "{:.1} vs {:.1}", p.power_lb_w, p.power_nolb_w);
        assert!(p.energy_overhead_lb < p.energy_overhead_nolb);
        assert!(p.migrations > 0.0);
    }

    #[test]
    fn cells_are_identical_with_and_without_fast_forward() {
        let mut on = CellSpec::paper("jacobi2d", 4, 40, "cloudrefine");
        on.fast_forward = FastForward::On;
        let mut off = on.clone();
        off.fast_forward = FastForward::Off;
        let mut points = evaluate_cells(&[on, off], &[1, 2], 2);
        let p_off = points.pop().unwrap();
        let p_on = points.pop().unwrap();
        assert!(p_on.ff_windows > 0, "the base arm's clean windows must replay");
        assert!(p_on.events_skipped > 0);
        assert_eq!(p_off.ff_windows, 0);
        let scrub = |mut p: EvalPoint| {
            p.ff_windows = 0;
            p.events_skipped = 0;
            p
        };
        assert_eq!(scrub(p_on), scrub(p_off), "macro-stepping must not move any metric");
    }

    #[test]
    fn invalid_scenarios_are_typed_errors_not_panics() {
        // Oracle-discovered panics converted to RuntimeError::InvalidConfig:
        // each of these used to unwind somewhere inside the runtime stack.
        let ok = Scenario::paper("jacobi2d", 8, "cloudrefine");
        let bad = [
            Scenario { app: "linpack".into(), ..ok.clone() },
            Scenario { strategy: "wat".into(), ..ok.clone() },
            Scenario { pe_speeds: vec![1.0; 3], ..ok.clone() },
            Scenario { cores: 6, ..ok.clone() },
        ];
        for s in bad {
            match try_run_scenario(&s) {
                Err(cloudlb_runtime::RuntimeError::InvalidConfig(_)) => {}
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn report_prices_only_the_active_layers() {
        let mut drill = Scenario::failure_drill("wave2d", 4, "cloudrefine");
        drill.iterations = 30;
        let r = report_scenario(&drill).expect("drill is recoverable");
        let run = try_run_scenario(&drill).unwrap();
        let base = try_run_scenario(&drill.base_of()).unwrap();
        assert_eq!(r.scenario, drill);
        assert_eq!(r.app_s, run.app_time.as_secs_f64());
        assert_eq!(r.timing_penalty, run.timing_penalty_vs(&base));
        assert_eq!(r.migrations, run.migrations);
        assert_eq!(r.failures.as_ref().map(|f| f.failures), Some(1));
        assert!(r.telemetry.is_none() && r.network.is_none() && r.membership.is_none());

        let bad = Scenario { app: "linpack".into(), ..drill };
        assert!(matches!(report_scenario(&bad), Err(RuntimeError::InvalidConfig(_))));
    }

    #[test]
    fn evaluate_is_deterministic_per_seed() {
        let a = evaluate("wave2d", 4, 20, "cloudrefine", &[7]);
        let b = evaluate("wave2d", 4, 20, "cloudrefine", &[7]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "!seeds.is_empty()")]
    fn evaluate_requires_seeds() {
        evaluate("jacobi2d", 4, 10, "cloudrefine", &[]);
    }

    #[test]
    fn noisy_cloud_scenario_runs_and_reports_impact() {
        let mut noisy = Scenario::noisy_cloud("wave2d", 4, "robustcloudrefine");
        noisy.iterations = 30;
        let mut clean = noisy.clone();
        clean.telemetry = None;
        let n = run_scenario(&noisy);
        let c = run_scenario(&clean);
        let impact = telemetry_impact(&n, &c);
        assert!(
            impact.clamped_op
                + impact.missing_samples
                + impact.task_overrun
                + impact.implausible_idle
                > 0,
            "corruption must trip the validators: {impact:?}"
        );
        assert!(n.iter_times.len() == 30, "ground truth still completes");
    }

    #[test]
    fn flaky_cloud_scenario_runs_and_reports_impact() {
        let mut flaky = Scenario::flaky_cloud("jacobi2d", 8, "cloudrefine");
        flaky.iterations = 30;
        let mut clean = flaky.clone();
        clean.net_fault = None;
        let f = run_scenario(&flaky);
        let c = run_scenario(&clean);
        assert_eq!(f.iter_times.len(), 30, "chaos delays the app but never loses work");
        let impact = network_impact(&f, &c);
        assert!(
            impact.lost_copies + impact.retransmits + impact.duplicates_dropped > 0,
            "flaky_cloud must damage some traffic: {impact:?}"
        );
        assert!(impact.partition_s > 0.0);
        // Chare conservation under chaos: same multiset of cores hosting
        // every chare exactly once.
        assert_eq!(f.final_mapping.len(), c.final_mapping.len());
        assert!(f.final_mapping.iter().all(|&p| p < 8));
    }

    #[test]
    fn spot_storm_scenario_evacuates_and_reports_impact() {
        let mut storm = Scenario::spot_storm("jacobi2d", 8, "cloudrefine");
        storm.iterations = 30;
        let mut clean = storm.clone();
        clean.membership = None;
        let e = run_scenario(&storm);
        let c = run_scenario(&clean);
        assert_eq!(e.iter_times.len(), 30, "the storm is survivable");
        let impact = elasticity_impact(&e, &c, &storm);
        assert!(impact.notices >= 1, "{impact:?}");
        assert!(impact.nodes_revoked >= 1);
        assert_eq!(impact.acquisitions, 1);
        assert_eq!(impact.warmups, 1);
        assert!(impact.evacuations_attempted >= 1);
        assert_eq!(impact.chares_rolled_back, 0, "notice lead covers the drain");
        assert!(impact.capacity_avg_frac > 0.0 && impact.capacity_avg_frac <= 1.5);
        assert!(impact.capacity_adjusted_penalty <= impact.penalty);
        // The clean twin saw no churn at all.
        assert_eq!(c.elastic, cloudlb_runtime::ElasticStats::default());
    }

    #[test]
    fn autoscale_scenario_uses_acquired_nodes() {
        let mut scn = Scenario::autoscale("jacobi2d", 8, "cloudrefine");
        scn.iterations = 40;
        let r = run_scenario(&scn);
        assert_eq!(r.iter_times.len(), 40);
        assert_eq!(r.elastic.acquisitions, 2);
        assert_eq!(r.elastic.warmups, 2);
        // Some chare ends up on capacity that attached mid-run.
        assert!(
            r.final_mapping.iter().any(|&p| p >= 8),
            "acquired cores must take work: {:?}",
            r.final_mapping
        );
    }

    #[test]
    fn failure_drill_survives_and_reports_impact() {
        let mut drill = Scenario::failure_drill("wave2d", 4, "cloudrefine");
        drill.iterations = 30;
        let mut clean = drill.clone();
        clean.fail.clear();
        let failed = try_run_scenario(&drill).expect("drill must be recoverable");
        let base = run_scenario(&clean);
        assert_eq!(failed.iter_times.len(), 30);
        let impact = failure_impact(&failed, &base);
        assert_eq!(impact.failures, 1);
        assert_eq!(impact.recoveries, 1);
        assert!(impact.replayed_iters > 0);
        assert!(impact.recovery_time_s > 0.0);
        assert!(impact.failure_penalty > 0.0, "losing a core must cost time");
        // The dead core hosts nothing at the end.
        assert!(failed.final_mapping.iter().all(|&p| p != 3));
    }
}

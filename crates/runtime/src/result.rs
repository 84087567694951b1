//! Run outcome: everything the experiment harness needs to compute the
//! paper's metrics (timing penalty, BG penalty, power, energy overhead).

use crate::lbdb::WindowQuality;
use cloudlb_balance::DecisionQuality;
use cloudlb_sim::core_sched::BgJobId;
use cloudlb_sim::power::EnergyReport;
use cloudlb_sim::{Dur, NetStats, Time};
use cloudlb_trace::TraceLog;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Elastic-membership counters: what the proactive-evacuation machinery
/// did with spot preemption notices and autoscale acquisitions. All zeros
/// on a run with static membership.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ElasticStats {
    /// Preemption notices received.
    pub notices: usize,
    /// Nodes hard-revoked at their notice deadline.
    pub nodes_revoked: usize,
    /// Nodes acquired (attached mid-run).
    pub acquisitions: usize,
    /// Acquired nodes that completed the warm-up handshake.
    pub warmups: usize,
    /// Evacuations started (notices that found live cores to drain).
    pub evacuations_attempted: usize,
    /// Evacuations whose node was empty when revocation fired — no
    /// checkpoint rollback was needed.
    pub evacuations_completed: usize,
    /// Chares streamed out over the migration protocol before the
    /// deadline.
    pub chares_drained: usize,
    /// Still-stranded chares saved by a targeted rescue checkpoint at the
    /// revocation instant (current state preserved, no epoch lost).
    pub chares_rescued: usize,
    /// Chares lost with their node and restored via global checkpoint
    /// rollback (the reactive path proactive evacuation exists to avoid).
    pub chares_rolled_back: usize,
}

/// Result of one application run.
///
/// `PartialEq` compares every field (including the trace): the parallel
/// sweep engine relies on it to assert bit-identical results against the
/// serial path.
#[derive(Debug, PartialEq)]
pub struct RunResult {
    /// Wall time from start to the last chare finishing the last iteration.
    pub app_time: Dur,
    /// Per-iteration wall times.
    pub iter_times: Vec<Dur>,
    /// Energy/power over the application's execution window.
    pub energy: EnergyReport,
    /// Timing penalty of each *finite* background job that completed:
    /// `(wall − standalone) / standalone`.
    pub bg_penalties: BTreeMap<BgJobId, f64>,
    /// Number of LB steps that ran.
    pub lb_steps: usize,
    /// Total migrations committed.
    pub migrations: usize,
    /// Total bytes migrated.
    pub migration_bytes: u64,
    /// Final chare→core mapping.
    pub final_mapping: Vec<usize>,
    /// Ghost messages delivered between cores of the same node.
    pub local_msgs: u64,
    /// Ghost messages that crossed nodes (paying the virtualized network).
    pub remote_msgs: u64,
    /// Projections-style trace, when enabled.
    pub trace: Option<TraceLog>,
    /// Instant the application finished.
    pub end_time: Time,
    /// PE/node kill events applied during the run.
    pub failures: usize,
    /// Recoveries completed (checkpoint restore + re-balance + replay).
    pub recoveries: usize,
    /// Iterations of work re-executed during replay, summed over chares.
    pub replayed_iters: usize,
    /// Total time spent detecting failures and restoring state (excludes
    /// the replayed compute itself).
    pub recovery_time: Dur,
    /// Telemetry-validation anomalies accumulated over every measurement
    /// window (clamped `O_p`, stale counters, …). All zeros under clean
    /// telemetry.
    pub telemetry: WindowQuality,
    /// Decision-quality counters from the strategy stack (migrations
    /// suppressed by hysteresis, oscillations damped, `O_p` outliers
    /// rejected). All zeros for unguarded strategies.
    pub decisions: DecisionQuality,
    /// Network-chaos damage report (lost copies, retransmits, duplicate
    /// suppressions, migration retries/aborts, scheduled partition time).
    /// All zeros on a clean network.
    pub net: NetStats,
    /// Simulator events processed over the run: event-queue pops plus the
    /// pops the fast-forward engine skipped analytically — so the figure is
    /// bit-identical whether or not windows were macro-stepped.
    pub sim_events: u64,
    /// High-water mark of pending events in the simulator's queue.
    pub peak_queue_depth: usize,
    /// Steady-state LB windows the fast-forward engine replayed
    /// analytically instead of simulating event by event.
    pub ff_windows: usize,
    /// Event pops the replayed windows avoided (already folded into
    /// `sim_events`).
    pub events_skipped: u64,
    /// Elastic-membership counters (notices, evacuations, rescues). All
    /// zeros under static membership.
    pub elastic: ElasticStats,
}

impl RunResult {
    /// Mean iteration time in seconds.
    pub fn mean_iter_s(&self) -> f64 {
        if self.iter_times.is_empty() {
            return 0.0;
        }
        self.iter_times.iter().map(|d| d.as_secs_f64()).sum::<f64>() / self.iter_times.len() as f64
    }

    /// The paper's application timing penalty against a reference
    /// (interference-free) run: `(T − T_ref) / T_ref`.
    pub fn timing_penalty_vs(&self, reference: &RunResult) -> f64 {
        let base = reference.app_time.as_secs_f64();
        assert!(base > 0.0, "reference run has zero duration");
        self.app_time.as_secs_f64() / base - 1.0
    }

    /// The paper's energy overhead against a reference run:
    /// `(E − E_ref) / E_ref`.
    pub fn energy_overhead_vs(&self, reference: &RunResult) -> f64 {
        let base = reference.energy.energy_j;
        assert!(base > 0.0, "reference run consumed zero energy");
        self.energy.energy_j / base - 1.0
    }

    /// Zero the fast-forward observability counters (`ff_windows`,
    /// `events_skipped`), leaving every physics-bearing field untouched.
    /// The differential tests compare a fast-forwarded run against a plain
    /// one with `assert_eq!` after scrubbing both: the *only* permitted
    /// difference is how much work the engine skipped.
    pub fn scrub_ff(mut self) -> Self {
        self.ff_windows = 0;
        self.events_skipped = 0;
        self
    }

    /// Chare-conservation oracle: every one of the `chares` chares must be
    /// mapped to exactly one core in `[0, cores)`, and no chare may sit on
    /// a core listed in `dead` (cores permanently lost to failures). This
    /// is the invariant migrations and recoveries must preserve; the
    /// scenario fuzzer (`cloudlb-vopr`) checks it after every run.
    pub fn check_conservation(
        &self,
        chares: usize,
        cores: usize,
        dead: &[usize],
    ) -> Result<(), String> {
        if self.final_mapping.len() != chares {
            return Err(format!(
                "conservation: {} chares mapped, expected {chares}",
                self.final_mapping.len()
            ));
        }
        for (chare, &pe) in self.final_mapping.iter().enumerate() {
            if pe >= cores {
                return Err(format!(
                    "conservation: chare {chare} on core {pe}, cluster has {cores}"
                ));
            }
            if dead.contains(&pe) {
                return Err(format!("conservation: chare {chare} left on dead core {pe}"));
            }
        }
        Ok(())
    }

    /// Fraction of ghost messages that crossed nodes (0 when no messages
    /// were sent).
    pub fn remote_msg_fraction(&self) -> f64 {
        let total = self.local_msgs + self.remote_msgs;
        if total == 0 {
            0.0
        } else {
            self.remote_msgs as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(app_s: f64, energy_j: f64) -> RunResult {
        RunResult {
            app_time: Dur::from_secs_f64(app_s),
            iter_times: vec![Dur::from_secs_f64(app_s / 2.0); 2],
            energy: EnergyReport { energy_j, ..Default::default() },
            bg_penalties: BTreeMap::new(),
            lb_steps: 0,
            migrations: 0,
            migration_bytes: 0,
            final_mapping: vec![],
            local_msgs: 0,
            remote_msgs: 0,
            trace: None,
            end_time: Time::from_us((app_s * 1e6) as u64),
            failures: 0,
            recoveries: 0,
            replayed_iters: 0,
            recovery_time: Dur::ZERO,
            telemetry: WindowQuality::default(),
            decisions: DecisionQuality::default(),
            net: NetStats::default(),
            sim_events: 0,
            peak_queue_depth: 0,
            ff_windows: 0,
            events_skipped: 0,
            elastic: ElasticStats::default(),
        }
    }

    #[test]
    fn scrub_ff_zeroes_only_the_ff_counters() {
        let mut r = result(2.0, 10.0);
        r.ff_windows = 7;
        r.events_skipped = 12345;
        r.sim_events = 999;
        let s = r.scrub_ff();
        assert_eq!(s.ff_windows, 0);
        assert_eq!(s.events_skipped, 0);
        assert_eq!(s.sim_events, 999, "sim_events is physics, not scrubbed");
        let mut want = result(2.0, 10.0);
        want.sim_events = 999;
        assert_eq!(s, want);
    }

    #[test]
    fn penalties_are_relative() {
        let base = result(10.0, 1000.0);
        let run = result(15.0, 1200.0);
        assert!((run.timing_penalty_vs(&base) - 0.5).abs() < 1e-12);
        assert!((run.energy_overhead_vs(&base) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mean_iteration_time() {
        let r = result(10.0, 1.0);
        assert!((r.mean_iter_s() - 5.0).abs() < 1e-12);
        let empty = RunResult { iter_times: vec![], ..result(1.0, 1.0) };
        assert_eq!(empty.mean_iter_s(), 0.0);
    }

    #[test]
    fn remote_fraction() {
        let mut r = result(1.0, 1.0);
        assert_eq!(r.remote_msg_fraction(), 0.0);
        r.local_msgs = 3;
        r.remote_msgs = 1;
        assert!((r.remote_msg_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn zero_reference_rejected() {
        result(1.0, 1.0).timing_penalty_vs(&result(0.0, 1.0));
    }

    #[test]
    fn conservation_oracle_accepts_and_rejects() {
        let mut r = result(1.0, 1.0);
        r.final_mapping = vec![0, 1, 2, 1];
        assert!(r.check_conservation(4, 4, &[]).is_ok());
        // Wrong chare count.
        assert!(r.check_conservation(5, 4, &[]).unwrap_err().contains("4 chares mapped"));
        // Core out of range.
        assert!(r.check_conservation(4, 2, &[]).unwrap_err().contains("on core 2"));
        // Chare stranded on a dead core.
        assert!(r.check_conservation(4, 4, &[2]).unwrap_err().contains("dead core 2"));
    }
}

//! Timing from outside the program: one scenario run, plain or traced.
//!
//! The traced run times the set-up calls (`Scenario` → `SimExecutor`),
//! the `try_run_with_strategy` call, and every `plan` call through
//! [`TimedStrategy`], a decorator around the registry strategy. Nothing
//! inside the workspace crates is instrumented.

use crate::workloads::executor;
use cloudlb_balance::strategy::by_name;
use cloudlb_balance::{DecisionQuality, LbStats, LbStrategy, Migration};
use cloudlb_core::Scenario;
use cloudlb_runtime::RunResult;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the balancer was asked to do over one run.
#[derive(Debug, Default)]
pub struct PlanLog {
    /// Host nanoseconds of each `plan` call, in call order.
    pub plan_ns: Vec<u64>,
    /// Tasks in the snapshots planned over, summed.
    pub tasks: u64,
    /// Migrations planned, summed.
    pub moves: u64,
}

/// An [`LbStrategy`] that forwards to `inner` and logs each `plan` call.
pub struct TimedStrategy {
    inner: Box<dyn LbStrategy>,
    log: Arc<Mutex<PlanLog>>,
}

impl TimedStrategy {
    /// Wrap `inner`; the returned handle reads the log after the run.
    pub fn wrap(inner: Box<dyn LbStrategy>) -> (TimedStrategy, Arc<Mutex<PlanLog>>) {
        let log = Arc::new(Mutex::new(PlanLog::default()));
        (
            TimedStrategy {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }
}

impl LbStrategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, stats: &LbStats) -> Vec<Migration> {
        let t = Instant::now();
        let plan = self.inner.plan(stats);
        let ns = t.elapsed().as_nanos() as u64;
        let mut log = self
            .log
            .lock()
            .expect("plan log lock is never held across a panic");
        log.plan_ns.push(ns);
        log.tasks += stats.tasks.len() as u64;
        log.moves += plan.len() as u64;
        plan
    }

    fn decision_quality(&self) -> DecisionQuality {
        self.inner.decision_quality()
    }
}

/// Host time of one traced run, split by layer boundary.
#[derive(Debug, Default)]
pub struct RunProbe {
    /// Validation, app, scripts, executor and strategy construction.
    pub setup_s: f64,
    /// The `try_run_with_strategy` call, `plan` calls included.
    pub exec_s: f64,
    pub plans: PlanLog,
}

/// Run `s` the way `try_run_scenario` does, through the public set-up
/// calls and `try_run_with_strategy`. A panic inside the program is
/// reported as an error rather than tearing the benchmark down.
pub fn run_plain(s: &Scenario) -> Result<RunResult, String> {
    guarded(|| {
        s.validate()?;
        let app = s.build_app();
        let exec = executor(s, app.as_ref());
        let strategy = strategy_for(s)?;
        exec.try_run_with_strategy(strategy)
            .map_err(|e| e.to_string())
    })
}

/// [`run_plain`] with every layer boundary timed.
pub fn run_traced(s: &Scenario) -> (Result<RunResult, String>, RunProbe) {
    let mut probe = RunProbe::default();
    let result = guarded(|| {
        let t = Instant::now();
        s.validate()?;
        let app = s.build_app();
        let exec = executor(s, app.as_ref());
        let (timed, log) = TimedStrategy::wrap(strategy_for(s)?);
        probe.setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let r = exec.try_run_with_strategy(Box::new(timed));
        probe.exec_s = t.elapsed().as_secs_f64();
        probe.plans = std::mem::take(&mut *log.lock().expect("run finished, log unshared"));
        r.map_err(|e| e.to_string())
    });
    (result, probe)
}

fn strategy_for(s: &Scenario) -> Result<Box<dyn LbStrategy>, String> {
    by_name(&s.strategy).ok_or_else(|| format!("unknown LB strategy {:?}", s.strategy))
}

fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        Err(format!("panic: {msg}"))
    })
}

//! Correctness oracles.
//!
//! A scenario passes when every invariant holds:
//!
//! * **No panics** — the runtime must terminate normally or with a typed
//!   [`RuntimeError`]; any unwind is a bug.
//! * **No protocol violations** — [`RuntimeError::Protocol`] is typed but
//!   still a runtime bug (in the simulator: the event queue ran dry while
//!   work was pending, i.e. a deadlock), never an acceptable termination.
//! * **Determinism** — a second run from the same seed must be
//!   bit-identical ([`RunResult`]'s full `PartialEq`), including the exact
//!   same typed error when the run fails.
//! * **Completion** — a normally-terminating run must have executed every
//!   iteration.
//! * **Chare conservation** — every chare mapped to exactly one in-range
//!   core at the end, and never to a core lost permanently to a failure
//!   (the runtime re-validates committed plans against the live mapping,
//!   so a stranded chare here means a plan referenced a dead PE).
//! * **Fast-forward equivalence** — when the scenario allows
//!   macro-stepping, rerunning with `--fast-forward off` must produce the
//!   same result modulo the two skip counters ([`RunResult::scrub_ff`]).
//! * **Bounded makespan** — the run must finish within a generous factor
//!   of its clean twin (same topology and length, no chaos); the bound
//!   scales with lost capacity and interference weight so it only trips
//!   on genuine runaways (e.g. migration thrash livelock).

use cloudlb_core::{try_run_scenario, Scenario};
use cloudlb_runtime::{FastForward, RunResult, RuntimeError};
use serde::{Deserialize, Serialize};

/// Test hook: deliberately break an invariant so the oracle→shrink→repro
/// pipeline can be exercised end to end (the acceptance drill).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectBreak {
    /// Report a (fake) conservation violation whenever the scenario
    /// schedules any failure — shrinks to a single fault-script entry.
    Faults,
}

impl InjectBreak {
    /// Parse the CLI value (`faults`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "faults" => Ok(InjectBreak::Faults),
            _ => Err(format!("unknown break {s:?} (expected: faults)")),
        }
    }
}

/// Oracle configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OracleOpts {
    /// Deliberate invariant break (test hook).
    pub inject: Option<InjectBreak>,
}

/// What kind of invariant broke (the shrinker preserves this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The runtime unwound instead of returning a typed error.
    Panic,
    /// The runtime returned [`RuntimeError::Protocol`] (e.g. a deadlock).
    Protocol,
    /// Two runs from the same seed disagreed.
    Nondeterminism,
    /// A normally-terminating run skipped iterations.
    Incomplete,
    /// A chare was lost, duplicated or mapped out of range.
    Conservation,
    /// A chare ended on a core permanently lost to a failure.
    DeadPe,
    /// Fast-forwarded and event-by-event runs disagreed.
    FastForwardDivergence,
    /// The clean reference twin itself failed to run.
    CleanTwinError,
    /// The run blew past the generous makespan bound vs its clean twin.
    MakespanBlowup,
    /// The [`InjectBreak`] test hook fired.
    InjectedBreak,
}

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleFailure {
    /// Which invariant broke.
    pub kind: FailureKind,
    /// Human-readable specifics.
    pub detail: String,
}

impl OracleFailure {
    fn new(kind: FailureKind, detail: impl Into<String>) -> Self {
        OracleFailure { kind, detail: detail.into() }
    }
}

/// How a passing scenario terminated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// Ran to completion with every oracle green.
    Completed {
        /// Application wall time, seconds.
        app_time_s: f64,
        /// Makespan relative to the clean twin.
        clean_ratio: f64,
        /// Migrations committed.
        migrations: usize,
        /// Kill events applied.
        failures: usize,
    },
    /// Terminated with a typed error — acceptable (and deterministic).
    TypedError(String),
}

/// A scenario's oracle verdict.
pub type Verdict = Result<Outcome, OracleFailure>;

/// Cores permanently lost to the scenario's failure schedule (restored
/// outages do not count).
pub fn dead_cores(s: &Scenario) -> Vec<usize> {
    let mut dead = Vec::new();
    for spec in &s.fail {
        if spec.restore_frac.is_some() {
            continue;
        }
        if spec.node {
            dead.extend(4 * spec.index..4 * spec.index + 4);
        } else {
            dead.push(spec.index);
        }
    }
    dead.sort_unstable();
    dead.dedup();
    dead
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_caught(s: &Scenario) -> Result<Result<RunResult, RuntimeError>, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| try_run_scenario(s)))
        .map_err(panic_detail)
}

/// Verdict for a run that ended in a (deterministic) typed error: a
/// protocol violation is a runtime bug, anything else an acceptable stop.
fn typed_termination(e: RuntimeError) -> Verdict {
    match e {
        RuntimeError::Protocol(_) => Err(OracleFailure::new(FailureKind::Protocol, e.to_string())),
        _ => Ok(Outcome::TypedError(e.to_string())),
    }
}

/// Run every oracle against `scn`.
pub fn check(scn: &Scenario, opts: &OracleOpts) -> Verdict {
    if opts.inject == Some(InjectBreak::Faults) && !scn.fail.is_empty() {
        return Err(OracleFailure::new(
            FailureKind::InjectedBreak,
            format!("injected break: scenario schedules {} failure(s)", scn.fail.len()),
        ));
    }

    let first = run_caught(scn)
        .map_err(|p| OracleFailure::new(FailureKind::Panic, format!("first run: {p}")))?;
    let second = run_caught(scn)
        .map_err(|p| OracleFailure::new(FailureKind::Panic, format!("rerun: {p}")))?;
    if first != second {
        return Err(OracleFailure::new(
            FailureKind::Nondeterminism,
            "rerun from the same seed diverged from the first run",
        ));
    }

    let result = match first {
        Err(e) => return typed_termination(e),
        Ok(r) => r,
    };

    if result.iter_times.len() != scn.iterations {
        return Err(OracleFailure::new(
            FailureKind::Incomplete,
            format!("{} of {} iterations ran", result.iter_times.len(), scn.iterations),
        ));
    }

    let chares = scn.build_app().num_chares();
    let dead = dead_cores(scn);
    // Membership growth widens the legal core range; revoked nodes are NOT
    // in the static dead set because a late notice's revocation can fall
    // past the end of the run, where ending on the node is legitimate.
    if let Err(detail) = result.check_conservation(chares, scn.total_cores(), &dead) {
        let kind = if detail.contains("dead core") {
            FailureKind::DeadPe
        } else {
            FailureKind::Conservation
        };
        return Err(OracleFailure::new(kind, detail));
    }

    // Fast-forward differential: macro-stepping may only change the skip
    // counters, never the physics.
    let result = result.scrub_ff();
    if scn.fast_forward != FastForward::Off {
        let off = Scenario { fast_forward: FastForward::Off, ..scn.clone() };
        let off_result = run_caught(&off)
            .map_err(|p| OracleFailure::new(FailureKind::Panic, format!("ff-off twin: {p}")))?
            .map_err(|e| {
                OracleFailure::new(
                    FailureKind::FastForwardDivergence,
                    format!("ff-off twin errored where the original completed: {e}"),
                )
            })?;
        if off_result.scrub_ff() != result {
            return Err(OracleFailure::new(
                FailureKind::FastForwardDivergence,
                "fast-forwarded run differs from the event-by-event run",
            ));
        }
    }

    // Makespan bound vs the clean twin (no chaos, noLB, same shape).
    let clean = run_caught(&scn.base_of())
        .map_err(|p| OracleFailure::new(FailureKind::CleanTwinError, format!("panic: {p}")))?
        .map_err(|e| OracleFailure::new(FailureKind::CleanTwinError, e.to_string()))?;
    let clean_s = clean.app_time.as_secs_f64();
    let app_time_s = result.app_time.as_secs_f64();
    let clean_ratio = if clean_s > 0.0 { app_time_s / clean_s } else { f64::INFINITY };
    // Capacity scaling: the static lost-core ratio, or the time-integrated
    // capacity fraction when the scenario schedules membership churn or
    // restored outages — whichever is more generous, so the elastic bound
    // never tightens the static one.
    let alive = scn.cores.saturating_sub(dead.len()).max(1) as f64;
    let capacity_scale = (scn.cores as f64 / alive).max(1.0 / scn.capacity_avg_frac());
    let allowed = 25.0 * capacity_scale * (1.0 + scn.bg_weight);
    if clean_ratio > allowed {
        return Err(OracleFailure::new(
            FailureKind::MakespanBlowup,
            format!("{clean_ratio:.1}x the clean twin (bound {allowed:.1}x)"),
        ));
    }

    Ok(Outcome::Completed {
        app_time_s,
        clean_ratio,
        migrations: result.migrations,
        failures: result.failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn dead_core_accounting() {
        let mut s = Scenario::paper("jacobi2d", 8, "cloudrefine");
        s.fail = vec![
            cloudlb_core::FailSpec { node: false, index: 5, at_frac: 0.3, restore_frac: None },
            cloudlb_core::FailSpec {
                node: false,
                index: 2,
                at_frac: 0.2,
                restore_frac: Some(0.5),
            },
            cloudlb_core::FailSpec { node: true, index: 0, at_frac: 0.4, restore_frac: None },
        ];
        assert_eq!(dead_cores(&s), vec![0, 1, 2, 3, 5]);
    }

    #[test]
    fn clean_generated_scenarios_pass() {
        // A few cheap seeds through the full battery.
        for seed in [0, 1, 2] {
            let mut s = generate(seed);
            s.iterations = s.iterations.min(12);
            let verdict = check(&s, &OracleOpts::default());
            assert!(verdict.is_ok(), "seed {seed}: {verdict:?}\n{s:?}");
        }
    }

    #[test]
    fn pinned_seed_25_terminates_with_a_typed_unrecoverable_error() {
        // Swarm-discovered: seed 25 composes two kills that lose a
        // chare's owner and buddy checkpoint copies at once. That must
        // stay a typed, deterministic termination — it panicked before
        // the runtime learned to report double losses as
        // RuntimeError::Unrecoverable.
        match check(&generate(25), &OracleOpts::default()) {
            Ok(Outcome::TypedError(e)) => {
                assert!(e.contains("unrecoverable PE failure"), "{e}")
            }
            other => panic!("expected TypedError, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_is_an_acceptable_typed_termination() {
        let s = Scenario { strategy: "wat".into(), ..Scenario::paper("jacobi2d", 4, "nolb") };
        match check(&s, &OracleOpts::default()) {
            Ok(Outcome::TypedError(e)) => assert!(e.contains("unknown LB strategy"), "{e}"),
            other => panic!("expected TypedError, got {other:?}"),
        }
    }

    #[test]
    fn protocol_error_fails_the_verdict() {
        let deadlock = RuntimeError::Protocol("deadlock: event queue empty".into());
        let err = typed_termination(deadlock).unwrap_err();
        assert_eq!(err.kind, FailureKind::Protocol);
        assert!(err.detail.contains("deadlock"), "{}", err.detail);
        for ok in [RuntimeError::AllPesDead, RuntimeError::InvalidConfig("x".into())] {
            assert!(matches!(typed_termination(ok), Ok(Outcome::TypedError(_))));
        }
    }

    #[test]
    fn injected_break_fires_only_with_failures() {
        let opts = OracleOpts { inject: Some(InjectBreak::Faults) };
        let clean = Scenario { fail: vec![], ..Scenario::paper("jacobi2d", 4, "nolb") };
        let mut with_fail = Scenario::failure_drill("jacobi2d", 4, "nolb");
        with_fail.iterations = 10;
        assert!(check(&clean, &opts).is_ok());
        let err = check(&with_fail, &opts).unwrap_err();
        assert_eq!(err.kind, FailureKind::InjectedBreak);
    }
}

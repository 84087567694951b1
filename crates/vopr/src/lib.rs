#![warn(missing_docs)]
//! `cloudlb-vopr`: a VOPR-style seeded scenario fuzzer for the `cloudlb`
//! simulator (the name nods to TigerBeetle's Viewstamped Operation
//! Replicator, the best-known harness of this shape).
//!
//! One `u64` seed deterministically composes a random cluster topology,
//! application, LB arm and a script for every chaos layer in the repo —
//! interference, PE/node failures, telemetry corruption and network
//! faults — via the unified [`cloudlb_sim::stream_seed`] derivation
//! ([`gen`]). The composed scenario then runs under a battery of
//! correctness oracles ([`oracle`]): chare conservation, no chare left on
//! a dead core, bit-identical rerun, fast-forward equivalence, bounded
//! makespan against a clean twin, and typed-error (never panic)
//! termination. On failure, a shrinker ([`shrink`]) minimizes the
//! scenario while preserving the failure kind and emits a self-contained
//! JSON repro with the exact CLI line that replays it ([`repro`]).
//! [`swarm`] fans seed ranges across the deterministic sweep engine.

pub mod gen;
pub mod oracle;
pub mod repro;
pub mod shrink;
pub mod swarm;

pub use gen::generate;
pub use oracle::{check, FailureKind, InjectBreak, OracleFailure, OracleOpts, Outcome, Verdict};
pub use repro::ReproBundle;
pub use shrink::{shrink, ShrinkResult};
pub use swarm::{run_swarm, run_swarm_stream, SwarmReport};

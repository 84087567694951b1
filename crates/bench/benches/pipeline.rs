//! PERF — the streaming sweep pipeline.
//!
//! Measures the packet-based generator→simulate→reduce engine
//! (`cloudlb_core::pipeline_stream`) at its default window
//! (`PipelineConfig::new(jobs)`) on two arms and writes
//! `BENCH_pipeline.json`:
//!
//! 1. the real Jacobi2D/Wave2D/Mol3D cell matrix through
//!    `evaluate_cells_stream` (events/s, cells/s, pool utilization,
//!    reorder and live-results high-water marks);
//! 2. a 20k-packet flood.
//!
//! Either arm **fails (exit 1)** if its peak live-results count ever
//! exceeds the window. Bit-identity to serial runs is the job of
//! `tests/parallel_sweep.rs`, and the straggler schedule is pinned by the
//! unit tests in `crates/core/src/pipeline.rs`.
//!
//! With `CLOUDLB_CHECK=<path to baseline json>` the uniform-arm events/s
//! is additionally gated against a checked-in baseline (exit non-zero on
//! a > 25 % regression). CI's `bench-pipeline` job uses this against
//! `crates/bench/baselines/BENCH_pipeline.json`. `CLOUDLB_FAST=1`
//! shrinks the matrix for smoke runs.

use cloudlb_bench::{baseline, sweeps, Settings};

fn main() {
    let s = Settings::from_env();
    cloudlb_bench::header("Pipeline — streaming sweep engine");
    let record = match sweeps::pipeline_sweep(&s) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("PIPELINE GATE FAILED: {e}");
            std::process::exit(1);
        }
    };
    let path = baseline::write_json("pipeline", &record);
    println!("wrote {}", path.display());
    baseline::maybe_check(record.events_per_sec);
    println!("PERF OK");
}

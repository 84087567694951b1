//! `cloudlb-bench` — refresh the machine-readable perf baselines.
//!
//! ```text
//! cargo run -p cloudlb-bench --release            # full matrix
//! CLOUDLB_FAST=1 cargo run -p cloudlb-bench --release   # smoke matrix
//! cargo run -p cloudlb-bench --release -- scale   # BENCH_scale.json only
//! ```
//!
//! Runs the paper-sweep throughput baseline (fast-forward off) and the
//! fast-forward differential/throughput sweep, then writes each
//! `BENCH_<name>.json` record to **both** `crates/bench/baselines/` (the
//! checked-in copies CI gates against) and the repository root (the
//! at-a-glance copies next to EXPERIMENTS.md). Exits non-zero if the
//! fast-forward differential check finds any divergence.
//!
//! The `scale` subcommand refreshes only the 32k-core / 1M-chare scale
//! baseline (`BENCH_scale.json`), with the same dual-destination write
//! and the same hard gates as the `scale` bench target. The `pipeline`
//! subcommand does the same for the streaming sweep-engine baseline
//! (`BENCH_pipeline.json`), including the live-results-bound gates of
//! the `pipeline` bench target.
//!
//! The usual knobs apply: `CLOUDLB_FAST`, `CLOUDLB_SEEDS`,
//! `CLOUDLB_JOBS`, `CLOUDLB_SCALE_BUDGET_S` (see the crate docs).

use cloudlb_bench::baseline::write_json_at;
use cloudlb_bench::{header, sweeps, Settings};
use serde::Serialize;
use std::path::{Path, PathBuf};

/// `crates/bench/baselines/` and the repository root, both resolved from
/// this crate's manifest so the bin works from any working directory.
fn target_dirs() -> Vec<PathBuf> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let baselines = manifest.join("baselines");
    let root = manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/bench sits two levels under the repo root")
        .to_path_buf();
    vec![baselines, root]
}

fn write_everywhere<T: Serialize>(name: &str, record: &T) {
    for dir in target_dirs() {
        let path = write_json_at(&dir, name, record);
        println!("wrote {}", path.display());
    }
}

fn main() {
    let s = Settings::from_env();

    if std::env::args().nth(1).as_deref() == Some("pipeline") {
        header("Pipeline — streaming sweep engine");
        match sweeps::pipeline_sweep(&s) {
            Ok(record) => write_everywhere(&record.name, &record),
            Err(e) => {
                eprintln!("PIPELINE GATE FAILED: {e}");
                std::process::exit(1);
            }
        }
        println!("\npipeline baseline refreshed");
        return;
    }

    if std::env::args().nth(1).as_deref() == Some("scale") {
        header("Scale — 32k cores / 1M chares");
        match sweeps::scale_sweep(&s) {
            Ok(record) => write_everywhere(&record.name, &record),
            Err(e) => {
                eprintln!("SCALE GATE FAILED: {e}");
                std::process::exit(1);
            }
        }
        println!("\nscale baseline refreshed");
        return;
    }

    header("Perf baseline — paper sweep throughput");
    let perf = sweeps::perf_sweep(&s);
    write_everywhere(&perf.name, &perf);

    header("Fast-forward — differential check + throughput");
    match sweeps::fastforward_sweep(&s) {
        Ok(record) => write_everywhere(&record.name, &record),
        Err(e) => {
            eprintln!("DIVERGENCE: {e}");
            std::process::exit(1);
        }
    }

    println!("\nbaselines refreshed");
}

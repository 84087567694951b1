//! The four benchmark workloads, generated from a base seed.
//!
//! Each workload is a fixed list of scenarios in run order; the seed only
//! picks which per-chare jitter (and, on chaos-mix, which telemetry,
//! network and membership streams) the scenarios draw. The program under
//! test receives nothing but these generated [`Scenario`]s.

use cloudlb_core::{CellSpec, Scenario};
use cloudlb_runtime::{IterativeApp, SimExecutor};

/// Sweep workers for the pipelined workload. Fixed rather than taken
/// from the host so that every host runs the same schedule shape.
pub const SWEEP_JOBS: usize = 2;

/// The paper's three applications.
const PAPER_APPS: [&str; 3] = ["jacobi2d", "wave2d", "mol3d"];

const MATRIX_CORES: [usize; 4] = [4, 8, 16, 32];
const MATRIX_ITERS: usize = 40;
const MATRIX_SEEDS: u64 = 3;

const WIDE_CORES: usize = 128;
const WIDE_ITERS: usize = 20;

const SCALE_CORES: usize = 256;

const CHAOS_CORES: usize = 32;
const CHAOS_ITERS: usize = 50;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 2/4 matrix through `evaluate_cells` on [`SWEEP_JOBS`] workers.
    PaperMatrix,
    /// Interfered runs at 128 cores: every event pays the O(P) core scan.
    WideEvent,
    /// The `Scenario::scale` shape: fast-forward and large-snapshot plans.
    ScaleFf,
    /// Chaos presets: migration protocol, checkpoints, membership, telemetry.
    ChaosMix,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperMatrix,
        Workload::WideEvent,
        Workload::ScaleFf,
        Workload::ChaosMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::WideEvent => "wide-event",
            Workload::ScaleFf => "scale-ff",
            Workload::ChaosMix => "chaos-mix",
        }
    }

    /// Look a workload up by its name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads a pass uses (1 = plain serial loop, no pipeline).
    pub fn jobs(self) -> usize {
        match self {
            Workload::PaperMatrix => SWEEP_JOBS,
            _ => 1,
        }
    }

    /// The scenarios of one pass, in run order.
    pub fn runs(self, seed: u64) -> Vec<Scenario> {
        match self {
            Workload::PaperMatrix => {
                let seeds = matrix_seeds(seed);
                matrix_cells()
                    .iter()
                    .flat_map(|cell| seeds.iter().flat_map(move |&s| arms(cell, s)))
                    .collect()
            }
            Workload::WideEvent => PAPER_APPS
                .iter()
                .map(|app| {
                    let mut s = Scenario::paper(app, WIDE_CORES, "cloudrefine");
                    s.iterations = WIDE_ITERS;
                    s.seed = seed.wrapping_add(1);
                    s
                })
                .collect(),
            Workload::ScaleFf => ["cloudrefine", "hiercloudrefine"]
                .iter()
                .map(|strategy| {
                    let mut s = Scenario::scale("jacobi2d", SCALE_CORES, strategy);
                    s.seed = seed.wrapping_add(1);
                    s
                })
                .collect(),
            Workload::ChaosMix => {
                type Preset = fn(&str, usize, &str) -> Scenario;
                let presets: [(Preset, &str); 4] = [
                    (Scenario::flaky_cloud, "cloudrefine"),
                    (Scenario::failure_drill, "cloudrefine"),
                    (Scenario::spot_storm, "cloudrefine"),
                    (Scenario::noisy_cloud, "robustcloudrefine"),
                ];
                let mut out = Vec::new();
                for (preset, strategy) in presets {
                    for app in PAPER_APPS {
                        let mut s = preset(app, CHAOS_CORES, strategy);
                        s.iterations = CHAOS_ITERS;
                        s.seed = seed.wrapping_add(1);
                        out.push(s);
                    }
                }
                out
            }
        }
    }
}

/// The paper-matrix cells: every app × core count, CloudRefine arm.
pub fn matrix_cells() -> Vec<CellSpec> {
    PAPER_APPS
        .iter()
        .flat_map(|app| {
            MATRIX_CORES
                .iter()
                .map(move |&cores| CellSpec::paper(app, cores, MATRIX_ITERS, "cloudrefine"))
        })
        .collect()
}

/// The paper-matrix seeds for base seed `seed`: seed 0 gives the
/// `cloudlb matrix` default of 1, 2, 3.
pub fn matrix_seeds(seed: u64) -> Vec<u64> {
    (1..=MATRIX_SEEDS)
        .map(|k| seed.wrapping_mul(MATRIX_SEEDS).wrapping_add(k))
        .collect()
}

/// The `[base, noLB, LB]` scenario triple of one cell and seed, in the
/// order `evaluate_cells` submits and folds them.
pub fn arms(cell: &CellSpec, seed: u64) -> [Scenario; 3] {
    let mut lb = Scenario::paper(&cell.app, cell.cores, &cell.strategy);
    lb.iterations = cell.iterations;
    lb.seed = seed;
    lb.fast_forward = cell.fast_forward;
    let nolb = Scenario {
        strategy: "nolb".into(),
        ..lb.clone()
    };
    [lb.base_of(), nolb, lb]
}

/// Build the executor for `s` over `app`, wiring every script and chaos
/// layer the scenario carries (the set-up half of `try_run_scenario`).
pub fn executor<'a>(s: &Scenario, app: &'a dyn IterativeApp) -> SimExecutor<'a> {
    let mut exec =
        SimExecutor::new(app, s.run_config(), s.bg_script(app)).with_failures(s.fail_script(app));
    if let Some(spec) = s.telemetry {
        exec = exec.with_telemetry(spec);
    }
    if let Some(spec) = &s.net_fault {
        exec = exec.with_net_faults(spec.clone());
    }
    let membership = s.membership_script(app);
    if !membership.is_empty() {
        exec = exec.with_membership(membership);
    }
    exec
}

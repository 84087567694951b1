//! `cloudlb-perfbench`: end-to-end and per-layer host time of the cloudlb
//! workspace on four named workloads. See README.md for the metrics, the
//! workloads and how to run it.
//!
//! ```text
//! cloudlb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! when every run completed and matched its digest, 1 when one did not,
//! and 2 on a usage error.

mod digest;
mod host;
mod passes;
mod probe;
#[cfg(test)]
mod tests;
mod workloads;

use cloudlb_balance::strategy::by_name;
use host::{median, peak_rss_mb, percentile};
use passes::Pass;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{executor, Workload};

/// End-to-end metrics, reported by an untraced run (`--trace 0`).
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by a traced run (`--trace 1`).
const PER_LAYER: [(&str, &str); 36] = [
    ("failed_frac", "frac"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("core.setup_s", "s"),
    ("core.pipeline.busy_s", "s"),
    ("core.pipeline.idle_frac", "frac"),
    ("core.reduce_s", "s"),
    ("core.run_s_p50", "s"),
    ("core.run_s_p90", "s"),
    ("core.runs", "count"),
    ("core.pipeline.live_peak", "count"),
    ("core.pipeline.reorder_peak", "count"),
    ("runtime.sim_exec.self_s", "s"),
    ("runtime.events_executed", "count"),
    ("runtime.ns_per_event", "ns"),
    ("runtime.fastforward.windows", "count"),
    ("runtime.fastforward.skip_frac", "frac"),
    ("runtime.lb_steps", "count"),
    ("runtime.migrations", "count"),
    ("runtime.migration_bytes", "bytes"),
    ("runtime.netproto.retransmits", "count"),
    ("runtime.netproto.migration_retries", "count"),
    ("runtime.netproto.migration_aborts", "count"),
    ("runtime.checkpoint.recoveries", "count"),
    ("runtime.checkpoint.replayed_iters", "count"),
    ("runtime.membership.chares_drained", "count"),
    ("balance.plan_s", "s"),
    ("balance.plan_calls", "count"),
    ("balance.plan_us_p50", "us"),
    ("balance.plan_us_p90", "us"),
    ("balance.tasks_per_plan", "count"),
    ("balance.moves_per_plan", "count"),
    ("balance.plan_share", "frac"),
    ("sim.peak_queue_depth", "count"),
    ("sim.events", "count"),
];

/// Passes each mode makes at least, however long they take.
const MIN_PASSES: usize = 3;
const MIN_TRACED_PASSES: usize = 2;
const MAX_PASSES: usize = 500;
/// Share of an untraced run spent on set-up repetitions, interleaved with
/// the passes so both sample the same stretch of host time.
const SETUP_SHARE: f64 = 0.1;

const USAGE: &str =
    "usage: cloudlb-perfbench --workload <paper-matrix|wide-event|scale-ff|chaos-mix> \
                     --seed <n> --seconds <s> --trace <0|1> [--digest-only]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// One plain and one traced pass, then print the digest line for
    /// `digests.txt` instead of metrics.
    digest_only: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut digest_only) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--digest-only" {
            digest_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false) || digest_only,
        digest_only,
    })
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Build every executor of a pass and drop it: the set-up a pass pays
/// before its first simulated event.
fn setup_rep(w: Workload, seed: u64) -> f64 {
    let t = Instant::now();
    for s in w.runs(seed) {
        let app = s.build_app();
        let exec = executor(&s, app.as_ref());
        black_box((&exec, by_name(&s.strategy)));
    }
    t.elapsed().as_secs_f64()
}

/// The passes and set-up repetitions of one run.
struct Measured {
    plain: Vec<Pass>,
    traced: Vec<Pass>,
    setup: Vec<f64>,
}

/// Repeat passes (alternating plain and traced under `--trace 1`) until
/// the next one would overrun `--seconds`. Untraced runs interleave set-up
/// repetitions worth [`SETUP_SHARE`] of each pass.
fn measure(args: &Args, runs: &[cloudlb_core::Scenario]) -> Measured {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let (min_plain, min_traced) = match (args.digest_only, args.trace) {
        (true, _) => (1, 1),
        (false, true) => (MIN_TRACED_PASSES, MIN_TRACED_PASSES),
        (false, false) => (MIN_PASSES, 0),
    };
    let mut m = Measured {
        plain: Vec::new(),
        traced: Vec::new(),
        setup: Vec::new(),
    };
    if !args.trace {
        setup_rep(w, args.seed); // warm-up: first-touch allocations, lazy statics
    }
    let t0 = Instant::now();
    loop {
        let p = if args.trace && m.traced.len() < m.plain.len() {
            m.traced.push(passes::traced(w, runs));
            &m.traced[m.traced.len() - 1]
        } else {
            m.plain.push(passes::plain(w, args.seed, runs));
            &m.plain[m.plain.len() - 1]
        };
        let done = m.plain.len() + m.traced.len();
        let kind = if p.layers.is_some() {
            "traced"
        } else {
            "plain"
        };
        println!(
            "pass {done} {kind} wall_s {:.4} cpu_s {:.4} errors {}",
            p.wall_s, p.cpu_s, p.errors
        );
        if !args.trace {
            let (t, pass_wall) = (Instant::now(), p.wall_s);
            while t.elapsed().as_secs_f64() < SETUP_SHARE * pass_wall || m.setup.is_empty() {
                m.setup.push(setup_rep(w, args.seed));
            }
        }
        let per_pass = t0.elapsed() / done as u32;
        let enough = m.plain.len() >= min_plain && m.traced.len() >= min_traced;
        if enough && (args.digest_only || t0.elapsed() + per_pass > budget || done >= MAX_PASSES) {
            return m;
        }
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args) -> ExitCode {
    let w = args.workload;
    let runs = w.runs(args.seed);
    println!(
        "workload {} seed {} runs/pass {} jobs {} available_parallelism {}",
        w.name(),
        args.seed,
        runs.len(),
        w.jobs(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let Measured {
        plain,
        traced,
        setup,
    } = measure(args, &runs);
    let check = check(args, &plain, &traced);
    for problem in &check.problems {
        println!("problem: {problem}");
    }
    if args.digest_only {
        println!("{} {} {}", w.name(), args.seed, check.digest.render());
        return exit_code(check.correct());
    }

    let failed_frac = check.failed as f64 / check.attempted.max(1) as f64;
    let (table, values): (&[(&str, &str)], BTreeMap<&str, f64>) = if args.trace {
        (&PER_LAYER, layer_metrics(&plain, &traced, failed_frac))
    } else {
        println!("metric failed_frac {failed_frac} frac");
        println!("setup reps {} passes {}", setup.len(), plain.len());
        let values = BTreeMap::from([
            (
                "wall_s",
                median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
            ),
            (
                "cpu_s",
                median(&plain.iter().map(|p| p.cpu_s).collect::<Vec<_>>()),
            ),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", peak_rss_mb()),
        ]);
        (&END_TO_END, values)
    };
    let mut json = Vec::new();
    for &(name, unit) in table {
        let v = values[name];
        let v = if v.is_finite() { v } else { 0.0 };
        println!("metric {name} {v} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.correct(),
        check.attempted,
        check.failed,
        json.join(", ")
    );
    exit_code(check.correct())
}

struct Check {
    attempted: usize,
    failed: usize,
    /// The digest every pass agreed with (recorded fields plus observed).
    digest: digest::Digest,
    problems: Vec<String>,
}

impl Check {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Check every pass against the recorded digest (or, for a seed the
/// table lacks, against the first pass), and the counts for repetition
/// across passes and between plain and traced passes.
fn check(args: &Args, plain: &[Pass], traced: &[Pass]) -> Check {
    let name = args.workload.name();
    let recorded = digest::recorded(name, args.seed);
    let mut c = Check {
        attempted: 0,
        failed: 0,
        digest: recorded.unwrap_or_default(),
        problems: Vec::new(),
    };
    let mut mismatches = 0;
    for p in plain.iter().chain(traced) {
        c.attempted += p.runs;
        c.failed += p.errors;
        c.problems.extend(p.notes.iter().cloned());
        if p.digest.agrees(&c.digest) {
            c.digest.fill_from(&p.digest);
        } else {
            mismatches += 1;
            c.failed += p.runs - p.errors;
            c.problems.push(format!(
                "digest {} differs from {}",
                p.digest.render(),
                c.digest.render()
            ));
        }
    }
    let verdict = match (recorded.is_some(), mismatches) {
        (true, 0) => "matches the recorded digest".to_string(),
        (false, 0) => "seed not recorded; every pass agrees with the first".to_string(),
        (_, n) => format!("MISMATCH in {n} passes"),
    };
    println!(
        "digest {name} {} {} ({verdict})",
        args.seed,
        c.digest.render()
    );
    let mut repeat = |what: &str, values: Vec<String>| {
        if values.windows(2).any(|w| w[0] != w[1]) {
            c.problems
                .push(format!("{what} differ between passes: {values:?}"));
        }
    };
    repeat(
        "plain counts",
        plain.iter().map(|p| format!("{:?}", p.counts)).collect(),
    );
    repeat(
        "traced counts",
        traced.iter().map(|p| format!("{:?}", p.counts)).collect(),
    );
    repeat(
        "plain/traced shared counts",
        plain
            .iter()
            .chain(traced)
            .map(|p| format!("{:?}", p.counts.shared()))
            .collect(),
    );
    let layers: Vec<&passes::Layers> = traced.iter().filter_map(|p| p.layers.as_ref()).collect();
    repeat(
        "plan calls",
        layers.iter().map(|l| l.plan_us.len().to_string()).collect(),
    );
    repeat(
        "pipeline live peaks",
        layers.iter().map(|l| l.live_peak().to_string()).collect(),
    );
    c
}

fn layer_metrics(plain: &[Pass], traced: &[Pass], failed_frac: f64) -> BTreeMap<&'static str, f64> {
    let layers: Vec<&passes::Layers> = traced.iter().filter_map(|p| p.layers.as_ref()).collect();
    let med = |f: &dyn Fn(&passes::Layers) -> f64| {
        median(&layers.iter().map(|l| f(l)).collect::<Vec<_>>())
    };
    let all = |f: &dyn Fn(&passes::Layers) -> &Vec<f64>| -> Vec<f64> {
        layers.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let walls = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let first = layers[0];
    let counts = &traced[0].counts;
    let plan_calls = first.plan_us.len() as f64;
    let per_plan = |x: u64| {
        if plan_calls > 0.0 {
            x as f64 / plan_calls
        } else {
            0.0
        }
    };
    let self_s = med(&|l| l.self_s());
    let events = counts.events_executed() as f64;
    let idle = |l: &passes::Layers, wall: f64| 1.0 - l.busy_s / (wall * l.jobs as f64);
    let idle_fracs: Vec<f64> = traced
        .iter()
        .filter_map(|p| p.layers.as_ref().map(|l| idle(l, p.wall_s)))
        .collect();

    if let Some(stats) = &first.pipeline {
        println!(
            "cross-check PipelineStats: busy_s {:.4} (closure sum {:.4}), utilization {:.4} \
             (1 - idle_frac {:.4}), live_peak {} reorder_peak {} window {}",
            stats.busy_s,
            first.busy_s,
            stats.utilization,
            1.0 - idle(first, traced[0].wall_s),
            stats.live_peak,
            stats.reorder_peak,
            stats.window
        );
    }
    let traced_wall = walls(traced);
    let plain_wall = walls(plain);
    BTreeMap::from([
        ("failed_frac", failed_frac),
        ("trace.wall_s", traced_wall),
        ("trace.untraced_wall_s", plain_wall),
        ("trace.overhead_frac", traced_wall / plain_wall - 1.0),
        ("core.setup_s", med(&|l| l.setup_s)),
        ("core.pipeline.busy_s", med(&|l| l.busy_s)),
        ("core.pipeline.idle_frac", median(&idle_fracs)),
        ("core.reduce_s", med(&|l| l.reduce_s)),
        ("core.run_s_p50", percentile(&all(&|l| &l.run_s), 0.5)),
        ("core.run_s_p90", percentile(&all(&|l| &l.run_s), 0.9)),
        ("core.runs", all(&|l| &l.run_s).len() as f64),
        (
            "core.pipeline.live_peak",
            layers.iter().map(|l| l.live_peak()).max().unwrap_or(0) as f64,
        ),
        (
            "core.pipeline.reorder_peak",
            layers.iter().map(|l| l.reorder_peak()).max().unwrap_or(0) as f64,
        ),
        ("runtime.sim_exec.self_s", self_s),
        ("runtime.events_executed", events),
        (
            "runtime.ns_per_event",
            if events > 0.0 {
                self_s / events * 1e9
            } else {
                0.0
            },
        ),
        ("runtime.fastforward.windows", counts.ff_windows as f64),
        (
            "runtime.fastforward.skip_frac",
            counts.events_skipped as f64 / (counts.sim_events.max(1)) as f64,
        ),
        ("runtime.lb_steps", counts.lb_steps as f64),
        ("runtime.migrations", counts.migrations as f64),
        ("runtime.migration_bytes", counts.migration_bytes as f64),
        ("runtime.netproto.retransmits", counts.retransmits as f64),
        (
            "runtime.netproto.migration_retries",
            counts.migration_retries as f64,
        ),
        (
            "runtime.netproto.migration_aborts",
            counts.migration_aborts as f64,
        ),
        ("runtime.checkpoint.recoveries", counts.recoveries as f64),
        (
            "runtime.checkpoint.replayed_iters",
            counts.replayed_iters as f64,
        ),
        (
            "runtime.membership.chares_drained",
            counts.chares_drained as f64,
        ),
        ("balance.plan_s", med(&|l| l.plan_s)),
        ("balance.plan_calls", plan_calls),
        (
            "balance.plan_us_p50",
            percentile(&all(&|l| &l.plan_us), 0.5),
        ),
        (
            "balance.plan_us_p90",
            percentile(&all(&|l| &l.plan_us), 0.9),
        ),
        ("balance.tasks_per_plan", per_plan(first.plan_tasks)),
        ("balance.moves_per_plan", per_plan(first.plan_moves)),
        ("balance.plan_share", med(&|l| l.plan_s) / self_s),
        ("sim.peak_queue_depth", counts.peak_queue_depth as f64),
        ("sim.events", counts.sim_events as f64),
    ])
}

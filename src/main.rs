//! `cloudlb` command-line interface.
//!
//! ```text
//! cloudlb run   --app jacobi2d --cores 8 --strategy cloudrefine [--iters N] [--seed S] [--json]
//! cloudlb fig1 | fig2 | fig3 | fig4 [--fast]
//! cloudlb matrix --app mol3d [--fast] [--json]
//! ```
//!
//! `run` executes one scenario (base + interfered, plus a clean twin per
//! active chaos layer) and reports the timing penalty, power, energy
//! overhead and each layer's impact, as text or `--json`; the `fig*` subcommands
//! regenerate the paper's figures; `matrix` prints both the Fig. 2 and
//! Fig. 4 tables for one application.

use cloudlb::core_api::experiment::{report_scenario, try_run_scenario};
use cloudlb::core_api::default_jobs;
use cloudlb::core_api::figures;
use cloudlb::core_api::scenario::{BgPattern, FailSpec, Scenario};
use cloudlb::runtime::FastForward;
use cloudlb::sim::{MembershipSpec, NetFaultSpec, TelemetrySpec};
use cloudlb::trace::profile::{render_profile, ProfileOptions};
use cloudlb::trace::svg::{render_svg, SvgOptions};
use cloudlb::trace::timeline::{render_ascii, TimelineOptions};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(jobs) = opts.jobs {
        // The sweep engine resolves its worker count from CLOUDLB_JOBS
        // (see cloudlb_core::pipeline::default_jobs); --jobs overrides it
        // process-wide before any sweep starts.
        std::env::set_var("CLOUDLB_JOBS", jobs.to_string());
    }
    match cmd.as_str() {
        "run" => cmd_run(&opts),
        "fig1" => {
            let out = figures::fig1(20);
            println!(
                "quiet {:.2} ms, interfered {:.2} ms ({:.2}x)\n{}",
                out.quiet_iter_s * 1e3,
                out.interfered_iter_s * 1e3,
                out.interfered_iter_s / out.quiet_iter_s,
                out.timeline
            );
            ExitCode::SUCCESS
        }
        "fig2" | "fig4" | "matrix" => cmd_matrix(cmd, &opts),
        "fig3" => {
            let out = figures::fig3(60, 6);
            for (label, s) in &out.phases {
                println!("{label:<26} {:8.2} ms", s * 1e3);
            }
            println!("\n{}", out.timeline);
            ExitCode::SUCCESS
        }
        "trace" => cmd_trace(&opts),
        other => {
            eprintln!("unknown command {other:?}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Resolve the scenario: from `--scenario file.json` or the paper preset
/// for `--app`/`--cores`/`--strategy`, with the chaos and interference
/// flags layered on top.
fn scenario_from(opts: &Opts) -> Result<Scenario, String> {
    let mut scn = match &opts.scenario_file {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            serde_json::from_str::<Scenario>(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => {
            let mut scn = Scenario::paper(&opts.app, opts.cores, &opts.strategy);
            scn.iterations = opts.iters;
            scn.seed = opts.seeds[0];
            scn
        }
    };
    scn.fail.extend(opts.fail.iter().copied());
    scn.telemetry = opts.telemetry.or(scn.telemetry);
    scn.net_fault = opts.net_fault.clone().or(scn.net_fault.take());
    scn.membership = opts.membership.clone().or(scn.membership.take());
    scn.fast_forward = opts.fast_forward.unwrap_or(scn.fast_forward);
    scn.bg = opts.bg.unwrap_or(scn.bg);
    Ok(scn)
}

fn cmd_trace(opts: &Opts) -> ExitCode {
    let mut scn = match scenario_from(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    scn.trace = true;
    let trace = match try_run_scenario(&scn) {
        Ok(run) => run.trace.expect("tracing enabled"),
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", render_ascii(&trace, &TimelineOptions { width: 110, ..Default::default() }));
    println!("{}", render_profile(&trace, &ProfileOptions::default()));
    let path = std::env::temp_dir().join("cloudlb_trace.svg");
    let svg = render_svg(
        &trace,
        &SvgOptions { title: format!("{} on {} cores", scn.app, scn.cores), ..Default::default() },
    );
    match std::fs::write(&path, svg) {
        Ok(()) => println!("SVG timeline: {}", path.display()),
        Err(e) => eprintln!("could not write SVG: {e}"),
    }
    ExitCode::SUCCESS
}

/// `run`: one [`report_scenario`] call, rendered as text or, under
/// `--json`, as the report document alone.
fn cmd_run(opts: &Opts) -> ExitCode {
    let scn = match scenario_from(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let r = match report_scenario(&scn) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.json {
        println!("{}", serde_json_string(&r));
        return ExitCode::SUCCESS;
    }
    println!(
        "{} on {} cores, strategy {}: base {:.3} s, interfered {:.3} s \
         (penalty {:.1} %), {} migrations, {:.1} W/node, energy overhead {:.1} %",
        scn.app,
        scn.cores,
        scn.strategy,
        r.base_s,
        r.app_s,
        r.timing_penalty * 100.0,
        r.migrations,
        r.power_per_node_w,
        r.energy_overhead * 100.0,
    );
    if r.ff_windows > 0 {
        println!(
            "fast-forwarded {}/{} iterations ({} windows, {} events skipped)",
            r.ff_windows * scn.lb_period,
            scn.iterations,
            r.ff_windows,
            r.events_skipped,
        );
    }
    if let Some(imp) = &r.failures {
        println!(
            "failures: {} core(s) lost, {} recover{}, {} iteration(s) replayed, \
             {:.3} s recovering (failure penalty {:.1} %)",
            imp.failures,
            imp.recoveries,
            if imp.recoveries == 1 { "y" } else { "ies" },
            imp.replayed_iters,
            imp.recovery_time_s,
            imp.failure_penalty * 100.0,
        );
    }
    if let Some(imp) = &r.telemetry {
        println!(
            "telemetry: {} clamped O_p, {} stale window(s), {} task overrun(s), \
             {} implausible idle; {} migration(s) suppressed, {} oscillation(s) damped, \
             {} outlier(s) rejected; noise penalty {:.1} %",
            imp.clamped_op,
            imp.missing_samples,
            imp.task_overrun,
            imp.implausible_idle,
            imp.suppressed,
            imp.oscillations,
            imp.outliers_rejected,
            imp.noise_penalty * 100.0,
        );
    }
    if let Some(imp) = &r.network {
        println!(
            "network: {} cop(ies) lost, {} ghost retransmit(s), {} duplicate(s) dropped, \
             {} migration retr(ies), {} abort(s), {:.3} s partitioned \
             (network penalty {:.1} %)",
            imp.lost_copies,
            imp.retransmits,
            imp.duplicates_dropped,
            imp.migration_retries,
            imp.migration_aborts,
            imp.partition_s,
            imp.net_penalty * 100.0,
        );
    }
    if let Some(imp) = &r.membership {
        println!(
            "membership: {} notice(s), {} node(s) revoked, {} acquired ({} warmed up); \
             {}/{} evacuation(s) completed, {} chare(s) drained, {} rescued, {} rolled back; \
             penalty {:.1} % ({:.1} % capacity-adjusted at {:.0} % avg capacity)",
            imp.notices,
            imp.nodes_revoked,
            imp.acquisitions,
            imp.warmups,
            imp.evacuations_completed,
            imp.evacuations_attempted,
            imp.chares_drained,
            imp.chares_rescued,
            imp.chares_rolled_back,
            imp.penalty * 100.0,
            imp.capacity_adjusted_penalty * 100.0,
            imp.capacity_avg_frac * 100.0,
        );
    }
    ExitCode::SUCCESS
}

/// `fig2`, `fig4` and `matrix`: stream the app's matrix through the sweep
/// pipeline, appending table rows as cells finish, then print the tables
/// (or, for `matrix --json`, the points) and the matrix summary. The
/// pipeline's timing line goes to stderr so stdout stays deterministic.
fn cmd_matrix(cmd: &str, opts: &Opts) -> ExitCode {
    let json = cmd == "matrix" && opts.json;
    let mut t2 = figures::fig2_table(&[]);
    let mut t4 = figures::fig4_table(&[]);
    let mut points = Vec::new();
    let (summary, stats) = figures::eval_matrix_stream(
        &opts.app,
        &opts.cores_list(),
        opts.iters,
        &opts.seeds,
        default_jobs(),
        |p| {
            figures::fig2_row(&mut t2, p);
            figures::fig4_row(&mut t4, p);
            if json {
                points.push(p.clone());
            }
        },
    );
    let summary = format!("\nsummary\n{}", summary.render());
    if json {
        println!("{}", serde_json_string(&points));
        eprint!("{summary}");
    } else if cmd == "fig2" {
        print!("{}{summary}", t2.markdown());
    } else if cmd == "fig4" {
        print!("{}{summary}", t4.markdown());
    } else {
        println!("Fig. 2 ({})", opts.app);
        print!("{}", t2.markdown());
        println!("\nFig. 4 ({})", opts.app);
        print!("{}{summary}", t4.markdown());
    }
    eprintln!(
        "pipeline: {:.1} cells-arms/s, utilization {:.2}, reorder peak {}, \
         live peak {} (bound {}), {} steals, {} injector claims",
        stats.packets_per_sec,
        stats.utilization,
        stats.reorder_peak,
        stats.live_peak,
        stats.window,
        stats.steals,
        stats.injector_claims,
    );
    ExitCode::SUCCESS
}

fn serde_json_string<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializable")
}

const USAGE: &str = "usage:
  cloudlb run    --app <name> --cores <n> [--strategy <s>] [--iters <n>] [--seed <s>]
                 [--fail <spec>[,<spec>...]] [--telemetry-noise <spec>]
                 [--net-fault <spec>] [--membership <spec>]
                 [--fast-forward on|off|auto]
                 [--bg paper|none|twocore:<frac>] [--json]
  cloudlb run    --scenario <file.json> [--fail <spec>[,<spec>...]] [--json]
  cloudlb trace  --app <name> --cores <n> [--strategy <s>] [--iters <n>]
  cloudlb fig1 | fig3
  cloudlb fig2 | fig4 [--app <name>] [--fast] [--jobs <n>]
  cloudlb matrix --app <name> [--fast] [--json] [--jobs <n>]

--jobs <n> (or CLOUDLB_JOBS=<n>) spreads the sweep's independent runs over
n worker threads; results are bit-identical to --jobs 1. Defaults to the
machine's available parallelism.

run prints the base and interfered metrics, then one line per active chaos
layer, each priced against a twin run without that layer. With --json it
prints one JSON document instead: the scenario that ran, base_s, app_s,
timing_penalty, energy_overhead, power_per_node_w, migrations, lb_steps,
ff_windows, events_skipped, and failures/telemetry/network/membership
impact objects (null when the layer is off).

fig2, fig4 and matrix stream the sweep: table rows fill in as cells finish
(at most O(jobs) runs alive) and a count/mean/min/max/quantile summary per
metric follows the tables. The pipeline's throughput, utilization and
high-water marks go to stderr. matrix --json prints the points as one JSON
array.

--fast-forward on|off|auto controls the steady-state macro-stepper: clean
LB windows are replayed analytically instead of event by event, with
bit-identical results. 'auto' (default) disables it only while tracing,
where coalescing would blur the timeline.

--bg overrides the interference pattern: 'paper' (default: the paper's
2-core background job, sized to outlive the run), 'none' (clean machine),
or twocore:<frac> (same job with its CPU demand scaled to <frac> of the
base run, so it drains mid-run).

apps: jacobi2d wave2d mol3d stencil3d
strategies: nolb greedy greedybg refine cloudrefine commrefine
  hiercloudrefine gatedcloudrefine hysteresiscloudrefine robustcloudrefine
fail specs: kind:index@when[~restore], e.g. core:2@0.5 kills core 2 halfway
  through the estimated run; node:1@0.3~0.8 takes node 1 down over that window
telemetry noise: 'noisy_cloud', 'none', or a comma list of
  jitter:<frac> skew:<frac> drop:<frac> steal:<frac> wrap:<us>, e.g.
  --telemetry-noise jitter:0.1,drop:0.2 (pair with --strategy robustcloudrefine)
net faults: 'flaky_cloud', 'none', or a comma list of
  loss:<frac> dup:<frac> reorder:<frac> jitter:<frac> collapse:<frac>
  slowdown:<x> rack:<from>~<to> part:<a>-<b>@<from>~<to>, e.g.
  --net-fault loss:0.02,rack:0.4~0.5 (times are fractions of the estimated
  run; migrations ride a retry/abort protocol and aborted moves re-plan)
membership: 'spot_storm', 'autoscale', 'none', or a comma list of
  notice:<node>@<at>+<lead> acquire:<at> warmup:<frac> warmup_jitter:<frac>,
  e.g. --membership notice:1@0.4+0.25,acquire:0.3 — node 1 gets a spot
  preemption notice at 40 % of the estimated run and is hard-revoked 25 %
  later; a fresh 4-core node attaches at 30 %. On a notice the runtime
  proactively drains the node's chares before the revocation deadline;
  acquired nodes warm up, then take migrations";

/// Hand-rolled flag parsing (no CLI dependency).
struct Opts {
    app: String,
    cores: usize,
    strategy: String,
    iters: usize,
    seeds: Vec<u64>,
    json: bool,
    fast: bool,
    scenario_file: Option<String>,
    fail: Vec<FailSpec>,
    telemetry: Option<TelemetrySpec>,
    net_fault: Option<NetFaultSpec>,
    membership: Option<MembershipSpec>,
    jobs: Option<usize>,
    fast_forward: Option<FastForward>,
    bg: Option<BgPattern>,
}

/// Parse a `--bg` value: `paper` (keep the scenario's own pattern),
/// `none`, or `twocore:<demand_frac>`.
fn parse_bg(spec: &str) -> Result<Option<BgPattern>, String> {
    match spec.to_ascii_lowercase().as_str() {
        "paper" => Ok(None),
        "none" => Ok(Some(BgPattern::None)),
        s => {
            let frac = s
                .strip_prefix("twocore:")
                .ok_or_else(|| format!("expected paper, none or twocore:<frac>, got {spec:?}"))?
                .parse::<f64>()
                .map_err(|e| format!("twocore demand fraction: {e}"))?;
            if !(frac > 0.0 && frac.is_finite()) {
                return Err("twocore demand fraction must be positive".into());
            }
            Ok(Some(BgPattern::TwoCore { demand_frac: frac }))
        }
    }
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            app: "jacobi2d".into(),
            cores: 8,
            strategy: "cloudrefine".into(),
            iters: 100,
            seeds: vec![1],
            json: false,
            fast: false,
            scenario_file: None,
            fail: Vec::new(),
            telemetry: None,
            net_fault: None,
            membership: None,
            jobs: None,
            fast_forward: None,
            bg: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().cloned().ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--app" => o.app = value("--app")?,
                "--cores" => {
                    o.cores = value("--cores")?.parse().map_err(|e| format!("--cores: {e}"))?
                }
                "--strategy" => o.strategy = value("--strategy")?,
                "--iters" => {
                    o.iters = value("--iters")?.parse().map_err(|e| format!("--iters: {e}"))?
                }
                "--seed" => {
                    o.seeds = vec![value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?]
                }
                "--json" => o.json = true,
                "--fast" => o.fast = true,
                "--jobs" => {
                    let jobs: usize =
                        value("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?;
                    if jobs == 0 {
                        return Err("--jobs must be >= 1".into());
                    }
                    o.jobs = Some(jobs);
                }
                "--fast-forward" => {
                    o.fast_forward = Some(
                        FastForward::parse(&value("--fast-forward")?)
                            .map_err(|e| format!("--fast-forward: {e}"))?,
                    );
                }
                "--bg" => {
                    o.bg = parse_bg(&value("--bg")?).map_err(|e| format!("--bg: {e}"))?;
                }
                "--scenario" => o.scenario_file = Some(value("--scenario")?),
                "--fail" => {
                    for spec in value("--fail")?.split(',') {
                        o.fail.push(
                            FailSpec::parse(spec).map_err(|e| format!("--fail: {e}"))?,
                        );
                    }
                }
                "--telemetry-noise" => {
                    let spec = TelemetrySpec::parse(&value("--telemetry-noise")?)
                        .map_err(|e| format!("--telemetry-noise: {e}"))?;
                    o.telemetry = spec.is_active().then_some(spec);
                }
                "--net-fault" => {
                    let spec = NetFaultSpec::parse(&value("--net-fault")?)
                        .map_err(|e| format!("--net-fault: {e}"))?;
                    o.net_fault = spec.is_active().then_some(spec);
                }
                "--membership" => {
                    let raw = value("--membership")?;
                    if raw == "none" {
                        o.membership = None;
                    } else {
                        let spec = MembershipSpec::parse(&raw)
                            .map_err(|e| format!("--membership: {e}"))?;
                        o.membership = spec.is_active().then_some(spec);
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if o.cores == 0 || !o.cores.is_multiple_of(4) {
            return Err("--cores must be a positive multiple of 4 (4-core nodes)".into());
        }
        if o.iters == 0 {
            return Err("--iters must be positive".into());
        }
        Ok(o)
    }

    fn cores_list(&self) -> Vec<usize> {
        if self.fast {
            vec![4, 8]
        } else {
            vec![4, 8, 16, 32]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.app, "jacobi2d");
        assert_eq!(o.cores, 8);
        assert!(!o.json);
        assert_eq!(o.cores_list(), vec![4, 8, 16, 32]);
    }

    #[test]
    fn full_flag_set() {
        let o = parse(&[
            "--app", "mol3d", "--cores", "16", "--strategy", "commrefine", "--iters", "50",
            "--seed", "9", "--json", "--fast",
        ])
        .unwrap();
        assert_eq!(o.app, "mol3d");
        assert_eq!(o.cores, 16);
        assert_eq!(o.strategy, "commrefine");
        assert_eq!(o.iters, 50);
        assert_eq!(o.seeds, vec![9]);
        assert!(o.json && o.fast);
        assert_eq!(o.cores_list(), vec![4, 8]);
    }

    #[test]
    fn rejections() {
        assert!(parse(&["--cores", "6"]).is_err());
        assert!(parse(&["--cores"]).is_err());
        assert!(parse(&["--iters", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--fail", "core:2"]).is_err());
        assert!(parse(&["--fail", "disk:0@0.5"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "four"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
    }

    #[test]
    fn jobs_flag_parses() {
        assert_eq!(parse(&[]).unwrap().jobs, None);
        assert_eq!(parse(&["--jobs", "4"]).unwrap().jobs, Some(4));
    }

    #[test]
    fn fast_forward_flag_parses() {
        assert_eq!(parse(&[]).unwrap().fast_forward, None);
        assert_eq!(parse(&["--fast-forward", "on"]).unwrap().fast_forward, Some(FastForward::On));
        assert_eq!(
            parse(&["--fast-forward", "off"]).unwrap().fast_forward,
            Some(FastForward::Off)
        );
        assert_eq!(
            parse(&["--fast-forward", "auto"]).unwrap().fast_forward,
            Some(FastForward::Auto)
        );
        assert!(parse(&["--fast-forward", "warp"]).is_err());
        assert!(parse(&["--fast-forward"]).is_err());
    }

    #[test]
    fn bg_flag_parses() {
        assert_eq!(parse(&[]).unwrap().bg, None);
        assert_eq!(parse(&["--bg", "paper"]).unwrap().bg, None);
        assert_eq!(parse(&["--bg", "none"]).unwrap().bg, Some(BgPattern::None));
        assert_eq!(
            parse(&["--bg", "twocore:0.25"]).unwrap().bg,
            Some(BgPattern::TwoCore { demand_frac: 0.25 })
        );
        assert!(parse(&["--bg", "threecore"]).is_err());
        assert!(parse(&["--bg", "twocore:-1"]).is_err());
        assert!(parse(&["--bg"]).is_err());
    }

    #[test]
    fn telemetry_noise_flag_parses_presets_and_custom_specs() {
        let o = parse(&["--telemetry-noise", "noisy_cloud"]).unwrap();
        let spec = o.telemetry.expect("preset is active");
        assert!(spec.is_active());
        assert!(spec.drop > 0.0 && spec.steal > 0.0);

        let o = parse(&["--telemetry-noise", "jitter:0.1,drop:0.2"]).unwrap();
        let spec = o.telemetry.unwrap();
        assert!((spec.jitter - 0.1).abs() < 1e-12);
        assert!((spec.drop - 0.2).abs() < 1e-12);

        // An inactive spec is treated as "no telemetry corruption".
        assert!(parse(&["--telemetry-noise", "none"]).unwrap().telemetry.is_none());
        assert!(parse(&["--telemetry-noise", "bogus:1"]).is_err());
        assert!(parse(&["--telemetry-noise"]).is_err());
    }

    #[test]
    fn net_fault_flag_parses_presets_and_custom_specs() {
        let o = parse(&["--net-fault", "flaky_cloud"]).unwrap();
        let spec = o.net_fault.expect("preset is active");
        assert!(spec.is_active());
        assert!(spec.loss > 0.0 && !spec.partitions.is_empty());

        let o = parse(&["--net-fault", "loss:0.05,rack:0.4~0.5"]).unwrap();
        let spec = o.net_fault.unwrap();
        assert!((spec.loss - 0.05).abs() < 1e-12);
        assert_eq!(spec.partitions.len(), 1);

        // An inactive spec is treated as "no network chaos".
        assert!(parse(&["--net-fault", "none"]).unwrap().net_fault.is_none());
        assert!(parse(&["--net-fault", "bogus:1"]).is_err());
        assert!(parse(&["--net-fault"]).is_err());
    }

    #[test]
    fn membership_flag_parses_presets_and_custom_specs() {
        let o = parse(&["--membership", "spot_storm"]).unwrap();
        let spec = o.membership.expect("preset is active");
        assert!(spec.is_active());
        assert_eq!(spec.notices.len(), 2);
        assert_eq!(spec.acquisitions.len(), 1);

        let o = parse(&["--membership", "notice:1@0.4+0.25,acquire:0.3"]).unwrap();
        let spec = o.membership.unwrap();
        assert_eq!(spec.notices.len(), 1);
        assert_eq!(spec.notices[0].node, 1);
        assert_eq!(spec.acquisitions.len(), 1);

        // An inactive spec is treated as "static membership".
        assert!(parse(&["--membership", "none"]).unwrap().membership.is_none());
        assert!(parse(&["--membership", "warmup:0.05"]).unwrap().membership.is_none());
        assert!(parse(&["--membership", "bogus:1"]).is_err());
        assert!(parse(&["--membership", "notice:1@0.4"]).is_err());
        assert!(parse(&["--membership"]).is_err());
    }

    #[test]
    fn fail_specs_parse_as_a_comma_list() {
        let o = parse(&["--fail", "core:2@0.5,node:1@0.3~0.8"]).unwrap();
        assert_eq!(o.fail.len(), 2);
        assert!(!o.fail[0].node);
        assert_eq!(o.fail[0].index, 2);
        assert!(o.fail[1].node);
        assert_eq!(o.fail[1].restore_frac, Some(0.8));
    }
}

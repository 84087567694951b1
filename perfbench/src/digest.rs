//! Result digests: the benchmark's correctness check.
//!
//! A digest hashes the physics of every run in run order — what the
//! simulated application, background jobs and chaos layers experienced —
//! and leaves out the engine's own bookkeeping (`sim_events`,
//! `peak_queue_depth`, `ff_windows`, `events_skipped`), so a change that
//! removes events keeps its digest while a change in behaviour does not.
//! Fields are hashed through their `Debug` form, which prints every float
//! with enough digits to round-trip.

use cloudlb_core::EvalPoint;
use cloudlb_runtime::RunResult;
use std::fmt::Debug;

/// Recorded digests, one line per `(workload, seed)`; see the README.
const RECORDED: &str = include_str!("../digests.txt");

/// 64-bit FNV-1a: tiny, stable across toolchains and platforms.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash a named field through its `Debug` form.
    pub fn field(&mut self, name: &str, value: &dyn Debug) {
        self.bytes(name.as_bytes());
        self.bytes(b"=");
        self.bytes(format!("{value:?}").as_bytes());
        self.bytes(b";");
    }

    /// Fold a finished sub-digest in.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one run's physics fields.
pub fn run_digest(r: &RunResult) -> u64 {
    let mut h = Fnv::default();
    h.field("app_time", &r.app_time);
    h.field("iter_times", &r.iter_times);
    h.field("energy", &r.energy);
    h.field("bg_penalties", &r.bg_penalties);
    h.field("lb_steps", &r.lb_steps);
    h.field("migrations", &r.migrations);
    h.field("migration_bytes", &r.migration_bytes);
    h.field("final_mapping", &r.final_mapping);
    h.field("local_msgs", &r.local_msgs);
    h.field("remote_msgs", &r.remote_msgs);
    h.field("end_time", &r.end_time);
    h.field("failures", &r.failures);
    h.field("recoveries", &r.recoveries);
    h.field("replayed_iters", &r.replayed_iters);
    h.field("recovery_time", &r.recovery_time);
    h.field("telemetry", &r.telemetry);
    h.field("decisions", &r.decisions);
    h.field("net", &r.net);
    h.field("elastic", &r.elastic);
    h.finish()
}

/// Digest of a run that returned an error: the error text, so a changed
/// failure mode also changes the digest.
pub fn error_digest(err: &str) -> u64 {
    let mut h = Fnv::default();
    h.field("error", &err);
    h.finish()
}

/// The [`EvalPoint`] means a point digest covers, in field order.
pub const POINT_FIELDS: [&str; 11] = [
    "penalty_nolb",
    "penalty_lb",
    "bg_penalty_nolb",
    "bg_penalty_lb",
    "power_base_w",
    "power_nolb_w",
    "power_lb_w",
    "energy_overhead_nolb",
    "energy_overhead_lb",
    "migrations",
    "lb_steps",
];

/// The physics of one paper-matrix cell: an [`EvalPoint`] without its
/// engine counters.
#[derive(Debug, PartialEq)]
pub struct PointMeans {
    pub app: String,
    pub cores: usize,
    /// Values of [`POINT_FIELDS`].
    pub means: [f64; 11],
}

impl PointMeans {
    pub fn of(p: &EvalPoint) -> PointMeans {
        PointMeans {
            app: p.app.clone(),
            cores: p.cores,
            means: [
                p.penalty_nolb,
                p.penalty_lb,
                p.bg_penalty_nolb,
                p.bg_penalty_lb,
                p.power_base_w,
                p.power_nolb_w,
                p.power_lb_w,
                p.energy_overhead_nolb,
                p.energy_overhead_lb,
                p.migrations,
                p.lb_steps,
            ],
        }
    }

    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.field("app", &self.app);
        h.field("cores", &self.cores);
        for (name, value) in POINT_FIELDS.iter().zip(&self.means) {
            h.field(name, value);
        }
        h.finish()
    }
}

/// A pass's digests. `runs` covers every `RunResult` in run order;
/// `points` covers the paper-matrix means. A pass fills whichever it can
/// observe: `evaluate_cells` hands back only points, the traced sweep
/// both, the serial workloads only runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub runs: Option<u64>,
    pub points: Option<u64>,
}

impl Digest {
    /// Whether `other` agrees on every digest both sides carry.
    pub fn agrees(&self, other: &Digest) -> bool {
        let same = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        same(self.runs, other.runs) && same(self.points, other.points)
    }

    /// Merge the digests `other` carries and this one lacks.
    pub fn fill_from(&mut self, other: &Digest) {
        self.runs = self.runs.or(other.runs);
        self.points = self.points.or(other.points);
    }

    /// The `digests.txt` form: `runs=<hex> points=<hex>`, present fields only.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        if let Some(r) = self.runs {
            parts.push(format!("runs={r:016x}"));
        }
        if let Some(p) = self.points {
            parts.push(format!("points={p:016x}"));
        }
        parts.join(" ")
    }
}

/// The recorded digest for `(workload, seed)`, if the table has one.
pub fn recorded(workload: &str, seed: u64) -> Option<Digest> {
    parse_table(RECORDED)
        .into_iter()
        .find(|(w, s, _)| w == workload && *s == seed)
        .map(|e| e.2)
}

/// Parse `workload seed runs=<hex> [points=<hex>]` lines; `#` starts a
/// comment. Malformed lines are a broken table, so they panic.
pub fn parse_table(text: &str) -> Vec<(String, u64, Digest)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let workload = words
            .next()
            .expect("digest line has a workload")
            .to_string();
        let seed = words
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("digest line {line:?} has no seed"));
        let mut d = Digest::default();
        for w in words {
            let (key, hex) = w
                .split_once('=')
                .unwrap_or_else(|| panic!("bad field {w:?}"));
            let v = u64::from_str_radix(hex, 16).unwrap_or_else(|_| panic!("bad hex {hex:?}"));
            match key {
                "runs" => d.runs = Some(v),
                "points" => d.points = Some(v),
                _ => panic!("unknown digest field {key:?} in {line:?}"),
            }
        }
        out.push((workload, seed, d));
    }
    out
}

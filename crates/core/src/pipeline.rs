//! The sweep engine: a packet-based streaming pipeline, generator →
//! simulate → reduce.
//!
//! The paper's figures come from a matrix of `(app, cores, arm, seed)`
//! cells, every one an independent deterministic simulation. This module
//! is the only code in the workspace that fans such runs across worker
//! threads. Jobs flow through a three-stage pipeline of
//! sequence-numbered **packets**, so a million-cell parameter study never
//! materializes a `Vec` of every run:
//!
//! ```text
//!  generator ──bounded injector──▶ simulate workers ──mpsc──▶ reducer
//!  (lazy iterator,                 (work-stealing deque       (reorder buffer,
//!   credit-throttled)              per worker, steal-half)     submission order)
//! ```
//!
//! * The **generator** drains a lazy iterator on its own thread and
//!   pushes `(seq, item)` packets into a shared injector queue. It is
//!   throttled by a credit counter: at most [`PipelineConfig::window`]
//!   packets may be in flight (issued but not yet consumed in submission
//!   order), which is what bounds every queue, the reorder buffer, and
//!   the number of live results — O(workers) regardless of sweep size.
//! * Each **simulate worker** owns a deque. It pops local work first,
//!   claims half the injector when empty, and steals half a sibling's
//!   deque when the injector is dry — so one slow Mol3D cell keeps
//!   exactly one worker busy while its siblings drain the rest of the
//!   window.
//! * The **reducer** runs on the calling thread. Results arrive over an
//!   mpsc channel in completion order and are reassembled into strict
//!   submission order through a small reorder buffer, so the consumer
//!   callback observes exactly the serial fold — bit-identical results
//!   for any worker count (see `tests/parallel_sweep.rs` and
//!   `tests/pipeline_stream.rs`).
//!
//! [`pipeline_stream`] is the streaming entry point; [`par_map`] collects
//! its output into a `Vec` for callers that want every result at once.
//! `jobs <= 1` short-circuits to a plain serial loop on the calling
//! thread: generator, map and consumer run inline, byte-for-byte the
//! serial path.
//!
//! The worker count comes from, in order of precedence:
//!
//! 1. an explicit `jobs` argument (the CLI's `--jobs`);
//! 2. the `CLOUDLB_JOBS` environment variable;
//! 3. [`std::thread::available_parallelism`] (see [`default_jobs`]).
//!
//! There are no external dependencies — everything is `std` scoped
//! threads, mutexes and channels, like the rest of the workspace.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Resolve the worker count: `CLOUDLB_JOBS` if set (must be a positive
/// integer), otherwise the machine's available parallelism.
///
/// The environment is read **once** and cached for the life of the
/// process — CLIs that honour a `--jobs` flag set `CLOUDLB_JOBS` before
/// the first call (see `src/main.rs`), and every later call sees the
/// same answer. A value of `0` or garbage is rejected with a warning on
/// stderr and falls back to the machine's parallelism instead of
/// silently clamping (or panicking) deep inside a sweep.
pub fn default_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| {
        let fallback = || std::thread::available_parallelism().map_or(1, |n| n.get());
        match std::env::var("CLOUDLB_JOBS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(jobs) if jobs >= 1 => jobs,
                Ok(_) => {
                    eprintln!(
                        "warning: CLOUDLB_JOBS=0 is not a valid worker count; \
                         using available parallelism instead"
                    );
                    fallback()
                }
                Err(_) => {
                    eprintln!(
                        "warning: CLOUDLB_JOBS={v:?} is not a positive integer; \
                         using available parallelism instead"
                    );
                    fallback()
                }
            },
            Err(_) => fallback(),
        }
    })
}

/// Shape of the pipeline: the worker count. The in-flight window follows
/// from it (see [`PipelineConfig::window`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Simulate-stage worker threads.
    pub jobs: usize,
}

impl PipelineConfig {
    /// A pipeline with `jobs` workers (floor 1).
    pub fn new(jobs: usize) -> Self {
        PipelineConfig { jobs: jobs.max(1) }
    }

    /// Total in-flight packet budget: `jobs` plus a reorder slack of
    /// `2 * jobs` (floor 8) — enough for the pool to run ahead of an
    /// occasional slow cell without materially raising the memory bound.
    /// This is the hard bound on live (produced but not yet consumed)
    /// results, and a straggler packet stalls the pool only once the
    /// pool has run this far ahead of it.
    pub fn window(&self) -> usize {
        self.jobs + (2 * self.jobs).max(8)
    }
}

/// Counters the pipeline reports after a run. Everything here is
/// observability — none of it feeds back into results, which stay
/// bit-identical to the serial path by construction.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PipelineStats {
    /// Packets that flowed through the pipeline.
    pub packets: usize,
    /// Wall-clock of the whole run, seconds.
    pub wall_s: f64,
    /// `packets / wall_s`.
    pub packets_per_sec: f64,
    /// Total time workers spent inside the map function, seconds.
    pub busy_s: f64,
    /// `busy_s / (jobs * wall_s)` — fraction of the pool that was doing
    /// real work (1.0 = no worker ever idled).
    pub utilization: f64,
    /// Largest number of results the reorder buffer held at once.
    pub reorder_peak: usize,
    /// Largest number of live results (computed but not yet consumed in
    /// submission order) at any instant. Bounded by
    /// [`PipelineConfig::window`] by construction.
    pub live_peak: usize,
    /// Batches a worker claimed from the shared injector.
    pub injector_claims: u64,
    /// Steal-half operations against a sibling worker's deque.
    pub steals: u64,
    /// Worker count the run used.
    pub jobs: usize,
    /// In-flight budget the run was configured with.
    pub window: usize,
}

impl PipelineStats {
    fn finish(mut self, wall_s: f64) -> Self {
        self.wall_s = wall_s;
        self.packets_per_sec = if wall_s > 0.0 { self.packets as f64 / wall_s } else { 0.0 };
        self.utilization = if wall_s > 0.0 && self.jobs > 0 {
            self.busy_s / (self.jobs as f64 * wall_s)
        } else {
            0.0
        };
        self
    }
}

/// Worker→reducer message: a finished packet, or notice that a worker is
/// unwinding (so the reducer can release everyone instead of waiting for
/// a result that will never come).
enum Msg<R> {
    Done(usize, R),
    Panicked,
}

/// Sends [`Msg::Panicked`] if the owning worker unwinds mid-packet.
struct PanicNotice<R> {
    tx: mpsc::Sender<Msg<R>>,
}

impl<R> Drop for PanicNotice<R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.tx.send(Msg::Panicked);
        }
    }
}

/// Generator⇄reducer credit state: how many packets are in flight, and
/// whether the run is being torn down early.
struct Credits {
    in_flight: usize,
    aborted: bool,
}

/// Injector queue plus the generator-completion flag, under one lock so
/// parked workers cannot miss a wakeup.
struct Injector<T> {
    q: VecDeque<(usize, T)>,
    gen_done: bool,
}

struct Shared<T, R> {
    injector: Mutex<Injector<T>>,
    work_cv: Condvar,
    locals: Vec<Mutex<VecDeque<(usize, T)>>>,
    credits: Mutex<Credits>,
    credit_cv: Condvar,
    /// Packets sitting in *some* queue (injector or a local deque),
    /// i.e. visible to an idle worker scanning for work.
    queued: AtomicUsize,
    /// Results computed but not yet consumed in submission order.
    live: AtomicUsize,
    live_peak: AtomicUsize,
    injector_claims: AtomicU64,
    steals: AtomicU64,
    busy_ns: AtomicU64,
    /// Total packets the generator issued; valid once `gen_complete`.
    total: AtomicUsize,
    gen_complete: AtomicBool,
    aborted: AtomicBool,
    _marker: std::marker::PhantomData<fn() -> R>,
}

/// Stream `items` through the pipeline: apply `f` on up to `cfg.jobs`
/// workers and hand every result to `consume` in **submission order**
/// (`consume(0, r0)`, `consume(1, r1)`, …, with no gaps). At most
/// [`PipelineConfig::window`] packets are in flight at any instant, so
/// peak live results is O(jobs) no matter how long the iterator runs.
///
/// A panic inside `f` tears the pipeline down and propagates to the
/// caller; a panic inside `consume` likewise (in-flight packets are
/// abandoned, never silently dropped into the consumer).
pub fn pipeline_stream<T, R, I, F, C>(
    cfg: &PipelineConfig,
    items: I,
    f: F,
    mut consume: C,
) -> PipelineStats
where
    T: Send,
    R: Send,
    I: IntoIterator<Item = T>,
    I::IntoIter: Send,
    F: Fn(T) -> R + Sync,
    C: FnMut(usize, R),
{
    let jobs = cfg.jobs.max(1);
    let window = cfg.window().max(1);
    let t0 = Instant::now();

    if jobs <= 1 {
        // Serial short-circuit: generator, simulate and reduce all run
        // inline on the calling thread.
        let mut packets = 0usize;
        let mut busy_ns = 0u128;
        for (seq, item) in items.into_iter().enumerate() {
            let t = Instant::now();
            let r = f(item);
            busy_ns += t.elapsed().as_nanos();
            consume(seq, r);
            packets += 1;
        }
        let stats = PipelineStats {
            packets,
            wall_s: 0.0,
            packets_per_sec: 0.0,
            busy_s: busy_ns as f64 / 1e9,
            utilization: 0.0,
            reorder_peak: 0,
            live_peak: packets.min(1),
            injector_claims: 0,
            steals: 0,
            jobs: 1,
            window,
        };
        return stats.finish(t0.elapsed().as_secs_f64());
    }

    let shared: Shared<T, R> = Shared {
        injector: Mutex::new(Injector { q: VecDeque::new(), gen_done: false }),
        work_cv: Condvar::new(),
        locals: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
        credits: Mutex::new(Credits { in_flight: 0, aborted: false }),
        credit_cv: Condvar::new(),
        queued: AtomicUsize::new(0),
        live: AtomicUsize::new(0),
        live_peak: AtomicUsize::new(0),
        injector_claims: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        busy_ns: AtomicU64::new(0),
        total: AtomicUsize::new(0),
        gen_complete: AtomicBool::new(false),
        aborted: AtomicBool::new(false),
        _marker: std::marker::PhantomData,
    };
    let shared = &shared;
    let f = &f;
    let (tx, rx) = mpsc::channel::<Msg<R>>();

    let mut reorder_peak = 0usize;

    std::thread::scope(|scope| {
        // --- Generator stage -------------------------------------------
        let gen_tx = tx.clone();
        let iter = items.into_iter();
        scope.spawn(move || {
            let _notice = PanicNotice { tx: gen_tx };
            let mut seq = 0usize;
            // Credits are acquired in batches (everything available under
            // the window) so a release burst from the reducer translates
            // into one generator wakeup and a run of back-to-back pushes,
            // not one wake/sleep cycle per packet.
            let mut budget = 0usize;
            let mut died = false;
            for item in iter {
                if budget == 0 {
                    let mut c = shared.credits.lock().expect("credits poisoned");
                    while c.in_flight >= window && !c.aborted {
                        c = shared.credit_cv.wait(c).expect("credits poisoned");
                    }
                    if c.aborted {
                        died = true;
                        break;
                    }
                    budget = window - c.in_flight;
                    c.in_flight += budget;
                }
                budget -= 1;
                let mut inj = shared.injector.lock().expect("injector poisoned");
                inj.q.push_back((seq, item));
                shared.queued.fetch_add(1, Ordering::SeqCst);
                // One packet needs at most one worker; notify_all here
                // would stampede every parked worker per push.
                shared.work_cv.notify_one();
                drop(inj);
                seq += 1;
            }
            if budget > 0 && !died {
                // Hand back credits acquired for items the iterator never
                // produced, so `in_flight` keeps meaning live packets.
                let mut c = shared.credits.lock().expect("credits poisoned");
                c.in_flight -= budget;
            }
            shared.total.store(seq, Ordering::SeqCst);
            shared.gen_complete.store(true, Ordering::SeqCst);
            let mut inj = shared.injector.lock().expect("injector poisoned");
            inj.gen_done = true;
            shared.work_cv.notify_all();
        });

        // --- Simulate stage: work-stealing workers ----------------------
        for wid in 0..jobs {
            let tx = tx.clone();
            scope.spawn(move || {
                let notice = PanicNotice { tx };
                'work: loop {
                    if shared.aborted.load(Ordering::SeqCst) {
                        break;
                    }
                    // 1. Own deque first (front pop keeps rough
                    //    submission order, which keeps the reorder
                    //    buffer shallow).
                    let mine =
                        shared.locals[wid].lock().expect("deque poisoned").pop_front();
                    if let Some((seq, item)) = mine {
                        run_packet(shared, &notice.tx, f, seq, item);
                        continue;
                    }
                    // 2. Claim from the shared injector: run the head
                    //    packet directly (no local-deque round trip) and
                    //    reserve half the remainder for this worker.
                    let claimed = {
                        let mut inj = shared.injector.lock().expect("injector poisoned");
                        match inj.q.pop_front() {
                            Some(head) => {
                                let take = inj.q.len().div_ceil(2);
                                if take > 0 {
                                    let mut local =
                                        shared.locals[wid].lock().expect("deque poisoned");
                                    for _ in 0..take {
                                        local.push_back(
                                            inj.q.pop_front().expect("len checked"),
                                        );
                                    }
                                }
                                shared.injector_claims.fetch_add(1, Ordering::Relaxed);
                                Some(head)
                            }
                            None => None,
                        }
                    };
                    if let Some((seq, item)) = claimed {
                        run_packet(shared, &notice.tx, f, seq, item);
                        continue;
                    }
                    // 3. Steal half a sibling's deque (from the back:
                    //    the victim keeps the packets it will reach
                    //    soonest).
                    for k in 1..jobs {
                        let victim = (wid + k) % jobs;
                        let mut v = shared.locals[victim].lock().expect("deque poisoned");
                        let len = v.len();
                        if len > 0 {
                            let tail = v.split_off(len - len.div_ceil(2));
                            drop(v);
                            let mut local =
                                shared.locals[wid].lock().expect("deque poisoned");
                            local.extend(tail);
                            drop(local);
                            shared.steals.fetch_add(1, Ordering::Relaxed);
                            continue 'work;
                        }
                    }
                    // 4. Nothing visible: park until the generator
                    //    pushes, or exit once it is done and every
                    //    queue is drained. `queued` only rises under
                    //    the injector lock, so this cannot miss work.
                    let mut inj = shared.injector.lock().expect("injector poisoned");
                    loop {
                        if shared.aborted.load(Ordering::SeqCst) {
                            break 'work;
                        }
                        if !inj.q.is_empty() || shared.queued.load(Ordering::SeqCst) > 0 {
                            break;
                        }
                        if inj.gen_done {
                            break 'work;
                        }
                        inj = shared.work_cv.wait(inj).expect("injector poisoned");
                    }
                }
            });
        }
        drop(tx);

        // --- Reduce stage (this thread): reorder to submission order ----
        let mut buf: BTreeMap<usize, R> = BTreeMap::new();
        let mut next = 0usize;
        loop {
            if shared.gen_complete.load(Ordering::SeqCst)
                && next == shared.total.load(Ordering::SeqCst)
            {
                break;
            }
            match rx.recv() {
                Ok(Msg::Done(seq, r)) => {
                    buf.insert(seq, r);
                    reorder_peak = reorder_peak.max(buf.len());
                    let mut burst = 0usize;
                    while let Some(r) = buf.remove(&next) {
                        // Consume under an abort guard: a panicking
                        // consumer must still release the generator and
                        // the parked workers.
                        let guard = AbortOnUnwind { shared };
                        consume(next, r);
                        std::mem::forget(guard);
                        next += 1;
                        shared.live.fetch_sub(1, Ordering::SeqCst);
                        burst += 1;
                    }
                    if burst > 0 {
                        // Release the whole burst's credits with one lock
                        // and one wakeup (only the generator waits here).
                        let mut c = shared.credits.lock().expect("credits poisoned");
                        c.in_flight -= burst;
                        shared.credit_cv.notify_one();
                    }
                }
                Ok(Msg::Panicked) | Err(mpsc::RecvError) => {
                    // A stage died (or every sender vanished early):
                    // release everyone and let scope exit propagate the
                    // panic.
                    abort(shared);
                    break;
                }
            }
        }
    });

    let stats = PipelineStats {
        packets: shared.total.load(Ordering::SeqCst),
        wall_s: 0.0,
        packets_per_sec: 0.0,
        busy_s: shared.busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
        utilization: 0.0,
        reorder_peak,
        live_peak: shared.live_peak.load(Ordering::SeqCst),
        injector_claims: shared.injector_claims.load(Ordering::Relaxed),
        steals: shared.steals.load(Ordering::Relaxed),
        jobs,
        window,
    };
    stats.finish(t0.elapsed().as_secs_f64())
}

/// Execute one packet on a worker and ship the result to the reducer.
fn run_packet<T, R, F>(
    shared: &Shared<T, R>,
    tx: &mpsc::Sender<Msg<R>>,
    f: &F,
    seq: usize,
    item: T,
) where
    F: Fn(T) -> R,
{
    shared.queued.fetch_sub(1, Ordering::SeqCst);
    let t = Instant::now();
    let r = f(item);
    shared.busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    let live = shared.live.fetch_add(1, Ordering::SeqCst) + 1;
    shared.live_peak.fetch_max(live, Ordering::SeqCst);
    // The reducer may already be gone on an aborted run.
    let _ = tx.send(Msg::Done(seq, r));
}

/// Wake every blocked stage so the scope can unwind.
fn abort<T, R>(shared: &Shared<T, R>) {
    shared.aborted.store(true, Ordering::SeqCst);
    {
        let mut c = shared.credits.lock().expect("credits poisoned");
        c.aborted = true;
        shared.credit_cv.notify_all();
    }
    let _inj = shared.injector.lock().expect("injector poisoned");
    shared.work_cv.notify_all();
}

/// Calls [`abort`] if dropped during an unwind (armed around the
/// consumer callback; defused with `mem::forget` on the happy path).
struct AbortOnUnwind<'a, T, R> {
    shared: &'a Shared<T, R>,
}

impl<T, R> Drop for AbortOnUnwind<'_, T, R> {
    fn drop(&mut self) {
        abort(self.shared);
    }
}

/// Apply `f` to every item on up to `jobs` workers (never more workers
/// than items) and collect the results **in submission order** — the
/// collect-all form of [`pipeline_stream`] for callers that want every
/// result at once. A panic inside `f` propagates to the caller.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let cfg = PipelineConfig::new(jobs.min(items.len()));
    let mut out = Vec::with_capacity(items.len());
    pipeline_stream(&cfg, items, f, |_, r| out.push(r));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cfg(jobs: usize) -> PipelineConfig {
        PipelineConfig::new(jobs)
    }

    #[test]
    fn results_arrive_in_submission_order_for_any_worker_count() {
        // 0 jobs clamps to serial; 64 jobs outnumber every input here.
        for jobs in [0, 1, 2, 4, 8, 64] {
            for n in [0usize, 2, 200] {
                let mut seen = Vec::new();
                let stats = pipeline_stream(&cfg(jobs), 0..n, |i| i * 3, |seq, r| {
                    assert_eq!(r, seq * 3);
                    seen.push(r);
                });
                let want: Vec<usize> = (0..n).map(|i| i * 3).collect();
                assert_eq!(seen, want, "jobs={jobs} n={n}");
                assert_eq!(stats.packets, n);
            }
        }
    }

    #[test]
    fn par_map_matches_serial_map() {
        for (jobs, n) in [(0, 2u64), (4, 123), (64, 2)] {
            let items: Vec<u64> = (0..n).collect();
            let out = par_map(jobs, items.clone(), |i| i * i);
            assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn straggler_does_not_idle_the_pool_and_live_stays_bounded() {
        // One slow packet per 16 fast ones; the live-results bound must
        // hold even while the pool runs ahead of the straggler.
        let c = cfg(4);
        let stats = pipeline_stream(
            &c,
            0..170usize,
            |i| {
                if i % 17 == 16 {
                    std::thread::sleep(Duration::from_millis(3));
                }
                i
            },
            |seq, r| assert_eq!(seq, r),
        );
        assert_eq!(stats.packets, 170);
        assert!(
            stats.live_peak <= c.window(),
            "live peak {} exceeded window {}",
            stats.live_peak,
            c.window()
        );
        assert!(stats.reorder_peak <= c.window());
    }

    #[test]
    fn straggler_pins_one_worker_while_the_rest_fill_the_window() {
        // Packet 0 blocks until every other packet the window admits has
        // run, so the test passes only if the siblings run ahead of the
        // straggler all the way to the window edge — and no further,
        // since packet 0 still holds its credit.
        let c = cfg(4);
        let ahead = c.window() - 1;
        let ran = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let stats = pipeline_stream(
            &c,
            0..3 * c.window(),
            |i| {
                if i == 0 {
                    rx.lock()
                        .expect("receiver poisoned")
                        .recv_timeout(Duration::from_secs(10))
                        .expect("no worker ran ahead of the straggler");
                    assert_eq!(ran.load(Ordering::SeqCst), ahead);
                } else if ran.fetch_add(1, Ordering::SeqCst) + 1 == ahead {
                    tx.send(()).expect("straggler gone");
                }
                i
            },
            |seq, r| assert_eq!(seq, r),
        );
        assert_eq!(stats.packets, 3 * c.window());
        assert!(stats.live_peak <= c.window());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let mut n = 0;
        pipeline_stream(
            &cfg(3),
            0..57usize,
            |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i
            },
            |_, _| n += 1,
        );
        assert_eq!(calls.load(Ordering::Relaxed), 57);
        assert_eq!(n, 57);
    }

    #[test]
    fn empty_input_is_fine() {
        let stats = pipeline_stream(&cfg(4), 0..0usize, |i| i, |_, _| {
            panic!("no packet to consume")
        });
        assert_eq!(stats.packets, 0);
        assert_eq!(stats.live_peak, 0);
    }

    #[test]
    fn worker_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            par_map(2, (0..8usize).collect(), |i| {
                if i == 5 {
                    panic!("cell exploded");
                }
                i
            })
        });
        assert!(caught.is_err(), "panic in a worker must reach the caller");
    }

    #[test]
    fn consumer_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            pipeline_stream(&cfg(2), 0..64usize, |i| i, |seq, _| {
                if seq == 10 {
                    panic!("reducer exploded");
                }
            })
        });
        assert!(caught.is_err(), "panic in the consumer must reach the caller");
    }

    #[test]
    fn iterator_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            let items = (0..64usize).inspect(|&i| {
                if i == 20 {
                    panic!("scenario generator exploded");
                }
            });
            pipeline_stream(&cfg(2), items, |i| i, |_, _| {})
        });
        assert!(caught.is_err(), "panic in the scenario iterator must reach the caller");
    }

    #[test]
    fn lazy_generator_is_driven_incrementally() {
        // The generator must never materialize the whole input: the
        // iterator cursor can be at most window + (packets already
        // consumed) at any instant.
        let c = cfg(2);
        let issued = AtomicUsize::new(0);
        let consumed = AtomicUsize::new(0);
        let items = (0..500usize).inspect(|_| {
            let ahead = issued.fetch_add(1, Ordering::SeqCst) + 1;
            let done = consumed.load(Ordering::SeqCst);
            assert!(
                ahead <= done + c.window() + 1,
                "generator ran {ahead} ahead of {done} consumed (window {})",
                c.window()
            );
        });
        pipeline_stream(&c, items, |i| i, |_, _| {
            consumed.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(issued.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn utilization_and_throughput_are_populated() {
        let stats = pipeline_stream(
            &cfg(2),
            0..64usize,
            |i| {
                std::thread::sleep(Duration::from_micros(200));
                i
            },
            |_, _| {},
        );
        assert!(stats.wall_s > 0.0);
        assert!(stats.packets_per_sec > 0.0);
        assert!(stats.busy_s > 0.0);
        assert!(stats.utilization > 0.0 && stats.utilization <= 1.0 + 1e-9);
    }
}

//! MICRO — `EventQueue` slab vs the old HashMap-slot implementation.
//!
//! The simulator's event queue used to park payloads in a
//! `HashMap<u64, Entry>` keyed by sequence number, paying a hash +
//! probe on every schedule, pop, and cancel. The slab rework replaces
//! that with `Vec`-indexed slots and a free-list. This bench vendors a
//! faithful copy of the old queue (below) and measures both on the same
//! deterministic workloads:
//!
//! * `schedule_pop` — interleaved schedule/pop churn at a steady queue
//!   depth, the simulator's hot pattern;
//! * `cancel_churn` — schedule + cancel + reschedule rounds, the wake
//!   token pattern from `sim_exec`.
//!
//! It prints ops/sec per workload plus the slab/HashMap speedup, and
//! asserts that both queues visit identical events.

use cloudlb_sim::{EventQueue, Time};
use std::time::Instant;

/// Faithful copy of the pre-slab queue: payloads in a `HashMap` keyed by
/// sequence number, heap of `(time, seq)` pairs.
mod hashmap_queue {
    use cloudlb_sim::Time;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    pub struct HashQueue<E> {
        heap: BinaryHeap<Reverse<(Time, u64)>>,
        slots: HashMap<u64, (Time, E)>,
        next_seq: u64,
        now: Time,
    }

    impl<E> HashQueue<E> {
        pub fn new() -> Self {
            HashQueue {
                heap: BinaryHeap::new(),
                slots: HashMap::new(),
                next_seq: 0,
                now: Time::ZERO,
            }
        }

        pub fn schedule(&mut self, at: Time, payload: E) -> u64 {
            let at = at.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse((at, seq)));
            self.slots.insert(seq, (at, payload));
            seq
        }

        pub fn cancel(&mut self, handle: u64) -> Option<E> {
            self.slots.remove(&handle).map(|(_, p)| p)
        }

        pub fn pop(&mut self) -> Option<(Time, E)> {
            while let Some(Reverse((at, seq))) = self.heap.pop() {
                if let Some((_, payload)) = self.slots.remove(&seq) {
                    self.now = at;
                    return Some((at, payload));
                }
            }
            None
        }
    }
}

/// Deterministic pseudo-random delay stream (xorshift) — identical for
/// both queues.
fn delays(n: usize) -> Vec<u64> {
    let mut x = 0x9e3779b97f4a7c15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            1 + x % 1000
        })
        .collect()
}

const DEPTH: usize = 64;

/// Interleaved schedule/pop at a steady depth; returns (ops, checksum).
fn slab_schedule_pop(rounds: usize, ds: &[u64]) -> (usize, u64) {
    let mut q: EventQueue<u64> = EventQueue::new();
    for (i, d) in ds.iter().enumerate().take(DEPTH) {
        q.schedule(Time::from_us(*d), i as u64);
    }
    let mut sum = 0u64;
    for d in &ds[DEPTH..DEPTH + rounds] {
        let (t, v) = q.pop().expect("live event");
        sum = sum.wrapping_add(v);
        q.schedule(t + cloudlb_sim::Dur::from_us(*d), v);
    }
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    (2 * rounds + 2 * DEPTH, sum)
}

fn hashmap_schedule_pop(rounds: usize, ds: &[u64]) -> (usize, u64) {
    let mut q: hashmap_queue::HashQueue<u64> = hashmap_queue::HashQueue::new();
    for (i, d) in ds.iter().enumerate().take(DEPTH) {
        q.schedule(Time::from_us(*d), i as u64);
    }
    let mut sum = 0u64;
    for d in &ds[DEPTH..DEPTH + rounds] {
        let (t, v) = q.pop().expect("live event");
        sum = sum.wrapping_add(v);
        q.schedule(t + cloudlb_sim::Dur::from_us(*d), v);
    }
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    (2 * rounds + 2 * DEPTH, sum)
}

/// Schedule + cancel + reschedule churn (the wake-token pattern). Times
/// advance by 1 ms per round so every schedule lands in the future.
fn slab_cancel_churn(rounds: usize, ds: &[u64]) -> (usize, u64) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut live = 0usize;
    let mut sum = 0u64;
    for (i, d) in ds[..rounds].iter().enumerate() {
        let base = i as u64 * 1000;
        let h = q.schedule(Time::from_us(base + 2_000_000), i as u64);
        sum = sum.wrapping_add(q.cancel(h).expect("live"));
        q.schedule(Time::from_us(base + d), i as u64);
        live += 1;
        if live > DEPTH {
            let (_, v) = q.pop().expect("live event");
            sum = sum.wrapping_add(v);
            live -= 1;
        }
    }
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    (3 * rounds, sum)
}

fn hashmap_cancel_churn(rounds: usize, ds: &[u64]) -> (usize, u64) {
    let mut q: hashmap_queue::HashQueue<u64> = hashmap_queue::HashQueue::new();
    let mut live = 0usize;
    let mut sum = 0u64;
    for (i, d) in ds[..rounds].iter().enumerate() {
        let base = i as u64 * 1000;
        let h = q.schedule(Time::from_us(base + 2_000_000), i as u64);
        sum = sum.wrapping_add(q.cancel(h).expect("live"));
        q.schedule(Time::from_us(base + d), i as u64);
        live += 1;
        if live > DEPTH {
            let (_, v) = q.pop().expect("live event");
            sum = sum.wrapping_add(v);
            live -= 1;
        }
    }
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    (3 * rounds, sum)
}

/// Time `f`, returning (ops/sec, checksum). Runs once warm-up, then the
/// measured pass.
fn measure(f: impl Fn() -> (usize, u64)) -> (f64, u64) {
    let _ = f(); // warm-up
    let t0 = Instant::now();
    let (ops, sum) = f();
    (ops as f64 / t0.elapsed().as_secs_f64(), sum)
}

fn main() {
    let fast = std::env::var("CLOUDLB_FAST").is_ok_and(|v| v != "0");
    let rounds = if fast { 200_000 } else { 1_000_000 };
    let ds = delays(rounds + DEPTH);
    cloudlb_bench::header("EventQueue microbench — slab vs HashMap slots");

    let (slab_sp, c1) = measure(|| slab_schedule_pop(rounds, &ds));
    let (hash_sp, c2) = measure(|| hashmap_schedule_pop(rounds, &ds));
    assert_eq!(c1, c2, "schedule/pop workloads must visit identical events");

    let (slab_cc, c3) = measure(|| slab_cancel_churn(rounds, &ds));
    let (hash_cc, c4) = measure(|| hashmap_cancel_churn(rounds, &ds));
    assert_eq!(c3, c4, "cancel-churn workloads must visit identical events");

    let schedule_pop_speedup = slab_sp / hash_sp;
    println!(
        "schedule/pop: slab {:.2} Mops/s vs hashmap {:.2} Mops/s ({:.2}x)",
        slab_sp / 1e6,
        hash_sp / 1e6,
        schedule_pop_speedup
    );
    println!(
        "cancel churn: slab {:.2} Mops/s vs hashmap {:.2} Mops/s ({:.2}x)",
        slab_cc / 1e6,
        hash_cc / 1e6,
        slab_cc / hash_cc
    );
    if schedule_pop_speedup < 1.2 {
        eprintln!(
            "WARNING: slab schedule/pop speedup {schedule_pop_speedup:.2}x is below the 1.2x target"
        );
    }
    println!("MICRO OK");
}

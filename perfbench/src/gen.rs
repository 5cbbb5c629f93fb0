//! The open-loop load generator: a seeded arrival schedule, and a small
//! fixed pool of sender threads that issue each request when it is due.
//!
//! Latency counts from the *due* time, not from when a sender got to the
//! request, so a stall that makes later requests late is charged to
//! them. How late the generator itself ran is reported separately.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seeded arrivals at `rate` per second over `span`: arrival `i` falls at
/// a seeded uniform offset inside its own `1/rate` slot, so the offered
/// load is exact while the spacing still varies. Offsets from the start
/// of the phase, ascending; the same arguments always give the same
/// schedule.
pub fn arrival_schedule(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let slots = (rate * span.as_secs_f64()).floor() as u64;
    (0..slots)
        .map(|i| {
            let u: f64 = rng.gen();
            Duration::from_secs_f64((i as f64 + u) / rate)
        })
        .collect()
}

/// What one request did, in microseconds from the phase start.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    /// Index into the schedule.
    pub index: usize,
    /// When it was due.
    pub due_us: u64,
    /// When a sender issued it.
    pub start_us: u64,
    /// When its reply was in hand.
    pub end_us: u64,
    /// Whether the reply was a correct outcome.
    pub ok: bool,
}

impl Sent {
    /// Due-to-reply latency, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.end_us.saturating_sub(self.due_us) as f64 / 1e3
    }

    /// How late the sender issued it, milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.start_us.saturating_sub(self.due_us) as f64 / 1e3
    }
}

/// Runs `schedule` open-loop from `start` on `senders` threads. Each
/// sender takes the next undispatched request, sleeps until it is due,
/// and calls `op(index)`, which returns whether the outcome was correct.
/// Returns one [`Sent`] per request, in schedule order.
pub fn run_open_loop<F>(start: Instant, schedule: &[Duration], senders: usize, op: F) -> Vec<Sent>
where
    F: Fn(usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let sent = Mutex::new(Vec::with_capacity(schedule.len()));
    let us = |at: Instant| at.saturating_duration_since(start).as_micros() as u64;
    std::thread::scope(|scope| {
        for _ in 0..senders.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(offset) = schedule.get(index) else { break };
                let due = start + *offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let issued = Instant::now();
                let ok = op(index);
                let done = Instant::now();
                let record =
                    Sent { index, due_us: us(due), start_us: us(issued), end_us: us(done), ok };
                sent.lock().expect("sender log poisoned by a panicking sender").push(record);
            });
        }
    });
    let mut sent = sent.into_inner().expect("sender log poisoned by a panicking sender");
    sent.sort_by_key(|s| s.index);
    sent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_its_seed() {
        let a = arrival_schedule(42, 200.0, Duration::from_secs(2));
        let b = arrival_schedule(42, 200.0, Duration::from_secs(2));
        let c = arrival_schedule(43, 200.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        for (i, at) in a.iter().enumerate() {
            let slot = Duration::from_millis(5);
            assert!(*at >= slot * i as u32 && *at < slot * (i as u32 + 1), "arrival {i} at {at:?}");
        }
    }

    #[test]
    fn open_loop_times_from_due_and_runs_every_request() {
        let schedule: Vec<Duration> = (0..20).map(Duration::from_millis).collect();
        let start = Instant::now();
        let sent = run_open_loop(start, &schedule, 2, |index| {
            std::thread::sleep(Duration::from_millis(3));
            index % 2 == 0
        });
        assert_eq!(sent.len(), 20);
        assert!(sent.iter().enumerate().all(|(i, s)| s.index == i));
        for s in &sent {
            assert!(s.start_us >= s.due_us && s.end_us >= s.start_us);
            assert!(s.latency_ms() >= 3.0 && s.latency_ms() >= s.late_ms());
        }
        // Two senders at 3 ms per request cannot keep a 1 ms schedule.
        assert!(sent.last().is_some_and(|s| s.late_ms() > 5.0));
        assert_eq!(sent.iter().filter(|s| s.ok).count(), 10);
    }
}

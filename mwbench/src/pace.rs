//! Open-loop pacing and the generator's lateness accounting.
//!
//! Every operation has a due time fixed before the run starts. Latency
//! is timed from the due time, so a stall of the system under test
//! shows up in every operation queued behind it. Lateness splits in
//! two: the *backlog* (the previous call was still running at the due
//! time, which is the system's doing) and the generator's *own*
//! lateness (it woke up or started late although nothing was in the
//! way). Only the second can make a run invalid.

use std::time::{Duration, Instant};

/// A run whose generator was late by more than this at its p99 is
/// invalid: its latencies measure the load generator, not the system.
pub const OWN_LATE_LIMIT: Duration = Duration::from_millis(5);

/// Sleep granularity margin: the last stretch before a due time is
/// spun, because a sleeping thread wakes tens of microseconds late.
pub const SPIN: Duration = Duration::from_micros(200);

/// Blocks until `due`: sleeps while more than `spin` from it, then
/// spins. A generator that spins throughout keeps its core, so the
/// system under test, called on the same thread, never starts on a
/// core that just woke up.
pub fn wait_until(due: Instant, spin: Duration) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > spin {
            std::thread::sleep(left - spin);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Due time of operation `i` at `rate` operations per second from `t0`.
#[must_use]
pub fn due(t0: Instant, i: usize, rate: f64) -> Instant {
    t0 + Duration::from_secs_f64(i as f64 / rate)
}

/// Per-operation lateness, split into the generator's own share and the
/// backlog the system left behind.
#[derive(Debug, Default, Clone)]
pub struct Lateness {
    /// Generator's own lateness per operation, microseconds.
    pub own_us: Vec<f64>,
    /// Operations that started behind a still-running previous call.
    pub backlogged: u64,
}

impl Lateness {
    /// Records one operation that was `due`, started at `start`, and
    /// whose predecessor returned at `prev_end`.
    pub fn record(&mut self, due: Instant, start: Instant, prev_end: Option<Instant>) {
        let ready = match prev_end {
            Some(end) if end > due => {
                self.backlogged += 1;
                end
            }
            _ => due,
        };
        self.own_us
            .push(start.saturating_duration_since(ready).as_secs_f64() * 1e6);
    }

    /// Records a closed-loop operation: the generator made the system
    /// wait `gap` between the previous return and this submission.
    pub fn record_gap(&mut self, gap: Duration) {
        self.own_us.push(gap.as_secs_f64() * 1e6);
    }

    /// p99 (or the highest supported tail) of the own lateness, µs.
    #[must_use]
    pub fn p99_us(&self) -> f64 {
        crate::stats::tail(&crate::stats::sorted(self.own_us.clone()), 0.99).1
    }

    /// Whether the generator kept to its schedule.
    #[must_use]
    pub fn valid(&self) -> bool {
        self.p99_us() <= OWN_LATE_LIMIT.as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_is_not_the_generators_fault() {
        let t0 = Instant::now();
        let mut late = Lateness::default();
        // Previous call ran 5 ms past the due time; the generator
        // started 10 µs after it returned.
        let due = t0;
        let prev_end = t0 + Duration::from_millis(5);
        let start = prev_end + Duration::from_micros(10);
        late.record(due, start, Some(prev_end));
        assert_eq!(late.backlogged, 1);
        assert!((late.own_us[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn late_wakeup_is_the_generators_fault() {
        let t0 = Instant::now();
        let mut late = Lateness::default();
        late.record(
            t0,
            t0 + Duration::from_millis(6),
            Some(t0 - Duration::from_millis(1)),
        );
        assert_eq!(late.backlogged, 0);
        assert!((late.own_us[0] - 6000.0).abs() < 1e-6);
        assert!(!late.valid(), "a 6 ms own lateness invalidates the run");
    }

    #[test]
    fn starting_early_counts_as_on_time() {
        let t0 = Instant::now();
        let mut late = Lateness::default();
        late.record(t0 + Duration::from_millis(1), t0, None);
        assert_eq!(late.own_us[0], 0.0);
        assert!(late.valid());
    }

    #[test]
    fn closed_loop_gaps_are_own_lateness() {
        let mut late = Lateness::default();
        for _ in 0..100 {
            late.record_gap(Duration::from_micros(40));
        }
        assert!((late.p99_us() - 40.0).abs() < 1e-6);
    }

    #[test]
    fn wait_until_does_not_return_early() {
        let due = Instant::now() + Duration::from_millis(2);
        wait_until(due, SPIN);
        assert!(Instant::now() >= due);
    }
}

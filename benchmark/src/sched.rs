//! The open-loop generator: operations are *due* on a fixed schedule and
//! are timed from when they were due, not from when they were sent.
//!
//! Operation `k` of a connection is due at `start + k·period`. The
//! generator sleeps until then, runs the operation, and records
//! `done − due`: when the system stalls, every operation the stall delays
//! is charged its wait, which a closed loop would silently skip
//! (coordinated omission). How late the generator itself woke is recorded
//! separately as *lag*, so a disturbed host is reported, never hidden.

use std::time::{Duration, Instant};

/// A monotonic clock the scheduler can sleep on; tests substitute a fake.
pub trait Clock {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&self) -> u64;
    /// Blocks until `now_ns() >= deadline_ns` (returns at once if past).
    fn sleep_until(&self, deadline_ns: u64);
}

/// The real clock: `Instant` + `thread::sleep`.
#[derive(Debug, Clone, Copy)]
pub struct MonoClock {
    epoch: Instant,
}

impl MonoClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        MonoClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonoClock {
    fn default() -> Self {
        MonoClock::new()
    }
}

impl Clock for MonoClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, deadline_ns: u64) {
        let now = self.now_ns();
        if deadline_ns > now {
            std::thread::sleep(Duration::from_nanos(deadline_ns - now));
        }
    }
}

/// One connection's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// When operation 0 is due.
    pub start_ns: u64,
    /// Gap between due times.
    pub period_ns: u64,
    /// Length of one measurement window.
    pub window_ns: u64,
    /// Number of windows; no operation is due at or after
    /// `start + windows·window` of the *first* connection's clock, which
    /// the caller passes as `end_ns`.
    pub end_ns: u64,
    /// When window 0 begins (the same for every connection, so staggered
    /// connections pool into the same windows).
    pub origin_ns: u64,
}

/// One completed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSample {
    /// Window the operation was due in.
    pub window: usize,
    /// `done − due`.
    pub latency_ns: u64,
    /// How late the generator woke: `woke − due`.
    pub lag_ns: u64,
    /// When the generator woke (span start for a traced run).
    pub woke_ns: u64,
    /// When the operation completed (span end for a traced run).
    pub done_ns: u64,
}

/// Runs the schedule to its end, calling `op(k)` for each due operation
/// and handing each finished [`OpSample`] to `record`.
pub fn run_open_loop<C: Clock>(
    clock: &C,
    schedule: &Schedule,
    mut op: impl FnMut(u64),
    mut record: impl FnMut(OpSample),
) {
    let mut k = 0u64;
    loop {
        let due = schedule.start_ns + k * schedule.period_ns;
        if due >= schedule.end_ns {
            return;
        }
        clock.sleep_until(due);
        let woke = clock.now_ns();
        op(k);
        let done = clock.now_ns();
        record(OpSample {
            window: ((due - schedule.origin_ns) / schedule.window_ns) as usize,
            latency_ns: done.saturating_sub(due),
            lag_ns: woke.saturating_sub(due),
            woke_ns: woke,
            done_ns: done,
        });
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when someone sleeps on it or an operation
    /// "takes" time.
    struct FakeClock {
        now: Cell<u64>,
    }

    impl FakeClock {
        fn advance(&self, ns: u64) {
            self.now.set(self.now.get() + ns);
        }
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }
        fn sleep_until(&self, deadline_ns: u64) {
            self.now.set(self.now.get().max(deadline_ns));
        }
    }

    const PERIOD: u64 = 1_000;
    const SERVICE: u64 = 100;

    fn schedule(ops: u64) -> Schedule {
        Schedule {
            start_ns: 0,
            period_ns: PERIOD,
            window_ns: 4 * PERIOD,
            end_ns: ops * PERIOD,
            origin_ns: 0,
        }
    }

    fn run(ops: u64, stall_at: Option<u64>, stall_ns: u64) -> Vec<OpSample> {
        let clock = FakeClock { now: Cell::new(0) };
        let mut samples = Vec::new();
        run_open_loop(
            &clock,
            &schedule(ops),
            |k| {
                clock.advance(SERVICE);
                if Some(k) == stall_at {
                    clock.advance(stall_ns);
                }
            },
            |s| samples.push(s),
        );
        samples
    }

    #[test]
    fn an_undisturbed_schedule_sees_only_service_time() {
        let samples = run(12, None, 0);
        assert_eq!(samples.len(), 12);
        assert!(samples.iter().all(|s| s.latency_ns == SERVICE));
        assert!(samples.iter().all(|s| s.lag_ns == 0));
        let windows: Vec<usize> = samples.iter().map(|s| s.window).collect();
        assert_eq!(windows, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time_to_every_operation_it_delays() {
        // Operation 2 stalls for 3.5 periods. It completes at
        // 2000 + 100 + 3500 = 5600; operations 3, 4 and 5 were due at
        // 3000, 4000 and 5000 and run back to back behind it.
        let samples = run(10, Some(2), 3_500);
        let latency: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
        let lag: Vec<u64> = samples.iter().map(|s| s.lag_ns).collect();
        assert_eq!(latency[2], SERVICE + 3_500);
        // A closed loop would report 100 for each of these.
        assert_eq!(latency[3], 5_600 + SERVICE - 3_000);
        assert_eq!(latency[4], 5_700 + SERVICE - 4_000);
        assert_eq!(latency[5], 5_800 + SERVICE - 5_000);
        // The generator reports how late it started each of them...
        assert_eq!(&lag[..3], [0, 0, 0]);
        assert_eq!(&lag[3..6], [2_600, 1_700, 800]);
        // ...and the schedule recovers once the backlog is gone.
        assert_eq!(&latency[6..], [SERVICE; 4]);
        assert_eq!(&lag[6..], [0; 4]);
        // Every due operation still ran: nothing was skipped.
        assert_eq!(samples.len(), 10);
    }

    #[test]
    fn delayed_operations_stay_in_the_window_they_were_due_in() {
        // Operation 3 (window 0) stalls across the whole of window 1.
        let samples = run(12, Some(3), 4 * PERIOD);
        let windows: Vec<usize> = samples.iter().map(|s| s.window).collect();
        assert_eq!(windows, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert!(samples[4].latency_ns > 3 * PERIOD);
    }

    #[test]
    fn a_staggered_connection_shares_the_first_connections_windows() {
        let clock = FakeClock { now: Cell::new(0) };
        let staggered = Schedule {
            start_ns: PERIOD / 2,
            ..schedule(8)
        };
        let mut samples = Vec::new();
        run_open_loop(
            &clock,
            &staggered,
            |_| clock.advance(SERVICE),
            |s| samples.push(s),
        );
        // Due at 500, 1500, …, 7500: eight operations before the end.
        assert_eq!(samples.len(), 8);
        assert_eq!(samples[3].window, 0);
        assert_eq!(samples[4].window, 1);
    }
}

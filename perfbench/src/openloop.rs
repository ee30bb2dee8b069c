//! Open-loop request generation: requests fall due on a fixed
//! schedule whatever the system does, and each is timed from when it
//! was due, so a stall also charges the requests it delayed.

use std::time::{Duration, Instant};

/// Time source of the generator (real in runs, simulated in tests).
pub trait Clock {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Block until `at` (no-op when it already passed).
    fn sleep_until(&self, at: Duration);
}

/// How long before a due time the wall clock stops sleeping and spins.
pub const SPIN: Duration = Duration::from_millis(1);

/// The wall clock, measured from its creation.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock with the given origin.
    pub fn from(origin: Instant) -> Self {
        WallClock { origin }
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Sleeps to within [`SPIN`] of `at` and spins the rest: a timer
    /// wake-up of an idle virtual CPU can come milliseconds late, and
    /// that would be charged to the request as if the system were slow.
    fn sleep_until(&self, at: Duration) {
        let now = self.now();
        if at > now + SPIN {
            std::thread::sleep(at - now - SPIN);
        }
        while self.now() < at {
            std::hint::spin_loop();
        }
    }
}

/// One open-loop request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When it was actually sent (`>= due`).
    pub sent: Duration,
    /// When its reply arrived.
    pub done: Duration,
    /// Whether the request succeeded.
    pub ok: bool,
}

impl Sample {
    /// Latency charged to the request: from due to reply.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Issue `op` at `start + k * period` for `k = 0, 1, ...` until
/// `stop()` holds when the next one falls due. A request that comes
/// due while the previous one is outstanding is sent as soon as that
/// one returns, and is still timed from its due time.
pub fn run_open_loop<C: Clock>(
    clock: &C,
    start: Duration,
    period: Duration,
    mut stop: impl FnMut() -> bool,
    mut op: impl FnMut() -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for k in 0u32.. {
        let due = start + period * k;
        clock.sleep_until(due);
        if stop() {
            break;
        }
        let sent = clock.now();
        let ok = op();
        samples.push(Sample {
            due,
            sent,
            done: clock.now(),
            ok,
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A simulated clock: sleeping jumps forward; requests advance it
    /// by their service time.
    struct SimClock(Cell<Duration>);

    impl Clock for SimClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, at: Duration) {
            if at > self.0.get() {
                self.0.set(at);
            }
        }
    }

    #[test]
    fn wall_clock_never_wakes_before_the_due_time() {
        let clock = WallClock::from(Instant::now());
        for at in [Duration::from_micros(300), SPIN * 3, SPIN * 3] {
            clock.sleep_until(at);
            assert!(clock.now() >= at);
        }
    }

    #[test]
    fn latency_is_timed_from_due_not_from_sent() {
        let clock = SimClock(Cell::new(Duration::ZERO));
        let ms = Duration::from_millis;
        // Requests fall due every 10 ms; the third one stalls for
        // 35 ms, so the next three are sent late.
        let mut k = 0;
        let samples = run_open_loop(
            &clock,
            ms(0),
            ms(10),
            || clock.now() >= ms(100),
            || {
                let service = if k == 2 { ms(35) } else { ms(1) };
                k += 1;
                clock.0.set(clock.0.get() + service);
                true
            },
        );
        assert_eq!(samples[3].due, ms(30));
        assert_eq!(samples[3].sent, ms(55));
        assert_eq!(samples[3].lateness(), ms(25));
        // Timed from due (30 ms) to reply (56 ms), not from the send.
        assert_eq!(samples[3].latency(), ms(26));
        assert_eq!(samples[3].done - samples[3].sent, ms(1));
        assert_eq!(samples[4].latency(), ms(17));
        assert_eq!(samples[5].latency(), ms(8));
        // The generator caught up: back on schedule.
        assert_eq!(samples[6].sent, samples[6].due);
        assert_eq!(samples[6].latency(), ms(1));
        assert_eq!(samples.len(), 10);
    }
}

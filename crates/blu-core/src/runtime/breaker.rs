//! Per-cell circuit breaker for fleet inference.
//!
//! A cell whose inference keeps failing (panicking solver, poisoned
//! measurements) must not be re-probed on every probation cycle: each
//! probe burns a full re-measurement phase worth of subframes that
//! healthy cells could spend speculating. The breaker implements the
//! classic three-state machine, clocked in **subframes** (the
//! orchestrator's cursor) rather than wall time so runs stay
//! deterministic and resumable:
//!
//! ```text
//!            failure x threshold                 backoff elapsed
//!  Closed ──────────────────────────▶ Open ─────────────────────▶ HalfOpen
//!    ▲                                 ▲                             │
//!    │ success                         │ failure (backoff doubles)   │
//!    └─────────────────────────────────┴──────────────── probe ──────┘
//! ```
//!
//! * `Closed` — inference runs normally; consecutive failures are
//!   counted.
//! * `Open` — inference is skipped (the cell schedules PF fallback)
//!   until `open_until`; each trip doubles the backoff up to a cap,
//!   with seeded ±jitter so a fleet of cells tripped by one event
//!   doesn't re-probe in lockstep.
//! * `HalfOpen` — one probe is allowed through; success closes the
//!   breaker, failure re-opens it with escalated backoff.
//!
//! Every transition is recorded with its subframe for
//! `RobustRunReport`, and the whole machine (including its jitter RNG)
//! serializes into checkpoints.

use blu_sim::rng::DetRng;
use serde::{Deserialize, Serialize};

/// Breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: requests flow, failures are counted.
    Closed,
    /// Tripped: requests are refused until the backoff elapses.
    Open,
    /// Probing: one request is allowed through to test recovery.
    HalfOpen,
}

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failures (in `Closed`) that trip the breaker.
    pub failure_threshold: u32,
    /// Backoff after the first trip, in subframes.
    pub base_backoff_subframes: u64,
    /// Backoff ceiling, in subframes.
    pub max_backoff_subframes: u64,
    /// Jitter as a fraction of the backoff: the actual wait is
    /// `backoff * (1 ± jitter_frac)`, drawn from the breaker's seeded
    /// RNG.
    pub jitter_frac: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 2,
            base_backoff_subframes: 2_000,
            max_backoff_subframes: 32_000,
            jitter_frac: 0.1,
        }
    }
}

impl BreakerConfig {
    /// Reject configurations that would wedge the machine.
    pub fn validate(&self) -> Result<(), crate::error::BluError> {
        use crate::error::BluError;
        if self.failure_threshold == 0 {
            return Err(BluError::InvalidConfig(
                "breaker failure_threshold must be > 0".into(),
            ));
        }
        if self.base_backoff_subframes == 0 {
            return Err(BluError::InvalidConfig(
                "breaker base_backoff_subframes must be > 0".into(),
            ));
        }
        if self.max_backoff_subframes < self.base_backoff_subframes {
            return Err(BluError::InvalidConfig(
                "breaker max_backoff_subframes must be >= base_backoff_subframes".into(),
            ));
        }
        if !self.jitter_frac.is_finite() || !(0.0..1.0).contains(&self.jitter_frac) {
            return Err(BluError::InvalidConfig(
                "breaker jitter_frac must be finite in [0, 1)".into(),
            ));
        }
        Ok(())
    }
}

/// One recorded state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerTransition {
    /// Subframe at which the transition happened.
    pub at_subframe: u64,
    /// State left.
    pub from: BreakerState,
    /// State entered.
    pub to: BreakerState,
}

/// Answer to [`CircuitBreaker::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPoll {
    /// The request may proceed (and, from `HalfOpen`, is the probe).
    Allow,
    /// The breaker is open for this many more subframes.
    Wait(u64),
}

/// The breaker itself. Clocked externally: every method takes `now`
/// in subframes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    trips: u32,
    open_until: u64,
    rng: DetRng,
    transitions: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    /// A closed breaker with a seeded jitter stream.
    pub fn new(config: BreakerConfig, seed: u64) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
            open_until: 0,
            rng: DetRng::seed_from_u64(seed ^ 0xB4EA_4E4B_0000_0001),
            transitions: Vec::new(),
        }
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u32 {
        self.trips
    }

    /// All recorded transitions, in order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    fn transition(&mut self, now: u64, to: BreakerState) {
        if self.state != to {
            self.transitions.push(BreakerTransition {
                at_subframe: now,
                from: self.state,
                to,
            });
            self.state = to;
        }
    }

    /// May a request proceed at subframe `now`? Transitions
    /// `Open → HalfOpen` when the backoff has elapsed.
    pub fn poll(&mut self, now: u64) -> BreakerPoll {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => BreakerPoll::Allow,
            BreakerState::Open => {
                if now >= self.open_until {
                    self.transition(now, BreakerState::HalfOpen);
                    BreakerPoll::Allow
                } else {
                    BreakerPoll::Wait(self.open_until - now)
                }
            }
        }
    }

    /// Record a successful request: closes the breaker and resets the
    /// failure count and backoff escalation.
    pub fn record_success(&mut self, now: u64) {
        self.consecutive_failures = 0;
        self.trips = 0;
        self.transition(now, BreakerState::Closed);
    }

    /// Record a failed request. From `HalfOpen` (a failed probe) this
    /// re-opens immediately with escalated backoff; from `Closed` it
    /// trips once the threshold is reached.
    pub fn record_failure(&mut self, now: u64) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Closed => {
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip(now);
                }
            }
            // A failure while already open (e.g. replayed from a
            // checkpoint boundary) keeps the current backoff.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: u64) {
        self.trips = self.trips.saturating_add(1);
        let c = &self.config;
        let wait = jittered_backoff(
            c.base_backoff_subframes,
            c.max_backoff_subframes,
            c.jitter_frac,
            self.trips,
            &mut self.rng,
        );
        self.open_until = now.saturating_add(wait);
        self.transition(now, BreakerState::Open);
    }
}

/// The wait before retry `attempt` (1-based), shared by the breaker
/// (in sub-frames) and the supervisor's restart ladder (in rounds):
/// `base * 2^(attempt-1)`, saturating, capped at `cap`, scaled by
/// deterministic jitter in `[1 - jitter_frac, 1 + jitter_frac)` from
/// one draw of `rng`, and at least 1.
pub(crate) fn jittered_backoff(
    base: u64,
    cap: u64,
    jitter_frac: f64,
    attempt: u32,
    rng: &mut DetRng,
) -> u64 {
    let exp = attempt.saturating_sub(1).min(32);
    let backoff = base.saturating_mul(1u64 << exp).min(cap);
    let factor = 1.0 + jitter_frac * (2.0 * rng.f64() - 1.0);
    ((backoff as f64 * factor) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig::default(), 42)
    }

    #[test]
    fn stays_closed_on_success() {
        let mut b = breaker();
        for sf in 0..100 {
            assert_eq!(b.poll(sf), BreakerPoll::Allow);
            b.record_success(sf);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.transitions().is_empty());
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn single_failure_does_not_trip() {
        let mut b = breaker();
        b.record_failure(10);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_success(20);
        b.record_failure(30);
        assert_eq!(b.state(), BreakerState::Closed, "success reset the count");
    }

    #[test]
    fn threshold_trips_and_backoff_gates_retries() {
        let mut b = breaker();
        b.record_failure(10);
        b.record_failure(20);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        match b.poll(21) {
            BreakerPoll::Wait(w) => assert!(w > 0),
            BreakerPoll::Allow => panic!("open breaker must not allow"),
        }
        // Far past the (jittered ~2000 sf) backoff: probe allowed.
        assert_eq!(b.poll(20 + 10_000), BreakerPoll::Allow);
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn failed_probe_escalates_successful_probe_closes() {
        let mut b = breaker();
        b.record_failure(0);
        b.record_failure(1);
        let first_open = match b.poll(2) {
            BreakerPoll::Wait(w) => w,
            _ => panic!(),
        };
        b.poll(100_000); // -> HalfOpen
        b.record_failure(100_000); // failed probe -> Open, doubled
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        let second_open = match b.poll(100_001) {
            BreakerPoll::Wait(w) => w,
            _ => panic!(),
        };
        // Doubled modulo ±10% jitter on both draws.
        assert!(
            second_open as f64 > first_open as f64 * 1.5,
            "backoff must escalate: {first_open} -> {second_open}"
        );

        b.poll(400_000); // -> HalfOpen
        b.record_success(400_000);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0, "success resets escalation");
    }

    #[test]
    fn backoff_saturates_at_cap() {
        let cfg = BreakerConfig::default();
        let mut b = CircuitBreaker::new(cfg, 7);
        let mut now = 0u64;
        for _ in 0..40 {
            b.record_failure(now);
            b.record_failure(now + 1);
            now += 1_000_000; // always past open_until -> HalfOpen probe
            b.poll(now);
        }
        // One more trip; wait must stay within cap * (1 + jitter).
        b.record_failure(now);
        let wait = match b.poll(now + 1) {
            BreakerPoll::Wait(w) => w,
            _ => panic!(),
        };
        let cap = (cfg.max_backoff_subframes as f64 * (1.0 + cfg.jitter_frac)) as u64 + 1;
        assert!(wait <= cap, "wait {wait} exceeds cap {cap}");
    }

    #[test]
    fn transitions_are_recorded_in_order() {
        let mut b = breaker();
        b.record_failure(5);
        b.record_failure(6);
        b.poll(1_000_000);
        b.record_success(1_000_000);
        let kinds: Vec<(BreakerState, BreakerState)> =
            b.transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            kinds,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
        let sfs: Vec<u64> = b.transitions().iter().map(|t| t.at_subframe).collect();
        assert!(sfs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = CircuitBreaker::new(BreakerConfig::default(), 9);
        let mut b = CircuitBreaker::new(BreakerConfig::default(), 9);
        let mut c = CircuitBreaker::new(BreakerConfig::default(), 10);
        for m in [&mut a, &mut b, &mut c] {
            m.record_failure(0);
            m.record_failure(1);
        }
        let wait = |m: &mut CircuitBreaker| match m.poll(2) {
            BreakerPoll::Wait(w) => w,
            _ => panic!(),
        };
        assert_eq!(wait(&mut a), wait(&mut b));
        assert_ne!(wait(&mut a), wait(&mut c), "different seeds jitter apart");
    }

    #[test]
    fn serde_round_trip_preserves_machine() {
        let mut b = breaker();
        b.record_failure(5);
        b.record_failure(6);
        let json = serde_json::to_string(&b).unwrap();
        let mut thawed: CircuitBreaker = serde_json::from_str(&json).unwrap();
        assert_eq!(thawed, b);
        // Identical future: same probe outcome and same jittered wait.
        b.poll(1_000_000);
        thawed.poll(1_000_000);
        b.record_failure(1_000_000);
        thawed.record_failure(1_000_000);
        assert_eq!(thawed, b);
    }

    #[test]
    fn config_validation() {
        assert!(BreakerConfig::default().validate().is_ok());
        for bad in [
            BreakerConfig {
                failure_threshold: 0,
                ..Default::default()
            },
            BreakerConfig {
                base_backoff_subframes: 0,
                ..Default::default()
            },
            BreakerConfig {
                max_backoff_subframes: 1,
                ..Default::default()
            },
            BreakerConfig {
                jitter_frac: f64::NAN,
                ..Default::default()
            },
            BreakerConfig {
                jitter_frac: 1.0,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }
}

//! Deadline-bounded anytime inference.
//!
//! Coexistence in unlicensed spectrum runs on a subframe clock: an
//! inference result that arrives after the scheduling decision it was
//! meant to inform is worthless. Rather than aborting (and losing the
//! work), the inference loops accept a [`DeadlineToken`] and check it
//! once per proposal / repair iteration; on expiry they return the
//! best topology found so far, tagged `completed = false` with an
//! overshoot bound, so the orchestrator can speculate on a coarser
//! blueprint now and refine later.
//!
//! Two arms with different contracts:
//!
//! * [`Deadline::Steps`] — a deterministic work-unit budget. Expiry
//!   is exact (the budget'th unit is the last one executed) and the
//!   result is a pure function of the inputs, so differential tests
//!   can pin it.
//! * [`Deadline::Wall`] — a wall-clock budget. `Instant::now()` is
//!   only consulted every [`DEADLINE_CHECK_EVERY`] units (syscalls per
//!   proposal would dominate the 2 ms inference budget), so at most
//!   one check-batch of work runs past the deadline; the token
//!   reports that bound as `overshoot`.
//!
//! Neither arm consumes randomness, and [`Deadline::None`]
//! short-circuits before touching any counter state, so adding a
//! token to a loop cannot perturb an unbounded run — the
//! no-deadline-bit-identity differential tests rely on this.

use std::time::{Duration, Instant};

use crate::error::BluError;

/// How many work units run between wall-clock checks — and therefore
/// the worst-case number of units that execute past a wall deadline.
pub const DEADLINE_CHECK_EVERY: u32 = 64;

/// An inference time budget.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Deadline {
    /// No budget: run to convergence (the default; bit-identical to
    /// pre-deadline behavior).
    #[default]
    None,
    /// Budget of exactly this many work units (MCMC proposals /
    /// gradient repair iterations). Deterministic.
    Steps(u64),
    /// Wall-clock budget, checked every [`DEADLINE_CHECK_EVERY`]
    /// units.
    Wall(Duration),
}

impl Deadline {
    /// Whether this is the unbounded default.
    pub fn is_none(&self) -> bool {
        matches!(self, Deadline::None)
    }

    /// Reject degenerate budgets (a zero budget would silently return
    /// the initial candidate and look like an inference bug).
    pub fn validate(&self) -> Result<(), BluError> {
        match self {
            Deadline::None => Ok(()),
            Deadline::Steps(0) => Err(BluError::InvalidConfig(
                "deadline step budget must be > 0".into(),
            )),
            Deadline::Steps(_) => Ok(()),
            Deadline::Wall(d) if d.is_zero() => Err(BluError::InvalidConfig(
                "wall-clock deadline must be > 0".into(),
            )),
            Deadline::Wall(_) => Ok(()),
        }
    }

    /// Start the clock: produce a token for one inference run. For
    /// [`Deadline::Wall`] the budget is measured from this call.
    pub fn token(&self) -> DeadlineToken {
        DeadlineToken::new(*self)
    }
}

#[derive(Debug, Clone)]
enum Arm {
    None,
    Steps { budget: u64 },
    Wall { start: Instant, budget: Duration },
}

/// Cancellation token for one inference run.
///
/// Call [`tick`](Self::tick) immediately *before* each work unit; a
/// `true` return means the budget is spent and the unit must not run.
/// Once expired, a token stays expired.
#[derive(Debug, Clone)]
pub struct DeadlineToken {
    arm: Arm,
    /// Work units executed (i.e. ticks that returned `false`).
    units: u64,
    since_check: u32,
    units_at_last_check: u64,
    expired: bool,
    overshoot: u64,
}

impl DeadlineToken {
    /// Build a token for the given budget, starting the wall clock
    /// now.
    pub fn new(deadline: Deadline) -> Self {
        DeadlineToken {
            arm: match deadline {
                Deadline::None => Arm::None,
                Deadline::Steps(budget) => Arm::Steps { budget },
                Deadline::Wall(budget) => Arm::Wall {
                    start: Instant::now(),
                    budget,
                },
            },
            units: 0,
            since_check: 0,
            units_at_last_check: 0,
            expired: false,
            overshoot: 0,
        }
    }

    /// Register intent to execute one more work unit. Returns `true`
    /// when the budget is exhausted (the unit must not run).
    #[inline]
    pub fn tick(&mut self) -> bool {
        match self.arm {
            Arm::None => false,
            _ if self.expired => true,
            Arm::Steps { budget } => {
                if self.units >= budget {
                    self.expired = true;
                    true
                } else {
                    self.units += 1;
                    false
                }
            }
            Arm::Wall { start, budget } => {
                self.since_check += 1;
                if self.since_check >= DEADLINE_CHECK_EVERY {
                    self.since_check = 0;
                    if start.elapsed() >= budget {
                        self.expired = true;
                        // Units that ran after the last check known to
                        // be within budget — an upper bound on
                        // post-deadline work, ≤ one check batch.
                        self.overshoot = self.units - self.units_at_last_check;
                        return true;
                    }
                    self.units_at_last_check = self.units;
                }
                self.units += 1;
                false
            }
        }
    }

    /// Account for `n` work units whose result the caller already
    /// holds (a replayed restart), without running them. Succeeds —
    /// and leaves the token exactly as `n` successful [`tick`]s would
    /// — only when those ticks are guaranteed to succeed:
    ///
    /// * [`Deadline::None`]: always (ticks never fail).
    /// * [`Deadline::Steps`]: when the token is not expired and
    ///   `units + n <= budget`; `units` then advances by `n`.
    /// * [`Deadline::Wall`]: never — whether `n` more units fit is a
    ///   question for the clock, so the caller must run them.
    ///
    /// On failure the token is untouched.
    ///
    /// [`tick`]: Self::tick
    pub fn try_replay(&mut self, n: u64) -> bool {
        match self.arm {
            Arm::None => true,
            Arm::Steps { budget } => {
                let fits = !self.expired && self.units.checked_add(n).is_some_and(|u| u <= budget);
                if fits {
                    self.units += n;
                }
                fits
            }
            Arm::Wall { .. } => false,
        }
    }

    /// Whether the budget ran out.
    pub fn expired(&self) -> bool {
        self.expired
    }

    /// Work units actually executed.
    pub fn units(&self) -> u64 {
        self.units
    }

    /// Upper bound on work units executed past the deadline (0 for
    /// [`Deadline::None`] and [`Deadline::Steps`], at most
    /// [`DEADLINE_CHECK_EVERY`] for [`Deadline::Wall`]).
    pub fn overshoot(&self) -> u64 {
        self.overshoot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires_and_counts_nothing() {
        let mut t = Deadline::None.token();
        for _ in 0..10_000 {
            assert!(!t.tick());
        }
        assert!(!t.expired());
        assert_eq!(t.overshoot(), 0);
    }

    #[test]
    fn steps_budget_is_exact() {
        let mut t = Deadline::Steps(100).token();
        let mut executed = 0u64;
        for _ in 0..1_000 {
            if !t.tick() {
                executed += 1;
            }
        }
        assert_eq!(executed, 100, "exactly the budgeted units run");
        assert!(t.expired());
        assert_eq!(t.units(), 100);
        assert_eq!(t.overshoot(), 0, "step budgets never overshoot");
    }

    #[test]
    fn expired_token_stays_expired() {
        let mut t = Deadline::Steps(1).token();
        assert!(!t.tick());
        assert!(t.tick());
        assert!(t.tick());
        assert_eq!(t.units(), 1);
    }

    #[test]
    fn wall_deadline_expires_with_bounded_overshoot() {
        // A zero-ish budget expires at the very first check.
        let mut t = Deadline::Wall(Duration::from_nanos(1)).token();
        let mut executed = 0u64;
        for _ in 0..100_000 {
            if !t.tick() {
                executed += 1;
            }
        }
        assert!(t.expired());
        assert!(
            executed < u64::from(DEADLINE_CHECK_EVERY),
            "at most one check batch runs: {executed}"
        );
        assert!(t.overshoot() <= u64::from(DEADLINE_CHECK_EVERY));
    }

    #[test]
    fn generous_wall_deadline_does_not_expire() {
        let mut t = Deadline::Wall(Duration::from_secs(3600)).token();
        for _ in 0..10_000 {
            assert!(!t.tick());
        }
        assert!(!t.expired());
        assert_eq!(t.units(), 10_000);
    }

    #[test]
    fn none_always_replays_and_counts_nothing() {
        let mut t = Deadline::None.token();
        assert!(t.try_replay(0));
        assert!(t.try_replay(u64::MAX));
        assert!(!t.expired());
        assert_eq!(t.units(), 0);
    }

    #[test]
    fn steps_replay_fits_exactly_at_the_budget_boundary() {
        let mut t = Deadline::Steps(10).token();
        for _ in 0..3 {
            assert!(!t.tick());
        }
        // 3 + 8 > 10: refused, token untouched.
        assert!(!t.try_replay(8));
        assert_eq!(t.units(), 3);
        assert!(!t.expired());
        // 3 + 7 == 10: fits, and leaves the token exactly where seven
        // successful ticks would.
        let mut ticked = t.clone();
        for _ in 0..7 {
            assert!(!ticked.tick());
        }
        assert!(t.try_replay(7));
        assert_eq!(t.units(), ticked.units());
        assert_eq!(t.expired(), ticked.expired());
        assert!(!t.expired(), "a spent budget expires on the next tick");
        // A zero-unit replay at a full budget still fits; the next
        // unit does not, and the next tick expires the token.
        assert!(t.try_replay(0));
        assert!(!t.try_replay(1));
        assert!(t.tick());
        assert_eq!(t.units(), 10);
        assert_eq!(t.overshoot(), 0);
    }

    #[test]
    fn steps_replay_never_wraps() {
        let mut t = Deadline::Steps(u64::MAX).token();
        assert!(!t.tick());
        assert!(!t.try_replay(u64::MAX));
        assert_eq!(t.units(), 1);
        assert!(t.try_replay(u64::MAX - 1));
        assert_eq!(t.units(), u64::MAX);
    }

    #[test]
    fn expired_token_never_replays() {
        let mut t = Deadline::Steps(1).token();
        assert!(!t.tick());
        assert!(t.tick());
        assert!(t.expired());
        assert!(!t.try_replay(0));
        assert_eq!(t.units(), 1);
    }

    #[test]
    fn wall_never_replays() {
        let mut t = Deadline::Wall(Duration::from_secs(3600)).token();
        assert!(!t.try_replay(0));
        assert!(!t.try_replay(1));
        assert_eq!(t.units(), 0);
        assert!(!t.expired());
    }

    #[test]
    fn validation_rejects_zero_budgets() {
        assert!(Deadline::None.validate().is_ok());
        assert!(Deadline::Steps(1).validate().is_ok());
        assert!(Deadline::Steps(0).validate().is_err());
        assert!(Deadline::Wall(Duration::from_millis(1)).validate().is_ok());
        assert!(Deadline::Wall(Duration::ZERO).validate().is_err());
    }
}

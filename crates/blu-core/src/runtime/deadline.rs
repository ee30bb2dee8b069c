//! Deadline-bounded anytime inference.
//!
//! Coexistence in unlicensed spectrum runs on a subframe clock: an
//! inference result that arrives after the scheduling decision it was
//! meant to inform is worthless. Rather than aborting (and losing the
//! work), the inference loops accept a [`DeadlineToken`] and check it
//! once per proposal / repair iteration; on expiry they return the
//! best topology found so far, tagged `completed = false`, so the
//! orchestrator can speculate on a coarser blueprint now and refine
//! later.
//!
//! The budget is a deterministic work-unit count,
//! [`Deadline::Steps`]: expiry is exact (the budget'th unit is the
//! last one executed) and the result is a pure function of the
//! inputs, so every solve and every fleet round stays reproducible
//! bit for bit and differential tests can pin it. A wall-clock budget
//! would make a solve depend on timing, so there is none.
//!
//! A token consumes no randomness, and [`Deadline::None`]
//! short-circuits before touching any counter state, so adding a
//! token to a loop cannot perturb an unbounded run — the
//! no-deadline-bit-identity differential tests rely on this.

use crate::error::BluError;

/// An inference work budget.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Deadline {
    /// No budget: run to convergence (the default; bit-identical to
    /// pre-deadline behavior).
    #[default]
    None,
    /// Budget of exactly this many work units (MCMC proposals /
    /// gradient repair iterations). Deterministic.
    Steps(u64),
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
            Deadline::Steps(0) => Err(BluError::InvalidConfig(
                "deadline step budget must be > 0".into(),
            )),
            Deadline::None | Deadline::Steps(_) => Ok(()),
        }
    }

    /// Produce a token for one inference run.
    pub fn token(&self) -> DeadlineToken {
        DeadlineToken::new(*self)
    }
}

/// Cancellation token for one inference run.
///
/// Call [`tick`](Self::tick) immediately *before* each work unit; a
/// `true` return means the budget is spent and the unit must not run.
/// Once expired, a token stays expired.
#[derive(Debug, Clone)]
pub struct DeadlineToken {
    /// `None` for [`Deadline::None`]: ticks never fail and count
    /// nothing.
    budget: Option<u64>,
    /// Work units executed (i.e. ticks that returned `false`).
    units: u64,
    expired: bool,
}

impl DeadlineToken {
    /// Build a token for the given budget.
    pub fn new(deadline: Deadline) -> Self {
        DeadlineToken {
            budget: match deadline {
                Deadline::None => None,
                Deadline::Steps(budget) => Some(budget),
            },
            units: 0,
            expired: false,
        }
    }

    /// Register intent to execute one more work unit. Returns `true`
    /// when the budget is exhausted (the unit must not run).
    #[inline]
    pub fn tick(&mut self) -> bool {
        let Some(budget) = self.budget else {
            return false;
        };
        if self.expired || self.units >= budget {
            self.expired = true;
            true
        } else {
            self.units += 1;
            false
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
    ///
    /// On failure the token is untouched.
    ///
    /// [`tick`]: Self::tick
    pub fn try_replay(&mut self, n: u64) -> bool {
        let Some(budget) = self.budget else {
            return true;
        };
        let fits = !self.expired && self.units.checked_add(n).is_some_and(|u| u <= budget);
        if fits {
            self.units += n;
        }
        fits
    }

    /// Whether the budget ran out.
    pub fn expired(&self) -> bool {
        self.expired
    }

    /// Work units actually executed.
    pub fn units(&self) -> u64 {
        self.units
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
        assert_eq!(t.units(), 0);
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
    fn validation_rejects_zero_budgets() {
        assert!(Deadline::None.validate().is_ok());
        assert!(Deadline::Steps(1).validate().is_ok());
        assert!(Deadline::Steps(0).validate().is_err());
    }
}

//! Cooperative computation budgets.
//!
//! A [`Budget`] bounds a long-running computation along four axes —
//! wall-clock deadline, canonical work units ("evals"), search backtracks,
//! and external cancellation — and is *checked in* cooperatively at
//! natural boundaries of the computation (pattern superblocks, optimizer
//! sweeps, PODEM faults).  A tripped budget never discards work: budgeted
//! entry points return a [`RunOutcome::Interrupted`] carrying the partial
//! result plus a [`Progress`] marker, so callers can checkpoint, report,
//! or resume.
//!
//! # Determinism contract
//!
//! The eval and backtrack axes are counted in machine-independent units,
//! and budgeted engines check them at deterministic boundaries, so an
//! interruption at the same budget value yields the *identical* partial
//! result across runs, thread counts, and hosts.  The deadline and
//! cancellation axes depend on wall clock and external timing and are
//! explicitly excluded from any bit-identity claim (the partial result is
//! still well-formed — it just covers a timing-dependent prefix of the
//! work).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::failpoint;

/// Why a budget check-in tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed (timing-dependent; excluded from
    /// bit-identity claims).
    Deadline,
    /// The canonical eval budget is spent (deterministic).
    Evals,
    /// The backtrack budget is spent (deterministic).
    Backtracks,
    /// The cancellation flag was raised (timing-dependent).
    Cancelled,
    /// A fail-point injection forced the interrupt (chaos testing only;
    /// never occurs unless a [`failpoint`](mod@crate::failpoint) session
    /// armed the `budget::check_in` site).
    Injected,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetExceeded::Deadline => write!(f, "wall-clock deadline reached"),
            BudgetExceeded::Evals => write!(f, "eval budget exhausted"),
            BudgetExceeded::Backtracks => write!(f, "backtrack budget exhausted"),
            BudgetExceeded::Cancelled => write!(f, "cancelled"),
            BudgetExceeded::Injected => write!(f, "fail-point injected interrupt"),
        }
    }
}

/// How far a computation got when it was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Work units completed (same unit as `total`).
    pub done: u64,
    /// Work units the full run would have performed, when known upfront.
    pub total: Option<u64>,
    /// Human-readable unit name (`"patterns"`, `"sweeps"`, `"faults"`).
    pub unit: &'static str,
}

impl std::fmt::Display for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.total {
            Some(total) => write!(f, "{}/{} {}", self.done, total, self.unit),
            None => write!(f, "{} {}", self.done, self.unit),
        }
    }
}

/// A budgeted computation's result: complete, or a structured partial.
#[derive(Debug, Clone)]
pub enum RunOutcome<T> {
    /// The computation ran to completion.
    Complete(T),
    /// A budget axis tripped; the work done so far is preserved.
    Interrupted {
        /// The well-formed partial result (covers `progress.done` units).
        partial: T,
        /// Which axis tripped.
        reason: BudgetExceeded,
        /// How far the computation got.
        progress: Progress,
    },
}

impl<T> RunOutcome<T> {
    /// Whether the computation ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete(_))
    }

    /// The (possibly partial) result.
    pub fn value(&self) -> &T {
        match self {
            RunOutcome::Complete(v) | RunOutcome::Interrupted { partial: v, .. } => v,
        }
    }

    /// Consumes the outcome, keeping the (possibly partial) result.
    pub fn into_value(self) -> T {
        match self {
            RunOutcome::Complete(v) | RunOutcome::Interrupted { partial: v, .. } => v,
        }
    }

    /// The interrupt reason, if the run was interrupted.
    pub fn interrupt_reason(&self) -> Option<BudgetExceeded> {
        match self {
            RunOutcome::Complete(_) => None,
            RunOutcome::Interrupted { reason, .. } => Some(*reason),
        }
    }

    /// Maps the carried result, preserving the completion status.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> RunOutcome<U> {
        match self {
            RunOutcome::Complete(v) => RunOutcome::Complete(f(v)),
            RunOutcome::Interrupted {
                partial,
                reason,
                progress,
            } => RunOutcome::Interrupted {
                partial: f(partial),
                reason,
                progress,
            },
        }
    }
}

/// A cooperative budget for a long-running computation.
///
/// All axes are optional; [`Budget::unlimited`] never trips.  The budget
/// is immutable and shareable by reference; cancellation flows through a
/// shared [`AtomicBool`] so an external thread (a signal handler, a
/// server session) can raise it.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_evals: Option<u64>,
    max_backtracks: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// A budget that never trips.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Adds a wall-clock deadline `limit` from now.  A zero duration
    /// deadline trips at the very first check-in: the run performs no
    /// budgeted work and returns an empty partial result.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.deadline = Some(Instant::now() + limit);
        self
    }

    /// Adds a canonical eval budget.  Each budgeted subsystem documents
    /// its eval unit (the fault-simulation path counts one eval per node
    /// per pattern of fault-free simulation; the optimizer counts engine
    /// calls).
    pub fn with_max_evals(mut self, max_evals: u64) -> Self {
        self.max_evals = Some(max_evals);
        self
    }

    /// Adds a total backtrack budget (ATPG search effort).
    pub fn with_max_backtracks(mut self, max_backtracks: u64) -> Self {
        self.max_backtracks = Some(max_backtracks);
        self
    }

    /// Attaches a cancellation flag; raising it (store `true`) interrupts
    /// the computation at its next check-in.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Creates and attaches a cancellation flag, returning it for the
    /// controlling thread to raise.
    pub fn cancel_token(&mut self) -> Arc<AtomicBool> {
        let token = Arc::new(AtomicBool::new(false));
        self.cancel = Some(Arc::clone(&token));
        token
    }

    /// The eval cap, if one is set.
    pub fn max_evals(&self) -> Option<u64> {
        self.max_evals
    }

    /// The backtrack cap, if one is set.
    pub fn max_backtracks(&self) -> Option<u64> {
        self.max_backtracks
    }

    /// Whether no axis is bounded (check-ins can be skipped wholesale).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_evals.is_none()
            && self.max_backtracks.is_none()
            && self.cancel.is_none()
            && !failpoint::any_armed()
    }

    /// One cooperative check-in: `evals` and `backtracks` are the
    /// cumulative deterministic counters of the computation so far.
    ///
    /// Deterministic axes (evals, backtracks) are checked before the
    /// timing-dependent ones (cancellation, deadline), so a run that
    /// trips a deterministic axis reports it consistently even under
    /// wall-clock pressure.
    ///
    /// # Errors
    ///
    /// Returns the first exceeded axis.
    pub fn check_in(&self, evals: u64, backtracks: u64) -> Result<(), BudgetExceeded> {
        if failpoint::hit(failpoint::sites::BUDGET_CHECK_IN).is_err() {
            return Err(BudgetExceeded::Injected);
        }
        if let Some(max) = self.max_evals {
            if evals >= max {
                return Err(BudgetExceeded::Evals);
            }
        }
        if let Some(max) = self.max_backtracks {
            if backtracks >= max {
                return Err(BudgetExceeded::Backtracks);
            }
        }
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Err(BudgetExceeded::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetExceeded::Deadline);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check_in(u64::MAX, u64::MAX).is_ok());
    }

    #[test]
    fn eval_budget_trips_at_the_cap() {
        let b = Budget::unlimited().with_max_evals(100);
        assert!(!b.is_unlimited());
        assert!(b.check_in(99, 0).is_ok());
        assert_eq!(b.check_in(100, 0), Err(BudgetExceeded::Evals));
        assert_eq!(b.check_in(u64::MAX, 0), Err(BudgetExceeded::Evals));
    }

    #[test]
    fn backtrack_budget_trips_at_the_cap() {
        let b = Budget::unlimited().with_max_backtracks(5);
        assert!(b.check_in(0, 4).is_ok());
        assert_eq!(b.check_in(0, 5), Err(BudgetExceeded::Backtracks));
    }

    #[test]
    fn zero_time_limit_trips_immediately() {
        let b = Budget::unlimited().with_time_limit(Duration::ZERO);
        assert_eq!(b.check_in(0, 0), Err(BudgetExceeded::Deadline));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::unlimited().with_time_limit(Duration::from_secs(3600));
        assert!(b.check_in(0, 0).is_ok());
    }

    #[test]
    fn cancellation_flag_trips_on_raise() {
        let mut b = Budget::unlimited();
        let token = b.cancel_token();
        assert!(b.check_in(0, 0).is_ok());
        token.store(true, Ordering::Relaxed);
        assert_eq!(b.check_in(0, 0), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn deterministic_axes_win_over_timing_axes() {
        // Evals and deadline both exceeded: the deterministic reason is
        // reported, so interrupted results stay reproducible.
        let b = Budget::unlimited()
            .with_max_evals(1)
            .with_time_limit(Duration::ZERO);
        assert_eq!(b.check_in(1, 0), Err(BudgetExceeded::Evals));
    }

    #[test]
    fn run_outcome_accessors() {
        let c: RunOutcome<u32> = RunOutcome::Complete(7);
        assert!(c.is_complete());
        assert_eq!(*c.value(), 7);
        assert_eq!(c.interrupt_reason(), None);
        let i = RunOutcome::Interrupted {
            partial: 3u32,
            reason: BudgetExceeded::Evals,
            progress: Progress {
                done: 3,
                total: Some(10),
                unit: "sweeps",
            },
        };
        assert!(!i.is_complete());
        assert_eq!(i.interrupt_reason(), Some(BudgetExceeded::Evals));
        let mapped = i.map(|x| x * 2);
        assert_eq!(mapped.into_value(), 6);
    }

    #[test]
    fn progress_formats_with_and_without_total() {
        let p = Progress {
            done: 3,
            total: Some(10),
            unit: "sweeps",
        };
        assert_eq!(p.to_string(), "3/10 sweeps");
        let q = Progress {
            done: 42,
            total: None,
            unit: "faults",
        };
        assert_eq!(q.to_string(), "42 faults");
    }
}

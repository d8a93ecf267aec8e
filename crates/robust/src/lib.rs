//! Run-to-completion resilience for long weighted-random-test runs.
//!
//! The optimizer descents, fault-coverage sweeps, and deterministic ATPG
//! passes this workspace runs are classic long-batch jobs: minutes to
//! hours of work whose value is destroyed by a single panicked worker, a
//! runaway search, or a killed process.  This crate supplies the four
//! resilience primitives the rest of the workspace threads through:
//!
//! * [`Budget`] / [`RunOutcome`] — cooperative bounds (deadline, canonical
//!   evals, backtracks, cancellation) whose interruptions carry the
//!   partial result and a [`Progress`] marker instead of discarding work
//!   ([`budget`] module).
//! * [`failpoint`](mod@failpoint) — a deterministic, seed-drivable fail-point registry
//!   (zero-cost when disabled) that chaos tests use to prove every
//!   recovery path actually recovers.
//! * [`Checkpoint`] — versioned, checksummed, bit-exact sidecar files for
//!   `--resume` ([`checkpoint`] module).
//! * [`Ladder`] / [`DegradeStep`] — the graceful-degradation record:
//!   which conservative fallbacks a run took and why ([`degrade`]
//!   module).
//!
//! The crate is deliberately leaf-level (no workspace dependencies), so
//! every other crate can use it without cycles.

#![forbid(unsafe_code)]

pub mod budget;
pub mod checkpoint;
pub mod degrade;
pub mod failpoint;

pub use budget::{Budget, BudgetExceeded, Progress, RunOutcome};
pub use checkpoint::{fnv1a, Checkpoint, CheckpointError, CHECKPOINT_VERSION};
pub use degrade::{DegradeStep, Ladder};
pub use failpoint::{FailAction, InjectedFailure};

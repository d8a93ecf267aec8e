//! The graceful-degradation ladder.
//!
//! When a subsystem detects an anomaly — a panicked shard or an aborted
//! guided ATPG search — it does not abort the run.
//! It steps down one rung of a fixed ladder to a simpler, more
//! conservative strategy and records the step, so the run completes
//! (possibly slower) and the report says exactly what was degraded and
//! why.
//!
//! The rungs, per subsystem:
//!
//! | subsystem | preferred            | fallback                    |
//! |-----------|----------------------|-----------------------------|
//! | sim       | sharded worklist     | shard replay (event)        |
//! | sim       | shard replay (event) | shard replay (dense oracle) |
//! | atpg      | guided PODEM         | unguided PODEM              |
//!
//! The simulation fallbacks preserve the bit-identity contract: shard
//! replays and the dense oracle produce the same results as the sharded
//! worklist (that equivalence is property-tested elsewhere), so stepping
//! down trades only speed, never correctness.  ATPG's unguided retry
//! revisits only the faults the guided search aborted.

use std::fmt;

/// One rung stepped down the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeStep {
    /// ATPG retried an aborted fault with guidance disabled.
    GuidedToUnguided,
    /// A poisoned shard's event replay failed too, and the shard was
    /// replayed on the serial dense oracle.
    EventToDense,
    /// A panicked shard's fault worklist was requeued for serial replay.
    ShardRequeue,
}

impl DegradeStep {
    /// Stable machine-readable name (used in reports and bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            DegradeStep::GuidedToUnguided => "guided_to_unguided",
            DegradeStep::EventToDense => "event_to_dense",
            DegradeStep::ShardRequeue => "shard_requeue",
        }
    }
}

impl fmt::Display for DegradeStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeStep::GuidedToUnguided => write!(f, "guided PODEM -> unguided PODEM"),
            DegradeStep::EventToDense => write!(f, "event engine -> dense engine"),
            DegradeStep::ShardRequeue => write!(f, "sharded worklist -> serial replay"),
        }
    }
}

/// An append-only record of the degradation steps a run took, with the
/// anomaly that triggered each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ladder {
    steps: Vec<(DegradeStep, String)>,
}

impl Ladder {
    /// An empty ladder (nothing degraded).
    pub fn new() -> Self {
        Ladder::default()
    }

    /// Records one step down, with the anomaly that triggered it.
    pub fn record(&mut self, step: DegradeStep, trigger: impl Into<String>) {
        self.steps.push((step, trigger.into()));
    }

    /// Whether the run completed without degrading anything.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of steps taken.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// The recorded steps in order, with their triggers.
    pub fn steps(&self) -> &[(DegradeStep, String)] {
        &self.steps
    }

    /// How many times a particular rung was stepped.
    pub fn count(&self, step: DegradeStep) -> usize {
        self.steps.iter().filter(|(s, _)| *s == step).count()
    }

    /// Merges another ladder's steps after this one's (shard merge).
    pub fn merge(&mut self, other: Ladder) {
        self.steps.extend(other.steps);
    }
}

impl fmt::Display for Ladder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return write!(f, "no degradation");
        }
        for (i, (step, trigger)) in self.steps.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{step} ({trigger})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ladder_reports_no_degradation() {
        let l = Ladder::new();
        assert!(l.is_empty());
        assert_eq!(l.len(), 0);
        assert_eq!(l.to_string(), "no degradation");
    }

    #[test]
    fn records_and_counts_steps_in_order() {
        let mut l = Ladder::new();
        l.record(DegradeStep::ShardRequeue, "shard 3 worker panicked");
        l.record(DegradeStep::EventToDense, "shard 3 replay retry 2");
        l.record(DegradeStep::ShardRequeue, "shard 5 worker panicked");
        assert_eq!(l.len(), 3);
        assert_eq!(l.count(DegradeStep::ShardRequeue), 2);
        assert_eq!(l.count(DegradeStep::EventToDense), 1);
        assert_eq!(l.count(DegradeStep::GuidedToUnguided), 0);
        assert_eq!(l.steps()[0].1, "shard 3 worker panicked");
    }

    #[test]
    fn merge_appends_in_order() {
        let mut a = Ladder::new();
        a.record(DegradeStep::GuidedToUnguided, "fault 7 aborted");
        let mut b = Ladder::new();
        b.record(DegradeStep::ShardRequeue, "shard 2 worker panicked");
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.steps()[1].0, DegradeStep::ShardRequeue);
    }

    #[test]
    fn names_are_stable_tokens() {
        for step in [
            DegradeStep::GuidedToUnguided,
            DegradeStep::EventToDense,
            DegradeStep::ShardRequeue,
        ] {
            let name = step.name();
            assert!(name.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn display_lists_each_step_with_trigger() {
        let mut l = Ladder::new();
        l.record(DegradeStep::EventToDense, "why");
        let s = l.to_string();
        assert!(s.contains("dense engine"));
        assert!(s.contains("why"));
    }
}

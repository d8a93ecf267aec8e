//! Compatibility surface of the retired 2D tiled engine.
//!
//! The fault-shard × pattern-stripe scheduler is gone: it drew the whole
//! pattern stream before simulating anything, so it could neither keep a
//! deadline nor bound memory, and the streaming sharded engine
//! (`parallel.rs`) ran the same kernel faster.  What remains is the API
//! the frozen `perfbench/trace` helper still names — [`TileOptions`],
//! [`BatchMode`], [`TileStats`], [`RobustTiledCoverage`] and
//! [`fault_coverage_tiled_robust`], now a forwarder onto
//! [`fault_coverage_robust`].  It goes when that helper does.

use wrt_circuit::Circuit;
use wrt_fault::FaultList;
use wrt_robust::{Budget, RunOutcome};

use crate::coverage::CoverageResult;
use crate::event::SimStats;
use crate::parallel::{fault_coverage_robust, ShardRecovery, SimOptions};
use crate::patterns::PatternSource;

/// Compatibility only: the single batch mode of the retired engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// The only mode.
    #[default]
    Auto,
}

/// Compatibility only: options of the retired 2D tiled engine.  Only
/// `threads` still matters; the width, the stripe and shard counts and
/// the batch mode are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileOptions {
    /// Ignored: the engine runs at [`crate::BLOCK_WORDS`].
    pub block_words: usize,
    /// Ignored.
    pub pattern_stripes: usize,
    /// Ignored: shards follow the thread count.
    pub fault_shards: usize,
    /// Worker threads, or 0 for [`crate::recommended_threads`].
    pub threads: usize,
    /// Ignored.
    pub batch: BatchMode,
}

/// Compatibility only: the retired engine's work counters.  The whole
/// run counts as the later-stripe axis.
#[derive(Debug, Clone, Copy, Default)]
pub struct TileStats {
    /// The run's work counters.
    pub sim: SimStats,
    /// Equal to `sim.node_evals`.
    pub event_node_evals: u64,
    /// Always 0.
    pub probe_node_evals: u64,
    /// Always 0.
    pub batch_dense_faults: u64,
}

/// Compatibility only: a [`fault_coverage_tiled_robust`] payload.
#[derive(Debug, Clone)]
pub struct RobustTiledCoverage {
    /// Detection results over the patterns actually simulated.
    pub result: CoverageResult,
    /// Work counters.
    pub stats: TileStats,
    /// What recovery, if any, the run needed.
    pub recovery: ShardRecovery,
}

/// Compatibility only: [`fault_coverage_robust`] with `opts.threads`
/// threads.
pub fn fault_coverage_tiled_robust(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone + Send,
    num_patterns: u64,
    drop: bool,
    opts: &TileOptions,
    budget: &Budget,
) -> RunOutcome<RobustTiledCoverage> {
    fault_coverage_robust(
        circuit,
        faults,
        source,
        num_patterns,
        drop,
        opts.threads,
        SimOptions::default(),
        budget,
    )
    .map(|run| RobustTiledCoverage {
        result: run.result,
        stats: TileStats {
            sim: run.stats,
            event_node_evals: run.stats.node_evals,
            probe_node_evals: 0,
            batch_dense_faults: 0,
        },
        recovery: run.recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_sim::fault_coverage;
    use crate::patterns::WeightedPatterns;
    use wrt_circuit::parse_bench;
    use wrt_robust::BudgetExceeded;

    fn adder() -> Circuit {
        parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(s)\nOUTPUT(cout)\n\
             x1 = XOR(a, b)\ns = XOR(x1, cin)\na1 = AND(a, b)\na2 = AND(x1, cin)\n\
             cout = OR(a1, a2)\n",
        )
        .unwrap()
    }

    fn opts(words: usize, stripes: usize, shards: usize, threads: usize) -> TileOptions {
        TileOptions {
            block_words: words,
            pattern_stripes: stripes,
            fault_shards: shards,
            threads,
            ..TileOptions::default()
        }
    }

    #[test]
    fn tiled_matches_serial_on_adder() {
        let c = adder();
        let faults = FaultList::full(&c);
        let serial = fault_coverage(&c, &faults, WeightedPatterns::equiprobable(3, 7), 500, true);
        let outcome = fault_coverage_tiled_robust(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 7),
            500,
            true,
            &opts(2, 3, 2, 3),
            &Budget::unlimited(),
        );
        assert!(outcome.is_complete());
        let rc = outcome.into_value();
        assert_eq!(serial, rc.result);
        // The whole run is reported on the later-stripe axis.
        let stats = rc.stats;
        assert!(stats.sim.node_evals > 0);
        assert_eq!(stats.probe_node_evals, 0);
        assert_eq!(stats.event_node_evals, stats.sim.node_evals);
        assert_eq!(stats.batch_dense_faults, 0);
    }

    #[test]
    fn empty_faults_and_zero_patterns_are_fine() {
        let c = adder();
        let unlimited = Budget::unlimited();
        let run = |faults: &FaultList, patterns| {
            let source = WeightedPatterns::equiprobable(3, 1);
            let outcome = fault_coverage_tiled_robust(
                &c,
                faults,
                source,
                patterns,
                true,
                &TileOptions::default(),
                &unlimited,
            );
            assert!(outcome.is_complete());
            outcome.into_value().result
        };
        let result = run(&FaultList::from_faults(vec![]), 64);
        assert_eq!(result.num_faults(), 0);
        let result = run(&FaultList::full(&c), 0);
        assert_eq!(result.num_patterns(), 0);
        assert!(result.detected_at().iter().all(Option::is_none));
    }

    #[test]
    fn robust_eval_budget_clips_deterministically() {
        let c = adder();
        let faults = FaultList::full(&c);
        let nodes = c.num_nodes() as u64;
        let budget = Budget::unlimited().with_max_evals(100 * nodes);
        let clipped = fault_coverage(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 5),
            100,
            false,
        );
        for threads in [1, 3] {
            let outcome = fault_coverage_tiled_robust(
                &c,
                &faults,
                WeightedPatterns::equiprobable(3, 5),
                100_000,
                false,
                &opts(2, 2, 2, threads),
                &budget,
            );
            assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Evals));
            let rc = outcome.into_value();
            assert_eq!(rc.result.detected_at(), clipped.detected_at());
            assert!(rc.recovery.is_clean());
        }
    }

    #[test]
    fn robust_zero_deadline_interrupts_with_a_clean_prefix() {
        let c = adder();
        let faults = FaultList::full(&c);
        let budget = Budget::unlimited().with_time_limit(std::time::Duration::ZERO);
        let outcome = fault_coverage_tiled_robust(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 5),
            1000,
            true,
            &opts(1, 4, 2, 2),
            &budget,
        );
        assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Deadline));
        let rc = outcome.into_value();
        assert_eq!(rc.result.num_patterns(), 0);
        assert!(rc.result.detected_at().iter().all(Option::is_none));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::fault_sim::fault_coverage;
    use crate::patterns::WeightedPatterns;
    use crate::test_support::arb_circuit;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The forwarder is bit-identical to the serial dense engine
        /// across random circuits, thread counts, the ignored width,
        /// stripe and shard counts, and drop modes.
        #[test]
        fn tiled_is_bit_identical_to_serial(
            circuit in arb_circuit(),
            weights in proptest::collection::vec(0.05f64..0.95, 4),
            shape in (0usize..20, 1usize..6, 0usize..40, 0usize..30),
            run in (0u64..1_000, 1u64..700, any::<bool>()),
        ) {
            let (words, threads, stripes, shards) = shape;
            let (seed, patterns, drop) = run;
            let faults = FaultList::full(&circuit);
            let topts = TileOptions {
                block_words: words,
                pattern_stripes: stripes,
                fault_shards: shards,
                threads,
                ..TileOptions::default()
            };
            let dense = fault_coverage(
                &circuit, &faults,
                WeightedPatterns::new(weights.clone(), seed),
                patterns, drop,
            );
            let outcome = fault_coverage_tiled_robust(
                &circuit, &faults,
                WeightedPatterns::new(weights, seed),
                patterns, drop, &topts, &Budget::unlimited(),
            );
            prop_assert!(outcome.is_complete());
            let rc = outcome.into_value();
            prop_assert_eq!(&dense, &rc.result);
            prop_assert!(rc.stats.sim.fault_blocks > 0 || faults.is_empty());
        }

        /// The forwarder over an unlimited budget is complete, clean, and
        /// bit-identical to serial, whatever the ignored stripe count.
        #[test]
        fn tiled_robust_unlimited_matches_serial(
            circuit in arb_circuit(),
            seed in 0u64..200,
            threads in 1usize..5,
            stripes in 0usize..10,
        ) {
            let faults = FaultList::primary_inputs(&circuit);
            let serial = fault_coverage(
                &circuit, &faults,
                WeightedPatterns::equiprobable(4, seed),
                300, true,
            );
            let outcome = fault_coverage_tiled_robust(
                &circuit, &faults,
                WeightedPatterns::equiprobable(4, seed),
                300, true,
                &TileOptions {
                    pattern_stripes: stripes,
                    threads,
                    ..TileOptions::default()
                },
                &Budget::unlimited(),
            );
            prop_assert!(outcome.is_complete());
            let rc = outcome.into_value();
            prop_assert!(rc.recovery.is_clean());
            prop_assert_eq!(serial.detected_at(), rc.result.detected_at());
        }
    }
}

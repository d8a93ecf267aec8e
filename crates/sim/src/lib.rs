//! Bit-parallel logic simulation and stuck-at fault simulation.
//!
//! This crate is the "fault simulation" substrate of the paper's
//! evaluation (Tables 2 and 4, Fig. 2): a 64-way bit-parallel logic
//! simulator ([`LogicSim`]), weighted random pattern sources
//! ([`WeightedPatterns`]), and a parallel-pattern single-fault-propagation
//! (PPSFP) fault simulator ([`FaultSimulator`]) with optional fault
//! dropping and coverage-curve recording.
//!
//! All randomness is deterministic and seed-driven ([`Xoshiro256`]), so
//! every experiment in the workspace is bit-reproducible.
//!
//! # One engine, one inner loop
//!
//! Fault simulation runs through one budgeted, panic-isolated pair,
//! [`fault_coverage_robust`] and [`detection_counts_robust`]: the fault
//! list is cut into cone-locality-aware shards (a fanout-free region
//! never spans two), one worker thread per shard, and the sequential,
//! seed-deterministic pattern stream is broadcast to every worker in
//! bounded chunks — so a run keeps to its deadline and its memory stays
//! flat whatever the pattern count.  `threads = 1` runs one shard.  Every
//! shard worker runs the event kernel ([`EventSimulator`]): event-driven
//! sparse propagation over [`BLOCK_WORDS`]-word superblocks
//! ([`SuperBlock`]) — only nodes actually reached by a fault effect are
//! evaluated, until every flipped pattern is observed, and each
//! evaluation covers `64 * BLOCK_WORDS` patterns.
//! The faults of one fanout-free region are propagated once per
//! superblock from the region's head — the head complemented in the
//! union of their lanes that reach it, each fault detected where those
//! lanes meet the head's observed output differences (exact, since gate
//! evaluation is lane-independent).  See [`EventSimulator`] for the
//! grouping and the ready-set invariants.
//!
//! The [`FaultSimulator`]'s per-fault cone walk over one `u64` block is
//! the serial dense oracle ([`fault_coverage`], [`detection_counts`]).
//! Merging per-shard results by fault id makes the engine bit-identical
//! to it for every thread count — a property-tested invariant.
//! Both entry points also report machine-independent work counters
//! ([`SimStats`]), the metrics `BENCH_sim.json` tracks, and what shard
//! recovery the run needed ([`ShardRecovery`]).
//!
//! [`fault_coverage_tiled_robust`] and its option and stats types are a
//! compatibility forwarder for the retired 2D tiled engine, and
//! [`SimOptions`] is the engine's former, now empty, option set; both
//! stay for the frozen `perfbench/trace` helper.
//!
//! # Example
//!
//! ```
//! use wrt_circuit::parse_bench;
//! use wrt_fault::FaultList;
//! use wrt_sim::{fault_coverage, WeightedPatterns};
//!
//! # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
//! let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
//! let faults = FaultList::checkpoints(&c);
//! let source = WeightedPatterns::equiprobable(c.num_inputs(), 42);
//! let result = fault_coverage(&c, &faults, source, 256, true);
//! assert_eq!(result.coverage(), 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod coverage;
mod event;
mod fault_sim;
mod logic;
mod multiple;
mod parallel;
mod patterns;
mod rng;
#[cfg(test)]
mod test_support;
mod tile;

pub use coverage::{CoverageCurve, CoverageResult};
pub use event::{
    count_set_bits, first_set_bit, superblock_split, EventSimulator, FaultEvalProfile, SimStats,
    SuperBlock,
};
pub use fault_sim::{detection_counts, fault_coverage, FaultSimulator, FaultWorklist};
pub use logic::{eval_gate_lanes, eval_gate_words, simulate_pattern, LogicSim, WideLogicSim};
pub use multiple::{detect_multiple, multiple_fault_coverage, random_multiples};
pub use parallel::{
    available_threads, detection_counts_robust, fault_coverage_robust, recommended_threads,
    RobustCounts, RobustCoverage, ShardRecovery, SimOptions, BLOCK_WORDS,
};
pub use patterns::{ExhaustivePatterns, PatternBlock, PatternSource, WeightedPatterns};
pub use rng::Xoshiro256;
pub use tile::{
    fault_coverage_tiled_robust, BatchMode, RobustTiledCoverage, TileOptions, TileStats,
};

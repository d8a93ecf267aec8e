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
//! # Engines
//!
//! Two PPSFP inner loops share one contract (selected via [`SimOptions`],
//! results always bit-identical):
//!
//! * **dense** ([`FaultSimulator`]) — one `u64` block, per-fault cone
//!   walk; the simple reference engine and the oracle.
//! * **event** ([`EventSimulator`]) — event-driven sparse propagation
//!   over `W`-word superblocks ([`SuperBlock`], `W ∈ {1, 2, 4, 8, 16}`):
//!   only nodes actually reached by a fault effect are evaluated, and
//!   each evaluation covers `64 * W` patterns.  Faults sharing an effect
//!   root are propagated once per superblock — the root complemented in
//!   the union of their excited lanes, each fault detected where its own
//!   excited lanes meet the root's observed output differences (exact,
//!   since gate evaluation is lane-independent).  See [`EventSimulator`]
//!   for the grouping and the ready-set invariants.
//!
//! On top of both sits the **2D tiled engine** ([`fault_coverage_tiled`]):
//! fault-shard × pattern-stripe tiles pulled from a work-stealing queue in
//! two passes — stripe 0 (the first superblock) as one tile per shard,
//! then the later stripes without the faults stripe 0 detected.
//! Bit-identical to serial, with the same gate evals, for every thread
//! count, shard count, and steal order — see the `tile` module docs.
//!
//! [`fault_coverage_opts`] / [`detection_counts_opts`] (and their
//! `_sharded_opts` variants) run the configured engine and also report
//! machine-independent work counters ([`SimStats`]) — the metrics
//! `BENCH_sim.json` tracks.
//!
//! # Sharded PPSFP
//!
//! The serial entry points ([`fault_coverage`], [`detection_counts`]) have
//! sharded counterparts ([`fault_coverage_sharded`],
//! [`detection_counts_sharded`]) that fan the fault list out over worker
//! threads:
//!
//! 1. the collapsed fault list is partitioned into cone-locality-aware,
//!    cost-balanced shards (`wrt_fault::FaultPartition`) — an effect root
//!    never spans two shards, so each root is still propagated once per
//!    superblock and every shard count spends the serial engine's evals;
//! 2. each shard gets a `std::thread::scope` worker owning a private
//!    [`FaultSimulator`] (scratch state, good-value buffers) and a
//!    compacted [`FaultWorklist`] that swap-removes faults on detection,
//!    so late blocks only touch still-undetected faults;
//! 3. the main thread draws blocks from the sequential, seed-deterministic
//!    pattern source and broadcasts them in bounded chunks; workers that
//!    drain their worklist hang up early.
//!
//! Merging per-shard results by fault id makes the sharded engine
//! bit-identical to the serial one for every thread count (a property-
//! tested invariant), while the fault-parallel fan-out scales the paper's
//! Monte-Carlo estimation and validation loops across cores.
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
mod robust;
#[cfg(test)]
mod test_support;
mod tile;

pub use coverage::{CoverageCurve, CoverageResult};
pub use event::{
    count_set_bits, detection_counts_opts, fault_coverage_opts, first_set_bit, superblock_split,
    EventSimulator, FaultEvalProfile, SimEngineKind, SimOptions, SimStats, SuperBlock,
    SUPPORTED_BLOCK_WORDS,
};
pub use tile::{
    detection_counts_tiled, fault_coverage_tiled, fault_coverage_tiled_robust, BatchMode,
    RobustTiledCoverage, TileOptions, TileStats,
};
pub use fault_sim::{detection_counts, fault_coverage, FaultSimulator, FaultWorklist};
pub use parallel::{
    available_threads, detection_counts_sharded, detection_counts_sharded_opts,
    fault_coverage_sharded, fault_coverage_sharded_opts, recommended_threads, ShardRecovery,
};
pub use robust::{
    detection_counts_robust, fault_coverage_robust, RobustCounts, RobustCoverage,
};
pub use multiple::{detect_multiple, multiple_fault_coverage, random_multiples};
pub use logic::{eval_gate_lanes, eval_gate_words, simulate_pattern, LogicSim, WideLogicSim};
pub use patterns::{ExhaustivePatterns, PatternBlock, PatternSource, WeightedPatterns};
pub use rng::Xoshiro256;

//! The fault-simulation engine: sharded, streaming, budgeted PPSFP.
//!
//! PPSFP is embarrassingly parallel across faults: every fault's detection
//! words depend only on the fault-free block values and the fault's own
//! cone.  The engine partitions the fault list into cone-locality-aware
//! shards ([`FaultPartition`]), gives each shard a worker thread with its
//! own event kernel ([`EventSimulator`]) and compacted [`FaultWorklist`],
//! and streams pattern blocks to all workers in bounded chunks.
//! [`fault_coverage_robust`] and [`detection_counts_robust`] are its entry
//! points; `threads = 1` runs one shard.
//!
//! Design:
//!
//! * **One pattern stream, many fault shards.**  The main thread draws
//!   blocks from the (inherently sequential, seed-deterministic) pattern
//!   source and broadcasts reference-counted chunks over bounded channels;
//!   every worker simulates *all* patterns against *its* faults.  Results
//!   are merged by fault id, so the outcome is bit-identical to the serial
//!   dense oracle's — same `detected_at`, same counts — for any thread
//!   count.  A fanout-free region never spans two shards, so the event
//!   kernel still propagates each region head once per superblock and
//!   every shard count spends the same gate evals.
//! * **Duplicated good simulation.**  Each worker re-runs the fault-free
//!   simulation of a block for its own scratch state.  That multiplies the
//!   (cheap, `O(gates)`) good simulation by the shard count but keeps
//!   workers completely independent — no shared mutable state, no locks.
//! * **Compacted worklists + early exit.**  With fault dropping, a worker
//!   swap-removes detected faults and hangs up once its worklist drains;
//!   the producer stops generating as soon as every worker has hung up.
//! * **Bounded memory.**  At most a few chunks are alive per worker,
//!   whatever the pattern count, and a run never draws patterns it will
//!   not simulate.
//!
//! # Budgets
//!
//! The eval axis of the budget is counted in *canonical* units: one eval
//! per circuit node per pattern of fault-free simulation.  That makes
//! `max_evals` a machine- and thread-count-independent measure of the
//! pattern stream, so an eval-budget interruption at the same value
//! yields the *bit-identical* partial result across runs and thread
//! counts: the budget resolves upfront to a deterministic pattern
//! clip `min(num_patterns, max_evals / num_nodes)`.  The real measured
//! work (far lower, since the event kernel evaluates only the nodes a
//! fault effect reaches) is still reported via [`SimStats`].
//!
//! Wall-clock deadlines and cancellation trip at chunk boundaries, so
//! their partial results are well-formed prefixes of the pattern stream —
//! but *which* prefix depends on timing, and they are explicitly excluded
//! from the bit-identity claim.
//!
//! # Panic isolation
//!
//! A worker panic (or an injected spawn/merge failure from an armed
//! fail-point session) does not abort the run: the poisoned shard is
//! requeued for replay against a fresh clone of the pattern source —
//! first on a fresh event worker, then once more on the serial dense
//! oracle ([`crate::fault_coverage`] or [`crate::detection_counts`] on
//! the shard's faults) — which reproduces the lost results
//! bit-identically, because every replay consumes the same deterministic
//! stream.  Replay threads pass the spawn fail point like fan-out
//! workers.  The oracle rung adds no [`SimStats`].  Shards that fail
//! every retry surface their faults in [`ShardRecovery::unresolved`]
//! instead of panicking.
//!
//! `std::thread::scope` keeps everything dependency-free and lets workers
//! borrow the circuit and fault list directly.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

use wrt_circuit::{Circuit, FanoutFreeRegions};
use wrt_fault::{FaultId, FaultList, FaultPartition};
use wrt_robust::failpoint::{self, sites};
use wrt_robust::{
    Budget, BudgetExceeded, DegradeStep, InjectedFailure, Ladder, Progress, RunOutcome,
};

use crate::coverage::CoverageResult;
use crate::event::{
    count_set_bits, first_set_bit, superblock_split, EventSimulator, SimStats, SuperBlock,
};
use crate::fault_sim::{detection_counts, fault_coverage, FaultWorklist};
use crate::patterns::{PatternBlock, PatternSource};

/// The engine's superblock width: each event pass covers
/// `64 * BLOCK_WORDS` patterns.  Results do not depend on it (they are
/// bit-identical to the one-block dense oracle); only the cost does.
pub const BLOCK_WORDS: usize = 4;

/// Compatibility only: the engine's former options.
///
/// The engine runs at one superblock width, [`BLOCK_WORDS`], so there is
/// nothing left to configure.  The type stays because the frozen
/// `perfbench/trace` helper passes `SimOptions::default()` to
/// [`fault_coverage_robust`]; it goes when that helper does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimOptions {
    _private: (),
}

/// Pattern blocks per broadcast chunk (8 Ki patterns): large enough to
/// amortize channel traffic, small enough to bound in-flight memory and
/// to overlap pattern generation with simulation even on short runs.
/// A multiple of the superblock width, so a chunk boundary never cuts a
/// superblock of full blocks: the grouping is the whole stream's,
/// whatever the chunking.
const CHUNK_BLOCKS: usize = 128;

/// Chunks a worker may have queued; the producer blocks beyond that, so
/// at most a few chunks are alive at once regardless of pattern count.
const CHANNEL_DEPTH: usize = 2;

/// A run of consecutive pattern blocks starting at pattern `start`.
#[derive(Debug)]
struct Chunk {
    start: u64,
    blocks: Vec<PatternBlock>,
}

/// What the engine had to do to bring a run to completion.
///
/// A clean run has zero everything.  When a shard worker dies — a real
/// panic or an injected one — the engine requeues that shard's fault
/// worklist for bounded replay (a fresh event worker first, then the
/// serial dense oracle); only faults whose shard failed every retry end
/// up in [`ShardRecovery::unresolved`].
#[derive(Debug, Clone, Default)]
pub struct ShardRecovery {
    /// Worker threads that panicked (original fan-out plus replays).
    pub worker_panics: usize,
    /// Shard replay attempts performed.
    pub replays: usize,
    /// Degradation steps taken ([`DegradeStep::ShardRequeue`], plus
    /// [`DegradeStep::EventToDense`] when a replay fell back to the dense
    /// oracle).
    pub ladder: Ladder,
    /// Faults whose shard exhausted its retries; their entries in the
    /// merged result are unchanged from the initial value (undetected /
    /// zero counts) and must not be interpreted as simulated.
    pub unresolved: Vec<FaultId>,
}

impl ShardRecovery {
    /// Whether every fault's result is accounted for (recovered runs
    /// included — only [`ShardRecovery::unresolved`] faults are lost).
    pub fn fully_recovered(&self) -> bool {
        self.unresolved.is_empty()
    }

    /// Whether the run needed no recovery at all.
    pub fn is_clean(&self) -> bool {
        self.worker_panics == 0 && self.replays == 0 && self.ladder.is_empty()
    }
}

/// A budgeted coverage run's payload: the (possibly partial) coverage,
/// the merged work counters, and the recovery record.
#[derive(Debug, Clone)]
pub struct RobustCoverage {
    /// Detection results over the patterns actually simulated.
    pub result: CoverageResult,
    /// Merged machine-independent work counters.
    pub stats: SimStats,
    /// What recovery, if any, the run needed.
    pub recovery: ShardRecovery,
}

/// A budgeted detection-counts run's payload.
#[derive(Debug, Clone)]
pub struct RobustCounts {
    /// Per-fault detection counts over the patterns actually simulated.
    pub counts: Vec<u64>,
    /// Patterns actually simulated (the denominator for frequencies).
    pub num_patterns: u64,
    /// Merged machine-independent work counters.
    pub stats: SimStats,
    /// What recovery, if any, the run needed.
    pub recovery: ShardRecovery,
}

/// Number of worker threads to use when the caller passes `threads = 0`:
/// the machine's available parallelism (1 if unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Minimum faults per shard when the caller lets us pick the thread
/// count: below this, fan-out overhead dominates any parallel win.
const MIN_FAULTS_PER_SHARD: usize = 16;

/// Resolves a requested thread count against a fault-list size:
/// `0` becomes the machine's available parallelism capped so each
/// auto-chosen shard gets at least a minimum number of faults; explicit
/// counts are honored as given.  Results are identical for every thread
/// count — only the wall clock differs — so callers embedding the engine
/// (e.g. Monte-Carlo estimators) can use this to budget threads without
/// changing outputs.
pub fn recommended_threads(requested: usize, num_faults: usize) -> usize {
    if requested == 0 {
        available_threads()
            .min(num_faults / MIN_FAULTS_PER_SHARD)
            .max(1)
    } else {
        requested
    }
}

/// Budgeted, panic-isolated PPSFP fault coverage: the first detecting
/// pattern of every fault over as many patterns as the budget admits,
/// with structured shard recovery.  With `drop`, a detected fault is no
/// longer simulated.  `threads = 0` resolves via [`recommended_threads`];
/// `threads = 1` runs one shard.  Over the patterns it reports, the
/// result is bit-identical to the dense oracle [`crate::fault_coverage`]
/// for every thread count.  `_opts` configures nothing (see
/// [`SimOptions`]).
// One argument past the lint's threshold: the run's inputs, the retired
// options and the budget.
#[allow(clippy::too_many_arguments)]
pub fn fault_coverage_robust(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone + Send,
    num_patterns: u64,
    drop: bool,
    threads: usize,
    _opts: SimOptions,
    budget: &Budget,
) -> RunOutcome<RobustCoverage> {
    Job::new(circuit, faults, Mode::Coverage { drop })
        .run(source, num_patterns, threads, budget)
        .map(|run| RobustCoverage {
            result: CoverageResult::new(
                run.values
                    .into_iter()
                    .map(|p| (p != UNDETECTED).then_some(p))
                    .collect(),
                run.patterns,
            ),
            stats: run.stats,
            recovery: run.recovery,
        })
}

/// Budgeted, panic-isolated PPSFP detection counts: for every fault, how
/// many of the simulated patterns detect it (no dropping) — the
/// Monte-Carlo estimate of `p_f(X)` is `counts[f] / num_patterns`.  See
/// [`fault_coverage_robust`] for the threads, budget and recovery
/// semantics; counts are bit-identical to [`crate::detection_counts`].
pub fn detection_counts_robust(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone + Send,
    num_patterns: u64,
    threads: usize,
    _opts: SimOptions,
    budget: &Budget,
) -> RunOutcome<RobustCounts> {
    Job::new(circuit, faults, Mode::Counts)
        .run(source, num_patterns, threads, budget)
        .map(|run| RobustCounts {
            counts: run.values,
            num_patterns: run.patterns,
            stats: run.stats,
            recovery: run.recovery,
        })
}

/// A coverage slot's value while its fault is undetected.
const UNDETECTED: u64 = u64::MAX;

/// What a worker records per fault: the first detecting pattern
/// (coverage, with or without fault dropping) or the number of detecting
/// patterns (counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Coverage { drop: bool },
    Counts,
}

impl Mode {
    fn drops(self) -> bool {
        self == Mode::Coverage { drop: true }
    }

    /// A fault's value before any detection.
    fn initial(self) -> u64 {
        match self {
            Mode::Coverage { .. } => UNDETECTED,
            Mode::Counts => 0,
        }
    }

    /// The recording rule: folds the detection lanes of a pass starting at
    /// pattern `base` into a fault's slot.
    fn record(self, slot: &mut u64, base: u64, lanes: &[u64; BLOCK_WORDS]) {
        match self {
            Mode::Coverage { .. } => {
                if *slot == UNDETECTED {
                    let bit = first_set_bit(lanes).expect("a detection sets a bit");
                    *slot = base + u64::from(bit);
                }
            }
            Mode::Counts => *slot += u64::from(count_set_bits(lanes)),
        }
    }
}

/// Shard worker: one [`EventSimulator`] over [`BLOCK_WORDS`]-wide
/// superblocks of the broadcast chunks, grouped by [`superblock_split`]
/// (extend only across full blocks).  Returns when the stream ends or,
/// under dropping, when the worklist drains — dropping `rx` hangs up on
/// the producer.
fn worker(
    circuit: &Circuit,
    regions: &FanoutFreeRegions,
    sublist: &FaultList,
    rx: Receiver<Arc<Chunk>>,
    mode: Mode,
) -> ShardResult {
    let mut sim = EventSimulator::<BLOCK_WORDS>::with_regions(circuit, regions, sublist);
    let mut worklist = FaultWorklist::full(sublist.len());
    let mut local = vec![mode.initial(); sublist.len()];
    let mut sb = SuperBlock::<BLOCK_WORDS>::empty(circuit.num_inputs());
    while let Ok(chunk) = rx.recv() {
        let (mut b, mut done) = (0, chunk.start);
        while b < chunk.blocks.len() {
            if mode.drops() && worklist.is_empty() {
                return (local, sim.stats());
            }
            let take = superblock_split(&chunk.blocks[b..], BLOCK_WORDS);
            sb.refill_from_blocks(&chunk.blocks[b..b + take]);
            sim.detect_superblock_worklist(
                &sb.words,
                sb.mask(),
                &mut worklist,
                mode.drops(),
                |i, w| {
                    mode.record(&mut local[i], done, &w);
                },
            );
            done += u64::from(sb.len);
            b += take;
        }
    }
    (local, sim.stats())
}

/// Draws blocks from `source` and broadcasts them to `senders` in bounded
/// chunks until `num_patterns` patterns are out, every receiver hung up,
/// or the budget (when given, with its canonical evals-per-pattern rate)
/// trips at a chunk boundary.  Returns the patterns streamed and the
/// tripped axis, if any.
fn stream_chunks(
    mut source: impl PatternSource,
    num_patterns: u64,
    mut senders: Vec<SyncSender<Arc<Chunk>>>,
    budget: Option<(&Budget, u64)>,
) -> (u64, Option<BudgetExceeded>) {
    let mut done = 0u64;
    while done < num_patterns && !senders.is_empty() {
        if let Some((budget, evals_per_pattern)) = budget {
            // Check-ins happen at chunk boundaries only, so a trip always
            // leaves a well-formed prefix: every worker has seen exactly
            // the chunks streamed so far.
            if let Err(reason) = budget.check_in(done * evals_per_pattern, 0) {
                return (done, Some(reason));
            }
        }
        let start = done;
        let mut blocks = Vec::with_capacity(CHUNK_BLOCKS);
        while blocks.len() < CHUNK_BLOCKS && done < num_patterns {
            let limit = (num_patterns - done).min(64) as u32;
            let block = source.next_block(limit);
            done += u64::from(block.len);
            blocks.push(block);
        }
        let chunk = Arc::new(Chunk { start, blocks });
        // A send fails when the worker dropped its receiver (worklist
        // drained): stop feeding it, keep the others going.
        senders.retain(|tx| tx.send(Arc::clone(&chunk)).is_ok());
    }
    (done, None)
}

/// One simulation request: what every shard worker and replay runs.
struct Job<'a> {
    circuit: &'a Circuit,
    /// The circuit's fanout-free regions, computed once per run for the
    /// partition and every event worker.
    regions: FanoutFreeRegions,
    faults: &'a FaultList,
    mode: Mode,
}

/// A run's merged per-fault values (in [`Mode`]'s encoding), the patterns
/// they cover, and what it cost.
struct Run {
    values: Vec<u64>,
    patterns: u64,
    stats: SimStats,
    recovery: ShardRecovery,
}

/// A shard's per-fault values (in [`Mode`]'s encoding) and what they
/// cost.
type ShardResult = (Vec<u64>, SimStats);

/// One shard worker's or replay's fate: its results, an injected
/// failure, or a panic.
type Attempt = std::thread::Result<Result<ShardResult, InjectedFailure>>;

impl Run {
    /// Folds one shard attempt in: merges its results by fault id, or
    /// counts a panic.  Returns whether the shard's results are in.
    fn settle(&mut self, shard: &[FaultId], attempt: Attempt) -> bool {
        match attempt {
            Ok(Ok((local, stats))) => {
                self.stats.merge(&stats);
                for (value, &id) in local.into_iter().zip(shard) {
                    self.values[id.index()] = value;
                }
                true
            }
            Ok(Err(_injected)) => false,
            Err(_panic) => {
                self.recovery.worker_panics += 1;
                false
            }
        }
    }
}

impl<'a> Job<'a> {
    fn new(circuit: &'a Circuit, faults: &'a FaultList, mode: Mode) -> Self {
        Job {
            circuit,
            regions: FanoutFreeRegions::new(circuit),
            faults,
            mode,
        }
    }

    /// Resolves the budget's eval clip, runs the sharded scaffold, and
    /// reports a runtime trip first, then the eval clip, as the interrupt.
    fn run(
        self,
        source: impl PatternSource + Clone + Send,
        num_patterns: u64,
        threads: usize,
        budget: &Budget,
    ) -> RunOutcome<Run> {
        let evals_per_pattern = (self.circuit.num_nodes() as u64).max(1);
        let target = budget.max_evals().map_or(num_patterns, |max| {
            (max / evals_per_pattern).min(num_patterns)
        });
        let mut run = Run {
            values: vec![self.mode.initial(); self.faults.len()],
            patterns: target,
            stats: SimStats::default(),
            recovery: ShardRecovery::default(),
        };
        let mut tripped = None;
        if !self.faults.is_empty() {
            let threads = recommended_threads(threads, self.faults.len());
            tripped = self.run_sharded(&mut run, source, threads, (budget, evals_per_pattern));
        }
        let progress = Progress {
            done: run.patterns,
            total: Some(num_patterns),
            unit: "patterns",
        };
        match tripped.or_else(|| (target < num_patterns).then_some(BudgetExceeded::Evals)) {
            Some(reason) => RunOutcome::Interrupted {
                partial: run,
                reason,
                progress,
            },
            None => RunOutcome::Complete(run),
        }
    }

    /// The fan-out: one scoped worker per cone-locality shard, each with
    /// its own bounded chunk channel, then the replay ladder for poisoned
    /// shards.  Simulates up to `run.patterns` patterns, lowering it to
    /// the streamed prefix when the budget trips (returned).
    fn run_sharded(
        &self,
        run: &mut Run,
        source: impl PatternSource + Clone + Send,
        threads: usize,
        budget: (&Budget, u64),
    ) -> Option<BudgetExceeded> {
        let partition = FaultPartition::cone_locality(&self.regions, self.faults, threads);
        let replay_source = source.clone();
        let mut poisoned: Vec<usize> = Vec::new();
        let (streamed, tripped) = std::thread::scope(|scope| {
            let mut senders = Vec::with_capacity(partition.num_shards());
            let mut handles = Vec::with_capacity(partition.num_shards());
            for s in 0..partition.num_shards() {
                let (tx, rx) = sync_channel(CHANNEL_DEPTH);
                senders.push(tx);
                let sublist = partition.sublist(self.faults, s);
                handles.push(scope.spawn(move || -> Result<_, InjectedFailure> {
                    failpoint::hit(sites::WORKER_SPAWN)?;
                    Ok(self.work(&sublist, rx))
                }));
            }
            let streamed = stream_chunks(source, run.patterns, senders, Some(budget));
            for (s, handle) in handles.into_iter().enumerate() {
                // A real panic or an injected failure, at spawn or at the
                // merge, poisons the shard.  The merge fail point may be
                // armed to panic; catching it keeps the run alive (the
                // workspace forbids unsafe, and the registry lock
                // tolerates poisoning).
                let attempt = handle.join().and_then(|worked| match worked {
                    Ok(local) => catch_unwind(AssertUnwindSafe(|| {
                        failpoint::hit(sites::SHARD_MERGE).map(|()| local)
                    })),
                    Err(injected) => Ok(Err(injected)),
                });
                if !run.settle(partition.shard(s), attempt) {
                    poisoned.push(s);
                }
            }
            streamed
        });
        // Streaming also stops early once every worker has hung up — with
        // dropping, when every fault is detected, which no later pattern
        // changes.  Only a budget trip shortens the run.
        if tripped.is_some() {
            run.patterns = streamed;
        }
        for s in poisoned {
            self.replay(run, &partition, s, replay_source.clone());
        }
        tripped
    }

    /// The replay ladder for one poisoned shard: a replay on a fresh
    /// event worker, then one on the serial dense oracle.  A shard that
    /// fails both leaves its faults unresolved.
    fn replay(
        &self,
        run: &mut Run,
        partition: &FaultPartition,
        s: usize,
        source: impl PatternSource + Clone + Send,
    ) {
        run.recovery
            .ladder
            .record(DegradeStep::ShardRequeue, format!("shard {s} poisoned"));
        let sublist = partition.sublist(self.faults, s);
        for oracle in [false, true] {
            run.recovery.replays += 1;
            if oracle {
                run.recovery.ladder.record(
                    DegradeStep::EventToDense,
                    format!("shard {s} second replay"),
                );
            }
            let attempt = self.replay_shard(&sublist, source.clone(), run.patterns, oracle);
            if run.settle(partition.shard(s), attempt) {
                return;
            }
        }
        run.recovery
            .unresolved
            .extend(partition.shard(s).iter().copied());
    }

    /// Re-runs one shard on a fresh scoped thread against the
    /// (deterministic) pattern stream, over exactly `num_patterns`
    /// patterns and with no budget, so recovery is never cut short by a
    /// check-in: an event worker fed from this thread, or with `oracle`
    /// the serial dense oracle.  The replay thread passes the spawn fail
    /// point like a fan-out worker.
    fn replay_shard(
        &self,
        sublist: &FaultList,
        source: impl PatternSource + Send,
        num_patterns: u64,
        oracle: bool,
    ) -> Attempt {
        std::thread::scope(|scope| {
            if oracle {
                return scope
                    .spawn(move || {
                        failpoint::hit(sites::WORKER_SPAWN)?;
                        Ok(self.oracle(sublist, source, num_patterns))
                    })
                    .join();
            }
            let (tx, rx) = sync_channel(CHANNEL_DEPTH);
            let handle = scope.spawn(move || {
                failpoint::hit(sites::WORKER_SPAWN)?;
                Ok(self.work(sublist, rx))
            });
            stream_chunks(source, num_patterns, vec![tx], None);
            handle.join()
        })
    }

    /// Runs one shard's worker.
    fn work(&self, sublist: &FaultList, rx: Receiver<Arc<Chunk>>) -> ShardResult {
        worker(self.circuit, &self.regions, sublist, rx, self.mode)
    }

    /// The serial dense oracle on one shard's faults, in [`Mode`]'s
    /// encoding; it adds no stats.
    fn oracle(&self, sublist: &FaultList, source: impl PatternSource, n: u64) -> ShardResult {
        let values = match self.mode {
            Mode::Coverage { drop } => fault_coverage(self.circuit, sublist, source, n, drop)
                .detected_at()
                .iter()
                .map(|at| at.unwrap_or(UNDETECTED))
                .collect(),
            Mode::Counts => detection_counts(self.circuit, sublist, source, n),
        };
        (values, SimStats::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_sim::{detection_counts, fault_coverage};
    use crate::patterns::WeightedPatterns;
    use crate::test_support::{counts, coverage};
    use std::time::Duration;
    use wrt_circuit::parse_bench;

    fn adder() -> Circuit {
        parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(s)\nOUTPUT(cout)\n\
             x1 = XOR(a, b)\ns = XOR(x1, cin)\na1 = AND(a, b)\na2 = AND(x1, cin)\n\
             cout = OR(a1, a2)\n",
        )
        .unwrap()
    }

    #[test]
    fn sharded_coverage_matches_serial_bit_for_bit() {
        let c = adder();
        let faults = wrt_fault::FaultList::full(&c);
        for drop in [false, true] {
            let serial = fault_coverage(
                &c,
                &faults,
                WeightedPatterns::equiprobable(3, 11),
                500,
                drop,
            );
            for threads in [2, 3, 4, 16] {
                let (sharded, _) = coverage(
                    &c,
                    &faults,
                    WeightedPatterns::equiprobable(3, 11),
                    500,
                    drop,
                    threads,
                );
                assert_eq!(
                    serial.detected_at(),
                    sharded.detected_at(),
                    "drop = {drop}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn sharded_counts_match_serial() {
        let c = adder();
        let faults = wrt_fault::FaultList::full(&c);
        let serial = detection_counts(&c, &faults, WeightedPatterns::equiprobable(3, 23), 1000);
        for threads in [0, 1, 2, 5, 64] {
            let (sharded, _) = counts(
                &c,
                &faults,
                WeightedPatterns::equiprobable(3, 23),
                1000,
                threads,
            );
            assert_eq!(serial, sharded, "threads = {threads}");
        }
    }

    #[test]
    fn single_fault_and_empty_lists_are_fine() {
        let c = adder();
        let one = wrt_fault::FaultList::from_faults(vec![wrt_fault::Fault::output(
            c.node_id("s").unwrap(),
            false,
        )]);
        let (r, _) = coverage(&c, &one, WeightedPatterns::equiprobable(3, 1), 128, true, 4);
        assert_eq!(r.num_faults(), 1);
        let empty = wrt_fault::FaultList::from_faults(vec![]);
        let (r, _) = coverage(
            &c,
            &empty,
            WeightedPatterns::equiprobable(3, 1),
            128,
            true,
            4,
        );
        assert_eq!(r.num_faults(), 0);
        assert_eq!(r.coverage(), 1.0);
    }

    #[test]
    fn zero_threads_resolves_to_capped_parallelism() {
        assert!(available_threads() >= 1);
        // Auto mode never overshards tiny fault lists...
        assert_eq!(recommended_threads(0, 3), 1);
        let big = 100_000 * MIN_FAULTS_PER_SHARD;
        assert_eq!(recommended_threads(0, big), available_threads());
        // ...but explicit requests are honored as given.
        assert_eq!(recommended_threads(3, 3), 3);
    }

    #[test]
    fn more_patterns_than_one_chunk() {
        // > CHUNK_BLOCKS * 64 patterns forces several broadcast chunks.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let faults = wrt_fault::FaultList::full(&c);
        let n = (CHUNK_BLOCKS as u64) * 64 + 321;
        let serial = detection_counts(&c, &faults, WeightedPatterns::equiprobable(2, 7), n);
        let (sharded, _) = counts(&c, &faults, WeightedPatterns::equiprobable(2, 7), n, 3);
        assert_eq!(serial, sharded);
    }

    #[test]
    fn dropping_every_fault_early_still_reports_the_whole_stream() {
        // Every fault is detected in the first chunk, so each worker hangs
        // up and the producer stops long before the stream ends; the
        // result still covers all requested patterns, as the oracle's does.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let faults = wrt_fault::FaultList::full(&c);
        let n = 40 * (CHUNK_BLOCKS as u64) * 64;
        let serial = fault_coverage(&c, &faults, WeightedPatterns::equiprobable(2, 7), n, true);
        for threads in [1, 2] {
            let (sharded, _) = coverage(
                &c,
                &faults,
                WeightedPatterns::equiprobable(2, 7),
                n,
                true,
                threads,
            );
            assert_eq!(sharded, serial, "threads = {threads}");
        }
    }

    #[test]
    fn unlimited_budget_matches_legacy_bit_for_bit() {
        let c = adder();
        let faults = FaultList::full(&c);
        let legacy = fault_coverage(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 11),
            500,
            true,
        );
        for threads in [1, 2, 4] {
            let robust = fault_coverage_robust(
                &c,
                &faults,
                WeightedPatterns::equiprobable(3, 11),
                500,
                true,
                threads,
                SimOptions::default(),
                &Budget::unlimited(),
            );
            assert!(robust.is_complete());
            let rc = robust.into_value();
            assert!(rc.recovery.is_clean());
            assert_eq!(legacy.detected_at(), rc.result.detected_at());
        }
    }

    #[test]
    fn eval_budget_resolves_to_a_deterministic_pattern_clip() {
        let c = adder();
        let faults = FaultList::full(&c);
        let nodes = c.num_nodes() as u64;
        // Budget for exactly 100 patterns of canonical work.
        let budget = Budget::unlimited().with_max_evals(100 * nodes);
        let clipped = fault_coverage(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 5),
            100,
            false,
        );
        let mut partials = Vec::new();
        for threads in [1, 2, 3, 8] {
            let outcome = fault_coverage_robust(
                &c,
                &faults,
                WeightedPatterns::equiprobable(3, 5),
                100_000,
                false,
                threads,
                SimOptions::default(),
                &budget,
            );
            assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Evals));
            let rc = outcome.into_value();
            // Identical partial result across thread counts: exactly the
            // first 100 patterns.
            assert_eq!(rc.result.detected_at(), clipped.detected_at());
            partials.push(rc.result.detected_at().to_vec());
        }
        assert!(partials.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn eval_budget_smaller_than_one_pattern_yields_empty_partial() {
        let c = adder();
        let faults = FaultList::full(&c);
        // Fewer evals than one pattern costs: zero patterns simulated.
        let budget = Budget::unlimited().with_max_evals(1);
        let outcome = detection_counts_robust(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 5),
            1000,
            2,
            SimOptions::default(),
            &budget,
        );
        assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Evals));
        let rc = outcome.into_value();
        assert_eq!(rc.num_patterns, 0);
        assert!(rc.counts.iter().all(|&n| n == 0));
    }

    #[test]
    fn zero_time_limit_interrupts_with_empty_partial() {
        let c = adder();
        let faults = FaultList::full(&c);
        let budget = Budget::unlimited().with_time_limit(Duration::ZERO);
        let outcome = fault_coverage_robust(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 5),
            1000,
            true,
            2,
            SimOptions::default(),
            &budget,
        );
        assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Deadline));
        let rc = outcome.into_value();
        assert_eq!(rc.result.num_patterns(), 0);
        assert!(rc.result.detected_at().iter().all(Option::is_none));
    }

    #[test]
    fn cancellation_interrupts_at_the_next_chunk_boundary() {
        let c = adder();
        let faults = FaultList::full(&c);
        let mut budget = Budget::unlimited();
        let token = budget.cancel_token();
        token.store(true, std::sync::atomic::Ordering::Relaxed);
        let outcome = fault_coverage_robust(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 5),
            1000,
            true,
            2,
            SimOptions::default(),
            &budget,
        );
        assert_eq!(outcome.interrupt_reason(), Some(BudgetExceeded::Cancelled));
    }

    #[test]
    fn empty_fault_list_is_complete_and_clean() {
        let c = adder();
        let empty = FaultList::from_faults(vec![]);
        let outcome = fault_coverage_robust(
            &c,
            &empty,
            WeightedPatterns::equiprobable(3, 1),
            64,
            true,
            4,
            SimOptions::default(),
            &Budget::unlimited(),
        );
        assert!(outcome.is_complete());
        let rc = outcome.into_value();
        assert_eq!(rc.result.num_faults(), 0);
        assert!(rc.recovery.is_clean());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::fault_sim::{detection_counts, fault_coverage};
    use crate::patterns::WeightedPatterns;
    use crate::test_support::{arb_chain_circuit, arb_circuit, counts, coverage};
    use proptest::prelude::*;
    use wrt_fault::FaultList;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A fanout-free region never spans two shards, and the shard
        /// count is the requested one capped at the distinct region heads
        /// — so the event kernel propagates each head once whatever the
        /// layout.
        #[test]
        fn partition_never_splits_a_fanout_free_region(
            circuit in arb_chain_circuit(),
            keep in proptest::collection::vec(any::<bool>(), 1..64),
            shards in 0usize..40,
        ) {
            let faults: FaultList = FaultList::full(&circuit)
                .iter()
                .zip(keep.iter().cycle())
                .filter(|&(_, &k)| k)
                .map(|((_, f), _)| f)
                .collect();
            let regions = FanoutFreeRegions::new(&circuit);
            let partition = FaultPartition::cone_locality(&regions, &faults, shards);
            let mut home = std::collections::HashMap::new();
            for s in 0..partition.num_shards() {
                for &id in partition.shard(s) {
                    let head = regions.head(faults.fault(id).site.effect_root());
                    prop_assert_eq!(*home.entry(head).or_insert(s), s);
                }
            }
            prop_assert_eq!(partition.num_shards(), shards.clamp(1, home.len().max(1)));
        }

        /// The sharded engine is bit-identical to the serial one —
        /// `detected_at` and `counts` — across random circuits, weights,
        /// thread/shard counts (including shards > faults and 1 thread),
        /// pattern counts, and with/without fault dropping.
        #[test]
        fn sharded_is_bit_identical_to_serial(
            circuit in arb_circuit(),
            weights in proptest::collection::vec(0.05f64..0.95, 4),
            threads in 1usize..9,
            seed in 0u64..1_000,
            patterns in 1u64..400,
            drop in any::<bool>(),
        ) {
            let faults = FaultList::full(&circuit);

            let serial = fault_coverage(
                &circuit, &faults,
                WeightedPatterns::new(weights.clone(), seed),
                patterns, drop,
            );
            let (sharded, _) = coverage(
                &circuit, &faults,
                WeightedPatterns::new(weights.clone(), seed),
                patterns, drop, threads,
            );
            prop_assert_eq!(serial.detected_at(), sharded.detected_at());

            let serial_counts = detection_counts(
                &circuit, &faults,
                WeightedPatterns::new(weights.clone(), seed),
                patterns,
            );
            let (counts_sharded, _) = counts(
                &circuit, &faults,
                WeightedPatterns::new(weights, seed),
                patterns, threads,
            );
            prop_assert_eq!(serial_counts, counts_sharded);
        }

        /// Shard counts far beyond the fault count degenerate gracefully
        /// (singleton shards), still bit-identical, in drop mode and at
        /// pattern counts that end mid-superblock.
        #[test]
        fn oversharding_is_identical(
            circuit in arb_circuit(),
            seed in 0u64..100,
            patterns in 200u64..=300,
        ) {
            let faults = FaultList::primary_inputs(&circuit);
            let serial = fault_coverage(
                &circuit, &faults,
                WeightedPatterns::equiprobable(4, seed),
                patterns, true,
            );
            let (sharded, _) = coverage(
                &circuit, &faults,
                WeightedPatterns::equiprobable(4, seed),
                patterns, true, faults.len() * 3 + 7,
            );
            prop_assert_eq!(serial.detected_at(), sharded.detected_at());
        }
    }
}

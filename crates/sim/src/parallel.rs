//! Sharded multi-threaded PPSFP fault simulation.
//!
//! PPSFP is embarrassingly parallel across faults: every fault's detection
//! words depend only on the fault-free block values and the fault's own
//! cone.  The engine here partitions the fault list into cone-locality-aware
//! shards ([`FaultPartition`]), gives each shard a worker thread owning its
//! own [`FaultSimulator`] scratch state and compacted [`FaultWorklist`],
//! and streams pattern blocks to all workers in bounded chunks.
//!
//! Design:
//!
//! * **One pattern stream, many fault shards.**  The main thread draws
//!   blocks from the (inherently sequential, seed-deterministic) pattern
//!   source and broadcasts reference-counted chunks over bounded channels;
//!   every worker simulates *all* patterns against *its* faults.  Results
//!   are merged by fault id, so the outcome is bit-identical to the serial
//!   engine's — same `detected_at`, same counts — for any thread count.
//! * **Duplicated good simulation.**  Each worker re-runs the fault-free
//!   simulation of a block for its own scratch state.  That multiplies the
//!   (cheap, `O(gates)`) good simulation by the shard count but keeps
//!   workers completely independent — no shared mutable state, no locks.
//! * **Compacted worklists + early exit.**  With fault dropping, a worker
//!   swap-removes detected faults and stops consuming chunks once its
//!   worklist drains; the producer stops generating as soon as every
//!   worker has hung up.
//!
//! `std::thread::scope` keeps everything dependency-free and lets workers
//! borrow the circuit and fault list directly.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

use wrt_circuit::Circuit;
use wrt_fault::{FaultId, FaultList, FaultPartition};
use wrt_robust::failpoint::{self, sites};
use wrt_robust::{Budget, BudgetExceeded, DegradeStep, InjectedFailure, Ladder};

use crate::coverage::CoverageResult;
use crate::event::{
    count_set_bits, detection_counts_opts, fault_coverage_opts, first_set_bit, superblock_split,
    with_block_words, EventSimulator, SimEngineKind, SimOptions, SimStats, SuperBlock,
};
use crate::fault_sim::{FaultSimulator, FaultWorklist};
use crate::patterns::{PatternBlock, PatternSource};

/// Pattern blocks per broadcast chunk (8 Ki patterns): large enough to
/// amortize channel traffic, small enough to bound in-flight memory and
/// to overlap pattern generation with simulation even on short runs.
const CHUNK_BLOCKS: usize = 128;

/// Chunks a worker may have queued; the producer blocks beyond that, so
/// at most a few chunks are alive at once regardless of pattern count.
const CHANNEL_DEPTH: usize = 2;

/// A run of consecutive pattern blocks starting at pattern `start`.
#[derive(Debug)]
pub(crate) struct Chunk {
    pub(crate) start: u64,
    pub(crate) blocks: Vec<PatternBlock>,
}

/// What the sharded engine had to do to bring a run to completion.
///
/// A clean run has zero everything.  When a shard worker dies — a real
/// panic or an injected one — the engine requeues that shard's fault
/// worklist for bounded serial replay (same engine first, then the dense
/// engine); only faults whose shard failed every retry end up in
/// [`ShardRecovery::unresolved`].
#[derive(Debug, Clone, Default)]
pub struct ShardRecovery {
    /// Worker threads that panicked (original fan-out plus replays).
    pub worker_panics: usize,
    /// Shard replay attempts performed.
    pub replays: usize,
    /// Degradation steps taken ([`DegradeStep::ShardRequeue`], plus
    /// [`DegradeStep::EventToDense`] when a replay fell back engines).
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

/// Everything [`run_sharded`] reports alongside the merged `out` values.
pub(crate) struct ShardRunOutcome {
    pub(crate) stats: SimStats,
    pub(crate) recovery: ShardRecovery,
    /// Patterns actually streamed to the workers — `num_patterns` unless
    /// a budget axis tripped at a chunk boundary.
    pub(crate) streamed: u64,
    /// The budget axis that stopped streaming early, if any.
    pub(crate) tripped: Option<BudgetExceeded>,
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
/// counts are honored as given.  Results of the sharded engines are
/// identical for every thread count — only the wall clock differs — so
/// callers embedding the sharded engine (e.g. Monte-Carlo estimators)
/// can use this to budget threads without changing outputs.
pub fn recommended_threads(requested: usize, num_faults: usize) -> usize {
    if requested == 0 {
        available_threads()
            .min(num_faults / MIN_FAULTS_PER_SHARD)
            .max(1)
    } else {
        requested
    }
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

/// Re-runs one poisoned shard serially: a fresh worker thread fed the
/// full (deterministic) pattern stream again, over exactly the
/// `num_patterns` the healthy shards consumed.  Returns `None` if the
/// replay worker also panicked.
fn replay_shard<T: Send>(
    sublist: FaultList,
    source: impl PatternSource,
    num_patterns: u64,
    worker: &(impl Fn(FaultList, Receiver<Arc<Chunk>>) -> (Vec<T>, SimStats) + Sync),
) -> Option<(Vec<T>, SimStats)> {
    std::thread::scope(|scope| {
        let (tx, rx): (SyncSender<Arc<Chunk>>, Receiver<Arc<Chunk>>) =
            sync_channel(CHANNEL_DEPTH);
        let handle = scope.spawn(move || worker(sublist, rx));
        // No budget: the replay must reproduce the primary stream length
        // exactly, and recovery is never cut short by a check-in.
        stream_chunks(source, num_patterns, vec![tx], None);
        handle.join().ok()
    })
}

/// The shared fan-out scaffold's configuration: what to simulate, how
/// wide to fan out, and which budget (if any) bounds the pattern stream.
pub(crate) struct ShardedRun<'a, S> {
    pub(crate) circuit: &'a Circuit,
    pub(crate) faults: &'a FaultList,
    pub(crate) source: S,
    pub(crate) num_patterns: u64,
    pub(crate) threads: usize,
    pub(crate) budget: Option<&'a Budget>,
    /// Whether `fallback` is a genuinely different engine than `worker`
    /// (records [`DegradeStep::EventToDense`] on the second replay).
    pub(crate) fallback_is_distinct: bool,
}

/// The shared fan-out scaffold: partitions the fault list into
/// cone-locality-aware shards, spawns one scoped worker per shard with
/// its own bounded chunk channel, streams the pattern blocks, and merges
/// each worker's per-shard vector back into `out` by fault id.
///
/// `worker` receives the shard's fault sublist and its chunk receiver and
/// returns one result per shard fault (in sublist order) plus the shard's
/// work counters.
///
/// # Panic isolation
///
/// A worker panic (or an injected spawn/merge failure from an armed
/// fail-point session) no longer aborts the run: the poisoned shard is
/// requeued for serial replay against a fresh clone of the pattern
/// source — first on the same engine, then once more on the `fallback`
/// (dense) engine — which reproduces the lost results bit-identically,
/// because every worker consumes the same deterministic stream.  Shards
/// that fail every retry surface their faults in
/// [`ShardRecovery::unresolved`] instead of panicking.
pub(crate) fn run_sharded<T: Send, S: PatternSource + Clone>(
    run: ShardedRun<'_, S>,
    out: &mut [T],
    worker: impl Fn(FaultList, Receiver<Arc<Chunk>>) -> (Vec<T>, SimStats) + Sync,
    fallback: impl Fn(FaultList, Receiver<Arc<Chunk>>) -> (Vec<T>, SimStats) + Sync,
) -> ShardRunOutcome {
    let ShardedRun {
        circuit,
        faults,
        source,
        num_patterns,
        threads,
        budget,
        fallback_is_distinct,
    } = run;
    let partition = FaultPartition::cone_locality(circuit, faults, threads);
    // Canonical eval unit: one fault-free node evaluation per pattern,
    // making the eval budget a machine- and thread-count-independent
    // measure of the pattern stream.
    let evals_per_pattern = (circuit.num_nodes() as u64).max(1);
    let mut stats = SimStats::default();
    let mut recovery = ShardRecovery::default();
    let replay_source = source.clone();
    let mut poisoned: Vec<usize> = Vec::new();
    let (streamed, tripped) = std::thread::scope(|scope| {
        let worker = &worker;
        let mut senders = Vec::with_capacity(partition.num_shards());
        let mut handles = Vec::with_capacity(partition.num_shards());
        for s in 0..partition.num_shards() {
            let (tx, rx): (SyncSender<Arc<Chunk>>, Receiver<Arc<Chunk>>) =
                sync_channel(CHANNEL_DEPTH);
            senders.push(tx);
            let sublist = partition.sublist(faults, s);
            handles.push(
                scope.spawn(move || -> Result<(Vec<T>, SimStats), InjectedFailure> {
                    failpoint::hit(sites::WORKER_SPAWN)?;
                    Ok(worker(sublist, rx))
                }),
            );
        }
        let streamed = stream_chunks(
            source,
            num_patterns,
            senders,
            budget.map(|b| (b, evals_per_pattern)),
        );
        for (s, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                // A real worker panic: isolate and requeue the shard.
                Err(_panic) => {
                    recovery.worker_panics += 1;
                    poisoned.push(s);
                }
                // An injected spawn failure: same recovery, no unwind.
                Ok(Err(_injected)) => poisoned.push(s),
                Ok(Ok((local, local_stats))) => {
                    // The merge fail point may be armed to panic; catch it
                    // so an injected merge failure degrades to a shard
                    // replay instead of aborting the run (safe code only —
                    // the workspace forbids unsafe, and the registry lock
                    // tolerates poisoning).
                    match catch_unwind(AssertUnwindSafe(|| failpoint::hit(sites::SHARD_MERGE))) {
                        Ok(Ok(())) => {
                            stats.merge(&local_stats);
                            for (value, &id) in local.into_iter().zip(partition.shard(s)) {
                                out[id.index()] = value;
                            }
                        }
                        Err(_panic) => {
                            recovery.worker_panics += 1;
                            poisoned.push(s);
                        }
                        Ok(Err(_injected)) => poisoned.push(s),
                    }
                }
            }
        }
        streamed
    });
    for s in poisoned {
        recovery
            .ladder
            .record(DegradeStep::ShardRequeue, format!("shard {s} poisoned"));
        let mut recovered = false;
        for attempt in 0..2 {
            recovery.replays += 1;
            if attempt == 1 && fallback_is_distinct {
                recovery.ladder.record(
                    DegradeStep::EventToDense,
                    format!("shard {s} second replay"),
                );
            }
            let sublist = partition.sublist(faults, s);
            let replayed = if attempt == 0 {
                replay_shard(sublist, replay_source.clone(), streamed, &worker)
            } else {
                replay_shard(sublist, replay_source.clone(), streamed, &fallback)
            };
            if let Some((local, local_stats)) = replayed {
                stats.merge(&local_stats);
                for (value, &id) in local.into_iter().zip(partition.shard(s)) {
                    out[id.index()] = value;
                }
                recovered = true;
                break;
            }
            recovery.worker_panics += 1;
        }
        if !recovered {
            recovery.unresolved.extend(partition.shard(s).iter().copied());
        }
    }
    ShardRunOutcome {
        stats,
        recovery,
        streamed,
        tripped,
    }
}

/// Sharded [`fault_coverage`]: identical results, fanned out over
/// `threads` worker threads (`0` = capped available parallelism, see
/// [`recommended_threads`]).
///
/// The fault list is split into cone-locality-aware shards, one worker
/// per shard; see the module docs for the design.  `threads = 1` falls
/// back to the serial engine.  Results are bit-identical to
/// [`fault_coverage`] for every thread count, because every worker
/// consumes the same deterministic pattern stream.
pub fn fault_coverage_sharded(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone,
    num_patterns: u64,
    drop: bool,
    threads: usize,
) -> CoverageResult {
    fault_coverage_sharded_opts(
        circuit,
        faults,
        source,
        num_patterns,
        drop,
        threads,
        SimOptions::dense(),
    )
    .0
}

/// [`fault_coverage_sharded`] with a configurable inner loop
/// ([`SimOptions`]): each shard worker runs the selected engine (dense
/// cone walk or event-driven superblocks).  Results are bit-identical
/// across engines, widths, and thread counts; the merged work counters
/// are returned alongside.
///
/// # Panics
///
/// Panics if `opts` fails [`SimOptions::validate`], or if a shard worker
/// panicked repeatedly and its faults could not be recovered by bounded
/// serial replay (see [`ShardRecovery`]; the budgeted
/// [`crate::robust::fault_coverage_robust`] entry point reports the same
/// situation structurally instead).
pub fn fault_coverage_sharded_opts(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone,
    num_patterns: u64,
    drop: bool,
    threads: usize,
    opts: SimOptions,
) -> (CoverageResult, SimStats) {
    let threads = recommended_threads(threads, faults.len());
    if threads <= 1 || faults.len() <= 1 {
        return fault_coverage_opts(circuit, faults, source, num_patterns, drop, opts);
    }
    opts.validate().expect("invalid SimOptions");
    let mut detected_at: Vec<Option<u64>> = vec![None; faults.len()];
    let outcome = run_sharded(
        ShardedRun {
            circuit,
            faults,
            source,
            num_patterns,
            threads,
            budget: None,
            fallback_is_distinct: opts.engine == SimEngineKind::Event,
        },
        &mut detected_at,
        |sublist, rx| match opts.engine {
            SimEngineKind::Dense => coverage_worker_dense(circuit, sublist, rx, drop),
            SimEngineKind::Event => with_block_words!(opts.block_words, W => {
                coverage_worker_event::<W>(circuit, sublist, rx, drop)
            }),
        },
        |sublist, rx| coverage_worker_dense(circuit, sublist, rx, drop),
    );
    assert!(
        outcome.recovery.fully_recovered(),
        "fault-sim shard recovery failed: {} faults unresolved after bounded replays \
         ({} worker panics)",
        outcome.recovery.unresolved.len(),
        outcome.recovery.worker_panics,
    );
    (CoverageResult::new(detected_at, num_patterns), outcome.stats)
}

pub(crate) fn coverage_worker_dense(
    circuit: &Circuit,
    sublist: FaultList,
    rx: Receiver<Arc<Chunk>>,
    drop: bool,
) -> (Vec<Option<u64>>, SimStats) {
    let mut sim = FaultSimulator::new(circuit, &sublist);
    let mut worklist = FaultWorklist::full(sublist.len());
    let mut local: Vec<Option<u64>> = vec![None; sublist.len()];
    'chunks: while let Ok(chunk) = rx.recv() {
        let mut done = chunk.start;
        for block in &chunk.blocks {
            if drop && worklist.is_empty() {
                // Hang up: the producer stops feeding this shard.
                break 'chunks;
            }
            sim.detect_block_worklist(&block.words, block.mask(), &mut worklist, drop, |i, w| {
                if local[i].is_none() {
                    local[i] = Some(done + u64::from(w.trailing_zeros()));
                }
            });
            done += u64::from(block.len);
        }
    }
    let stats = sim.stats();
    (local, stats)
}

/// Groups `blocks` into `W`-wide superblocks (refilling `sb` in place)
/// and invokes `f` on each; `f` returning `false` stops early.
///
/// The one copy of the bit-identity-critical grouping rule shared by the
/// event workers: boundaries come from [`superblock_split`] — extend only
/// across full blocks — and `CHUNK_BLOCKS` is a multiple of every
/// supported width, so worker grouping coincides with the serial
/// engine's [`SuperBlock::refill_draw`] stream grouping.
fn for_each_superblock<const W: usize>(
    blocks: &[PatternBlock],
    sb: &mut SuperBlock<W>,
    mut f: impl FnMut(&SuperBlock<W>) -> bool,
) {
    let mut idx = 0;
    while idx < blocks.len() {
        let take = superblock_split(&blocks[idx..], W);
        sb.refill_from_blocks(&blocks[idx..idx + take]);
        if !f(sb) {
            return;
        }
        idx += take;
    }
}

/// Event-engine coverage worker: one [`EventSimulator`] per shard over
/// the broadcast chunks' superblocks.
pub(crate) fn coverage_worker_event<const W: usize>(
    circuit: &Circuit,
    sublist: FaultList,
    rx: Receiver<Arc<Chunk>>,
    drop: bool,
) -> (Vec<Option<u64>>, SimStats) {
    let mut sim = EventSimulator::<W>::new(circuit, &sublist);
    let mut worklist = FaultWorklist::full(sublist.len());
    let mut local: Vec<Option<u64>> = vec![None; sublist.len()];
    let mut sb = SuperBlock::<W>::empty(circuit.num_inputs());
    while let Ok(chunk) = rx.recv() {
        let mut done = chunk.start;
        let mut drained = false;
        for_each_superblock(&chunk.blocks, &mut sb, |sb| {
            if drop && worklist.is_empty() {
                drained = true;
                return false;
            }
            sim.detect_superblock_worklist(&sb.words, sb.mask(), &mut worklist, drop, |i, w| {
                if local[i].is_none() {
                    let bit = first_set_bit(&w).expect("on_detect implies a set bit");
                    local[i] = Some(done + u64::from(bit));
                }
            });
            done += u64::from(sb.len);
            true
        });
        if drained {
            // Hang up: the producer stops feeding this shard.
            break;
        }
    }
    let stats = sim.stats();
    (local, stats)
}

/// Sharded [`detection_counts`]: identical counts, fanned out over
/// `threads` worker threads (`0` = capped available parallelism, see
/// [`recommended_threads`]).
///
/// This is the Monte-Carlo hot path of the paper's loop: the per-fault
/// detection frequencies it returns feed the `p_f(X)` estimates of the
/// probability-refinement sweeps.
pub fn detection_counts_sharded(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone,
    num_patterns: u64,
    threads: usize,
) -> Vec<u64> {
    detection_counts_sharded_opts(
        circuit,
        faults,
        source,
        num_patterns,
        threads,
        SimOptions::dense(),
    )
    .0
}

/// [`detection_counts_sharded`] with a configurable inner loop
/// ([`SimOptions`]); identical counts for every engine/width/thread
/// combination, merged work counters alongside.
///
/// # Panics
///
/// Panics if `opts` fails [`SimOptions::validate`], or if shard recovery
/// was exhausted (see [`fault_coverage_sharded_opts`]).
pub fn detection_counts_sharded_opts(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone,
    num_patterns: u64,
    threads: usize,
    opts: SimOptions,
) -> (Vec<u64>, SimStats) {
    let threads = recommended_threads(threads, faults.len());
    if threads <= 1 || faults.len() <= 1 {
        return detection_counts_opts(circuit, faults, source, num_patterns, opts);
    }
    opts.validate().expect("invalid SimOptions");
    let mut counts = vec![0u64; faults.len()];
    let outcome = run_sharded(
        ShardedRun {
            circuit,
            faults,
            source,
            num_patterns,
            threads,
            budget: None,
            fallback_is_distinct: opts.engine == SimEngineKind::Event,
        },
        &mut counts,
        |sublist, rx| match opts.engine {
            SimEngineKind::Dense => counts_worker_dense(circuit, sublist, rx),
            SimEngineKind::Event => with_block_words!(opts.block_words, W => {
                counts_worker_event::<W>(circuit, sublist, rx)
            }),
        },
        |sublist, rx| counts_worker_dense(circuit, sublist, rx),
    );
    assert!(
        outcome.recovery.fully_recovered(),
        "fault-sim shard recovery failed: {} faults unresolved after bounded replays \
         ({} worker panics)",
        outcome.recovery.unresolved.len(),
        outcome.recovery.worker_panics,
    );
    (counts, outcome.stats)
}

pub(crate) fn counts_worker_dense(
    circuit: &Circuit,
    sublist: FaultList,
    rx: Receiver<Arc<Chunk>>,
) -> (Vec<u64>, SimStats) {
    let mut sim = FaultSimulator::new(circuit, &sublist);
    let mut worklist = FaultWorklist::full(sublist.len());
    let mut local = vec![0u64; sublist.len()];
    while let Ok(chunk) = rx.recv() {
        for block in &chunk.blocks {
            sim.detect_block_worklist(&block.words, block.mask(), &mut worklist, false, |i, w| {
                local[i] += u64::from(w.count_ones())
            });
        }
    }
    let stats = sim.stats();
    (local, stats)
}

pub(crate) fn counts_worker_event<const W: usize>(
    circuit: &Circuit,
    sublist: FaultList,
    rx: Receiver<Arc<Chunk>>,
) -> (Vec<u64>, SimStats) {
    let mut sim = EventSimulator::<W>::new(circuit, &sublist);
    let mut worklist = FaultWorklist::full(sublist.len());
    let mut local = vec![0u64; sublist.len()];
    let mut sb = SuperBlock::<W>::empty(circuit.num_inputs());
    while let Ok(chunk) = rx.recv() {
        for_each_superblock(&chunk.blocks, &mut sb, |sb| {
            sim.detect_superblock_worklist(&sb.words, sb.mask(), &mut worklist, false, |i, w| {
                local[i] += u64::from(count_set_bits(&w))
            });
            true
        });
    }
    let stats = sim.stats();
    (local, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_sim::{detection_counts, fault_coverage};
    use crate::patterns::WeightedPatterns;
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
                let sharded = fault_coverage_sharded(
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
        let serial =
            detection_counts(&c, &faults, WeightedPatterns::equiprobable(3, 23), 1000);
        for threads in [0, 1, 2, 5, 64] {
            let sharded = detection_counts_sharded(
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
        let r = fault_coverage_sharded(
            &c,
            &one,
            WeightedPatterns::equiprobable(3, 1),
            128,
            true,
            4,
        );
        assert_eq!(r.num_faults(), 1);
        let empty = wrt_fault::FaultList::from_faults(vec![]);
        let r = fault_coverage_sharded(
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
        let sharded = detection_counts_sharded(
            &c,
            &faults,
            WeightedPatterns::equiprobable(2, 7),
            n,
            3,
        );
        assert_eq!(serial, sharded);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::fault_sim::{detection_counts, fault_coverage};
    use crate::patterns::WeightedPatterns;
    use crate::test_support::arb_circuit;
    use proptest::prelude::*;
    use wrt_fault::FaultList;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// An effect root never spans two shards, and the shard count is
        /// the requested one capped at the distinct roots — so the event
        /// kernel propagates each root once whatever the layout.
        #[test]
        fn partition_never_splits_an_effect_root(
            circuit in arb_circuit(),
            keep in proptest::collection::vec(any::<bool>(), 1..64),
            shards in 0usize..40,
        ) {
            let faults: FaultList = FaultList::full(&circuit)
                .iter()
                .zip(keep.iter().cycle())
                .filter(|&(_, &k)| k)
                .map(|((_, f), _)| f)
                .collect();
            let partition = FaultPartition::cone_locality(&circuit, &faults, shards);
            let mut home = std::collections::HashMap::new();
            for s in 0..partition.num_shards() {
                for &id in partition.shard(s) {
                    let root = faults.fault(id).site.effect_root();
                    prop_assert_eq!(*home.entry(root).or_insert(s), s);
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
            let sharded = fault_coverage_sharded(
                &circuit, &faults,
                WeightedPatterns::new(weights.clone(), seed),
                patterns, drop, threads,
            );
            prop_assert_eq!(serial.detected_at(), sharded.detected_at());

            let counts = detection_counts(
                &circuit, &faults,
                WeightedPatterns::new(weights.clone(), seed),
                patterns,
            );
            let counts_sharded = detection_counts_sharded(
                &circuit, &faults,
                WeightedPatterns::new(weights, seed),
                patterns, threads,
            );
            prop_assert_eq!(counts, counts_sharded);
        }

        /// Shard counts far beyond the fault count degenerate gracefully
        /// (singleton shards), still bit-identical.
        #[test]
        fn oversharding_is_identical(
            circuit in arb_circuit(),
            seed in 0u64..100,
        ) {
            let faults = FaultList::primary_inputs(&circuit);
            let serial = fault_coverage(
                &circuit, &faults,
                WeightedPatterns::equiprobable(4, seed),
                200, true,
            );
            let sharded = fault_coverage_sharded(
                &circuit, &faults,
                WeightedPatterns::equiprobable(4, seed),
                200, true, faults.len() * 3 + 7,
            );
            prop_assert_eq!(serial.detected_at(), sharded.detected_at());
        }
    }
}

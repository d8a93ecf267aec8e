//! 2D fault×pattern tiled PPSFP: fault-shard × pattern-stripe tiles over
//! a work-stealing queue, run in two passes.
//!
//! The 1D sharded engine (`parallel.rs`) decomposes along faults only:
//! every worker streams the *full* pattern set against its shard.  The
//! engine here tiles both axes.  The pattern stream is materialized once
//! (sequentially, seed-deterministically) and cut into *stripes* of
//! consecutive blocks; the fault list is cut into cone-locality *shards*;
//! each (shard, stripe) pair is one independent **tile**.  Workers pull
//! tiles from per-shard cursors, preferring their home shard and
//! *stealing* from other shards once home work drains — so a worker stuck
//! on a heavy shard no longer serializes the run.
//!
//! # Two passes
//!
//! Stripe 0 is always the stream's first superblock.  The first pass runs
//! it as one tile per shard, with every fault of the shard on the
//! worklist; the second pass runs the later stripes, once every stripe-0
//! tile is merged.  Under fault dropping, the faults stripe 0 detected
//! leave the second pass's worklists: stripe 0 holds the earliest
//! patterns, so no later stripe can lower their first detection.  That is
//! exactly the serial engine's drop, so when the rest of the stream forms
//! a single stripe the tiled engine spends exactly the 1D event engine's
//! gate evals at the same width.  Both passes run the same worker loop,
//! budget check and replay ladder.
//!
//! # Determinism
//!
//! Tiles of one pass share nothing: apart from the stripe-0 retirement
//! above, fault dropping acts only *within* a tile, and the global result
//! is a commutative merge of per-tile values —
//! the minimum of per-stripe first-detection pattern indices for coverage,
//! the sum for detection counts.  A fault's first detection does not
//! depend on dropping, so the min over stripes equals the serial
//! first-detection index *exactly*, for every thread count, stripe size,
//! shard count, and steal order (property-tested below).  Gate evals are
//! deterministic too: a fault's event work depends on its stripe's
//! patterns, not on which shard or worker holds it.  The price of several
//! later stripes is bounded redundancy: a fault first detected in stripe
//! 2 is still probed in stripe 3, where it typically dies in one or two
//! frontier evaluations.
//!
//! # Robustness
//!
//! Each tile runs under `catch_unwind` with a planted fail point
//! (`tile::run`); a poisoned tile is replayed serially at the end of its
//! pass — same engine first, then the dense engine — mirroring the 1D
//! shard-replay ladder, and stolen tiles are covered exactly like home
//! tiles.  Budgets check in before every claimed tile: the eval axis
//! resolves upfront to the same deterministic pattern clip as
//! `robust.rs`; a deadline/cancel trip abandons the claimed tile and the
//! second pass, and the result keeps the maximal prefix of
//! fully-completed stripes, so interrupted partials are well-formed
//! pattern prefixes.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use wrt_circuit::Circuit;
use wrt_fault::{FaultId, FaultList, FaultPartition};
use wrt_robust::failpoint::{self, sites};
use wrt_robust::{Budget, BudgetExceeded, DegradeStep, InjectedFailure, RunOutcome};

use crate::coverage::CoverageResult;
use crate::event::{
    count_set_bits, first_set_bit, superblock_split, with_block_words, EventSimulator, SimStats,
    SuperBlock, SUPPORTED_BLOCK_WORDS,
};
use crate::fault_sim::{FaultSimulator, FaultWorklist};
use crate::parallel::{recommended_threads, ShardRecovery};
use crate::patterns::{PatternBlock, PatternSource};
use crate::robust::{eval_clip, wrap_outcome};

/// Auto width cap: per-node lane scratch (`num_nodes * W * 8` bytes)
/// should stay cache-friendly.
const LANE_SCRATCH_BUDGET_BYTES: usize = 8 << 20;

/// Auto stripe count cap: more stripes buy steal granularity but repeat
/// per-stripe fault probing.
const AUTO_MAX_STRIPES: usize = 4;

/// The tiled engine has no batch axis; this single-variant enum is kept
/// only so the frozen `perfbench/trace` helper, which names
/// `BatchMode::Auto`, still builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// The only mode.
    #[default]
    Auto,
}

/// Configuration of the 2D tiled engine.  Every `0` means "resolve
/// automatically"; see [`TileOptions::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileOptions {
    /// Event-axis superblock width (one of [`SUPPORTED_BLOCK_WORDS`]),
    /// or 0 to pick the widest width that fits the pattern count and the
    /// lane-scratch cache budget.
    pub block_words: usize,
    /// Stripes after stripe 0 (the first superblock), or 0 for auto.
    /// Requests beyond the block count are clamped (each stripe holds at
    /// least one superblock's blocks).
    pub pattern_stripes: usize,
    /// Fault shards, or 0 to match the thread count.
    pub fault_shards: usize,
    /// Worker threads, or 0 for [`recommended_threads`].
    pub threads: usize,
    /// Accepted and ignored; kept only for the frozen `perfbench/trace`
    /// helper (see [`BatchMode`]).
    pub batch: BatchMode,
}

impl Default for TileOptions {
    fn default() -> Self {
        TileOptions {
            block_words: 0,
            pattern_stripes: 0,
            fault_shards: 0,
            threads: 0,
            batch: BatchMode::Auto,
        }
    }
}

impl TileOptions {
    /// Checks the option combination.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when `block_words` is neither 0
    /// (auto) nor a supported superblock width.
    pub fn validate(&self) -> Result<(), String> {
        if self.block_words != 0 && !SUPPORTED_BLOCK_WORDS.contains(&self.block_words) {
            return Err(format!(
                "block_words must be 0 (auto) or one of {SUPPORTED_BLOCK_WORDS:?}, got {}",
                self.block_words
            ));
        }
        Ok(())
    }
}

/// Work counters and shape of one 2D tiled run.
///
/// Everything except `steals` is deterministic for fixed inputs and
/// options: the per-pass eval split depends on the stripe layout, not on
/// sharding or scheduling.  `steals` — tiles executed by a non-home
/// worker — depends on thread timing and is diagnostic only.
#[derive(Debug, Clone, Copy, Default)]
pub struct TileStats {
    /// Combined work counters of both passes, replays included.
    pub sim: SimStats,
    /// Gate evals of the second pass (stripes 1 and later).
    pub event_node_evals: u64,
    /// Gate evals of stripe 0 (the first pass), so that
    /// `probe_node_evals + event_node_evals == sim.node_evals`.  The name
    /// is kept only for the frozen `perfbench/trace` helper.
    pub probe_node_evals: u64,
    /// Resolved superblock width of the event axis.
    pub block_words: usize,
    /// Resolved pattern-stripe count, stripe 0 included.
    pub stripes: usize,
    /// Resolved fault-shard count.
    pub shards: usize,
    /// Resolved worker-thread count.
    pub threads: usize,
    /// Tiles executed (including replays of poisoned tiles).
    pub tiles: u64,
    /// Tiles executed by a worker away from its home shard
    /// (nondeterministic; diagnostic only).
    pub steals: u64,
    /// Always 0: the engine has no batch axis.  Kept only so the frozen
    /// `perfbench/trace` helper still builds.
    pub batch_dense_faults: u64,
}

/// A budgeted tiled coverage run's payload.
#[derive(Debug, Clone)]
pub struct RobustTiledCoverage {
    /// Detection results over the patterns actually simulated.
    pub result: CoverageResult,
    /// Work counters and run shape.
    pub stats: TileStats,
    /// What recovery, if any, the run needed.  Unlike the 1D engine, an
    /// unresolved tile shortens the reported pattern prefix instead of
    /// leaving holes: the result is always a well-formed prefix, and
    /// `unresolved` lists the faults whose later stripes were abandoned.
    pub recovery: ShardRecovery,
}

/// What a tile records per fault: first in-stripe detection pattern
/// (coverage) or in-stripe detection count (counts).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Coverage { drop: bool },
    Counts,
}

impl Mode {
    fn drops(self) -> bool {
        self == Mode::Coverage { drop: true }
    }
}

/// Resolved run shape: the monomorphization width and thread/shard
/// counts.
struct Layout {
    block_words: usize,
    shards: usize,
    threads: usize,
}

/// Widest supported width that fits the pattern count (no point drawing
/// lanes past the stream) and the lane-scratch cache budget.
fn auto_block_words(num_nodes: usize, num_patterns: u64) -> usize {
    let mut best = 1;
    for w in SUPPORTED_BLOCK_WORDS {
        let patterns_fit = 64 * (w as u64) <= num_patterns.max(64);
        let cache_fit = num_nodes.saturating_mul(w).saturating_mul(8) <= LANE_SCRATCH_BUDGET_BYTES;
        if patterns_fit && cache_fit {
            best = w;
        }
    }
    best
}

fn resolve_layout(
    circuit: &Circuit,
    num_faults: usize,
    num_patterns: u64,
    opts: &TileOptions,
) -> Layout {
    let block_words = if opts.block_words == 0 {
        auto_block_words(circuit.num_nodes(), num_patterns)
    } else {
        opts.block_words
    };
    let threads = recommended_threads(opts.threads, num_faults).max(1);
    let shards = if opts.fault_shards == 0 {
        threads
    } else {
        opts.fault_shards
    };
    Layout {
        block_words,
        shards,
        threads,
    }
}

/// Cuts the blocks into stripe ranges: stripe 0 is the first superblock,
/// and the rest of the stream is cut into up to `requested` further
/// stripes (0 = auto), each a whole number of `w`-block superblocks, so
/// overstriping clamps to `ceil(rest / w)` stripes.
fn stripe_ranges(blocks: &[PatternBlock], requested: usize, w: usize) -> Vec<Range<usize>> {
    if blocks.is_empty() {
        return Vec::new();
    }
    let first = superblock_split(blocks, w);
    let mut stripes = Vec::new();
    stripes.push(0..first);
    let rest = blocks.len() - first;
    if rest > 0 {
        let requested = if requested == 0 {
            AUTO_MAX_STRIPES
        } else {
            requested
        }
        .clamp(1, rest.div_ceil(w));
        // Round the stripe size up to a whole number of superblocks so
        // within-stripe grouping matches the serial engine's.
        let per = rest.div_ceil(requested).div_ceil(w) * w;
        let mut start = first;
        while start < blocks.len() {
            let end = (start + per).min(blocks.len());
            stripes.push(start..end);
            start = end;
        }
    }
    stripes
}

/// Per-worker tile recorder: epoch-stamped per-fault slots so a tile's
/// (fault → value) pairs are collected without a per-tile allocation of
/// fault-list length.
struct TileRecorder {
    stamp: Vec<u32>,
    value: Vec<u64>,
    touched: Vec<u32>,
    epoch: u32,
}

impl TileRecorder {
    fn new(num_faults: usize) -> Self {
        TileRecorder {
            stamp: vec![0; num_faults],
            value: vec![0; num_faults],
            touched: Vec::new(),
            epoch: 0,
        }
    }

    fn begin_tile(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
    }

    /// Records one detection of fault `i`: the minimum of `first` (the
    /// first detecting pattern) under coverage, the sum of `count` (the
    /// detecting patterns) under counts.
    fn record(&mut self, mode: Mode, i: usize, first: u64, count: u32) {
        let v = match mode {
            Mode::Coverage { .. } => first,
            Mode::Counts => u64::from(count),
        };
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.value[i] = v;
            self.touched.push(i as u32);
        } else if mode == Mode::Counts {
            self.value[i] += v;
        } else if v < self.value[i] {
            self.value[i] = v;
        }
    }

    fn drain(&self) -> Vec<(u32, u64)> {
        self.touched
            .iter()
            .map(|&i| (i, self.value[i as usize]))
            .collect()
    }
}

/// The fixed inputs every tile of one run reads.
struct Grid<'a> {
    circuit: &'a Circuit,
    faults: &'a FaultList,
    blocks: &'a [PatternBlock],
    /// First pattern index of each block.
    block_start: Vec<u64>,
    stripes: Vec<Range<usize>>,
    mode: Mode,
    threads: usize,
    budget: Option<&'a Budget>,
}

/// A worker's reusable tile scratch.
struct TileScratch<'c, const W: usize> {
    sim: EventSimulator<'c, W>,
    sb: SuperBlock<W>,
    rec: TileRecorder,
}

impl<'c, const W: usize> TileScratch<'c, W> {
    fn new(grid: &Grid<'c>) -> Self {
        TileScratch {
            sim: EventSimulator::new(grid.circuit, grid.faults),
            sb: SuperBlock::empty(grid.circuit.num_inputs()),
            rec: TileRecorder::new(grid.faults.len()),
        }
    }

    /// Runs stripe `t` against the fault indices `members`: one event
    /// pass per superblock.
    fn run(&mut self, grid: &Grid<'_>, members: &[u32], t: usize) -> Vec<(u32, u64)> {
        let TileScratch { sim, sb, rec } = self;
        rec.begin_tile();
        let mut worklist = FaultWorklist::from_indices(members);
        let (mode, range) = (grid.mode, grid.stripes[t].clone());
        let mut b = range.start;
        while b < range.end {
            let take = superblock_split(&grid.blocks[b..range.end], W);
            sb.refill_from_blocks(&grid.blocks[b..b + take]);
            let base = grid.block_start[b];
            sim.detect_superblock_worklist(&sb.words, sb.mask(), &mut worklist, mode.drops(), |i, w| {
                let bit = first_set_bit(&w).expect("on_detect implies a set bit");
                rec.record(mode, i, base + u64::from(bit), count_set_bits(&w));
            });
            b += take;
        }
        rec.drain()
    }
}

/// Dense-engine replay of a poisoned tile — the last rung of the ladder.
fn replay_tile_dense(grid: &Grid<'_>, members: &[u32], t: usize) -> (Vec<(u32, u64)>, SimStats) {
    let sublist = FaultList::from_faults(
        members
            .iter()
            .map(|&i| grid.faults.fault(FaultId::from_index(i as usize)))
            .collect(),
    );
    let mut sim = FaultSimulator::new(grid.circuit, &sublist);
    let mut rec = TileRecorder::new(sublist.len());
    rec.begin_tile();
    let mut worklist = FaultWorklist::full(sublist.len());
    let mode = grid.mode;
    for b in grid.stripes[t].clone() {
        let (block, base) = (&grid.blocks[b], grid.block_start[b]);
        sim.detect_block_worklist(&block.words, block.mask(), &mut worklist, mode.drops(), |i, w| {
            rec.record(mode, i, base + u64::from(w.trailing_zeros()), w.count_ones());
        });
    }
    let values = rec
        .drain()
        .into_iter()
        .map(|(local, v)| (members[local as usize], v))
        .collect();
    (values, sim.stats())
}

/// Per-tile merged values, tagged by stripe so an interrupted run can
/// keep exactly the completed-stripe prefix.
struct TileOutput {
    stripe: usize,
    values: Vec<(u32, u64)>,
}

/// What both passes report into: merged tile values, completion marks,
/// recovery, and the first budget trip.
struct Ledger {
    outputs: Vec<TileOutput>,
    /// `completed[s * stripes + t]`: tile (shard `s`, stripe `t`) is merged.
    completed: Vec<bool>,
    stripes: usize,
    recovery: ShardRecovery,
    tripped: Option<BudgetExceeded>,
    tiles: u64,
    steals: u64,
}

impl Ledger {
    fn merge(&mut self, s: usize, t: usize, values: Vec<(u32, u64)>) {
        self.outputs.push(TileOutput { stripe: t, values });
        self.completed[s * self.stripes + t] = true;
    }

    /// Whether stripe `t` has every shard's tile merged.
    fn stripe_complete(&self, t: usize, shards: usize) -> bool {
        (0..shards).all(|s| self.completed[s * self.stripes + t])
    }
}

fn lock_shared<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Tile panics are caught before the lock is taken, so poisoning only
    // happens on a programmer error in the bookkeeping itself; the state
    // is still consistent for reporting.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One pass of the worker loop over the tiles (`s`, `t`) with `t` in
/// `pass`, for every shard `s`: workers claim tiles (home shard first,
/// then stealing), check the budget, and run each tile under
/// `catch_unwind`; poisoned tiles then go down the replay ladder.
/// Returns the pass's work counters.
fn run_pass<const W: usize>(
    grid: &Grid<'_>,
    members: &[Vec<u32>],
    pass: Range<usize>,
    ledger: &mut Ledger,
) -> SimStats {
    struct PassState<'l> {
        ledger: &'l mut Ledger,
        poisoned: Vec<(usize, usize)>,
        stats: SimStats,
    }
    let shards = members.len();
    let cursors: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(pass.start)).collect();
    let stop = AtomicBool::new(false);
    let state = Mutex::new(PassState {
        ledger,
        poisoned: Vec::new(),
        stats: SimStats::default(),
    });
    let workers = grid.threads.min(shards * pass.len());
    std::thread::scope(|scope| {
        for wi in 0..workers {
            let (state, cursors, stop, end) = (&state, &cursors, &stop, pass.end);
            scope.spawn(move || {
                let mut scratch = TileScratch::<W>::new(grid);
                let mut banked = SimStats::default();
                let home = wi % shards;
                while !stop.load(Ordering::Relaxed) {
                    let claim = (0..shards).find_map(|off| {
                        let s = (home + off) % shards;
                        let t = cursors[s].fetch_add(1, Ordering::Relaxed);
                        (t < end).then_some((s, t, off != 0))
                    });
                    let Some((s, t, stolen)) = claim else { break };
                    if let Some(budget) = grid.budget {
                        // The eval axis resolved upfront to the pattern
                        // clip, so only deadline, cancellation, and
                        // injections can trip here; the claimed tile
                        // stays unmerged.
                        if let Err(reason) = budget.check_in(0, 0) {
                            stop.store(true, Ordering::Relaxed);
                            lock_shared(state).ledger.tripped.get_or_insert(reason);
                            break;
                        }
                    }
                    let attempt = catch_unwind(AssertUnwindSafe(
                        || -> Result<Vec<(u32, u64)>, InjectedFailure> {
                            failpoint::hit(sites::TILE_RUN)?;
                            Ok(scratch.run(grid, &members[s], t))
                        },
                    ));
                    let panicked = attempt.is_err();
                    {
                        let mut st = lock_shared(state);
                        st.ledger.tiles += 1;
                        st.ledger.steals += u64::from(stolen);
                        match attempt {
                            Ok(Ok(values)) => st.ledger.merge(s, t, values),
                            Ok(Err(_)) | Err(_) => {
                                st.ledger.recovery.worker_panics += usize::from(panicked);
                                st.poisoned.push((s, t));
                            }
                        }
                    }
                    if panicked {
                        // A panic mid-drain can leave bucket chains and
                        // epoch stamps inconsistent: rebuild the scratch
                        // before touching another tile.
                        banked.merge(&scratch.sim.stats());
                        scratch = TileScratch::new(grid);
                    }
                }
                banked.merge(&scratch.sim.stats());
                lock_shared(state).stats.merge(&banked);
            });
        }
    });
    let PassState {
        ledger,
        mut poisoned,
        mut stats,
    } = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    poisoned.sort_unstable();
    for (s, t) in poisoned {
        stats.merge(&replay_tile::<W>(grid, &members[s], s, t, ledger));
    }
    stats
}

/// The replay ladder for one poisoned tile (home or stolen alike): a
/// serial event replay on fresh scratch first, the dense engine second.
/// A tile that fails both leaves its faults unresolved and its stripe
/// incomplete.  Returns the replays' work counters.
fn replay_tile<const W: usize>(
    grid: &Grid<'_>,
    members: &[u32],
    s: usize,
    t: usize,
    ledger: &mut Ledger,
) -> SimStats {
    ledger.recovery.replays += 1;
    ledger.recovery.ladder.record(
        DegradeStep::ShardRequeue,
        format!("tile (shard {s}, stripe {t}) poisoned; serial event replay"),
    );
    ledger.tiles += 1;
    let event = catch_unwind(AssertUnwindSafe(|| {
        let mut scratch = TileScratch::<W>::new(grid);
        let values = scratch.run(grid, members, t);
        (values, scratch.sim.stats())
    }));
    if let Ok((values, stats)) = event {
        ledger.merge(s, t, values);
        return stats;
    }
    ledger.recovery.worker_panics += 1;
    ledger.recovery.replays += 1;
    ledger.recovery.ladder.record(
        DegradeStep::EventToDense,
        format!("tile (shard {s}, stripe {t}) event replay failed; dense replay"),
    );
    ledger.tiles += 1;
    match catch_unwind(AssertUnwindSafe(|| replay_tile_dense(grid, members, t))) {
        Ok((values, stats)) => {
            ledger.merge(s, t, values);
            stats
        }
        Err(_) => {
            ledger.recovery.worker_panics += 1;
            ledger
                .recovery
                .unresolved
                .extend(members.iter().map(|&i| FaultId::from_index(i as usize)));
            SimStats::default()
        }
    }
}

/// Everything the tile scheduler reports back to the public entry points.
struct TiledRaw {
    outputs: Vec<TileOutput>,
    stats: TileStats,
    recovery: ShardRecovery,
    /// Stripes fully completed as a prefix (outputs beyond are dropped).
    prefix_stripes: usize,
    streamed: u64,
    tripped: Option<BudgetExceeded>,
}

/// The 2D scheduler: materialized blocks in, per-tile merged values out.
fn run_tiled<const W: usize>(
    circuit: &Circuit,
    faults: &FaultList,
    blocks: &[PatternBlock],
    layout: &Layout,
    requested_stripes: usize,
    mode: Mode,
    budget: Option<&Budget>,
) -> TiledRaw {
    let partition = FaultPartition::cone_locality(circuit, faults, layout.shards);
    let shards = partition.num_shards();
    let block_start: Vec<u64> = blocks
        .iter()
        .scan(0u64, |acc, b| {
            let start = *acc;
            *acc += u64::from(b.len);
            Some(start)
        })
        .collect();
    let total_patterns: u64 = block_start.last().map_or(0, |&s| s)
        + blocks.last().map_or(0, |b| u64::from(b.len));
    let grid = Grid {
        circuit,
        faults,
        blocks,
        block_start,
        stripes: stripe_ranges(blocks, requested_stripes, W),
        mode,
        threads: layout.threads,
        budget,
    };
    let stripes = grid.stripes.len();
    let mut ledger = Ledger {
        outputs: Vec::new(),
        completed: vec![false; shards * stripes],
        stripes,
        recovery: ShardRecovery::default(),
        tripped: None,
        tiles: 0,
        steals: 0,
    };
    let mut members: Vec<Vec<u32>> = partition
        .shards()
        .map(|shard| shard.iter().map(|id| id.index() as u32).collect())
        .collect();

    // First pass: stripe 0, one tile per shard.
    let first = run_pass::<W>(&grid, &members, 0..stripes.min(1), &mut ledger);
    // Second pass: the later stripes, once every stripe-0 tile is merged.
    // Under dropping, faults stripe 0 detected retire from them — the
    // serial engine's drop, since no later pattern can lower their first
    // detection.
    let mut rest = SimStats::default();
    if stripes > 1 && ledger.tripped.is_none() && ledger.stripe_complete(0, shards) {
        if mode.drops() {
            let mut retired = vec![false; faults.len()];
            for &(i, _) in ledger.outputs.iter().flat_map(|out| &out.values) {
                retired[i as usize] = true;
            }
            for shard in &mut members {
                shard.retain(|&i| !retired[i as usize]);
            }
        }
        rest = run_pass::<W>(&grid, &members, 1..stripes, &mut ledger);
    }

    // Keep the maximal prefix of fully-completed stripes: every kept
    // stripe has every shard's tile merged, so the result is exactly the
    // serial prefix over those patterns.
    let prefix_stripes = (0..stripes)
        .take_while(|&t| ledger.stripe_complete(t, shards))
        .count();
    let streamed = if prefix_stripes == stripes {
        total_patterns
    } else {
        grid.block_start[grid.stripes[prefix_stripes].start]
    };
    let tripped = ledger.tripped.or_else(|| {
        // No budget trip, yet an incomplete stripe: replays were
        // exhausted, so surface the injection as the interrupt reason.
        (prefix_stripes < stripes).then_some(BudgetExceeded::Injected)
    });

    let mut sim = first;
    sim.merge(&rest);
    let stats = TileStats {
        sim,
        event_node_evals: rest.node_evals,
        probe_node_evals: first.node_evals,
        block_words: W,
        stripes,
        shards,
        threads: layout.threads,
        tiles: ledger.tiles,
        steals: ledger.steals,
        batch_dense_faults: 0,
    };
    TiledRaw {
        outputs: ledger.outputs,
        stats,
        recovery: ledger.recovery,
        prefix_stripes,
        streamed,
        tripped,
    }
}

/// Draws the whole pattern stream upfront (sequentially, so the blocks
/// are exactly what the serial engine would see), 64 patterns per block.
fn draw_blocks(source: &mut impl PatternSource, num_patterns: u64) -> Vec<PatternBlock> {
    let mut blocks = Vec::new();
    let mut done = 0u64;
    while done < num_patterns {
        let block = source.next_block((num_patterns - done).min(64) as u32);
        if block.len == 0 {
            break; // defensive: a dead source must not loop forever
        }
        done += u64::from(block.len);
        blocks.push(block);
    }
    blocks
}

fn run_dispatch(
    circuit: &Circuit,
    faults: &FaultList,
    source: &mut impl PatternSource,
    num_patterns: u64,
    mode: Mode,
    opts: &TileOptions,
    budget: Option<&Budget>,
) -> (TiledRaw, u64) {
    opts.validate().expect("invalid TileOptions");
    let blocks = draw_blocks(source, num_patterns);
    let layout = resolve_layout(circuit, faults.len(), num_patterns, opts);
    let raw = with_block_words!(layout.block_words, W => {
        run_tiled::<W>(
            circuit,
            faults,
            &blocks,
            &layout,
            opts.pattern_stripes,
            mode,
            budget,
        )
    });
    let drawn: u64 = blocks.iter().map(|b| u64::from(b.len)).sum();
    (raw, drawn)
}

fn merge_coverage(raw: &TiledRaw, num_faults: usize) -> Vec<Option<u64>> {
    let mut detected_at: Vec<Option<u64>> = vec![None; num_faults];
    for out in &raw.outputs {
        if out.stripe >= raw.prefix_stripes {
            continue;
        }
        for &(i, p) in &out.values {
            let slot = &mut detected_at[i as usize];
            if slot.is_none_or(|prev| p < prev) {
                *slot = Some(p);
            }
        }
    }
    detected_at
}

/// [`crate::fault_coverage`] on the 2D tiled engine: bit-identical to the
/// serial engines for every thread count, stripe size, shard count, and
/// steal order.  Also returns the run's [`TileStats`].
///
/// # Panics
///
/// Panics if `opts` fails [`TileOptions::validate`], or if a poisoned
/// tile exhausted its replay ladder (impossible without injected
/// failures; use [`fault_coverage_tiled_robust`] to handle it
/// structurally).
pub fn fault_coverage_tiled(
    circuit: &Circuit,
    faults: &FaultList,
    mut source: impl PatternSource,
    num_patterns: u64,
    drop: bool,
    opts: &TileOptions,
) -> (CoverageResult, TileStats) {
    let (raw, drawn) = run_dispatch(
        circuit,
        faults,
        &mut source,
        num_patterns,
        Mode::Coverage { drop },
        opts,
        None,
    );
    assert!(
        raw.recovery.fully_recovered() && raw.prefix_stripes == raw.stats.stripes,
        "tiled run left unresolved tiles; use fault_coverage_tiled_robust"
    );
    let detected_at = merge_coverage(&raw, faults.len());
    (CoverageResult::new(detected_at, drawn), raw.stats)
}

/// [`crate::detection_counts`] on the 2D tiled engine; see
/// [`fault_coverage_tiled`].
///
/// # Panics
///
/// Panics under the same conditions as [`fault_coverage_tiled`].
pub fn detection_counts_tiled(
    circuit: &Circuit,
    faults: &FaultList,
    mut source: impl PatternSource,
    num_patterns: u64,
    opts: &TileOptions,
) -> (Vec<u64>, TileStats) {
    let (raw, _) = run_dispatch(
        circuit,
        faults,
        &mut source,
        num_patterns,
        Mode::Counts,
        opts,
        None,
    );
    assert!(
        raw.recovery.fully_recovered() && raw.prefix_stripes == raw.stats.stripes,
        "tiled run left unresolved tiles; use fault_coverage_tiled_robust"
    );
    let mut counts = vec![0u64; faults.len()];
    for out in &raw.outputs {
        for &(i, c) in &out.values {
            counts[i as usize] += c;
        }
    }
    (counts, raw.stats)
}

/// Budgeted, panic-isolated [`fault_coverage_tiled`].
///
/// The eval axis resolves upfront to the same deterministic pattern clip
/// as [`crate::fault_coverage_robust`]; deadline/cancel trips and
/// exhausted tile replays keep the maximal prefix of fully-completed
/// stripes, so the partial is always a well-formed pattern prefix.
///
/// # Panics
///
/// Panics if `opts` fails [`TileOptions::validate`].
pub fn fault_coverage_tiled_robust(
    circuit: &Circuit,
    faults: &FaultList,
    mut source: impl PatternSource,
    num_patterns: u64,
    drop: bool,
    opts: &TileOptions,
    budget: &Budget,
) -> RunOutcome<RobustTiledCoverage> {
    let (target, _) = eval_clip(circuit, num_patterns, budget);
    let (raw, _) = run_dispatch(
        circuit,
        faults,
        &mut source,
        target,
        Mode::Coverage { drop },
        opts,
        Some(budget),
    );
    let detected_at = merge_coverage(&raw, faults.len());
    wrap_outcome(
        RobustTiledCoverage {
            result: CoverageResult::new(detected_at, raw.streamed),
            stats: raw.stats,
            recovery: raw.recovery,
        },
        raw.streamed,
        raw.tripped,
        target,
        num_patterns,
    )
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
        let faults = wrt_fault::FaultList::full(&c);
        let serial = fault_coverage(&c, &faults, WeightedPatterns::equiprobable(3, 7), 500, true);
        let (tiled, stats) = fault_coverage_tiled(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 7),
            500,
            true,
            &opts(2, 3, 2, 3),
        );
        assert_eq!(serial.detected_at(), tiled.detected_at());
        // 500 patterns = 8 blocks at W = 2: stripe 0 is the first 2-block
        // superblock, and 3 requested stripes cut the remaining 6 blocks.
        assert_eq!(stats.stripes, 4);
        // Stripe 0 runs as ordinary tiles: one tile per shard and stripe.
        assert_eq!(stats.tiles, (stats.stripes * stats.shards) as u64);
        assert!(stats.probe_node_evals > 0);
        assert_eq!(
            stats.probe_node_evals + stats.event_node_evals,
            stats.sim.node_evals
        );
        assert_eq!(stats.batch_dense_faults, 0);
    }

    #[test]
    fn tiled_counts_match_serial() {
        let c = adder();
        let faults = wrt_fault::FaultList::full(&c);
        let serial = detection_counts(&c, &faults, WeightedPatterns::equiprobable(3, 9), 700);
        let (counts, _) = detection_counts_tiled(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 9),
            700,
            &opts(4, 4, 3, 2),
        );
        assert_eq!(serial, counts);
    }

    #[test]
    fn overstriping_clamps_to_superblock_granularity() {
        let c = adder();
        let faults = wrt_fault::FaultList::full(&c);
        // 500 patterns = 8 blocks; W = 2 admits at most 4 stripes.
        let (result, stats) = fault_coverage_tiled(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 1),
            500,
            true,
            &opts(2, 1000, 100, 5),
        );
        assert_eq!(stats.stripes, 4);
        assert!(stats.shards <= faults.len());
        let serial = fault_coverage(&c, &faults, WeightedPatterns::equiprobable(3, 1), 500, true);
        assert_eq!(serial.detected_at(), result.detected_at());
    }

    #[test]
    fn auto_layout_resolves_width_by_patterns_and_cache() {
        assert_eq!(auto_block_words(100, 64), 1);
        assert_eq!(auto_block_words(100, 2048), 16);
        assert_eq!(auto_block_words(100, 100_000), 16);
        // A 120k-node circuit busts the 16-lane scratch budget.
        assert_eq!(auto_block_words(120_000, 100_000), 8);
    }

    #[test]
    fn empty_faults_and_zero_patterns_are_fine() {
        let c = adder();
        let empty = wrt_fault::FaultList::from_faults(vec![]);
        let (result, _) = fault_coverage_tiled(
            &c,
            &empty,
            WeightedPatterns::equiprobable(3, 1),
            64,
            true,
            &TileOptions::default(),
        );
        assert_eq!(result.num_faults(), 0);
        let faults = wrt_fault::FaultList::full(&c);
        let (result, stats) = fault_coverage_tiled(
            &c,
            &faults,
            WeightedPatterns::equiprobable(3, 1),
            0,
            true,
            &TileOptions::default(),
        );
        assert_eq!(result.num_patterns(), 0);
        assert_eq!(stats.stripes, 0);
        assert!(result.detected_at().iter().all(Option::is_none));
    }

    #[test]
    fn options_validation() {
        assert!(TileOptions::default().validate().is_ok());
        assert!(opts(16, 0, 0, 0).validate().is_ok());
        assert!(opts(3, 0, 0, 0).validate().is_err());
        assert!(opts(32, 0, 0, 0).validate().is_err());
    }

    #[test]
    fn robust_eval_budget_clips_deterministically() {
        let c = adder();
        let faults = wrt_fault::FaultList::full(&c);
        let nodes = c.num_nodes() as u64;
        let budget = Budget::unlimited().with_max_evals(100 * nodes);
        let clipped =
            fault_coverage(&c, &faults, WeightedPatterns::equiprobable(3, 5), 100, false);
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
        let faults = wrt_fault::FaultList::full(&c);
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
    use crate::event::{fault_coverage_opts, SimOptions};
    use crate::fault_sim::{detection_counts, fault_coverage};
    use crate::patterns::WeightedPatterns;
    use crate::test_support::arb_circuit;
    use proptest::prelude::*;
    use wrt_fault::FaultList;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The 2D engine is bit-identical to the serial dense engine —
        /// `detected_at` and `counts` — across random circuits, widths,
        /// thread counts, stripe sizes (overstriping included), shard
        /// counts (oversharding included), and drop modes.
        #[test]
        fn tiled_is_bit_identical_to_serial(
            circuit in arb_circuit(),
            weights in proptest::collection::vec(0.05f64..0.95, 4),
            shape in (0usize..6, 1usize..6, 0usize..40, 0usize..30),
            run in (0u64..1_000, 1u64..700, any::<bool>()),
        ) {
            let (width_idx, threads, stripes, shards) = shape;
            let (seed, patterns, drop) = run;
            let faults = FaultList::full(&circuit);
            let words = if width_idx < SUPPORTED_BLOCK_WORDS.len() {
                SUPPORTED_BLOCK_WORDS[width_idx]
            } else {
                0 // auto
            };
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
            let (tiled, stats) = fault_coverage_tiled(
                &circuit, &faults,
                WeightedPatterns::new(weights.clone(), seed),
                patterns, drop, &topts,
            );
            prop_assert_eq!(dense.detected_at(), tiled.detected_at());
            prop_assert!(stats.sim.fault_blocks > 0 || faults.is_empty());

            let counts = detection_counts(
                &circuit, &faults,
                WeightedPatterns::new(weights.clone(), seed),
                patterns,
            );
            let (counts_tiled, _) = detection_counts_tiled(
                &circuit, &faults,
                WeightedPatterns::new(weights, seed),
                patterns, &topts,
            );
            prop_assert_eq!(&counts, &counts_tiled);
        }

        /// Over threads {1, 2, 3} × stripes {0, 1, 3} (shards follow the
        /// thread count): coverage and the stripe-0 evals never change,
        /// the two passes' evals add up to the total, the total is the
        /// same whenever the resolved stripe count is, and when the rest
        /// of the stream forms at most one stripe it equals the 1D event
        /// engine's evals at the same width.
        #[test]
        fn tiled_evals_do_not_depend_on_the_schedule(
            circuit in arb_circuit(),
            weights in proptest::collection::vec(0.05f64..0.95, 4),
            width_idx in 0usize..5,
            seed in 0u64..1_000,
            patterns in 1u64..1_500,
        ) {
            let faults = FaultList::full(&circuit);
            let words = SUPPORTED_BLOCK_WORDS[width_idx];
            let (serial, serial_stats) = fault_coverage_opts(
                &circuit, &faults,
                WeightedPatterns::new(weights.clone(), seed),
                patterns, true, SimOptions::event(words),
            );
            let mut stripe0_evals = None;
            let mut evals_by_stripes: Vec<(usize, u64)> = Vec::new();
            for threads in [1, 2, 3] {
                for stripes in [0, 1, 3] {
                    let (tiled, stats) = fault_coverage_tiled(
                        &circuit, &faults,
                        WeightedPatterns::new(weights.clone(), seed),
                        patterns, true,
                        &TileOptions {
                            block_words: words,
                            pattern_stripes: stripes,
                            threads,
                            ..TileOptions::default()
                        },
                    );
                    prop_assert_eq!(serial.detected_at(), tiled.detected_at());
                    prop_assert_eq!(
                        stats.probe_node_evals + stats.event_node_evals,
                        stats.sim.node_evals
                    );
                    prop_assert_eq!(
                        *stripe0_evals.get_or_insert(stats.probe_node_evals),
                        stats.probe_node_evals
                    );
                    match evals_by_stripes.iter().find(|&&(s, _)| s == stats.stripes) {
                        Some(&(_, evals)) => prop_assert_eq!(evals, stats.sim.node_evals),
                        None => evals_by_stripes.push((stats.stripes, stats.sim.node_evals)),
                    }
                    if stats.stripes <= 2 {
                        prop_assert_eq!(stats.sim.node_evals, serial_stats.node_evals);
                    }
                }
            }
        }

        /// The robust tiled entry over an unlimited budget is complete,
        /// clean, and bit-identical to serial.
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

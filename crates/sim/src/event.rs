//! Event-driven sparse PPSFP fault propagation over multi-word superblocks.
//!
//! The dense oracle ([`crate::FaultSimulator`]) re-evaluates **every node
//! of a fault's output cone** for every 64-pattern block, even when the
//! fault effect dies one gate past the injection site.  The engine here
//! replaces that cone walk with *event scheduling*: a node whose faulty
//! value differs from the fault-free value pushes only its fanouts onto a
//! level-ordered ready set, untouched-fanin nodes are never evaluated, and
//! propagation terminates the moment the active frontier drains.  Faults
//! whose effects die early cost `O(frontier)` instead of `O(cone)`.
//!
//! On top of that, blocks are widened from one `u64` to `W` words
//! ([`SuperBlock`]; the fault-simulation engine runs at
//! [`crate::BLOCK_WORDS`], ATPG's fault dropping at 1): each scheduled
//! node evaluates `64 * W` patterns at once through fixed-size
//! `[u64; W]` lanes ([`crate::eval_gate_lanes`]), amortizing the
//! scheduling and good-value lookups across `W`× more patterns and giving
//! the autovectorizer straight-line SIMD bodies.
//!
//! # Event queue invariants
//!
//! The ready set is a vector of per-level buckets reused across faults:
//!
//! 1. **Monotone levels.**  A node is only ever scheduled by one of its
//!    fanins (or the injection root), whose level is strictly smaller, so
//!    scheduling always targets a level *above* the bucket currently being
//!    drained.  Draining buckets in increasing level order therefore
//!    evaluates every node after all of its touched fanins — the same
//!    order guarantee the dense engine gets from topologically sorted
//!    cones.
//! 2. **At-most-once scheduling.**  `queued[n] == epoch` marks nodes
//!    already in the ready set for the current (root, superblock) pass;
//!    re-touching a fanin of `n` does not enqueue `n` twice.  A level
//!    enters the min-heap of occupied levels exactly when its bucket
//!    turns non-empty, so the drain loop hops directly between occupied
//!    levels — empty levels of a deep circuit cost nothing.
//! 3. **Termination.**  The sweep stops the moment the occupied-level
//!    heap drains, so a fault effect that dies after `k` gates costs `k`
//!    evaluations plus `O(k log k)` heap traffic — never a full cone
//!    walk.  It also stops once every flipped lane is *observed*: a lane
//!    retires when some primary output differs in it, only nodes still
//!    differing in a pending lane schedule their fanouts, and when no lane
//!    is pending the rest of the ready set is discarded (occupied levels
//!    and bucket heads cleared), so an effect that reaches an output one
//!    gate up never pays for the cone beyond it.
//! 4. **Epoch reuse.**  Buckets are always left empty between passes;
//!    `touched`/`queued` stamps are invalidated by bumping `epoch`
//!    (with a full reset on the extremely rare u32 wrap), so per-pass
//!    setup is O(1).
//!
//! # One propagation per fanout-free region
//!
//! A pass propagates a fanout-free region's *head*, not a fault: inside a
//! region ([`FanoutFreeRegions`]) a fault's effect can only leave along
//! the single-fanout path from its effect root to the head, so its lanes
//! at the head are its excited lanes ANDed with the root's *local
//! observability* — the lanes where every gate on that path is sensitized
//! by its fault-free side inputs (critical path tracing).  All live faults
//! of one region in one superblock (every stem polarity, pin fault and
//! chain fault inside it) are then served by a single propagation that
//! flips the head in the union of those lanes — exact because gate
//! evaluation is lane-independent (see [`EventSimulator`]).  Local
//! observabilities are computed lazily, only along the chains of excited
//! roots, and memoized per superblock, so a one-pattern pass pays for the
//! chains its faults touch, not for a whole-circuit backward sweep.
//!
//! # One pattern: region heads in lanes
//!
//! ATPG's fault dropping simulates one test at a time, which would leave
//! 63 of 64 lanes idle ([`EventSimulator::detect_pattern_worklist`]).
//! There every lane holds the test, so the lanes carry heads instead: one
//! propagation complements up to 64 heads, each in a lane of its own, and
//! a lane is observed exactly when its head is (parallel-fault
//! simulation of the heads).  A head inside the cone of another head of
//! the same propagation is re-evaluated there and complemented again in
//! its own lane.  Heads are taken in id order, so the heads of one
//! propagation lie close together and share much of their cones.
//!
//! Detection results are bit-identical to the dense oracle for every
//! drop mode and shard count — property-tested in this module and relied
//! on by the whole stack (`MonteCarloEngine`, the CLI, the benches).

use std::borrow::Cow;

use wrt_circuit::{Circuit, FanoutFreeRegions, GateKind, NodeId};
use wrt_fault::{Fault, FaultList, FaultSite};

use crate::fault_sim::FaultWorklist;
use crate::logic::{eval_gate_lanes, WideLogicSim};
use crate::patterns::PatternBlock;

/// Machine-independent work counters of one PPSFP run.
///
/// These are the metrics `BENCH_sim.json` reports: wall-clock numbers
/// depend on the host, but gate evaluations per detected fault do not, so
/// the perf trajectory stays comparable across machines.  Every counter
/// but `node_evals` and `root_propagations` is per `(fault, block)`
/// attempt and identical across the dense and event engines at `W = 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// `(fault, block)` propagation attempts (after good simulation).
    pub fault_blocks: u64,
    /// Attempts where the fault was not excited anywhere in the block
    /// (root value equals the fault-free value; zero propagation work).
    pub unexcited: u64,
    /// Gate evaluations during fault propagation (excluding the root
    /// injection): the dense engine pays one per cone node per excited
    /// block, the event engine one per *scheduled* node per region-head
    /// propagation.  The event engine's local-observability steps inside
    /// a region (one sensitization check per chain node and superblock)
    /// are not propagation and are not counted.
    pub node_evals: u64,
    /// Fault-effect propagations: the dense engine runs one per excited
    /// attempt from the fault's effect root, the event engine one per
    /// fanout-free region head per superblock whose faults' effects reach
    /// it, shared by every fault in that region.
    pub root_propagations: u64,
    /// Excited attempts whose effect died before reaching any primary
    /// output (the frontier drained without touching a PO).
    pub frontier_deaths: u64,
    /// Attempts that detected the fault in at least one pattern.
    pub detected_blocks: u64,
}

impl SimStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &SimStats) {
        self.fault_blocks += other.fault_blocks;
        self.unexcited += other.unexcited;
        self.node_evals += other.node_evals;
        self.root_propagations += other.root_propagations;
        self.frontier_deaths += other.frontier_deaths;
        self.detected_blocks += other.detected_blocks;
    }

    /// Excited `(fault, block)` attempts (fault effect present at the root).
    pub fn excited(&self) -> u64 {
        self.fault_blocks - self.unexcited
    }

    /// Fraction of excited attempts whose effect died before any primary
    /// output — the die-out rate the event engine exploits (0 when nothing
    /// was excited).
    pub fn frontier_dieout_rate(&self) -> f64 {
        if self.excited() == 0 {
            return 0.0;
        }
        self.frontier_deaths as f64 / self.excited() as f64
    }

    /// Excited attempts per propagation: 1 for the per-fault dense
    /// engine, at least 1 for the event engine, whose one propagation per
    /// region head serves every excited fault in the region whose effect
    /// reaches the head (1 when nothing was propagated).
    pub fn faults_per_propagation(&self) -> f64 {
        if self.root_propagations == 0 {
            return 1.0;
        }
        self.excited() as f64 / self.root_propagations as f64
    }
}

/// Per-fault work profile of an [`EventSimulator`], collected on demand
/// (see [`EventSimulator::enable_eval_profile`]).  This is what
/// `bench_sim` uses to *derive* the dense engine's eval count on circuits
/// too large to run the dense engine outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvalProfile {
    /// Excited 64-pattern blocks per fault, *clipped at the detecting
    /// block of each pass*: a lane counts iff it holds valid patterns,
    /// the fault is excited there (at its own effect root, whether or not
    /// the effect reaches its region's head), and no earlier lane of the
    /// same pass already detected the fault.  With `drop = true` callers
    /// this is exactly the number of blocks the dense engine would have
    /// paid a cone walk for, which makes
    /// `Σ excited_blocks[f] × (cone(f) − 1)` the dense engine's
    /// `node_evals` without ever running it.
    pub excited_blocks: Vec<u64>,
}

/// One superblock of up to `64 * W` bit-parallel patterns: `W` consecutive
/// [`PatternBlock`]s transposed into `[u64; W]` lanes, one lane array per
/// primary input.  Bit `j` of lane `k` is pattern `64 * k + j` relative to
/// the superblock start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperBlock<const W: usize> {
    /// One `[u64; W]` per primary input.
    pub words: Vec<[u64; W]>,
    /// Number of valid patterns (`1..=64 * W`); valid patterns are a
    /// prefix, so lane `k` is fully valid iff `len >= 64 * (k + 1)`.
    pub len: u32,
}

impl<const W: usize> SuperBlock<W> {
    /// An empty superblock shell for `num_inputs` inputs (`len == 0`),
    /// meant to be reused as scratch across
    /// [`SuperBlock::refill_from_blocks`] calls so streaming loops perform
    /// no per-superblock allocation.
    pub fn empty(num_inputs: usize) -> Self {
        SuperBlock {
            words: vec![[0u64; W]; num_inputs],
            len: 0,
        }
    }

    /// Transposes up to `W` already-drawn consecutive blocks into a
    /// superblock (blocks arrive at the shard workers broadcast in
    /// chunks).  All blocks but the last must be full.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or holds more than `W` blocks.
    pub fn from_blocks(blocks: &[PatternBlock]) -> Self {
        assert!(!blocks.is_empty(), "at least one block per superblock");
        let mut sb = SuperBlock::empty(blocks[0].words.len());
        sb.refill_from_blocks(blocks);
        sb
    }

    /// In-place [`SuperBlock::from_blocks`], reusing the lane allocation;
    /// lanes beyond `blocks.len()` are zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty, holds more than `W` blocks, does not
    /// match the shell's input count, or holds a short block anywhere but
    /// last — valid patterns must form a prefix of the lane array (group
    /// with [`superblock_split`] to respect short blocks).
    pub fn refill_from_blocks(&mut self, blocks: &[PatternBlock]) {
        assert!(
            !blocks.is_empty() && blocks.len() <= W,
            "1..={W} blocks per superblock"
        );
        assert_eq!(
            self.words.len(),
            blocks[0].words.len(),
            "superblock shell matches the blocks' input count"
        );
        self.len = 0;
        for k in 0..W {
            match blocks.get(k) {
                Some(block) => {
                    assert!(
                        k + 1 == blocks.len() || block.len == 64,
                        "only the final block of a superblock may be partial"
                    );
                    for (lanes, &w) in self.words.iter_mut().zip(&block.words) {
                        lanes[k] = w;
                    }
                    self.len += block.len;
                }
                None => {
                    for lanes in self.words.iter_mut() {
                        lanes[k] = 0;
                    }
                }
            }
        }
    }

    /// Lane masks with the `len` low bits set across the lane array.
    pub fn mask(&self) -> [u64; W] {
        let mut m = [0u64; W];
        let mut left = self.len;
        for lane in m.iter_mut() {
            if left == 0 {
                break;
            }
            let take = left.min(64);
            *lane = if take >= 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            left -= take;
        }
        m
    }
}

/// The value a fault forces at its effect root, lane-widened: `stuck`
/// itself for stem faults, the gate re-evaluated with the faulty pin for
/// pin faults.  The one copy of the injection semantics, shared by the
/// dense (`W = 1`) and event engines so a change cannot break their
/// bit-identity contract.
#[inline]
pub(crate) fn inject_root_lanes<const W: usize>(
    circuit: &Circuit,
    fault: Fault,
    stuck: [u64; W],
    good: impl Fn(NodeId) -> [u64; W],
) -> [u64; W] {
    match fault.site {
        FaultSite::Output(_) => stuck,
        FaultSite::InputPin { gate, pin } => {
            let node = circuit.node(gate);
            let lanes =
                node.fanin()
                    .iter()
                    .enumerate()
                    .map(|(p, f)| if p == pin { stuck } else { good(*f) });
            eval_gate_lanes(node.kind(), lanes)
        }
    }
}

/// Number of consecutive blocks (at most `max_words`, at least 1) forming
/// the next superblock of a block stream: grouping extends only across
/// full 64-pattern blocks and closes at the first short one, so valid
/// patterns always form a prefix of the lane array.
///
/// # Panics
///
/// Panics if `blocks` is empty or `max_words` is zero.
pub fn superblock_split(blocks: &[PatternBlock], max_words: usize) -> usize {
    assert!(!blocks.is_empty() && max_words > 0);
    let mut take = 1;
    while take < max_words && take < blocks.len() && blocks[take - 1].len == 64 {
        take += 1;
    }
    take
}

/// Position of the lowest set bit across the lane array (pattern index
/// within the superblock), or `None` if all lanes are zero.
pub fn first_set_bit<const W: usize>(lanes: &[u64; W]) -> Option<u32> {
    lanes
        .iter()
        .enumerate()
        .find(|(_, &lane)| lane != 0)
        .map(|(k, lane)| k as u32 * 64 + lane.trailing_zeros())
}

/// Total set bits across the lane array (detections in the superblock).
pub fn count_set_bits<const W: usize>(lanes: &[u64; W]) -> u32 {
    lanes.iter().map(|lane| lane.count_ones()).sum()
}

/// Sentinel for "no node" in the intrusive ready chains.
const NIL: u32 = u32::MAX;

#[inline]
fn and_mask<const W: usize>(mut lanes: [u64; W], mask: &[u64; W]) -> [u64; W] {
    for (l, m) in lanes.iter_mut().zip(mask) {
        *l &= m;
    }
    lanes
}

#[inline]
fn xor_lanes<const W: usize>(mut lanes: [u64; W], flip: &[u64; W]) -> [u64; W] {
    for (l, f) in lanes.iter_mut().zip(flip) {
        *l ^= f;
    }
    lanes
}

/// Event-driven PPSFP fault simulator over `W`-word superblocks.
///
/// Unlike [`crate::FaultSimulator`], no per-fault cones are stored at all: the
/// reachable region is discovered on the fly by the event queue, and the
/// circuit's CSR fanout lists bound propagation exactly as tightly as an
/// explicit cone would — minus every node the fault effect never reaches.
///
/// # Region grouping
///
/// A fault's effect leaves its fanout-free region only through the
/// region's head, so faults are propagated per head.  Per superblock the
/// kernel
///
/// 1. computes each live fault's *excited lanes* (injected root value XOR
///    fault-free root value) and its root's *local observability* (the
///    lanes where flipping the root flips the region head: the AND of
///    the sensitization of every gate on the single-fanout path between
///    them), and ORs `excited & local_obs` into one union per head;
/// 2. propagates every head with a non-empty union **once**, complementing
///    it in exactly the union lanes, and records the unmasked
///    primary-output difference lanes `obs(head)`;
/// 3. reports fault `f` detected in
///    `excited(f) & local_obs(root(f)) & obs(head(f)) & mask`.
///
/// This is exact because gate evaluation is lane-independent: in every
/// lane where `f` is excited, the faulty circuit is the fault-free one
/// with `root(f)` complemented; that flip reaches the head in exactly the
/// locally observable lanes (the path's side inputs lie outside the
/// root's fanout, so they keep their fault-free values), where the faulty
/// circuit is the fault-free one with the head complemented; in every
/// other lane nothing outside the region changes.  Every [`SimStats`]
/// counter except `node_evals` (and `root_propagations`) stays per fault;
/// the dense engine keeps its per-fault cone walk as the oracle.
///
/// # Example
///
/// ```
/// use wrt_circuit::parse_bench;
/// use wrt_fault::FaultList;
/// use wrt_sim::{EventSimulator, FaultWorklist, SuperBlock, WeightedPatterns, PatternSource};
///
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n")?;
/// let faults = FaultList::checkpoints(&c);
/// let mut sim = EventSimulator::<4>::new(&c, &faults);
/// let mut src = WeightedPatterns::equiprobable(2, 3);
/// let blocks: Vec<_> = (0..4).map(|_| src.next_block(64)).collect();
/// let sb = SuperBlock::<4>::from_blocks(&blocks);
/// let mut worklist = FaultWorklist::full(faults.len());
/// let mut detections = 0;
/// sim.detect_superblock_worklist(&sb.words, sb.mask(), &mut worklist, false, |_, _| {
///     detections += 1;
/// });
/// assert!(detections > 0);
/// // The four checkpoint faults (both polarities of `a` and `b`) lie in
/// // one fanout-free region, headed by the output `y`: at most one
/// // propagation.
/// assert!(sim.stats().root_propagations <= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EventSimulator<'c, const W: usize> {
    circuit: &'c Circuit,
    regions: Cow<'c, FanoutFreeRegions>,
    faults: Vec<Fault>,
    good: WideLogicSim<'c, W>,
    /// Scratch: faulty lanes per node, valid when `touched == epoch`.
    faulty: Vec<[u64; W]>,
    touched: Vec<u32>,
    /// Ready-set membership stamp (invariant 2 in the module docs).
    queued: Vec<u32>,
    epoch: u32,
    /// Level-indexed ready chains, intrusively linked: `bucket_head[l]`
    /// is the most recently scheduled node at level `l` (`NIL` when the
    /// level is empty) and `bucket_next[n]` links node `n` to the next
    /// ready node of its level.  Two flat O(depth)/O(nodes) arrays
    /// replace one heap-allocated `Vec` per level; within-level order is
    /// irrelevant because every fanin of a level-`l` node sits strictly
    /// below `l`.
    bucket_head: Box<[u32]>,
    bucket_next: Box<[u32]>,
    /// Min-heap of levels whose bucket is non-empty, so the drain loop
    /// hops directly between occupied levels instead of probing every
    /// level up to the deepest scheduled node (on deep circuits the empty
    /// probes would rival the real evaluations).
    active_levels: std::collections::BinaryHeap<std::cmp::Reverse<u32>>,
    /// Flat copy of the per-node levels (one indirection instead of two
    /// on the scheduling hot path).
    level: Box<[u32]>,
    /// Per non-head node: its local observability in the current
    /// superblock, valid when `local_stamp == superblock`.
    local_obs: Vec<[u64; W]>,
    local_stamp: Vec<u32>,
    superblock: u32,
    /// Scratch: the chain walked by [`EventSimulator::local_obs`].
    chain: Vec<NodeId>,
    /// The region heads reached in the current superblock: each head with
    /// the union of its faults' lanes at the head (step 1 of region
    /// grouping), overwritten by its observed output-difference lanes
    /// (step 2).
    heads: Vec<(NodeId, [u64; W])>,
    /// Per node: its slot in `heads`, valid only when that slot points
    /// back at the node — a sparse set, so nothing is cleared between
    /// superblocks.
    head_slot: Box<[u32]>,
    /// Per node: its slot in the current propagation's roots, a sparse
    /// set like `head_slot`.
    root_slot: Box<[u32]>,
    stats: SimStats,
    /// Per-fault counters, allocated only when profiling is enabled so
    /// the hot path pays one branch otherwise.
    profile: Option<FaultEvalProfile>,
}

impl<'c, const W: usize> EventSimulator<'c, W> {
    /// Builds a simulator for `circuit` and `faults`, computing the
    /// circuit's fanout-free regions.
    pub fn new(circuit: &'c Circuit, faults: &FaultList) -> Self {
        Self::build(circuit, Cow::Owned(FanoutFreeRegions::new(circuit)), faults)
    }

    /// Builds a simulator over already computed fanout-free regions of
    /// `circuit`, so callers running many simulators on one circuit (the
    /// shard workers) compute them once.
    ///
    /// # Panics
    ///
    /// Panics if `regions` covers a different node count.
    pub(crate) fn with_regions(
        circuit: &'c Circuit,
        regions: &'c FanoutFreeRegions,
        faults: &FaultList,
    ) -> Self {
        Self::build(circuit, Cow::Borrowed(regions), faults)
    }

    fn build(
        circuit: &'c Circuit,
        regions: Cow<'c, FanoutFreeRegions>,
        faults: &FaultList,
    ) -> Self {
        let n = circuit.num_nodes();
        assert_eq!(regions.num_nodes(), n, "regions of this circuit");
        EventSimulator {
            circuit,
            regions,
            faults: faults.iter().map(|(_, f)| f).collect(),
            good: WideLogicSim::new(circuit),
            faulty: vec![[0; W]; n],
            touched: vec![0; n],
            queued: vec![0; n],
            epoch: 0,
            bucket_head: vec![NIL; circuit.levels().depth() as usize + 1].into_boxed_slice(),
            bucket_next: vec![NIL; n].into_boxed_slice(),
            active_levels: std::collections::BinaryHeap::new(),
            level: circuit.ids().map(|id| circuit.levels().level(id)).collect(),
            local_obs: vec![[0; W]; n],
            local_stamp: vec![0; n],
            superblock: 0,
            chain: Vec::new(),
            heads: Vec::new(),
            head_slot: vec![NIL; n].into_boxed_slice(),
            root_slot: vec![NIL; n].into_boxed_slice(),
            stats: SimStats::default(),
            profile: None,
        }
    }

    /// Number of faults under simulation.
    pub fn num_faults(&self) -> usize {
        self.faults.len()
    }

    /// Work counters accumulated since construction (or the last
    /// [`EventSimulator::reset_stats`]).
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Clears the accumulated work counters.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    /// Starts (or restarts) per-fault profiling; counters begin at zero.
    pub fn enable_eval_profile(&mut self) {
        self.profile = Some(FaultEvalProfile {
            excited_blocks: vec![0; self.faults.len()],
        });
    }

    /// Takes the profile accumulated since
    /// [`EventSimulator::enable_eval_profile`], disabling profiling.
    pub fn take_eval_profile(&mut self) -> Option<FaultEvalProfile> {
        self.profile.take()
    }

    /// Simulates one superblock fault-free, then visits exactly the faults
    /// in `worklist`, invoking `on_detect(fault_index, detection_lanes)`
    /// for every fault the superblock detects.  With `drop = true`,
    /// detected faults are swap-removed from the worklist.
    ///
    /// Faults of one fanout-free region are propagated once, together,
    /// from the region's head (see the type docs).  The contract mirrors
    /// [`crate::FaultSimulator::detect_block_worklist`] with `u64` widened
    /// to `[u64; W]`; detection lanes are bit-identical to `W` consecutive
    /// dense blocks.
    pub fn detect_superblock_worklist(
        &mut self,
        pi_words: &[[u64; W]],
        mask: [u64; W],
        worklist: &mut FaultWorklist,
        drop: bool,
        on_detect: impl FnMut(usize, [u64; W]),
    ) {
        self.collect_heads(pi_words, worklist);
        // Step 2: one propagation per reached head.
        for k in 0..self.heads.len() {
            self.heads[k].1 = self.propagate(&[self.heads[k]]);
        }
        self.stats.root_propagations += self.heads.len() as u64;
        // Step 3: per-fault detection from its head's observed lanes.
        worklist.visit(drop, [0; W], |i| self.detect_fault(i, &mask), on_detect);
    }

    /// Simulates one superblock fault-free and lists in `heads` every
    /// region head reached by a fault of `worklist`, with the union of
    /// those faults' lanes at the head (step 1 of region grouping).
    fn collect_heads(&mut self, pi_words: &[[u64; W]], worklist: &FaultWorklist) {
        self.good.run(pi_words);
        self.superblock = self.superblock.wrapping_add(1);
        if self.superblock == 0 {
            // Extremely rare wrap: reset the local-observability stamps.
            self.local_stamp.fill(0);
            self.superblock = 1;
        }
        self.heads.clear();
        for &i in worklist.as_slice() {
            let fault = self.faults[i as usize];
            let excited = self.excited_lanes(fault);
            if excited == [0; W] {
                continue;
            }
            let root = fault.site.effect_root();
            let at_head = and_mask(excited, &self.local_obs(root));
            if at_head == [0; W] {
                continue;
            }
            let head = self.regions.head(root);
            match self.heads.get_mut(self.head_slot[head.index()] as usize) {
                Some((h, union)) if *h == head => {
                    for (u, e) in union.iter_mut().zip(&at_head) {
                        *u |= e;
                    }
                }
                _ => {
                    self.head_slot[head.index()] = self.heads.len() as u32;
                    self.heads.push((head, at_head));
                }
            }
        }
    }

    /// The lanes where `fault` is excited: its injected root value differs
    /// from the fault-free one (callers must have run a superblock first).
    fn excited_lanes(&self, fault: Fault) -> [u64; W] {
        let stuck = if fault.stuck_value {
            [u64::MAX; W]
        } else {
            [0; W]
        };
        let lanes = inject_root_lanes(self.circuit, fault, stuck, |f| self.good.value(f));
        xor_lanes(lanes, &self.good.value(fault.site.effect_root()))
    }

    /// The lanes where complementing `node` complements its region's head
    /// in the current superblock: all lanes for a head, otherwise the
    /// sensitization of its unique sink gate ANDed with the sink's own
    /// local observability.  Walks up the chain only to the head or to
    /// the first node already resolved this superblock, then memoizes
    /// every node it passed.
    fn local_obs(&mut self, node: NodeId) -> [u64; W] {
        let circuit = self.circuit;
        let mut n = node;
        let mut obs = loop {
            if self.regions.is_head(n) {
                break [u64::MAX; W];
            }
            if self.local_stamp[n.index()] == self.superblock {
                break self.local_obs[n.index()];
            }
            self.chain.push(n);
            n = circuit.fanout(n)[0];
        };
        while let Some(m) = self.chain.pop() {
            if obs != [0; W] {
                // Flip `m` at its sink (it feeds exactly one pin there)
                // and keep the lanes where the sink's output flips too.
                let sink = circuit.fanout(m)[0];
                let gate = circuit.node(sink);
                let flipped = eval_gate_lanes(
                    gate.kind(),
                    gate.fanin().iter().map(|&f| {
                        let v = self.good.value(f);
                        if f == m {
                            v.map(|x| !x)
                        } else {
                            v
                        }
                    }),
                );
                let good_sink = self.good.value(sink);
                for ((o, x), g) in obs.iter_mut().zip(&flipped).zip(&good_sink) {
                    *o &= x ^ g;
                }
            }
            self.local_obs[m.index()] = obs;
            self.local_stamp[m.index()] = self.superblock;
        }
        obs
    }

    /// The one copy of the ready-set bookkeeping (invariants 1–2 in the
    /// module docs): stamps `s` as queued for `epoch`, registers its level
    /// in the occupied-level heap on the bucket's empty→non-empty
    /// transition, and enqueues it.  `above` is the scheduler's level —
    /// scheduling is strictly upward, which is what makes the level-order
    /// drain evaluate every node after all of its touched fanins.
    #[inline]
    fn schedule(&mut self, s: NodeId, epoch: u32, above: u32) {
        let si = s.index();
        if self.queued[si] != epoch {
            self.queued[si] = epoch;
            let lvl = self.level[si];
            debug_assert!(lvl > above, "scheduling is strictly upward");
            let head = &mut self.bucket_head[lvl as usize];
            if *head == NIL {
                self.active_levels.push(std::cmp::Reverse(lvl));
            }
            self.bucket_next[si] = *head;
            *head = si as u32;
        }
    }

    /// Complements every root in its flip lanes against the current
    /// fault-free state, propagates the effects until the frontier drains
    /// or every flipped lane is observed, and returns the flipped lanes
    /// some primary output differs in.  The roots' lanes are disjoint, so
    /// each lane is the fault-free circuit with one root complemented.
    fn propagate(&mut self, roots: &[(NodeId, [u64; W])]) -> [u64; W] {
        let circuit = self.circuit;
        // Flipped lanes no primary output has differed in yet.  Node
        // values are exact in every pending lane (a node differs there
        // only through a fanin that differed there while it was pending,
        // and that fanin scheduled it), so retiring an observed lane
        // cannot change the result.
        let mut flipped = [0; W];
        let mut pending = [0; W];
        for &(root, flip) in roots {
            for ((a, p), f) in flipped.iter_mut().zip(&mut pending).zip(&flip) {
                *a |= f;
                if !circuit.is_output(root) {
                    *p |= f;
                }
            }
        }
        if pending == [0; W] {
            return flipped;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: reset both stamp arrays.
            self.touched.fill(0);
            self.queued.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;

        // Seed the ready set with the roots' fanouts, then drain occupied
        // buckets in increasing level order until the frontier dies out
        // or no lane is pending.  `circuit` is the copied `&'c` reference,
        // so fanout slices do not hold a borrow of `self` across the
        // `schedule` calls.  A root another root's effect reaches is
        // re-evaluated there and complemented again in its own lanes,
        // where its fanins keep their fault-free values.
        for (k, &(root, flip)) in roots.iter().enumerate() {
            self.root_slot[root.index()] = k as u32;
            self.faulty[root.index()] = xor_lanes(self.good.value(root), &flip);
            self.touched[root.index()] = epoch;
            if !circuit.is_output(root) {
                let root_level = self.level[root.index()];
                for &s in circuit.fanout(root) {
                    self.schedule(s, epoch, root_level);
                }
            }
        }
        'drain: while let Some(std::cmp::Reverse(lvl)) = self.active_levels.pop() {
            // Detach the whole chain; draining schedules only into strictly
            // higher levels, so the links we walk are never rewritten.
            let mut ni = std::mem::replace(&mut self.bucket_head[lvl as usize], NIL);
            while ni != NIL {
                let n = NodeId::from_index(ni as usize);
                let node = circuit.node(n);
                debug_assert!(node.kind() != GateKind::Input);
                self.stats.node_evals += 1;
                let mut w = eval_gate_lanes(
                    node.kind(),
                    node.fanin().iter().map(|f| {
                        if self.touched[f.index()] == epoch {
                            self.faulty[f.index()]
                        } else {
                            self.good.value(*f)
                        }
                    }),
                );
                if roots.len() > 1 && self.touched[ni as usize] == epoch {
                    // Touched before its evaluation: one of the roots (a
                    // lone root is never reached, nothing above it differs).
                    let (root, flip) = roots[self.root_slot[ni as usize] as usize];
                    debug_assert_eq!(root, n);
                    w = xor_lanes(w, &flip);
                }
                let good_n = self.good.value(n);
                if w != good_n {
                    self.faulty[ni as usize] = w;
                    self.touched[ni as usize] = epoch;
                    let observed = circuit.is_output(n);
                    let mut live = false;
                    for ((p, x), g) in pending.iter_mut().zip(&w).zip(&good_n) {
                        let d = x ^ g;
                        if observed {
                            *p &= !d;
                        }
                        live |= d & *p != 0;
                    }
                    if pending == [0; W] {
                        // Every flipped lane is observed: discard the rest
                        // of the ready set (the detached chain is dropped
                        // with `ni`).
                        while let Some(std::cmp::Reverse(l)) = self.active_levels.pop() {
                            self.bucket_head[l as usize] = NIL;
                        }
                        break 'drain;
                    }
                    if live {
                        for &s in circuit.fanout(n) {
                            self.schedule(s, epoch, lvl);
                        }
                    }
                }
                ni = self.bucket_next[ni as usize];
            }
        }
        and_mask(flipped, &pending.map(|p| !p))
    }

    /// Detection lanes for fault index `i` from its head's observed lanes
    /// (callers must have run steps 1 and 2 for the current superblock).
    fn detect_fault(&mut self, i: usize, mask: &[u64; W]) -> [u64; W] {
        let fault = self.faults[i];
        self.stats.fault_blocks += 1;
        let excited = self.excited_lanes(fault);
        if excited == [0; W] {
            // Fault not excited anywhere in this superblock.
            self.stats.unexcited += 1;
            return [0; W];
        }
        let root = fault.site.effect_root();
        let mut seen = and_mask(excited, &self.local_obs(root));
        if seen != [0; W] {
            let head = self.regions.head(root);
            let (_, obs) = self.heads[self.head_slot[head.index()] as usize];
            seen = and_mask(seen, &obs);
        }
        if seen == [0; W] {
            // The fault's own effect reaches no primary output.
            self.stats.frontier_deaths += 1;
        }
        let masked = and_mask(seen, mask);
        if masked != [0; W] {
            self.stats.detected_blocks += 1;
        }
        if let Some(profile) = self.profile.as_mut() {
            // Excited valid lanes up to (and including) the detecting
            // lane — the blocks a drop-mode dense engine would walk.
            let last = first_set_bit(&masked).map_or(W, |b| b as usize / 64 + 1);
            profile.excited_blocks[i] += mask
                .iter()
                .zip(&excited)
                .take(last)
                .filter(|&(&m, &e)| m != 0 && e != 0)
                .count() as u64;
        }
        masked
    }
}

impl EventSimulator<'_, 1> {
    /// Simulates one pattern, invokes `on_detect(fault_index)` for every
    /// fault in `worklist` it detects, and drops those faults: the
    /// detections of [`EventSimulator::detect_superblock_worklist`] on a
    /// one-pattern superblock with `drop = true`.
    ///
    /// Every lane holds the pattern, so the lanes carry region heads
    /// instead of patterns: one propagation flips up to 64 heads, each in
    /// a lane of its own (see the module docs).
    pub fn detect_pattern_worklist(
        &mut self,
        pattern: &[bool],
        worklist: &mut FaultWorklist,
        mut on_detect: impl FnMut(usize),
    ) {
        let pi_words: Vec<[u64; 1]> = pattern
            .iter()
            .map(|&b| [if b { u64::MAX } else { 0 }])
            .collect();
        self.collect_heads(&pi_words, worklist);
        // Step 2: the heads in id order, 64 to a propagation, head `k` of
        // a propagation in lane `k`.
        self.heads.sort_unstable_by_key(|&(head, _)| head);
        let mut roots = Vec::with_capacity(64);
        for base in (0..self.heads.len()).step_by(64) {
            let batch = base..self.heads.len().min(base + 64);
            roots.clear();
            for (k, slot) in batch.clone().enumerate() {
                let head = self.heads[slot].0;
                self.head_slot[head.index()] = slot as u32;
                roots.push((head, [1 << k]));
            }
            let [observed] = self.propagate(&roots);
            for (k, slot) in batch.enumerate() {
                let seen = observed >> k & 1 == 1;
                self.heads[slot].1 = [if seen { u64::MAX } else { 0 }];
            }
        }
        self.stats.root_propagations += self.heads.len() as u64;
        // Step 3: per-fault detection from its head's observed lanes.
        worklist.visit(
            true,
            [0],
            |i| self.detect_fault(i, &[u64::MAX]),
            |i, _| on_detect(i),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_sim::{detection_counts, fault_coverage};
    use crate::patterns::{ExhaustivePatterns, PatternSource, WeightedPatterns};
    use crate::test_support::{counts, coverage, dense_superblock_stats};
    use crate::BLOCK_WORDS;
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
    fn superblock_draw_matches_block_stream() {
        let mut src = WeightedPatterns::equiprobable(3, 9);
        let blocks: Vec<_> = (0..4).map(|_| src.next_block(64)).collect();
        let sb = SuperBlock::<4>::from_blocks(&blocks);
        assert_eq!(sb.len, 256);
        for (k, block) in blocks.iter().enumerate() {
            for (pi, lanes) in sb.words.iter().enumerate() {
                assert_eq!(lanes[k], block.words[pi], "lane {k} input {pi}");
            }
        }
    }

    #[test]
    fn superblock_mask_is_prefix() {
        let mut src = ExhaustivePatterns::new(2);
        let blocks = [src.next_block(64), src.next_block(64), src.next_block(2)];
        let sb = SuperBlock::<4>::from_blocks(&blocks);
        assert_eq!(sb.len, 130);
        assert_eq!(sb.mask(), [u64::MAX, u64::MAX, 0b11, 0]);
        let two = SuperBlock::<4>::from_blocks(&blocks[..2]);
        assert_eq!(two.len, 128);
        assert_eq!(two.mask(), [u64::MAX, u64::MAX, 0, 0]);
    }

    #[test]
    fn superblock_refill_zeroes_stale_lanes() {
        let mut src = ExhaustivePatterns::new(2);
        let full: Vec<_> = (0..4).map(|_| src.next_block(64)).collect();
        let mut sb = SuperBlock::<4>::empty(2);
        sb.refill_from_blocks(&full);
        assert_eq!(sb.len, 256);
        // Partial refill: lanes 1..4 must not keep the previous patterns.
        sb.refill_from_blocks(&[src.next_block(40)]);
        assert_eq!(sb.len, 40);
        for lanes in &sb.words {
            assert_eq!(&lanes[1..], &[0, 0, 0], "stale lanes zeroed");
        }
        assert_eq!(sb.mask(), [(1u64 << 40) - 1, 0, 0, 0]);
        // A refilled shell equals a fresh superblock of the same blocks.
        let blocks = [src.next_block(64), src.next_block(32)];
        sb.refill_from_blocks(&blocks);
        assert_eq!(sb.len, 96);
        assert_eq!(sb, SuperBlock::<4>::from_blocks(&blocks));
    }

    /// A conforming-but-awkward source: never more than 24 patterns per
    /// block, even when more are requested (the trait allows it).
    #[derive(Clone)]
    struct ShortBlocks(WeightedPatterns);

    impl PatternSource for ShortBlocks {
        fn next_block(&mut self, limit: u32) -> crate::patterns::PatternBlock {
            self.0.next_block(limit.min(24))
        }

        fn num_inputs(&self) -> usize {
            self.0.num_inputs()
        }
    }

    #[test]
    fn short_block_sources_stay_bit_identical() {
        let c = adder();
        let faults = wrt_fault::FaultList::full(&c);
        let short = || ShortBlocks(WeightedPatterns::equiprobable(3, 3));
        let dense = fault_coverage(&c, &faults, short(), 200, true);
        for threads in [1, 3] {
            let (event, _) = coverage(&c, &faults, short(), 200, true, threads);
            assert_eq!(
                dense.detected_at(),
                event.detected_at(),
                "threads = {threads}"
            );
        }
        // A short mid-stream block closes the superblock early.
        let mut src = short();
        let blocks: Vec<_> = (0..4).map(|_| src.next_block(64)).collect();
        let take = superblock_split(&blocks, 4);
        assert_eq!(take, 1, "superblock ends at the short block");
        let sb = SuperBlock::<4>::from_blocks(&blocks[..take]);
        assert_eq!(sb.len, 24);
        assert_eq!(sb.mask(), [(1u64 << 24) - 1, 0, 0, 0]);
    }

    #[test]
    fn superblock_split_groups_full_blocks_only() {
        let mut src = WeightedPatterns::equiprobable(2, 1);
        let blocks: Vec<_> = (0..5).map(|_| src.next_block(64)).collect();
        assert_eq!(superblock_split(&blocks, 4), 4);
        assert_eq!(superblock_split(&blocks[4..], 4), 1);
        let mut short_tail = vec![src.next_block(64), src.next_block(64)];
        short_tail.push(src.next_block(10));
        short_tail.push(src.next_block(64));
        // Grouping may include the short block as its last member...
        assert_eq!(superblock_split(&short_tail, 4), 3);
        // ...but never extends past it.
        assert_eq!(superblock_split(&short_tail[2..], 4), 1);
    }

    #[test]
    fn lane_bit_helpers() {
        let lanes = [0u64, 0b1000, u64::MAX, 0];
        assert_eq!(first_set_bit(&lanes), Some(64 + 3));
        assert_eq!(count_set_bits(&lanes), 1 + 64);
        assert_eq!(first_set_bit(&[0u64; 4]), None);
        assert_eq!(first_set_bit(&[1u64]), Some(0));
    }

    #[test]
    fn event_matches_dense_on_full_adder_exhaustive() {
        let c = adder();
        let faults = wrt_fault::FaultList::full(&c);
        let dense = fault_coverage(&c, &faults, ExhaustivePatterns::new(3), 8, false);
        for drop in [false, true] {
            let (event, stats) = coverage(&c, &faults, ExhaustivePatterns::new(3), 8, drop, 1);
            assert_eq!(dense.detected_at(), event.detected_at(), "drop = {drop}");
            assert!(stats.fault_blocks > 0);
        }
    }

    #[test]
    fn event_counts_match_dense() {
        let c = adder();
        let faults = wrt_fault::FaultList::full(&c);
        let dense = detection_counts(&c, &faults, WeightedPatterns::equiprobable(3, 5), 999);
        let (event, _) = counts(&c, &faults, WeightedPatterns::equiprobable(3, 5), 999, 1);
        assert_eq!(dense, event);
    }

    #[test]
    fn event_stats_count_frontier_deaths() {
        // y = AND(m, 0-ish): fault on `a` propagates into m but the AND
        // with b = 0 kills it before the output in every pattern.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = NOT(a)\ny = AND(m, b)\n").unwrap();
        let a = c.node_id("a").unwrap();
        let faults = wrt_fault::FaultList::from_faults(vec![wrt_fault::Fault::output(a, true)]);
        let mut sim = EventSimulator::<1>::new(&c, &faults);
        // Patterns with a = 0 (fault excited) and b = 0 (effect masked at y).
        let mut worklist = FaultWorklist::full(1);
        sim.detect_superblock_worklist(
            &[[0u64], [0u64]],
            [u64::MAX],
            &mut worklist,
            false,
            |_, _| panic!("must not detect"),
        );
        let stats = sim.stats();
        assert_eq!(stats.fault_blocks, 1);
        assert_eq!(stats.unexcited, 0);
        assert_eq!(stats.frontier_deaths, 1);
        // `a`, `m` and `y` form one fanout-free region: the effect dies
        // inside it (b = 0 desensitizes the AND), so nothing propagates.
        assert_eq!(stats.node_evals, 0);
        assert_eq!(stats.frontier_dieout_rate(), 1.0);
    }

    /// Runs one single-word superblock (one lane array per input) over
    /// every fault of `sim`, returning the detections.
    fn one_pass(sim: &mut EventSimulator<'_, 1>, inputs: &[u64]) -> Vec<(usize, [u64; 1])> {
        let words: Vec<[u64; 1]> = inputs.iter().map(|&w| [w]).collect();
        let mut worklist = FaultWorklist::full(sim.num_faults());
        let mut detections = Vec::new();
        sim.detect_superblock_worklist(&words, [u64::MAX], &mut worklist, false, |i, w| {
            detections.push((i, w))
        });
        detections
    }

    #[test]
    fn a_pass_stopped_by_retirement_leaves_the_ready_set_empty() {
        // The stem `a` reaches the output `y1` at level 2 and, through
        // `c1`, queues `x` at level 3; with e = 1 every lane is observed
        // at `y1`, so the first pass stops with `x` still queued.  The
        // second pass (e = f = 0) reaches the output `z` at level 4 only
        // through `g1` and `g2` (level 3), and must cost and detect
        // exactly what a fresh simulator's does.
        let c = parse_bench(
            "INPUT(a)\nINPUT(e)\nINPUT(f)\nOUTPUT(y1)\nOUTPUT(x)\nOUTPUT(z)\n\
             b1 = NOT(a)\ny1 = AND(b1, e)\nc1 = AND(a, f)\nk1 = NOT(f)\nk2 = NOT(k1)\n\
             x = AND(c1, k2)\ng1 = AND(a, k1)\ng2 = BUF(g1)\nz = BUF(g2)\n",
        )
        .unwrap();
        let a = c.node_id("a").unwrap();
        let faults = wrt_fault::FaultList::from_faults(vec![wrt_fault::Fault::output(a, false)]);
        let mut reused = EventSimulator::<1>::new(&c, &faults);
        assert_eq!(one_pass(&mut reused, &[!0, !0, !0]), vec![(0, [!0])]);
        let first = reused.stats();
        assert!(first.node_evals < 5, "stopped before `x`: {first:?}");
        reused.reset_stats();
        let mut fresh = EventSimulator::<1>::new(&c, &faults);
        let second = one_pass(&mut reused, &[!0, 0, 0]);
        assert_eq!(second, vec![(0, [!0])], "observed at `z`");
        assert_eq!(second, one_pass(&mut fresh, &[!0, 0, 0]));
        assert_eq!(reused.stats(), fresh.stats());
    }

    #[test]
    fn an_effect_observed_one_gate_up_skips_the_chain_beyond() {
        // The stem `s` flips the output `y` one gate up in every lane; the
        // chain g1..g6 → z beyond it (sensitized: c = 1) is never paid.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
             s = AND(a, b)\ny = NOT(s)\nc1 = NOT(c)\nc2 = NOT(c1)\ng1 = AND(s, c2)\n\
             g2 = NOT(g1)\ng3 = BUF(g2)\ng4 = NOT(g3)\ng5 = BUF(g4)\ng6 = NOT(g5)\n\
             z = BUF(g6)\n",
        )
        .unwrap();
        let stuck = |name: &str| wrt_fault::Fault::output(c.node_id(name).unwrap(), false);
        let faults = wrt_fault::FaultList::from_faults(vec![stuck("s")]);
        let mut sim = EventSimulator::<1>::new(&c, &faults);
        assert_eq!(one_pass(&mut sim, &[!0, !0, !0]), vec![(0, [!0])]);
        let stats = sim.stats();
        assert_eq!(stats.root_propagations, 1);
        assert_eq!(stats.node_evals, 1, "only `y`, not the 7 chain gates");

        // g1..g6 and z form one region headed by the output `z`: the
        // chain's faults share one propagation, which costs nothing.
        let chain = wrt_fault::FaultList::from_faults(vec![stuck("g2"), stuck("g3"), stuck("g5")]);
        let mut sim = EventSimulator::<1>::new(&c, &chain);
        // With a = 0, s = g1 = 0: g2 = g3 = 1 (stuck-at-0 excited) and
        // g5 = 0 (not excited).
        let detections = one_pass(&mut sim, &[0, !0, !0]);
        assert_eq!(detections, vec![(0, [!0]), (1, [!0])]);
        let stats = sim.stats();
        assert_eq!((stats.unexcited, stats.detected_blocks), (1, 2));
        assert_eq!(stats.root_propagations, 1);
        assert_eq!(stats.node_evals, 0);
    }

    #[test]
    fn a_node_differing_only_in_observed_patterns_schedules_nothing() {
        // Both patterns flip the stem `a`.  Pattern 0 is observed at `y`
        // at once (e = 1), so `y`, which differs in pattern 0 only, must
        // not schedule the chain h1..h3 beyond it; pattern 1 stays
        // pending until `z`, five levels up.
        let c = parse_bench(
            "INPUT(a)\nINPUT(e)\nOUTPUT(y)\nOUTPUT(h3)\nOUTPUT(z)\n\
             y = AND(a, e)\nh1 = NOT(y)\nh2 = BUF(h1)\nh3 = NOT(h2)\n\
             g1 = BUF(a)\ng2 = NOT(g1)\ng3 = BUF(g2)\ng4 = NOT(g3)\nz = BUF(g4)\n",
        )
        .unwrap();
        let a = c.node_id("a").unwrap();
        let faults = wrt_fault::FaultList::from_faults(vec![wrt_fault::Fault::output(a, false)]);
        let mut sim = EventSimulator::<1>::new(&c, &faults);
        let mut worklist = FaultWorklist::full(1);
        let mut detections = Vec::new();
        sim.detect_superblock_worklist(&[[0b11], [0b01]], [0b11], &mut worklist, false, |i, w| {
            detections.push((i, w))
        });
        assert_eq!(detections, vec![(0, [0b11])]);
        // y and g1..g4, z — not h1..h3.
        assert_eq!(sim.stats().node_evals, 6);
    }

    #[test]
    fn event_never_evaluates_more_than_dense() {
        let c = adder();
        let faults = wrt_fault::FaultList::full(&c);
        let source = || WeightedPatterns::equiprobable(3, 77);
        let dense = dense_superblock_stats::<BLOCK_WORDS>(&c, &faults, source(), 512, true);
        let (_, event) = coverage(&c, &faults, source(), 512, true, 1);
        // Same superblocks, same drops: each propagation evaluates a
        // subset of the cone of some excited fault the oracle walks.
        assert!(
            event.node_evals <= dense.node_evals,
            "event {} vs dense {}",
            event.node_evals,
            dense.node_evals
        );
    }

    /// Runs `patterns` one at a time, with drop, through
    /// [`EventSimulator::detect_pattern_worklist`] and through one-word
    /// superblocks holding the pattern in every lane (one head per
    /// propagation), and checks that both detect the same faults in the
    /// same order, leave the same worklist, and count the same work but
    /// for gate evaluations.  Returns the two gate-evaluation counts.
    pub(super) fn assert_packed_heads_match_one_lane(
        circuit: &Circuit,
        faults: &wrt_fault::FaultList,
        patterns: &[Vec<bool>],
    ) -> (u64, u64) {
        let mut packed = EventSimulator::<1>::new(circuit, faults);
        let mut one_lane = EventSimulator::<1>::new(circuit, faults);
        let mut packed_list = FaultWorklist::full(faults.len());
        let mut one_lane_list = FaultWorklist::full(faults.len());
        for (p, pattern) in patterns.iter().enumerate() {
            let mut got = Vec::new();
            packed.detect_pattern_worklist(pattern, &mut packed_list, |i| got.push(i));
            let words: Vec<[u64; 1]> = pattern
                .iter()
                .map(|&b| [if b { u64::MAX } else { 0 }])
                .collect();
            let mut want = Vec::new();
            one_lane.detect_superblock_worklist(&words, [!0], &mut one_lane_list, true, |i, _| {
                want.push(i)
            });
            assert_eq!(got, want, "pattern {p}");
            assert_eq!(
                packed_list.as_slice(),
                one_lane_list.as_slice(),
                "pattern {p}"
            );
        }
        let (a, b) = (packed.stats(), one_lane.stats());
        assert_eq!(
            SimStats { node_evals: 0, ..a },
            SimStats { node_evals: 0, ..b }
        );
        (a.node_evals, b.node_evals)
    }

    #[test]
    fn packed_heads_match_one_lane_passes_beyond_one_word_of_heads() {
        // Random gates over random earlier nodes: hundreds of stems, so a
        // pattern reaches more heads than one propagation holds, and heads
        // lie in the cones of other heads of the same propagation.
        let mut rng = crate::Xoshiro256::seed_from(11);
        let mut b = wrt_circuit::CircuitBuilder::named("wide");
        let mut ids: Vec<NodeId> = (0..24).map(|i| b.input(format!("i{i}"))).collect();
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Not,
        ];
        for g in 0..600 {
            let kind = kinds[(rng.next_u64() % kinds.len() as u64) as usize];
            let arity = if kind == GateKind::Not { 1 } else { 2 };
            let fanin: Vec<NodeId> = (0..arity)
                .map(|_| ids[(rng.next_u64() % ids.len() as u64) as usize])
                .collect();
            let id = b.gate_auto(kind, &fanin).expect("valid");
            if g % 17 == 0 {
                b.mark_output(id);
            }
            ids.push(id);
        }
        b.mark_output(*ids.last().expect("nonempty"));
        let c = b.build().expect("valid circuit");
        let faults = wrt_fault::FaultList::full(&c);
        let patterns: Vec<Vec<bool>> = (0..12)
            .map(|_| (0..24).map(|_| rng.next_u64() & 1 == 1).collect())
            .collect();
        let heads = FanoutFreeRegions::new(&c);
        let stems = c.ids().filter(|&id| heads.is_head(id)).count();
        assert!(stems > 2 * 64, "{stems} heads");
        let (packed, one_lane) = assert_packed_heads_match_one_lane(&c, &faults, &patterns);
        assert!(packed < one_lane, "packed {packed} vs one-lane {one_lane}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::fault_sim::{detection_counts, fault_coverage};
    use crate::patterns::{PatternSource, WeightedPatterns};
    use crate::test_support::{
        arb_chain_circuit, arb_circuit, counts, coverage, dense_stats, dense_superblock_stats,
    };
    use crate::BLOCK_WORDS;
    use proptest::prelude::*;
    use wrt_fault::FaultList;

    /// Every field but the two propagation costs, which region grouping
    /// changes.
    fn unpropagated(s: SimStats) -> SimStats {
        SimStats {
            node_evals: 0,
            root_propagations: 0,
            ..s
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The event-driven engine is bit-identical to the dense one —
        /// `detected_at` and `counts`, and the sharded engine's work
        /// counters equal the serial ones — across random circuits, weights,
        /// pattern counts, drop modes, and shard counts (1 = serial, plus
        /// oversharding).
        #[test]
        fn event_is_bit_identical_to_dense(
            circuit in arb_circuit(),
            weights in proptest::collection::vec(0.05f64..0.95, 4),
            threads in 1usize..7,
            seed in 0u64..1_000,
            patterns in 1u64..700,
            drop in any::<bool>(),
        ) {
            let faults = FaultList::full(&circuit);
            let source = || WeightedPatterns::new(weights.clone(), seed);

            let dense = fault_coverage(&circuit, &faults, source(), patterns, drop);
            let (event, event_stats) = coverage(&circuit, &faults, source(), patterns, drop, 1);
            prop_assert_eq!(dense.detected_at(), event.detected_at());

            let (event_sharded, sharded_stats) =
                coverage(&circuit, &faults, source(), patterns, drop, threads);
            prop_assert_eq!(dense.detected_at(), event_sharded.detected_at());
            // Shards never split a fanout-free region, so sharding changes
            // no counter — root propagations and gate evals included.
            prop_assert_eq!(event_stats, sharded_stats);

            let serial_counts = detection_counts(&circuit, &faults, source(), patterns);
            let (counts_event, _) = counts(&circuit, &faults, source(), patterns, 1);
            prop_assert_eq!(&serial_counts, &counts_event);

            let (counts_sharded, _) = counts(&circuit, &faults, source(), patterns, threads);
            prop_assert_eq!(&serial_counts, &counts_sharded);
        }

        /// Region grouping keeps every per-fault counter exact: the
        /// engine's stats equal the dense engine's regrouped into the same
        /// superblocks on every field but the two propagation costs, which
        /// never exceed the dense ones.  Full fault lists make roots
        /// shared.
        #[test]
        fn event_stats_match_dense_per_superblock(
            circuit in arb_circuit(),
            weights in proptest::collection::vec(0.05f64..0.95, 4),
            seed in 0u64..1_000,
            patterns in 1u64..700,
            drop in any::<bool>(),
        ) {
            let faults = FaultList::full(&circuit);
            let source = || WeightedPatterns::new(weights.clone(), seed);
            let dense = dense_superblock_stats::<BLOCK_WORDS>(
                &circuit, &faults, source(), patterns, drop,
            );
            let (_, event) = coverage(&circuit, &faults, source(), patterns, drop, 1);
            prop_assert!(event.node_evals <= dense.node_evals);
            prop_assert!(event.root_propagations <= dense.root_propagations);
            prop_assert_eq!(unpropagated(event), unpropagated(dense));
            prop_assert!(event.faults_per_propagation() >= 1.0);
        }

        /// One pattern with its region heads packed into lanes detects,
        /// drops and counts what one-lane superblocks do, on reconvergent
        /// and on chain-shaped circuits.
        #[test]
        fn packed_heads_match_one_lane_passes(
            circuit in arb_circuit(),
            chains in arb_chain_circuit(),
            patterns in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 4), 1..8),
        ) {
            for c in [&circuit, &chains] {
                let faults = FaultList::full(c);
                super::tests::assert_packed_heads_match_one_lane(c, &faults, &patterns);
            }
        }

        /// The profile's per-fault excited blocks reproduce the dense
        /// engine's measured evals: `Σ excited_blocks × (cone − 1)`.
        #[test]
        fn excited_blocks_derive_the_dense_evals(
            circuit in arb_circuit(),
            weights in proptest::collection::vec(0.05f64..0.95, 4),
            seed in 0u64..1_000,
            patterns in 1u64..700,
        ) {
            let faults = FaultList::full(&circuit);
            let dense = dense_stats(
                &circuit, &faults,
                WeightedPatterns::new(weights.clone(), seed),
                patterns, true,
            );
            let mut source = WeightedPatterns::new(weights, seed);
            let blocks: Vec<_> = (0..patterns.div_ceil(64))
                .map(|b| source.next_block((patterns - 64 * b).min(64) as u32))
                .collect();
            let mut sim = EventSimulator::<BLOCK_WORDS>::new(&circuit, &faults);
            sim.enable_eval_profile();
            let mut worklist = FaultWorklist::full(faults.len());
            let mut b = 0;
            while b < blocks.len() && !worklist.is_empty() {
                let take = superblock_split(&blocks[b..], BLOCK_WORDS);
                let sb = SuperBlock::<BLOCK_WORDS>::from_blocks(&blocks[b..b + take]);
                sim.detect_superblock_worklist(&sb.words, sb.mask(), &mut worklist, true, |_, _| {});
                b += take;
            }
            let excited = sim.take_eval_profile().expect("enabled").excited_blocks;
            let derived: u64 = faults
                .iter()
                .zip(&excited)
                .map(|((_, f), &excited_blocks)| {
                    let cone = wrt_circuit::transitive_fanout(&circuit, &[f.site.effect_root()]);
                    excited_blocks * (cone.len() as u64 - 1)
                })
                .sum();
            prop_assert_eq!(derived, dense.node_evals);
        }

        /// Region grouping and lane retirement keep every per-fault
        /// counter exact on circuits made of long single-fanout chains:
        /// the event engine's stats (one shard and sharded) equal the
        /// dense `FaultSimulator`'s regrouped into the same superblocks on
        /// every field but the two propagation costs, and its detections
        /// equal the dense oracle's.
        #[test]
        fn chain_regions_keep_every_per_fault_counter(
            circuit in arb_chain_circuit(),
            weights in proptest::collection::vec(0.05f64..0.95, 4),
            threads in 1usize..6,
            seed in 0u64..1_000,
            patterns in 1u64..700,
            drop in any::<bool>(),
        ) {
            let faults = FaultList::full(&circuit);
            let source = || WeightedPatterns::new(weights.clone(), seed);
            let dense = fault_coverage(&circuit, &faults, source(), patterns, drop);
            let oracle = dense_superblock_stats::<BLOCK_WORDS>(
                &circuit, &faults, source(), patterns, drop,
            );
            for shards in [1, threads] {
                let (event, stats) = coverage(&circuit, &faults, source(), patterns, drop, shards);
                prop_assert_eq!(dense.detected_at(), event.detected_at());
                prop_assert_eq!(unpropagated(stats), unpropagated(oracle));
                prop_assert!(stats.root_propagations <= stats.excited());
            }
        }

        /// Oversharding with the full fault list and drop mode off: more
        /// shards requested than the list has faults (the partition caps
        /// them at one region each), yet first detections and detection
        /// counts equal the dense oracle's.
        #[test]
        fn event_oversharding_is_identical(
            circuit in arb_circuit(),
            weights in proptest::collection::vec(0.05f64..0.95, 4),
            seed in 0u64..1_000,
            patterns in 1u64..700,
        ) {
            let faults = FaultList::full(&circuit);
            let source = || WeightedPatterns::new(weights.clone(), seed);
            let shards = faults.len() * 3 + 7;
            let (sharded_counts, _) = counts(&circuit, &faults, source(), patterns, shards);
            let dense_counts = detection_counts(&circuit, &faults, source(), patterns);
            prop_assert_eq!(dense_counts, sharded_counts);
            let dense = fault_coverage(&circuit, &faults, source(), patterns, false);
            let (sharded, _) = coverage(&circuit, &faults, source(), patterns, false, shards);
            prop_assert_eq!(dense.detected_at(), sharded.detected_at());
        }
    }
}

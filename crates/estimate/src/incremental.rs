//! Incremental cone-restricted COP: the optimizer hot-path engine.
//!
//! The optimizer's PREPARE step asks one question per primary input per
//! sweep: "what are the detection probabilities at `X` with `x_i` forced
//! to 0 and to 1?"  A full COP evaluation answers it with two passes over
//! the *entire* netlist, although only input *i*'s weight moved.
//! [`IncrementalCop`] instead keeps the COP solution at a baseline weight
//! vector and answers every question through the crate's one COP overlay
//! (`overlay.rs`, shared with the what-if ECO sessions of
//! [`crate::SessionCop`]): only the dirty region is recomputed, everything
//! else reads the baseline, and every answer is bit-identical to a full
//! recompute.
//!
//! # Pending moves
//!
//! Between PREPARE queries the optimizer moves one coordinate at a time
//! (MINIMIZE writes `x_i := y`).  A move is free: it records its delta in
//! the pending weight vector and absorbs the coordinate's fanout cone into
//! the **union frontier** ([`wrt_circuit::ConeUnion`]) — no node is
//! evaluated.  The pending layer **materializes** — one eager overlay walk
//! over the union frontier at the pending weights, folded into the
//! baseline — when `K` moves have accumulated
//! ([`with_commit_batch`](IncrementalCop::with_commit_batch), default 4),
//! when the union frontier exceeds its budget
//! ([`frontier_exceeds_budget`]), or when an unmasked ANALYSIS query
//! arrives.  `K` overlapping dirty regions collapse into one union-sized
//! walk, which is where the batching win comes from; `K = 1`
//! materializes after every move.
//!
//! # Queries
//!
//! A PREPARE query is answered against `baseline ∪ pending ∪
//! query-overlay`, computing only what the queried faults read:
//!
//! * signal probabilities **on demand** ([`lazy_probability`]), memoized
//!   post-order from the nodes the answer reads, over the dirty cone — the
//!   union frontier merged with the queried coordinate's cone;
//! * observabilities through the overlay's push-on-change backward walk,
//!   seeded with every sensitization-reactive dirty-cone gate and clipped
//!   to the **query mask** — the fanout closure of the queried fault
//!   sites, which is closed under the obs-dependency relation and
//!   therefore contains every node whose value can influence an answer;
//! * union-frontier probabilities outside the queried cone are banked in a
//!   cross-query cache, valid until a later move dirties them.
//!
//! The multi-coordinate walk property test in
//! `tests/incremental_agreement.rs` covers randomized batch sizes and
//! forced materialization points.

use wrt_circuit::{transitive_fanout, Circuit, ConeUnion, FanoutCones, NodeId};
use wrt_fault::{FaultList, FaultSite};

use crate::cop::node_probability;
use crate::engine::DetectionProbabilityEngine;
use crate::overlay::{advance_token, sens_reacts, CopSolution, Overlay};

/// Cumulative work counters of an [`IncrementalCop`].
///
/// `node_evaluations` counts individual node recomputations (one forward
/// probability or one backward observability each); a full two-pass
/// rebuild contributes `2 × num_nodes`.  Comparing this against
/// `engine_calls × 2 × num_nodes` of a full-recompute engine gives the
/// algorithmic O(circuit) → O(cone) saving directly, independent of
/// machine noise — `bench_optimize` records exactly that ratio.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Individual node recomputations (forward + backward).
    pub node_evaluations: u64,
    /// Forward (signal-probability) node recomputations.
    pub forward_evaluations: u64,
    /// Backward (observability) node recomputations.
    pub backward_evaluations: u64,
    /// Full two-pass baseline rebuilds.
    pub full_rebuilds: u64,
    /// Cone-restricted coordinate perturbations evaluated.
    pub perturbations: u64,
    /// Always zero: the engine no longer answers any query with stateless
    /// full passes.  Kept so existing readers still compile; it goes at
    /// the next change of the end-to-end benchmark.
    pub stateless_estimates: u64,
    /// Deferred coordinate moves absorbed into the pending overlay (each
    /// costs zero node evaluations at move time).
    pub pending_moves: u64,
    /// Pending-overlay materializations: shared multi-coordinate resolve
    /// passes folding the union frontier into the baseline.
    pub materializations: u64,
    /// Sum of union-frontier sizes at materialization time
    /// (`/ materializations` = the average frontier one shared resolve
    /// pass covered).
    pub union_frontier_sum: u64,
    /// Largest pending union frontier observed.
    pub union_frontier_peak: u64,
    /// Forward recomputations skipped by the cross-query pending value
    /// cache: union-frontier nodes outside the queried coordinate's cone
    /// whose pending-weight probability was still valid from an earlier
    /// query epoch.
    pub pending_cache_hits: u64,
}

/// Union-frontier budget of the pending overlay: once the pending
/// frontier covers at least this fraction of the netlist (3/4), deferring
/// further moves stops paying — every query would treat nearly the whole
/// circuit as dirty — so the layer materializes early.
const PENDING_FRONTIER_NUMER: usize = 3;
const PENDING_FRONTIER_DENOM: usize = 4;

/// Whether a pending union frontier of `frontier_len` nodes exceeds the
/// materialization budget for a `num_nodes`-node circuit.
fn frontier_exceeds_budget(frontier_len: usize, num_nodes: usize) -> bool {
    frontier_len * PENDING_FRONTIER_DENOM >= num_nodes * PENDING_FRONTIER_NUMER
}

/// Identity of the circuit a baseline was computed for.
///
/// [`Circuit::uid`] is process-unique per built circuit (clones share it,
/// and a clone is the same immutable structure), so equal fingerprints
/// mean the same circuit — names and shapes coinciding across different
/// circuits cannot alias the cache.  The shape fields are a cheap
/// belt-and-suspenders consistency check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    uid: u64,
    nodes: usize,
    inputs: usize,
}

impl Fingerprint {
    fn of(circuit: &Circuit) -> Self {
        Fingerprint {
            uid: circuit.uid(),
            nodes: circuit.num_nodes(),
            inputs: circuit.num_inputs(),
        }
    }
}

/// Incremental cone-restricted COP engine (see the module docs).
///
/// Drop-in replacement for [`crate::CopEngine`] with bit-identical
/// estimates; the difference is purely in work performed when queries move
/// one coordinate at a time, which is exactly the optimizer's access
/// pattern.
///
/// # Example
///
/// ```
/// use wrt_circuit::parse_bench;
/// use wrt_estimate::{CopEngine, DetectionProbabilityEngine, IncrementalCop};
/// use wrt_fault::FaultList;
///
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
/// let faults = FaultList::checkpoints(&c);
/// let weights = [0.7, 0.4];
/// let mut incremental = IncrementalCop::new();
/// let mut full = CopEngine::new();
/// let inc = incremental.estimate_coordinate_pair(&c, &faults, &weights, 0);
/// let reference = full.estimate_coordinate_pair(&c, &faults, &weights, 0);
/// assert_eq!(inc, reference); // bit-identical
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalCop {
    /// Commit batch size `K`: pending moves materialize once `K` of them
    /// have accumulated.
    commit_batch: usize,
    /// Circuit the baseline and the cone cache belong to (`None` before
    /// the first call).
    fingerprint: Option<Fingerprint>,
    /// The COP solution at `baseline.weights` (pending moves excluded).
    baseline: CopSolution,
    /// Current effective weight vector: `baseline.weights` plus every
    /// pending (not yet materialized) coordinate move.
    pending_weights: Vec<f64>,
    /// Deferred moves since the last materialization.
    pending_count: usize,
    /// Union of the pending coordinates' fanout cones: the only nodes
    /// whose baseline values may be stale, i.e. the dirty frontier every
    /// query must overlay.
    union: ConeUnion,
    /// Scratch for `union ∪ cone(queried coordinate)`.
    merged_cone: Vec<NodeId>,
    /// Cross-query pending value cache: forward (signal-probability)
    /// values *at the pending weight vector*, live iff the slot's stamp
    /// equals `pending_token`.  A union-frontier node outside the
    /// queried coordinate's cone reads the same probability in every
    /// query epoch until a deferred move dirties it (the query override
    /// only reaches the queried cone, and fanout closures cannot leak
    /// into it from outside), so query pairs seed their overlay from this
    /// cache instead of re-walking the frontier from the baseline.
    /// Invalidation is cone-grained: each deferred move clears exactly
    /// its own fanout cone; materialization and rebuilds retire the
    /// whole layer by advancing the token.
    pending_p_scratch: Vec<f64>,
    pending_p_stamp: Vec<u32>,
    pending_token: u32,
    cones: FanoutCones,
    overlay: Overlay,
    /// Query mask: a node is in the current query region iff its stamp
    /// equals `query_token`.  The region is the fanout closure of the
    /// queried fault sites — exactly the nodes whose observability a
    /// query can read, directly or transitively (the closure is closed
    /// under the obs-dependency relation, since a node's observability
    /// depends only on its own fanout).  Query walks never leave it.
    query_stamp: Vec<u32>,
    query_token: u32,
    /// Site fingerprint of the fault list the mask was built for.
    query_sites: Vec<u32>,
    /// Counters outside the overlay's own eval counts.
    stats: IncrementalStats,
}

impl Default for IncrementalCop {
    fn default() -> Self {
        IncrementalCop {
            commit_batch: 4,
            fingerprint: None,
            baseline: CopSolution::default(),
            pending_weights: Vec::new(),
            pending_count: 0,
            union: ConeUnion::new(),
            merged_cone: Vec::new(),
            pending_p_scratch: Vec::new(),
            pending_p_stamp: Vec::new(),
            pending_token: 1,
            cones: FanoutCones::new(),
            overlay: Overlay::default(),
            query_stamp: Vec::new(),
            query_token: 0,
            query_sites: Vec::new(),
            stats: IncrementalStats::default(),
        }
    }
}

impl IncrementalCop {
    /// Creates the engine with commit batch `K = 4` (no baseline yet; the
    /// first call builds one).
    pub fn new() -> Self {
        IncrementalCop::default()
    }

    /// Sets the commit batch size `K` of the pending overlay (`0` is
    /// treated as `1`): up to `K` coordinate moves are deferred (free at
    /// move time) before one shared materialization folds them into the
    /// baseline.  Results are bit-identical for every `K`.
    pub fn with_commit_batch(mut self, batch: usize) -> Self {
        self.commit_batch = batch.max(1);
        self
    }

    /// Number of deferred coordinate moves currently pending.
    pub fn pending_len(&self) -> usize {
        self.pending_count
    }

    /// Size of the pending union frontier (dirty-node count a query
    /// overlays on top of the baseline).
    pub fn pending_frontier(&self) -> usize {
        self.union.len()
    }

    /// Forces materialization of the pending overlay now (no-op when
    /// nothing is pending).  Queries decide this on their own; the hook
    /// exists so tests and ablations can place materialization points
    /// deterministically.
    pub fn flush_pending(&mut self, circuit: &Circuit) {
        if self.pending_count > 0 {
            assert!(
                self.fingerprint == Some(Fingerprint::of(circuit)),
                "flush_pending needs the circuit the pending moves were recorded for"
            );
            self.materialize(circuit);
        }
    }

    /// Work counters accumulated since construction (or the last
    /// [`reset_stats`](IncrementalCop::reset_stats)).
    pub fn stats(&self) -> IncrementalStats {
        let mut stats = self.stats;
        stats.forward_evaluations += self.overlay.forward_evals;
        stats.backward_evaluations += self.overlay.backward_evals;
        stats.node_evaluations = stats.forward_evaluations + stats.backward_evaluations;
        stats
    }

    /// Zeroes the work counters.
    pub fn reset_stats(&mut self) {
        self.stats = IncrementalStats::default();
        self.overlay.forward_evals = 0;
        self.overlay.backward_evals = 0;
    }

    /// Full two-pass rebuild of the baseline at `weights`.  The cone
    /// cache survives rebuilds at new weights (cones are structural) but
    /// not a circuit switch.
    fn rebuild(&mut self, circuit: &Circuit, weights: &[f64]) {
        self.baseline = CopSolution::compute(circuit, weights);
        let fingerprint = Some(Fingerprint::of(circuit));
        if self.fingerprint != fingerprint {
            self.cones.clear();
            self.fingerprint = fingerprint;
        }
        let n = circuit.num_nodes();
        self.stats.full_rebuilds += 1;
        self.stats.forward_evaluations += n as u64;
        self.stats.backward_evaluations += n as u64;
        self.overlay.reset(n, circuit.num_edges());
        self.query_stamp = vec![0; n];
        self.query_token = 0;
        // Sentinel no fault list can match (no valid site has this index).
        self.query_sites = vec![u32::MAX];
        // A rebuild lands exactly at `weights`: nothing is pending.
        self.pending_weights.clear();
        self.pending_weights.extend_from_slice(weights);
        self.pending_count = 0;
        self.union.clear();
        self.pending_p_scratch = vec![0.0; n];
        self.pending_p_stamp = vec![0; n];
        self.pending_token = 1;
    }

    /// Brings the engine's effective state (baseline plus pending layer)
    /// to exactly `weights`: a no-op when already there, a free pending
    /// move when one coordinate moved, a full rebuild otherwise (first
    /// call, new circuit, or a multi-coordinate jump such as a restart
    /// from fresh starting weights).
    fn ensure_baseline(&mut self, circuit: &Circuit, weights: &[f64]) {
        assert_eq!(
            weights.len(),
            circuit.num_inputs(),
            "one probability per primary input"
        );
        if self.fingerprint != Some(Fingerprint::of(circuit)) {
            self.rebuild(circuit, weights);
            return;
        }
        let mut diff = None;
        for (k, (&new, &old)) in weights.iter().zip(&self.pending_weights).enumerate() {
            if new != old {
                if diff.is_some() {
                    // Two or more coordinates moved: not the optimizer's
                    // single-coordinate walk; recompute from scratch.
                    self.rebuild(circuit, weights);
                    return;
                }
                diff = Some(k);
            }
        }
        if let Some(coordinate) = diff {
            self.pending_move(circuit, coordinate, weights[coordinate]);
        }
    }

    /// Defers `x_coordinate := value` into the pending overlay: records
    /// the delta, absorbs the coordinate's fanout cone into the union
    /// frontier, and materializes when the batch or the frontier budget
    /// fills up.  Costs zero node evaluations unless it materializes.
    fn pending_move(&mut self, circuit: &Circuit, coordinate: usize, value: f64) {
        self.stats.pending_moves += 1;
        self.pending_weights[coordinate] = value;
        let root = circuit.inputs()[coordinate];
        let cone = self.cones.cone(circuit, root);
        // Cross-query cache: only this move's cone can read the changed
        // weight; every other cached pending value stays valid.
        for &id in cone {
            self.pending_p_stamp[id.index()] = 0;
        }
        self.union.absorb(cone);
        self.pending_count += 1;
        let frontier = self.union.len();
        self.stats.union_frontier_peak = self.stats.union_frontier_peak.max(frontier as u64);
        if self.pending_count >= self.commit_batch
            || frontier_exceeds_budget(frontier, circuit.num_nodes())
        {
            self.materialize(circuit);
        }
    }

    /// Resolves the whole pending layer into the baseline: one eager
    /// overlay walk over the union frontier at the pending weights, then
    /// a fold of the overlay into the baseline.
    fn materialize(&mut self, circuit: &Circuit) {
        if self.pending_count == 0 {
            return;
        }
        self.stats.materializations += 1;
        self.stats.union_frontier_sum += self.union.len() as u64;
        self.overlay.next_epoch();
        let weights = &self.pending_weights;
        self.overlay.eager_walk(
            circuit,
            &self.baseline,
            self.union.as_slice(),
            &[],
            |k| weights[k],
            |_, kind| kind,
        );
        self.overlay.fold_into(circuit, &mut self.baseline);
        self.baseline.weights.copy_from_slice(&self.pending_weights);
        self.union.clear();
        self.pending_count = 0;
        // The cached values now coincide with the new baseline: retire
        // the whole layer by advancing the token (amortized O(1)).
        advance_token(&mut self.pending_token, &mut [&mut self.pending_p_stamp]);
    }

    /// The query overlay for `x_coordinate := value` on top of the
    /// pending layer, leaving the baseline untouched and computing only
    /// what answering `faults` needs:
    ///
    /// * signal probabilities **on demand** ([`lazy_probability`]) — at
    ///   fault-activation nodes and at the fanins of backward-recomputed
    ///   gates — instead of walking the whole dirty cone;
    /// * observabilities only inside the query mask (see
    ///   [`refresh_query_mask`](Self::refresh_query_mask)), seeded
    ///   conservatively with every sensitization-reactive dirty-cone gate
    ///   in the mask (without an eager forward walk the exact
    ///   probability-dirty set is unknown; a seed whose inputs turn out
    ///   unchanged recomputes its baseline values and pushes nothing).
    ///
    /// The dirty cone is the pending union frontier merged with the
    /// queried coordinate's cone, and the perturbed weight vector is the
    /// pending one with the query coordinate overridden — so one epoch
    /// carries the deferred deltas *and* the hypothetical boundary move
    /// (a union of fanout closures is itself closed under fanout, and only
    /// its nodes can hold non-baseline probabilities).  The caller must
    /// invoke [`refresh_query_mask`](Self::refresh_query_mask) for
    /// `faults` first.
    fn perturb_query(
        &mut self,
        circuit: &Circuit,
        coordinate: usize,
        value: f64,
        faults: &FaultList,
    ) {
        self.overlay.next_epoch();
        let epoch = self.overlay.epoch;
        let root = circuit.inputs()[coordinate];
        if self.pending_count == 0 && self.baseline.weights[coordinate] == value {
            return; // identity perturbation: the baseline answers as-is
        }
        self.stats.perturbations += 1;
        if self.pending_count > 0 {
            // Seed this epoch's overlay from the cross-query cache:
            // union-frontier nodes outside the queried cone hold their
            // pending-weight probability in every epoch (the query
            // override cannot reach them — a node reading input i's
            // weight or any cone-dirty fanin would itself be in
            // `cone(root)` by fanout closure), so a live cached slot is
            // exactly what the lazy walk would recompute.  Seeded stamps
            // short-circuit the DFS before it re-walks the frontier.
            let root_cone = self.cones.cone(circuit, root);
            for idx in frontier_outside(self.union.as_slice(), root_cone) {
                if self.pending_p_stamp[idx] == self.pending_token {
                    self.overlay.p[idx] = self.pending_p_scratch[idx];
                    self.overlay.p_stamp[idx] = epoch;
                    self.stats.pending_cache_hits += 1;
                }
            }
        }
        // The merged (union ∪ cone) frontier is prepared once per query
        // pair by `refresh_merged_cone`; both boundary-point overlays of
        // the pair read the same merged view.
        let cone: &[NodeId] = if self.pending_count > 0 {
            &self.merged_cone
        } else {
            self.cones.cone(circuit, root)
        };
        let query = Query {
            cone,
            weights: &self.pending_weights,
            coordinate,
            value,
        };

        // Backward walk over the (conservative) dirty region inside the
        // query mask.  Every cone node that is not a primary input has a
        // cone fanin, so the sensitization-reactive cone gates are exactly
        // the candidates whose pin observabilities can move without their
        // stem moving first (primary inputs have no pins and never react).
        let (mask, token) = (&self.query_stamp, self.query_token);
        for &id in cone {
            let node = circuit.node(id);
            if mask[id.index()] == token && sens_reacts(node.kind(), node.fanin().len()) {
                self.overlay.enqueue(id.index());
            }
        }
        while let Some(idx) = self.overlay.pop() {
            let id = NodeId::from_index(idx);
            let node = circuit.node(id);
            if sens_reacts(node.kind(), node.fanin().len()) {
                // Force the perturbed probabilities the sensitization
                // products read; constant-sensitization gates read none.
                for &f in node.fanin() {
                    lazy_probability(&mut self.overlay, circuit, &self.baseline, &query, f);
                }
            }
            self.overlay
                .recompute_obs(circuit, &self.baseline, id, node.kind(), |f| {
                    mask[f] == token
                });
        }

        // Force the activation probabilities the fault queries read.
        for (_, fault) in faults.iter() {
            let activation = match fault.site {
                FaultSite::Output(node) => node,
                FaultSite::InputPin { gate, pin } => circuit.node(gate).fanin()[pin],
            };
            lazy_probability(
                &mut self.overlay,
                circuit,
                &self.baseline,
                &query,
                activation,
            );
        }

        // Harvest: every union-frontier probability this epoch computed
        // outside the queried cone is a pending-weight value (same
        // closure argument as the seed above) — bank it so the next
        // query epoch starts from it instead of the baseline.
        if self.pending_count > 0 {
            let root_cone = self.cones.cone(circuit, root);
            for idx in frontier_outside(self.union.as_slice(), root_cone) {
                if self.overlay.p_stamp[idx] == epoch
                    && self.pending_p_stamp[idx] != self.pending_token
                {
                    self.pending_p_scratch[idx] = self.overlay.p[idx];
                    self.pending_p_stamp[idx] = self.pending_token;
                }
            }
        }
    }

    /// Prepares the effective dirty cone for a query pair:
    /// `pending union frontier ∪ cone(root)` into the merged scratch.
    /// Called once per [`estimate_coordinate_pair`] invocation (after
    /// `ensure_baseline`, whose materialization may have just emptied
    /// the pending layer), so both boundary-point overlays share one
    /// merge.  A no-op when nothing is pending — `perturb_query` then
    /// reads the plain cached cone.
    fn refresh_merged_cone(&mut self, circuit: &Circuit, root: NodeId) {
        if self.pending_count > 0 {
            let cone = self.cones.cone(circuit, root);
            self.union.merged_with(cone, &mut self.merged_cone);
        }
    }

    /// Rebuilds the query mask for `faults` unless the cached one already
    /// covers the same sites.
    ///
    /// The mask marks the transitive fanout of every queried site's node:
    /// the only observabilities a query reads are at the sites, and a
    /// node's observability is a function of pin observabilities in its
    /// own fanout alone — so the closure contains every node whose
    /// backward value can influence an answer, and restricting the
    /// backward walk to it is exact (not merely approximate) for these
    /// faults.  The optimizer re-queries the same relevant list all
    /// sweep long, so the mask is usually a cache hit.
    fn refresh_query_mask(&mut self, circuit: &Circuit, faults: &FaultList) {
        let sites: Vec<u32> = faults
            .iter()
            .map(|(_, f)| match f.site {
                FaultSite::Output(node) => node.index() as u32,
                FaultSite::InputPin { gate, .. } => gate.index() as u32,
            })
            .collect();
        if sites == self.query_sites {
            return;
        }
        advance_token(&mut self.query_token, &mut [&mut self.query_stamp]);
        let roots: Vec<NodeId> = sites
            .iter()
            .map(|&s| NodeId::from_index(s as usize))
            .collect();
        for id in transitive_fanout(circuit, &roots) {
            self.query_stamp[id.index()] = self.query_token;
        }
        self.query_sites = sites;
    }
}

/// Indices of the union-frontier nodes outside `cone` (both sorted).
fn frontier_outside<'a>(
    union: &'a [NodeId],
    cone: &'a [NodeId],
) -> impl Iterator<Item = usize> + 'a {
    let mut j = 0;
    union.iter().filter_map(move |&id| {
        while j < cone.len() && cone[j] < id {
            j += 1;
        }
        (j >= cone.len() || cone[j] != id).then_some(id.index())
    })
}

/// The perturbation a query overlay evaluates: the dirty `cone`, and the
/// effective weight vector `weights` (pending moves applied) with
/// `coordinate` overridden to `value`.
struct Query<'a> {
    cone: &'a [NodeId],
    weights: &'a [f64],
    coordinate: usize,
    value: f64,
}

/// Demand-driven perturbed signal probability.
///
/// Nodes outside the query's cone cannot depend on any perturbed input
/// (queried or pending) and read the baseline directly; cone nodes are
/// recomputed (memoized per epoch via the overlay stamps) from their
/// fanins with an explicit post-order stack, through the same
/// [`node_probability`] helper as the full pass — so every forced value
/// is bit-identical to what an eager cone walk would produce.
fn lazy_probability(
    overlay: &mut Overlay,
    circuit: &Circuit,
    baseline: &CopSolution,
    query: &Query<'_>,
    target: NodeId,
) -> f64 {
    let epoch = overlay.epoch;
    if overlay.p_stamp[target.index()] == epoch {
        return overlay.p[target.index()];
    }
    if query.cone.binary_search(&target).is_err() {
        return baseline.p[target.index()];
    }
    let input_prob = |k: usize| {
        if k == query.coordinate {
            query.value
        } else {
            query.weights[k]
        }
    };
    let mut stack = vec![(target, false)];
    while let Some((id, expanded)) = stack.pop() {
        let idx = id.index();
        if overlay.p_stamp[idx] == epoch {
            continue;
        }
        if expanded {
            let node = circuit.node(id);
            let new_p = node_probability(circuit, id, node, &input_prob, &|f: NodeId| {
                overlay.p(baseline, f)
            });
            overlay.forward_evals += 1;
            overlay.p[idx] = new_p;
            overlay.p_stamp[idx] = epoch;
        } else {
            stack.push((id, true));
            for &f in circuit.node(id).fanin() {
                if overlay.p_stamp[f.index()] != epoch && query.cone.binary_search(&f).is_ok() {
                    stack.push((f, false));
                }
            }
        }
    }
    overlay.p[target.index()]
}

impl DetectionProbabilityEngine for IncrementalCop {
    fn estimate(&mut self, circuit: &Circuit, faults: &FaultList, input_probs: &[f64]) -> Vec<f64> {
        self.ensure_baseline(circuit, input_probs);
        // An unmasked (ANALYSIS-style) query reads observabilities the
        // mask-clipped pending machinery never touches: resolve the
        // pending layer first.  This is the natural amortized
        // materialization point — once per optimizer sweep.
        self.materialize(circuit);
        self.baseline.detection_probabilities(circuit, faults)
    }

    /// The incremental hot path: both boundary points of coordinate *i*
    /// via query overlays over the baseline at `weights`, merged with the
    /// pending union frontier when deferred moves are outstanding.
    fn estimate_coordinate_pair(
        &mut self,
        circuit: &Circuit,
        faults: &FaultList,
        weights: &[f64],
        coordinate: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        assert!(
            coordinate < weights.len(),
            "coordinate {coordinate} out of range for {} inputs",
            weights.len()
        );
        self.ensure_baseline(circuit, weights);
        self.refresh_merged_cone(circuit, circuit.inputs()[coordinate]);
        self.refresh_query_mask(circuit, faults);
        self.perturb_query(circuit, coordinate, 0.0, faults);
        let at_zero = self
            .overlay
            .detection_probabilities(circuit, &self.baseline, faults);
        self.perturb_query(circuit, coordinate, 1.0, faults);
        let at_one = self
            .overlay
            .detection_probabilities(circuit, &self.baseline, faults);
        (at_zero, at_one)
    }

    fn name(&self) -> &'static str {
        "incremental-cop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CopEngine;
    use wrt_circuit::parse_bench;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn reconvergent() -> Circuit {
        parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
             m = NAND(a, b)\nn = NOR(b, c)\nx = XOR(m, n)\n\
             y = AND(x, a)\nz = OR(x, c)\n",
        )
        .unwrap()
    }

    #[test]
    fn estimate_is_bit_identical_to_full_cop() {
        let c = reconvergent();
        let faults = FaultList::full(&c);
        let w = [0.3, 0.6, 0.9];
        let full = CopEngine::new().estimate(&c, &faults, &w);
        let inc = IncrementalCop::new().estimate(&c, &faults, &w);
        assert_eq!(bits(&full), bits(&inc));
    }

    #[test]
    fn coordinate_pair_matches_full_recompute_everywhere() {
        let c = reconvergent();
        let faults = FaultList::full(&c);
        let w = [0.25, 0.5, 0.75];
        let mut inc = IncrementalCop::new();
        let mut full = CopEngine::new();
        for i in 0..3 {
            let (i0, i1) = inc.estimate_coordinate_pair(&c, &faults, &w, i);
            let (f0, f1) = full.estimate_coordinate_pair(&c, &faults, &w, i);
            assert_eq!(bits(&i0), bits(&f0), "coordinate {i}, x_i = 0");
            assert_eq!(bits(&i1), bits(&f1), "coordinate {i}, x_i = 1");
        }
    }

    #[test]
    fn sweep_walk_commits_incrementally() {
        // Mimic the optimizer: PREPARE per coordinate, then move it.
        let c = reconvergent();
        let faults = FaultList::checkpoints(&c);
        let mut inc = IncrementalCop::new().with_commit_batch(1);
        let mut full = CopEngine::new();
        let mut w = [0.5, 0.5, 0.5];
        let moves = [0.7, 0.2, 0.9, 0.4, 0.55, 0.1];
        for (step, &next) in moves.iter().enumerate() {
            let i = step % 3;
            let got = inc.estimate_coordinate_pair(&c, &faults, &w, i);
            let expected = full.estimate_coordinate_pair(&c, &faults, &w, i);
            assert_eq!(
                (bits(&got.0), bits(&got.1)),
                (bits(&expected.0), bits(&expected.1)),
                "step {step}"
            );
            w[i] = next;
        }
        // Only the very first call built a baseline; with K = 1 every
        // weight move afterwards was one cone-restricted materialization.
        let stats = inc.stats();
        assert_eq!(stats.full_rebuilds, 1);
        assert_eq!(stats.materializations as usize, moves.len() - 1);
    }

    #[test]
    fn boundary_weights_are_handled() {
        let c = reconvergent();
        let faults = FaultList::full(&c);
        let mut inc = IncrementalCop::new();
        let mut full = CopEngine::new();
        for w in [[0.0, 1.0, 0.5], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]] {
            for i in 0..3 {
                let got = inc.estimate_coordinate_pair(&c, &faults, &w, i);
                let expected = full.estimate_coordinate_pair(&c, &faults, &w, i);
                assert_eq!(bits(&got.0), bits(&expected.0), "w = {w:?}, i = {i}");
                assert_eq!(bits(&got.1), bits(&expected.1), "w = {w:?}, i = {i}");
            }
        }
    }

    #[test]
    fn incremental_work_is_cone_sized_on_disjoint_logic() {
        // Two disjoint trees: perturbing an input of one must not touch
        // the other.  The first tree (a AND b) has 3 nodes; everything
        // else belongs to the disjoint second tree.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
             y = AND(a, b)\nm = OR(c, d)\nn = XOR(c, m)\nz = NAND(m, n)\n",
        )
        .unwrap();
        let faults = FaultList::checkpoints(&c);
        let mut inc = IncrementalCop::new();
        let w = [0.5, 0.5, 0.5, 0.5];
        let _ = inc.estimate(&c, &faults, &w);
        inc.reset_stats();
        let _ = inc.estimate_coordinate_pair(&c, &faults, &w, 0);
        let stats = inc.stats();
        assert_eq!(stats.full_rebuilds, 0);
        // Forward region per perturbation: {a, y}; backward region ⊆
        // {a, b, y}.  Two perturbations, so at most 10 evaluations —
        // far below the 2 × 10 nodes of even one full pass.
        assert!(
            stats.node_evaluations <= 10,
            "evaluations = {}",
            stats.node_evaluations
        );
    }

    #[test]
    fn equally_shaped_circuits_do_not_alias_the_cache() {
        // Regression: `parse_bench` names every circuit "bench", and these
        // two share node/input/output counts — only the per-build uid
        // tells them apart.  A shape-based fingerprint served the AND
        // circuit's cached estimates for the OR circuit.
        let and = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let or = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n").unwrap();
        let w = [0.3, 0.7];
        let mut inc = IncrementalCop::new();
        let _ = inc.estimate(&and, &FaultList::full(&and), &w);
        let faults = FaultList::full(&or);
        let got = inc.estimate(&or, &faults, &w);
        let expected = CopEngine::new().estimate(&or, &faults, &w);
        assert_eq!(bits(&got), bits(&expected));
        let pair = inc.estimate_coordinate_pair(&or, &faults, &w, 0);
        let reference = CopEngine::new().estimate_coordinate_pair(&or, &faults, &w, 0);
        assert_eq!(bits(&pair.0), bits(&reference.0));
        assert_eq!(bits(&pair.1), bits(&reference.1));
    }

    #[test]
    fn circuit_switch_rebuilds_cleanly() {
        let c1 = reconvergent();
        let c2 = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n").unwrap();
        let f1 = FaultList::checkpoints(&c1);
        let f2 = FaultList::checkpoints(&c2);
        let mut inc = IncrementalCop::new();
        let _ = inc.estimate(&c1, &f1, &[0.5; 3]);
        let got = inc.estimate(&c2, &f2, &[0.3, 0.8]);
        let expected = CopEngine::new().estimate(&c2, &f2, &[0.3, 0.8]);
        assert_eq!(bits(&got), bits(&expected));
        assert_eq!(inc.stats().full_rebuilds, 2);
    }

    #[test]
    fn batched_walk_is_bit_identical_and_defers_commits() {
        // The optimizer walk again, but against the pending-overlay
        // engine: moves must be deferred (zero evaluations at move time)
        // and every answer must stay bit-identical to the full engine.
        let c = reconvergent();
        let faults = FaultList::checkpoints(&c);
        for batch in [2, 3, 8] {
            let mut inc = IncrementalCop::new().with_commit_batch(batch);
            let mut full = CopEngine::new();
            let mut w = [0.5, 0.5, 0.5];
            let moves = [0.7, 0.2, 0.9, 0.4, 0.55, 0.1];
            for (step, &next) in moves.iter().enumerate() {
                let i = step % 3;
                let got = inc.estimate_coordinate_pair(&c, &faults, &w, i);
                let expected = full.estimate_coordinate_pair(&c, &faults, &w, i);
                assert_eq!(
                    (bits(&got.0), bits(&got.1)),
                    (bits(&expected.0), bits(&expected.1)),
                    "batch {batch}, step {step}"
                );
                w[i] = next;
            }
            let final_got = inc.estimate(&c, &faults, &w);
            let final_expected = full.estimate(&c, &faults, &w);
            assert_eq!(bits(&final_got), bits(&final_expected), "batch {batch}");
            let stats = inc.stats();
            assert_eq!(stats.pending_moves as usize, moves.len());
            assert!(stats.materializations >= 1);
            assert!(stats.union_frontier_peak >= 1);
            // Everything resolved: the final estimate materialized.
            assert_eq!(inc.pending_len(), 0);
        }
    }

    #[test]
    fn cross_query_pending_cache_hits_and_stays_bit_identical() {
        // Disjoint input supports: deferring a move on `c` dirties only
        // the m/n/z tree, and querying coordinate 0 (`a`, whose cone is
        // just `y`) leaves that frontier untouched — so the second
        // boundary point of a pair, and every later pair, must reuse
        // the frontier's pending-weight probabilities from the
        // cross-query cache instead of re-walking them.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
             y = AND(a, b)\nm = OR(c, d)\nn = XOR(c, m)\nz = NAND(m, n)\n",
        )
        .unwrap();
        let faults = FaultList::checkpoints(&c);
        let mut inc = IncrementalCop::new().with_commit_batch(64);
        let mut full = CopEngine::new();
        let mut w = [0.5, 0.5, 0.5, 0.5];
        let _ = inc.estimate(&c, &faults, &w);
        w[2] = 0.8; // deferred: the m/n/z cone is now the pending frontier
        for (step, coordinate) in [0usize, 1, 0].into_iter().enumerate() {
            let got = inc.estimate_coordinate_pair(&c, &faults, &w, coordinate);
            let expected = full.estimate_coordinate_pair(&c, &faults, &w, coordinate);
            assert_eq!(
                (bits(&got.0), bits(&got.1)),
                (bits(&expected.0), bits(&expected.1)),
                "step {step}"
            );
        }
        assert_eq!(inc.pending_len(), 1, "the move stayed deferred throughout");
        assert!(
            inc.stats().pending_cache_hits > 0,
            "repeated query epochs over an unchanged frontier must hit the cache"
        );
        // A second deferred move invalidates exactly its own cone; the
        // answers must stay bit-identical through the cone-grained
        // invalidation and the eventual materialization.
        w[3] = 0.25;
        let got = inc.estimate_coordinate_pair(&c, &faults, &w, 0);
        let expected = full.estimate_coordinate_pair(&c, &faults, &w, 0);
        assert_eq!(bits(&got.0), bits(&expected.0));
        assert_eq!(bits(&got.1), bits(&expected.1));
        let final_got = inc.estimate(&c, &faults, &w);
        let final_expected = full.estimate(&c, &faults, &w);
        assert_eq!(bits(&final_got), bits(&final_expected));
    }

    #[test]
    fn commit_batch_of_zero_behaves_as_one() {
        // `K = 0` is clamped to `K = 1`: the same work pattern, every
        // move materialized on its own, and identical answers.
        let c = reconvergent();
        let faults = FaultList::checkpoints(&c);
        let mut zero = IncrementalCop::new().with_commit_batch(0);
        let mut one = IncrementalCop::new().with_commit_batch(1);
        let mut w = [0.4, 0.6, 0.5];
        for step in 0..5 {
            let i = step % 3;
            let want = one.estimate_coordinate_pair(&c, &faults, &w, i);
            let got = zero.estimate_coordinate_pair(&c, &faults, &w, i);
            assert_eq!((bits(&got.0), bits(&got.1)), (bits(&want.0), bits(&want.1)));
            w[i] = 0.1 + 0.15 * step as f64;
        }
        assert_eq!(zero.stats(), one.stats());
        assert_eq!(one.stats().materializations, one.stats().pending_moves);
    }

    #[test]
    fn flush_pending_forces_a_materialization_point() {
        // Disjoint trees: input cones are small, so neither the batch
        // size nor the frontier budget triggers on its own.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
             y = AND(a, b)\nm = OR(c, d)\nn = XOR(c, m)\nz = NAND(m, n)\n",
        )
        .unwrap();
        let faults = FaultList::checkpoints(&c);
        let mut inc = IncrementalCop::new().with_commit_batch(64);
        let mut w = [0.5, 0.5, 0.5, 0.5];
        let _ = inc.estimate(&c, &faults, &w);
        w[1] = 0.8;
        let _ = inc.estimate_coordinate_pair(&c, &faults, &w, 0);
        assert_eq!(inc.pending_len(), 1);
        assert!(inc.pending_frontier() > 0);
        inc.flush_pending(&c);
        assert_eq!(inc.pending_len(), 0);
        assert_eq!(inc.pending_frontier(), 0);
        assert_eq!(inc.stats().materializations, 1);
        // Still bit-identical after the forced point.
        let got = inc.estimate_coordinate_pair(&c, &faults, &w, 3);
        let expected = CopEngine::new().estimate_coordinate_pair(&c, &faults, &w, 3);
        assert_eq!(bits(&got.0), bits(&expected.0));
        assert_eq!(bits(&got.1), bits(&expected.1));
        // Flushing with nothing pending is a no-op.
        inc.flush_pending(&c);
        assert_eq!(inc.stats().materializations, 1);
    }

    #[test]
    fn frontier_budget_materializes_early() {
        // A chain circuit where every input's cone reaches the output:
        // two pending moves already push the union frontier over the
        // 3/4 budget, so a huge batch K still materializes early.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
             m = AND(a, b)\nn = OR(m, c)\ny = XOR(n, a)\n",
        )
        .unwrap();
        let faults = FaultList::checkpoints(&c);
        let mut inc = IncrementalCop::new().with_commit_batch(1000);
        let mut w = [0.5, 0.5, 0.5];
        let _ = inc.estimate(&c, &faults, &w);
        for step in 0..4 {
            let i = step % 3;
            let _ = inc.estimate_coordinate_pair(&c, &faults, &w, i);
            w[i] = 0.3 + 0.1 * step as f64;
        }
        let stats = inc.stats();
        assert!(
            stats.materializations >= 1,
            "frontier budget must trigger: {stats:?}"
        );
        assert!(stats.union_frontier_sum >= stats.materializations);
    }

    #[test]
    fn batched_global_cones_avoid_stateless_passes() {
        // Wide AND: every input's cone is global (the whole circuit).
        // The engine must still answer through the pending overlay, never
        // with stateless full passes — and bit-identically.
        let mut src = String::from("OUTPUT(y)\n");
        let mut args = Vec::new();
        for i in 0..6 {
            src.push_str(&format!("INPUT(x{i})\n"));
            args.push(format!("x{i}"));
        }
        src.push_str(&format!("y = AND({})\n", args.join(", ")));
        let c = parse_bench(&src).unwrap();
        let faults = FaultList::checkpoints(&c);
        let mut batched = IncrementalCop::new().with_commit_batch(4);
        let mut full = CopEngine::new();
        let mut w = [0.5; 6];
        for step in 0..8 {
            let i = step % 6;
            let got = batched.estimate_coordinate_pair(&c, &faults, &w, i);
            let expected = full.estimate_coordinate_pair(&c, &faults, &w, i);
            assert_eq!(bits(&got.0), bits(&expected.0), "step {step}");
            assert_eq!(bits(&got.1), bits(&expected.1), "step {step}");
            w[i] = 0.6 + 0.04 * i as f64;
        }
        assert_eq!(batched.stats().stateless_estimates, 0);
        assert!(batched.stats().pending_moves > 0);
    }

    #[test]
    fn batched_circuit_switch_resets_the_pending_layer() {
        let c1 = reconvergent();
        let c2 = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n").unwrap();
        let f1 = FaultList::checkpoints(&c1);
        let f2 = FaultList::checkpoints(&c2);
        let mut inc = IncrementalCop::new().with_commit_batch(16);
        let mut w1 = [0.5; 3];
        let _ = inc.estimate(&c1, &f1, &w1);
        w1[0] = 0.7;
        let _ = inc.estimate_coordinate_pair(&c1, &f1, &w1, 1);
        assert_eq!(inc.pending_len(), 1);
        // Switch circuits with moves still pending: must rebuild cleanly.
        let got = inc.estimate(&c2, &f2, &[0.3, 0.8]);
        let expected = CopEngine::new().estimate(&c2, &f2, &[0.3, 0.8]);
        assert_eq!(bits(&got), bits(&expected));
        assert_eq!(inc.pending_len(), 0);
    }

    #[test]
    fn dead_logic_keeps_zero_observability() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ndead = XOR(a, b)\ny = AND(a, b)\n",
        )
        .unwrap();
        let faults = FaultList::full(&c);
        let mut inc = IncrementalCop::new();
        let mut full = CopEngine::new();
        let w = [0.4, 0.6];
        let got = inc.estimate_coordinate_pair(&c, &faults, &w, 1);
        let expected = full.estimate_coordinate_pair(&c, &faults, &w, 1);
        assert_eq!(bits(&got.0), bits(&expected.0));
        assert_eq!(bits(&got.1), bits(&expected.1));
    }
}

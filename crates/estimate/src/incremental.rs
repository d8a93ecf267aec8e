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
//! # Moves
//!
//! Between PREPARE queries the optimizer moves one coordinate at a time
//! (MINIMIZE writes `x_i := y`).  A move is folded into the baseline at
//! once: one eager overlay walk over input *i*'s cached fanout cone at
//! the new weight, written back into the baseline.  A call whose weights
//! differ from the baseline in two or more coordinates rebuilds it.
//!
//! # Queries
//!
//! A PREPARE query is answered against `baseline ∪ query-overlay`,
//! computing only what the queried faults read:
//!
//! * signal probabilities **on demand** ([`lazy_probability`]), memoized
//!   post-order from the nodes the answer reads, over the queried
//!   coordinate's fanout cone;
//! * observabilities through the overlay's push-on-change backward walk,
//!   seeded with every sensitization-reactive cone gate and clipped to
//!   the **query mask** — the fanout closure of the queried fault sites,
//!   which is closed under the obs-dependency relation and therefore
//!   contains every node whose value can influence an answer.
//!
//! The multi-coordinate walk property test in
//! `tests/incremental_agreement.rs` checks both against a full recompute.

use wrt_circuit::{transitive_fanout, Circuit, FanoutCones, NodeId};
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
#[derive(Debug, Clone, Default)]
pub struct IncrementalCop {
    /// Circuit the baseline and the cone cache belong to (`None` before
    /// the first call).
    fingerprint: Option<Fingerprint>,
    /// The COP solution at `baseline.weights`, every move folded in.
    baseline: CopSolution,
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

impl IncrementalCop {
    /// Creates the engine (no baseline yet; the first call builds one).
    pub fn new() -> Self {
        IncrementalCop::default()
    }

    /// Compatibility only: has no effect.  Every coordinate move is
    /// folded into the baseline at once, so there is no batch to size.
    /// Removed together with the replay helper in `perfbench/trace`.
    pub fn with_commit_batch(self, _batch: usize) -> Self {
        self
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
    }

    /// Brings the baseline to exactly `weights`: a no-op when already
    /// there, one folded move when one coordinate moved, a full rebuild
    /// otherwise (first call, new circuit, or a multi-coordinate jump
    /// such as a restart from fresh starting weights).
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
        for (k, (&new, &old)) in weights.iter().zip(&self.baseline.weights).enumerate() {
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
            self.fold_move(circuit, coordinate, weights[coordinate]);
        }
    }

    /// Folds `x_coordinate := value` into the baseline: one eager overlay
    /// walk over the coordinate's fanout cone at the new weight, written
    /// back into the baseline.
    fn fold_move(&mut self, circuit: &Circuit, coordinate: usize, value: f64) {
        self.baseline.weights[coordinate] = value;
        let cone = self.cones.cone(circuit, circuit.inputs()[coordinate]);
        self.overlay.next_epoch();
        let weights = &self.baseline.weights;
        self.overlay.eager_walk(
            circuit,
            &self.baseline,
            cone,
            &[],
            |k| weights[k],
            |_, kind| kind,
        );
        self.overlay.fold_into(circuit, &mut self.baseline);
    }

    /// The query overlay for `x_coordinate := value` over the baseline,
    /// leaving the baseline untouched and computing only what answering
    /// `faults` needs:
    ///
    /// * signal probabilities **on demand** ([`lazy_probability`]) — at
    ///   fault-activation nodes and at the fanins of backward-recomputed
    ///   gates — instead of walking the whole cone;
    /// * observabilities only inside the query mask (see
    ///   [`refresh_query_mask`](Self::refresh_query_mask)), seeded
    ///   conservatively with every sensitization-reactive cone gate in the
    ///   mask (without an eager forward walk the exact probability-dirty
    ///   set is unknown; a seed whose inputs turn out unchanged
    ///   recomputes its baseline values and pushes nothing).
    ///
    /// The caller must invoke
    /// [`refresh_query_mask`](Self::refresh_query_mask) for `faults`
    /// first.
    fn perturb_query(
        &mut self,
        circuit: &Circuit,
        coordinate: usize,
        value: f64,
        faults: &FaultList,
    ) {
        self.overlay.next_epoch();
        if self.baseline.weights[coordinate] == value {
            return; // identity perturbation: the baseline answers as-is
        }
        self.stats.perturbations += 1;
        let query = Query {
            cone: self.cones.cone(circuit, circuit.inputs()[coordinate]),
            coordinate,
            value,
        };

        // Backward walk over the (conservative) dirty region inside the
        // query mask.  Every cone node that is not a primary input has a
        // cone fanin, so the sensitization-reactive cone gates are exactly
        // the candidates whose pin observabilities can move without their
        // stem moving first (primary inputs have no pins and never react).
        let (mask, token) = (&self.query_stamp, self.query_token);
        for &id in query.cone {
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

/// The perturbation a query overlay evaluates: the dirty `cone` of
/// `coordinate`, and the baseline weights with `coordinate` overridden to
/// `value`.
struct Query<'a> {
    cone: &'a [NodeId],
    coordinate: usize,
    value: f64,
}

/// Demand-driven perturbed signal probability.
///
/// Nodes outside the query's cone cannot depend on the perturbed input
/// and read the baseline directly; cone nodes are
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
            baseline.weights[k]
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
        self.baseline.detection_probabilities(circuit, faults)
    }

    /// The incremental hot path: both boundary points of coordinate *i*
    /// via query overlays over the baseline at `weights`.
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
        let mut inc = IncrementalCop::new();
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
        // Only the very first call built a baseline (2 × 8 evals); every
        // weight move afterwards was folded by one cone-restricted walk.
        // The exact counts pin that work: a skipped or partial fold, or a
        // fold at stale weights, changes them.
        let stats = inc.stats();
        assert_eq!(stats.full_rebuilds, 1);
        assert_eq!(
            (stats.forward_evaluations, stats.backward_evaluations),
            (75, 132)
        );
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
    fn batched_global_cones_avoid_stateless_passes() {
        // Wide AND: every input's cone is global (the whole circuit).
        // The engine must still answer through its overlays, never with
        // stateless full passes or extra rebuilds — and bit-identically.
        let mut src = String::from("OUTPUT(y)\n");
        let mut args = Vec::new();
        for i in 0..6 {
            src.push_str(&format!("INPUT(x{i})\n"));
            args.push(format!("x{i}"));
        }
        src.push_str(&format!("y = AND({})\n", args.join(", ")));
        let c = parse_bench(&src).unwrap();
        let faults = FaultList::checkpoints(&c);
        let mut inc = IncrementalCop::new();
        let mut full = CopEngine::new();
        let mut w = [0.5; 6];
        for step in 0..8 {
            let i = step % 6;
            let got = inc.estimate_coordinate_pair(&c, &faults, &w, i);
            let expected = full.estimate_coordinate_pair(&c, &faults, &w, i);
            assert_eq!(bits(&got.0), bits(&expected.0), "step {step}");
            assert_eq!(bits(&got.1), bits(&expected.1), "step {step}");
            w[i] = 0.6 + 0.04 * i as f64;
        }
        let stats = inc.stats();
        assert_eq!(stats.stateless_estimates, 0);
        assert_eq!(stats.full_rebuilds, 1);
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

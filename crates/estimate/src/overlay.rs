//! The one COP overlay: an immutable COP solution plus an epoch-stamped
//! delta over it.
//!
//! A [`CopSolution`] holds the full COP solution at one weight vector
//! (every COP engine computes one); an [`Overlay`] holds only the nodes
//! whose values differ from it under a what-if gate-kind mutation
//! ([`crate::SessionCop`]), stamped with the current epoch, so every
//! lookup is "overlay if stamped, else baseline".
//!
//! # Dirty-region invariants
//!
//! * The forward overlay is **exact**: a node's signal probability differs
//!   from the baseline only if the node is stamped (the eager walk
//!   recomputes every node of the dirty region in topological order and
//!   stamps only values that moved).
//! * The backward overlay is **conservative but value-exact**: every node
//!   whose observability (or any pin observability) differs from the
//!   baseline is stamped, and every stamped node carries the value a full
//!   reverse pass would produce, because each recomputation reads
//!   overlay-or-baseline values that are themselves exact (induction over
//!   descending node ids, the full pass's own order).
//! * Full passes and overlay walks evaluate nodes through the same
//!   kind-parameterized helpers in `cop.rs` on bit-identical inputs, so
//!   overlay answers are **bit-identical f64s**, not merely close.

use std::collections::BinaryHeap;

use wrt_circuit::{Circuit, GateKind, NodeId};
use wrt_fault::FaultList;

use crate::cop::{
    node_probability_of_kind, observabilities_cop, pin_sensitivities_of_kind,
    signal_probabilities_cop, stem_observability,
};
use crate::engine::cop_fault_probability;

/// The COP solution of one circuit at one weight vector.
#[derive(Debug, Clone, Default)]
pub(crate) struct CopSolution {
    pub(crate) weights: Vec<f64>,
    pub(crate) p: Vec<f64>,
    pub(crate) obs: Vec<f64>,
    /// Pin observabilities, edge-indexed: pin `pin` of gate `g` lives at
    /// `circuit.fanin_offset(g) + pin` (same layout as the fanin CSR).
    pub(crate) pin_obs: Vec<f64>,
}

impl CopSolution {
    /// One forward and one backward full pass at `weights`.
    pub(crate) fn compute(circuit: &Circuit, weights: &[f64]) -> Self {
        let p = signal_probabilities_cop(circuit, weights);
        Self::from_signal_probabilities(circuit, weights, p)
    }

    /// The backward pass over signal probabilities `p` computed at
    /// `weights` (COP's own, or the hybrid engine's exact-where-possible
    /// ones).
    pub(crate) fn from_signal_probabilities(
        circuit: &Circuit,
        weights: &[f64],
        p: Vec<f64>,
    ) -> Self {
        let (obs, pin_obs) = observabilities_cop(circuit, &p);
        CopSolution {
            weights: weights.to_vec(),
            p,
            obs,
            pin_obs,
        }
    }

    /// Detection probability of every fault, read from the solution alone.
    pub(crate) fn detection_probabilities(
        &self,
        circuit: &Circuit,
        faults: &FaultList,
    ) -> Vec<f64> {
        faults
            .as_slice()
            .iter()
            .map(|fault| {
                cop_fault_probability(
                    circuit,
                    fault,
                    &|f: NodeId| self.p[f.index()],
                    &|n: NodeId| self.obs[n.index()],
                    &|e: usize| self.pin_obs[e],
                )
            })
            .collect()
    }
}

/// Whether a gate of `kind` with `arity` pins sensitizes its pins through
/// sibling probabilities.
///
/// Only the AND/OR families with two or more pins do; XOR, XNOR, NOT and
/// BUF pins sensitize unconditionally, so such gates need backward
/// recomputation only when their own stem observability moves — which
/// push-on-change propagation covers without seeding them.
fn sens_reacts(kind: GateKind, arity: usize) -> bool {
    matches!(
        kind,
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor
    ) && arity >= 2
}

/// Epoch-stamped scratch over a [`CopSolution`]: a slot is live iff its
/// stamp equals the current epoch.  A node's observability and its pin
/// observabilities are always recomputed together; the pins carry their
/// own edge-indexed stamps so a stem reads a branch by edge alone.
#[derive(Debug, Clone, Default)]
pub(crate) struct Overlay {
    epoch: u32,
    p: Vec<f64>,
    p_stamp: Vec<u32>,
    obs: Vec<f64>,
    obs_stamp: Vec<u32>,
    /// Edge-indexed like [`CopSolution::pin_obs`].
    pin: Vec<f64>,
    pin_stamp: Vec<u32>,
    queue_stamp: Vec<u32>,
    /// Max-heap of pending backward recomputations (descending node id =
    /// reverse topological order).
    heap: BinaryHeap<usize>,
    pub(crate) touched_p: Vec<NodeId>,
    pub(crate) touched_obs: Vec<NodeId>,
    /// Cumulative forward (signal-probability) node evaluations.
    pub(crate) forward_evals: u64,
    /// Cumulative backward (observability) node evaluations.
    pub(crate) backward_evals: u64,
}

impl Overlay {
    /// Fresh scratch for a circuit of `nodes` nodes and `edges` fanin
    /// edges.
    pub(crate) fn new(nodes: usize, edges: usize) -> Self {
        Overlay {
            p: vec![0.0; nodes],
            p_stamp: vec![0; nodes],
            obs: vec![0.0; nodes],
            obs_stamp: vec![0; nodes],
            pin: vec![0.0; edges],
            pin_stamp: vec![0; edges],
            queue_stamp: vec![0; nodes],
            ..Overlay::default()
        }
    }

    /// Starts a new overlay: every scratch value becomes stale.
    pub(crate) fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: no slot stamped in an earlier cycle may read as
            // live.
            self.p_stamp.fill(0);
            self.obs_stamp.fill(0);
            self.pin_stamp.fill(0);
            self.queue_stamp.fill(0);
            self.epoch = 1;
        }
        self.touched_p.clear();
        self.touched_obs.clear();
    }

    #[cfg(test)]
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    #[cfg(test)]
    pub(crate) fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Overlay-or-baseline signal probability.
    fn p(&self, base: &CopSolution, id: NodeId) -> f64 {
        if self.p_stamp[id.index()] == self.epoch {
            self.p[id.index()]
        } else {
            base.p[id.index()]
        }
    }

    /// Overlay-or-baseline observability.
    pub(crate) fn obs(&self, base: &CopSolution, id: NodeId) -> f64 {
        if self.obs_stamp[id.index()] == self.epoch {
            self.obs[id.index()]
        } else {
            base.obs[id.index()]
        }
    }

    /// Overlay-or-baseline observability of fanin edge `e`.
    fn pin_obs(&self, base: &CopSolution, e: usize) -> f64 {
        if self.pin_stamp[e] == self.epoch {
            self.pin[e]
        } else {
            base.pin_obs[e]
        }
    }

    /// Detection probability of every fault through the overlay-or-baseline
    /// view.
    pub(crate) fn detection_probabilities(
        &self,
        circuit: &Circuit,
        base: &CopSolution,
        faults: &FaultList,
    ) -> Vec<f64> {
        faults
            .as_slice()
            .iter()
            .map(|fault| {
                cop_fault_probability(
                    circuit,
                    fault,
                    &|f: NodeId| self.p(base, f),
                    &|n: NodeId| self.obs(base, n),
                    &|e: usize| self.pin_obs(base, e),
                )
            })
            .collect()
    }

    /// Queues node `idx` for backward recomputation (once per epoch).
    fn enqueue(&mut self, idx: usize) {
        if self.queue_stamp[idx] != self.epoch {
            self.queue_stamp[idx] = self.epoch;
            self.heap.push(idx);
        }
    }

    /// The eager walk: one forward pass over `nodes` (sorted ids =
    /// topological order) at the weights `input_prob` gives, stamping only
    /// values that moved off the baseline, then one backward
    /// push-on-change walk.
    ///
    /// `kind(id, native)` is the effective kind of node `id` (its own kind
    /// `native`, or a what-if override).  Backward seeds are the
    /// sensitization-reactive sinks of every moved probability, judged by
    /// effective kind, plus `seeds` (gates whose pin sensitivities moved
    /// for another reason, e.g. a kind override).
    pub(crate) fn eager_walk(
        &mut self,
        circuit: &Circuit,
        base: &CopSolution,
        nodes: &[NodeId],
        seeds: &[NodeId],
        input_prob: impl Fn(usize) -> f64,
        kind: impl Fn(NodeId, GateKind) -> GateKind,
    ) {
        for &id in nodes {
            let node = circuit.node(id);
            let new_p = node_probability_of_kind(
                circuit,
                id,
                kind(id, node.kind()),
                node.fanin(),
                &input_prob,
                &|f: NodeId| self.p(base, f),
            );
            self.forward_evals += 1;
            // Prune: an unchanged value dirties nothing downstream.
            if new_p != base.p[id.index()] {
                self.p[id.index()] = new_p;
                self.p_stamp[id.index()] = self.epoch;
                self.touched_p.push(id);
            }
        }
        for t in 0..self.touched_p.len() {
            for &sink in circuit.fanout(self.touched_p[t]) {
                let node = circuit.node(sink);
                if sens_reacts(kind(sink, node.kind()), node.fanin().len()) {
                    self.enqueue(sink.index());
                }
            }
        }
        for &seed in seeds {
            self.enqueue(seed.index());
        }
        while let Some(idx) = self.heap.pop() {
            let id = NodeId::from_index(idx);
            self.recompute_obs(circuit, base, id, kind(id, circuit.node(id).kind()));
        }
    }

    /// One backward step: recomputes `id`'s stem observability and its pin
    /// observabilities (under effective kind `kind`) from
    /// overlay-or-baseline values, stamps them, and queues the fanin of
    /// every pin whose value moved.
    fn recompute_obs(&mut self, circuit: &Circuit, base: &CopSolution, id: NodeId, kind: GateKind) {
        let idx = id.index();
        let new_obs = stem_observability(circuit, id, &|e| self.pin_obs(base, e));
        self.backward_evals += 1;
        let fanin = circuit.node(id).fanin();
        let first = circuit.fanin_offset(id);
        // `pin` leaves `self` while the lookups borrow it.
        let mut pin = std::mem::take(&mut self.pin);
        pin_sensitivities_of_kind(kind, fanin, &|f: NodeId| self.p(base, f), |k, s| {
            pin[first + k] = new_obs * s;
        });
        self.pin = pin;
        self.pin_stamp[first..first + fanin.len()].fill(self.epoch);
        self.obs[idx] = new_obs;
        self.obs_stamp[idx] = self.epoch;
        self.touched_obs.push(id);
        for (pin, &f) in fanin.iter().enumerate() {
            if self.pin[first + pin] != base.pin_obs[first + pin] {
                self.enqueue(f.index());
            }
        }
    }
}

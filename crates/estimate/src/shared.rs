//! Shared read-only COP baseline + cheap per-session overlay.
//!
//! Batch mode owns one engine per run, so an engine could keep mutable
//! state and nobody cared.  A resident server cannot: many concurrent
//! sessions query the same circuit at the same weight vector, and they
//! must never serialize on one lock.  This module is
//! the ownership split that makes that work:
//!
//! * [`CopBaseline`] — the expensive part (one forward + one backward
//!   COP pass at a fixed weight vector) computed once, then immutable.
//!   It is `Send + Sync` by construction (plain owned vectors behind an
//!   `Arc<Circuit>`), so any number of sessions share it by `Arc` and
//!   answer per-fault queries through `&self` with zero locking.
//! * [`SessionCop`] — per-session scratch layered over an
//!   `Arc<CopBaseline>`: the crate's one COP overlay (`overlay.rs`).  A
//!   what-if ECO query ([`SessionCop::what_if`]) mutates k gate kinds
//!   *virtually*: the overlay's eager walk over the mutated gates' fanout
//!   cone, with the new kinds as an override, touches only the dirtied
//!   region instead of the `2·n` node evaluations a cold recompute costs
//!   — with results bit-identical to rebuilding the mutated circuit and
//!   running full COP, because both paths evaluate nodes through the same
//!   kind-parameterized helpers and unchanged values are reused bitwise
//!   from the baseline.

use std::sync::Arc;

use wrt_circuit::{transitive_fanout, Circuit, GateKind, NodeId};
use wrt_fault::FaultList;

use crate::overlay::{CopSolution, Overlay};

/// An immutable, shareable COP solution for one circuit at one weight
/// vector: signal probabilities, node observabilities, and edge-indexed
/// pin observabilities from one forward and one backward pass.
///
/// Build once (the cold cost), then share via `Arc` across any number of
/// sessions; every query path takes `&self`.
#[derive(Debug)]
pub struct CopBaseline {
    circuit: Arc<Circuit>,
    solution: CopSolution,
}

impl CopBaseline {
    /// Runs the two COP passes for `circuit` at `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != circuit.num_inputs()`.
    pub fn build(circuit: Arc<Circuit>, weights: &[f64]) -> Self {
        let solution = CopSolution::compute(&circuit, weights);
        CopBaseline { circuit, solution }
    }

    /// The circuit this baseline was computed for.
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// The input weight vector the baseline was computed at.
    pub fn weights(&self) -> &[f64] {
        &self.solution.weights
    }

    /// Signal probability of one node.
    pub fn probability(&self, id: NodeId) -> f64 {
        self.solution.p[id.index()]
    }

    /// Observability of one node.
    pub fn observability(&self, id: NodeId) -> f64 {
        self.solution.obs[id.index()]
    }

    /// COP detection probability of every fault in `faults`, through the
    /// same `cop_fault_probability` helper every other engine uses —
    /// bit-identical to `CopEngine` at the same weights.
    pub fn detection_probabilities(&self, faults: &FaultList) -> Vec<f64> {
        self.solution.detection_probabilities(&self.circuit, faults)
    }

    /// Node evaluations a cold recompute of this baseline costs: one
    /// forward pass plus one backward pass over every node.
    pub fn cold_evals(&self) -> u64 {
        2 * self.circuit.num_nodes() as u64
    }
}

/// One virtual gate-kind mutation of a what-if ECO query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcoMutation {
    /// The gate to mutate.
    pub gate: NodeId,
    /// Its replacement kind (must accept the gate's existing fanin count).
    pub kind: GateKind,
}

/// Eval accounting of one [`SessionCop::what_if`] query, against the
/// cold-recompute cost it replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcoStats {
    /// Nodes in the forward (fanout) cone of the mutated gates.
    pub cone_nodes: usize,
    /// Node evaluations of the cone-restricted forward pass.
    pub forward_evals: u64,
    /// Stem-observability evaluations of the push-on-change backward pass.
    pub backward_evals: u64,
    /// Node probabilities that actually changed (bitwise).
    pub changed_probabilities: usize,
    /// Node observabilities that actually changed (bitwise).
    pub changed_observabilities: usize,
    /// Cold-recompute cost for comparison (`2 · num_nodes`).
    pub cold_evals: u64,
}

impl EcoStats {
    /// Total overlay node evaluations.
    pub fn overlay_evals(&self) -> u64 {
        self.forward_evals + self.backward_evals
    }

    /// How many times fewer node evals than a cold recompute.
    pub fn eval_reduction(&self) -> f64 {
        self.cold_evals as f64 / (self.overlay_evals().max(1)) as f64
    }
}

/// Per-session overlay over a shared [`CopBaseline`]: owned stamped
/// scratch (no locks, `Send`), reusable across queries without
/// reallocation.
#[derive(Debug)]
pub struct SessionCop {
    baseline: Arc<CopBaseline>,
    overlay: Overlay,
    /// Sorted `(gate, kind)` overrides of the current query.
    overrides: Vec<(NodeId, GateKind)>,
}

impl SessionCop {
    /// Wraps a shared baseline in fresh per-session scratch.
    pub fn new(baseline: Arc<CopBaseline>) -> Self {
        let overlay = Overlay::new(baseline.circuit.num_nodes(), baseline.circuit.num_edges());
        SessionCop {
            baseline,
            overlay,
            overrides: Vec::new(),
        }
    }

    /// The shared baseline this session is layered over.
    pub fn baseline(&self) -> &Arc<CopBaseline> {
        &self.baseline
    }

    /// Answers a what-if ECO query: with the gates in `mutations`
    /// virtually replaced by their new kinds, what is the COP detection
    /// probability of every fault in `faults`?
    ///
    /// Returns the full detection-probability vector (bit-identical to
    /// rebuilding the mutated circuit and asking a cold `CopEngine` with
    /// the same fault list) plus the eval accounting.  The baseline is
    /// untouched; the overlay lives only until the next query.
    ///
    /// # Errors
    ///
    /// Rejects mutations that change the netlist structure rather than a
    /// gate function: unknown/out-of-range gates, primary inputs and
    /// constants (as target or replacement), kinds whose arity range
    /// does not accept the gate's existing fanin count, and duplicate
    /// gates within one query.
    pub fn what_if(
        &mut self,
        mutations: &[EcoMutation],
        faults: &FaultList,
    ) -> Result<(Vec<f64>, EcoStats), String> {
        let circuit = &self.baseline.circuit;
        if mutations.is_empty() {
            return Err("an ECO query mutates at least one gate".into());
        }
        self.overrides.clear();
        for m in mutations {
            if m.gate.index() >= circuit.num_nodes() {
                return Err(format!("node id {} out of range", m.gate));
            }
            let node = circuit.node(m.gate);
            if node.kind().is_source() {
                return Err(format!(
                    "`{}` is a primary input or constant, not a gate",
                    node.name()
                ));
            }
            if m.kind.is_source() {
                return Err(format!(
                    "cannot mutate `{}` into {:?} — an ECO changes a gate \
                     function, not the netlist structure",
                    node.name(),
                    m.kind
                ));
            }
            let (lo, hi) = m.kind.arity_range();
            let fanin = node.fanin().len();
            if fanin < lo || fanin > hi {
                return Err(format!(
                    "{:?} cannot drive `{}`: it takes {lo}..={hi} fanins, the gate has {fanin}",
                    m.kind,
                    node.name()
                ));
            }
            self.overrides.push((m.gate, m.kind));
        }
        self.overrides.sort_unstable_by_key(|&(g, _)| g);
        if self.overrides.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err("duplicate gate in ECO mutation list".into());
        }

        // The eager overlay walk over the mutated gates' fanout cone: the
        // mutated gates seed the backward walk (their pin sensitivities
        // follow their new kinds), and every kind lookup sees the
        // overrides.
        let roots: Vec<NodeId> = self.overrides.iter().map(|&(g, _)| g).collect();
        let cone = transitive_fanout(circuit, &roots);
        let base = &self.baseline.solution;
        let overrides = &self.overrides;
        let overlay = &mut self.overlay;
        overlay.next_epoch();
        let (forward_before, backward_before) = (overlay.forward_evals, overlay.backward_evals);
        overlay.eager_walk(
            circuit,
            base,
            &cone,
            &roots,
            |k| base.weights[k],
            |id, native| match overrides.binary_search_by_key(&id, |&(g, _)| g) {
                Ok(i) => overrides[i].1,
                Err(_) => native,
            },
        );
        let stats = EcoStats {
            cone_nodes: cone.len(),
            forward_evals: overlay.forward_evals - forward_before,
            backward_evals: overlay.backward_evals - backward_before,
            changed_probabilities: overlay.touched_p.len(),
            changed_observabilities: overlay
                .touched_obs
                .iter()
                .filter(|&&id| overlay.obs(base, id).to_bits() != base.obs[id.index()].to_bits())
                .count(),
            cold_evals: self.baseline.cold_evals(),
        };
        Ok((
            overlay.detection_probabilities(circuit, base, faults),
            stats,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CopEngine, DetectionProbabilityEngine};
    use crate::experiment_faults;
    use wrt_circuit::CircuitBuilder;

    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}

    #[test]
    fn baseline_is_shareable_and_session_is_send() {
        assert_send_sync::<CopBaseline>();
        assert_send::<SessionCop>();
    }

    /// Rebuilds `circuit` with the kinds of `mutations` really replaced.
    /// Nodes are re-added in id order, so the rebuilt circuit's node ids
    /// (and thus the original fault list) line up one to one.
    fn rebuild_mutated(circuit: &Circuit, mutations: &[EcoMutation]) -> Circuit {
        let mut b = CircuitBuilder::named(circuit.name());
        let mut map: Vec<NodeId> = Vec::with_capacity(circuit.num_nodes());
        for (id, node) in circuit.iter() {
            let kind = mutations
                .iter()
                .find(|m| m.gate == id)
                .map_or_else(|| node.kind(), |m| m.kind);
            let new_id = match kind {
                GateKind::Input => b.input(node.name()),
                GateKind::Const0 => b.const0(),
                GateKind::Const1 => b.const1(),
                k => {
                    let fanin: Vec<NodeId> = node.fanin().iter().map(|&f| map[f.index()]).collect();
                    b.gate(k, node.name(), &fanin).expect("legal rebuild")
                }
            };
            map.push(new_id);
        }
        for &o in circuit.outputs() {
            b.mark_output(map[o.index()]);
        }
        b.build().expect("mutated circuit rebuilds")
    }

    #[test]
    fn baseline_matches_cop_engine_bitwise() {
        for name in ["s1", "c880ish", "c2670ish"] {
            let circuit = Arc::new(wrt_workloads::by_name(name).expect("workload"));
            let faults = experiment_faults(&circuit);
            let weights: Vec<f64> = (0..circuit.num_inputs())
                .map(|i| 0.3 + 0.4 * ((i % 5) as f64) / 4.0)
                .collect();
            let baseline = CopBaseline::build(Arc::clone(&circuit), &weights);
            let shared = baseline.detection_probabilities(&faults);
            let mut engine = CopEngine::new();
            let reference = engine.estimate(&circuit, &faults, &weights);
            let shared_bits: Vec<u64> = shared.iter().map(|x| x.to_bits()).collect();
            let reference_bits: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
            assert_eq!(shared_bits, reference_bits, "{name}");
        }
    }

    #[test]
    fn what_if_is_bit_identical_to_cold_recompute_of_the_mutated_circuit() {
        for name in ["s1", "c880ish", "c1355ish"] {
            let circuit = Arc::new(wrt_workloads::by_name(name).expect("workload"));
            let faults = experiment_faults(&circuit);
            let weights = vec![0.5; circuit.num_inputs()];
            let baseline = Arc::new(CopBaseline::build(Arc::clone(&circuit), &weights));
            let mut session = SessionCop::new(Arc::clone(&baseline));

            // Mutate the first two AND/OR-class gates found.
            let mut mutations = Vec::new();
            for (id, node) in circuit.iter() {
                let flipped = match node.kind() {
                    GateKind::And => GateKind::Or,
                    GateKind::Or => GateKind::And,
                    GateKind::Nand => GateKind::Nor,
                    GateKind::Nor => GateKind::Nand,
                    _ => continue,
                };
                mutations.push(EcoMutation {
                    gate: id,
                    kind: flipped,
                });
                if mutations.len() == 2 {
                    break;
                }
            }
            assert_eq!(mutations.len(), 2, "{name} has too few mutable gates");

            let (dp, stats) = session.what_if(&mutations, &faults).expect("valid ECO");
            assert!(
                stats.overlay_evals() <= stats.cold_evals,
                "{name}: overlay {} > cold {}",
                stats.overlay_evals(),
                stats.cold_evals
            );

            let mutated = rebuild_mutated(&circuit, &mutations);
            let mut engine = CopEngine::new();
            let reference = engine.estimate(&mutated, &faults, &weights);
            let dp_bits: Vec<u64> = dp.iter().map(|x| x.to_bits()).collect();
            let reference_bits: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
            assert_eq!(dp_bits, reference_bits, "{name}: ECO overlay diverged");
        }
    }

    #[test]
    fn consecutive_queries_reuse_the_scratch_correctly() {
        let circuit = Arc::new(wrt_workloads::by_name("c880ish").expect("workload"));
        let faults = experiment_faults(&circuit);
        let weights = vec![0.5; circuit.num_inputs()];
        let baseline = Arc::new(CopBaseline::build(Arc::clone(&circuit), &weights));
        let mut session = SessionCop::new(Arc::clone(&baseline));

        let gates: Vec<NodeId> = circuit
            .iter()
            .filter(|(_, n)| matches!(n.kind(), GateKind::And | GateKind::Nand))
            .map(|(id, _)| id)
            .take(6)
            .collect();
        // Three different queries back to back: each must match its own
        // cold recompute, with no bleed-through from the previous one.
        for chunk in gates.chunks(2) {
            let mutations: Vec<EcoMutation> = chunk
                .iter()
                .map(|&gate| EcoMutation {
                    gate,
                    kind: GateKind::Or,
                })
                .collect();
            let (dp, _) = session.what_if(&mutations, &faults).expect("valid ECO");
            let mutated = rebuild_mutated(&circuit, &mutations);
            let mut engine = CopEngine::new();
            let reference = engine.estimate(&mutated, &faults, &weights);
            let dp_bits: Vec<u64> = dp.iter().map(|x| x.to_bits()).collect();
            let reference_bits: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
            assert_eq!(dp_bits, reference_bits);
        }
    }

    #[test]
    fn epoch_wrap_keeps_back_to_back_queries_exact() {
        // Start the session two epochs before the u32 wrap: the queries
        // run at epochs MAX, then (after the refill) 1 and 2.  Without the
        // refill the second query would read every zero-stamped slot as
        // live and answer from stale overlay values.
        let circuit = Arc::new(wrt_workloads::by_name("c880ish").expect("workload"));
        let faults = experiment_faults(&circuit);
        let weights = vec![0.5; circuit.num_inputs()];
        let baseline = Arc::new(CopBaseline::build(Arc::clone(&circuit), &weights));
        let mut session = SessionCop::new(baseline);
        session.overlay.set_epoch(u32::MAX - 1);
        let gates: Vec<NodeId> = circuit
            .iter()
            .filter(|(_, n)| matches!(n.kind(), GateKind::And | GateKind::Nand))
            .map(|(id, _)| id)
            .take(3)
            .collect();
        for &gate in &gates {
            let mutations = [EcoMutation {
                gate,
                kind: GateKind::Nor,
            }];
            let (dp, _) = session.what_if(&mutations, &faults).expect("valid ECO");
            let mutated = rebuild_mutated(&circuit, &mutations);
            let reference = CopEngine::new().estimate(&mutated, &faults, &weights);
            let dp_bits: Vec<u64> = dp.iter().map(|x| x.to_bits()).collect();
            let reference_bits: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
            assert_eq!(dp_bits, reference_bits, "gate {gate}");
        }
        assert_eq!(session.overlay.epoch(), 2);
    }

    #[test]
    fn invalid_mutations_are_structured_errors() {
        let circuit = Arc::new(wrt_workloads::by_name("s1").expect("workload"));
        let faults = experiment_faults(&circuit);
        let weights = vec![0.5; circuit.num_inputs()];
        let baseline = Arc::new(CopBaseline::build(Arc::clone(&circuit), &weights));
        let mut session = SessionCop::new(baseline);

        // Empty mutation list.
        assert!(session.what_if(&[], &faults).is_err());
        // A primary input is not a gate.
        let input = circuit.inputs()[0];
        let m = EcoMutation {
            gate: input,
            kind: GateKind::Or,
        };
        assert!(session.what_if(&[m], &faults).is_err());
        // Source kinds are not gate functions.
        let gate = circuit
            .iter()
            .find(|(_, n)| !n.kind().is_source())
            .map(|(id, _)| id)
            .expect("has a gate");
        let m = EcoMutation {
            gate,
            kind: GateKind::Input,
        };
        assert!(session.what_if(&[m], &faults).is_err());
        // Arity mismatch: NOT cannot drive a 2-input gate.
        let wide = circuit
            .iter()
            .find(|(_, n)| n.fanin().len() >= 2)
            .map(|(id, _)| id)
            .expect("has a wide gate");
        let m = EcoMutation {
            gate: wide,
            kind: GateKind::Not,
        };
        assert!(session.what_if(&[m], &faults).is_err());
        // Duplicate gates.
        let m = EcoMutation {
            gate,
            kind: GateKind::Or,
        };
        assert!(session.what_if(&[m, m], &faults).is_err());
        // Out-of-range id.
        let m = EcoMutation {
            gate: NodeId::from_index(circuit.num_nodes() + 7),
            kind: GateKind::Or,
        };
        assert!(session.what_if(&[m], &faults).is_err());
    }
}

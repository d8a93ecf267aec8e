//! COP-style analytic signal probabilities and observabilities.
//!
//! The classic "controllability/observability program" recurrences: every
//! gate output probability is computed from its fanin probabilities
//! assuming statistical independence, in one topological pass; a second,
//! reverse pass propagates observabilities from the primary outputs.
//! Reconvergent fanout violates the independence assumption, which is the
//! known source of COP's estimation error — the cutting algorithm
//! ([`crate::signal_probability_bounds`]) brackets that error, and the
//! statistical engines avoid it.

use wrt_circuit::{Circuit, GateKind, Node, NodeId};

/// One forward pass of signal probabilities.
///
/// `input_probs[k]` is the probability that primary input *k* is 1.
/// Returns one probability per node, indexable by [`NodeId::index`].
///
/// # Panics
///
/// Panics if `input_probs.len() != circuit.num_inputs()`.
pub fn signal_probabilities_cop(circuit: &Circuit, input_probs: &[f64]) -> Vec<f64> {
    assert_eq!(
        input_probs.len(),
        circuit.num_inputs(),
        "one probability per primary input"
    );
    let mut p = vec![0.0f64; circuit.num_nodes()];
    for (id, node) in circuit.iter() {
        p[id.index()] = node_probability(circuit, id, node, &|k| input_probs[k], &|f: NodeId| {
            p[f.index()]
        });
    }
    p
}

/// The COP recurrence for one node: its signal probability from its fanin
/// probabilities.
///
/// `input_prob` maps a primary-input *position* to its 1-probability; `p`
/// maps any fanin node to its (already computed) signal probability.  The
/// full pass ([`signal_probabilities_cop`]) and the hybrid engine's COP
/// fallback evaluate nodes through this single function.
pub(crate) fn node_probability(
    circuit: &Circuit,
    id: NodeId,
    node: Node<'_>,
    input_prob: &impl Fn(usize) -> f64,
    p: &impl Fn(NodeId) -> f64,
) -> f64 {
    node_probability_of_kind(circuit, id, node.kind(), node.fanin(), input_prob, p)
}

/// [`node_probability`] with the gate kind supplied explicitly.
///
/// The ECO overlay ([`crate::SessionCop`]) evaluates what-if gate-kind
/// mutations without building a mutated circuit: it calls this function
/// with the overridden kind and the *unchanged* fanin list, so a later
/// cold recompute of the really-mutated circuit produces bit-identical
/// values (same function, same operand order).
pub(crate) fn node_probability_of_kind(
    circuit: &Circuit,
    id: NodeId,
    kind: GateKind,
    fanin: &[NodeId],
    input_prob: &impl Fn(usize) -> f64,
    p: &impl Fn(NodeId) -> f64,
) -> f64 {
    match kind {
        GateKind::Input => input_prob(circuit.input_position(id).expect("input")),
        GateKind::Const0 => 0.0,
        GateKind::Const1 => 1.0,
        GateKind::And => fanin.iter().map(|&f| p(f)).product(),
        GateKind::Nand => 1.0 - fanin.iter().map(|&f| p(f)).product::<f64>(),
        GateKind::Or => 1.0 - fanin.iter().map(|&f| 1.0 - p(f)).product::<f64>(),
        GateKind::Nor => fanin.iter().map(|&f| 1.0 - p(f)).product::<f64>(),
        GateKind::Xor => xor_prob(fanin.iter().map(|&f| p(f))),
        GateKind::Xnor => 1.0 - xor_prob(fanin.iter().map(|&f| p(f))),
        GateKind::Not => 1.0 - p(fanin[0]),
        GateKind::Buf => p(fanin[0]),
    }
}

/// Probability that the XOR of independent bits with probabilities `ps`
/// is 1.
fn xor_prob(ps: impl Iterator<Item = f64>) -> f64 {
    // P(odd) via the product identity: Π(1-2p) = 1 - 2 P(odd).
    let prod: f64 = ps.map(|p| 1.0 - 2.0 * p).product();
    (1.0 - prod) / 2.0
}

/// Reverse pass of COP observabilities.
///
/// `obs[n]` approximates the probability that a value change at node *n*
/// propagates to some primary output, given signal probabilities `p`
/// (from [`signal_probabilities_cop`]).  Primary outputs have
/// observability 1; a gate input pin is observable when the gate output is
/// observable and the other pins are at non-controlling values; a fanout
/// stem combines its branches with the "at least one path" rule
/// `1 − Π (1 − obs_branch)` (capped at 1).
///
/// Returns `(node_observability, pin_observability)` where
/// `pin_observability` is edge-indexed: the entry for pin `p` of gate `g`
/// lives at `circuit.fanin_offset(g) + p` — one flat
/// [`Circuit::num_edges`]-sized array instead of a `Vec` per node.
///
/// # Panics
///
/// Panics if `p.len() != circuit.num_nodes()`.
pub fn observabilities_cop(circuit: &Circuit, p: &[f64]) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(p.len(), circuit.num_nodes(), "one probability per node");
    let n = circuit.num_nodes();
    let mut obs = vec![0.0f64; n];
    let mut pin_obs = vec![0.0f64; circuit.num_edges()];

    // Reverse topological order: node ids descending.
    for idx in (0..n).rev() {
        let id = NodeId::from_index(idx);
        obs[idx] = stem_observability(circuit, id, &|sink: NodeId, pin: usize| {
            pin_obs[circuit.fanin_offset(sink) + pin]
        });

        // Pin observabilities of this node's own fanin.
        let node = circuit.node(id);
        let o = obs[idx];
        let base = circuit.fanin_offset(id);
        for pin in 0..node.fanin().len() {
            pin_obs[base + pin] = o * pin_sensitivity(node, pin, &|f: NodeId| p[f.index()]);
        }
    }
    (obs, pin_obs)
}

/// Stem observability of one node from its sinks' (already computed) pin
/// observabilities: POs see the node directly; fanout branches each
/// contribute pin observability at their sink gate, combined with the
/// "at least one path" rule.
///
/// Shared between the full backward pass ([`observabilities_cop`]) and the
/// ECO overlay so both produce bit-identical values.
pub(crate) fn stem_observability(
    circuit: &Circuit,
    id: NodeId,
    pin_obs: &impl Fn(NodeId, usize) -> f64,
) -> f64 {
    let mut miss = 1.0f64;
    let mut any_path = false;
    if circuit.is_output(id) {
        miss = 0.0;
        any_path = true;
    }
    for &sink in circuit.fanout(id) {
        for (pin, &f) in circuit.node(sink).fanin().iter().enumerate() {
            if f == id {
                miss *= 1.0 - pin_obs(sink, pin);
                any_path = true;
            }
        }
    }
    if any_path {
        1.0 - miss
    } else {
        0.0
    }
}

/// COP sensitization factor of one gate-input pin: the probability that the
/// other pins hold non-controlling values (the pin observability is the
/// gate's stem observability times this factor).
pub(crate) fn pin_sensitivity(node: Node<'_>, pin: usize, p: &impl Fn(NodeId) -> f64) -> f64 {
    pin_sensitivity_of_kind(node.kind(), node.fanin(), pin, p)
}

/// [`pin_sensitivity`] with the gate kind supplied explicitly (the ECO
/// overlay's kind-override entry point; see [`node_probability_of_kind`]).
pub(crate) fn pin_sensitivity_of_kind(
    kind: GateKind,
    fanin: &[NodeId],
    pin: usize,
    p: &impl Fn(NodeId) -> f64,
) -> f64 {
    match kind {
        GateKind::And | GateKind::Nand => fanin
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != pin)
            .map(|(_, &f)| p(f))
            .product(),
        GateKind::Or | GateKind::Nor => fanin
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != pin)
            .map(|(_, &f)| 1.0 - p(f))
            .product(),
        // A change on one XOR input always flips the output.
        GateKind::Xor | GateKind::Xnor => 1.0,
        GateKind::Not | GateKind::Buf => 1.0,
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;

    #[test]
    fn and_gate_probability() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let p = signal_probabilities_cop(&c, &[0.5, 0.25]);
        let y = c.node_id("y").unwrap();
        assert!((p[y.index()] - 0.125).abs() < 1e-12);
    }

    #[test]
    fn xor_probability_formula() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nINPUT(d)\nOUTPUT(y)\ny = XOR(a, b, d)\n").unwrap();
        let p = signal_probabilities_cop(&c, &[0.5, 0.5, 0.5]);
        let y = c.node_id("y").unwrap();
        assert!((p[y.index()] - 0.5).abs() < 1e-12);
        // Biased case: P(odd of 0.1, 0.2) = .1*.8 + .9*.2 = 0.26
        let c2 = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
        let p2 = signal_probabilities_cop(&c2, &[0.1, 0.2]);
        let y2 = c2.node_id("y").unwrap();
        assert!((p2[y2.index()] - 0.26).abs() < 1e-12);
    }

    #[test]
    fn tree_circuit_probabilities_are_exact() {
        // No reconvergence: COP is exact.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(d)\nINPUT(e)\nOUTPUT(y)\n\
             m = NAND(a, b)\nn = NOR(d, e)\ny = OR(m, n)\n",
        )
        .unwrap();
        let x = [0.3, 0.7, 0.2, 0.9];
        let p = signal_probabilities_cop(&c, &x);
        let m = 1.0 - 0.3 * 0.7;
        let nn = (1.0 - 0.2) * (1.0 - 0.9);
        let y = 1.0 - (1.0 - m) * (1.0 - nn);
        assert!((p[c.node_id("m").unwrap().index()] - m).abs() < 1e-12);
        assert!((p[c.node_id("y").unwrap().index()] - y).abs() < 1e-12);
    }

    #[test]
    fn observability_of_and_inputs() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let p = signal_probabilities_cop(&c, &[0.5, 0.25]);
        let (obs, pin_obs) = observabilities_cop(&c, &p);
        let y = c.node_id("y").unwrap();
        let a = c.node_id("a").unwrap();
        let b = c.node_id("b").unwrap();
        assert_eq!(obs[y.index()], 1.0);
        // a observable iff b = 1 (prob 0.25); b observable iff a = 1 (0.5).
        assert!((obs[a.index()] - 0.25).abs() < 1e-12);
        assert!((obs[b.index()] - 0.5).abs() < 1e-12);
        let base = c.fanin_offset(y);
        assert!((pin_obs[base] - 0.25).abs() < 1e-12);
        assert!((pin_obs[base + 1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn xor_inputs_are_fully_observable() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
        let p = signal_probabilities_cop(&c, &[0.5, 0.5]);
        let (obs, _) = observabilities_cop(&c, &p);
        assert_eq!(obs[c.node_id("a").unwrap().index()], 1.0);
    }

    #[test]
    fn dead_node_has_zero_observability() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ndead = XOR(a, b)\ny = AND(a, b)\n",
        )
        .unwrap();
        let p = signal_probabilities_cop(&c, &[0.5, 0.5]);
        let (obs, _) = observabilities_cop(&c, &p);
        assert_eq!(obs[c.node_id("dead").unwrap().index()], 0.0);
    }

    #[test]
    fn output_that_also_fans_out_is_fully_observable() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(m)\nOUTPUT(y)\nm = AND(a, b)\ny = NOT(m)\n",
        )
        .unwrap();
        let p = signal_probabilities_cop(&c, &[0.5, 0.5]);
        let (obs, _) = observabilities_cop(&c, &p);
        assert_eq!(obs[c.node_id("m").unwrap().index()], 1.0);
    }

    #[test]
    fn wide_and_probability_is_tiny() {
        let mut src = String::from("OUTPUT(y)\n");
        let mut args = Vec::new();
        for i in 0..32 {
            src.push_str(&format!("INPUT(x{i})\n"));
            args.push(format!("x{i}"));
        }
        src.push_str(&format!("y = AND({})\n", args.join(", ")));
        let c = parse_bench(&src).unwrap();
        let p = signal_probabilities_cop(&c, &vec![0.5; 32]);
        let y = c.node_id("y").unwrap();
        let expect = 0.5f64.powi(32);
        assert!((p[y.index()] - expect).abs() < 1e-18);
    }
}

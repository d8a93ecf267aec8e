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
//!
//! Each pass is one loop over a node sequence ([`forward_on`],
//! [`backward_on`]): every node for the full passes, a fault list's
//! *query cone* for PREPARE.  `B` is the fanout closure of the fault
//! sites (an output fault's node, a pin fault's gate); `F` is the fanin
//! closure of the faults' drivers and of `B`'s gates' fanins.  Every value
//! the detection model reads depends on `F`'s probabilities and `B`'s
//! observabilities alone, so passes over `F` ascending and `B` descending
//! compute it from the same operands in the same order: same f64 bits.
//!
//! PREPARE's two endpoints differ in one input, so both ride one
//! traversal: the recurrences and pass loops are generic over a [`Lane`],
//! `f64` for one point and `[f64; 2]` for the pair.  Each lane performs
//! the scalar operations in the scalar order (products fold from 1.0 in
//! pin order, no fused multiply-add), so it holds the scalar pass's bits
//! at its endpoint; the two lanes are two independent dependency chains.

use wrt_circuit::{Circuit, GateKind, NodeId};

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
    forward_on(circuit, &|k| input_probs[k], 0..circuit.num_nodes(), &mut p);
    p
}

/// One value per evaluation point: `f64` for one point, `[f64; 2]` for
/// PREPARE's two endpoints carried through one traversal.  Each lane
/// goes through exactly the scalar operations, in the scalar order.
pub(crate) trait Lane: Copy {
    /// Every lane set to `x`.
    fn splat(x: f64) -> Self;
    /// `f` of each lane.
    fn map_lanes(self, f: impl Fn(f64) -> f64) -> Self;
    /// `f` of each lane of `self` and the same lane of `other`.
    fn zip_lanes(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self;
}

impl Lane for f64 {
    fn splat(x: f64) -> Self {
        x
    }
    fn map_lanes(self, f: impl Fn(f64) -> f64) -> Self {
        f(self)
    }
    fn zip_lanes(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        f(self, other)
    }
}

impl Lane for [f64; 2] {
    fn splat(x: f64) -> Self {
        [x; 2]
    }
    fn map_lanes(self, f: impl Fn(f64) -> f64) -> Self {
        [f(self[0]), f(self[1])]
    }
    fn zip_lanes(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        [f(self[0], other[0]), f(self[1], other[1])]
    }
}

fn not<L: Lane>(x: L) -> L {
    x.map_lanes(|v| 1.0 - v)
}

fn mul<L: Lane>(a: L, b: L) -> L {
    a.zip_lanes(b, |x, y| x * y)
}

/// `f64`'s `Product`, lane by lane: a fold from 1.0 in iteration order.
fn product<L: Lane>(xs: impl Iterator<Item = L>) -> L {
    xs.fold(L::splat(1.0), mul)
}

/// The forward pass over `nodes` (ascending ids, closed under fanin):
/// writes each listed node's signal probability into `p`.
pub(crate) fn forward_on<L: Lane>(
    circuit: &Circuit,
    input_prob: &impl Fn(usize) -> L,
    nodes: impl IntoIterator<Item = usize>,
    p: &mut [L],
) {
    let (offsets, data) = circuit.fanin_csr();
    let kinds = circuit.kinds();
    for i in nodes {
        let fanin = &data[offsets[i] as usize..offsets[i + 1] as usize];
        p[i] = node_probability_of_kind(
            circuit,
            NodeId::from_index(i),
            kinds[i],
            fanin,
            input_prob,
            &|f: NodeId| p[f.index()],
        );
    }
}

/// The COP recurrence for one node of gate kind `kind`: its signal
/// probability from its fanin probabilities.
///
/// `input_prob` maps a primary-input *position* to its 1-probability; `p`
/// maps any fanin node to its (already computed) signal probability.
/// The forward pass ([`forward_on`]) evaluates every node through this
/// function.  The ECO overlay ([`crate::SessionCop`]) evaluates what-if
/// gate-kind mutations without building a mutated circuit: it calls this
/// function with the overridden kind and the *unchanged* fanin list, so a
/// later cold recompute of the really-mutated circuit produces
/// bit-identical values (same function, same operand order).
pub(crate) fn node_probability_of_kind<L: Lane>(
    circuit: &Circuit,
    id: NodeId,
    kind: GateKind,
    fanin: &[NodeId],
    input_prob: &impl Fn(usize) -> L,
    p: &impl Fn(NodeId) -> L,
) -> L {
    let probs = || fanin.iter().map(|&f| p(f));
    match kind {
        GateKind::Input => input_prob(circuit.input_position(id).expect("input")),
        GateKind::Const0 => L::splat(0.0),
        GateKind::Const1 => L::splat(1.0),
        GateKind::And => product(probs()),
        GateKind::Nand => not(product(probs())),
        GateKind::Or => not(product(probs().map(not))),
        GateKind::Nor => product(probs().map(not)),
        GateKind::Xor => xor_prob(probs()),
        GateKind::Xnor => not(xor_prob(probs())),
        GateKind::Not => not(p(fanin[0])),
        GateKind::Buf => p(fanin[0]),
    }
}

/// Probability that the XOR of independent bits with probabilities `ps`
/// is 1.
fn xor_prob<L: Lane>(ps: impl Iterator<Item = L>) -> L {
    // P(odd) via the product identity: Π(1-2p) = 1 - 2 P(odd).
    let prod = product(ps.map(|p| p.map_lanes(|v| 1.0 - 2.0 * v)));
    prod.map_lanes(|v| (1.0 - v) / 2.0)
}

/// Reverse pass of COP observabilities.
///
/// `obs[n]` approximates the probability that a value change at node *n*
/// propagates to some primary output, given signal probabilities `p`
/// (from [`signal_probabilities_cop`]).  Primary outputs have
/// observability 1; a gate input pin is observable when the gate output is
/// observable and the other pins are at non-controlling values; a fanout
/// stem combines its branches with the "at least one path" rule
/// `1 − Π (1 − obs_branch)`, one factor per fanout edge in
/// [`Circuit::fanout_edges`] order (a gate that lists the stem on two pins
/// is two branches).
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
    let mut obs = vec![0.0f64; circuit.num_nodes()];
    let mut pin_obs = vec![0.0f64; circuit.num_edges()];
    // Reverse topological order: node ids descending.
    backward_on(circuit, p, (0..obs.len()).rev(), &mut obs, &mut pin_obs);
    (obs, pin_obs)
}

/// The backward pass over `nodes` (descending ids, closed under fanout;
/// `p` holds their fanins' probabilities): writes each listed node's
/// observability and the pin observabilities of its fanin.
pub(crate) fn backward_on<L: Lane>(
    circuit: &Circuit,
    p: &[L],
    nodes: impl IntoIterator<Item = usize>,
    obs: &mut [L],
    pin_obs: &mut [L],
) {
    let (offsets, data) = circuit.fanin_csr();
    let kinds = circuit.kinds();
    for idx in nodes {
        let o = stem_observability(circuit, NodeId::from_index(idx), &|e| pin_obs[e]);
        obs[idx] = o;
        // Pin observabilities of this node's own fanin.
        let base = offsets[idx] as usize;
        let fanin = &data[base..offsets[idx + 1] as usize];
        pin_sensitivities_of_kind(kinds[idx], fanin, &|f: NodeId| p[f.index()], |pin, s| {
            pin_obs[base + pin] = mul(o, s);
        });
    }
}

/// Stem observability of one node from its sinks' (already computed) pin
/// observabilities: POs see the node directly; each fanout edge
/// contributes the pin observability at its sink gate, combined with the
/// "at least one path" rule, in [`Circuit::fanout_edges`] order.  A gate
/// that lists the node on two pins is two branches, each counted once.
///
/// `pin_obs(e)` reads the pin observability of fanin edge `e`
/// (edge-indexed, see [`Circuit::fanin_offset`]).  Shared between the
/// full backward pass ([`observabilities_cop`]), the ECO overlay and
/// STAFAN, so all produce bit-identical values.
pub(crate) fn stem_observability<L: Lane>(
    circuit: &Circuit,
    id: NodeId,
    pin_obs: &impl Fn(usize) -> L,
) -> L {
    let edges = circuit.fanout_edges(id);
    let output = circuit.is_output(id);
    let start = L::splat(if output { 0.0 } else { 1.0 });
    let miss = edges
        .iter()
        .fold(start, |miss, &e| mul(miss, not(pin_obs(e as usize))));
    if output || !edges.is_empty() {
        not(miss)
    } else {
        L::splat(0.0)
    }
}

/// COP sensitization factors of a gate's pins: `out(pin, s)` receives,
/// pin by pin, the probability `s` that the other pins hold
/// non-controlling values (the pin observability is the gate's stem
/// observability times this factor).  The gate kind is a parameter so the
/// ECO overlay can override it (see [`node_probability_of_kind`]).
pub(crate) fn pin_sensitivities_of_kind<L: Lane>(
    kind: GateKind,
    fanin: &[NodeId],
    p: &impl Fn(NodeId) -> L,
    mut out: impl FnMut(usize, L),
) {
    match kind {
        GateKind::And | GateKind::Nand => products_of_others(fanin, p, out),
        GateKind::Or | GateKind::Nor => products_of_others(fanin, |f| not(p(f)), out),
        // A change on one XOR input always flips the output.
        GateKind::Xor | GateKind::Xnor | GateKind::Not | GateKind::Buf => {
            (0..fanin.len()).for_each(|pin| out(pin, L::splat(1.0)));
        }
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => {}
    }
}

/// For each pin, the product of `value` over the other pins, in pin order.
fn products_of_others<L: Lane>(
    fanin: &[NodeId],
    value: impl Fn(NodeId) -> L,
    mut out: impl FnMut(usize, L),
) {
    for pin in 0..fanin.len() {
        let others = fanin.iter().enumerate().filter(|&(k, _)| k != pin);
        out(pin, product(others.map(|(_, &f)| value(f))));
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
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ndead = XOR(a, b)\ny = AND(a, b)\n")
            .unwrap();
        let p = signal_probabilities_cop(&c, &[0.5, 0.5]);
        let (obs, _) = observabilities_cop(&c, &p);
        assert_eq!(obs[c.node_id("dead").unwrap().index()], 0.0);
    }

    #[test]
    fn output_that_also_fans_out_is_fully_observable() {
        let c =
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(m)\nOUTPUT(y)\nm = AND(a, b)\ny = NOT(m)\n")
                .unwrap();
        let p = signal_probabilities_cop(&c, &[0.5, 0.5]);
        let (obs, _) = observabilities_cop(&c, &p);
        assert_eq!(obs[c.node_id("m").unwrap().index()], 1.0);
    }

    #[test]
    fn a_repeated_fanin_counts_once_per_edge() {
        // `a` feeding one AND on two pins is two branches, exactly as
        // when each pin is fed through its own BUF.
        let twice = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, a, b)\n").unwrap();
        let split = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\na1 = BUF(a)\na2 = BUF(a)\ny = AND(a1, a2, b)\n",
        )
        .unwrap();
        let obs_of_a = |c: &Circuit| {
            let p = signal_probabilities_cop(c, &[0.5, 0.5]);
            observabilities_cop(c, &p).0[c.node_id("a").unwrap().index()]
        };
        assert_eq!(obs_of_a(&twice), 1.0 - 0.75 * 0.75);
        assert_eq!(obs_of_a(&twice).to_bits(), obs_of_a(&split).to_bits());
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

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use proptest::prelude::*;
    use wrt_circuit::CircuitBuilder;

    /// Random DAGs over 5 inputs with every gate kind; picks collide
    /// often, so many gates list one driver on two pins.  Input 0 is
    /// always a primary output, and the first gate reads input 1 on two of
    /// its five pins.
    pub(crate) fn arb_circuit() -> impl Strategy<Value = Circuit> {
        use GateKind::*;
        let wide = prop::sample::select(vec![And, Nand, Or, Nor, Xor, Xnor]);
        let kinds = prop::sample::select(vec![
            And, Nand, Or, Nor, Xor, Xnor, Not, Buf, Const0, Const1,
        ]);
        let specs =
            proptest::collection::vec((kinds, proptest::collection::vec(0usize..64, 1..6)), 3..20);
        (wide, specs).prop_map(|(first, specs)| {
            let mut b = CircuitBuilder::named("rand");
            let mut ids: Vec<NodeId> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
            let twice = [ids[1], ids[2], ids[1], ids[3], ids[4]];
            ids.push(b.gate_auto(first, &twice).expect("valid"));
            for (kind, picks) in specs {
                let arity = match kind {
                    Not | Buf => 1,
                    Const0 | Const1 => 0,
                    _ => picks.len(),
                };
                let fanin: Vec<_> = picks[..arity].iter().map(|&p| ids[p % ids.len()]).collect();
                ids.push(b.gate_auto(kind, &fanin).expect("valid"));
            }
            let mut outputs: Vec<NodeId> = ids.iter().rev().step_by(4).copied().collect();
            if !outputs.contains(&ids[0]) {
                outputs.push(ids[0]);
            }
            for o in outputs {
                b.mark_output(o);
            }
            b.build().expect("valid circuit")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn full_passes_equal_node_by_node_evaluation(
            circuit in arb_circuit(),
            weights in proptest::collection::vec(0.0f64..=1.0, 5),
        ) {
            let p = signal_probabilities_cop(&circuit, &weights);
            let (obs, pin_obs) = observabilities_cop(&circuit, &p);
            let mut q = vec![0.0f64; circuit.num_nodes()];
            for (id, node) in circuit.iter() {
                q[id.index()] = node_probability_of_kind(
                    &circuit,
                    id,
                    node.kind(),
                    node.fanin(),
                    &|k| weights[k],
                    &|f: NodeId| q[f.index()],
                );
            }
            prop_assert_eq!(&bits(&p), &bits(&q));
            let mut o = vec![0.0f64; circuit.num_nodes()];
            let mut pin = vec![0.0f64; circuit.num_edges()];
            for (id, node) in circuit.iter().collect::<Vec<_>>().into_iter().rev() {
                let stem = stem_observability(&circuit, id, &|e| pin[e]);
                // Independently: scan each distinct sink's pins, so a sink
                // listing `id` twice contributes two factors, not four.
                let mut sinks = circuit.fanout(id).to_vec();
                sinks.dedup();
                let mut miss = if circuit.is_output(id) { 0.0 } else { 1.0 };
                for &s in &sinks {
                    for (k, _) in circuit.fanin(s).iter().enumerate().filter(|&(_, &f)| f == id) {
                        miss *= 1.0 - pin[circuit.fanin_offset(s) + k];
                    }
                }
                let reached = circuit.is_output(id) || !sinks.is_empty();
                prop_assert_eq!(stem.to_bits(), if reached { 1.0 - miss } else { 0.0 }.to_bits());
                o[id.index()] = stem;
                let base = circuit.fanin_offset(id);
                pin_sensitivities_of_kind(node.kind(), node.fanin(), &|f: NodeId| p[f.index()], |k, s| {
                    pin[base + k] = stem * s;
                });
            }
            prop_assert_eq!(&bits(&obs), &bits(&o));
            prop_assert_eq!(&bits(&pin_obs), &bits(&pin));
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
}

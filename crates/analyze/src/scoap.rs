//! SCOAP testability measures: integer controllabilities and observabilities.
//!
//! Goldstein's SCOAP [Go79] assigns every line three integer costs:
//! CC0/CC1 — how many line assignments it takes to force the line to 0/1 —
//! and CO — how many assignments it takes to propagate the line's value to
//! a primary output.  Unlike the probabilistic COP model, the costs are
//! purely structural (no signal probabilities), which makes them a
//! simulation-free ranking of fault difficulty: a stuck-at fault is hard
//! exactly when exciting it (opposite-value controllability) plus
//! observing the site (CO) is expensive.
//!
//! Finite cost arithmetic saturates at [`SCOAP_MAX`]; the distinct marker
//! [`SCOAP_INF`] is reserved for structural impossibility — a cost of
//! `SCOAP_INF` is a proof that the line cannot take that value (or cannot
//! be observed) at all, which the structural lints exploit.

use wrt_circuit::{Circuit, GateKind, NodeId};
use wrt_fault::{Fault, FaultSite};

/// The "unachievable" SCOAP cost.
///
/// A controllability of `SCOAP_INF` means the line can never take that
/// value; an observability of `SCOAP_INF` means no sensitizable structural
/// path to a primary output exists.  `SCOAP_INF` only ever *originates*
/// from genuine structural impossibility (constant sources, no path to an
/// output) — finite costs that overflow saturate at [`SCOAP_MAX`] instead,
/// so saturation is never mistaken for redundancy.
pub const SCOAP_INF: u32 = u32::MAX;

/// The ceiling for *finite* SCOAP costs.
///
/// SCOAP costs grow multiplicatively with depth (a gate sums its fanin
/// costs), so deep arithmetic arrays overflow any fixed-width integer.
/// Finite cost arithmetic saturates here, one below [`SCOAP_INF`]: a cost
/// of `SCOAP_MAX` means "astronomically hard but structurally possible",
/// which is a different claim than `SCOAP_INF`'s "impossible".  Ranking
/// collapses into one tie at the ceiling, which the rank-correlation
/// checks tolerate.
pub const SCOAP_MAX: u32 = u32::MAX - 1;

/// Cost addition: `SCOAP_INF` is absorbing, finite sums cap at
/// [`SCOAP_MAX`].
#[inline]
fn sadd(a: u32, b: u32) -> u32 {
    if a == SCOAP_INF || b == SCOAP_INF {
        SCOAP_INF
    } else {
        a.saturating_add(b).min(SCOAP_MAX)
    }
}

/// SCOAP testability measures for every line of a circuit.
///
/// Computed by [`Scoap::compute`] in one forward pass (controllabilities,
/// in topological node order) and one backward pass (observabilities, in
/// reverse order) — both O(edges).
///
/// # Example
///
/// ```
/// use wrt_circuit::parse_bench;
/// use wrt_analyze::Scoap;
///
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
/// let s = Scoap::compute(&c);
/// let y = c.node_id("y").unwrap();
/// assert_eq!(s.cc1(y), 3); // both inputs to 1, plus the line itself
/// assert_eq!(s.cc0(y), 2); // one input to 0, plus the line itself
/// assert_eq!(s.co(y), 0);  // primary output
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Scoap {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
    /// Fanin-CSR pin offsets copied from the circuit, so [`Self::pin_co`]
    /// keeps its `(gate, pin)` signature without holding a circuit
    /// borrow: pin `p` of gate `g` is edge `pin_offsets[g] + p`.
    pin_offsets: Vec<u32>,
    /// Edge-indexed observability of each fanin *pin* (branch
    /// observability); see [`Self::pin_offsets`].
    pin_co: Vec<u32>,
}

impl Scoap {
    /// Computes all four measure vectors for a circuit.
    pub fn compute(circuit: &Circuit) -> Self {
        let n = circuit.num_nodes();
        let mut cc0 = vec![0u32; n];
        let mut cc1 = vec![0u32; n];

        // Forward pass: node ids are topological, so fanin costs are ready.
        for (id, node) in circuit.iter() {
            let i = id.index();
            let fanin = node.fanin();
            let (c0, c1) = match node.kind() {
                GateKind::Input => (1, 1),
                GateKind::Const0 => (0, SCOAP_INF),
                GateKind::Const1 => (SCOAP_INF, 0),
                GateKind::And => (
                    sadd(1, min_over(fanin, &cc0)),
                    sadd(1, sum_over(fanin, &cc1)),
                ),
                GateKind::Nand => (
                    sadd(1, sum_over(fanin, &cc1)),
                    sadd(1, min_over(fanin, &cc0)),
                ),
                GateKind::Or => (
                    sadd(1, sum_over(fanin, &cc0)),
                    sadd(1, min_over(fanin, &cc1)),
                ),
                GateKind::Nor => (
                    sadd(1, min_over(fanin, &cc1)),
                    sadd(1, sum_over(fanin, &cc0)),
                ),
                GateKind::Not => {
                    let f = fanin[0].index();
                    (sadd(1, cc1[f]), sadd(1, cc0[f]))
                }
                GateKind::Buf => {
                    let f = fanin[0].index();
                    (sadd(1, cc0[f]), sadd(1, cc1[f]))
                }
                GateKind::Xor | GateKind::Xnor => {
                    let (e0, e1) = parity_costs(fanin, &cc0, &cc1);
                    if node.kind() == GateKind::Xor {
                        (sadd(1, e0), sadd(1, e1))
                    } else {
                        (sadd(1, e1), sadd(1, e0))
                    }
                }
            };
            cc0[i] = c0;
            cc1[i] = c1;
        }

        // Backward pass: reverse topological order, mirroring the COP
        // observability sweep.
        let mut co = vec![SCOAP_INF; n];
        let pin_offsets: Vec<u32> = circuit
            .ids()
            .map(|id| circuit.fanin_offset(id) as u32)
            .collect();
        let mut pin_co = vec![SCOAP_INF; circuit.num_edges()];
        for idx in (0..n).rev() {
            let id = NodeId::from_index(idx);
            let mut best = if circuit.is_output(id) { 0 } else { SCOAP_INF };
            for &sink in circuit.fanout(id) {
                let sink_base = circuit.fanin_offset(sink);
                for (pin, &f) in circuit.node(sink).fanin().iter().enumerate() {
                    if f == id {
                        best = best.min(pin_co[sink_base + pin]);
                    }
                }
            }
            co[idx] = best;

            // Pin observabilities of this node's own fanin: gate CO plus
            // the cost of holding every *other* pin at its non-controlling
            // value.
            let node = circuit.node(id);
            let fanin = node.fanin();
            let o = co[idx];
            let base = circuit.fanin_offset(id);
            for pin in 0..fanin.len() {
                let side = match node.kind() {
                    GateKind::And | GateKind::Nand => sum_except(fanin, pin, &cc1),
                    GateKind::Or | GateKind::Nor => sum_except(fanin, pin, &cc0),
                    GateKind::Xor | GateKind::Xnor => {
                        // Any fixed values on the other pins propagate;
                        // pick the cheaper of 0/1 per side pin.
                        let mut acc = 0u32;
                        for (k, &f) in fanin.iter().enumerate() {
                            if k != pin {
                                acc = sadd(acc, cc0[f.index()].min(cc1[f.index()]));
                            }
                        }
                        acc
                    }
                    GateKind::Not | GateKind::Buf => 0,
                    GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0,
                };
                pin_co[base + pin] = sadd(o, sadd(1, side));
            }
        }

        Scoap {
            cc0,
            cc1,
            co,
            pin_offsets,
            pin_co,
        }
    }

    /// 0-controllability of a node's output line.
    pub fn cc0(&self, id: NodeId) -> u32 {
        self.cc0[id.index()]
    }

    /// 1-controllability of a node's output line.
    pub fn cc1(&self, id: NodeId) -> u32 {
        self.cc1[id.index()]
    }

    /// Controllability of a node to the given value.
    pub fn cc(&self, id: NodeId, value: bool) -> u32 {
        if value {
            self.cc1(id)
        } else {
            self.cc0(id)
        }
    }

    /// Observability of a node's output stem.
    pub fn co(&self, id: NodeId) -> u32 {
        self.co[id.index()]
    }

    /// Observability of one fanin pin (branch) of a gate.
    pub fn pin_co(&self, gate: NodeId, pin: usize) -> u32 {
        self.pin_co[self.pin_offsets[gate.index()] as usize + pin]
    }

    /// All 0-controllabilities, indexed by [`NodeId::index`].
    pub fn cc0_all(&self) -> &[u32] {
        &self.cc0
    }

    /// All 1-controllabilities, indexed by [`NodeId::index`].
    pub fn cc1_all(&self) -> &[u32] {
        &self.cc1
    }

    /// All stem observabilities, indexed by [`NodeId::index`].
    pub fn co_all(&self) -> &[u32] {
        &self.co
    }

    /// SCOAP detection cost of a stuck-at fault: the cost of *exciting* it
    /// (driving the faulty line to the opposite of its stuck value) plus
    /// the cost of *observing* the fault site.
    ///
    /// `SCOAP_INF` is a structural redundancy certificate: the fault can
    /// never be excited or never be observed.
    ///
    /// # Example
    ///
    /// ```
    /// use wrt_circuit::parse_bench;
    /// use wrt_fault::Fault;
    /// use wrt_analyze::{Scoap, SCOAP_INF};
    ///
    /// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
    /// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
    /// let s = Scoap::compute(&c);
    /// let y = c.node_id("y").unwrap();
    /// // y s-a-0: excite by setting y to 1 (cost 3), observe a PO (0).
    /// assert_eq!(s.fault_cost(&c, Fault::output(y, false)), 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn fault_cost(&self, circuit: &Circuit, fault: Fault) -> u32 {
        let excite_value = !fault.stuck_value;
        match fault.site {
            FaultSite::Output(n) => sadd(self.cc(n, excite_value), self.co(n)),
            FaultSite::InputPin { gate, pin } => {
                let driver = circuit.node(gate).fanin()[pin];
                sadd(self.cc(driver, excite_value), self.pin_co(gate, pin))
            }
        }
    }
}

/// Per-fault SCOAP costs for a fault list, in list order.
pub fn scoap_costs(circuit: &Circuit, scoap: &Scoap, faults: &[Fault]) -> Vec<u32> {
    faults
        .iter()
        .map(|&f| scoap.fault_cost(circuit, f))
        .collect()
}

fn min_over(fanin: &[NodeId], cc: &[u32]) -> u32 {
    fanin
        .iter()
        .map(|f| cc[f.index()])
        .min()
        .unwrap_or(SCOAP_INF)
}

fn sum_over(fanin: &[NodeId], cc: &[u32]) -> u32 {
    fanin.iter().fold(0u32, |acc, f| sadd(acc, cc[f.index()]))
}

fn sum_except(fanin: &[NodeId], pin: usize, cc: &[u32]) -> u32 {
    fanin
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != pin)
        .fold(0u32, |acc, (_, f)| sadd(acc, cc[f.index()]))
}

/// Cheapest costs of making the XOR of the fanin lines even (`e0`) or odd
/// (`e1`), by dynamic programming over the pins.
fn parity_costs(fanin: &[NodeId], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let (mut e0, mut e1) = (0u32, SCOAP_INF);
    for f in fanin {
        let (c0, c1) = (cc0[f.index()], cc1[f.index()]);
        let n0 = sadd(e0, c0).min(sadd(e1, c1));
        let n1 = sadd(e0, c1).min(sadd(e1, c0));
        e0 = n0;
        e1 = n1;
    }
    (e0, e1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;

    fn id(c: &Circuit, name: &str) -> NodeId {
        c.node_id(name).expect("signal exists")
    }

    #[test]
    fn primary_inputs_cost_one() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n").unwrap();
        let s = Scoap::compute(&c);
        let a = id(&c, "a");
        assert_eq!((s.cc0(a), s.cc1(a)), (1, 1));
        assert_eq!(s.co(a), 1); // through the BUF
    }

    #[test]
    fn and_or_recurrences_match_goldstein() {
        let c =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(d)\nOUTPUT(y)\nm = AND(a, b)\ny = OR(m, d)\n")
                .unwrap();
        let s = Scoap::compute(&c);
        let m = id(&c, "m");
        let y = id(&c, "y");
        // m: AND of two PIs.
        assert_eq!(s.cc1(m), 1 + 1 + 1);
        assert_eq!(s.cc0(m), 1 + 1);
        // y: OR(m, d) — cc1 = 1 + min(cc1 m, cc1 d) = 1 + 1; cc0 = 1 + cc0(m) + cc0(d).
        assert_eq!(s.cc1(y), 2);
        assert_eq!(s.cc0(y), 1 + 2 + 1);
        // Observability: m observed through the OR needs d = 0 (cc0 = 1).
        assert_eq!(s.co(y), 0);
        assert_eq!(s.co(m), s.co(y) + 1 + 1);
        // a observed needs b = 1 through the AND, then m's branch cost.
        assert_eq!(s.co(id(&c, "a")), s.co(m) + 1 + s.cc1(id(&c, "b")));
    }

    #[test]
    fn inverting_gates_swap_controllabilities() {
        let c =
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = NAND(a, b)\nz = NOT(a)\n")
                .unwrap();
        let s = Scoap::compute(&c);
        let y = id(&c, "y");
        let z = id(&c, "z");
        assert_eq!(s.cc0(y), 1 + 1 + 1); // all inputs 1
        assert_eq!(s.cc1(y), 1 + 1); // one input 0
        assert_eq!(s.cc0(z), 2);
        assert_eq!(s.cc1(z), 2);
    }

    #[test]
    fn xor_parity_dp() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
        let s = Scoap::compute(&c);
        let y = id(&c, "y");
        // Even: 00 or 11, both cost 2; odd likewise.
        assert_eq!(s.cc0(y), 3);
        assert_eq!(s.cc1(y), 3);
        // XOR side pins propagate at either value: co(a) = 0 + 1 + min(1,1).
        assert_eq!(s.co(id(&c, "a")), 2);
    }

    #[test]
    fn constants_have_infinite_opposite_controllability() {
        use wrt_circuit::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let zero = b.const0();
        let g = b.gate(GateKind::And, "g", &[a, zero]).unwrap();
        b.mark_output(g);
        let c = b.build().unwrap();
        let s = Scoap::compute(&c);
        assert_eq!(s.cc0(zero), 0);
        assert_eq!(s.cc1(zero), SCOAP_INF);
        // g can never be 1.
        assert_eq!(s.cc1(g), SCOAP_INF);
        assert_eq!(s.cc0(g), 1);
        // a is unobservable: the AND side pin needs the constant at 1.
        assert_eq!(s.co(a), SCOAP_INF);
    }

    #[test]
    fn dead_gate_is_unobservable() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ndead = XOR(a, b)\ny = AND(a, b)\n")
            .unwrap();
        let s = Scoap::compute(&c);
        assert_eq!(s.co(id(&c, "dead")), SCOAP_INF);
        // a still observable through y.
        assert!(s.co(id(&c, "a")) < SCOAP_INF);
    }

    #[test]
    fn fanout_stem_takes_cheapest_branch() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
             y = BUFF(a)\nz = AND(a, b, d)\n",
        )
        .unwrap();
        let s = Scoap::compute(&c);
        // a's cheap branch is the BUF (cost 1), not the wide AND.
        assert_eq!(s.co(id(&c, "a")), 1);
    }

    #[test]
    fn fault_costs_compose_excitation_and_observation() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let s = Scoap::compute(&c);
        let y = id(&c, "y");
        let a = id(&c, "a");
        // y s-a-1: excite with y = 0 (cost 2), observe free.
        assert_eq!(s.fault_cost(&c, Fault::output(y, true)), 2);
        // a->y pin s-a-0: excite a = 1 (1), observe pin: co(y)+1+cc1(b) = 0+1+1.
        assert_eq!(s.fault_cost(&c, Fault::input_pin(y, 0, false)), 1 + 2);
        // Stem fault on a: cheapest branch is the only branch.
        assert_eq!(
            s.fault_cost(&c, Fault::output(a, false)),
            s.cc1(a) + s.co(a)
        );
    }

    #[test]
    fn finite_overflow_saturates_below_infinity() {
        // A deep chain of 2-input ANDs over the same inputs doubles cc1
        // every level: past 32 levels the cost overflows u32.  It must cap
        // at SCOAP_MAX (achievable-but-astronomical), NOT at SCOAP_INF
        // (structural impossibility) — conflating the two made the
        // constant-gate lint misfire on deep arithmetic arrays.
        use wrt_circuit::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let mut cur = b.gate(GateKind::And, "g0", &[a, x]).unwrap();
        let mut prev = cur;
        for i in 1..80 {
            cur = b
                .gate(GateKind::And, format!("g{i}"), &[cur, prev])
                .unwrap();
            prev = cur;
        }
        b.mark_output(cur);
        let c = b.build().unwrap();
        let s = Scoap::compute(&c);
        assert_eq!(s.cc1(cur), SCOAP_MAX);
        assert_ne!(s.cc1(cur), SCOAP_INF);
        assert!(s.cc0(cur) < SCOAP_MAX);
    }

    #[test]
    fn saturation_never_wraps_on_deep_chains() {
        // A chain of ANDs with a constant-0 side pin keeps cc1 at INF
        // without wrapping, and costs only grow along the chain.
        use wrt_circuit::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let zero = b.const0();
        let mut cur = b.gate(GateKind::And, "g0", &[a, zero]).unwrap();
        for i in 1..64 {
            cur = b.gate(GateKind::And, format!("g{i}"), &[cur, a]).unwrap();
        }
        b.mark_output(cur);
        let c = b.build().unwrap();
        let s = Scoap::compute(&c);
        assert_eq!(s.cc1(cur), SCOAP_INF);
        assert!(s.cc0(cur) < SCOAP_INF);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use wrt_circuit::CircuitBuilder;

    fn arb_circuit() -> impl Strategy<Value = Circuit> {
        let kinds = prop::sample::select(vec![
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ]);
        proptest::collection::vec((kinds, proptest::collection::vec(0usize..64, 1..4)), 4..24)
            .prop_map(|specs| {
                let mut b = CircuitBuilder::named("rand");
                let mut ids = Vec::new();
                for i in 0..6 {
                    ids.push(b.input(format!("i{i}")));
                }
                for (kind, picks) in specs {
                    let fanin: Vec<_> = if matches!(kind, GateKind::Not | GateKind::Buf) {
                        vec![ids[picks[0] % ids.len()]]
                    } else {
                        picks.iter().map(|&p| ids[p % ids.len()]).collect()
                    };
                    ids.push(b.gate_auto(kind, &fanin).expect("valid"));
                }
                b.mark_output(*ids.last().expect("non-empty"));
                b.mark_output(ids[6.min(ids.len() - 1)]);
                b.build().expect("valid circuit")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Controllability monotonicity: a gate's cost strictly exceeds
        /// the cheapest way to control its fanins — every recurrence adds
        /// the `+1` for the line itself, so costs can only grow along any
        /// forward path (until they saturate).
        #[test]
        fn controllability_grows_monotonically_along_paths(circuit in arb_circuit()) {
            let s = Scoap::compute(&circuit);
            for (id, node) in circuit.iter() {
                if node.kind() == GateKind::Input {
                    prop_assert_eq!(s.cc0(id), 1);
                    prop_assert_eq!(s.cc1(id), 1);
                    continue;
                }
                let cheapest_fanin = node
                    .fanin()
                    .iter()
                    .map(|&f| s.cc0(f).min(s.cc1(f)))
                    .min()
                    .expect("gates have fanin");
                for cost in [s.cc0(id), s.cc1(id)] {
                    if cost < SCOAP_MAX {
                        prop_assert!(
                            cost > cheapest_fanin,
                            "node {:?}: cost {} not above cheapest fanin {}",
                            id, cost, cheapest_fanin
                        );
                    }
                }
            }
        }

        /// Observability monotonicity: a pin's branch observability
        /// strictly exceeds the gate's output observability (propagating
        /// through the gate costs the `+1` plus side-input conditions),
        /// and a stem's observability is the min over its branches.
        #[test]
        fn observability_grows_monotonically_toward_inputs(circuit in arb_circuit()) {
            let s = Scoap::compute(&circuit);
            for (id, node) in circuit.iter() {
                for pin in 0..node.fanin().len() {
                    let pco = s.pin_co(id, pin);
                    if pco < SCOAP_MAX {
                        prop_assert!(
                            pco > s.co(id),
                            "pin ({:?}, {}): {} not above gate co {}",
                            id, pin, pco, s.co(id)
                        );
                    }
                }
                // Stem observability is the cheapest sink branch.
                let mut sink_min: Option<u32> = None;
                for &g in circuit.fanout(id) {
                    for (p, &f) in circuit.node(g).fanin().iter().enumerate() {
                        if f == id {
                            let pco = s.pin_co(g, p);
                            sink_min = Some(sink_min.map_or(pco, |m: u32| m.min(pco)));
                        }
                    }
                }
                if let Some(m) = sink_min {
                    if circuit.is_output(id) {
                        // Output stems observe directly at cost 0.
                        prop_assert_eq!(s.co(id), 0);
                    } else {
                        prop_assert_eq!(s.co(id), m);
                    }
                }
            }
        }

        /// Deepening a line under a BUF chain raises its controllability
        /// by exactly 1 per level: the depth-monotonicity the backtrace
        /// cost model relies on.
        #[test]
        fn buffer_chains_add_unit_cost_per_level(depth in 1usize..40) {
            let mut b = CircuitBuilder::named("chain");
            let a = b.input("a");
            let mut cur = a;
            for i in 0..depth {
                cur = b.gate(GateKind::Buf, format!("b{i}"), &[cur]).expect("valid");
            }
            b.mark_output(cur);
            let c = b.build().expect("valid");
            let s = Scoap::compute(&c);
            let tip = c.outputs()[0];
            prop_assert_eq!(s.cc0(tip), 1 + depth as u32);
            prop_assert_eq!(s.cc1(tip), 1 + depth as u32);
            // And the input's observability pays the same chain back.
            prop_assert_eq!(s.co(c.node_id("a").expect("exists")), depth as u32);
        }

        /// Fault costs are consistent with their ingredients: finite when
        /// excitation and observation are both finite, and never below
        /// either component.
        #[test]
        fn fault_cost_dominates_components(circuit in arb_circuit()) {
            use wrt_fault::FaultList;
            let s = Scoap::compute(&circuit);
            for (_, fault) in FaultList::checkpoints(&circuit).iter() {
                let cost = s.fault_cost(&circuit, fault);
                let driver = fault.site.driver(&circuit);
                let excite = s.cc(driver, !fault.stuck_value);
                if cost < SCOAP_INF && excite < SCOAP_INF {
                    prop_assert!(cost >= excite);
                }
                if excite == SCOAP_INF {
                    prop_assert_eq!(cost, SCOAP_INF);
                }
            }
        }
    }
}

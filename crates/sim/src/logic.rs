//! Bit-parallel (64 patterns per word) fault-free logic simulation.

use wrt_circuit::{Circuit, GateKind, NodeId};

/// Evaluates one gate over bit-parallel fanin words.
///
/// Each bit position is an independent pattern; the returned word holds the
/// gate's output for all 64 patterns at once.
///
/// # Panics
///
/// Panics if `kind` is [`GateKind::Input`] (inputs have no gate function).
pub fn eval_gate_words(kind: GateKind, fanin: impl IntoIterator<Item = u64>) -> u64 {
    // The single-word instantiation of `eval_gate_lanes`, so the gate
    // truth tables live in exactly one place.
    eval_gate_lanes::<1>(kind, fanin.into_iter().map(|w| [w]))[0]
}

/// Lane-wise fold over `[u64; W]` words: `acc[k] = f(acc[k], w[k])` for
/// every fanin word.  The fixed-size inner loop is straight-line code the
/// autovectorizer turns into SIMD for `W > 1`.
#[inline]
fn fold_lanes<const W: usize>(
    mut acc: [u64; W],
    fanin: impl Iterator<Item = [u64; W]>,
    f: impl Fn(u64, u64) -> u64,
) -> [u64; W] {
    for w in fanin {
        for (a, b) in acc.iter_mut().zip(w) {
            *a = f(*a, b);
        }
    }
    acc
}

#[inline]
fn not_lanes<const W: usize>(mut w: [u64; W]) -> [u64; W] {
    for a in w.iter_mut() {
        *a = !*a;
    }
    w
}

/// Evaluates one gate over `W`-word superblock fanin lanes: the `[u64; W]`
/// generalization of [`eval_gate_words`], amortizing one gate dispatch over
/// `64 * W` patterns.  Bit `j` of lane `k` is pattern `64 * k + j`.
///
/// # Panics
///
/// Panics if `kind` is [`GateKind::Input`] (inputs have no gate function).
#[inline]
pub fn eval_gate_lanes<const W: usize>(
    kind: GateKind,
    fanin: impl IntoIterator<Item = [u64; W]>,
) -> [u64; W] {
    let mut it = fanin.into_iter();
    match kind {
        GateKind::Input => panic!("primary inputs have no gate function"),
        GateKind::Const0 => [0; W],
        GateKind::Const1 => [u64::MAX; W],
        GateKind::And => fold_lanes([u64::MAX; W], it, |a, b| a & b),
        GateKind::Nand => not_lanes(fold_lanes([u64::MAX; W], it, |a, b| a & b)),
        GateKind::Or => fold_lanes([0; W], it, |a, b| a | b),
        GateKind::Nor => not_lanes(fold_lanes([0; W], it, |a, b| a | b)),
        GateKind::Xor => fold_lanes([0; W], it, |a, b| a ^ b),
        GateKind::Xnor => not_lanes(fold_lanes([0; W], it, |a, b| a ^ b)),
        GateKind::Not => not_lanes(it.next().expect("NOT has one fanin")),
        GateKind::Buf => it.next().expect("BUF has one fanin"),
    }
}

/// Reusable `W`-word bit-parallel fault-free simulator: the superblock
/// generalization of [`LogicSim`], holding one `[u64; W]` per node so a
/// single forward pass covers `64 * W` patterns.
///
/// Like [`LogicSim`], no event scheduling is needed — node ids are
/// topologically sorted by construction, so one sweep over `0..n` suffices.
#[derive(Debug, Clone)]
pub struct WideLogicSim<'c, const W: usize> {
    circuit: &'c Circuit,
    values: Vec<[u64; W]>,
}

impl<'c, const W: usize> WideLogicSim<'c, W> {
    /// Creates a simulator for `circuit` with all values zero.
    pub fn new(circuit: &'c Circuit) -> Self {
        WideLogicSim {
            circuit,
            values: vec![[0; W]; circuit.num_nodes()],
        }
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Simulates `64 * W` patterns: `pi_words[k]` holds the superblock
    /// lanes of primary input `k`.
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len() != circuit.num_inputs()`.
    pub fn run(&mut self, pi_words: &[[u64; W]]) {
        assert_eq!(
            pi_words.len(),
            self.circuit.num_inputs(),
            "one lane array per primary input"
        );
        for (id, node) in self.circuit.iter() {
            let w = match node.kind() {
                GateKind::Input => pi_words[self.circuit.input_position(id).expect("input")],
                kind => eval_gate_lanes(kind, node.fanin().iter().map(|f| self.values[f.index()])),
            };
            self.values[id.index()] = w;
        }
    }

    /// The simulated lanes at a node (valid after [`WideLogicSim::run`]).
    pub fn value(&self, id: NodeId) -> [u64; W] {
        self.values[id.index()]
    }
}

/// Reusable bit-parallel fault-free simulator.
///
/// Holds one `u64` per circuit node; [`LogicSim::run`] performs a single
/// forward pass in topological order (no event scheduling needed because
/// node ids are topologically sorted by construction).
///
/// # Example
///
/// ```
/// use wrt_circuit::parse_bench;
/// use wrt_sim::LogicSim;
///
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n")?;
/// let mut sim = LogicSim::new(&c);
/// sim.run(&[0b01, 0b11]); // two patterns: (a,b) = (1,1), (0,1)
/// let y = c.node_id("y").expect("exists");
/// assert_eq!(sim.value(y) & 0b11, 0b10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LogicSim<'c> {
    circuit: &'c Circuit,
    values: Vec<u64>,
}

impl<'c> LogicSim<'c> {
    /// Creates a simulator for `circuit` with all values zero.
    pub fn new(circuit: &'c Circuit) -> Self {
        LogicSim {
            circuit,
            values: vec![0; circuit.num_nodes()],
        }
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Simulates 64 patterns: `pi_words[k]` holds the values of primary
    /// input `k` (bit *j* = pattern *j*).
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len() != circuit.num_inputs()`.
    pub fn run(&mut self, pi_words: &[u64]) {
        assert_eq!(
            pi_words.len(),
            self.circuit.num_inputs(),
            "one word per primary input"
        );
        for (id, node) in self.circuit.iter() {
            let w = match node.kind() {
                GateKind::Input => pi_words[self.circuit.input_position(id).expect("input")],
                kind => eval_gate_words(kind, node.fanin().iter().map(|f| self.values[f.index()])),
            };
            self.values[id.index()] = w;
        }
    }

    /// The simulated word at a node (valid after [`LogicSim::run`]).
    pub fn value(&self, id: NodeId) -> u64 {
        self.values[id.index()]
    }

    /// All node values, indexable by [`NodeId::index`].
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The primary-output words, in output order.
    pub fn output_words(&self) -> Vec<u64> {
        self.circuit
            .outputs()
            .iter()
            .map(|&o| self.values[o.index()])
            .collect()
    }
}

/// Scalar reference simulation of a single pattern: the primary-output
/// values in output order, from [`Circuit::evaluate`].  This is the ground
/// truth the bit-parallel simulator is property-tested against.
///
/// # Panics
///
/// Panics if `assignment.len() != circuit.num_inputs()`.
pub fn simulate_pattern(circuit: &Circuit, assignment: &[bool]) -> Vec<bool> {
    circuit.evaluate(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;

    #[test]
    fn parallel_matches_scalar_on_full_adder() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(s)\nOUTPUT(cout)\n\
             x1 = XOR(a, b)\ns = XOR(x1, cin)\na1 = AND(a, b)\na2 = AND(x1, cin)\n\
             cout = OR(a1, a2)\n",
        )
        .unwrap();
        let mut sim = LogicSim::new(&c);
        // Pack all 8 input combinations into bits 0..8.
        let mut words = vec![0u64; 3];
        for pat in 0..8u64 {
            for (i, word) in words.iter_mut().enumerate() {
                *word |= ((pat >> i) & 1) << pat;
            }
        }
        sim.run(&words);
        let outs = sim.output_words();
        for pat in 0..8usize {
            let assignment: Vec<bool> = (0..3).map(|i| (pat >> i) & 1 == 1).collect();
            let expected = simulate_pattern(&c, &assignment);
            for (o, &word) in outs.iter().enumerate() {
                assert_eq!(
                    (word >> pat) & 1 == 1,
                    expected[o],
                    "pattern {pat}, output {o}"
                );
            }
        }
    }

    #[test]
    fn constants_evaluate_correctly_in_words() {
        assert_eq!(eval_gate_words(GateKind::Const0, []), 0);
        assert_eq!(eval_gate_words(GateKind::Const1, []), u64::MAX);
        assert_eq!(eval_gate_lanes::<2>(GateKind::Const0, []), [0, 0]);
        assert_eq!(
            eval_gate_lanes::<2>(GateKind::Const1, []),
            [u64::MAX, u64::MAX]
        );
    }

    #[test]
    fn wide_sim_lanes_match_one_word_runs() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(s)\nOUTPUT(cout)\n\
             x1 = XOR(a, b)\ns = XOR(x1, cin)\na1 = AND(a, b)\na2 = AND(x1, cin)\n\
             cout = OR(a1, a2)\n",
        )
        .unwrap();
        // 4 lanes of distinct words per input.
        let lanes: Vec<[u64; 4]> = (0..3)
            .map(|i| [0x0123 << i, 0x4567 << i, !(0x89AB << i), 0xCDEF << i])
            .collect();
        let mut wide = WideLogicSim::<4>::new(&c);
        wide.run(&lanes);
        let mut narrow = LogicSim::new(&c);
        for k in 0..4 {
            let words: Vec<u64> = lanes.iter().map(|l| l[k]).collect();
            narrow.run(&words);
            for id in c.ids() {
                assert_eq!(wide.value(id)[k], narrow.value(id), "lane {k} node {id}");
            }
        }
    }

    #[test]
    fn gate_lanes_match_gate_words_per_lane() {
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        let a = [0x00FF_00FF_00FF_00FFu64, 0xDEAD_BEEF_0BAD_F00D];
        let b = [0x0F0F_0F0F_0F0F_0F0Fu64, 0x1234_5678_9ABC_DEF0];
        for kind in kinds {
            let wide = eval_gate_lanes::<2>(kind, [a, b]);
            for k in 0..2 {
                assert_eq!(wide[k], eval_gate_words(kind, [a[k], b[k]]), "{kind:?}");
            }
        }
        assert_eq!(eval_gate_lanes::<2>(GateKind::Not, [a]), [!a[0], !a[1]]);
        assert_eq!(eval_gate_lanes::<2>(GateKind::Buf, [a]), a);
    }

    #[test]
    #[should_panic(expected = "one word per primary input")]
    fn run_rejects_wrong_width() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        LogicSim::new(&c).run(&[0, 0]);
    }

    #[test]
    fn values_reusable_across_runs() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let y = c.node_id("y").unwrap();
        let mut sim = LogicSim::new(&c);
        sim.run(&[u64::MAX]);
        assert_eq!(sim.value(y), 0);
        sim.run(&[0]);
        assert_eq!(sim.value(y), u64::MAX);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use wrt_circuit::{CircuitBuilder, GateKind};

    /// Strategy: random DAG circuit with `n_in` inputs and `n_gates` gates.
    fn arb_circuit(n_in: usize, n_gates: usize) -> impl Strategy<Value = wrt_circuit::Circuit> {
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
        proptest::collection::vec(
            (kinds, proptest::collection::vec(0usize..1000, 1..4)),
            n_gates,
        )
        .prop_map(move |specs| {
            let mut b = CircuitBuilder::named("random");
            let mut ids = Vec::new();
            for i in 0..n_in {
                ids.push(b.input(format!("i{i}")));
            }
            for (kind, picks) in specs {
                let fanin: Vec<_> = match kind {
                    GateKind::Not | GateKind::Buf => {
                        vec![ids[picks[0] % ids.len()]]
                    }
                    _ => picks.iter().map(|&p| ids[p % ids.len()]).collect(),
                };
                let id = b.gate_auto(kind, &fanin).expect("valid fanin");
                ids.push(id);
            }
            let last = *ids.last().expect("non-empty");
            b.mark_output(last);
            // A couple more outputs for observability.
            let mid = ids[ids.len() / 2];
            if mid != last {
                b.mark_output(mid);
            }
            b.build().expect("structurally valid")
        })
    }

    proptest! {
        #[test]
        fn parallel_simulation_agrees_with_scalar(
            circuit in arb_circuit(5, 25),
            patterns in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 5), 1..20)
        ) {
            let mut words = vec![0u64; 5];
            for (j, pat) in patterns.iter().enumerate() {
                for (i, &bit) in pat.iter().enumerate() {
                    words[i] |= u64::from(bit) << j;
                }
            }
            let mut sim = LogicSim::new(&circuit);
            sim.run(&words);
            let outs = sim.output_words();
            for (j, pat) in patterns.iter().enumerate() {
                let expected = simulate_pattern(&circuit, pat);
                for (o, &w) in outs.iter().enumerate() {
                    prop_assert_eq!((w >> j) & 1 == 1, expected[o]);
                }
            }
        }
    }
}

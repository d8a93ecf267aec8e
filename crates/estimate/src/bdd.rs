//! Exact signal and detection probabilities via reduced ordered BDDs.
//!
//! Parker and McCluskey showed how to compute exact signal probabilities
//! symbolically \[McPa75\]; the computation is NP-hard in general, which is
//! why the paper's toolchain estimates instead.  A reduced ordered binary
//! decision diagram makes the exact computation practical for small and
//! medium circuits: every node's function is built bottom-up, and the
//! probability of a BDD is one weighted traversal
//! (`P(f) = (1 − x_v) · P(lo) + x_v · P(hi)`).
//!
//! [`BddEngine`] is the exact counterpart of the heuristic engines: it
//! computes true `p_f(X)` including all reconvergence effects, at the
//! price of possible exponential blow-up (bounded by an explicit node
//! budget).

use std::collections::HashMap;

use wrt_circuit::{transitive_fanout, Circuit, GateKind, NodeId};
use wrt_fault::{FaultList, FaultSite};

use crate::engine::DetectionProbabilityEngine;

/// Terminal FALSE.
const F: u32 = 0;
/// Terminal TRUE.
const T: u32 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BddNode {
    var: u32,
    lo: u32,
    hi: u32,
}

/// Error: the BDD grew past its node budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddOverflow {
    /// The configured budget.
    pub budget: usize,
}

impl std::fmt::Display for BddOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bdd exceeded its node budget of {}", self.budget)
    }
}

impl std::error::Error for BddOverflow {}

/// A small ROBDD manager with an apply cache.
///
/// Variables are primary-input positions; the variable order is the input
/// declaration order.
#[derive(Debug, Clone)]
pub struct BddManager {
    nodes: Vec<BddNode>,
    unique: HashMap<BddNode, u32>,
    apply_memo: HashMap<(u8, u32, u32), u32>,
    max_nodes: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And = 0,
    Or = 1,
    Xor = 2,
}

impl BddManager {
    /// Creates a manager with the given node budget.
    pub fn new(max_nodes: usize) -> Self {
        let mut nodes = Vec::with_capacity(1024);
        // Index 0/1 are the terminals; var = u32::MAX sorts below leaves.
        nodes.push(BddNode {
            var: u32::MAX,
            lo: F,
            hi: F,
        });
        nodes.push(BddNode {
            var: u32::MAX,
            lo: T,
            hi: T,
        });
        BddManager {
            nodes,
            unique: HashMap::new(),
            apply_memo: HashMap::new(),
            max_nodes,
        }
    }

    /// Number of live nodes (including the two terminals).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the terminals exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// The BDD of a bare input variable.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] when the node budget is exhausted.
    pub fn variable(&mut self, var: u32) -> Result<u32, BddOverflow> {
        self.mk(var, F, T)
    }

    /// The constant function.
    pub fn constant(value: bool) -> u32 {
        if value {
            T
        } else {
            F
        }
    }

    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> Result<u32, BddOverflow> {
        if lo == hi {
            return Ok(lo);
        }
        let node = BddNode { var, lo, hi };
        if let Some(&id) = self.unique.get(&node) {
            return Ok(id);
        }
        if self.nodes.len() >= self.max_nodes {
            return Err(BddOverflow {
                budget: self.max_nodes,
            });
        }
        let id = u32::try_from(self.nodes.len()).expect("node count fits u32");
        self.nodes.push(node);
        self.unique.insert(node, id);
        Ok(id)
    }

    fn apply(&mut self, op: Op, a: u32, b: u32) -> Result<u32, BddOverflow> {
        // Terminal cases.
        match (op, a, b) {
            (Op::And, F, _) | (Op::And, _, F) => return Ok(F),
            (Op::And, T, x) | (Op::And, x, T) => return Ok(x),
            (Op::Or, T, _) | (Op::Or, _, T) => return Ok(T),
            (Op::Or, F, x) | (Op::Or, x, F) => return Ok(x),
            (Op::Xor, F, x) | (Op::Xor, x, F) => return Ok(x),
            (Op::Xor, T, x) | (Op::Xor, x, T) => return self.not(x),
            _ => {}
        }
        if a == b {
            return Ok(match op {
                Op::And | Op::Or => a,
                Op::Xor => F,
            });
        }
        // Commutative: canonicalize the memo key.
        let key = (op as u8, a.min(b), a.max(b));
        if let Some(&r) = self.apply_memo.get(&key) {
            return Ok(r);
        }
        let (na, nb) = (self.nodes[a as usize], self.nodes[b as usize]);
        let var = na.var.min(nb.var);
        let (a_lo, a_hi) = if na.var == var {
            (na.lo, na.hi)
        } else {
            (a, a)
        };
        let (b_lo, b_hi) = if nb.var == var {
            (nb.lo, nb.hi)
        } else {
            (b, b)
        };
        let lo = self.apply(op, a_lo, b_lo)?;
        let hi = self.apply(op, a_hi, b_hi)?;
        let r = self.mk(var, lo, hi)?;
        self.apply_memo.insert(key, r);
        Ok(r)
    }

    /// Conjunction.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] when the node budget is exhausted.
    pub fn and(&mut self, a: u32, b: u32) -> Result<u32, BddOverflow> {
        self.apply(Op::And, a, b)
    }

    /// Disjunction.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] when the node budget is exhausted.
    pub fn or(&mut self, a: u32, b: u32) -> Result<u32, BddOverflow> {
        self.apply(Op::Or, a, b)
    }

    /// Exclusive or.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] when the node budget is exhausted.
    pub fn xor(&mut self, a: u32, b: u32) -> Result<u32, BddOverflow> {
        self.apply(Op::Xor, a, b)
    }

    /// Negation.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] when the node budget is exhausted.
    pub fn not(&mut self, a: u32) -> Result<u32, BddOverflow> {
        match a {
            F => Ok(T),
            T => Ok(F),
            _ => {
                let key = (3u8, a, a);
                if let Some(&r) = self.apply_memo.get(&key) {
                    return Ok(r);
                }
                let n = self.nodes[a as usize];
                let lo = self.not(n.lo)?;
                let hi = self.not(n.hi)?;
                let r = self.mk(n.var, lo, hi)?;
                self.apply_memo.insert(key, r);
                Ok(r)
            }
        }
    }

    /// Exact probability that the function is 1, with `var_probs[v]` the
    /// probability of variable `v`.
    pub fn probability(&self, f: u32, var_probs: &[f64]) -> f64 {
        let mut memo: HashMap<u32, f64> = HashMap::new();
        self.prob_rec(f, var_probs, &mut memo)
    }

    fn prob_rec(&self, f: u32, var_probs: &[f64], memo: &mut HashMap<u32, f64>) -> f64 {
        match f {
            F => 0.0,
            T => 1.0,
            _ => {
                if let Some(&p) = memo.get(&f) {
                    return p;
                }
                let n = self.nodes[f as usize];
                let x = var_probs[n.var as usize];
                let p = (1.0 - x) * self.prob_rec(n.lo, var_probs, memo)
                    + x * self.prob_rec(n.hi, var_probs, memo);
                memo.insert(f, p);
                p
            }
        }
    }

    /// Builds BDDs for every node of a circuit (topological pass).
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflow`] when the node budget is exhausted.
    pub fn build_circuit(&mut self, circuit: &Circuit) -> Result<Vec<u32>, BddOverflow> {
        let mut funcs = vec![F; circuit.num_nodes()];
        for (id, node) in circuit.iter() {
            funcs[id.index()] = self.node_function(circuit, node, id, |_, f| funcs[f.index()])?;
        }
        Ok(funcs)
    }

    /// Builds one node's BDD from a per-pin fanin-function lookup
    /// (`pin_func(pin, driver)`), so a pin fault can tie one connection
    /// without rebuilding the gate by hand.
    fn node_function(
        &mut self,
        circuit: &Circuit,
        node: wrt_circuit::Node<'_>,
        id: NodeId,
        pin_func: impl Fn(usize, NodeId) -> u32,
    ) -> Result<u32, BddOverflow> {
        Ok(match node.kind() {
            GateKind::Input => {
                let pos = circuit.input_position(id).expect("pi");
                self.variable(u32::try_from(pos).expect("input position fits"))?
            }
            GateKind::Const0 => F,
            GateKind::Const1 => T,
            kind => {
                let mut acc: Option<u32> = None;
                for (pin, &f) in node.fanin().iter().enumerate() {
                    let g = pin_func(pin, f);
                    acc = Some(match (acc, kind) {
                        (None, _) => g,
                        (Some(a), GateKind::And | GateKind::Nand) => self.and(a, g)?,
                        (Some(a), GateKind::Or | GateKind::Nor) => self.or(a, g)?,
                        (Some(a), GateKind::Xor | GateKind::Xnor) => self.xor(a, g)?,
                        (Some(_), _) => unreachable!("1-input kinds"),
                    });
                }
                let base = acc.expect("gates have fanin");
                if kind.is_inverting() {
                    self.not(base)?
                } else {
                    base
                }
            }
        })
    }
}

/// Exact signal probabilities for every circuit node, or `None` if the
/// BDD blows past `max_nodes` (the Parker–McCluskey exact computation).
pub fn exact_signal_probabilities_bdd(
    circuit: &Circuit,
    input_probs: &[f64],
    max_nodes: usize,
) -> Option<Vec<f64>> {
    assert_eq!(input_probs.len(), circuit.num_inputs());
    let mut manager = BddManager::new(max_nodes);
    let funcs = manager.build_circuit(circuit).ok()?;
    Some(
        funcs
            .iter()
            .map(|&f| manager.probability(f, input_probs))
            .collect(),
    )
}

/// Exact detection-probability engine via BDDs.
///
/// For every fault, the faulty cone is rebuilt symbolically and the
/// probability of `∨_o (good_o ⊕ faulty_o)` is evaluated exactly.
/// Exponential in the worst case — bounded by `max_nodes`.
#[derive(Debug, Clone)]
pub struct BddEngine {
    /// BDD node budget shared by the good and per-fault faulty passes.
    pub max_nodes: usize,
}

impl BddEngine {
    /// Creates an engine with the given node budget.
    pub fn new(max_nodes: usize) -> Self {
        BddEngine { max_nodes }
    }
}

impl DetectionProbabilityEngine for BddEngine {
    /// # Panics
    ///
    /// Panics if the circuit's BDD exceeds the node budget (use the
    /// heuristic engines for such circuits).
    fn estimate(&mut self, circuit: &Circuit, faults: &FaultList, input_probs: &[f64]) -> Vec<f64> {
        let mut manager = BddManager::new(self.max_nodes);
        let good = manager
            .build_circuit(circuit)
            .unwrap_or_else(|e| panic!("good-machine BDD: {e}"));
        faults
            .iter()
            .map(|(_, fault)| {
                let root = fault.site.effect_root();
                let cone = transitive_fanout(circuit, &[root]);
                let mut faulty: HashMap<NodeId, u32> = HashMap::new();
                for &n in &cone {
                    let node = circuit.node(n);
                    let value = if fault.site == FaultSite::Output(n) {
                        BddManager::constant(fault.stuck_value)
                    } else {
                        let pin_func = |k: usize, f: NodeId| -> u32 {
                            match fault.site {
                                // A pin fault replaces one connection only.
                                FaultSite::InputPin { gate, pin } if gate == n && pin == k => {
                                    BddManager::constant(fault.stuck_value)
                                }
                                _ => faulty.get(&f).copied().unwrap_or_else(|| good[f.index()]),
                            }
                        };
                        manager
                            .node_function(circuit, node, n, pin_func)
                            .expect("budget")
                    };
                    faulty.insert(n, value);
                }
                // Difference function over the primary outputs.
                let mut diff = F;
                for &o in circuit.outputs() {
                    if let Some(&fo) = faulty.get(&o) {
                        let x = manager.xor(good[o.index()], fo).expect("budget");
                        diff = manager.or(diff, x).expect("budget");
                    }
                }
                manager.probability(diff, input_probs)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "bdd-exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_detection_probability;
    use wrt_circuit::parse_bench;

    #[test]
    fn variable_probability_is_its_weight() {
        let mut m = BddManager::new(100);
        let v = m.variable(0).unwrap();
        assert_eq!(m.probability(v, &[0.3]), 0.3);
        let nv = m.not(v).unwrap();
        assert!((m.probability(nv, &[0.3]) - 0.7).abs() < 1e-15);
    }

    #[test]
    fn bdd_is_canonical() {
        // (a AND b) built twice, and via De Morgan, gives the same id.
        let mut m = BddManager::new(100);
        let a = m.variable(0).unwrap();
        let b = m.variable(1).unwrap();
        let ab1 = m.and(a, b).unwrap();
        let ab2 = m.and(b, a).unwrap();
        assert_eq!(ab1, ab2);
        let na = m.not(a).unwrap();
        let nb = m.not(b).unwrap();
        let nor = m.or(na, nb).unwrap();
        let demorgan = m.not(nor).unwrap();
        assert_eq!(ab1, demorgan);
    }

    #[test]
    fn xor_cancellation() {
        let mut m = BddManager::new(100);
        let a = m.variable(0).unwrap();
        assert_eq!(m.xor(a, a).unwrap(), F);
        let na = m.not(a).unwrap();
        assert_eq!(m.xor(a, na).unwrap(), T);
    }

    #[test]
    fn overflow_is_reported() {
        let mut m = BddManager::new(3); // terminals + one node
        let a = m.variable(0).unwrap();
        let r = m.variable(1).and_then(|b| m.and(a, b));
        assert!(matches!(r, Err(BddOverflow { budget: 3 })));
    }

    #[test]
    fn signal_probabilities_handle_reconvergence_exactly() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = AND(a, n)\n").unwrap();
        let p = exact_signal_probabilities_bdd(&c, &[0.5], 10_000).unwrap();
        let y = c.node_id("y").unwrap();
        assert_eq!(p[y.index()], 0.0); // COP would say 0.25
    }

    #[test]
    fn engine_matches_exhaustive_enumeration() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
             m = NAND(a, b)\nn = NOR(c, d)\nx = XOR(m, n)\ny = AND(x, a)\nz = OR(x, d)\n",
        )
        .unwrap();
        let faults = FaultList::full(&c);
        let probs = vec![0.3, 0.6, 0.5, 0.8];
        let bdd = BddEngine::new(100_000).estimate(&c, &faults, &probs);
        for (i, (_, fault)) in faults.iter().enumerate() {
            let exact = exact_detection_probability(&c, fault, &probs, 8).unwrap();
            assert!(
                (bdd[i] - exact).abs() < 1e-12,
                "{}: bdd {} vs exact {}",
                fault.describe(&c),
                bdd[i],
                exact
            );
        }
    }

    #[test]
    fn engine_scales_to_the_interrupt_controller() {
        // 36 inputs: exhaustive enumeration is impossible (2^36), the BDD
        // handles the whole controller exactly.
        let c = wrt_workloads::c432ish();
        let faults = FaultList::primary_inputs(&c);
        let probs = vec![0.5; c.num_inputs()];
        let p = BddEngine::new(2_000_000).estimate(&c, &faults, &probs);
        assert_eq!(p.len(), faults.len());
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // Structural insight only the exact engine delivers: the parity
        // output makes *every* primary-input fault easy — each masked
        // request flips PAR whenever its enable is active, so p ≥ 1/4.
        assert!(
            p.iter().all(|&x| x >= 0.25 - 1e-12),
            "min {:?}",
            p.iter().copied().fold(f64::INFINITY, f64::min)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::exact::exact_detection_probability;
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
        ]);
        proptest::collection::vec((kinds, proptest::collection::vec(0usize..40, 1..3)), 3..14)
            .prop_map(|specs| {
                let mut b = CircuitBuilder::named("rand");
                let mut ids = Vec::new();
                for i in 0..5 {
                    ids.push(b.input(format!("i{i}")));
                }
                for (kind, picks) in specs {
                    let fanin: Vec<_> = if kind == GateKind::Not {
                        vec![ids[picks[0] % ids.len()]]
                    } else {
                        picks.iter().map(|&p| ids[p % ids.len()]).collect()
                    };
                    ids.push(b.gate_auto(kind, &fanin).expect("valid"));
                }
                b.mark_output(*ids.last().expect("non-empty"));
                b.mark_output(ids[2]);
                b.build().expect("valid circuit")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn bdd_engine_equals_exhaustive_on_random_circuits(
            circuit in arb_circuit(),
            probs in proptest::collection::vec(0.05f64..=0.95, 5),
        ) {
            let faults = FaultList::full(&circuit);
            let bdd = BddEngine::new(200_000).estimate(&circuit, &faults, &probs);
            for (i, (_, fault)) in faults.iter().enumerate() {
                let exact = exact_detection_probability(&circuit, fault, &probs, 8)
                    .expect("small circuit");
                prop_assert!(
                    (bdd[i] - exact).abs() < 1e-9,
                    "{}: bdd {} vs exact {}", fault.describe(&circuit), bdd[i], exact
                );
            }
        }
    }
}

//! Redundancy identification via exact constant-line proofs.
//!
//! The paper (§1, remark under Table 2): "an estimation with the exact
//! value 0 or 1 of a signal probability by PROTEST is a proof (not an
//! estimation!) of redundancy".  A line whose exact signal probability is
//! 0 under an interior input distribution (`0 < x_i < 1`) is *always* 0,
//! so its stuck-at-0 fault can never be excited and is redundant — and
//! symmetrically for probability 1 / stuck-at-1.
//!
//! This module implements that proof for every fault whose line has a
//! small enough input support to enumerate exactly.  It is sound but
//! incomplete: "not in all cases a fixed signal value can be detected this
//! way, and therefore there may be redundancies left" (ibid.).
//!
//! The proof runs in two stages, both bit-parallel:
//!
//! 1. **Prefilter.** A few 64-pattern words of uniform random patterns go
//!    through one [`LogicSim`] pass each.  A line that takes both values
//!    is not constant, so almost every line retires after O(circuit)
//!    total work.
//! 2. **Exact proof.** A line that never toggled is enumerated over its
//!    input support, 64 assignments per word, stopping at the first
//!    assignment that gives the other value.  Input supports are capped
//!    at the enumeration limit and computed bottom-up once, so no line
//!    pays for a walk over a cone it could never enumerate.
//!
//! Both stages decide exactly what the exhaustive scalar enumeration
//! decides; the unit tests hold them to that oracle on random circuits
//! and on every registry workload.

use wrt_circuit::{merge_sorted_nodes, Circuit, GateKind, NodeId};
use wrt_fault::FaultList;
use wrt_sim::{eval_gate_words, LogicSim, Xoshiro256};

/// Random 64-pattern words the prefilter simulates.
const PREFILTER_WORDS: usize = 4;
/// Fixed prefilter seed: the patterns only decide how much work the
/// exact stage gets, never its answer, but a fixed seed keeps that work
/// reproducible.
const PREFILTER_SEED: u64 = 0x5EED_C0DE_0000_0001;

/// Prefilter flags per node: the line was seen at 0 / at 1.
const SEEN_0: u8 = 1;
const SEEN_1: u8 = 2;

/// The input-support limit of the experiment fault set's redundancy
/// proofs.
pub const REDUNDANCY_SUPPORT_LIMIT: usize = 14;

/// The experiment fault set: the checkpoint faults minus those whose line
/// [`constant_line_faults`] proves constant at [`REDUNDANCY_SUPPORT_LIMIT`]
/// — the paper's "all faults of F must be detectable", with PROTEST's
/// redundancy proof of the note under its Table 2.
pub fn experiment_faults(circuit: &Circuit) -> FaultList {
    // Checkpoint lists come out already collapsed (no equivalence rule
    // pairs two checkpoint faults), so there is nothing to collapse.
    let checkpoints = FaultList::checkpoints(circuit);
    let redundant = constant_line_faults(circuit, &checkpoints, REDUNDANCY_SUPPORT_LIMIT);
    checkpoints
        .iter()
        .zip(&redundant)
        .filter(|(_, &r)| !r)
        .map(|((_, f), _)| f)
        .collect()
}

/// Marks faults proven redundant because their line is constant.
///
/// Returns one flag per fault (`true` = proven redundant).  Lines whose
/// input support exceeds `max_support` (or 62 inputs) are left unproven
/// (`false`).
///
/// # Panics
///
/// Panics only on internal invariant violations.
pub fn constant_line_faults(
    circuit: &Circuit,
    faults: &FaultList,
    max_support: usize,
) -> Vec<bool> {
    let seen = prefilter(circuit);
    let mut prover = None;
    // Per-driver verdict: many faults share a line.
    let mut cache: Vec<Option<bool>> = vec![None; circuit.num_nodes()];
    faults
        .iter()
        .map(|(_, fault)| {
            let driver = fault.site.driver(circuit);
            // Constants are trivially constant.
            match circuit.node(driver).kind() {
                GateKind::Const0 => return !fault.stuck_value,
                GateKind::Const1 => return fault.stuck_value,
                _ => {}
            }
            // A constant line makes the matching-polarity fault
            // redundant: always-0 proves s-a-0, always-1 proves s-a-1.
            // The prefilter already refutes every other value.
            let value = match seen[driver.index()] {
                SEEN_0 => false,
                SEEN_1 => true,
                _ => return false,
            };
            fault.stuck_value == value
                && *cache[driver.index()].get_or_insert_with(|| {
                    prover
                        .get_or_insert_with(|| ConstantProver::new(circuit, max_support))
                        .is_constant(driver, value)
                })
        })
        .collect()
}

/// Simulates [`PREFILTER_WORDS`] random words and returns, per node,
/// which values ([`SEEN_0`] | [`SEEN_1`]) the line took.
fn prefilter(circuit: &Circuit) -> Vec<u8> {
    let mut rng = Xoshiro256::seed_from(PREFILTER_SEED);
    let mut sim = LogicSim::new(circuit);
    let mut seen = vec![0u8; circuit.num_nodes()];
    let mut words = vec![0u64; circuit.num_inputs()];
    for _ in 0..PREFILTER_WORDS {
        for w in &mut words {
            *w = rng.next_u64();
        }
        sim.run(&words);
        for (s, &w) in seen.iter_mut().zip(sim.values()) {
            *s |= (u8::from(w != u64::MAX) * SEEN_0) | (u8::from(w != 0) * SEEN_1);
        }
    }
    seen
}

/// Truth-table masks of the first six enumeration variables: bit `m` of
/// `VAR_MASKS[j]` is bit `j` of the in-word assignment index `m`.
const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Marks a node whose input support is over the enumeration limit.
const OVER_LIMIT: (u32, u8) = (0, u8::MAX);

/// Exact, early-exit constant proofs over capped input supports.
struct ConstantProver<'c> {
    circuit: &'c Circuit,
    /// `span[n] = (start, len)`: node `n`'s sorted input support is
    /// `arena[start..start + len]`, or [`OVER_LIMIT`] when it has more
    /// inputs than the enumeration limit.
    span: Vec<(u32, u8)>,
    arena: Vec<NodeId>,
    /// Scratch: one simulated word per node, and the cone being proven.
    values: Vec<u64>,
    mark: Vec<bool>,
    cone: Vec<NodeId>,
}

impl<'c> ConstantProver<'c> {
    fn new(circuit: &'c Circuit, max_support: usize) -> Self {
        // The scalar enumeration refused 63+ inputs (its mask was a u64).
        let cap = max_support.min(62);
        let mut span = Vec::with_capacity(circuit.num_nodes());
        let mut arena = Vec::new();
        let (mut merged, mut scratch) = (Vec::new(), Vec::new());
        for (id, node) in circuit.iter() {
            merged.clear();
            if node.kind() == GateKind::Input {
                merged.push(id);
            }
            let mut small = true;
            for &f in node.fanin() {
                let Some(support) = capped_support(&span, &arena, f) else {
                    small = false;
                    break;
                };
                merge_sorted_nodes(&merged, support, &mut scratch);
                std::mem::swap(&mut merged, &mut scratch);
            }
            if small && merged.len() <= cap {
                let start = u32::try_from(arena.len()).expect("support arena fits in u32");
                span.push((start, merged.len() as u8));
                arena.extend_from_slice(&merged);
            } else {
                span.push(OVER_LIMIT);
            }
        }
        ConstantProver {
            circuit,
            span,
            arena,
            values: vec![0; circuit.num_nodes()],
            mark: vec![false; circuit.num_nodes()],
            cone: Vec::new(),
        }
    }

    /// Whether `root` is `value` under every assignment of its input
    /// support; `false` when the support is over the limit.
    fn is_constant(&mut self, root: NodeId, value: bool) -> bool {
        let Some(support) = capped_support(&self.span, &self.arena, root) else {
            return false;
        };
        // The cone: every node in it has a support inside the root's.
        self.cone.clear();
        self.cone.push(root);
        self.mark[root.index()] = true;
        let mut next = 0;
        while let Some(&id) = self.cone.get(next) {
            next += 1;
            for &f in self.circuit.fanin(id) {
                if !std::mem::replace(&mut self.mark[f.index()], true) {
                    self.cone.push(f);
                }
            }
        }
        self.cone.sort_unstable();
        for &id in &self.cone {
            self.mark[id.index()] = false;
        }

        let k = support.len();
        // Assignments per word: 64, or all 2^k of them when k < 6.
        let valid = u64::MAX >> (64 - (1 << k.min(6)));
        let expect = if value { valid } else { 0 };
        for word in 0..1u64 << k.saturating_sub(6) {
            for (j, &pi) in support.iter().enumerate() {
                self.values[pi.index()] = match VAR_MASKS.get(j) {
                    Some(&mask) => mask,
                    None => 0u64.wrapping_sub((word >> (j - 6)) & 1),
                };
            }
            for &id in &self.cone {
                let kind = self.circuit.node(id).kind();
                if kind != GateKind::Input {
                    let values = &self.values;
                    let w = eval_gate_words(
                        kind,
                        self.circuit.fanin(id).iter().map(|f| values[f.index()]),
                    );
                    self.values[id.index()] = w;
                }
            }
            if self.values[root.index()] & valid != expect {
                return false;
            }
        }
        true
    }
}

/// Node `n`'s sorted input support from a `ConstantProver` span table,
/// or `None` when it is over the enumeration limit.
fn capped_support<'a>(
    span: &[(u32, u8)],
    arena: &'a [NodeId],
    n: NodeId,
) -> Option<&'a [NodeId]> {
    let (start, len) = span[n.index()];
    ((start, len) != OVER_LIMIT).then(|| &arena[start as usize..][..usize::from(len)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_signal_probability;
    use proptest::prelude::*;
    use wrt_circuit::{parse_bench, CircuitBuilder};
    use wrt_fault::{Fault, FaultSite};

    /// The exhaustive scalar proof this module used to run for every
    /// line: the oracle both stages must agree with.
    fn constant_line_faults_oracle(
        circuit: &Circuit,
        faults: &FaultList,
        max_support: usize,
    ) -> Vec<bool> {
        let probs = vec![0.5f64; circuit.num_inputs()];
        let mut cache: Vec<Option<Option<f64>>> = vec![None; circuit.num_nodes()];
        faults
            .iter()
            .map(|(_, fault)| {
                let driver = match fault.site {
                    FaultSite::Output(n) => n,
                    FaultSite::InputPin { gate, pin } => circuit.node(gate).fanin()[pin],
                };
                match circuit.node(driver).kind() {
                    GateKind::Const0 => return !fault.stuck_value,
                    GateKind::Const1 => return fault.stuck_value,
                    _ => {}
                }
                let entry = cache[driver.index()].get_or_insert_with(|| {
                    exact_signal_probability(circuit, driver, &probs, max_support)
                });
                match *entry {
                    Some(p) => (p == 0.0 && !fault.stuck_value) || (p == 1.0 && fault.stuck_value),
                    None => false,
                }
            })
            .collect()
    }

    #[test]
    fn tautology_line_proves_sa1_redundant() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = OR(a, n)\n").unwrap();
        let y = c.node_id("y").unwrap();
        let faults = FaultList::from_faults(vec![
            Fault::output(y, true),  // redundant: y is always 1
            Fault::output(y, false), // detectable
        ]);
        let flags = constant_line_faults(&c, &faults, 16);
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn contradiction_line_proves_sa0_redundant() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\nz = AND(a, n)\ny = OR(z, b)\n")
            .unwrap();
        let z = c.node_id("z").unwrap();
        let faults = FaultList::from_faults(vec![
            Fault::output(z, false), // line always 0: s-a-0 redundant
            Fault::output(z, true),
        ]);
        let flags = constant_line_faults(&c, &faults, 16);
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn irredundant_circuit_has_no_proofs() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n").unwrap();
        let faults = FaultList::full(&c);
        let flags = constant_line_faults(&c, &faults, 16);
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn oversized_support_is_left_unproven() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = OR(a, n)\n").unwrap();
        let y = c.node_id("y").unwrap();
        let faults = FaultList::from_faults(vec![Fault::output(y, true)]);
        let flags = constant_line_faults(&c, &faults, 0);
        assert_eq!(flags, vec![false]);
    }

    #[test]
    fn pin_faults_use_their_driver_line() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nn = NOT(a)\nk = AND(a, n)\ny = OR(k, b)\nz = XOR(k, b)\n",
        )
        .unwrap();
        let y = c.node_id("y").unwrap();
        // Pin 0 of y is driven by the constant-0 line k.
        let faults = FaultList::from_faults(vec![
            Fault::input_pin(y, 0, false),
            Fault::input_pin(y, 0, true),
        ]);
        let flags = constant_line_faults(&c, &faults, 16);
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn rare_line_survives_the_prefilter_and_the_exact_stage_refutes_it() {
        // A 12-input AND is 1 on one assignment in 4096: the random
        // prefilter almost surely never sees it, so only enumeration
        // (past the first word) can tell it from a constant.
        let mut src = String::new();
        for i in 0..12 {
            src += &format!("INPUT(i{i})\n");
        }
        src += "OUTPUT(y)\ny = AND(i0, i1, i2, i3, i4, i5, i6, i7, i8, i9, i10, i11)\n";
        let c = parse_bench(&src).unwrap();
        let y = c.node_id("y").unwrap();
        assert_eq!(prefilter(&c)[y.index()], SEEN_0);
        let faults = FaultList::from_faults(vec![Fault::output(y, false)]);
        assert_eq!(constant_line_faults(&c, &faults, 14), vec![false]);
    }

    #[test]
    fn constant_with_wide_support_is_proven_across_words() {
        // y = AND(x, NOT x) widened by eight more inputs: constant 0 over
        // a 9-input support, i.e. eight enumeration words.
        let mut src = String::from("INPUT(x)\n");
        for i in 0..8 {
            src += &format!("INPUT(i{i})\n");
        }
        src += "OUTPUT(y)\nn = NOT(x)\nw = OR(i0, i1, i2, i3, i4, i5, i6, i7)\n\
                y = AND(x, n, w)\n";
        let c = parse_bench(&src).unwrap();
        let y = c.node_id("y").unwrap();
        let faults = FaultList::from_faults(vec![Fault::output(y, false)]);
        assert_eq!(constant_line_faults(&c, &faults, 9), vec![true]);
        assert_eq!(constant_line_faults(&c, &faults, 8), vec![false]);
    }

    #[test]
    fn matches_oracle_on_every_registry_workload() {
        // The paper circuits prove nothing at limit 14; the two small
        // tiled netlists prove four faults each.
        let tiled = [wrt_workloads::tiled(1500, 1), wrt_workloads::tiled(1500, 4)];
        for c in wrt_workloads::all_paper_circuits().into_iter().chain(tiled) {
            let faults = FaultList::checkpoints(&c);
            let proven = constant_line_faults(&c, &faults, 14);
            assert_eq!(proven, constant_line_faults_oracle(&c, &faults, 14), "{}", c.name());
            let expected = if c.name().starts_with("tiled_") { 4 } else { 0 };
            assert_eq!(proven.iter().filter(|&&p| p).count(), expected, "{}", c.name());
        }
    }

    /// Random circuits over few inputs, with constant gates mixed in, so
    /// constant and rarely-toggling lines are common.
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
            GateKind::Const0,
            GateKind::Const1,
        ]);
        (
            1usize..9,
            proptest::collection::vec((kinds, proptest::collection::vec(0usize..1000, 1..6)), 1..40),
        )
            .prop_map(|(n_in, specs)| {
                let mut b = CircuitBuilder::named("random");
                let mut ids: Vec<NodeId> = (0..n_in).map(|i| b.input(format!("i{i}"))).collect();
                for (kind, picks) in specs {
                    let id = match kind {
                        GateKind::Const0 => b.const0(),
                        GateKind::Const1 => b.const1(),
                        GateKind::Not | GateKind::Buf => {
                            b.gate_auto(kind, &[ids[picks[0] % ids.len()]]).expect("valid")
                        }
                        _ => {
                            let fanin: Vec<_> = picks.iter().map(|&p| ids[p % ids.len()]).collect();
                            b.gate_auto(kind, &fanin).expect("valid")
                        }
                    };
                    ids.push(id);
                }
                b.mark_output(*ids.last().expect("non-empty"));
                b.build().expect("structurally valid")
            })
    }

    proptest! {
        #[test]
        fn matches_oracle_on_random_circuits(circuit in arb_circuit(), max_support in 0usize..10) {
            let faults = FaultList::full(&circuit);
            prop_assert_eq!(
                constant_line_faults(&circuit, &faults, max_support),
                constant_line_faults_oracle(&circuit, &faults, max_support)
            );
        }
    }
}

//! Sequential circuits under scan: the §2.1 reduction made concrete.
//!
//! The paper restricts itself to combinational networks because scan-based
//! self test makes the state registers directly controllable and
//! observable: "the most widely used self test techniques configure the
//! circuit registers to linear feedback shift registers".  This module
//! models that reduction: a [`SequentialCircuit`] is a combinational core
//! whose pseudo-primary inputs/outputs (PPI/PPO) correspond to flip-flops;
//! its *scan-test view* is exactly the combinational [`Circuit`] the rest
//! of the workspace analyzes, and its test-application cost is a scan
//! chain over the registers ([`crate::TestAccess`]).

use std::fmt;

use wrt_circuit::{Circuit, GateKind, NodeId};

/// Error constructing a [`SequentialCircuit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SequentialError {
    /// A pseudo-primary input is not a primary input of the core.
    BadPseudoInput(NodeId),
    /// A pseudo-primary output is not a primary output of the core.
    BadPseudoOutput(NodeId),
    /// The same node was registered twice.
    DuplicateRegister(NodeId),
}

impl fmt::Display for SequentialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SequentialError::BadPseudoInput(n) => {
                write!(f, "node {n} is not a primary input of the core")
            }
            SequentialError::BadPseudoOutput(n) => {
                write!(f, "node {n} is not a primary output of the core")
            }
            SequentialError::DuplicateRegister(n) => {
                write!(f, "node {n} used by more than one register")
            }
        }
    }
}

impl std::error::Error for SequentialError {}

/// A synchronous sequential circuit: combinational core + D flip-flops.
///
/// Register *k* samples the core output `registers[k].1` each clock and
/// drives the core input `registers[k].0` the next cycle.  Under scan
/// test the registers form a shift chain, which reduces testing to the
/// combinational core — the paper's standing assumption.
#[derive(Debug, Clone)]
pub struct SequentialCircuit {
    core: Circuit,
    registers: Vec<(NodeId, NodeId)>,
}

impl SequentialCircuit {
    /// Builds a sequential circuit from a core and register bindings
    /// `(pseudo input, pseudo output)`.
    ///
    /// # Errors
    ///
    /// Rejects bindings whose pseudo input is not a core primary input,
    /// whose pseudo output is not a core primary output, or that reuse a
    /// node.
    pub fn new(core: Circuit, registers: Vec<(NodeId, NodeId)>) -> Result<Self, SequentialError> {
        let mut seen_in = std::collections::HashSet::new();
        let mut seen_out = std::collections::HashSet::new();
        for &(ppi, ppo) in &registers {
            if core.node(ppi).kind() != GateKind::Input {
                return Err(SequentialError::BadPseudoInput(ppi));
            }
            if !core.is_output(ppo) {
                return Err(SequentialError::BadPseudoOutput(ppo));
            }
            if !seen_in.insert(ppi) {
                return Err(SequentialError::DuplicateRegister(ppi));
            }
            if !seen_out.insert(ppo) {
                return Err(SequentialError::DuplicateRegister(ppo));
            }
        }
        Ok(SequentialCircuit { core, registers })
    }

    /// The combinational core — the scan-test view the optimizer, fault
    /// simulator and ATPG all operate on.
    pub fn scan_view(&self) -> &Circuit {
        &self.core
    }

    /// Number of flip-flops.
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// The true primary inputs (core inputs that are not pseudo inputs),
    /// in core input order.
    pub fn primary_inputs(&self) -> Vec<NodeId> {
        self.core
            .inputs()
            .iter()
            .copied()
            .filter(|i| !self.registers.iter().any(|&(ppi, _)| ppi == *i))
            .collect()
    }

    /// The scan-test access mechanism: one chain over the registers.
    pub fn scan_access(&self) -> crate::TestAccess {
        crate::TestAccess::ScanChain {
            chain_length: self.num_registers(),
        }
    }

    /// Simulates one functional clock cycle.
    ///
    /// `primary` holds the true primary-input values (in
    /// [`SequentialCircuit::primary_inputs`] order), `state` the current
    /// register contents.  Returns `(primary outputs, next state)`, where
    /// the primary outputs exclude the pseudo outputs.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the interface.
    pub fn cycle(&self, primary: &[bool], state: &[bool]) -> (Vec<bool>, Vec<bool>) {
        let pis = self.primary_inputs();
        assert_eq!(primary.len(), pis.len(), "one value per primary input");
        assert_eq!(state.len(), self.registers.len(), "one value per register");
        let mut assignment = vec![false; self.core.num_inputs()];
        for (&pi, &v) in pis.iter().zip(primary) {
            assignment[self.core.input_position(pi).expect("pi")] = v;
        }
        for (&(ppi, _), &v) in self.registers.iter().zip(state) {
            assignment[self.core.input_position(ppi).expect("ppi")] = v;
        }
        let outputs = self.core.evaluate(&assignment);
        let next_state: Vec<bool> = self
            .registers
            .iter()
            .map(|&(_, ppo)| {
                let pos = self
                    .core
                    .outputs()
                    .iter()
                    .position(|&o| o == ppo)
                    .expect("validated");
                outputs[pos]
            })
            .collect();
        let primary_outputs: Vec<bool> = self
            .core
            .outputs()
            .iter()
            .enumerate()
            .filter(|(_, o)| !self.registers.iter().any(|&(_, ppo)| ppo == **o))
            .map(|(k, _)| outputs[k])
            .collect();
        (primary_outputs, next_state)
    }
}

/// A `width`-bit accumulator: registers hold `S`, each cycle computes
/// `S := S + IN` with an overflow flag — a small sequential workload for
/// the scan reduction.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn accumulator(width: usize) -> SequentialCircuit {
    assert!(width > 0);
    let mut b = wrt_circuit::CircuitBuilder::named(format!("acc{width}"));
    let data: Vec<NodeId> = (0..width).map(|i| b.input(format!("IN{i}"))).collect();
    let state: Vec<NodeId> = (0..width).map(|i| b.input(format!("S{i}"))).collect();
    let mut carry = b.const0();
    let mut next = Vec::with_capacity(width);
    for i in 0..width {
        // Full adder, inline.
        let t = b.xor2(data[i], state[i]).expect("valid");
        let sum = b.xor2(t, carry).expect("valid");
        let c1 = b.and2(data[i], state[i]).expect("valid");
        let c2 = b.and2(t, carry).expect("valid");
        carry = b.or2(c1, c2).expect("valid");
        next.push(sum);
    }
    for (i, &s) in next.iter().enumerate() {
        let out = b
            .gate(GateKind::Buf, format!("NS{i}"), &[s])
            .expect("valid");
        b.mark_output(out);
    }
    let ovf = b.gate(GateKind::Buf, "OVF", &[carry]).expect("valid");
    b.mark_output(ovf);
    // Fold the constant initial carry away so the core is irredundant,
    // then re-resolve the register bindings: `simplify` preserves input
    // names and output order (NS0..NS<w-1>, OVF).
    let core = wrt_circuit::simplify(&b.build().expect("generator produces valid circuits"));
    let registers: Vec<(NodeId, NodeId)> = (0..width)
        .map(|i| {
            (
                core.node_id(&format!("S{i}")).expect("inputs preserved"),
                core.outputs()[i],
            )
        })
        .collect();
    SequentialCircuit::new(core, registers).expect("bindings are valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_accumulates() {
        let width = 8;
        let seq = accumulator(width);
        assert_eq!(seq.num_registers(), width);
        assert_eq!(seq.primary_inputs().len(), width);
        let mut state = vec![false; width];
        let mut expected = 0u32;
        for add in [13u32, 200, 77, 5] {
            let primary: Vec<bool> = (0..width).map(|i| (add >> i) & 1 == 1).collect();
            let (outs, next) = seq.cycle(&primary, &state);
            expected = expected.wrapping_add(add);
            let got: u32 = next
                .iter()
                .enumerate()
                .filter(|(_, &bit)| bit)
                .map(|(i, _)| 1 << i)
                .sum();
            assert_eq!(got, expected & 0xFF, "after adding {add}");
            assert_eq!(outs.len(), 1, "only OVF is a true primary output");
            state = next;
        }
    }

    #[test]
    fn scan_view_is_a_plain_combinational_circuit() {
        // The reduction: everything in the workspace applies directly.
        let seq = accumulator(6);
        let core = seq.scan_view();
        let faults = wrt_fault::FaultList::checkpoints(core).collapse_equivalent(core);
        assert!(!faults.is_empty());
        let access = seq.scan_access();
        assert_eq!(access.cycles_per_pattern(), 7);
    }

    #[test]
    fn register_bindings_are_validated() {
        let seq = accumulator(4);
        let core = seq.scan_view().clone();
        let some_gate = core
            .ids()
            .find(|&id| core.node(id).kind() != GateKind::Input)
            .expect("has gates");
        let err = SequentialCircuit::new(core.clone(), vec![(some_gate, core.outputs()[0])]);
        assert!(matches!(err, Err(SequentialError::BadPseudoInput(_))));
        let pi = core.inputs()[0];
        let err = SequentialCircuit::new(core.clone(), vec![(pi, pi)]);
        assert!(matches!(err, Err(SequentialError::BadPseudoOutput(_))));
        let err = SequentialCircuit::new(
            core.clone(),
            vec![
                (core.inputs()[0], core.outputs()[0]),
                (core.inputs()[0], core.outputs()[1]),
            ],
        );
        assert!(matches!(err, Err(SequentialError::DuplicateRegister(_))));
    }

    #[test]
    fn scan_test_of_the_accumulator_core_reaches_full_coverage() {
        // The point of the reduction: random patterns over PIs *and* PPIs
        // test the core completely, which no functional-input-only test
        // could guarantee.
        let seq = accumulator(6);
        let core = seq.scan_view();
        let faults = wrt_fault::FaultList::checkpoints(core).collapse_equivalent(core);
        let source = wrt_sim::WeightedPatterns::equiprobable(core.num_inputs(), 3);
        let result = wrt_sim::fault_coverage(core, &faults, source, 2048, true);
        assert_eq!(result.coverage(), 1.0, "{result}");
    }
}

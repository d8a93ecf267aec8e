//! Fault universes: generation of standard fault lists.

use std::fmt;

use wrt_circuit::{Circuit, GateKind, NodeId};

use crate::collapse::EquivalenceClasses;
use crate::fault::{Fault, FaultSite};

/// Index of a fault within one [`FaultList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultId(pub(crate) u32);

impl FaultId {
    /// The dense index of this fault.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a `FaultId` from a dense index.
    pub fn from_index(index: usize) -> Self {
        FaultId(u32::try_from(index).expect("fault index fits in u32"))
    }
}

impl fmt::Display for FaultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// An ordered list of stuck-at faults over one circuit.
///
/// Use [`FaultList::full`] for the complete single-stuck-at universe,
/// [`FaultList::checkpoints`] for the checkpoint-theorem reduction (primary
/// inputs + fanout branches, the usual basis for random-testability work —
/// it always contains "all stuck-at faults at the primary inputs" required
/// by the paper), or build a custom list with [`FaultList::from_faults`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultList {
    faults: Vec<Fault>,
}

impl FaultList {
    /// Builds a fault list from an explicit set of faults.
    pub fn from_faults(faults: Vec<Fault>) -> Self {
        FaultList { faults }
    }

    /// The complete single-stuck-at universe: both polarities on every node
    /// output and on every gate input pin.
    pub fn full(circuit: &Circuit) -> Self {
        let mut faults = Vec::new();
        for (id, node) in circuit.iter() {
            if node.kind() == GateKind::Const0 || node.kind() == GateKind::Const1 {
                continue; // constant lines are untestable by definition
            }
            for value in [false, true] {
                faults.push(Fault::output(id, value));
            }
            for pin in 0..node.fanin().len() {
                for value in [false, true] {
                    faults.push(Fault::input_pin(id, pin, value));
                }
            }
        }
        FaultList { faults }
    }

    /// Checkpoint faults: both polarities at every primary input and at
    /// every fanout branch.  A line is a fanout branch when its driver
    /// has more than one sink — where a primary output pad counts as a
    /// sink, since a PO stem that also feeds logic forks at the pad.
    ///
    /// By the checkpoint theorem, a test set detecting all checkpoint faults
    /// detects all single stuck-at faults in a fanout-reconvergent network
    /// built from primitive gates.
    pub fn checkpoints(circuit: &Circuit) -> Self {
        let mut faults = Vec::new();
        for &pi in circuit.inputs() {
            for value in [false, true] {
                faults.push(Fault::output(pi, value));
            }
        }
        for (id, node) in circuit.iter() {
            for (pin, &driver) in node.fanin().iter().enumerate() {
                let sinks = circuit.fanout(driver).len() + usize::from(circuit.is_output(driver));
                if sinks > 1 {
                    for value in [false, true] {
                        faults.push(Fault::input_pin(id, pin, value));
                    }
                }
            }
        }
        FaultList { faults }
    }

    /// Only the stuck-at faults at the primary inputs (the minimum fault
    /// model the paper's objective function requires).
    pub fn primary_inputs(circuit: &Circuit) -> Self {
        let faults = circuit
            .inputs()
            .iter()
            .flat_map(|&pi| [Fault::output(pi, false), Fault::output(pi, true)])
            .collect();
        FaultList { faults }
    }

    /// Number of faults in the list.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fault(&self, id: FaultId) -> Fault {
        self.faults[id.index()]
    }

    /// All faults as a slice, indexable by [`FaultId::index`].
    pub fn as_slice(&self) -> &[Fault] {
        &self.faults
    }

    /// Iterates over `(id, fault)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FaultId, Fault)> + '_ {
        self.faults
            .iter()
            .enumerate()
            .map(|(i, &f)| (FaultId::from_index(i), f))
    }

    /// Finds the id of a fault, if present.
    pub fn id_of(&self, fault: Fault) -> Option<FaultId> {
        self.faults
            .iter()
            .position(|&f| f == fault)
            .map(FaultId::from_index)
    }

    /// Returns a new list keeping only faults for which `keep` is true.
    pub fn filtered(&self, mut keep: impl FnMut(Fault) -> bool) -> FaultList {
        FaultList {
            faults: self.faults.iter().copied().filter(|&f| keep(f)).collect(),
        }
    }

    /// Collapses the list by structural equivalence and returns the reduced
    /// list of class representatives (see [`EquivalenceClasses`]).
    pub fn collapse_equivalent(&self, circuit: &Circuit) -> FaultList {
        EquivalenceClasses::compute(circuit, self).representatives()
    }

    /// Retains primary-input stuck-at faults and deduplicates, preserving
    /// first-occurrence order.
    pub fn dedup(&self) -> FaultList {
        let mut seen = std::collections::HashSet::new();
        FaultList {
            faults: self
                .faults
                .iter()
                .copied()
                .filter(|&f| seen.insert(f))
                .collect(),
        }
    }
}

impl FromIterator<Fault> for FaultList {
    fn from_iter<T: IntoIterator<Item = Fault>>(iter: T) -> Self {
        FaultList {
            faults: iter.into_iter().collect(),
        }
    }
}

impl Extend<Fault> for FaultList {
    fn extend<T: IntoIterator<Item = Fault>>(&mut self, iter: T) {
        self.faults.extend(iter);
    }
}

/// Convenience: whether a fault sits on a primary input stem.
pub(crate) fn is_primary_input_fault(circuit: &Circuit, fault: Fault) -> bool {
    match fault.site {
        FaultSite::Output(n) => circuit.node(n).kind() == GateKind::Input,
        FaultSite::InputPin { .. } => false,
    }
}

/// All primary-input node ids touched by the list (for tests).
#[allow(dead_code)]
pub(crate) fn pi_nodes(circuit: &Circuit, list: &FaultList) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = list
        .iter()
        .filter(|&(_, f)| is_primary_input_fault(circuit, f))
        .map(|(_, f)| match f.site {
            FaultSite::Output(n) => n,
            FaultSite::InputPin { .. } => unreachable!(),
        })
        .collect();
    v.sort();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;

    fn two_gate() -> Circuit {
        parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = NAND(a, b)\ny = NOR(m, a)\n").unwrap()
    }

    #[test]
    fn full_list_counts_all_lines() {
        let c = two_gate();
        let list = FaultList::full(&c);
        // nodes: a, b, m, y = 4 stems; pins: m has 2, y has 2 = 4 pins.
        // (4 + 4) * 2 polarities = 16 faults.
        assert_eq!(list.len(), 16);
    }

    #[test]
    fn checkpoints_are_pis_plus_branches() {
        let c = two_gate();
        let list = FaultList::checkpoints(&c);
        // PIs: a, b -> 4 faults. `a` fans out to m and y: 2 branches -> 4.
        // `m` has fanout 1 so its branch is not a checkpoint.
        assert_eq!(list.len(), 8);
    }

    #[test]
    fn primary_inputs_list_covers_every_pi_both_polarities() {
        let c = two_gate();
        let list = FaultList::primary_inputs(&c);
        assert_eq!(list.len(), 2 * c.num_inputs());
        assert!(list.iter().all(|(_, f)| is_primary_input_fault(&c, f)));
    }

    #[test]
    fn id_roundtrip_and_lookup() {
        let c = two_gate();
        let list = FaultList::full(&c);
        for (id, f) in list.iter() {
            assert_eq!(list.fault(id), f);
            assert_eq!(list.id_of(f), Some(id));
        }
    }

    #[test]
    fn filtered_and_dedup() {
        let c = two_gate();
        let list = FaultList::full(&c);
        let only_sa1 = list.filtered(|f| f.stuck_value);
        assert_eq!(only_sa1.len(), list.len() / 2);
        let mut doubled: FaultList = list.iter().map(|(_, f)| f).collect();
        doubled.extend(list.iter().map(|(_, f)| f));
        assert_eq!(doubled.dedup().len(), list.len());
    }

    #[test]
    fn constants_excluded_from_full_list() {
        use wrt_circuit::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let one = b.const1();
        let g = b.gate(GateKind::And, "g", &[a, one]).unwrap();
        b.mark_output(g);
        let c = b.build().unwrap();
        let list = FaultList::full(&c);
        assert!(
            list.iter()
                .all(|(_, f)| f.site.driver(&c) != one
                    || matches!(f.site, FaultSite::InputPin { .. }))
        );
    }
}

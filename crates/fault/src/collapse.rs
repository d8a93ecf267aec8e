//! Fault collapsing: equivalence classes and dominance reduction.

use wrt_circuit::{Circuit, GateKind};

use crate::fault::{Fault, FaultSite};
use crate::list::{FaultId, FaultList};

/// Structural equivalence classes over a [`FaultList`].
///
/// Two faults are *equivalent* when every test detects either both or
/// neither.  The classical local rules are applied transitively:
///
/// * a controlling value at any input of AND/NAND/OR/NOR is equivalent to
///   the corresponding output fault (e.g. AND input s-a-0 ≡ output s-a-0,
///   NAND input s-a-0 ≡ output s-a-1);
/// * NOT/BUF input faults are equivalent to the (inverted/equal) output
///   fault;
/// * on a fanout-free line, the branch (pin) fault is equivalent to the
///   stem fault.
///
/// # Example
///
/// ```
/// use wrt_circuit::parse_bench;
/// use wrt_fault::{EquivalenceClasses, FaultList};
///
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
/// let full = FaultList::full(&c);
/// let classes = EquivalenceClasses::compute(&c, &full);
/// // a s-a-0, b s-a-0 (stems + pins) and y s-a-0 all collapse together.
/// assert!(classes.num_classes() < full.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EquivalenceClasses {
    /// Dense class number per fault index; classes are numbered in order
    /// of their smallest member.
    class_of: Vec<u32>,
    /// Class `c`'s members, ascending, are `members[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    members: Vec<FaultId>,
    faults: Vec<Fault>,
}

impl EquivalenceClasses {
    /// Computes equivalence classes of `list` over `circuit`.
    pub fn compute(circuit: &Circuit, list: &FaultList) -> Self {
        let n = list.len();
        let mut uf = UnionFind::new(n);
        let index = DenseIndex::new(circuit, list);
        let union = |a: Fault, b: Fault, uf: &mut UnionFind| {
            if let (Some(ia), Some(ib)) = (index.get(circuit, a), index.get(circuit, b)) {
                uf.union(ia, ib);
            }
        };

        for (gid, node) in circuit.iter() {
            // Branch ≡ stem on fanout-free lines.  A primary output is an
            // extra observation point on the stem, so a PO driving one
            // gate is *not* fanout-free: its stem fault is observable at
            // the pad even when the branch fault is not.
            for (pin, &driver) in node.fanin().iter().enumerate() {
                if circuit.fanout(driver).len() == 1 && !circuit.is_output(driver) {
                    for v in [false, true] {
                        union(
                            Fault::input_pin(gid, pin, v),
                            Fault::output(driver, v),
                            &mut uf,
                        );
                    }
                }
            }
            // Gate-local rules.
            let pins = node.fanin().len();
            match node.kind() {
                GateKind::And => {
                    for pin in 0..pins {
                        union(
                            Fault::input_pin(gid, pin, false),
                            Fault::output(gid, false),
                            &mut uf,
                        );
                    }
                }
                GateKind::Nand => {
                    for pin in 0..pins {
                        union(
                            Fault::input_pin(gid, pin, false),
                            Fault::output(gid, true),
                            &mut uf,
                        );
                    }
                }
                GateKind::Or => {
                    for pin in 0..pins {
                        union(
                            Fault::input_pin(gid, pin, true),
                            Fault::output(gid, true),
                            &mut uf,
                        );
                    }
                }
                GateKind::Nor => {
                    for pin in 0..pins {
                        union(
                            Fault::input_pin(gid, pin, true),
                            Fault::output(gid, false),
                            &mut uf,
                        );
                    }
                }
                GateKind::Not => {
                    union(
                        Fault::input_pin(gid, 0, false),
                        Fault::output(gid, true),
                        &mut uf,
                    );
                    union(
                        Fault::input_pin(gid, 0, true),
                        Fault::output(gid, false),
                        &mut uf,
                    );
                }
                GateKind::Buf => {
                    union(
                        Fault::input_pin(gid, 0, false),
                        Fault::output(gid, false),
                        &mut uf,
                    );
                    union(
                        Fault::input_pin(gid, 0, true),
                        Fault::output(gid, true),
                        &mut uf,
                    );
                }
                _ => {}
            }
        }

        // Number the classes in order of their smallest member, then lay
        // the members out class by class (a counting sort, so each class
        // stays ascending).
        let mut class_of_root = vec![u32::MAX; n];
        let mut class_of = Vec::with_capacity(n);
        let mut starts = vec![0u32];
        for i in 0..n {
            let slot = &mut class_of_root[uf.find(i)];
            if *slot == u32::MAX {
                *slot = u32::try_from(starts.len() - 1).expect("class count fits in u32");
                starts.push(0);
            }
            class_of.push(*slot);
            starts[*slot as usize + 1] += 1;
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        let mut fill = starts.clone();
        let mut members = vec![FaultId(0); n];
        for (i, &c) in class_of.iter().enumerate() {
            members[fill[c as usize] as usize] = FaultId::from_index(i);
            fill[c as usize] += 1;
        }
        EquivalenceClasses {
            class_of,
            starts,
            members,
            faults: list.as_slice().to_vec(),
        }
    }

    /// Number of equivalence classes.
    pub fn num_classes(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether two faults of the original list are equivalent.
    pub fn equivalent(&self, a: FaultId, b: FaultId) -> bool {
        self.class_of[a.index()] == self.class_of[b.index()]
    }

    /// The members of the class containing `id`, ascending.
    pub fn class_members(&self, id: FaultId) -> &[FaultId] {
        let c = self.class_of[id.index()] as usize;
        &self.members[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// One representative fault per class, as a new [`FaultList`].
    ///
    /// The representative is the member with the smallest original id;
    /// because fault lists enumerate drivers before sinks, this prefers
    /// faults closer to the primary inputs.
    pub fn representatives(&self) -> FaultList {
        self.starts[..self.num_classes()]
            .iter()
            .map(|&s| self.faults[self.members[s as usize].index()])
            .collect()
    }
}

/// Fault → list index by direct addressing: two slots per node stem,
/// then two per gate pin (pin `p` of gate `g` at edge
/// `fanin_offset(g) + p`).  A fault listed twice maps to its last
/// occurrence; faults that name no line of `circuit` are left out.
struct DenseIndex {
    slots: Vec<u32>,
}

impl DenseIndex {
    const ABSENT: u32 = u32::MAX;

    fn new(circuit: &Circuit, list: &FaultList) -> Self {
        let mut slots = vec![Self::ABSENT; 2 * (circuit.num_nodes() + circuit.num_edges())];
        for (id, fault) in list.iter() {
            if let Some(slot) = Self::position(circuit, fault) {
                slots[slot] = u32::try_from(id.index()).expect("fault index fits in u32");
            }
        }
        DenseIndex { slots }
    }

    /// The fault's slot, or `None` when it names no line of `circuit`.
    fn position(circuit: &Circuit, fault: Fault) -> Option<usize> {
        let nodes = circuit.num_nodes();
        let line = match fault.site {
            FaultSite::Output(n) if n.index() < nodes => n.index(),
            FaultSite::InputPin { gate, pin }
                if gate.index() < nodes && pin < circuit.fanin(gate).len() =>
            {
                nodes + circuit.fanin_offset(gate) + pin
            }
            _ => return None,
        };
        Some(2 * line + usize::from(fault.stuck_value))
    }

    fn get(&self, circuit: &Circuit, fault: Fault) -> Option<usize> {
        let i = self.slots[Self::position(circuit, fault)?];
        (i != Self::ABSENT).then_some(i as usize)
    }
}

/// Dominance reduction: removes gate-output faults whose detection is
/// implied by an input-pin fault remaining in the list.
///
/// For an AND gate, any test for `input s-a-1` also detects
/// `output s-a-1`, so the output fault is *dominated* and can be dropped
/// from a detection-oriented fault list (similarly NAND output s-a-0,
/// OR output s-a-0, NOR output s-a-1).  Dominance does **not** preserve
/// detection probabilities — the dominating fault is easier to detect — so
/// the optimizer uses equivalence collapsing only; dominance is offered for
/// coverage-oriented simulation work.
pub fn dominance_collapse(circuit: &Circuit, list: &FaultList) -> FaultList {
    let has = |f: Fault| list.id_of(f).is_some();
    list.filtered(|f| {
        let FaultSite::Output(node) = f.site else {
            return true;
        };
        let kind = circuit.node(node).kind();
        let pins = circuit.node(node).fanin().len();
        if pins < 2 {
            return true; // 1-input gates are handled by equivalence
        }
        let dominated = match (kind, f.stuck_value) {
            (GateKind::And, true) => Some(true), // dominated by input s-a-1
            (GateKind::Nand, false) => Some(true), // by input s-a-1
            (GateKind::Or, false) => Some(false), // by input s-a-0
            (GateKind::Nor, true) => Some(false), // by input s-a-0
            _ => None,
        };
        match dominated {
            Some(pin_value) => {
                // Keep the output fault unless some justifying pin fault
                // is present in the list.
                !(0..pins).any(|p| has(Fault::input_pin(node, p, pin_value)))
            }
            None => true,
        }
    })
}

#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;

    #[test]
    fn and_gate_collapses_to_classic_count() {
        // Single 2-input AND: full universe has 12 faults (3 lines * 2 + 2
        // pins * 2 = wait: stems a,b,y = 6, pins y.0,y.1 = 4 -> 10).
        // Classic collapsed count for a 2-input gate with free lines: 4
        // classes on the gate (in1 s-a-1, in2 s-a-1, out s-a-1 group?):
        // {a0,y.in0-0,b0?...}. We assert the well-known result: n+2 classes
        // for an n-input AND including its input stems = 4 for n=2.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let full = FaultList::full(&c);
        assert_eq!(full.len(), 10);
        let classes = EquivalenceClasses::compute(&c, &full);
        // {a s-a-0, y.in0 s-a-0, b s-a-0, y.in1 s-a-0, y s-a-0},
        // {a s-a-1, y.in0 s-a-1}, {b s-a-1, y.in1 s-a-1}, {y s-a-1}
        assert_eq!(classes.num_classes(), 4);
        let reps = classes.representatives();
        assert_eq!(reps.len(), 4);
    }

    #[test]
    fn inverter_chain_collapses_to_two() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nm = NOT(a)\ny = NOT(m)\n").unwrap();
        let full = FaultList::full(&c);
        let classes = EquivalenceClasses::compute(&c, &full);
        // Everything collapses onto {s-a-0 at a, ...} and {s-a-1 at a, ...}.
        assert_eq!(classes.num_classes(), 2);
    }

    #[test]
    fn equivalence_is_symmetric_and_transitive_here() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n").unwrap();
        let full = FaultList::full(&c);
        let classes = EquivalenceClasses::compute(&c, &full);
        let a0 = full
            .id_of(Fault::output(c.node_id("a").unwrap(), false))
            .unwrap();
        let y1 = full
            .id_of(Fault::output(c.node_id("y").unwrap(), true))
            .unwrap();
        let b0 = full
            .id_of(Fault::output(c.node_id("b").unwrap(), false))
            .unwrap();
        assert!(classes.equivalent(a0, y1));
        assert!(classes.equivalent(y1, b0));
        assert!(classes.equivalent(a0, b0));
        assert!(classes.class_members(a0).len() >= 3);
    }

    #[test]
    fn fanout_branches_do_not_collapse_with_stem() {
        // `a` fans out to two gates; branch faults must stay separate from
        // the stem fault.
        let c =
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b)\nz = OR(a, b)\n")
                .unwrap();
        let full = FaultList::full(&c);
        let classes = EquivalenceClasses::compute(&c, &full);
        let a1 = full
            .id_of(Fault::output(c.node_id("a").unwrap(), true))
            .unwrap();
        let y = c.node_id("y").unwrap();
        let ypin1 = full.id_of(Fault::input_pin(y, 0, true)).unwrap();
        assert!(!classes.equivalent(a1, ypin1));
    }

    #[test]
    fn dominance_drops_and_output_sa1() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let full = FaultList::full(&c);
        let reduced = dominance_collapse(&c, &full);
        let y = c.node_id("y").unwrap();
        assert!(reduced.id_of(Fault::output(y, true)).is_none());
        assert!(reduced.id_of(Fault::output(y, false)).is_some());
        assert_eq!(reduced.len(), full.len() - 1);
    }

    #[test]
    fn dominance_keeps_output_when_no_pin_fault_present() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let y = c.node_id("y").unwrap();
        let list = FaultList::from_faults(vec![Fault::output(y, true)]);
        let reduced = dominance_collapse(&c, &list);
        assert_eq!(reduced.len(), 1);
    }

    #[test]
    fn xor_gates_have_no_local_collapse() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
        let full = FaultList::full(&c);
        let classes = EquivalenceClasses::compute(&c, &full);
        // Only branch≡stem on the fanout-free lines collapses: stems a,b
        // merge with pins, y stems stay alone: classes = a0,a1,b0,b1,y0,y1.
        assert_eq!(classes.num_classes(), 6);
    }
}

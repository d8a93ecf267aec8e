//! The immutable, topologically ordered circuit representation.
//!
//! Storage is fully flat: gate kinds, fanin lists, fanout lists, names and
//! levels all live in a handful of arena vectors (CSR layout for the
//! variable-length parts), so a circuit performs O(1) heap allocations
//! regardless of node count and every per-node lookup is an offset into a
//! contiguous array.  This is what keeps bytes/gate flat from 10^2 to 10^6
//! gates (see `BENCH_scale.json`).

use std::fmt;

use crate::gate::GateKind;
use crate::levelize::Levels;

/// Identifier of a node (primary input or gate) within one [`Circuit`].
///
/// Node ids are dense indices `0..circuit.num_nodes()` and are assigned in
/// topological order: every node's fanin has a smaller id.  This invariant
/// is what lets simulators and estimators run a single forward pass over
/// `0..n` without any scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a `NodeId` from a dense index.
    ///
    /// Intended for iteration (`(0..n).map(NodeId::from_index)`); ids built
    /// this way are only meaningful for the circuit whose node count bounds
    /// them.
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index fits in u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node of a [`Circuit`]: a primary input, constant, or logic gate.
///
/// `Node` is a lightweight `Copy` view into the circuit's flat arenas —
/// nodes own no storage of their own.  Accessors borrow from the circuit
/// (`'c`), not from the `Node` value, so `circuit.node(id).fanin()` hands
/// out a slice that outlives the temporary.
#[derive(Clone, Copy)]
pub struct Node<'c> {
    circuit: &'c Circuit,
    index: u32,
}

impl<'c> Node<'c> {
    /// The node's id within its circuit.
    pub fn id(&self) -> NodeId {
        NodeId(self.index)
    }

    /// The node's name (unique within its circuit).
    pub fn name(&self) -> &'c str {
        self.circuit.node_name(NodeId(self.index))
    }

    /// The logic function of this node.
    pub fn kind(&self) -> GateKind {
        self.circuit.kinds[self.index as usize]
    }

    /// The fanin nodes, in declaration order (a slice into the circuit's
    /// fanin arena).
    pub fn fanin(&self) -> &'c [NodeId] {
        self.circuit.fanin(NodeId(self.index))
    }
}

impl fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name())
            .field("kind", &self.kind())
            .field("fanin", &self.fanin())
            .finish()
    }
}

impl PartialEq for Node<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.kind() == other.kind() && self.fanin() == other.fanin() && self.name() == other.name()
    }
}

impl Eq for Node<'_> {}

/// An immutable combinational gate-level network.
///
/// Constructed through [`crate::CircuitBuilder`] or [`crate::parse_bench`];
/// once built, a circuit is validated (acyclic by construction, arities
/// checked, unique names) and its nodes are stored in topological order.
///
/// # Example
///
/// ```
/// use wrt_circuit::parse_bench;
///
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = parse_bench(
///     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n",
/// )?;
/// assert_eq!(c.num_gates(), 1);
/// assert_eq!(c.levels().depth(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Process-unique identity assigned at build time (clones share it —
    /// a clone is the same immutable structure).  Lets caches keyed on a
    /// circuit distinguish equally-named, equally-sized circuits in O(1).
    pub(crate) uid: u64,
    pub(crate) name: String,
    /// Gate kind of each node, in topological order.
    pub(crate) kinds: Vec<GateKind>,
    /// Fanin lists in CSR layout: the fanin of node `i` is
    /// `fanin_data[fanin_offsets[i]..fanin_offsets[i + 1]]`, in declaration
    /// order.  One flat arena instead of one heap box per node.
    pub(crate) fanin_offsets: Vec<u32>,
    pub(crate) fanin_data: Vec<NodeId>,
    /// Node names, concatenated into one buffer; the name of node `i` is
    /// `name_bytes[name_offsets[i]..name_offsets[i + 1]]`.
    pub(crate) name_bytes: String,
    pub(crate) name_offsets: Vec<u32>,
    /// Node ids sorted by name — the lookup index behind
    /// [`Circuit::node_id`] (binary search instead of a per-name
    /// `HashMap` entry duplicating every name string).
    pub(crate) name_sorted: Vec<NodeId>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<NodeId>,
    /// Fanout lists in CSR layout: the sinks of node `i` are
    /// `fanout_data[fanout_offsets[i]..fanout_offsets[i + 1]]`, in
    /// ascending sink-id order.  One flat allocation keeps the per-node
    /// fanout walks of event-driven simulation cache-friendly.
    pub(crate) fanout_offsets: Vec<u32>,
    pub(crate) fanout_data: Vec<NodeId>,
    /// The fanin edge of each `fanout_data` entry.
    pub(crate) fanout_edges: Vec<u32>,
    /// `output_flags[i]` is true when node `i` is a primary output.
    pub(crate) output_flags: Vec<bool>,
    /// Position of each primary input in `inputs`, by node index
    /// (`u32::MAX` for non-inputs).
    pub(crate) input_position: Vec<u32>,
    /// Number of non-source nodes, precomputed so [`Circuit::num_gates`]
    /// is O(1) instead of an O(n) scan per call.
    pub(crate) num_gates: u32,
    /// Maximum fanin count over all gates, precomputed.
    pub(crate) max_fanin: u32,
    pub(crate) levels: Levels,
}

impl Circuit {
    /// The circuit's name (e.g. `"s1"`, `"c6288ish"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Process-unique identity of this circuit, assigned when it was
    /// built.  Clones return the same value (a clone is the same
    /// immutable structure); two separately built circuits never share
    /// it, even when their names and shapes coincide.  Intended as a
    /// cache key for engines that carry state across calls.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Stable FNV-1a digest of the circuit *structure*: name, node
    /// kinds, fanin lists, node names, and the input/output interface.
    ///
    /// Unlike [`Circuit::uid`] (a process-local cache key), the digest is
    /// identical across processes and runs for structurally identical
    /// circuits — it is what checkpoint sidecars record so `--resume`
    /// can reject a mismatched circuit, and what remote clients can
    /// compare against a server-resident copy.
    pub fn structural_digest(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn byte(&mut self, b: u8) {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
            fn word(&mut self, w: u32) {
                for b in w.to_le_bytes() {
                    self.byte(b);
                }
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for b in self.name.bytes() {
            h.byte(b);
        }
        h.byte(0xFF);
        h.word(self.kinds.len() as u32);
        for &k in &self.kinds {
            h.byte(k as u8);
        }
        for &f in &self.fanin_data {
            h.word(f.0);
        }
        for b in self.name_bytes.bytes() {
            h.byte(b);
        }
        for &o in &self.name_offsets {
            h.word(o);
        }
        for &i in &self.inputs {
            h.word(i.0);
        }
        for &o in &self.outputs {
            h.word(o.0);
        }
        h.0
    }

    /// Total number of nodes, including primary inputs and constants.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of logic gates (all nodes that are not sources).
    pub fn num_gates(&self) -> usize {
        self.num_gates as usize
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this circuit.
    pub fn node(&self, id: NodeId) -> Node<'_> {
        assert!(
            id.index() < self.kinds.len(),
            "node id {id} out of range for circuit with {} nodes",
            self.kinds.len()
        );
        Node {
            circuit: self,
            index: id.0,
        }
    }

    /// Iterates over `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Node<'_>)> {
        (0..self.kinds.len()).map(move |i| {
            (
                NodeId::from_index(i),
                Node {
                    circuit: self,
                    index: i as u32,
                },
            )
        })
    }

    /// All node ids in topological order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + 'static {
        (0..self.kinds.len()).map(NodeId::from_index)
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The fanin of `id`, in declaration order (equivalent to
    /// `self.node(id).fanin()`).
    pub fn fanin(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        let lo = self.fanin_offsets[i] as usize;
        let hi = self.fanin_offsets[i + 1] as usize;
        &self.fanin_data[lo..hi]
    }

    /// Gate kind of every node, by node index.
    pub fn kinds(&self) -> &[GateKind] {
        &self.kinds
    }

    /// The fanin CSR `(offsets, data)`: node `i`'s fanin is
    /// `data[offsets[i]..offsets[i + 1]]`.  For passes over every node.
    pub fn fanin_csr(&self) -> (&[u32], &[NodeId]) {
        (&self.fanin_offsets, &self.fanin_data)
    }

    /// Base index of `id`'s fanin pins in edge-indexed tables.
    ///
    /// Per-pin quantities (pin observabilities, pin counts, SCOAP branch
    /// costs) are stored as flat arrays of length [`Circuit::num_edges`];
    /// pin `p` of gate `id` lives at `fanin_offset(id) + p`.
    pub fn fanin_offset(&self, id: NodeId) -> usize {
        self.fanin_offsets[id.index()] as usize
    }

    /// The name of a node (equivalent to `self.node(id).name()`).
    pub fn node_name(&self, id: NodeId) -> &str {
        let i = id.index();
        let lo = self.name_offsets[i] as usize;
        let hi = self.name_offsets[i + 1] as usize;
        &self.name_bytes[lo..hi]
    }

    /// The nodes driven by `id` (its fanout), in ascending id order.
    pub fn fanout(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        let lo = self.fanout_offsets[i] as usize;
        let hi = self.fanout_offsets[i + 1] as usize;
        &self.fanout_data[lo..hi]
    }

    /// The fanin edge (`fanin_offset(sink) + pin`) of each entry of
    /// [`Circuit::fanout`], in the same order; a sink that lists `id` on
    /// two pins is two entries.
    pub fn fanout_edges(&self, id: NodeId) -> &[u32] {
        let i = id.index();
        let lo = self.fanout_offsets[i] as usize;
        let hi = self.fanout_offsets[i + 1] as usize;
        &self.fanout_edges[lo..hi]
    }

    /// Total number of fanout edges (equivalently, fanin edges) in the
    /// circuit.
    pub fn num_edges(&self) -> usize {
        self.fanout_data.len()
    }

    /// Looks a node up by name (binary search over the sorted name index).
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.name_sorted
            .binary_search_by(|&id| self.node_name(id).cmp(name))
            .ok()
            .map(|pos| self.name_sorted[pos])
    }

    /// If `id` is a primary input, its position within [`Circuit::inputs`].
    pub fn input_position(&self, id: NodeId) -> Option<usize> {
        let p = self.input_position[id.index()];
        (p != u32::MAX).then_some(p as usize)
    }

    /// The primary-output values (in output order) of one input
    /// assignment, by scalar evaluation of every node in id order: the
    /// reference every faster evaluator is checked against.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != self.num_inputs()`.
    pub fn evaluate(&self, assignment: &[bool]) -> Vec<bool> {
        assert_eq!(assignment.len(), self.num_inputs(), "one value per input");
        let mut values = vec![false; self.num_nodes()];
        let mut fanin = Vec::new();
        for (id, node) in self.iter() {
            values[id.index()] = match node.kind() {
                GateKind::Input => assignment[self.input_position[id.index()] as usize],
                kind => {
                    fanin.clear();
                    fanin.extend(node.fanin().iter().map(|f| values[f.index()]));
                    kind.eval(&fanin)
                }
            };
        }
        self.outputs.iter().map(|&o| values[o.index()]).collect()
    }

    /// Whether `id` is a primary output (`O(1)` bitmap lookup).
    pub fn is_output(&self, id: NodeId) -> bool {
        self.output_flags[id.index()]
    }

    /// The levelization of the circuit (see [`Levels`]).
    pub fn levels(&self) -> &Levels {
        &self.levels
    }

    /// Maximum fanin count over all gates.
    pub fn max_fanin(&self) -> usize {
        self.max_fanin as usize
    }

    /// Nodes with more than one fanout (fanout stems), the source of
    /// reconvergence and thus of signal correlation.
    pub fn fanout_stems(&self) -> Vec<NodeId> {
        self.ids().filter(|&id| self.fanout(id).len() > 1).collect()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} gates, depth {}",
            self.name,
            self.num_inputs(),
            self.num_outputs(),
            self.num_gates(),
            self.levels.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::{CircuitBuilder, GateKind};

    #[test]
    fn topological_invariant_holds() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let c = b.input("b");
        let g1 = b.gate(GateKind::And, "g1", &[a, c]).unwrap();
        let g2 = b.gate(GateKind::Or, "g2", &[g1, a]).unwrap();
        b.mark_output(g2);
        let circuit = b.build().unwrap();
        for (id, node) in circuit.iter() {
            for &f in node.fanin() {
                assert!(f < id, "fanin {f} must precede {id}");
            }
        }
    }

    #[test]
    fn fanouts_are_inverse_of_fanins() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let n = b.gate(GateKind::Not, "n", &[a]).unwrap();
        let g = b.gate(GateKind::And, "g", &[a, n]).unwrap();
        b.mark_output(g);
        let c = b.build().unwrap();
        assert_eq!(c.fanout(a), &[n, g]);
        assert_eq!(c.fanout(n), &[g]);
        assert!(c.fanout(g).is_empty());
        assert_eq!(c.fanout_stems(), vec![a]);
    }

    #[test]
    fn lookup_by_name_and_input_position() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let g = b.gate(GateKind::Xor, "g", &[a, x]).unwrap();
        b.mark_output(g);
        let c = b.build().unwrap();
        assert_eq!(c.node_id("x"), Some(x));
        assert_eq!(c.node_id("nope"), None);
        assert_eq!(c.input_position(x), Some(1));
        assert_eq!(c.input_position(g), None);
        assert!(c.is_output(g));
        assert!(!c.is_output(a));
    }

    #[test]
    fn node_proxy_borrows_from_circuit_not_temporary() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate(GateKind::Not, "g", &[a]).unwrap();
        b.mark_output(g);
        let c = b.build().unwrap();
        // The slice and name must outlive the `Node` temporary.
        let fanin = c.node(g).fanin();
        let name = c.node(g).name();
        assert_eq!(fanin, &[a]);
        assert_eq!(name, "g");
        assert_eq!(c.node(g), c.node(g));
        assert_ne!(c.node(g), c.node(a));
    }

    #[test]
    fn csr_fanouts_cover_every_fanin_edge() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let n = b.gate(GateKind::Not, "n", &[a]).unwrap();
        let g = b.gate(GateKind::And, "g", &[a, n, x]).unwrap();
        let h = b.gate(GateKind::Xor, "h", &[a, a]).unwrap(); // duplicate fanin
        b.mark_output(g);
        b.mark_output(h);
        let c = b.build().unwrap();
        // Every fanin edge appears exactly once in the driver's fanout list.
        let total: usize = c.ids().map(|id| c.fanout(id).len()).sum();
        let fanin_edges: usize = c.iter().map(|(_, n)| n.fanin().len()).sum();
        assert_eq!(total, fanin_edges);
        assert_eq!(c.num_edges(), fanin_edges);
        assert_eq!(c.fanout(a), &[n, g, h, h]); // ascending, duplicates kept
                                                // Fanout slices are ascending (CSR fill visits sinks in id order).
        for id in c.ids() {
            for w in c.fanout(id).windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn fanin_offsets_index_edge_tables() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let n = b.gate(GateKind::Not, "n", &[a]).unwrap();
        let g = b.gate(GateKind::And, "g", &[n, x]).unwrap();
        b.mark_output(g);
        let c = b.build().unwrap();
        // Offsets partition 0..num_edges() and respect fanin arity.
        let mut covered = vec![false; c.num_edges()];
        for id in c.ids() {
            let base = c.fanin_offset(id);
            for pin in 0..c.fanin(id).len() {
                assert!(!covered[base + pin]);
                covered[base + pin] = true;
            }
        }
        assert!(covered.iter().all(|&b| b));
        assert_eq!(c.fanin(g), &[n, x]);
    }

    #[test]
    fn display_is_informative() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate(GateKind::Not, "g", &[a]).unwrap();
        b.mark_output(g);
        let c = b.build().unwrap();
        let s = format!("{c}");
        assert!(s.contains("1 inputs"));
        assert!(s.contains("1 gates"));
    }
}

//! Fanout-free regions: the one copy of the region-head rule.

use crate::netlist::{Circuit, NodeId};

/// The fanout-free region (FFR) of every node, as the node heading it.
///
/// A node heads its own region when its fanout is not exactly one branch
/// (a stem, a dangling node, or a node read on two pins of one gate) or
/// when it is a primary output; otherwise it belongs to the region of its
/// unique sink.  Inside a region every node reaches the rest of the
/// circuit only through the head, along its one single-fanout path — the
/// structure behind COP's exactness on trees, the structural census, and
/// the event fault simulator's one propagation per region.
///
/// # Example
///
/// ```
/// use wrt_circuit::{parse_bench, FanoutFreeRegions};
///
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = NOT(a)\ny = AND(m, b)\n")?;
/// let ffr = FanoutFreeRegions::new(&c);
/// let y = c.node_id("y").unwrap();
/// assert_eq!(ffr.head(c.node_id("a").unwrap()), y);
/// assert!(ffr.is_head(y));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutFreeRegions {
    head: Box<[NodeId]>,
}

impl FanoutFreeRegions {
    /// Assigns every node of `circuit` its region head in one reverse
    /// sweep: sinks have higher ids (topological order), so a node's sink
    /// is resolved before the node itself.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.num_nodes();
        let mut head: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        for idx in (0..n).rev() {
            let id = NodeId::from_index(idx);
            // Fanout lists keep one entry per fanin edge, so a gate reading
            // `id` on two pins makes it a stem here.
            if let [sink] = circuit.fanout(id) {
                if !circuit.is_output(id) {
                    head[idx] = head[sink.index()];
                }
            }
        }
        FanoutFreeRegions {
            head: head.into_boxed_slice(),
        }
    }

    /// The head of the region `id` belongs to.
    pub fn head(&self, id: NodeId) -> NodeId {
        self.head[id.index()]
    }

    /// Whether `id` heads its own region.
    pub fn is_head(&self, id: NodeId) -> bool {
        self.head(id) == id
    }

    /// Number of nodes covered (the circuit's node count).
    pub fn num_nodes(&self) -> usize {
        self.head.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_bench;

    fn heads(src: &str) -> Vec<(String, String)> {
        let c = parse_bench(src).unwrap();
        let ffr = FanoutFreeRegions::new(&c);
        c.ids()
            .map(|id| {
                (
                    c.node_name(id).to_string(),
                    c.node_name(ffr.head(id)).to_string(),
                )
            })
            .collect()
    }

    fn head_of<'a>(heads: &'a [(String, String)], name: &str) -> &'a str {
        &heads.iter().find(|(n, _)| n == name).unwrap().1
    }

    #[test]
    fn single_fanout_chains_join_their_sinks_region() {
        let h = heads("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = NOT(a)\nn = BUF(m)\ny = AND(n, b)\n");
        for name in ["a", "b", "m", "n", "y"] {
            assert_eq!(head_of(&h, name), "y", "{name}");
        }
    }

    #[test]
    fn a_single_fanout_primary_output_heads_its_own_region() {
        // `m` feeds only `y` but is observed directly, so it heads a
        // region of its own, and `a` joins it rather than `y`'s.
        let h = heads("INPUT(a)\nOUTPUT(m)\nOUTPUT(y)\nm = NOT(a)\ny = NOT(m)\n");
        assert_eq!(head_of(&h, "m"), "m");
        assert_eq!(head_of(&h, "a"), "m");
        assert_eq!(head_of(&h, "y"), "y");
    }

    #[test]
    fn a_gate_reading_a_node_on_two_pins_makes_it_a_stem() {
        let h = heads("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = NOT(a)\ny = AND(m, m, b)\n");
        assert_eq!(head_of(&h, "m"), "m", "two fanin edges: a stem");
        assert_eq!(head_of(&h, "a"), "m");
        assert_eq!(head_of(&h, "b"), "y");
    }

    #[test]
    fn stems_and_dangling_nodes_head_their_own_regions() {
        let h = heads(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nd = NOT(b)\ny = AND(a, b)\nz = OR(a, b)\n",
        );
        assert_eq!(head_of(&h, "a"), "a");
        assert_eq!(head_of(&h, "b"), "b");
        assert_eq!(head_of(&h, "d"), "d", "no fanout, not observed");
    }
}

//! Levelization: distance of each node from the primary inputs.

use crate::netlist::NodeId;

/// Levelization of a circuit.
///
/// Sources (inputs, constants) sit at level 0; a gate's level is one more
/// than the maximum level of its fanin.  The *depth* of the circuit is the
/// maximum level.  Levels group nodes into "waves" that event-driven
/// algorithms can process front-to-back.
///
/// The per-level node groups are stored in CSR layout (one offsets array +
/// one flat id array) rather than a `Vec` per level, so levelization costs
/// exactly two O(n) arrays regardless of depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    level: Vec<u32>,
    depth: u32,
    /// CSR offsets into `level_data`: the nodes at level `l` are
    /// `level_data[level_offsets[l]..level_offsets[l + 1]]`, ascending.
    level_offsets: Vec<u32>,
    level_data: Vec<NodeId>,
}

impl Levels {
    /// Computes levels for a topologically ordered fanin CSR.
    ///
    /// Combinational loops are unrepresentable here by construction: the
    /// builder rejects forward fanin references ([`crate::BuildCircuitError::
    /// UnknownFanin`]) and the parser reports cycles as structured
    /// [`crate::ParseBenchError::Cycle`] values before a `Circuit` ever
    /// exists.  The assert below turns any future violation of that
    /// invariant into a loud failure instead of silently wrong levels.
    pub(crate) fn compute(num_nodes: usize, fanin_offsets: &[u32], fanin_data: &[NodeId]) -> Self {
        let mut level = vec![0u32; num_nodes];
        let mut depth = 0;
        for i in 0..num_nodes {
            let lo = fanin_offsets[i] as usize;
            let hi = fanin_offsets[i + 1] as usize;
            let l = fanin_data[lo..hi]
                .iter()
                .map(|f| {
                    assert!(
                        f.index() < i,
                        "levelize requires topological order; node {i} has forward fanin {}",
                        f.index()
                    );
                    level[f.index()] + 1
                })
                .max()
                .unwrap_or(0);
            level[i] = l;
            depth = depth.max(l);
        }
        // Counting sort into CSR: count, prefix-sum, fill.  Filling in id
        // order keeps every per-level slice ascending without a sort.
        let num_levels = depth as usize + 1;
        let mut level_offsets = vec![0u32; num_levels + 1];
        for &l in &level {
            level_offsets[l as usize + 1] += 1;
        }
        for i in 1..level_offsets.len() {
            level_offsets[i] += level_offsets[i - 1];
        }
        let mut level_data = vec![NodeId::from_index(0); num_nodes];
        let mut cursor: Vec<u32> = level_offsets[..num_levels].to_vec();
        for (i, &l) in level.iter().enumerate() {
            let c = &mut cursor[l as usize];
            level_data[*c as usize] = NodeId::from_index(i);
            *c += 1;
        }
        Levels {
            level,
            depth,
            level_offsets,
            level_data,
        }
    }

    /// The level of a node (0 for sources).
    pub fn level(&self, id: NodeId) -> u32 {
        self.level[id.index()]
    }

    /// The circuit depth (maximum level over all nodes).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// All nodes at the given level, in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `level > self.depth()`.
    pub fn nodes_at(&self, level: u32) -> &[NodeId] {
        let l = level as usize;
        let lo = self.level_offsets[l] as usize;
        let hi = self.level_offsets[l + 1] as usize;
        &self.level_data[lo..hi]
    }

    /// Iterates over levels `0..=depth` as slices of node ids.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        self.level_offsets
            .windows(2)
            .map(move |w| &self.level_data[w[0] as usize..w[1] as usize])
    }

    /// Bytes of heap memory held by the levelization arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.level.capacity() * size_of::<u32>()
            + self.level_offsets.capacity() * size_of::<u32>()
            + self.level_data.capacity() * size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use crate::{CircuitBuilder, GateKind};

    #[test]
    fn chain_depth() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let mut cur = a;
        for i in 0..5 {
            cur = b.gate(GateKind::Not, format!("n{i}"), &[cur]).unwrap();
        }
        b.mark_output(cur);
        let c = b.build().unwrap();
        assert_eq!(c.levels().depth(), 5);
        assert_eq!(c.levels().level(a), 0);
        assert_eq!(c.levels().level(cur), 5);
    }

    #[test]
    fn level_is_max_of_fanin_plus_one() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let n = b.not(a).unwrap(); // level 1
        let g = b.and2(n, x).unwrap(); // level 2 (max(1,0)+1)
        b.mark_output(g);
        let c = b.build().unwrap();
        assert_eq!(c.levels().level(g), 2);
        assert_eq!(c.levels().nodes_at(0).len(), 2);
        assert_eq!(c.levels().nodes_at(2), &[g]);
    }

    #[test]
    fn levels_partition_all_nodes() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let g1 = b.and2(a, x).unwrap();
        let g2 = b.or2(g1, a).unwrap();
        b.mark_output(g2);
        let c = b.build().unwrap();
        let total: usize = c.levels().iter().map(<[_]>::len).sum();
        assert_eq!(total, c.num_nodes());
        // Per-level slices are ascending and disjoint.
        let mut seen = vec![false; c.num_nodes()];
        for slice in c.levels().iter() {
            for w in slice.windows(2) {
                assert!(w[0] < w[1]);
            }
            for id in slice {
                assert!(!std::mem::replace(&mut seen[id.index()], true));
            }
        }
    }
}

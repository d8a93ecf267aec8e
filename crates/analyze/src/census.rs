//! Fanout-free-region and reconvergent-fanout census.
//!
//! COP's independence assumption is exact on trees and inside fanout-free
//! regions; its estimation error comes entirely from reconvergent fanout.
//! This census measures both, giving a structural bound on where the
//! analytic estimators are exact versus heuristic: a circuit with zero
//! reconvergent stems has exact COP probabilities everywhere.

use wrt_circuit::{Circuit, FanoutFreeRegions, NodeId};

/// Structural statistics of a circuit: fanout-free regions and
/// reconvergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureCensus {
    /// Total nodes (inputs, constants, gates).
    pub nodes: usize,
    /// Nodes with two or more fanout branches.
    pub fanout_stems: usize,
    /// Fanout stems whose branches reconverge at some downstream node.
    pub reconvergent_stems: usize,
    /// Number of fanout-free regions (maximal single-sink subtrees).
    pub ffr_count: usize,
    /// Size of the largest fanout-free region, in nodes.
    pub max_ffr_size: usize,
    /// `true` when the circuit has no reconvergent stems, i.e. the COP
    /// signal probabilities and observabilities are exact, not heuristic.
    pub cop_exact: bool,
}

/// Computes the census in O(stems × edges) worst case (each stem's
/// reconvergence check is one forward sweep over its fanout cone).
pub fn census(circuit: &Circuit) -> StructureCensus {
    let n = circuit.num_nodes();

    // FFR assignment (see `FanoutFreeRegions` for the head rule).
    let regions = FanoutFreeRegions::new(circuit);
    let mut ffr_size = vec![0usize; n];
    for id in circuit.ids() {
        ffr_size[regions.head(id).index()] += 1;
    }
    let ffr_count = ffr_size.iter().filter(|&&s| s > 0).count();
    let max_ffr_size = ffr_size.iter().copied().max().unwrap_or(0);

    // Reconvergence: a stem is reconvergent iff some downstream node is
    // reachable through two *different* fanout branches.  For each stem,
    // propagate a branch label through its fanout cone in topological
    // order; a node that would receive a second distinct label proves
    // reconvergence.  Scratch arrays are epoch-stamped so each stem's
    // sweep starts clean without clearing.
    let mut label = vec![0u32; n];
    let mut stamp = vec![0u32; n];
    let mut epoch = 0u32;
    let mut worklist: Vec<usize> = Vec::new();
    let mut fanout_stems = 0usize;
    let mut reconvergent_stems = 0usize;

    for idx in 0..n {
        let id = NodeId::from_index(idx);
        let branches = circuit.fanout(id);
        if branches.len() < 2 {
            continue;
        }
        fanout_stems += 1;
        epoch += 1;
        worklist.clear();
        let mut reconverges = false;
        for (b, &sink) in branches.iter().enumerate() {
            let si = sink.index();
            if stamp[si] == epoch {
                // Two branches enter the same sink gate directly.
                reconverges = true;
                break;
            }
            stamp[si] = epoch;
            label[si] = u32::try_from(b).expect("branch count fits in u32");
            worklist.push(si);
        }
        if !reconverges {
            // Topological propagation: labeled nodes in ascending id order.
            worklist.sort_unstable();
            let mut w = 0;
            'sweep: while w < worklist.len() {
                let cur = worklist[w];
                w += 1;
                let cur_label = label[cur];
                for &sink in circuit.fanout(NodeId::from_index(cur)) {
                    let si = sink.index();
                    if stamp[si] == epoch {
                        if label[si] != cur_label {
                            reconverges = true;
                            break 'sweep;
                        }
                    } else {
                        stamp[si] = epoch;
                        label[si] = cur_label;
                        // Insert keeping ascending order: fanout ids are
                        // all greater than `cur`, so a sorted insert from
                        // the back stays cheap (usually a push).
                        let pos = worklist[w..]
                            .iter()
                            .position(|&x| x > si)
                            .map_or(worklist.len(), |p| w + p);
                        worklist.insert(pos, si);
                    }
                }
            }
        }
        if reconverges {
            reconvergent_stems += 1;
        }
    }

    StructureCensus {
        nodes: n,
        fanout_stems,
        reconvergent_stems,
        ffr_count,
        max_ffr_size,
        cop_exact: reconvergent_stems == 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;

    #[test]
    fn tree_circuit_is_cop_exact() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(d)\nINPUT(e)\nOUTPUT(y)\n\
             m = NAND(a, b)\nn = NOR(d, e)\ny = OR(m, n)\n",
        )
        .unwrap();
        let s = census(&c);
        assert_eq!(s.fanout_stems, 0);
        assert_eq!(s.reconvergent_stems, 0);
        assert!(s.cop_exact);
        // One region: everything funnels into y.
        assert_eq!(s.ffr_count, 1);
        assert_eq!(s.max_ffr_size, 7);
    }

    #[test]
    fn reconvergent_diamond_is_detected() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n\
             p = AND(a, b)\nq = OR(a, b)\ny = XOR(p, q)\n",
        )
        .unwrap();
        let s = census(&c);
        // Both a and b branch and reconverge at y.
        assert_eq!(s.fanout_stems, 2);
        assert_eq!(s.reconvergent_stems, 2);
        assert!(!s.cop_exact);
    }

    #[test]
    fn nonreconvergent_fanout_is_not_flagged() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
             y = AND(a, b)\nz = OR(a, d)\n",
        )
        .unwrap();
        let s = census(&c);
        assert_eq!(s.fanout_stems, 1); // a
        assert_eq!(s.reconvergent_stems, 0);
        assert!(s.cop_exact);
    }

    #[test]
    fn direct_double_edge_reconverges() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = XOR(a, a)\n").unwrap();
        let s = census(&c);
        assert_eq!(s.fanout_stems, 1);
        assert_eq!(s.reconvergent_stems, 1);
    }

    #[test]
    fn ffr_heads_are_stems_and_outputs() {
        // a fans out -> two regions headed by the two outputs, plus the
        // stem's own region.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n\
             m = NOT(a)\ny = AND(m, b)\nz = OR(a, b)\n",
        )
        .unwrap();
        let s = census(&c);
        // Heads: a (fanout 2), b (fanout 2), y (output), z (output).
        assert_eq!(s.ffr_count, 4);
    }
}

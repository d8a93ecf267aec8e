//! Transitive fanin/fanout cone extraction.
//!
//! Cones are the unit of locality for fault simulation (only the output cone
//! of a fault site can differ from the fault-free circuit) and for exact
//! probability computation (a signal depends only on its input support).

use crate::netlist::{Circuit, NodeId};

/// The transitive fanin of `roots`, including the roots themselves,
/// returned as a sorted list of node ids (i.e. in topological order).
pub fn transitive_fanin(circuit: &Circuit, roots: &[NodeId]) -> Vec<NodeId> {
    let mut mark = vec![false; circuit.num_nodes()];
    let mut stack: Vec<NodeId> = roots.to_vec();
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut mark[id.index()], true) {
            continue;
        }
        stack.extend(circuit.node(id).fanin().iter().copied());
    }
    collect_marked(&mark)
}

/// The transitive fanout of `roots`, including the roots themselves,
/// returned as a sorted list of node ids (i.e. in topological order).
pub fn transitive_fanout(circuit: &Circuit, roots: &[NodeId]) -> Vec<NodeId> {
    let mut mark = vec![false; circuit.num_nodes()];
    let mut stack: Vec<NodeId> = roots.to_vec();
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut mark[id.index()], true) {
            continue;
        }
        stack.extend(circuit.fanout(id).iter().copied());
    }
    collect_marked(&mark)
}

/// The primary inputs a node depends on (its *input support*), sorted by id.
pub fn input_support(circuit: &Circuit, node: NodeId) -> Vec<NodeId> {
    transitive_fanin(circuit, &[node])
        .into_iter()
        .filter(|&id| circuit.node(id).kind() == crate::GateKind::Input)
        .collect()
}

/// The cone needed to evaluate the given primary output: its transitive
/// fanin in topological order (alias of [`transitive_fanin`] with one root).
pub fn output_cone(circuit: &Circuit, output: NodeId) -> Vec<NodeId> {
    transitive_fanin(circuit, &[output])
}

fn collect_marked(mark: &[bool]) -> Vec<NodeId> {
    mark.iter()
        .enumerate()
        .filter(|&(_i, &m)| m).map(|(i, &_m)| NodeId::from_index(i))
        .collect()
}

/// Linear merge of two sorted, duplicate-free node lists into `out`
/// (sorted, deduplicated).
pub fn merge_sorted_nodes(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, GateKind};

    fn diamond() -> (Circuit, [NodeId; 5]) {
        // a -> n1 -> g (AND) <- n2 <- a ; classic reconvergence
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let n1 = b.gate(GateKind::Not, "n1", &[a]).unwrap();
        let n2 = b.gate(GateKind::Buf, "n2", &[a]).unwrap();
        let g = b.gate(GateKind::And, "g", &[n1, n2]).unwrap();
        b.mark_output(g);
        b.mark_output(x);
        (b.build().unwrap(), [a, x, n1, n2, g])
    }

    #[test]
    fn fanin_cone_of_reconvergent_gate() {
        let (c, [a, _x, n1, n2, g]) = diamond();
        assert_eq!(transitive_fanin(&c, &[g]), vec![a, n1, n2, g]);
    }

    #[test]
    fn fanout_cone_of_stem() {
        let (c, [a, _x, n1, n2, g]) = diamond();
        assert_eq!(transitive_fanout(&c, &[a]), vec![a, n1, n2, g]);
    }

    #[test]
    fn support_excludes_unrelated_inputs() {
        let (c, [a, x, _, _, g]) = diamond();
        assert_eq!(input_support(&c, g), vec![a]);
        assert_eq!(input_support(&c, x), vec![x]);
    }

    #[test]
    fn cones_are_topologically_sorted() {
        let (c, _) = diamond();
        for out in c.outputs() {
            let cone = output_cone(&c, *out);
            for w in cone.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }
}

//! Constant propagation and dead-logic elimination.
//!
//! Library cells instantiated with tied-off pins (e.g. the cascade inputs
//! of the bottom SN7485 comparator in the paper's S1 circuit) contain
//! logic that is constant or unobservable.  The paper notes that S1 has
//! "some redundancies removed"; this pass performs exactly that removal:
//!
//! 1. **constant folding** — gates whose value is fixed by constant fanin
//!    are replaced by constants (e.g. `AND(x, 0) → 0`, `AND(x, 1) → BUF(x)`);
//! 2. **dead-node elimination** — nodes that reach no primary output are
//!    dropped.
//!
//! The result is a new, functionally equivalent [`Circuit`] in which every
//! remaining constant is one that feeds an XOR/XNOR (those are rewritten to
//! BUF/NOT instead, so a fully simplified circuit contains no constant
//! nodes unless an *output* is constant).

use crate::builder::CircuitBuilder;
use crate::gate::GateKind;
use crate::netlist::{Circuit, NodeId};

/// Lattice value during constant propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Folded {
    Const(bool),
    /// Equivalent to an already-emitted node.
    Alias(NodeId),
    /// A gate that must be materialized (with possibly reduced fanin).
    Keep,
}

/// Simplifies a circuit by constant folding and dead-node elimination.
///
/// The returned circuit computes the same Boolean function at every primary
/// output.  Output count and order are preserved; internal node names are
/// kept where the node survives.
///
/// # Panics
///
/// Panics only on internal invariant violations (a bug), never on valid
/// input circuits.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// use wrt_circuit::{parse_bench, simplify};
/// // `m` is forced to 0 because XOR(a, a) == 0.
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nz = XOR(a, a)\nm = AND(b, z)\ny = OR(m, b)\n")?;
/// let s = simplify(&c);
/// assert!(s.num_gates() < c.num_gates());
/// # Ok(())
/// # }
/// ```
pub fn simplify(circuit: &Circuit) -> Circuit {
    let mut builder = CircuitBuilder::named(circuit.name());
    // For each old node: its folded status and (if materialized/aliased)
    // the corresponding new id.
    let mut folded: Vec<Option<(Folded, Option<NodeId>)>> = vec![None; circuit.num_nodes()];

    // Mark nodes reaching an output (reverse reachability).
    let mut live = vec![false; circuit.num_nodes()];
    let mut stack: Vec<NodeId> = circuit.outputs().to_vec();
    while let Some(n) = stack.pop() {
        if std::mem::replace(&mut live[n.index()], true) {
            continue;
        }
        stack.extend(circuit.node(n).fanin().iter().copied());
    }

    // Primary inputs are all preserved (the interface must not change).
    for &pi in circuit.inputs() {
        let new_id = builder.input(circuit.node(pi).name());
        folded[pi.index()] = Some((Folded::Alias(new_id), Some(new_id)));
    }

    // Lazily created constant drivers in the new circuit.
    let mut const_nodes: [Option<NodeId>; 2] = [None, None];

    for (id, node) in circuit.iter() {
        if node.kind() == GateKind::Input {
            continue;
        }
        if !live[id.index()] {
            continue; // dead logic: drop silently
        }
        let entry = fold_node(circuit, id, &folded, &mut builder);
        folded[id.index()] = Some(entry);
    }

    let mut emitted_outputs = std::collections::HashSet::new();
    for &out in circuit.outputs() {
        let (state, new_id) = folded[out.index()].expect("outputs are live");
        let id = match state {
            Folded::Const(v) => materialize_const(&mut builder, &mut const_nodes, v),
            _ => new_id.expect("non-const nodes are materialized"),
        };
        // `mark_output` rejects duplicates; distinct old outputs may fold
        // onto the same new node, so alias through a BUF when needed.
        if emitted_outputs.insert(id) {
            builder.mark_output(id);
        } else {
            let buf = builder
                .gate(
                    GateKind::Buf,
                    format!("{}_out", circuit.node(out).name()),
                    &[id],
                )
                .expect("buffer of existing node is valid");
            builder.mark_output(buf);
        }
    }

    builder.build().expect("simplification preserves validity")
}

fn fold_node(
    circuit: &Circuit,
    id: NodeId,
    folded: &[Option<(Folded, Option<NodeId>)>],
    builder: &mut CircuitBuilder,
) -> (Folded, Option<NodeId>) {
    let node = circuit.node(id);
    let kind = node.kind();
    match kind {
        GateKind::Const0 => return (Folded::Const(false), None),
        GateKind::Const1 => return (Folded::Const(true), None),
        _ => {}
    }

    // Resolve fanin states.
    let mut const_in: Vec<bool> = Vec::new();
    let mut kept: Vec<NodeId> = Vec::new();
    for &f in node.fanin().iter() {
        let (state, new_id) = folded[f.index()].expect("fanin precedes node");
        match state {
            Folded::Const(v) => const_in.push(v),
            _ => kept.push(new_id.expect("materialized")),
        }
    }

    let invert = kind.is_inverting();
    let base_result = match kind {
        GateKind::And | GateKind::Nand => fold_and(&const_in, &kept),
        GateKind::Or | GateKind::Nor => fold_or(&const_in, &kept),
        GateKind::Xor | GateKind::Xnor => fold_xor(&const_in, &kept),
        GateKind::Not | GateKind::Buf => {
            if let Some(&v) = const_in.first() {
                FoldResult::Const(v)
            } else {
                FoldResult::Wire(kept[0], false)
            }
        }
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => unreachable!(),
    };

    match base_result {
        FoldResult::Const(v) => (Folded::Const(v ^ invert), None),
        FoldResult::Wire(w, inv) => {
            let inv = inv ^ invert;
            if inv {
                let new = builder
                    .gate(GateKind::Not, node.name(), &[w])
                    .expect("valid inverter");
                (Folded::Keep, Some(new))
            } else {
                (Folded::Alias(w), Some(w))
            }
        }
        FoldResult::Gate(base, fanin, inv) => {
            let final_kind = apply_inversion(base, inv ^ invert);
            let new = builder
                .gate(final_kind, node.name(), &fanin)
                .expect("valid folded gate");
            (Folded::Keep, Some(new))
        }
    }
}

enum FoldResult {
    Const(bool),
    /// Single surviving wire, possibly inverted.
    Wire(NodeId, bool),
    /// Gate of `kind` over surviving fanin, output possibly inverted.
    Gate(GateKind, Vec<NodeId>, bool),
}

fn fold_and(consts: &[bool], kept: &[NodeId]) -> FoldResult {
    if consts.iter().any(|&v| !v) {
        return FoldResult::Const(false);
    }
    // AND is idempotent: duplicate wires collapse.
    let kept = dedup_preserving_order(kept);
    match kept.as_slice() {
        [] => FoldResult::Const(true),
        [one] => FoldResult::Wire(*one, false),
        _ => FoldResult::Gate(GateKind::And, kept, false),
    }
}

fn fold_or(consts: &[bool], kept: &[NodeId]) -> FoldResult {
    if consts.iter().any(|&v| v) {
        return FoldResult::Const(true);
    }
    // OR is idempotent: duplicate wires collapse.
    let kept = dedup_preserving_order(kept);
    match kept.as_slice() {
        [] => FoldResult::Const(false),
        [one] => FoldResult::Wire(*one, false),
        _ => FoldResult::Gate(GateKind::Or, kept, false),
    }
}

fn fold_xor(consts: &[bool], kept: &[NodeId]) -> FoldResult {
    let parity = consts.iter().fold(false, |acc, &v| acc ^ v);
    // XOR cancels pairs: keep only wires appearing an odd number of times.
    let mut odd: Vec<NodeId> = Vec::new();
    for &w in kept {
        if let Some(pos) = odd.iter().position(|&o| o == w) {
            odd.remove(pos);
        } else {
            odd.push(w);
        }
    }
    match odd.as_slice() {
        [] => FoldResult::Const(parity),
        [one] => FoldResult::Wire(*one, parity),
        _ => FoldResult::Gate(GateKind::Xor, odd, parity),
    }
}

fn dedup_preserving_order(wires: &[NodeId]) -> Vec<NodeId> {
    let mut seen = Vec::new();
    for &w in wires {
        if !seen.contains(&w) {
            seen.push(w);
        }
    }
    seen
}

fn apply_inversion(kind: GateKind, invert: bool) -> GateKind {
    if !invert {
        return kind;
    }
    match kind {
        GateKind::And => GateKind::Nand,
        GateKind::Or => GateKind::Nor,
        GateKind::Xor => GateKind::Xnor,
        GateKind::Nand => GateKind::And,
        GateKind::Nor => GateKind::Or,
        GateKind::Xnor => GateKind::Xor,
        other => other,
    }
}

fn materialize_const(
    builder: &mut CircuitBuilder,
    const_nodes: &mut [Option<NodeId>; 2],
    value: bool,
) -> NodeId {
    let slot = usize::from(value);
    if let Some(id) = const_nodes[slot] {
        return id;
    }
    let id = if value {
        builder.const1()
    } else {
        builder.const0()
    };
    const_nodes[slot] = Some(id);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_bench;

    fn equivalent(a: &Circuit, b: &Circuit) -> bool {
        assert_eq!(a.num_inputs(), b.num_inputs());
        assert_eq!(a.num_outputs(), b.num_outputs());
        let n = a.num_inputs();
        assert!(n <= 16, "exhaustive check limited");
        for v in 0..(1u32 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
            if eval(a, &assignment) != eval(b, &assignment) {
                return false;
            }
        }
        true
    }

    fn eval(c: &Circuit, assignment: &[bool]) -> Vec<bool> {
        let mut values = vec![false; c.num_nodes()];
        let mut buf = Vec::new();
        for (id, node) in c.iter() {
            values[id.index()] = match node.kind() {
                GateKind::Input => assignment[c.input_position(id).expect("pi")],
                kind => {
                    buf.clear();
                    buf.extend(node.fanin().iter().map(|f| values[f.index()]));
                    kind.eval(&buf)
                }
            };
        }
        c.outputs().iter().map(|&o| values[o.index()]).collect()
    }

    #[test]
    fn folds_constant_and() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nz = XOR(a, a)\nm = AND(b, z)\ny = OR(m, b)\n",
        )
        .unwrap();
        let s = simplify(&c);
        assert!(equivalent(&c, &s));
        // z folds to 0, m folds to 0, y folds to wire b.
        assert_eq!(s.num_gates(), 0);
    }

    #[test]
    fn keeps_live_logic() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n").unwrap();
        let s = simplify(&c);
        assert!(equivalent(&c, &s));
        assert_eq!(s.num_gates(), 1);
    }

    #[test]
    fn removes_dead_logic() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ndead = XOR(a, b)\ny = AND(a, b)\n")
            .unwrap();
        let s = simplify(&c);
        assert!(equivalent(&c, &s));
        assert!(s.node_id("dead").is_none());
    }

    #[test]
    fn xor_with_constant_becomes_inverter() {
        let mut b = crate::CircuitBuilder::named("t");
        let a = b.input("a");
        let x = b.input("x");
        let one = b.const1();
        let g = b.gate(GateKind::Xor, "g", &[a, one]).unwrap();
        let h = b.gate(GateKind::And, "h", &[g, x]).unwrap();
        b.mark_output(h);
        let c = b.build().unwrap();
        let s = simplify(&c);
        assert!(equivalent(&c, &s));
        // g becomes NOT(a); no constants remain.
        let g2 = s.node_id("g").unwrap();
        assert_eq!(s.node(g2).kind(), GateKind::Not);
    }

    #[test]
    fn nand_with_false_input_is_const1_output() {
        let mut b = crate::CircuitBuilder::named("t");
        let a = b.input("a");
        let zero = b.const0();
        let g = b.gate(GateKind::Nand, "g", &[a, zero]).unwrap();
        b.mark_output(g);
        let c = b.build().unwrap();
        let s = simplify(&c);
        assert!(equivalent(&c, &s));
        // Output is constant 1: a materialized Const1 node.
        let out = s.outputs()[0];
        assert_eq!(s.node(out).kind(), GateKind::Const1);
    }

    #[test]
    fn inputs_always_preserved() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = BUFF(a)\n").unwrap();
        let s = simplify(&c);
        assert_eq!(s.num_inputs(), 2); // b is dead but stays on the interface
        assert!(equivalent(&c, &s));
    }

    #[test]
    fn not_of_constant_folds() {
        let mut b = crate::CircuitBuilder::named("t");
        let a = b.input("a");
        let zero = b.const0();
        let n = b.gate(GateKind::Not, "n", &[zero]).unwrap();
        let g = b.gate(GateKind::And, "g", &[a, n]).unwrap();
        b.mark_output(g);
        let c = b.build().unwrap();
        let s = simplify(&c);
        assert!(equivalent(&c, &s));
        assert_eq!(s.num_gates(), 0); // g == a
    }
}

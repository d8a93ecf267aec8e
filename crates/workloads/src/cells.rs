//! Reusable gate-level cells (adders, muxes, balanced trees).
//!
//! All helpers take a [`CircuitBuilder`] and already-existing node ids;
//! they panic only on internal invariant violations (the generators in this
//! crate always pass valid ids).

use wrt_circuit::{CircuitBuilder, GateKind, NodeId};

/// Half adder: returns `(sum, carry)`.
pub fn half_adder(b: &mut CircuitBuilder, x: NodeId, y: NodeId) -> (NodeId, NodeId) {
    let sum = b.xor2(x, y).expect("valid cell fanin");
    let carry = b.and2(x, y).expect("valid cell fanin");
    (sum, carry)
}

/// Full adder: returns `(sum, carry)`.
pub fn full_adder(b: &mut CircuitBuilder, x: NodeId, y: NodeId, cin: NodeId) -> (NodeId, NodeId) {
    let t = b.xor2(x, y).expect("valid cell fanin");
    let sum = b.xor2(t, cin).expect("valid cell fanin");
    let c1 = b.and2(x, y).expect("valid cell fanin");
    let c2 = b.and2(t, cin).expect("valid cell fanin");
    let carry = b.or2(c1, c2).expect("valid cell fanin");
    (sum, carry)
}

/// 2:1 multiplexer: `sel ? hi : lo`.
pub fn mux2(b: &mut CircuitBuilder, sel: NodeId, lo: NodeId, hi: NodeId) -> NodeId {
    let nsel = b.not(sel).expect("valid cell fanin");
    let a0 = b.and2(nsel, lo).expect("valid cell fanin");
    let a1 = b.and2(sel, hi).expect("valid cell fanin");
    b.or2(a0, a1).expect("valid cell fanin")
}

/// Balanced tree of 2-input gates of the given kind over `leaves`.
///
/// # Panics
///
/// Panics if `leaves` is empty.
pub fn tree(b: &mut CircuitBuilder, kind: GateKind, leaves: &[NodeId]) -> NodeId {
    assert!(!leaves.is_empty(), "tree needs at least one leaf");
    let mut layer: Vec<NodeId> = leaves.to_vec();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            next.push(match pair {
                [a, y] => b.gate_auto(kind, &[*a, *y]).expect("valid cell fanin"),
                [a] => *a,
                _ => unreachable!(),
            });
        }
        layer = next;
    }
    layer[0]
}

/// Balanced XOR tree (odd parity) over `leaves`.
///
/// # Panics
///
/// Panics if `leaves` is empty.
pub fn xor_tree(b: &mut CircuitBuilder, leaves: &[NodeId]) -> NodeId {
    tree(b, GateKind::Xor, leaves)
}

/// Balanced AND tree over `leaves`.
///
/// # Panics
///
/// Panics if `leaves` is empty.
pub fn and_tree(b: &mut CircuitBuilder, leaves: &[NodeId]) -> NodeId {
    tree(b, GateKind::And, leaves)
}

/// Balanced OR tree over `leaves`.
///
/// # Panics
///
/// Panics if `leaves` is empty.
pub fn or_tree(b: &mut CircuitBuilder, leaves: &[NodeId]) -> NodeId {
    tree(b, GateKind::Or, leaves)
}

/// XOR built from four NAND gates (the expansion used by ISCAS-85's C1355,
/// which is C499 with its XORs replaced by NAND networks).
pub fn xor_from_nands(b: &mut CircuitBuilder, x: NodeId, y: NodeId) -> NodeId {
    let n1 = b
        .gate_auto(GateKind::Nand, &[x, y])
        .expect("valid cell fanin");
    let n2 = b
        .gate_auto(GateKind::Nand, &[x, n1])
        .expect("valid cell fanin");
    let n3 = b
        .gate_auto(GateKind::Nand, &[y, n1])
        .expect("valid cell fanin");
    b.gate_auto(GateKind::Nand, &[n2, n3])
        .expect("valid cell fanin")
}

/// Ripple-carry adder over equal-width operands; returns `(sum_bits, cout)`.
///
/// # Panics
///
/// Panics if the operand slices have different lengths or are empty.
pub fn ripple_adder(
    b: &mut CircuitBuilder,
    xs: &[NodeId],
    ys: &[NodeId],
    cin: NodeId,
) -> (Vec<NodeId>, NodeId) {
    assert_eq!(xs.len(), ys.len(), "operand widths must match");
    assert!(!xs.is_empty(), "adder needs at least one bit");
    let mut carry = cin;
    let mut sums = Vec::with_capacity(xs.len());
    for (&x, &y) in xs.iter().zip(ys) {
        let (s, c) = full_adder(b, x, y, carry);
        sums.push(s);
        carry = c;
    }
    (sums, carry)
}

/// Bitwise equality comparator: wide AND of per-bit XNORs.
///
/// Its output is the canonical random-pattern-resistant signal: under
/// equiprobable patterns it is 1 with probability `2^-width`.
///
/// # Panics
///
/// Panics if the operand slices have different lengths or are empty.
pub fn equality(b: &mut CircuitBuilder, xs: &[NodeId], ys: &[NodeId]) -> NodeId {
    assert_eq!(xs.len(), ys.len(), "operand widths must match");
    let bits: Vec<NodeId> = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| {
            b.gate_auto(GateKind::Xnor, &[x, y])
                .expect("valid cell fanin")
        })
        .collect();
    and_tree(b, &bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::{Circuit, CircuitBuilder};

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
    fn full_adder_truth_table() {
        let mut b = CircuitBuilder::named("fa");
        let x = b.input("x");
        let y = b.input("y");
        let cin = b.input("cin");
        let (s, c) = full_adder(&mut b, x, y, cin);
        b.mark_output(s);
        b.mark_output(c);
        let circuit = b.build().unwrap();
        for v in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|i| (v >> i) & 1 == 1).collect();
            let total = bits.iter().filter(|&&x| x).count();
            let out = eval(&circuit, &bits);
            assert_eq!(out[0], total % 2 == 1, "sum for {bits:?}");
            assert_eq!(out[1], total >= 2, "carry for {bits:?}");
        }
    }

    #[test]
    fn mux_selects() {
        let mut b = CircuitBuilder::named("mux");
        let sel = b.input("sel");
        let lo = b.input("lo");
        let hi = b.input("hi");
        let m = mux2(&mut b, sel, lo, hi);
        b.mark_output(m);
        let c = b.build().unwrap();
        assert_eq!(eval(&c, &[false, true, false]), vec![true]); // sel=0 -> lo
        assert_eq!(eval(&c, &[true, true, false]), vec![false]); // sel=1 -> hi
    }

    #[test]
    fn xor_from_nands_is_xor() {
        let mut b = CircuitBuilder::named("xn");
        let x = b.input("x");
        let y = b.input("y");
        let g = xor_from_nands(&mut b, x, y);
        b.mark_output(g);
        let c = b.build().unwrap();
        for (vx, vy) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(eval(&c, &[vx, vy])[0], vx ^ vy);
        }
    }

    #[test]
    fn ripple_adder_adds() {
        let w = 6;
        let mut b = CircuitBuilder::named("add");
        let xs: Vec<_> = (0..w).map(|i| b.input(format!("x{i}"))).collect();
        let ys: Vec<_> = (0..w).map(|i| b.input(format!("y{i}"))).collect();
        let zero = b.const0();
        let (sums, cout) = ripple_adder(&mut b, &xs, &ys, zero);
        for s in &sums {
            b.mark_output(*s);
        }
        b.mark_output(cout);
        let c = b.build().unwrap();
        for (a_val, b_val) in [(0u32, 0u32), (5, 9), (63, 1), (33, 31), (63, 63)] {
            let mut assignment = Vec::new();
            for i in 0..w {
                assignment.push((a_val >> i) & 1 == 1);
            }
            for i in 0..w {
                assignment.push((b_val >> i) & 1 == 1);
            }
            let out = eval(&c, &assignment);
            let total = a_val + b_val;
            for (i, &bit) in out.iter().take(w).enumerate() {
                assert_eq!(bit, (total >> i) & 1 == 1, "{a_val}+{b_val} bit {i}");
            }
            assert_eq!(out[w], (total >> w) & 1 == 1, "{a_val}+{b_val} carry");
        }
    }

    #[test]
    fn equality_detects_only_equal() {
        let mut b = CircuitBuilder::named("eq");
        let xs: Vec<_> = (0..4).map(|i| b.input(format!("x{i}"))).collect();
        let ys: Vec<_> = (0..4).map(|i| b.input(format!("y{i}"))).collect();
        let eq = equality(&mut b, &xs, &ys);
        b.mark_output(eq);
        let c = b.build().unwrap();
        for a_val in 0..16u32 {
            for b_val in 0..16u32 {
                let mut assignment = Vec::new();
                for i in 0..4 {
                    assignment.push((a_val >> i) & 1 == 1);
                }
                for i in 0..4 {
                    assignment.push((b_val >> i) & 1 == 1);
                }
                assert_eq!(eval(&c, &assignment)[0], a_val == b_val);
            }
        }
    }

    #[test]
    fn trees_of_single_leaf_are_the_leaf() {
        let mut b = CircuitBuilder::named("t");
        let x = b.input("x");
        let t = and_tree(&mut b, &[x]);
        assert_eq!(t, x);
        let o = b.not(x).unwrap();
        b.mark_output(o);
        b.build().unwrap();
    }

    #[test]
    fn wide_trees_compute_their_function() {
        let n = 13;
        let mut b = CircuitBuilder::named("wide");
        let xs: Vec<_> = (0..n).map(|i| b.input(format!("x{i}"))).collect();
        let a = and_tree(&mut b, &xs);
        let o = or_tree(&mut b, &xs);
        let x = xor_tree(&mut b, &xs);
        b.mark_output(a);
        b.mark_output(o);
        b.mark_output(x);
        let c = b.build().unwrap();
        for v in [0u32, 1, 0x1FFF, 0x1234, 0x1FFE] {
            let bits: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
            let ones = bits.iter().filter(|&&q| q).count();
            let out = eval(&c, &bits);
            assert_eq!(out[0], ones == n);
            assert_eq!(out[1], ones > 0);
            assert_eq!(out[2], ones % 2 == 1);
        }
    }
}

//! The paper's S1: a 24-bit magnitude comparator built from six cascaded
//! TI SN7485 4-bit comparators, with the redundancies induced by the
//! tied-off cascade pins of the lowest cell removed (the paper notes
//! "where some redundancies are removed").

use wrt_circuit::{simplify, Circuit, CircuitBuilder, GateKind, NodeId};

use crate::cells::and_tree;

/// Instantiates one SN7485 4-bit magnitude comparator.
///
/// `a` and `b` are the 4-bit operands with index 0 = LSB; `gt_in`,
/// `lt_in`, `eq_in` are the cascade inputs from the next-lower slice.
/// Returns `(a_gt_b, a_lt_b, a_eq_b)`.
///
/// The gate network follows the TTL Data Book \[TI80\]: per-bit equality
/// via XNOR, then sum-of-products priority terms for the `>` and `<`
/// outputs and an AND for the `=` output.
pub fn sn7485(
    b: &mut CircuitBuilder,
    a_bits: [NodeId; 4],
    b_bits: [NodeId; 4],
    gt_in: NodeId,
    lt_in: NodeId,
    eq_in: NodeId,
) -> (NodeId, NodeId, NodeId) {
    // Per-bit equality, MSB = index 3.
    let eq: Vec<NodeId> = (0..4)
        .map(|i| {
            b.gate_auto(GateKind::Xnor, &[a_bits[i], b_bits[i]])
                .expect("valid fanin")
        })
        .collect();
    let nb: Vec<NodeId> = (0..4)
        .map(|i| b.not(b_bits[i]).expect("valid fanin"))
        .collect();
    let na: Vec<NodeId> = (0..4)
        .map(|i| b.not(a_bits[i]).expect("valid fanin"))
        .collect();

    // A>B terms, highest bit first: a3 b̄3, e3 a2 b̄2, e3 e2 a1 b̄1,
    // e3 e2 e1 a0 b̄0, e3 e2 e1 e0 · GTin.
    let mut gt_terms = Vec::new();
    let mut lt_terms = Vec::new();
    for i in (0..4).rev() {
        let mut gt_fan = vec![a_bits[i], nb[i]];
        let mut lt_fan = vec![na[i], b_bits[i]];
        for &e in eq.iter().skip(i + 1) {
            gt_fan.push(e);
            lt_fan.push(e);
        }
        gt_terms.push(b.gate_auto(GateKind::And, &gt_fan).expect("valid fanin"));
        lt_terms.push(b.gate_auto(GateKind::And, &lt_fan).expect("valid fanin"));
    }
    let all_eq = and_tree(b, &eq);
    let gt_cascade = b.and2(all_eq, gt_in).expect("valid fanin");
    let lt_cascade = b.and2(all_eq, lt_in).expect("valid fanin");
    gt_terms.push(gt_cascade);
    lt_terms.push(lt_cascade);

    let a_gt_b = b.gate_auto(GateKind::Or, &gt_terms).expect("valid fanin");
    let a_lt_b = b.gate_auto(GateKind::Or, &lt_terms).expect("valid fanin");
    let a_eq_b = b.and2(all_eq, eq_in).expect("valid fanin");
    (a_gt_b, a_lt_b, a_eq_b)
}

/// A `width`-bit magnitude comparator built from cascaded SN7485 cells.
///
/// Inputs are named `A0..A<width-1>` (LSB first) and likewise `B*`;
/// outputs are `AGTB`, `ALTB`, `AEQB`.  The lowest cell's cascade pins are
/// tied to `(0, 0, 1)` per the datasheet's single-word usage, and the
/// resulting constant logic is folded away with [`simplify`].
///
/// # Panics
///
/// Panics if `width` is zero or not a multiple of 4.
pub fn comparator(width: usize) -> Circuit {
    assert!(
        width > 0 && width.is_multiple_of(4),
        "width must be a positive multiple of 4"
    );
    let mut b = CircuitBuilder::named(format!("cmp{width}"));
    let a_in: Vec<NodeId> = (0..width).map(|i| b.input(format!("A{i}"))).collect();
    let b_in: Vec<NodeId> = (0..width).map(|i| b.input(format!("B{i}"))).collect();
    let mut gt = b.const0();
    let mut lt = b.const0();
    let mut eq = b.const1();
    for slice in 0..width / 4 {
        let base = slice * 4;
        let a4 = [a_in[base], a_in[base + 1], a_in[base + 2], a_in[base + 3]];
        let b4 = [b_in[base], b_in[base + 1], b_in[base + 2], b_in[base + 3]];
        let (g, l, e) = sn7485(&mut b, a4, b4, gt, lt, eq);
        gt = g;
        lt = l;
        eq = e;
    }
    let gt_named = b.gate(GateKind::Buf, "AGTB", &[gt]).expect("valid fanin");
    let lt_named = b.gate(GateKind::Buf, "ALTB", &[lt]).expect("valid fanin");
    let eq_named = b.gate(GateKind::Buf, "AEQB", &[eq]).expect("valid fanin");
    b.mark_output(gt_named);
    b.mark_output(lt_named);
    b.mark_output(eq_named);
    simplify(&b.build().expect("generator produces valid circuits"))
}

/// The paper's S1: `comparator(24)` (six SN7485s, redundancies removed).
///
/// Its `AEQB` output is 1 with probability `2^-24` under equiprobable
/// random patterns — the root cause of the 5.6·10⁸ conventional test
/// length in Table 1.
pub fn s1() -> Circuit {
    let mut c = comparator(24);
    // Rename for reporting.
    c = rename(c, "s1");
    c
}

pub(crate) fn rename(c: Circuit, name: &str) -> Circuit {
    // Circuits are immutable; rebuild with the new name via bench roundtrip
    // would be wasteful.  Use the parser-independent path: serialize is
    // unnecessary — Circuit has no rename API by design, so we rebuild
    // through the builder.
    let mut b = CircuitBuilder::named(name);
    let mut map = vec![None; c.num_nodes()];
    for (id, node) in c.iter() {
        let new = match node.kind() {
            wrt_circuit::GateKind::Input => b.input(node.name()),
            kind => {
                let fanin: Vec<NodeId> = node
                    .fanin()
                    .iter()
                    .map(|f| map[f.index()].expect("topological order"))
                    .collect();
                b.gate(kind, node.name(), &fanin)
                    .expect("copy of valid circuit")
            }
        };
        map[id.index()] = Some(new);
    }
    for &o in c.outputs() {
        b.mark_output(map[o.index()].expect("outputs exist"));
    }
    b.build().expect("copy of valid circuit")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::GateKind;

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

    fn compare_words(c: &Circuit, width: usize, a: u64, b: u64) -> (bool, bool, bool) {
        let mut assignment = Vec::new();
        for i in 0..width {
            assignment.push((a >> i) & 1 == 1);
        }
        for i in 0..width {
            assignment.push((b >> i) & 1 == 1);
        }
        let out = eval(c, &assignment);
        (out[0], out[1], out[2])
    }

    #[test]
    fn four_bit_cell_is_a_correct_comparator() {
        let c = comparator(4);
        for a in 0..16u64 {
            for b in 0..16u64 {
                let (gt, lt, eq) = compare_words(&c, 4, a, b);
                assert_eq!(gt, a > b, "{a} > {b}");
                assert_eq!(lt, a < b, "{a} < {b}");
                assert_eq!(eq, a == b, "{a} == {b}");
            }
        }
    }

    #[test]
    fn eight_bit_cascade_is_correct() {
        let c = comparator(8);
        for (a, b) in [
            (0u64, 0u64),
            (255, 255),
            (128, 127),
            (127, 128),
            (200, 200),
            (1, 254),
            (16, 16),
            (17, 16),
        ] {
            let (gt, lt, eq) = compare_words(&c, 8, a, b);
            assert_eq!((gt, lt, eq), (a > b, a < b, a == b), "{a} vs {b}");
        }
    }

    #[test]
    fn s1_shape_matches_paper() {
        let c = s1();
        assert_eq!(c.name(), "s1");
        assert_eq!(c.num_inputs(), 48);
        assert_eq!(c.num_outputs(), 3);
        // Six 7485s, a couple hundred gates after redundancy removal.
        assert!(c.num_gates() > 100, "got {}", c.num_gates());
        assert!(c.num_gates() < 400, "got {}", c.num_gates());
    }

    #[test]
    fn s1_spot_checks() {
        let c = s1();
        for (a, b) in [
            (0u64, 0u64),
            ((1 << 24) - 1, (1 << 24) - 1),
            (0x800000, 0x7FFFFF),
            (0x123456, 0x123456),
            (0x123456, 0x123457),
        ] {
            let (gt, lt, eq) = compare_words(&c, 24, a, b);
            assert_eq!((gt, lt, eq), (a > b, a < b, a == b), "{a:#x} vs {b:#x}");
        }
    }

    #[test]
    fn simplified_s1_contains_no_constants() {
        let c = s1();
        for (_, n) in c.iter() {
            assert!(
                !matches!(n.kind(), GateKind::Const0 | GateKind::Const1),
                "constant survived simplification: {}",
                n.name()
            );
        }
    }
}

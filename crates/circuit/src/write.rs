//! Writer for the ISCAS-85 `.bench` format.

use std::fmt::Write as _;

use crate::gate::GateKind;
use crate::netlist::Circuit;

/// Serializes a circuit to `.bench` text.
///
/// Constants (which `.bench` has no syntax for) are emitted as 1-input
/// AND/NAND of a self-evident always-true helper network; to keep the output
/// standard we instead encode `Const0`/`Const1` as `XOR(i, i)` /
/// `XNOR(i, i)` of the first primary input — these are logically constant
/// regardless of the input value, so a parse → write → parse roundtrip
/// preserves the Boolean function of every output.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = wrt_circuit::parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")?;
/// let text = wrt_circuit::to_bench(&c);
/// let c2 = wrt_circuit::parse_bench(&text)?;
/// assert_eq!(c2.num_gates(), c.num_gates());
/// # Ok(())
/// # }
/// ```
pub fn to_bench(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", circuit.name());
    let _ = writeln!(
        out,
        "# {} inputs, {} outputs, {} gates",
        circuit.num_inputs(),
        circuit.num_outputs(),
        circuit.num_gates()
    );
    for &i in circuit.inputs() {
        let _ = writeln!(out, "INPUT({})", circuit.node(i).name());
    }
    for &o in circuit.outputs() {
        let _ = writeln!(out, "OUTPUT({})", circuit.node(o).name());
    }
    let first_input_name = circuit.node(circuit.inputs()[0]).name().to_string();
    for (_, node) in circuit.iter() {
        match node.kind() {
            GateKind::Input => {}
            GateKind::Const0 => {
                let _ = writeln!(
                    out,
                    "{} = XOR({first_input_name}, {first_input_name})",
                    node.name()
                );
            }
            GateKind::Const1 => {
                let _ = writeln!(
                    out,
                    "{} = XNOR({first_input_name}, {first_input_name})",
                    node.name()
                );
            }
            kind => {
                let args: Vec<&str> = node
                    .fanin()
                    .iter()
                    .map(|&f| circuit.node(f).name())
                    .collect();
                let _ = writeln!(
                    out,
                    "{} = {}({})",
                    node.name(),
                    kind.bench_keyword(),
                    args.join(", ")
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_bench, CircuitBuilder, GateKind};

    #[test]
    fn roundtrip_preserves_structure() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nm = NAND(a, b)\ny = XOR(m, a)\nz = NOR(m, b)\n";
        let c1 = parse_bench(src).unwrap();
        let c2 = parse_bench(&to_bench(&c1)).unwrap();
        assert_eq!(c1.num_inputs(), c2.num_inputs());
        assert_eq!(c1.num_outputs(), c2.num_outputs());
        assert_eq!(c1.num_gates(), c2.num_gates());
        for (_, n) in c1.iter() {
            let id2 = c2.node_id(n.name()).unwrap();
            assert_eq!(c2.node(id2).kind(), n.kind());
        }
    }

    #[test]
    fn constants_encoded_functionally() {
        let mut b = CircuitBuilder::named("k");
        let a = b.input("a");
        let one = b.const1();
        let zero = b.const0();
        let g = b.gate(GateKind::And, "g", &[a, one]).unwrap();
        let h = b.gate(GateKind::Or, "h", &[g, zero]).unwrap();
        b.mark_output(h);
        let c = b.build().unwrap();
        let text = to_bench(&c);
        let c2 = parse_bench(&text).unwrap();
        // XOR(a,a) == 0 and XNOR(a,a) == 1, so h == a in both circuits.
        assert_eq!(c2.num_outputs(), 1);
        assert!(text.contains("XNOR(a, a)"));
        assert!(text.contains("XOR(a, a)"));
    }
}

//! Structural lint engine: named checks over netlists and circuits.
//!
//! Two sources feed one [`Finding`] stream:
//!
//! * **Text-level lints** ([`lint_bench_text`]) reuse the parser's own
//!   structural detectors ([`wrt_circuit::scan_bench_issues`]) to report
//!   every combinational loop, undriven net, and syntax problem in a
//!   `.bench` netlist — conditions a built [`Circuit`] cannot represent.
//! * **Circuit-level lints** ([`lint_circuit`], the [`Lint`] trait) check
//!   invariant-safe circuits for *semantic* defects: floating inputs,
//!   dead gates, and constant-valued gates (detected as SCOAP
//!   controllability degeneracy).
//!
//! A clean netlist produces an empty finding list; `wrt analyze --lint`
//! turns a non-empty list into a non-zero exit status.

use std::fmt;

use wrt_circuit::{Circuit, GateKind, NodeId, ParseBenchError};

use crate::scoap::{Scoap, SCOAP_INF};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but representable structure (dead logic, constants).
    Warning,
    /// The netlist is malformed (loops, undriven nets, syntax).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One lint finding, anchored to a signal and (for text lints) a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable lint identifier, e.g. `"dead-gate"`.
    pub lint: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// The primary signal the finding is about.
    pub signal: String,
    /// The node, when the finding came from a built circuit.
    pub node: Option<NodeId>,
    /// 1-based netlist line, when the finding came from text scanning.
    pub line: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.lint)?;
        if let Some(line) = self.line {
            write!(f, " line {line}")?;
        }
        write!(f, " `{}`: {}", self.signal, self.message)
    }
}

/// A named structural check over a built circuit.
///
/// Implementations receive the circuit plus precomputed SCOAP measures
/// (shared across all lints so each check stays O(circuit)).
pub trait Lint {
    /// Stable identifier used in reports and filtering.
    fn name(&self) -> &'static str;
    /// Runs the check, returning zero or more findings.
    fn check(&self, circuit: &Circuit, scoap: &Scoap) -> Vec<Finding>;
}

/// Primary inputs that drive nothing and are not outputs: a floating net.
pub struct FloatingInputLint;

impl Lint for FloatingInputLint {
    fn name(&self) -> &'static str {
        "floating-input"
    }

    fn check(&self, circuit: &Circuit, _scoap: &Scoap) -> Vec<Finding> {
        let mut out = Vec::new();
        for (id, node) in circuit.iter() {
            if node.kind() == GateKind::Input
                && circuit.fanout(id).is_empty()
                && !circuit.is_output(id)
            {
                out.push(Finding {
                    lint: self.name(),
                    severity: Severity::Warning,
                    signal: node.name().to_string(),
                    node: Some(id),
                    line: None,
                    message: "primary input drives no gate and is not an output".to_string(),
                });
            }
        }
        out
    }
}

/// Non-output gates with no fanout: their value can never be observed.
pub struct DeadGateLint;

impl Lint for DeadGateLint {
    fn name(&self) -> &'static str {
        "dead-gate"
    }

    fn check(&self, circuit: &Circuit, _scoap: &Scoap) -> Vec<Finding> {
        let mut out = Vec::new();
        for (id, node) in circuit.iter() {
            if node.kind() != GateKind::Input
                && circuit.fanout(id).is_empty()
                && !circuit.is_output(id)
            {
                out.push(Finding {
                    lint: self.name(),
                    severity: Severity::Warning,
                    signal: node.name().to_string(),
                    node: Some(id),
                    line: None,
                    message: "gate output is neither observed nor used".to_string(),
                });
            }
        }
        out
    }
}

/// Gates whose output provably cannot take one of the two logic values.
///
/// Detected as SCOAP controllability degeneracy: `cc0` or `cc1` saturated
/// at [`SCOAP_INF`] means no input assignment produces that value, so the
/// gate computes a constant.  Intentional `Const0`/`Const1` ties are not
/// flagged — the lint is about gates that *compute* a constant, which
/// usually means tied-off or miswired logic that [`wrt_circuit::simplify`]
/// would fold away.
pub struct ConstantGateLint;

impl Lint for ConstantGateLint {
    fn name(&self) -> &'static str {
        "constant-gate"
    }

    fn check(&self, circuit: &Circuit, scoap: &Scoap) -> Vec<Finding> {
        let mut out = Vec::new();
        for (id, node) in circuit.iter() {
            if matches!(
                node.kind(),
                GateKind::Input | GateKind::Const0 | GateKind::Const1
            ) {
                continue;
            }
            let (c0, c1) = (scoap.cc0(id), scoap.cc1(id));
            if c0 == SCOAP_INF || c1 == SCOAP_INF {
                let value = u8::from(c0 == SCOAP_INF);
                out.push(Finding {
                    lint: self.name(),
                    severity: Severity::Warning,
                    signal: node.name().to_string(),
                    node: Some(id),
                    line: None,
                    message: format!("gate output is constant {value} for every input assignment"),
                });
            }
        }
        out
    }
}

/// The built-in circuit-level lints, in reporting order.
pub fn builtin_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(FloatingInputLint),
        Box::new(DeadGateLint),
        Box::new(ConstantGateLint),
    ]
}

/// Runs every built-in circuit-level lint with shared SCOAP measures.
pub fn lint_circuit(circuit: &Circuit, scoap: &Scoap) -> Vec<Finding> {
    let mut out = Vec::new();
    for lint in builtin_lints() {
        out.extend(lint.check(circuit, scoap));
    }
    out
}

/// Text-level lints over a `.bench` netlist: combinational loops, undriven
/// nets, and syntax problems, each anchored to its netlist line.
///
/// Reuses the parser's structural detectors, so a netlist with no findings
/// here is guaranteed to get past [`wrt_circuit::parse_bench`]'s scanning
/// and dependency-resolution stages.
pub fn lint_bench_text(text: &str) -> Vec<Finding> {
    wrt_circuit::scan_bench_issues(text)
        .into_iter()
        .map(|issue| match issue {
            ParseBenchError::Cycle { path, line } => Finding {
                lint: "combinational-loop",
                severity: Severity::Error,
                signal: path.first().cloned().unwrap_or_default(),
                node: None,
                line: Some(line),
                message: format!("combinational cycle: {}", path.join(" -> ")),
            },
            ParseBenchError::UndefinedSignal { signal, sink, line } => Finding {
                lint: "undriven-net",
                severity: Severity::Error,
                signal,
                node: None,
                line: Some(line),
                message: format!("referenced by `{sink}` but never defined"),
            },
            ParseBenchError::Syntax { line, message } => Finding {
                lint: "syntax",
                severity: Severity::Error,
                signal: String::new(),
                node: None,
                line: Some(line),
                message,
            },
            ParseBenchError::Build(e) => Finding {
                lint: "structure",
                severity: Severity::Error,
                signal: String::new(),
                node: None,
                line: None,
                message: e.to_string(),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;

    fn circuit_findings(text: &str) -> Vec<Finding> {
        let c = parse_bench(text).unwrap();
        let s = Scoap::compute(&c);
        lint_circuit(&c, &s)
    }

    #[test]
    fn clean_circuit_has_no_findings() {
        let f = circuit_findings("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn floating_input_is_flagged_with_its_name() {
        let f = circuit_findings("INPUT(a)\nINPUT(unused)\nOUTPUT(y)\ny = NOT(a)\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "floating-input");
        assert_eq!(f[0].signal, "unused");
        assert!(f[0].node.is_some());
    }

    #[test]
    fn input_wired_straight_to_output_is_not_floating() {
        let f = circuit_findings("INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(y)\ny = NOT(b)\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dead_gate_is_flagged() {
        let f =
            circuit_findings("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ndead = XOR(a, b)\ny = AND(a, b)\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "dead-gate");
        assert_eq!(f[0].signal, "dead");
    }

    #[test]
    fn constant_gate_is_flagged_via_scoap_degeneracy() {
        use wrt_circuit::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let zero = b.const0();
        let g = b.gate(GateKind::And, "tied", &[a, zero]).unwrap();
        let y = b.gate(GateKind::Or, "y", &[g, a]).unwrap();
        b.mark_output(y);
        let c = b.build().unwrap();
        let s = Scoap::compute(&c);
        let f = lint_circuit(&c, &s);
        let constant: Vec<_> = f.iter().filter(|f| f.lint == "constant-gate").collect();
        assert_eq!(constant.len(), 1, "{f:?}");
        assert_eq!(constant[0].signal, "tied");
        assert!(constant[0].message.contains("constant 0"));
    }

    #[test]
    fn text_lint_reports_loop_with_line_and_path() {
        let f = lint_bench_text("INPUT(a)\nOUTPUT(p)\np = AND(a, q)\nq = NOT(p)\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "combinational-loop");
        assert_eq!(f[0].severity, Severity::Error);
        assert_eq!(f[0].line, Some(4));
        assert!(f[0].message.contains("->"));
    }

    #[test]
    fn text_lint_reports_undriven_net_with_sink() {
        let f = lint_bench_text("INPUT(a)\nOUTPUT(y)\ny = OR(a, ghost)\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "undriven-net");
        assert_eq!(f[0].signal, "ghost");
        assert_eq!(f[0].line, Some(3));
        assert!(f[0].message.contains("`y`"));
    }

    #[test]
    fn findings_render_with_span() {
        let f = lint_bench_text("INPUT(a)\nOUTPUT(y)\ny = OR(a, ghost)\n");
        let s = f[0].to_string();
        assert!(s.contains("error[undriven-net]"), "{s}");
        assert!(s.contains("line 3"), "{s}");
        assert!(s.contains("`ghost`"), "{s}");
    }
}

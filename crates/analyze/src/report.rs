//! Combined analysis report: SCOAP summary + census + lint findings.
//!
//! [`analyze`] is the one-call entry point the CLI uses: it computes the
//! SCOAP measures once, runs every built-in lint against them, takes the
//! structural census, and summarizes fault difficulty over the collapsed
//! checkpoint fault set.  The report renders as a human-readable block
//! ([`fmt::Display`]) or machine-readable JSON ([`AnalysisReport::to_json`],
//! hand-rolled like the bench artifacts — no serde in the workspace).

use std::fmt;

use wrt_circuit::Circuit;
use wrt_fault::FaultList;

use crate::census::{census, StructureCensus};
use crate::lint::{lint_circuit, Finding};
use crate::scoap::{Scoap, SCOAP_INF};

/// Summary of per-fault SCOAP costs over the collapsed checkpoint faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoapSummary {
    /// Number of faults summarized.
    pub faults: usize,
    /// Faults with infinite cost (structurally undetectable).
    pub undetectable: usize,
    /// Median finite cost (0 when no finite costs exist).
    pub median_cost: u32,
    /// Maximum finite cost (0 when no finite costs exist).
    pub max_cost: u32,
    /// The hardest finite-cost faults, as `(description, cost)`, hardest
    /// first (at most five).
    pub hardest: Vec<(String, u32)>,
}

/// Everything the static analysis pass knows about one circuit.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Circuit name.
    pub circuit: String,
    /// Process-local circuit uid (registry handle; not stable across
    /// processes).
    pub uid: u64,
    /// Stable structural digest of the netlist.
    pub digest: u64,
    /// Node, input, and output counts.
    pub nodes: usize,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Levelized depth.
    pub depth: u32,
    /// SCOAP fault-difficulty summary.
    pub scoap: ScoapSummary,
    /// FFR / reconvergence census.
    pub census: StructureCensus,
    /// Circuit-level lint findings.
    pub findings: Vec<Finding>,
}

/// Runs the full simulation-free analysis pass over a circuit.
///
/// # Example
///
/// ```
/// use wrt_circuit::parse_bench;
///
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
/// let report = wrt_analyze::analyze(&c);
/// assert!(report.findings.is_empty());
/// assert!(report.census.cop_exact);
/// # Ok(())
/// # }
/// ```
pub fn analyze(circuit: &Circuit) -> AnalysisReport {
    let scoap = Scoap::compute(circuit);
    let findings = lint_circuit(circuit, &scoap);
    let census = census(circuit);

    // Checkpoint lists come out already collapsed.
    let faults = FaultList::checkpoints(circuit);
    let mut costed: Vec<(u32, String)> = faults
        .as_slice()
        .iter()
        .map(|&f| (scoap.fault_cost(circuit, f), f.describe(circuit)))
        .collect();
    let undetectable = costed.iter().filter(|&&(c, _)| c == SCOAP_INF).count();
    let mut finite: Vec<u32> = costed
        .iter()
        .filter(|&&(c, _)| c < SCOAP_INF)
        .map(|&(c, _)| c)
        .collect();
    finite.sort_unstable();
    let median_cost = finite.get(finite.len() / 2).copied().unwrap_or(0);
    let max_cost = finite.last().copied().unwrap_or(0);
    costed.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let hardest: Vec<(String, u32)> = costed
        .iter()
        .filter(|&&(c, _)| c < SCOAP_INF)
        .take(5)
        .map(|(c, d)| (d.clone(), *c))
        .collect();

    AnalysisReport {
        circuit: circuit.name().to_string(),
        uid: circuit.uid(),
        digest: circuit.structural_digest(),
        nodes: circuit.num_nodes(),
        inputs: circuit.num_inputs(),
        outputs: circuit.num_outputs(),
        depth: circuit.levels().depth(),
        scoap: ScoapSummary {
            faults: faults.len(),
            undetectable,
            median_cost,
            max_cost,
            hardest,
        },
        census,
        findings,
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} nodes, {} inputs, {} outputs, depth {}",
            self.circuit, self.nodes, self.inputs, self.outputs, self.depth
        )?;
        writeln!(
            f,
            "  structure: {} FFRs (largest {}), {} fanout stems, {} reconvergent — COP {}",
            self.census.ffr_count,
            self.census.max_ffr_size,
            self.census.fanout_stems,
            self.census.reconvergent_stems,
            if self.census.cop_exact {
                "exact"
            } else {
                "heuristic"
            }
        )?;
        writeln!(
            f,
            "  scoap: {} checkpoint faults, median cost {}, max {}, {} undetectable",
            self.scoap.faults, self.scoap.median_cost, self.scoap.max_cost, self.scoap.undetectable
        )?;
        for (desc, cost) in &self.scoap.hardest {
            writeln!(f, "    hard: {desc} (cost {cost})")?;
        }
        if self.findings.is_empty() {
            writeln!(f, "  lints: clean")?;
        } else {
            writeln!(f, "  lints: {} finding(s)", self.findings.len())?;
            for finding in &self.findings {
                writeln!(f, "    {finding}")?;
            }
        }
        Ok(())
    }
}

impl AnalysisReport {
    /// Machine-readable JSON rendering of the report.
    pub fn to_json(&self) -> String {
        let hardest: Vec<String> = self
            .scoap
            .hardest
            .iter()
            .map(|(d, c)| format!("{{\"fault\": {}, \"cost\": {c}}}", json_str(d)))
            .collect();
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|fd| {
                format!(
                    "{{\"lint\": {}, \"severity\": {}, \"signal\": {}, \"message\": {}}}",
                    json_str(fd.lint),
                    json_str(&fd.severity.to_string()),
                    json_str(&fd.signal),
                    json_str(&fd.message)
                )
            })
            .collect();
        format!(
            "{{\n  \"circuit\": {},\n  \"uid\": {},\n  \"digest\": \"{:016x}\",\n  \"nodes\": {},\n  \"inputs\": {},\n  \"outputs\": {},\n  \"depth\": {},\n  \"ffr_count\": {},\n  \"max_ffr_size\": {},\n  \"fanout_stems\": {},\n  \"reconvergent_stems\": {},\n  \"cop_exact\": {},\n  \"scoap_faults\": {},\n  \"scoap_undetectable\": {},\n  \"scoap_median_cost\": {},\n  \"scoap_max_cost\": {},\n  \"scoap_hardest\": [{}],\n  \"findings\": [{}]\n}}\n",
            json_str(&self.circuit),
            self.uid,
            self.digest,
            self.nodes,
            self.inputs,
            self.outputs,
            self.depth,
            self.census.ffr_count,
            self.census.max_ffr_size,
            self.census.fanout_stems,
            self.census.reconvergent_stems,
            self.census.cop_exact,
            self.scoap.faults,
            self.scoap.undetectable,
            self.scoap.median_cost,
            self.scoap.max_cost,
            hardest.join(", "),
            findings.join(", ")
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;

    #[test]
    fn report_summarizes_a_clean_circuit() {
        let c =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(d)\nOUTPUT(y)\nm = AND(a, b)\ny = OR(m, d)\n")
                .unwrap();
        let r = analyze(&c);
        assert_eq!(r.inputs, 3);
        assert!(r.findings.is_empty());
        assert_eq!(r.scoap.undetectable, 0);
        assert!(r.scoap.max_cost >= r.scoap.median_cost);
        assert!(!r.scoap.hardest.is_empty());
    }

    #[test]
    fn report_counts_undetectable_faults_on_tied_logic() {
        use wrt_circuit::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let zero = b.const0();
        let g = b.gate(GateKind::And, "g", &[a, zero]).unwrap();
        let y = b.gate(GateKind::Or, "y", &[g, a]).unwrap();
        b.mark_output(y);
        let c = b.build().unwrap();
        let r = analyze(&c);
        assert!(r.scoap.undetectable > 0);
        assert!(r.findings.iter().any(|f| f.lint == "constant-gate"));
    }

    #[test]
    fn display_and_json_render() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let r = analyze(&c);
        let text = r.to_string();
        assert!(text.contains("lints: clean"), "{text}");
        assert!(text.contains("COP exact"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"cop_exact\": true"), "{json}");
        assert!(json.contains("\"findings\": []"), "{json}");
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}

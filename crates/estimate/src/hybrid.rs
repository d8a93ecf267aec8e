//! Hybrid analytic engine: exact local cones, COP globally.
//!
//! The paper names "a new version of PREDICT \[ABS86\]" as an alternative
//! ANALYSIS tool; PREDICT's idea is to compute probabilities *exactly
//! inside supergates* and propagate independently between them.  This
//! engine follows that recipe pragmatically: every signal whose input
//! support fits a budget gets its exact probability
//! ([`exact_signal_probability`]); everything else falls back to the one
//! COP recurrence over the (partially corrected) fanin probabilities.
//! Observabilities and the detection model are COP's own, so a budget of
//! zero gives exactly [`crate::CopEngine`]'s estimates.  The result
//! strictly improves on plain COP wherever reconvergence is local —
//! XOR/ECC structures especially — at bounded extra cost.

use wrt_circuit::{Circuit, NodeId};
use wrt_fault::FaultList;

use crate::cop::forward_on;
use crate::engine::DetectionProbabilityEngine;
use crate::exact::exact_signal_probability;
use crate::overlay::CopSolution;

/// COP with exact small-support correction (a PREDICT-style estimator).
#[derive(Debug, Clone)]
pub struct HybridEngine {
    /// Signals with input support up to this size are computed exactly.
    pub support_limit: usize,
}

impl HybridEngine {
    /// Creates the engine; a limit of 12–16 is a good cost/accuracy spot.
    pub fn new(support_limit: usize) -> Self {
        HybridEngine { support_limit }
    }

    /// Signal probabilities: exact where the support budget allows,
    /// COP recurrence elsewhere.
    pub fn signal_probabilities(&self, circuit: &Circuit, input_probs: &[f64]) -> Vec<f64> {
        assert_eq!(input_probs.len(), circuit.num_inputs());
        let mut p = vec![0.0f64; circuit.num_nodes()];
        for i in 0..circuit.num_nodes() {
            let id = NodeId::from_index(i);
            match exact_signal_probability(circuit, id, input_probs, self.support_limit) {
                Some(exact) => p[i] = exact,
                None => forward_on(circuit, &|k| input_probs[k], [i], &mut p),
            }
        }
        p
    }
}

impl DetectionProbabilityEngine for HybridEngine {
    fn estimate(&mut self, circuit: &Circuit, faults: &FaultList, input_probs: &[f64]) -> Vec<f64> {
        let p = self.signal_probabilities(circuit, input_probs);
        CopSolution::from_signal_probabilities(circuit, input_probs, p)
            .detection_probabilities(circuit, faults)
    }

    fn name(&self) -> &'static str {
        "hybrid-exact-local"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal_probabilities_cop;
    use wrt_circuit::parse_bench;

    #[test]
    fn corrects_the_classic_cop_error() {
        // y = AND(a, NOT a): COP says 0.25, exact says 0.
        let c =
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nn = NOT(a)\ny = AND(a, n)\nz = OR(y, b)\n")
                .unwrap();
        let engine = HybridEngine::new(8);
        let p = engine.signal_probabilities(&c, &[0.5, 0.5]);
        let y = c.node_id("y").unwrap();
        assert_eq!(p[y.index()], 0.0);
        let cop = signal_probabilities_cop(&c, &[0.5, 0.5]);
        assert_eq!(cop[y.index()], 0.25);
    }

    #[test]
    fn exact_within_budget_everywhere() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
             m = XOR(a, b)\nn = XNOR(b, c)\ny = AND(m, n)\nz = NOR(m, a)\n",
        )
        .unwrap();
        let probs = [0.3, 0.6, 0.8];
        let engine = HybridEngine::new(8);
        let p = engine.signal_probabilities(&c, &probs);
        for id in c.ids() {
            let exact = exact_signal_probability(&c, id, &probs, 10).unwrap();
            assert!(
                (p[id.index()] - exact).abs() < 1e-12,
                "node {id}: {} vs {exact}",
                p[id.index()]
            );
        }
    }

    #[test]
    fn budget_zero_degenerates_to_cop() {
        let cases = [
            (
                "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = AND(a, n)\n",
                vec![0.5],
            ),
            (
                "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
                 m = XOR(a, b)\nn = XNOR(b, c)\nk = NOR(m, c)\ny = NAND(n, k)\n\
                 z = XNOR(y, m, a)\n",
                vec![0.13, 0.04, 0.62],
            ),
        ];
        for (src, probs) in cases {
            let c = parse_bench(src).unwrap();
            let mut engine = HybridEngine::new(0);
            let p = engine.signal_probabilities(&c, &probs);
            let cop = signal_probabilities_cop(&c, &probs);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p), bits(&cop), "{src}");
            let faults = wrt_fault::FaultList::checkpoints(&c);
            let hybrid = engine.estimate(&c, &faults, &probs);
            let cop = crate::CopEngine::new().estimate(&c, &faults, &probs);
            assert_eq!(bits(&hybrid), bits(&cop), "{src}");
        }
    }

    #[test]
    fn supports_beyond_the_enumeration_cap_fall_back_to_cop() {
        // 2^64 assignments cannot be enumerated; COP is exact on the tree.
        let names: Vec<String> = (0..64).map(|i| format!("x{i}")).collect();
        let src = format!(
            "INPUT({})\nOUTPUT(y)\ny = AND({})\n",
            names.join(")\nINPUT("),
            names.join(", ")
        );
        let c = parse_bench(&src).unwrap();
        let y = c.node_id("y").unwrap();
        let p = HybridEngine::new(64).signal_probabilities(&c, &[0.5; 64]);
        assert_eq!(p[y.index()], 0.5f64.powi(64));
    }

    #[test]
    fn works_as_a_detection_engine_on_ecc() {
        // On the C499-like circuit, the hybrid engine is at least as close
        // to the BDD-exact values as plain COP, measured on PI faults.
        let c = wrt_workloads::c499ish();
        let faults = wrt_fault::FaultList::primary_inputs(&c);
        let probs = vec![0.5; c.num_inputs()];
        let exact = crate::BddEngine::new(4_000_000).estimate(&c, &faults, &probs);
        let hybrid = HybridEngine::new(12).estimate(&c, &faults, &probs);
        let cop = crate::CopEngine::new().estimate(&c, &faults, &probs);
        let err = |xs: &[f64]| -> f64 {
            xs.iter()
                .zip(&exact)
                .map(|(x, e)| (x - e).abs())
                .sum::<f64>()
                / exact.len() as f64
        };
        assert!(
            err(&hybrid) <= err(&cop) + 1e-12,
            "hybrid {} vs cop {}",
            err(&hybrid),
            err(&cop)
        );
    }
}

//! Estimator-accuracy study: each heuristic ANALYSIS engine against the
//! exact BDD engine on circuits where exactness is still tractable.
//!
//! This quantifies the estimation error the optimizer lives with — the
//! caveat behind the paper's reliance on PROTEST estimates.
//!
//! Run with `cargo run --release -p wrt-bench --bin accuracy`.

use wrt_estimate::{
    BddEngine, CopEngine, DetectionProbabilityEngine, HybridEngine, MonteCarloEngine, StafanEngine,
};
use wrt_fault::FaultList;

fn main() {
    println!("Estimator accuracy vs. exact BDD probabilities");
    println!();
    for name in ["c432ish", "c880ish", "c499ish"] {
        let circuit = wrt_workloads::by_name(name).expect("registered");
        let faults = FaultList::primary_inputs(&circuit);
        let probs = vec![0.5; circuit.num_inputs()];
        let exact = BddEngine::new(4_000_000).estimate(&circuit, &faults, &probs);

        println!("{name} ({} primary-input faults):", faults.len());
        let mut engines: Vec<Box<dyn DetectionProbabilityEngine>> = vec![
            Box::new(CopEngine::new()),
            Box::new(HybridEngine::new(14)),
            Box::new(StafanEngine::new(16_384, 7)),
            Box::new(MonteCarloEngine::new(16_384, 7)),
        ];
        for engine in engines.iter_mut() {
            let estimate = engine.estimate(&circuit, &faults, &probs);
            let mut max_err = 0.0f64;
            let mut sum_err = 0.0f64;
            for (e, x) in exact.iter().zip(&estimate) {
                let err = (e - x).abs();
                max_err = max_err.max(err);
                sum_err += err;
            }
            println!(
                "  {:<20} mean |err| {:.4}   max |err| {:.4}",
                engine.name(),
                sum_err / exact.len() as f64,
                max_err
            );
        }
        println!();
    }
}

//! Quickstart: make a random-pattern-resistant circuit testable.
//!
//! Builds a small circuit with one hard fault class (a wide AND), shows
//! that a conventional random test would need hundreds of thousands of
//! patterns, computes optimized input probabilities, and verifies the
//! improvement by fault simulation.
//!
//! Run with `cargo run --release --example quickstart`.

use wrt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16-input AND detector feeding a parity network: the AND output
    // stuck-at-0 needs the all-ones pattern (probability 2^-16).
    let mut src = String::from("OUTPUT(flag)\nOUTPUT(par)\n");
    let mut names = Vec::new();
    for i in 0..16 {
        src.push_str(&format!("INPUT(x{i})\n"));
        names.push(format!("x{i}"));
    }
    src.push_str(&format!("flag = AND({})\n", names.join(", ")));
    src.push_str(&format!("par = XOR({})\n", names.join(", ")));
    let circuit = wrt::circuit::parse_bench(&src)?;
    println!("circuit: {circuit}");

    // The fault universe: checkpoint faults, equivalence collapsed.
    let faults = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
    println!("fault list: {} collapsed checkpoint faults", faults.len());

    // How long would a conventional random test need?
    let mut engine = CopEngine::new();
    let conventional = engine.estimate(&circuit, &faults, &[0.5; 16]);
    let n_conv = required_test_length(&conventional, 1e-3);
    println!(
        "conventional test length (99.9 % confidence): {:.3e}",
        n_conv.patterns()
    );

    // Optimize the input probabilities.
    let result = optimize(&circuit, &faults, &mut engine, &OptimizeConfig::default());
    println!(
        "optimized test length: {:.3e}  (improvement factor {:.0})",
        result.final_length,
        result.improvement_factor()
    );
    let weights = quantize_weights(&result.weights, 0.05);
    println!("optimized weights (0.05 grid): {weights:?}");

    // Verify by simulation: 4096 weighted patterns.
    let optimized_cov = fault_coverage(
        &circuit,
        &faults,
        WeightedPatterns::new(weights, 1),
        4096,
        true,
    );
    let conventional_cov = fault_coverage(
        &circuit,
        &faults,
        WeightedPatterns::equiprobable(16, 1),
        4096,
        true,
    );
    println!("coverage after 4096 conventional patterns: {conventional_cov}");
    println!("coverage after 4096 optimized   patterns: {optimized_cov}");
    Ok(())
}

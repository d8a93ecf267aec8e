//! Accelerating test generation with optimized random patterns (§5.2).
//!
//! "The optimizing procedure can also support deterministic test pattern
//! generation, since the computing time of optimizing and simulation
//! together is less than computing test patterns by the D-algorithm.
//! Fault simulation of optimized patterns can provide nearly complete
//! fault coverage in economical time."
//!
//! This example plays that flow on the C2670 analogue: simulate optimized
//! random patterns with fault dropping, then hand only the leftover
//! faults to a real PODEM run, and compare with ATPG-from-scratch.
//!
//! Run with `cargo run --release --example atpg_acceleration`.

use wrt::prelude::*;

fn main() {
    let circuit = wrt::workloads::c2670ish();
    println!("circuit: {circuit}");
    let faults = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
    println!("targeting {} collapsed faults", faults.len());

    let mut engine = CopEngine::new();
    let optimized = optimize(&circuit, &faults, &mut engine, &OptimizeConfig::default());
    let weights = quantize_weights(&optimized.weights, 0.05);

    let budget = 4_000;
    let mut leftovers_by_label = Vec::new();
    for (label, w) in [
        ("conventional", vec![0.5; circuit.num_inputs()]),
        ("optimized", weights),
    ] {
        let result = fault_coverage(
            &circuit,
            &faults,
            WeightedPatterns::new(w, 0xA77),
            budget,
            true,
        );
        // The compact test set: first-detection pattern indices.
        let mut kept: Vec<u64> = result.detected_at().iter().flatten().copied().collect();
        kept.sort_unstable();
        kept.dedup();
        let leftovers: FaultList = faults
            .iter()
            .zip(result.detected_at())
            .filter(|(_, d)| d.is_none())
            .map(|((_, f), _)| f)
            .collect();
        println!();
        println!("{label} random patterns ({budget} applied):");
        println!(
            "  fault coverage        : {:.1} %",
            result.coverage() * 100.0
        );
        println!("  compact test set size : {} patterns", kept.len());
        println!("  faults left for ATPG  : {}", leftovers.len());
        leftovers_by_label.push((label, leftovers));
    }

    // Now the deterministic mop-up: PODEM only on what random missed.
    println!();
    for (label, leftovers) in &leftovers_by_label {
        let t0 = std::time::Instant::now();
        let report = generate_tests(&circuit, leftovers, &AtpgConfig::default());
        println!(
            "PODEM mop-up after {label:12}: {} calls, {} tests, {} redundant, {:.1?}",
            report.podem_calls,
            report.tests.len(),
            report.redundant.len(),
            t0.elapsed()
        );
    }
    let t0 = std::time::Instant::now();
    let scratch = generate_tests(&circuit, &faults, &AtpgConfig::default());
    println!(
        "PODEM from scratch          : {} calls, {} tests, {} redundant, {:.1?}",
        scratch.podem_calls,
        scratch.tests.len(),
        scratch.redundant.len(),
        t0.elapsed()
    );
    println!();
    println!("optimized random patterns leave the fewest faults for the");
    println!("expensive deterministic generator — the paper's §5.2 argument.");
}

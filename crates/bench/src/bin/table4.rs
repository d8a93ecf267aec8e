//! Table 4: fault coverage by simulation of optimized random patterns
//! (starred circuits, weights quantized to the appendix's 0.05 grid).
//!
//! Run with `cargo run --release -p wrt-bench --bin table4`.

fn main() {
    println!("Table 4: fault coverage, optimized random patterns (0.05 grid)");
    println!();
    println!(
        "  {:<10} {:>9} {:>12} {:>10}",
        "Circuit", "patterns", "measured", "paper"
    );
    for row in wrt_bench::paper::starred() {
        let circuit = wrt_workloads::by_name(row.name).expect("registered");
        let faults = wrt_estimate::experiment_faults(&circuit);
        let patterns = row.sim_patterns.expect("starred rows simulate");
        let optimized = wrt_bench::optimize_circuit(&circuit, &faults);
        let weights = wrt_core::quantize_weights(&optimized.weights, 0.05);
        let result =
            wrt_bench::simulate_coverage(&circuit, &faults, &weights, patterns, 0xBEEF);
        println!(
            "  {:<10} {:>9} {:>12} {:>9.1} %",
            row.paper_name,
            patterns,
            wrt_bench::fmt_pct(result.coverage()),
            row.optimized_coverage.expect("starred"),
        );
    }
}

//! Table 2: fault coverage by simulation of conventional random patterns
//! (starred circuits, the paper's pattern counts).
//!
//! Run with `cargo run --release -p wrt-bench --bin table2`.

fn main() {
    println!("Table 2: fault coverage, conventional random patterns (p = 0.5)");
    println!();
    println!(
        "  {:<10} {:>9} {:>12} {:>10}",
        "Circuit", "patterns", "measured", "paper"
    );
    for row in wrt_bench::paper::starred() {
        let circuit = wrt_workloads::by_name(row.name).expect("registered");
        let faults = wrt_estimate::experiment_faults(&circuit);
        let patterns = row.sim_patterns.expect("starred rows simulate");
        let result = wrt_bench::simulate_coverage(
            &circuit,
            &faults,
            &vec![0.5; circuit.num_inputs()],
            patterns,
            0xC0DE,
        );
        println!(
            "  {:<10} {:>9} {:>12} {:>9.1} %",
            row.paper_name,
            patterns,
            wrt_bench::fmt_pct(result.coverage()),
            row.conventional_coverage.expect("starred"),
        );
    }
}

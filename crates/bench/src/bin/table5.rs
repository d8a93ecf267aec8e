//! Table 5: CPU time for optimizing input probabilities.
//!
//! The paper reports seconds on a 2.5 MIPS SIEMENS 7561; absolute numbers
//! are incomparable, the point is the *relative ordering* S1 < S2 <
//! C2670 < C7552 (cost grows with circuit and input count) and that the
//! optimization is tractable.
//!
//! Run with `cargo run --release -p wrt-bench --bin table5`.

use std::time::Instant;

fn main() {
    println!("Table 5: CPU time for optimizing input probabilities");
    println!();
    println!(
        "  {:<10} {:>12} {:>14} {:>17}",
        "Circuit", "measured", "engine calls", "paper (2.5 MIPS)"
    );
    for row in wrt_bench::paper::starred() {
        let circuit = wrt_workloads::by_name(row.name).expect("registered");
        let faults = wrt_estimate::experiment_faults(&circuit);
        let start = Instant::now();
        let result = wrt_bench::optimize_circuit(&circuit, &faults);
        let elapsed = start.elapsed();
        println!(
            "  {:<10} {:>12.1?} {:>14} {:>15.0} s",
            row.paper_name,
            elapsed,
            result.engine_calls,
            row.cpu_seconds.expect("starred"),
        );
    }
}

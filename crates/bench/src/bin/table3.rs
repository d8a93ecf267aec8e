//! Table 3: necessary test lengths for optimized random tests
//! (starred circuits).
//!
//! Run with `cargo run --release -p wrt-bench --bin table3`.

fn main() {
    println!("Table 3: necessary test lengths, optimized random test");
    println!();
    println!(
        "  {:<10} {:>14} {:>14} {:>14} {:>7}",
        "Circuit", "conventional", "optimized", "paper opt.", "sweeps"
    );
    for row in wrt_bench::paper::starred() {
        let circuit = wrt_workloads::by_name(row.name).expect("registered");
        let faults = wrt_estimate::experiment_faults(&circuit);
        let result = wrt_bench::optimize_circuit(&circuit, &faults);
        println!(
            "  {:<10} {:>14} {:>14} {:>14} {:>7}",
            row.paper_name,
            wrt_bench::fmt_sci(result.initial_length),
            wrt_bench::fmt_sci(result.final_length),
            wrt_bench::fmt_sci(row.optimized_length.expect("starred")),
            result.sweeps.len(),
        );
    }
}

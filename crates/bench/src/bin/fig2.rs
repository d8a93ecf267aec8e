//! Fig. 2: fault coverage vs. pattern count for S1, conventional vs.
//! optimized random patterns.
//!
//! Prints the two curves as aligned columns plus a crude ASCII plot.
//! Run with `cargo run --release -p wrt-bench --bin fig2`.

fn main() {
    let circuit = wrt_workloads::s1();
    let faults = wrt_estimate::experiment_faults(&circuit);
    let patterns = 12_000;

    let conventional = wrt_bench::simulate_coverage(
        &circuit,
        &faults,
        &vec![0.5; circuit.num_inputs()],
        patterns,
        7,
    );
    let optimized_weights = {
        let result = wrt_bench::optimize_circuit(&circuit, &faults);
        wrt_core::quantize_weights(&result.weights, 0.05)
    };
    let optimized =
        wrt_bench::simulate_coverage(&circuit, &faults, &optimized_weights, patterns, 9);

    let samples: Vec<u64> = vec![
        10, 20, 50, 100, 200, 500, 1000, 2000, 4000, 6000, 8000, 10_000, 12_000,
    ];
    let conv_curve = conventional.curve(&samples);
    let opt_curve = optimized.curve(&samples);

    println!("Fig. 2: fault coverage vs. pattern count (S1)");
    println!();
    println!(
        "  {:>9} {:>14} {:>14}",
        "patterns", "conventional", "optimized"
    );
    for (&(n, c), &(_, o)) in conv_curve.points.iter().zip(&opt_curve.points) {
        println!("  {:>9} {:>13.1} % {:>13.1} %", n, c * 100.0, o * 100.0);
    }
    println!();
    // ASCII plot: o = optimized, x = conventional, 50..100 % vertical.
    println!("  100%|");
    for tick in 0..10 {
        let level = 1.0 - 0.05 * f64::from(tick + 1);
        let mut line = String::new();
        for (&(_, c), &(_, o)) in conv_curve.points.iter().zip(&opt_curve.points) {
            let band = |v: f64| v >= level && v < level + 0.05;
            line.push_str(match (band(c), band(o)) {
                (true, true) => "  * ",
                (true, false) => "  x ",
                (false, true) => "  o ",
                (false, false) => "    ",
            });
        }
        println!("      |{line}");
    }
    println!("   50%+{}", "-".repeat(4 * conv_curve.points.len()));
    println!("       10   20   50  100  200  500   1k   2k   4k   6k   8k  10k  12k");
    println!();
    println!("  o = optimized random patterns, x = conventional, * = both");
    if opt_curve.dominates(&conv_curve) {
        println!("  The optimized curve dominates the conventional one (as in the paper).");
    } else {
        println!("  WARNING: the optimized curve does not dominate everywhere.");
    }
}

//! Appendix: optimized input probabilities, quantized to the 0.05 grid,
//! for S1 and the C7552 analogue — the same artifact the paper prints so
//! "a suspicious reader may verify" the coverage claims.
//!
//! Run with `cargo run --release -p wrt-bench --bin appendix`.

fn main() {
    for name in ["s1", "c7552ish"] {
        let circuit = wrt_workloads::by_name(name).expect("registered");
        let faults = wrt_estimate::experiment_faults(&circuit);
        let result = wrt_bench::optimize_circuit(&circuit, &faults);
        let quantized = wrt_core::quantize_weights(&result.weights, 0.05);

        println!("Optimized input probabilities for the circuit {name}");
        println!();
        // Group consecutive inputs with equal probability, paper style.
        let names: Vec<&str> = circuit
            .inputs()
            .iter()
            .map(|&i| circuit.node(i).name())
            .collect();
        let mut run_start = 0;
        for i in 1..=quantized.len() {
            if i == quantized.len() || (quantized[i] - quantized[run_start]).abs() > 1e-9 {
                let label = if i - run_start == 1 {
                    names[run_start].to_string()
                } else {
                    format!("{}-{}", names[run_start], names[i - 1])
                };
                println!("  {label:<12} {:.2}", quantized[run_start]);
                run_start = i;
            }
        }
        println!();
    }
}

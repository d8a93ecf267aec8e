//! Probabilistic testability report for a circuit — the PROTEST-style
//! analysis the optimizer is built on.
//!
//! For a chosen workload circuit this prints: structural statistics,
//! signal-probability bounds from the cutting algorithm, the hardest
//! faults under equiprobable inputs, proven redundancies, and the
//! estimated conventional test length.
//!
//! Run with `cargo run --release --example testability_report [name]`
//! where `name` is a workload (default `c432ish`; see
//! `wrt::workloads::WORKLOAD_NAMES`).

use wrt::prelude::*;
use wrt_estimate::{experiment_faults, signal_probability_bounds};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "c432ish".into());
    let Some(circuit) = wrt::workloads::by_name(&name) else {
        eprintln!(
            "unknown workload `{name}`; available: {:?}",
            wrt::workloads::WORKLOAD_NAMES
        );
        std::process::exit(1);
    };

    println!("{}", wrt::circuit::CircuitStats::of(&circuit));

    // Cutting-algorithm bounds: how much correlation uncertainty is there?
    let probs = vec![0.5; circuit.num_inputs()];
    let bounds = signal_probability_bounds(&circuit, &probs);
    let widths: Vec<f64> = circuit
        .ids()
        .map(|id| bounds.interval(id).width())
        .collect();
    let avg_width = widths.iter().sum::<f64>() / widths.len() as f64;
    let tight = widths.iter().filter(|w| **w < 1e-9).count();
    println!(
        "cutting bounds: {tight}/{} signals exact, mean interval width {avg_width:.3}",
        widths.len()
    );

    // Fault universe and redundancy proofs.
    let full = FaultList::full(&circuit);
    let checkpoints = FaultList::checkpoints(&circuit);
    let live = experiment_faults(&circuit);
    println!(
        "faults: {} full, {} checkpoints, {} proven redundant",
        full.len(),
        checkpoints.len(),
        checkpoints.len() - live.len()
    );

    // Hardest faults under equiprobable inputs.
    let mut engine = CopEngine::new();
    let estimates = engine.estimate(&circuit, &live, &probs);
    let mut order: Vec<usize> = (0..estimates.len()).collect();
    order.sort_by(|&a, &b| estimates[a].total_cmp(&estimates[b]));
    println!();
    println!("hardest faults at p = 0.5:");
    for &k in order.iter().take(8) {
        let fault = live.fault(wrt::fault::FaultId::from_index(k));
        println!("  {:<30} p = {:.3e}", fault.describe(&circuit), estimates[k]);
    }

    let detectable: Vec<f64> = estimates.iter().copied().filter(|&p| p > 0.0).collect();
    let tl = required_test_length(&detectable, 1e-3);
    println!();
    println!(
        "conventional random test length (99.9 % confidence): {:.3e} patterns, {} relevant faults",
        tl.patterns(),
        tl.num_relevant()
    );
}

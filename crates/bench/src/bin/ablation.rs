//! Ablation of the two additions our OPTIMIZE makes on top of the
//! paper's §4 procedure: symmetry-breaking start jitter and coordinate
//! under-relaxation (damping).  EXPERIMENTS.md's "known divergences"
//! entry 4 documents why they exist; this binary shows what happens
//! without them.
//!
//! Run with `cargo run --release -p wrt-bench --bin ablation`.

use wrt_core::OptimizeConfig;
use wrt_estimate::CopEngine;

fn run(name: &str, config: &OptimizeConfig) -> (f64, f64) {
    let circuit = wrt_workloads::by_name(name).expect("registered");
    let faults = wrt_estimate::experiment_faults(&circuit);
    let mut engine = CopEngine::new();
    let result = wrt_core::optimize(&circuit, &faults, &mut engine, config);
    (result.initial_length, result.final_length)
}

fn main() {
    println!("Optimizer ablation: start jitter and damping");
    println!();
    println!(
        "  {:<10} {:>14} {:>14} {:>14} {:>14}",
        "Circuit", "initial", "default", "no jitter", "no damping"
    );
    let default = wrt_bench::experiment_config();
    let no_jitter = OptimizeConfig {
        jitter: 0.0,
        ..default.clone()
    };
    let no_damping = OptimizeConfig {
        damping: 1.0,
        ..default.clone()
    };
    for row in wrt_bench::paper::starred() {
        let (initial, with_both) = run(row.name, &default);
        let (_, without_jitter) = run(row.name, &no_jitter);
        let (_, without_damping) = run(row.name, &no_damping);
        println!(
            "  {:<10} {:>14} {:>14} {:>14} {:>14}",
            row.paper_name,
            wrt_bench::fmt_sci(initial),
            wrt_bench::fmt_sci(with_both),
            wrt_bench::fmt_sci(without_jitter),
            wrt_bench::fmt_sci(without_damping),
        );
    }
    println!();
    println!("damping is load-bearing: without it C7552's coordinate descent");
    println!("zigzags and stalls orders of magnitude short.  Jitter is");
    println!("insurance for *exactly* symmetric circuits (pure equality");
    println!("comparators stall at the 0.5 saddle without it, cf. the unit");
    println!("test in wrt-core); on these workloads, whose side logic already");
    println!("breaks symmetry, it costs a small factor.");
}

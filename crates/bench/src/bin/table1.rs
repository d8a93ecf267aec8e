//! Table 1: necessary test lengths for a conventional random test
//! (equiprobable inputs), all twelve circuits.
//!
//! Run with `cargo run --release -p wrt-bench --bin table1`.

fn main() {
    let theta = wrt_bench::experiment_theta();
    println!("Table 1: necessary test lengths, conventional random test (p = 0.5)");
    println!();
    println!(
        "  {:<4}{:<10} {:>14} {:>14} {:>8}",
        "", "Circuit", "measured N", "paper N", "faults"
    );
    for row in &wrt_bench::paper::ROWS {
        let circuit = wrt_workloads::by_name(row.name).expect("registered");
        let faults = wrt_estimate::experiment_faults(&circuit);
        let tl = wrt_bench::conventional_test_length(&circuit, &faults, theta);
        let star = if row.starred { "*" } else { "" };
        println!(
            "  {:<4}{:<10} {:>14} {:>14} {:>8}",
            star,
            row.paper_name,
            wrt_bench::fmt_sci(tl.patterns()),
            wrt_bench::fmt_sci(row.conventional_length),
            faults.len()
        );
    }
    println!();
    println!("(*) random-pattern resistant circuits optimized in Tables 2-5.");
    println!("Confidence target: 99.9 % (theta = {theta:.2e}).");
}

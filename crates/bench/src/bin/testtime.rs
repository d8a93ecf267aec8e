//! §5.3's economics claim: "for all circuits by the input probabilities
//! that could be found, an optimized random self test needs less than
//! 1 sec. test time."
//!
//! For every starred circuit, convert the conventional and optimized
//! test lengths into on-chip test time assuming the primary inputs form
//! one scan chain clocked at 10 MHz.
//!
//! Run with `cargo run --release -p wrt-bench --bin testtime`.

use wrt_bist::TestAccess;

fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 86_400.0 {
        format!("{:.1} days", s / 86_400.0)
    } else if s >= 3600.0 {
        format!("{:.1} h", s / 3600.0)
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.2} ms", s * 1000.0)
    }
}

fn main() {
    let clock = 10e6;
    println!("Self-test time at 10 MHz, one scan chain over the primary inputs");
    println!();
    println!(
        "  {:<10} {:>7} {:>16} {:>16} {:>8}",
        "Circuit", "chain", "conventional", "optimized", "< 1 s?"
    );
    for row in wrt_bench::paper::starred() {
        let circuit = wrt_workloads::by_name(row.name).expect("registered");
        let faults = wrt_estimate::experiment_faults(&circuit);
        let theta = wrt_bench::experiment_theta();
        let conventional = wrt_bench::conventional_test_length(&circuit, &faults, theta).patterns();
        let optimized = wrt_bench::optimize_circuit(&circuit, &faults).final_length;
        let access = TestAccess::ScanChain {
            chain_length: circuit.num_inputs(),
        };
        let t_conv = access.test_time(conventional, clock);
        let t_opt = access.test_time(optimized, clock);
        println!(
            "  {:<10} {:>7} {:>16} {:>16} {:>8}",
            row.paper_name,
            circuit.num_inputs(),
            fmt_duration(t_conv),
            fmt_duration(t_opt),
            if t_opt <= std::time::Duration::from_secs(1) {
                "yes"
            } else {
                "NO"
            }
        );
    }
    println!();
    println!("the paper's §5.3 claim holds when every optimized time is below 1 s.");
}

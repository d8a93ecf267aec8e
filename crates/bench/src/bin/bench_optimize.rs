//! Machine-readable optimizer benchmark: full COP vs incremental COP.
//!
//! Runs the PROTEST-style optimizer twice per circuit — once with the
//! full-recompute [`CopEngine`] and once with the cone-restricted
//! [`IncrementalCop`] (every coordinate move folded into its baseline by
//! one walk over that input's fanout cone) — and writes
//! `BENCH_optimize.json` (circuit, inputs, sweeps, engine calls, node
//! evaluations per engine, wall time, bit-identity of the resulting
//! descents), so the optimizer hot path's trajectory is tracked in a
//! machine-readable artifact from PR to PR, alongside `BENCH_sim.json`
//! for the fault-simulation path.
//!
//! Run with `cargo run --release -p wrt-bench --bin bench_optimize`.
//!
//! ```text
//! bench_optimize [--circuits a,b,...] [--sweeps N] [--out PATH] [--smoke]
//! ```
//!
//! Defaults: the four largest combinational workload circuits (including
//! the wide-cone c5315ish and the globally connected c6288ish
//! multiplier) plus s2, the circuit behind most of `wrt optimize`'s time
//! on the registry, the standard experiment config, `BENCH_optimize.json`
//! in the current directory.  `--smoke` shrinks everything (one small
//! circuit, few sweeps) for CI.

use std::time::Instant;

use wrt_bench::experiment_faults;
use wrt_circuit::Circuit;
use wrt_core::{optimize, OptimizeConfig, OptimizeResult};
use wrt_estimate::{CopEngine, IncrementalCop};

struct Row {
    circuit: String,
    inputs: usize,
    gates: usize,
    nodes: usize,
    faults: usize,
    sweeps: usize,
    engine_calls: usize,
    full_node_evals: u64,
    incremental_node_evals: u64,
    incremental_forward_evals: u64,
    incremental_backward_evals: u64,
    full_seconds: f64,
    incremental_seconds: f64,
    improvement_factor: f64,
    bit_identical: bool,
}

impl Row {
    /// Node-evaluation reduction of the incremental engine vs full
    /// recompute (the machine-independent measure of the
    /// O(circuit) → O(cone) win).
    fn eval_reduction(&self) -> f64 {
        self.full_node_evals as f64 / self.incremental_node_evals as f64
    }

    fn speedup(&self) -> f64 {
        self.full_seconds / self.incremental_seconds
    }

    fn evals_per_sweep(&self, evals: u64) -> f64 {
        evals as f64 / (self.sweeps.max(1)) as f64
    }

    fn to_json(&self) -> String {
        format!(
            "    {{\n      \"circuit\": \"{}\",\n      \"inputs\": {},\n      \"gates\": {},\n      \"nodes\": {},\n      \"faults\": {},\n      \"sweeps\": {},\n      \"engine_calls\": {},\n      \"full_node_evals\": {},\n      \"incremental_node_evals\": {},\n      \"incremental_forward_evals\": {},\n      \"incremental_backward_evals\": {},\n      \"full_node_evals_per_sweep\": {:.1},\n      \"incremental_node_evals_per_sweep\": {:.1},\n      \"eval_reduction\": {:.2},\n      \"full_seconds\": {:.6},\n      \"incremental_seconds\": {:.6},\n      \"speedup\": {:.3},\n      \"improvement_factor\": {:.3},\n      \"bit_identical\": {}\n    }}",
            self.circuit,
            self.inputs,
            self.gates,
            self.nodes,
            self.faults,
            self.sweeps,
            self.engine_calls,
            self.full_node_evals,
            self.incremental_node_evals,
            self.incremental_forward_evals,
            self.incremental_backward_evals,
            self.evals_per_sweep(self.full_node_evals),
            self.evals_per_sweep(self.incremental_node_evals),
            self.eval_reduction(),
            self.full_seconds,
            self.incremental_seconds,
            self.speedup(),
            self.improvement_factor,
            self.bit_identical,
        )
    }
}

/// Bit-identity of two optimizer runs: same weights, lengths and history.
fn identical(a: &OptimizeResult, b: &OptimizeResult) -> bool {
    a.weights == b.weights
        && a.final_length.to_bits() == b.final_length.to_bits()
        && a.initial_length.to_bits() == b.initial_length.to_bits()
        && a.sweeps == b.sweeps
        && a.engine_calls == b.engine_calls
}

fn bench_circuit(circuit: &Circuit, config: &OptimizeConfig) -> Row {
    let faults = experiment_faults(circuit);

    let mut full_engine = CopEngine::new();
    let start = Instant::now();
    let full = optimize(circuit, &faults, &mut full_engine, config);
    let full_seconds = start.elapsed().as_secs_f64();
    // Every CopEngine estimate is one forward plus one backward pass over
    // the whole netlist; `engine_calls` counts estimates (a pair = 2).
    let full_node_evals = full.engine_calls as u64 * 2 * circuit.num_nodes() as u64;

    let mut incremental_engine = IncrementalCop::new();
    let start = Instant::now();
    let incremental = optimize(circuit, &faults, &mut incremental_engine, config);
    let incremental_seconds = start.elapsed().as_secs_f64();
    let stats = incremental_engine.stats();

    Row {
        circuit: circuit.name().to_string(),
        inputs: circuit.num_inputs(),
        gates: circuit.num_gates(),
        nodes: circuit.num_nodes(),
        faults: faults.len(),
        sweeps: full.sweeps.len(),
        engine_calls: full.engine_calls,
        full_node_evals,
        incremental_node_evals: stats.node_evaluations,
        incremental_forward_evals: stats.forward_evaluations,
        incremental_backward_evals: stats.backward_evaluations,
        full_seconds,
        incremental_seconds,
        improvement_factor: full.improvement_factor(),
        bit_identical: identical(&full, &incremental),
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = flag(&args, "--out")
        .unwrap_or("BENCH_optimize.json")
        .to_string();
    let circuits: Vec<String> = flag(&args, "--circuits")
        .map(|v| v.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| {
            if smoke {
                vec!["s1".into()]
            } else {
                vec![
                    "c2670ish".into(),
                    "c5315ish".into(),
                    "c6288ish".into(),
                    "c7552ish".into(),
                    "s2".into(),
                ]
            }
        });
    let mut config = OptimizeConfig::default();
    if smoke {
        config.max_sweeps = 4;
    }
    if let Some(sweeps) = flag(&args, "--sweeps") {
        config.max_sweeps = sweeps.parse().expect("--sweeps N");
    }

    println!(
        "optimizer PREPARE hot path: full COP vs incremental COP (max {} sweeps)",
        config.max_sweeps
    );
    let mut rows = Vec::new();
    for name in &circuits {
        let circuit = wrt_workloads::by_name(name)
            .unwrap_or_else(|| panic!("unknown workload `{name}`"));
        let row = bench_circuit(&circuit, &config);
        println!(
            "  {:<10} {:>4} inputs {:>5} nodes  evals {:>12} -> {:>10} ({:>5.1}x)  identical {}",
            row.circuit,
            row.inputs,
            row.nodes,
            row.full_node_evals,
            row.incremental_node_evals,
            row.eval_reduction(),
            row.bit_identical,
        );
        rows.push(row);
    }

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"optimize_full_vs_incremental_cop\",\n  \"note\": \"eval_reduction is the machine-independent metric: COP node evaluations per optimizer run, full recompute vs cone-restricted incremental (bit-identical descents). The incremental engine folds every coordinate move into its baseline with one walk over the moved input's fanout cone, with no global-cone guard: it walks the whole dirty region of each move even where the cone covers the netlist, as on s2 and the c6288ish multiplier. bench_guard requires eval_reduction >= 1.0 on every row. Read alongside BENCH_sim.json, which tracks the fault-simulation (Monte-Carlo engine) side of the same hot path.\",\n  \"max_sweeps\": {},\n  \"smoke\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        config.max_sweeps,
        smoke,
        body.join(",\n"),
    );
    std::fs::write(&out, json).expect("write BENCH_optimize.json");
    println!("wrote {out}");

    let all_identical = rows.iter().all(|r| r.bit_identical);
    assert!(
        all_identical,
        "an incremental descent diverged from the full engine"
    );
}

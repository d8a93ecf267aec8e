//! Machine-readable optimizer benchmark: the paper's descent with the COP
//! engine on each circuit.
//!
//! Runs the PROTEST-style optimizer once per circuit with [`CopEngine`]
//! and writes `BENCH_optimize.json`: inputs, sweeps, engine calls, COP
//! node evaluations (counted by the engine, PREPARE's query cones
//! included), wall time, and the test length before and after.
//! `bit_identical` re-checks checkpoint/resume on every circuit: a run
//! interrupted by an eval budget at half its engine calls, its checkpoint
//! round-tripped through text, and resumed with a fresh engine must equal
//! the uninterrupted run.  `BENCH_sim.json` tracks the fault-simulation
//! side of the same flow.
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

use wrt_circuit::Circuit;
use wrt_core::{
    optimize, optimize_budgeted, OptimizeConfig, OptimizeResult, OPTIMIZE_CHECKPOINT_KIND,
};
use wrt_estimate::{experiment_faults, CopEngine};
use wrt_fault::FaultList;
use wrt_robust::{Budget, Checkpoint, RunOutcome};

struct Row {
    circuit: String,
    inputs: usize,
    gates: usize,
    nodes: usize,
    faults: usize,
    sweeps: usize,
    engine_calls: usize,
    cop_node_evals: u64,
    seconds: f64,
    initial_length: f64,
    final_length: f64,
    bit_identical: bool,
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            "    {{\n      \"circuit\": \"{}\",\n      \"inputs\": {},\n      \"gates\": {},\n      \"nodes\": {},\n      \"faults\": {},\n      \"sweeps\": {},\n      \"engine_calls\": {},\n      \"cop_node_evals\": {},\n      \"seconds\": {:.6},\n      \"initial_length\": {:.6e},\n      \"final_length\": {:.6e},\n      \"bit_identical\": {}\n    }}",
            self.circuit,
            self.inputs,
            self.gates,
            self.nodes,
            self.faults,
            self.sweeps,
            self.engine_calls,
            self.cop_node_evals,
            self.seconds,
            self.initial_length,
            self.final_length,
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

/// Interrupts the run at half of `reference`'s engine calls, resumes it
/// from its text-round-tripped checkpoint, and compares the result with
/// `reference`.  A run the budget does not interrupt fails the check.
fn resumes_identically(
    circuit: &Circuit,
    faults: &FaultList,
    config: &OptimizeConfig,
    reference: &OptimizeResult,
) -> bool {
    let half = Budget::unlimited().with_max_evals(reference.engine_calls as u64 / 2);
    let run = optimize_budgeted(circuit, faults, &mut CopEngine::new(), config, &half, None)
        .expect("fresh run");
    let (RunOutcome::Interrupted { .. }, Some(checkpoint)) = (run.outcome, run.checkpoint) else {
        return false;
    };
    let checkpoint = Checkpoint::parse(&checkpoint.render(), OPTIMIZE_CHECKPOINT_KIND)
        .expect("checkpoint round-trips");
    let resumed = optimize_budgeted(
        circuit,
        faults,
        &mut CopEngine::new(),
        config,
        &Budget::unlimited(),
        Some(&checkpoint),
    )
    .expect("resume validates");
    matches!(resumed.outcome, RunOutcome::Complete(ref got) if identical(got, reference))
}

fn bench_circuit(circuit: &Circuit, config: &OptimizeConfig) -> Row {
    let faults = experiment_faults(circuit);
    let mut engine = CopEngine::new();
    let start = Instant::now();
    let result = optimize(circuit, &faults, &mut engine, config);
    let seconds = start.elapsed().as_secs_f64();
    Row {
        circuit: circuit.name().to_string(),
        inputs: circuit.num_inputs(),
        gates: circuit.num_gates(),
        nodes: circuit.num_nodes(),
        faults: faults.len(),
        sweeps: result.sweeps.len(),
        engine_calls: result.engine_calls,
        cop_node_evals: engine.node_evaluations(),
        seconds,
        initial_length: result.initial_length,
        final_length: result.final_length,
        bit_identical: resumes_identically(circuit, &faults, config, &result),
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
        "optimizer with the COP engine (max {} sweeps)",
        config.max_sweeps
    );
    let mut rows = Vec::new();
    for name in &circuits {
        let circuit =
            wrt_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload `{name}`"));
        let row = bench_circuit(&circuit, &config);
        println!(
            "  {:<10} {:>4} inputs {:>5} nodes  {:>3} sweeps {:>6} calls  {:.3e} -> {:.3e}  \
             {:.3}s  resume identical {}",
            row.circuit,
            row.inputs,
            row.nodes,
            row.sweeps,
            row.engine_calls,
            row.initial_length,
            row.final_length,
            row.seconds,
            row.bit_identical,
        );
        rows.push(row);
    }

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"optimize_cop\",\n  \"note\": \"One optimizer run per circuit with the stateless COP engine on the experiment fault set. cop_node_evals is the machine-independent work, counted by the engine: one forward and one backward pass per call, over every node for ANALYSIS and over the relevant faults' query cone for each PREPARE endpoint. bench_guard requires cop_node_evals at most engine_calls x 2 x nodes (two full passes per call), and final_length finite and at most initial_length, on every row. bit_identical: a run interrupted by an eval budget at half its engine calls, then resumed from its checkpoint with a fresh engine, equals the uninterrupted run. Read alongside BENCH_sim.json, which tracks the fault-simulation side of the same flow.\",\n  \"max_sweeps\": {},\n  \"smoke\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        config.max_sweeps,
        smoke,
        body.join(",\n"),
    );
    std::fs::write(&out, json).expect("write BENCH_optimize.json");
    println!("wrote {out}");

    assert!(
        rows.iter().all(|r| r.bit_identical),
        "a resumed descent diverged from the uninterrupted run"
    );
}

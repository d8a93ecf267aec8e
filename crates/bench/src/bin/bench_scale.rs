//! Scale benchmark: memory and throughput of the core data structures as
//! circuit size grows from 10^4 toward 10^6 gates.
//!
//! Writes `BENCH_scale.json`.  The headline metric is **bytes/gate** of
//! the flat-memory [`Circuit`] (from [`Circuit::memory_footprint`], the
//! workspace's analytic allocation accounting — `#![forbid(unsafe_code)]`
//! precludes a global-allocator hook), which must stay flat or decrease
//! with size: any superlinear term in the storage layer shows up as a
//! rising curve and fails the `bench_guard` rule.  Alongside it the
//! artifact tracks wall-clock throughputs that expose superlinear *time*
//! terms: netlist generation, `.bench` parse + levelize, full-pass COP
//! evaluations/sec, and event-driven fault-simulation patterns/sec.
//!
//! Each row also times fault-list preparation, the layer every cold
//! verb pays before its first estimate: checkpoints and the
//! constant-line redundancy proof.  Equivalence collapse is timed beside
//! it but is off the verb path, since checkpoint lists come out already
//! collapsed (`fault_prep_collapsed` equals `fault_prep_checkpoints`).
//! The per-gate cost
//! (`fault_prep_us_per_gate`) is bounded by a `bench_guard` rule between
//! adjacent sizes, so a quadratic term shows up as a failing slope.
//!
//! Each row also re-checks the workspace's core invariant at scale: the
//! event-driven fault simulation of the probe fault list must give the
//! same coverage, first detections included, as the dense oracle
//! [`wrt_sim::fault_coverage`] (`bit_identical`).
//!
//! Run with `cargo run --release -p wrt-bench --bin bench_scale`.
//!
//! ```text
//! bench_scale [--sizes n1,n2,...] [--seed S] [--out PATH] [--smoke]
//! ```
//!
//! Defaults: sizes 10k/50k/200k/1M gates, seed 42, `BENCH_scale.json` in
//! the current directory.  `--smoke` caps the sweep at 10^5 gates for CI.

use std::time::Instant;

use wrt_circuit::Circuit;
use wrt_estimate::{
    constant_line_faults, observabilities_cop, signal_probabilities_cop, REDUNDANCY_SUPPORT_LIMIT,
};
use wrt_fault::FaultList;
use wrt_robust::Budget;
use wrt_sim::{fault_coverage, fault_coverage_robust, SimOptions, WeightedPatterns};

const SEED: u64 = 42;
const SIM_PATTERNS: u64 = 256;
const SIM_FAULTS: usize = 64;
/// Fault-prep timings keep the fastest of this many runs.
const FAULT_PREP_REPEATS: usize = 3;

struct Row {
    target: usize,
    seed: u64,
    gates: usize,
    nodes: usize,
    edges: usize,
    inputs: usize,
    outputs: usize,
    depth: u32,
    bytes_total: usize,
    bytes_per_gate: f64,
    bytes_kinds: usize,
    bytes_fanin_csr: usize,
    bytes_fanout_csr: usize,
    bytes_names: usize,
    bytes_levels: usize,
    bytes_interface: usize,
    build_seconds: f64,
    bench_bytes: usize,
    parse_levelize_seconds: f64,
    parse_gates_per_sec: f64,
    cop_seconds: f64,
    cop_evals_per_sec: f64,
    sim_seconds: f64,
    sim_patterns_per_sec: f64,
    prep: FaultPrep,
    bit_identical: bool,
}

/// Fault-list preparation as the verbs run it, fastest of
/// [`FAULT_PREP_REPEATS`] runs per layer.
struct FaultPrep {
    checkpoints: usize,
    collapsed: usize,
    proven: usize,
    checkpoints_seconds: f64,
    collapse_seconds: f64,
    constant_lines_seconds: f64,
}

impl FaultPrep {
    fn measure(circuit: &Circuit) -> Self {
        let mut prep = FaultPrep {
            checkpoints: 0,
            collapsed: 0,
            proven: 0,
            checkpoints_seconds: f64::INFINITY,
            collapse_seconds: f64::INFINITY,
            constant_lines_seconds: f64::INFINITY,
        };
        for _ in 0..FAULT_PREP_REPEATS {
            let start = Instant::now();
            let checkpoints = FaultList::checkpoints(circuit);
            prep.checkpoints_seconds = prep.checkpoints_seconds.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let collapsed = checkpoints.collapse_equivalent(circuit);
            prep.collapse_seconds = prep.collapse_seconds.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let redundant = constant_line_faults(circuit, &checkpoints, REDUNDANCY_SUPPORT_LIMIT);
            prep.constant_lines_seconds = prep
                .constant_lines_seconds
                .min(start.elapsed().as_secs_f64());
            prep.checkpoints = checkpoints.len();
            prep.collapsed = collapsed.len();
            prep.proven = redundant.iter().filter(|&&r| r).count();
        }
        prep
    }

    /// What a cold verb pays: checkpoints plus the redundancy proof.
    fn seconds(&self) -> f64 {
        self.checkpoints_seconds + self.constant_lines_seconds
    }
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            "    {{\n      \"target_gates\": {},\n      \"seed\": {},\n      \"gates\": {},\n      \"nodes\": {},\n      \"edges\": {},\n      \"inputs\": {},\n      \"outputs\": {},\n      \"depth\": {},\n      \"bytes_total\": {},\n      \"bytes_per_gate\": {:.2},\n      \"bytes_kinds\": {},\n      \"bytes_fanin_csr\": {},\n      \"bytes_fanout_csr\": {},\n      \"bytes_names\": {},\n      \"bytes_levels\": {},\n      \"bytes_interface\": {},\n      \"build_seconds\": {:.6},\n      \"bench_bytes\": {},\n      \"parse_levelize_seconds\": {:.6},\n      \"parse_gates_per_sec\": {:.0},\n      \"cop_seconds\": {:.6},\n      \"cop_evals_per_sec\": {:.0},\n      \"sim_patterns\": {},\n      \"sim_faults\": {},\n      \"sim_seconds\": {:.6},\n      \"sim_patterns_per_sec\": {:.1},\n      \"fault_prep_checkpoints\": {},\n      \"fault_prep_collapsed\": {},\n      \"fault_prep_proven_redundant\": {},\n      \"checkpoints_seconds\": {:.6},\n      \"collapse_seconds\": {:.6},\n      \"constant_lines_seconds\": {:.6},\n      \"fault_prep_seconds\": {:.6},\n      \"fault_prep_us_per_gate\": {:.4},\n      \"fault_prep_over_parse\": {:.3},\n      \"bit_identical\": {}\n    }}",
            self.target,
            self.seed,
            self.gates,
            self.nodes,
            self.edges,
            self.inputs,
            self.outputs,
            self.depth,
            self.bytes_total,
            self.bytes_per_gate,
            self.bytes_kinds,
            self.bytes_fanin_csr,
            self.bytes_fanout_csr,
            self.bytes_names,
            self.bytes_levels,
            self.bytes_interface,
            self.build_seconds,
            self.bench_bytes,
            self.parse_levelize_seconds,
            self.parse_gates_per_sec,
            self.cop_seconds,
            self.cop_evals_per_sec,
            SIM_PATTERNS,
            SIM_FAULTS.min(self.inputs * 2),
            self.sim_seconds,
            self.sim_patterns_per_sec,
            self.prep.checkpoints,
            self.prep.collapsed,
            self.prep.proven,
            self.prep.checkpoints_seconds,
            self.prep.collapse_seconds,
            self.prep.constant_lines_seconds,
            self.prep.seconds(),
            1e6 * self.prep.seconds() / self.gates as f64,
            self.prep.seconds() / self.parse_levelize_seconds.max(1e-12),
            self.bit_identical,
        )
    }
}

/// One COP full pass (signal probabilities forward + observabilities
/// backward) — the unit the optimizer's inner loop repeats.
fn cop_full_pass(circuit: &Circuit, weights: &[f64]) -> f64 {
    let p = signal_probabilities_cop(circuit, weights);
    let (obs, pin_obs) = observabilities_cop(circuit, &p);
    // Fold the results so the optimizer cannot be dead-code-eliminated.
    obs.last().copied().unwrap_or(0.0) + pin_obs.last().copied().unwrap_or(0.0)
}

fn bench_size(target: usize, seed: u64) -> Row {
    let start = Instant::now();
    let circuit = wrt_workloads::tiled(target, seed);
    let build_seconds = start.elapsed().as_secs_f64();

    let m = circuit.memory_footprint();
    let weights = vec![0.5f64; circuit.num_inputs()];

    // `.bench` round trip: parse + levelize wall clock.
    let text = wrt_circuit::to_bench(&circuit);
    let start = Instant::now();
    let reparsed =
        wrt_circuit::parse_bench_named(&text, circuit.name()).expect("tiled netlist reparses");
    let parse_levelize_seconds = start.elapsed().as_secs_f64();
    assert_eq!(reparsed.num_gates(), circuit.num_gates());

    // COP throughput: forward + backward pass = 2 node evaluations/node.
    let start = Instant::now();
    let sink = cop_full_pass(&circuit, &weights);
    let cop_seconds = start.elapsed().as_secs_f64();
    assert!(sink.is_finite());
    let cop_evals_per_sec = 2.0 * circuit.num_nodes() as f64 / cop_seconds.max(1e-12);

    // Event-driven fault simulation throughput on a probe fault list.
    let probe: FaultList = FaultList::primary_inputs(&circuit)
        .iter()
        .take(SIM_FAULTS)
        .map(|(_, f)| f)
        .collect();
    let source = WeightedPatterns::equiprobable(circuit.num_inputs(), seed);
    let start = Instant::now();
    let result = fault_coverage_robust(
        &circuit,
        &probe,
        source,
        SIM_PATTERNS,
        true,
        1,
        SimOptions::default(),
        &Budget::unlimited(),
    )
    .into_value()
    .result;
    let sim_seconds = start.elapsed().as_secs_f64();
    assert!(result.num_detected() <= probe.len());
    // Bit identity at scale: the same run on the dense oracle.
    let source = WeightedPatterns::equiprobable(circuit.num_inputs(), seed);
    let bit_identical = result == fault_coverage(&circuit, &probe, source, SIM_PATTERNS, true);

    let prep = FaultPrep::measure(&circuit);

    Row {
        target,
        seed,
        gates: circuit.num_gates(),
        nodes: circuit.num_nodes(),
        edges: circuit.num_edges(),
        inputs: circuit.num_inputs(),
        outputs: circuit.num_outputs(),
        depth: circuit.levels().depth(),
        bytes_total: m.total(),
        bytes_per_gate: m.bytes_per_gate(circuit.num_gates()),
        bytes_kinds: m.kinds,
        bytes_fanin_csr: m.fanin_csr,
        bytes_fanout_csr: m.fanout_csr,
        bytes_names: m.names,
        bytes_levels: m.levels,
        bytes_interface: m.interface,
        build_seconds,
        bench_bytes: text.len(),
        parse_levelize_seconds,
        parse_gates_per_sec: circuit.num_gates() as f64 / parse_levelize_seconds.max(1e-12),
        cop_seconds,
        cop_evals_per_sec,
        sim_seconds,
        sim_patterns_per_sec: SIM_PATTERNS as f64 / sim_seconds.max(1e-12),
        prep,
        bit_identical,
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
    let seed: u64 = flag(&args, "--seed")
        .map(|v| v.parse().expect("--seed S"))
        .unwrap_or(SEED);
    let out = flag(&args, "--out")
        .unwrap_or("BENCH_scale.json")
        .to_string();
    let sizes: Vec<usize> = flag(&args, "--sizes")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--sizes n1,n2,..."))
                .collect()
        })
        .unwrap_or_else(|| {
            if smoke {
                vec![10_000, 100_000]
            } else {
                vec![10_000, 50_000, 200_000, 1_000_000]
            }
        });

    println!("scale sweep over {sizes:?} gates (tiled generator, seed {seed})");
    let mut rows = Vec::new();
    for &target in &sizes {
        let row = bench_size(target, seed);
        println!(
            "  {:>9} gates  {:>6.1} B/gate  build {:>6.2}s  parse {:>6.2}s  \
             cop {:>10.0} evals/s  sim {:>7.1} pat/s  fault prep {:>6.3}s  identical {}",
            row.gates,
            row.bytes_per_gate,
            row.build_seconds,
            row.parse_levelize_seconds,
            row.cop_evals_per_sec,
            row.sim_patterns_per_sec,
            row.prep.seconds(),
            row.bit_identical,
        );
        rows.push(row);
    }

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"scale_bytes_per_gate_and_throughput\",\n  \"note\": \"Rows sweep the tiled synthetic generator (wrt_workloads::tiled, deterministic by target_gates+seed) from 10^4 toward 10^6 gates. bytes_per_gate comes from Circuit::memory_footprint(), the exact capacity-based accounting of every arena of the flat circuit core (kinds, fanin CSR, fanout CSR with its fanin-edge index, name arena + sorted index, level CSR, interface arrays); the workspace forbids unsafe code, so this analytic shim stands in for a global-allocator hook. The bench_guard rule requires bytes_per_gate flat-or-decreasing across rows (rows are ordered by increasing size). Throughputs expose superlinear time terms: parse_levelize_seconds is a full .bench parse of the written netlist including levelization; cop_evals_per_sec is one full COP forward+backward pass (2 node evaluations per node); sim_patterns_per_sec is event-driven PPSFP over a fixed probe fault list. The fault_prep fields time fault-list preparation as every cold verb runs it (checkpoints, then constant_line_faults with support limit 14; fastest of 3 runs each); collapse_seconds times collapse_equivalent beside it, off the verb path because checkpoint lists come out already collapsed (fault_prep_collapsed equals fault_prep_checkpoints); fault_prep_over_parse compares it with the parse of the same netlist, and the bench_guard rule bounds fault_prep_us_per_gate to at most 2x growth between adjacent rows, so a quadratic term fails the guard. bit_identical re-checks the event-driven probe coverage, first detections included, against the dense oracle fault_coverage at every size. Wall-clock fields are host-dependent; per-gate and per-eval rates are comparable across rows on one host.\",\n  \"seed\": {},\n  \"smoke\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        seed,
        smoke,
        body.join(",\n"),
    );
    std::fs::write(&out, json).expect("write BENCH_scale.json");
    println!("wrote {out}");
}

//! Machine-readable static-analysis benchmark: analysis cost, lint
//! results, SCOAP↔COP rank agreement, and what SCOAP backtrace guidance
//! buys PODEM.
//!
//! For each circuit the run records: wall time of the full simulation-free
//! analysis pass (SCOAP + census + lints), the lint finding count (the
//! registry must be clean), the Spearman rank correlation between SCOAP
//! fault costs and COP log-difficulty at equiprobable inputs, and a
//! per-fault PODEM comparison — SCOAP-guided versus unguided backtrace —
//! on the collapsed checkpoint fault list.  Guidance must never change a
//! fault's conclusion (`bit_identical`), only the backtrack spend.
//!
//! Run with `cargo run --release -p wrt-bench --bin bench_analyze`.
//!
//! ```text
//! bench_analyze [--circuits a,b,...] [--backtracks B] [--out PATH] [--smoke]
//! ```
//!
//! Defaults: the six registry circuits on which the guided/unguided
//! comparison completes without aborts (SCOAP guidance is not a universal
//! win — on the comparator s1 and on c432ish the netlist's first-fanin
//! order happens to beat the cost model, and s2's saturated costs make
//! the comparison meaningless — so those stay out of the tracked set;
//! `--circuits` runs any of them on demand).  `--smoke` shrinks the run
//! to c880ish for CI.

use std::time::Instant;

use wrt_analyze::{analyze, Scoap};
use wrt_atpg::{AtpgOutcome, Podem};
use wrt_circuit::Circuit;
use wrt_estimate::{spearman, CopEngine, DetectionProbabilityEngine};
use wrt_fault::FaultList;

struct Row {
    circuit: String,
    nodes: usize,
    inputs: usize,
    faults: usize,
    analysis_seconds: f64,
    lint_findings: usize,
    scoap_undetectable: usize,
    reconvergent_stems: usize,
    scoap_cop_spearman: f64,
    guided_backtracks: usize,
    unguided_backtracks: usize,
    guided_aborted: usize,
    unguided_aborted: usize,
    guided_seconds: f64,
    unguided_seconds: f64,
    bit_identical: bool,
}

impl Row {
    /// Unguided-over-guided backtrack ratio (≥ 1 when guidance helps;
    /// 1.0 when both searches are conflict-free).
    fn backtrack_reduction(&self) -> f64 {
        if self.guided_backtracks == 0 && self.unguided_backtracks == 0 {
            return 1.0;
        }
        self.unguided_backtracks as f64 / (self.guided_backtracks.max(1)) as f64
    }

    fn to_json(&self) -> String {
        format!(
            "    {{\n      \"circuit\": \"{}\",\n      \"nodes\": {},\n      \"inputs\": {},\n      \"faults\": {},\n      \"analysis_seconds\": {:.6},\n      \"lint_findings\": {},\n      \"scoap_undetectable\": {},\n      \"reconvergent_stems\": {},\n      \"scoap_cop_spearman\": {:.4},\n      \"guided_backtracks\": {},\n      \"unguided_backtracks\": {},\n      \"guided_aborted\": {},\n      \"unguided_aborted\": {},\n      \"guided_seconds\": {:.6},\n      \"unguided_seconds\": {:.6},\n      \"backtrack_reduction\": {:.3},\n      \"bit_identical\": {}\n    }}",
            self.circuit,
            self.nodes,
            self.inputs,
            self.faults,
            self.analysis_seconds,
            self.lint_findings,
            self.scoap_undetectable,
            self.reconvergent_stems,
            self.scoap_cop_spearman,
            self.guided_backtracks,
            self.unguided_backtracks,
            self.guided_aborted,
            self.unguided_aborted,
            self.guided_seconds,
            self.unguided_seconds,
            self.backtrack_reduction(),
            self.bit_identical,
        )
    }
}

fn bench_circuit(circuit: &Circuit, backtrack_limit: usize) -> Row {
    // Static analysis pass: SCOAP + census + lints + fault summary.
    let start = Instant::now();
    let report = analyze(circuit);
    let analysis_seconds = start.elapsed().as_secs_f64();

    // Rank agreement: SCOAP integer cost vs COP log-difficulty.
    let faults = FaultList::checkpoints(circuit).collapse_equivalent(circuit);
    let scoap = Scoap::compute(circuit);
    let costs: Vec<f64> = faults
        .as_slice()
        .iter()
        .map(|&f| scoap.fault_cost(circuit, f) as f64)
        .collect();
    let mut engine = CopEngine::new();
    let probs = engine.estimate(circuit, &faults, &vec![0.5; circuit.num_inputs()]);
    let difficulty: Vec<f64> = probs
        .iter()
        .map(|&p| if p > 0.0 { -p.ln() } else { f64::MAX })
        .collect();
    let scoap_cop_spearman = spearman(&costs, &difficulty);

    // PODEM per fault, no dropping: the same fault list under both
    // guidance models, so backtrack totals compare like for like.
    let guided = Podem::with_backtrace_costs(circuit, &scoap).with_backtrack_limit(backtrack_limit);
    let unguided = Podem::unguided(circuit).with_backtrack_limit(backtrack_limit);
    let class = |o: &AtpgOutcome| match o {
        AtpgOutcome::Test(_) => 0u8,
        AtpgOutcome::Redundant => 1,
        AtpgOutcome::Aborted => 2,
    };
    let mut guided_backtracks = 0;
    let mut guided_aborted = 0;
    let mut guided_classes = Vec::with_capacity(faults.len());
    let start = Instant::now();
    for (_, fault) in faults.iter() {
        let (outcome, backtracks) = guided.generate_counted(fault);
        guided_backtracks += backtracks;
        guided_aborted += usize::from(class(&outcome) == 2);
        guided_classes.push(class(&outcome));
    }
    let guided_seconds = start.elapsed().as_secs_f64();
    let mut unguided_backtracks = 0;
    let mut unguided_aborted = 0;
    let mut bit_identical = true;
    let start = Instant::now();
    for ((_, fault), &gc) in faults.iter().zip(&guided_classes) {
        let (outcome, backtracks) = unguided.generate_counted(fault);
        unguided_backtracks += backtracks;
        unguided_aborted += usize::from(class(&outcome) == 2);
        bit_identical &= class(&outcome) == gc;
    }
    let unguided_seconds = start.elapsed().as_secs_f64();

    Row {
        circuit: circuit.name().to_string(),
        nodes: circuit.num_nodes(),
        inputs: circuit.num_inputs(),
        faults: faults.len(),
        analysis_seconds,
        lint_findings: report.findings.len(),
        scoap_undetectable: report.scoap.undetectable,
        reconvergent_stems: report.census.reconvergent_stems,
        scoap_cop_spearman,
        guided_backtracks,
        unguided_backtracks,
        guided_aborted,
        unguided_aborted,
        guided_seconds,
        unguided_seconds,
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
    let out = flag(&args, "--out")
        .unwrap_or("BENCH_analyze.json")
        .to_string();
    let circuits: Vec<String> = flag(&args, "--circuits")
        .map(|v| v.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| {
            if smoke {
                vec!["c880ish".into()]
            } else {
                vec![
                    "c499ish".into(),
                    "c880ish".into(),
                    "c2670ish".into(),
                    "c3540ish".into(),
                    "c5315ish".into(),
                    "c7552ish".into(),
                ]
            }
        });
    let backtrack_limit: usize = flag(&args, "--backtracks")
        .map(|v| v.parse().expect("--backtracks B"))
        .unwrap_or(10_000);

    println!(
        "static analysis and SCOAP-guided PODEM vs unguided (backtrack limit {backtrack_limit})"
    );
    let mut rows = Vec::new();
    for name in &circuits {
        let circuit =
            wrt_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload `{name}`"));
        let row = bench_circuit(&circuit, backtrack_limit);
        println!(
            "  {:<10} {:>5} faults  analysis {:>7.1} ms  lints {}  spearman {:+.3}  backtracks {:>6} guided vs {:>6} unguided ({:.2}x)  identical {}",
            row.circuit,
            row.faults,
            row.analysis_seconds * 1e3,
            row.lint_findings,
            row.scoap_cop_spearman,
            row.guided_backtracks,
            row.unguided_backtracks,
            row.backtrack_reduction(),
            row.bit_identical,
        );
        rows.push(row);
    }

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"static_analysis_and_guided_podem\",\n  \"note\": \"analysis_seconds is one full simulation-free pass (SCOAP controllability/observability, FFR/reconvergence census, structural lints). scoap_cop_spearman rank-correlates SCOAP fault cost against COP log-difficulty at equiprobable inputs: the models share no arithmetic, so agreement is a cross-check of both. guided/unguided_backtracks run PODEM per fault over the same collapsed checkpoint list with SCOAP-cost versus first-fanin backtrace; bit_identical asserts guidance never changed a detected/redundant/aborted conclusion. The tracked set is the six registry circuits where the comparison completes abort-free; SCOAP guidance is deliberately not claimed as universal (s1 and c432ish favor netlist order, s2 saturates the cost model).\",\n  \"backtrack_limit\": {},\n  \"smoke\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        backtrack_limit,
        smoke,
        body.join(",\n"),
    );
    std::fs::write(&out, json).expect("write BENCH_analyze.json");
    println!("wrote {out}");

    assert!(
        rows.iter().all(|r| r.bit_identical),
        "guidance changed a PODEM conclusion"
    );
    assert!(
        rows.iter().all(|r| r.lint_findings == 0),
        "a registry circuit has lint findings"
    );
    assert!(
        rows.iter()
            .all(|r| r.guided_backtracks <= r.unguided_backtracks),
        "SCOAP guidance must not cost backtracks on the tracked set"
    );
    if !smoke {
        let strict_wins = rows
            .iter()
            .filter(|r| r.guided_backtracks < r.unguided_backtracks)
            .count();
        assert!(
            strict_wins >= 2,
            "SCOAP guidance must strictly reduce backtracks on at least two circuits (got {strict_wins})"
        );
    }
}

//! Machine-readable robustness benchmark: recovery-scaffold overhead on
//! the unfailed path, plus an in-process chaos sweep.
//!
//! Writes `BENCH_robust.json` with two claims the guard re-checks on
//! every CI run:
//!
//! * **Overhead** — enforcing a budget (chunk-boundary check-ins against
//!   a deadline, an eval cap and a cancellation flag that never trip)
//!   costs ≈ nothing: wall-clock vs the same engine under an unlimited
//!   budget (`overhead_pct`, host-dependent) and bit-identical coverage
//!   (`bit_identical`, machine-independent).
//! * **Chaos** — a seeded fail-point sweep over every planted site: each
//!   injection must end in bit-identical recovery or a structured error.
//!   The `unrecovered` count is asserted zero here and again by
//!   `bench_guard` on the committed artifact.
//!
//! Run with `cargo run --release -p wrt-bench --bin bench_robust`.
//!
//! ```text
//! bench_robust [--patterns N] [--threads T] [--circuits a,b,...]
//!              [--seeds N] [--reps R] [--out PATH] [--smoke]
//! ```
//!
//! Defaults: 32768 patterns, 4 threads, best-of-15 interleaved timing
//! pairs, two large workload circuits, a 30-seed chaos sweep,
//! `BENCH_robust.json` in the current directory.  `--smoke` runs a
//! scaled-down version for CI.

use std::time::{Duration, Instant};

use wrt_circuit::Circuit;
use wrt_fault::FaultList;
use wrt_robust::failpoint::{self, sites, FailAction};
use wrt_robust::{Budget, BudgetExceeded, Checkpoint, CheckpointError, RunOutcome};
use wrt_sim::{fault_coverage, fault_coverage_robust, SimOptions, WeightedPatterns};

const SEED: u64 = 0xC0DE;
/// Skip counts stay below the per-run pass count of the rarest site.
const MAX_SKIP: u64 = 3;

struct Row {
    circuit: String,
    faults: usize,
    patterns: u64,
    threads: usize,
    unlimited_seconds: f64,
    budgeted_seconds: f64,
    identical: bool,
}

impl Row {
    fn overhead_pct(&self) -> f64 {
        (self.budgeted_seconds / self.unlimited_seconds - 1.0) * 100.0
    }

    fn to_json(&self) -> String {
        format!(
            "    {{\n      \"circuit\": \"{}\",\n      \"faults\": {},\n      \"patterns\": {},\n      \"threads\": {},\n      \"unlimited_seconds\": {:.6},\n      \"budgeted_seconds\": {:.6},\n      \"overhead_pct\": {:.3},\n      \"bit_identical\": {}\n    }}",
            self.circuit,
            self.faults,
            self.patterns,
            self.threads,
            self.unlimited_seconds,
            self.budgeted_seconds,
            self.overhead_pct(),
            self.identical,
        )
    }
}

fn overhead_row(circuit: &Circuit, patterns: u64, threads: usize, reps: usize) -> Row {
    let faults = FaultList::checkpoints(circuit).collapse_equivalent(circuit);
    let run = |budget: &Budget| {
        let source = WeightedPatterns::equiprobable(circuit.num_inputs(), SEED);
        let start = Instant::now();
        let outcome = fault_coverage_robust(
            circuit,
            &faults,
            source,
            patterns,
            true,
            threads,
            SimOptions::default(),
            budget,
        );
        (start.elapsed().as_secs_f64(), outcome)
    };
    // Every axis armed, none tripping: a day-long deadline, an eval cap
    // twice the canonical cost, and a cancellation flag never raised.
    let mut budgeted = Budget::unlimited()
        .with_time_limit(Duration::from_secs(86_400))
        .with_max_evals(2 * patterns * circuit.num_nodes() as u64);
    let _cancel = budgeted.cancel_token();
    // Interleave the two timed runs so scheduler drift on a shared host
    // hits both sides equally; best-of-reps then converges each side to
    // its noise floor.
    let mut unlimited_seconds = f64::INFINITY;
    let mut budgeted_seconds = f64::INFINITY;
    let mut identical = true;
    for rep in 0..=reps {
        let (u_secs, u) = run(&Budget::unlimited());
        let (b_secs, b) = run(&budgeted);
        if rep > 0 {
            // Pair 0 is the warm-up.
            unlimited_seconds = unlimited_seconds.min(u_secs);
            budgeted_seconds = budgeted_seconds.min(b_secs);
        }
        identical &= u.is_complete() && b.is_complete() && {
            let (u, b) = (u.value(), b.value());
            u.recovery.is_clean()
                && b.recovery.is_clean()
                && u.result == b.result
                && u.stats == b.stats
        };
    }
    Row {
        circuit: circuit.name().to_string(),
        faults: faults.len(),
        patterns,
        threads,
        unlimited_seconds,
        budgeted_seconds,
        identical,
    }
}

/// One chaos injection's classification.
enum Outcome {
    /// The run completed and its result is bit-identical to the serial
    /// reference (or the arm's skip count outlived the workload).
    Recovered,
    /// The failure surfaced as a structured error / interruption whose
    /// partial state checked out.
    Structured,
    /// Anything else — result loss.  Must never happen.
    Unrecovered(String),
}

/// Runs one seeded injection against the site the plan picks; the
/// workloads are deliberately small (the chaos sweep measures outcomes,
/// not speed).
// The session must outlive the whole drill (the arm belongs to it), so
// early-drop tightening does not apply.
#[allow(clippy::significant_drop_tightening)]
fn chaos_drill(seed: u64, circuit: &Circuit, faults: &FaultList) -> (String, bool, Outcome) {
    let (site_index, skip) = failpoint::seeded_plan(seed, sites::ALL.len(), MAX_SKIP);
    let site = sites::ALL[site_index];
    let patterns = 256;
    let source = || WeightedPatterns::equiprobable(circuit.num_inputs(), SEED);
    let session = failpoint::session();
    let action = match site {
        // Worker-side sites get panics on even seeds to exercise panic
        // isolation; main-thread sites always use the structured action.
        sites::WORKER_SPAWN | sites::SHARD_MERGE if seed.is_multiple_of(2) => FailAction::Panic,
        _ => FailAction::Error,
    };
    session.arm(site, action, skip);
    let outcome = match site {
        sites::WORKER_SPAWN | sites::SHARD_MERGE => {
            let reference = fault_coverage(circuit, faults, source(), patterns, true);
            let robust = fault_coverage_robust(
                circuit,
                faults,
                source(),
                patterns,
                true,
                3,
                SimOptions::default(),
                &Budget::unlimited(),
            );
            match robust {
                RunOutcome::Complete(rc)
                    if rc.recovery.unresolved.is_empty()
                        && rc.result.detected_at() == reference.detected_at() =>
                {
                    Outcome::Recovered
                }
                RunOutcome::Complete(_) => {
                    Outcome::Unrecovered("shard recovery diverged from serial".into())
                }
                RunOutcome::Interrupted { reason, .. } => {
                    Outcome::Unrecovered(format!("unexpected interruption: {reason:?}"))
                }
            }
        }
        sites::BUDGET_CHECK_IN => {
            let robust = fault_coverage_robust(
                circuit,
                faults,
                source(),
                patterns,
                true,
                2,
                SimOptions::default(),
                &Budget::unlimited(),
            );
            match robust {
                RunOutcome::Interrupted {
                    partial,
                    reason: BudgetExceeded::Injected,
                    progress,
                } => {
                    let prefix = fault_coverage(circuit, faults, source(), progress.done, true);
                    if partial.result.detected_at() == prefix.detected_at() {
                        Outcome::Structured
                    } else {
                        Outcome::Unrecovered("injected partial is not the serial prefix".into())
                    }
                }
                RunOutcome::Interrupted { reason, .. } => {
                    Outcome::Unrecovered(format!("wrong interruption reason: {reason:?}"))
                }
                // Skip count outlived the stream's check-ins.
                RunOutcome::Complete(_) => Outcome::Recovered,
            }
        }
        sites::CHECKPOINT_WRITE => {
            let path = std::env::temp_dir().join(format!("wrt_bench_chaos_{seed}.ckpt"));
            let _ = std::fs::remove_file(&path);
            let result = Checkpoint::new("chaos").write_atomic(&path);
            let fired = !session.fired().is_empty();
            let classified = match (fired, result) {
                (true, Err(CheckpointError::Io { .. })) if !path.exists() => Outcome::Structured,
                (false, Ok(())) => Outcome::Recovered,
                (fired, other) => {
                    Outcome::Unrecovered(format!("fired={fired}, write result {other:?}"))
                }
            };
            let _ = std::fs::remove_file(&path);
            classified
        }
        sites::SERVE_ACCEPT | sites::SERVE_SESSION | sites::SERVE_ECO_APPLY => {
            // A resident server under injection: every request must still
            // get a framed response — the fired arm surfaces as an `err`
            // frame, never a dropped connection.
            let spec = circuit
                .iter()
                .find_map(|(_, n)| match n.kind() {
                    wrt_circuit::GateKind::And => Some(format!("{}=OR", n.name())),
                    wrt_circuit::GateKind::Nand => Some(format!("{}=NOR", n.name())),
                    _ => None,
                })
                .expect("chaos circuit has a flippable gate");
            let registry = std::sync::Arc::new(wrt_serve::Registry::new());
            match wrt_serve::spawn(registry, "127.0.0.1:0", None) {
                Err(why) => Outcome::Unrecovered(format!("server failed to spawn: {why}")),
                Ok(handle) => {
                    let addr = handle.addr().to_string();
                    let argv: Vec<String> = ["eco", circuit.name(), "--set", spec.as_str()]
                        .iter()
                        .map(ToString::to_string)
                        .collect();
                    let mut err_frames = 0u32;
                    let mut transport = None;
                    for _ in 0..4 {
                        match wrt_serve::client::request(&addr, &argv) {
                            Ok(Ok(_)) => {}
                            Ok(Err(_)) => err_frames += 1,
                            Err(why) => transport = Some(why),
                        }
                    }
                    handle.trigger_shutdown();
                    handle.wait();
                    let fired = !session.fired().is_empty();
                    match (transport, fired, err_frames) {
                        (Some(why), _, _) => {
                            Outcome::Unrecovered(format!("transport failure: {why}"))
                        }
                        (None, true, 1..) => Outcome::Structured,
                        (None, true, 0) => {
                            Outcome::Unrecovered("fired arm produced no err frame".into())
                        }
                        (None, false, _) => Outcome::Recovered,
                    }
                }
            }
        }
        other => unreachable!("unknown site {other}"),
    };
    let fired = !session.fired().is_empty();
    (site.to_string(), fired, outcome)
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
    let patterns: u64 = flag(&args, "--patterns")
        .map(|v| v.parse().expect("--patterns N"))
        .unwrap_or(if smoke { 512 } else { 32_768 });
    let threads: usize = flag(&args, "--threads")
        .map(|v| v.parse().expect("--threads T"))
        .unwrap_or(4);
    let seeds: u64 = flag(&args, "--seeds")
        .map(|v| v.parse().expect("--seeds N"))
        .unwrap_or(if smoke { 12 } else { 30 });
    let out = flag(&args, "--out")
        .unwrap_or("BENCH_robust.json")
        .to_string();
    let circuits: Vec<String> = flag(&args, "--circuits")
        .map(|v| v.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| {
            if smoke {
                vec!["s1".into(), "c880ish".into()]
            } else {
                vec!["c2670ish".into(), "c7552ish".into()]
            }
        });
    let reps: usize = flag(&args, "--reps")
        .map(|v| v.parse().expect("--reps R"))
        .unwrap_or(if smoke { 2 } else { 15 });

    println!(
        "budget overhead ({patterns} patterns, {threads} threads) + chaos sweep ({seeds} seeds)"
    );
    let mut rows = Vec::new();
    for name in &circuits {
        let circuit =
            wrt_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload `{name}`"));
        let row = overhead_row(&circuit, patterns, threads, reps);
        println!(
            "  {:<10} unlimited {:.4}s  budgeted {:.4}s  overhead {:+.2} %  identical {}",
            row.circuit,
            row.unlimited_seconds,
            row.budgeted_seconds,
            row.overhead_pct(),
            row.identical,
        );
        assert!(
            row.identical,
            "{name}: the budgeted run diverged from the unlimited one"
        );
        rows.push(row);
    }

    // Chaos sweep on a small circuit: outcome classification, not timing.
    let chaos_circuit = wrt_workloads::s1();
    let chaos_faults = FaultList::checkpoints(&chaos_circuit).collapse_equivalent(&chaos_circuit);
    let (mut fired, mut recovered, mut structured) = (0u64, 0u64, 0u64);
    let mut unrecovered: Vec<String> = Vec::new();
    // Injected panics are caught by the shard scaffold; silence the
    // default hook so the sweep's output is the classification, not
    // backtraces of failures that recovered as designed.
    std::panic::set_hook(Box::new(|_| {}));
    for seed in 0..seeds {
        let (site, did_fire, outcome) = chaos_drill(seed, &chaos_circuit, &chaos_faults);
        fired += u64::from(did_fire);
        match outcome {
            Outcome::Recovered => recovered += 1,
            Outcome::Structured => structured += 1,
            Outcome::Unrecovered(why) => unrecovered.push(format!("seed {seed} ({site}): {why}")),
        }
    }
    let _ = std::panic::take_hook();
    println!(
        "  chaos: {seeds} seeds, {fired} fired, {recovered} recovered bit-identically, \
         {structured} structured errors, {} unrecovered",
        unrecovered.len()
    );
    assert!(
        unrecovered.is_empty(),
        "chaos sweep lost results: {unrecovered:?}"
    );

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"robust_overhead_and_chaos\",\n  \"note\": \"overhead_pct compares the fault-simulation engine under a budget with every axis armed but never tripping (deadline, eval cap, cancellation flag) against the same engine under an unlimited budget, on the identical workload; wall-clock and host-dependent, expected within noise of zero (budget check-ins happen per 8192-pattern chunk, and the disabled fail-point fast path is one relaxed atomic load). bit_identical is the machine-independent claim: both runs complete cleanly with identical coverage and work counters. The chaos section is a seeded fail-point sweep over every planted site (worker spawn, shard merge, checkpoint write, budget check-in, serve accept/session/eco-apply; panics on worker-side sites, structured failures elsewhere): every injection must end in bit-identical recovery or a structured error. unrecovered counts silent result loss and must be zero; bench_guard re-checks it on the committed artifact.\",\n  \"patterns\": {},\n  \"threads\": {},\n  \"smoke\": {},\n  \"results\": [\n{}\n  ],\n  \"chaos\": {{\n    \"seeds\": {},\n    \"fired\": {},\n    \"recovered_bit_identical\": {},\n    \"structured_errors\": {},\n    \"unrecovered\": {}\n  }}\n}}\n",
        patterns,
        threads,
        smoke,
        body.join(",\n"),
        seeds,
        fired,
        recovered,
        structured,
        unrecovered.len(),
    );
    std::fs::write(&out, json).expect("write BENCH_robust.json");
    println!("wrote {out}");
}

//! The verb hub: one implementation per verb, shared verbatim by the
//! batch CLI and the resident server.
//!
//! Every verb parses the same argv tokens, runs against the same
//! [`Registry`], and *renders its result to a `String`* instead of
//! printing — the CLI prints the string, the server frames it onto the
//! wire.  One source of truth per verb is what makes the served results
//! bit-identical to batch mode: there is no second code path to drift.
//!
//! Budgets are threaded through [`ExecContext`]: a per-request default
//! deadline (the server's guard against runaway requests) and a shared
//! cancellation flag (Ctrl-C in the CLI, client disconnect in a served
//! session) merge with the request's own `--time-limit`/`--max-evals`
//! flags into one [`Budget`] per request.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use wrt_atpg::{generate_tests_budgeted, AtpgConfig, BacktraceGuidance, ATPG_CHECKPOINT_KIND};
use wrt_circuit::{Circuit, CircuitStats, GateKind};
use wrt_core::{
    optimize_budgeted, quantize_weights, required_test_length, OptimizeConfig, TestLength,
    OPTIMIZE_CHECKPOINT_KIND,
};
use wrt_estimate::{
    CopEngine, DetectionProbabilityEngine, EcoMutation, MonteCarloEngine, SessionCop,
    StafanEngine,
};
use wrt_robust::failpoint::{self, sites};
use wrt_robust::{Budget, BudgetExceeded, Checkpoint, Progress, RunOutcome};
use wrt_sim::{fault_coverage_robust, SimOptions, WeightedPatterns};

use crate::registry::{weight_key, CircuitEntry, Registry};

pub use crate::registry::load_circuit;

pub const USAGE: &str = "usage: wrt <command> [args]

commands:
  stats    <circuit>                              circuit statistics
  analyze  <circuit | all> [--lint] [--json]
           static testability report: SCOAP controllability/observability
           summary, FFR/reconvergence census, and structural lints.
           `all` sweeps every built-in workload.  --lint prints findings
           only and exits nonzero if any lint fires (CI gate); --json
           emits the machine-readable report (including the circuit uid
           and stable structural digest).  A .bench file path is
           additionally linted at the text level (combinational loops,
           undriven nets) before parsing.
  estimate <circuit> [--weights w1,w2,...] [--confidence C] [--top K]
           COP detection probabilities over the experiment fault set at
           the given input weights (default equiprobable): summary
           statistics, the required weighted-random test length at
           confidence C (default 0.999), and the K hardest faults
           (default 5).  Served warm: the baseline is cached per
           (circuit, weight vector) in the registry.
  eco      <circuit> --set g=KIND[,g=KIND...] [--weights w1,...] [--top K]
           what-if ECO query: with the named gates virtually replaced by
           the given kinds (AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF),
           reports the testability deltas — changed probabilities /
           observabilities / fault detection probabilities and the K
           largest detection-probability moves — from the session's
           COP overlay over the cached baseline instead of a cold
           recompute.
           Results are bit-identical to rebuilding the mutated circuit.
  optimize <circuit> [--grid G] [--confidence C] [--engine E] [--threads T]
           [--seed S] [--mc-patterns N] [--seed-weights uniform|scoap]
           [--time-limit SECS] [--max-evals N] [--checkpoint F] [--resume F]
           optimized input probabilities;
           E = cop (default; one forward and one backward COP pass per
           PREPARE point) | stafan | monte-carlo
           (--seed and --mc-patterns apply to the sampling engines).
           --seed-weights scoap starts the descent at the SCOAP-derived
           input bias instead of the jittered equiprobable point.
  simulate <circuit> --patterns N [--weights w1,w2,...] [--seed S] [--threads T]
           [--pattern-stripes P] [--time-limit SECS] [--max-evals N]
           weighted-random fault simulation: event-driven sparse
           propagation over 256-pattern superblocks, once per fanout-free
           region head for all faults whose effects reach it, stopping
           once every flipped pattern is observed.  Root propagations
           (from region heads) are reported next to the gate evals.
           --pattern-stripes P is accepted for compatibility and has no
           effect.  Coverage is bit-identical for every thread count.
  atpg     <circuit> [--backtracks B] [--guidance cop|scoap|unguided]
           [--degrade] [--time-limit SECS] [--max-evals N]
           [--max-backtracks-total N] [--checkpoint F] [--resume F]
           deterministic test generation; --guidance picks the backtrace
           controllability model (default cop — conclusions are identical
           either way, only the backtrack spend differs).  --degrade
           retries guided aborts once with the unguided backtrace.
  generate [--gates N] [--seed S] [--out FILE]
           tiled synthetic netlist for scale work: composes the built-in
           workloads into a lint-clean circuit of at least N gates
           (default 10000, seed 42), deterministic by (N, seed), written
           as .bench to FILE or stdout.
  load     <circuit>                              register a circuit, print its uid
  stat                                            registry contents and cache counters
  flush                                           drop every cached circuit and baseline
  workloads                                       list built-in circuits
  serve    [--addr HOST:PORT] [--deadline SECS]   resident server (line protocol)
  client   <addr> <command ...>                   send one command to a server

<circuit> is a workload name (see `wrt workloads`), a .bench file path,
or `#<uid>` for a circuit already registered via `load`.  `wrt --remote
<addr> <command ...>` forwards any command to a running server; `wrt
client` is the same thing spelled as a verb.
--threads T runs PPSFP fault simulation on T sharded worker threads
(default: auto; results are identical for any T).  For optimize it
requires --engine monte-carlo, the engine that fault-simulates.

budgets: --time-limit SECS (wall clock, fractional ok) and --max-evals N
bound a run; --max-backtracks-total N additionally bounds atpg.  The
eval unit is deterministic per command: simulate counts gate evaluations
of fault-free simulation (node count × patterns), optimize counts engine
calls, atpg counts PODEM calls.  A tripped budget is not an error: the
partial result is reported, and optimize/atpg write their resume state
to the --checkpoint file (default: the --resume path).  Ctrl-C raises
the same machinery: the run is interrupted at its next check-in with a
structured partial result (and checkpoint) instead of a killed process.
--resume F continues bit-identically from a checkpoint; a missing,
corrupt, version-mismatched, or wrong-circuit file is a clean error —
garbage is never loaded.";

/// Everything a verb needs besides its argv: the shared registry, the
/// environment's budget defaults, and per-session ECO overlay state.
pub struct ExecContext {
    registry: Arc<Registry>,
    default_deadline: Option<Duration>,
    cancel: Option<Arc<AtomicBool>>,
    /// `(circuit uid, weight key)` → reusable overlay scratch.  Lives in
    /// the context (one per CLI process / per served session) so
    /// consecutive ECO queries reuse their allocation; a panic while it
    /// is locked poisons only this session.
    eco_sessions: Mutex<HashMap<(u64, u64), SessionCop>>,
}

impl ExecContext {
    /// A context over `registry` with no budget defaults.
    pub fn new(registry: Arc<Registry>) -> Self {
        ExecContext {
            registry,
            default_deadline: None,
            cancel: None,
            eco_sessions: Mutex::new(HashMap::new()),
        }
    }

    /// Applies a default wall-clock deadline to every budgeted request
    /// that does not set its own `--time-limit`.
    pub fn with_default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.default_deadline = deadline;
        self
    }

    /// Attaches a cancellation flag (Ctrl-C, client disconnect) to every
    /// budgeted request.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The shared registry behind this context.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

/// Dispatches one request (CLI argv or protocol line) to its verb.
///
/// # Errors
///
/// Every failure — unknown verb, bad flag, unresolvable circuit,
/// refused resume — is a rendered message, never a panic.
pub fn execute(ctx: &ExecContext, argv: &[String]) -> Result<String, String> {
    let Some((verb, rest)) = argv.split_first() else {
        return Err(format!("empty request\n{USAGE}"));
    };
    match verb.as_str() {
        "stats" => stats(ctx, rest),
        "analyze" => analyze(ctx, rest),
        "estimate" => estimate(ctx, rest),
        "eco" => eco(ctx, rest),
        "optimize" => optimize(ctx, rest),
        "simulate" => simulate(ctx, rest),
        "atpg" => atpg(ctx, rest),
        "generate" => generate(rest),
        "load" => load(ctx, rest),
        "stat" => Ok(stat(ctx)),
        "flush" => Ok(flush(ctx)),
        "workloads" => Ok(workloads_list()),
        "help" | "--help" | "-h" => Ok(format!("{USAGE}\n")),
        "shutdown" => Err("shutdown only applies to a served session".into()),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

/// Loads a circuit directly (no registry).  The batch-compatible form
/// kept for callers that need an owned [`Circuit`].
pub fn circuit_arg(args: &[String]) -> Result<Circuit, String> {
    let name = circuit_name_arg(args)?;
    load_circuit(name)
}

fn circuit_name_arg(args: &[String]) -> Result<&String, String> {
    args.iter()
        .find(|a| !a.starts_with("--") && !is_flag_value(args, a))
        .ok_or_else(|| format!("missing circuit argument\n{USAGE}"))
}

fn entry_arg(ctx: &ExecContext, args: &[String]) -> Result<Arc<CircuitEntry>, String> {
    ctx.registry.resolve(circuit_name_arg(args)?)
}

/// The value following `--name`, if present.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses `--name value` with a default, as a clean error on garbage.
pub fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value `{raw}` for {name}")),
    }
}

fn is_flag_value(args: &[String], candidate: &String) -> bool {
    args.iter()
        .position(|a| std::ptr::eq(a, candidate))
        .is_some_and(|i| i > 0 && args[i - 1].starts_with("--"))
}

/// Parses the shared budget flags and merges the context's defaults:
/// `allow_backtracks` gates `--max-backtracks-total`, which only the
/// atpg search can honor; the context contributes a default deadline
/// (when the request sets no `--time-limit`) and the cancellation flag.
fn budget_arg(
    ctx: &ExecContext,
    args: &[String],
    allow_backtracks: bool,
) -> Result<Budget, String> {
    let mut budget = Budget::unlimited();
    match flag_value(args, "--time-limit") {
        Some(raw) => {
            let secs: f64 = raw
                .parse()
                .map_err(|_| format!("invalid value `{raw}` for --time-limit"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err("--time-limit is a non-negative number of seconds".into());
            }
            budget = budget.with_time_limit(Duration::from_secs_f64(secs));
        }
        None => {
            if let Some(deadline) = ctx.default_deadline {
                budget = budget.with_time_limit(deadline);
            }
        }
    }
    if let Some(raw) = flag_value(args, "--max-evals") {
        let max: u64 = raw
            .parse()
            .map_err(|_| format!("invalid value `{raw}` for --max-evals"))?;
        budget = budget.with_max_evals(max);
    }
    if let Some(raw) = flag_value(args, "--max-backtracks-total") {
        if !allow_backtracks {
            return Err("--max-backtracks-total only applies to atpg".into());
        }
        let max: u64 = raw
            .parse()
            .map_err(|_| format!("invalid value `{raw}` for --max-backtracks-total"))?;
        budget = budget.with_max_backtracks(max);
    }
    if let Some(cancel) = &ctx.cancel {
        budget = budget.with_cancel(Arc::clone(cancel));
    }
    Ok(budget)
}

/// Loads the `--resume` checkpoint of the given subsystem kind.
/// Missing, corrupt, truncated, version-mismatched, and foreign-kind
/// files are all clean errors; damaged state is never deserialized.
fn resume_arg(args: &[String], kind: &str) -> Result<Option<Checkpoint>, String> {
    match flag_value(args, "--resume") {
        None => Ok(None),
        Some(path) => Checkpoint::read(Path::new(path), kind)
            .map(Some)
            .map_err(|e| format!("cannot resume from `{path}`: {e}")),
    }
}

/// Where an interrupted run should write its resume state: the
/// `--checkpoint` path, or (so a crash-loop workflow needs one flag) the
/// `--resume` path it was loaded from.
fn checkpoint_path_arg(args: &[String]) -> Option<PathBuf> {
    flag_value(args, "--checkpoint")
        .or_else(|| flag_value(args, "--resume"))
        .map(PathBuf::from)
}

fn report_interrupt(out: &mut String, what: &str, reason: BudgetExceeded, progress: &Progress) {
    let total = progress
        .total
        .map_or_else(String::new, |t| format!(" of {t}"));
    let _ = writeln!(
        out,
        "{what} interrupted ({reason}) after {}{total} {}",
        progress.done, progress.unit
    );
}

/// Persists an interrupted run's checkpoint, or says why it cannot.
fn write_checkpoint(
    out: &mut String,
    ckpt: &Checkpoint,
    path: Option<&PathBuf>,
) -> Result<(), String> {
    match path {
        None => {
            let _ = writeln!(out, "no --checkpoint path given; resume state discarded");
            Ok(())
        }
        Some(p) => {
            ckpt.write_atomic(p)
                .map_err(|e| format!("writing checkpoint: {e}"))?;
            let _ = writeln!(
                out,
                "resume state written to `{}` (pass --resume to continue)",
                p.display()
            );
            Ok(())
        }
    }
}

/// Parses `--weights w1,w2,...` (default equiprobable); every weight is
/// a probability, finite and in `[0, 1]`.
fn weights_arg(args: &[String], num_inputs: usize) -> Result<Vec<f64>, String> {
    match flag_value(args, "--weights") {
        None => Ok(vec![0.5; num_inputs]),
        Some(raw) => {
            let parsed: Result<Vec<f64>, _> = raw.split(',').map(str::parse).collect();
            let parsed = parsed.map_err(|_| "invalid --weights list".to_string())?;
            if parsed.len() != num_inputs {
                return Err(format!(
                    "--weights needs {num_inputs} values, got {}",
                    parsed.len()
                ));
            }
            if let Some(bad) = parsed.iter().find(|w| !(0.0..=1.0).contains(*w)) {
                return Err(format!(
                    "--weights value {bad} is not a probability in [0, 1]"
                ));
            }
            Ok(parsed)
        }
    }
}

// Infallible, but every verb shares the Result signature the dispatcher
// expects.
#[allow(clippy::unnecessary_wraps)]
pub fn generate(args: &[String]) -> Result<String, String> {
    let gates: usize = parse_flag(args, "--gates", 10_000)?;
    let seed: u64 = parse_flag(args, "--seed", 42)?;
    let circuit = wrt_workloads::tiled(gates, seed);
    let text = wrt_circuit::to_bench(&circuit);
    match flag_value(args, "--out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing `{path}`: {e}"))?;
            Ok(format!(
                "wrote {} ({} gates, {} inputs, {} outputs) to {path}\n",
                circuit.name(),
                circuit.num_gates(),
                circuit.num_inputs(),
                circuit.num_outputs()
            ))
        }
        None => Ok(text),
    }
}

pub fn workloads_list() -> String {
    let mut out = String::new();
    for name in wrt_workloads::WORKLOAD_NAMES {
        let circuit = wrt_workloads::by_name(name).expect("registered");
        let _ = writeln!(
            out,
            "{name:10} {:4} inputs {:4} outputs {:5} gates",
            circuit.num_inputs(),
            circuit.num_outputs(),
            circuit.num_gates()
        );
    }
    out
}

pub fn stats(ctx: &ExecContext, args: &[String]) -> Result<String, String> {
    let entry = entry_arg(ctx, args)?;
    let circuit = entry.circuit();
    let mut out = String::new();
    let _ = write!(out, "{}", CircuitStats::of(circuit));
    let _ = writeln!(out, "  uid: {}", circuit.uid());
    let _ = writeln!(out, "  digest: {:016x}", circuit.structural_digest());
    let m = circuit.memory_footprint();
    let _ = writeln!(out, "{m}");
    let _ = writeln!(out, "  bytes/gate: {:.1}", m.bytes_per_gate(circuit.num_gates()));
    Ok(out)
}

pub fn analyze(ctx: &ExecContext, args: &[String]) -> Result<String, String> {
    let lint_only = args.iter().any(|a| a == "--lint");
    let json = args.iter().any(|a| a == "--json");
    let target = args
        .iter()
        .find(|a| !a.starts_with("--") && !is_flag_value(args, a))
        .ok_or_else(|| format!("missing circuit argument (or `all`)\n{USAGE}"))?;
    let mut out = String::new();

    // (name, circuit, text-level findings for .bench files).
    let mut subjects: Vec<(String, Arc<Circuit>, Vec<wrt_analyze::Finding>)> = Vec::new();
    if target == "all" {
        for name in wrt_workloads::WORKLOAD_NAMES {
            let entry = ctx.registry.resolve(name)?;
            subjects.push(((*name).to_string(), Arc::clone(entry.circuit()), Vec::new()));
        }
    } else if wrt_workloads::by_name(target).is_some() || target.starts_with('#') {
        let entry = ctx.registry.resolve(target)?;
        subjects.push((target.clone(), Arc::clone(entry.circuit()), Vec::new()));
    } else {
        let text = std::fs::read_to_string(target).map_err(|e| {
            format!("`{target}` is neither a workload name, `all`, nor a readable file: {e}")
        })?;
        // Text-level lints first: they catch loops and undriven nets that
        // would make parsing fail outright.
        let text_findings = wrt_analyze::lint_bench_text(&text);
        match ctx.registry.resolve(target) {
            Ok(entry) => {
                subjects.push((target.clone(), Arc::clone(entry.circuit()), text_findings));
            }
            Err(e) => {
                if text_findings.is_empty() {
                    return Err(e);
                }
                for finding in &text_findings {
                    let _ = writeln!(out, "{finding}");
                }
                return Err(format!("{out}{target}: netlist does not parse: {e}"));
            }
        }
    }

    let mut total_findings = 0usize;
    let mut json_reports = Vec::new();
    for (name, circuit, text_findings) in &subjects {
        let report = wrt_analyze::analyze(circuit);
        total_findings += text_findings.len() + report.findings.len();
        if lint_only {
            for finding in text_findings.iter().chain(&report.findings) {
                let _ = writeln!(out, "{name}: {finding}");
            }
        } else if json {
            json_reports.push(report.to_json());
        } else {
            for finding in text_findings {
                let _ = writeln!(out, "  text: {finding}");
            }
            let _ = write!(out, "{report}");
            let m = circuit.memory_footprint();
            let _ = writeln!(
                out,
                "memory: {} bytes ({:.1} bytes/gate)",
                m.total(),
                m.bytes_per_gate(circuit.num_gates())
            );
        }
    }
    if json && !lint_only {
        if subjects.len() == 1 {
            let _ = write!(out, "{}", json_reports[0]);
        } else {
            let _ = writeln!(out, "[{}]", json_reports.join(", "));
        }
    }
    if lint_only {
        if total_findings == 0 {
            let _ = writeln!(out, "lint clean: {} circuit(s), 0 findings", subjects.len());
            return Ok(out);
        }
        return Err(format!("{out}lint failed: {total_findings} finding(s)"));
    }
    Ok(out)
}

/// COP detection probabilities over the experiment fault set, served
/// from the registry's shared per-weight-vector baseline.
pub fn estimate(ctx: &ExecContext, args: &[String]) -> Result<String, String> {
    let entry = entry_arg(ctx, args)?;
    let circuit = entry.circuit();
    let weights = weights_arg(args, circuit.num_inputs())?;
    let confidence: f64 = parse_flag(args, "--confidence", 0.999)?;
    if !(0.0..1.0).contains(&confidence) || confidence <= 0.0 {
        return Err("--confidence must be in (0, 1)".into());
    }
    let top: usize = parse_flag(args, "--top", 5)?;
    let baseline = ctx.registry.baseline(&entry, &weights);
    let faults = entry.experiment_faults();
    let dp = baseline.detection_probabilities(faults);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "estimate {}: {} faults over {} inputs",
        circuit.name(),
        faults.len(),
        circuit.num_inputs()
    );
    let mut sorted: Vec<(usize, f64)> = dp.iter().copied().enumerate().collect();
    sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    if let (Some(&(_, min)), Some(&(_, max))) = (sorted.first(), sorted.last()) {
        let median = sorted[sorted.len() / 2].1;
        let _ = writeln!(
            out,
            "detection probability: min {min:.6e}, median {median:.6e}, max {max:.6e}"
        );
    }
    match required_test_length(&dp, 1.0 - confidence) {
        TestLength::Patterns { n, num_relevant } => {
            let _ = writeln!(
                out,
                "test length N({confidence}): {n:.3e} patterns ({num_relevant} relevant faults)"
            );
        }
        TestLength::Infinite => {
            let why = if dp.iter().any(|&p| p <= 0.0) {
                "some fault has zero detection probability"
            } else {
                "beyond 2^1023 patterns, the f64 range"
            };
            let _ = writeln!(out, "test length N({confidence}): infinite ({why})");
        }
    }
    let hardest = sorted.iter().take(top);
    let fault_slice = faults.as_slice();
    for &(i, p) in hardest {
        let _ = writeln!(out, "  hard: {} p={p:.6e}", fault_slice[i].describe(circuit));
    }
    Ok(out)
}

fn parse_mutations(circuit: &Circuit, spec: &str) -> Result<Vec<EcoMutation>, String> {
    let mut mutations = Vec::new();
    for item in spec.split(',') {
        let Some((name, kind_raw)) = item.split_once('=') else {
            return Err(format!(
                "malformed --set item `{item}` (expected gate=KIND)"
            ));
        };
        let gate = circuit
            .node_id(name)
            .ok_or_else(|| format!("no node named `{name}` in {}", circuit.name()))?;
        let kind: GateKind = kind_raw
            .parse()
            .map_err(|_| format!("unknown gate kind `{kind_raw}` in --set"))?;
        mutations.push(EcoMutation { gate, kind });
    }
    Ok(mutations)
}

/// What-if ECO query: testability deltas from the session's pending
/// overlay instead of a cold recompute.
pub fn eco(ctx: &ExecContext, args: &[String]) -> Result<String, String> {
    let entry = entry_arg(ctx, args)?;
    let circuit = Arc::clone(entry.circuit());
    let weights = weights_arg(args, circuit.num_inputs())?;
    let top: usize = parse_flag(args, "--top", 5)?;
    let spec = flag_value(args, "--set")
        .ok_or_else(|| "eco requires --set gate=KIND[,gate=KIND...]".to_string())?;
    let mutations = parse_mutations(&circuit, spec)?;
    failpoint::hit(sites::SERVE_ECO_APPLY).map_err(|e| e.to_string())?;

    let baseline = ctx.registry.baseline(&entry, &weights);
    let faults = entry.experiment_faults();
    let base_dp = baseline.detection_probabilities(faults);

    let key = (circuit.uid(), weight_key(&weights));
    let mut sessions = ctx
        .eco_sessions
        .lock()
        .map_err(|_| "session poisoned by an earlier panic; reconnect to recover".to_string())?;
    let session = sessions
        .entry(key)
        .or_insert_with(|| SessionCop::new(Arc::clone(&baseline)));
    let (dp, eco_stats) = session.what_if(&mutations, faults)?;
    drop(sessions);

    let mut out = String::new();
    let _ = writeln!(out, "eco {}: {} gate(s) mutated", circuit.name(), mutations.len());
    for m in &mutations {
        let node = circuit.node(m.gate);
        let _ = writeln!(out, "  {} {:?} -> {:?}", node.name(), node.kind(), m.kind);
    }
    let _ = writeln!(
        out,
        "cone: {} node(s); overlay evals {} vs cold {} ({:.1}x fewer)",
        eco_stats.cone_nodes,
        eco_stats.overlay_evals(),
        eco_stats.cold_evals,
        eco_stats.eval_reduction()
    );
    let mut deltas: Vec<(usize, f64, f64)> = base_dp
        .iter()
        .zip(&dp)
        .enumerate()
        .filter(|(_, (b, a))| a.to_bits() != b.to_bits())
        .map(|(i, (&b, &a))| (i, b, a))
        .collect();
    let _ = writeln!(
        out,
        "changed: {} signal probabilities, {} observabilities, {} fault detection probabilities",
        eco_stats.changed_probabilities,
        eco_stats.changed_observabilities,
        deltas.len()
    );
    deltas.sort_by(|x, y| {
        (y.2 - y.1)
            .abs()
            .total_cmp(&(x.2 - x.1).abs())
            .then(x.0.cmp(&y.0))
    });
    let fault_slice = faults.as_slice();
    for &(i, before, after) in deltas.iter().take(top) {
        let _ = writeln!(
            out,
            "  delta: {} {before:.6e} -> {after:.6e}",
            fault_slice[i].describe(&circuit)
        );
    }
    Ok(out)
}

/// Registers a circuit and reports its identity (uid, stable digest).
pub fn load(ctx: &ExecContext, args: &[String]) -> Result<String, String> {
    let entry = entry_arg(ctx, args)?;
    let c = entry.circuit();
    Ok(format!(
        "loaded {}: uid {}, digest {:016x}, {} nodes, {} inputs, {} outputs, {} gates\n",
        c.name(),
        c.uid(),
        c.structural_digest(),
        c.num_nodes(),
        c.num_inputs(),
        c.num_outputs(),
        c.num_gates()
    ))
}

/// Registry contents and cache counters.
pub fn stat(ctx: &ExecContext) -> String {
    let mut out = String::new();
    let circuits = ctx.registry.circuits();
    let _ = writeln!(
        out,
        "registry: {} circuit(s), {} baseline(s)",
        circuits.len(),
        ctx.registry.num_baselines()
    );
    for (uid, name, nodes) in circuits {
        let _ = writeln!(out, "  #{uid} {name} ({nodes} nodes)");
    }
    let (resolves, hits, misses) = ctx.registry.counter_snapshot();
    let _ = writeln!(
        out,
        "counters: {resolves} resolve(s), {hits} baseline hit(s), {misses} baseline miss(es)"
    );
    out
}

/// Drops every cached circuit and baseline.
pub fn flush(ctx: &ExecContext) -> String {
    let (circuits, baselines) = ctx.registry.flush();
    ctx.eco_sessions
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    format!("registry flushed: {circuits} circuit(s), {baselines} baseline(s) dropped\n")
}

/// Builds the detection-probability engine selected by `--engine`,
/// threading `--threads` into the Monte-Carlo simulation path.
///
/// Sampling-only flags are rejected for engines that cannot honor them,
/// instead of being silently ignored.
pub fn engine_arg(args: &[String]) -> Result<Box<dyn DetectionProbabilityEngine>, String> {
    // Unknown flags are otherwise ignored, so a removed one must say so.
    if args.iter().any(|a| a == "--commit-batch") {
        return Err("--commit-batch was removed: every COP query is a full \
             two-pass recompute"
            .into());
    }
    let engine = flag_value(args, "--engine").unwrap_or("cop");
    if engine == "incremental-cop" {
        return Err("--engine incremental-cop was removed: use --engine cop, \
             which gives bit-identical results"
            .into());
    }
    if !["cop", "stafan", "monte-carlo"].contains(&engine) {
        return Err(format!(
            "unknown engine `{engine}` (expected cop, stafan, or monte-carlo)"
        ));
    }
    if engine != "monte-carlo" {
        for flag in ["--threads", "--mc-patterns"] {
            if flag_value(args, flag).is_some() {
                return Err(format!(
                    "{flag} only applies to fault-simulating engines; add --engine monte-carlo"
                ));
            }
        }
    }
    if engine == "cop" && flag_value(args, "--seed").is_some() {
        return Err("--seed only applies to sampling engines (stafan, monte-carlo)".into());
    }
    let threads: usize = parse_flag(args, "--threads", 0)?;
    let seed: u64 = parse_flag(args, "--seed", 42)?;
    Ok(match engine {
        "cop" => Box::new(CopEngine::new()),
        "stafan" => Box::new(StafanEngine::new(64 * 256, seed)),
        "monte-carlo" => {
            let patterns: u64 = parse_flag(args, "--mc-patterns", 64 * 256)?;
            if patterns == 0 {
                return Err("--mc-patterns must be at least 1".into());
            }
            Box::new(MonteCarloEngine::new(patterns, seed).with_threads(threads))
        }
        _ => unreachable!("engine name validated above"),
    })
}

pub fn optimize(ctx: &ExecContext, args: &[String]) -> Result<String, String> {
    let entry = entry_arg(ctx, args)?;
    let circuit = entry.circuit();
    let grid: f64 = parse_flag(args, "--grid", 0.05)?;
    if !(grid > 0.0 && grid < 0.5) {
        return Err("--grid is a spacing in (0, 0.5), e.g. 0.05".into());
    }
    let confidence: f64 = parse_flag(args, "--confidence", 0.999)?;
    if !(0.0..1.0).contains(&confidence) || confidence <= 0.0 {
        return Err("--confidence must be in (0, 1)".into());
    }
    let faults = entry.experiment_faults();
    let config = OptimizeConfig {
        confidence,
        ..OptimizeConfig::default()
    };
    let config = match flag_value(args, "--seed-weights") {
        None | Some("uniform") => config,
        Some("scoap") => config.scoap_seeded(circuit),
        Some(other) => {
            return Err(format!(
                "unknown --seed-weights `{other}` (expected uniform or scoap)"
            ))
        }
    };
    let mut engine = engine_arg(args)?;
    let budget = budget_arg(ctx, args, false)?;
    let resume = resume_arg(args, OPTIMIZE_CHECKPOINT_KIND)?;
    let run = optimize_budgeted(
        circuit,
        faults,
        engine.as_mut(),
        &config,
        &budget,
        resume.as_ref(),
    )
    .map_err(|e| format!("cannot resume: {e}"))?;
    let mut out = String::new();
    let result = match run.outcome {
        RunOutcome::Complete(result) => result,
        RunOutcome::Interrupted {
            partial,
            reason,
            progress,
        } => {
            report_interrupt(&mut out, "optimization", reason, &progress);
            let ckpt = run.checkpoint.as_ref().expect("interrupted runs checkpoint");
            write_checkpoint(&mut out, ckpt, checkpoint_path_arg(args).as_ref())?;
            partial
        }
    };
    let _ = writeln!(
        out,
        "test length: {:.3e} -> {:.3e}  (factor {:.1}, {} sweeps, {} engine calls)",
        result.initial_length,
        result.final_length,
        result.improvement_factor(),
        result.sweeps.len(),
        result.engine_calls
    );
    let weights = quantize_weights(&result.weights, grid);
    let _ = writeln!(out, "optimized probabilities (grid {grid}):");
    for (&pi, w) in circuit.inputs().iter().zip(&weights) {
        let _ = writeln!(out, "  {:<12} {w:.2}", circuit.node(pi).name());
    }
    Ok(out)
}

pub fn simulate(ctx: &ExecContext, args: &[String]) -> Result<String, String> {
    let entry = entry_arg(ctx, args)?;
    let circuit = entry.circuit();
    let patterns: u64 = parse_flag(args, "--patterns", 0)?;
    if patterns == 0 {
        return Err("simulate requires --patterns N".into());
    }
    let seed: u64 = parse_flag(args, "--seed", 42)?;
    let weights = weights_arg(args, circuit.num_inputs())?;
    let threads: usize = parse_flag(args, "--threads", 0)?;
    reject_removed_sim_flags(args)?;
    // Accepted for compatibility with the retired 2D tiled engine: still
    // validated, but it no longer changes anything.
    let _: usize = parse_flag(args, "--pattern-stripes", 0)?;
    let budget = budget_arg(ctx, args, false)?;
    let faults = entry.experiment_faults();
    let mut out = String::new();
    let outcome = fault_coverage_robust(
        circuit,
        faults,
        WeightedPatterns::new(weights, seed),
        patterns,
        true,
        threads,
        SimOptions::default(),
        &budget,
    );
    let robust = match outcome {
        RunOutcome::Complete(robust) => robust,
        RunOutcome::Interrupted {
            partial,
            reason,
            progress,
        } => {
            report_interrupt(&mut out, "simulation", reason, &progress);
            partial
        }
    };
    let _ = writeln!(out, "{}", robust.result);
    if !robust.recovery.is_clean() {
        let _ = writeln!(
            out,
            "shard recovery: {} worker panic(s), {} replay(s), {} unresolved — {}",
            robust.recovery.worker_panics,
            robust.recovery.replays,
            robust.recovery.unresolved.len(),
            robust.recovery.ladder,
        );
    }
    let detected = robust.result.num_detected();
    if detected > 0 {
        let _ = writeln!(
            out,
            "engine event: {} gate evals ({:.1} per detected fault, {:.1} % frontier die-out), \
             {} root propagations",
            robust.stats.node_evals,
            robust.stats.node_evals as f64 / detected as f64,
            robust.stats.frontier_dieout_rate() * 100.0,
            robust.stats.root_propagations,
        );
    }
    Ok(out)
}

/// Rejects the simulate subcommand's removed flags, whatever their value:
/// unknown flags are otherwise ignored, so a removed one must say so.
fn reject_removed_sim_flags(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--engine") {
        return Err("--engine was removed: simulate always runs the event kernel".into());
    }
    if args.iter().any(|a| a == "--block-words") {
        return Err("--block-words was removed: simulate runs one superblock width, \
             and coverage never depended on it"
            .into());
    }
    Ok(())
}

pub fn atpg(ctx: &ExecContext, args: &[String]) -> Result<String, String> {
    let entry = entry_arg(ctx, args)?;
    let circuit = entry.circuit();
    let backtracks: usize = parse_flag(args, "--backtracks", 10_000)?;
    let guidance = match flag_value(args, "--guidance") {
        None | Some("cop") => BacktraceGuidance::Cop,
        Some("scoap") => BacktraceGuidance::Scoap,
        Some("unguided") => BacktraceGuidance::Unguided,
        Some(other) => {
            return Err(format!(
                "unknown --guidance `{other}` (expected cop, scoap, or unguided)"
            ))
        }
    };
    let faults = entry.atpg_faults();
    let config = AtpgConfig {
        backtrack_limit: backtracks,
        guidance,
        degrade_on_abort: args.iter().any(|a| a == "--degrade"),
        ..AtpgConfig::default()
    };
    let budget = budget_arg(ctx, args, true)?;
    let resume = resume_arg(args, ATPG_CHECKPOINT_KIND)?;
    let run = generate_tests_budgeted(circuit, faults, &config, &budget, resume.as_ref())
        .map_err(|e| format!("cannot resume: {e}"))?;
    let mut out = String::new();
    let report = match run.outcome {
        RunOutcome::Complete(report) => report,
        RunOutcome::Interrupted {
            partial,
            reason,
            progress,
        } => {
            report_interrupt(&mut out, "atpg", reason, &progress);
            let ckpt = run.checkpoint.as_ref().expect("interrupted runs checkpoint");
            write_checkpoint(&mut out, ckpt, checkpoint_path_arg(args).as_ref())?;
            partial
        }
    };
    let _ = writeln!(
        out,
        "{} faults: {} detected, {} redundant, {} aborted, {} not attempted",
        faults.len(),
        report.detected.len(),
        report.redundant.len(),
        report.aborted.len(),
        report.survivors.len()
    );
    let _ = writeln!(
        out,
        "{} tests generated with {} PODEM calls, {} backtracks (coverage {:.1} %)",
        report.tests.len(),
        report.podem_calls,
        report.backtracks,
        report.coverage() * 100.0
    );
    if !run.ladder.is_empty() {
        let _ = writeln!(out, "degradation: {}", run.ladder);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    fn ctx() -> ExecContext {
        ExecContext::new(Arc::new(Registry::new()))
    }

    #[test]
    fn execute_dispatches_and_rejects_unknowns() {
        let c = ctx();
        assert!(execute(&c, &args(&["workloads"])).is_ok());
        assert!(execute(&c, &args(&["stats", "s1"])).is_ok());
        assert!(execute(&c, &args(&["no-such-verb"])).is_err());
        assert!(execute(&c, &[]).is_err());
        assert!(execute(&c, &args(&["shutdown"])).is_err());
    }

    #[test]
    fn stats_reports_uid_and_digest() {
        let c = ctx();
        let out = stats(&c, &args(&["s1"])).expect("stats");
        assert!(out.contains("uid: "), "{out}");
        assert!(out.contains("digest: "), "{out}");
        // The uid line matches the registered circuit.
        let entry = c.registry().resolve("s1").expect("registered");
        assert!(out.contains(&format!("uid: {}", entry.circuit().uid())));
    }

    #[test]
    fn estimate_is_deterministic_and_warm_hits_the_cache() {
        let c = ctx();
        let a = estimate(&c, &args(&["c880ish"])).expect("cold");
        let b = estimate(&c, &args(&["c880ish"])).expect("warm");
        assert_eq!(a, b, "cache must not change rendered results");
        let (_, hits, misses) = c.registry().counter_snapshot();
        assert_eq!((hits, misses), (1, 1));
        assert!(a.contains("test length"), "{a}");
        // Weighted query builds a second baseline.
        let n = c
            .registry()
            .resolve("c880ish")
            .expect("entry")
            .circuit()
            .num_inputs();
        let w: Vec<&str> = vec!["0.25"; n];
        let q = args(&["c880ish", "--weights", &w.join(",")]);
        assert!(estimate(&c, &q).is_ok());
        assert_eq!(c.registry().num_baselines(), 2);
        // Malformed weights are clean errors.
        assert!(estimate(&c, &args(&["c880ish", "--weights", "0.5"])).is_err());
        assert!(estimate(&c, &args(&["c880ish", "--confidence", "2"])).is_err());
    }

    #[test]
    fn eco_reports_deltas_and_validates_its_spec() {
        let c = ctx();
        let entry = c.registry().resolve("c880ish").expect("workload");
        // Find a mutable 2-input gate to flip.
        let circuit = entry.circuit();
        let (gate_name, flipped) = circuit
            .iter()
            .find_map(|(_, n)| match n.kind() {
                GateKind::And => Some((n.name().to_string(), "OR")),
                GateKind::Nand => Some((n.name().to_string(), "NOR")),
                _ => None,
            })
            .expect("has a flippable gate");
        let spec = format!("{gate_name}={flipped}");
        let out = eco(&c, &args(&["c880ish", "--set", &spec])).expect("eco runs");
        assert!(out.contains("overlay evals"), "{out}");
        assert!(out.contains("x fewer"), "{out}");
        // Same query again reuses the session scratch, bit-identically.
        let again = eco(&c, &args(&["c880ish", "--set", &spec])).expect("warm eco");
        assert_eq!(out, again);
        // Structured errors, not panics.
        assert!(eco(&c, &args(&["c880ish"])).is_err(), "missing --set");
        assert!(eco(&c, &args(&["c880ish", "--set", "garbage"])).is_err());
        assert!(eco(&c, &args(&["c880ish", "--set", "nosuchgate=OR"])).is_err());
        assert!(eco(&c, &args(&["c880ish", "--set", &format!("{gate_name}=FROB")])).is_err());
    }

    #[test]
    fn weights_outside_the_unit_interval_are_rejected() {
        let c = ctx();
        let entry = c.registry().resolve("c880ish").expect("workload");
        let circuit = entry.circuit();
        let n = circuit.num_inputs();
        let gate = circuit
            .iter()
            .find_map(|(_, n)| (n.kind() == GateKind::And).then(|| n.name().to_string()))
            .expect("has an AND gate");
        let spec = format!("{gate}=OR");
        let weights = |first: &str| {
            let mut w = vec!["0.5"; n];
            w[0] = first;
            w.join(",")
        };
        type Verb = fn(&ExecContext, &[String]) -> Result<String, String>;
        let verbs: [(&str, Verb, &[&str]); 3] = [
            ("estimate", estimate, &[]),
            ("eco", eco, &["--set", &spec]),
            ("simulate", simulate, &["--patterns", "64"]),
        ];
        for (name, verb, extra) in verbs {
            for bad in ["NaN", "inf", "-0.25", "1.5"] {
                let before = c.registry().num_baselines();
                let w = weights(bad);
                let mut a = args(&["c880ish", "--weights", &w]);
                a.extend(args(extra));
                let err = verb(&c, &a).expect_err(&format!("{name} accepted {bad}"));
                assert!(err.contains("--weights"), "{name} {bad}: {err}");
                assert_eq!(c.registry().num_baselines(), before, "{name} {bad}");
            }
            for ok in ["0.0", "1.0"] {
                let w = weights(ok);
                let mut a = args(&["c880ish", "--weights", &w]);
                a.extend(args(extra));
                assert!(verb(&c, &a).is_ok(), "{name} rejected {ok}");
            }
        }
    }

    #[test]
    fn load_stat_flush_roundtrip() {
        let c = ctx();
        let out = load(&c, &args(&["s1"])).expect("load");
        assert!(out.contains("uid "), "{out}");
        assert!(out.contains("digest "), "{out}");
        let s = stat(&c);
        assert!(s.contains("1 circuit(s)"), "{s}");
        let f = flush(&c);
        assert!(f.contains("1 circuit(s)"), "{f}");
        let s = stat(&c);
        assert!(s.contains("0 circuit(s)"), "{s}");
    }

    #[test]
    fn uid_references_resolve_after_load() {
        let c = ctx();
        let out = load(&c, &args(&["s1"])).expect("load");
        let uid = c.registry().resolve("s1").expect("cached").circuit().uid();
        assert!(out.contains(&format!("uid {uid}")));
        let by_uid = stats(&c, &args(&[&format!("#{uid}")])).expect("stats by uid");
        assert!(by_uid.contains(&format!("uid: {uid}")));
        assert!(stats(&c, &args(&["#12345678901"])).is_err());
    }

    #[test]
    fn default_deadline_interrupts_a_served_style_request() {
        let c = ctx().with_default_deadline(Some(Duration::ZERO));
        // No --time-limit on the request: the context deadline applies
        // and the run reports a structured interruption.
        let out = simulate(&c, &args(&["c880ish", "--patterns", "4096"])).expect("interrupted ok");
        assert!(out.contains("interrupted"), "{out}");
        // An explicit flag overrides the default.
        let out = simulate(
            &c,
            &args(&["c880ish", "--patterns", "64", "--time-limit", "30"]),
        )
        .expect("runs");
        assert!(!out.contains("interrupted"), "{out}");
    }

    #[test]
    fn a_deadline_bounds_a_huge_stream_with_a_nonempty_prefix() {
        // The engine streams patterns and checks the deadline per chunk,
        // so 60 M patterns under a 0.2 s limit stop early with a partial
        // over a pattern prefix; the stripes flag changes nothing.
        let argv = args(&[
            "simulate", "c2670ish", "--patterns", "60000000", "--threads", "2",
            "--time-limit", "0.2", "--pattern-stripes", "0",
        ]);
        let start = std::time::Instant::now();
        let out = execute(&ctx(), &argv).expect("interrupted ok");
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}: {out}");
        let line = out.lines().next().expect("an interrupt line");
        let done: u64 = line
            .strip_prefix("simulation interrupted (wall-clock deadline reached) after ")
            .and_then(|rest| rest.strip_suffix(" of 60000000 patterns"))
            .unwrap_or_else(|| panic!("not a deadline partial: {out}"))
            .parse()
            .expect("a pattern count");
        assert!(done > 0 && done < 60_000_000, "{out}");
        assert!(out.contains(&format!("after {done} patterns")), "{out}");
    }

    #[test]
    fn cancellation_flag_interrupts_with_a_structured_partial() {
        let cancel = Arc::new(AtomicBool::new(true));
        let c = ctx().with_cancel(Arc::clone(&cancel));
        let out = simulate(&c, &args(&["c880ish", "--patterns", "4096"])).expect("cancelled ok");
        assert!(out.contains("interrupted (cancelled)"), "{out}");
    }

    #[test]
    fn optimize_and_atpg_render_like_batch_mode() {
        let c = ctx();
        let out = optimize(&c, &args(&["s1"])).expect("optimize");
        assert!(out.contains("test length"), "{out}");
        let out = atpg(&c, &args(&["s1"])).expect("atpg");
        assert!(out.contains("tests generated"), "{out}");
    }

    #[test]
    fn optimize_with_the_target_met_at_zero_patterns_has_nothing_to_do() {
        let dir = std::env::temp_dir().join("wrt_exec_zero_length");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("and2.bench");
        std::fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").expect("write");
        let p = path.to_str().expect("utf8 path");
        let out = optimize(&ctx(), &args(&[p, "--confidence", "0.01"])).expect("optimize");
        assert!(
            out.starts_with(
                "test length: 0.000e0 -> 0.000e0  (factor 1.0, 0 sweeps, 1 engine calls)"
            ),
            "{out}"
        );
    }

    #[test]
    fn zero_mc_patterns_is_a_clean_error() {
        let c = ctx();
        let monte_carlo = |n: &str| args(&["s1", "--engine", "monte-carlo", "--mc-patterns", n]);
        let err = optimize(&c, &monte_carlo("0")).unwrap_err();
        assert_eq!(err, "--mc-patterns must be at least 1");
        let out = optimize(&c, &monte_carlo("1")).expect("one pattern per call runs");
        assert!(out.contains("test length"), "{out}");
    }
}

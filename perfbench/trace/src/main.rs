//! Reference results and traced layer replay for the `wrt` end-to-end
//! benchmark (`perfbench/run.py`).
//!
//! Every subcommand reads its requests from stdin, one per line, with the
//! server's whitespace tokenization:
//!
//! - `expect` runs each line through `wrt_serve::execute` over one shared
//!   registry and prints its protocol frame: the reference that a batch
//!   verb's stdout and a served payload must equal.
//! - `gates` lists, for each circuit named on a line, the gates an ECO
//!   what-if can flip to their dual kind (AND/OR, NAND/NOR).
//! - `trace` replays each line by calling, in the verb's own order, the
//!   public functions the verb calls, with a span around each call.  Spans,
//!   the counters those calls return and the result lines the verb must
//!   also print are kept in memory and written when stdin ends.
//!
//! A `trace` line is `<request id> <mode> <argv...>`.  The modes are
//! `tiled <gates> <seed>` (set-up netlist generation), `batch` (the layer
//! calls of a cold verb, as a fresh `wrt` process runs it), `execute` (the
//! same verb through `execute` on a fresh registry, untraced inside),
//! `prime` (untraced warm-up of the served registries) and `served` (a
//! request against the primed registries: its layer calls, then its
//! `execute`).  Output lines are tab-separated:
//!
//! ```text
//! span  <req> <id> <parent id | -> <name> <start ns> <end ns>
//! count <req> <name> <value>
//! line  <req> <text the verb's stdout must contain as a whole line>
//! fail  <req> <message>
//! ```

use std::collections::HashMap;
use std::fmt::Display;
use std::io::{self, BufRead, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use wrt_atpg::{generate_tests_budgeted, AtpgConfig, BacktraceGuidance};
use wrt_circuit::{Circuit, GateKind};
use wrt_core::{optimize_budgeted, required_test_length, OptimizeConfig, TestLength};
use wrt_estimate::{constant_line_faults, CopBaseline, EcoMutation, IncrementalCop, SessionCop};
use wrt_fault::FaultList;
use wrt_robust::{Budget, RunOutcome};
use wrt_serve::exec::{flag_value, load_circuit, parse_flag};
use wrt_serve::protocol::{frame, tokenize};
use wrt_serve::registry::weight_key;
use wrt_serve::{execute, ExecContext, Registry};
use wrt_sim::{
    fault_coverage_robust, fault_coverage_tiled_robust, BatchMode, SimOptions, TileOptions,
    WeightedPatterns,
};

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let lines: Vec<String> = io::stdin().lock().lines().map_while(Result::ok).collect();
    let mut out = BufWriter::new(io::stdout().lock());
    let result = match mode.as_str() {
        "expect" => expect(&lines, &mut out),
        "gates" => gates(&lines, &mut out),
        "trace" => trace(&lines, &mut out),
        _ => Err("usage: perfbench-trace expect|gates|trace < requests".to_string()),
    };
    match result.and_then(|()| out.flush().map_err(|e| e.to_string())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn io_err(e: io::Error) -> String {
    format!("writing results: {e}")
}

fn expect(lines: &[String], out: &mut impl Write) -> Result<(), String> {
    let ctx = ExecContext::new(Arc::new(Registry::new()));
    for line in lines {
        let result = execute(&ctx, &tokenize(line));
        out.write_all(frame(&result).as_bytes()).map_err(io_err)?;
    }
    Ok(())
}

fn gates(lines: &[String], out: &mut impl Write) -> Result<(), String> {
    for name in lines.iter().flat_map(|l| tokenize(l)) {
        let circuit = load_circuit(&name)?;
        for (_, node) in circuit.iter() {
            let dual = match node.kind() {
                GateKind::And => "OR",
                GateKind::Or => "AND",
                GateKind::Nand => "NOR",
                GateKind::Nor => "NAND",
                _ => continue,
            };
            if node.fanin().len() >= 2 && !node.name().contains([',', '=']) {
                writeln!(out, "{name}\t{}\t{dual}", node.name()).map_err(io_err)?;
            }
        }
    }
    Ok(())
}

struct Span {
    req: String,
    parent: Option<usize>,
    name: &'static str,
    start: u128,
    end: u128,
}

/// In-memory span stack and record buffer.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: String,
    records: Vec<String>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: String::new(),
            records: Vec::new(),
        }
    }

    fn now(&self) -> u128 {
        self.epoch.elapsed().as_nanos()
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            req: self.req.clone(),
            parent: self.open.last().copied(),
            name,
            start: self.now(),
            end: 0,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Closes whatever an early error return left open.
    fn close_open(&mut self) {
        while let Some(&id) = self.open.last() {
            self.end(id);
        }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    fn record(&mut self, kind: &str, key: &str, value: impl Display) {
        let value = value.to_string().replace(['\t', '\n'], " ");
        let req = &self.req;
        if key.is_empty() {
            self.records.push(format!("{kind}\t{req}\t{value}"));
        } else {
            self.records.push(format!("{kind}\t{req}\t{key}\t{value}"));
        }
    }

    fn count(&mut self, name: &str, value: impl Display) {
        self.record("count", name, value);
    }

    fn line(&mut self, text: impl Display) {
        self.record("line", "", text);
    }

    fn fail(&mut self, message: impl Display) {
        self.record("fail", "", message);
    }

    fn write(&self, out: &mut impl Write) -> Result<(), String> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "span\t{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.req, s.name, s.start, s.end
            )
            .map_err(io_err)?;
        }
        for r in &self.records {
            writeln!(out, "{r}").map_err(io_err)?;
        }
        Ok(())
    }
}

fn trace(lines: &[String], out: &mut impl Write) -> Result<(), String> {
    let mut replay = Replay::new();
    for line in lines {
        let mut tokens = tokenize(line);
        if tokens.len() < 3 {
            return Err(format!("malformed trace line `{line}`"));
        }
        let argv = tokens.split_off(2);
        replay.tr.req = tokens[0].clone();
        let outcome = match tokens[1].as_str() {
            "tiled" => replay.tiled(&argv),
            "batch" => replay.batch(&argv),
            "execute" => replay.execute(&argv),
            "prime" => replay.prime(&argv),
            "served" => replay.served(&argv),
            other => Err(format!("unknown trace mode `{other}`")),
        };
        replay.tr.close_open();
        if let Err(e) = outcome {
            replay.tr.fail(e);
        }
    }
    let (_, hits, misses) = replay.layers.counter_snapshot();
    let (_, primed_hits, primed_misses) = replay.primed;
    replay.tr.req = "end".into();
    replay.tr.count("serve.baseline_hits", hits - primed_hits);
    replay
        .tr
        .count("serve.baseline_misses", misses - primed_misses);
    replay
        .tr
        .count("serve.registry_baselines", replay.layers.num_baselines());
    replay.tr.write(out)
}

struct Replay {
    tr: Tracer,
    /// The registry the span-by-span replay of served requests resolves
    /// through.
    layers: Arc<Registry>,
    /// A second registry, primed the same way, behind the timed
    /// `execute` of each served request, so neither warms the other.
    served: ExecContext,
    sessions: HashMap<(u64, u64), SessionCop>,
    /// `layers` counters once priming ended, so the hit ratio covers the
    /// served requests alone.
    primed: (u64, u64, u64),
}

impl Replay {
    fn new() -> Self {
        Replay {
            tr: Tracer::new(),
            layers: Arc::new(Registry::new()),
            served: ExecContext::new(Arc::new(Registry::new())),
            sessions: HashMap::new(),
            primed: (0, 0, 0),
        }
    }

    fn tiled(&mut self, argv: &[String]) -> Result<(), String> {
        let gates: usize = parse_arg(argv.first(), "gates")?;
        let seed: u64 = parse_arg(argv.get(1), "seed")?;
        self.tr.time("workloads.tiled", || {
            wrt_circuit::to_bench(&wrt_workloads::tiled(gates, seed))
        });
        Ok(())
    }

    fn prime(&mut self, argv: &[String]) -> Result<(), String> {
        execute(&ExecContext::new(Arc::clone(&self.layers)), argv)?;
        execute(&self.served, argv)?;
        self.primed = self.layers.counter_snapshot();
        Ok(())
    }

    /// A cold batch verb: the layer calls under one `verb.*` span.
    fn batch(&mut self, argv: &[String]) -> Result<(), String> {
        let (verb, args) = argv.split_first().ok_or("empty request")?;
        let name = args.first().ok_or("missing circuit argument")?;
        let root = self.tr.begin(match verb.as_str() {
            "estimate" => "verb.estimate",
            "simulate" => "verb.simulate",
            "optimize" => "verb.optimize",
            "atpg" => "verb.atpg",
            other => return Err(format!("no batch replay for `{other}`")),
        });
        let circuit = load(&mut self.tr, name)?;
        match verb.as_str() {
            "estimate" => estimate(&mut self.tr, &circuit, args)?,
            "simulate" => simulate(&mut self.tr, &circuit, args)?,
            "optimize" => optimize(&mut self.tr, &circuit, args)?,
            _ => atpg(&mut self.tr, &circuit, args)?,
        }
        self.tr.end(root);
        Ok(())
    }

    /// A cold batch verb through `execute` on a fresh registry, as the
    /// `wrt` process runs it: the untraced reference for the replay.
    fn execute(&mut self, argv: &[String]) -> Result<(), String> {
        let ctx = ExecContext::new(Arc::new(Registry::new()));
        self.tr.time("serve.execute", || execute(&ctx, argv))?;
        Ok(())
    }

    /// A served `estimate` or `eco`: registry resolve, first touch,
    /// baseline, then the verb's own layer, under one `serve.request`
    /// span; then the timed `execute` of the same request.
    fn served(&mut self, argv: &[String]) -> Result<(), String> {
        let (verb, args) = argv.split_first().ok_or("empty request")?;
        let name = args.first().ok_or("missing circuit argument")?;
        let root = self.tr.begin("serve.request");
        let entry = self
            .tr
            .time("serve.resolve", || self.layers.resolve(name))?;
        let faults = Arc::clone(
            self.tr
                .time("serve.first_touch", || entry.experiment_faults()),
        );
        let circuit = Arc::clone(entry.circuit());
        let weights = weights_arg(args, circuit.num_inputs())?;
        let (_, _, misses) = self.layers.counter_snapshot();
        let baseline = self
            .tr
            .time("serve.baseline", || self.layers.baseline(&entry, &weights));
        if self.layers.counter_snapshot().2 > misses {
            self.tr
                .count("estimate.cop_baseline_evals", baseline.cold_evals());
        }
        let dp = self.tr.time("estimate.dprob", || {
            baseline.detection_probabilities(&faults)
        });
        let expected = match verb.as_str() {
            "estimate" => render_estimate(&mut self.tr, &circuit, &faults, &dp, args)?,
            "eco" => {
                let spec = flag_value(args, "--set").ok_or("eco requires --set")?;
                let mutations = parse_mutations(&circuit, spec)?;
                let session = self
                    .sessions
                    .entry((circuit.uid(), weight_key(&weights)))
                    .or_insert_with(|| SessionCop::new(Arc::clone(&baseline)));
                let (_, stats) = self
                    .tr
                    .time("estimate.eco", || session.what_if(&mutations, &faults))?;
                self.tr
                    .count("estimate.eco_overlay_evals", stats.overlay_evals());
                vec![format!(
                    "cone: {} node(s); overlay evals {} vs cold {} ({:.1}x fewer)",
                    stats.cone_nodes,
                    stats.overlay_evals(),
                    stats.cold_evals,
                    stats.eval_reduction()
                )]
            }
            other => return Err(format!("no served replay for `{other}`")),
        };
        self.tr.end(root);
        let payload = self
            .tr
            .time("serve.execute", || execute(&self.served, argv))?;
        for line in expected {
            if !payload.lines().any(|l| l == line) {
                self.tr
                    .fail(format!("served payload lacks the replayed line `{line}`"));
            }
        }
        if name.ends_with(".bench") {
            // A never-seen netlist: split the first touch the request paid
            // into its layers, outside the request span.
            let root = self.tr.begin("serve.cold_layers");
            let cold = load(&mut self.tr, name)?;
            let replayed = experiment_faults(&mut self.tr, &cold);
            self.tr.end(root);
            if replayed.len() != faults.len() {
                self.tr.fail(format!(
                    "replayed fault list has {} faults, the registry's {}",
                    replayed.len(),
                    faults.len()
                ));
            }
        }
        Ok(())
    }
}

fn parse_arg<T: std::str::FromStr>(raw: Option<&String>, what: &str) -> Result<T, String> {
    raw.and_then(|r| r.parse().ok())
        .ok_or_else(|| format!("missing or invalid {what}"))
}

/// `load_circuit`, split into its two layers.
fn load(tr: &mut Tracer, arg: &str) -> Result<Arc<Circuit>, String> {
    let circuit = match tr.time("workloads.by_name", || wrt_workloads::by_name(arg)) {
        Some(c) => c,
        None => tr.time("circuit.parse", || {
            let text = std::fs::read_to_string(arg).map_err(|e| format!("reading `{arg}`: {e}"))?;
            wrt_circuit::parse_bench_named(&text, arg).map_err(|e| format!("parsing `{arg}`: {e}"))
        })?,
    };
    tr.count("circuit.gates", circuit.num_gates());
    Ok(Arc::new(circuit))
}

/// The collapsed checkpoint set (ATPG's working set).
fn checkpoint_faults(tr: &mut Tracer, circuit: &Circuit) -> FaultList {
    let all = tr.time("fault.checkpoints", || FaultList::checkpoints(circuit));
    let collapsed = tr.time("fault.collapse", || all.collapse_equivalent(circuit));
    tr.count("fault.collapse_removed", all.len() - collapsed.len());
    collapsed
}

/// The experiment fault set: collapsed checkpoints minus proven-constant
/// lines, as `CircuitEntry::experiment_faults` builds it.
fn experiment_faults(tr: &mut Tracer, circuit: &Circuit) -> FaultList {
    let collapsed = checkpoint_faults(tr, circuit);
    let redundant = tr.time("estimate.constant_lines", || {
        constant_line_faults(circuit, &collapsed, 14)
    });
    tr.count(
        "estimate.constant_lines_proven",
        redundant.iter().filter(|&&r| r).count(),
    );
    tr.count("estimate.constant_lines_examined", collapsed.len());
    collapsed
        .iter()
        .zip(&redundant)
        .filter(|(_, &r)| !r)
        .map(|((_, f), _)| f)
        .collect()
}

fn weights_arg(args: &[String], num_inputs: usize) -> Result<Vec<f64>, String> {
    match flag_value(args, "--weights") {
        None => Ok(vec![0.5; num_inputs]),
        Some(raw) => {
            let parsed: Vec<f64> = raw
                .split(',')
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|_| "invalid --weights list".to_string())?;
            if parsed.len() == num_inputs {
                Ok(parsed)
            } else {
                Err(format!("--weights needs {num_inputs} values"))
            }
        }
    }
}

fn parse_mutations(circuit: &Circuit, spec: &str) -> Result<Vec<EcoMutation>, String> {
    spec.split(',')
        .map(|item| {
            let (name, kind) = item
                .split_once('=')
                .ok_or_else(|| format!("malformed --set item `{item}`"))?;
            Ok(EcoMutation {
                gate: circuit
                    .node_id(name)
                    .ok_or_else(|| format!("no node named `{name}`"))?,
                kind: kind
                    .parse()
                    .map_err(|_| format!("unknown gate kind `{kind}`"))?,
            })
        })
        .collect()
}

/// The lines `wrt estimate` prints: fault count, detection-probability
/// summary, required test length and the hardest faults, rendered the way
/// the verb renders them (sorted by probability, then fault index).
fn render_estimate(
    tr: &mut Tracer,
    circuit: &Circuit,
    faults: &FaultList,
    dp: &[f64],
    args: &[String],
) -> Result<Vec<String>, String> {
    let confidence: f64 = parse_flag(args, "--confidence", 0.999)?;
    let top: usize = parse_flag(args, "--top", 5)?;
    Ok(tr.time("estimate.render", || {
        let mut lines = vec![format!(
            "estimate {}: {} faults over {} inputs",
            circuit.name(),
            faults.len(),
            circuit.num_inputs()
        )];
        let mut sorted: Vec<(usize, f64)> = dp.iter().copied().enumerate().collect();
        sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        if let (Some(&(_, min)), Some(&(_, max))) = (sorted.first(), sorted.last()) {
            lines.push(format!(
                "detection probability: min {min:.6e}, median {:.6e}, max {max:.6e}",
                sorted[sorted.len() / 2].1
            ));
        }
        lines.push(match required_test_length(dp, 1.0 - confidence) {
            TestLength::Patterns { n, num_relevant } => format!(
                "test length N({confidence}): {n:.3e} patterns ({num_relevant} relevant faults)"
            ),
            TestLength::Infinite => format!(
                "test length N({confidence}): infinite (some fault has zero detection probability)"
            ),
        });
        for &(i, p) in sorted.iter().take(top) {
            lines.push(format!(
                "  hard: {} p={p:.6e}",
                faults.as_slice()[i].describe(circuit)
            ));
        }
        lines
    }))
}

fn estimate(tr: &mut Tracer, circuit: &Arc<Circuit>, args: &[String]) -> Result<(), String> {
    let weights = weights_arg(args, circuit.num_inputs())?;
    let faults = experiment_faults(tr, circuit);
    let baseline = tr.time("estimate.cop_baseline", || {
        CopBaseline::build(Arc::clone(circuit), &weights)
    });
    tr.count("estimate.cop_baseline_evals", baseline.cold_evals());
    let dp = tr.time("estimate.dprob", || {
        baseline.detection_probabilities(&faults)
    });
    for line in render_estimate(tr, circuit, &faults, &dp, args)? {
        tr.line(line);
    }
    Ok(())
}

fn simulate(tr: &mut Tracer, circuit: &Circuit, args: &[String]) -> Result<(), String> {
    let patterns: u64 = parse_flag(args, "--patterns", 0)?;
    let seed: u64 = parse_flag(args, "--seed", 42)?;
    let threads: usize = parse_flag(args, "--threads", 0)?;
    let weights = weights_arg(args, circuit.num_inputs())?;
    let faults = experiment_faults(tr, circuit);
    let source = WeightedPatterns::new(weights, seed);
    let budget = Budget::unlimited();
    if flag_value(args, "--pattern-stripes").is_some() {
        let opts = TileOptions {
            block_words: 0,
            pattern_stripes: parse_flag(args, "--pattern-stripes", 0)?,
            fault_shards: 0,
            threads,
            batch: BatchMode::Auto,
        };
        let outcome = tr.time("sim.tiled", || {
            fault_coverage_tiled_robust(circuit, &faults, source, patterns, true, &opts, &budget)
        });
        let RunOutcome::Complete(run) = outcome else {
            return Err("tiled simulation was interrupted".into());
        };
        tr.count("sim.tiled_evals", run.stats.sim.node_evals);
        tr.count("sim.tiled_probe_evals", run.stats.probe_node_evals);
        tr.count("sim.tiled_batch_faults", run.stats.batch_dense_faults);
        tr.line(&run.result);
    } else {
        let outcome = tr.time("sim.coverage", || {
            fault_coverage_robust(
                circuit,
                &faults,
                source,
                patterns,
                true,
                threads,
                SimOptions::default(),
                &budget,
            )
        });
        let RunOutcome::Complete(run) = outcome else {
            return Err("simulation was interrupted".into());
        };
        tr.count("sim.gate_evals", run.stats.node_evals);
        tr.count("sim.frontier_deaths", run.stats.frontier_deaths);
        tr.count("sim.excited", run.stats.excited());
        tr.line(&run.result);
    }
    Ok(())
}

fn optimize(tr: &mut Tracer, circuit: &Circuit, args: &[String]) -> Result<(), String> {
    let config = OptimizeConfig {
        confidence: parse_flag(args, "--confidence", 0.999)?,
        ..OptimizeConfig::default()
    };
    let faults = experiment_faults(tr, circuit);
    let mut engine = IncrementalCop::new().with_commit_batch(4);
    let run = tr
        .time("core.optimize", || {
            optimize_budgeted(
                circuit,
                &faults,
                &mut engine,
                &config,
                &Budget::unlimited(),
                None,
            )
        })
        .map_err(|e| e.to_string())?;
    let RunOutcome::Complete(result) = run.outcome else {
        return Err("optimization was interrupted".into());
    };
    let stats = engine.stats();
    tr.count("core.engine_calls", result.engine_calls);
    tr.count("core.sweeps", result.sweeps.len());
    tr.count("estimate.incremental_evals", stats.node_evaluations);
    tr.count(
        "estimate.incremental_rebuilds",
        stats.full_rebuilds + stats.stateless_estimates,
    );
    tr.line(format!(
        "test length: {:.3e} -> {:.3e}  (factor {:.1}, {} sweeps, {} engine calls)",
        result.initial_length,
        result.final_length,
        result.improvement_factor(),
        result.sweeps.len(),
        result.engine_calls
    ));
    Ok(())
}

fn atpg(tr: &mut Tracer, circuit: &Circuit, args: &[String]) -> Result<(), String> {
    let faults = checkpoint_faults(tr, circuit);
    let config = AtpgConfig {
        backtrack_limit: parse_flag(args, "--backtracks", 10_000)?,
        guidance: BacktraceGuidance::Cop,
        ..AtpgConfig::default()
    };
    let mut budget = Budget::unlimited();
    if flag_value(args, "--max-evals").is_some() {
        budget = budget.with_max_evals(parse_flag(args, "--max-evals", 0)?);
    }
    let run = tr
        .time("atpg.generate", || {
            generate_tests_budgeted(circuit, &faults, &config, &budget, None)
        })
        .map_err(|e| e.to_string())?;
    let report = match run.outcome {
        RunOutcome::Complete(report)
        | RunOutcome::Interrupted {
            partial: report, ..
        } => report,
    };
    tr.count("atpg.podem_calls", report.podem_calls);
    tr.count("atpg.backtracks", report.backtracks);
    tr.count("atpg.tests", report.tests.len());
    tr.line(format!(
        "{} faults: {} detected, {} redundant, {} aborted, {} not attempted",
        faults.len(),
        report.detected.len(),
        report.redundant.len(),
        report.aborted.len(),
        report.survivors.len()
    ));
    tr.line(format!(
        "{} tests generated with {} PODEM calls, {} backtracks (coverage {:.1} %)",
        report.tests.len(),
        report.podem_calls,
        report.backtracks,
        report.coverage() * 100.0
    ));
    Ok(())
}

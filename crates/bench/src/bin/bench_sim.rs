//! Machine-readable PPSFP benchmark: the dense oracle's cone walk vs the
//! fault-simulation engine's event-driven sparse propagation over
//! multi-word superblocks.
//!
//! Writes `BENCH_sim.json`.  The headline metric is
//! **machine-independent**: gate evaluations per detected fault, dense
//! vs event (`eval_reduction`).  It combines two effects — sparse
//! scheduling (only nodes the fault effect reaches are evaluated,
//! stopping when the frontier dies) and superblock amortization (one
//! `[u64; W]` evaluation covers `W` dense blocks' worth of patterns) —
//! so the artifact also records an event-kernel run at `W = 1`
//! (`sparsity_reduction`) to separate the two, the frontier die-out
//! rate, the event engine's root propagations (one per fanout-free
//! region head per superblock that some excited fault's effect reaches,
//! shared by every fault in the region) with the excited faults served
//! per propagation, and a bit-identity check of all runs' coverage
//! results.  The dense baseline is a serial [`FaultSimulator`] loop; the
//! event run uses one shard of the engine (at its width,
//! [`BLOCK_WORDS`]), and the event-`W = 1` run drives one
//! [`EventSimulator`] directly; a further event run uses `--threads`
//! shards, and `serial_fraction` accounts its parallelism in counts:
//! serial-path evals plus the busiest shard's evals, over all evals
//! (`1 / threads` is perfect balance, 1 is no parallelism).  Wall-clock fields depend on the host
//! and are reported alongside.
//!
//! Circuits too large for the dense engine's per-cone storage report a
//! **derived** dense baseline instead of a measured one: a profiled
//! event run records how many 64-pattern blocks each fault stayed
//! excited and undetected, and the dense cost is exactly
//! `Σ excited_blocks(f) × (cone(f) − 1)` — the dense engine's own
//! accounting identity — with the wall-clock fields `null`.
//!
//! Run with `cargo run --release -p wrt-bench --bin bench_sim`.
//!
//! ```text
//! bench_sim [--patterns N] [--threads T] [--circuits a,b,...]
//!           [--out PATH] [--smoke]
//! ```
//!
//! Defaults: 2048 patterns, 4 threads for the sharded-event run, the
//! four large workload circuits plus the 120k-gate `tiled_120000_7` scale
//! circuit, `BENCH_sim.json` in the current directory.  `--smoke` runs a scaled-down version for CI
//! (small circuits, few patterns).

use std::collections::HashMap;
use std::time::Instant;

use wrt_circuit::{transitive_fanout, Circuit, FanoutFreeRegions};
use wrt_fault::{FaultList, FaultPartition};
use wrt_robust::Budget;
use wrt_sim::{
    available_threads, fault_coverage_robust, first_set_bit, recommended_threads, superblock_split,
    CoverageResult, EventSimulator, FaultEvalProfile, FaultSimulator, FaultWorklist, PatternSource,
    SimOptions, SimStats, SuperBlock, WeightedPatterns, BLOCK_WORDS,
};

const SEED: u64 = 0xC0DE;

/// Above this node count the dense engine's per-cone storage (and its
/// wall-clock) is prohibitive; the dense baseline is derived instead.
const DENSE_DERIVE_NODES: usize = 20_000;

struct Row {
    circuit: String,
    inputs: usize,
    gates: usize,
    faults: usize,
    detected: usize,
    patterns: u64,
    threads: usize,
    /// `None` when the dense baseline is derived, not measured.
    dense_seconds: Option<f64>,
    event_seconds: f64,
    event_sharded_seconds: f64,
    /// Measured or derived dense gate evals (see `dense_baseline`).
    dense_node_evals: u64,
    dense_baseline: &'static str,
    event_stats: SimStats,
    /// Event kernel at `W = 1`: same block granularity as dense, so the
    /// eval ratio against it isolates the pure scheduling-sparsity win.
    event_w1_stats: SimStats,
    /// Event evals of each shard of the sharded run.
    shard_evals: Vec<u64>,
    identical: bool,
}

impl Row {
    fn dense_evals_per_detected(&self) -> f64 {
        self.dense_node_evals as f64 / self.detected.max(1) as f64
    }

    fn event_evals_per_detected(&self) -> f64 {
        self.event_stats.node_evals as f64 / self.detected.max(1) as f64
    }

    /// The machine-independent headline: dense ÷ event gate
    /// evaluations.  Combines scheduling sparsity with superblock
    /// amortization; see [`Row::sparsity_reduction`] for the sparsity
    /// share alone.
    fn eval_reduction(&self) -> f64 {
        self.dense_node_evals as f64 / self.event_stats.node_evals.max(1) as f64
    }

    /// Dense ÷ event-at-`W = 1` gate evaluations: both engines work in
    /// 64-pattern blocks here, so this is the pure event-scheduling win
    /// (nodes the fault effect never reaches are never evaluated).
    fn sparsity_reduction(&self) -> f64 {
        self.dense_node_evals as f64 / self.event_w1_stats.node_evals.max(1) as f64
    }

    /// Scheduled (event, at the benchmarked `W`) vs cone (dense, `W = 1`)
    /// node evaluations — the inverse of `eval_reduction`.  Note the two
    /// sides run at different block granularities, so this folds the
    /// 1/`W` pass-count amortization into the per-cone reach; the
    /// equal-granularity reach fraction is `1 / sparsity_reduction`.
    fn scheduled_vs_cone_ratio(&self) -> f64 {
        self.event_stats.node_evals as f64 / self.dense_node_evals.max(1) as f64
    }

    /// The sharded run's parallelism in counts: serial-path evals plus
    /// the busiest shard's evals, over all evals.  The engine's one
    /// serial path, the pattern producer, evaluates no gates, so the
    /// serial term is zero; 1 when nothing was evaluated.
    fn serial_fraction(&self) -> f64 {
        const SERIAL_EVALS: u64 = 0;
        let total: u64 = SERIAL_EVALS + self.shard_evals.iter().sum::<u64>();
        let busiest = self.shard_evals.iter().copied().max().unwrap_or(0);
        if total == 0 {
            return 1.0;
        }
        (SERIAL_EVALS + busiest) as f64 / total as f64
    }

    fn to_json(&self) -> String {
        let (dense_seconds, wall_speedup) = match self.dense_seconds {
            Some(s) => (format!("{s:.6}"), format!("{:.3}", s / self.event_seconds)),
            None => ("null".into(), "null".into()),
        };
        format!(
            "    {{\n      \"circuit\": \"{}\",\n      \"inputs\": {},\n      \"gates\": {},\n      \"faults\": {},\n      \"detected_faults\": {},\n      \"patterns\": {},\n      \"block_words\": {},\n      \"dense_baseline\": \"{}\",\n      \"dense_seconds\": {},\n      \"event_seconds\": {:.6},\n      \"wall_speedup\": {},\n      \"dense_node_evals\": {},\n      \"event_node_evals\": {},\n      \"event_w1_node_evals\": {},\n      \"root_propagations\": {},\n      \"faults_per_propagation\": {:.3},\n      \"dense_evals_per_detected\": {:.1},\n      \"event_evals_per_detected\": {:.1},\n      \"eval_reduction\": {:.3},\n      \"sparsity_reduction\": {:.3},\n      \"scheduled_vs_cone_ratio\": {:.4},\n      \"frontier_dieout_rate\": {:.4},\n      \"unexcited_rate\": {:.4},\n      \"threads\": {},\n      \"serial_fraction\": {:.4},\n      \"event_sharded_seconds\": {:.6},\n      \"bit_identical\": {}\n    }}",
            self.circuit,
            self.inputs,
            self.gates,
            self.faults,
            self.detected,
            self.patterns,
            BLOCK_WORDS,
            self.dense_baseline,
            dense_seconds,
            self.event_seconds,
            wall_speedup,
            self.dense_node_evals,
            self.event_stats.node_evals,
            self.event_w1_stats.node_evals,
            self.event_stats.root_propagations,
            self.event_stats.faults_per_propagation(),
            self.dense_evals_per_detected(),
            self.event_evals_per_detected(),
            self.eval_reduction(),
            self.sparsity_reduction(),
            self.scheduled_vs_cone_ratio(),
            self.event_stats.frontier_dieout_rate(),
            self.event_stats.unexcited as f64 / self.event_stats.fault_blocks.max(1) as f64,
            self.threads,
            self.serial_fraction(),
            self.event_sharded_seconds,
            self.identical,
        )
    }
}

/// Best-of-`reps` wall-clock seconds for `f` after one warm-up run;
/// with `reps == 0` the warm-up itself is the (single) timed run.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut result = f(); // warm-up
    let mut best = start.elapsed().as_secs_f64();
    for i in 0..reps {
        let start = Instant::now();
        result = f();
        let secs = start.elapsed().as_secs_f64();
        best = if i == 0 { secs } else { best.min(secs) };
    }
    (best, result)
}

/// One [`EventSimulator`] at width `W` with fault dropping over the
/// stream's superblocks, stopping once every fault is detected: each
/// fault's first detecting pattern, the kernel's work counters, and, with
/// `profile`, its per-fault eval profile.
fn simulate_kernel<const W: usize>(
    circuit: &Circuit,
    faults: &FaultList,
    patterns: u64,
    profile: bool,
) -> (Vec<Option<u64>>, SimStats, Option<FaultEvalProfile>) {
    let mut sim = EventSimulator::<W>::new(circuit, faults);
    if profile {
        sim.enable_eval_profile();
    }
    let mut worklist = FaultWorklist::full(faults.len());
    let mut source = WeightedPatterns::equiprobable(circuit.num_inputs(), SEED);
    let mut sb = SuperBlock::<W>::empty(circuit.num_inputs());
    let mut remaining = patterns;
    let mut blocks = Vec::new();
    while remaining > 0 {
        let block = source.next_block(remaining.min(64) as u32);
        remaining -= u64::from(block.len);
        blocks.push(block);
    }
    let mut detected_at = vec![None; faults.len()];
    let (mut b, mut done) = (0, 0);
    while b < blocks.len() && !worklist.is_empty() {
        let take = superblock_split(&blocks[b..], W);
        sb.refill_from_blocks(&blocks[b..b + take]);
        sim.detect_superblock_worklist(&sb.words, sb.mask(), &mut worklist, true, |i, w| {
            detected_at[i] = first_set_bit(&w).map(|bit| done + u64::from(bit));
        });
        done += u64::from(sb.len);
        b += take;
    }
    (detected_at, sim.stats(), sim.take_eval_profile())
}

/// Derives the dense engine's exact `node_evals` without running (or even
/// constructing) it: a profiled event run with fault dropping records how
/// many 64-pattern blocks each fault stayed excited (clipped at its
/// detecting block, matching dense dropping), and the dense engine pays
/// exactly `cone(f) − 1` evals per excited block.  Cone sizes come from
/// one fanout traversal per *distinct* effect root — no per-fault cone
/// storage.  The profile counts each fault's own excited blocks, not
/// the lanes its effect carries to its region's head, so the derived
/// count is the per-fault dense engine's whatever the event kernel
/// groups.
fn derived_dense_node_evals(circuit: &Circuit, faults: &FaultList, patterns: u64) -> u64 {
    let (_, _, profile) = simulate_kernel::<BLOCK_WORDS>(circuit, faults, patterns, true);
    let profile = profile.expect("profile enabled");
    let mut cone_len: HashMap<u32, u64> = HashMap::new();
    faults
        .iter()
        .map(|(_, f)| f.site.effect_root())
        .zip(&profile.excited_blocks)
        .map(|(root, &excited)| {
            let len = *cone_len
                .entry(root.index() as u32)
                .or_insert_with(|| transitive_fanout(circuit, &[root]).len() as u64);
            excited * (len - 1)
        })
        .sum()
}

/// The dense oracle with fault dropping: one [`FaultSimulator`] over the
/// 64-pattern blocks of the stream, stopping once every fault is
/// detected.  Returns each fault's first detecting pattern and the
/// oracle's work counters.
fn simulate_dense(
    circuit: &Circuit,
    faults: &FaultList,
    patterns: u64,
) -> (Vec<Option<u64>>, SimStats) {
    let mut source = WeightedPatterns::equiprobable(circuit.num_inputs(), SEED);
    let mut sim = FaultSimulator::new(circuit, faults);
    let mut worklist = FaultWorklist::full(faults.len());
    let mut detected_at = vec![None; faults.len()];
    let mut done = 0;
    while done < patterns && !worklist.is_empty() {
        let block = source.next_block((patterns - done).min(64) as u32);
        sim.detect_block_worklist(&block.words, block.mask(), &mut worklist, true, |i, w| {
            detected_at[i] = Some(done + u64::from(w.trailing_zeros()));
        });
        done += u64::from(block.len);
    }
    (detected_at, sim.stats())
}

/// One unbudgeted run of the fault-simulation engine on `threads` shards.
fn simulate(
    circuit: &Circuit,
    faults: &FaultList,
    patterns: u64,
    threads: usize,
) -> (CoverageResult, SimStats) {
    let source = WeightedPatterns::equiprobable(circuit.num_inputs(), SEED);
    let unlimited = Budget::unlimited();
    let outcome = fault_coverage_robust(
        circuit,
        faults,
        source,
        patterns,
        true,
        threads,
        SimOptions::default(),
        &unlimited,
    );
    let run = outcome.into_value();
    assert!(run.recovery.is_clean(), "no fail point is armed");
    (run.result, run.stats)
}

fn bench_circuit(circuit: &Circuit, patterns: u64, threads: usize) -> Row {
    let faults = FaultList::checkpoints(circuit).collapse_equivalent(circuit);
    let derive_dense = circuit.num_nodes() > DENSE_DERIVE_NODES;
    // Big derived-baseline rows (the 10^5-gate scale circuit) get one
    // timed run per engine instead of warm-up + best-of-2: their
    // single-run wall clock is minutes, their eval counts (the numbers
    // that matter) are deterministic either way, and best-of-N would
    // triple an already-long artifact regeneration.
    let reps = if derive_dense { 0 } else { 2 };
    let (event_seconds, (event, event_stats)) =
        time_best(reps, || simulate(circuit, &faults, patterns, 1));
    let (dense_seconds, dense_node_evals, dense_identical) = if derive_dense {
        (
            None,
            derived_dense_node_evals(circuit, &faults, patterns),
            true,
        )
    } else {
        let (secs, (dense, dense_stats)) =
            time_best(2, || simulate_dense(circuit, &faults, patterns));
        (
            Some(secs),
            dense_stats.node_evals,
            dense == event.detected_at(),
        )
    };
    // One untimed event-kernel pass at W = 1: same block granularity as
    // dense, isolating the scheduling-sparsity share of the eval reduction.
    let (event_w1, event_w1_stats, _) = simulate_kernel::<1>(circuit, &faults, patterns, false);
    let (event_sharded_seconds, (event_sharded, sharded_stats)) =
        time_best(reps, || simulate(circuit, &faults, patterns, threads));
    // The sharded run's per-shard evals: each shard of the engine's own
    // partition run alone (shards are independent, so their one-shard
    // runs spend exactly what they spend as workers).
    let regions = FanoutFreeRegions::new(circuit);
    let shards = recommended_threads(threads, faults.len());
    let partition = FaultPartition::cone_locality(&regions, &faults, shards);
    let shard_evals: Vec<u64> = (0..partition.num_shards())
        .map(|s| {
            let sublist = partition.sublist(&faults, s);
            simulate(circuit, &sublist, patterns, 1).1.node_evals
        })
        .collect();
    assert_eq!(
        shard_evals.iter().sum::<u64>(),
        sharded_stats.node_evals,
        "the shards' evals add up to the sharded run's"
    );
    Row {
        circuit: circuit.name().to_string(),
        inputs: circuit.num_inputs(),
        gates: circuit.num_gates(),
        faults: faults.len(),
        detected: event.num_detected(),
        patterns,
        threads,
        dense_seconds,
        event_seconds,
        event_sharded_seconds,
        dense_node_evals,
        dense_baseline: if derive_dense { "derived" } else { "measured" },
        event_stats,
        event_w1_stats,
        shard_evals,
        // Shards never split a fanout-free region, so the sharded run
        // spends exactly the one-shard run's evals.
        identical: dense_identical
            && event.detected_at() == event_w1
            && event == event_sharded
            && event_stats == sharded_stats,
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
    let patterns: u64 = flag(&args, "--patterns")
        .map(|v| v.parse().expect("--patterns N"))
        .unwrap_or(if smoke { 512 } else { 2048 });
    let threads: usize = flag(&args, "--threads")
        .map(|v| v.parse().expect("--threads T"))
        .unwrap_or(4);
    let out = flag(&args, "--out").unwrap_or("BENCH_sim.json").to_string();
    let circuits: Vec<String> = flag(&args, "--circuits")
        .map(|v| v.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| {
            if smoke {
                vec!["s1".into(), "c880ish".into()]
            } else {
                vec![
                    "c2670ish".into(),
                    "c5315ish".into(),
                    "c6288ish".into(),
                    "c7552ish".into(),
                    "tiled_120000_7".into(),
                ]
            }
        });

    println!(
        "PPSFP dense vs event ({patterns} patterns, W = {BLOCK_WORDS}, \
         {threads} threads for the sharded-event run, {} cores available)",
        available_threads()
    );
    let mut rows = Vec::new();
    for name in &circuits {
        let circuit =
            wrt_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload `{name}`"));
        let row = bench_circuit(&circuit, patterns, threads);
        println!(
            "  {:<14} {:>6} faults  evals/detected: dense {:>9.1}{} event {:>8.1} \
             ({:.2}x fewer; {:.2}x from sparsity; {:.2} faults/propagation; \
             serial fraction {:.3})  identical {}",
            row.circuit,
            row.faults,
            row.dense_evals_per_detected(),
            if row.dense_seconds.is_none() {
                "*"
            } else {
                " "
            },
            row.event_evals_per_detected(),
            row.eval_reduction(),
            row.sparsity_reduction(),
            row.event_stats.faults_per_propagation(),
            row.serial_fraction(),
            row.identical,
        );
        rows.push(row);
    }

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"ppsfp_dense_vs_event\",\n  \"note\": \"eval_reduction is the machine-independent headline: gate evaluations per detected fault, dense cone walk (64-pattern blocks) vs event-driven propagation at block_words-word superblocks, over the identical pattern stream. It combines two effects: scheduling sparsity (only nodes the fault effect reaches are evaluated, stopping when the frontier drains - frontier_dieout_rate of excited passes died before a PO) and superblock amortization (one [u64; W] evaluation covers W dense blocks; each event eval does W words of lane work). sparsity_reduction (dense vs event at W = 1, equal granularity) isolates the sparsity share; both event figures already include region grouping and lane retirement: the event engine propagates once per superblock from each fanout-free region head that an excited fault's effect reaches, for all live faults in the region (a fault's lanes at the head are its excited lanes ANDed with the local observability of its effect root along the region's single-fanout path; those sensitization steps are not counted as evals), and stops a propagation once every flipped lane is observed at a primary output; root_propagations / faults_per_propagation (excited fault-superblock attempts per propagation, at least 1) record that sharing for the event run at block_words; scheduled_vs_cone_ratio = event/dense evals at the benchmarked W folds both effects. The dense baseline is a serial FaultSimulator loop; the event run uses one fault shard of the fault-simulation engine (at its one width, block_words), the event-W1 run one event kernel at W = 1, event_sharded_seconds times the event run on `threads` cone-locality shards, which spends exactly the one-shard evals because shards never split a fanout-free region; serial_fraction = (serial-path evals + the busiest shard's evals) / all evals of that run, where the serial path (the pattern producer) evaluates no gates - 1/threads is perfect balance, 1 no parallelism, and bench_guard requires 1/threads <= serial_fraction <= 1. dense_baseline is `measured`, or `derived` on circuits too large for the dense engine, where dense_node_evals = sum over faults of excited_undetected_blocks x (cone size - 1) - the dense engine's own accounting identity, computed from a profiled event run that counts each fault's own excited blocks - and dense wall-clock fields are null. bit_identical asserts dense (when measured), event-W1, event and sharded-event coverage agree exactly, and that the sharded run's work counters equal the one-shard run's. Wall-clock fields are host-dependent; with fewer cores than threads the sharded run measures fan-out overhead, not speedup - the machine-independent eval counts are the comparison that transfers.\",\n  \"patterns\": {},\n  \"block_words\": {},\n  \"threads\": {},\n  \"available_parallelism\": {},\n  \"smoke\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        patterns,
        BLOCK_WORDS,
        threads,
        available_threads(),
        smoke,
        body.join(",\n"),
    );
    std::fs::write(&out, json).expect("write BENCH_sim.json");
    println!("wrote {out}");
}

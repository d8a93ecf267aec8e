//! Machine-readable PPSFP benchmark: dense cone walk vs event-driven
//! sparse propagation over multi-word superblocks vs the 2D tiled
//! engine (fault shards × pattern stripes, stripe 0 first).
//!
//! Writes `BENCH_sim.json`.  The headline metrics are
//! **machine-independent**: gate evaluations per detected fault, dense
//! vs event (`eval_reduction`) and dense vs the 2D tiled engine
//! (`eval_reduction_2d`).  The 1D headline combines two effects — sparse
//! scheduling (only nodes the fault effect reaches are evaluated,
//! stopping when the frontier dies) and superblock amortization (one
//! `[u64; W]` evaluation covers `W` dense blocks' worth of patterns) —
//! so the artifact also records an event run at `W = 1`
//! (`sparsity_reduction`) to separate the two, the frontier die-out
//! rate, the event engine's root propagations (one per excited effect
//! root per superblock, shared by every fault on that root) with the
//! excited faults served per propagation, and a bit-identity check of
//! all engines' coverage results.
//! Wall-clock fields depend on the host and are reported alongside.
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
//! bench_sim [--patterns N] [--block-words W] [--threads T]
//!           [--circuits a,b,...] [--out PATH] [--smoke]
//! ```
//!
//! Defaults: 2048 patterns, `W = 4` (256 patterns per event pass), 4
//! threads for the sharded-event and tiled rows, the four large workload
//! circuits plus the 120k-gate `tiled_120000_7` scale circuit,
//! `BENCH_sim.json` in the current directory.  `--smoke` runs a
//! scaled-down version for CI (small circuits, few patterns) — the 2D
//! tiled row is exercised in both modes.

use std::collections::HashMap;
use std::time::Instant;

use wrt_circuit::{transitive_fanout, Circuit};
use wrt_fault::FaultList;
use wrt_sim::{
    available_threads, fault_coverage_opts, fault_coverage_tiled, superblock_split,
    EventSimulator, FaultWorklist, PatternSource, SimOptions, SimStats, SuperBlock, TileOptions,
    TileStats, WeightedPatterns,
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
    block_words: usize,
    threads: usize,
    /// `None` when the dense baseline is derived, not measured.
    dense_seconds: Option<f64>,
    event_seconds: f64,
    event_sharded_seconds: f64,
    tiled_seconds: f64,
    /// Measured or derived dense gate evals (see `dense_baseline`).
    dense_node_evals: u64,
    dense_baseline: &'static str,
    event_stats: SimStats,
    /// Event engine at `W = 1`: same block granularity as dense, so the
    /// eval ratio against it isolates the pure scheduling-sparsity win.
    event_w1_stats: SimStats,
    tiled_stats: TileStats,
    identical: bool,
}

impl Row {
    fn dense_evals_per_detected(&self) -> f64 {
        self.dense_node_evals as f64 / self.detected.max(1) as f64
    }

    fn event_evals_per_detected(&self) -> f64 {
        self.event_stats.node_evals as f64 / self.detected.max(1) as f64
    }

    /// The machine-independent 1D headline: dense ÷ event gate
    /// evaluations.  Combines scheduling sparsity with superblock
    /// amortization; see [`Row::sparsity_reduction`] for the sparsity
    /// share alone.
    fn eval_reduction(&self) -> f64 {
        self.dense_node_evals as f64 / self.event_stats.node_evals.max(1) as f64
    }

    /// The 2D headline: dense ÷ tiled-engine gate evaluations, the tiled
    /// side counting everything it spends — stripe 0, the later stripes,
    /// and their re-probing of faults an earlier later-stripe detected.
    fn eval_reduction_2d(&self) -> f64 {
        self.dense_node_evals as f64 / self.tiled_stats.sim.node_evals.max(1) as f64
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

    fn to_json(&self) -> String {
        let (dense_seconds, wall_speedup) = match self.dense_seconds {
            Some(s) => (format!("{s:.6}"), format!("{:.3}", s / self.event_seconds)),
            None => ("null".into(), "null".into()),
        };
        let t = &self.tiled_stats;
        format!(
            "    {{\n      \"circuit\": \"{}\",\n      \"inputs\": {},\n      \"gates\": {},\n      \"faults\": {},\n      \"detected_faults\": {},\n      \"patterns\": {},\n      \"block_words\": {},\n      \"dense_baseline\": \"{}\",\n      \"dense_seconds\": {},\n      \"event_seconds\": {:.6},\n      \"wall_speedup\": {},\n      \"dense_node_evals\": {},\n      \"event_node_evals\": {},\n      \"event_w1_node_evals\": {},\n      \"root_propagations\": {},\n      \"faults_per_propagation\": {:.3},\n      \"dense_evals_per_detected\": {:.1},\n      \"event_evals_per_detected\": {:.1},\n      \"eval_reduction\": {:.3},\n      \"sparsity_reduction\": {:.3},\n      \"scheduled_vs_cone_ratio\": {:.4},\n      \"frontier_dieout_rate\": {:.4},\n      \"unexcited_rate\": {:.4},\n      \"threads\": {},\n      \"event_sharded_seconds\": {:.6},\n      \"tiled_seconds\": {:.6},\n      \"tiled_node_evals\": {},\n      \"tiled_event_axis_node_evals\": {},\n      \"tiled_probe_node_evals\": {},\n      \"eval_reduction_2d\": {:.3},\n      \"tiled_block_words\": {},\n      \"pattern_stripes\": {},\n      \"fault_shards\": {},\n      \"tiles\": {},\n      \"tile_steals\": {},\n      \"bit_identical\": {}\n    }}",
            self.circuit,
            self.inputs,
            self.gates,
            self.faults,
            self.detected,
            self.patterns,
            self.block_words,
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
            self.event_sharded_seconds,
            self.tiled_seconds,
            t.sim.node_evals,
            t.event_node_evals,
            t.probe_node_evals,
            self.eval_reduction_2d(),
            t.block_words,
            t.stripes,
            t.shards,
            t.tiles,
            t.steals,
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

/// Derives the dense engine's exact `node_evals` without running (or even
/// constructing) it: a profiled event run with fault dropping records how
/// many 64-pattern blocks each fault stayed excited (clipped at its
/// detecting block, matching dense dropping), and the dense engine pays
/// exactly `cone(f) − 1` evals per excited block.  Cone sizes come from
/// one fanout traversal per *distinct* effect root — no per-fault cone
/// storage.
fn derived_dense_node_evals(circuit: &Circuit, faults: &FaultList, patterns: u64) -> u64 {
    let mut sim = EventSimulator::<4>::new(circuit, faults);
    sim.enable_eval_profile();
    let mut worklist = FaultWorklist::full(faults.len());
    let mut source = WeightedPatterns::equiprobable(circuit.num_inputs(), SEED);
    let mut sb = SuperBlock::<4>::empty(circuit.num_inputs());
    let mut remaining = patterns;
    let mut blocks = Vec::new();
    while remaining > 0 {
        let block = source.next_block(remaining.min(64) as u32);
        remaining -= u64::from(block.len);
        blocks.push(block);
    }
    let mut b = 0;
    while b < blocks.len() && !worklist.is_empty() {
        let take = superblock_split(&blocks[b..], 4);
        sb.refill_from_blocks(&blocks[b..b + take]);
        sim.detect_superblock_worklist(&sb.words, sb.mask(), &mut worklist, true, |_, _| {});
        b += take;
    }
    let profile = sim.take_eval_profile().expect("profile enabled");
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

fn bench_circuit(circuit: &Circuit, patterns: u64, block_words: usize, threads: usize) -> Row {
    let faults = FaultList::checkpoints(circuit).collapse_equivalent(circuit);
    let source = || WeightedPatterns::equiprobable(circuit.num_inputs(), SEED);
    let event_opts = SimOptions::event(block_words);
    let derive_dense = circuit.num_nodes() > DENSE_DERIVE_NODES;
    // Big derived-baseline rows (the 10^5-gate scale circuit) get one
    // timed run per engine instead of warm-up + best-of-2: their
    // single-run wall clock is minutes, their eval counts (the numbers
    // that matter) are deterministic either way, and best-of-N would
    // triple an already-long artifact regeneration.
    let reps = if derive_dense { 0 } else { 2 };
    let (event_seconds, (event, event_stats)) = time_best(reps, || {
        fault_coverage_opts(circuit, &faults, source(), patterns, true, event_opts)
    });
    let (dense_seconds, dense_node_evals, dense_identical) = if derive_dense {
        (
            None,
            derived_dense_node_evals(circuit, &faults, patterns),
            true,
        )
    } else {
        let (secs, (dense, dense_stats)) = time_best(2, || {
            fault_coverage_opts(circuit, &faults, source(), patterns, true, SimOptions::dense())
        });
        (
            Some(secs),
            dense_stats.node_evals,
            dense.detected_at() == event.detected_at(),
        )
    };
    // One untimed event pass at W = 1: same block granularity as dense,
    // isolating the scheduling-sparsity share of the eval reduction.
    let (event_w1, event_w1_stats) =
        fault_coverage_opts(circuit, &faults, source(), patterns, true, SimOptions::event(1));
    let (event_sharded_seconds, (event_sharded, _)) = time_best(reps, || {
        wrt_sim::fault_coverage_sharded_opts(
            circuit,
            &faults,
            source(),
            patterns,
            true,
            threads,
            event_opts,
        )
    });
    // The 2D tiled engine: auto width/stripes, shards = threads.
    let tiled_opts = TileOptions {
        threads,
        ..TileOptions::default()
    };
    let (tiled_seconds, (tiled, tiled_stats)) = time_best(reps, || {
        fault_coverage_tiled(circuit, &faults, source(), patterns, true, &tiled_opts)
    });
    Row {
        circuit: circuit.name().to_string(),
        inputs: circuit.num_inputs(),
        gates: circuit.num_gates(),
        faults: faults.len(),
        detected: event.num_detected(),
        patterns,
        block_words,
        threads,
        dense_seconds,
        event_seconds,
        event_sharded_seconds,
        tiled_seconds,
        dense_node_evals,
        dense_baseline: if derive_dense { "derived" } else { "measured" },
        event_stats,
        event_w1_stats,
        tiled_stats,
        identical: dense_identical
            && event.detected_at() == event_w1.detected_at()
            && event.detected_at() == event_sharded.detected_at()
            && event.detected_at() == tiled.detected_at(),
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
    let block_words: usize = flag(&args, "--block-words")
        .map(|v| v.parse().expect("--block-words W"))
        .unwrap_or(4);
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
        "PPSFP dense vs event vs 2D tiled ({patterns} patterns, W = {block_words}, \
         {threads} threads for the sharded/tiled rows, {} cores available)",
        available_threads()
    );
    let mut rows = Vec::new();
    for name in &circuits {
        let circuit = wrt_workloads::by_name(name)
            .unwrap_or_else(|| panic!("unknown workload `{name}`"));
        let row = bench_circuit(&circuit, patterns, block_words, threads);
        println!(
            "  {:<14} {:>6} faults  evals/detected: dense {:>9.1}{} event {:>8.1} \
             ({:.2}x fewer; 2D {:.2}x; {:.2}x from sparsity; {:.2} faults/propagation)  \
             identical {}",
            row.circuit,
            row.faults,
            row.dense_evals_per_detected(),
            if row.dense_seconds.is_none() { "*" } else { " " },
            row.event_evals_per_detected(),
            row.eval_reduction(),
            row.eval_reduction_2d(),
            row.sparsity_reduction(),
            row.event_stats.faults_per_propagation(),
            row.identical,
        );
        rows.push(row);
    }

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"ppsfp_dense_vs_event\",\n  \"note\": \"eval_reduction is the machine-independent 1D headline: gate evaluations per detected fault, dense cone walk (64-pattern blocks) vs event-driven propagation at block_words-word superblocks, over the identical pattern stream. It combines two effects: scheduling sparsity (only nodes the fault effect reaches are evaluated, stopping when the frontier drains - frontier_dieout_rate of excited passes died before a PO) and superblock amortization (one [u64; W] evaluation covers W dense blocks; each event eval does W words of lane work). sparsity_reduction (dense vs event at W = 1, equal granularity) isolates the sparsity share; both event figures already include root grouping: the event engine propagates each excited effect root once per superblock for all live faults sharing it (both stem polarities, a gate's stem and pin faults), and root_propagations / faults_per_propagation (excited fault-superblock attempts per propagation, at least 1) record that sharing for the event run at block_words; scheduled_vs_cone_ratio = event/dense evals at the benchmarked W folds both effects. eval_reduction_2d is the 2D headline: dense vs the tiled engine's total spend (tiled_node_evals = tiled_probe_node_evals, spent on stripe 0 - the first superblock, one tile per fault shard - plus tiled_event_axis_node_evals, spent on the later stripes after the faults stripe 0 detected were dropped), at its auto-resolved tiled_block_words, pattern_stripes (stripe 0 included) and fault_shards; with one stripe after stripe 0 it spends exactly the 1D event evals at that width. tile_steals counts tiles run by a non-home worker and is the one scheduling-dependent (nondeterministic) field. dense_baseline is `measured`, or `derived` on circuits too large for the dense engine, where dense_node_evals = sum over faults of excited_undetected_blocks x (cone size - 1) - the dense engine's own accounting identity, computed from a profiled event run - and dense wall-clock fields are null. bit_identical asserts dense (when measured), event-W1, event, sharded-event, and 2D tiled coverage agree exactly. Wall-clock fields are host-dependent; on a 1-core container the sharded and tiled rows measure fan-out overhead, not speedup - the machine-independent eval counts are the comparison that transfers.\",\n  \"patterns\": {},\n  \"block_words\": {},\n  \"threads\": {},\n  \"available_parallelism\": {},\n  \"smoke\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        patterns,
        block_words,
        threads,
        available_threads(),
        smoke,
        body.join(",\n"),
    );
    std::fs::write(&out, json).expect("write BENCH_sim.json");
    println!("wrote {out}");
}

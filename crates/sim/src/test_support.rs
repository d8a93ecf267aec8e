//! Shared proptest strategies and engine helpers for the crate's tests.

use proptest::prelude::*;
use wrt_circuit::{Circuit, CircuitBuilder, GateKind};
use wrt_fault::FaultList;
use wrt_robust::Budget;

use crate::coverage::CoverageResult;
use crate::event::{superblock_split, SimStats, SuperBlock};
use crate::fault_sim::{FaultSimulator, FaultWorklist};
use crate::parallel::SimOptions;
use crate::patterns::PatternSource;

/// A small random 4-input circuit with two outputs: a mix of gate kinds
/// over randomly picked (possibly reconvergent) fanins.
pub fn arb_circuit() -> impl Strategy<Value = Circuit> {
    let kinds = prop::sample::select(vec![
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
    ]);
    proptest::collection::vec((kinds, proptest::collection::vec(0usize..100, 1..3)), 4..18)
        .prop_map(|specs| {
            let mut b = CircuitBuilder::named("rand");
            let mut ids = Vec::new();
            for i in 0..4 {
                ids.push(b.input(format!("i{i}")));
            }
            for (kind, picks) in specs {
                let fanin: Vec<_> = if kind == GateKind::Not {
                    vec![ids[picks[0] % ids.len()]]
                } else {
                    picks.iter().map(|&p| ids[p % ids.len()]).collect()
                };
                ids.push(b.gate_auto(kind, &fanin).expect("valid"));
            }
            b.mark_output(*ids.last().expect("nonempty"));
            b.mark_output(ids[4]);
            b.build().expect("valid circuit")
        })
}

/// A random 4-input circuit built mostly of long single-fanout chains:
/// each gate usually extends the previous one, with side inputs drawn
/// mostly from the primary inputs, so fanout-free regions span many
/// gates.  Some chain gates are also observed (single-fanout outputs),
/// and an occasional far pick reads an earlier node again, making stems,
/// reconvergence and two-pin reads.
pub fn arb_chain_circuit() -> impl Strategy<Value = Circuit> {
    let kinds = prop::sample::select(vec![
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ]);
    // (kind, extend-the-chain roll, fanin picks, observe roll)
    let gate = (
        kinds,
        0usize..100,
        proptest::collection::vec(0usize..100, 1..3),
        0usize..100,
    );
    proptest::collection::vec(gate, 4..28).prop_map(|specs| {
        let mut b = CircuitBuilder::named("chains");
        let mut ids = Vec::new();
        for i in 0..4 {
            ids.push(b.input(format!("i{i}")));
        }
        let mut observed = Vec::new();
        for (kind, extend, picks, out) in specs {
            let pick = |p: usize| {
                if p < 85 {
                    ids[p % 4]
                } else {
                    ids[p % ids.len()]
                }
            };
            let first = if extend < 80 {
                *ids.last().expect("nonempty")
            } else {
                pick(picks[0])
            };
            let fanin: Vec<_> = if matches!(kind, GateKind::Not | GateKind::Buf) {
                vec![first]
            } else {
                std::iter::once(first)
                    .chain(picks.iter().map(|&p| pick(p)))
                    .collect()
            };
            let id = b.gate_auto(kind, &fanin).expect("valid");
            ids.push(id);
            if out < 15 {
                observed.push(id);
            }
        }
        let last = *ids.last().expect("nonempty");
        b.mark_output(last);
        for id in observed.into_iter().filter(|&id| id != last) {
            b.mark_output(id);
        }
        b.build().expect("valid circuit")
    })
}

/// [`crate::fault_coverage_robust`] under an unlimited budget; the run
/// must complete without recovery.
pub fn coverage(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone + Send,
    num_patterns: u64,
    drop: bool,
    threads: usize,
) -> (CoverageResult, SimStats) {
    let unlimited = Budget::unlimited();
    let outcome = crate::fault_coverage_robust(
        circuit,
        faults,
        source,
        num_patterns,
        drop,
        threads,
        SimOptions::default(),
        &unlimited,
    );
    assert!(outcome.is_complete(), "an unlimited run completes");
    let run = outcome.into_value();
    assert!(run.recovery.is_clean(), "no fail point is armed");
    (run.result, run.stats)
}

/// [`crate::detection_counts_robust`] under an unlimited budget; the run
/// must complete without recovery.
pub fn counts(
    circuit: &Circuit,
    faults: &FaultList,
    source: impl PatternSource + Clone + Send,
    num_patterns: u64,
    threads: usize,
) -> (Vec<u64>, SimStats) {
    let unlimited = Budget::unlimited();
    let outcome = crate::detection_counts_robust(
        circuit,
        faults,
        source,
        num_patterns,
        threads,
        SimOptions::default(),
        &unlimited,
    );
    assert!(outcome.is_complete(), "an unlimited run completes");
    let run = outcome.into_value();
    assert!(run.recovery.is_clean(), "no fail point is armed");
    assert_eq!(run.num_patterns, num_patterns);
    (run.counts, run.stats)
}

/// The dense oracle's work counters: one [`FaultSimulator`] over the
/// source's 64-pattern blocks, dropping detected faults with `drop` and
/// stopping once none is left, as [`crate::fault_coverage`] does.
pub fn dense_stats(
    circuit: &Circuit,
    faults: &FaultList,
    mut source: impl PatternSource,
    num_patterns: u64,
    drop: bool,
) -> SimStats {
    let mut sim = FaultSimulator::new(circuit, faults);
    let mut worklist = FaultWorklist::full(faults.len());
    let mut done = 0;
    while done < num_patterns && !(drop && worklist.is_empty()) {
        let block = source.next_block((num_patterns - done).min(64) as u32);
        sim.detect_block_worklist(&block.words, block.mask(), &mut worklist, drop, |_, _| {});
        done += u64::from(block.len);
    }
    sim.stats()
}

/// The dense oracle's counters regrouped into `W`-word superblocks: every
/// lane word of a superblock is one dense block (padding lanes included,
/// as the event engine sees them), and a `(fault, superblock)` attempt is
/// excited, detected, or a frontier death when any of its blocks is
/// excited, when any detects, or when it is excited and no excited block
/// reached an output.  `node_evals` and `root_propagations` are the dense
/// engine's own, summed over those blocks.  With `drop` a fault leaves
/// after its detecting superblock.
pub fn dense_superblock_stats<const W: usize>(
    circuit: &Circuit,
    faults: &FaultList,
    mut source: impl PatternSource,
    patterns: u64,
    drop: bool,
) -> SimStats {
    let mut blocks = Vec::new();
    let mut left = patterns;
    while left > 0 {
        let block = source.next_block(left.min(64) as u32);
        left -= u64::from(block.len);
        blocks.push(block);
    }
    let mut dense = FaultSimulator::new(circuit, faults);
    let mut live = vec![true; faults.len()];
    let mut stats = SimStats::default();
    let mut b = 0;
    while b < blocks.len() {
        let take = superblock_split(&blocks[b..], W);
        let sb = SuperBlock::<W>::from_blocks(&blocks[b..b + take]);
        let mask = sb.mask();
        for i in 0..faults.len() {
            if !live[i] {
                continue;
            }
            let (mut excited, mut reached, mut detected) = (false, false, false);
            for k in 0..W {
                let words: Vec<u64> = sb.words.iter().map(|lanes| lanes[k]).collect();
                let only: Vec<bool> = (0..faults.len()).map(|j| j == i).collect();
                let before = dense.stats();
                dense.detect_block_worklist(
                    &words,
                    mask[k],
                    &mut FaultWorklist::from_active(&only),
                    false,
                    |_, _| {},
                );
                let after = dense.stats();
                if after.unexcited == before.unexcited {
                    excited = true;
                    reached |= after.frontier_deaths == before.frontier_deaths;
                }
                detected |= after.detected_blocks > before.detected_blocks;
            }
            stats.fault_blocks += 1;
            if !excited {
                stats.unexcited += 1;
            } else if !reached {
                stats.frontier_deaths += 1;
            }
            if detected {
                stats.detected_blocks += 1;
                live[i] &= !drop;
            }
        }
        b += take;
    }
    let dense = dense.stats();
    stats.node_evals = dense.node_evals;
    stats.root_propagations = dense.root_propagations;
    stats
}

//! Simulation throughput benchmarks: bit-parallel logic simulation and
//! PPSFP fault simulation, with the fault-dropping ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wrt_fault::FaultList;
use wrt_robust::Budget;
use wrt_sim::{
    fault_coverage, fault_coverage_robust, LogicSim, PatternSource, SimOptions, WeightedPatterns,
};

fn logic_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("logic_sim");
    for name in ["c880ish", "c6288ish"] {
        let circuit = wrt_workloads::by_name(name).expect("registered");
        let blocks = 16u64;
        group.throughput(Throughput::Elements(
            blocks * 64 * circuit.num_gates() as u64,
        ));
        group.bench_function(BenchmarkId::new("blocks16", name), |b| {
            b.iter(|| {
                let mut sim = LogicSim::new(&circuit);
                let mut source = WeightedPatterns::equiprobable(circuit.num_inputs(), 3);
                for _ in 0..blocks {
                    let block = source.next_block(64);
                    sim.run(black_box(&block.words));
                }
                black_box(sim.output_words())
            });
        });
    }
    group.finish();
}

fn fault_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sim");
    group.sample_size(10);
    for name in ["s1", "c2670ish"] {
        let circuit = wrt_workloads::by_name(name).expect("registered");
        let faults = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
        let patterns = 1024u64;
        group.throughput(Throughput::Elements(patterns * faults.len() as u64));
        for drop in [true, false] {
            let label = if drop { "dropping" } else { "no_drop" };
            group.bench_function(BenchmarkId::new(label, name), |b| {
                b.iter(|| {
                    let source = WeightedPatterns::equiprobable(circuit.num_inputs(), 7);
                    black_box(fault_coverage(&circuit, &faults, source, patterns, drop))
                });
            });
        }
    }
    group.finish();
}

/// The serial dense oracle vs the sharded engine on the largest workload
/// circuits: the fault list is split into cone-locality-aware shards, one
/// worker thread each (results are bit-identical; only the wall clock
/// changes).
fn sharded_fault_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_fault_sim");
    group.sample_size(10);
    for name in ["c2670ish", "c7552ish"] {
        let circuit = wrt_workloads::by_name(name).expect("registered");
        let faults = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
        let patterns = 1024u64;
        group.throughput(Throughput::Elements(patterns * faults.len() as u64));
        group.bench_function(BenchmarkId::new("serial", name), |b| {
            b.iter(|| {
                let source = WeightedPatterns::equiprobable(circuit.num_inputs(), 7);
                black_box(fault_coverage(&circuit, &faults, source, patterns, true))
            });
        });
        for threads in [2usize, 4, 8] {
            group.bench_function(BenchmarkId::new(format!("sharded{threads}"), name), |b| {
                b.iter(|| {
                    let source = WeightedPatterns::equiprobable(circuit.num_inputs(), 7);
                    black_box(fault_coverage_robust(
                        &circuit,
                        &faults,
                        source,
                        patterns,
                        true,
                        threads,
                        SimOptions::default(),
                        &Budget::unlimited(),
                    ))
                });
            });
        }
    }
    group.finish();
}

/// The dense oracle's cone walk vs the engine's event-driven sparse
/// propagation on one shard (results are bit-identical; only the wall
/// clock changes).
fn event_fault_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_fault_sim");
    group.sample_size(10);
    for name in ["c2670ish", "c7552ish"] {
        let circuit = wrt_workloads::by_name(name).expect("registered");
        let faults = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
        let patterns = 1024u64;
        group.throughput(Throughput::Elements(patterns * faults.len() as u64));
        group.bench_function(BenchmarkId::new("dense", name), |b| {
            b.iter(|| {
                let source = WeightedPatterns::equiprobable(circuit.num_inputs(), 7);
                black_box(fault_coverage(&circuit, &faults, source, patterns, true))
            });
        });
        group.bench_function(BenchmarkId::new("event", name), |b| {
            b.iter(|| {
                let source = WeightedPatterns::equiprobable(circuit.num_inputs(), 7);
                black_box(fault_coverage_robust(
                    &circuit,
                    &faults,
                    source,
                    patterns,
                    true,
                    1,
                    SimOptions::default(),
                    &Budget::unlimited(),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    logic_sim,
    fault_sim,
    sharded_fault_sim,
    event_fault_sim
);
criterion_main!(benches);

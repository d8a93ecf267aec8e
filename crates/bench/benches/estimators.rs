//! Cost comparison of the detection-probability engines (the ANALYSIS
//! step): analytic COP vs. STAFAN counting vs. Monte-Carlo PPSFP vs.
//! exact enumeration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wrt_estimate::{
    BddEngine, CopEngine, DetectionProbabilityEngine, ExactEngine, MonteCarloEngine, StafanEngine,
};
use wrt_fault::FaultList;

fn engines_on_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis");
    group.sample_size(10);
    for name in ["c432ish", "c880ish"] {
        let circuit = wrt_workloads::by_name(name).expect("registered");
        let faults = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
        let probs = vec![0.5; circuit.num_inputs()];
        group.bench_function(BenchmarkId::new("cop", name), |b| {
            b.iter(|| {
                let mut engine = CopEngine::new();
                black_box(engine.estimate(&circuit, &faults, &probs))
            });
        });
        group.bench_function(BenchmarkId::new("stafan_4k", name), |b| {
            b.iter(|| {
                let mut engine = StafanEngine::new(4096, 1);
                black_box(engine.estimate(&circuit, &faults, &probs))
            });
        });
        group.bench_function(BenchmarkId::new("monte_carlo_4k", name), |b| {
            b.iter(|| {
                let mut engine = MonteCarloEngine::new(4096, 1);
                black_box(engine.estimate(&circuit, &faults, &probs))
            });
        });
    }
    group.finish();
}

fn bdd_exact_on_c432(c: &mut Criterion) {
    let circuit = wrt_workloads::by_name("c432ish").expect("registered");
    let faults = FaultList::primary_inputs(&circuit);
    let probs = vec![0.5; circuit.num_inputs()];
    let mut group = c.benchmark_group("analysis");
    group.sample_size(10);
    group.bench_function("bdd_exact/c432ish_pi_faults", |b| {
        b.iter(|| {
            let mut engine = BddEngine::new(2_000_000);
            black_box(engine.estimate(&circuit, &faults, &probs))
        });
    });
    group.finish();
}

fn exact_engine_small(c: &mut Criterion) {
    // Exact enumeration is exponential; bench it on its intended scale.
    let circuit = wrt_circuit::parse_bench(
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\n\
         OUTPUT(y)\nm = NAND(a, b)\nn = NOR(c, d)\nx = XOR(m, n)\ny = AND(x, e, f)\n",
    )
    .expect("valid");
    let faults = FaultList::full(&circuit);
    let probs = vec![0.5; 6];
    c.bench_function("analysis/exact_6in", |b| {
        b.iter(|| {
            let mut engine = ExactEngine::new(8);
            black_box(engine.estimate(&circuit, &faults, &probs))
        });
    });
}

criterion_group!(
    benches,
    engines_on_workloads,
    exact_engine_small,
    bdd_exact_on_c432
);
criterion_main!(benches);

//! Optimizer benchmarks and ablations of the design choices DESIGN.md
//! calls out: the relevant-fault restriction (paper §4 observation 1) and
//! the 1-D Newton minimizer vs. a derivative-free golden-section search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wrt_core::{minimize_coordinate, optimize, CoordinateProblem, OptimizeConfig};
use wrt_estimate::CopEngine;
use wrt_fault::FaultList;

fn optimize_circuits(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimize");
    group.sample_size(10);
    for name in ["s1", "c2670ish"] {
        let circuit = wrt_workloads::by_name(name).expect("registered");
        let faults = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
        group.bench_function(BenchmarkId::new("default", name), |b| {
            b.iter(|| {
                let mut engine = CopEngine::new();
                black_box(optimize(
                    &circuit,
                    &faults,
                    &mut engine,
                    &OptimizeConfig::default(),
                ))
            });
        });
    }
    group.finish();
}

/// Ablation: restricting PREPARE to the `nf` hardest faults vs. carrying
/// the whole fault list through every engine call.
fn relevant_subset_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("relevant_subset");
    group.sample_size(10);
    let circuit = wrt_workloads::s1();
    let faults = FaultList::checkpoints(&circuit).collapse_equivalent(&circuit);
    for (label, slack) in [("hardest_nf", 16usize), ("all_faults", usize::MAX)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut engine = CopEngine::new();
                let config = OptimizeConfig {
                    relevant_slack: slack,
                    max_sweeps: 6,
                    ..OptimizeConfig::default()
                };
                black_box(optimize(&circuit, &faults, &mut engine, &config))
            });
        });
    }
    group.finish();
}

/// Ablation: Newton (formula 15) vs. golden-section search for the 1-D
/// convex subproblem.
fn newton_vs_golden(c: &mut Criterion) {
    let problem = CoordinateProblem::new(
        vec![2e-4, 8e-3, 0.02, 1e-5, 3e-4, 0.015],
        vec![6e-3, 1e-3, 0.05, 2e-5, 9e-4, 0.001],
        5000.0,
    );
    c.bench_function("minimize/newton", |b| {
        b.iter(|| black_box(minimize_coordinate(&problem, 0.5, 0.02, 0.98)));
    });
    c.bench_function("minimize/golden_section", |b| {
        b.iter(|| {
            let (mut a, mut z) = (0.02f64, 0.98f64);
            let phi = (5f64.sqrt() - 1.0) / 2.0;
            for _ in 0..60 {
                let x1 = z - phi * (z - a);
                let x2 = a + phi * (z - a);
                if problem.objective(x1) < problem.objective(x2) {
                    z = x2;
                } else {
                    a = x1;
                }
            }
            black_box(0.5 * (a + z))
        });
    });
}

criterion_group!(
    benches,
    optimize_circuits,
    relevant_subset_ablation,
    newton_vs_golden
);
criterion_main!(benches);

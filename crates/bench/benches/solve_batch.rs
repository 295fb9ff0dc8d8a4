//! Batched-solve microbenchmarks: lockstep `solve_batch` versus sequential
//! single-RHS solves through the same session (identical arithmetic per
//! column — the delta is purely traversal sharing and workspace reuse).
//! k = 1 and k = 2 keep the small-batch cost of the lockstep path visible:
//! a k = 1 batch should cost what one scalar solve costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcmcmi_krylov::{JacobiPrecond, SolveOptions, SolveSession, SolverType};
use mcmcmi_matgen::fd_laplace_2d;
use std::hint::black_box;

fn bench_solve_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_batch");
    let a = fd_laplace_2d(24);
    let n = a.nrows();
    for solver in [SolverType::Cg, SolverType::Gmres] {
        for k in [1usize, 2, 4, 8] {
            let rhs: Vec<Vec<f64>> = (0..k)
                .map(|c| {
                    (0..n)
                        .map(|i| (i as f64 * (0.21 + 0.05 * c as f64)).sin())
                        .collect()
                })
                .collect();
            let mut batch_sess = SolveSession::new(
                a.clone(),
                JacobiPrecond::new(&a),
                solver,
                SolveOptions::default(),
            );
            group.bench_function(
                BenchmarkId::new(format!("batch/{}", solver.name()), k),
                |b| {
                    b.iter(|| black_box(batch_sess.solve_batch(black_box(&rhs))));
                },
            );
            let mut seq_sess = SolveSession::new(
                a.clone(),
                JacobiPrecond::new(&a),
                solver,
                SolveOptions::default(),
            );
            group.bench_function(
                BenchmarkId::new(format!("sequential/{}", solver.name()), k),
                |b| {
                    b.iter(|| {
                        for rhs_c in &rhs {
                            black_box(seq_sess.solve(black_box(rhs_c)));
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_solve_batch);
criterion_main!(benches);

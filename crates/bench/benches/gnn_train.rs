//! Surrogate cost: graph embedding, building the inference head, one
//! training forward+backward step, and a single-candidate prediction with
//! input gradients through the head (the BO inner loop).

use criterion::{criterion_group, criterion_main, Criterion};
use mcmcmi_autodiff::{Graph, Tensor};
use mcmcmi_gnn::{MatrixGraph, Surrogate, SurrogateConfig};
use mcmcmi_matgen::fd_laplace_2d;

fn bench_gnn(c: &mut Criterion) {
    let data = MatrixGraph::from_csr(&fd_laplace_2d(16));
    let mut s = Surrogate::new(SurrogateConfig::lite(11, 6));
    let xa = vec![0.1; 11];
    let mut group = c.benchmark_group("gnn");
    group.bench_function("embed_graph/laplace16", |b| {
        b.iter(|| s.embed_graph(&data));
    });
    let h_g = s.embed_graph(&data);
    group.bench_function("head/build", |b| {
        b.iter(|| s.head(&h_g, &xa));
    });
    let head = s.head(&h_g, &xa);
    group.bench_function("predict/one-candidate", |b| {
        b.iter(|| head.predict(&[0.0, 0.1, -0.1, 1.0, 0.0, 0.0]));
    });
    group.bench_function("predict_grad/one-candidate", |b| {
        b.iter(|| head.predict_grad(&[0.0, 0.1, -0.1, 1.0, 0.0, 0.0]));
    });
    group.bench_function("train_step/batch64", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let bound = s.params().bind(&mut g);
            let xm = g.leaf(Tensor::zeros(64, 6));
            let (mu, sigma) = s.forward(&mut g, &bound, &data, &xa, xm, 64, true);
            let y = g.leaf(Tensor::zeros(64, 1));
            let l1 = g.mse(mu, y);
            let l2 = g.mse(sigma, y);
            let loss = g.add(l1, l2);
            g.backward(loss)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_gnn);
criterion_main!(benches);

//! Criterion performance microbenchmarks (not a paper artifact): tensor
//! kernels, graph construction, and model epoch times — the operational
//! profile of the reproduction.
//!
//! Run with: `cargo bench -p siterec-bench --bench perf_micro`

use criterion::{criterion_group, criterion_main, Criterion};
use siterec_core::{O2SiteRec, SiteRecConfig};
use siterec_graphs::{HeteroGraph, HeteroParams, MobilityGraph, SiteRecTask, Split};
use siterec_sim::{O2oDataset, SimConfig};
use siterec_tensor::{Graph, Index, Init, ParamStore, Tensor};
use std::time::Duration;

fn bench_tensor_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor");
    group
        .measurement_time(Duration::from_secs(4))
        .sample_size(20);

    let a = Tensor::full(256, 90, 0.5);
    let b = Tensor::full(90, 90, 0.25);
    group.bench_function("matmul_256x90x90", |bch| {
        bch.iter(|| std::hint::black_box(a.matmul(&b)))
    });

    // A representative attention block on 10k edges.
    let mut ps = ParamStore::new(1);
    let table = ps.add("t", 256, 90, Init::XavierUniform);
    let edges = Index::new((0..10_000).map(|i| i % 256).collect(), 256);
    let dsts = Index::new((0..10_000).map(|i| (i * 7) % 256).collect(), 256);
    group.bench_function("edge_attention_10k", |bch| {
        bch.iter(|| {
            let mut g = Graph::new();
            let binds = ps.bind(&mut g);
            let emb = binds.var(table);
            let k = g.gather_rows(emb, &edges);
            let q = g.gather_rows(emb, &dsts);
            let s = g.row_dot(k, q);
            let alpha = g.segment_softmax(s, &dsts);
            let w = g.mul_col_broadcast(k, alpha);
            let agg = g.segment_sum(w, &dsts);
            let loss = g.mean_all(agg);
            g.backward(loss);
            std::hint::black_box(g.grad(emb).is_some())
        })
    });
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group
        .measurement_time(Duration::from_secs(10))
        .sample_size(10);

    group.bench_function("simulate_tiny_month", |b| {
        b.iter(|| std::hint::black_box(O2oDataset::generate(SimConfig::tiny(1))))
    });

    let data = O2oDataset::generate(SimConfig::tiny(1));
    group.bench_function("build_graphs", |b| {
        b.iter(|| {
            let split = Split::new(&data, 0.8, 1);
            std::hint::black_box(HeteroGraph::build(&data, &split, &HeteroParams::default()))
        })
    });
    group.bench_function("build_mobility_graph", |b| {
        b.iter(|| std::hint::black_box(MobilityGraph::build(&data, 2)))
    });

    let task = SiteRecTask::build(&data, 0.8, 1);
    group.bench_function("o2siterec_epoch_tiny", |b| {
        let cfg = SiteRecConfig {
            epochs: 1,
            ..SiteRecConfig::fast()
        };
        b.iter(|| {
            let mut m = O2SiteRec::new(&data, &task, cfg.clone());
            m.train();
            std::hint::black_box(m.history().len())
        })
    });
    let mut trained = O2SiteRec::new(
        &data,
        &task,
        SiteRecConfig {
            epochs: 2,
            ..SiteRecConfig::fast()
        },
    );
    trained.train();
    let pairs: Vec<(usize, usize)> = task.split.test.iter().map(|i| (i.region, i.ty)).collect();
    group.bench_function("o2siterec_inference", |b| {
        b.iter(|| std::hint::black_box(trained.predict(&pairs)))
    });
    group.bench_function("o2siterec_recommend_top", |b| {
        let candidates: Vec<usize> = (0..task.n_regions).collect();
        b.iter(|| std::hint::black_box(trained.recommend(0, &candidates)))
    });
    group.finish();
}

criterion_group!(benches, bench_tensor_kernels, bench_pipeline);
criterion_main!(benches);

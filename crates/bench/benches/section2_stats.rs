//! E1 / §2 — cost of the network characterization pipeline: components,
//! giant-component extraction, and exact distance statistics (diameter /
//! average path length) on the Cellzome hypergraph.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use hypergraph::{hyper_distance_stats, hypergraph_components};
use proteome::cellzome::{cellzome_like, CELLZOME_SEED};

fn bench(c: &mut Criterion) {
    let ds = cellzome_like(CELLZOME_SEED);
    let cc = hypergraph_components(&ds.hypergraph);
    let big = cc.largest().unwrap();
    let (giant, _, _) = cc.extract(&ds.hypergraph, big);

    let mut g = c.benchmark_group("section2_stats");
    g.bench_function("generate_dataset", |b| {
        b.iter(|| cellzome_like(black_box(CELLZOME_SEED)))
    });
    g.bench_function("components", |b| {
        b.iter(|| hypergraph_components(black_box(&ds.hypergraph)))
    });
    g.sample_size(20).measurement_time(Duration::from_secs(8));
    g.bench_function("distance_stats_exact", |b| {
        b.iter(|| hyper_distance_stats(black_box(&giant)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

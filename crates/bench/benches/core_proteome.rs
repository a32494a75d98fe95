//! E5 / §3 — the core-proteome pipeline: maximum-core computation,
//! annotation, and enrichment statistics on the Cellzome hypergraph.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hypergraph::{csr_kcore, max_core};
use proteome::annotations::{annotate, core_summary};
use proteome::cellzome::{cellzome_like, CELLZOME_SEED};
use proteome::enrichment::hypergeometric_tail;

fn bench(c: &mut Criterion) {
    let ds = cellzome_like(CELLZOME_SEED);
    let core = max_core(&ds.hypergraph).unwrap();
    let ann = annotate(&ds, CELLZOME_SEED);

    let mut g = c.benchmark_group("core_proteome");
    g.bench_function("kcore_at_6", |b| {
        b.iter(|| csr_kcore(black_box(&ds.hypergraph), 6))
    });
    g.bench_function("max_core_decompose", |b| {
        b.iter(|| max_core(black_box(&ds.hypergraph)).unwrap())
    });
    g.bench_function("annotate", |b| {
        b.iter(|| annotate(black_box(&ds), CELLZOME_SEED))
    });
    g.bench_function("core_summary", |b| {
        b.iter(|| core_summary(black_box(&ann), &core.vertices))
    });
    g.bench_function("hypergeometric_tail", |b| {
        b.iter(|| hypergeometric_tail(black_box(4036), 878, 32, 22))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

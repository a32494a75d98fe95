//! Observability overhead — the cost of threading `hgobs` through the
//! hot algorithms, measured on the Cellzome hypergraph.
//!
//! `kcore/disabled` vs `kcore/enabled` benchmark the instrumented
//! maximum-core computation with the sink off and on; the disabled
//! numbers are directly comparable to the pre-instrumentation
//! `table1_kcore` bench. The <2% disabled-path budget itself is asserted
//! by the `obs_overhead` test of this crate, which `cargo test` runs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use hypergraph::max_core;
use proteome::cellzome::{cellzome_like, CELLZOME_SEED};

fn bench(c: &mut Criterion) {
    let ds = cellzome_like(CELLZOME_SEED);
    let h = &ds.hypergraph;

    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10).measurement_time(Duration::from_secs(10));

    hgobs::disable();
    g.bench_function("kcore/disabled", |b| {
        b.iter(|| max_core(black_box(h)).unwrap())
    });

    hgobs::enable();
    g.bench_function("kcore/enabled", |b| {
        b.iter(|| max_core(black_box(h)).unwrap())
    });
    hgobs::disable();
    hgobs::reset();
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

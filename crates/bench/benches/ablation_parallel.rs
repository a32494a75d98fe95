//! A4 — the paper's future work: the sequential CSR overlap-counting
//! k-core vs the level-synchronous subset-probe k-core, over mesh sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use hypergraph::{csr_kcore, probe_kcore};
use matrixmarket::{row_net, stiffness_3d};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_parallel");
    g.sample_size(10).measurement_time(Duration::from_secs(10));
    let k = 8u32;

    for n in [10usize, 14, 18] {
        let h = row_net(&stiffness_3d(n, n, n));
        g.bench_with_input(BenchmarkId::new("sequential", n), &h, |b, h| {
            b.iter(|| csr_kcore(black_box(h), k))
        });
        g.bench_with_input(BenchmarkId::new("parallel", n), &h, |b, h| {
            b.iter(|| probe_kcore(black_box(h), k))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

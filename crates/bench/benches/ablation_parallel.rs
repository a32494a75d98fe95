//! A4 — the paper's future work: the sequential CSR overlap-counting
//! k-core vs the level-synchronous parallel k-core, over mesh sizes and thread
//! counts (thread scaling is only visible on multi-core hosts).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use hypergraph::csr_kcore;
use matrixmarket::{row_net, stiffness_3d};
use parcore::par_hypergraph_kcore;

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
            b.iter(|| par_hypergraph_kcore(black_box(h), k))
        });
    }

    // Thread scaling on the largest mesh.
    let h = row_net(&stiffness_3d(18, 18, 18));
    let max_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    for threads in [1usize, 2, 4, 8] {
        if threads > max_threads {
            break;
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        g.bench_with_input(BenchmarkId::new("parallel_threads", threads), &h, |b, h| {
            b.iter(|| pool.install(|| par_hypergraph_kcore(black_box(h), k)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! The paper's closing remark made real: "for large hypergraphs, a
//! parallel algorithm will need to be designed." Compare the sequential
//! CSR overlap-counting k-core against the level-synchronous parallel one on
//! progressively larger mesh hypergraphs, across thread counts.
//!
//! ```sh
//! cargo run --release -p repro-examples --example parallel_scaling
//! ```

use std::time::Instant;

use hypergraph::{csr_kcore, Hypergraph};
use matrixmarket::{row_net, stiffness_3d};
use parcore::par_hypergraph_kcore;

fn mesh(n: usize) -> Hypergraph {
    row_net(&stiffness_3d(n, n, n))
}

fn main() {
    let k = 8u32;
    println!("k = {k}; meshes are n^3 27-point stencils (row-net hypergraphs)\n");
    println!(
        "{:>6} {:>9} {:>10} {:>12} {:>12} {:>8}",
        "n", "|V|", "|E|", "seq time", "par time", "equal"
    );

    for n in [8usize, 12, 16, 20] {
        let h = mesh(n);

        let t0 = Instant::now();
        let seq = csr_kcore(&h, k);
        let t_seq = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let par = par_hypergraph_kcore(&h, k);
        let t_par = t0.elapsed().as_secs_f64();

        println!(
            "{:>6} {:>9} {:>10} {:>11.4}s {:>11.4}s {:>8}",
            n,
            h.num_vertices(),
            h.num_pins(),
            t_seq,
            t_par,
            seq.vertices == par.vertices
        );
    }

    // Thread scaling on the largest mesh (only interesting on multi-core
    // hosts; rayon pools let us pin the level of parallelism).
    let h = mesh(20);
    println!("\nthread scaling on the 20^3 mesh:");
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let t0 = Instant::now();
        let core = pool.install(|| par_hypergraph_kcore(&h, k));
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "  {threads} thread(s): {:.4}s ({} core vertices)",
            secs,
            core.vertices.len()
        );
        if threads
            >= std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        {
            break;
        }
    }
}

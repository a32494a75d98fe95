//! The paper's closing remark: "for large hypergraphs, a parallel
//! algorithm will need to be designed." Compare the sequential CSR
//! overlap-counting k-core against the level-synchronous subset-probe
//! k-core (the shape a parallel k-core takes; it runs on one thread) on
//! progressively larger mesh hypergraphs.
//!
//! ```sh
//! cargo run --release -p repro-examples --example parallel_scaling
//! ```

use std::time::Instant;

use hypergraph::{csr_kcore, probe_kcore, Hypergraph};
use matrixmarket::{row_net, stiffness_3d};

fn mesh(n: usize) -> Hypergraph {
    row_net(&stiffness_3d(n, n, n))
}

fn main() {
    let k = 8u32;
    println!("k = {k}; meshes are n^3 27-point stencils (row-net hypergraphs)\n");
    println!(
        "{:>6} {:>9} {:>10} {:>12} {:>12} {:>8}",
        "n", "|V|", "|E|", "seq time", "probe time", "equal"
    );

    for n in [8usize, 12, 16, 20] {
        let h = mesh(n);

        let t0 = Instant::now();
        let seq = csr_kcore(&h, k);
        let t_seq = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let probe = probe_kcore(&h, k);
        let t_probe = t0.elapsed().as_secs_f64();

        println!(
            "{:>6} {:>9} {:>10} {:>11.4}s {:>11.4}s {:>8}",
            n,
            h.num_vertices(),
            h.num_pins(),
            t_seq,
            t_probe,
            seq.vertices == probe.vertices
        );
    }
}

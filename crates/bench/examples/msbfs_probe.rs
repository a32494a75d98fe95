//! Quick MS-BFS probe: times only the batched sweep on the hypergen
//! scaled dataset — original vs BFS-relabeled vertex order — for
//! kernel iteration without waiting on the scalar oracle.
//! `cargo run --release -p bench --example msbfs_probe [reps] [scale]`

use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let reps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);
    let scale: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6000);
    let h = hypergen::uniform_random_hypergraph(scale, scale * 3 / 4, 5, 41);
    let t = Instant::now();
    let r = hypergraph::Relabeling::bfs_order(&h);
    let hr = r.apply(&h);
    eprintln!(
        "hypergen-u{scale}: {} vertices, {} edges (relabel pass: {} us)",
        h.num_vertices(),
        h.num_edges(),
        t.elapsed().as_micros()
    );
    for r in 0..reps {
        for (label, g) in [("orig   ", &h), ("relabel", &hr)] {
            let t = Instant::now();
            let s = hypergraph::hyper_distance_stats(g);
            eprintln!(
                "rep {r} {label}: {} us (diameter {}, pairs {})",
                t.elapsed().as_micros(),
                s.diameter,
                s.reachable_pairs
            );
        }
    }
}

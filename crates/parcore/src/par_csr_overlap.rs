//! Sharded parallel construction of the flat CSR overlap engine, and the
//! parallel front-end to the incremental k-core decomposition.
//!
//! [`hypergraph::CsrOverlap`] is assembled from distinct sorted
//! `(f, g, |f ∩ g|)` triples. Here each worker owns a contiguous vertex
//! range and produces that range's contribution — locally generated
//! `(f, g)` pairs, sorted and run-length encoded — so nothing is shared
//! during generation. A pair can receive contributions from several
//! shards (one per shared vertex), so the shard outputs are concatenated,
//! parallel-sorted, and merge-summed before the single CSR assembly.
//!
//! [`par_decompose`] plugs this builder in front of
//! [`hypergraph::decompose_from_overlap`]: the `O(Σ_v d(v)²)` build is
//! the dominant cost of a decomposition on overlap-dense inputs, and it
//! parallelizes; the confluent peel that follows stays sequential.
//!
//! hgserve answers max-core queries with [`hypergraph::decompose()`], and
//! the vendored rayon runs the shards serially, so this module is a
//! twin of that engine. It stays because the `hgperf` benchmark's traced
//! replay times `par_decompose_with` (`hg kcore --par` is its only other
//! caller), and goes with the next change to that benchmark.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rayon::prelude::*;

use hgobs::{Deadline, DeadlineExceeded};
use hypergraph::{CsrOverlap, Decomposition, Hypergraph, VertexId};

/// [`par_csr_overlap_with`] with no deadline.
pub fn par_csr_overlap(h: &Hypergraph) -> CsrOverlap {
    match par_csr_overlap_with(h, &Deadline::none()) {
        Ok(ov) => ov,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// Build a [`CsrOverlap`] from per-vertex-range shards in parallel,
/// under a cooperative [`Deadline`] checked once per vertex (overshoot
/// bounded by the widest adjacency list). The error's `work_done` counts
/// pairs generated before expiry.
pub fn par_csr_overlap_with(
    h: &Hypergraph,
    deadline: &Deadline,
) -> Result<CsrOverlap, DeadlineExceeded> {
    let _span = hgobs::Span::enter("overlap.csr.par.build");
    let n = h.num_vertices();
    let shards = (rayon::current_num_threads() * 4).max(1);
    let chunk = n.div_ceil(shards).max(1);
    let tripped = AtomicBool::new(false);
    let pairs_generated = AtomicU64::new(0);
    let shard_triples: Vec<Vec<(u32, u32, u32)>> = (0..n.div_ceil(chunk))
        .into_par_iter()
        .map(|s| {
            // One trace event per shard: the per-vertex-range unit the
            // parallel build distributes over workers.
            let mut tp = deadline.trace().phase("overlap.shard");
            let mut local: Vec<(u32, u32)> = Vec::new();
            for v in (s * chunk)..((s + 1) * chunk).min(n) {
                if tripped.load(Ordering::Relaxed) || deadline.expired() {
                    tripped.store(true, Ordering::Relaxed);
                    break;
                }
                let adj = h.edges_of(VertexId(v as u32));
                for (i, &f) in adj.iter().enumerate() {
                    for &g in &adj[i + 1..] {
                        local.push((f.0, g.0));
                    }
                }
            }
            pairs_generated.fetch_add(local.len() as u64, Ordering::Relaxed);
            tp.add_work(local.len() as u64);
            local.sort_unstable();
            let mut triples: Vec<(u32, u32, u32)> = Vec::new();
            for (f, g) in local {
                match triples.last_mut() {
                    Some((lf, lg, c)) if *lf == f && *lg == g => *c += 1,
                    _ => triples.push((f, g, 1)),
                }
            }
            triples
        })
        .collect();
    let generated = pairs_generated.load(Ordering::Relaxed);
    hgobs::counter!("overlap.csr.par.pairs", generated);
    if tripped.load(Ordering::Relaxed) {
        return Err(deadline.exceeded("overlap.csr.par.build", generated));
    }
    let mut triples: Vec<(u32, u32, u32)> = shard_triples.into_iter().flatten().collect();
    triples.par_sort_unstable_by_key(|&(f, g, _)| (f, g));
    // Merge contributions of the same pair from different shards.
    let mut merged: Vec<(u32, u32, u32)> = Vec::with_capacity(triples.len());
    for (f, g, c) in triples {
        match merged.last_mut() {
            Some((lf, lg, lc)) if *lf == f && *lg == g => *lc += c,
            _ => merged.push((f, g, c)),
        }
    }
    Ok(CsrOverlap::from_triples(h.num_edges(), &merged))
}

/// [`par_decompose_with`] with no deadline.
pub fn par_decompose(h: &Hypergraph) -> Decomposition {
    match par_decompose_with(h, &Deadline::none()) {
        Ok(d) => d,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// Full k-core decomposition with the overlap table built in parallel
/// and the incremental sweep run sequentially on top of it. Identical
/// output to [`hypergraph::decompose()`].
pub fn par_decompose_with(
    h: &Hypergraph,
    deadline: &Deadline,
) -> Result<Decomposition, DeadlineExceeded> {
    let _span = hgobs::Span::enter("kcore.decompose.par");
    let ov = par_csr_overlap_with(h, deadline)?;
    hypergraph::decompose_from_overlap(h, ov, deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::{EdgeId, HypergraphBuilder};

    fn rows(ov: &CsrOverlap, m: usize) -> Vec<Vec<(EdgeId, u32)>> {
        (0..m)
            .map(|f| ov.overlapping(EdgeId(f as u32)).collect())
            .collect()
    }

    #[test]
    fn matches_sequential_build() {
        let mut b = HypergraphBuilder::new(6);
        b.add_edge([0, 1, 2]);
        b.add_edge([1, 2, 3]);
        b.add_edge([3, 4]);
        b.add_edge([0, 1, 2]);
        let h = b.build();
        let seq = CsrOverlap::build(&h);
        let par = par_csr_overlap(&h);
        assert_eq!(rows(&par, h.num_edges()), rows(&seq, h.num_edges()));
    }

    #[test]
    fn matches_on_random() {
        for seed in 0..3u64 {
            let h = hypergen::uniform_random_hypergraph(80, 100, 5, seed);
            let seq = CsrOverlap::build(&h);
            let par = par_csr_overlap(&h);
            assert_eq!(rows(&par, h.num_edges()), rows(&seq, h.num_edges()));
            assert_eq!(par.max_d2_edge(), seq.max_d2_edge());
        }
    }

    #[test]
    fn empty() {
        let h = HypergraphBuilder::new(0).build();
        assert_eq!(par_csr_overlap(&h).num_edges(), 0);
    }

    #[test]
    fn cancelled_deadline_stops_build() {
        let h = hypergen::uniform_random_hypergraph(300, 400, 5, 8);
        let dl = Deadline::cancellable();
        dl.cancel();
        let err = par_csr_overlap_with(&h, &dl).unwrap_err();
        assert_eq!(err.phase, "overlap.csr.par.build");
        assert!(par_decompose_with(&h, &dl).is_err());
    }

    #[test]
    fn par_decompose_matches_sequential() {
        for seed in 0..3u64 {
            let h = hypergen::uniform_random_hypergraph(120, 150, 4, seed);
            let a = hypergraph::decompose(&h);
            let b = par_decompose(&h);
            assert_eq!(a.profile, b.profile, "seed {seed}");
            assert_eq!(a.core_numbers, b.core_numbers, "seed {seed}");
            match (a.max_core, b.max_core) {
                (Some(x), Some(y)) => {
                    assert_eq!((x.k, x.vertices, x.edges), (y.k, y.vertices, y.edges));
                }
                (None, None) => {}
                _ => panic!("max_core liveness disagreement, seed {seed}"),
            }
        }
    }
}

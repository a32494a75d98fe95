//! Test-only generators: replicas of `hypergen`'s (`hypergen` depends
//! on this crate, so its generators are unusable in these unit tests;
//! the replicas replay its RNG calls and build the same instances), and
//! the random shapes the property tests draw.

use crate::{Hypergraph, HypergraphBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};

/// `hypergen::uniform_random_hypergraph(n, m, k, seed)`: `m` hyperedges,
/// each a uniformly random `k`-subset of `n` vertices.
pub(crate) fn uniform_random_hypergraph(n: usize, m: usize, k: usize, seed: u64) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = HypergraphBuilder::new(n);
    for _ in 0..m {
        b.add_edge(sample(&mut rng, n, k).into_iter().map(|v| v as u32));
    }
    b.build()
}

/// `hypergen::planted_core_hypergraph(core_v, core_e, deg, extra, seed)`:
/// a round-robin core block plus pair-edge leaves.
pub(crate) fn planted_core_hypergraph(
    core_v: usize,
    core_e: usize,
    deg: usize,
    extra: usize,
    seed: u64,
) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); core_e];
    for v in 0..core_v {
        let stride = 1 + v % (core_e.max(2) - 1);
        let mut chosen: std::collections::BTreeSet<usize> =
            (0..deg).map(|j| (v + j * stride) % core_e).collect();
        let mut e = 0;
        while chosen.len() < deg {
            chosen.insert(e);
            e += 1;
        }
        for e in chosen {
            members[e].push(v as u32);
        }
    }
    let mut b = HypergraphBuilder::new(core_v + extra);
    for m in members {
        b.add_edge(m);
    }
    for x in core_v..core_v + extra {
        b.add_edge([x as u32, rng.gen_range(0..x) as u32]);
    }
    b.build()
}

/// Random hypergraph: 1 to `max_v` vertices, up to `max_e` hyperedges of
/// 0 to `max_size` pins. Sparse draws bring isolated vertices and
/// several components; empty and duplicate hyperedges occur.
pub(crate) fn arb_hypergraph(
    max_v: usize,
    max_e: usize,
    max_size: usize,
) -> impl Strategy<Value = Hypergraph> {
    (1..=max_v).prop_flat_map(move |n| {
        proptest::collection::vec(
            proptest::collection::vec(0..n as u32, 0..=max_size),
            0..=max_e,
        )
        .prop_map(move |edges| {
            let mut b = HypergraphBuilder::new(n);
            for e in edges {
                b.add_edge(e);
            }
            b.build()
        })
    })
}

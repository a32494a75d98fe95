//! Naive reference implementations used to cross-validate the optimized
//! algorithms (and as the slow side of the A2/A3 ablations). These favour
//! obviousness over speed; property tests assert agreement with the
//! production implementations on random inputs.

use std::collections::BTreeSet;

use crate::hypergraph::{EdgeId, Hypergraph, VertexId};

/// Fixpoint k-core: repeatedly (a) drop non-maximal hyperedges by explicit
/// subset tests (lowest id survives among identical sets), then (b) drop
/// vertices of degree < k, until nothing changes. Returns surviving
/// (vertices, edges) by original id.
pub fn naive_kcore(h: &Hypergraph, k: u32) -> (Vec<VertexId>, Vec<EdgeId>) {
    let mut alive_v: Vec<bool> = vec![true; h.num_vertices()];
    let mut alive_e: Vec<bool> = vec![true; h.num_edges()];

    loop {
        let mut changed = false;

        // Current pin sets restricted to alive vertices.
        let sets: Vec<Option<BTreeSet<u32>>> = h
            .edges()
            .map(|f| {
                if alive_e[f.index()] {
                    Some(
                        h.pins(f)
                            .iter()
                            .filter(|v| alive_v[v.index()])
                            .map(|v| v.0)
                            .collect(),
                    )
                } else {
                    None
                }
            })
            .collect();

        // (a) drop empty and contained edges.
        for f in 0..sets.len() {
            let Some(sf) = &sets[f] else { continue };
            let non_maximal = sf.is_empty()
                || sets.iter().enumerate().any(|(g, sg)| {
                    if g == f {
                        return false;
                    }
                    let Some(sg) = sg else { return false };
                    (sg.len() > sf.len() || (sg.len() == sf.len() && g < f)) && sf.is_subset(sg)
                });
            if non_maximal {
                alive_e[f] = false;
                changed = true;
            }
        }

        // (b) drop low-degree vertices (degree counted over alive edges).
        for v in h.vertices() {
            if !alive_v[v.index()] {
                continue;
            }
            let deg = h.edges_of(v).iter().filter(|f| alive_e[f.index()]).count() as u32;
            if deg < k {
                alive_v[v.index()] = false;
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }

    let vs = (0..h.num_vertices())
        .filter(|&v| alive_v[v])
        .map(|v| VertexId(v as u32))
        .collect();
    let es = (0..h.num_edges())
        .filter(|&f| alive_e[f])
        .map(|f| EdgeId(f as u32))
        .collect();
    (vs, es)
}

/// The pin lists of `edges` restricted to the `alive` vertices, as a
/// sorted list: a core's hyperedges by content. `alive` must be sorted
/// ascending, as every core's vertex list is. Engines that peel in
/// different orders may keep different copies of hyperedges that end up
/// identical, so cores from different engines are compared by vertex
/// ids and edge contents.
pub fn edge_contents(h: &Hypergraph, edges: &[EdgeId], alive: &[VertexId]) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = edges
        .iter()
        .map(|&f| {
            h.pins(f)
                .iter()
                .filter(|v| alive.binary_search(v).is_ok())
                .map(|v| v.0)
                .collect()
        })
        .collect();
    out.sort();
    out
}

/// Every level of the k-core by [`naive_kcore`]: the per-k oracle for
/// [`crate::decompose()`] and the drivers it backs.
#[derive(Clone, Debug)]
pub struct NaiveCores {
    /// `levels[k]` is `naive_kcore(h, k)` for `k = 0..=k_max + 1`; the
    /// last level is the first empty one with `k ≥ 1`.
    pub levels: Vec<(Vec<VertexId>, Vec<EdgeId>)>,
    /// `(k, vertices, edges)` for every non-empty level `k ≥ 1`, the
    /// shape of [`crate::Decomposition::profile`].
    pub profile: Vec<(u32, usize, usize)>,
    /// The largest `k` whose level holds each vertex (0 outside the
    /// 1-core).
    pub core_numbers: Vec<u32>,
}

impl NaiveCores {
    /// The deepest non-empty level as `(k, vertices, edges)`, or `None`
    /// when the 1-core is empty.
    pub fn max_core(&self) -> Option<(u32, &[VertexId], &[EdgeId])> {
        let k = self.profile.last()?.0;
        let (vs, es) = &self.levels[k as usize];
        Some((k, vs, es))
    }
}

/// Run [`naive_kcore`] at `k = 0, 1, …` until a level with `k ≥ 1` is
/// empty (k-cores are nested, so every deeper level is empty too).
pub fn naive_cores(h: &Hypergraph) -> NaiveCores {
    let mut levels = vec![naive_kcore(h, 0)];
    let mut profile = Vec::new();
    let mut core_numbers = vec![0u32; h.num_vertices()];
    for k in 1u32.. {
        let (vs, es) = naive_kcore(h, k);
        let empty = vs.is_empty();
        if !empty {
            profile.push((k, vs.len(), es.len()));
            for v in &vs {
                core_numbers[v.index()] = k;
            }
        }
        levels.push((vs, es));
        if empty {
            break;
        }
    }
    NaiveCores {
        levels,
        profile,
        core_numbers,
    }
}

/// Exhaustive minimum-weight vertex cover by subset enumeration; only for
/// tiny instances (`num_vertices ≤ 20`). Returns `None` when no cover
/// exists (some hyperedge is empty). Ties are broken toward fewer
/// vertices, then lexicographically smallest vertex set.
pub fn exhaustive_min_cover(
    h: &Hypergraph,
    weight: impl Fn(VertexId) -> f64,
) -> Option<Vec<VertexId>> {
    let n = h.num_vertices();
    assert!(n <= 20, "exhaustive cover limited to 20 vertices");
    if h.edges().any(|f| h.edge_degree(f) == 0) {
        return None;
    }

    let mut best: Option<(f64, u32, Vec<VertexId>)> = None;
    for mask in 0u32..(1 << n) {
        let covers_all = h
            .edges()
            .all(|f| h.pins(f).iter().any(|v| mask & (1 << v.0) != 0));
        if !covers_all {
            continue;
        }
        let members: Vec<VertexId> = (0..n as u32)
            .filter(|&v| mask & (1 << v) != 0)
            .map(VertexId)
            .collect();
        let w: f64 = members.iter().map(|&v| weight(v)).sum();
        let count = mask.count_ones();
        let better = match &best {
            None => true,
            Some((bw, bc, bm)) => {
                w < *bw - 1e-12
                    || ((w - *bw).abs() <= 1e-12
                        && (count < *bc || (count == *bc && members < *bm)))
            }
        };
        if better {
            best = Some((w, count, members));
        }
    }
    best.map(|(_, _, m)| m)
}

/// The greedy rule of Fig. 5 step by step, the oracle of
/// [`crate::greedy_vertex_cover`] (every requirement 1) and
/// [`crate::greedy_multicover`]: while some hyperedge `f` has fewer than
/// `requirement(f)` chosen pins, scan every unchosen vertex and choose
/// the least `(weight ÷ useful count, id)`, where the useful count is the
/// number of the vertex's hyperedges still short. Returns the choices in
/// order. Weights must be finite and non-negative, and no requirement
/// may exceed its hyperedge's size.
pub fn naive_greedy_multicover(
    h: &Hypergraph,
    weight: impl Fn(VertexId) -> f64,
    requirement: impl Fn(EdgeId) -> u32,
) -> Vec<VertexId> {
    let mut need: Vec<u32> = h.edges().map(requirement).collect();
    let mut chosen = vec![false; h.num_vertices()];
    let mut order = Vec::new();
    while need.iter().any(|&r| r > 0) {
        let mut best: Option<(f64, VertexId)> = None;
        for v in h.vertices().filter(|v| !chosen[v.index()]) {
            let useful = h.edges_of(v).iter().filter(|f| need[f.index()] > 0).count();
            let cost = weight(v) / useful as f64;
            if useful > 0 && best.is_none_or(|(least, _)| cost < least) {
                best = Some((cost, v));
            }
        }
        let (_, v) = best.expect("a requirement exceeds its hyperedge's size");
        chosen[v.index()] = true;
        order.push(v);
        for f in h.edges_of(v) {
            need[f.index()] = need[f.index()].saturating_sub(1);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    #[test]
    fn naive_kcore_matches_simple_case() {
        let mut b = HypergraphBuilder::new(6);
        b.add_edge([0, 1, 3]);
        b.add_edge([1, 2, 4]);
        b.add_edge([0, 2, 5]);
        let h = b.build();
        let (vs, es) = naive_kcore(&h, 2);
        assert_eq!(vs, vec![VertexId(0), VertexId(1), VertexId(2)]);
        assert_eq!(es.len(), 3);
    }

    #[test]
    fn naive_matches_optimized_on_fixed_cases() {
        let cases: Vec<Hypergraph> = vec![
            {
                let mut b = HypergraphBuilder::new(4);
                b.add_edge([0, 1]);
                b.add_edge([1, 2]);
                b.add_edge([2, 3]);
                b.build()
            },
            {
                let mut b = HypergraphBuilder::new(5);
                b.add_edge([0, 1, 2, 3, 4]);
                b.add_edge([0, 1, 2]);
                b.add_edge([0, 1]);
                b.add_edge([3, 4]);
                b.build()
            },
            {
                let mut b = HypergraphBuilder::new(3);
                b.add_edge([0, 1]);
                b.add_edge([0, 1]);
                b.add_edge([1, 2]);
                b.build()
            },
        ];
        for h in &cases {
            for k in 0..4 {
                let (nv, ne) = naive_kcore(h, k);
                let fast = crate::csr_kcore(h, k);
                assert_eq!(nv, fast.vertices, "k={k}");
                assert_eq!(ne, fast.edges, "k={k}");
            }
        }
    }

    #[test]
    fn exhaustive_cover_finds_optimum() {
        // Star: center 0 in all edges; optimal unweighted cover = {0}.
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([0, 2]);
        b.add_edge([0, 3]);
        let h = b.build();
        let best = exhaustive_min_cover(&h, |_| 1.0).unwrap();
        assert_eq!(best, vec![VertexId(0)]);
    }

    #[test]
    fn exhaustive_cover_respects_weights() {
        // Same star but center is very expensive: pick the three leaves.
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([0, 2]);
        b.add_edge([0, 3]);
        let h = b.build();
        let best = exhaustive_min_cover(&h, |v| if v.0 == 0 { 10.0 } else { 1.0 }).unwrap();
        assert_eq!(best, vec![VertexId(1), VertexId(2), VertexId(3)]);
    }

    #[test]
    fn exhaustive_cover_none_for_empty_edge() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([]);
        let h = b.build();
        assert!(exhaustive_min_cover(&h, |_| 1.0).is_none());
    }
}

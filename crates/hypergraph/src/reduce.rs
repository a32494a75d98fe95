//! Reduced hypergraphs: removal of non-maximal hyperedges.
//!
//! A hypergraph is *reduced* when every hyperedge is maximal, i.e. no
//! hyperedge is contained in another. This module provides both the
//! paper's overlap-counting detection (no set comparisons) and, for the
//! A2 ablation and cross-validation, a naive subset-testing detection.
//!
//! Among *identical* hyperedges the lowest id is kept, matching the
//! k-core's tie rule.

use crate::csr_overlap::CsrOverlap;
use crate::hypergraph::{EdgeId, Hypergraph};

/// Ids of non-maximal hyperedges, detected via the [`CsrOverlap`] table:
/// `f` is non-maximal iff it is empty, or `overlap(f, g) == degree(f)`
/// for some `g` with larger degree (or equal degree and smaller id).
///
/// Time: the `O(Σ_v d(v)²)` overlap build (pair generation plus a sort),
/// then `O(Σ_f d₂(f))` probes.
pub fn non_maximal_edges(h: &Hypergraph) -> Vec<EdgeId> {
    let ov = CsrOverlap::build(h);
    let mut out = Vec::new();
    for f in h.edges() {
        let df = h.edge_degree(f) as u32;
        if df == 0 {
            out.push(f);
            continue;
        }
        let contained = ov.overlapping(f).any(|(g, c)| {
            c == df && {
                let dg = h.edge_degree(g) as u32;
                dg > df || (dg == df && g < f)
            }
        });
        if contained {
            out.push(f);
        }
    }
    out
}

/// Naive O(Σ_f Σ_g min(d(f), d(g))) detection by explicit sorted-subset
/// tests; reference implementation for tests and the A2 ablation.
pub fn non_maximal_edges_naive(h: &Hypergraph) -> Vec<EdgeId> {
    let mut out = Vec::new();
    'outer: for f in h.edges() {
        let pf = h.pins(f);
        if pf.is_empty() {
            out.push(f);
            continue;
        }
        for g in h.edges() {
            if g == f {
                continue;
            }
            let pg = h.pins(g);
            let strictly_larger = pg.len() > pf.len();
            let identical_wins = pg.len() == pf.len() && g < f;
            if (strictly_larger || identical_wins) && is_sorted_subset(pf, pg) {
                out.push(f);
                continue 'outer;
            }
        }
    }
    out
}

/// `true` iff sorted slice `a` is a subset of sorted slice `b`.
fn is_sorted_subset<T: Ord>(a: &[T], b: &[T]) -> bool {
    let mut j = 0;
    for x in a {
        while j < b.len() && b[j] < *x {
            j += 1;
        }
        if j >= b.len() || b[j] != *x {
            return false;
        }
        j += 1;
    }
    true
}

/// The reduced hypergraph: all maximal hyperedges (lowest id kept among
/// identical copies), every vertex retained. Returns the reduced
/// hypergraph and the original ids of surviving hyperedges.
///
/// Note: removing a non-maximal edge cannot make another edge non-maximal
/// (containment in a non-maximal edge implies containment in its maximal
/// superset), so a single detection pass suffices.
pub fn reduce(h: &Hypergraph) -> (Hypergraph, Vec<EdgeId>) {
    let dead = non_maximal_edges(h);
    let mut keep_e = vec![true; h.num_edges()];
    for f in dead {
        keep_e[f.index()] = false;
    }
    let keep_v = vec![true; h.num_vertices()];
    let (sub, _, emap) = h.sub_hypergraph(&keep_v, &keep_e, false);
    (sub, emap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn nested() -> Hypergraph {
        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1, 2, 3]); // e0 maximal
        b.add_edge([0, 1]); // e1 ⊂ e0
        b.add_edge([2, 3, 4]); // e2 maximal
        b.add_edge([2, 3, 4]); // e3 identical to e2 (higher id dies)
        b.add_edge([]); // e4 empty
        b.build()
    }

    #[test]
    fn detects_containment_duplicates_and_empties() {
        let h = nested();
        let dead = non_maximal_edges(&h);
        assert_eq!(dead, vec![EdgeId(1), EdgeId(3), EdgeId(4)]);
    }

    #[test]
    fn naive_agrees_with_overlap_method() {
        let h = nested();
        assert_eq!(non_maximal_edges(&h), non_maximal_edges_naive(&h));
    }

    #[test]
    fn reduce_produces_reduced_hypergraph() {
        let h = nested();
        let (red, emap) = reduce(&h);
        assert_eq!(emap, vec![EdgeId(0), EdgeId(2)]);
        assert_eq!(red.num_edges(), 2);
        assert_eq!(red.num_vertices(), 5);
        assert!(non_maximal_edges(&red).is_empty());
    }

    #[test]
    fn reduce_is_idempotent() {
        let h = nested();
        let (r1, _) = reduce(&h);
        let (r2, emap2) = reduce(&r1);
        assert_eq!(r1.num_edges(), r2.num_edges());
        assert_eq!(emap2.len(), r1.num_edges());
        assert_eq!(r1.num_pins(), r2.num_pins());
    }

    #[test]
    fn already_reduced_untouched() {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([1, 2]);
        b.add_edge([2, 3]);
        let h = b.build();
        assert!(non_maximal_edges(&h).is_empty());
        let (red, emap) = reduce(&h);
        assert_eq!(red.num_edges(), 3);
        assert_eq!(emap.len(), 3);
    }

    #[test]
    fn sorted_subset_helper() {
        assert!(is_sorted_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_sorted_subset(&[1, 4], &[1, 2, 3]));
        assert!(is_sorted_subset::<u32>(&[], &[1]));
        assert!(is_sorted_subset::<u32>(&[], &[]));
        assert!(!is_sorted_subset(&[1], &[]));
        assert!(is_sorted_subset(&[2, 5, 9], &[1, 2, 3, 5, 8, 9]));
    }

    #[test]
    fn chain_of_containments_single_pass() {
        // e0 ⊂ e1 ⊂ e2: one pass must kill e0 and e1.
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0]);
        b.add_edge([0, 1]);
        b.add_edge([0, 1, 2]);
        let h = b.build();
        let dead = non_maximal_edges(&h);
        assert_eq!(dead, vec![EdgeId(0), EdgeId(1)]);
        let (red, _) = reduce(&h);
        assert!(non_maximal_edges(&red).is_empty());
    }

    #[test]
    fn three_identical_copies_keep_first() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0, 1]);
        b.add_edge([0, 1]);
        b.add_edge([0, 1]);
        let h = b.build();
        assert_eq!(non_maximal_edges(&h), vec![EdgeId(1), EdgeId(2)]);
    }
}

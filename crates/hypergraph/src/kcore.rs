//! The k-core of a hypergraph (paper §3, Fig. 4).
//!
//! The **k-core** of `H` is the maximal sub-hypergraph that is *reduced*
//! (no hyperedge contained in another) and in which every vertex belongs to
//! at least `k` hyperedges. When a vertex is deleted, any hyperedge it
//! belonged to is deleted as soon as it stops being maximal — including
//! the special case of becoming empty.
//!
//! The paper's algorithm lives in [`mod@crate::decompose`]: peel vertices of
//! degree < k; detect non-maximal hyperedges *without comparing vertex
//! sets* by maintaining current degrees and pairwise overlaps
//! ([`crate::CsrOverlap`]): `f ⊆ g` exactly when
//! `overlap(f, g) == degree(f)`. Only hyperedges whose degree was just
//! decremented can newly become non-maximal, giving the paper's
//! `O(|E|(Δ₂,F + Δ_V ln Δ₂,F))` bound. [`csr_kcore`](crate::csr_kcore)
//! computes one k-core; the drivers here read every level from one
//! [`decompose`](crate::decompose()) sweep. For one `k` without the
//! overlap table, [`probe_kcore`](crate::probe_kcore()) tests
//! containment by direct subset probes; it is the engine behind
//! hgserve's `kcore?k=`. The oracle is
//! [`naive_kcore`](crate::naive::naive_kcore), and the tests below pin
//! the semantics on `csr_kcore`.
//!
//! Ties between *identical* hyperedges are broken by id: the lowest id
//! survives. This makes the computation deterministic and keeps exactly
//! one copy, as the reduced-hypergraph definition requires.

use hgobs::{Deadline, DeadlineExceeded};

use crate::hypergraph::{EdgeId, Hypergraph, VertexId};

/// A computed k-core.
#[derive(Clone, Debug)]
pub struct KCore {
    /// The threshold `k` this core was computed for.
    pub k: u32,
    /// Original ids of surviving vertices, ascending.
    pub vertices: Vec<VertexId>,
    /// Original ids of surviving hyperedges, ascending.
    pub edges: Vec<EdgeId>,
    /// The core as a standalone hypergraph; its vertex `i` is
    /// `vertices[i]`, its edge `j` is `edges[j]`.
    pub sub: Hypergraph,
}

impl KCore {
    /// `true` when the core is empty (no vertices survive).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// Compute the maximum core: the largest `k` for which the k-core is
/// non-empty, together with that core.
///
/// Returns `None` when even the 1-core is empty (no vertices, or every
/// hyperedge vanishes). Backed by the incremental
/// [`decompose`](crate::decompose()) sweep: one CSR overlap build and one
/// monotone peel.
pub fn max_core(h: &Hypergraph) -> Option<KCore> {
    match max_core_with(h, &Deadline::none()) {
        Ok(core) => core,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`max_core`] under a cooperative [`Deadline`] (phase
/// `kcore.decompose`).
pub fn max_core_with(
    h: &Hypergraph,
    deadline: &Deadline,
) -> Result<Option<KCore>, DeadlineExceeded> {
    Ok(crate::decompose::decompose_with(h, deadline)?.max_core)
}

/// Sizes of the k-core for every k from 1 to the maximum:
/// `profile[i] = (k, vertices, edges)` with `k = i + 1`. Backed by the
/// incremental [`decompose`](crate::decompose()) sweep.
pub fn core_profile(h: &Hypergraph) -> Vec<(u32, usize, usize)> {
    crate::decompose::decompose(h).profile
}

/// The core number of every vertex: the largest `k` for which the vertex
/// belongs to the k-core (0 for vertices outside even the 1-core, e.g.
/// isolated vertices or vertices whose hyperedges all vanish). Backed by
/// the incremental [`decompose`](crate::decompose()) sweep.
pub fn core_numbers(h: &Hypergraph) -> Vec<u32> {
    crate::decompose::decompose(h).core_numbers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{csr_kcore, csr_kcore_with};
    use crate::naive::edge_contents;
    use crate::HypergraphBuilder;

    /// Fan of k edges all containing a hub set: a planted 3-core.
    /// Vertices 0..=2 each belong to edges e0..=e3 (all four edges =
    /// {0,1,2} ∪ {distinct tail}), tails 3..=6 have degree 1.
    fn fan() -> Hypergraph {
        let mut b = HypergraphBuilder::new(7);
        b.add_edge([0, 1, 2, 3]);
        b.add_edge([0, 1, 2, 4]);
        b.add_edge([0, 1, 2, 5]);
        b.add_edge([0, 1, 2, 6]);
        b.build()
    }

    #[test]
    fn fan_cores() {
        let h = fan();
        // k=1: everything survives (all degrees >= 1, edges maximal).
        let c1 = csr_kcore(&h, 1);
        assert_eq!(c1.vertices.len(), 7);
        assert_eq!(c1.edges.len(), 4);

        // k=2: tails die; edges collapse to four copies of {0,1,2};
        // the lowest-id copy survives, so degrees drop to 1 < 2 and
        // everything unravels.
        let c2 = csr_kcore(&h, 2);
        assert!(c2.is_empty(), "expected empty 2-core, got {c2:?}");

        let mc = max_core(&h).unwrap();
        assert_eq!(mc.k, 1);
    }

    /// A genuine hypergraph 2-core: vertices {0,1,2} pairwise covered by
    /// three distinct overlapping edges that stay maximal after leaves go.
    fn triangle_like() -> Hypergraph {
        let mut b = HypergraphBuilder::new(6);
        b.add_edge([0, 1, 3]); // leaf 3
        b.add_edge([1, 2, 4]); // leaf 4
        b.add_edge([0, 2, 5]); // leaf 5
        b.build()
    }

    #[test]
    fn triangle_like_two_core() {
        let h = triangle_like();
        let c2 = csr_kcore(&h, 2);
        // Leaves have degree 1 and die; edges become {0,1},{1,2},{0,2}:
        // all maximal, all core vertices keep degree 2.
        assert_eq!(c2.vertices, vec![VertexId(0), VertexId(1), VertexId(2)]);
        assert_eq!(c2.edges.len(), 3);
        assert!(c2.sub.vertices().all(|v| c2.sub.vertex_degree(v) >= 2));
        let mc = max_core(&h).unwrap();
        assert_eq!(mc.k, 2);
    }

    #[test]
    fn unravelling_cascade() {
        // Chain {0,1},{1,2},{2,3}: k=2 should unravel completely —
        // endpoints have degree 1; after their removal edges nest and die.
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([1, 2]);
        b.add_edge([2, 3]);
        let h = b.build();
        assert!(csr_kcore(&h, 2).is_empty());
        assert_eq!(max_core(&h).unwrap().k, 1);
    }

    #[test]
    fn input_reduced_before_peeling() {
        // e1 ⊂ e0 must be removed even at k=0/k=1 with no low-degree vertex.
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([0, 1, 2]);
        b.add_edge([0, 1]);
        let h = b.build();
        let c1 = csr_kcore(&h, 1);
        assert_eq!(c1.edges, vec![EdgeId(0)]);
        assert_eq!(c1.vertices.len(), 3);
    }

    #[test]
    fn duplicate_edges_keep_lowest_id() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0, 1]);
        b.add_edge([0, 1]);
        b.add_edge([0, 1]);
        let h = b.build();
        let c1 = csr_kcore(&h, 1);
        assert_eq!(c1.edges, vec![EdgeId(0)]);
    }

    #[test]
    fn empty_edges_always_dropped() {
        let mut b = HypergraphBuilder::new(1);
        b.add_edge([]);
        b.add_edge([0]);
        let h = b.build();
        let c1 = csr_kcore(&h, 1);
        assert_eq!(c1.edges, vec![EdgeId(1)]);
    }

    #[test]
    fn core_profile_shrinks() {
        let h = triangle_like();
        let profile = core_profile(&h);
        assert_eq!(profile.len(), 2);
        assert_eq!(profile[0].0, 1);
        assert_eq!(profile[1], (2, 3, 3));
        assert!(profile[0].1 >= profile[1].1);
    }

    #[test]
    fn core_numbers_consistent_with_cores() {
        let h = triangle_like();
        let nums = core_numbers(&h);
        // Core vertices 0..=2 have core number 2; leaves 3..=5 have 1.
        assert_eq!(nums, vec![2, 2, 2, 1, 1, 1]);
        for k in 1..=2u32 {
            let kc = csr_kcore(&h, k);
            let by_number: Vec<VertexId> = (0..h.num_vertices() as u32)
                .filter(|&v| nums[v as usize] >= k)
                .map(VertexId)
                .collect();
            assert_eq!(kc.vertices, by_number, "k = {k}");
        }
    }

    #[test]
    fn core_numbers_zero_for_isolated() {
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([0, 1]);
        let h = b.build();
        assert_eq!(core_numbers(&h), vec![1, 1, 0]);
    }

    #[test]
    fn max_core_matches_linear_scan() {
        let cases: Vec<Hypergraph> = vec![fan(), triangle_like(), {
            let mut b = HypergraphBuilder::new(8);
            for s in 0..8u32 {
                b.add_edge([s, (s + 1) % 8, (s + 2) % 8]);
            }
            b.build()
        }];
        for h in &cases {
            let a = max_core(h).unwrap();
            let oracle = crate::naive::naive_cores(h);
            let (k, vs, es) = oracle.max_core().unwrap();
            assert_eq!((a.k, &a.vertices[..]), (k, vs));
            assert_eq!(
                edge_contents(h, &a.edges, &a.vertices),
                edge_contents(h, es, vs)
            );
        }
    }

    #[test]
    fn max_core_of_empty_is_none() {
        let h = HypergraphBuilder::new(0).build();
        assert!(max_core(&h).is_none());
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([]);
        let h = b.build();
        assert!(max_core(&h).is_none());
    }

    #[test]
    fn planted_deep_core() {
        // 6 "core" vertices each in 6 of 9 core edges (all size-4 subsets
        // arranged round-robin), plus pendant vertices. The max core must
        // contain exactly the 6 planted vertices with k >= 3.
        let mut b = HypergraphBuilder::new(16);
        // Core edges: consecutive quadruples mod 6, three rotations.
        let mut eid = 0;
        for r in 0..3u32 {
            for s in 0..6u32 {
                let vs: Vec<u32> = (0..4u32).map(|i| (s + i * (r + 1)) % 6).collect();
                b.add_edge(vs);
                eid += 1;
            }
        }
        assert_eq!(eid, 18);
        // Pendants.
        for p in 6..16u32 {
            b.add_edge([p, p.saturating_sub(1).max(6)]);
        }
        let h = b.build();
        let mc = max_core(&h).unwrap();
        assert!(mc.k >= 3, "k = {}", mc.k);
        assert!(mc.vertices.iter().all(|v| v.0 < 6));
        // Core invariant: every vertex has degree >= k in the core.
        assert!(mc
            .sub
            .vertices()
            .all(|v| mc.sub.vertex_degree(v) >= mc.k as usize));
    }

    #[test]
    fn unlimited_deadline_matches_plain_kcore() {
        let h = triangle_like();
        let none = Deadline::none();
        for k in 0..=3 {
            let a = csr_kcore(&h, k);
            let b = csr_kcore_with(&h, k, &none).unwrap();
            assert_eq!(a.vertices, b.vertices);
            assert_eq!(a.edges, b.edges);
        }
        let a = max_core(&h).unwrap();
        let b = max_core_with(&h, &none).unwrap().unwrap();
        assert_eq!((a.k, a.vertices), (b.k, b.vertices));
    }

    #[test]
    fn pre_expired_deadline_stops_peel_with_zero_work() {
        // Disjoint pair edges {2i, 2i+1}: no overlaps, so the first check
        // to fire is the reduce sweep's, with nothing deleted yet.
        let mut b = HypergraphBuilder::new(64);
        for i in 0..32u32 {
            b.add_edge([2 * i, 2 * i + 1]);
        }
        let h = b.build();
        let dl = Deadline::after(std::time::Duration::ZERO);
        let err = csr_kcore_with(&h, 2, &dl).unwrap_err();
        assert_eq!(err.phase, "kcore.csr.reduce");
        assert_eq!(err.work_done, 0, "{err:?}");
        assert!(max_core_with(&h, &dl).is_err());
    }

    #[test]
    fn deadline_fires_mid_peel_with_partial_vertex_count() {
        // 120k vertices in 60k disjoint pair edges, k=2: the overlap
        // build is trivial (no pairs) and the reduce sweep cheap, so
        // nearly all the time goes to peeling 120k queued vertices.
        // Escalate the budget until one lands mid-peel; a machine that
        // finishes the whole peel inside 1ms just ends at Ok, with the
        // expiry path still covered by the pre-expired test above.
        let n = 60_000u32;
        let mut b = HypergraphBuilder::new(2 * n as usize);
        for i in 0..n {
            b.add_edge([2 * i, 2 * i + 1]);
        }
        let h = b.build();
        for ms in [1u64, 2, 4, 8, 16, 32, 64] {
            match csr_kcore_with(&h, 2, &Deadline::after_ms(ms)) {
                Err(err) if err.phase == "kcore.csr.peel" && err.work_done > 0 => {
                    assert!(err.work_done < 2 * n as u64, "{err:?}");
                    return;
                }
                // Expired before any vertex was peeled (the peel loop
                // checks the deadline before its first deletion, so a
                // peel-phase error can carry zero work): escalate.
                Err(_) => continue,
                Ok(core) => {
                    assert!(core.is_empty());
                    return;
                }
            }
        }
    }

    #[test]
    fn core_is_reduced_and_degrees_hold() {
        let h = triangle_like();
        for k in 0..=3 {
            let core = csr_kcore(&h, k);
            crate::validate::check_structure(&core.sub).unwrap();
            // Degrees >= k.
            assert!(core
                .sub
                .vertices()
                .all(|v| core.sub.vertex_degree(v) >= k as usize
                    || core.sub.vertex_degree(v) == 0 && k == 0));
            // Reduced: no containment among surviving edges.
            assert!(crate::reduce::non_maximal_edges(&core.sub).is_empty());
        }
    }
}

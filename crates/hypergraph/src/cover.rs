//! Greedy minimum-weight vertex covers and multicovers of a hypergraph
//! (paper §4, Fig. 5, and the multicover of §4.1).
//!
//! Given non-negative vertex weights, find a subset `C ⊆ V` touching every
//! hyperedge, of (approximately) minimum total weight. The greedy rule is
//! Johnson–Chvátal–Lovász: repeatedly pick the vertex minimizing current
//! cost `α(v) = w(v) / |adj(v) ∩ F_i|` — its weight spread over the
//! hyperedges it would newly cover — and delete the covered hyperedges.
//! This is an `H_m = O(log m)` approximation, where `H_m` is the m-th
//! harmonic number. A multicover asks hyperedge `f` for `r_f` distinct
//! vertices and deletes it once they are chosen, with the same ratio, so
//! one loop runs both: a vertex cover needs one pick per hyperedge.
//!
//! The paper uses this to select **bait proteins**: with unit weights it
//! finds ~109 baits for the Cellzome hypergraph; weighting each protein by
//! the *square of its degree* pushes the cover toward low-degree proteins
//! (better baits, because a promiscuous protein does not unambiguously
//! pull down one complex), giving ~233 baits of average degree ~1.14.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hgobs::{Deadline, DeadlineExceeded};

use crate::hypergraph::{Csr, EdgeId, Hypergraph, VertexId};

/// Why a cover could not be computed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoverError {
    /// Some hyperedge has no vertices, so no vertex set can cover it.
    EmptyEdge(EdgeId),
    /// A vertex weight was negative, NaN, or infinite.
    BadWeight(VertexId),
    /// A multicover requirement exceeds the hyperedge's size
    /// (only produced by [`greedy_multicover`]).
    InfeasibleRequirement(EdgeId),
    /// The deadline of [`greedy_vertex_cover_with`] expired.
    Deadline(DeadlineExceeded),
}

impl std::fmt::Display for CoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoverError::EmptyEdge(e) => write!(f, "hyperedge {e:?} is empty and cannot be covered"),
            CoverError::BadWeight(v) => {
                write!(f, "vertex {v:?} has a negative or non-finite weight")
            }
            CoverError::InfeasibleRequirement(e) => write!(
                f,
                "hyperedge {e:?} requires more cover vertices than it contains"
            ),
            CoverError::Deadline(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CoverError {}

/// A computed vertex cover.
#[derive(Clone, Debug)]
pub struct CoverResult {
    /// Chosen vertices, in selection order.
    pub vertices: Vec<VertexId>,
    /// Sum of the weights of the chosen vertices.
    pub total_weight: f64,
}

impl CoverResult {
    /// Mean degree (in the original hypergraph) of the cover's vertices —
    /// the paper's figure of merit for bait quality.
    pub fn average_degree(&self, h: &Hypergraph) -> f64 {
        if self.vertices.is_empty() {
            return 0.0;
        }
        let degree = |v: &VertexId| h.csr().vertex_degree(v.index()) as usize;
        let sum: usize = self.vertices.iter().map(degree).sum();
        sum as f64 / self.vertices.len() as f64
    }
}

/// A heap cost held as its bits. Costs are finite, non-negative and
/// never -0.0, and such floats order as their bits do.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FiniteF64(u64);

/// Greedy `H_m`-approximate minimum-weight vertex cover (Fig. 5).
///
/// `weight(v)` must be finite and non-negative for every vertex. Runs in
/// `O(Σ_v d₂(v) + |E| log |V|)`, refreshing a vertex's heap entry lazily.
/// Ties (equal cost) go to the lowest vertex id: the result is
/// deterministic.
pub fn greedy_vertex_cover(
    h: &Hypergraph,
    weight: impl Fn(VertexId) -> f64,
) -> Result<CoverResult, CoverError> {
    greedy_vertex_cover_with(h, weight, &Deadline::none())
}

/// [`greedy_vertex_cover`] under a cooperative [`Deadline`], checked up
/// front and ticked once per vertex while the weights and the heap fill,
/// then once per heap pop. Expiry is [`CoverError::Deadline`], phase
/// `cover.greedy`, counting the picks made.
pub fn greedy_vertex_cover_with(
    h: &Hypergraph,
    weight: impl Fn(VertexId) -> f64,
    deadline: &Deadline,
) -> Result<CoverResult, CoverError> {
    let _phase = hgobs::phase("cover.greedy");
    let weights = checked_weights(h, weight, deadline, "cover.greedy")?;
    let csr = h.csr();
    no_empty_edge(csr)?;
    let need = vec![1; csr.num_edges()];
    greedy(csr, &weights, need, deadline, "cover.greedy")
}

/// Greedy multicover: cover hyperedge `f` with at least `requirement(f)`
/// distinct vertices (0: no constraint), by the rule of
/// [`greedy_vertex_cover`]. [`CoverError::InfeasibleRequirement`] when a
/// requirement exceeds its hyperedge's size.
pub fn greedy_multicover(
    h: &Hypergraph,
    weight: impl Fn(VertexId) -> f64,
    requirement: impl Fn(EdgeId) -> u32,
) -> Result<CoverResult, CoverError> {
    let _phase = hgobs::phase("cover.multicover");
    let weights = checked_weights(h, weight, &Deadline::none(), "cover.multicover")?;
    let csr = h.csr();
    let need: Vec<u32> = h.edges().map(requirement).collect();
    let infeasible = |f: &EdgeId| need[f.index()] > csr.edge_degree(f.index());
    match h.edges().find(infeasible) {
        Some(f) => Err(CoverError::InfeasibleRequirement(f)),
        None => greedy(csr, &weights, need, &Deadline::none(), "cover.multicover"),
    }
}

/// Every vertex's weight, checked finite and non-negative (a -0.0 is
/// kept as 0.0), after an up-front check of `deadline` and with one tick
/// per vertex.
pub(crate) fn checked_weights(
    h: &Hypergraph,
    weight: impl Fn(VertexId) -> f64,
    deadline: &Deadline,
    phase: &'static str,
) -> Result<Vec<f64>, CoverError> {
    deadline.check(phase, 0).map_err(CoverError::Deadline)?;
    let (mut weights, mut ticks) = (Vec::with_capacity(h.num_vertices()), 0u32);
    for v in h.vertices() {
        if deadline.tick(&mut ticks) {
            return Err(CoverError::Deadline(deadline.exceeded(phase, 0)));
        }
        match weight(v) {
            w if w.is_finite() && w >= 0.0 => weights.push(w.abs()),
            _ => return Err(CoverError::BadWeight(v)),
        }
    }
    Ok(weights)
}

/// [`CoverError::EmptyEdge`] for the first empty hyperedge.
pub(crate) fn no_empty_edge(csr: Csr<'_>) -> Result<(), CoverError> {
    match csr.edge_degrees().position(|d| d == 0) {
        Some(f) => Err(CoverError::EmptyEdge(EdgeId(f as u32))),
        None => Ok(()),
    }
}

/// The greedy rule over `need`, the picks each hyperedge still needs.
/// A vertex's useful count is the number of its hyperedges that still
/// need one: its degree, less those that need nothing. A lazy min-heap
/// holds `(cost, id, useful count at push)`; costs only rise, so a stale
/// entry is re-pushed at its new cost, and the first fresh one popped is
/// the least `(cost, id)` of all. A pick lowers the need of each of its
/// hyperedges, and one that needs no more lowers each pin's count; a
/// chosen vertex is skipped by its flag, so its count may keep falling.
/// `deadline` ticks per vertex of the heap fill, then per pop.
fn greedy(
    csr: Csr<'_>,
    weights: &[f64],
    mut need: Vec<u32>,
    deadline: &Deadline,
    phase: &'static str,
) -> Result<CoverResult, CoverError> {
    let mut useful: Vec<u32> = csr.vertex_degrees().collect();
    for f in (0..need.len()).filter(|&f| need[f] == 0) {
        for &w in csr.pins(f) {
            useful[w.index()] -= 1;
        }
    }
    let edges_covered = need.iter().filter(|&&r| r > 0).count();
    let expired = |picks: usize| CoverError::Deadline(deadline.exceeded(phase, picks as u64));
    let cost = |v: u32, u: u32| FiniteF64((weights[v as usize] / u as f64).to_bits());
    let entry = |v: u32, u: u32| Reverse((cost(v, u), v, u));
    let (mut heap, mut ticks) = (Vec::with_capacity(useful.len()), 0u32);
    for (v, &u) in (0u32..).zip(&useful) {
        if deadline.tick(&mut ticks) {
            return Err(expired(0));
        }
        if u > 0 {
            heap.push(entry(v, u));
        }
    }
    let mut heap = BinaryHeap::from(heap);
    let mut in_cover = vec![false; useful.len()];
    let (mut vertices, mut total_weight) = (Vec::new(), 0.0);
    let (mut remaining, mut heap_refreshes) = (edges_covered, 0u64);
    while remaining > 0 {
        if deadline.tick(&mut ticks) {
            return Err(expired(vertices.len()));
        }
        let Reverse((_, vid, count_at_push)) =
            heap.pop().expect("an unmet need keeps a pin on the heap");
        let v = vid as usize;
        if in_cover[v] || useful[v] == 0 {
            continue;
        }
        if useful[v] != count_at_push {
            heap_refreshes += 1;
            heap.push(entry(vid, useful[v]));
            continue;
        }
        in_cover[v] = true;
        vertices.push(VertexId(vid));
        total_weight += weights[v];
        for f in csr.edges_of(v).iter().map(|f| f.index()) {
            if need[f] == 1 {
                remaining -= 1;
                for &w in csr.pins(f) {
                    useful[w.index()] -= 1;
                }
            }
            need[f] = need[f].saturating_sub(1);
        }
    }

    hgobs::counter!("cover.picks", vertices.len());
    hgobs::counter!("cover.heap_refreshes", heap_refreshes);
    hgobs::counter!("cover.edges_covered", edges_covered);
    Ok(CoverResult {
        vertices,
        total_weight,
    })
}

/// `true` iff `cover` touches every hyperedge of `h`.
pub fn is_vertex_cover(h: &Hypergraph, cover: &[VertexId]) -> bool {
    is_multicover(h, cover, |_| 1)
}

/// `true` iff `cover` contains at least `requirement(f)` distinct member
/// vertices of every hyperedge `f`.
pub fn is_multicover(
    h: &Hypergraph,
    cover: &[VertexId],
    requirement: impl Fn(EdgeId) -> u32,
) -> bool {
    let mut chosen = vec![false; h.num_vertices()];
    cover.iter().for_each(|v| chosen[v.index()] = true);
    h.edges().all(|f| {
        let have = h.pins(f).iter().filter(|v| chosen[v.index()]).count();
        have as u32 >= requirement(f)
    })
}

/// The m-th harmonic number `H_m = 1 + 1/2 + … + 1/m`, the greedy
/// algorithm's approximation ratio on `m` hyperedges.
pub fn harmonic(m: usize) -> f64 {
    (1..=m).map(|i| 1.0 / i as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::uniform_random_hypergraph;
    use crate::HypergraphBuilder;

    fn star() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([0, 2]);
        b.add_edge([0, 3]);
        b.build()
    }

    fn triangle_edges() -> Hypergraph {
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([0, 1]);
        b.add_edge([1, 2]);
        b.add_edge([0, 2]);
        b.build()
    }

    #[test]
    fn unit_weights_pick_the_hub() {
        let h = star();
        let c = greedy_vertex_cover(&h, |_| 1.0).unwrap();
        assert_eq!(c.vertices, vec![VertexId(0)]);
        assert_eq!(c.total_weight, 1.0);
        assert!(is_vertex_cover(&h, &c.vertices));
    }

    #[test]
    fn degree_squared_weights_avoid_the_hub() {
        // The paper's trick: w(v) = d(v)² discourages promiscuous baits.
        let h = star();
        let c = greedy_vertex_cover(&h, |v| {
            let d = h.vertex_degree(v) as f64;
            d * d
        })
        .unwrap();
        // hub cost = 9/3 = 3; leaf cost = 1/1. Leaves win.
        assert_eq!(c.vertices.len(), 3);
        assert!(!c.vertices.contains(&VertexId(0)));
        assert!(is_vertex_cover(&h, &c.vertices));
        assert!((c.average_degree(&h) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_edge_rejected() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0]);
        b.add_edge([]);
        let h = b.build();
        assert_eq!(
            greedy_vertex_cover(&h, |_| 1.0),
            Err(CoverError::EmptyEdge(EdgeId(1)))
        );
    }

    // CoverError derives PartialEq; CoverResult doesn't, so compare fields.
    impl PartialEq for CoverResult {
        fn eq(&self, other: &Self) -> bool {
            self.vertices == other.vertices && self.total_weight == other.total_weight
        }
    }

    #[test]
    fn bad_weights_rejected() {
        let h = star();
        for w in [-1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                greedy_vertex_cover(&h, |_| w),
                Err(CoverError::BadWeight(VertexId(0)))
            );
            assert_eq!(
                greedy_multicover(&h, |_| w, |_| 1),
                Err(CoverError::BadWeight(VertexId(0)))
            );
        }
    }

    #[test]
    fn no_edges_gives_empty_cover() {
        let h = HypergraphBuilder::new(3).build();
        let c = greedy_vertex_cover(&h, |_| 1.0).unwrap();
        assert!(c.vertices.is_empty());
        assert_eq!(c.total_weight, 0.0);
        assert!(is_vertex_cover(&h, &c.vertices));
    }

    #[test]
    fn deterministic_tiebreak_lowest_id() {
        // Two disjoint pairs: within each, both vertices cost the same;
        // the lower id must be chosen.
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([2, 3]);
        let h = b.build();
        let c = greedy_vertex_cover(&h, |_| 1.0).unwrap();
        assert_eq!(c.vertices, vec![VertexId(0), VertexId(2)]);
    }

    #[test]
    fn within_harmonic_bound_of_optimum() {
        // Random-ish small instance; exhaustive optimum as the baseline.
        let mut b = HypergraphBuilder::new(8);
        b.add_edge([0, 1, 2]);
        b.add_edge([2, 3]);
        b.add_edge([3, 4, 5]);
        b.add_edge([5, 6]);
        b.add_edge([6, 7, 0]);
        b.add_edge([1, 4, 7]);
        let h = b.build();
        let weight = |v: VertexId| 1.0 + (v.0 % 3) as f64;
        let greedy = greedy_vertex_cover(&h, weight).unwrap();
        assert!(is_vertex_cover(&h, &greedy.vertices));
        let opt = crate::naive::exhaustive_min_cover(&h, weight).unwrap();
        let opt_w: f64 = opt.iter().map(|&v| weight(v)).sum();
        let bound = harmonic(h.num_edges());
        assert!(
            greedy.total_weight <= opt_w * bound + 1e-9,
            "greedy {} vs opt {} (H_m = {})",
            greedy.total_weight,
            opt_w,
            bound
        );
    }

    #[test]
    fn zero_weight_vertices_are_free() {
        let h = star();
        // Leaf 1 free: should be picked before anything else, but the hub
        // still covers the rest more cheaply than the other leaves.
        let c = greedy_vertex_cover(&h, |v| if v.0 == 1 { 0.0 } else { 1.0 }).unwrap();
        assert!(c.vertices.contains(&VertexId(1)));
        assert!(is_vertex_cover(&h, &c.vertices));
        assert_eq!(c.total_weight, 1.0); // hub covers the remaining two
    }

    #[test]
    fn harmonic_values() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(3) - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn covers_duplicated_edges_once_each() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0, 1]);
        b.add_edge([0, 1]);
        let h = b.build();
        let c = greedy_vertex_cover(&h, |_| 1.0).unwrap();
        assert_eq!(c.vertices, vec![VertexId(0)]);
    }

    #[test]
    fn requirement_one_matches_plain_cover_semantics() {
        let h = triangle_edges();
        let mc = greedy_multicover(&h, |_| 1.0, |_| 1).unwrap();
        assert!(is_multicover(&h, &mc.vertices, |_| 1));
        assert!(is_vertex_cover(&h, &mc.vertices));
        assert_eq!(mc, greedy_vertex_cover(&h, |_| 1.0).unwrap());
        assert_eq!(mc.vertices.len(), 2);
    }

    #[test]
    fn requirement_two_takes_all_endpoints() {
        let h = triangle_edges();
        let mc = greedy_multicover(&h, |_| 1.0, |_| 2).unwrap();
        assert!(is_multicover(&h, &mc.vertices, |_| 2));
        assert_eq!(mc.vertices.len(), 3); // every vertex needed
    }

    #[test]
    fn infeasible_requirement_detected() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0]);
        b.add_edge([0, 1]);
        let h = b.build();
        assert_eq!(
            greedy_multicover(&h, |_| 1.0, |_| 2),
            Err(CoverError::InfeasibleRequirement(EdgeId(0)))
        );
        // Excluding the singleton (requirement 0) makes it feasible —
        // exactly the paper's treatment of the three singleton complexes.
        let mc = greedy_multicover(&h, |_| 1.0, |f| if f.0 == 0 { 0 } else { 2 }).unwrap();
        assert_eq!(mc.vertices.len(), 2);
    }

    #[test]
    fn zero_requirements_mean_no_work() {
        let h = triangle_edges();
        let mc = greedy_multicover(&h, |_| 1.0, |_| 0).unwrap();
        assert!(mc.vertices.is_empty());
        assert!(is_multicover(&h, &mc.vertices, |_| 0));
    }

    #[test]
    fn mixed_requirements() {
        // Edge e0 needs 2, others need 1.
        let h = triangle_edges();
        let req = |f: EdgeId| if f.0 == 0 { 2 } else { 1 };
        let mc = greedy_multicover(&h, |_| 1.0, req).unwrap();
        assert!(is_multicover(&h, &mc.vertices, req));
        assert!(mc.vertices.contains(&VertexId(0)));
        assert!(mc.vertices.contains(&VertexId(1)));
    }

    #[test]
    fn weights_steer_selection() {
        // Make vertex 1 prohibitively expensive: cover {0,2} suffices for
        // requirement 1 everywhere.
        let h = triangle_edges();
        let mc = greedy_multicover(&h, |v| if v.0 == 1 { 100.0 } else { 1.0 }, |_| 1).unwrap();
        assert!(is_multicover(&h, &mc.vertices, |_| 1));
        assert!(!mc.vertices.contains(&VertexId(1)));
    }

    #[test]
    fn empty_edge_with_zero_requirement_ok() {
        let mut b = HypergraphBuilder::new(1);
        b.add_edge([]);
        b.add_edge([0]);
        let h = b.build();
        // requirement 0 for the empty edge: feasible.
        let mc = greedy_multicover(&h, |_| 1.0, |f| if f.0 == 0 { 0 } else { 1 }).unwrap();
        assert_eq!(mc.vertices, vec![VertexId(0)]);
        // requirement 1 for the empty edge: infeasible.
        assert_eq!(
            greedy_multicover(&h, |_| 1.0, |_| 1),
            Err(CoverError::InfeasibleRequirement(EdgeId(0)))
        );
    }

    #[test]
    fn multicover_average_degree_reported() {
        let h = triangle_edges();
        let mc = greedy_multicover(&h, |_| 1.0, |_| 2).unwrap();
        assert!((mc.average_degree(&h) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cancelled_deadline_answers_before_the_first_pick() {
        let h = star();
        let dl = Deadline::cancellable();
        assert_eq!(
            greedy_vertex_cover_with(&h, |_| 1.0, &dl),
            greedy_vertex_cover(&h, |_| 1.0)
        );
        dl.cancel();
        let Err(CoverError::Deadline(err)) = greedy_vertex_cover_with(&h, |_| 1.0, &dl) else {
            panic!("a cancelled deadline must stop the cover");
        };
        assert_eq!((err.phase, err.work_done), ("cover.greedy", 0));
    }

    #[test]
    fn cancelled_deadline_stops_the_loop_within_a_check_interval() {
        // Every pair of 72 vertices: 2,556 hyperedges. After each pick
        // every other vertex's entry is stale, so pick j (from 0) is pop
        // 1 + 72j - j(j-1)/2, and the 71 picks take 2,627 pops. The heap
        // fill ticks 72 times on the loop's counter, so the tick that
        // reads the cancelled flag comes before pop CHECK_INTERVAL - 72.
        let n = 72u32;
        let mut b = HypergraphBuilder::new(n as usize);
        for (u, v) in (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))) {
            b.add_edge([u, v]);
        }
        let h = b.build();
        assert_eq!(h.num_edges(), 2_556);
        let (weights, need) = (vec![1.0; n as usize], vec![1; h.num_edges()]);
        let dl = Deadline::cancellable();
        let run = |dl| greedy(h.csr(), &weights, need.clone(), dl, "cover.greedy");
        assert_eq!(run(&dl).unwrap().vertices.len(), n as usize - 1);
        dl.cancel();
        let Err(CoverError::Deadline(err)) = run(&dl) else {
            panic!("a cancelled deadline must stop the loop");
        };
        let read_at = hgobs::CHECK_INTERVAL - n;
        let picks = (0..n).filter(|j| 1 + n * j - (j * j - j) / 2 < read_at);
        assert_eq!(err.phase, "cover.greedy");
        assert_eq!(err.work_done, picks.count() as u64);
        assert!(err.work_done > 0 && err.work_done < n as u64 - 1);
    }

    /// An order-sensitive digest of a cover's ids (FNV-1a over their
    /// little-endian bytes).
    fn digest(vertices: &[VertexId]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in vertices.iter().flat_map(|v| v.0.to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn covers_pin_their_size_ids_and_weight() {
        let cellzome =
            crate::io::read_hgr(include_str!("../../../data/cellzome-2004.hgr")).unwrap();
        let u6000 = uniform_random_hypergraph(6_000, 4_500, 5, 41);
        // (input, degree² weights, size, id digest, total weight bits)
        let cases = [
            (
                &u6000,
                false,
                1_150,
                0x08e8_fc99_f64b_f531,
                0x4091_f800_0000_0000,
            ),
            (
                &u6000,
                true,
                2_498,
                0xeb8b_edf9_4f2c_05fb,
                0x40d2_fac0_0000_0000,
            ),
            (
                &cellzome,
                false,
                81,
                0x876e_e6d9_4cec_d7f1,
                0x4054_4000_0000_0000,
            ),
            (
                &cellzome,
                true,
                160,
                0x63a6_23b0_d782_ae0f,
                0x4085_f800_0000_0000,
            ),
        ];
        for (h, deg2, size, ids, weight) in cases {
            let w = |v: VertexId| {
                let d = h.vertex_degree(v) as f64;
                if deg2 {
                    d * d
                } else {
                    1.0
                }
            };
            let c = greedy_vertex_cover(h, w).unwrap();
            let got = (
                c.vertices.len(),
                digest(&c.vertices),
                c.total_weight.to_bits(),
            );
            assert_eq!(
                got,
                (size, ids, weight),
                "{} vertices, deg2 {deg2}",
                h.num_vertices()
            );
            assert_eq!(c, greedy_multicover(h, w, |_| 1).unwrap());
        }
        // The paper's 2-multicover, each requirement capped at the
        // complex's size.
        let mc = greedy_multicover(
            &cellzome,
            |_| 1.0,
            |f| 2.min(cellzome.edge_degree(f) as u32),
        );
        assert_eq!(mc.unwrap().vertices.len(), 138);
    }
}

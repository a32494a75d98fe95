//! The level-synchronous subset-probe k-core: hgserve's `kcore?k=`
//! engine.
//!
//! Rounds alternate two phases until a fixpoint:
//!
//! 1. **Edge phase** — every hyperedge whose degree changed is re-checked
//!    for maximality against the state the phase starts from, by a
//!    direct sorted-subset test over alive pins (no overlap table). The
//!    non-maximal ones are then deleted and their members' degrees
//!    decremented, feeding the vertex phase.
//! 2. **Vertex phase** — every alive vertex with degree < k is collected
//!    against the same kind of snapshot, then all of them are removed
//!    and the degrees of their alive hyperedges decremented. Those
//!    hyperedges are the next round's affected set.
//!
//! Deleting a hyperedge cannot make another hyperedge non-maximal, and
//! deleting a vertex shrinks containment *candidates* monotonically, so
//! checking only degree-decremented hyperedges each round is exhaustive —
//! the same argument the paper makes for its Fig. 4 algorithm.
//!
//! The result equals [`csr_kcore`](crate::csr_kcore) in surviving
//! vertices and surviving hyperedge contents (hyperedge *ids* can differ
//! only between copies that end up identical, where both algorithms keep
//! exactly one). It is an independent algorithm — snapshot subset probes
//! against CSR overlap counting — so each engine checks the other on
//! inputs too large for the [`naive_kcore`](crate::naive::naive_kcore)
//! oracle.
//!
//! The probes skip the `O(Σ_v d(v)²)` overlap build, which makes this
//! engine about twice as fast as `csr_kcore` for one `k` on the datasets
//! measured in EXPERIMENTS A4, so hgserve answers `kcore?k=` with it at
//! every dataset size. Each phase reads only the snapshot it starts from,
//! so its items are independent; it runs on one thread.

use hgobs::{Deadline, DeadlineExceeded};

use crate::hypergraph::{EdgeId, Hypergraph, VertexId};
use crate::kcore::KCore;

struct State<'h> {
    h: &'h Hypergraph,
    alive_v: Vec<bool>,
    alive_e: Vec<bool>,
    deg_v: Vec<u32>,
    deg_e: Vec<u32>,
}

impl<'h> State<'h> {
    fn new(h: &'h Hypergraph) -> Self {
        State {
            h,
            alive_v: vec![true; h.num_vertices()],
            alive_e: vec![true; h.num_edges()],
            deg_v: h.vertices().map(|v| h.vertex_degree(v) as u32).collect(),
            deg_e: h.edges().map(|f| h.edge_degree(f) as u32).collect(),
        }
    }

    /// Alive pins of `f`, sorted (pins are stored sorted).
    fn alive_pins(&self, f: usize) -> impl Iterator<Item = u32> + '_ {
        self.h
            .pins(EdgeId(f as u32))
            .iter()
            .map(|v| v.0)
            .filter(move |&v| self.alive_v[v as usize])
    }

    /// `true` iff alive edge `f` is empty or contained in an alive edge
    /// `g` (strictly larger, or identical with smaller id).
    fn is_non_maximal(&self, f: usize) -> bool {
        let df = self.deg_e[f];
        if df == 0 {
            return true;
        }
        // Candidate supersets: alive edges sharing the first alive pin of
        // f (any superset must contain every pin, so the first suffices).
        let Some(first) = self.alive_pins(f).next() else {
            return true;
        };
        self.h
            .edges_of(VertexId(first))
            .iter()
            .map(|g| g.index())
            .filter(|&g| g != f && self.alive_e[g])
            .any(|g| {
                let dg = self.deg_e[g];
                let wins = dg > df || (dg == df && g < f);
                wins && self.is_alive_subset(f, g)
            })
    }

    /// `true` iff alive pins of `f` ⊆ alive pins of `g` (both sorted).
    fn is_alive_subset(&self, f: usize, g: usize) -> bool {
        let mut git = self.alive_pins(g).peekable();
        for x in self.alive_pins(f) {
            loop {
                match git.peek() {
                    None => return false,
                    Some(&y) if y < x => {
                        git.next();
                    }
                    Some(&y) if y == x => {
                        git.next();
                        break;
                    }
                    Some(_) => return false,
                }
            }
        }
        true
    }
}

/// The k-core for one `k` by level-synchronous subset probes. See the
/// module docs for the algorithm and its equivalence to
/// [`csr_kcore`](crate::csr_kcore).
pub fn probe_kcore(h: &Hypergraph, k: u32) -> KCore {
    match probe_kcore_with(h, k, &Deadline::none()) {
        Ok(core) => core,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`probe_kcore`] under a cooperative [`Deadline`], checked at every
/// phase boundary: the round top (phase `kcore.probe.round`), after the
/// edge probes (`kcore.probe.edge_phase`) and after the vertex scan
/// (`kcore.probe.vertex_phase`), each before the phase's deletions
/// apply. Overshoot is therefore bounded by one phase. The error's
/// `work_done` counts vertices peeled by completed rounds.
pub fn probe_kcore_with(
    h: &Hypergraph,
    k: u32,
    deadline: &Deadline,
) -> Result<KCore, DeadlineExceeded> {
    let _span = hgobs::Span::enter("kcore.probe");
    let mut s = State::new(h);
    let mut rounds: u64 = 0;
    let mut peeled: u64 = 0;

    // Initial edge phase: reduce the input (all edges are "affected").
    let mut affected: Vec<u32> = (0..h.num_edges() as u32).collect();
    loop {
        rounds += 1;
        deadline.check("kcore.probe.round", peeled)?;
        // ---- edge phase: delete non-maximal affected edges ----
        let dead_edges: Vec<u32> = affected
            .iter()
            .copied()
            .filter(|&f| s.alive_e[f as usize] && s.is_non_maximal(f as usize))
            .collect();
        deadline.check("kcore.probe.edge_phase", peeled)?;
        for &f in &dead_edges {
            s.alive_e[f as usize] = false;
            for &w in h.pins(EdgeId(f)) {
                if s.alive_v[w.index()] {
                    s.deg_v[w.index()] -= 1;
                }
            }
        }

        // ---- vertex phase: peel everything under the threshold ----
        let frontier: Vec<u32> = (0..h.num_vertices() as u32)
            .filter(|&v| s.alive_v[v as usize] && s.deg_v[v as usize] < k)
            .collect();
        deadline.check("kcore.probe.vertex_phase", peeled)?;
        hgobs::hist!("kcore.probe.frontier", frontier.len());
        if frontier.is_empty() && dead_edges.is_empty() {
            break;
        }
        if frontier.is_empty() {
            // Edge deletion cannot create containment, so with no vertex
            // peeled the next round has nothing to check: it runs with an
            // empty affected set and stops at the test above.
            affected.clear();
            continue;
        }
        for &v in &frontier {
            s.alive_v[v as usize] = false;
            for &f in h.edges_of(VertexId(v)) {
                if s.alive_e[f.index()] {
                    s.deg_e[f.index()] -= 1;
                }
            }
        }
        // Affected edges: alive edges touching any peeled vertex.
        affected = frontier
            .iter()
            .flat_map(|&v| h.edges_of(VertexId(v)))
            .map(|f| f.0)
            .filter(|&f| s.alive_e[f as usize])
            .collect();
        affected.sort_unstable();
        affected.dedup();
        peeled += frontier.len() as u64;
    }

    hgobs::counter!("kcore.probe.rounds", rounds);
    let (sub, vertices, edges) = h.sub_hypergraph(&s.alive_v, &s.alive_e, false);
    Ok(KCore {
        k,
        vertices,
        edges,
        sub,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{edge_contents, naive_kcore};
    use crate::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::seq::index::sample;
    use rand::{Rng, SeedableRng};

    // `hypergen` depends on this crate, so its generators are unusable
    // here; these two replay its RNG calls and build the same instances.

    /// `hypergen::uniform_random_hypergraph(n, m, k, seed)`.
    fn uniform_random_hypergraph(n: usize, m: usize, k: usize, seed: u64) -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = HypergraphBuilder::new(n);
        for _ in 0..m {
            b.add_edge(sample(&mut rng, n, k).into_iter().map(|v| v as u32));
        }
        b.build()
    }

    /// `hypergen::planted_core_hypergraph(core_v, core_e, deg, extra, seed)`:
    /// a round-robin core block plus pair-edge leaves.
    fn planted_core_hypergraph(
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

    /// Same vertices and edge contents as the naive oracle.
    fn assert_equivalent(h: &Hypergraph, k: u32) {
        let (nv, ne) = naive_kcore(h, k);
        let probe = probe_kcore(h, k);
        assert_eq!(nv, probe.vertices, "k = {k}");
        assert_eq!(
            edge_contents(h, &ne, &nv),
            edge_contents(h, &probe.edges, &probe.vertices),
            "k = {k}"
        );
    }

    #[test]
    fn matches_sequential_on_small_cases() {
        let cases: Vec<Hypergraph> = vec![
            {
                let mut b = HypergraphBuilder::new(6);
                b.add_edge([0, 1, 3]);
                b.add_edge([1, 2, 4]);
                b.add_edge([0, 2, 5]);
                b.build()
            },
            {
                let mut b = HypergraphBuilder::new(5);
                b.add_edge([0, 1, 2, 3, 4]);
                b.add_edge([0, 1, 2]);
                b.add_edge([0, 1]);
                b.add_edge([3, 4]);
                b.add_edge([]);
                b.build()
            },
            {
                let mut b = HypergraphBuilder::new(4);
                b.add_edge([0, 1]);
                b.add_edge([0, 1]);
                b.add_edge([1, 2]);
                b.add_edge([2, 3]);
                b.build()
            },
        ];
        for h in &cases {
            for k in 0..5 {
                assert_equivalent(h, k);
            }
        }
    }

    #[test]
    fn matches_sequential_on_planted_core() {
        let h = planted_core_hypergraph(30, 40, 6, 200, 17);
        for k in 1..8 {
            assert_equivalent(&h, k);
        }
        // The max core is the deepest level the probe engine keeps.
        let seq = crate::max_core(&h).unwrap();
        assert_eq!(seq.vertices, probe_kcore(&h, seq.k).vertices);
        assert!(probe_kcore(&h, seq.k + 1).is_empty());
    }

    #[test]
    fn matches_sequential_on_uniform_random() {
        for seed in 0..4u64 {
            let h = uniform_random_hypergraph(60, 120, 4, seed);
            for k in 1..7 {
                assert_equivalent(&h, k);
            }
        }
    }

    #[test]
    fn empty_and_degenerate() {
        let h = HypergraphBuilder::new(0).build();
        assert!(probe_kcore(&h, 1).is_empty());
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([]);
        let h = b.build();
        assert!(probe_kcore(&h, 1).is_empty());
    }

    #[test]
    fn cancelled_deadline_aborts_before_first_phase_applies() {
        let h = uniform_random_hypergraph(200, 300, 4, 21);
        let dl = Deadline::cancellable();
        dl.cancel();
        let err = probe_kcore_with(&h, 2, &dl).unwrap_err();
        assert_eq!(err.phase, "kcore.probe.round");
        assert_eq!(err.work_done, 0, "{err:?}");
    }

    #[test]
    fn unlimited_deadline_matches_plain_par_kcore() {
        let h = uniform_random_hypergraph(60, 120, 4, 2);
        for k in 1..5 {
            let a = probe_kcore(&h, k);
            let b = probe_kcore_with(&h, k, &Deadline::none()).unwrap();
            assert_eq!(a.vertices, b.vertices, "k = {k}");
            assert_eq!(a.edges, b.edges, "k = {k}");
        }
    }

    #[test]
    fn core_invariants_hold() {
        let h = uniform_random_hypergraph(40, 80, 5, 9);
        for k in 1..6 {
            let core = probe_kcore(&h, k);
            crate::validate::check_structure(&core.sub).unwrap();
            assert!(crate::non_maximal_edges(&core.sub).is_empty());
            assert!(core
                .sub
                .vertices()
                .all(|v| core.sub.vertex_degree(v) >= k as usize));
        }
    }
}

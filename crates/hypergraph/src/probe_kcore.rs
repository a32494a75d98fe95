//! The level-synchronous subset-probe k-core: the engine behind every
//! served k-core query (hgserve's `kcore?k=` and max core, `hg kcore`).
//!
//! Rounds alternate two phases until a fixpoint:
//!
//! 1. **Edge phase** — every hyperedge whose degree changed is re-checked
//!    for maximality against the state the phase starts from, by a
//!    direct sorted-subset test (no overlap table). The non-maximal ones
//!    are then deleted and their members' degrees decremented; those
//!    members are the next vertex phase's candidates.
//! 2. **Vertex phase** — every candidate still alive with degree < k is
//!    collected against the same kind of snapshot, then all of them are
//!    removed and the degrees of their alive hyperedges decremented.
//!    Those hyperedges are the next round's affected set.
//!
//! Round one's edge phase probes every hyperedge (it reduces the input)
//! and its vertex phase tests every vertex. Later vertex phases test only
//! the vertices whose degree fell in the edge phase before: no other
//! vertex's degree changed since it last passed the test. (A new level of
//! the decomposition below raises `k`, so it tests every survivor.)
//!
//! A probe gathers the hyperedge's alive pins and pivots on the one in
//! the fewest alive hyperedges. Any container holds every alive pin, so
//! the hyperedges through that pin are the only candidates, and each is
//! tested by merging the gathered pins against its raw pin list.
//!
//! Deleting a hyperedge cannot make another hyperedge non-maximal, and
//! deleting a vertex shrinks containment *candidates* monotonically, so
//! checking only degree-decremented hyperedges each round is exhaustive —
//! the same argument the paper makes for its Fig. 4 algorithm.
//!
//! k-cores are nested and peeling is confluent, so the state that
//! survives the k-peel is a valid start for k + 1. [`probe_decompose`]
//! peels k = 1, 2, … from one state, recording the level at which each
//! vertex and hyperedge dies; the profile, the core numbers and the max
//! core follow without the `O(Σ_v d(v)²)` overlap table. `max_core`,
//! `core_profile` and `core_numbers` in [`crate::kcore`] call it.
//!
//! The result equals [`csr_kcore`](crate::csr_kcore) in surviving
//! vertices and surviving hyperedge contents (hyperedge *ids* can differ
//! only between copies that end up identical, where both algorithms keep
//! exactly one). It is an independent algorithm — snapshot subset probes
//! against CSR overlap counting — so each engine checks the other on
//! inputs too large for the [`naive_kcore`](crate::naive::naive_kcore)
//! oracle. Each phase reads only the snapshot it starts from, so its
//! items are independent; it runs on one thread.

use hgobs::{Deadline, DeadlineExceeded, TraceCtx};

use crate::decompose::Decomposition;
use crate::hypergraph::{EdgeId, Hypergraph, VertexId};
use crate::kcore::KCore;

struct State<'h> {
    h: &'h Hypergraph,
    /// The threshold being peeled to (0 during the reduce).
    k: u32,
    alive_v: Vec<bool>,
    alive_e: Vec<bool>,
    /// Alive hyperedges through each alive vertex.
    deg_v: Vec<u32>,
    /// Alive pins of each alive hyperedge.
    deg_e: Vec<u32>,
    vertices_alive: usize,
    edges_alive: usize,
    /// `Σ deg_e` over alive hyperedges.
    pins_alive: usize,
    /// Hyperedges the next edge phase probes, each listed once.
    affected: Vec<u32>,
    in_affected: Vec<bool>,
    /// Vertices the next vertex phase tests, each listed once.
    candidates: Vec<u32>,
    in_candidates: Vec<bool>,
    /// A phase's deletions, collected before any applies.
    doomed: Vec<u32>,
    /// The probed hyperedge's alive pins, sorted.
    pin_buf: Vec<u32>,
    /// Death levels, kept only for the decomposition (empty otherwise):
    /// `k - 1` for an item deleted while peeling to the k-core, 0 for
    /// hyperedges the reduce deletes.
    level_v: Vec<u32>,
    level_e: Vec<u32>,
    rounds: u64,
    vertices_peeled: u64,
    edges_deleted: u64,
    subset_tests: u64,
}

impl<'h> State<'h> {
    /// Round one's state: every hyperedge affected, every vertex a
    /// candidate. Both are marked, so a vertex that is below `k` from the
    /// start and also loses a degree in the reduce is queued once.
    fn new(h: &'h Hypergraph) -> Self {
        State {
            h,
            k: 0,
            alive_v: vec![true; h.num_vertices()],
            alive_e: vec![true; h.num_edges()],
            deg_v: h.vertices().map(|v| h.vertex_degree(v) as u32).collect(),
            deg_e: h.edges().map(|f| h.edge_degree(f) as u32).collect(),
            vertices_alive: h.num_vertices(),
            edges_alive: h.num_edges(),
            pins_alive: h.num_pins(),
            affected: (0..h.num_edges() as u32).collect(),
            in_affected: vec![true; h.num_edges()],
            candidates: (0..h.num_vertices() as u32).collect(),
            in_candidates: vec![true; h.num_vertices()],
            doomed: Vec::new(),
            pin_buf: Vec::new(),
            level_v: Vec::new(),
            level_e: Vec::new(),
            rounds: 0,
            vertices_peeled: 0,
            edges_deleted: 0,
            subset_tests: 0,
        }
    }

    /// `true` iff alive hyperedge `f` is empty or contained in an alive
    /// `g` that wins the tie rule (strictly larger, or identical with a
    /// smaller id).
    fn is_non_maximal(&mut self, f: usize) -> bool {
        let df = self.deg_e[f];
        if df == 0 {
            return true;
        }
        let h = self.h;
        self.pin_buf.clear();
        let (mut pivot, mut pivot_deg) = (0, u32::MAX);
        for &v in h.pins(EdgeId(f as u32)) {
            if self.alive_v[v.index()] {
                self.pin_buf.push(v.0);
                if self.deg_v[v.index()] < pivot_deg {
                    (pivot, pivot_deg) = (v.0, self.deg_v[v.index()]);
                }
            }
        }
        debug_assert_eq!(self.pin_buf.len(), df as usize);
        // The pivot's alive hyperedges include `f`: with no other, `f`
        // has no container.
        if pivot_deg < 2 {
            return false;
        }
        for &g in h.edges_of(VertexId(pivot)) {
            let gi = g.index();
            if gi == f || !self.alive_e[gi] {
                continue;
            }
            let dg = self.deg_e[gi];
            if dg > df || (dg == df && gi < f) {
                self.subset_tests += 1;
                // `pin_buf` holds only alive pins, so `g`'s raw pins
                // need no alive filter.
                let mut rest = h.pins(g).iter().map(|v| v.0);
                if self
                    .pin_buf
                    .iter()
                    .all(|&x| rest.by_ref().find(|&y| y >= x) == Some(x))
                {
                    return true;
                }
            }
        }
        false
    }

    fn delete_edge(&mut self, f: usize) {
        self.alive_e[f] = false;
        self.edges_alive -= 1;
        self.pins_alive -= self.deg_e[f] as usize;
        self.edges_deleted += 1;
        if let Some(level) = self.level_e.get_mut(f) {
            *level = self.k.saturating_sub(1);
        }
        for &w in self.h.pins(EdgeId(f as u32)) {
            let w = w.index();
            if self.alive_v[w] {
                self.deg_v[w] -= 1;
                if !self.in_candidates[w] {
                    self.in_candidates[w] = true;
                    self.candidates.push(w as u32);
                }
            }
        }
    }

    fn delete_vertex(&mut self, v: usize) {
        self.alive_v[v] = false;
        self.vertices_alive -= 1;
        self.vertices_peeled += 1;
        if let Some(level) = self.level_v.get_mut(v) {
            *level = self.k - 1;
        }
        for &f in self.h.edges_of(VertexId(v as u32)) {
            let f = f.index();
            if self.alive_e[f] {
                self.deg_e[f] -= 1;
                self.pins_alive -= 1;
                if !self.in_affected[f] {
                    self.in_affected[f] = true;
                    self.affected.push(f as u32);
                }
            }
        }
    }

    /// Probe every affected hyperedge against this snapshot, then delete
    /// the non-maximal ones.
    fn edge_phase(&mut self, deadline: &Deadline) -> Result<(), DeadlineExceeded> {
        let affected = std::mem::take(&mut self.affected);
        let mut doomed = std::mem::take(&mut self.doomed);
        doomed.clear();
        for &f in &affected {
            self.in_affected[f as usize] = false;
            if self.alive_e[f as usize] && self.is_non_maximal(f as usize) {
                doomed.push(f);
            }
        }
        self.affected = affected;
        self.affected.clear();
        deadline.check("kcore.probe.edge_phase", self.vertices_peeled)?;
        for &f in &doomed {
            self.delete_edge(f as usize);
        }
        self.doomed = doomed;
        Ok(())
    }

    /// Collect the candidates below `k`, then delete them. Returns
    /// whether any vertex was peeled.
    fn vertex_phase(&mut self, deadline: &Deadline) -> Result<bool, DeadlineExceeded> {
        let candidates = std::mem::take(&mut self.candidates);
        let mut doomed = std::mem::take(&mut self.doomed);
        doomed.clear();
        for &v in &candidates {
            self.in_candidates[v as usize] = false;
            if self.alive_v[v as usize] && self.deg_v[v as usize] < self.k {
                doomed.push(v);
            }
        }
        self.candidates = candidates;
        self.candidates.clear();
        deadline.check("kcore.probe.vertex_phase", self.vertices_peeled)?;
        hgobs::hist!("kcore.probe.frontier", doomed.len());
        for &v in &doomed {
            self.delete_vertex(v as usize);
        }
        let peeled = !doomed.is_empty();
        self.doomed = doomed;
        Ok(peeled)
    }

    /// Round one's edge phase (trace phase `kcore.probe.reduce`, work =
    /// hyperedges deleted).
    fn reduce(&mut self, deadline: &Deadline, trace: &TraceCtx) -> Result<(), DeadlineExceeded> {
        self.rounds += 1;
        deadline.check("kcore.probe.round", 0)?;
        let mut tp = trace.phase("kcore.probe.reduce");
        let out = self.edge_phase(deadline);
        tp.add_work(self.edges_deleted);
        out
    }

    /// Peel to the k-core (trace phase `kcore.probe.peel`, work =
    /// vertices peeled): a vertex phase over the queued candidates, then
    /// rounds of an edge and a vertex phase until one peels nothing.
    fn peel(
        &mut self,
        k: u32,
        deadline: &Deadline,
        trace: &TraceCtx,
    ) -> Result<(), DeadlineExceeded> {
        let mut tp = trace.phase("kcore.probe.peel");
        let before = self.vertices_peeled;
        self.k = k;
        let mut out = self.vertex_phase(deadline);
        while let Ok(true) = out {
            self.rounds += 1;
            out = deadline
                .check("kcore.probe.round", self.vertices_peeled)
                .and_then(|()| self.edge_phase(deadline))
                .and_then(|()| self.vertex_phase(deadline));
        }
        tp.add_work(self.vertices_peeled - before);
        out.map(drop)
    }

    /// Flush the work counters to the sink (no-op when disabled).
    fn flush_metrics(&self) {
        hgobs::counter!("kcore.probe.rounds", self.rounds);
        hgobs::counter!("kcore.probe.vertices_peeled", self.vertices_peeled);
        hgobs::counter!("kcore.probe.edges_deleted", self.edges_deleted);
        hgobs::counter!("kcore.probe.subset_tests", self.subset_tests);
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
    let trace = deadline.trace();
    let mut s = State::new(h);
    let out = s
        .reduce(deadline, trace)
        .and_then(|()| s.peel(k, deadline, trace));
    s.flush_metrics();
    out?;
    Ok(KCore::from_alive(k, &s.alive_v, &s.alive_e, s.pins_alive))
}

/// The whole k-core decomposition by subset probes: peel k = 1, 2, …
/// from one state until the core is empty. Same outputs as
/// [`decompose`](crate::decompose()), without its overlap table.
pub fn probe_decompose(h: &Hypergraph) -> Decomposition {
    match probe_decompose_with(h, &Deadline::none()) {
        Ok(d) => d,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`probe_decompose`] under a cooperative [`Deadline`], with the phases
/// of [`probe_kcore_with`]; each level starts a round. The error's
/// `work_done` counts vertices peeled across all levels.
pub fn probe_decompose_with(
    h: &Hypergraph,
    deadline: &Deadline,
) -> Result<Decomposition, DeadlineExceeded> {
    let trace = deadline.trace();
    let mut s = State::new(h);
    s.level_v = vec![0; h.num_vertices()];
    s.level_e = vec![0; h.num_edges()];
    let mut profile: Vec<(u32, usize, usize)> = Vec::new();
    let mut max_pins = 0;
    let swept = (|| {
        s.reduce(deadline, trace)?;
        // Survivors, compacted at each level so seeding k + 1 costs
        // O(|k-core|) rather than O(|V|).
        let mut alive: Vec<u32> = (0..h.num_vertices() as u32).collect();
        for k in 1u32.. {
            if k > 1 {
                // A new level: no hyperedge changed, every survivor is a
                // candidate.
                s.rounds += 1;
                deadline.check("kcore.probe.round", s.vertices_peeled)?;
                alive.retain(|&v| s.alive_v[v as usize]);
                s.candidates.extend_from_slice(&alive);
                for &v in &alive {
                    s.in_candidates[v as usize] = true;
                }
            }
            s.peel(k, deadline, trace)?;
            if s.vertices_alive == 0 {
                return Ok(());
            }
            profile.push((k, s.vertices_alive, s.edges_alive));
            max_pins = s.pins_alive;
        }
        Ok(())
    })();
    s.flush_metrics();
    swept?;
    let max_core = profile.last().map(|&(k, _, _)| KCore {
        k,
        vertices: (0..h.num_vertices() as u32)
            .filter(|&v| s.level_v[v as usize] == k)
            .map(VertexId)
            .collect(),
        edges: (0..h.num_edges() as u32)
            .filter(|&f| s.level_e[f as usize] == k)
            .map(EdgeId)
            .collect(),
        pins: max_pins,
    });
    Ok(Decomposition {
        profile,
        core_numbers: s.level_v,
        max_core,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{edge_contents, naive_cores, naive_kcore};
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
        assert_eq!(probe.pins, probe.sub_hypergraph(h).num_pins(), "k = {k}");
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
        let seq = crate::decompose(&h).max_core.unwrap();
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
        assert!(probe_decompose(&h).max_core.is_none());
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([]);
        let h = b.build();
        assert!(probe_kcore(&h, 1).is_empty());
        let d = probe_decompose(&h);
        assert!(d.profile.is_empty() && d.max_core.is_none());
        assert_eq!(d.core_numbers, vec![0; 3]);
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
            let sub = core.sub_hypergraph(&h);
            crate::validate::check_structure(&sub).unwrap();
            assert!(crate::non_maximal_edges(&sub).is_empty());
            assert!(sub.vertices().all(|v| sub.vertex_degree(v) >= k as usize));
            assert_eq!(core.pins, sub.num_pins());
        }
    }

    #[test]
    fn vertex_below_k_in_a_reduced_edge_is_peeled_once() {
        // The faces of a tetrahedron on 0..=3, one of them widened by
        // vertex 4, plus {4}. At k = 3, vertex 4 (degree 2) is below k
        // from the start and loses {4} to the reduce. Queued twice, its
        // peel would take two pins off {0,1,2,4}, which stays in the core.
        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1, 2, 4]);
        b.add_edge([0, 1, 3]);
        b.add_edge([0, 2, 3]);
        b.add_edge([1, 2, 3]);
        b.add_edge([4]);
        let h = b.build();
        let core = probe_kcore(&h, 3);
        assert_eq!(core.vertices, (0..4).map(VertexId).collect::<Vec<_>>());
        assert_eq!(core.edges, (0..4).map(EdgeId).collect::<Vec<_>>());
        assert_eq!(core.pins, 12);
        assert_eq!(core.pins, core.sub_hypergraph(&h).num_pins());
        assert_equivalent(&h, 3);
        let d = probe_decompose(&h);
        assert_eq!(d.core_numbers, vec![3, 3, 3, 3, 1]);
        assert_eq!(d.profile, naive_cores(&h).profile);
    }

    #[test]
    fn decompose_matches_oracle() {
        let mut cases = vec![planted_core_hypergraph(30, 40, 6, 200, 17)];
        cases.extend((0..4).map(|seed| uniform_random_hypergraph(60, 120, 4, seed)));
        for h in &cases {
            let d = probe_decompose(h);
            let oracle = naive_cores(h);
            assert_eq!(d.profile, oracle.profile);
            assert_eq!(d.core_numbers, oracle.core_numbers);
            let mc = d.max_core.unwrap();
            let (k, vs, es) = oracle.max_core().unwrap();
            assert_eq!((mc.k, &mc.vertices[..]), (k, vs));
            assert_eq!(
                edge_contents(h, &mc.edges, &mc.vertices),
                edge_contents(h, es, vs)
            );
            assert_eq!(mc.pins, mc.sub_hypergraph(h).num_pins());
        }
    }

    #[test]
    fn traced_decompose_records_reduce_and_peel_phases() {
        let h = planted_core_hypergraph(30, 40, 6, 200, 17);
        let trace = hgobs::TraceCtx::new(7);
        let d = probe_decompose_with(&h, &Deadline::none().with_trace(trace.clone())).unwrap();
        let events = trace.events();
        let reduce: Vec<_> = events
            .iter()
            .filter(|e| e.phase == "kcore.probe.reduce")
            .collect();
        assert_eq!(reduce.len(), 1, "{events:?}");
        // One peel per level, plus the level that empties the core; every
        // vertex is peeled exactly once across them.
        let peels: Vec<_> = events
            .iter()
            .filter(|e| e.phase == "kcore.probe.peel")
            .collect();
        assert_eq!(peels.len(), d.profile.len() + 1, "{events:?}");
        let peeled: u64 = peels.iter().map(|e| e.work).sum();
        assert_eq!(peeled, h.num_vertices() as u64);
        assert!(reduce[0].end_us <= peels[0].start_us, "{events:?}");
    }

    #[test]
    fn pre_cancelled_decompose_stops_at_the_round_with_zero_work() {
        let h = uniform_random_hypergraph(200, 300, 4, 21);
        let dl = Deadline::cancellable();
        dl.cancel();
        let err = probe_decompose_with(&h, &dl).unwrap_err();
        assert_eq!(err.phase, "kcore.probe.round");
        assert_eq!(err.work_done, 0, "{err:?}");
    }

    #[test]
    fn decompose_cancelled_after_the_first_level_reports_partial_work() {
        // Ten isolated vertices go at level 1; at level 2 the path
        // {i, i+1} unravels from both ends, two vertices per round, for
        // ~10k rounds; the faces of a tetrahedron hold out to level 4.
        // A watcher cancels once level 1's peel is traced.
        let len = 20_000u32;
        let mut b = HypergraphBuilder::new(len as usize + 14);
        for i in 0..len - 1 {
            b.add_edge([i, i + 1]);
        }
        let t = len + 10;
        for skip in 0..4 {
            b.add_edge((t..t + 4).filter(|&v| v != t + skip));
        }
        let h = b.build();
        let n = h.num_vertices() as u64;
        let trace = hgobs::TraceCtx::new(3);
        let dl = Deadline::cancellable().with_trace(trace.clone());
        let watcher = {
            let dl = dl.clone();
            std::thread::spawn(move || {
                while !trace.events().iter().any(|e| e.phase == "kcore.probe.peel") {
                    std::thread::yield_now();
                }
                dl.cancel();
            })
        };
        let out = probe_decompose_with(&h, &dl);
        watcher.join().unwrap();
        match out {
            Err(err) => {
                assert!(err.phase.starts_with("kcore.probe."), "{err:?}");
                assert!(err.work_done >= 10 && err.work_done < n, "{err:?}");
            }
            // A host that finishes the sweep before the watcher runs.
            Ok(d) => assert_eq!(
                d.profile,
                vec![
                    (1, len as usize + 4, len as usize + 3),
                    (2, 4, 4),
                    (3, 4, 4)
                ]
            ),
        }
    }
}

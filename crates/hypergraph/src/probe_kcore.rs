//! The level-synchronous subset-probe k-core: the engine behind every
//! served k-core query (hgserve's `kcore?k=` and max core, `hg kcore`).
//!
//! Each round runs two phases, and rounds repeat until neither phase has
//! work queued:
//!
//! 1. **Vertex phase** — every candidate still alive with degree < k is
//!    collected against a snapshot, then all of them are removed and the
//!    degrees of their alive hyperedges decremented. Those hyperedges
//!    join the affected set.
//! 2. **Edge phase** — every affected hyperedge is re-checked for
//!    maximality against the state the phase starts from, by a direct
//!    sorted-subset test (no overlap table). The non-maximal ones are
//!    then deleted and their members' degrees decremented; those members
//!    are the next round's candidates.
//!
//! Round one starts with every vertex a candidate and every hyperedge
//! affected, so its edge phase is the reduce: it probes each hyperedge
//! once, against the smaller state the first peel leaves. The vertex
//! phase may go first because the reduce only deletes hyperedges: a
//! vertex whose raw degree is below k also has a reduced degree below k,
//! so it falls outside the k-core whichever phase runs first, and peeling
//! is confluent. Later vertex phases test only the vertices whose degree
//! fell in the edge phase before: no other vertex's degree changed since
//! it last passed the test. (A new level of the decomposition below
//! raises `k`, so it tests every survivor.)
//!
//! A probe scans the hyperedge's raw pins once. It pivots on the alive
//! pin in the fewest alive hyperedges, and ORs the alive pins into a
//! 64-bit signature, one bit per vertex id by a fixed multiplicative
//! hash. Any container holds every alive pin, so the hyperedges through
//! the pivot are the only candidates. A candidate whose own signature
//! (over its raw pins, built once per call) lacks one of those bits
//! misses an alive pin, and one AND rejects it: the standard pre-test
//! for set containment (Helmer & Moerkotte, VLDB 1997). Only the
//! candidates that pass are tested by merging the sorted alive pins
//! against their raw pin lists, so the filter changes no decision.
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
//! vertices and surviving hyperedge contents. Hyperedge *ids* can differ
//! only between copies that end up identical, where both algorithms keep
//! exactly one: `csr_kcore` reduces the input before it peels, so it may
//! keep the copy that was larger at the start. It is an independent
//! algorithm — snapshot subset probes against CSR overlap counting — so
//! each engine checks the other on inputs too large for the
//! [`naive_kcore`](crate::naive::naive_kcore) oracle. Each phase reads
//! only the snapshot it starts from, so its items are independent; it
//! runs on one thread.

use hgobs::{Deadline, DeadlineExceeded, TraceCtx};

use crate::decompose::Decomposition;
use crate::hypergraph::{EdgeId, Hypergraph, VertexId};
use crate::kcore::KCore;

/// The bit vertex `v` sets in a pin signature: the top six bits of a
/// multiplicative (Fibonacci) hash of its id.
#[inline]
fn sig_bit(v: VertexId) -> u64 {
    1 << (v.0.wrapping_mul(0x9E37_79B9) >> 26)
}

struct State<'h> {
    /// The CSR: hyperedge offsets into `pin_list`, and vertex offsets
    /// into `adj_list`.
    edge_offsets: &'h [u32],
    pin_list: &'h [VertexId],
    vertex_offsets: &'h [u32],
    adj_list: &'h [EdgeId],
    /// The threshold being peeled to.
    k: u32,
    alive_v: Vec<bool>,
    alive_e: Vec<bool>,
    /// Alive hyperedges through each alive vertex.
    deg_v: Vec<u32>,
    /// Alive pins of each alive hyperedge.
    deg_e: Vec<u32>,
    /// Each hyperedge's raw pins ORed through [`sig_bit`].
    sig: Vec<u64>,
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
    /// `k - 1` for an item deleted while peeling to the k-core, so 0 for
    /// the hyperedges level 1's reduce deletes.
    level_v: Vec<u32>,
    level_e: Vec<u32>,
    rounds: u64,
    vertices_peeled: u64,
    edges_deleted: u64,
    subset_tests: u64,
}

impl<'h> State<'h> {
    /// Round one's state: every vertex a candidate, every hyperedge
    /// affected. Both are marked, so a vertex that is below `k` from the
    /// start is queued once, and so is a hyperedge that loses a pin to
    /// the first vertex phase.
    fn new(h: &'h Hypergraph) -> Self {
        let (edge_offsets, pin_list, vertex_offsets, adj_list) = h.csr_slices();
        let degrees = |offsets: &[u32]| offsets.windows(2).map(|w| w[1] - w[0]).collect();
        State {
            edge_offsets,
            pin_list,
            vertex_offsets,
            adj_list,
            k: 0,
            alive_v: vec![true; h.num_vertices()],
            alive_e: vec![true; h.num_edges()],
            deg_v: degrees(vertex_offsets),
            deg_e: degrees(edge_offsets),
            sig: edge_offsets
                .windows(2)
                .map(|w| {
                    pin_list[w[0] as usize..w[1] as usize]
                        .iter()
                        .fold(0, |sig, &v| sig | sig_bit(v))
                })
                .collect(),
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

    /// Raw pins of hyperedge `f`.
    #[inline]
    fn pins(&self, f: usize) -> &'h [VertexId] {
        let pin_list = self.pin_list;
        &pin_list[self.edge_offsets[f] as usize..self.edge_offsets[f + 1] as usize]
    }

    /// Raw hyperedges through vertex `v`.
    #[inline]
    fn edges_of(&self, v: usize) -> &'h [EdgeId] {
        let adj_list = self.adj_list;
        &adj_list[self.vertex_offsets[v] as usize..self.vertex_offsets[v + 1] as usize]
    }

    /// `true` iff alive hyperedge `f` is empty or contained in an alive
    /// `g` that wins the tie rule (strictly larger, or identical with a
    /// smaller id).
    fn is_non_maximal(&mut self, f: usize) -> bool {
        let df = self.deg_e[f];
        if df == 0 {
            return true;
        }
        // One scan for the pivot and the alive pins' signature: a dead
        // pin reads as degree `u32::MAX` and adds no bit.
        let pins_f = self.pins(f);
        let (mut pivot, mut pivot_deg, mut sig_f) = (0, u32::MAX, 0u64);
        for &v in pins_f {
            let i = v.index();
            let alive = self.alive_v[i];
            let d = if alive { self.deg_v[i] } else { u32::MAX };
            sig_f |= sig_bit(v) & (alive as u64).wrapping_neg();
            if d < pivot_deg {
                (pivot, pivot_deg) = (i, d);
            }
        }
        // The pivot's alive hyperedges include `f`: with no other, `f`
        // has no container.
        if pivot_deg < 2 {
            return false;
        }
        self.pin_buf.clear();
        for &g in self.edges_of(pivot) {
            let gi = g.index();
            // A missing bit proves that `g` lacks an alive pin of `f`.
            if gi == f || sig_f & !self.sig[gi] != 0 || !self.alive_e[gi] {
                continue;
            }
            let dg = self.deg_e[gi];
            if dg > df || (dg == df && gi < f) {
                // The alive pins, gathered for the first candidate that
                // passes the filter.
                if self.pin_buf.is_empty() {
                    let alive = pins_f.iter().filter(|v| self.alive_v[v.index()]);
                    self.pin_buf.extend(alive.map(|v| v.0));
                    debug_assert_eq!(self.pin_buf.len(), df as usize);
                }
                self.subset_tests += 1;
                // `pin_buf` holds only alive pins, so `g`'s raw pins
                // need no alive filter.
                let mut rest = self.pins(gi).iter().map(|v| v.0);
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
            *level = self.k - 1;
        }
        for &w in self.pins(f) {
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
        for &f in self.edges_of(v) {
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

    /// Collect the candidates below `k`, then delete them.
    fn vertex_phase(&mut self, deadline: &Deadline) -> Result<(), DeadlineExceeded> {
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
        self.doomed = doomed;
        Ok(())
    }

    /// Peel to the k-core (trace phase `kcore.probe.peel`, work =
    /// vertices peeled): rounds of a vertex phase and then an edge phase,
    /// until neither has work queued.
    fn peel(
        &mut self,
        k: u32,
        deadline: &Deadline,
        trace: &TraceCtx,
    ) -> Result<(), DeadlineExceeded> {
        let mut tp = trace.phase("kcore.probe.peel");
        let before = self.vertices_peeled;
        self.k = k;
        let mut out = Ok(());
        while out.is_ok() && !(self.candidates.is_empty() && self.affected.is_empty()) {
            self.rounds += 1;
            out = deadline
                .check("kcore.probe.round", self.vertices_peeled)
                .and_then(|()| self.vertex_phase(deadline))
                .and_then(|()| self.edge_phase(deadline));
        }
        tp.add_work(self.vertices_peeled - before);
        out
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
/// `work_done` counts vertices peeled by completed phases.
pub fn probe_kcore_with(
    h: &Hypergraph,
    k: u32,
    deadline: &Deadline,
) -> Result<KCore, DeadlineExceeded> {
    let trace = deadline.trace();
    let mut s = State::new(h);
    let out = s.peel(k, deadline, trace);
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
        // Survivors, compacted at each level so seeding k + 1 costs
        // O(|k-core|) rather than O(|V|).
        let mut alive: Vec<u32> = (0..h.num_vertices() as u32).collect();
        for k in 1u32.. {
            if k > 1 {
                // A new level: no hyperedge changed, every survivor is a
                // candidate.
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
    use crate::testgen::{planted_core_hypergraph, uniform_random_hypergraph};
    use crate::HypergraphBuilder;

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

    /// `probe_kcore` at every level, and `probe_decompose`'s profile,
    /// core numbers and max core, against [`naive_cores`].
    fn assert_matches_naive_cores(h: &Hypergraph) {
        let oracle = naive_cores(h);
        for k in 0..oracle.levels.len() as u32 {
            assert_equivalent(h, k);
        }
        let d = probe_decompose(h);
        assert_eq!(d.profile, oracle.profile);
        assert_eq!(d.core_numbers, oracle.core_numbers);
        match (d.max_core, oracle.max_core()) {
            (Some(mc), Some((k, vs, es))) => {
                assert_eq!((mc.k, &mc.vertices[..]), (k, vs));
                assert_eq!(
                    edge_contents(h, &mc.edges, &mc.vertices),
                    edge_contents(h, es, vs)
                );
                assert_eq!(mc.pins, mc.sub_hypergraph(h).num_pins());
            }
            (mc, oracle) => assert!(mc.is_none() && oracle.is_none()),
        }
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
        // from the start, and {4} is non-maximal from the start. Peeled
        // twice, vertex 4 would take two pins off {0,1,2,4}, which stays
        // in the core.
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
            assert_matches_naive_cores(h);
        }
    }

    /// Run `k` the way [`probe_kcore_with`] does, keeping the state.
    fn peeled_state(h: &Hypergraph, k: u32) -> State<'_> {
        let mut s = State::new(h);
        let dl = Deadline::none();
        s.peel(k, &dl, dl.trace()).unwrap();
        s
    }

    #[test]
    fn u6000_three_core_needs_few_subset_tests() {
        // hgperf's u6000, whose 3-core deletes 6 hyperedges. Probing
        // each hyperedge once per round, behind the signature filter,
        // takes 20 sorted merges to find them; without both, 8,182.
        let h = uniform_random_hypergraph(6000, 4500, 5, 41);
        let s = peeled_state(&h, 3);
        assert!(s.subset_tests <= 64, "{} subset tests", s.subset_tests);
        let core = KCore::from_alive(3, &s.alive_v, &s.alive_e, s.pins_alive);
        assert_eq!(
            (core.vertices.len(), core.edges.len(), core.pins),
            (4306, 4494, 19884)
        );
    }

    #[test]
    fn signature_false_positive_falls_to_the_merge() {
        // f = {a, c} pivots on c, whose other hyperedge is g = {b, c, d}.
        // When b's signature bit is a's, g passes the filter and the
        // merge rejects it; otherwise the filter alone does.
        let bit = |v: u32| sig_bit(VertexId(v));
        let (a, c, d, x, y) = (0, 1, 2, 3, 4);
        let collides = (5..).find(|&v| bit(v) == bit(a)).unwrap();
        let misses = (5..)
            .find(|&v| bit(v) & (bit(a) | bit(c) | bit(d)) == 0)
            .unwrap();
        assert_eq!((bit(c) | bit(d)) & bit(a), 0);
        for (b, tests) in [(collides, 1), (misses, 0)] {
            let mut hb = HypergraphBuilder::new(collides.max(misses) as usize + 1);
            hb.add_edge([a, c]);
            hb.add_edge([b, c, d]);
            hb.add_edge([a, x]);
            hb.add_edge([a, y]);
            let h = hb.build();
            let s = peeled_state(&h, 0);
            assert_eq!((s.subset_tests, s.edges_deleted), (tests, 0), "b = {b}");
            assert_matches_naive_cores(&h);
        }
        // Vertex ids from two signature bits: nearly every candidate
        // passes the filter, so the merges decide.
        let ids: Vec<u32> = (0..).filter(|&v| bit(v) & 0b11 != 0).take(24).collect();
        for seed in 0..4u64 {
            let mut hb = HypergraphBuilder::new(*ids.last().unwrap() as usize + 1);
            for r in [2, 3] {
                let g = uniform_random_hypergraph(ids.len(), 40, r, seed + 10 * r as u64);
                for f in g.edges() {
                    hb.add_edge(g.pins(f).iter().map(|v| ids[v.index()]));
                }
            }
            assert_matches_naive_cores(&hb.build());
        }
    }

    #[test]
    fn saturated_signatures_fall_to_the_merge() {
        // Hyperedges of 64+ pins, nested and duplicated: each sets every
        // bit, so the filter passes every candidate among them.
        let mut b = HypergraphBuilder::new(200);
        for r in [0..128, 0..128, 0..100, 1..129, 10..110, 64..192] {
            b.add_edge(r);
        }
        for v in 100..199 {
            b.add_edge([v, v + 1]);
        }
        b.add_edge([0, 150]);
        let h = b.build();
        let s = State::new(&h);
        assert!(s.sig[..6].iter().all(|&sig| sig == u64::MAX));
        assert_matches_naive_cores(&h);
    }

    #[test]
    fn fold_keeps_the_smaller_id_of_copies_that_end_up_identical() {
        // At k = 2, round one's vertex phase peels vertex 2 (degree 1)
        // before any probe, so f1 = {0,1,2} ties f0 = {0,1} and the tie
        // rule keeps f0. A reduce before the peel (`naive_kcore`,
        // `csr_kcore`) deletes f0 ⊂ f1 first and keeps f1; both keep
        // the contents {0,1}.
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([0, 1, 2]);
        b.add_edge([0, 3]);
        b.add_edge([1, 3]);
        let h = b.build();
        assert_eq!(probe_kcore(&h, 2).edges, [EdgeId(0), EdgeId(2), EdgeId(3)]);
        assert_eq!(naive_kcore(&h, 2).1, [EdgeId(1), EdgeId(2), EdgeId(3)]);
        assert_eq!(
            crate::csr_kcore(&h, 2).edges,
            [EdgeId(1), EdgeId(2), EdgeId(3)]
        );
        assert_equivalent(&h, 2);
    }

    #[test]
    fn traced_decompose_records_one_peel_phase_per_level() {
        let h = planted_core_hypergraph(30, 40, 6, 200, 17);
        let trace = hgobs::TraceCtx::new(7);
        let d = probe_decompose_with(&h, &Deadline::none().with_trace(trace.clone())).unwrap();
        let events = trace.events();
        // One peel per level, plus the level that empties the core; the
        // reduce is level 1's first edge phase, inside its peel. Every
        // vertex is peeled exactly once across them.
        assert!(
            events.iter().all(|e| e.phase == "kcore.probe.peel"),
            "{events:?}"
        );
        assert_eq!(events.len(), d.profile.len() + 1, "{events:?}");
        let peeled: u64 = events.iter().map(|e| e.work).sum();
        assert_eq!(peeled, h.num_vertices() as u64);
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

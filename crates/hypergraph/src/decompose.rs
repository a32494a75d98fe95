//! The paper's k-core algorithm (Fig. 4) over the CSR overlap engine:
//! [`csr_kcore`] for one `k`, and [`decompose`] for every `k` in one pass.
//! No request runs them: every served k-core query goes to the
//! subset-probe engine in [`mod@crate::probe_kcore`]. They stay as the
//! paper's algorithm (E4 times [`decompose`] by name, A4 and
//! `hg bench --kernels` time both) and as the cross-check of that engine
//! on inputs too large for the naive oracle.
//!
//! Hypergraph k-cores are nested (property-tested in this crate): the
//! (k+1)-core is a sub-hypergraph of the k-core, and peeling is
//! confluent — any order of deleting sub-threshold vertices reaches the
//! same fixpoint. So the peeler state that survives the k-peel is a
//! valid starting point for k+1: instead of rebuilding the `O(Σ_v d(v)²)`
//! overlap table for every `k`, [`decompose`] builds it **once**, runs
//! the reduce sweep once, and then sweeps `k = 1, 2, …` re-seeding the
//! queue from the survivors, recording each level's sizes and stamping
//! core numbers as it goes. The profile, the core numbers and the max
//! core all fall out of the single sweep.
//!
//! A hyperedge dies as soon as it is contained in an alive hyperedge of
//! higher id-breaking rank, and ties between identical hyperedges keep
//! the lowest id. The surviving vertex/edge id sets match the
//! [`naive_kcore`](crate::naive::naive_kcore) oracle's for every `k`.

use hgobs::{Deadline, DeadlineExceeded};

use crate::csr_overlap::CsrOverlap;
use crate::hypergraph::{EdgeId, Hypergraph, VertexId};
use crate::kcore::KCore;

/// Everything one incremental sweep produces.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// `(k, vertices, edges)` for every non-empty k-core, `k = 1..=k_max`
    /// (same shape as [`crate::core_profile`]).
    pub profile: Vec<(u32, usize, usize)>,
    /// Per-vertex core numbers: the largest `k` whose k-core contains the
    /// vertex, 0 outside even the 1-core.
    pub core_numbers: Vec<u32>,
    /// The deepest non-empty core, or `None` when even the 1-core is
    /// empty.
    pub max_core: Option<KCore>,
}

/// Peeling state over a [`CsrOverlap`]; flat arrays only, no hashing.
struct CsrPeeler<'h> {
    h: &'h Hypergraph,
    ov: CsrOverlap,
    alive_v: Vec<bool>,
    alive_e: Vec<bool>,
    deg_v: Vec<u32>,
    deg_e: Vec<u32>,
    edges_alive: usize,
    queue: Vec<u32>,
    queued: Vec<bool>,
    k: u32,
    /// Scratch for the alive edges through a vertex being deleted,
    /// reused across deletions to avoid per-vertex allocation.
    scratch: Vec<u32>,
    vertices_peeled: u64,
    edges_deleted: u64,
    nonmax_checks: u64,
    overlap_probes: u64,
}

impl<'h> CsrPeeler<'h> {
    fn new(h: &'h Hypergraph, ov: CsrOverlap) -> Self {
        debug_assert_eq!(ov.num_edges(), h.num_edges());
        CsrPeeler {
            h,
            ov,
            alive_v: vec![true; h.num_vertices()],
            alive_e: vec![true; h.num_edges()],
            deg_v: h.vertices().map(|v| h.vertex_degree(v) as u32).collect(),
            deg_e: h.edges().map(|f| h.edge_degree(f) as u32).collect(),
            edges_alive: h.num_edges(),
            queue: Vec::new(),
            queued: vec![false; h.num_vertices()],
            k: 0,
            scratch: Vec::new(),
            vertices_peeled: 0,
            edges_deleted: 0,
            nonmax_checks: 0,
            overlap_probes: 0,
        }
    }

    /// `true` iff alive `f` is currently contained in some alive `g ≠ f`
    /// (identical sets: the higher id is the contained one), or is empty.
    /// Zeroed entries are dead neighbors — skipped without a liveness
    /// lookup thanks to the [`CsrOverlap`] kill invariant.
    fn is_non_maximal(&mut self, f: usize) -> bool {
        self.nonmax_checks += 1;
        let df = self.deg_e[f];
        if df == 0 {
            return true;
        }
        let (lo, hi) = self.ov.bounds(f);
        for i in lo..hi {
            let c = self.ov.counts[i];
            if c == 0 {
                continue;
            }
            self.overlap_probes += 1;
            if c == df {
                let g = self.ov.neighbors[i] as usize;
                let dg = self.deg_e[g];
                if dg > df || (dg == df && g < f) {
                    return true;
                }
            }
        }
        false
    }

    /// Delete hyperedge `f`: zero its overlap entries both ways,
    /// decrement member vertex degrees, queue vertices falling below `k`.
    fn delete_edge(&mut self, f: usize) {
        debug_assert!(self.alive_e[f]);
        self.alive_e[f] = false;
        self.edges_alive -= 1;
        self.edges_deleted += 1;
        self.ov.kill_edge(f);
        for &w in self.h.pins(EdgeId(f as u32)) {
            let w = w.index();
            if self.alive_v[w] {
                self.deg_v[w] -= 1;
                if self.deg_v[w] < self.k && !self.queued[w] {
                    self.queued[w] = true;
                    self.queue.push(w as u32);
                }
            }
        }
    }

    /// Delete vertex `v` from every alive hyperedge containing it,
    /// updating overlaps, then delete hyperedges that stop being maximal.
    fn delete_vertex(&mut self, v: usize) {
        debug_assert!(self.alive_v[v]);
        self.alive_v[v] = false;
        self.vertices_peeled += 1;

        let mut alive_edges = std::mem::take(&mut self.scratch);
        alive_edges.clear();
        alive_edges.extend(
            self.h
                .edges_of(VertexId(v as u32))
                .iter()
                .map(|f| f.0)
                .filter(|&f| self.alive_e[f as usize]),
        );

        // All pairs of alive edges through v lose one shared vertex.
        for (i, &f) in alive_edges.iter().enumerate() {
            for &g in &alive_edges[i + 1..] {
                self.ov.decrement_pair(f as usize, g);
            }
        }
        // Each alive edge containing v loses one member.
        for &f in &alive_edges {
            self.deg_e[f as usize] -= 1;
        }
        // Only these degree-decremented edges can newly be non-maximal.
        for &f in &alive_edges {
            let f = f as usize;
            if self.alive_e[f] && self.is_non_maximal(f) {
                self.delete_edge(f);
            }
        }
        self.scratch = alive_edges;
    }

    /// Initial sweep: make the hypergraph reduced before peeling. One
    /// clock read at entry catches pre-expired deadlines with zero work;
    /// inside the loop the amortized [`Deadline::tick`] reads the clock
    /// only every [`hgobs::CHECK_INTERVAL`] edges, so the per-edge cost
    /// is a counter increment instead of a syscall-backed clock read.
    fn reduce_sweep(
        &mut self,
        deadline: &Deadline,
        ticks: &mut u32,
        phase: &'static str,
    ) -> Result<(), DeadlineExceeded> {
        if deadline.expired() {
            return Err(deadline.exceeded(phase, self.edges_deleted));
        }
        for f in 0..self.h.num_edges() {
            if deadline.tick(ticks) {
                return Err(deadline.exceeded(phase, self.edges_deleted));
            }
            if self.alive_e[f] && self.is_non_maximal(f) {
                self.delete_edge(f);
            }
        }
        Ok(())
    }

    #[inline]
    fn enqueue_if_below(&mut self, v: usize) {
        if self.deg_v[v] < self.k && !self.queued[v] {
            self.queued[v] = true;
            self.queue.push(v as u32);
        }
    }

    /// Run peeling to fixpoint. On expiry the error's `work_done` is the
    /// total number of vertices peeled so far (across levels, for the
    /// incremental sweep). Same check structure as
    /// [`CsrPeeler::reduce_sweep`]: one clock read at entry, amortized
    /// ticks per peeled vertex — the caller-owned counter carries across
    /// levels, so a cascade of tiny levels still reads the clock only
    /// every [`hgobs::CHECK_INTERVAL`] vertices overall.
    fn run(
        &mut self,
        deadline: &Deadline,
        ticks: &mut u32,
        phase: &'static str,
    ) -> Result<(), DeadlineExceeded> {
        if deadline.expired() {
            return Err(deadline.exceeded(phase, self.vertices_peeled));
        }
        while let Some(v) = self.queue.pop() {
            if deadline.tick(ticks) {
                return Err(deadline.exceeded(phase, self.vertices_peeled));
            }
            let v = v as usize;
            self.queued[v] = false;
            if self.alive_v[v] {
                self.delete_vertex(v);
            }
        }
        Ok(())
    }

    /// Flush the accumulated counters to the sink (no-op when disabled).
    fn flush_metrics(&self) {
        hgobs::counter!("kcore.csr.vertices_peeled", self.vertices_peeled);
        hgobs::counter!("kcore.csr.edges_deleted", self.edges_deleted);
        hgobs::counter!("kcore.csr.nonmax_checks", self.nonmax_checks);
        hgobs::counter!("kcore.csr.overlap_probes", self.overlap_probes);
    }

    fn extract(&self, k: u32) -> KCore {
        let pins = (0..self.h.num_edges())
            .filter(|&f| self.alive_e[f])
            .map(|f| self.deg_e[f] as usize)
            .sum();
        KCore::from_alive(k, &self.alive_v, &self.alive_e, pins)
    }
}

/// Compute the full k-core decomposition in one overlap build plus one
/// monotone peel sweep. See the module docs for why the incremental
/// restart at each level is sound.
pub fn decompose(h: &Hypergraph) -> Decomposition {
    match decompose_with(h, &Deadline::none()) {
        Ok(d) => d,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`decompose`] under a cooperative [`Deadline`] (phase
/// `kcore.decompose` for the sweep; the overlap build reports its own
/// phase). The error's `work_done` is edges deleted during the reduce
/// sweep or total vertices peeled during levelling; partial work counters
/// are flushed even on expiry.
pub fn decompose_with(
    h: &Hypergraph,
    deadline: &Deadline,
) -> Result<Decomposition, DeadlineExceeded> {
    let ov = CsrOverlap::build_with(h, deadline)?;
    let _span = hgobs::Span::enter("kcore.decompose");
    let trace = deadline.trace();
    let mut p = CsrPeeler::new(h, ov);
    let mut ticks = 0u32;
    let mut profile: Vec<(u32, usize, usize)> = Vec::new();
    let mut core_numbers = vec![0u32; h.num_vertices()];
    let mut snapshot: Option<(Vec<bool>, Vec<bool>)> = None;
    let swept = (|| {
        {
            let mut tp = trace.phase("kcore.reduce");
            p.reduce_sweep(deadline, &mut ticks, "kcore.decompose")?;
            tp.add_work(p.edges_deleted);
        }
        // Survivor list, compacted at each level so seeding k+1 costs
        // O(|k-core|) rather than O(|V|).
        let mut alive_list: Vec<u32> = (0..h.num_vertices() as u32).collect();
        let mut k = 1u32;
        loop {
            hgobs::counter!("kcore.rounds");
            // One trace event per peel level, work = vertices peeled at
            // this level (recorded on drop even when the deadline fires
            // mid-level, so partial traces show where the time went).
            let mut tp = trace.phase("kcore.peel");
            let peeled_before = p.vertices_peeled;
            p.k = k;
            alive_list.retain(|&v| p.alive_v[v as usize]);
            for &v in &alive_list {
                p.enqueue_if_below(v as usize);
            }
            p.run(deadline, &mut ticks, "kcore.decompose")?;
            tp.add_work(p.vertices_peeled - peeled_before);
            alive_list.retain(|&v| p.alive_v[v as usize]);
            if alive_list.is_empty() {
                return Ok(());
            }
            profile.push((k, alive_list.len(), p.edges_alive));
            for &v in &alive_list {
                core_numbers[v as usize] = k;
            }
            snapshot = Some((p.alive_v.clone(), p.alive_e.clone()));
            k += 1;
        }
    })();
    p.flush_metrics();
    swept?;
    let max_core = snapshot.map(|(alive_v, alive_e)| {
        let k_max = profile
            .last()
            .expect("snapshot implies a non-empty level")
            .0;
        let pins = h
            .edges()
            .filter(|f| alive_e[f.index()])
            .map(|f| h.pins(f).iter().filter(|v| alive_v[v.index()]).count())
            .sum();
        KCore::from_alive(k_max, &alive_v, &alive_e, pins)
    });
    Ok(Decomposition {
        profile,
        core_numbers,
        max_core,
    })
}

/// The k-core for one `k` (paper Fig. 4) via the CSR engine.
///
/// The input need not be reduced: an initial sweep removes non-maximal
/// hyperedges (keeping the lowest id among identical copies) so the
/// output always satisfies the definition. `k = 0` therefore returns the
/// reduced hypergraph itself, isolated vertices included (degree-0
/// vertices trivially satisfy `d(v) ≥ 0`).
pub fn csr_kcore(h: &Hypergraph, k: u32) -> KCore {
    match csr_kcore_with(h, k, &Deadline::none()) {
        Ok(core) => core,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`csr_kcore`] under a cooperative [`Deadline`], checked during the
/// overlap build (per pair), the reduce sweep (per edge, phase
/// `kcore.csr.reduce`) and the peel (per vertex, phase `kcore.csr.peel`).
pub fn csr_kcore_with(
    h: &Hypergraph,
    k: u32,
    deadline: &Deadline,
) -> Result<KCore, DeadlineExceeded> {
    let _span = hgobs::Span::enter("kcore.csr");
    hgobs::counter!("kcore.rounds");
    let ov = CsrOverlap::build_with(h, deadline)?;
    let trace = deadline.trace();
    let mut p = CsrPeeler::new(h, ov);
    let mut ticks = 0u32;
    p.k = k;
    let peeled = (|| {
        {
            let mut tp = trace.phase("kcore.reduce");
            p.reduce_sweep(deadline, &mut ticks, "kcore.csr.reduce")?;
            tp.add_work(p.edges_deleted);
        }
        let mut tp = trace.phase("kcore.peel");
        for v in 0..h.num_vertices() {
            if p.alive_v[v] {
                p.enqueue_if_below(v);
            }
        }
        let out = p.run(deadline, &mut ticks, "kcore.csr.peel");
        tp.add_work(p.vertices_peeled);
        out
    })();
    p.flush_metrics();
    peeled?;
    Ok(p.extract(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{edge_contents, naive_cores};
    use crate::HypergraphBuilder;

    fn triangle_like() -> Hypergraph {
        let mut b = HypergraphBuilder::new(6);
        b.add_edge([0, 1, 3]);
        b.add_edge([1, 2, 4]);
        b.add_edge([0, 2, 5]);
        b.build()
    }

    fn assert_matches_oracle(h: &Hypergraph) {
        let d = decompose(h);
        let oracle = naive_cores(h);
        assert_eq!(d.profile, oracle.profile, "profile");
        assert_eq!(d.core_numbers, oracle.core_numbers, "core numbers");
        assert_eq!(
            d.max_core
                .map(|c| (c.k, edge_contents(h, &c.edges, &c.vertices), c.vertices)),
            oracle
                .max_core()
                .map(|(k, vs, es)| (k, edge_contents(h, es, vs), vs.to_vec())),
            "max core"
        );
        for (k, (vs, es)) in oracle.levels.iter().enumerate() {
            let a = csr_kcore(h, k as u32);
            assert_eq!(&a.vertices, vs, "k = {k}");
            assert_eq!(
                edge_contents(h, &a.edges, &a.vertices),
                edge_contents(h, es, vs),
                "k = {k}"
            );
        }
    }

    #[test]
    fn matches_oracle_on_small_cases() {
        assert_matches_oracle(&triangle_like());

        // Fan: four copies of {0,1,2} plus distinct tails.
        let mut b = HypergraphBuilder::new(7);
        for t in 3..7u32 {
            b.add_edge([0, 1, 2, t]);
        }
        assert_matches_oracle(&b.build());

        // Nested + duplicate edges.
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1, 2, 3]);
        b.add_edge([0, 1, 2]);
        b.add_edge([0, 1, 2]);
        b.add_edge([1, 2]);
        b.add_edge([]);
        assert_matches_oracle(&b.build());

        // Ring of triples: a 2-core (every vertex in 3 edges, overlaps 2).
        let mut b = HypergraphBuilder::new(8);
        for s in 0..8u32 {
            b.add_edge([s, (s + 1) % 8, (s + 2) % 8]);
        }
        assert_matches_oracle(&b.build());

        // Empty and isolated-vertex cases.
        assert_matches_oracle(&HypergraphBuilder::new(0).build());
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([0, 1]);
        assert_matches_oracle(&b.build());
    }

    #[test]
    fn decompose_profile_is_strictly_levelled() {
        let h = triangle_like();
        let d = decompose(&h);
        assert_eq!(d.profile, vec![(1, 6, 3), (2, 3, 3)]);
        assert_eq!(d.core_numbers, vec![2, 2, 2, 1, 1, 1]);
        let mc = d.max_core.unwrap();
        assert_eq!(mc.k, 2);
        assert_eq!(mc.vertices, vec![VertexId(0), VertexId(1), VertexId(2)]);
    }

    #[test]
    fn traced_decompose_records_reduce_and_peel_phases() {
        let h = triangle_like();
        let trace = hgobs::TraceCtx::new(11);
        let dl = hgobs::Deadline::none().with_trace(trace.clone());
        let d = decompose_with(&h, &dl).unwrap();
        let events = trace.events();
        assert_eq!(
            events.iter().filter(|e| e.phase == "kcore.reduce").count(),
            1,
            "{events:?}"
        );
        // One peel event per level: every profile level plus the final
        // sweep that empties the structure.
        let peels: Vec<_> = events.iter().filter(|e| e.phase == "kcore.peel").collect();
        assert_eq!(peels.len(), d.profile.len() + 1, "{events:?}");
        // Every vertex is peeled exactly once across the levels.
        assert_eq!(peels.iter().map(|e| e.work).sum::<u64>(), 6);
    }

    #[test]
    fn csr_kcore_k0_keeps_isolated_vertices() {
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([0, 1]);
        let h = b.build();
        assert_eq!(csr_kcore(&h, 0).vertices.len(), 3);
        assert_eq!(csr_kcore(&h, 1).vertices.len(), 2);
    }

    #[test]
    fn pre_expired_deadline_stops_decompose_with_zero_work() {
        // Disjoint pairs: no overlap pairs at all, so the build cannot
        // tick; the reduce sweep's per-edge check fires first.
        let mut b = HypergraphBuilder::new(64);
        for i in 0..32u32 {
            b.add_edge([2 * i, 2 * i + 1]);
        }
        let h = b.build();
        let dl = Deadline::after(std::time::Duration::ZERO);
        let err = decompose_with(&h, &dl).unwrap_err();
        assert_eq!(err.phase, "kcore.decompose");
        assert_eq!(err.work_done, 0, "{err:?}");
        assert!(csr_kcore_with(&h, 2, &dl).is_err());
    }

    #[test]
    fn deadline_fires_mid_decompose_with_partial_work() {
        // 60k disjoint pair edges: the overlap build is trivial and the
        // k=1 level keeps everything, so nearly all the time is the k=2
        // level peeling 120k vertices. Escalate the budget until one
        // lands mid-sweep; a machine that finishes inside 1ms just ends
        // at Ok (the expiry path is still covered by the pre-expired
        // test above).
        let n = 60_000u32;
        let mut b = HypergraphBuilder::new(2 * n as usize);
        for i in 0..n {
            b.add_edge([2 * i, 2 * i + 1]);
        }
        let h = b.build();
        for ms in [1u64, 2, 4, 8, 16, 32, 64] {
            match decompose_with(&h, &Deadline::after_ms(ms)) {
                Err(err) if err.work_done > 0 => {
                    assert_eq!(err.phase, "kcore.decompose", "{err:?}");
                    assert!(err.work_done < 2 * n as u64, "{err:?}");
                    return;
                }
                Err(err) => {
                    // Expired before any vertex was peeled; phase must
                    // still be the sweep's.
                    assert_eq!(err.phase, "kcore.decompose", "{err:?}");
                    continue;
                }
                Ok(d) => {
                    assert_eq!(d.profile, vec![(1, 2 * n as usize, n as usize)]);
                    return;
                }
            }
        }
    }

    #[test]
    fn unlimited_deadline_matches_plain() {
        let h = triangle_like();
        let a = decompose(&h);
        let b = decompose_with(&h, &Deadline::none()).unwrap();
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.core_numbers, b.core_numbers);
    }
}

//! The queries the server can answer, their parameter parsing, their
//! canonical cache-key form, and their execution against a hypergraph.
//!
//! Execution is deliberately independent of HTTP: `Query::run` takes a
//! `&Hypergraph` and returns the JSON body. The equivalence proptest
//! (cache-on vs cache-off) and the CLI reuse it directly.

use std::sync::Arc;

use hgobs::json::JsonWriter;
use hgobs::{Deadline, DeadlineExceeded, TraceCtx};
use hypergraph::{Hypergraph, PairStop, Relabeling, VertexId};

/// A parsed, validated analytics query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// Structural summary: sizes, max degrees, component count.
    Stats,
    /// Vertex- and hyperedge-degree histograms.
    Degrees,
    /// Connected components with per-component sizes.
    Components,
    /// `k`-core; `None` means the maximum core.
    KCore { k: Option<u32> },
    /// Shortest hypergraph distance between two vertices (1-based ids).
    Distance { from: u32, to: u32 },
    /// Full BFS sweep: diameter + average path length.
    Diameter,
    /// Least-squares power-law fit of the vertex degree histogram.
    PowerLaw,
    /// Greedy unit-weight vertex cover.
    Cover,
}

/// A query that could not be built from the request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryError {
    /// HTTP status the server should answer with (400 or 404).
    pub status: u16,
    pub message: String,
}

impl QueryError {
    fn bad(message: impl Into<String>) -> Self {
        QueryError {
            status: 400,
            message: message.into(),
        }
    }
}

impl From<DeadlineExceeded> for QueryError {
    /// A query that outran its deadline answers `504 Gateway Timeout`
    /// with the partial-work report in the message.
    fn from(e: DeadlineExceeded) -> Self {
        QueryError {
            status: 504,
            message: e.to_string(),
        }
    }
}

/// Execution options threaded from the server into the algorithms.
#[derive(Clone, Debug, Default)]
pub struct ExecOpts {
    /// Cooperative deadline checked inside every heavy loop; the
    /// default (unlimited) never fires.
    pub deadline: Deadline,
    /// Run the MS-BFS diameter sweep on every core
    /// ([`hypergraph::par_msbfs_distance_stats_with`]). The server
    /// enables this for large datasets, where a sweep is long enough to
    /// pay for its helper threads; no other query reads it.
    pub parallel: bool,
    /// Request-scoped trace context. [`Query::run_opts`] attaches it to
    /// the deadline it hands the kernels, so every instrumented phase
    /// (`msbfs.order`, `msbfs.batch`, `kcore.probe.peel`, `bfs.pair`)
    /// lands in this request's event list without per-kernel plumbing.
    /// The default is disabled: a branch per phase, no allocation.
    pub trace: TraceCtx,
    /// Set when the dataset was stored under a BFS-order vertex
    /// relabeling (`hg serve --relabel`): incoming 1-based ids are
    /// mapped into the internal order and id-bearing responses
    /// (`kcore`, `cover`) are mapped back, so clients always speak the
    /// original numbering.
    pub relabel: Option<Arc<Relabeling>>,
}

/// Endpoint names servable under `/v1/{dataset}/…`, in docs order.
pub const ENDPOINTS: &[&str] = &[
    "stats",
    "degrees",
    "components",
    "kcore",
    "distance",
    "diameter",
    "powerlaw",
    "cover",
];

impl Query {
    /// The endpoint path segment this query answers.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Query::Stats => "stats",
            Query::Degrees => "degrees",
            Query::Components => "components",
            Query::KCore { .. } => "kcore",
            Query::Distance { .. } => "distance",
            Query::Diameter => "diameter",
            Query::PowerLaw => "powerlaw",
            Query::Cover => "cover",
        }
    }

    /// Build a query from an endpoint segment and a parameter lookup.
    pub fn parse(
        endpoint: &str,
        param: impl Fn(&str) -> Option<String>,
    ) -> Result<Query, QueryError> {
        let parse_u32 = |name: &str| -> Result<Option<u32>, QueryError> {
            match param(name) {
                None => Ok(None),
                Some(s) => s
                    .parse::<u32>()
                    .map(Some)
                    .map_err(|e| QueryError::bad(format!("bad `{name}` parameter `{s}`: {e}"))),
            }
        };
        match endpoint {
            "stats" => Ok(Query::Stats),
            "degrees" => Ok(Query::Degrees),
            "components" => Ok(Query::Components),
            "kcore" => Ok(Query::KCore { k: parse_u32("k")? }),
            "distance" => {
                let from = parse_u32("from")?
                    .ok_or_else(|| QueryError::bad("distance requires `from`"))?;
                let to =
                    parse_u32("to")?.ok_or_else(|| QueryError::bad("distance requires `to`"))?;
                Ok(Query::Distance { from, to })
            }
            "diameter" => Ok(Query::Diameter),
            "powerlaw" => Ok(Query::PowerLaw),
            "cover" => Ok(Query::Cover),
            other => Err(QueryError {
                status: 404,
                message: format!(
                    "unknown endpoint `{other}` (have: {})",
                    ENDPOINTS.join(", ")
                ),
            }),
        }
    }

    /// Canonical cache-key suffix: endpoint plus normalized parameters.
    /// Two requests with the same meaning produce the same string.
    pub fn canonical(&self) -> String {
        match self {
            Query::KCore { k: Some(k) } => format!("kcore?k={k}"),
            Query::Distance { from, to } => format!("distance?from={from}&to={to}"),
            _ => self.endpoint().to_string(),
        }
    }

    /// Execute against `h`, producing the JSON response body. Always a
    /// `{"query":…,…}` object terminated by a newline. Equivalent to
    /// [`Query::run_opts`] with an unlimited deadline, sequential.
    pub fn run(&self, h: &Hypergraph) -> Result<String, QueryError> {
        self.run_opts(h, &ExecOpts::default())
    }

    /// Execute under [`ExecOpts`]: heavy endpoints honor the deadline
    /// (returning a 504 [`QueryError`] on expiry), and the diameter
    /// sweep optionally runs on every core.
    pub fn run_opts(&self, h: &Hypergraph, opts: &ExecOpts) -> Result<String, QueryError> {
        self.write_body(h, opts, usize::MAX)
            .map(|body| body.expect("an unbounded pair search always finishes"))
    }

    /// Answer a pair query (`distance`) whose search finishes within
    /// `max_pins` pins scanned, with the body [`Query::run_opts`] would
    /// write. `None` declines: the query is not a pair query, or its
    /// search would scan more. Errors (a bad vertex id, the deadline)
    /// are answers like any other.
    pub fn run_within(
        &self,
        h: &Hypergraph,
        opts: &ExecOpts,
        max_pins: usize,
    ) -> Option<Result<String, QueryError>> {
        match self {
            Query::Distance { .. } => self.write_body(h, opts, max_pins).transpose(),
            _ => None,
        }
    }

    /// The body writer behind both entry points; `Ok(None)` when a
    /// pair search would scan more than `max_pins` pins.
    fn write_body(
        &self,
        h: &Hypergraph,
        opts: &ExecOpts,
        max_pins: usize,
    ) -> Result<Option<String>, QueryError> {
        // The trace rides on the deadline: kernels already thread the
        // deadline everywhere, so attaching it here is the only
        // plumbing the whole request path needs.
        let opts = ExecOpts {
            deadline: opts.deadline.clone().with_trace(opts.trace.clone()),
            parallel: opts.parallel,
            trace: opts.trace.clone(),
            relabel: opts.relabel.clone(),
        };
        let opts = &opts;
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("query").string(&self.canonical());
        match self {
            Query::Stats => run_stats(h, &mut w),
            Query::Degrees => run_degrees(h, &mut w),
            Query::Components => run_components(h, &mut w),
            Query::KCore { k } => run_kcore(h, *k, opts, &mut w)?,
            Query::Distance { from, to } => {
                if !run_distance(h, *from, *to, opts, max_pins, &mut w)? {
                    return Ok(None);
                }
            }
            Query::Diameter => run_diameter(h, opts, &mut w)?,
            Query::PowerLaw => run_powerlaw(h, &mut w),
            Query::Cover => run_cover(h, opts, &mut w)?,
        }
        w.end_object();
        let mut body = w.finish();
        body.push('\n');
        Ok(Some(body))
    }
}

/// Resolve a 1-based external vertex id against `h`, translating into
/// the internal numbering when the dataset is stored relabeled.
fn vertex(h: &Hypergraph, id: u32, name: &str, opts: &ExecOpts) -> Result<VertexId, QueryError> {
    if id == 0 || id as usize > h.num_vertices() {
        return Err(QueryError::bad(format!(
            "`{name}`={id} out of range 1..={}",
            h.num_vertices()
        )));
    }
    let v = VertexId(id - 1);
    Ok(opts.relabel.as_ref().map_or(v, |r| r.new_vertex(v)))
}

/// The 1-based external id of internal vertex `v`.
fn external_id(v: VertexId, opts: &ExecOpts) -> u64 {
    let v = opts.relabel.as_ref().map_or(v, |r| r.original_vertex(v));
    v.0 as u64 + 1
}

fn run_stats(h: &Hypergraph, w: &mut JsonWriter) {
    let cc = hypergraph::hypergraph_components(h);
    w.key("vertices").uint(h.num_vertices() as u64);
    w.key("hyperedges").uint(h.num_edges() as u64);
    w.key("pins").uint(h.num_pins() as u64);
    w.key("max_vertex_degree")
        .uint(h.max_vertex_degree() as u64);
    w.key("max_hyperedge_degree")
        .uint(h.max_edge_degree() as u64);
    w.key("components").uint(cc.count() as u64);
    match cc.largest() {
        Some(big) => {
            w.key("largest_component").begin_object();
            w.key("vertices").uint(cc.summary[big].num_vertices as u64);
            w.key("hyperedges").uint(cc.summary[big].num_edges as u64);
            w.end_object();
        }
        None => {
            w.key("largest_component").raw("null");
        }
    }
    w.key("storage_bytes").uint(h.storage_bytes() as u64);
}

fn run_degrees(h: &Hypergraph, w: &mut JsonWriter) {
    w.key("vertex_degree_histogram").begin_array();
    for c in hypergraph::vertex_degree_histogram(h) {
        w.uint(c as u64);
    }
    w.end_array();
    w.key("hyperedge_degree_histogram").begin_array();
    for c in hypergraph::edge_degree_histogram(h) {
        w.uint(c as u64);
    }
    w.end_array();
}

fn run_components(h: &Hypergraph, w: &mut JsonWriter) {
    let cc = hypergraph::hypergraph_components(h);
    w.key("count").uint(cc.count() as u64);
    // Largest-first; the hyperedge-count tiebreak keeps the order
    // label-invariant (components equal in both counts are
    // indistinguishable here), so relabeled datasets serve the same
    // body as unrelabeled ones.
    let mut order: Vec<usize> = (0..cc.summary.len()).collect();
    order.sort_by_key(|&i| {
        (
            std::cmp::Reverse(cc.summary[i].num_vertices),
            std::cmp::Reverse(cc.summary[i].num_edges),
        )
    });
    w.key("components").begin_array();
    for i in order {
        w.begin_object();
        w.key("vertices").uint(cc.summary[i].num_vertices as u64);
        w.key("hyperedges").uint(cc.summary[i].num_edges as u64);
        w.end_object();
    }
    w.end_array();
}

fn run_kcore(
    h: &Hypergraph,
    k: Option<u32>,
    opts: &ExecOpts,
    w: &mut JsonWriter,
) -> Result<(), QueryError> {
    // One subset-probe engine, no overlap table: one level, or every
    // level from one state for the maximum core.
    let core = match k {
        Some(k) => Some(hypergraph::probe_kcore_with(h, k, &opts.deadline)?),
        None => hypergraph::max_core_with(h, &opts.deadline)?,
    };
    match core {
        Some(c) if !c.is_empty() => {
            w.key("k").uint(c.k as u64);
            w.key("vertices").uint(c.vertices.len() as u64);
            w.key("hyperedges").uint(c.edges.len() as u64);
            w.key("pins").uint(c.pins as u64);
            // External ids, ascending: unmapping a relabeled dataset
            // scrambles the internal order, so sort after translation
            // (a no-op for unrelabeled datasets, already ascending).
            let mut ids: Vec<u64> = c.vertices.iter().map(|&v| external_id(v, opts)).collect();
            ids.sort_unstable();
            w.key("vertex_ids").begin_array();
            for id in ids {
                w.uint(id);
            }
            w.end_array();
        }
        _ => {
            w.key("k").raw("null");
            w.key("vertices").uint(0);
            w.key("hyperedges").uint(0);
            w.key("pins").uint(0);
            w.key("vertex_ids").begin_array().end_array();
        }
    }
    Ok(())
}

/// Write the `distance` fields; `false` (nothing written) when the
/// pair search would scan more than `max_pins` pins.
fn run_distance(
    h: &Hypergraph,
    from: u32,
    to: u32,
    opts: &ExecOpts,
    max_pins: usize,
    w: &mut JsonWriter,
) -> Result<bool, QueryError> {
    let s = vertex(h, from, "from", opts)?;
    let t = vertex(h, to, "to", opts)?;
    // A bidirectional pair search; `hyper_distances` is its oracle.
    let dist = match hypergraph::hyper_distance_within(h, s, t, max_pins, &opts.deadline) {
        Ok(dist) => dist,
        Err(PairStop::OverBudget) => return Ok(false),
        Err(PairStop::Deadline(e)) => return Err(e.into()),
    };
    w.key("from").uint(from as u64);
    w.key("to").uint(to as u64);
    match dist {
        Some(d) => {
            w.key("distance").uint(d as u64);
        }
        None => {
            w.key("distance").raw("null");
        }
    }
    Ok(true)
}

fn run_diameter(h: &Hypergraph, opts: &ExecOpts, w: &mut JsonWriter) -> Result<(), QueryError> {
    // Both arms run the one MS-BFS sweep; the parallel arm splits its
    // batches over one worker per core for datasets above the routing
    // threshold.
    let s = if opts.parallel {
        hypergraph::par_msbfs_distance_stats_with(h, &opts.deadline)?
    } else {
        hypergraph::hyper_distance_stats_with(h, &opts.deadline)?
    };
    w.key("diameter").uint(s.diameter as u64);
    w.key("average_path_length").float(s.average_path_length);
    w.key("reachable_pairs").uint(s.reachable_pairs);
    Ok(())
}

fn run_powerlaw(h: &Hypergraph, w: &mut JsonWriter) {
    let hist = hypergraph::vertex_degree_histogram(h);
    match hypergraph::fit_power_law(&hist) {
        Some(fit) => {
            w.key("fit").begin_object();
            w.key("log10_c").float(fit.log10_c);
            w.key("gamma").float(fit.gamma);
            w.key("r_squared").float(fit.r_squared);
            w.key("points").uint(fit.points as u64);
            w.end_object();
        }
        None => {
            w.key("fit").raw("null");
        }
    }
}

fn run_cover(h: &Hypergraph, opts: &ExecOpts, w: &mut JsonWriter) -> Result<(), QueryError> {
    // Greedy tie-breaks on internal vertex id, so a relabeled dataset
    // may pick a different cover than the same data unrelabeled, and of
    // a different size (unit weights: cellzome 81 plain against 82
    // BFS-relabeled, u6000 1,150 against 1,139); `cover` is the one
    // body that depends on relabeling (ROADMAP item 8). Ids are emitted
    // in selection order, translated back to the client's numbering.
    let cover = hypergraph::greedy_vertex_cover(h, |_| 1.0)
        .map_err(|e| QueryError::bad(format!("cover failed: {e}")))?;
    w.key("size").uint(cover.vertices.len() as u64);
    w.key("total_weight").float(cover.total_weight);
    w.key("average_degree").float(cover.average_degree(h));
    w.key("vertex_ids").begin_array();
    for &v in &cover.vertices {
        w.uint(external_id(v, opts));
    }
    w.end_array();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::HypergraphBuilder;

    fn chain() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([1, 2]);
        b.add_edge([2, 3]);
        b.build()
    }

    fn param_none(_: &str) -> Option<String> {
        None
    }

    #[test]
    fn parse_and_canonical() {
        assert_eq!(Query::parse("stats", param_none).unwrap(), Query::Stats);
        let q = Query::parse("kcore", |k| (k == "k").then(|| "3".to_string())).unwrap();
        assert_eq!(q, Query::KCore { k: Some(3) });
        assert_eq!(q.canonical(), "kcore?k=3");
        assert_eq!(
            Query::parse("kcore", param_none).unwrap().canonical(),
            "kcore"
        );

        let q = Query::parse("distance", |k| match k {
            "from" => Some("1".into()),
            "to" => Some("4".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(q.canonical(), "distance?from=1&to=4");

        assert_eq!(Query::parse("nope", param_none).unwrap_err().status, 404);
        assert_eq!(
            Query::parse("kcore", |_| Some("x".into()))
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            Query::parse("distance", param_none).unwrap_err().status,
            400
        );
    }

    #[test]
    fn stats_body() {
        let body = Query::Stats.run(&chain()).unwrap();
        assert!(body.contains("\"vertices\":4"));
        assert!(body.contains("\"hyperedges\":3"));
        assert!(body.contains("\"components\":1"));
        assert!(body.ends_with("}\n"));
    }

    #[test]
    fn distance_body_and_errors() {
        let body = Query::Distance { from: 1, to: 4 }.run(&chain()).unwrap();
        assert!(body.contains("\"distance\":3"), "{body}");

        let err = Query::Distance { from: 0, to: 4 }
            .run(&chain())
            .unwrap_err();
        assert_eq!(err.status, 400);
        let err = Query::Distance { from: 1, to: 9 }
            .run(&chain())
            .unwrap_err();
        assert!(err.message.contains("out of range"), "{}", err.message);

        // Unreachable pair → null.
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([0, 1]);
        let h = b.build();
        let body = Query::Distance { from: 1, to: 3 }.run(&h).unwrap();
        assert!(body.contains("\"distance\":null"), "{body}");
    }

    #[test]
    fn diameter_matches_library() {
        let body = Query::Diameter.run(&chain()).unwrap();
        assert!(body.contains("\"diameter\":3"), "{body}");
        assert!(body.contains("\"reachable_pairs\":12"), "{body}");
    }

    #[test]
    fn kcore_and_cover_bodies() {
        let body = Query::KCore { k: Some(1) }.run(&chain()).unwrap();
        assert!(body.contains("\"k\":1"), "{body}");
        assert!(body.contains("\"vertex_ids\":[1,2,3,4]"), "{body}");

        let body = Query::KCore { k: Some(99) }.run(&chain()).unwrap();
        assert!(body.contains("\"k\":null"), "{body}");

        let body = Query::Cover.run(&chain()).unwrap();
        assert!(body.contains("\"size\":2"), "{body}");
    }

    #[test]
    fn degrees_and_powerlaw_and_components() {
        let body = Query::Degrees.run(&chain()).unwrap();
        assert!(
            body.contains("\"vertex_degree_histogram\":[0,2,2]"),
            "{body}"
        );

        let body = Query::PowerLaw.run(&chain()).unwrap();
        assert!(body.contains("\"fit\""), "{body}");

        let body = Query::Components.run(&chain()).unwrap();
        assert!(body.contains("\"count\":1"), "{body}");
    }

    #[test]
    fn pre_expired_deadline_maps_to_504() {
        let h = chain();
        let opts = ExecOpts {
            deadline: hgobs::Deadline::after(std::time::Duration::ZERO),
            ..ExecOpts::default()
        };
        for q in [
            Query::Diameter,
            Query::KCore { k: Some(1) },
            Query::KCore { k: None },
            Query::Distance { from: 1, to: 4 },
        ] {
            let err = q.run_opts(&h, &opts).unwrap_err();
            assert_eq!(err.status, 504, "{q:?}: {}", err.message);
            assert!(err.message.contains("deadline exceeded"), "{}", err.message);
        }
    }

    #[test]
    fn expired_diameter_504_names_the_msbfs_engine() {
        // Both routing arms run the one MS-BFS sweep; the 504 body
        // carries its phase and the batches-completed work count so
        // clients can see how far the sweep got.
        let h = chain();
        for parallel in [false, true] {
            let opts = ExecOpts {
                deadline: hgobs::Deadline::after(std::time::Duration::ZERO),
                parallel,
                ..ExecOpts::default()
            };
            let err = Query::Diameter.run_opts(&h, &opts).unwrap_err();
            assert_eq!(err.status, 504, "{}", err.message);
            assert!(
                err.message.contains(" in msbfs (0 work units done"),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn expired_distance_504_names_the_pair_search() {
        let opts = ExecOpts {
            deadline: hgobs::Deadline::after(std::time::Duration::ZERO),
            ..ExecOpts::default()
        };
        let err = Query::Distance { from: 1, to: 4 }
            .run_opts(&chain(), &opts)
            .unwrap_err();
        assert_eq!(err.status, 504, "{}", err.message);
        assert!(err.message.contains("bfs.pair"), "{}", err.message);
        assert!(err.message.contains("0 work units done"), "{}", err.message);
    }

    #[test]
    fn run_within_answers_pair_queries_as_run_does_or_declines() {
        let h = chain();
        let opts = ExecOpts::default();
        assert_eq!(Query::Stats.run_within(&h, &opts, usize::MAX), None);
        for (from, to) in [(1, 4), (2, 3), (3, 3)] {
            let q = Query::Distance { from, to };
            assert_eq!(q.run_within(&h, &opts, 6), Some(q.run(&h)), "{q:?}");
        }
        // From 1 to 4 the search enters all three two-pin hyperedges.
        let far = Query::Distance { from: 1, to: 4 };
        assert_eq!(far.run_within(&h, &opts, 3), None);
        // Errors are answers too.
        let bad = Query::Distance { from: 0, to: 4 }.run_within(&h, &opts, 0);
        assert_eq!(bad.map(|r| r.unwrap_err().status), Some(400));
        let expired = ExecOpts {
            deadline: hgobs::Deadline::after(std::time::Duration::ZERO),
            ..ExecOpts::default()
        };
        let late = far.run_within(&h, &expired, usize::MAX);
        assert_eq!(late.map(|r| r.unwrap_err().status), Some(504));
    }

    /// The `distance` body for 1-based `from`/`to`, built from `dist`,
    /// the single-source BFS oracle's answer for `from`.
    fn oracle_distance_body(dist: &[u32], from: u32, to: u32) -> String {
        let d = match dist[to as usize - 1] {
            hypergraph::path::UNREACHABLE => "null".to_string(),
            d => d.to_string(),
        };
        format!("{{\"query\":\"distance?from={from}&to={to}\",\"from\":{from},\"to\":{to},\"distance\":{d}}}\n")
    }

    #[test]
    fn cellzome_distance_bodies_match_the_full_bfs() {
        let text = include_str!("../../../data/cellzome-2004.hgr");
        let h = hypergraph::io::read_hgr(text).unwrap();
        let cc = hypergraph::hypergraph_components(&h);
        let giant = cc.vertex_members(cc.largest().unwrap());
        assert!(giant.len() > 1000, "{}", giant.len());
        for &s in giant.iter().step_by(16) {
            let dist = hypergraph::hyper_distances(&h, s);
            let from = s.0 + 1;
            for to in 1..=h.num_vertices() as u32 {
                assert_eq!(
                    Query::Distance { from, to }.run(&h).unwrap(),
                    oracle_distance_body(&dist, from, to)
                );
            }
        }
    }

    /// The `kcore` body for `core`, built from the Fig. 4 engines'
    /// answer, with the pin count read off the rebuilt sub-hypergraph.
    fn oracle_kcore_body(h: &Hypergraph, query: &str, core: Option<hypergraph::KCore>) -> String {
        match core.filter(|c| !c.is_empty()) {
            Some(c) => {
                let ids: Vec<String> = c.vertices.iter().map(|v| (v.0 + 1).to_string()).collect();
                format!(
                    "{{\"query\":\"{query}\",\"k\":{},\"vertices\":{},\"hyperedges\":{},\"pins\":{},\"vertex_ids\":[{}]}}\n",
                    c.k,
                    c.vertices.len(),
                    c.edges.len(),
                    c.sub_hypergraph(h).num_pins(),
                    ids.join(",")
                )
            }
            None => format!(
                "{{\"query\":\"{query}\",\"k\":null,\"vertices\":0,\"hyperedges\":0,\"pins\":0,\"vertex_ids\":[]}}\n"
            ),
        }
    }

    #[test]
    fn kcore_bodies_match_the_fig4_engines() {
        let cellzome =
            hypergraph::io::read_hgr(include_str!("../../../data/cellzome-2004.hgr")).unwrap();
        let u6000 = hypergen::uniform_random_hypergraph(6_000, 4_500, 5, 41);
        for h in [&cellzome, &u6000] {
            let max = hypergraph::decompose(h).max_core;
            let k_max = max.as_ref().map_or(0, |c| c.k);
            assert!(k_max >= 5, "{k_max}");
            assert_eq!(
                Query::KCore { k: None }.run(h).unwrap(),
                oracle_kcore_body(h, "kcore", max)
            );
            for k in 1..=k_max + 1 {
                assert_eq!(
                    Query::KCore { k: Some(k) }.run(h).unwrap(),
                    oracle_kcore_body(
                        h,
                        &format!("kcore?k={k}"),
                        Some(hypergraph::csr_kcore(h, k))
                    )
                );
            }
        }
    }

    #[test]
    fn parallel_opts_match_sequential_bodies() {
        let h = chain();
        let par = ExecOpts {
            deadline: hgobs::Deadline::none(),
            parallel: true,
            ..ExecOpts::default()
        };
        for q in [
            Query::Diameter,
            Query::KCore { k: Some(1) },
            Query::KCore { k: None },
        ] {
            assert_eq!(q.run(&h).unwrap(), q.run_opts(&h, &par).unwrap(), "{q:?}");
        }
    }

    #[test]
    fn relabeled_dataset_answers_match_the_plain_dataset() {
        // A registry with relabeling on stores a permuted hypergraph;
        // the ExecOpts mapping must make that invisible to clients:
        // every endpoint except cover (greedy tie-breaks on internal
        // ids) returns byte-identical bodies.
        use crate::registry::{Format, Registry};
        // Four components plus an isolated vertex. The 4-5-6 component
        // ties the 1-2-3 chain on vertex count but holds the highest-
        // degree vertex, so BFS relabeling seeds it first and flips the
        // component discovery order — the shape that exposes any
        // label-dependent ordering in the response. The 7-8 / 9-10
        // pairs are fully tied and thus indistinguishable.
        const HGR: &str = "8 11\n1 2\n2 3\n4 5\n4 6\n5 6\n4 5\n7 8\n9 10\n";
        let plain = Registry::new()
            .insert_text("t", Format::Hgr, HGR, "upload")
            .unwrap();
        let relabeled = Registry::with_relabeling(true)
            .insert_text("t", Format::Hgr, HGR, "upload")
            .unwrap();
        let r = relabeled.relabeling.clone().expect("mapping stored");
        assert!(plain.relabeling.is_none());
        // The permutation is real: some vertex moved.
        assert!(
            (0..5).any(|i| r.new_vertex(VertexId(i)) != VertexId(i)),
            "relabeling collapsed to identity"
        );

        let opts = ExecOpts {
            relabel: Some(r),
            ..ExecOpts::default()
        };
        for q in [
            Query::Stats,
            Query::Degrees,
            Query::Components,
            Query::KCore { k: Some(1) },
            Query::KCore { k: None },
            Query::Diameter,
            Query::PowerLaw,
        ] {
            assert_eq!(
                q.run(&plain.hypergraph).unwrap(),
                q.run_opts(&relabeled.hypergraph, &opts).unwrap(),
                "{q:?}"
            );
        }
        // Distance pairs within a component, across components (1 -> 4),
        // from the isolated vertex 11, and to itself: both datasets serve
        // the full-BFS oracle's body.
        for (from, to) in [
            (1, 3),
            (3, 1),
            (4, 6),
            (6, 5),
            (1, 4),
            (11, 2),
            (7, 8),
            (11, 11),
        ] {
            let dist = hypergraph::hyper_distances(&plain.hypergraph, VertexId(from - 1));
            let want = oracle_distance_body(&dist, from, to);
            let q = Query::Distance { from, to };
            assert_eq!(q.run(&plain.hypergraph).unwrap(), want);
            assert_eq!(q.run_opts(&relabeled.hypergraph, &opts).unwrap(), want);
        }
        let body = Query::Distance { from: 1, to: 4 }.run(&plain.hypergraph);
        assert!(body.unwrap().contains("\"distance\":null"));
        // Cover stays a valid cover of the same size even if the tie
        // broken set differs.
        let body = Query::Cover.run_opts(&relabeled.hypergraph, &opts).unwrap();
        assert!(body.contains("\"size\":"), "{body}");
    }

    #[test]
    fn identical_queries_produce_identical_bodies() {
        let h = chain();
        for e in ENDPOINTS {
            if *e == "distance" {
                continue;
            }
            let q = Query::parse(e, param_none).unwrap();
            assert_eq!(q.run(&h).unwrap(), q.run(&h).unwrap(), "{e}");
        }
    }

    /// A traced request's phases, as `(name, count)` sorted by name.
    fn traced_phases(q: &Query, h: &Hypergraph, parallel: bool) -> Vec<(&'static str, usize)> {
        let opts = ExecOpts {
            parallel,
            trace: TraceCtx::new(1),
            ..ExecOpts::default()
        };
        q.run_opts(h, &opts).unwrap();
        let mut counts = std::collections::BTreeMap::new();
        for e in opts.trace.events() {
            *counts.entry(e.phase).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    #[test]
    fn cellzome_traces_pin_each_endpoints_phases() {
        let h = hypergraph::io::read_hgr(include_str!("../../../data/cellzome-2004.hgr")).unwrap();
        assert_eq!(h.num_vertices(), 1361);
        for q in [
            Query::Stats,
            Query::Degrees,
            Query::Components,
            Query::PowerLaw,
            Query::Cover,
        ] {
            assert_eq!(traced_phases(&q, &h, false), [], "{q:?}");
        }
        assert_eq!(
            traced_phases(&Query::KCore { k: Some(3) }, &h, false),
            [("kcore.probe.peel", 1)]
        );
        let levels = hypergraph::core_profile(&h).len();
        assert_eq!(
            traced_phases(&Query::KCore { k: None }, &h, false),
            [("kcore.probe.peel", levels + 1)]
        );
        assert_eq!(
            traced_phases(&Query::Distance { from: 2, to: 1000 }, &h, false),
            [("bfs.pair", 1)]
        );
        // One traversal order of 1,361 sources (cellzome has no
        // isolated vertex), swept in batches of 256, at either width.
        for parallel in [false, true] {
            assert_eq!(
                traced_phases(&Query::Diameter, &h, parallel),
                [("msbfs.batch", 6), ("msbfs.order", 1)]
            );
        }
    }
}

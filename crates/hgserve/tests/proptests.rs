//! Property tests for the serving layer:
//!
//! * routing a query stream through the sharded result cache must
//!   never change an answer — the cached engine replays the exact
//!   lookup/insert discipline `server::route` uses, with a budget
//!   small enough that eviction and recomputation both happen;
//! * the bucketed latency histograms behind `/metrics` must bracket
//!   the exact order statistic of the observations within one bucket;
//! * hostile input never panics: arbitrary bytes through the HTTP
//!   request parser, the `hgr`, Pajek and MatrixMarket text parsers, and
//!   request targets through `split_target` and `Query::parse` each end
//!   in a value or a structured error.

use std::sync::Arc;

use proptest::prelude::*;

use hgobs::HistSummary;
use hgserve::http::{parse_request_bytes, split_target, ParseOutcome};
use hgserve::registry::parse_text;
use hgserve::{Format, Query, ShardedLru};
use hypergraph::{Hypergraph, HypergraphBuilder};

fn arb_hypergraph(
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

/// A stream of well-formed queries whose parameters stay in range for a
/// hypergraph with `n` vertices (external ids are 1-based). The vendored
/// proptest has no `prop_oneof!`, so a selector integer picks the variant.
fn arb_queries(n: usize, len: usize) -> impl Strategy<Value = Vec<Query>> {
    let n = n as u32;
    let one = (0u32..9, 0u32..6, 1..=n, 1..=n).prop_map(|(sel, k, from, to)| match sel {
        0 => Query::Stats,
        1 => Query::Degrees,
        2 => Query::Components,
        3 => Query::KCore { k: Some(k) },
        4 => Query::KCore { k: None },
        5 => Query::Distance { from, to },
        6 => Query::Diameter,
        7 => Query::PowerLaw,
        _ => Query::Cover,
    });
    proptest::collection::vec(one, 1..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Cache-on and cache-off engines return byte-identical bodies for
    /// every query in an arbitrary stream.
    #[test]
    fn cached_answers_equal_uncached(
        (h, queries) in arb_hypergraph(12, 10, 5)
            .prop_flat_map(|h| {
                let n = h.num_vertices().max(1);
                (Just(h), arb_queries(n, 24))
            }),
        capacity in 256usize..4096,
        shards in 1usize..5,
    ) {
        let cache = ShardedLru::new(capacity, shards);
        for q in &queries {
            let direct = q.run(&h);
            let key = format!("prop@1:{}", q.canonical());
            let cached = match cache.get(&key) {
                Some(body) => Ok(body.to_string()),
                None => {
                    let r = q.run(&h);
                    if let Ok(body) = &r {
                        cache.insert(&key, Arc::new(body.clone()));
                    }
                    r
                }
            };
            prop_assert_eq!(direct, cached, "query {:?}", q);
        }
        let st = cache.stats();
        prop_assert!(st.bytes <= st.capacity_bytes, "{:?}", st);
    }

    /// The bucketed histogram's p99 (and other quantiles) bracket the
    /// exact sorted-vector order statistic within one bucket: the exact
    /// value lies in `[lo, hi]` from `quantile_bounds`, and the bucket's
    /// relative width is at most 50% of its lower bound — the error bar
    /// `/metrics` consumers inherit.
    #[test]
    fn bucketed_quantiles_bracket_exact_order_statistic(
        values in proptest::collection::vec(0u64..2_000_000, 1..400),
    ) {
        let h = HistSummary::from_values(&values);
        let mut sorted = values;
        sorted.sort_unstable();
        for &q in &[0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let (lo, hi) = h.quantile_bounds(q);
            prop_assert!(
                lo <= exact && exact <= hi,
                "q={q}: exact {exact} outside bucket [{lo}, {hi}]"
            );
            // One-bucket bracket: relative width <= 50% of the lower
            // bound for values past the exact-bucket range.
            if lo >= 2 {
                prop_assert!((hi - lo) * 2 <= lo, "q={q}: bucket [{lo}, {hi}] too wide");
            }
            // The point estimate never exceeds the observed max.
            prop_assert!(h.quantile(q) <= h.max);
        }
    }
}

/// Run `f`, failing with `input` in the message if it panics: the
/// vendored proptest does not shrink, so the printed input is the
/// reproduction.
fn must_not_panic<T>(what: &str, input: &dyn std::fmt::Debug, f: impl FnOnce() -> T) -> T {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(_) => panic!("{what} panicked on input {input:?}"),
    }
}

/// One token: a small number, sometimes one of up to six digits
/// (declared sizes beyond that belong to the dataset-size policy, not to
/// the parsers' panic-freedom), a format keyword, a separator, or a
/// stray character.
fn arb_token() -> impl Strategy<Value = String> {
    const WORDS: &[&str] = &[
        "*Vertices",
        "*Edges",
        "*Arcs",
        "*Edgeslist",
        "%%MatrixMarket",
        "coordinate",
        "array",
        "real",
        "complex",
        "symmetric",
        "hermitian",
        "Content-Length:",
        "Host:",
        "HTTP/1.1",
        "HTTP/2",
        "GET",
        "\"a b\"",
        "1e3",
        "-2.5",
        "nan",
        "%",
        "c",
    ];
    const STRAY: &[&str] = &[" ", "\n", "\r\n", "\t", "-", ".", "\"", ":", "\u{e9}", "\0"];
    (0u32..6, any::<usize>(), 1u32..=6, 0u32..1_000_000).prop_map(|(kind, pick, digits, num)| {
        match kind {
            0 | 1 => (num % 12).to_string(),
            2 => (num % 10u32.pow(digits)).to_string(),
            3 => WORDS[pick % WORDS.len()].to_string(),
            _ => STRAY[pick % STRAY.len()].to_string(),
        }
    })
}

/// Up to three edits, each inserting a token, replacing up to three
/// bytes with one, or deleting up to three bytes at a position.
fn arb_edits() -> impl Strategy<Value = Vec<(u32, usize, usize, String)>> {
    proptest::collection::vec((0u32..3, any::<usize>(), 0usize..4, arb_token()), 0..=3)
}

/// Apply `edits` to `doc`, snapping each position to a char boundary.
fn edit(mut doc: String, edits: &[(u32, usize, usize, String)]) -> String {
    let snap = |doc: &str, mut at: usize| {
        at = at.min(doc.len());
        while !doc.is_char_boundary(at) {
            at += 1;
        }
        at
    };
    for (op, at, len, token) in edits {
        let start = snap(&doc, at % (doc.len() + 1));
        let end = snap(&doc, start + len);
        match op {
            0 => doc.insert_str(start, token),
            1 => doc.replace_range(start..end, token),
            _ => doc.replace_range(start..end, ""),
        }
    }
    doc
}

/// A valid document in each text dataset format for one random edge
/// list over `n` vertices (Pajek takes each edge's first two pins,
/// MatrixMarket puts edge `i`'s pins in row `i`), edited by `edits`.
fn arb_datasets() -> impl Strategy<Value = [(Format, String); 3]> {
    let edges = (1usize..=12).prop_flat_map(|n| {
        let edge = proptest::collection::vec(0..n as u32, 0..=4);
        (Just(n), proptest::collection::vec(edge, 0..=8))
    });
    (edges, arb_edits(), arb_edits(), arb_edits()).prop_map(|((n, edges), e1, e2, e3)| {
        let mut b = HypergraphBuilder::new(n);
        for e in &edges {
            b.add_edge(e.iter().copied());
        }
        let hgr = hypergraph::io::write_hgr(&b.build());
        let mut pajek = format!("*Vertices {n}\n1 \"a\"\n*Edges\n");
        for e in edges.iter().filter(|e| e.len() >= 2) {
            pajek += &format!("{} {}\n", e[0] + 1, e[1] + 1);
        }
        let pins: Vec<(usize, u32)> = edges
            .iter()
            .enumerate()
            .flat_map(|(i, e)| e.iter().map(move |&v| (i + 1, v + 1)))
            .collect();
        let mut mtx = format!(
            "%%MatrixMarket matrix coordinate pattern general\n{} {n} {}\n",
            edges.len(),
            pins.len()
        );
        for (row, col) in pins {
            mtx += &format!("{row} {col}\n");
        }
        [
            (Format::Hgr, edit(hgr, &e1)),
            (Format::Pajek, edit(pajek, &e2)),
            (Format::MatrixMarket, edit(mtx, &e3)),
        ]
    })
}

/// Pipelined valid requests, edited by [`arb_edits`]; one case in eight
/// is raw bytes instead.
fn arb_request_bytes() -> impl Strategy<Value = Vec<u8>> {
    const REQUESTS: &[&str] = &[
        "GET /v1/d/distance?from=1&to=2 HTTP/1.1\r\nHost: a\r\n\r\n",
        "POST /datasets?name=x&format=hgr HTTP/1.1\r\nContent-Length: 8\r\n\r\n1 2\n1 2\n",
        "GET /healthz HTTP/1.0\n\n",
    ];
    (
        0u32..8,
        proptest::collection::vec(any::<usize>(), 1..=3),
        arb_edits(),
        proptest::collection::vec(any::<u8>(), 0..=160),
    )
        .prop_map(|(mode, picks, edits, raw)| {
            if mode == 0 {
                return raw;
            }
            let doc: String = picks
                .iter()
                .map(|&i| REQUESTS[i % REQUESTS.len()])
                .collect();
            edit(doc, &edits).into_bytes()
        })
}

/// A request target: `/v1/d/{endpoint}?{key}={value}&…` from endpoint,
/// key and value vocabularies (values include bad numbers and broken
/// percent escapes), or one case in eight of raw text.
fn arb_target() -> impl Strategy<Value = String> {
    const ENDPOINT: &[&str] = &[
        "stats", "kcore", "distance", "diameter", "cover", "nope", "", "kcore/x",
    ];
    const KEY: &[&str] = &["from", "to", "k", "trace", "x", "", "fr%6Fm"];
    const VALUE: &[&str] = &[
        "", "-1", "+1", "0x10", "1.0", "%31", "1%2", "%zz", "%", "\u{e9}", "a=b", "1e3",
    ];
    let pair = (
        0u32..16,
        any::<usize>(),
        any::<usize>(),
        1u32..=6,
        0u32..1_000_000,
    )
        .prop_map(|(kind, key, value, digits, num)| {
            let value = if kind < 10 {
                (num % 10u32.pow(digits)).to_string()
            } else {
                VALUE[value % VALUE.len()].to_string()
            };
            format!("{}={value}", KEY[key % KEY.len()])
        });
    (
        0u32..8,
        any::<usize>(),
        proptest::collection::vec(pair, 0..=4),
        proptest::collection::vec(any::<u8>(), 0..=48),
    )
        .prop_map(|(mode, endpoint, pairs, raw)| {
            if mode == 0 {
                return String::from_utf8_lossy(&raw).into_owned();
            }
            format!(
                "/v1/d/{}?{}",
                ENDPOINT[endpoint % ENDPOINT.len()],
                pairs.join("&")
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Any buffer parses to a request, a partial, or a 400/413/431/505.
    #[test]
    fn request_parser_never_panics(buf in arb_request_bytes(), max_body in 0usize..16) {
        let outcome = must_not_panic("parse_request_bytes", &String::from_utf8_lossy(&buf), || {
            parse_request_bytes(&buf, max_body)
        });
        match outcome {
            ParseOutcome::Complete(_, used) => {
                prop_assert!(used > 0 && used <= buf.len(), "consumed {} of {}: {:?}", used, buf.len(), buf);
            }
            ParseOutcome::Partial => {}
            ParseOutcome::Error { status, .. } => {
                prop_assert!([400, 413, 431, 505].contains(&status), "status {} on {:?}", status, buf);
            }
        }
    }

    /// The three text dataset formats return a hypergraph or an error
    /// string on any input.
    #[test]
    fn text_dataset_parsers_never_panic(docs in arb_datasets()) {
        for (format, text) in &docs {
            let what = format!("parse_text({format:?})");
            let _ = must_not_panic(&what, text, || parse_text(*format, text));
        }
    }

    /// Any request target splits and parses to a query or a 400/404;
    /// a parsed query's canonical form parses back to itself.
    #[test]
    fn query_targets_never_panic(target in arb_target()) {
        let parsed = must_not_panic("split_target + Query::parse", &target, || {
            let (path, pairs) = split_target(&target);
            let endpoint = path.rsplit('/').find(|s| !s.is_empty()).unwrap_or("").to_string();
            let param = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
            Query::parse(&endpoint, param)
        });
        match parsed {
            Ok(q) => {
                let (path, pairs) = split_target(&q.canonical());
                let param = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
                prop_assert_eq!(Query::parse(&path, param).ok(), Some(q), "{:?}", target);
            }
            Err(e) => prop_assert!([400, 404].contains(&e.status), "status {} on {:?}", e.status, target),
        }
    }
}

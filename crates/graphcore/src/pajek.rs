//! Pajek `.net` / `.clu` export for plain graphs.
//!
//! The paper draws Fig. 3 with Pajek; this module writes the formats Pajek
//! reads: a `*Vertices`/`*Edges` network file and an optional partition
//! (`.clu`) file used for colouring (e.g. max-core membership).

use std::fmt::Write as _;

use crate::graph::{Graph, NodeId};

/// Serialize `g` as a Pajek `.net` document.
///
/// `labels`, when provided, must have one entry per node; otherwise nodes
/// are labelled `v1..vn`. Pajek ids are 1-based.
pub fn write_net(g: &Graph, labels: Option<&[String]>) -> String {
    if let Some(l) = labels {
        assert_eq!(l.len(), g.num_nodes(), "one label per node required");
    }
    let mut out = String::new();
    let _ = writeln!(out, "*Vertices {}", g.num_nodes());
    for u in g.nodes() {
        let default;
        let label = match labels {
            Some(l) => &l[u.index()],
            None => {
                default = format!("v{}", u.0 + 1);
                &default
            }
        };
        let _ = writeln!(out, "{} \"{}\"", u.0 + 1, label);
    }
    let _ = writeln!(out, "*Edges");
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{} {}", u.0 + 1, v.0 + 1);
    }
    out
}

/// Serialize a node partition as a Pajek `.clu` document.
///
/// `class[u]` is the colour class of node `u` (e.g. 1 for max-core
/// members, 0 otherwise).
pub fn write_clu(class: &[u32]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "*Vertices {}", class.len());
    for &c in class {
        let _ = writeln!(out, "{c}");
    }
    out
}

/// Parse a (subset of) Pajek `.net` document: `*Vertices n` followed by
/// optional labelled vertex lines, then `*Edges`/`*Arcs` with one pair per
/// line. Returns the graph and the labels.
pub fn parse_net(text: &str) -> Result<(Graph, Vec<String>), String> {
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
    let header = lines.next().ok_or("empty document")?;
    let n: usize = header
        .strip_prefix("*Vertices")
        .ok_or("missing *Vertices header")?
        .trim()
        .parse()
        .map_err(|e| format!("bad vertex count: {e}"))?;
    if n > u32::MAX as usize {
        return Err(format!("vertex count {n} exceeds u32::MAX"));
    }

    let mut labels: Vec<String> = (1..=n).map(|i| format!("v{i}")).collect();
    let mut builder = crate::GraphBuilder::new(n);
    let mut in_edges = false;

    for line in lines {
        if line.starts_with('*') {
            let kw = line.to_ascii_lowercase();
            if kw.starts_with("*edges") || kw.starts_with("*arcs") {
                in_edges = true;
                continue;
            }
            return Err(format!("unsupported section: {line}"));
        }
        if in_edges {
            let mut it = line.split_whitespace();
            let u: usize = it
                .next()
                .ok_or("edge line missing source")?
                .parse()
                .map_err(|e| format!("bad edge endpoint: {e}"))?;
            let v: usize = it
                .next()
                .ok_or("edge line missing target")?
                .parse()
                .map_err(|e| format!("bad edge endpoint: {e}"))?;
            if u == 0 || v == 0 || u > n || v > n {
                return Err(format!("edge ({u},{v}) out of range 1..={n}"));
            }
            builder.add_edge(NodeId(u as u32 - 1), NodeId(v as u32 - 1));
        } else {
            // Vertex line: `<id> "label" [coords...]`.
            let mut it = line.splitn(2, char::is_whitespace);
            let id: usize = it
                .next()
                .unwrap()
                .parse()
                .map_err(|e| format!("bad vertex id: {e}"))?;
            if id == 0 || id > n {
                return Err(format!("vertex id {id} out of range 1..={n}"));
            }
            if let Some(rest) = it.next() {
                let rest = rest.trim();
                let label = rest
                    .strip_prefix('"')
                    .and_then(|s| s.split('"').next())
                    .unwrap_or(rest);
                labels[id - 1] = label.to_string();
            }
        }
    }
    Ok((builder.build(), labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.build()
    }

    #[test]
    fn net_roundtrip_default_labels() {
        let g = sample();
        let text = write_net(&g, None);
        let (g2, labels) = parse_net(&text).unwrap();
        assert_eq!(g2.num_nodes(), 3);
        assert_eq!(g2.num_edges(), 2);
        assert!(g2.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(labels[0], "v1");
    }

    #[test]
    fn net_roundtrip_custom_labels() {
        let g = sample();
        let labels: Vec<String> = ["ADH1", "CDC28", "TUB1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let text = write_net(&g, Some(&labels));
        let (_, parsed) = parse_net(&text).unwrap();
        assert_eq!(parsed, labels);
    }

    #[test]
    fn clu_format() {
        let text = write_clu(&[0, 1, 1]);
        assert_eq!(text, "*Vertices 3\n0\n1\n1\n");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_net("").is_err());
        assert!(parse_net("*Vertices x").is_err());
        assert!(parse_net("*Vertices 2\n*Edges\n1 5").is_err());
        assert!(parse_net("*Vertices 1\n*Matrix").is_err());
        assert!(parse_net("*Vertices 4294967296\n").is_err());
    }
}

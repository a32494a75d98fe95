//! Plain-text hypergraph I/O in an hMETIS-style `.hgr` format.
//!
//! Line 1: `<num_hyperedges> <num_vertices>`. Then one line per hyperedge
//! listing its member vertices as **1-based** ids separated by whitespace;
//! an empty (whitespace-only) line is an empty hyperedge. Lines starting
//! with `%` are comments and ignored anywhere in the file.

use crate::hypergraph::Hypergraph;

/// Serialize `h` to `.hgr` text.
pub fn write_hgr(h: &Hypergraph) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{} {}", h.num_edges(), h.num_vertices());
    for f in h.edges() {
        let mut first = true;
        for &v in h.pins(f) {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{}", v.0 + 1);
            first = false;
        }
        out.push('\n');
    }
    out
}

/// Structured error from parsing `.hgr` text: what went wrong and, when
/// it is attributable to one input line, the **1-based** line number.
/// Callers (the CLI, `hg serve`'s `POST /datasets` 400 responses) can
/// point users at the exact offending line instead of a bare message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HgrError {
    /// 1-based line in the input text, counting every physical line
    /// (comments included); `None` for whole-document errors such as a
    /// truncated file.
    pub line: Option<usize>,
    /// Human-readable description of the problem.
    pub message: String,
}

impl HgrError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        HgrError {
            line: Some(line),
            message: message.into(),
        }
    }

    fn whole(message: impl Into<String>) -> Self {
        HgrError {
            line: None,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HgrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(n) => write!(f, "hgr parse error at line {n}: {}", self.message),
            None => write!(f, "hgr parse error: {}", self.message),
        }
    }
}

impl std::error::Error for HgrError {}

/// Non-comment lines of the document, tagged with **1-based physical**
/// line numbers (comments still count toward the numbering).
fn content_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .filter(|(_, l)| !l.trim_start().starts_with('%'))
}

/// Parse the `<num_hyperedges> <num_vertices>` header line. The vertex
/// count must fit the `u32` ids the CSR stores.
fn parse_header(header_no: usize, header: &str) -> Result<(usize, usize), HgrError> {
    let mut it = header.split_whitespace();
    let m: usize = it
        .next()
        .ok_or_else(|| HgrError::at(header_no, "missing hyperedge count"))?
        .parse()
        .map_err(|e| HgrError::at(header_no, format!("bad hyperedge count: {e}")))?;
    let n: usize = it
        .next()
        .ok_or_else(|| HgrError::at(header_no, "missing vertex count"))?
        .parse()
        .map_err(|e| HgrError::at(header_no, format!("bad vertex count: {e}")))?;
    if n > u32::MAX as usize {
        return Err(HgrError::at(
            header_no,
            format!("vertex count {n} exceeds u32::MAX"),
        ));
    }
    Ok((m, n))
}

/// Parse `.hgr` text into a [`Hypergraph`].
///
/// Two-pass streamed build: pass 1 parses the header and *counts*
/// whitespace tokens (no ids are parsed, so every data error still
/// surfaces in pass 2 at its original line, in the original order);
/// pass 2 fills an exactly-preallocated edge-side CSR in place. Peak
/// memory is the CSR itself plus the input text — the old
/// per-line `Vec` + builder-copy path peaked at ~2x the pin data.
pub fn read_hgr(text: &str) -> Result<Hypergraph, HgrError> {
    // Pass 1: header + token census for exact preallocation.
    let mut lines = content_lines(text);
    let (header_no, header) = lines
        .next()
        .ok_or_else(|| HgrError::whole("empty document"))?;
    let (m, n) = parse_header(header_no, header)?;
    let mut edge_lines = 0usize;
    let mut total_pins = 0usize;
    for (_, line) in lines.take(m) {
        edge_lines += 1;
        total_pins += line.split_whitespace().count();
    }

    // Pass 2: fill the CSR in place, reproducing the single-pass error
    // paths (message, line number, and firing order are identical).
    let mut pins: Vec<u32> = Vec::with_capacity(total_pins);
    // Sized by the lines the text holds, not the declared count, so a
    // hostile header cannot drive the allocation.
    let mut offsets: Vec<u32> = Vec::with_capacity(edge_lines + 1);
    offsets.push(0);
    let mut lines = content_lines(text);
    lines.next(); // header, already parsed
    let mut parsed = 0usize;
    for (line_no, line) in lines {
        if parsed == m {
            if !line.trim().is_empty() {
                return Err(HgrError::at(
                    line_no,
                    format!("more than {m} hyperedge lines"),
                ));
            }
            continue;
        }
        let start = pins.len();
        for tok in line.split_whitespace() {
            let v: usize = tok
                .parse()
                .map_err(|e| HgrError::at(line_no, format!("bad vertex id `{tok}`: {e}")))?;
            if v == 0 || v > n {
                return Err(HgrError::at(
                    line_no,
                    format!("vertex id {v} out of range 1..={n}"),
                ));
            }
            pins.push((v - 1) as u32);
        }
        // Sort + dedup the new tail in place (builder semantics).
        pins[start..].sort_unstable();
        let mut write = start;
        for read in start..pins.len() {
            if read == start || pins[read] != pins[write - 1] {
                pins[write] = pins[read];
                write += 1;
            }
        }
        pins.truncate(write);
        assert!(pins.len() <= u32::MAX as usize, "pin count exceeds u32");
        offsets.push(pins.len() as u32);
        parsed += 1;
    }
    if parsed != m {
        return Err(HgrError::whole(format!(
            "expected {m} hyperedge lines, found {parsed}"
        )));
    }
    Ok(crate::builder::build_from_edge_csr(n, offsets, pins))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HypergraphBuilder;
    use crate::hypergraph::{EdgeId, VertexId};

    fn toy() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1, 2]);
        b.add_edge([2, 3]);
        b.add_edge([]);
        b.build()
    }

    #[test]
    fn roundtrip() {
        let h = toy();
        let text = write_hgr(&h);
        let h2 = read_hgr(&text).unwrap();
        assert_eq!(h2.num_vertices(), h.num_vertices());
        assert_eq!(h2.num_edges(), h.num_edges());
        for f in h.edges() {
            assert_eq!(h.pins(f), h2.pins(f));
        }
    }

    #[test]
    fn format_shape() {
        let text = write_hgr(&toy());
        assert_eq!(text, "3 4\n1 2 3\n3 4\n\n");
    }

    #[test]
    fn comments_ignored() {
        let text = "% comment\n2 3\n1 2\n% another\n2 3\n";
        let h = read_hgr(text).unwrap();
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.pins(EdgeId(1)), &[VertexId(1), VertexId(2)]);
    }

    #[test]
    fn errors() {
        assert!(read_hgr("").is_err());
        assert!(read_hgr("x 3\n").is_err());
        assert!(read_hgr("1\n").is_err());
        assert!(read_hgr("1 2\n3\n").is_err()); // vertex out of range
        assert!(read_hgr("1 2\n0\n").is_err()); // ids are 1-based
        assert!(read_hgr("2 2\n1\n").is_err()); // too few edge lines
        assert!(read_hgr("1 2\n1\n2\n").is_err()); // too many edge lines
        assert_eq!(read_hgr("0 4294967296\n").unwrap_err().line, Some(1)); // ids past u32
        assert!(read_hgr("1000000000000 1\n1\n").is_err()); // count far past the lines
    }

    #[test]
    fn trailing_blank_lines_ok() {
        let h = read_hgr("1 2\n1 2\n\n\n").unwrap();
        assert_eq!(h.num_edges(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        // Physical line numbers, comments counted: the bad id is line 4.
        let err = read_hgr("% header comment\n2 3\n1 2\nbogus\n").unwrap_err();
        assert_eq!(err.line, Some(4));
        assert!(err.message.contains("bad vertex id `bogus`"), "{err}");
        assert!(err.to_string().starts_with("hgr parse error at line 4:"));

        let err = read_hgr("1 2\n7\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.message.contains("out of range"), "{err}");

        let err = read_hgr("x 3\n").unwrap_err();
        assert_eq!(err.line, Some(1));

        // Truncated document: not attributable to any one line.
        let err = read_hgr("2 2\n1\n").unwrap_err();
        assert_eq!(err.line, None);
        assert!(err.to_string().starts_with("hgr parse error: expected"));
    }

    /// The two-pass reader must reproduce the single-pass reader's
    /// error strings byte for byte — these are the exact messages the
    /// CLI and `hg serve`'s 400 responses have always shown.
    #[test]
    fn error_strings_regression() {
        let cases: &[(&str, &str)] = &[
            ("", "hgr parse error: empty document"),
            ("% only a comment\n", "hgr parse error: empty document"),
            ("\n", "hgr parse error at line 1: missing hyperedge count"),
            (
                "x 3\n",
                "hgr parse error at line 1: bad hyperedge count: invalid digit found in string",
            ),
            ("1\n", "hgr parse error at line 1: missing vertex count"),
            (
                "1 y\n",
                "hgr parse error at line 1: bad vertex count: invalid digit found in string",
            ),
            (
                "1 2\nbogus\n",
                "hgr parse error at line 2: bad vertex id `bogus`: invalid digit found in string",
            ),
            (
                "1 2\n3\n",
                "hgr parse error at line 2: vertex id 3 out of range 1..=2",
            ),
            (
                "1 2\n0\n",
                "hgr parse error at line 2: vertex id 0 out of range 1..=2",
            ),
            (
                "1 2\n1\n2\n",
                "hgr parse error at line 3: more than 1 hyperedge lines",
            ),
            (
                "2 2\n1\n",
                "hgr parse error: expected 2 hyperedge lines, found 1",
            ),
        ];
        for (input, want) in cases {
            let err = read_hgr(input).unwrap_err();
            assert_eq!(&err.to_string(), want, "input {input:?}");
        }
    }

    /// Error *ordering* matches the single-pass reader too: a bad id on
    /// an early line wins over a later excess-lines error, even though
    /// pass 1 walks the whole document first.
    #[test]
    fn error_order_matches_single_pass() {
        let err = read_hgr("1 2\nbogus\n2\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.message.contains("bad vertex id `bogus`"), "{err}");
    }

    /// Exact preallocation: the CSR arrays come out with no spare
    /// capacity on a clean parse.
    #[test]
    fn two_pass_preallocates_exactly() {
        let h = read_hgr("3 5\n1 2 3\n% comment between edges\n2 3 4\n5\n").unwrap();
        assert_eq!(h.num_pins(), 7);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.pins(EdgeId(2)), &[VertexId(4)]);
    }
}

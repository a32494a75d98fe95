//! Plain-text hypergraph I/O in an hMETIS-style `.hgr` format.
//!
//! Line 1: `<num_hyperedges> <num_vertices>`, optionally followed by
//! hMETIS's `fmt` field, which must be `0`. Then one line per hyperedge
//! listing its member vertices as **1-based** ids separated by whitespace;
//! an empty (whitespace-only) line is an empty hyperedge. Lines starting
//! with `%` are comments and ignored anywhere in the file.
//!
//! hMETIS's weighted variants are refused at the header line, naming the
//! field: with `fmt` 1 a weight leads each hyperedge line, with 10 vertex
//! weight lines follow the hyperedges, with 11 both. Read as plain
//! hyperedges, `fmt` 1 would load each weight as a vertex id without any
//! error, so no third field other than `0` is accepted.
//!
//! # How [`read_hgr`] reads
//!
//! Lines and whitespace mean what `str::lines` and `char::is_whitespace`
//! say: lines split at `\n`, a final line without one counts, comment
//! lines count toward the line numbers, and U+00A0, U+3000 and the other
//! Unicode spaces separate ids just as tab and space do. The header is
//! the first line that is not a comment. The rest of the document, the
//! body, is read in two passes over its bytes:
//!
//! 1. **A token count** sizes the pin array. It counts every byte that is
//!    neither ASCII whitespace nor part of a non-ASCII char and follows
//!    one that is, in chunks tallied in `u8`, so the loop vectorizes.
//!    Every id is ASCII and every non-ASCII char a valid body holds is
//!    whitespace, so the count is exact for a body without comment lines
//!    or text past the last hyperedge, and otherwise above the pin count.
//!    The same pass counts the body's lines, which (capped at the declared
//!    hyperedge count) size the offset array.
//! 2. **One byte pass** parses. It classifies each byte: ASCII digits
//!    accumulate straight into the id, ASCII whitespace ends it, and `\n`
//!    ends the line, whose ids are then sorted and deduplicated in place
//!    (the builder's semantics). A byte at or above 0x80 is decoded, and
//!    the char is asked whether it is whitespace.
//!
//! A token that is not a plain ASCII digit run short enough to fit
//! `usize` (a `+`, a `-`, a letter, a non-ASCII char, a longer run) takes
//! the slow path: it runs to the next whitespace char and goes to
//! `str::parse::<usize>`, so its id or its error text is std's (`+5` is
//! vertex 5, `-5` is an invalid digit, a 20-digit run may be too large).
//! That path keeps the byte loop from having to know std's integer
//! grammar and error messages.

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

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with('%')
}

/// Parse the `<num_hyperedges> <num_vertices> [fmt]` header line. The
/// vertex count must fit the `u32` ids the CSR stores, and `fmt`, when
/// present, must be `0`: the weighted variants would be misread.
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
    if let Some(fmt) = it.next().filter(|&fmt| fmt != "0") {
        return Err(HgrError::at(
            header_no,
            format!("unsupported fmt field `{fmt}`: weighted hMETIS input is not read, only fmt 0"),
        ));
    }
    Ok((m, n))
}

/// The ASCII chars `char::is_whitespace` accepts: tab, LF, VT, FF, CR
/// and space.
fn is_ascii_space(b: u8) -> bool {
    b == b' ' || b.wrapping_sub(b'\t') < 5
}

/// Byte length of the char at byte `i` of `s` if it is whitespace, else 0.
#[inline]
fn space_len(s: &str, i: usize) -> usize {
    match s.as_bytes()[i] {
        b if b < 0x80 => usize::from(is_ascii_space(b)),
        _ => unicode_space_len(s, i),
    }
}

/// [`space_len`] for a char outside ASCII: decode it and ask. Kept out of
/// line, like [`parse_token`]: ids are ASCII, and the byte loop ran
/// faster without the decode inlined (EXPERIMENTS A22).
#[cold]
#[inline(never)]
fn unicode_space_len(s: &str, i: usize) -> usize {
    s[i..]
        .chars()
        .next()
        .filter(|c| c.is_whitespace())
        .map_or(0, char::len_utf8)
}

/// The first byte at or after `i` that is not whitespace, or the `\n`
/// that ends the line.
fn skip_blanks(s: &str, mut i: usize) -> usize {
    while i < s.len() && s.as_bytes()[i] != b'\n' {
        match space_len(s, i) {
            0 => break,
            w => i += w,
        }
    }
    i
}

/// Longest decimal run the fast path reads: any run this long fits `usize`.
const FAST_DIGITS: usize = usize::MAX.ilog10() as usize;

/// The slow path: the token starting at byte `i` runs to the next
/// whitespace char and is std's to parse. Returns the id and the byte
/// just past the token, or the error message.
#[cold]
#[inline(never)]
fn parse_token(body: &str, i: usize) -> Result<(usize, usize), String> {
    let end = body[i..]
        .find(char::is_whitespace)
        .map_or(body.len(), |k| i + k);
    let tok = &body[i..end];
    tok.parse()
        .map(|v| (v, end))
        .map_err(|e| format!("bad vertex id `{tok}`: {e}"))
}

/// Upper bound on the ids in `body` (exact without comment lines or text
/// past the last hyperedge), and the number of lines in it.
fn census(body: &[u8]) -> (usize, usize) {
    let Some((&first, rest)) = body.split_first() else {
        return (0, 0);
    };
    let gap = |b: u8| is_ascii_space(b) | (b >= 0x80);
    let mut tokens = usize::from(!gap(first));
    let mut newlines = usize::from(first == b'\n');
    // Pairs (previous byte, byte) in chunks of 255, tallied in `u8` so
    // the loop vectorizes and no tally overflows.
    for (prev, cur) in body.chunks(255).zip(rest.chunks(255)) {
        let starts = prev
            .iter()
            .zip(cur)
            .fold(0u8, |t, (&a, &b)| t + u8::from(gap(a) & !gap(b)));
        let breaks = cur.iter().fold(0u8, |t, &b| t + u8::from(b == b'\n'));
        tokens += usize::from(starts);
        newlines += usize::from(breaks);
    }
    (tokens, newlines + usize::from(body.last() != Some(&b'\n')))
}

/// Parse `.hgr` text into a [`Hypergraph`].
///
/// One pass over the bytes after the header fills an edge-side CSR in
/// place, after a vectorized token count has sized it (see the module
/// doc): digits accumulate straight into each id, each line's ids are
/// sorted and deduplicated in place when its `\n` is reached, and any
/// token other than a short ASCII digit run goes to `str::parse`, so ids
/// and error texts are std's.
///
/// Memory: the pin and offset arrays are allocated once each, sized by
/// what the body holds (its token count, and its line count capped at the
/// declared hyperedge count), never by the header alone and never
/// over-allocated and shrunk. The per-vertex arrays are allocated only
/// after every line has parsed, so a header declaring billions of
/// vertices above a bad line 2 fails without allocating them. Peak memory
/// is the CSR itself plus the input text.
///
/// Errors fire in text order: a bad header, then the first bad token
/// (not a `usize`, or outside `1..=n`), then `more than {m} hyperedge
/// lines` at the first non-blank content line after the m-th, then
/// `expected {m} hyperedge lines, found {k}`. A header whose `fmt` field
/// is not `0` is refused at its line.
pub fn read_hgr(text: &str) -> Result<Hypergraph, HgrError> {
    let mut body_start = 0;
    let mut header = None;
    for (i, line) in text.split_inclusive('\n').enumerate() {
        body_start += line.len();
        if !is_comment(line) {
            header = Some((i + 1, line));
            break;
        }
    }
    let (header_no, header) = header.ok_or_else(|| HgrError::whole("empty document"))?;
    let (m, n) = parse_header(header_no, header)?;

    let body = &text[body_start..];
    let bytes = body.as_bytes();
    let (tokens, lines) = census(bytes);
    let mut pins: Vec<u32> = Vec::with_capacity(tokens);
    let mut offsets: Vec<u32> = Vec::with_capacity(m.min(lines) + 1);
    offsets.push(0);
    let mut parsed = 0usize;
    let mut line_no = header_no;
    let mut i = 0;
    while i < bytes.len() {
        line_no += 1;
        i = skip_blanks(body, i);
        if bytes.get(i) == Some(&b'%') {
            i = bytes[i..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |k| i + k + 1);
            continue;
        }
        if parsed == m {
            if i < bytes.len() && bytes[i] != b'\n' {
                return Err(HgrError::at(
                    line_no,
                    format!("more than {m} hyperedge lines"),
                ));
            }
            i += 1;
            continue;
        }
        let start = pins.len();
        let mut prev = None;
        let mut sorted = true;
        while let Some(&b) = bytes.get(i) {
            // A digit run short enough for `usize` and ended by
            // whitespace is read here; any other token goes to std.
            let tok = i;
            let fast = match b {
                b'\n' => break,
                b'0'..=b'9' => {
                    let mut v = 0usize;
                    while let Some(&d @ b'0'..=b'9') = bytes.get(i) {
                        v = v.wrapping_mul(10).wrapping_add(usize::from(d - b'0'));
                        i += 1;
                    }
                    let ends = i == bytes.len() || space_len(body, i) > 0;
                    (ends && i - tok <= FAST_DIGITS).then_some(v)
                }
                _ => match space_len(body, i) {
                    0 => None,
                    w => {
                        i += w;
                        continue;
                    }
                },
            };
            let v = match fast {
                Some(v) => v,
                None => {
                    let (v, end) =
                        parse_token(body, tok).map_err(|msg| HgrError::at(line_no, msg))?;
                    i = end;
                    v
                }
            };
            if v == 0 || v > n {
                return Err(HgrError::at(
                    line_no,
                    format!("vertex id {v} out of range 1..={n}"),
                ));
            }
            let id = (v - 1) as u32;
            sorted &= prev < Some(id);
            prev = Some(id);
            pins.push(id);
        }
        i += 1;
        // Sort + dedup the line's ids in place (builder semantics),
        // unless they came strictly increasing, as `write_hgr` writes them.
        if !sorted {
            crate::builder::sort_dedup_tail(&mut pins, start);
        }
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
    use proptest::prelude::*;

    /// The reader [`read_hgr`] replaced, kept as its oracle: `str::lines`,
    /// `split_whitespace` and `str::parse`, in two passes (a token census
    /// over the first `m` content lines, then the parse into a CSR
    /// preallocated from it).
    fn two_pass_read_hgr(text: &str) -> Result<Hypergraph, HgrError> {
        let content_lines = || {
            text.lines()
                .enumerate()
                .map(|(i, l)| (i + 1, l))
                .filter(|(_, l)| !is_comment(l))
        };
        let mut lines = content_lines();
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
        let mut pins: Vec<u32> = Vec::with_capacity(total_pins);
        let mut offsets: Vec<u32> = Vec::with_capacity(edge_lines + 1);
        offsets.push(0);
        let mut parsed = 0usize;
        for (line_no, line) in content_lines().skip(1) {
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
            pins[start..].sort_unstable();
            let mut write = start;
            for read in start..pins.len() {
                if read == start || pins[read] != pins[write - 1] {
                    pins[write] = pins[read];
                    write += 1;
                }
            }
            pins.truncate(write);
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

    /// Both readers give the same CSR arrays, or the same error.
    fn assert_same_as_oracle(text: &str) {
        match (read_hgr(text), two_pass_read_hgr(text)) {
            (Ok(h), Ok(want)) => {
                assert_eq!(h.num_vertices(), want.num_vertices(), "{text:?}");
                assert_eq!(h.csr_slices(), want.csr_slices(), "{text:?}");
            }
            (Err(e), Err(want)) => assert_eq!(e, want, "{text:?}"),
            (got, want) => panic!("{text:?}: read_hgr {got:?}, oracle {want:?}"),
        }
    }

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

    /// The reader must reproduce the single-pass reader's
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
            (
                "2 3 1\n1 1 2\n1 2 3\n",
                "hgr parse error at line 1: unsupported fmt field `1`: \
                 weighted hMETIS input is not read, only fmt 0",
            ),
            (
                "2 3 10\n1 2\n2 3\n5\n7\n9\n",
                "hgr parse error at line 1: unsupported fmt field `10`: \
                 weighted hMETIS input is not read, only fmt 0",
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

    /// A comment line between hyperedges adds no pin and no hyperedge,
    /// and shifts no hyperedge id: the last line is still hyperedge 2.
    #[test]
    fn comment_between_hyperedges_adds_nothing() {
        let h = read_hgr("3 5\n1 2 3\n% comment between edges\n2 3 4\n5\n").unwrap();
        assert_eq!(h.num_pins(), 7);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.pins(EdgeId(2)), &[VertexId(4)]);
    }

    /// Whitespace is `char::is_whitespace`, tokens are std's: the cases
    /// the byte loop hands to the slow path or decodes.
    #[test]
    fn unicode_spaces_signs_and_long_runs_match_the_oracle() {
        for text in [
            "1 5\n1\u{a0}2\u{2003}3\u{3000}4\u{85}5\n",
            "1 5\n+5 0003 00000000000000000004\n",
            "1 5\n99999999999999999999\n",
            "1 5\n1 -2\n",
            "1 5\n1 2\u{e9}\n",
            "2 3\r\n1\u{b}2\u{c}3\r\n\u{a0}% comment\n\n",
            "1 3\n1 2\n\u{3000}\n",
            "1 3\n1 2\n\u{2028}x\n",
        ] {
            assert_same_as_oracle(text);
        }
        let h = read_hgr("1 5\n1\u{a0}2\u{2003}3\u{3000}4\u{85}5\n").unwrap();
        assert_eq!(h.num_pins(), 5);
        let h = read_hgr("1 5\n+5 0003 00000000000000000004\n").unwrap();
        let want: Vec<_> = [2, 3, 4].map(VertexId).to_vec();
        assert_eq!(h.pins(EdgeId(0)), &want[..]);
    }

    /// One id token: 1 in 8 tokens of a `bad` document is malformed (out
    /// of range, too large, signed, lettered, non-ASCII, a stray `%`).
    fn token(n: usize, bad: bool, pick: u64) -> String {
        let id = 1 + (pick >> 16) as usize % n;
        if bad && (pick >> 4) % 8 == 0 {
            return match (pick >> 7) % 11 {
                0 => "0".to_string(),
                1 => (n + 1).to_string(),
                2 => "99999999999999999999".to_string(),
                3 => "9999999999999999999".to_string(),
                4 => format!("-{id}"),
                5 => "-".to_string(),
                6 => format!("{id}x"),
                7 => "x".to_string(),
                8 => format!("{id}\u{e9}"),
                9 => "\u{e9}".to_string(),
                _ => format!("%{id}"),
            };
        }
        match pick % 8 {
            0 => format!("{id:03}"),
            1 => format!("+{id}"),
            2 => format!("{id:019}"),
            3 => format!("{id:020}"),
            _ => id.to_string(),
        }
    }

    const SPACES: &[&str] = &[
        " ", " ", " ", "\t", "  ", "\u{b}", "\u{c}", "\r", "\u{a0}", "\u{2003}", "\u{3000}",
        "\u{85}",
    ];

    /// A document from a header variant and a list of line pieces, or one
    /// time in eight an arbitrary string.
    fn arb_hgr_document() -> impl Strategy<Value = String> {
        let line = (0u8..16, collection::vec(any::<u64>(), 0..=6));
        (
            any::<u64>(),
            1usize..=9,
            collection::vec(line, 0..=8),
            collection::vec(any::<u32>(), 0..=40),
        )
            .prop_map(|(knobs, n, lines, chars)| {
                if knobs % 8 == 0 {
                    return arbitrary_text(&chars);
                }
                let bad = knobs & 0x10 != 0;
                let crlf = knobs & 0x20 != 0;
                let mut body = String::new();
                let mut edge_lines = 0usize;
                for (kind, picks) in &lines {
                    let eol = if crlf { "\r\n" } else { "\n" };
                    let space = |p: u64| SPACES[(p >> 40) as usize % SPACES.len()];
                    match kind {
                        0 => body += &format!("%{}{eol}", picks.len()),
                        1 => body += &format!("{}% c {}{eol}", space(knobs), picks.len()),
                        2 => body += eol,
                        3 => body += &format!("{}{eol}", space(knobs >> 3)),
                        _ => {
                            edge_lines += 1;
                            if kind % 3 == 0 {
                                body += space(knobs >> 5);
                            }
                            for (j, &p) in picks.iter().enumerate() {
                                if j > 0 {
                                    body += space(p);
                                }
                                body += &token(n, bad, p);
                            }
                            body += eol;
                        }
                    }
                }
                if knobs & 0x40 != 0 && body.ends_with('\n') {
                    body.pop();
                }
                let m = match (knobs >> 8) % 6 {
                    0 => edge_lines.saturating_sub(1),
                    1 => edge_lines + 1,
                    _ => edge_lines,
                };
                let header = match (knobs >> 12) % 10 {
                    0 => format!("% leading comment\n{m} {n}\n"),
                    1 => format!("{m} {n} 0\n"),
                    2 => format!("{m} {n} 1\n"),
                    3 => format!("\t{m}\u{a0}{n}\r\n"),
                    4 => format!("{m}\n"),
                    5 => format!("{m} x\n"),
                    _ => format!("{m} {n}\n"),
                };
                header + &body
            })
    }

    /// Chars drawn mostly from the format's own alphabet, some arbitrary.
    fn arbitrary_text(chars: &[u32]) -> String {
        const ALPHABET: &[char] = &[
            '0', '1', '2', '3', '9', ' ', ' ', '\n', '\n', '\r', '\t', '%', '+', '-', 'x',
            '\u{e9}', '\u{a0}', '\u{85}', '\u{3000}', '\u{b}',
        ];
        chars
            .iter()
            .map(|&c| match c % 4 {
                0 => char::from_u32((c >> 2) % 0x11_0000).unwrap_or('\u{fffd}'),
                _ => ALPHABET[(c >> 2) as usize % ALPHABET.len()],
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The byte-pass reader and the two-pass oracle agree on every
        /// document: the same CSR arrays, or the same error line and message.
        #[test]
        fn byte_pass_matches_two_pass_oracle(text in arb_hgr_document()) {
            assert_same_as_oracle(&text);
        }
    }
}

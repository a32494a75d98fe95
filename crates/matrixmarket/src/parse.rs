//! Matrix Market coordinate-format parser.
//!
//! Supports `matrix coordinate {real|integer|pattern|complex}` with
//! `{general|symmetric|skew-symmetric|hermitian}` symmetry. Symmetric
//! variants are expanded to full storage. Array (dense) format is
//! rejected — the Table 1 matrices are all sparse.

use crate::CoordMatrix;

/// Error from parsing `.mtx` text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MtxError(pub String);

impl std::fmt::Display for MtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MatrixMarket parse error: {}", self.0)
    }
}

impl std::error::Error for MtxError {}

fn err(msg: impl Into<String>) -> MtxError {
    MtxError(msg.into())
}

/// Parse Matrix Market coordinate text into a [`CoordMatrix`].
pub fn parse_mtx(text: &str) -> Result<CoordMatrix, MtxError> {
    let mut lines = text.lines();
    let banner = lines.next().ok_or_else(|| err("empty document"))?;
    let fields: Vec<String> = banner
        .split_whitespace()
        .map(|s| s.to_ascii_lowercase())
        .collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" {
        return Err(err(format!("bad banner: `{banner}`")));
    }
    if fields[1] != "matrix" {
        return Err(err(format!("unsupported object `{}`", fields[1])));
    }
    if fields[2] != "coordinate" {
        return Err(err(format!(
            "unsupported format `{}` (only coordinate)",
            fields[2]
        )));
    }
    let field = fields[3].as_str();
    let values_per_entry = match field {
        "real" | "integer" => 1,
        "pattern" => 0,
        "complex" => 2,
        other => return Err(err(format!("unsupported field `{other}`"))),
    };
    let symmetry = fields[4].as_str();
    let (mirror, skew) = match symmetry {
        "general" => (false, false),
        "symmetric" | "hermitian" => (true, false),
        "skew-symmetric" => (true, true),
        other => return Err(err(format!("unsupported symmetry `{other}`"))),
    };

    // Size line: first non-comment, non-blank line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| err("missing size line"))?;
    let mut it = size_line.split_whitespace();
    let nrows: usize = it
        .next()
        .ok_or_else(|| err("missing row count"))?
        .parse()
        .map_err(|e| err(format!("bad row count: {e}")))?;
    let ncols: usize = it
        .next()
        .ok_or_else(|| err("missing column count"))?
        .parse()
        .map_err(|e| err(format!("bad column count: {e}")))?;
    let nnz: usize = it
        .next()
        .ok_or_else(|| err("missing nnz count"))?
        .parse()
        .map_err(|e| err(format!("bad nnz count: {e}")))?;
    if nrows > u32::MAX as usize || ncols > u32::MAX as usize {
        return Err(err(format!(
            "size {nrows} x {ncols} exceeds u32::MAX rows or columns"
        )));
    }

    // Reserve for the entry lines the text holds, not the declared nnz,
    // so a hostile size line cannot drive the allocation.
    let entries = lines.clone().count().min(nnz);
    let mut triplets: Vec<(u32, u32, f64)> =
        Vec::with_capacity(if mirror { 2 * entries } else { entries });
    let mut parsed = 0usize;
    for line in lines {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        if parsed == nnz {
            return Err(err(format!("more than {nnz} entry lines")));
        }
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| err("entry missing row"))?
            .parse()
            .map_err(|e| err(format!("bad row index: {e}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| err("entry missing column"))?
            .parse()
            .map_err(|e| err(format!("bad column index: {e}")))?;
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(err(format!(
                "entry ({r}, {c}) out of 1..={nrows} x 1..={ncols}"
            )));
        }
        let v = match values_per_entry {
            0 => 1.0,
            1 => it
                .next()
                .ok_or_else(|| err("entry missing value"))?
                .parse::<f64>()
                .map_err(|e| err(format!("bad value: {e}")))?,
            _ => {
                // Complex: store the real part's magnitude contribution as
                // the modulus, which is what the pattern-level algorithms
                // here care about.
                let re: f64 = it
                    .next()
                    .ok_or_else(|| err("complex entry missing real part"))?
                    .parse()
                    .map_err(|e| err(format!("bad value: {e}")))?;
                let im: f64 = it
                    .next()
                    .ok_or_else(|| err("complex entry missing imaginary part"))?
                    .parse()
                    .map_err(|e| err(format!("bad value: {e}")))?;
                (re * re + im * im).sqrt()
            }
        };
        let (r0, c0) = ((r - 1) as u32, (c - 1) as u32);
        triplets.push((r0, c0, v));
        if mirror && r != c {
            triplets.push((c0, r0, if skew { -v } else { v }));
        }
        parsed += 1;
    }
    if parsed != nnz {
        return Err(err(format!("expected {nnz} entries, found {parsed}")));
    }
    Ok(CoordMatrix::from_triplets(nrows, ncols, triplets))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 3\n\
                    1 1 2.5\n\
                    2 3 -1\n\
                    3 1 4\n";
        let m = parse_mtx(text).unwrap();
        assert_eq!((m.nrows, m.ncols, m.nnz()), (3, 3, 3));
        assert_eq!(m.entries[0], (0, 0, 2.5));
        assert_eq!(m.entries[1], (1, 2, -1.0));
    }

    #[test]
    fn pattern_defaults_to_one() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m = parse_mtx(text).unwrap();
        assert_eq!(m.entries, vec![(0, 1, 1.0), (1, 0, 1.0)]);
    }

    #[test]
    fn symmetric_expands() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5\n3 3 7\n";
        let m = parse_mtx(text).unwrap();
        assert_eq!(m.nnz(), 3); // (1,0), (0,1), (2,2)
        assert!(m.entries.contains(&(0, 1, 5.0)));
        assert!(m.entries.contains(&(1, 0, 5.0)));
        assert!(m.entries.contains(&(2, 2, 7.0)));
    }

    #[test]
    fn skew_symmetric_negates() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3\n";
        let m = parse_mtx(text).unwrap();
        assert!(m.entries.contains(&(0, 1, -3.0)));
        assert!(m.entries.contains(&(1, 0, 3.0)));
    }

    #[test]
    fn complex_takes_modulus() {
        let text = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 3 4\n";
        let m = parse_mtx(text).unwrap();
        assert_eq!(m.entries, vec![(0, 0, 5.0)]);
    }

    #[test]
    fn errors() {
        assert!(parse_mtx("").is_err());
        assert!(parse_mtx("%%MatrixMarket matrix array real general\n").is_err());
        assert!(
            parse_mtx("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n").is_err()
        );
        assert!(
            parse_mtx("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n").is_err()
        );
        assert!(
            parse_mtx("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 1\n")
                .is_err()
        );
        assert!(parse_mtx("garbage\n1 1 0\n").is_err());
        // Hostile size lines: an nnz far beyond the entries present (must
        // not size any allocation), and a row count past u32.
        assert!(parse_mtx(
            "%%MatrixMarket matrix coordinate real general\n2 2 1000000000000\n1 1 1\n"
        )
        .is_err());
        assert!(parse_mtx(
            "%%MatrixMarket matrix coordinate real general\n4294967297 1 1\n1 1 1\n"
        )
        .is_err());
    }

    #[test]
    fn roundtrip_with_writer() {
        let m = CoordMatrix::from_triplets(3, 4, vec![(0, 3, 1.5), (2, 0, -2.0)]);
        let text = crate::write_mtx(&m);
        let m2 = parse_mtx(&text).unwrap();
        assert_eq!(m, m2);
    }
}

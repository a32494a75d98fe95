//! Baseline-vs-current comparison of two `hg-kernels/1` JSON reports,
//! rendered as a GitHub-flavored markdown table for
//! `$GITHUB_STEP_SUMMARY` (`hg bench --delta base.json current.json`).
//!
//! Like [`hgobs::trace::parse_trace`], this is a scanner for the fixed
//! schema [`super::kernels::KernelBenchReport::render_json`] writes,
//! not a general JSON parser — the workspace has no serde. Anything
//! shaped differently is an error, not a guess.

/// One parsed report: gate values plus per-dataset engine timings
/// (distance engines and kcore engines flattened into one list).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ParsedReport {
    pub gate_msbfs_us: u64,
    pub gate_kcore_us: u64,
    /// `(dataset, engine, best_us)` in document order.
    pub rows: Vec<(String, String, u64)>,
}

fn uint_field(s: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = s.find(&pat)? + pat.len();
    let digits: String = s[at..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn str_field(s: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = s.find(&pat)? + pat.len();
    let end = s[at..].find('"')? + at;
    Some(s[at..end].to_string())
}

/// Scan every `{"engine":…,"best_us":…}` object inside the array that
/// starts right after `key` in `chunk`.
fn scan_engines(chunk: &str, key: &str, dataset: &str, rows: &mut Vec<(String, String, u64)>) {
    let Some(at) = chunk.find(&format!("\"{key}\":[")) else {
        return;
    };
    let body = &chunk[at..];
    let end = body.find(']').unwrap_or(body.len());
    for obj in body[..end].split("{\"engine\":\"").skip(1) {
        let Some(name_end) = obj.find('"') else {
            continue;
        };
        let Some(best) = uint_field(obj, "best_us") else {
            continue;
        };
        rows.push((dataset.to_string(), obj[..name_end].to_string(), best));
    }
}

/// Parse one `hg-kernels/1` document.
pub fn parse_report(json: &str) -> Result<ParsedReport, String> {
    match str_field(json, "schema") {
        Some(s) if s == "hg-kernels/1" => {}
        other => return Err(format!("not an hg-kernels/1 report (schema {other:?})")),
    }
    let gate_msbfs_us =
        uint_field(json, "gate_msbfs_us").ok_or("report has no gate_msbfs_us field")?;
    let gate_kcore_us =
        uint_field(json, "gate_kcore_us").ok_or("report has no gate_kcore_us field")?;
    let mut rows = Vec::new();
    let datasets = json
        .find("\"datasets\":[")
        .ok_or("report has no datasets array")?;
    for chunk in json[datasets..].split("\"name\":\"").skip(1) {
        let Some(name_end) = chunk.find('"') else {
            continue;
        };
        let dataset = &chunk[..name_end];
        scan_engines(chunk, "engines", dataset, &mut rows);
        scan_engines(chunk, "kcore_engines", dataset, &mut rows);
    }
    if rows.is_empty() {
        return Err("report has no engine timings".to_string());
    }
    Ok(ParsedReport {
        gate_msbfs_us,
        gate_kcore_us,
        rows,
    })
}

/// `+12.3%` / `-48.7%` / `=` for a baseline→current move (negative is
/// faster); `n/a` when the baseline is zero.
fn delta_cell(base: u64, cur: u64) -> String {
    if base == 0 {
        return "n/a".to_string();
    }
    if base == cur {
        return "=".to_string();
    }
    let pct = (cur as f64 - base as f64) * 100.0 / base as f64;
    format!("{pct:+.1}%")
}

/// Render the baseline→current markdown delta table. Rows follow the
/// current report's order; kernels present in only one report show `—`
/// for the missing side and no delta.
pub fn render_delta(baseline: &str, current: &str) -> Result<String, String> {
    let base = parse_report(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur = parse_report(current).map_err(|e| format!("current: {e}"))?;
    let lookup = |rows: &[(String, String, u64)], d: &str, e: &str| -> Option<u64> {
        rows.iter()
            .find(|(rd, re, _)| rd == d && re == e)
            .map(|&(_, _, us)| us)
    };

    let mut out = String::new();
    out.push_str("| dataset | kernel | baseline (µs) | current (µs) | delta |\n");
    out.push_str("|---|---|--:|--:|--:|\n");
    for (d, e, cur_us) in &cur.rows {
        match lookup(&base.rows, d, e) {
            Some(base_us) => out.push_str(&format!(
                "| {d} | {e} | {base_us} | {cur_us} | {} |\n",
                delta_cell(base_us, *cur_us)
            )),
            None => out.push_str(&format!("| {d} | {e} | — | {cur_us} | |\n")),
        }
    }
    for (d, e, base_us) in &base.rows {
        if lookup(&cur.rows, d, e).is_none() {
            out.push_str(&format!("| {d} | {e} | {base_us} | — | |\n"));
        }
    }
    for (gate, b, c) in [
        ("gate_msbfs_us", base.gate_msbfs_us, cur.gate_msbfs_us),
        ("gate_kcore_us", base.gate_kcore_us, cur.gate_kcore_us),
    ] {
        out.push_str(&format!(
            "| **gate** | {gate} | {b} | {c} | {} |\n",
            delta_cell(b, c)
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{run, KernelBenchConfig};

    fn tiny_json() -> String {
        run(&KernelBenchConfig {
            reps: 1,
            scale: 300,
            cellzome_path: None,
            relabel: true,
        })
        .unwrap()
        .render_json()
    }

    #[test]
    fn parses_a_real_report_roundtrip() {
        let r = parse_report(&tiny_json()).unwrap();
        // 2 datasets × (3 distance + 2 kcore engines).
        assert_eq!(r.rows.len(), 10, "{r:?}");
        let engines: Vec<&str> = r
            .rows
            .iter()
            .filter(|(d, _, _)| d == "cellzome-2004")
            .map(|(_, e, _)| e.as_str())
            .collect();
        assert_eq!(
            engines,
            vec![
                "scalar",
                "msbfs",
                "par_msbfs",
                "kcore_decompose",
                "kcore_probe"
            ]
        );
    }

    #[test]
    fn delta_table_has_a_row_per_kernel_and_the_gates() {
        let json = tiny_json();
        let table = render_delta(&json, &json).unwrap();
        // Identical reports → every delta collapses to `=`.
        assert_eq!(table.matches("| = |").count(), 12, "{table}");
        assert!(table.contains("| **gate** | gate_msbfs_us |"), "{table}");
        assert!(table.starts_with("| dataset | kernel |"), "{table}");
    }

    #[test]
    fn delta_percentages_and_missing_rows() {
        assert_eq!(delta_cell(100, 150), "+50.0%");
        assert_eq!(delta_cell(200, 100), "-50.0%");
        assert_eq!(delta_cell(0, 5), "n/a");

        let a = r#"{"schema":"hg-kernels/1","reps":1,"gate_msbfs_us":100,"gate_kcore_us":10,"datasets":[{"name":"d","engines":[{"engine":"msbfs","best_us":100,"median_us":100}],"kcore_engines":[]}]}"#;
        let b = r#"{"schema":"hg-kernels/1","reps":1,"gate_msbfs_us":50,"gate_kcore_us":10,"datasets":[{"name":"d","engines":[{"engine":"par_msbfs","best_us":50,"median_us":50}],"kcore_engines":[]}]}"#;
        let t = render_delta(a, b).unwrap();
        assert!(t.contains("| d | par_msbfs | — | 50 | |"), "{t}");
        assert!(t.contains("| d | msbfs | 100 | — | |"), "{t}");
        assert!(t.contains("| 100 | 50 | -50.0% |"), "{t}");
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(parse_report("{}").is_err());
        assert!(parse_report(r#"{"schema":"hg-kernels/2"}"#).is_err());
    }
}

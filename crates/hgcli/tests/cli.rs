//! Black-box tests of the `hg` binary (spawned via the path Cargo
//! provides to integration tests).

use std::path::PathBuf;
use std::process::Command;

fn hg(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hg"))
        .args(args)
        .output()
        .expect("spawn hg");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hgcli_test_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let (ok, out, _) = hg(&["help"]);
    assert!(ok);
    assert!(out.contains("hg repro"));
    assert!(out.contains("hg kcore"));
}

#[test]
fn unknown_command_fails() {
    let (ok, _, err) = hg(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

#[test]
fn gen_stats_kcore_fit_cover_roundtrip() {
    let dir = tmpdir("pipeline");
    let file = dir.join("cz.hgr");
    let file_s = file.to_str().unwrap();

    let (ok, out, err) = hg(&["gen", "cellzome", "-o", file_s]);
    assert!(ok, "{err}");
    assert!(out.contains("1361 vertices, 232 hyperedges"));

    let (ok, out, _) = hg(&["stats", file_s]);
    assert!(ok);
    assert!(out.contains("(1263, 99)"));
    assert!(out.contains("33"));

    let (ok, out, _) = hg(&["kcore", file_s]);
    assert!(ok);
    assert!(out.contains("6-core: 41 vertices, 54 hyperedges"));

    let (ok, out, _) = hg(&["kcore", file_s, "--k", "2"]);
    assert!(ok, "{out}");
    assert!(out.starts_with("2-core:"));

    // A flag `hg kcore` does not take is an error, not silently dropped.
    let (ok, _, err) = hg(&["kcore", file_s, "--k", "2", "--par"]);
    assert!(!ok);
    assert!(err.contains("unexpected argument `--par`"), "{err}");

    // The level table ends at the paper's 6-core: 41 proteins, 54 complexes.
    let (ok, out, _) = hg(&["kcore", file_s, "--profile"]);
    assert!(ok, "{out}");
    assert!(out.contains("max core k = 6"), "{out}");
    let last_level = out
        .lines()
        .rfind(|l| l.trim_start().starts_with('6'))
        .unwrap_or_default()
        .to_string();
    assert!(last_level.contains("41"), "{out}");
    assert!(last_level.contains("54"), "{out}");

    let (ok, out, _) = hg(&["fit", file_s]);
    assert!(ok);
    assert!(out.contains("gamma ="));

    let (ok, out, _) = hg(&["cover", file_s, "--weights", "deg2"]);
    assert!(ok);
    assert!(out.contains("cover:"));

    let (ok, out, _) = hg(&["cover", file_s, "--multicover", "2"]);
    assert!(ok);
    assert!(out.contains("cover:"));
}

#[test]
fn gen_uniform_and_table1() {
    let dir = tmpdir("gen");
    let file = dir.join("u.hgr");
    let (ok, out, err) = hg(&[
        "gen",
        "uniform",
        "30",
        "20",
        "4",
        "--seed",
        "5",
        "-o",
        file.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("30 vertices, 20 hyperedges, 80 pins"));

    // Without -o the .hgr text goes to stdout.
    let (ok, out, _) = hg(&["gen", "uniform", "5", "2", "2"]);
    assert!(ok);
    assert!(out.starts_with("2 5\n"));

    let (ok, _, err) = hg(&["gen", "table1", "nope"]);
    assert!(!ok);
    assert!(err.contains("unknown table1 matrix"));
}

#[test]
fn export_pajek_writes_files() {
    let dir = tmpdir("pajek");
    let file = dir.join("toy.hgr");
    std::fs::write(&file, "2 3\n1 2 3\n2 3\n").unwrap();
    let base = dir.join("out");
    let (ok, out, err) = hg(&[
        "export-pajek",
        file.to_str().unwrap(),
        "-o",
        base.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("out.net"));
    let net = std::fs::read_to_string(dir.join("out.net")).unwrap();
    assert!(net.starts_with("*Vertices 5"));
    assert!(dir.join("out.clu").exists());
}

#[test]
fn repro_single_experiments_run() {
    for exp in ["e1", "e3", "e5"] {
        let (ok, out, err) = hg(&["repro", exp]);
        assert!(ok, "repro {exp}: {err}");
        assert!(out.contains("paper"), "repro {exp} output:\n{out}");
    }
}

#[test]
fn ks_core_reduce_dual_tap() {
    let dir = tmpdir("newcmds");
    let file = dir.join("cz.hgr");
    let file_s = file.to_str().unwrap();
    let (ok, _, err) = hg(&["gen", "cellzome", "-o", file_s]);
    assert!(ok, "{err}");

    let (ok, out, _) = hg(&["ks-core", file_s, "--k", "2", "--s", "2"]);
    assert!(ok);
    assert!(out.starts_with("(2, 2)-core:"));

    let reduced = dir.join("red.hgr");
    let (ok, out, _) = hg(&["reduce", file_s, "-o", reduced.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("removed"));
    assert!(reduced.exists());

    let dual = dir.join("dual.hgr");
    let (ok, out, _) = hg(&["dual", file_s, "-o", dual.to_str().unwrap()]);
    assert!(ok, "{out}");
    let text = std::fs::read_to_string(&dual).unwrap();
    assert!(
        text.starts_with("1361 232\n"),
        "dual header: {}",
        &text[..20]
    );

    let (ok, out, err) = hg(&["tap-sim", file_s, "--baits", "multicover", "--p", "0.7"]);
    assert!(ok, "{err}");
    assert!(out.contains("recovery:"), "{out}");
    assert!(out.contains("reconstruction:"));
}

#[test]
fn mtx_input_accepted() {
    let dir = tmpdir("mtx");
    let file = dir.join("m.mtx");
    std::fs::write(
        &file,
        "%%MatrixMarket matrix coordinate pattern general\n3 3 4\n1 1\n1 2\n2 3\n3 3\n",
    )
    .unwrap();
    let (ok, out, err) = hg(&["stats", file.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert!(out.contains("hyperedges |F|"));
    assert!(out.contains("3"));
}

#[test]
fn bad_file_reports_error() {
    let (ok, _, err) = hg(&["stats", "/nonexistent/definitely.hgr"]);
    assert!(!ok);
    assert!(err.contains("cannot read"));
}

#[test]
fn flag_with_missing_value_errors() {
    let (ok, _, err) = hg(&["kcore", "whatever.hgr", "--k"]);
    assert!(!ok);
    assert!(err.contains("missing value after --k"), "{err}");

    let (ok, _, err) = hg(&["repro", "e1", "-o"]);
    assert!(!ok);
    assert!(err.contains("missing value after -o"), "{err}");
}

/// Minimal recursive-descent JSON validity check (no parse tree): enough
/// to catch unbalanced braces, stray commas, and broken string escaping
/// in the hand-rolled emitter.
fn check_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    string(b, i)?;
                    ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    *i += 1;
                    value(b, i)?;
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or '}}' at {i}")),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    value(b, i)?;
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at {i}")),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(_) => {
                // number / true / false / null
                let start = *i;
                while *i < b.len() && !b",}] \t\n\r".contains(&b[*i]) {
                    *i += 1;
                }
                if *i == start {
                    Err(format!("empty value at {i}"))
                } else {
                    Ok(())
                }
            }
            None => Err("unexpected end of input".to_string()),
        }
    }
    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected '\"' at {i}"));
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'\\' => *i += 2,
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                _ => *i += 1,
            }
        }
        Err("unterminated string".to_string())
    }
    value(b, &mut i)?;
    ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing garbage at {i}"));
    }
    Ok(())
}

/// The counters section of a report is deterministic; extract it for
/// run-to-run comparison (phase histograms carry wall-clock noise).
fn counters_section(json: &str) -> &str {
    let start = json.find("\"counters\":").expect("counters key");
    let end = json.find("\"histograms\":").expect("histograms key");
    &json[start..end]
}

#[test]
fn metrics_flag_writes_valid_json_report() {
    let dir = tmpdir("metrics");
    let file = dir.join("cz.hgr");
    let file_s = file.to_str().unwrap();
    let (ok, _, err) = hg(&["gen", "cellzome", "-o", file_s]);
    assert!(ok, "{err}");

    let report = dir.join("out.json");
    let report_s = report.to_str().unwrap();
    let (ok, _, err) = hg(&["kcore", file_s, "--metrics", report_s]);
    assert!(ok, "{err}");

    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.starts_with("{\"schema\":\"hgobs/2\""), "{json}");
    check_json(json.trim()).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{json}"));

    // The probe decomposition starts a round per level, so at least one.
    let rounds: u64 = json
        .split("\"kcore.probe.rounds\":")
        .nth(1)
        .expect("kcore.probe.rounds counter present")
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    assert!(rounds >= 1, "kcore.probe.rounds = {rounds}");

    // The whole-run phase wraps everything, once; the probe engine's
    // peel phases record beside it.
    assert!(json.contains("\"phase_ns.total\":{\"count\":1,"), "{json}");
    assert!(json.contains("\"phase_ns.kcore.probe.peel\":{"), "{json}");
}

#[test]
fn metrics_counters_are_deterministic_across_runs() {
    let dir = tmpdir("metrics_det");
    let file = dir.join("cz.hgr");
    let file_s = file.to_str().unwrap();
    let (ok, _, err) = hg(&["gen", "cellzome", "-o", file_s]);
    assert!(ok, "{err}");

    let mut sections = Vec::new();
    for run in 0..2 {
        let report = dir.join(format!("out{run}.json"));
        let report_s = report.to_str().unwrap();
        let (ok, _, err) = hg(&["kcore", file_s, "--metrics", report_s]);
        assert!(ok, "{err}");
        let json = std::fs::read_to_string(&report).unwrap();
        sections.push(counters_section(&json).to_string());
    }
    assert_eq!(sections[0], sections[1]);
    assert!(
        sections[0].contains("kcore.probe.rounds"),
        "{}",
        sections[0]
    );
}

#[test]
fn profile_emits_per_algorithm_sections() {
    let dir = tmpdir("profile");
    let file = dir.join("cz.hgr");
    let file_s = file.to_str().unwrap();
    let (ok, _, err) = hg(&["gen", "cellzome", "-o", file_s]);
    assert!(ok, "{err}");

    let report = dir.join("report.json");
    let report_s = report.to_str().unwrap();
    let (ok, out, err) = hg(&["profile", file_s, "--algo", "all", "--metrics", report_s]);
    assert!(ok, "{err}");
    assert!(out.starts_with("{\"schema\":\"hg-profile/1\""), "{out}");
    check_json(out.trim()).unwrap_or_else(|e| panic!("invalid profile JSON ({e}):\n{out}"));
    for section in ["\"kcore\":{", "\"bfs\":{", "\"cover\":{"] {
        assert!(out.contains(section), "missing {section} in:\n{out}");
    }
    assert!(out.contains("\"vertices\":1361"), "{out}");
    assert!(out.contains("kcore.probe.rounds"), "{out}");
    assert!(out.contains("bfs.sources"), "{out}");
    assert!(out.contains("cover.picks"), "{out}");

    // The global --metrics report still carries the profiled totals.
    let global = std::fs::read_to_string(&report).unwrap();
    check_json(global.trim()).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{global}"));
    assert!(global.contains("kcore.probe.rounds"), "{global}");
    assert!(global.contains("cover.dual_raises"), "{global}");

    let (ok, _, err) = hg(&["profile", file_s, "--algo", "frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown --algo"), "{err}");
}

#[test]
fn repro_appends_phase_breakdown() {
    let (ok, out, err) = hg(&["repro", "e3"]);
    assert!(ok, "{err}");
    assert!(out.contains("phase breakdown:"), "{out}");
    assert!(out.contains("graph.kcore"), "{out}");
}

#[test]
fn bench_kernels_writes_schema_versioned_json() {
    let dir = tmpdir("bench_kernels");
    let json_path = dir.join("BENCH_kernels.json");
    let json_s = json_path.to_str().unwrap();

    // Tiny scale + 1 rep keeps the black-box run fast; the point is the
    // plumbing (flags, JSON schema, engine agreement), not the timings.
    let (ok, out, err) = hg(&[
        "bench",
        "--kernels",
        "--reps",
        "1",
        "--scale",
        "300",
        "--json",
        json_s,
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("cellzome-2004"), "{out}");
    assert!(out.contains("hypergen-u300"), "{out}");
    for engine in ["scalar", "msbfs", "par_msbfs"] {
        assert!(out.contains(engine), "missing {engine} in:\n{out}");
    }
    assert!(out.contains("gate_msbfs_us:"), "{out}");

    let json = std::fs::read_to_string(&json_path).unwrap();
    check_json(json.trim()).unwrap_or_else(|e| panic!("invalid bench JSON ({e}):\n{json}"));
    assert!(json.contains("\"schema\":\"hg-kernels/1\""), "{json}");
    assert!(json.contains("\"gate_msbfs_us\":"), "{json}");
    assert!(json.contains("\"speedup_msbfs\":"), "{json}");
    // Cellzome stats agree across engines and reproduce the paper run.
    assert!(json.contains("\"diameter\":6"), "{json}");
}

#[test]
fn bench_without_kernels_flag_errors() {
    let (ok, _, err) = hg(&["bench"]);
    assert!(!ok);
    assert!(err.contains("--kernels"), "{err}");
}

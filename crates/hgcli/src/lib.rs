//! `hgcli` — implementation of the `hg` command-line tool.
//!
//! The binary is a thin dispatcher over this library so the reproduction
//! harness ([`repro`]) is testable. `hg repro all` regenerates every
//! table and figure of the paper; EXPERIMENTS.md archives its output.

pub mod repro;
pub mod table;

//! The library behind `hg bench`: [`kernels`] times the kernels
//! (`--kernels`, the `ci.sh --bench` wall-time gates), [`coldload`]
//! times a cold `.hgb` open against a text parse (`--coldload`), and
//! [`delta`] renders a baseline-vs-current table (`--delta`). The
//! paper's tables and figures are timed by `hg repro` (DESIGN.md §4).

pub mod coldload;
pub mod delta;
pub mod kernels;

pub use coldload::{ColdloadConfig, ColdloadReport};
pub use delta::render_delta;
pub use kernels::{DatasetResult, EngineResult, KernelBenchConfig, KernelBenchReport, SCALED_SEED};

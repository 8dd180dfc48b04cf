//! # Figure harness
//!
//! Regenerates every experimental figure of the paper (Figures 3–13; Figures
//! 1–2 are an architecture diagram and a code listing) plus the ablation
//! studies listed in `DESIGN.md §5`. The `figures` binary drives the
//! functions here; they are also callable from tests so figure *shapes* are
//! asserted in CI at reduced scale.
//!
//! Each figure function returns a [`FigureData`]: labelled series of (x, y)
//! points that can be printed as a table or dumped as CSV.

pub mod ablations;
pub mod cli;
pub mod figures;
pub mod harness;
pub mod report;

pub use cli::ExampleArgs;
pub use harness::{run_summary, FigureData, HarnessConfig, Series};
pub use report::{moved, thread_windows, BenchReport, Moved};

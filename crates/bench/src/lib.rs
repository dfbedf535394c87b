//! # jle-bench — the reproduction harness
//!
//! One experiment per claim of the paper (see `DESIGN.md` §5), plus the
//! Criterion micro-benchmarks under `benches/`. Run everything with:
//!
//! ```text
//! cargo run -p jle-bench --release --bin experiments -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod experiments;

pub use common::{ExpContext, ExperimentResult};

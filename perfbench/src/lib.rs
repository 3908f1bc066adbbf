//! # perfbench — the repository's performance benchmark
//!
//! One command runs one workload and prints every end-to-end metric by
//! name and unit, or, with `--trace 1`, every per-layer metric measured
//! by spans and decorators placed around calls into each crate. The
//! package README explains the workloads and how to read the numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod check;
pub mod clock;
pub mod decor;
pub mod host;
pub mod metrics;
pub mod replay;
pub mod scenario;

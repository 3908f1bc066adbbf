//! # workloads — synthetic GPU benchmark traces for the DAC'23 reproduction
//!
//! The paper evaluates on 10 UVM-enabled CUDA benchmarks from Rodinia,
//! Polybench and Pannotia (Table II), run under gem5-gpu. Neither the CUDA
//! binaries nor the gem5-gpu runtime are available here, so this crate
//! regenerates each benchmark's *per-thread-block memory access pattern*
//! directly: a [`Workload`] is a set of kernels, each kernel a list of
//! thread-block traces, each thread block a list of warps, each warp an
//! ordered stream of [`WarpOp`]s whose virtual addresses point into
//! buffers of a real [`vmem::AddressSpace`].
//!
//! TLB behaviour is a function of the page-access stream, so reproducing
//! the access functions of each kernel (affine tiling for the Polybench
//! kernels, wavefront for `nw`, CSR traversal over a power-law graph for
//! the Pannotia kernels and `bfs`) preserves the phenomena the paper
//! studies, at a memory footprint scaled from the paper's 100+ GB down to
//! simulable megabytes (see DESIGN.md for the substitution argument).
//!
//! # Example
//!
//! ```
//! use workloads::{registry, Scale};
//!
//! let spec = registry().into_iter().find(|s| s.name == "gemm").unwrap();
//! let wl = spec.generate(Scale::Test, 42);
//! assert!(!wl.kernels().is_empty());
//! assert!(wl.total_warp_ops() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod graph;
mod registry;
mod scale;
mod trace;

pub mod format;
pub mod gen;

pub use cache::{CacheStats, WorkloadCache};
pub use format::{TraceError, TraceReader, TraceSource, TraceWriter};
pub use graph::{CsrGraph, RmatParams};
pub use registry::{extended_registry, registry, BenchmarkSpec, Suite};
pub use scale::Scale;
pub use trace::{
    KernelTrace, LaneAccesses, TbTrace, TraceSummary, WarpOp, WarpTrace, Workload, LANES_PER_WARP,
};

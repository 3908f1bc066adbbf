//! The engine's trace-feed abstraction: where TB traces come from
//! during a run.
//!
//! The dispatch loop in `engine.rs` consumes TBs strictly in grid order
//! (each global TB index exactly once), which is what makes streaming
//! replay possible: a [`KernelFeed`] either borrows an in-RAM
//! [`KernelTrace`] or pulls TBs through a forward-only `trace/v1`
//! [`TbStream`] cursor. In the streaming case only the current decoded
//! block and the TB being placed are resident — [`SmRt::place_tb`]
//! (`engine.rs`) Arc-clones each warp's op storage into the resident
//! warps, so in-flight TBs keep their ops alive while the feed recycles
//! the decoded block behind them. That is what keeps peak RSS flat as
//! footprints grow.
//!
//! [`SmRt::place_tb`]: crate::engine

use vmem::Asid;
use workloads::format::{KernelMeta, TbStream, TraceError, TraceReader};
use workloads::{KernelTrace, TbTrace};

/// One kernel launch's TB source, consumed in grid order by the
/// dispatch loop.
pub(crate) enum KernelFeed<'a> {
    /// A fully materialized in-RAM kernel.
    Mem(&'a KernelTrace),
    /// An app-interleaved co-run: a merged in-RAM TB stream where TB
    /// `i` belongs to the address space `asids[i]` (built by
    /// [`crate::corun`]).
    CoMem {
        /// The merged kernel (all apps' TBs, round-robin interleaved).
        kernel: &'a KernelTrace,
        /// Owning address space of each TB, parallel to `kernel.tbs`.
        asids: &'a [Asid],
    },
    /// A kernel streamed from a `trace/v1` file.
    Stream {
        /// Footer metadata (name, occupancy hints, TB count).
        meta: &'a KernelMeta,
        /// Forward-only block-streaming cursor.
        stream: TbStream,
        /// Next TB index the cursor will yield.
        next: usize,
        /// The most recently decoded TB (kept alive while the engine
        /// places it).
        current: Option<TbTrace>,
    },
}

impl KernelFeed<'_> {
    /// Kernel name (for `SimReport::kernel_cycles`).
    pub(crate) fn name(&self) -> &str {
        match self {
            KernelFeed::Mem(k) | KernelFeed::CoMem { kernel: k, .. } => &k.name,
            KernelFeed::Stream { meta, .. } => &meta.name,
        }
    }

    /// Threads per TB (occupancy accounting).
    pub(crate) fn threads_per_tb(&self) -> u32 {
        match self {
            KernelFeed::Mem(k) | KernelFeed::CoMem { kernel: k, .. } => k.threads_per_tb,
            KernelFeed::Stream { meta, .. } => meta.threads_per_tb,
        }
    }

    /// Compile-time per-SM TB concurrency limit.
    pub(crate) fn max_concurrent_tbs_per_sm(&self) -> u8 {
        match self {
            KernelFeed::Mem(k) | KernelFeed::CoMem { kernel: k, .. } => k.max_concurrent_tbs_per_sm,
            KernelFeed::Stream { meta, .. } => meta.max_concurrent_tbs_per_sm,
        }
    }

    /// Number of TBs in the kernel's grid.
    pub(crate) fn tb_count(&self) -> usize {
        match self {
            KernelFeed::Mem(k) | KernelFeed::CoMem { kernel: k, .. } => k.tbs.len(),
            KernelFeed::Stream { meta, .. } => meta.tb_count as usize,
        }
    }

    /// Owning address space of the TB at global index `idx` (ASID 0 for
    /// every solo feed).
    pub(crate) fn asid_of(&self, idx: usize) -> Asid {
        match self {
            KernelFeed::CoMem { asids, .. } => asids[idx],
            _ => Asid::default(),
        }
    }

    /// The TB at global index `idx`.
    ///
    /// The dispatch loop asks for indexes in strictly increasing order,
    /// each exactly once; the streaming arm enforces that (it cannot
    /// seek backwards) and decodes forward block by block.
    pub(crate) fn tb(&mut self, idx: usize) -> Result<&TbTrace, TraceError> {
        match self {
            KernelFeed::Mem(k) | KernelFeed::CoMem { kernel: k, .. } => {
                k.tbs.get(idx).ok_or_else(|| TraceError::NotATrace {
                    what: format!("TB index {idx} out of range ({} TBs)", k.tbs.len()),
                })
            }
            KernelFeed::Stream {
                stream,
                next,
                current,
                ..
            } => {
                if idx != *next {
                    return Err(TraceError::NotATrace {
                        what: format!("non-monotonic TB access: asked for {idx}, cursor at {next}"),
                    });
                }
                let Some(tb) = stream.next_tb()? else {
                    return Err(TraceError::NotATrace {
                        what: format!("trace stream ended before TB {idx}"),
                    });
                };
                *next += 1;
                Ok(current.insert(tb))
            }
        }
    }
}

/// A run's kernel sequence: the owned counterpart of [`KernelFeed`]
/// (`run_prepared` holds one and borrows a feed per kernel).
pub(crate) enum KernelSeq {
    /// In-RAM kernels (shared storage from the workload).
    Mem(std::sync::Arc<Vec<KernelTrace>>),
    /// An app-interleaved co-run: one merged launch whose TBs carry
    /// per-app ASIDs (built by [`crate::corun::merge_apps`]).
    CoRun {
        /// The merged TB stream, dispatched as a single launch.
        kernel: Box<KernelTrace>,
        /// Owning ASID of each TB, parallel to `kernel.tbs`.
        asids: Vec<Asid>,
    },
    /// A trace file; each kernel opens its own streaming cursor. Boxed
    /// so the rare streaming variant doesn't inflate the in-RAM one.
    Stream(Box<TraceReader>),
}

impl KernelSeq {
    /// Number of kernel launches.
    pub(crate) fn len(&self) -> usize {
        match self {
            KernelSeq::Mem(kernels) => kernels.len(),
            KernelSeq::CoRun { .. } => 1,
            KernelSeq::Stream(reader) => reader.kernels().len(),
        }
    }

    /// Opens the feed for kernel `k`.
    pub(crate) fn feed(&self, k: usize) -> Result<KernelFeed<'_>, TraceError> {
        match self {
            KernelSeq::CoRun { kernel, asids } => {
                if k != 0 {
                    return Err(TraceError::NotATrace {
                        what: format!("co-run has a single merged launch, asked for kernel {k}"),
                    });
                }
                Ok(KernelFeed::CoMem { kernel, asids })
            }
            KernelSeq::Mem(kernels) => {
                kernels
                    .get(k)
                    .map(KernelFeed::Mem)
                    .ok_or_else(|| TraceError::NotATrace {
                        what: format!("kernel index {k} out of range ({} kernels)", kernels.len()),
                    })
            }
            KernelSeq::Stream(reader) => {
                let Some(meta) = reader.kernels().get(k) else {
                    return Err(TraceError::NotATrace {
                        what: format!(
                            "kernel index {k} out of range ({} kernels)",
                            reader.kernels().len()
                        ),
                    });
                };
                Ok(KernelFeed::Stream {
                    meta,
                    stream: reader.stream_kernel(k)?,
                    next: 0,
                    current: None,
                })
            }
        }
    }
}

//! # gpu-sim — a cycle-level GPU timing simulator with UVM address
//! translation
//!
//! This crate is the reproduction's stand-in for the gem5-gpu substrate of
//! the DAC'23 paper *Orchestrated Scheduling and Partitioning for Improved
//! Address Translation in GPUs*. It models the full execution path of the
//! paper's Figure 1:
//!
//! 1. per-SM **GTO warp scheduling** with configurable issue width,
//! 2. the **memory coalescer** merging warp lanes into 128-byte line
//!    transactions,
//! 3. a **VIPT L1 data cache probed in parallel with the per-SM private
//!    L1 TLB**,
//! 4. a shared **L2 TLB** and **L2 data cache** behind an interconnect,
//! 5. a pool of **8 shared page-table walkers** (500-cycle walks) with
//!    UVM demand paging on first touch,
//! 6. a pluggable **TB scheduler** ([`TbScheduler`]; baseline
//!    [`RoundRobinScheduler`]) and a pluggable **L1 TLB organization**
//!    ([`tlb::TranslationBuffer`]), which is how the `orchestrated-tlb`
//!    crate injects the paper's proposed mechanisms.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{GpuConfig, Simulator};
//! use workloads::{registry, Scale};
//!
//! let spec = registry().into_iter().find(|s| s.name == "bfs").unwrap();
//! let report = Simulator::new(GpuConfig::dac23_baseline())
//!     .run(spec.generate(Scale::Test, 42));
//! println!("{report}");
//! assert!(report.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coalesce;
mod config;
mod corun;
mod engine;
mod feed;
mod report;
pub mod sanitize;
mod tb_sched;
mod warp_sched;

pub use coalesce::{coalesce, coalesce_into};
pub use config::GpuConfig;
pub use corun::{jain_fairness, system_throughput};
pub use engine::{L1TlbFactory, Simulator, WarpSchedulerFactory};
pub use report::{AppReport, SimReport, TranslationEvent};
pub use sanitize::{sanitize_enabled, set_sanitize};
pub use tb_sched::{RoundRobinScheduler, SmSnapshot, TbScheduler};
pub use warp_sched::{GtoWarpScheduler, LrrWarpScheduler, WarpScheduler, WarpView};

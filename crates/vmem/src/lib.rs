//! # vmem — Unified Virtual Memory substrate for the GPU TLB simulator
//!
//! This crate provides the virtual-memory machinery that the DAC'23 paper
//! *Orchestrated Scheduling and Partitioning for Improved Address
//! Translation in GPUs* assumes from its gem5-gpu substrate:
//!
//! * strongly-typed virtual/physical addresses and page numbers
//!   ([`VirtAddr`], [`PhysAddr`], [`Vpn`], [`Ppn`]),
//! * 4 KiB and 2 MiB page sizes ([`PageSize`]),
//! * a 4-level x86-64-style radix [`PageTable`] with a physical
//!   [`FrameAllocator`],
//! * a UVM [`AddressSpace`] with named buffer allocation and first-touch
//!   demand paging,
//! * a shared [`WalkerPool`] that models the paper's eight page-table
//!   walkers with 500-cycle walks (Table III),
//! * [`first_min`], the branch-free first-minimum pick behind the walker
//!   pool's earliest-free choice and every LRU victim search.
//!
//! # Example
//!
//! ```
//! use vmem::{AddressSpace, PageSize};
//!
//! # fn main() -> Result<(), vmem::VmemError> {
//! let mut space = AddressSpace::new(PageSize::Small);
//! let buf = space.allocate("matrix_a", 1 << 20)?; // 1 MiB buffer
//! let va = buf.addr_of(4096);
//! // First touch demand-pages the backing frame in.
//! let pa = space.translate_or_fault(va)?;
//! assert_eq!(pa.page_offset(PageSize::Small), va.page_offset(PageSize::Small));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod error;
mod frame;
mod page;
mod page_table;
mod select;
mod space;
mod walker;

pub use addr::{Asid, PhysAddr, Ppn, VirtAddr, Vpn};
pub use error::VmemError;
pub use frame::FrameAllocator;
pub use page::{PageSize, PAGE_SIZE_2M, PAGE_SIZE_4K};
pub use page_table::{PageTable, PteFlags, WalkResult, PAGE_TABLE_LEVELS};
pub use select::first_min;
pub use space::{AddressSpace, Buffer, BufferId, FaultKind, SpaceStats};
pub use walker::{WalkRequest, WalkerPool, WalkerStats};

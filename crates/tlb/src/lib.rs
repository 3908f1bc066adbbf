//! # tlb — Translation Lookaside Buffer models
//!
//! TLB structures for the DAC'23 reproduction of *Orchestrated Scheduling
//! and Partitioning for Improved Address Translation in GPUs*:
//!
//! * [`TranslationBuffer`] — the interface every L1 TLB organization
//!   implements, so the GPU simulator can swap the baseline VPN-indexed
//!   TLB for the paper's TB-id-partitioned design (which lives in the
//!   `orchestrated-tlb` crate).
//! * [`SetAssocTlb`] — the baseline set-associative, VPN-indexed, LRU TLB
//!   used for both the per-SM private L1 (64 entries, 4-way, 1-cycle) and
//!   the shared L2 (512 entries, 16-way, 10-cycle) in Table III.
//! * [`CompressedTlb`] — a model of the PACT'20 TLB-compression comparator
//!   used in the paper's Figure 12: contiguous translations coalesce into
//!   one entry at the cost of (de)compression latency on the critical path.
//! * [`SubEntryTlb`] — a sub-entry-sharing multi-tenant organization for
//!   the shared L2: ways are tagged by VPN alone and hold per-ASID
//!   sub-entries, so co-running apps that map the same VPNs share tags
//!   without ever seeing each other's frames.
//! * [`Ways`] — the way array all of them (and the partitioned TLB) are
//!   built on: packed `(valid, ASID, VPN)` tags, LRU stamps, a payload per
//!   way, the clock, the stats and the residency counts. An organization
//!   adds only its index policy and payload; [`Run`] is the compressed
//!   payload the compressed and partitioned TLBs share.
//! * [`Memo`] — the exact lookup memo the set-associative, compressed and
//!   partitioned TLBs share.
//!
//! Every organization tags its entries with the requesting [`vmem::Asid`]
//! and includes it in the tag compare, so concurrent address spaces are
//! isolated by construction.
//!
//! # Example
//!
//! ```
//! use tlb::{SetAssocTlb, TlbConfig, TlbRequest, TranslationBuffer};
//! use vmem::{Ppn, Vpn};
//!
//! let mut l1 = SetAssocTlb::new(TlbConfig::dac23_l1());
//! let req = TlbRequest::new(Vpn::new(0x42), 0);
//! assert!(!l1.lookup(&req).hit); // cold miss
//! l1.insert(&req, Ppn::new(7));
//! let out = l1.lookup(&req);
//! assert!(out.hit);
//! assert_eq!(out.ppn, Some(Ppn::new(7)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compressed;
mod config;
mod memo;
mod replace;
mod request;
mod sanitize;
mod set_assoc;
mod stats;
mod sub_entry;
mod ways;

pub use compressed::{CompressedTlb, CompressionConfig, Run};
pub use config::TlbConfig;
pub use memo::Memo;
pub use replace::{first_min, recency_key, RECENCY_VALID};
pub use request::{TlbOutcome, TlbRequest, TranslationBuffer};
pub use sanitize::InvariantViolation;
pub use set_assoc::SetAssocTlb;
pub use stats::{PerAsidStats, TlbStats};
pub use sub_entry::SubEntryTlb;
pub use ways::Ways;

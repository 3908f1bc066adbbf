//! # analysis — translation-reuse characterization (paper §III)
//!
//! Implements the paper's characterization methodology:
//!
//! * **Reuse intensity** (Equation 1, Figures 3 and 4): per-TB translation
//!   streams are extracted from workload traces post-coalescing;
//!   [`intra_intensities`] computes the fraction of each TB's translations
//!   that are reused within the TB, [`inter_intensities`] the pairwise
//!   cross-TB sharing; [`ReuseBins`] buckets them into the paper's five
//!   20%-wide bins.
//! * **Reuse distance** (Figures 5 and 6): [`reuse_distance_samples`]
//!   replays a simulator translation trace per SM and measures, for every
//!   re-access of a page by the same TB, the number of *distinct* pages
//!   translated in between (an LRU stack distance, computed with a
//!   Fenwick tree in `O(n log n)`); [`Cdf`] summarizes the samples on the
//!   paper's power-of-two x-axis.
//!
//! # Example
//!
//! ```
//! use analysis::{intra_intensities, tb_translation_streams, ReuseBins};
//! use workloads::{registry, Scale};
//!
//! let wl = registry()[8].generate(Scale::Test, 42); // gemm
//! let streams = tb_translation_streams(&wl, 128);
//! let bins = ReuseBins::from_intensities(&intra_intensities(&streams));
//! assert!((bins.fractions().iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod distance;
mod imbalance;
mod latency;
mod reuse;

pub use cdf::Cdf;
pub use distance::{reuse_distance_samples, DistanceOptions};
pub use imbalance::{tb_translation_imbalance, Imbalance};
pub use latency::{latency_shares, LATENCY_COMPONENTS};
pub use reuse::{
    inter_intensities, intra_intensities, tb_translation_streams, warp_translation_streams,
    ReuseBins, TbStream,
};

//! Inter-TB imbalance metrics.
//!
//! The paper's §IV-A motivates TLB-aware scheduling with the *computation
//! discrepancy among TBs* — "particularly normal in graph applications
//! where the graph structure can cause imbalanced memory accesses among
//! TBs". These helpers quantify that discrepancy for workload traces and
//! for simulator placements.

use crate::reuse::TbStream;

/// Summary statistics of a non-negative sample set.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Imbalance {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Maximum over minimum (∞ when the minimum is zero but the maximum
    /// is not; 1.0 for a perfectly balanced set).
    pub max_over_min: f64,
    /// Coefficient of variation (`std_dev / mean`; 0 when the mean is 0).
    pub cv: f64,
}

impl Imbalance {
    /// Computes the statistics from raw per-entity counts.
    pub fn from_counts<I>(counts: I) -> Imbalance
    where
        I: IntoIterator<Item = u64>,
    {
        let counts: Vec<u64> = counts.into_iter().collect();
        if counts.is_empty() {
            return Imbalance::default();
        }
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<u64>() as f64 / n;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        let std_dev = var.sqrt();
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        let max_over_min = if max == 0 {
            1.0
        } else if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        };
        Imbalance {
            mean,
            std_dev,
            max_over_min,
            cv: if mean == 0.0 { 0.0 } else { std_dev / mean },
        }
    }
}

/// Imbalance of per-TB translation counts (the §IV-A discrepancy).
pub fn tb_translation_imbalance(streams: &[TbStream]) -> Imbalance {
    Imbalance::from_counts(streams.iter().map(|s| s.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::tb_translation_streams;
    use workloads::{registry, Scale};

    fn stream(n: usize) -> TbStream {
        TbStream { vpns: vec![0; n] }
    }

    #[test]
    fn balanced_counts() {
        let im = Imbalance::from_counts([10, 10, 10]);
        assert_eq!(im.mean, 10.0);
        assert_eq!(im.std_dev, 0.0);
        assert_eq!(im.max_over_min, 1.0);
        assert_eq!(im.cv, 0.0);
    }

    #[test]
    fn skewed_counts() {
        let im = Imbalance::from_counts([1, 100]);
        assert!(im.cv > 0.9);
        assert!((im.max_over_min - 100.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(Imbalance::from_counts([]), Imbalance::default());
        let zeros = Imbalance::from_counts([0, 0]);
        assert_eq!(zeros.max_over_min, 1.0);
        assert_eq!(zeros.cv, 0.0);
        let half = Imbalance::from_counts([0, 4]);
        assert!(half.max_over_min.is_infinite());
    }

    #[test]
    fn tb_stream_imbalance() {
        let im = tb_translation_imbalance(&[stream(5), stream(15)]);
        assert_eq!(im.mean, 10.0);
        assert!(im.cv > 0.0);
    }

    #[test]
    fn graph_apps_are_more_imbalanced_than_dense_kernels() {
        let cv = |name: &str| -> f64 {
            let spec = registry().into_iter().find(|s| s.name == name).unwrap();
            let wl = spec.generate(Scale::Test, 42);
            tb_translation_imbalance(&tb_translation_streams(&wl, 128)).cv
        };
        // Power-law degrees make graph TBs' translation counts vary; the
        // dense gemm grid is uniform.
        assert!(
            cv("pagerank") > cv("gemm"),
            "pagerank cv {} vs gemm cv {}",
            cv("pagerank"),
            cv("gemm")
        );
    }
}

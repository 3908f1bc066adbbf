//! Workload scaling presets.
//!
//! The paper runs inputs with up to 107 GB footprints; a cycle-level
//! simulator in CI cannot. What matters for the paper's phenomena is the
//! *ratio* of per-SM working-set pages to L1 TLB reach (64 entries =
//! 256 KiB), so each preset keeps that ratio far above 1 while bounding
//! trace size.

use std::fmt;

/// How large to generate a workload.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Minimal inputs for unit tests (sub-second full-workspace test runs).
    Test,
    /// Mid-size inputs for examples and quick experiments.
    Small,
    /// The evaluation scale used by the benches and EXPERIMENTS.md: page
    /// working sets hundreds of times the L1 TLB reach, as in the paper.
    #[default]
    Paper,
    /// Engine-throughput scale: enough trace volume that one simulation
    /// runs for seconds, so wall-clock measurements (perfbench's
    /// workloads) see steady-state behaviour rather than startup.
    /// Translation phenomena match `Paper`; only the volume grows.
    Large,
}

impl Scale {
    /// Square-matrix dimension for `nw`.
    pub fn matrix_dim(self) -> usize {
        match self {
            Scale::Test => 64,
            Scale::Small => 256,
            Scale::Paper => 512,
            Scale::Large => 1024,
        }
    }

    /// Square-matrix dimension for `gemm`. 256 columns give a 1 KiB row
    /// pitch, so a TB's A/B tile slices stay within a dozen pages — the
    /// regime where gemm keeps its high baseline hit rate (Figure 2) and
    /// the proposal leaves it unharmed.
    pub fn gemm_dim(self) -> usize {
        match self {
            Scale::Test => 64,
            Scale::Small => 128,
            Scale::Paper => 128,
            Scale::Large => 512,
        }
    }

    /// Row count for the tall matrix-vector kernels (`atax`, `bicg`,
    /// `mvt`), which launch one thread per row.
    pub fn tall_rows(self) -> usize {
        match self {
            Scale::Test => 2048,
            Scale::Small => 8192,
            Scale::Paper => 8192,
            Scale::Large => 131072,
        }
    }

    /// Column count for the tall matrix-vector kernels. 96 columns give a
    /// 384-byte row pitch, so one warp's 32-row column slice spans three
    /// 4 KiB pages — together with the shared vector page, a TB-sized hot
    /// set that fits one L1 TLB set.
    pub fn narrow_cols(self) -> usize {
        match self {
            Scale::Test => 64,
            Scale::Small => 96,
            Scale::Paper => 96,
            Scale::Large => 96,
        }
    }

    /// 3D volume edge length for `3dconv`.
    pub fn volume_dim(self) -> usize {
        match self {
            Scale::Test => 16,
            Scale::Small => 48,
            Scale::Paper => 80,
            Scale::Large => 112,
        }
    }

    /// Node count for the graph benchmarks (`bfs`, `color`, `mis`,
    /// `pagerank`).
    pub fn graph_nodes(self) -> usize {
        match self {
            Scale::Test => 1 << 10,
            Scale::Small => 1 << 15,
            Scale::Paper => 1 << 15,
            Scale::Large => 1 << 17,
        }
    }

    /// Average edges per node for the synthetic citation graph.
    pub fn graph_avg_degree(self) -> usize {
        match self {
            Scale::Test => 8,
            Scale::Small => 10,
            Scale::Paper => 12,
            Scale::Large => 12,
        }
    }

    /// Bytes per node record in the graph kernels' node arrays (level,
    /// rank, color, …). The paper's graphs occupy 8-107 GB, so per-node
    /// payloads span far more pages relative to TLB reach than a 4-byte
    /// array at our node counts would; widening the record restores the
    /// paper's pages-per-gather ratio at simulable node counts (see
    /// DESIGN.md).
    pub fn node_stride(self) -> u64 {
        match self {
            Scale::Test => 4,
            Scale::Small => 32,
            Scale::Paper => 32,
            Scale::Large => 32,
        }
    }

    /// Iterations for the iterative graph kernels.
    pub fn graph_iterations(self) -> usize {
        match self {
            Scale::Test => 1,
            Scale::Small => 2,
            Scale::Paper => 2,
            Scale::Large => 3,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scale::Test => write!(f, "test"),
            Scale::Small => write!(f, "small"),
            Scale::Paper => write!(f, "paper"),
            Scale::Large => write!(f, "large"),
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses the [`fmt::Display`] names (used by CLI flags and the
    /// `trace/v1` footer's scale tag).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "test" => Ok(Scale::Test),
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            "large" => Ok(Scale::Large),
            other => Err(format!(
                "unknown scale {other:?} (expected test|small|paper|large)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Test.matrix_dim() < Scale::Small.matrix_dim());
        assert!(Scale::Small.matrix_dim() < Scale::Paper.matrix_dim());
        assert!(Scale::Test.graph_nodes() < Scale::Paper.graph_nodes());
    }

    #[test]
    fn paper_scale_exceeds_tlb_reach() {
        // One matrix at paper scale spans far more pages than the 64-entry
        // L1 TLB covers.
        let dim = Scale::Paper.matrix_dim();
        let pages = (dim * dim * 4) / 4096;
        assert!(pages >= 4 * 64, "matrix pages {pages} must dwarf TLB reach");
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(Scale::default(), Scale::Paper);
    }

    #[test]
    fn display_names() {
        assert_eq!(Scale::Test.to_string(), "test");
        assert_eq!(Scale::Paper.to_string(), "paper");
    }

    #[test]
    fn from_str_round_trips_display() {
        for s in [Scale::Test, Scale::Small, Scale::Paper, Scale::Large] {
            assert_eq!(s.to_string().parse::<Scale>(), Ok(s));
        }
        assert!("huge".parse::<Scale>().is_err());
    }
}

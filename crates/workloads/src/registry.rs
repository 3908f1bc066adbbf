//! The benchmark registry (the paper's Table II).

use crate::format::TraceSource;
use crate::gen;
use crate::graph::CsrGraph;
use crate::scale::Scale;
use crate::trace::Workload;
use std::fmt;
use std::sync::Arc;
use vmem::PageSize;

/// The benchmark suite a workload comes from.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Rodinia (Che et al., IISWC'09).
    Rodinia,
    /// PolyBench-GPU (Grauer-Gray et al., InPar'12).
    PolyBench,
    /// Pannotia (Che et al., IISWC'13).
    Pannotia,
    /// Not in Table II: this reproduction's extension workloads.
    Extension,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::Rodinia => write!(f, "Rodinia"),
            Suite::PolyBench => write!(f, "PolyBench"),
            Suite::Pannotia => write!(f, "Pannotia"),
            Suite::Extension => write!(f, "Extension"),
        }
    }
}

/// One row of Table II: a named, generatable benchmark.
#[derive(Clone)]
pub struct BenchmarkSpec {
    /// Benchmark short name (`"bfs"`, `"gemm"`, …).
    pub name: &'static str,
    /// Originating suite.
    pub suite: Suite,
    /// The application, as described in Table II.
    pub application: &'static str,
    generator: Generator,
}

/// How a benchmark builds its trace.
#[derive(Copy, Clone)]
enum Generator {
    /// From its inputs alone.
    Plain(fn(Scale, u64, PageSize) -> Workload),
    /// By traversing the graph of [`gen::graph::build_graph`] at the same
    /// scale and seed.
    OnGraph(fn(&CsrGraph, Scale, u64, PageSize) -> Workload),
}

impl BenchmarkSpec {
    /// Generates the workload at `scale` with 4 KiB pages.
    pub fn generate(&self, scale: Scale, seed: u64) -> Workload {
        self.generate_with_page_size(scale, seed, PageSize::Small)
    }

    /// Generates the workload with an explicit page size (the paper's
    /// Section V huge-page study).
    pub fn generate_with_page_size(
        &self,
        scale: Scale,
        seed: u64,
        page_size: PageSize,
    ) -> Workload {
        self.generate_on_graph(scale, seed, page_size, || {
            Arc::new(gen::graph::build_graph(scale, seed))
        })
    }

    /// Generates as [`generate_with_page_size`](Self::generate_with_page_size)
    /// does, except that a graph benchmark traverses the graph `graph`
    /// returns instead of building its own. `graph` must return the
    /// graph of `gen::graph::build_graph(scale, seed)`; it is called only
    /// for graph benchmarks.
    pub(crate) fn generate_on_graph(
        &self,
        scale: Scale,
        seed: u64,
        page_size: PageSize,
        graph: impl FnOnce() -> Arc<CsrGraph>,
    ) -> Workload {
        match self.generator {
            Generator::Plain(generate) => generate(scale, seed, page_size),
            Generator::OnGraph(generate) => generate(&graph(), scale, seed, page_size),
        }
    }

    /// Generates the workload as an in-memory [`TraceSource`] with 4 KiB
    /// pages (file-backed sources come from
    /// [`WorkloadCache::get_source`](crate::WorkloadCache::get_source)).
    pub fn source(&self, scale: Scale, seed: u64) -> TraceSource {
        TraceSource::Generated(self.generate(scale, seed))
    }

    /// Generates the workload as an in-memory [`TraceSource`] with an
    /// explicit page size.
    pub fn source_with_page_size(
        &self,
        scale: Scale,
        seed: u64,
        page_size: PageSize,
    ) -> TraceSource {
        TraceSource::Generated(self.generate_with_page_size(scale, seed, page_size))
    }
}

impl fmt::Debug for BenchmarkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BenchmarkSpec")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .field("application", &self.application)
            .finish()
    }
}

/// The Table II benchmarks plus the ML extension workloads
/// (`embedding`, `mlp`) the paper's future work names. Figure/table
/// reproductions use [`registry`]; use this for broader sweeps.
pub fn extended_registry() -> Vec<BenchmarkSpec> {
    let mut all = registry();
    all.push(BenchmarkSpec {
        name: "embedding",
        suite: Suite::Extension,
        application: "Embedding-table lookup (recommendation models)",
        generator: Generator::Plain(gen::ml::embedding),
    });
    all.push(BenchmarkSpec {
        name: "mlp",
        suite: Suite::Extension,
        application: "Multi-layer perceptron forward pass",
        generator: Generator::Plain(gen::ml::mlp),
    });
    all
}

/// All 10 benchmarks of Table II, in the paper's order.
pub fn registry() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec {
            name: "bfs",
            suite: Suite::Rodinia,
            application: "Breadth-First Search",
            generator: Generator::OnGraph(gen::graph::bfs),
        },
        BenchmarkSpec {
            name: "color",
            suite: Suite::Pannotia,
            application: "Graph coloring centrality",
            generator: Generator::OnGraph(gen::graph::color),
        },
        BenchmarkSpec {
            name: "mis",
            suite: Suite::Pannotia,
            application: "Maximal independent set",
            generator: Generator::OnGraph(gen::graph::mis),
        },
        BenchmarkSpec {
            name: "nw",
            suite: Suite::Rodinia,
            application: "Needleman-Wunsch",
            generator: Generator::Plain(gen::nw::generate),
        },
        BenchmarkSpec {
            name: "pagerank",
            suite: Suite::Pannotia,
            application: "Page rank",
            generator: Generator::OnGraph(gen::graph::pagerank),
        },
        BenchmarkSpec {
            name: "3dconv",
            suite: Suite::PolyBench,
            application: "3D Convolution",
            generator: Generator::Plain(gen::conv3d::generate),
        },
        BenchmarkSpec {
            name: "atax",
            suite: Suite::PolyBench,
            application: "Matrix Transpose and Vector Multiplication",
            generator: Generator::Plain(gen::linalg::atax),
        },
        BenchmarkSpec {
            name: "bicg",
            suite: Suite::PolyBench,
            application: "BiCG Sub Kernel of BiCGStab Linear Solver",
            generator: Generator::Plain(gen::linalg::bicg),
        },
        BenchmarkSpec {
            name: "gemm",
            suite: Suite::PolyBench,
            application: "Matrix Multiply",
            generator: Generator::Plain(gen::gemm::generate),
        },
        BenchmarkSpec {
            name: "mvt",
            suite: Suite::PolyBench,
            application: "Matrix Vector Product and Transpose",
            generator: Generator::Plain(gen::linalg::mvt),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table2() {
        let r = registry();
        assert_eq!(r.len(), 10);
        let names: Vec<&str> = r.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["bfs", "color", "mis", "nw", "pagerank", "3dconv", "atax", "bicg", "gemm", "mvt"]
        );
        // Suite distribution per Table II: 2 Rodinia, 5 PolyBench,
        // 3 Pannotia.
        let count = |s: Suite| r.iter().filter(|b| b.suite == s).count();
        assert_eq!(count(Suite::Rodinia), 2);
        assert_eq!(count(Suite::PolyBench), 5);
        assert_eq!(count(Suite::Pannotia), 3);
    }

    #[test]
    fn every_benchmark_generates_at_test_scale() {
        for spec in registry() {
            let wl = spec.generate(Scale::Test, 42);
            assert_eq!(wl.name(), spec.name);
            assert!(
                wl.total_warp_ops() > 0,
                "{} generated an empty trace",
                spec.name
            );
            assert!(!wl.kernels().is_empty());
        }
    }

    #[test]
    fn debug_formatting() {
        let s = format!("{:?}", &registry()[0]);
        assert!(s.contains("bfs"));
    }

    #[test]
    fn extended_registry_adds_ml_workloads() {
        let ext = extended_registry();
        assert_eq!(ext.len(), 12);
        assert_eq!(ext[10].name, "embedding");
        assert_eq!(ext[11].name, "mlp");
        for spec in &ext[10..] {
            assert_eq!(spec.suite, Suite::Extension);
            let wl = spec.generate(Scale::Test, 42);
            assert!(wl.total_warp_ops() > 0, "{}", spec.name);
        }
        // Table II registry is unchanged.
        assert_eq!(registry().len(), 10);
    }

    #[test]
    fn huge_page_generation_works() {
        let spec = registry().into_iter().find(|s| s.name == "gemm").unwrap();
        let wl = spec.generate_with_page_size(Scale::Test, 1, PageSize::Large);
        assert_eq!(wl.space().page_size(), PageSize::Large);
        assert!(wl.total_warp_ops() > 0);
    }
}

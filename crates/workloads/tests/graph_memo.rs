//! A cache that already holds the graph benchmarks' graph serves the
//! same workloads as generating each one with its own graph: the same
//! ops in every kernel and the same address space, whatever order the
//! benchmarks and page sizes are requested in.

use vmem::PageSize;
use workloads::{registry, BenchmarkSpec, Scale, Workload, WorkloadCache};

const GRAPH_BENCHES: [&str; 4] = ["bfs", "color", "mis", "pagerank"];

fn spec(name: &str) -> BenchmarkSpec {
    registry().into_iter().find(|s| s.name == name).unwrap()
}

fn assert_same(cached: &Workload, fresh: &Workload, what: &str) {
    assert_eq!(cached.name(), fresh.name(), "{what}");
    assert_eq!(cached.kernels().len(), fresh.kernels().len(), "{what}");
    for (a, b) in cached.kernels().iter().zip(fresh.kernels()) {
        assert_eq!(a.name, b.name, "{what}");
        assert_eq!(a.max_concurrent_tbs_per_sm, b.max_concurrent_tbs_per_sm);
        assert_eq!(a.threads_per_tb, b.threads_per_tb, "{what}");
        assert_eq!(a.tbs, b.tbs, "{what}: {} ops differ", a.name);
    }
    let (sa, sb) = (cached.space(), fresh.space());
    assert_eq!(sa.page_size(), sb.page_size(), "{what}");
    assert!(sa.buffers().eq(sb.buffers()), "{what}: buffers differ");
}

fn check_scale(scale: Scale) {
    let seed = 42;
    let cells: Vec<(&str, PageSize)> = GRAPH_BENCHES
        .iter()
        .flat_map(|&name| [PageSize::Small, PageSize::Large].map(|ps| (name, ps)))
        .collect();
    let fresh: Vec<Workload> = cells
        .iter()
        .map(|&(name, ps)| spec(name).generate_with_page_size(scale, seed, ps))
        .collect();
    // Forward, reversed and page-size-major: each cell is requested
    // both first (building the graph) and after another cell built it.
    let forward: Vec<usize> = (0..cells.len()).collect();
    let reversed: Vec<usize> = forward.iter().rev().copied().collect();
    let by_page: Vec<usize> = (0..cells.len())
        .step_by(2)
        .chain((1..cells.len()).step_by(2))
        .collect();
    for order in [forward, reversed, by_page] {
        let cache = WorkloadCache::new();
        for &i in &order {
            let (name, ps) = cells[i];
            let cached = cache.get_with_page_size(&spec(name), scale, seed, ps);
            assert_same(
                &cached,
                &fresh[i],
                &format!("{name} {ps:?} at {scale}, order {order:?}"),
            );
        }
        assert_eq!(cache.stats().graph_builds, 1);
    }
}

#[test]
fn memoized_graph_serves_fresh_workloads_at_test_scale() {
    check_scale(Scale::Test);
}

#[test]
fn memoized_graph_serves_fresh_workloads_at_small_scale() {
    check_scale(Scale::Small);
}

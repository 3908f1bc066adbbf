//! The parallel grid must be invisible in the results: every figure row
//! is exactly equal for any `--jobs N`, and a cached workload behaves
//! exactly like a freshly generated one.

use bench::{fig10_11_grid, Grid, SEED};
use gpu_sim::GpuConfig;
use orchestrated_tlb::{run_benchmark, run_benchmark_cached, Mechanism};
use workloads::{registry, Scale, WorkloadCache};

/// Figure 10/11 rows are exactly equal (every float bit-identical) for
/// `jobs = 1` vs `jobs = 8`, and stable across repeated parallel runs.
#[test]
fn fig10_rows_identical_for_any_job_count() {
    let specs = registry();
    let serial = fig10_11_grid(&specs, Scale::Test, &Grid::new(1));
    let parallel = fig10_11_grid(&specs, Scale::Test, &Grid::new(8));
    let repeated = fig10_11_grid(&specs, Scale::Test, &Grid::new(8));

    // Debug formatting renders every f64 exactly, so string equality is
    // bitwise equality of all hit rates and normalized times.
    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "jobs=1 and jobs=8 must produce identical rows"
    );
    assert_eq!(
        format!("{parallel:?}"),
        format!("{repeated:?}"),
        "repeated parallel runs must produce identical rows"
    );
}

/// A workload served from the cache produces a `SimReport` identical to
/// one generated fresh, for every mechanism in the paper — i.e. sharing
/// kernel traces behind `Arc` never leaks simulator state between runs.
#[test]
fn cached_workload_reports_match_fresh_for_every_mechanism() {
    let spec = registry().into_iter().find(|s| s.name == "mvt").unwrap();
    let cache = WorkloadCache::new();
    for mechanism in Mechanism::all() {
        let fresh = run_benchmark(
            &spec,
            Scale::Test,
            SEED,
            mechanism,
            GpuConfig::dac23_baseline(),
        );
        let cached = run_benchmark_cached(
            &cache,
            &spec,
            Scale::Test,
            SEED,
            mechanism,
            GpuConfig::dac23_baseline(),
        );
        assert_eq!(
            format!("{fresh:?}"),
            format!("{cached:?}"),
            "cached vs fresh mismatch under mechanism {}",
            mechanism.label()
        );
    }

    // Across the full mechanism sweep the trace is generated exactly
    // once; every later run must hit the cache, not regenerate.
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "workload generated more than once");
    assert_eq!(
        stats.hits,
        Mechanism::all().len() as u64 - 1,
        "expected every later mechanism to hit the cache"
    );
}

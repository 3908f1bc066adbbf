//! The parallel experiment-grid runner.
//!
//! The paper's evaluation is a grid: every benchmark × every mechanism
//! (× page sizes, TLB capacities, seeds). Cells are independent — the
//! simulator is single-threaded and deterministic — so the grid is
//! embarrassingly parallel. [`Grid::map`] fans cells out over a fixed
//! worker pool (`std::thread::scope` + an atomic work queue; no external
//! dependencies) and collects results *by cell index*, so the output of
//! any figure function is bit-identical for every `--jobs N`, including
//! `N = 1`.
//!
//! Workers share one [`WorkloadCache`], so a workload's trace is
//! generated once per `(benchmark, scale, seed, page_size)` no matter how
//! many grid cells — or worker threads — consume it.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use workloads::WorkloadCache;

/// A fixed-size worker pool that maps experiment cells in deterministic
/// output order.
///
/// # Example
///
/// ```
/// use bench::Grid;
///
/// let grid = Grid::new(4);
/// let squares = grid.map(&[1u64, 2, 3, 4, 5], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]); // order preserved
/// ```
pub struct Grid {
    jobs: usize,
    cache: Arc<WorkloadCache>,
}

impl Grid {
    /// A grid running `jobs` cells concurrently (`0` means
    /// [`Grid::default_jobs`]), with a fresh workload cache.
    pub fn new(jobs: usize) -> Self {
        Grid::with_cache(jobs, Arc::new(WorkloadCache::new()))
    }

    /// A single-worker grid: cells run inline on the calling thread, in
    /// order. Useful as the drop-in serial path.
    pub fn serial() -> Self {
        Grid::new(1)
    }

    /// A grid sharing an existing workload cache (e.g. one cache across
    /// every figure of a `repro --all` run).
    pub fn with_cache(jobs: usize, cache: Arc<WorkloadCache>) -> Self {
        Grid {
            jobs: if jobs == 0 {
                Grid::default_jobs()
            } else {
                jobs
            },
            cache,
        }
    }

    /// The machine's available parallelism (1 if it cannot be queried).
    pub fn default_jobs() -> usize {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Number of concurrent cells this grid runs.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The shared workload cache.
    pub fn cache(&self) -> &WorkloadCache {
        &self.cache
    }

    /// Clones the shared cache handle (to build another grid over the
    /// same cache).
    pub fn cache_handle(&self) -> Arc<WorkloadCache> {
        Arc::clone(&self.cache)
    }

    /// Applies `f` to every item and returns the results in item order —
    /// bit-identical output regardless of `jobs`.
    ///
    /// Work is distributed dynamically: each worker pops the next
    /// unclaimed index from an atomic counter, so long cells (e.g.
    /// `Scale::Paper` graph benchmarks) don't serialize behind a static
    /// partition. If `f` panics on any cell the panic propagates to the
    /// caller once all workers stop.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.jobs.min(items.len()).max(1);
        if workers == 1 {
            return items.iter().map(f).collect();
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        // simlint: allow(engine-spawn, reason = "bench sweep fan-out over independent simulations; each result lands in its per-index slot, so completion order cannot reach the output")
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let result = f(item);
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every cell index was claimed by a worker")
            })
            .collect()
    }
}

impl Default for Grid {
    fn default() -> Self {
        Grid::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_any_width() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let got = Grid::new(jobs).map(&items, |&x| x * 3);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let grid = Grid::new(4);
        assert_eq!(grid.map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(grid.map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        let grid = Grid::new(0);
        assert!(grid.jobs() >= 1);
        assert_eq!(grid.jobs(), Grid::default_jobs());
    }

    #[test]
    fn grids_can_share_a_cache() {
        let a = Grid::new(2);
        let b = Grid::with_cache(4, a.cache_handle());
        let spec = workloads::registry()
            .into_iter()
            .find(|s| s.name == "gemm")
            .unwrap();
        a.cache().get(&spec, workloads::Scale::Test, 42);
        b.cache().get(&spec, workloads::Scale::Test, 42);
        assert_eq!(b.cache().stats().misses, 1);
        assert_eq!(b.cache().stats().hits, 1);
    }

    #[test]
    fn work_is_actually_distributed() {
        // With 4 workers and 4 slow-ish items, at least two distinct
        // threads must claim work (the queue hands out all indices before
        // any single worker can finish them all — not guaranteed, so we
        // assert only that all results are correct and distinct threads
        // *may* appear; the determinism tests cover correctness).
        let grid = Grid::new(4);
        let got = grid.map(&[10u64, 20, 30, 40], |&x| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            x / 10
        });
        assert_eq!(got, vec![1, 2, 3, 4]);
    }
}

//! A concurrency-safe workload cache for experiment grids.
//!
//! The paper's evaluation grid re-runs every benchmark under nine
//! mechanisms (Figure 10), several TLB capacities (Figure 5) and two page
//! sizes (Section V). Trace generation is pure — `(benchmark, scale,
//! seed, page_size)` fully determines the workload — so regenerating the
//! trace for every grid cell is wasted work. [`WorkloadCache`] generates
//! each distinct workload once and hands out cheap clones: the kernels'
//! trace storage is `Arc`-shared ([`Workload`] documents this), and only
//! the pristine address space is deep-copied so each simulation run can
//! demand-page privately.
//!
//! The cache is safe to share across the parallel grid runner's threads:
//! the map lock is held only to find or create a cell, and generation
//! itself runs outside it through [`OnceLock::get_or_init`], so two
//! threads asking for *different* workloads generate concurrently while
//! two threads asking for the *same* workload generate it exactly once.
//! Below the entries sits a memo of the one graph the four graph
//! benchmarks traverse (see [`WorkloadCache`]).

use std::collections::HashMap; // simlint: allow(hash-iter, reason = "cache keyed by (name, scale, seed, page size); never iterated")
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use vmem::PageSize;

use crate::format::{self, TraceError, TraceReader, TraceSource};
use crate::gen::graph::build_graph;
use crate::graph::CsrGraph;
use crate::registry::BenchmarkSpec;
use crate::scale::Scale;
use crate::trace::Workload;

/// Everything that determines a generated workload.
type Key = (&'static str, Scale, u64, PageSize);

/// Everything that determines the graph benchmarks' graph (the node and
/// edge counts and the cluster window all follow from the scale).
type GraphKey = (Scale, u64);

/// The on-disk cache key: provenance as recorded in a `trace/v1` footer
/// (the scale is its display tag so hand-written traces can join in).
type DiskKey = (String, String, u64, PageSize);

/// Numbers each trace write in this process, so concurrent writers of
/// one entry never share a temp file.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn disk_key(bench: &str, scale: Scale, seed: u64, page_size: PageSize) -> DiskKey {
    (bench.to_owned(), scale.to_string(), seed, page_size)
}

/// Hit/miss counters of a [`WorkloadCache`] (one miss per distinct
/// workload generated), and how many graphs it built for them.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from an already-generated workload.
    pub hits: u64,
    /// Requests that generated the workload.
    pub misses: u64,
    /// Graphs built for graph benchmarks: one per `(scale, seed)` that a
    /// generated (or written) graph workload asked for.
    pub graph_builds: u64,
}

impl CacheStats {
    /// Total requests served (graph builds are not requests).
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Generates each distinct `(benchmark, scale, seed, page_size)` workload
/// once and serves shared-storage clones afterwards.
///
/// The graph benchmarks (`bfs`, `color`, `mis`, `pagerank`) share one
/// more thing: the graph they traverse depends only on scale and seed,
/// so it is built once per `(scale, seed)` and held for the cache's
/// lifetime. Each benchmark, at either page size, traces over that one
/// graph in its own address space, so `repro --all` builds one graph,
/// not eight, and the workloads are those
/// [`BenchmarkSpec::generate_with_page_size`] builds. The memo belongs
/// to the instance, not the process: a fresh cache builds its graphs
/// again, and `BenchmarkSpec::generate*` never use it.
///
/// # Example
///
/// ```
/// use workloads::{registry, Scale, WorkloadCache};
///
/// let cache = WorkloadCache::new();
/// let spec = registry().into_iter().find(|s| s.name == "gemm").unwrap();
/// let first = cache.get(&spec, Scale::Test, 42);
/// let again = cache.get(&spec, Scale::Test, 42);
/// assert_eq!(first.total_warp_ops(), again.total_warp_ops());
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().hits, 1);
///
/// // bfs and pagerank, at both page sizes, traverse one graph.
/// for name in ["bfs", "pagerank"] {
///     let spec = registry().into_iter().find(|s| s.name == name).unwrap();
///     cache.get(&spec, Scale::Test, 42);
///     cache.get_with_page_size(&spec, Scale::Test, 42, vmem::PageSize::Large);
/// }
/// assert_eq!(cache.stats().graph_builds, 1);
/// ```
#[derive(Default)]
pub struct WorkloadCache {
    entries: Mutex<HashMap<Key, Arc<OnceLock<Workload>>>>, // simlint: allow(hash-iter, reason = "keyed access only; results never depend on entry order")
    hits: AtomicU64,
    misses: AtomicU64,
    /// The graph benchmarks' graphs, built on first use.
    graphs: Mutex<HashMap<GraphKey, Arc<OnceLock<Arc<CsrGraph>>>>>, // simlint: allow(hash-iter, reason = "keyed access only; results never depend on entry order")
    graph_builds: AtomicU64,
    /// When set, misses also persist a `trace/v1` file here (and later
    /// requests — in this process or the next — replay it from disk).
    disk: Option<PathBuf>,
    /// Trace files registered explicitly via [`WorkloadCache::preload_trace`]
    /// (`repro --trace FILE`), keyed by their recorded provenance.
    preloaded: Mutex<HashMap<DiskKey, PathBuf>>, // simlint: allow(hash-iter, reason = "keyed access only; results never depend on entry order")
}

impl WorkloadCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache backed by an on-disk trace directory: every miss
    /// writes a `trace/v1` file under `dir` (named by its provenance
    /// key), and any process pointing a cache at the same directory
    /// replays those files instead of regenerating. Disk failures fall
    /// back to in-memory generation — the cache never changes results,
    /// only where they come from.
    pub fn with_disk(dir: impl Into<PathBuf>) -> Self {
        WorkloadCache {
            disk: Some(dir.into()),
            ..Self::default()
        }
    }

    /// The trace directory, if this cache is disk-backed.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref()
    }

    /// Registers an existing trace file: requests whose `(bench, scale,
    /// seed, page_size)` match the file's recorded provenance replay it
    /// instead of generating.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the file cannot be opened or its
    /// footer does not parse (corrupt files are rejected up front, not
    /// at replay time).
    pub fn preload_trace(&self, path: &Path) -> Result<TraceReader, TraceError> {
        let reader = TraceReader::open(path)?;
        let key = (
            reader.bench().to_owned(),
            reader.scale_tag().to_owned(),
            reader.seed(),
            reader.page_size(),
        );
        self.preloaded
            .lock()
            .expect("cache lock poisoned")
            .insert(key, path.to_owned());
        Ok(reader)
    }

    /// The canonical file name of a cached trace (readable provenance
    /// plus the format version, so a version bump never replays stale
    /// bytes).
    fn disk_path(
        &self,
        bench: &str,
        scale: Scale,
        seed: u64,
        page_size: PageSize,
    ) -> Option<PathBuf> {
        let dir = self.disk.as_ref()?;
        let ps = match page_size {
            PageSize::Small => "4k",
            PageSize::Large => "2m",
        };
        Some(dir.join(format!(
            "{bench}-{scale}-s{seed}-{ps}.v{}.trace",
            format::VERSION
        )))
    }

    /// The trace file serving `(bench, scale, seed, page_size)`, if any:
    /// a preloaded file wins, then the disk directory.
    fn trace_file(
        &self,
        bench: &str,
        scale: Scale,
        seed: u64,
        page_size: PageSize,
    ) -> Option<PathBuf> {
        let pre = self
            .preloaded
            .lock()
            .expect("cache lock poisoned")
            .get(&disk_key(bench, scale, seed, page_size))
            .cloned();
        pre.or_else(|| self.disk_path(bench, scale, seed, page_size))
    }

    /// Ensures a trace file for `spec` exists on disk and returns its
    /// path, generating and writing it if needed. Writes go through a
    /// temp file + rename, so two processes sharing a directory never
    /// see a half-written trace. Each writer gets its own temp file
    /// (process id plus a per-process sequence number), so two threads
    /// that miss on the same entry both succeed: the second rename
    /// replaces the first writer's identical bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if this cache has no disk directory and
    /// no matching preloaded file, or if writing fails.
    pub fn ensure_trace_file(
        &self,
        spec: &BenchmarkSpec,
        scale: Scale,
        seed: u64,
        page_size: PageSize,
    ) -> Result<PathBuf, TraceError> {
        let path = self
            .trace_file(spec.name, scale, seed, page_size)
            .ok_or_else(|| TraceError::NotATrace {
                what: "cache has no disk directory (use with_disk or preload_trace)".into(),
            })?;
        if path.exists() {
            return Ok(path);
        }
        if let Some(dir) = &self.disk {
            std::fs::create_dir_all(dir).map_err(|source| TraceError::Io {
                context: format!("create trace dir {}", dir.display()),
                source,
            })?;
        }
        let workload = self.generate(spec, scale, seed, page_size);
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        let written = format::write_workload(&tmp, &workload, spec.name, Some(scale), seed)
            .and_then(|_| {
                std::fs::rename(&tmp, &path).map_err(|source| TraceError::Io {
                    context: format!("rename {} into place", tmp.display()),
                    source,
                })
            });
        if written.is_err() {
            // Best effort: the error below is what the caller acts on.
            let _ = std::fs::remove_file(&tmp);
        }
        written.map(|()| path)
    }

    /// Returns a [`TraceSource`] for `spec` with 4 KiB pages: a
    /// streaming file source when this cache is disk-backed (or the
    /// trace was preloaded), an in-memory generated workload otherwise.
    pub fn get_source(&self, spec: &BenchmarkSpec, scale: Scale, seed: u64) -> TraceSource {
        self.get_source_with_page_size(spec, scale, seed, PageSize::Small)
    }

    /// Returns a [`TraceSource`] for `spec` at `page_size`. File-backed
    /// sources stream TBs block by block during simulation, so the full
    /// kernel is never resident; if the file cannot be produced or
    /// opened, falls back to in-memory generation (reporting the reason
    /// on stderr) rather than failing the run.
    pub fn get_source_with_page_size(
        &self,
        spec: &BenchmarkSpec,
        scale: Scale,
        seed: u64,
        page_size: PageSize,
    ) -> TraceSource {
        if self.trace_file(spec.name, scale, seed, page_size).is_some() {
            match self
                .ensure_trace_file(spec, scale, seed, page_size)
                .and_then(|path| TraceReader::open(&path))
            {
                Ok(reader) => return TraceSource::File(reader),
                Err(e) => {
                    eprintln!(
                        "warning: trace cache unusable for {} ({scale}, seed {seed}): {e}; regenerating",
                        spec.name
                    );
                }
            }
        }
        TraceSource::Generated(self.get_with_page_size(spec, scale, seed, page_size))
    }

    /// Returns the workload for `spec` at `scale`/`seed` with 4 KiB
    /// pages, generating it on first request.
    pub fn get(&self, spec: &BenchmarkSpec, scale: Scale, seed: u64) -> Workload {
        self.get_with_page_size(spec, scale, seed, PageSize::Small)
    }

    /// Returns the workload for `spec` at `scale`/`seed`/`page_size`,
    /// generating it on first request.
    pub fn get_with_page_size(
        &self,
        spec: &BenchmarkSpec,
        scale: Scale,
        seed: u64,
        page_size: PageSize,
    ) -> Workload {
        let cell = {
            let mut entries = self.entries.lock().expect("cache lock poisoned");
            Arc::clone(
                entries
                    .entry((spec.name, scale, seed, page_size))
                    .or_insert_with(|| Arc::new(OnceLock::new())),
            )
        };
        // Generate outside the map lock so distinct workloads build in
        // parallel; OnceLock still guarantees one generation per key.
        let mut generated = false;
        let workload = cell.get_or_init(|| {
            generated = true;
            self.load_or_generate(spec, scale, seed, page_size)
        });
        if generated {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        workload.clone()
    }

    /// First materialization of a key: replay the trace file when one
    /// is (or can be put) on disk, generate in RAM otherwise.
    fn load_or_generate(
        &self,
        spec: &BenchmarkSpec,
        scale: Scale,
        seed: u64,
        page_size: PageSize,
    ) -> Workload {
        if self.trace_file(spec.name, scale, seed, page_size).is_some() {
            let loaded = self
                .ensure_trace_file(spec, scale, seed, page_size)
                .and_then(|path| TraceReader::open(&path))
                .and_then(|reader| reader.read_workload());
            match loaded {
                Ok(workload) => return workload,
                Err(e) => {
                    eprintln!(
                        "warning: trace cache unusable for {} ({scale}, seed {seed}): {e}; regenerating",
                        spec.name
                    );
                }
            }
        }
        self.generate(spec, scale, seed, page_size)
    }

    /// Generates `spec` in RAM; a graph benchmark traverses the memoized
    /// graph.
    fn generate(
        &self,
        spec: &BenchmarkSpec,
        scale: Scale,
        seed: u64,
        page_size: PageSize,
    ) -> Workload {
        spec.generate_on_graph(scale, seed, page_size, || self.graph(scale, seed))
    }

    /// The graph benchmarks' graph at `scale`/`seed`, built on first
    /// request. Like workload entries, the map lock only finds the cell,
    /// and the [`OnceLock`] builds each graph exactly once.
    fn graph(&self, scale: Scale, seed: u64) -> Arc<CsrGraph> {
        let cell = {
            let mut graphs = self.graphs.lock().expect("cache lock poisoned");
            Arc::clone(graphs.entry((scale, seed)).or_default())
        };
        let graph = cell.get_or_init(|| {
            self.graph_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(build_graph(scale, seed))
        });
        Arc::clone(graph)
    }

    /// Current hit/miss and graph-build counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            graph_builds: self.graph_builds.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct workloads generated so far.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock poisoned").len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;

    fn spec(name: &str) -> BenchmarkSpec {
        registry().into_iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn generates_once_per_key() {
        let cache = WorkloadCache::new();
        let gemm = spec("gemm");
        for _ in 0..5 {
            cache.get(&gemm, Scale::Test, 42);
        }
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 4,
                misses: 1,
                graph_builds: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_get_distinct_workloads() {
        let cache = WorkloadCache::new();
        let gemm = spec("gemm");
        let a = cache.get(&gemm, Scale::Test, 42);
        let b = cache.get(&gemm, Scale::Test, 43);
        let c = cache.get_with_page_size(&gemm, Scale::Test, 42, PageSize::Large);
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(a.name(), b.name());
        assert_eq!(c.space().page_size(), PageSize::Large);
    }

    #[test]
    fn cached_clone_matches_fresh_generation() {
        let cache = WorkloadCache::new();
        let bfs = spec("bfs");
        let cached = cache.get(&bfs, Scale::Test, 42);
        let fresh = bfs.generate(Scale::Test, 42);
        assert_eq!(cached.total_warp_ops(), fresh.total_warp_ops());
        assert_eq!(cached.footprint_bytes(), fresh.footprint_bytes());
        for (a, b) in cached.kernels().iter().zip(fresh.kernels()) {
            assert_eq!(a.tbs, b.tbs);
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("otlb-cache-{tag}-{}", std::process::id()))
    }

    #[test]
    fn disk_cache_replays_the_same_workload() {
        let dir = temp_dir("replay");
        let gemm = spec("gemm");
        let fresh = gemm.generate(Scale::Test, 42);

        let cache = WorkloadCache::with_disk(&dir);
        let first = cache.get(&gemm, Scale::Test, 42); // generates + writes
        let cache2 = WorkloadCache::with_disk(&dir);
        let replayed = cache2.get(&gemm, Scale::Test, 42); // reads the file

        for wl in [&first, &replayed] {
            assert_eq!(wl.name(), fresh.name());
            assert_eq!(wl.summary(), fresh.summary());
            for (a, b) in wl.kernels().iter().zip(fresh.kernels()) {
                assert_eq!(a.tbs, b.tbs);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_cache_is_deterministic_across_populations() {
        let dir_a = temp_dir("det-a");
        let dir_b = temp_dir("det-b");
        let mvt = spec("mvt");
        let path_a = WorkloadCache::with_disk(&dir_a)
            .ensure_trace_file(&mvt, Scale::Test, 42, PageSize::Small)
            .unwrap();
        let path_b = WorkloadCache::with_disk(&dir_b)
            .ensure_trace_file(&mvt, Scale::Test, 42, PageSize::Small)
            .unwrap();
        assert_eq!(
            crate::format::file_hash(&path_a).unwrap(),
            crate::format::file_hash(&path_b).unwrap(),
            "two populations of the same key must write identical bytes"
        );
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn preloaded_trace_serves_matching_requests() {
        let dir = temp_dir("preload");
        std::fs::create_dir_all(&dir).unwrap();
        let bfs = spec("bfs");
        let wl = bfs.generate(Scale::Test, 7);
        let path = dir.join("hand-built.trace");
        crate::format::write_workload(&path, &wl, "bfs", Some(Scale::Test), 7).unwrap();

        let cache = WorkloadCache::new(); // no disk dir
        cache.preload_trace(&path).unwrap();
        match cache.get_source(&bfs, Scale::Test, 7) {
            TraceSource::File(reader) => assert_eq!(reader.seed(), 7),
            TraceSource::Generated(_) => panic!("preloaded trace was ignored"),
        }
        // A different seed misses the preload and generates.
        match cache.get_source(&bfs, Scale::Test, 8) {
            TraceSource::Generated(w) => assert_eq!(w.name(), "bfs"),
            TraceSource::File(_) => panic!("seed 8 must not match the seed-7 trace"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_only_cache_yields_generated_sources() {
        let cache = WorkloadCache::new();
        match cache.get_source(&spec("atax"), Scale::Test, 42) {
            TraceSource::Generated(w) => assert!(w.total_warp_ops() > 0),
            TraceSource::File(_) => panic!("no disk dir, no file source"),
        }
    }

    #[test]
    fn concurrent_writers_of_one_entry_both_succeed() {
        let dir = temp_dir("race");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = WorkloadCache::with_disk(&dir);
        let gemm = spec("gemm");
        let barrier = std::sync::Barrier::new(2);
        let paths: Vec<PathBuf> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.ensure_trace_file(&gemm, Scale::Test, 42, PageSize::Small)
                    })
                })
                .collect();
            writers
                .into_iter()
                .map(|w| w.join().unwrap().expect("both writers succeed"))
                .collect()
        });
        assert_eq!(paths[0], paths[1]);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1, "a temp file was left behind: {names:?}");
        let reader = TraceReader::open(&paths[0]).expect("the trace opens");
        assert_eq!(reader.seed(), 42);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    const PAGE_SIZES: [PageSize; 2] = [PageSize::Small, PageSize::Large];

    #[test]
    fn one_graph_build_per_scale_and_seed() {
        // The repro --all grid: every benchmark at both page sizes, here
        // at two seeds.
        let cache = WorkloadCache::new();
        for seed in [42, 7] {
            for spec in registry() {
                for ps in PAGE_SIZES {
                    cache.get_with_page_size(&spec, Scale::Test, seed, ps);
                }
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.graph_builds), (40, 2));
        assert_eq!(stats.requests(), 40, "graph builds are not requests");

        // Served workloads and plain benchmarks build nothing more.
        cache.get(&spec("bfs"), Scale::Test, 42);
        cache.get(&spec("gemm"), Scale::Test, 3);
        assert_eq!(cache.stats().graph_builds, 2);

        // The memo belongs to the instance.
        let fresh = WorkloadCache::new();
        fresh.get(&spec("pagerank"), Scale::Test, 42);
        assert_eq!(fresh.stats().graph_builds, 1);
    }

    #[test]
    fn racing_graph_benchmarks_build_one_graph() {
        let cache = WorkloadCache::new();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (name, ps) in [("color", PageSize::Small), ("mis", PageSize::Large)] {
                let (cache, barrier) = (&cache, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    cache.get_with_page_size(&spec(name), Scale::Test, 42, ps)
                });
            }
        });
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.graph_builds), (2, 1));
    }

    #[test]
    fn trace_writes_share_the_graph() {
        let dir = temp_dir("graph-memo");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = WorkloadCache::with_disk(&dir);
        for name in ["bfs", "mis"] {
            for ps in PAGE_SIZES {
                cache
                    .ensure_trace_file(&spec(name), Scale::Test, 42, ps)
                    .unwrap();
            }
        }
        assert_eq!(cache.stats().graph_builds, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_access_generates_each_key_once() {
        let cache = Arc::new(WorkloadCache::new());
        let names = ["gemm", "bfs", "mvt", "atax"];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for name in names {
                        let wl = cache.get(&spec(name), Scale::Test, 42);
                        assert!(wl.total_warp_ops() > 0);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, names.len() as u64);
        assert_eq!(stats.requests(), 16);
    }
}

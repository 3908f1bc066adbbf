//! The benchmark's four workloads: set-up, the timed loop, the traced
//! loop and the output checks. Why each workload exists, and which
//! layer metric should move which end-to-end metric on it, is in the
//! package README.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bench::{
    fig10_11_grid, fig12_grid, fig2_grid, fig3_4_grid, fig5_6_grid, geomean, hugepage_grid,
    Fig1011Row, Fig12Row, Fig2Row, Fig34Row, Fig56Row, Grid, HugePageRow, SEED,
};
use gpu_sim::{GpuConfig, SimReport, Simulator};
use orchestrated_tlb::{run_benchmark_cached, Mechanism};
use vmem::PageSize;
use workloads::format::write_workload;
use workloads::{
    registry, BenchmarkSpec, Scale, TraceReader, TraceSource, TraceSummary, Workload, WorkloadCache,
};

use crate::calib::Pacer;
use crate::check::{check_report, fingerprint, SameEveryRep};
use crate::clock::{SpanLog, Stopwatch};
use crate::decor::{decorated_simulator, LayerCounters, Ledger};
use crate::host::{median, PeakRss};
use crate::metrics::{RunResult, Values};
use crate::replay::{replay, ReplayCost};
use mem_hier::HitLevel;

/// Threads a workload may use: the benchmark is sized for a two-core
/// host.
pub const THREADS: usize = 2;

/// Times set-up runs per benchmark run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Fewest timed rounds per run (a round is one repetition, plus one
/// traced repetition when tracing), however long they take.
pub const MIN_REPS: u64 = 3;

/// The paper's headline: the full proposal cuts geomean execution time
/// by 12.5%.
pub const PAPER_REDUCTION_PCT: f64 = 12.5;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// gemm, baseline, in-memory replay, serial.
    GemmBaselineMem,
    /// bfs under the full proposal, streamed from a `trace/v1` file.
    BfsPaperStream,
    /// mvt+bfs co-run, baseline, two simulation threads.
    CorunMvtBfs2t,
    /// The paper-figure grid of `repro --all --scale small`.
    FiguresSmall,
}

impl WorkloadId {
    /// Every workload, in catalogue order.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::GemmBaselineMem,
        WorkloadId::BfsPaperStream,
        WorkloadId::CorunMvtBfs2t,
        WorkloadId::FiguresSmall,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::GemmBaselineMem => "gemm-baseline-mem",
            WorkloadId::BfsPaperStream => "bfs-paper-stream",
            WorkloadId::CorunMvtBfs2t => "corun-mvt-bfs-2t",
            WorkloadId::FiguresSmall => "figures-small",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input scale.
    pub fn scale(self) -> Scale {
        match self {
            WorkloadId::FiguresSmall => Scale::Small,
            _ => Scale::Large,
        }
    }

    /// The simulation a simulation workload times (`None` for the grid).
    fn sim(self) -> Option<SimSpec> {
        use SeedFrom::{Paper, Run};
        let (apps, mechanism, threads, stream): (&'static [(&'static str, SeedFrom)], _, _, _) =
            match self {
                WorkloadId::GemmBaselineMem => (&[("gemm", Run)], Mechanism::Baseline, 1, false),
                WorkloadId::BfsPaperStream => (&[("bfs", Run)], Mechanism::Full, 1, true),
                // The co-run's cost is bimodal in the bfs graph (22.5 M or
                // 27.5 M cycles, host time moving the other way), so a
                // seeded graph would make a set of runs measure which mode
                // its seeds fell in; the graph is pinned, mvt is seeded.
                WorkloadId::CorunMvtBfs2t => (
                    &[("mvt", Run), ("bfs", Paper)],
                    Mechanism::Baseline,
                    THREADS,
                    false,
                ),
                WorkloadId::FiguresSmall => return None,
            };
        Some(SimSpec {
            apps,
            mechanism,
            threads,
            stream,
        })
    }
}

/// How one benchmark run is driven.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Workload seed (the figure grid is pinned to [`SEED`]).
    pub seed: u64,
    /// Seconds of timed repetitions.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Directory for trace files and the span log.
    pub work_dir: PathBuf,
}

/// A run's result plus its span log (spans are written for a traced run).
pub struct Outcome {
    /// Metrics and run counts.
    pub result: RunResult,
    /// Every span of the run, for the span file.
    pub spans: SpanLog,
}

/// Runs `id` once under `opts`.
///
/// # Errors
///
/// Set-up failures, and a traced run whose reports differ from the
/// untraced run's, abort the run.
pub fn run(id: WorkloadId, opts: &RunOptions) -> Result<Outcome, String> {
    match id.sim() {
        Some(sim) => run_sim(&sim, opts),
        None => run_figures(opts),
    }
}

/// Counts attempts and failures; a failure is reported, never dropped.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

fn find_spec(name: &str) -> Result<BenchmarkSpec, String> {
    registry()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("benchmark {name} missing from the registry"))
}

/// |geomean execution-time reduction of `sched+part+share` − 12.5| in
/// percentage points, from Figure 10/11 rows.
pub fn paper_gap_pp(rows: &[Fig1011Row]) -> f64 {
    let full = geomean(rows.iter().map(|r| r.norm_time[3]));
    ((1.0 - full) * 100.0 - PAPER_REDUCTION_PCT).abs()
}

fn config() -> GpuConfig {
    GpuConfig::dac23_baseline()
}

// --- simulation workloads ------------------------------------------------

/// Where an app's generation seed comes from.
#[derive(Clone, Copy, Debug)]
enum SeedFrom {
    /// The run's `--seed`.
    Run,
    /// The paper seed, [`SEED`], whatever the run's seed.
    Paper,
}

impl SeedFrom {
    fn seed(self, run_seed: u64) -> u64 {
        match self {
            SeedFrom::Run => run_seed,
            SeedFrom::Paper => SEED,
        }
    }
}

struct SimSpec {
    apps: &'static [(&'static str, SeedFrom)],
    mechanism: Mechanism,
    threads: usize,
    stream: bool,
}

/// A simulation workload's prepared input.
enum Input {
    /// Generated workloads replayed from memory (two or more co-run).
    Mem(Vec<Workload>),
    /// A `trace/v1` file streamed during the run, with its op count.
    File { path: PathBuf, ops: u64 },
}

impl Input {
    fn instructions(&self) -> u64 {
        match self {
            Input::Mem(apps) => apps.iter().map(|w| w.total_warp_ops() as u64).sum(),
            Input::File { ops, .. } => *ops,
        }
    }

    /// The input as in-memory workloads (a streamed file is read back).
    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self {
            Input::Mem(apps) => Ok(apps.clone()),
            Input::File { path, .. } => TraceReader::open(path)
                .and_then(|r| r.read_workload())
                .map(|w| vec![w])
                .map_err(|e| e.to_string()),
        }
    }
}

/// Generates the inputs from `seed` and, for a streamed workload,
/// writes its trace file.
fn setup_sim(sim: &SimSpec, seed: u64, dir: &Path, log: &mut SpanLog) -> Result<Input, String> {
    let root = log.open("setup", None);
    let mut apps = Vec::new();
    for &(name, from) in sim.apps {
        let spec = find_spec(name)?;
        apps.push(log.record("workloads.generate", Some(root), || {
            spec.generate(Scale::Large, from.seed(seed))
        }));
    }
    let input = if sim.stream {
        let wl = apps.pop().ok_or("a streamed workload needs an app")?;
        let (name, from) = sim.apps[0];
        let seed = from.seed(seed);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{name}-large-s{seed}.trace"));
        log.record("workloads.trace_write", Some(root), || {
            write_workload(&path, &wl, name, Some(Scale::Large), seed)
        })
        .map_err(|e| format!("write {}: {e}", path.display()))?;
        Input::File {
            path,
            ops: wl.total_warp_ops() as u64,
        }
    } else {
        Input::Mem(apps)
    };
    log.close(root);
    Ok(input)
}

/// Runs `input` on `sim`; the returned seconds cover the run call only.
fn run_input(sim: &mut Simulator, input: &Input) -> Result<(f64, SimReport), String> {
    match input {
        Input::Mem(apps) if apps.len() == 1 => {
            let wl = apps[0].clone();
            let t = Stopwatch::start();
            let report = sim.run(wl);
            Ok((t.secs(), report))
        }
        Input::Mem(apps) => {
            let wls = apps.clone();
            let t = Stopwatch::start();
            let report = sim.run_corun(wls);
            Ok((t.secs(), report))
        }
        Input::File { path, .. } => {
            let reader = TraceReader::open(path).map_err(|e| e.to_string())?;
            let t = Stopwatch::start();
            let report = sim
                .run_source(TraceSource::File(reader))
                .map_err(|e| e.to_string())?;
            Ok((t.secs(), report))
        }
    }
}

/// Streams every TB of the trace without simulating: the feed's decode
/// cost alone. Returns `(ops, ns per op)`.
fn decode_pass(path: &Path, log: &mut SpanLog) -> Result<(u64, f64), String> {
    let reader = TraceReader::open(path).map_err(|e| e.to_string())?;
    let span = log.open("workloads.decode", None);
    let t = Stopwatch::start();
    let mut ops = 0u64;
    for k in 0..reader.kernels().len() {
        let mut stream = reader.stream_kernel(k).map_err(|e| e.to_string())?;
        while let Some(tb) = stream.next_tb().map_err(|e| e.to_string())? {
            ops += tb.total_ops() as u64;
        }
    }
    let ns = t.nanos();
    log.close(span);
    Ok((ops, ns as f64 / ops.max(1) as f64))
}

/// Prints every repetition's measured and normalised time, and the
/// reference times, on standard error.
fn report_walls(walls: &[f64], traced_walls: &[f64], pacer: &Pacer) {
    eprintln!("perfbench: walls {walls:.4?}, traced {traced_walls:.4?}");
    if !pacer.normalised_s.is_empty() {
        eprintln!(
            "perfbench: normalised {:.4?}, references {:.4?}",
            pacer.normalised_s, pacer.refs_s
        );
    }
}

fn run_sim(sim: &SimSpec, opts: &RunOptions) -> Result<Outcome, String> {
    let mut log = SpanLog::new();
    let mut values = Values::new();
    // One pacer, and so one set of reference tables, for set-up and the
    // timed window.
    let mut pacer = Pacer::new(sim.threads, !opts.traced);
    let mut input = None;
    for _ in 0..SETUP_REPS {
        drop(input.take()); // hold one copy of the inputs at a time
        input = Some(pacer.stretch(|| setup_sim(sim, opts.seed, &opts.work_dir, &mut log))?);
        pacer.finish();
    }
    let input = input.ok_or("no set-up ran")?;
    let instructions = input.instructions();
    values.insert("setup_s", median(&std::mem::take(&mut pacer.normalised_s)));
    values.insert(
        "workloads.generate_s",
        log.durations_s("workloads.generate").iter().sum::<f64>() / SETUP_REPS as f64,
    );
    values.insert(
        "workloads.trace_write_s",
        log.durations_s("workloads.trace_write").iter().sum::<f64>() / SETUP_REPS as f64,
    );
    let mut rss = PeakRss::default();
    let mut tally = Tally::default();
    let mut same = SameEveryRep::default();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut last: Option<SimReport> = None;
    let mut ledger_totals = LayerCounters::default();
    let plain_rep = |same: &mut SameEveryRep| {
        guarded(|| {
            let mut s = sim
                .mechanism
                .simulator(config())
                .with_sim_threads(sim.threads)
                .with_sanitizer(false);
            let (wall, report) = run_input(&mut s, &input)?;
            check_report(&report, instructions)?;
            same.check(fingerprint(&report))?;
            Ok((wall, report))
        })
    };
    // One checked repetition outside the timed window: the first run in
    // a process also pays for growing the allocator's heap.
    let warm_up = plain_rep(&mut same);
    tally.record("warm-up run", warm_up);
    pacer.discard();
    let clock = Stopwatch::start();
    for rounds in 1u64.. {
        pacer.before();
        rss.start();
        let plain = plain_rep(&mut same);
        rss.stop();
        if let Some((wall, report)) = tally.record("untraced run", plain) {
            pacer.add(wall);
            pacer.finish();
            walls.push(wall);
            last = Some(report);
        } else {
            pacer.discard();
        }
        if opts.traced {
            let traced = guarded(|| {
                let ledger = Ledger::default();
                let mut s = decorated_simulator(sim.mechanism, config(), &ledger)
                    .with_sim_threads(sim.threads)
                    .with_sanitizer(false);
                let span = log.open("gpu_sim.run", None);
                let (wall, report) = run_input(&mut s, &input)?;
                log.close(span);
                drop(s); // deposits every decorator's counters
                let c = ledger.totals();
                log.add_busy(span, "tlb.l1_lookup", c.l1_lookup_ns, c.l1_lookups);
                log.add_busy(span, "tlb.l1_insert", c.l1_insert_ns, c.l1_inserts);
                log.add_busy(span, "sched.tb_pick", c.tb_pick_ns, c.tb_picks);
                log.add_busy(span, "sched.warp_pick", c.warp_pick_ns, c.warp_picks);
                check_report(&report, instructions)?;
                Ok((wall, report, c))
            });
            if let Some((wall, report, c)) = tally.record("traced run", traced) {
                if same.check(fingerprint(&report)).is_err() {
                    return Err("the traced run's SimReport differs from the untraced run's".into());
                }
                traced_walls.push(wall);
                ledger_totals = c;
            }
        }
        if clock.secs() >= opts.seconds && rounds >= MIN_REPS {
            break;
        }
    }
    report_walls(&walls, &traced_walls, &pacer);
    if !opts.traced {
        // The model's accuracy against the paper is a property of the
        // simulator, not of this workload; it is measured on the grid the
        // paper's figures come from, after the timed region.
        let rows = fig10_11_grid(&registry(), Scale::Small, &Grid::new(THREADS));
        values.insert("paper_gap_pp", paper_gap_pp(&rows));
    }

    if let Some(r) = &last {
        let wall = median(&pacer.normalised_s);
        values.insert("norm_wall_s", wall);
        values.insert("norm_sim_instr_per_s", r.instructions as f64 / wall);
        values.insert("sim_cycles", r.total_cycles as f64);
        values.insert("peak_rss_mib", rss.median_peak_mib());
        values.insert("tlb.l1_hit_rate", r.l1_tlb_hit_rate());
        values.insert("gpu_sim.sharded_rounds", r.sharded_rounds as f64);
        values.insert("mem_hier.l2_tlb_hit_rate", r.l2_tlb.hit_rate());
        values.insert(
            "mem_hier.l2_tlb_queue_cycles",
            r.latency.l2_tlb_queue_cycles as f64,
        );
        values.insert(
            "mem_hier.walker_wait_cycles",
            r.walker.queue_wait_cycles as f64,
        );
        values.insert("vmem.walks", r.walker.walks as f64);
        values.insert("vmem.demand_faults", r.demand_faults as f64);
    }
    if opts.traced {
        let c = ledger_totals;
        let med = |name: &str| median(&log.durations_s(name));
        values.insert("tlb.l1_lookups", c.l1_lookups as f64);
        values.insert("tlb.l1_lookup_s", med("tlb.l1_lookup"));
        values.insert("tlb.l1_inserts", c.l1_inserts as f64);
        values.insert("tlb.l1_insert_s", med("tlb.l1_insert"));
        values.insert(
            "tlb.l1_fastpath_ratio",
            c.l1_fastpath_hits as f64 / c.l1_lookups.max(1) as f64,
        );
        values.insert("tlb.l1_patch_ppn_calls", c.l1_patch_ppn_calls as f64);
        values.insert("sched.tb_picks", c.tb_picks as f64);
        values.insert("sched.tb_pick_s", med("sched.tb_pick"));
        values.insert("sched.warp_picks", c.warp_picks as f64);
        values.insert("sched.warp_pick_s", med("sched.warp_pick"));
        values.insert("gpu_sim.run_s", med("gpu_sim.run"));
        values.insert("gpu_sim.self_s", median(&log.self_s("gpu_sim.run")));
        values.insert(
            "trace.overhead_ratio",
            median(&traced_walls) / median(&walls),
        );

        if let Input::File { path, .. } = &input {
            let decoded = tally.record("decode pass", {
                decode_pass(path, &mut log).and_then(|(ops, ns)| {
                    if ops == instructions {
                        Ok((ops, ns))
                    } else {
                        Err(format!("decoded {ops} ops, the trace holds {instructions}"))
                    }
                })
            });
            if let Some((ops, ns)) = decoded {
                values.insert("workloads.decoded_ops", ops as f64);
                values.insert("workloads.decode_ns_per_op", ns);
            }
        }
        let apps = input.workloads()?;
        let span = log.open("mem_hier.replay", None);
        let cost = guarded(|| Ok(replay(&apps, sim.mechanism, &config())));
        log.close(span);
        if let Some(cost) = tally.record("mem-hier replay", cost) {
            insert_replay(&mut values, &cost);
        }
    }
    if let Input::File { path, .. } = &input {
        // Set-up rewrites it every run; it is large and nothing reuses it.
        let _ = std::fs::remove_file(path);
    }
    Ok(Outcome {
        result: RunResult {
            values,
            attempted: tally.attempted,
            failed: tally.failed,
        },
        spans: log,
    })
}

fn insert_replay(values: &mut Values, cost: &ReplayCost) {
    let levels = [
        (
            HitLevel::L1Tlb,
            "mem_hier.translate_ns_l1",
            "mem_hier.translate_calls_l1",
        ),
        (
            HitLevel::L2Tlb,
            "mem_hier.translate_ns_l2",
            "mem_hier.translate_calls_l2",
        ),
        (
            HitLevel::Walk,
            "mem_hier.translate_ns_walk",
            "mem_hier.translate_calls_walk",
        ),
    ];
    for (level, ns, calls) in levels {
        values.insert(ns, cost.translate_ns_per_call(level));
        values.insert(calls, cost.translate_calls[ReplayCost::slot(level)] as f64);
    }
    values.insert("mem_hier.walk_share", cost.walk_share());
    values.insert("mem_hier.data_access_ns", cost.data_ns_per_call());
    values.insert("mem_hier.data_access_calls", cost.data_calls as f64);
}

// --- the paper-figure grid ------------------------------------------------

/// Every figure `repro --all` prints, as rows.
#[derive(Debug)]
struct FigureRows {
    table2: Vec<(u64, usize, usize, TraceSummary)>,
    fig2: Vec<Fig2Row>,
    fig3_4: Vec<Fig34Row>,
    fig5_6: Vec<Fig56Row>,
    fig10_11: Vec<Fig1011Row>,
    fig12: Vec<Fig12Row>,
    hugepage: Vec<HugePageRow>,
}

/// Simulations per benchmark in one grid pass: Figure 2 (2), Figures 5/6
/// (2), Figures 10/11 (4) and Figure 12 (2) with 4 KiB pages, and the
/// huge-page study (2) with 2 MiB pages.
const SIMS_PER_BENCH: [(PageSize, u64); 2] = [(PageSize::Small, 10), (PageSize::Large, 2)];

/// How a grid pass runs its figures: each as a stretch timed between
/// reference passes, or each inside a span under the given parent.
enum Stretches<'a> {
    Paced(&'a mut Pacer),
    Spans(&'a mut SpanLog, usize),
}

impl Stretches<'_> {
    fn run<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        match self {
            Stretches::Paced(pacer) => pacer.stretch(f),
            Stretches::Spans(log, parent) => log.record(name, Some(*parent), f),
        }
    }
}

/// One pass over the grid of `repro --all --scale small`, each table or
/// figure run as one stretch.
fn figures_rep(
    specs: &[BenchmarkSpec],
    cache: &Arc<WorkloadCache>,
    mut stretches: Stretches<'_>,
) -> FigureRows {
    let grid = Grid::with_cache(THREADS, Arc::clone(cache));
    let scale = Scale::Small;
    let idx: Vec<usize> = (0..specs.len()).collect();
    let table2 = stretches.run("bench.table2", || {
        grid.map(&idx, |&i| {
            let wl = grid.cache().get(&specs[i], scale, SEED);
            let tbs = wl.kernels().iter().map(|k| k.tbs.len()).sum();
            (wl.footprint_bytes(), wl.kernels().len(), tbs, wl.summary())
        })
    });
    FigureRows {
        table2,
        fig2: stretches.run("bench.fig2", || fig2_grid(specs, scale, &grid)),
        fig3_4: stretches.run("analysis.fig3_4", || {
            fig3_4_grid(specs, scale, Some(64), &grid)
        }),
        fig5_6: stretches.run("bench.fig5_6", || fig5_6_grid(specs, scale, &grid)),
        fig10_11: stretches.run("bench.fig10_11", || fig10_11_grid(specs, scale, &grid)),
        fig12: stretches.run("bench.fig12", || fig12_grid(specs, scale, &grid)),
        hugepage: stretches.run("bench.hugepage", || hugepage_grid(specs, scale, &grid)),
    }
}

/// Shape checks on one grid pass.
fn check_figures(rows: &FigureRows, n: usize) -> Result<(), String> {
    let lens = [
        rows.table2.len(),
        rows.fig2.len(),
        rows.fig3_4.len(),
        rows.fig5_6.len(),
        rows.fig10_11.len(),
        rows.fig12.len(),
        rows.hugepage.len(),
    ];
    if lens.iter().any(|&l| l != n) {
        return Err(format!("expected {n} rows per figure, got {lens:?}"));
    }
    for r in &rows.fig2 {
        if !(0.0..=1.0).contains(&r.hit_64) || !(0.0..=1.0).contains(&r.hit_256) {
            return Err(format!("{}: Figure 2 hit rate out of range", r.bench));
        }
    }
    for r in &rows.fig3_4 {
        for bins in [r.inter, r.intra] {
            if (bins.iter().sum::<f64>() - 1.0).abs() > 1e-9 {
                return Err(format!("{}: reuse bins do not sum to 1", r.bench));
            }
        }
    }
    let non_positive = |x: f64| x.is_nan() || x <= 0.0;
    for r in &rows.fig10_11 {
        if r.norm_time[0] != 1.0 || r.norm_time.iter().any(|&t| non_positive(t)) {
            return Err(format!("{}: Figure 11 not normalized to baseline", r.bench));
        }
    }
    if rows.fig12.iter().any(|r| non_positive(r.speedup))
        || rows.hugepage.iter().any(|r| non_positive(r.norm_time_ours))
    {
        return Err("Figure 12 / huge-page rows hold a non-positive ratio".into());
    }
    Ok(())
}

/// Generates every workload the grid requests into `cache`.
fn warm_cache(specs: &[BenchmarkSpec], log: &mut SpanLog) -> Arc<WorkloadCache> {
    let root = log.open("setup", None);
    let cache = Arc::new(WorkloadCache::new());
    let grid = Grid::with_cache(THREADS, Arc::clone(&cache));
    let items: Vec<(usize, PageSize)> = (0..specs.len())
        .flat_map(|i| SIMS_PER_BENCH.map(|(ps, _)| (i, ps)))
        .collect();
    log.record("workloads.generate", Some(root), || {
        grid.map(&items, |&(i, ps)| {
            grid.cache()
                .get_with_page_size(&specs[i], Scale::Small, SEED, ps);
        })
    });
    log.close(root);
    cache
}

fn run_figures(opts: &RunOptions) -> Result<Outcome, String> {
    let specs = registry();
    let mut log = SpanLog::new();
    let mut values = Values::new();
    let mut pacer = Pacer::new(THREADS, !opts.traced);
    let mut cache = None;
    for _ in 0..SETUP_REPS {
        drop(cache.take());
        cache = Some(pacer.stretch(|| warm_cache(&specs, &mut log)));
        pacer.finish();
    }
    let cache = cache.ok_or("no set-up ran")?;
    values.insert("setup_s", median(&std::mem::take(&mut pacer.normalised_s)));
    values.insert(
        "workloads.generate_s",
        median(&log.durations_s("workloads.generate")),
    );
    values.insert("workloads.cache_generations", cache.stats().misses as f64);
    let instructions: u64 = specs
        .iter()
        .flat_map(|s| {
            let cache = &cache;
            SIMS_PER_BENCH.map(move |(ps, sims)| {
                sims * cache
                    .get_with_page_size(s, Scale::Small, SEED, ps)
                    .total_warp_ops() as u64
            })
        })
        .sum();

    let mut rss = PeakRss::default();
    let mut tally = Tally::default();
    let mut same = SameEveryRep::default();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut rows_seen: Option<FigureRows> = None;
    let mut requests_per_rep = 0;
    let plain_rep = |same: &mut SameEveryRep, pacer: &mut Pacer| {
        guarded(|| {
            let before = cache.stats().requests();
            let rows = figures_rep(&specs, &cache, Stretches::Paced(pacer));
            let wall = pacer.finish();
            let requests = cache.stats().requests() - before;
            check_figures(&rows, specs.len())?;
            same.check(format!("{rows:?}"))?;
            Ok((wall, rows, requests))
        })
    };
    // A checked warm-up pass outside the timed window, as for the
    // simulation workloads.
    let warm_up = plain_rep(&mut same, &mut Pacer::new(THREADS, false));
    tally.record("warm-up grid pass", warm_up);
    pacer.discard();
    let clock = Stopwatch::start();
    for rounds in 1u64.. {
        rss.start();
        let plain = plain_rep(&mut same, &mut pacer);
        rss.stop();
        if let Some((wall, rows, requests)) = tally.record("grid pass", plain) {
            walls.push(wall);
            rows_seen = Some(rows);
            requests_per_rep = requests;
        } else {
            pacer.discard();
        }
        if opts.traced {
            let traced = guarded(|| {
                let span = log.open("bench.figures", None);
                let t = Stopwatch::start();
                let rows = figures_rep(&specs, &cache, Stretches::Spans(&mut log, span));
                let wall = t.secs();
                log.close(span);
                check_figures(&rows, specs.len())?;
                Ok((wall, rows))
            });
            if let Some((wall, rows)) = tally.record("traced grid pass", traced) {
                if same.check(format!("{rows:?}")).is_err() {
                    return Err("the traced grid's rows differ from the untraced grid's".into());
                }
                traced_walls.push(wall);
            }
        }
        if clock.secs() >= opts.seconds && rounds >= MIN_REPS {
            break;
        }
    }
    report_walls(&walls, &traced_walls, &pacer);
    let rows = rows_seen.ok_or("every grid pass failed")?;

    // Cross-check the grid against direct baseline runs: each report
    // passes the output checks and reproduces Figure 10's baseline bar.
    let grid = Grid::with_cache(THREADS, Arc::clone(&cache));
    let idx: Vec<usize> = (0..specs.len()).collect();
    let baseline = grid.map(&idx, |&i| {
        guarded(|| {
            let r = run_benchmark_cached(
                &cache,
                &specs[i],
                Scale::Small,
                SEED,
                Mechanism::Baseline,
                config(),
            );
            let ops = cache.get(&specs[i], Scale::Small, SEED).total_warp_ops() as u64;
            check_report(&r, ops)?;
            if r.l1_tlb_hit_rate() != rows.fig10_11[i].hit_rates[0] {
                return Err(format!(
                    "{}: Figure 10 baseline bar differs from a direct run",
                    specs[i].name
                ));
            }
            Ok(r.total_cycles)
        })
    });
    let mut cycles = 0u64;
    for b in baseline {
        if let Some(c) = tally.record("baseline cross-check", b) {
            cycles += c;
        }
    }

    let wall = median(&pacer.normalised_s);
    values.insert("norm_wall_s", wall);
    values.insert("norm_sim_instr_per_s", instructions as f64 / wall);
    values.insert("sim_cycles", cycles as f64);
    values.insert("paper_gap_pp", paper_gap_pp(&rows.fig10_11));
    values.insert("peak_rss_mib", rss.median_peak_mib());
    values.insert("workloads.cache_requests", requests_per_rep as f64);
    if opts.traced {
        for (span, metric) in [
            ("bench.fig2", "bench.fig2_s"),
            ("analysis.fig3_4", "analysis.fig3_4_s"),
            ("bench.fig5_6", "bench.fig5_6_s"),
            ("bench.fig10_11", "bench.fig10_11_s"),
            ("bench.fig12", "bench.fig12_s"),
            ("bench.hugepage", "bench.hugepage_s"),
        ] {
            values.insert(metric, median(&log.durations_s(span)));
        }
        values.insert(
            "trace.overhead_ratio",
            median(&traced_walls) / median(&walls),
        );
    }
    Ok(Outcome {
        result: RunResult {
            values,
            attempted: tally.attempted,
            failed: tally.failed,
        },
        spans: log,
    })
}

//! The cycle-level GPU timing engine.
//!
//! The engine models the execution path of the paper's Figure 1 at warp
//! granularity: per-SM GTO warp issue, the memory coalescer, per-SM VIPT
//! L1 cache + private L1 TLB, the shared L2 TLB and L2 cache behind an
//! interconnect, and the shared page-table-walker pool with UVM demand
//! paging. Time advances event-to-event (the cycle counter jumps to the
//! next cycle at which any SM can make progress), which is exact for this
//! model because all latencies are computed analytically at issue.
//!
//! # Execution order
//!
//! The engine is serial and owns one [`mem_hier::Hierarchy`]. Each event
//! cycle steps every event-ready SM in SM-index order. A step issues up
//! to `issue_width` warp instructions, and a memory instruction calls
//! [`Hierarchy::translate`] once per distinct page and
//! [`Hierarchy::data_access`] once per coalesced line, in program order,
//! as it issues. So each SM's private L1 TLB and L1 data cache see that
//! SM's operations in program order, and each shared structure
//! (interconnect, L2 TLB slices, walkers, L2/DRAM) sees SM 0's operations
//! of the cycle, then SM 1's, and so on. That order is what every golden
//! pins. Every policy is seeded or stateless, so runs are
//! bit-reproducible.
//!
//! # Event-driven SM step
//!
//! An SM step touches only the warps it wakes or issues, never the whole
//! resident set: warps live in a slab, the scheduler views persist across
//! cycles, and a per-SM wake queue holds every warp that is not ready,
//! keyed by the cycle it becomes ready (or, once finished, retirable).
//! See [`SmRt`].
//!
//! Parallelism lives one level up: independent simulations run on the
//! experiment grid's workers (`--jobs N`), never inside one simulation.

use crate::coalesce::coalesce_into;
use crate::config::GpuConfig;
use crate::feed::{KernelFeed, KernelSeq};
use crate::report::{SimReport, TranslationEvent};
use crate::sanitize::{sanitize_enabled, Sanitizer};
use crate::tb_sched::{RoundRobinScheduler, SmSnapshot, TbScheduler};
use crate::warp_sched::{GtoWarpScheduler, WarpScheduler, WarpView};
use mem_hier::{Access, Hierarchy, HierarchyBuilder, HitLevel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use tlb::{SetAssocTlb, TranslationBuffer};
use vmem::{AddressSpace, Asid, PageSize, PhysAddr, Ppn, VirtAddr, Vpn};
use workloads::format::{TraceError, TraceSource};
use workloads::{TbTrace, WarpOp, Workload};

/// Builds L1 TLBs for each SM (lets the `orchestrated-tlb` crate plug in
/// the partitioned design).
pub type L1TlbFactory = Box<dyn Fn(&GpuConfig) -> Box<dyn TranslationBuffer>>;

/// Builds one warp scheduler per SM.
pub type WarpSchedulerFactory = Box<dyn Fn() -> Box<dyn WarpScheduler>>;

/// A configured simulator, ready to run workloads.
///
/// # Example
///
/// ```
/// use gpu_sim::{GpuConfig, Simulator};
/// use workloads::{registry, Scale};
///
/// let wl = registry()[8].generate(Scale::Test, 42); // gemm
/// let report = Simulator::new(GpuConfig::dac23_baseline()).run(wl);
/// assert!(report.total_cycles > 0);
/// assert!(report.l1_tlb_hit_rate() > 0.0);
/// ```
pub struct Simulator {
    config: GpuConfig,
    tb_scheduler: Box<dyn TbScheduler>,
    l1_tlb_factory: L1TlbFactory,
    warp_scheduler_factory: WarpSchedulerFactory,
    trace_translations: bool,
    force_max_tbs: Option<u8>,
    /// Per-instance sanitizer override; `None` follows the process-wide
    /// default ([`sanitize_enabled`]).
    sanitize: Option<bool>,
}

impl Simulator {
    /// Creates a baseline simulator: round-robin TB scheduling and
    /// VPN-indexed set-associative L1 TLBs.
    pub fn new(config: GpuConfig) -> Self {
        Simulator {
            config,
            tb_scheduler: Box::new(RoundRobinScheduler::new()),
            l1_tlb_factory: Box::new(|c: &GpuConfig| {
                Box::new(SetAssocTlb::new(c.l1_tlb)) as Box<dyn TranslationBuffer>
            }),
            warp_scheduler_factory: Box::new(|| {
                Box::new(GtoWarpScheduler::new()) as Box<dyn WarpScheduler>
            }),
            trace_translations: false,
            force_max_tbs: None,
            sanitize: None,
        }
    }

    /// Replaces the TB scheduling policy.
    pub fn with_tb_scheduler(mut self, scheduler: Box<dyn TbScheduler>) -> Self {
        self.tb_scheduler = scheduler;
        self
    }

    /// Replaces the L1 TLB organization.
    pub fn with_l1_tlb_factory(mut self, factory: L1TlbFactory) -> Self {
        self.l1_tlb_factory = factory;
        self
    }

    /// Replaces the per-SM warp scheduling policy (default: GTO per
    /// Table III).
    pub fn with_warp_scheduler_factory(mut self, factory: WarpSchedulerFactory) -> Self {
        self.warp_scheduler_factory = factory;
        self
    }

    /// Records every L1 TLB access into the report (needed by the
    /// reuse-distance characterization; costs memory).
    pub fn with_translation_trace(mut self, enable: bool) -> Self {
        self.trace_translations = enable;
        self
    }

    /// Caps concurrent TBs per SM (e.g. `Some(1)` reproduces the paper's
    /// Figure 6 "one TB at a time" study).
    ///
    /// A cap of `Some(0)` leaves no room for any TB: running a kernel
    /// with TBs under it panics.
    pub fn with_max_concurrent_tbs(mut self, cap: Option<u8>) -> Self {
        self.force_max_tbs = cap;
        self
    }

    /// Forces the runtime invariant sanitizer on (or off) for this
    /// simulator, overriding the process-wide default (on in debug builds,
    /// `--sanitize` in release). See the [`crate::sanitize`] module docs
    /// for what is checked; the first violation panics with a state dump.
    pub fn with_sanitizer(mut self, enable: bool) -> Self {
        self.sanitize = Some(enable);
        self
    }

    /// Has no effect: the engine is serial. Retained for the benchmark
    /// harness, which still calls it; the next benchmark change removes
    /// it (see DESIGN.md, "Retained for the benchmark harness").
    pub fn with_sim_threads(self, _threads: usize) -> Self {
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Runs the workload to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the workload references addresses outside its own
    /// buffers or exhausts the (64 GiB default) physical pool — both are
    /// generator bugs, not simulation outcomes. Also panics if a kernel
    /// with TBs has a TB occupancy bound of 0, from its
    /// `max_concurrent_tbs_per_sm`, [`GpuConfig::max_concurrent_tbs`] or
    /// [`Simulator::with_max_concurrent_tbs`]: no TB could be placed.
    pub fn run(&mut self, workload: Workload) -> SimReport {
        let (name, kernels, space) = workload.into_parts();
        match self.run_prepared(name, space, KernelSeq::Mem(kernels)) {
            Ok(report) => report,
            // The in-memory feed has no I/O to fail on; its only error is
            // a zero TB occupancy bound in the kernel metadata.
            Err(e) => panic!("invalid in-memory workload: {e}"),
        }
    }

    /// Co-runs several workloads as concurrent address spaces sharing
    /// the GPU: app `k` runs under ASID `k` with its own page table,
    /// the merged TB stream is app-interleaved round-robin (the
    /// `corun` module's merge), and every TLB tags entries with the owning
    /// ASID. The report's [`SimReport::per_app`] carries each app's
    /// completion cycle and TLB counters; `workload` is the `a+b` merged
    /// name.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or the apps disagree on page size, and
    /// on a zero TB occupancy bound as [`Simulator::run`] does.
    pub fn run_corun(&mut self, apps: Vec<Workload>) -> SimReport {
        let merged = crate::corun::merge_apps(apps);
        let seq = KernelSeq::CoRun {
            kernel: Box::new(merged.kernel),
            asids: merged.asids,
        };
        match self.run_prepared_multi(merged.name, merged.app_names, merged.spaces, seq) {
            Ok(report) => report,
            // The in-memory feed has no I/O to fail on.
            Err(e) => panic!("invalid in-memory co-run: {e}"),
        }
    }

    /// Runs a [`TraceSource`] to completion. A `Generated` source
    /// replays from RAM exactly like [`Simulator::run`]; a `File` source
    /// streams TB traces block by block from disk, keeping only the
    /// in-flight TBs and one decoded block resident. Reports are
    /// byte-identical between the two for the same trace.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if a file-backed source turns out to be
    /// corrupt or unreadable mid-replay, or if a kernel with TBs has
    /// `max_concurrent_tbs_per_sm` 0.
    ///
    /// # Panics
    ///
    /// Panics if a kernel with TBs meets a zero TB cap from
    /// [`GpuConfig::max_concurrent_tbs`] or
    /// [`Simulator::with_max_concurrent_tbs`].
    pub fn run_source(&mut self, source: TraceSource) -> Result<SimReport, TraceError> {
        match source {
            TraceSource::Generated(workload) => {
                let (name, kernels, space) = workload.into_parts();
                self.run_prepared(name, space, KernelSeq::Mem(kernels))
            }
            TraceSource::File(reader) => {
                let name = reader.workload_name().to_owned();
                let space = reader.address_space()?;
                self.run_prepared(name, space, KernelSeq::Stream(Box::new(reader)))
            }
        }
    }

    /// Solo entry into the shared run loop: one app, one address space,
    /// ASID 0.
    fn run_prepared(
        &mut self,
        name: String,
        space: AddressSpace,
        seq: KernelSeq,
    ) -> Result<SimReport, TraceError> {
        let app_names = vec![name.clone()];
        self.run_prepared_multi(name, app_names, vec![space], seq)
    }

    /// The shared run loop behind [`Simulator::run`],
    /// [`Simulator::run_source`] and [`Simulator::run_corun`]:
    /// `spaces[k]` is ASID `k`'s page table, `app_names[k]` its label in
    /// [`SimReport::per_app`].
    fn run_prepared_multi(
        &mut self,
        name: String,
        app_names: Vec<String>,
        spaces: Vec<AddressSpace>,
        seq: KernelSeq,
    ) -> Result<SimReport, TraceError> {
        let n_sms = self.config.num_sms;
        let num_apps = spaces.len();
        let sanitize = self.sanitize.unwrap_or_else(sanitize_enabled);
        let mut sanitizer = sanitize.then(|| Sanitizer::new(n_sms));
        let l1_tlbs: Vec<Box<dyn TranslationBuffer>> = (0..n_sms)
            .map(|_| (self.l1_tlb_factory)(&self.config))
            .collect();
        let (fronts, back) =
            HierarchyBuilder::new(self.config.hierarchy()).build_split_multi(spaces, l1_tlbs);
        let hier = Hierarchy::from_split(fronts, back);
        let mut shared = SharedState {
            page_size: hier.page_size(),
            hier,
            trace: self.trace_translations.then(Vec::new),
            sanitize,
        };
        let mut report = SimReport {
            workload: name,
            scheduler: self.tb_scheduler.name().to_owned(),
            tb_placements: vec![0; n_sms],
            sm_instructions: vec![0; n_sms],
            per_app: app_names
                .into_iter()
                .enumerate()
                .map(|(k, workload)| crate::report::AppReport {
                    asid: k as u16,
                    workload,
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        };
        debug_assert_eq!(report.per_app.len(), num_apps, "one app label per space");

        let mut cycle: u64 = 0;
        for kernel_idx in 0..seq.len() {
            let mut feed = seq.feed(kernel_idx)?;
            let start = cycle;
            cycle = run_kernel(
                &self.config,
                &mut self.tb_scheduler,
                &self.warp_scheduler_factory,
                self.force_max_tbs,
                &mut feed,
                kernel_idx as u16,
                cycle,
                &mut shared,
                &mut report,
                &mut sanitizer,
            )?;
            report
                .kernel_cycles
                .push((feed.name().to_owned(), cycle - start));
        }

        report.total_cycles = cycle;
        report.translation_trace = shared.trace.take().unwrap_or_default();
        let hier = &shared.hier;
        report.l1_tlb = hier.fronts().iter().map(|f| f.tlb().stats()).collect();
        report.l2_tlb = hier.l2_tlb_stats();
        report.l1_cache = hier.l1_cache_stats();
        report.l2_cache = hier.l2_cache_stats();
        report.walker = hier.walker_stats();
        report.demand_faults = hier.demand_faults();
        report.transactions = hier.transactions();
        // Memo fast-path hits across every TLB in the hierarchy.
        report.fastpath_hits = hier
            .fronts()
            .iter()
            .map(|f| f.tlb().fastpath_hits())
            .chain(hier.l2_slices().iter().map(|s| s.fastpath_hits()))
            .sum();
        report.latency = hier.breakdown();
        // Per-app TLB counters: sums over fronts and slices, keyed by
        // ASID.
        for front in hier.fronts() {
            for (asid, stats) in front.tlb().stats_by_asid() {
                if let Some(app) = report.per_app.get_mut(asid.index()) {
                    app.l1_tlb += stats;
                }
            }
        }
        for (asid, stats) in hier.l2_tlb_stats_by_asid() {
            if let Some(app) = report.per_app.get_mut(asid.index()) {
                app.l2_tlb = stats;
            }
        }
        Ok(report)
    }
}

/// Run-wide state every SM step shares: the memory hierarchy (each SM's
/// private front plus the shared back) and run-wide engine concerns
/// (translation tracing, sanitizer enablement).
struct SharedState {
    hier: Hierarchy,
    page_size: PageSize,
    trace: Option<Vec<TranslationEvent>>,
    /// Check the L1 TLB after every fill, and every SM step against a
    /// full warp-table scan.
    sanitize: bool,
}

/// One SM's engine-side state for the current kernel. Its slice of the
/// memory hierarchy is front `sm_idx` of [`SharedState::hier`].
struct Lane {
    sm_idx: usize,
    sm: SmRt,
    scratch: IssueScratch,
    /// TBs placed and instructions issued this kernel (merged into the
    /// report at kernel end).
    placements: u32,
    instructions: u64,
    /// Per-app completion bound: the latest `ready_at` of any retired
    /// warp of each ASID on this SM, merged into the report by max at
    /// kernel end.
    app_done: Vec<u64>,
}

/// One dispatch pass: places TBs while some SM has a free slot and the
/// TB scheduler picks one.
fn dispatch_tbs(
    lanes: &mut [Lane],
    hier: &Hierarchy,
    tb_scheduler: &mut Box<dyn TbScheduler>,
    feed: &mut KernelFeed<'_>,
    next_tb: &mut usize,
    cycle: u64,
    snaps: &mut Vec<SmSnapshot>,
) -> Result<(), TraceError> {
    while *next_tb < feed.tb_count() {
        // Cheap pre-check before building snapshots: most calls land here
        // with every SM saturated, so this skips the per-SM stats
        // snapshot on the hot path.
        if lanes.iter().all(|l| l.sm.free_slots.is_empty()) {
            break;
        }
        snaps.clear();
        snaps.extend(lanes.iter().zip(hier.fronts()).map(|(lane, front)| {
            let stats = front.tlb().stats();
            SmSnapshot {
                free_slots: lane.sm.free_slots.len() as u8,
                tlb_hits: stats.hits,
                tlb_accesses: stats.accesses(),
            }
        }));
        let Some(target) = tb_scheduler.pick_sm(snaps) else {
            break;
        };
        assert!(
            snaps[target].has_room(),
            "scheduler picked a full SM ({target})"
        );
        let asid = feed.asid_of(*next_tb);
        let tb = feed.tb(*next_tb)?;
        let lane = &mut lanes[target];
        lane.sm.place_tb(tb, *next_tb as u32, cycle, asid);
        lane.placements += 1;
        *next_tb += 1;
    }
    Ok(())
}

/// Per-SM TB concurrency for one kernel: the compile-time TB limit, the
/// hardware cap, the thread capacity and the simulator's cap all bound
/// it.
///
/// # Errors
///
/// Returns a [`TraceError`] if the kernel has TBs but its metadata allows
/// 0 of them per SM.
///
/// # Panics
///
/// Panics if the kernel has TBs but `config.max_concurrent_tbs` or
/// `force_max_tbs` is 0: no TB could ever be placed.
fn occupancy_bound(
    config: &GpuConfig,
    force_max_tbs: Option<u8>,
    feed: &KernelFeed<'_>,
) -> Result<u8, TraceError> {
    if feed.tb_count() > 0 {
        if feed.max_concurrent_tbs_per_sm() == 0 {
            return Err(TraceError::NotATrace {
                what: format!(
                    "kernel '{}' has {} TBs but max_concurrent_tbs_per_sm 0",
                    feed.name(),
                    feed.tb_count()
                ),
            });
        }
        assert!(
            config.max_concurrent_tbs > 0,
            "GpuConfig::max_concurrent_tbs is 0: kernel '{}' could place no TB",
            feed.name()
        );
        assert!(
            force_max_tbs != Some(0),
            "with_max_concurrent_tbs(Some(0)): kernel '{}' could place no TB",
            feed.name()
        );
    }
    // The thread bound can exceed `u8` (2048 threads / 8 per TB = 256):
    // saturate it before taking the minimum.
    let by_threads = (config.max_threads_per_sm / feed.threads_per_tb().max(1)).max(1);
    let bound = u8::try_from(by_threads)
        .unwrap_or(u8::MAX)
        .min(feed.max_concurrent_tbs_per_sm())
        .min(config.max_concurrent_tbs);
    Ok(force_max_tbs.map_or(bound, |cap| bound.min(cap)))
}

/// Simulates one kernel launch; returns the cycle at which it completes.
///
/// Each event cycle: dispatch TBs, jump to the next cycle at which any SM
/// can make progress, then step every ready SM in index order.
#[allow(clippy::too_many_arguments)]
fn run_kernel(
    config: &GpuConfig,
    tb_scheduler: &mut Box<dyn TbScheduler>,
    warp_scheduler_factory: &WarpSchedulerFactory,
    force_max_tbs: Option<u8>,
    feed: &mut KernelFeed<'_>,
    kernel_idx: u16,
    start_cycle: u64,
    shared: &mut SharedState,
    report: &mut SimReport,
    sanitizer: &mut Option<Sanitizer>,
) -> Result<u64, TraceError> {
    let n_sms = config.num_sms;
    let tb_count = feed.tb_count();
    let max_tbs = occupancy_bound(config, force_max_tbs, feed)?;
    for front in shared.hier.fronts_mut() {
        front.tlb_mut().set_concurrent_tbs(max_tbs);
        if config.flush_l1_tlb_on_kernel_launch {
            front.tlb_mut().flush();
        }
    }
    let mut lanes: Vec<Lane> = (0..n_sms)
        .map(|sm_idx| Lane {
            sm_idx,
            sm: SmRt::new(max_tbs, warp_scheduler_factory()),
            scratch: IssueScratch::default(),
            placements: 0,
            instructions: 0,
            app_done: vec![0; report.per_app.len().max(1)],
        })
        .collect();
    tb_scheduler.reset();

    let mut next_tb = 0usize;
    let mut cycle = start_cycle;
    let mut snaps: Vec<SmSnapshot> = Vec::with_capacity(n_sms);
    loop {
        dispatch_tbs(
            &mut lanes,
            &shared.hier,
            tb_scheduler,
            feed,
            &mut next_tb,
            cycle,
            &mut snaps,
        )?;

        // Next cycle at which any SM can make progress.
        let Some(event) = lanes
            .iter()
            .map(|l| l.sm.next_event())
            .min()
            .filter(|&e| e < u64::MAX)
        else {
            assert!(next_tb >= tb_count, "idle GPU with pending TBs");
            break;
        };
        cycle = cycle.max(event);

        for lane in lanes.iter_mut().filter(|l| l.sm.next_event() <= cycle) {
            step(config, cycle, kernel_idx, shared, lane);
        }

        if let Some(san) = sanitizer.as_mut() {
            let tlbs: Vec<&dyn TranslationBuffer> =
                shared.hier.fronts().iter().map(|f| f.tlb()).collect();
            san.after_cycle(cycle, &tlbs, &**tb_scheduler, n_sms);
        }
    }

    if let Some(san) = sanitizer.as_mut() {
        let hier = &shared.hier;
        let tlbs: Vec<&dyn TranslationBuffer> = hier.fronts().iter().map(|f| f.tlb()).collect();
        san.end_of_kernel(cycle, &tlbs, hier.l2_slices(), report.per_app.len().max(1));
        for front in hier.fronts() {
            if let Err(e) = front.check_accounting() {
                Sanitizer::accounting_failure(
                    &format!("sm {} mem-hier front", front.sm()),
                    cycle,
                    e,
                );
            }
        }
        if let Err(e) = hier.back().check_accounting() {
            Sanitizer::accounting_failure("mem-hier shared back", cycle, e);
        }
    }

    for lane in lanes {
        report.instructions += lane.instructions;
        report.sm_instructions[lane.sm_idx] += lane.instructions;
        report.tb_placements[lane.sm_idx] += lane.placements;
        for (k, &done) in lane.app_done.iter().enumerate() {
            if let Some(app) = report.per_app.get_mut(k) {
                app.cycles = app.cycles.max(done);
            }
        }
    }
    Ok(cycle)
}

/// One SM step at `cycle`: wake due warps (retiring finished ones and
/// freeing their TB slots), issue up to `issue_width` warp instructions,
/// then settle.
///
/// A memory instruction runs through the hierarchy as it issues: one
/// [`Hierarchy::translate`] per distinct page and one
/// [`Hierarchy::data_access`] per coalesced line, in program order, and
/// the warp's `ready_at` is the latest completion among them.
fn step(
    config: &GpuConfig,
    cycle: u64,
    kernel_idx: u16,
    shared: &mut SharedState,
    lane: &mut Lane,
) {
    debug_assert!(lane.sm.next_event() <= cycle, "step on an idle lane");
    let SharedState {
        hier,
        page_size,
        trace,
        sanitize,
    } = shared;
    let page_size = *page_size;
    let sm_idx = lane.sm_idx;
    let sm = &mut lane.sm;
    let app_done = &mut lane.app_done;

    sm.wake(cycle, |warp, freed_slot| {
        let app = warp.asid.index();
        app_done[app] = app_done[app].max(warp.ready_at);
        if let Some(slot) = freed_slot {
            hier.fronts_mut()[sm_idx]
                .tlb_mut()
                .on_tb_finish(warp.asid, slot);
        }
    });

    // GTO issue: stay greedy on the last-issued warp, then oldest. The
    // persistent views are patched in place per issue (only the issued
    // warp changes between picks).
    let mut issued = 0u32;
    while issued < config.issue_width {
        let Some((w, view_idx)) = sm.pick(sm_idx, cycle) else {
            break;
        };
        let warp = &mut sm.warps[w];
        let op = &warp.ops[warp.op_idx];
        warp.op_idx += 1;
        lane.instructions += 1;
        match op {
            WarpOp::Compute { cycles } => {
                warp.ready_at = cycle + (*cycles as u64).max(1);
            }
            WarpOp::Load(acc) | WarpOp::Store(acc) => {
                let write = op.is_store();
                let mut done = cycle + 1;
                // Per-instruction TLB coalescing (Power et al.,
                // HPCA'14, the paper's reference [19]): one translation
                // per *distinct page* the warp instruction touches; the
                // per-line transactions below share it.
                let IssueScratch {
                    lines,
                    translations,
                } = &mut lane.scratch;
                translations.clear();
                coalesce_into(acc, config.l1_cache.line_bytes as u64, lines);
                for (i, &line) in lines.iter().enumerate() {
                    let vpn = line.vpn(page_size);
                    let (ppn, ready) = match translations.iter().find(|t| t.0 == vpn) {
                        Some(&(_, ppn, ready)) => (ppn, ready),
                        None => {
                            // Translation lookups leave one per cycle.
                            let at = cycle + translations.len() as u64;
                            if let Some(trace) = trace.as_mut() {
                                trace.push(TranslationEvent {
                                    sm: sm_idx as u8,
                                    tb_global: warp.tb_global,
                                    warp: warp.warp_in_tb,
                                    kernel: kernel_idx,
                                    vpn: vpn.raw(),
                                });
                            }
                            let t = hier.translate(&Access {
                                at,
                                sm: sm_idx,
                                asid: warp.asid,
                                tb_slot: warp.tb_slot,
                                va: line,
                                vpn,
                                page_size,
                            });
                            // A resolution below the L1 filled the SM's
                            // L1 TLB (the path that evicts, spills and
                            // flips sharing flags): check it right after
                            // the insert.
                            if *sanitize && t.level != HitLevel::L1Tlb {
                                Sanitizer::after_fill(sm_idx, at, hier.l1_tlb(sm_idx));
                            }
                            translations.push((vpn, t.ppn, t.ready_at));
                            (t.ppn, t.ready_at)
                        }
                    };
                    // Transactions leave the LSU one per cycle.
                    let start = ready.max(cycle + i as u64);
                    let pa = PhysAddr::from_parts(ppn, line.page_offset(page_size), page_size);
                    done = done.max(hier.data_access(start, sm_idx, pa, write));
                }
                warp.ready_at = done;
            }
        }
        sm.after_issue(w, view_idx);
        issued += 1;
    }

    // `issue_limited` licenses the `cycle + 1` verdict in `settle`,
    // which requires at least one issue this cycle — guaranteed by
    // `issued >= issue_width` only when the width is non-zero.
    let issue_limited = config.issue_width > 0 && issued >= config.issue_width;
    sm.settle(cycle, issue_limited);
    if *sanitize {
        sm.cross_check(sm_idx, cycle, issue_limited);
    }
}

/// Reusable per-issue scratch buffers: one warp memory instruction's
/// coalesced lines and its distinct pages' translations as `(vpn, ppn,
/// ready_at)`. Hoisted out of the issue loop so the hot path performs no
/// heap allocation.
#[derive(Default)]
struct IssueScratch {
    lines: Vec<VirtAddr>,
    translations: Vec<(Vpn, Ppn, u64)>,
}

/// Runtime state of one resident warp.
struct WarpRt {
    /// Stable per-SM warp id (launch order; lower = older).
    id: u32,
    /// Address space (co-running app) this warp's TB belongs to.
    asid: Asid,
    /// Static ops of this warp, shared with the workload trace (an `Arc`
    /// clone at TB placement, not a copy).
    ops: std::sync::Arc<Vec<WarpOp>>,
    op_idx: usize,
    ready_at: u64,
    tb_slot: u8,
    tb_global: u32,
    /// Warp index within its TB (for warp-granularity analysis).
    warp_in_tb: u16,
}

impl WarpRt {
    /// Whether the warp has issued its final op (it retires once
    /// `ready_at` passes).
    fn finished(&self) -> bool {
        self.op_idx >= self.ops.len()
    }
}

/// A wake-queue entry: `(ready_at, warp id, slab index)`, earliest first.
type WakeEntry = Reverse<(u64, u32, usize)>;

/// Runtime state of one SM.
///
/// The step is event-driven. Between steps every unretired warp is in
/// exactly one of two places: a ready entry of `views`, or `wake`, keyed
/// by the cycle it becomes ready (for a finished warp: retirable). A step
/// pops the due entries ([`SmRt::wake`]), issues, and queues the warps it
/// issued once their `ready_at` is final ([`SmRt::settle`]), so its work
/// is O(warps woken × log n), not O(resident warps).
struct SmRt {
    /// Warp slab: stable indices (the views and the wake queue name warps
    /// by them); a retired warp's index goes on `free` for reuse.
    warps: Vec<WarpRt>,
    free: Vec<usize>,
    free_slots: Vec<u8>,
    slot_live_warps: Vec<u32>,
    scheduler: Box<dyn WarpScheduler>,
    next_warp_id: u32,
    /// Scheduler views of the live (unfinished) warps in launch order,
    /// kept across cycles: placement appends (new ids are the largest),
    /// a final issue removes, issue and wake flip `ready`.
    views: Vec<WarpView>,
    /// Slab index for each entry of `views` (parallel vector, so the
    /// scheduler can be handed `&views` without a per-pick collect).
    view_warps: Vec<usize>,
    /// Number of ready entries in `views`.
    n_ready: usize,
    /// Every unretired warp that is not ready.
    wake: BinaryHeap<WakeEntry>,
    /// Warps issued this step, queued on `wake` when the step settles.
    issued: Vec<usize>,
    /// Scratch for [`SmRt::wake`]: finished warps due this step.
    finished: Vec<usize>,
    next_event: u64,
}

impl SmRt {
    fn new(max_tbs: u8, scheduler: Box<dyn WarpScheduler>) -> Self {
        SmRt {
            warps: Vec::new(),
            free: Vec::new(),
            free_slots: (0..max_tbs).rev().collect(),
            slot_live_warps: vec![0; max_tbs as usize],
            scheduler,
            next_warp_id: 0,
            views: Vec::new(),
            view_warps: Vec::new(),
            n_ready: 0,
            wake: BinaryHeap::new(),
            issued: Vec::new(),
            finished: Vec::new(),
            next_event: u64::MAX,
        }
    }

    /// Instantiates one TB's warps on this SM. Takes only the TB trace
    /// (not the kernel), so a streaming feed can hand over the current
    /// decoded TB; each warp's op storage is `Arc`-cloned into the
    /// resident [`WarpRt`], keeping it alive after the feed recycles the
    /// decoded block.
    fn place_tb(&mut self, tb: &TbTrace, tb_global: u32, cycle: u64, asid: Asid) {
        let slot = self.free_slots.pop().expect("caller checked has_room"); // simlint: allow(hot-unwrap, reason = "dispatch loop asserts has_room before place_tb")
        let mut live = 0;
        for (warp_in_tb, warp) in tb.warps().iter().enumerate() {
            let rt = WarpRt {
                id: self.next_warp_id,
                asid,
                ops: warp.shared_ops(),
                op_idx: 0,
                ready_at: cycle + 1,
                tb_slot: slot,
                tb_global,
                warp_in_tb: warp_in_tb as u16,
            };
            let w = match self.free.pop() {
                Some(w) => {
                    self.warps[w] = rt;
                    w
                }
                None => {
                    self.warps.push(rt);
                    self.warps.len() - 1
                }
            };
            // Not ready until `cycle + 1`. A warp with no ops is finished
            // already: it gets no view and retires at its first event.
            if !self.warps[w].finished() {
                self.views.push(WarpView {
                    id: self.next_warp_id,
                    tb_slot: slot,
                    ready: false,
                });
                self.view_warps.push(w);
            }
            self.wake.push(Reverse((cycle + 1, self.next_warp_id, w)));
            self.next_warp_id += 1;
            live += 1;
        }
        if live == 0 {
            // Degenerate empty TB: release the slot immediately.
            self.free_slots.push(slot);
        } else {
            self.slot_live_warps[slot as usize] = live;
        }
        self.next_event = self.next_event.min(cycle + 1);
    }

    /// Start of a step: pops every wake entry due by `cycle`. A live warp
    /// goes ready; a finished one retires, through `retire(warp,
    /// freed_slot)` with `freed_slot` set when it was its TB's last warp.
    /// Retirement runs in launch order, as a scan of the warp table
    /// would, which fixes the `free_slots` and `on_tb_finish` order.
    fn wake(&mut self, cycle: u64, mut retire: impl FnMut(&WarpRt, Option<u8>)) {
        while let Some(&Reverse((at, id, w))) = self.wake.peek() {
            if at > cycle {
                break;
            }
            self.wake.pop();
            if self.warps[w].finished() {
                self.finished.push(w);
                continue;
            }
            let Ok(v) = self.views.binary_search_by_key(&id, |v| v.id) else {
                unreachable!("live warp {id} has no scheduler view");
            };
            debug_assert!(!self.views[v].ready, "queued warp {id} was ready");
            self.views[v].ready = true;
            self.n_ready += 1;
        }
        if self.finished.is_empty() {
            return;
        }
        let warps = &self.warps;
        self.finished.sort_unstable_by_key(|&w| warps[w].id);
        for &w in &self.finished {
            let warp = &self.warps[w];
            let slot = warp.tb_slot;
            self.slot_live_warps[slot as usize] -= 1;
            let freed_slot = (self.slot_live_warps[slot as usize] == 0).then_some(slot);
            if freed_slot.is_some() {
                self.free_slots.push(slot);
            }
            retire(warp, freed_slot);
            self.free.push(w);
        }
        self.finished.clear();
    }

    /// Asks the warp-scheduling policy for the next warp to issue.
    /// Returns the warp's slab index and its view index (for
    /// [`SmRt::after_issue`]).
    ///
    /// # Panics
    ///
    /// Panics if the policy picks a stalled or out-of-range view: issuing
    /// it would run the warp early and corrupt the wake queue.
    fn pick(&mut self, sm: usize, cycle: u64) -> Option<(usize, usize)> {
        // The scheduler sees only the views, in launch order.
        let picked = self.scheduler.pick(&self.views)?;
        assert!(
            self.views.get(picked).is_some_and(|v| v.ready),
            "warp scheduler '{}' picked a stalled or out-of-range warp \
             (view {picked} of {}) at cycle {cycle} on sm {sm}",
            self.scheduler.name(),
            self.views.len(),
        );
        let view = self.views[picked];
        self.scheduler.issued(view);
        Some((self.view_warps[picked], picked))
    }

    /// Patches the views after issuing warp `w` behind view `view_idx`.
    /// An issued warp's `ready_at` always lands strictly in the future
    /// (compute latencies are clamped to ≥ 1, transactions complete at
    /// `cycle + 1` at the earliest), so its view goes not-ready; a warp
    /// that issued its final op leaves the views entirely. Either way it
    /// joins the wake queue when the step settles.
    fn after_issue(&mut self, w: usize, view_idx: usize) {
        self.n_ready -= 1;
        if self.warps[w].finished() {
            self.views.remove(view_idx);
            self.view_warps.remove(view_idx);
        } else {
            self.views[view_idx].ready = false;
        }
        self.issued.push(w);
    }

    /// Ends a step once every issued warp's `ready_at` is final: queues
    /// those warps and sets `next_event` — `cycle + 1` if the step was
    /// issue-limited or a warp is still ready, else the earliest queued
    /// wake-up.
    ///
    /// This is exactly what a full scan of the warp table would find.
    /// After [`SmRt::wake`] no queued entry is due by `cycle`, and every
    /// warp issued this step has a strictly future `ready_at`, so a warp
    /// is ready now iff its view is ready, and the queue minimum is the
    /// earliest future event.
    fn settle(&mut self, cycle: u64, issue_limited: bool) {
        for &w in &self.issued {
            let warp = &self.warps[w];
            self.wake.push(Reverse((warp.ready_at, warp.id, w)));
        }
        self.issued.clear();
        self.next_event = if issue_limited || self.n_ready > 0 {
            cycle + 1
        } else {
            self.wake.peek().map_or(u64::MAX, |&Reverse((at, _, _))| at)
        };
    }

    /// Sanitizer cross-check of a settled step: re-derives the views and
    /// `next_event` with a full scan of the warp table (the per-step scan
    /// the wake queue replaced), and checks that the queue holds exactly
    /// the unretired warps that are not ready, each under its current
    /// `ready_at`. A mismatch panics with a warp-table dump.
    fn cross_check(&self, sm: usize, cycle: u64, issue_limited: bool) {
        let fail =
            |detail: String| -> ! { Sanitizer::sm_step_failure(sm, cycle, detail, self.dump()) };
        let mut retired = vec![false; self.warps.len()];
        for &w in &self.free {
            if std::mem::replace(&mut retired[w], true) {
                fail(format!("slab index {w} is on the free list twice"));
            }
        }
        let mut views = Vec::new();
        let mut next = u64::MAX;
        let mut any_ready_now = false;
        for (w, warp) in self.warps.iter().enumerate() {
            if retired[w] {
                continue;
            }
            let ready = warp.ready_at <= cycle;
            if !warp.finished() {
                let view = WarpView {
                    id: warp.id,
                    tb_slot: warp.tb_slot,
                    ready,
                };
                views.push((view, w));
            } else if ready {
                fail(format!(
                    "finished warp {} (slab {w}) was not retired",
                    warp.id
                ));
            }
            if ready {
                any_ready_now = true;
            } else {
                next = next.min(warp.ready_at);
            }
        }
        views.sort_unstable_by_key(|(v, _)| v.id);
        if !views.iter().map(|&(v, _)| v).eq(self.views.iter().copied())
            || !views
                .iter()
                .map(|&(_, w)| w)
                .eq(self.view_warps.iter().copied())
        {
            fail(format!(
                "scheduler views differ from a full scan: {views:?}"
            ));
        }
        let ready = views.iter().filter(|(v, _)| v.ready).count();
        if ready != self.n_ready {
            fail(format!(
                "n_ready is {} but {ready} views are ready",
                self.n_ready
            ));
        }
        let mut queued = vec![false; self.warps.len()];
        for &Reverse((at, id, w)) in &self.wake {
            let current = self
                .warps
                .get(w)
                .is_some_and(|warp| warp.id == id && warp.ready_at == at && !retired[w]);
            if !current || at <= cycle || std::mem::replace(&mut queued[w], true) {
                fail(format!(
                    "wake entry (ready_at {at}, warp {id}, slab {w}) is stale, due or duplicated"
                ));
            }
        }
        for (w, warp) in self.warps.iter().enumerate() {
            if !retired[w] && warp.ready_at > cycle && !queued[w] {
                fail(format!(
                    "warp {} (slab {w}, ready_at {}) is not in the wake queue",
                    warp.id, warp.ready_at
                ));
            }
        }
        let expected = if any_ready_now || (issue_limited && next != u64::MAX) {
            cycle + 1
        } else {
            next
        };
        if expected != self.next_event {
            fail(format!(
                "next_event is {} but a full scan gives {expected}",
                self.next_event
            ));
        }
    }

    /// Warp-table dump for sanitizer reports.
    fn dump(&self) -> String {
        let mut out = String::new();
        for (w, warp) in self.warps.iter().enumerate() {
            let state = if self.free.contains(&w) {
                "retired"
            } else if warp.finished() {
                "finished"
            } else {
                "live"
            };
            let _ = writeln!(
                out,
                "slab {w:3}: warp {:5} tb_slot {:2} op {}/{} ready_at {} {state}",
                warp.id,
                warp.tb_slot,
                warp.op_idx,
                warp.ops.len(),
                warp.ready_at,
            );
        }
        let mut queue: Vec<_> = self.wake.iter().map(|&Reverse(e)| e).collect();
        queue.sort_unstable();
        let _ = writeln!(out, "views: {:?}", self.views);
        let _ = writeln!(
            out,
            "view slabs: {:?}, n_ready {}",
            self.view_warps, self.n_ready
        );
        let _ = writeln!(out, "wake queue (ready_at, warp, slab): {queue:?}");
        let _ = write!(out, "next_event: {}", self.next_event);
        out
    }

    fn next_event(&self) -> u64 {
        self.next_event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_hier::Translation;
    use workloads::{registry, LaneAccesses, Scale};

    fn run_bench(name: &str) -> SimReport {
        let spec = registry().into_iter().find(|s| s.name == name).unwrap();
        let wl = spec.generate(Scale::Test, 42);
        Simulator::new(GpuConfig::dac23_baseline()).run(wl)
    }

    #[test]
    fn gemm_runs_to_completion() {
        let r = run_bench("gemm");
        assert!(r.total_cycles > 0);
        assert!(r.instructions > 0);
        assert!(r.transactions > 0);
        assert_eq!(r.l1_tlb.len(), 16);
        // Every TB got placed somewhere.
        let placed: u32 = r.tb_placements.iter().sum();
        let n = Scale::Test.matrix_dim() / 16;
        assert_eq!(placed as usize, n * n);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_bench("bfs");
        let b = run_bench("bfs");
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.l1_tlb_aggregate(), b.l1_tlb_aggregate());
    }

    #[test]
    fn memo_fastpath_serves_lookups_in_a_real_run() {
        // Warps re-touch the same page line after line, so the MRU memo
        // must serve a meaningful share of lookups; every fast-path hit
        // is a hit, so the counter is bounded by the hit totals.
        let r = run_bench("gemm");
        assert!(r.fastpath_hits > 0, "memo fast path never engaged");
        let bound = r.l1_tlb_aggregate().hits + r.l2_tlb.hits;
        assert!(r.fastpath_hits <= bound, "{} > {bound}", r.fastpath_hits);
    }

    #[test]
    fn round_robin_balances_placements() {
        let r = run_bench("pagerank");
        let max = r.tb_placements.iter().max().unwrap();
        let min = r.tb_placements.iter().min().unwrap();
        assert!(max - min <= 1, "round-robin spread: {:?}", r.tb_placements);
    }

    #[test]
    fn larger_tlb_does_not_hurt() {
        let spec = registry().into_iter().find(|s| s.name == "atax").unwrap();
        let base = Simulator::new(GpuConfig::dac23_baseline()).run(spec.generate(Scale::Test, 42));
        let big =
            Simulator::new(GpuConfig::dac23_baseline().with_l1_tlb(tlb::TlbConfig::dac23_l1_256()))
                .run(spec.generate(Scale::Test, 42));
        assert!(big.l1_tlb_hit_rate() >= base.l1_tlb_hit_rate() - 1e-9);
    }

    #[test]
    fn translation_trace_collected_when_enabled() {
        let spec = registry().into_iter().find(|s| s.name == "gemm").unwrap();
        let wl = spec.generate(Scale::Test, 42);
        let r = Simulator::new(GpuConfig::dac23_baseline())
            .with_translation_trace(true)
            .run(wl);
        // One event per L1 TLB lookup (page-coalesced, so at most one per
        // transaction).
        let lookups = r.l1_tlb_aggregate().accesses();
        assert_eq!(r.translation_trace.len() as u64, lookups);
        assert!(lookups <= r.transactions);
    }

    #[test]
    fn one_tb_at_a_time_cap_respected() {
        let spec = registry().into_iter().find(|s| s.name == "mvt").unwrap();
        let wl = spec.generate(Scale::Test, 42);
        let r = Simulator::new(GpuConfig::dac23_baseline())
            .with_max_concurrent_tbs(Some(1))
            .run(wl);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn sanitized_run_completes_clean() {
        // Force the sanitizer on regardless of build profile: a healthy
        // baseline run must pass every per-fill, per-cycle and
        // end-of-kernel invariant check without tripping.
        let spec = registry().into_iter().find(|s| s.name == "gemm").unwrap();
        let wl = spec.generate(Scale::Test, 42);
        let r = Simulator::new(GpuConfig::dac23_baseline())
            .with_sanitizer(true)
            .run(wl);
        assert!(r.total_cycles > 0);
        let unsanitized = Simulator::new(GpuConfig::dac23_baseline())
            .with_sanitizer(false)
            .run(spec.generate(Scale::Test, 42));
        // Checking invariants must not perturb the simulation itself.
        assert_eq!(r.total_cycles, unsanitized.total_cycles);
        assert_eq!(r.l1_tlb_aggregate(), unsanitized.l1_tlb_aggregate());
    }

    /// One SM holding a TB of two compute warps placed at cycle 10, and
    /// a warp-less TB; its state is settled as placed.
    fn placed_sm() -> SmRt {
        let mut sm = SmRt::new(2, Box::new(GtoWarpScheduler::new()));
        let mut tb = TbTrace::with_warps(2);
        for w in 0..2 {
            tb.warp_mut(w).push(WarpOp::Compute { cycles: 4 });
        }
        sm.place_tb(&tb, 0, 10, Asid::default());
        sm.place_tb(&TbTrace::with_warps(0), 1, 10, Asid::default());
        sm
    }

    #[test]
    fn wake_queue_cross_check_accepts_a_real_step() {
        let mut sm = placed_sm();
        sm.cross_check(0, 10, false);
        // Step at cycle 11: both warps wake; issue one.
        sm.wake(11, |_, _| panic!("nothing is finished yet"));
        assert_eq!(sm.n_ready, 2);
        let (w, view) = sm.pick(0, 11).expect("a ready warp");
        sm.warps[w].op_idx += 1;
        sm.warps[w].ready_at = 15;
        sm.after_issue(w, view);
        sm.settle(11, false);
        sm.cross_check(0, 11, false);
        assert_eq!(sm.next_event(), 12, "the other warp is still ready");
    }

    #[test]
    #[should_panic(expected = "is not in the wake queue")]
    fn sanitizer_catches_a_dropped_wake_entry() {
        let mut sm = placed_sm();
        sm.wake.pop();
        sm.cross_check(0, 10, false);
    }

    #[test]
    #[should_panic(expected = "sm 3 warp state, cycle 10")]
    fn sanitizer_names_the_sm_and_cycle_of_a_stale_next_event() {
        let mut sm = placed_sm();
        sm.next_event = 12;
        sm.cross_check(3, 10, false);
    }

    /// The order contract of one memory instruction: each distinct page
    /// is translated once, the n-th at `cycle + n`, and each line runs
    /// through the data path at `max(its page's ready_at, cycle + line
    /// index)`, all in program order. The lines here are page A (an L1
    /// TLB miss that hits the L2 TLB, its line already in the L1 data
    /// cache), page B (an L1 TLB hit), then second lines of A and of B
    /// (duplicate pages: no second lookup). One of B's two lines misses
    /// to DRAM and sets the completion time: the first pins B's lookup
    /// cycle, the second its LSU slot.
    #[test]
    fn memory_op_calls_the_hierarchy_in_program_order() {
        let config = GpuConfig::dac23_baseline();
        let page = PageSize::Small;
        let line = config.l1_cache.line_bytes as u64;
        let access = |at, sm, va: VirtAddr| Access {
            at,
            sm,
            asid: Asid::default(),
            tb_slot: 0,
            va,
            vpn: va.vpn(page),
            page_size: page,
        };
        let pa =
            |t: &Translation, va: VirtAddr| PhysAddr::from_parts(t.ppn, va.page_offset(page), page);
        // A hierarchy warmed so that SM 0's L1 TLB holds B, SM 1 walked
        // A into the L2 TLB, and SM 0's L1 data cache holds both of A's
        // lines and the B line `lines[cached_b]`.
        let warmed = |cached_b: usize| {
            let mut space = AddressSpace::new(page);
            let buf = space.allocate("b", 2 * page.bytes()).expect("fresh space");
            let tlbs = (0..config.num_sms)
                .map(|_| Box::new(SetAssocTlb::new(config.l1_tlb)) as Box<dyn TranslationBuffer>)
                .collect();
            let (fronts, back) =
                HierarchyBuilder::new(config.hierarchy()).build_split_multi(vec![space], tlbs);
            let mut hier = Hierarchy::from_split(fronts, back);
            let (a, b) = (buf.addr_of(0), buf.addr_of(page.bytes()));
            let next = |va: VirtAddr| VirtAddr::new(va.raw() + line);
            let lines = [a, b, next(a), next(b)];
            let t_b = hier.translate(&access(0, 0, b));
            let t_a = hier.translate(&access(0, 1, a));
            for va in [lines[0], lines[2]] {
                hier.data_access(0, 0, pa(&t_a, va), false);
            }
            hier.data_access(0, 0, pa(&t_b, lines[cached_b]), false);
            (hier, lines)
        };
        let cycle = 10_000;
        // Line `slot` of the instruction through the data path.
        let data = |h: &mut Hierarchy, t: &Translation, slot: u64, va| {
            h.data_access(t.ready_at.max(cycle + slot), 0, pa(t, va), false)
        };

        for cached_b in [3, 1] {
            // Hand-driven reference calls, in program order.
            let (mut reference, [a, b, a2, b2]) = warmed(cached_b);
            let ta = reference.translate(&access(cycle, 0, a));
            assert_eq!(ta.level, HitLevel::L2Tlb);
            let mut done = cycle + 1;
            done = done.max(data(&mut reference, &ta, 0, a));
            let tb = reference.translate(&access(cycle + 1, 0, b));
            assert_eq!(tb.level, HitLevel::L1Tlb);
            done = done.max(data(&mut reference, &tb, 1, b));
            done = done.max(data(&mut reference, &ta, 2, a2));
            done = done.max(data(&mut reference, &tb, 3, b2));

            // The engine: one step that issues the instruction.
            let (hier, lines) = warmed(cached_b);
            let mut shared = SharedState {
                hier,
                page_size: page,
                trace: None,
                sanitize: true,
            };
            let mut lane = Lane {
                sm_idx: 0,
                sm: SmRt::new(1, Box::new(GtoWarpScheduler::new())),
                scratch: IssueScratch::default(),
                placements: 0,
                instructions: 0,
                app_done: vec![0],
            };
            let mut tb_trace = TbTrace::with_warps(1);
            tb_trace
                .warp_mut(0)
                .push(WarpOp::Load(LaneAccesses::Gather(lines.to_vec())));
            lane.sm.place_tb(&tb_trace, 0, cycle - 1, Asid::default());
            step(&config, cycle, 0, &mut shared, &mut lane);

            assert_eq!(lane.sm.warps[0].ready_at, done, "B line {cached_b} cached");
            assert_eq!(shared.hier.l1_tlb(0).stats(), reference.l1_tlb(0).stats());
            assert_eq!(shared.hier.l1_cache_stats(), reference.l1_cache_stats());
            assert_eq!(shared.hier.breakdown(), reference.breakdown());
        }
    }

    #[test]
    fn kernel_cycles_sum_to_total() {
        let r = run_bench("nw");
        let sum: u64 = r.kernel_cycles.iter().map(|(_, c)| c).sum();
        assert_eq!(sum, r.total_cycles);
    }

    #[test]
    fn demand_faults_bounded_by_footprint_pages() {
        let r = run_bench("gemm");
        assert!(r.demand_faults > 0, "first touches must fault");
        // Faults can't exceed total touched pages.
        let n = Scale::Test.matrix_dim();
        let pages = (3 * n * n * 4) as u64 / 4096 + 3;
        assert!(r.demand_faults <= pages);
    }
}

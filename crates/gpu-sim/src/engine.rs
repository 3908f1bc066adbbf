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
//! # Two-phase execution
//!
//! The engine is serial. Each event cycle runs in two phases. **Phase
//! A** steps every event-ready SM, in SM-index order, against its own
//! private state only: its [`SmRt`], its [`mem_hier::PerSmFront`] (L1
//! TLB + VIPT L1 data cache) and a per-SM outbox. **Phase B** then
//! drains the outboxes in SM-index order, applying every shared-stage
//! request ([`mem_hier::SharedRequest`]: L2 TLB, walkers, L2/DRAM data
//! path) and patching warp completion times.
//!
//! An SM step becomes *deferring* at its first private L1 TLB miss: from
//! that point every translation and data access of the step is pushed to
//! the outbox in program order and replayed in phase B. This fixed
//! operation order — eager prefix in phase A, in-order deferred suffix
//! in phase B, outboxes in SM order — is what every golden pins. Every
//! policy is seeded or stateless, so runs are bit-reproducible.
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
use mem_hier::{Access, HierarchyBuilder, PerSmFront, SharedBack, SharedRequest, TranslationRef};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use tlb::{SetAssocTlb, TranslationBuffer};
use vmem::{AddressSpace, Asid, PageSize, PhysAddr, Ppn, VirtAddr};
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
    /// generator bugs, not simulation outcomes.
    pub fn run(&mut self, workload: Workload) -> SimReport {
        let (name, kernels, space) = workload.into_parts();
        match self.run_prepared(name, space, KernelSeq::Mem(kernels)) {
            Ok(report) => report,
            // The in-memory feed has no I/O to fail on.
            Err(e) => panic!("in-memory replay cannot fail: {e}"),
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
    /// Panics if `apps` is empty or the apps disagree on page size.
    pub fn run_corun(&mut self, apps: Vec<Workload>) -> SimReport {
        let merged = crate::corun::merge_apps(apps);
        let seq = KernelSeq::CoRun {
            kernel: Box::new(merged.kernel),
            asids: merged.asids,
        };
        match self.run_prepared_multi(merged.name, merged.app_names, merged.spaces, seq) {
            Ok(report) => report,
            // The in-memory feed has no I/O to fail on.
            Err(e) => panic!("in-memory co-run replay cannot fail: {e}"),
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
    /// corrupt or unreadable mid-replay.
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
        // A run with no address spaces has no traffic either; the page
        // size is then irrelevant, so default rather than panic here.
        let page_size = spaces
            .first()
            .map_or(PageSize::default(), AddressSpace::page_size);
        let (mut fronts, back) =
            HierarchyBuilder::new(self.config.hierarchy()).build_split_multi(spaces, l1_tlbs);
        let mut shared = SharedState {
            back,
            page_size,
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
                &mut fronts,
                &mut shared,
                &mut report,
                &mut sanitizer,
            )?;
            report
                .kernel_cycles
                .push((feed.name().to_owned(), cycle - start));
        }

        report.total_cycles = cycle;
        report.l1_tlb = fronts.iter().map(|f| f.tlb().stats()).collect();
        report.l2_tlb = shared.back.l2_tlb_stats();
        report.l1_cache = fronts.iter().map(PerSmFront::l1_cache_stats).collect();
        report.l2_cache = shared.back.l2_cache_stats();
        report.walker = shared.back.walker_stats();
        report.demand_faults = shared.back.demand_faults();
        report.transactions = fronts.iter().map(PerSmFront::transactions).sum();
        // Memo fast-path hits across every TLB in the hierarchy.
        report.fastpath_hits = fronts
            .iter()
            .map(|f| f.tlb().fastpath_hits())
            .chain(shared.back.l2_slices().iter().map(|s| s.fastpath_hits()))
            .sum();
        report.latency = fronts
            .iter()
            .fold(*shared.back.breakdown(), |a, f| a + *f.breakdown());
        report.translation_trace = shared.trace.take().unwrap_or_default();
        // Per-app TLB counters: sums over fronts and slices, keyed by
        // ASID.
        for front in &fronts {
            for (asid, stats) in front.tlb().stats_by_asid() {
                if let Some(app) = report.per_app.get_mut(asid.index()) {
                    app.l1_tlb += stats;
                }
            }
        }
        for (asid, stats) in shared.back.l2_tlb_stats_by_asid() {
            if let Some(app) = report.per_app.get_mut(asid.index()) {
                app.l2_tlb = stats;
            }
        }
        Ok(report)
    }
}

/// The shared half of the run: the order-sensitive back of the memory
/// hierarchy plus run-wide engine concerns (translation tracing,
/// sanitizer enablement).
struct SharedState {
    back: SharedBack,
    page_size: PageSize,
    trace: Option<Vec<TranslationEvent>>,
    /// Run full L1 TLB invariant checks after every fill.
    sanitize: bool,
}

/// Everything one SM touches during phase A: its runtime state, its
/// private slice of the memory hierarchy, and the per-cycle outbox phase
/// B drains.
struct Lane {
    sm_idx: usize,
    sm: SmRt,
    front: PerSmFront,
    outbox: Outbox,
    scratch: IssueScratch,
    /// Instructions issued this kernel (merged into the report at kernel
    /// end).
    instructions: u64,
    /// Per-app completion bound: the latest `ready_at` of any retired
    /// warp of each ASID on this SM, merged into the report by max at
    /// kernel end.
    app_done: Vec<u64>,
}

/// The phase-A -> phase-B boundary for one SM and one event cycle.
#[derive(Default)]
struct Outbox {
    entries: Vec<OutboxEntry>,
    /// Translate requests pushed so far (their phase-B results land at
    /// the matching index of the per-lane `resolved` scratch).
    n_translates: u32,
    /// `Some(issue_limited)` when phase A left the step unsettled because
    /// deferred completions may move its warps' `ready_at`; phase B
    /// settles it after patching them.
    settle: Option<bool>,
}

impl Outbox {
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queues a translate request; returns its index in the resolved-
    /// translations sequence.
    fn push_translate(&mut self, req: SharedRequest) -> u32 {
        let idx = self.n_translates;
        self.n_translates += 1;
        self.entries.push(OutboxEntry { req, warp: None });
        idx
    }

    /// Queues a data request whose completion cycle must fold into
    /// `warp`'s ready time.
    fn push_data(&mut self, req: SharedRequest, warp: usize) {
        self.entries.push(OutboxEntry {
            req,
            warp: Some(warp),
        });
    }
}

struct OutboxEntry {
    req: SharedRequest,
    /// Slab index into `SmRt::warps` whose `ready_at` absorbs the
    /// completion cycle (data requests); `None` for pure translations.
    /// Stays valid through phase B: warps only retire at the start of a
    /// later phase A.
    warp: Option<usize>,
}

/// One dispatch pass: places TBs while some SM has a free slot and the
/// TB scheduler picks one.
fn dispatch_tbs(
    lanes: &mut [Lane],
    tb_scheduler: &mut Box<dyn TbScheduler>,
    feed: &mut KernelFeed<'_>,
    next_tb: &mut usize,
    cycle: u64,
    placements: &mut [u32],
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
        snaps.extend(lanes.iter().map(|lane| {
            let stats = lane.front.tlb().stats();
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
        lanes[target].sm.place_tb(tb, *next_tb as u32, cycle, asid);
        placements[target] += 1;
        *next_tb += 1;
    }
    Ok(())
}

/// Simulates one kernel launch; returns the cycle at which it completes.
///
/// Each event cycle: dispatch TBs, jump to the next cycle at which any SM
/// can make progress, run phase A on every ready SM in index order, then
/// phase B over the outboxes in SM order.
#[allow(clippy::too_many_arguments)]
fn run_kernel(
    config: &GpuConfig,
    tb_scheduler: &mut Box<dyn TbScheduler>,
    warp_scheduler_factory: &WarpSchedulerFactory,
    force_max_tbs: Option<u8>,
    feed: &mut KernelFeed<'_>,
    kernel_idx: u16,
    start_cycle: u64,
    fronts: &mut Vec<PerSmFront>,
    shared: &mut SharedState,
    report: &mut SimReport,
    sanitizer: &mut Option<Sanitizer>,
) -> Result<u64, TraceError> {
    let n_sms = config.num_sms;
    let tb_count = feed.tb_count();
    // Occupancy: the compile-time TB limit, the hardware cap, and the
    // thread capacity all bound concurrency.
    let by_threads = (config.max_threads_per_sm / feed.threads_per_tb().max(1)).max(1) as u8;
    let mut max_tbs = feed
        .max_concurrent_tbs_per_sm()
        .min(config.max_concurrent_tbs)
        .min(by_threads);
    if let Some(cap) = force_max_tbs {
        max_tbs = max_tbs.min(cap);
    }

    let mut lanes: Vec<Lane> = fronts
        .drain(..)
        .enumerate()
        .map(|(sm_idx, mut front)| {
            front.tlb_mut().set_concurrent_tbs(max_tbs);
            if config.flush_l1_tlb_on_kernel_launch {
                front.tlb_mut().flush();
            }
            Lane {
                sm_idx,
                sm: SmRt::new(max_tbs, warp_scheduler_factory()),
                front,
                outbox: Outbox::default(),
                scratch: IssueScratch::default(),
                instructions: 0,
                app_done: vec![0; report.per_app.len().max(1)],
            }
        })
        .collect();
    tb_scheduler.reset();

    let page_size = shared.page_size;
    let mut next_tb = 0usize;
    let mut cycle = start_cycle;
    let mut resolved: Vec<(Ppn, u64)> = Vec::new();
    let mut snaps: Vec<SmSnapshot> = Vec::with_capacity(n_sms);
    loop {
        dispatch_tbs(
            &mut lanes,
            tb_scheduler,
            feed,
            &mut next_tb,
            cycle,
            &mut report.tb_placements,
            &mut snaps,
        )?;

        // Next cycle at which any SM can make progress.
        let Some(event) = lanes
            .iter()
            .map(|l| l.sm.next_event())
            .min()
            .filter(|&e| e < u64::MAX)
        else {
            debug_assert!(next_tb >= tb_count, "idle GPU with pending TBs");
            break;
        };
        cycle = cycle.max(event);

        // Phase A: step every ready SM against private state only.
        let mut deferred = false;
        for lane in lanes.iter_mut().filter(|l| l.sm.next_event() <= cycle) {
            phase_a(
                config,
                cycle,
                kernel_idx,
                page_size,
                shared.trace.as_mut(),
                shared.sanitize,
                lane,
            );
            deferred |= !lane.outbox.is_empty();
        }

        // Phase B: drain outboxes in SM-index order. Most rounds defer
        // nothing; skip them outright (`phase_b` on an empty outbox is a
        // no-op).
        if deferred {
            for lane in &mut lanes {
                phase_b(lane, shared, cycle, &mut resolved);
            }
        }

        if let Some(san) = sanitizer.as_mut() {
            let tlbs: Vec<&dyn TranslationBuffer> = lanes.iter().map(|l| l.front.tlb()).collect();
            san.after_cycle(cycle, &tlbs, &**tb_scheduler, n_sms);
        }
    }

    if let Some(san) = sanitizer.as_mut() {
        let tlbs: Vec<&dyn TranslationBuffer> = lanes.iter().map(|l| l.front.tlb()).collect();
        san.end_of_kernel(
            cycle,
            &tlbs,
            shared.back.l2_slices(),
            report.per_app.len().max(1),
        );
        for lane in &lanes {
            if let Err(e) = lane.front.check_accounting() {
                Sanitizer::accounting_failure(
                    &format!("sm {} mem-hier front", lane.sm_idx),
                    cycle,
                    e,
                );
            }
        }
        if let Err(e) = shared.back.check_accounting() {
            Sanitizer::accounting_failure("mem-hier shared back", cycle, e);
        }
    }

    for lane in lanes {
        debug_assert!(lane.outbox.is_empty());
        report.instructions += lane.instructions;
        report.sm_instructions[lane.sm_idx] += lane.instructions;
        for (k, &done) in lane.app_done.iter().enumerate() {
            if let Some(app) = report.per_app.get_mut(k) {
                app.cycles = app.cycles.max(done);
            }
        }
        fronts.push(lane.front);
    }
    Ok(cycle)
}

/// Phase A for one SM: wake due warps (retiring finished ones and
/// freeing their TB slots), then issue up to `issue_width` warp
/// instructions at `cycle`, touching only the lane's private state.
///
/// Until the first private L1 TLB miss, translations and data probes run
/// eagerly (hits complete here). From that miss on the step *defers*:
/// every remaining translation and data access of the step is pushed to
/// the outbox in program order and replayed by phase B — including
/// private L1 probes — so each private structure sees its operations
/// in program order (eager prefix + in-order deferred suffix).
fn phase_a(
    config: &GpuConfig,
    cycle: u64,
    kernel_idx: u16,
    page_size: PageSize,
    mut trace: Option<&mut Vec<TranslationEvent>>,
    sanitize: bool,
    lane: &mut Lane,
) {
    debug_assert!(lane.sm.next_event() <= cycle, "phase A on an idle lane");
    debug_assert!(lane.outbox.is_empty(), "phase B must drain the outbox");
    let sm_idx = lane.sm_idx;
    let sm = &mut lane.sm;
    let front = &mut lane.front;
    let outbox = &mut lane.outbox;
    let app_done = &mut lane.app_done;

    sm.wake(cycle, |warp, freed_slot| {
        let app = warp.asid.index();
        app_done[app] = app_done[app].max(warp.ready_at);
        if let Some(slot) = freed_slot {
            front.tlb_mut().on_tb_finish(warp.asid, slot);
        }
    });

    // GTO issue: stay greedy on the last-issued warp, then oldest. The
    // persistent views are patched in place per issue (only the issued
    // warp changes between picks).
    let mut deferred = false;
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
                // HPCA'14, the paper's reference [19]): one L1 TLB
                // lookup per *distinct page* the warp instruction
                // touches; the per-line transactions below share the
                // translation.
                let IssueScratch {
                    lines,
                    translations,
                } = &mut lane.scratch;
                translations.clear();
                let mut lookups = 0u64;
                coalesce_into(acc, config.l1_cache.line_bytes as u64, lines);
                for (i, &line) in lines.iter().enumerate() {
                    let vpn = line.vpn(page_size);
                    let tref = match translations.iter().find(|(v, _)| *v == vpn) {
                        Some(&(_, t)) => t,
                        None => {
                            // Translation lookups leave one per cycle,
                            // whether served eagerly or deferred.
                            let at = cycle + lookups;
                            lookups += 1;
                            if let Some(trace) = trace.as_mut() {
                                trace.push(TranslationEvent {
                                    sm: sm_idx as u8,
                                    tb_global: warp.tb_global,
                                    warp: warp.warp_in_tb,
                                    kernel: kernel_idx,
                                    vpn: vpn.raw(),
                                });
                            }
                            let acc = Access {
                                at,
                                sm: sm_idx,
                                asid: warp.asid,
                                tb_slot: warp.tb_slot,
                                va: line,
                                vpn,
                                page_size,
                            };
                            let t = if deferred {
                                TransRef::Pending(
                                    outbox.push_translate(SharedRequest::TranslateReplay { acc }),
                                )
                            } else {
                                let l1 = front.probe_translate(&acc);
                                match l1.ppn {
                                    Some(ppn) => TransRef::Done(ppn, l1.ready_at),
                                    None => {
                                        deferred = true;
                                        TransRef::Pending(outbox.push_translate(
                                            SharedRequest::TranslateMiss {
                                                acc,
                                                l1_ready_at: l1.ready_at,
                                                l1_service_cycles: l1.service_cycles,
                                            },
                                        ))
                                    }
                                }
                            };
                            translations.push((vpn, t));
                            t
                        }
                    };
                    // Transactions leave the LSU one per cycle.
                    let min_start = cycle + i as u64;
                    let page_offset = line.page_offset(page_size);
                    match tref {
                        TransRef::Done(ppn, ready) if !deferred => {
                            let start = ready.max(min_start);
                            let pa = PhysAddr::from_parts(ppn, page_offset, page_size);
                            match front.probe_data(start, pa, write) {
                                Some(d) => done = done.max(d),
                                None => {
                                    outbox.push_data(SharedRequest::DataBack { start, pa, write }, w)
                                }
                            }
                        }
                        // Once deferring, even resolved lines replay in
                        // phase B so the private L1 data cache sees its
                        // probes in program order.
                        TransRef::Done(ppn, ready) => outbox.push_data(
                            SharedRequest::DataReplay {
                                translation: TranslationRef::Resolved { ppn, ready_at: ready },
                                min_start,
                                page_offset,
                                write,
                            },
                            w,
                        ),
                        TransRef::Pending(idx) => outbox.push_data(
                            SharedRequest::DataReplay {
                                translation: TranslationRef::Pending(idx),
                                min_start,
                                page_offset,
                                write,
                            },
                            w,
                        ),
                    }
                }
                // Deferred completions fold in during phase B; every one
                // of them is >= cycle + 1, so the warp's not-ready status
                // for the rest of this cycle is already final.
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
    if outbox.is_empty() {
        sm.settle(cycle, issue_limited);
        if sanitize {
            sm.cross_check(sm_idx, cycle, issue_limited);
        }
    } else {
        // The issued warps' `ready_at` may still move in phase B's
        // folds; phase B settles the step after patching them.
        outbox.settle = Some(issue_limited);
    }
}

/// Phase B for one SM: apply its deferred shared-stage requests in push
/// order against the shared back (and its own front for replays), patch
/// warp completion times, then settle the step.
fn phase_b(lane: &mut Lane, shared: &mut SharedState, cycle: u64, resolved: &mut Vec<(Ppn, u64)>) {
    if lane.outbox.is_empty() {
        debug_assert!(lane.outbox.settle.is_none());
        return;
    }
    resolved.clear();
    let front = &mut lane.front;
    for entry in lane.outbox.entries.drain(..) {
        let resp = shared.back.apply(front, &entry.req, resolved);
        if let Some(ppn) = resp.ppn {
            resolved.push((ppn, resp.ready_at));
            // Any resolution below the L1 filled the SM's L1 TLB (the
            // path that evicts, spills and flips sharing flags):
            // structurally check it right after the insert.
            if shared.sanitize && resp.filled_l1 {
                if let Some(acc) = entry.req.translate_acc() {
                    Sanitizer::after_fill(acc.sm, acc.at, front.tlb());
                }
            }
        }
        if let Some(w) = entry.warp {
            let warp = &mut lane.sm.warps[w];
            warp.ready_at = warp.ready_at.max(resp.ready_at);
        }
    }
    lane.outbox.n_translates = 0;
    if let Some(issue_limited) = lane.outbox.settle.take() {
        lane.sm.settle(cycle, issue_limited);
        if shared.sanitize {
            lane.sm.cross_check(lane.sm_idx, cycle, issue_limited);
        }
    }
}

/// A phase-A reference to a translation: resolved eagerly (L1 TLB hit)
/// or pending at an outbox index.
#[derive(Copy, Clone)]
enum TransRef {
    Done(Ppn, u64),
    Pending(u32),
}

/// Reusable per-issue scratch buffers: one warp memory instruction's
/// coalesced lines and page translations. Hoisted out of the issue loop
/// so the hot path performs no heap allocation.
#[derive(Default)]
struct IssueScratch {
    lines: Vec<VirtAddr>,
    translations: Vec<(vmem::Vpn, TransRef)>,
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
    /// Warp slab: stable indices (outbox entries name warps by them); a
    /// retired warp's index goes on `free` for reuse.
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
    /// Warps issued this step, queued on `wake` when the step settles
    /// (phase B may still move their `ready_at` later).
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
                fail(format!("finished warp {} (slab {w}) was not retired", warp.id));
            }
            if ready {
                any_ready_now = true;
            } else {
                next = next.min(warp.ready_at);
            }
        }
        views.sort_unstable_by_key(|(v, _)| v.id);
        if !views.iter().map(|&(v, _)| v).eq(self.views.iter().copied())
            || !views.iter().map(|&(_, w)| w).eq(self.view_warps.iter().copied())
        {
            fail(format!("scheduler views differ from a full scan: {views:?}"));
        }
        let ready = views.iter().filter(|(v, _)| v.ready).count();
        if ready != self.n_ready {
            fail(format!("n_ready is {} but {ready} views are ready", self.n_ready));
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
        let _ = writeln!(out, "view slabs: {:?}, n_ready {}", self.view_warps, self.n_ready);
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
    use workloads::{registry, Scale};

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
        let big = Simulator::new(
            GpuConfig::dac23_baseline().with_l1_tlb(tlb::TlbConfig::dac23_l1_256()),
        )
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

//! Runtime invariant sanitizer for the simulation engine.
//!
//! When enabled, the engine validates after TLB fills and after every
//! event cycle that the memory-system bookkeeping is self-consistent:
//! each TLB's structural invariants hold (entry placement licensed by the
//! §IV-B sharing flags, LRU recency a total order per set, occupancy ≤
//! capacity — see [`TranslationBuffer::check_invariants`]), per-SM stats
//! are monotone across cycles with `hits + misses == lookups`, and the TB
//! scheduler's §IV-A status table stays within its hardware budget.
//! After every SM step it also re-derives that SM's warp-scheduler views
//! and next event with a full scan of the warp table and compares them
//! with the engine's event-driven state (its wake queue). The first
//! violation panics with a full state dump.
//!
//! Enablement: on by default in debug builds (`cargo test` exercises it
//! everywhere), off in release; `repro`/`sweep` accept `--sanitize` which
//! calls [`set_sanitize`], and [`Simulator::with_sanitizer`] overrides the
//! global for one simulator instance.
//!
//! [`Simulator::with_sanitizer`]: crate::Simulator::with_sanitizer

use crate::tb_sched::TbScheduler;
use std::sync::atomic::{AtomicBool, Ordering};
use tlb::{InvariantViolation, TlbStats, TranslationBuffer};
use vmem::Asid;

/// Process-wide default, so `--sanitize` reaches every simulator built by
/// the experiment grid without threading a flag through each call site.
static ENABLED: AtomicBool = AtomicBool::new(cfg!(debug_assertions));

/// Turns the runtime invariant sanitizer on or off process-wide
/// (overridable per simulator via `Simulator::with_sanitizer`).
pub fn set_sanitize(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the sanitizer is currently enabled process-wide. Defaults to
/// `true` under `#[cfg(debug_assertions)]` and `false` in release builds.
pub fn sanitize_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// What the end-of-kernel sweep needs from an L2 TLB slice: the real
/// [`mem_hier::L2Slice`] (which wraps its buffer behind a token gate, so
/// it is not itself a [`TranslationBuffer`]) and test stand-ins both
/// qualify.
pub(crate) trait L2SliceView {
    /// Full structural check (placement, LRU order, per-ASID token
    /// bounds).
    fn check_invariants(&self) -> Result<(), InvariantViolation>;
    /// Aggregate counters.
    fn stats(&self) -> TlbStats;
    /// Per-address-space counters; must sum to [`L2SliceView::stats`].
    fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)>;
    /// State dump for violation reports.
    fn dump_state(&self) -> String;
}

impl L2SliceView for mem_hier::L2Slice {
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        mem_hier::L2Slice::check_invariants(self)
    }
    fn stats(&self) -> TlbStats {
        mem_hier::L2Slice::stats(self)
    }
    fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        mem_hier::L2Slice::stats_by_asid(self)
    }
    fn dump_state(&self) -> String {
        self.buffer().dump_state()
    }
}

/// Per-run sanitizer state: the previous cycle's per-SM stats, for the
/// monotonicity check.
pub(crate) struct Sanitizer {
    last_l1: Vec<TlbStats>,
}

/// ASID-consistency check shared by the L1 and L2 end-of-kernel sweeps:
/// per-ASID counters must sum to the aggregate (no lookup attributed to
/// nobody, none double-counted), and every ASID with activity must name
/// one of the run's `num_asids` configured address spaces — an entry
/// attributed outside that range could not have come from any owning
/// page table.
fn check_per_asid(
    context: &str,
    aggregate: TlbStats,
    by_asid: &[(Asid, TlbStats)],
    num_asids: usize,
    dump: String,
) {
    let sum = by_asid
        .iter()
        .fold(TlbStats::default(), |a, (_, s)| a + *s);
    if sum != aggregate {
        report(InvariantViolation::new(
            context,
            format!("per-ASID stats do not sum to the aggregate: {sum:?} != {aggregate:?}"),
            dump,
        ));
    }
    for (asid, stats) in by_asid {
        let active = *stats != TlbStats::default();
        if active && asid.index() >= num_asids {
            report(InvariantViolation::new(
                context,
                format!(
                    "ASID {asid} has activity but the run configured only \
                     {num_asids} address spaces"
                ),
                dump,
            ));
        }
    }
}

impl Sanitizer {
    pub(crate) fn new(num_sms: usize) -> Self {
        Sanitizer {
            last_l1: vec![TlbStats::default(); num_sms],
        }
    }

    /// Full structural check of one SM's L1 TLB, called after a fill (the
    /// path that evicts, spills and flips sharing flags): the engine runs
    /// it after every translation the L1 TLB did not resolve.
    pub(crate) fn after_fill(sm: usize, cycle: u64, tlb: &dyn TranslationBuffer) {
        if let Err(v) = tlb.check_invariants() {
            report(v.in_context(&format!("sm {sm} L1 TLB, post-fill at cycle {cycle}")));
        }
    }

    /// Cheap per-event-cycle checks: per-SM stats monotone and internally
    /// consistent, scheduler status table within budget. Runs once every
    /// ready SM has stepped for the cycle.
    pub(crate) fn after_cycle(
        &mut self,
        cycle: u64,
        l1_tlbs: &[&dyn TranslationBuffer],
        scheduler: &dyn TbScheduler,
        num_sms: usize,
    ) {
        for (sm, tlb) in l1_tlbs.iter().enumerate() {
            let now = tlb.stats();
            let prev = self.last_l1[sm];
            let monotone = now.hits >= prev.hits
                && now.misses >= prev.misses
                && now.evictions >= prev.evictions
                && now.insertions >= prev.insertions
                && now.lookups >= prev.lookups;
            if !monotone {
                report(InvariantViolation::new(
                    format!("sm {sm} L1 TLB, cycle {cycle}"),
                    format!("stats went backwards: {prev:?} -> {now:?}"),
                    tlb.dump_state(),
                ));
            }
            if let Err(e) = now.check() {
                report(InvariantViolation::new(
                    format!("sm {sm} L1 TLB, cycle {cycle}"),
                    e,
                    tlb.dump_state(),
                ));
            }
            self.last_l1[sm] = now;
        }
        if let Err(e) = scheduler.check_invariants(num_sms) {
            report(InvariantViolation::new(
                format!("TB scheduler '{}', cycle {cycle}", scheduler.name()),
                e,
                String::from("<scheduler state embedded in the detail above>"),
            ));
        }
    }

    /// Exhaustive end-of-kernel sweep: every L1 TLB and L2 TLB slice gets
    /// a full structural check plus the ASID-consistency checks of
    /// [`check_per_asid`] (too costly per cycle, cheap per kernel).
    /// `num_asids` is the number of address spaces the run configured.
    pub(crate) fn end_of_kernel(
        &mut self,
        cycle: u64,
        l1_tlbs: &[&dyn TranslationBuffer],
        l2_slices: &[impl L2SliceView],
        num_asids: usize,
    ) {
        for (sm, tlb) in l1_tlbs.iter().enumerate() {
            let context = format!("sm {sm} L1 TLB, end of kernel at cycle {cycle}");
            if let Err(v) = tlb.check_invariants() {
                report(v.in_context(&context));
            }
            check_per_asid(
                &context,
                tlb.stats(),
                &tlb.stats_by_asid(),
                num_asids,
                tlb.dump_state(),
            );
        }
        for (i, slice) in l2_slices.iter().enumerate() {
            let context = format!("L2 TLB slice {i}, end of kernel at cycle {cycle}");
            if let Err(v) = slice.check_invariants() {
                report(v.in_context(&context));
            }
            check_per_asid(
                &context,
                slice.stats(),
                &slice.stats_by_asid(),
                num_asids,
                slice.dump_state(),
            );
        }
    }

    /// Reports an SM whose event-driven step state (scheduler views, wake
    /// queue, `next_event`) disagrees with a full scan of its warp table
    /// after a step settled.
    pub(crate) fn sm_step_failure(sm: usize, cycle: u64, detail: String, dump: String) -> ! {
        report(InvariantViolation::new(
            format!("sm {sm} warp state, cycle {cycle}"),
            detail,
            dump,
        ))
    }

    /// Reports a broken cross-accumulator accounting identity found at
    /// end of kernel (`PerSmFront::check_accounting` /
    /// `SharedBack::check_accounting`): lost or double-counted
    /// translations, unattributed latency cycles.
    pub(crate) fn accounting_failure(context: &str, cycle: u64, detail: String) -> ! {
        report(InvariantViolation::new(
            format!("{context}, end of kernel at cycle {cycle}"),
            detail,
            String::from("<accounting counters embedded in the detail above>"),
        ))
    }
}

/// A violation is a simulator bug, never a simulation outcome: abort the
/// run with the dump rather than producing silently-wrong results.
fn report(v: InvariantViolation) -> ! {
    panic!("sanitizer: {v}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_follows_debug_assertions() {
        // Tests build with debug_assertions on, so the sanitizer defaults
        // to enabled — the whole test suite runs sanitized.
        assert_eq!(sanitize_enabled(), cfg!(debug_assertions));
    }

    #[test]
    #[should_panic(expected = "stats went backwards")]
    fn regressing_stats_are_fatal() {
        struct Fake(TlbStats);
        impl TranslationBuffer for Fake {
            fn lookup(&mut self, _: &tlb::TlbRequest) -> tlb::TlbOutcome {
                tlb::TlbOutcome::miss(1)
            }
            fn insert(&mut self, _: &tlb::TlbRequest, _: vmem::Ppn) {}
            fn stats(&self) -> TlbStats {
                self.0
            }
            fn reset_stats(&mut self) {}
            fn flush(&mut self) {}
            fn capacity(&self) -> usize {
                0
            }
        }
        let mut s = Sanitizer::new(1);
        let mut stats = TlbStats::default();
        stats.record(true);
        let warm = Fake(stats);
        let sched = crate::tb_sched::RoundRobinScheduler::new();
        s.after_cycle(1, &[&warm as &dyn TranslationBuffer], &sched, 1);
        // Counters jump backwards on the next cycle: must panic.
        let reset = Fake(TlbStats::default());
        s.after_cycle(2, &[&reset as &dyn TranslationBuffer], &sched, 1);
    }

    /// A TLB whose stats and structural verdict are directly corruptible,
    /// standing in for an implementation whose state went bad.
    struct Broken {
        stats: TlbStats,
        structural: Option<InvariantViolation>,
        /// Overrides the per-ASID breakdown (`None` = the trait default:
        /// everything on ASID 0, which always sums correctly).
        per_asid: Option<Vec<(Asid, TlbStats)>>,
    }

    impl Broken {
        fn sound() -> Self {
            Broken {
                stats: TlbStats::default(),
                structural: None,
                per_asid: None,
            }
        }

        fn structurally(detail: &str, dump: &str) -> Self {
            Broken {
                stats: TlbStats::default(),
                structural: Some(InvariantViolation::new("FakeTlb", detail, dump)),
                per_asid: None,
            }
        }
    }

    impl L2SliceView for Broken {
        fn check_invariants(&self) -> Result<(), InvariantViolation> {
            TranslationBuffer::check_invariants(self)
        }
        fn stats(&self) -> TlbStats {
            self.stats
        }
        fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
            TranslationBuffer::stats_by_asid(self)
        }
        fn dump_state(&self) -> String {
            TranslationBuffer::dump_state(self)
        }
    }

    impl TranslationBuffer for Broken {
        fn lookup(&mut self, _: &tlb::TlbRequest) -> tlb::TlbOutcome {
            tlb::TlbOutcome::miss(1)
        }
        fn insert(&mut self, _: &tlb::TlbRequest, _: vmem::Ppn) {}
        fn stats(&self) -> TlbStats {
            self.stats
        }
        fn reset_stats(&mut self) {}
        fn flush(&mut self) {}
        fn capacity(&self) -> usize {
            0
        }
        fn check_invariants(&self) -> Result<(), InvariantViolation> {
            match &self.structural {
                Some(v) => Err(v.clone()),
                None => Ok(()),
            }
        }
        fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
            match &self.per_asid {
                Some(v) => v.clone(),
                None => vec![(Asid::default(), self.stats)],
            }
        }
        fn dump_state(&self) -> String {
            String::from("set   0: [corrupted]")
        }
    }

    #[test]
    #[should_panic(expected = "sm 0 L1 TLB, cycle 7")]
    fn inconsistent_stats_identity_is_fatal_and_names_the_sm() {
        // hits + misses != lookups: a lookup was recorded without its
        // verdict (or vice versa). TlbStats::check must trip.
        let mut broken = Broken::sound();
        broken.stats.lookups = 3;
        broken.stats.hits = 1;
        let sched = crate::tb_sched::RoundRobinScheduler::new();
        let mut s = Sanitizer::new(1);
        s.after_cycle(7, &[&broken as &dyn TranslationBuffer], &sched, 1);
    }

    #[test]
    #[should_panic(expected = "sm 3 L1 TLB, post-fill at cycle 11")]
    fn post_fill_structural_violation_names_the_sm() {
        let broken = Broken::structurally("duplicate vpn 42 in set 5", "set   5: [vpn=42 vpn=42]");
        Sanitizer::after_fill(3, 11, &broken);
    }

    #[test]
    #[should_panic(expected = "TB scheduler 'broken-table', cycle 9")]
    fn scheduler_table_violation_is_fatal_and_names_the_policy() {
        struct BadTable;
        impl TbScheduler for BadTable {
            fn pick_sm(&mut self, _: &[crate::tb_sched::SmSnapshot]) -> Option<usize> {
                None
            }
            fn name(&self) -> &str {
                "broken-table"
            }
            fn check_invariants(&self, num_sms: usize) -> Result<(), String> {
                Err(format!("status table has 17 rows for {num_sms} SMs"))
            }
        }
        let ok = Broken::sound();
        let mut s = Sanitizer::new(1);
        s.after_cycle(9, &[&ok as &dyn TranslationBuffer], &BadTable, 1);
    }

    #[test]
    #[should_panic(expected = "sm 1 L1 TLB, end of kernel at cycle 100")]
    fn end_of_kernel_l1_violation_names_the_sm() {
        let ok = Broken::sound();
        let bad = Broken::structurally("stamp 9 exceeds clock 3", "set   0: [@9]");
        let mut s = Sanitizer::new(2);
        let l2: Vec<Broken> = Vec::new();
        s.end_of_kernel(
            100,
            &[&ok as &dyn TranslationBuffer, &bad as &dyn TranslationBuffer],
            &l2,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "L2 TLB slice 1, end of kernel at cycle 100")]
    fn end_of_kernel_l2_violation_names_the_slice() {
        let mut s = Sanitizer::new(0);
        let l2 = vec![
            Broken::sound(),
            Broken::structurally("resident 513 exceeds capacity 512", "set 0: []"),
        ];
        s.end_of_kernel(100, &[], &l2, 1);
    }

    #[test]
    #[should_panic(expected = "per-ASID stats do not sum to the aggregate")]
    fn l1_per_asid_sum_mismatch_is_fatal() {
        // An L1 TLB that attributes fewer lookups to its ASIDs than it
        // counted in aggregate: a lookup went unattributed.
        let mut bad = Broken::sound();
        bad.stats.record(true);
        bad.stats.record(true);
        let mut app0 = TlbStats::default();
        app0.record(true);
        bad.per_asid = Some(vec![(Asid::default(), app0)]);
        let mut s = Sanitizer::new(1);
        let l2: Vec<Broken> = Vec::new();
        s.end_of_kernel(100, &[&bad as &dyn TranslationBuffer], &l2, 1);
    }

    #[test]
    #[should_panic(expected = "address spaces")]
    fn l2_activity_outside_configured_asids_is_fatal() {
        // An L2 slice reporting activity for ASID 3 in a 2-app co-run:
        // no configured page table can own those entries.
        let mut bad = Broken::sound();
        bad.stats.record(false);
        let mut stray = TlbStats::default();
        stray.record(false);
        bad.per_asid = Some(vec![(Asid::new(3), stray)]);
        let mut s = Sanitizer::new(0);
        s.end_of_kernel(100, &[], &[bad], 2);
    }

    #[test]
    #[should_panic(expected = "sm 2 mem-hier front, end of kernel at cycle 64")]
    fn accounting_failure_names_the_front() {
        Sanitizer::accounting_failure(
            "sm 2 mem-hier front",
            64,
            String::from("front attributed 0 translations but the L1 stage resolved 4"),
        );
    }
}

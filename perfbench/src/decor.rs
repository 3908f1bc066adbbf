//! Timing decorators around the simulator's pluggable layers, and a
//! decorated twin of [`Mechanism::simulator`] that installs them.
//!
//! Each decorator owns plain counters: an SM's L1 TLB and warp scheduler
//! are stepped by whichever thread runs that SM (a pool worker under
//! `--sim-threads 2`), so nothing is shared on the hot path. A decorator
//! deposits its counters into the run's [`Ledger`] when it is dropped,
//! which happens when the simulator that owns it is dropped; the ledger
//! therefore holds the merged per-SM and per-thread totals once the
//! caller drops the simulator.
//!
//! Every trait method is forwarded, including the defaulted ones
//! (`supports_deferred_fill`, `patch_ppn`, `fastpath_hits`,
//! `occupancy_only`, ...): a decorator that fell back to a default would
//! silently switch off the sharded drain, epoch batching or the memo
//! fast path without changing a single simulated cycle. The benchmark's
//! transparency test pins this for every mechanism.

use std::ops::AddAssign;
use std::sync::{Arc, Mutex};

use gpu_sim::{
    GpuConfig, GtoWarpScheduler, RoundRobinScheduler, Simulator, SmSnapshot, TbScheduler,
    WarpScheduler, WarpView,
};
use mem_hier::L2Policy;
use orchestrated_tlb::{
    Mechanism, PartitionedTlb, PartitionedTlbConfig, TbClusteredWarpScheduler, TlbAwareScheduler,
};
use tlb::{
    CompressedTlb, CompressionConfig, InvariantViolation, SetAssocTlb, TlbConfig, TlbOutcome,
    TlbRequest, TlbStats, TranslationBuffer,
};
use vmem::{Asid, Ppn};

use crate::clock::Stopwatch;

/// Host-side counters of the decorated layers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCounters {
    /// L1 TLB `lookup` calls.
    pub l1_lookups: u64,
    /// Host time inside L1 TLB `lookup`.
    pub l1_lookup_ns: u64,
    /// L1 TLB `insert` calls.
    pub l1_inserts: u64,
    /// Host time inside L1 TLB `insert`.
    pub l1_insert_ns: u64,
    /// Deferred-fill `patch_ppn` calls (only the sharded drain makes them).
    pub l1_patch_ppn_calls: u64,
    /// Lookups the L1 TLBs served from their exact MRU memo.
    pub l1_fastpath_hits: u64,
    /// TB scheduler `pick_sm` calls.
    pub tb_picks: u64,
    /// Host time inside `pick_sm`.
    pub tb_pick_ns: u64,
    /// Warp scheduler `pick` calls.
    pub warp_picks: u64,
    /// Host time inside `pick`.
    pub warp_pick_ns: u64,
}

impl AddAssign for LayerCounters {
    fn add_assign(&mut self, o: LayerCounters) {
        self.l1_lookups += o.l1_lookups;
        self.l1_lookup_ns += o.l1_lookup_ns;
        self.l1_inserts += o.l1_inserts;
        self.l1_insert_ns += o.l1_insert_ns;
        self.l1_patch_ppn_calls += o.l1_patch_ppn_calls;
        self.l1_fastpath_hits += o.l1_fastpath_hits;
        self.tb_picks += o.tb_picks;
        self.tb_pick_ns += o.tb_pick_ns;
        self.warp_picks += o.warp_picks;
        self.warp_pick_ns += o.warp_pick_ns;
    }
}

/// Where decorators deposit their counters when dropped.
#[derive(Clone, Debug, Default)]
pub struct Ledger(Arc<Mutex<LayerCounters>>);

impl Ledger {
    fn deposit(&self, counters: LayerCounters) {
        // Deposits are plain sums, so a guard poisoned by a panicking
        // decorator still holds consistent data; and this runs in `Drop`,
        // which must not panic.
        let mut total = self.0.lock().unwrap_or_else(|p| p.into_inner());
        *total += counters;
    }

    /// The merged counters of every decorator dropped so far.
    pub fn totals(&self) -> LayerCounters {
        *self.0.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Times `lookup`/`insert` and counts `patch_ppn` on one SM's L1 TLB.
struct TimedTlb {
    inner: Box<dyn TranslationBuffer>,
    counters: LayerCounters,
    ledger: Ledger,
}

impl Drop for TimedTlb {
    fn drop(&mut self) {
        self.counters.l1_fastpath_hits = self.inner.fastpath_hits();
        self.ledger.deposit(self.counters);
    }
}

impl TranslationBuffer for TimedTlb {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        let t = Stopwatch::start();
        let out = self.inner.lookup(req);
        self.counters.l1_lookup_ns += t.nanos();
        self.counters.l1_lookups += 1;
        out
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        let t = Stopwatch::start();
        self.inner.insert(req, ppn);
        self.counters.l1_insert_ns += t.nanos();
        self.counters.l1_inserts += 1;
    }

    fn stats(&self) -> TlbStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        self.inner.stats_by_asid()
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn on_tb_finish(&mut self, asid: Asid, tb_slot: u8) {
        self.inner.on_tb_finish(asid, tb_slot);
    }

    fn set_concurrent_tbs(&mut self, tbs: u8) {
        self.inner.set_concurrent_tbs(tbs);
    }

    fn probe(&self, req: &TlbRequest) -> Option<Option<Ppn>> {
        self.inner.probe(req)
    }

    fn supports_deferred_fill(&self) -> bool {
        self.inner.supports_deferred_fill()
    }

    fn patch_ppn(&mut self, req: &TlbRequest, old: Ppn, new: Ppn) -> bool {
        self.counters.l1_patch_ppn_calls += 1;
        self.inner.patch_ppn(req, old, new)
    }

    fn fastpath_hits(&self) -> u64 {
        self.inner.fastpath_hits()
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.inner.check_invariants()
    }

    fn dump_state(&self) -> String {
        self.inner.dump_state()
    }
}

/// Times `pick_sm` on the TB scheduler.
struct TimedTbScheduler {
    inner: Box<dyn TbScheduler>,
    counters: LayerCounters,
    ledger: Ledger,
}

impl Drop for TimedTbScheduler {
    fn drop(&mut self) {
        self.ledger.deposit(self.counters);
    }
}

impl TbScheduler for TimedTbScheduler {
    fn pick_sm(&mut self, sms: &[SmSnapshot]) -> Option<usize> {
        let t = Stopwatch::start();
        let out = self.inner.pick_sm(sms);
        self.counters.tb_pick_ns += t.nanos();
        self.counters.tb_picks += 1;
        out
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn occupancy_only(&self) -> bool {
        self.inner.occupancy_only()
    }

    fn check_invariants(&self, num_sms: usize) -> Result<(), String> {
        self.inner.check_invariants(num_sms)
    }
}

/// Times `pick` on one SM's warp scheduler.
struct TimedWarpScheduler {
    inner: Box<dyn WarpScheduler>,
    counters: LayerCounters,
    ledger: Ledger,
}

impl Drop for TimedWarpScheduler {
    fn drop(&mut self) {
        self.ledger.deposit(self.counters);
    }
}

impl WarpScheduler for TimedWarpScheduler {
    fn pick(&mut self, warps: &[WarpView]) -> Option<usize> {
        let t = Stopwatch::start();
        let out = self.inner.pick(warps);
        self.counters.warp_pick_ns += t.nanos();
        self.counters.warp_picks += 1;
        out
    }

    fn issued(&mut self, warp: WarpView) {
        self.inner.issued(warp);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// `mechanism`'s configuration tweaks, as [`Mechanism::simulator`]
/// applies them.
pub fn mechanism_config(mechanism: Mechanism, config: GpuConfig) -> GpuConfig {
    match mechanism {
        Mechanism::LargeTlb => config.with_l1_tlb(TlbConfig::dac23_l1_256()),
        Mechanism::MaskTokens => config.with_l2_policy(L2Policy::MaskTokens { quota: 64 }),
        Mechanism::SubEntrySharing => config.with_l2_policy(L2Policy::SubEntry { subs: 2 }),
        _ => config,
    }
}

/// `mechanism`'s undecorated L1 TLB organization with `geometry` (the
/// mem-hier replay builds its hierarchy from these).
pub fn l1_tlb(mechanism: Mechanism, geometry: TlbConfig) -> Box<dyn TranslationBuffer> {
    let partitioned = |base: PartitionedTlbConfig| {
        Box::new(PartitionedTlb::new(PartitionedTlbConfig {
            geometry,
            ..base
        })) as Box<dyn TranslationBuffer>
    };
    match mechanism {
        Mechanism::Baseline | Mechanism::LargeTlb | Mechanism::Scheduling => {
            Box::new(SetAssocTlb::new(geometry))
        }
        Mechanism::SchedPartition | Mechanism::PartitionOnly => {
            partitioned(PartitionedTlbConfig::partition_only())
        }
        Mechanism::Full
        | Mechanism::FullWithWarpClustering
        | Mechanism::MaskTokens
        | Mechanism::SubEntrySharing => partitioned(PartitionedTlbConfig::with_sharing()),
        Mechanism::Compression => {
            Box::new(CompressedTlb::new(geometry, CompressionConfig::pact20()))
        }
        Mechanism::FullWithCompression => partitioned(PartitionedTlbConfig {
            compression: Some(CompressionConfig::pact20()),
            ..PartitionedTlbConfig::with_sharing()
        }),
        other => panic!("perfbench has no decorated twin of mechanism {other}"),
    }
}

/// `mechanism`'s TB scheduling policy.
fn tb_scheduler(mechanism: Mechanism) -> Box<dyn TbScheduler> {
    match mechanism {
        Mechanism::Baseline
        | Mechanism::LargeTlb
        | Mechanism::PartitionOnly
        | Mechanism::Compression => Box::new(RoundRobinScheduler::new()),
        _ => Box::new(TlbAwareScheduler::new()),
    }
}

/// `mechanism`'s per-SM warp scheduling policy.
fn warp_scheduler(mechanism: Mechanism) -> Box<dyn WarpScheduler> {
    match mechanism {
        Mechanism::FullWithWarpClustering => Box::new(TbClusteredWarpScheduler::new()),
        _ => Box::new(GtoWarpScheduler::new()),
    }
}

/// [`Mechanism::simulator`] with every L1 TLB, the TB scheduler and
/// every warp scheduler wrapped in a timing decorator reporting to
/// `ledger`. Drop the simulator before reading the ledger.
pub fn decorated_simulator(mechanism: Mechanism, config: GpuConfig, ledger: &Ledger) -> Simulator {
    let config = mechanism_config(mechanism, config);
    let geometry = config.l1_tlb;
    let (tlb_ledger, warp_ledger) = (ledger.clone(), ledger.clone());
    Simulator::new(config)
        .with_tb_scheduler(Box::new(TimedTbScheduler {
            inner: tb_scheduler(mechanism),
            counters: LayerCounters::default(),
            ledger: ledger.clone(),
        }))
        .with_warp_scheduler_factory(Box::new(move || {
            Box::new(TimedWarpScheduler {
                inner: warp_scheduler(mechanism),
                counters: LayerCounters::default(),
                ledger: warp_ledger.clone(),
            })
        }))
        .with_l1_tlb_factory(Box::new(move |_| {
            Box::new(TimedTlb {
                inner: l1_tlb(mechanism, geometry),
                counters: LayerCounters::default(),
                ledger: tlb_ledger.clone(),
            })
        }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Epoch batching keys on `occupancy_only` and the sharded drain on
    /// `supports_deferred_fill`; neither shows in a report's cycles.
    #[test]
    fn decorators_forward_the_engine_eligibility_flags() {
        let geometry = GpuConfig::dac23_baseline().l1_tlb;
        for m in Mechanism::all() {
            let tlb = TimedTlb {
                inner: l1_tlb(m, geometry),
                counters: LayerCounters::default(),
                ledger: Ledger::default(),
            };
            let plain = l1_tlb(m, geometry);
            assert_eq!(
                tlb.supports_deferred_fill(),
                plain.supports_deferred_fill(),
                "{m}"
            );
            let sched = TimedTbScheduler {
                inner: tb_scheduler(m),
                counters: LayerCounters::default(),
                ledger: Ledger::default(),
            };
            assert_eq!(
                sched.occupancy_only(),
                tb_scheduler(m).occupancy_only(),
                "{m}"
            );
        }
        let baseline = TimedTbScheduler {
            inner: tb_scheduler(Mechanism::Baseline),
            counters: LayerCounters::default(),
            ledger: Ledger::default(),
        };
        assert!(
            baseline.occupancy_only(),
            "round-robin keeps epoch batching eligible"
        );
    }
}

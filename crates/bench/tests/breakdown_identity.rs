//! The mem-hier latency breakdown must account for every translation
//! cycle: for any mechanism, sharing policy, and hierarchy shape, the sum
//! of per-stage contributions (L1 TLB + interconnect + L2 TLB queueing +
//! L2 TLB lookup + walk + fault) equals the independently accumulated
//! end-to-end translation latency. The engine debug-asserts this per
//! translation; these tests pin the aggregate identity in release mode
//! too, across the whole mechanism × policy space.
//!
//! The report merges per-SM stat accumulators with plain `Add`, which is
//! only sound because every field is an order-independent sum: the last
//! two proptests split an op stream across SMs and require the merge to
//! equal serial accumulation exactly.

use bench::SEED;
use gpu_sim::{GpuConfig, LatencyBreakdown, SimReport, Simulator, TranslationBreakdown};
use orchestrated_tlb::{
    run_benchmark, Mechanism, PartitionedTlb, PartitionedTlbConfig, SharingPolicy,
    TlbAwareScheduler,
};
use proptest::prelude::*;
use tlb::{TlbStats, TranslationBuffer};
use workloads::{registry, Scale};

fn assert_breakdown_accounts_for_everything(r: &SimReport, context: &str) {
    r.latency
        .check()
        .unwrap_or_else(|e| panic!("latency identity broken under {context}: {e}"));
    assert!(
        r.latency.translations > 0,
        "no translations recorded under {context}"
    );
    assert_eq!(
        r.latency.stage_sum(),
        r.latency.end_to_end_cycles,
        "stage sum != end-to-end under {context}"
    );
    r.walker
        .check()
        .unwrap_or_else(|e| panic!("walker stats broken under {context}: {e}"));
}

/// Every mechanism of the paper satisfies the identity (exhaustive, not
/// sampled: the mechanism list is small and each carries a different L1
/// TLB organization through the same hierarchy).
#[test]
fn every_mechanism_accounts_for_every_translation_cycle() {
    let spec = registry().into_iter().find(|s| s.name == "bfs").unwrap();
    for m in Mechanism::all() {
        let r = run_benchmark(&spec, Scale::Test, SEED, m, GpuConfig::dac23_baseline());
        assert_breakdown_accounts_for_everything(&r, m.label());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random benchmark × sharing policy × hierarchy shape: the identity
    /// is structural, not a property of the baseline numbers.
    #[test]
    fn breakdown_identity_holds_for_any_sharing_policy_and_shape(
        bench_idx in 0usize..16,
        policy_idx in 0usize..4,
        slices in prop_oneof![Just(1usize), Just(2), Just(4)],
        occupancy in 1u64..=10,
        per_level in prop_oneof![Just(0u64), Just(25)],
    ) {
        let specs = registry();
        let spec = &specs[bench_idx % specs.len()];
        let sharing = [
            SharingPolicy::None,
            SharingPolicy::Adjacent,
            SharingPolicy::AdjacentCounter { threshold: 2 },
            SharingPolicy::AllToAll,
        ][policy_idx];
        let config = GpuConfig {
            l2_tlb_slices: slices,
            l2_tlb_port_occupancy: occupancy,
            walk_latency_per_level: per_level,
            ..GpuConfig::dac23_baseline()
        };
        let r = Simulator::new(config)
            .with_tb_scheduler(Box::new(TlbAwareScheduler::new()))
            .with_l1_tlb_factory(Box::new(move |c: &GpuConfig| {
                Box::new(PartitionedTlb::new(PartitionedTlbConfig {
                    geometry: c.l1_tlb,
                    sharing,
                    ..PartitionedTlbConfig::partition_only()
                })) as Box<dyn TranslationBuffer>
            }))
            .run(spec.generate(Scale::Test, SEED));
        assert_breakdown_accounts_for_everything(
            &r,
            &format!("{} sharing={sharing:?} slices={slices} occ={occupancy} per_level={per_level}", spec.name),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting a lookup stream across any number of per-SM `TlbStats`
    /// accumulators and merging with `Add` equals serial accumulation.
    #[test]
    fn merged_per_sm_tlb_stats_equal_serial_accumulation(
        ops in collection::vec((any::<bool>(), any::<bool>(), any::<bool>()), 0..256),
        sms in 1usize..=16,
    ) {
        let mut serial = TlbStats::default();
        let mut per_sm = vec![TlbStats::default(); sms];
        for (i, &(hit, inserted, evicted)) in ops.iter().enumerate() {
            for s in [&mut serial, &mut per_sm[i % sms]] {
                s.record(hit);
                if inserted {
                    s.insertions += 1;
                    if evicted {
                        s.evictions += 1;
                    }
                }
            }
        }
        let merged = per_sm.into_iter().fold(TlbStats::default(), |a, b| a + b);
        prop_assert_eq!(merged, serial);
        prop_assert_eq!(merged.accesses(), serial.hits + serial.misses);
    }

    /// Splitting translation completions across per-SM `LatencyBreakdown`
    /// accumulators and merging with `Add` equals serial accumulation,
    /// and preserves the per-stage attribution identity.
    #[test]
    fn merged_per_sm_latency_breakdowns_equal_serial_accumulation(
        ops in collection::vec(((0u64..500, 0u64..40), (0u64..100, 0u64..20), (0u64..2000, 0u64..5000)), 0..128),
        sms in 1usize..=16,
    ) {
        let mut serial = LatencyBreakdown::default();
        let mut per_sm = vec![LatencyBreakdown::default(); sms];
        for (i, &((l1_tlb, icnt), (l2_tlb_queue, l2_tlb_lookup), (walk, fault))) in ops.iter().enumerate() {
            let b = TranslationBreakdown { l1_tlb, icnt, l2_tlb_queue, l2_tlb_lookup, walk, fault };
            serial.record(&b, b.total());
            per_sm[i % sms].record(&b, b.total());
        }
        let merged = per_sm.into_iter().fold(LatencyBreakdown::default(), |a, b| a + b);
        prop_assert_eq!(merged, serial);
        prop_assert_eq!(merged.translations, ops.len() as u64);
        prop_assert!(merged.check().is_ok(), "{:?}", merged.check());
    }
}

//! Property-based invariant tests for the partitioned TLB and the
//! TLB-aware scheduler (the sanitizer's structural checks, driven by
//! random operation sequences instead of the engine).
//!
//! Every sequence interleaves lookups, inserts, TB completions and
//! concurrency changes across all four sharing policies, and re-validates
//! [`TranslationBuffer::check_invariants`] after *each* operation — the
//! same checks `--sanitize` runs inside the engine, so a shrunken failure
//! here is a ready-made reproducer for a sanitizer trip.
//!
//! One property drives the engine itself: random mini-workloads under
//! the full proposal with TB-clustered warp scheduling, sanitized.

use gpu_sim::GpuConfig;
use orchestrated_tlb::{
    Mechanism, PartitionedTlb, PartitionedTlbConfig, SharingPolicy, TlbAwareScheduler,
};
use proptest::prelude::*;
use tlb::{CompressionConfig, TlbConfig, TlbRequest, TlbStats, TranslationBuffer};
use vmem::{AddressSpace, Asid, PageSize, Ppn, Vpn};
use workloads::{KernelTrace, LaneAccesses, TbTrace, WarpOp, Workload};

/// One random TLB operation. Every address-carrying op also carries the
/// issuing app's ASID so sequences exercise the multi-tenant paths.
#[derive(Copy, Clone, Debug)]
enum Op {
    Lookup { asid: u16, vpn: u64, tb: u8 },
    Insert { asid: u16, vpn: u64, tb: u8 },
    TbFinish { asid: u16, tb: u8 },
    SetConcurrency { tbs: u8 },
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The compat prop_oneof! has no weight syntax; repeating the hot
    // lookup/insert arms biases the mix toward them instead.
    prop_oneof![
        (0u16..3, 0u64..96, 0u8..8).prop_map(|(asid, vpn, tb)| Op::Lookup { asid, vpn, tb }),
        (0u16..3, 0u64..96, 0u8..8).prop_map(|(asid, vpn, tb)| Op::Insert { asid, vpn, tb }),
        (0u16..3, 96u64..192, 0u8..8).prop_map(|(asid, vpn, tb)| Op::Lookup { asid, vpn, tb }),
        (0u16..3, 96u64..192, 0u8..8).prop_map(|(asid, vpn, tb)| Op::Insert { asid, vpn, tb }),
        (0u16..3, 0u8..8).prop_map(|(asid, tb)| Op::TbFinish { asid, tb }),
        (1u8..8).prop_map(|tbs| Op::SetConcurrency { tbs }),
        Just(Op::Flush),
    ]
}

/// App `asid` maps `vpn` to this frame: per-app ranges are disjoint, so
/// any hit returning a frame outside the requester's range is a leak.
fn frame_of(asid: u16, vpn: u64) -> u64 {
    u64::from(asid) * 1_000_000 + vpn + 1000
}

fn policy_strategy() -> impl Strategy<Value = SharingPolicy> {
    prop_oneof![
        Just(SharingPolicy::None),
        Just(SharingPolicy::Adjacent),
        (1u8..6).prop_map(|threshold| SharingPolicy::AdjacentCounter { threshold }),
        Just(SharingPolicy::AllToAll),
    ]
}

fn apply(t: &mut PartitionedTlb, op: Op) {
    match op {
        Op::Lookup { asid, vpn, tb } => {
            let out = t.lookup(&TlbRequest::new(Vpn::new(vpn), tb).with_asid(Asid::new(asid)));
            if let Some(ppn) = out.ppn {
                assert_eq!(
                    ppn.raw() / 1_000_000,
                    u64::from(asid),
                    "ASID {asid} received another app's frame {:#x}",
                    ppn.raw()
                );
            }
        }
        Op::Insert { asid, vpn, tb } => {
            t.insert(
                &TlbRequest::new(Vpn::new(vpn), tb).with_asid(Asid::new(asid)),
                Ppn::new(frame_of(asid, vpn)),
            );
        }
        Op::TbFinish { asid, tb } => t.on_tb_finish(Asid::new(asid), tb),
        Op::SetConcurrency { tbs } => t.set_concurrent_tbs(tbs),
        Op::Flush => t.flush(),
    }
    let sum = t
        .stats_by_asid()
        .iter()
        .fold(TlbStats::default(), |a, (_, s)| a + *s);
    assert_eq!(sum, t.stats(), "per-ASID stats must sum to aggregate");
}

/// A one-kernel workload from per-TB, per-warp op lists (`Some(offset)`:
/// a contiguous load; `None`: a 3-cycle compute op). Empty lists give
/// zero-op warps and warp-less TBs.
fn mini_workload(spec: &[Vec<Vec<Option<u64>>>]) -> Workload {
    let mut space = AddressSpace::new(PageSize::Small);
    let buf = space.allocate("data", 1 << 20).expect("fresh space");
    let tbs = spec
        .iter()
        .map(|tb_spec| {
            let mut tb = TbTrace::with_warps(tb_spec.len());
            for (w, ops) in tb_spec.iter().enumerate() {
                for op in ops {
                    tb.warp_mut(w).push(match op {
                        Some(offset) => {
                            WarpOp::Load(LaneAccesses::contiguous(buf.addr_of(*offset), 4, 32))
                        }
                        None => WarpOp::Compute { cycles: 3 },
                    });
                }
            }
            tb
        })
        .collect();
    let kernel = KernelTrace {
        name: "mini".into(),
        tbs,
        max_concurrent_tbs_per_sm: 8,
        threads_per_tb: 128,
    };
    Workload::new("mini", vec![kernel], space)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// TB-clustered warp scheduling (with the TLB-aware TB scheduler and
    /// the partitioned L1 TLB) runs random mini-workloads, including
    /// zero-op warps and warp-less TBs, clean under the sanitizer, and
    /// the sanitized report equals the unsanitized one field for field.
    #[test]
    fn tb_clustered_runs_pass_the_sanitizer(
        spec in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(
                    prop_oneof![Just(None), (0u64..1 << 19).prop_map(Some)],
                    0..6,
                ),
                0..4,
            ),
            1..12,
        ),
        issue_width in 1u32..=4,
    ) {
        let config = GpuConfig { issue_width, ..GpuConfig::dac23_baseline() };
        let run = |sanitize: bool| {
            Mechanism::FullWithWarpClustering
                .simulator(config.clone())
                .with_sanitizer(sanitize)
                .run(mini_workload(&spec))
        };
        let checked = run(true);
        let ops: usize = spec.iter().flatten().map(Vec::len).sum();
        prop_assert_eq!(checked.instructions, ops as u64);
        prop_assert_eq!(format!("{checked:?}"), format!("{:?}", run(false)));
    }

    /// The structural invariants (set ownership licensed by sharing
    /// flags, LRU total order, stats identity, occupancy bound) survive
    /// arbitrary operation sequences under every sharing policy.
    #[test]
    fn partitioned_tlb_invariants_hold(
        policy in policy_strategy(),
        margin in prop_oneof![Just(0u64), Just(4), Just(512)],
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut t = PartitionedTlb::new(PartitionedTlbConfig {
            geometry: TlbConfig::new(16, 2, 1),
            sharing: policy,
            per_set_lookup_overhead: true,
            displacement_margin: margin,
            compression: None,
        });
        t.set_concurrent_tbs(8);
        for &op in &ops {
            apply(&mut t, op);
            let check = t.check_invariants();
            prop_assert!(check.is_ok(), "after {:?}: {}", op, check.unwrap_err());
        }
    }

    /// Same property with PACT'20 compression layered on top (runs,
    /// masks and literal entries add their own invariants).
    #[test]
    fn compressed_partitioned_tlb_invariants_hold(
        policy in policy_strategy(),
        degree in prop_oneof![Just(2usize), Just(4), Just(8)],
        ops in proptest::collection::vec(op_strategy(), 1..150),
    ) {
        let mut t = PartitionedTlb::new(PartitionedTlbConfig {
            geometry: TlbConfig::new(16, 2, 1),
            sharing: policy,
            per_set_lookup_overhead: true,
            displacement_margin: 8,
            compression: Some(CompressionConfig {
                degree,
                decompress_latency: 1,
            }),
        });
        t.set_concurrent_tbs(4);
        for &op in &ops {
            apply(&mut t, op);
            let check = t.check_invariants();
            prop_assert!(check.is_ok(), "after {:?}: {}", op, check.unwrap_err());
        }
    }

    /// The §IV-A scheduler's status table stays within its hardware
    /// budget and its EWMA estimates stay in [0, 1] for any observation
    /// stream.
    #[test]
    fn scheduler_table_invariants_hold(
        num_sms in prop_oneof![Just(4usize), Just(16), Just(32)],
        rounds in 1usize..40,
    ) {
        use gpu_sim::{SmSnapshot, TbScheduler};
        let mut s = TlbAwareScheduler::new();
        for r in 0..rounds {
            let sms: Vec<SmSnapshot> = (0..num_sms)
                .map(|i| SmSnapshot {
                    free_slots: ((i + r) % 3) as u8,
                    tlb_hits: (i as u64 * 7 + r as u64) % 50,
                    tlb_accesses: 50 + i as u64,
                })
                .collect();
            let _ = s.pick_sm(&sms);
            prop_assert!(s.check_invariants(num_sms).is_ok(),
                "round {r}: {:?}", s.check_invariants(num_sms));
        }
    }
}

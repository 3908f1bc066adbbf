//! Property-based tests for the timing engine over randomly generated
//! mini-workloads.

use gpu_sim::{GpuConfig, GtoWarpScheduler, LrrWarpScheduler, Simulator, WarpScheduler};
use proptest::prelude::*;
use vmem::{AddressSpace, PageSize};
use workloads::{KernelTrace, LaneAccesses, TbTrace, WarpOp, Workload};

/// Raw op stream: per TB, per warp, a list of (op kind, payload) pairs.
type RawOps = Vec<Vec<Vec<(u8, u64)>>>;

/// Strategy: a small random workload (1 kernel, random TBs/warps/ops).
fn arb_workload() -> impl Strategy<Value = (RawOps, u8)> {
    // Per TB, per warp: list of (op kind, payload).
    // kind 0: compute(payload%50+1); kind 1: contiguous load at offset;
    // kind 2: strided store at offset.
    let op = (0u8..3, 0u64..1 << 16);
    let warp = proptest::collection::vec(op, 1..10);
    let tb = proptest::collection::vec(warp, 1..4);
    let tbs = proptest::collection::vec(tb, 1..8);
    (tbs, 1u8..16)
}

/// Strategy: a mini-workload with the SM step's edge cases — warps with
/// no ops and TBs with no warps, which [`arb_workload`] never generates —
/// plus a machine shape: issue width 1..=4, a concurrent-TB cap 1..16,
/// and the warp policy (`true`: LRR, `false`: GTO).
fn arb_edge_case() -> impl Strategy<Value = (RawOps, u32, u8, bool)> {
    let op = (0u8..3, 0u64..1 << 16);
    let warp = proptest::collection::vec(op, 0..6);
    let tb = proptest::collection::vec(warp, 0..4);
    let tbs = proptest::collection::vec(tb, 1..10);
    (tbs, 1u32..=4, 1u8..16, any::<bool>())
}

fn build(spec: &[Vec<Vec<(u8, u64)>>], max_tbs: u8) -> Workload {
    let mut space = AddressSpace::new(PageSize::Small);
    let buf = space.allocate("data", 1 << 20).expect("fresh space");
    let mut tbs = Vec::new();
    for tb_spec in spec {
        let mut tb = TbTrace::with_warps(tb_spec.len());
        for (w, warp_spec) in tb_spec.iter().enumerate() {
            let warp = tb.warp_mut(w);
            for &(kind, payload) in warp_spec {
                let offset = payload % ((1 << 20) - 64 * 128);
                match kind {
                    0 => warp.push(WarpOp::Compute {
                        cycles: (payload % 50 + 1) as u32,
                    }),
                    1 => warp.push(WarpOp::Load(LaneAccesses::contiguous(
                        buf.addr_of(offset),
                        4,
                        32,
                    ))),
                    _ => warp.push(WarpOp::Store(LaneAccesses::Strided {
                        base: buf.addr_of(offset),
                        stride: 128,
                        active_lanes: 32,
                    })),
                }
            }
        }
        tbs.push(tb);
    }
    let kernel = KernelTrace {
        name: "random".into(),
        tbs,
        max_concurrent_tbs_per_sm: max_tbs,
        threads_per_tb: 32 * 4,
    };
    Workload::new("random", vec![kernel], space)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every random workload terminates, conserves instructions and TBs,
    /// and produces self-consistent counters.
    #[test]
    fn random_workloads_satisfy_invariants((spec, max_tbs) in arb_workload()) {
        let wl = build(&spec, max_tbs);
        let total_ops = wl.total_warp_ops() as u64;
        let total_tbs = wl.kernels()[0].tbs.len() as u32;
        let r = Simulator::new(GpuConfig::dac23_baseline()).run(wl);
        prop_assert_eq!(r.instructions, total_ops);
        prop_assert_eq!(r.tb_placements.iter().sum::<u32>(), total_tbs);
        prop_assert!(r.total_cycles > 0);
        let l1 = r.l1_tlb_aggregate();
        prop_assert!(l1.accesses() <= r.transactions);
        prop_assert_eq!(r.l2_tlb.accesses(), l1.misses);
        // Walks can never exceed L2 misses, and faults never exceed walks.
        prop_assert!(r.walker.walks <= r.l2_tlb.misses);
        prop_assert!(r.demand_faults <= r.walker.walks);
    }

    /// Zero-op warps, warp-less TBs and every issue width and TB cap run
    /// to completion with the sanitizer on (which cross-checks each SM
    /// step's wake queue against a full warp-table scan), and checking
    /// does not move a single field of the report.
    #[test]
    fn edge_case_workloads_pass_the_sanitizer(
        (spec, issue_width, max_tbs, lrr) in arb_edge_case()
    ) {
        let config = GpuConfig {
            issue_width,
            max_concurrent_tbs: max_tbs,
            ..GpuConfig::dac23_baseline()
        };
        let run = |sanitize: bool| {
            let factory = move || -> Box<dyn WarpScheduler> {
                if lrr {
                    Box::new(LrrWarpScheduler::new())
                } else {
                    Box::new(GtoWarpScheduler::new())
                }
            };
            Simulator::new(config.clone())
                .with_warp_scheduler_factory(Box::new(factory))
                .with_sanitizer(sanitize)
                .run(build(&spec, 16))
        };
        let checked = run(true);
        let plain = run(false);
        let wl = build(&spec, 16);
        prop_assert_eq!(checked.instructions, wl.total_warp_ops() as u64);
        prop_assert_eq!(
            checked.tb_placements.iter().sum::<u32>(),
            wl.kernels()[0].tbs.len() as u32
        );
        prop_assert_eq!(format!("{checked:?}"), format!("{plain:?}"));
    }

    /// Determinism: identical random workloads give identical reports.
    #[test]
    fn random_workloads_are_deterministic((spec, max_tbs) in arb_workload()) {
        let a = Simulator::new(GpuConfig::dac23_baseline()).run(build(&spec, max_tbs));
        let b = Simulator::new(GpuConfig::dac23_baseline()).run(build(&spec, max_tbs));
        prop_assert_eq!(a.total_cycles, b.total_cycles);
        prop_assert_eq!(a.l1_tlb_aggregate(), b.l1_tlb_aggregate());
        prop_assert_eq!(a.transactions, b.transactions);
    }

    /// Monotonicity: raising the walk latency never makes execution
    /// faster (all else fixed).
    #[test]
    fn walk_latency_is_monotone((spec, max_tbs) in arb_workload()) {
        let fast = Simulator::new(GpuConfig {
            walk_latency: 100,
            ..GpuConfig::dac23_baseline()
        })
        .run(build(&spec, max_tbs));
        let slow = Simulator::new(GpuConfig {
            walk_latency: 1000,
            ..GpuConfig::dac23_baseline()
        })
        .run(build(&spec, max_tbs));
        prop_assert!(slow.total_cycles >= fast.total_cycles);
    }
}

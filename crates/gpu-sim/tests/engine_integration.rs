//! Integration tests for the timing engine: hand-built workloads with
//! known answers, plus conservation and policy-behaviour checks.

use gpu_sim::{
    GpuConfig, GtoWarpScheduler, LrrWarpScheduler, RoundRobinScheduler, Simulator, TbScheduler,
    WarpScheduler,
};
use vmem::{AddressSpace, PageSize};
use workloads::{KernelTrace, LaneAccesses, TbTrace, WarpOp, Workload, LANES_PER_WARP};

/// Builds a workload with `tbs` thread blocks, each one warp issuing
/// `ops` contiguous loads over a private region.
fn simple_workload(tbs: usize, ops: usize) -> Workload {
    let mut space = AddressSpace::new(PageSize::Small);
    let buf = space
        .allocate("data", (tbs * ops * 128) as u64)
        .expect("fresh space");
    let mut traces = Vec::with_capacity(tbs);
    for t in 0..tbs {
        let mut tb = TbTrace::with_warps(1);
        let warp = tb.warp_mut(0);
        for o in 0..ops {
            warp.push(WarpOp::Load(LaneAccesses::contiguous(
                buf.addr_of(((t * ops + o) * 128) as u64),
                4,
                LANES_PER_WARP as u8,
            )));
        }
        traces.push(tb);
    }
    let kernel = KernelTrace {
        name: "simple".into(),
        tbs: traces,
        max_concurrent_tbs_per_sm: 16,
        threads_per_tb: 32,
    };
    Workload::new("simple", vec![kernel], space)
}

/// A compute-only workload: total time must be close to the serial sum of
/// compute latencies divided by available parallelism.
#[test]
fn compute_only_workload_time_is_predictable() {
    let mut space = AddressSpace::new(PageSize::Small);
    space.allocate("unused", 4096).unwrap();
    let mut tb = TbTrace::with_warps(1);
    for _ in 0..100 {
        tb.warp_mut(0).push(WarpOp::Compute { cycles: 10 });
    }
    let kernel = KernelTrace {
        name: "compute".into(),
        tbs: vec![tb],
        max_concurrent_tbs_per_sm: 16,
        threads_per_tb: 32,
    };
    let wl = Workload::new("compute", vec![kernel], space);
    let r = Simulator::new(GpuConfig::dac23_baseline()).run(wl);
    // One warp, 100 dependent 10-cycle ops: ~1000 cycles plus small
    // dispatch overhead.
    assert!(r.total_cycles >= 1000, "cycles {}", r.total_cycles);
    assert!(r.total_cycles < 1100, "cycles {}", r.total_cycles);
    assert_eq!(r.instructions, 100);
    assert_eq!(r.transactions, 0);
}

/// Each distinct 128-byte line is one transaction; each distinct page one
/// TLB lookup.
#[test]
fn transaction_and_lookup_accounting() {
    let wl = simple_workload(4, 32); // 4 TBs x 32 line-distinct loads
    let r = Simulator::new(GpuConfig::dac23_baseline()).run(wl);
    assert_eq!(r.instructions, 4 * 32);
    assert_eq!(r.transactions, 4 * 32);
    // 32 lines per TB = 4096 bytes = exactly one page per TB.
    assert_eq!(r.l1_tlb_aggregate().accesses(), 4 * 32);
    assert_eq!(r.demand_faults, 4);
}

/// More TBs than total slots: dispatch must proceed in waves and still
/// complete every TB exactly once.
#[test]
fn dispatch_waves_complete() {
    let config = GpuConfig {
        num_sms: 2,
        max_concurrent_tbs: 2,
        ..GpuConfig::dac23_baseline()
    };
    let wl = simple_workload(64, 8);
    let r = Simulator::new(config).run(wl);
    assert_eq!(r.tb_placements.iter().sum::<u32>(), 64);
    assert_eq!(r.tb_placements.len(), 2);
}

/// A scheduler that refuses to place while SMs are busy must not deadlock
/// the engine (progress is guaranteed once everything drains).
#[test]
fn reluctant_scheduler_cannot_deadlock() {
    #[derive(Debug)]
    struct Reluctant {
        rr: RoundRobinScheduler,
    }
    impl TbScheduler for Reluctant {
        fn pick_sm(&mut self, sms: &[gpu_sim::SmSnapshot]) -> Option<usize> {
            // Only place when every SM is completely idle.
            if sms.iter().any(|s| s.free_slots == 0) {
                return None;
            }
            self.rr.pick_sm(sms)
        }
        fn name(&self) -> &str {
            "reluctant"
        }
    }
    let config = GpuConfig {
        num_sms: 2,
        max_concurrent_tbs: 1,
        ..GpuConfig::dac23_baseline()
    };
    let wl = simple_workload(8, 4);
    let r = Simulator::new(config)
        .with_tb_scheduler(Box::new(Reluctant {
            rr: RoundRobinScheduler::new(),
        }))
        .run(wl);
    assert_eq!(r.tb_placements.iter().sum::<u32>(), 8);
}

/// GTO and LRR are both deterministic and produce valid (if different)
/// executions.
#[test]
fn warp_scheduler_policies_are_deterministic() {
    let run = |factory: fn() -> Box<dyn WarpScheduler>| -> (u64, u64) {
        let wl = simple_workload(32, 16);
        let r = Simulator::new(GpuConfig::dac23_baseline())
            .with_warp_scheduler_factory(Box::new(factory))
            .run(wl);
        (r.total_cycles, r.l1_tlb_aggregate().hits)
    };
    let gto = || Box::new(GtoWarpScheduler::new()) as Box<dyn WarpScheduler>;
    let lrr = || Box::new(LrrWarpScheduler::new()) as Box<dyn WarpScheduler>;
    assert_eq!(run(gto), run(gto));
    assert_eq!(run(lrr), run(lrr));
}

/// A deliberately broken warp policy: always picks the same view index,
/// whether or not that warp is ready (or even exists).
struct FixedPick(usize);

impl WarpScheduler for FixedPick {
    fn pick(&mut self, _: &[gpu_sim::WarpView]) -> Option<usize> {
        Some(self.0)
    }
    fn name(&self) -> &str {
        "fixed-pick"
    }
}

fn run_with_fixed_pick(view: usize) {
    let factory = move || Box::new(FixedPick(view)) as Box<dyn WarpScheduler>;
    Simulator::new(GpuConfig::dac23_baseline())
        .with_warp_scheduler_factory(Box::new(factory))
        .run(simple_workload(1, 4));
}

/// The warp-scheduler contract is enforced: picking a warp that is not
/// ready would issue it early, so it is fatal and names the policy, the
/// cycle and the SM. The single warp issues at cycle 1, then the second
/// issue slot picks it again while its load is in flight.
#[test]
#[should_panic(
    expected = "warp scheduler 'fixed-pick' picked a stalled or out-of-range warp \
                (view 0 of 1) at cycle 1 on sm 0"
)]
fn scheduler_picking_a_stalled_warp_is_fatal() {
    run_with_fixed_pick(0);
}

/// Same contract for an index past the end of the views.
#[test]
#[should_panic(expected = "(view 3 of 1) at cycle 1 on sm 0")]
fn scheduler_picking_out_of_range_is_fatal() {
    run_with_fixed_pick(3);
}

/// L1 TLBs are flushed per kernel launch by default; disabling the flush
/// preserves entries across kernels and can only help hit rates for a
/// workload that re-touches the same pages.
#[test]
fn kernel_launch_flush_toggle() {
    let build = || -> Workload {
        let mut space = AddressSpace::new(PageSize::Small);
        let buf = space.allocate("data", 64 * 4096).expect("fresh space");
        let kernel = |name: &str| -> KernelTrace {
            let mut tb = TbTrace::with_warps(1);
            for p in 0..32 {
                tb.warp_mut(0).push(WarpOp::Load(LaneAccesses::contiguous(
                    buf.addr_of(p * 4096),
                    4,
                    32,
                )));
            }
            KernelTrace {
                name: name.into(),
                tbs: vec![tb],
                max_concurrent_tbs_per_sm: 16,
                threads_per_tb: 32,
            }
        };
        Workload::new("twice", vec![kernel("k1"), kernel("k2")], space)
    };
    let flush = Simulator::new(GpuConfig::dac23_baseline()).run(build());
    let keep = Simulator::new(GpuConfig {
        flush_l1_tlb_on_kernel_launch: false,
        ..GpuConfig::dac23_baseline()
    })
    .run(build());
    assert!(
        keep.l1_tlb_aggregate().hits > flush.l1_tlb_aggregate().hits,
        "warm TLB across kernels must hit more: {} vs {}",
        keep.l1_tlb_aggregate().hits,
        flush.l1_tlb_aggregate().hits
    );
}

/// An L2 TLB with one port serializes miss floods: cycles can only grow
/// relative to unlimited ports.
#[test]
fn l2_tlb_port_contention_costs_time() {
    let run = |ports: usize| -> u64 {
        let wl = simple_workload(64, 64);
        Simulator::new(GpuConfig {
            l2_tlb_ports: ports,
            ..GpuConfig::dac23_baseline()
        })
        .run(wl)
        .total_cycles
    };
    assert!(run(1) >= run(16));
}

/// Holding a port for the full lookup latency (unpipelined L2 TLB) can
/// only add queueing relative to the baseline's fully pipelined ports
/// (occupancy 1, one cycle per granted lookup), and the added wait is
/// attributed to the L2 TLB queue component of the latency breakdown.
#[test]
fn l2_tlb_port_occupancy_costs_queue_time() {
    let run = |occupancy: u64| {
        let wl = simple_workload(64, 64);
        Simulator::new(GpuConfig {
            l2_tlb_port_occupancy: occupancy,
            ..GpuConfig::dac23_baseline()
        })
        .run(wl)
    };
    let pipelined = run(1);
    let unpipelined = run(10); // = the baseline's 10-cycle lookup latency
    assert!(unpipelined.total_cycles >= pipelined.total_cycles);
    assert!(
        unpipelined.latency.l2_tlb_queue_cycles >= pipelined.latency.l2_tlb_queue_cycles,
        "occupancy {} vs {} queue cycles",
        unpipelined.latency.l2_tlb_queue_cycles,
        pipelined.latency.l2_tlb_queue_cycles
    );
    // Identical TLB behavior: occupancy only shifts timing, never which
    // lookups hit.
    assert_eq!(unpipelined.l2_tlb.hits, pipelined.l2_tlb.hits);
    assert_eq!(unpipelined.l2_tlb.misses, pipelined.l2_tlb.misses);
    // Both runs satisfy the stage-sum identity.
    pipelined.latency.check().unwrap();
    unpipelined.latency.check().unwrap();
}

/// Slicing the L2 TLB preserves correctness (same hits/misses cannot be
/// guaranteed, but conservation holds and more slices with the same
/// total entries never changes the access count).
#[test]
fn sliced_l2_tlb_conserves_accesses() {
    let run = |slices: usize| {
        let wl = simple_workload(32, 32);
        Simulator::new(GpuConfig {
            l2_tlb_slices: slices,
            ..GpuConfig::dac23_baseline()
        })
        .run(wl)
    };
    let mono = run(1);
    let sliced = run(8);
    assert_eq!(
        mono.l2_tlb.accesses() + mono.l1_tlb_aggregate().hits,
        sliced.l2_tlb.accesses() + sliced.l1_tlb_aggregate().hits,
    );
    assert_eq!(mono.tb_placements, sliced.tb_placements);
}

/// Per-level walk latency makes huge-page walks (3 levels) cheaper than
/// small-page walks (4 levels).
#[test]
fn per_level_walk_latency_rewards_huge_pages() {
    use vmem::PageSize as Ps;
    let run = |ps: Ps| -> u64 {
        let mut space = AddressSpace::new(ps);
        let buf = space.allocate("d", 1 << 22).expect("fresh");
        let mut tb = TbTrace::with_warps(1);
        for p in 0..64u64 {
            tb.warp_mut(0).push(WarpOp::Load(LaneAccesses::contiguous(
                buf.addr_of(p * 4096),
                4,
                32,
            )));
        }
        let kernel = KernelTrace {
            name: "walks".into(),
            tbs: vec![tb],
            max_concurrent_tbs_per_sm: 16,
            threads_per_tb: 32,
        };
        Simulator::new(GpuConfig {
            walk_latency: 100,
            walk_latency_per_level: 100,
            ..GpuConfig::dac23_baseline()
        })
        .run(Workload::new("walks", vec![kernel], space))
        .total_cycles
    };
    assert!(
        run(Ps::Large) < run(Ps::Small),
        "3-level huge-page walks must be cheaper"
    );
}

/// Zero-memory workloads still terminate and report sensible stats.
#[test]
fn empty_and_degenerate_workloads() {
    let mut space = AddressSpace::new(PageSize::Small);
    space.allocate("x", 16).unwrap();
    // A kernel whose single TB has zero warps.
    let kernel = KernelTrace {
        name: "empty".into(),
        tbs: vec![TbTrace::with_warps(0)],
        max_concurrent_tbs_per_sm: 16,
        threads_per_tb: 32,
    };
    let wl = Workload::new("empty", vec![kernel], space);
    let r = Simulator::new(GpuConfig::dac23_baseline()).run(wl);
    assert_eq!(r.instructions, 0);
    assert_eq!(r.tb_placements.iter().sum::<u32>(), 1);
}

/// The benchmark harness still calls `with_sim_threads`, sets the shard
/// knobs and reads `sharded_rounds`: the knobs must not move a byte of a
/// solo or a co-run report, and the counter stays zero: the engine has
/// no sharded drain. The knobs ask for a shard on every round and the
/// sanitizer is off, so nothing else keeps the counter at zero.
#[test]
fn retained_thread_knob_is_inert_and_sharded_rounds_stay_zero() {
    let config = GpuConfig {
        shard_threshold: 1,
        shard_lane_overhead: 0,
        ..GpuConfig::dac23_baseline()
    };
    let app = |name: &str| {
        workloads::registry()
            .into_iter()
            .find(|s| s.name == name)
            .expect("benchmark in the registry")
            .generate(workloads::Scale::Test, 42)
    };
    let run = |threads: usize| {
        let mut sim = Simulator::new(config.clone())
            .with_sim_threads(threads)
            .with_sanitizer(false);
        let solo = sim.run(app("bfs"));
        let corun = sim.run_corun(vec![app("gemm"), app("bfs")]);
        (solo, corun)
    };
    let (solo, corun) = run(1);
    assert_eq!(solo.sharded_rounds, 0, "bfs solo");
    assert_eq!(corun.sharded_rounds, 0, "gemm+bfs co-run");
    for threads in [2, 4] {
        let (s, c) = run(threads);
        assert_eq!(s.to_csv_row(), solo.to_csv_row(), "bfs solo at {threads}");
        assert_eq!(c.to_csv_row(), corun.to_csv_row(), "co-run at {threads}");
    }
}

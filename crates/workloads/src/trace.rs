//! The trace model: workloads → kernels → thread blocks → warps → ops.
//!
//! Traces are *warp-level*: each [`WarpOp`] is one dynamic warp
//! instruction. Memory instructions carry per-lane addresses in compact
//! form ([`LaneAccesses`]), which the GPU simulator's coalescing unit
//! expands into 128-byte line transactions exactly as the hardware
//! coalescer in Figure 1 of the paper does.

use std::sync::{Arc, OnceLock};

use vmem::{AddressSpace, VirtAddr};

/// Threads per warp (Table III: 32 threads/warp).
pub const LANES_PER_WARP: usize = 32;

/// Per-lane addresses of one warp memory instruction, in compact form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaneAccesses {
    /// Lane `i` accesses `base + i * stride` for `i < active_lanes`.
    /// `stride == 0` models a broadcast (all lanes read one address).
    Strided {
        /// Address accessed by lane 0.
        base: VirtAddr,
        /// Byte distance between consecutive lanes' addresses.
        stride: i64,
        /// Number of participating lanes (1..=32).
        active_lanes: u8,
    },
    /// Arbitrary per-lane addresses (irregular gather/scatter); inactive
    /// lanes are simply absent.
    Gather(Vec<VirtAddr>),
}

impl LaneAccesses {
    /// A unit-stride access over `active_lanes` elements of `elem_bytes`.
    pub fn contiguous(base: VirtAddr, elem_bytes: u32, active_lanes: u8) -> Self {
        LaneAccesses::Strided {
            base,
            stride: elem_bytes as i64,
            active_lanes,
        }
    }

    /// A broadcast: every lane reads the same address.
    pub fn broadcast(addr: VirtAddr) -> Self {
        LaneAccesses::Strided {
            base: addr,
            stride: 0,
            active_lanes: LANES_PER_WARP as u8,
        }
    }

    /// Number of participating lanes.
    pub fn lane_count(&self) -> usize {
        match self {
            LaneAccesses::Strided { active_lanes, .. } => *active_lanes as usize,
            LaneAccesses::Gather(addrs) => addrs.len(),
        }
    }

    /// Iterates over the per-lane addresses.
    pub fn addresses(&self) -> LaneAddrIter<'_> {
        LaneAddrIter { acc: self, next: 0 }
    }

    /// Splits an arbitrary address list into warp-sized gather ops.
    pub fn gather_chunks(addrs: &[VirtAddr]) -> Vec<LaneAccesses> {
        addrs
            .chunks(LANES_PER_WARP)
            .map(|c| LaneAccesses::Gather(c.to_vec()))
            .collect()
    }
}

/// Iterator over the per-lane addresses of a [`LaneAccesses`].
#[derive(Debug)]
pub struct LaneAddrIter<'a> {
    acc: &'a LaneAccesses,
    next: usize,
}

impl Iterator for LaneAddrIter<'_> {
    type Item = VirtAddr;

    fn next(&mut self) -> Option<VirtAddr> {
        match self.acc {
            LaneAccesses::Strided {
                base,
                stride,
                active_lanes,
            } => {
                if self.next >= *active_lanes as usize {
                    return None;
                }
                let addr = VirtAddr::new((base.raw() as i64 + self.next as i64 * stride) as u64);
                self.next += 1;
                Some(addr)
            }
            LaneAccesses::Gather(addrs) => {
                let a = addrs.get(self.next).copied();
                self.next += 1;
                a
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.acc.lane_count().saturating_sub(self.next);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for LaneAddrIter<'_> {}

/// One dynamic warp instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WarpOp {
    /// A warp-wide load.
    Load(LaneAccesses),
    /// A warp-wide store.
    Store(LaneAccesses),
    /// `cycles` of non-memory work before the next op can issue.
    Compute {
        /// Execution latency in SM cycles.
        cycles: u32,
    },
}

impl WarpOp {
    /// The memory accesses of this op, if it is a memory op.
    pub fn accesses(&self) -> Option<&LaneAccesses> {
        match self {
            WarpOp::Load(a) | WarpOp::Store(a) => Some(a),
            WarpOp::Compute { .. } => None,
        }
    }

    /// Whether this op writes memory.
    pub fn is_store(&self) -> bool {
        matches!(self, WarpOp::Store(_))
    }
}

/// The ordered op stream of one warp.
///
/// Ops live behind an [`Arc`], so cloning a built trace (e.g. when a
/// workload is shared between experiment-grid cells, or when the engine
/// instantiates a resident warp) shares the storage instead of copying
/// it. Building mutates through [`Arc::make_mut`], which is free while
/// the trace is unshared.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WarpTrace {
    ops: Arc<Vec<WarpOp>>,
}

impl WarpTrace {
    /// Creates an empty warp trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an op.
    pub fn push(&mut self, op: WarpOp) {
        Arc::make_mut(&mut self.ops).push(op);
    }

    /// The op stream.
    pub fn ops(&self) -> &[WarpOp] {
        &self.ops
    }

    /// The op stream's shared storage (an `Arc` clone, no copy).
    pub fn shared_ops(&self) -> Arc<Vec<WarpOp>> {
        Arc::clone(&self.ops)
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The trace of one thread block: its warps' op streams.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TbTrace {
    warps: Vec<WarpTrace>,
}

impl TbTrace {
    /// Creates a TB trace with `warps` empty warps.
    pub fn with_warps(warps: usize) -> Self {
        TbTrace {
            warps: vec![WarpTrace::new(); warps],
        }
    }

    /// Creates a TB trace from explicit warp traces.
    pub fn from_warps(warps: Vec<WarpTrace>) -> Self {
        TbTrace { warps }
    }

    /// Mutable access to warp `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn warp_mut(&mut self, w: usize) -> &mut WarpTrace {
        &mut self.warps[w]
    }

    /// The warps of this TB.
    pub fn warps(&self) -> &[WarpTrace] {
        &self.warps
    }

    /// Total ops across all warps.
    pub fn total_ops(&self) -> usize {
        self.warps.iter().map(WarpTrace::len).sum()
    }

    /// Iterates over every virtual address the TB touches, in warp-major
    /// program order (used by the characterization in `analysis`).
    pub fn all_addresses(&self) -> impl Iterator<Item = VirtAddr> + '_ {
        self.warps.iter().flat_map(|w| {
            w.ops()
                .iter()
                .filter_map(WarpOp::accesses)
                .flat_map(LaneAccesses::addresses)
        })
    }
}

/// One GPU kernel launch: a grid of thread blocks.
#[derive(Clone, Debug, Default)]
pub struct KernelTrace {
    /// Kernel name (e.g. `"gemm_tile"`).
    pub name: String,
    /// Per-TB traces in grid order (the TB scheduler dispatches them in
    /// this order).
    pub tbs: Vec<TbTrace>,
    /// Maximum TBs that fit concurrently on one SM, as determined at
    /// compile time from register/thread/shared-memory usage (paper §IV-B;
    /// capped at 16 by the Kepler hardware limit the paper cites).
    pub max_concurrent_tbs_per_sm: u8,
    /// Threads per TB (for occupancy accounting).
    pub threads_per_tb: u32,
}

impl KernelTrace {
    /// Total warp ops in the kernel.
    pub fn total_ops(&self) -> usize {
        self.tbs.iter().map(TbTrace::total_ops).sum()
    }
}

/// Aggregate shape statistics of a workload's trace (printed by the
/// `repro --table2` report and useful when designing new generators).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Warp-level load instructions.
    pub loads: u64,
    /// Warp-level store instructions.
    pub stores: u64,
    /// Compute instructions.
    pub compute_ops: u64,
    /// Total compute latency cycles.
    pub compute_cycles: u64,
    /// Memory instructions using irregular per-lane gathers.
    pub gather_ops: u64,
    /// Memory instructions using strided/broadcast lane patterns.
    pub strided_ops: u64,
    /// Total participating lanes across memory instructions.
    pub lane_accesses: u64,
}

impl TraceSummary {
    /// Total warp instructions.
    pub fn total_ops(&self) -> u64 {
        self.loads + self.stores + self.compute_ops
    }

    /// Fraction of memory instructions that are irregular gathers.
    pub fn gather_fraction(&self) -> f64 {
        let mem = self.gather_ops + self.strided_ops;
        if mem == 0 {
            0.0
        } else {
            self.gather_ops as f64 / mem as f64
        }
    }
}

/// A complete benchmark: kernels plus the UVM address space their
/// addresses live in.
///
/// Kernels sit behind an [`Arc`], so `clone()` shares the (large) trace
/// storage and deep-copies only the address space — which is cheap while
/// the workload is pristine (nothing demand-paged yet). This is what
/// makes a shared workload cache viable: each simulation run gets its own
/// page table to mutate while every run reads the same trace.
#[derive(Clone, Debug)]
pub struct Workload {
    name: String,
    kernels: Arc<Vec<KernelTrace>>,
    space: AddressSpace,
    /// Cached [`TraceSummary`], computed at most once per trace storage
    /// (clones share it, like the kernels). A trace read back from a
    /// `trace/v1` file is primed from the footer, so `summary()` never
    /// pays the full-decode pass.
    summary: Arc<OnceLock<TraceSummary>>,
}

impl Workload {
    /// Assembles a workload.
    pub fn new(name: impl Into<String>, kernels: Vec<KernelTrace>, space: AddressSpace) -> Self {
        Workload {
            name: name.into(),
            kernels: Arc::new(kernels),
            space,
            summary: Arc::new(OnceLock::new()),
        }
    }

    /// The benchmark name from Table II (`"bfs"`, `"gemm"`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernel launch sequence.
    pub fn kernels(&self) -> &[KernelTrace] {
        &self.kernels
    }

    /// The UVM address space backing the trace's addresses.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Splits the workload into kernels and space (for the simulator).
    /// The kernels keep their shared storage; a cached workload hands the
    /// engine an `Arc` clone, not a trace copy.
    pub fn into_parts(self) -> (String, Arc<Vec<KernelTrace>>, AddressSpace) {
        (self.name, self.kernels, self.space)
    }

    /// Total warp ops across kernels.
    pub fn total_warp_ops(&self) -> usize {
        self.kernels.iter().map(KernelTrace::total_ops).sum()
    }

    /// Total bytes allocated in the address space.
    pub fn footprint_bytes(&self) -> u64 {
        self.space.stats().allocated_bytes
    }

    /// Checks the structural invariants the simulator relies on: every
    /// memory address falls inside an allocated buffer, lane counts stay
    /// within the warp width, and kernels declare sane occupancy hints.
    ///
    /// Generators in this crate always produce valid workloads; call this
    /// when assembling workloads by hand (the simulator will panic on an
    /// unmapped address otherwise).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        for (k, kernel) in self.kernels.iter().enumerate() {
            if kernel.max_concurrent_tbs_per_sm == 0 {
                return Err(format!("kernel {k} ({}): zero TB concurrency", kernel.name));
            }
            for (t, tb) in kernel.tbs.iter().enumerate() {
                for (w, warp) in tb.warps().iter().enumerate() {
                    for (o, op) in warp.ops().iter().enumerate() {
                        if let Some(acc) = op.accesses() {
                            let lanes = acc.lane_count();
                            if lanes == 0 || lanes > LANES_PER_WARP {
                                return Err(format!(
                                    "kernel {k} tb {t} warp {w} op {o}: {lanes} lanes"
                                ));
                            }
                            for va in acc.addresses() {
                                if !self.space.is_covered(va) {
                                    return Err(format!(
                                        "kernel {k} ({}) tb {t} warp {w} op {o}: address                                          {va} outside every buffer",
                                        kernel.name
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Aggregate shape statistics of the trace. Computed on first use
    /// (one O(ops) pass) and cached; clones of this workload share the
    /// cache along with the trace storage.
    pub fn summary(&self) -> TraceSummary {
        *self.summary.get_or_init(|| self.compute_summary())
    }

    /// Seeds the summary cache with an externally computed value (the
    /// `trace/v1` reader primes it from the file footer). A no-op if the
    /// summary was already computed.
    pub fn prime_summary(&self, summary: TraceSummary) {
        let _ = self.summary.set(summary);
    }

    fn compute_summary(&self) -> TraceSummary {
        let mut s = TraceSummary::default();
        for kernel in self.kernels.iter() {
            for tb in &kernel.tbs {
                for warp in tb.warps() {
                    for op in warp.ops() {
                        match op {
                            WarpOp::Compute { cycles } => {
                                s.compute_ops += 1;
                                s.compute_cycles += *cycles as u64;
                            }
                            WarpOp::Load(acc) | WarpOp::Store(acc) => {
                                if op.is_store() {
                                    s.stores += 1;
                                } else {
                                    s.loads += 1;
                                }
                                s.lane_accesses += acc.lane_count() as u64;
                                match acc {
                                    LaneAccesses::Gather(_) => s.gather_ops += 1,
                                    LaneAccesses::Strided { .. } => s.strided_ops += 1,
                                }
                            }
                        }
                    }
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmem::PageSize;

    #[test]
    fn strided_addresses() {
        let a = LaneAccesses::Strided {
            base: VirtAddr::new(0x1000),
            stride: 4,
            active_lanes: 4,
        };
        let addrs: Vec<u64> = a.addresses().map(|v| v.raw()).collect();
        assert_eq!(addrs, vec![0x1000, 0x1004, 0x1008, 0x100c]);
        assert_eq!(a.lane_count(), 4);
        assert_eq!(a.addresses().len(), 4);
    }

    #[test]
    fn negative_stride_walks_backwards() {
        let a = LaneAccesses::Strided {
            base: VirtAddr::new(0x1000),
            stride: -8,
            active_lanes: 3,
        };
        let addrs: Vec<u64> = a.addresses().map(|v| v.raw()).collect();
        assert_eq!(addrs, vec![0x1000, 0xff8, 0xff0]);
    }

    #[test]
    fn broadcast_is_single_address() {
        let a = LaneAccesses::broadcast(VirtAddr::new(0x42));
        let addrs: Vec<u64> = a.addresses().map(|v| v.raw()).collect();
        assert_eq!(addrs.len(), LANES_PER_WARP);
        assert!(addrs.iter().all(|&x| x == 0x42));
    }

    #[test]
    fn gather_chunks_splits_at_warp_width() {
        let addrs: Vec<VirtAddr> = (0..70).map(|i| VirtAddr::new(i * 100)).collect();
        let chunks = LaneAccesses::gather_chunks(&addrs);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].lane_count(), 32);
        assert_eq!(chunks[2].lane_count(), 6);
    }

    #[test]
    fn contiguous_helper() {
        let a = LaneAccesses::contiguous(VirtAddr::new(0), 4, 32);
        let last = a.addresses().last().unwrap();
        assert_eq!(last.raw(), 31 * 4);
    }

    #[test]
    fn warp_op_accessors() {
        let load = WarpOp::Load(LaneAccesses::broadcast(VirtAddr::new(1)));
        let store = WarpOp::Store(LaneAccesses::broadcast(VirtAddr::new(2)));
        let compute = WarpOp::Compute { cycles: 10 };
        assert!(load.accesses().is_some());
        assert!(!load.is_store());
        assert!(store.is_store());
        assert!(compute.accesses().is_none());
    }

    #[test]
    fn tb_trace_aggregates() {
        let mut tb = TbTrace::with_warps(2);
        tb.warp_mut(0)
            .push(WarpOp::Load(LaneAccesses::broadcast(VirtAddr::new(0x1000))));
        tb.warp_mut(1).push(WarpOp::Compute { cycles: 5 });
        tb.warp_mut(1).push(WarpOp::Store(LaneAccesses::contiguous(
            VirtAddr::new(0x2000),
            4,
            2,
        )));
        assert_eq!(tb.total_ops(), 3);
        // 32 broadcast lanes + 2 store lanes.
        assert_eq!(tb.all_addresses().count(), 34);
    }

    #[test]
    fn summary_counts_ops_by_kind() {
        let mut space = AddressSpace::new(PageSize::Small);
        let b = space.allocate("x", 4096).unwrap();
        let mut tb = TbTrace::with_warps(1);
        tb.warp_mut(0)
            .push(WarpOp::Load(LaneAccesses::contiguous(b.addr_of(0), 4, 8)));
        tb.warp_mut(0).push(WarpOp::Store(LaneAccesses::Gather(vec![
            b.addr_of(0),
            b.addr_of(4),
        ])));
        tb.warp_mut(0).push(WarpOp::Compute { cycles: 7 });
        let kernel = KernelTrace {
            name: "k".into(),
            tbs: vec![tb],
            max_concurrent_tbs_per_sm: 16,
            threads_per_tb: 32,
        };
        let wl = Workload::new("demo", vec![kernel], space);
        let s = wl.summary();
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.compute_ops, 1);
        assert_eq!(s.compute_cycles, 7);
        assert_eq!(s.gather_ops, 1);
        assert_eq!(s.strided_ops, 1);
        assert_eq!(s.lane_accesses, 10);
        assert_eq!(s.total_ops(), 3);
        assert!((s.gather_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(TraceSummary::default().gather_fraction(), 0.0);
    }

    #[test]
    fn validate_catches_out_of_buffer_addresses() {
        let mut space = AddressSpace::new(PageSize::Small);
        let b = space.allocate("x", 4096).unwrap();
        let mut tb = TbTrace::with_warps(1);
        // Strided op runs past the buffer into the guard page.
        tb.warp_mut(0).push(WarpOp::Load(LaneAccesses::Strided {
            base: b.addr_of(0),
            stride: 4096,
            active_lanes: 2,
        }));
        let kernel = KernelTrace {
            name: "bad".into(),
            tbs: vec![tb],
            max_concurrent_tbs_per_sm: 16,
            threads_per_tb: 32,
        };
        let wl = Workload::new("bad", vec![kernel], space);
        let err = wl.validate().unwrap_err();
        assert!(err.contains("outside every buffer"), "{err}");
    }

    #[test]
    fn validate_accepts_good_workloads() {
        let mut space = AddressSpace::new(PageSize::Small);
        let b = space.allocate("x", 4096).unwrap();
        let mut tb = TbTrace::with_warps(1);
        tb.warp_mut(0)
            .push(WarpOp::Load(LaneAccesses::contiguous(b.addr_of(0), 4, 32)));
        let kernel = KernelTrace {
            name: "ok".into(),
            tbs: vec![tb],
            max_concurrent_tbs_per_sm: 16,
            threads_per_tb: 32,
        };
        assert!(Workload::new("ok", vec![kernel], space).validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_concurrency() {
        let mut space = AddressSpace::new(PageSize::Small);
        space.allocate("x", 16).unwrap();
        let kernel = KernelTrace {
            name: "zero".into(),
            tbs: vec![],
            max_concurrent_tbs_per_sm: 0,
            threads_per_tb: 32,
        };
        let wl = Workload::new("zero", vec![kernel], space);
        assert!(wl.validate().is_err());
    }

    #[test]
    fn workload_assembly() {
        let mut space = AddressSpace::new(PageSize::Small);
        space.allocate("x", 4096).unwrap();
        let kernel = KernelTrace {
            name: "k".into(),
            tbs: vec![TbTrace::with_warps(1)],
            max_concurrent_tbs_per_sm: 16,
            threads_per_tb: 32,
        };
        let wl = Workload::new("demo", vec![kernel], space);
        assert_eq!(wl.name(), "demo");
        assert_eq!(wl.kernels().len(), 1);
        assert_eq!(wl.total_warp_ops(), 0);
        assert_eq!(wl.footprint_bytes(), 4096);
    }
}

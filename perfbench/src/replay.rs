//! Host cost per call of the mem-hier façade, measured by replaying a
//! workload's coalesced accesses through `HierarchyBuilder` →
//! `Hierarchy::translate`/`data_access`, timed per call and bucketed by
//! the level that resolved the translation.
//!
//! This is the one layer measured by a benchmark-driven replay rather
//! than inside the engine run: read it as host cost per call, not as a
//! share of engine time. The replay issues one warp op at a time (each
//! op starts when the previous one's data has returned), so shared
//! queues stay short and every call pays uncontended structure cost.

use gpu_sim::{coalesce_into, GpuConfig};
use mem_hier::{Access, Hierarchy, HierarchyBuilder, HitLevel};
use orchestrated_tlb::Mechanism;
use vmem::{Asid, PhysAddr, Ppn, Vpn};
use workloads::{TbTrace, Workload};

use crate::clock::Stopwatch;
use crate::decor::{l1_tlb, mechanism_config};

/// Translations replayed per workload. A fixed prefix bounds the pass
/// (about a second) on the largest inputs.
pub const MAX_TRANSLATIONS: u64 = 1 << 20;

/// Calls and host time per translation level and on the data path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayCost {
    /// Translation calls resolved by the L1 TLB, the L2 TLB and a walk.
    pub translate_calls: [u64; 3],
    /// Host ns spent in those calls.
    pub translate_ns: [u64; 3],
    /// `data_access` calls.
    pub data_calls: u64,
    /// Host ns spent in `data_access`.
    pub data_ns: u64,
}

impl ReplayCost {
    /// Index of `level` in the per-level arrays.
    pub fn slot(level: HitLevel) -> usize {
        match level {
            HitLevel::L1Tlb => 0,
            HitLevel::L2Tlb => 1,
            HitLevel::Walk => 2,
        }
    }

    /// Mean host ns per translation resolved at `level` (0 when none).
    pub fn translate_ns_per_call(&self, level: HitLevel) -> f64 {
        let i = Self::slot(level);
        ratio(self.translate_ns[i], self.translate_calls[i])
    }

    /// Mean host ns per data access (0 when none).
    pub fn data_ns_per_call(&self) -> f64 {
        ratio(self.data_ns, self.data_calls)
    }

    /// Translations replayed.
    pub fn translations(&self) -> u64 {
        self.translate_calls.iter().sum()
    }

    /// Share of translations that needed a page-table walk.
    pub fn walk_share(&self) -> f64 {
        ratio(self.translate_calls[2], self.translations())
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Replays `apps` (app `k` under ASID `k`, TBs app-interleaved
/// round-robin and placed round-robin over SMs) through a hierarchy
/// built for `mechanism`, up to [`MAX_TRANSLATIONS`] translations.
pub fn replay(apps: &[Workload], mechanism: Mechanism, config: &GpuConfig) -> ReplayCost {
    let config = mechanism_config(mechanism, config.clone());
    let num_sms = config.num_sms;
    let line_bytes = config.l1_cache.line_bytes as u64;
    let page_size = apps
        .first()
        .map(|w| w.space().page_size())
        .unwrap_or_default();
    let spaces = apps.iter().map(|w| w.space().clone()).collect();
    let l1 = (0..num_sms)
        .map(|_| l1_tlb(mechanism, config.l1_tlb))
        .collect();
    let (fronts, back) = HierarchyBuilder::new(config.hierarchy()).build_split_multi(spaces, l1);
    let mut h = Hierarchy::from_split(fronts, back);

    let mut streams: Vec<_> = apps
        .iter()
        .map(|w| {
            w.kernels().iter().flat_map(|k| {
                k.tbs
                    .iter()
                    .map(move |tb| (k.max_concurrent_tbs_per_sm, tb))
            })
        })
        .collect();
    let mut cost = ReplayCost::default();
    let mut replayer = Replayer {
        lines: Vec::new(),
        pages: Vec::new(),
        clock: 0,
        line_bytes,
        page_size,
    };
    let mut concurrency = 0u8;
    let mut placed = 0usize;
    while cost.translations() < MAX_TRANSLATIONS {
        let mut any = false;
        for (k, stream) in streams.iter_mut().enumerate() {
            let Some((max_tbs, tb)) = stream.next() else {
                continue;
            };
            any = true;
            if max_tbs != concurrency {
                concurrency = max_tbs;
                for front in h.fronts_mut() {
                    front.tlb_mut().set_concurrent_tbs(max_tbs);
                }
            }
            let sm = placed % num_sms;
            let slot = u8::try_from((placed / num_sms) % usize::from(max_tbs.max(1)))
                .expect("slot is below a u8 concurrency");
            placed += 1;
            let asid = Asid::new(u16::try_from(k).expect("at most 8 co-running apps"));
            replayer.tb(&mut h, &mut cost, tb, sm, slot, asid);
            h.fronts_mut()[sm].tlb_mut().on_tb_finish(asid, slot);
        }
        if !any {
            break;
        }
    }
    cost
}

/// Scratch state of one replay.
struct Replayer {
    lines: Vec<vmem::VirtAddr>,
    pages: Vec<(Vpn, Ppn, u64)>,
    clock: u64,
    line_bytes: u64,
    page_size: vmem::PageSize,
}

impl Replayer {
    /// Replays one TB warp by warp, translating each distinct page of an
    /// op once (as the engine's per-instruction TLB coalescing does).
    fn tb(
        &mut self,
        h: &mut Hierarchy,
        cost: &mut ReplayCost,
        tb: &TbTrace,
        sm: usize,
        tb_slot: u8,
        asid: Asid,
    ) {
        for warp in tb.warps() {
            for op in warp.ops() {
                let Some(acc) = op.accesses() else {
                    continue;
                };
                coalesce_into(acc, self.line_bytes, &mut self.lines);
                self.pages.clear();
                let mut done = self.clock + 1;
                for &line in &self.lines {
                    let vpn = line.vpn(self.page_size);
                    let (ppn, ready_at) = match self.pages.iter().find(|p| p.0 == vpn) {
                        Some(&(_, ppn, ready_at)) => (ppn, ready_at),
                        None => {
                            let access = Access {
                                at: self.clock,
                                sm,
                                asid,
                                tb_slot,
                                va: line,
                                vpn,
                                page_size: self.page_size,
                            };
                            let t = Stopwatch::start();
                            let tr = h.translate(&access);
                            let ns = t.nanos();
                            let i = ReplayCost::slot(tr.level);
                            cost.translate_calls[i] += 1;
                            cost.translate_ns[i] += ns;
                            self.pages.push((vpn, tr.ppn, tr.ready_at));
                            (tr.ppn, tr.ready_at)
                        }
                    };
                    let pa =
                        PhysAddr::from_parts(ppn, line.page_offset(self.page_size), self.page_size);
                    let t = Stopwatch::start();
                    let finished = h.data_access(ready_at, sm, pa, op.is_store());
                    cost.data_ns += t.nanos();
                    cost.data_calls += 1;
                    done = done.max(finished);
                }
                self.clock = done;
            }
        }
    }
}

//! The L1 translation-miss path allocates nothing in the steady state:
//! once every app has touched the TLB, a lookup that misses and the fill
//! that follows it (eviction and spill included) run without a heap
//! allocation, under every sharing policy, with and without compression,
//! and with TBs aliasing onto sets. `SubEntryTlb` evictions, which
//! discard every sub-entry of a shared tag, are held to the same rule.
//!
//! A counting global allocator records allocations made by the test's
//! own thread while counting is switched on. The file holds a single
//! test so no other test shares the allocator.

use orchestrated_tlb::{PartitionedTlb, PartitionedTlbConfig, SharingPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use tlb::{CompressionConfig, SubEntryTlb, TlbConfig, TlbRequest, TranslationBuffer};
use vmem::{Asid, Ppn, Vpn};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Three apps taking turns (256 requests each) streaming fresh pages
/// through the even ones of `tbs` TB slots: every lookup misses and is
/// filled, own sets overflow, and victims spill into the idle odd slots'
/// sets.
fn miss_fill(tlb: &mut dyn TranslationBuffer, tbs: u8, first_page: u64, ops: u64) {
    for i in 0..ops {
        let tb = (i % u64::from(tbs)) & !1;
        let req = TlbRequest::new(Vpn::new(first_page + i * 3), tb as u8)
            .with_asid(Asid::new((i / 256 % 3) as u16));
        if !tlb.lookup(&req).hit {
            tlb.insert(&req, Ppn::new(i));
        }
    }
}

#[test]
fn translation_miss_path_does_not_allocate() {
    let policies = [
        SharingPolicy::None,
        SharingPolicy::Adjacent,
        SharingPolicy::AdjacentCounter { threshold: 2 },
        SharingPolicy::AllToAll,
    ];
    for sharing in policies {
        for compression in [None, Some(CompressionConfig::pact20())] {
            // 16 TBs: one set each; 32 TBs: two TBs alias onto each set.
            for tbs in [16u8, 32] {
                let mut tlb = PartitionedTlb::new(PartitionedTlbConfig {
                    sharing,
                    compression,
                    ..PartitionedTlbConfig::with_sharing()
                });
                tlb.set_concurrent_tbs(tbs);
                miss_fill(&mut tlb, tbs, 0, 4_000);
                let n = allocations(|| miss_fill(&mut tlb, tbs, 1 << 30, 4_000));
                assert_eq!(n, 0, "{sharing:?} {compression:?} {tbs} TBs");
                if sharing != SharingPolicy::None {
                    assert!(tlb.spills() > 0, "{sharing:?}: the stream spills");
                }
            }
        }
    }

    let mut sub = SubEntryTlb::new(TlbConfig::dac23_l1(), 4);
    // Three apps sharing every tag, so each eviction drops three
    // sub-entries.
    let shared_tags = |sub: &mut SubEntryTlb, first_page: u64| {
        for page in first_page..first_page + 2_000 {
            for asid in 0..3u16 {
                let req = TlbRequest::new(Vpn::new(page), 0).with_asid(Asid::new(asid));
                if !sub.lookup(&req).hit {
                    sub.insert(&req, Ppn::new(page));
                }
            }
        }
    };
    shared_tags(&mut sub, 0);
    let evictions = sub.stats().evictions;
    let n = allocations(|| shared_tags(&mut sub, 1 << 30));
    assert_eq!(n, 0, "SubEntryTlb eviction allocated");
    assert!(sub.stats().evictions >= evictions + 3 * 2_000 - 3 * 64);
}

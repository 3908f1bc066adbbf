//! Raw TLB lookup throughput: how fast `TranslationBuffer::lookup`
//! itself runs, per organization, under the three access mixes the
//! engine actually produces. This isolates the serial hot path the
//! lookup memo (`tlb::Memo`) targets — no engine, no memory hierarchy,
//! just the lookup loop — so a regression here is a lookup regression,
//! not a scheduling artifact. The memo remembers the last hitting way
//! per set in `set_assoc` and `compressed`, and per TB slot in
//! `partitioned`; `partitioned` also remembers its latest miss, so the
//! fill right after it skips the refresh probe (DESIGN.md §6).
//!
//! Mixes:
//! - `reuse`: long same-page runs per TB slot (warp instructions
//!   re-touching their MRU page line after line) — the memo's home
//!   turf.
//! - `hit`: resident working set cycled page by page — tag-walk hits;
//!   the memo rarely matches because a set's (or slot's) consecutive
//!   lookups differ.
//! - `miss`: a fresh page nearly every lookup, with the miss filled
//!   (lookup + insert), exercising eviction, memo invalidation and the
//!   partitioned miss hint.
//!
//! Four more groups cover the rest of the translation-miss path:
//! - `partitioned_miss_fill`: every lookup misses and is filled in the
//!   partitioned TLB at the paper's 16 concurrent TBs with adjacent
//!   sharing, so set selection, eviction and spilling run on every op.
//! - `walker_submit`: the shared walker pool (Table III's 8 walkers,
//!   500-cycle walks) with about 500 walks live and a third of the
//!   requests arriving out of cycle order, as the shared stage submits
//!   them.
//! - `l2_tlb_fill`: every lookup misses the 16-way shared L2 TLB and is
//!   filled, so each op runs one LRU victim search over 16 ways.
//! - `data_cache_access`: the dac23 L2 data cache (1536 sets x 8 ways,
//!   the multiply-high set split) under a stream whose footprint is
//!   far beyond its capacity, so nearly every access misses and evicts
//!   (`dac23_l2_miss_heavy`); and 16 dac23 L1s (32 sets x 4 ways) in
//!   front of that L2 under a gather-shaped stream that mostly misses
//!   the L1s and mostly hits the L2 (`dac23_l1_l2_gather`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mem_hier::{Cache, CacheConfig};
use orchestrated_tlb::{PartitionedTlb, PartitionedTlbConfig};
use std::time::Duration;
use tlb::{
    CompressedTlb, CompressionConfig, SetAssocTlb, TlbConfig, TlbRequest, TranslationBuffer,
};
use vmem::{Ppn, Vpn, WalkerPool};

/// Lookups per measured iteration (also the criterion throughput unit).
const OPS: usize = 4096;
/// TB slots cycling through the mixes (the engine's Kepler cap is 16;
/// 8 keeps every partitioned group populated without aliasing away).
const SLOTS: u8 = 8;

/// One scripted lookup, with the PPN used to fill on a miss.
struct Op {
    req: TlbRequest,
    fill: Ppn,
}

fn op(vpn: u64, slot: u8) -> Op {
    Op {
        req: TlbRequest::new(Vpn::new(vpn), slot % SLOTS),
        fill: Ppn::new(vpn ^ 0x5_0000),
    }
}

/// `reuse`: runs of 16 consecutive lookups to one page before the slot
/// moves to its next page.
fn reuse_mix() -> Vec<Op> {
    (0..OPS)
        .map(|i| {
            let run = i / 16;
            op(0x100 + (run % 24) as u64, (run % SLOTS as usize) as u8)
        })
        .collect()
}

/// `hit`: each slot cycles a small resident set, never repeating the
/// page it just touched.
fn hit_mix() -> Vec<Op> {
    (0..OPS)
        .map(|i| op(0x100 + (i % 24) as u64, (i % SLOTS as usize) as u8))
        .collect()
}

/// `miss`: a widely-strided page walk that defeats every organization's
/// capacity (fills keep the structures churning).
fn miss_mix() -> Vec<Op> {
    (0..OPS)
        .map(|i| op(0x1000 + (i as u64) * 7, (i % SLOTS as usize) as u8))
        .collect()
}

/// Runs the scripted mix, filling misses, and returns a latency sum the
/// optimizer cannot elide.
fn drive(tlb: &mut dyn TranslationBuffer, ops: &[Op]) -> u64 {
    let mut acc = 0u64;
    for o in ops {
        let out = tlb.lookup(&o.req);
        acc += out.latency + out.hit as u64;
        if !out.hit {
            tlb.insert(&o.req, o.fill);
        }
    }
    acc
}

/// A named constructor for one TLB implementation under test.
type MechanismCtor = (&'static str, Box<dyn Fn() -> Box<dyn TranslationBuffer>>);

fn bench_lookup_throughput(c: &mut Criterion) {
    let mechanisms: Vec<MechanismCtor> = vec![
        (
            "set_assoc",
            Box::new(|| Box::new(SetAssocTlb::new(TlbConfig::dac23_l1()))),
        ),
        (
            "partitioned",
            Box::new(|| Box::new(PartitionedTlb::new(PartitionedTlbConfig::with_sharing()))),
        ),
        (
            "compressed",
            Box::new(|| {
                Box::new(CompressedTlb::new(
                    TlbConfig::dac23_l1(),
                    CompressionConfig::pact20(),
                ))
            }),
        ),
    ];
    let mixes: [(&str, Vec<Op>); 3] = [
        ("reuse", reuse_mix()),
        ("hit", hit_mix()),
        ("miss", miss_mix()),
    ];

    let mut group = c.benchmark_group("lookup_throughput");
    group.throughput(Throughput::Elements(OPS as u64));
    for (mech, build) in &mechanisms {
        for (mix, ops) in &mixes {
            // One persistent TLB per bench: the warm-up iterations fill
            // the resident set, so measured iterations see the steady
            // state of the mix (all-hit for `reuse`/`hit`, churn for
            // `miss`).
            let mut tlb = build();
            tlb.set_concurrent_tbs(SLOTS);
            group.bench_function(&format!("{mech}_{mix}"), |b| {
                b.iter(|| std::hint::black_box(drive(tlb.as_mut(), ops)))
            });
        }
    }
    group.finish();
}

/// Fresh-page lookup + fill at 16 concurrent TBs with adjacent sharing.
/// One persistent TLB; each iteration moves to pages it has never seen,
/// so every lookup misses in the steady state.
fn bench_partitioned_miss_fill(c: &mut Criterion) {
    const TBS: u8 = 16;
    let mut tlb = PartitionedTlb::new(PartitionedTlbConfig::with_sharing());
    tlb.set_concurrent_tbs(TBS);
    let mut base = 0u64;
    let mut group = c.benchmark_group("partitioned_miss_fill");
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_function("adjacent_16tbs", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..OPS as u64 {
                let req = TlbRequest::new(Vpn::new(base + i * 7), (i % u64::from(TBS)) as u8);
                let out = tlb.lookup(&req);
                acc += out.latency + out.hit as u64;
                tlb.insert(&req, Ppn::new(i));
            }
            base += OPS as u64 * 7;
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

/// Walks live in the pool while the `walker_submit` script runs.
const LIVE_WALKS: u64 = 500;

/// `walker_submit` script: a burst of `LIVE_WALKS` walks at cycle 0, then
/// `OPS` submits at 9 per 500 cycles. The 8 walkers serve 8 per 500
/// cycles, and the surplus offsets the requests that coalesce (VPNs
/// repeat occasionally), so the backlog stays near `LIVE_WALKS`. Every
/// third request lags up to 2000 cycles behind the front.
fn walker_script() -> Vec<(u64, Vpn)> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let burst = (0..LIVE_WALKS).map(|i| (0, Vpn::new(1 << 20 | i)));
    let steady = (0..OPS as u64).map(move |i| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let front = i * 500 / 9;
        let lag = if i % 3 == 0 { x % 2000 } else { 0 };
        (front.saturating_sub(lag), Vpn::new(x >> 20 & 0xfff))
    });
    burst.chain(steady).collect()
}

fn bench_walker_submit(c: &mut Criterion) {
    let script = walker_script();
    let mut group = c.benchmark_group("walker_submit");
    group.throughput(Throughput::Elements(script.len() as u64));
    group.bench_function("8_walkers_500_live", |b| {
        b.iter(|| {
            let mut pool = WalkerPool::new(8, 500);
            let acc = script
                .iter()
                .fold(0u64, |acc, &(cycle, vpn)| acc ^ pool.submit(cycle, vpn));
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

/// Fresh-page lookup + fill in the dac23 L2 TLB (512 entries, 16-way).
/// One persistent TLB; each iteration moves to pages it has never seen.
fn bench_l2_tlb_fill(c: &mut Criterion) {
    let mut tlb = SetAssocTlb::new(TlbConfig::dac23_l2());
    let mut base = 0u64;
    let mut group = c.benchmark_group("l2_tlb_fill");
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_function("16_way_miss_insert", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..OPS as u64 {
                let req = TlbRequest::new(Vpn::new(base + i * 3), 0);
                let out = tlb.lookup(&req);
                acc += out.latency + out.hit as u64;
                tlb.insert(&req, Ppn::new(i));
            }
            base += OPS as u64 * 3;
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

/// Accesses of the `data_cache_access` stream: pseudo-random 128-byte
/// lines over 256 MiB (about 170x the cache), a quarter of them stores,
/// so evictions also write dirty lines back.
fn data_cache_script() -> Vec<(u64, bool)> {
    let mut x = 0x3c6e_f372_fe94_f82bu64;
    (0..OPS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 8) % (1 << 28), x & 3 == 0)
        })
        .collect()
}

/// SMs in front of the shared L2 in the `dac23_l1_l2_gather` case.
const GATHER_SMS: usize = 16;
/// Accesses in the gather stream: long enough that its lines recur at
/// reuse distances near the L2's capacity, as a traversal's do.
const GATHER_OPS: usize = 1 << 16;

/// `(sm, pa, write)` accesses of the `dac23_l1_l2_gather` stream. Each
/// SM issues eight lines in a row (one warp instruction's coalesced
/// gather). One line in ten comes from an 8-line region private to the
/// SM, which its L1 mostly keeps; the rest are random lines of a
/// 1.69 MiB table shared by every SM, a little larger than the 1.5 MiB
/// L2. So 91% of the lines miss the L1 and 88% of those hit the L2,
/// between bfs (5% L1 hits, 78% L2 hits) and gemm (10%, 97%) at
/// `--scale large`. One line in 16 is a store.
fn gather_script() -> Vec<(usize, u64, bool)> {
    const TABLE_LINES: u64 = 13_824;
    const HOT_LINES: u64 = 8;
    let mut x = 0x510e_527f_ade6_82d1u64;
    (0..GATHER_OPS)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let sm = i / 8 % GATHER_SMS;
            let line = if x.is_multiple_of(10) {
                (1 << 32) + sm as u64 * HOT_LINES + (x >> 8) % HOT_LINES
            } else {
                (x >> 8) % TABLE_LINES
            };
            (sm, line * 128, x >> 4 & 15 == 0)
        })
        .collect()
}

fn bench_data_cache_access(c: &mut Criterion) {
    let script = data_cache_script();
    let mut cache = Cache::new(CacheConfig::new(1536 * 1024, 8, 128));
    let mut group = c.benchmark_group("data_cache_access");
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_function("dac23_l2_miss_heavy", |b| {
        b.iter(|| {
            let hits = script
                .iter()
                .filter(|&&(pa, write)| cache.access(pa, write))
                .count();
            std::hint::black_box(hits)
        })
    });
    // The L1s in front of the L2 as `Hierarchy::data_access` chains
    // them: an L1 miss goes on to the L2.
    let script = gather_script();
    let mut l1 = vec![Cache::new(CacheConfig::new(16 * 1024, 4, 128)); GATHER_SMS];
    let mut l2 = Cache::new(CacheConfig::new(1536 * 1024, 8, 128));
    group.throughput(Throughput::Elements(GATHER_OPS as u64));
    group.bench_function("dac23_l1_l2_gather", |b| {
        b.iter(|| {
            let hits = script
                .iter()
                .filter(|&&(sm, pa, write)| l1[sm].access(pa, write) || l2.access(pa, write))
                .count();
            std::hint::black_box(hits)
        })
    });
    group.finish();
}

criterion_group! {
    name = lookup_throughput;
    config = Criterion::default()
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_lookup_throughput, bench_partitioned_miss_fill, bench_walker_submit,
        bench_l2_tlb_fill, bench_data_cache_access
}
criterion_main!(lookup_throughput);

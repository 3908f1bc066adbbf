//! Differential test of the data cache's structure-of-arrays layout.
//!
//! `Cache` stores tags, packed recency keys and dirty bits in parallel
//! slices and picks victims with a branch-free minimum over the keys.
//! `AosCache` below is the layout it replaced, kept as the reference:
//! one `Line` struct per way and a `min_by_key` over `(valid, stamp)`
//! tuples, with the address split done by plain division. Both are
//! driven by the same mixed read/write streams with interleaved flushes,
//! which leave invalid ways holding stale stamps for later fills to
//! choose among, and must agree on every hit/miss verdict, the final
//! `CacheStats` and the final occupancy. (Which of several invalid ways
//! a fill takes is not visible in those; `tlb::replace`'s unit tests pin
//! that order.)

use mem_hier::{Cache, CacheConfig, CacheStats};
use proptest::prelude::*;

#[derive(Copy, Clone, Debug, Default)]
struct Line {
    valid: bool,
    tag: u64,
    stamp: u64,
    dirty: bool,
}

/// Reference model: array-of-structs lines, tuple-compare LRU.
struct AosCache {
    config: CacheConfig,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
}

impl AosCache {
    fn new(config: CacheConfig) -> Self {
        AosCache {
            lines: vec![Line::default(); config.lines()],
            config,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, pa: u64, write: bool) -> bool {
        self.clock += 1;
        let line_addr = pa / self.config.line_bytes as u64;
        let sets = self.config.sets() as u64;
        let (set, tag) = ((line_addr % sets) as usize, line_addr / sets);
        let a = self.config.associativity;
        let range = set * a..(set + 1) * a;
        let clock = self.clock;
        for line in &mut self.lines[range.clone()] {
            if line.valid && line.tag == tag {
                line.stamp = clock;
                line.dirty |= write;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        let victim = self.lines[range.clone()]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| (l.valid, l.stamp))
            .map(|(i, _)| i)
            .expect("associativity is non-zero");
        let line = &mut self.lines[range.start + victim];
        if line.valid {
            self.stats.evictions += 1;
            if line.dirty {
                self.stats.writebacks += 1;
            }
        }
        *line = Line {
            valid: true,
            tag,
            stamp: clock,
            dirty: write,
        };
        false
    }

    fn flush(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
        }
    }

    fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

/// Geometries under test: power-of-two set counts (the shift/mask
/// split), non-power-of-two ones (the multiply-high split) including the
/// dac23 L2's 1536 sets, a non-power-of-two line size, a single fully
/// associative set and a direct-mapped cache.
fn geometries() -> Vec<CacheConfig> {
    vec![
        CacheConfig::new(512, 2, 128),
        CacheConfig::new(16 * 1024, 4, 128),
        CacheConfig::new(1536 * 1024, 8, 128),
        CacheConfig::new(3 * 4 * 128, 4, 128),
        CacheConfig::new(129 * 6, 2, 129),
        CacheConfig::new(1024, 8, 128),
        CacheConfig::new(1024, 1, 128),
    ]
}

/// One access: `(kind, set, tag, high, offset)`. Kind 0 flushes, odd
/// kinds write, other kinds read. The line lands in one of four sets
/// with one of `3 x associativity` tags, so every set under test sees
/// conflict evictions; `high` lifts the tag past 2^36 to cover large
/// quotients in the address split.
type Op = (u8, u64, u64, u64, u64);

/// Replays `ops` on both caches; returns the number of flushes seen.
fn replay(config: CacheConfig, ops: &[Op]) -> u64 {
    let mut cache = Cache::new(config);
    let mut reference = AosCache::new(config);
    let sets = config.sets() as u64;
    let tags = 3 * config.associativity as u64;
    let line = config.line_bytes as u64;
    let mut flushes = 0;
    for (i, &(kind, set, tag, high, offset)) in ops.iter().enumerate() {
        if kind == 0 {
            cache.flush();
            reference.flush();
            flushes += 1;
            continue;
        }
        let line_addr = set % sets + sets * (tag % tags + (high << 36));
        let pa = line_addr * line + offset % line;
        let write = kind % 2 == 1;
        assert_eq!(
            cache.access(pa, write),
            reference.access(pa, write),
            "access {i} ({pa:#x}, write {write}) on {config:?}"
        );
    }
    assert_eq!(cache.stats(), reference.stats, "{config:?}");
    assert_eq!(cache.occupancy(), reference.occupancy(), "{config:?}");
    flushes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every geometry, random streams with about one flush in 24 ops.
    #[test]
    fn soa_cache_matches_aos_reference(
        geometry in 0usize..7,
        ops in collection::vec((0u8..24, 0u64..4, 0u64..48, 0u64..2, 0u64..1024), 1..800),
    ) {
        replay(geometries()[geometry], &ops);
    }
}

/// A long fixed stream on every geometry, with flushes guaranteed.
#[test]
fn long_stream_matches_reference_on_every_geometry() {
    let mut x = 0xbb67_ae85_84ca_a73bu64;
    let ops: Vec<Op> = (0..20_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (
                (x % 40) as u8,
                x >> 8 & 3,
                x >> 10 & 63,
                x >> 16 & 1,
                x >> 20 & 1023,
            )
        })
        .collect();
    for config in geometries() {
        assert!(replay(config, &ops) > 0);
    }
}

//! Differential test of the data cache's set-block layout.
//!
//! `Cache` stores each set as one block of tags and packed keys (valid,
//! dirty and LRU stamp), probes it with a match mask specialized by way
//! count, pads other associativities to the next specialization, and
//! picks victims with a branch-free minimum over the keys. `AosCache`
//! below is the original layout, kept as the reference: one `Line`
//! struct per way and a `min_by_key` over `(valid, stamp)` tuples, with
//! the address split done by plain division. Both are driven by the same
//! mixed read/write streams with interleaved flushes, which leave invalid
//! ways holding stale stamps for later fills to choose among, and must
//! agree on every hit/miss verdict, on `CacheStats` (evictions and
//! write-backs included) after every access, and on the final occupancy.
//! (Which of several invalid ways a fill takes is not visible in those;
//! `tlb::replace`'s unit tests pin that order.)

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
/// associative set, a direct-mapped cache, 3-way (padded to a 4-way
/// block) and 16-way sets, the widest associativity the probe serves
/// (64 ways), and single-set caches of one-byte lines, where the tag is
/// the whole PA (3 ways padded to 4, and 5 padded to 8).
fn geometries() -> Vec<CacheConfig> {
    vec![
        CacheConfig::new(512, 2, 128),
        CacheConfig::new(16 * 1024, 4, 128),
        CacheConfig::new(1536 * 1024, 8, 128),
        CacheConfig::new(3 * 4 * 128, 4, 128),
        CacheConfig::new(129 * 6, 2, 129),
        CacheConfig::new(1024, 8, 128),
        CacheConfig::new(1024, 1, 128),
        CacheConfig::new(8 * 3 * 128, 3, 128),
        CacheConfig::new(12 * 16 * 128, 16, 128),
        CacheConfig::new(2 * 64 * 128, 64, 128),
        CacheConfig::new(3, 3, 1),
        CacheConfig::new(5, 5, 1),
    ]
}

/// One access: `(kind, set, tag, high, offset)`. Kind 0 flushes, odd
/// kinds write, other kinds read. The line lands in one of four sets
/// with one of `3 x associativity` tags, so every set under test sees
/// conflict evictions; `high` lifts the tag past 2^36 to cover large
/// quotients in the address split.
type Op = (u8, u64, u64, u64, u64);

/// Replays `ops` on both caches; returns the number of flushes seen.
/// With `top`, each PA is mirrored to `u64::MAX - pa`, so the addresses
/// sit just below 2^64 (on one-byte lines, tags near `u64::MAX`).
fn replay(config: CacheConfig, ops: &[Op], top: bool) -> u64 {
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
        let pa = if top { u64::MAX - pa } else { pa };
        let write = kind % 2 == 1;
        assert_eq!(
            cache.access(pa, write),
            reference.access(pa, write),
            "access {i} ({pa:#x}, write {write}) on {config:?}"
        );
        assert_eq!(
            cache.stats(),
            reference.stats,
            "after access {i} ({pa:#x}, write {write}) on {config:?}"
        );
    }
    assert_eq!(cache.occupancy(), reference.occupancy(), "{config:?}");
    flushes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every geometry, random streams with about one flush in 24 ops,
    /// at low PAs and mirrored just below 2^64.
    #[test]
    fn set_block_cache_matches_aos_reference(
        geometry in 0usize..12,
        top in any::<bool>(),
        ops in collection::vec((0u8..24, 0u64..4, 0u64..192, 0u64..2, 0u64..1024), 1..800),
    ) {
        replay(geometries()[geometry], &ops, top);
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
                x >> 10 & 255,
                x >> 18 & 1,
                x >> 20 & 1023,
            )
        })
        .collect();
    for config in geometries() {
        assert!(replay(config, &ops, false) > 0);
        assert!(replay(config, &ops, true) > 0);
    }
}

/// One way past the widest associativity the probe serves.
#[test]
#[should_panic(expected = "above 64 ways")]
fn sixty_five_ways_are_rejected() {
    let _ = CacheConfig::new(65 * 128, 65, 128);
}

/// The same limit holds for a geometry built field by field.
#[test]
#[should_panic(expected = "associativity must be 1..=64")]
fn cache_rejects_a_hand_built_sixty_five_way_geometry() {
    let _ = Cache::new(CacheConfig {
        bytes: 65 * 128,
        associativity: 65,
        line_bytes: 128,
    });
}

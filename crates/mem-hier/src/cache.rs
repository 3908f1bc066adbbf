//! Physically-tagged set-associative data caches (L1 per-SM, shared L2).

use crate::config::CacheConfig;
use std::fmt;
use tlb::{first_min, recency_key, RECENCY_VALID};

/// Hit/miss counters for a data cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines evicted by fills.
    pub evictions: u64,
    /// Evicted lines that were dirty (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `0.0` with no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {:.1}% hit",
            self.accesses(),
            self.hit_rate() * 100.0
        )
    }
}

/// An LRU set-associative cache over physical line addresses.
///
/// The simulator tracks only line identities (no data), which is all the
/// timing model needs. Lines are stored structure-of-arrays style, one
/// set-major slice each for the tags, the packed recency keys
/// ([`tlb::recency_key`]: validity above the LRU stamp) and the dirty
/// bits, so the hit probe walks the tags and the victim search runs one
/// branch-free minimum over the keys. A flush clears only the validity
/// bit, keeping each line's stale stamp for the victim order.
///
/// # Example
///
/// ```
/// use mem_hier::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 128));
/// assert!(!c.access(0x0, false)); // cold miss (fills)
/// assert!(c.access(0x0, false)); // now hits
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Line tags, set-major; meaningful only where the key is valid.
    tags: Vec<u64>,
    /// Packed recency keys parallel to `tags`.
    keys: Vec<u64>,
    /// Dirty bits parallel to `tags`.
    dirty: Vec<bool>,
    clock: u64,
    stats: CacheStats,
    /// `(line_shift, set_mask)` when both the line size and the set
    /// count are powers of two, letting the per-access address split run
    /// on shifts and masks instead of 64-bit divisions. Yields exactly
    /// the `(set, tag)` pair of the div/mod path (`None` = non-pow2
    /// geometry, e.g. a 12-slice L2, which takes `set_magic` below).
    pow2: Option<(u32, u32)>,
    /// `floor(2^64 / sets)` for the multiply-high division on non-pow2
    /// set counts (unused — zero — when `pow2` is `Some` or `sets == 1`).
    set_magic: u64,
    /// The set count, kept so the per-access split does not re-derive it
    /// from the geometry with two hardware divisions.
    sets: u64,
}

/// Exact `(n / d, n % d)` via one widening multiply instead of hardware
/// division, with `magic = floor(2^64 / d)` and `d >= 2`.
///
/// `n * magic / 2^64 = n/d - n*(2^64 mod d)/(d * 2^64)`, and the error
/// term is below `n / 2^64 < 1`, so the estimate is `floor(n/d)` or one
/// less — a single conditional fix-up restores exactness for every
/// `n < 2^64`.
fn divmod_by_magic(n: u64, d: u64, magic: u64) -> (u64, u64) {
    debug_assert!(d >= 2 && magic == u64::MAX / d);
    let mut q = ((n as u128 * magic as u128) >> 64) as u64;
    let mut r = n - q * d;
    if r >= d {
        q += 1;
        r -= d;
    }
    debug_assert!((q, r) == (n / d, n % d));
    (q, r)
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let pow2 =
            (config.line_bytes.is_power_of_two() && config.sets().is_power_of_two()).then(|| {
                (
                    config.line_bytes.trailing_zeros(),
                    config.sets().trailing_zeros(),
                )
            });
        let sets = config.sets() as u64;
        let set_magic = if pow2.is_none() && sets >= 2 {
            u64::MAX / sets
        } else {
            0
        };
        Cache {
            tags: vec![0; config.lines()],
            keys: vec![0; config.lines()],
            dirty: vec![false; config.lines()],
            config,
            clock: 0,
            stats: CacheStats::default(),
            pow2,
            set_magic,
            sets,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accesses the line containing physical address `pa`; returns `true`
    /// on hit. Misses allocate (write-allocate for stores).
    pub fn access(&mut self, pa: u64, write: bool) -> bool {
        self.clock += 1;
        let (set, tag) = match self.pow2 {
            Some((line_shift, set_bits)) => {
                let line_addr = pa >> line_shift;
                // Mask in u64 before narrowing, as below.
                let set = (line_addr & ((1u64 << set_bits) - 1)) as usize; // simlint: allow(lossy-cast, reason = "mask in u64 precedes the narrowing")
                (set, line_addr >> set_bits)
            }
            None => {
                let line_addr = if self.config.line_bytes.is_power_of_two() {
                    pa >> self.config.line_bytes.trailing_zeros()
                } else {
                    pa / self.config.line_bytes as u64
                };
                let sets = self.sets;
                if sets >= 2 {
                    let (tag, set) = divmod_by_magic(line_addr, sets, self.set_magic);
                    // The remainder sits below the set count, so the
                    // narrowing is exact.
                    (set as usize, tag)
                } else {
                    (0, line_addr)
                }
            }
        };
        let a = self.config.associativity;
        let range = set * a..(set + 1) * a;
        let clock = self.clock;
        let hit = self.tags[range.clone()]
            .iter()
            .zip(&self.keys[range.clone()])
            .position(|(&t, &k)| t == tag && k & RECENCY_VALID != 0);
        if let Some(w) = hit {
            let i = range.start + w;
            self.keys[i] = recency_key(true, clock);
            self.dirty[i] |= write;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Fill, evicting LRU.
        let victim = range.start
            + first_min(self.keys[range].iter().copied().enumerate())
                .expect("associativity is non-zero");
        if self.keys[victim] & RECENCY_VALID != 0 {
            self.stats.evictions += 1;
            if self.dirty[victim] {
                self.stats.writebacks += 1;
            }
        }
        self.tags[victim] = tag;
        self.keys[victim] = recency_key(true, clock);
        self.dirty[victim] = write;
        false
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (contents kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates all lines.
    pub fn flush(&mut self) {
        for k in &mut self.keys {
            *k &= !RECENCY_VALID;
        }
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.keys
            .iter()
            .filter(|&&k| k & RECENCY_VALID != 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets x 2 ways, 128B lines.
        Cache::new(CacheConfig::new(512, 2, 128))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0, false));
        assert!(c.access(64, false), "same line");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_within_set() {
        let mut c = small();
        // Lines 0, 2, 4 all map to set 0 (line_addr % 2 == 0).
        c.access(0, false);
        c.access(2 * 128, false);
        c.access(0, false); // refresh line 0
        c.access(4 * 128, false); // evicts line 2
        assert!(c.access(0, false));
        assert!(c.access(4 * 128, false));
        assert!(!c.access(2 * 128, false));
    }

    #[test]
    fn sets_are_disjoint() {
        let mut c = small();
        c.access(0, false); // set 0
        c.access(128, false); // set 1
        assert_eq!(c.occupancy(), 2);
        assert!(c.access(0, false));
        assert!(c.access(128, false));
    }

    #[test]
    fn flush_and_reset() {
        let mut c = small();
        c.access(0, true);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn dirty_evictions_count_writebacks() {
        let mut c = small();
        // Fill set 0 (2 ways) with one dirty and one clean line.
        c.access(0, true); // dirty
        c.access(2 * 128, false); // clean
                                  // Two more fills evict both.
        c.access(4 * 128, false);
        c.access(6 * 128, false);
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn non_pow2_sets_exercise_reciprocal_split() {
        // The dac23 L2 geometry: 1536 sets takes the multiply-high
        // fallback, whose debug assert cross-checks every split against
        // plain div/mod. Hammer it with well-spread addresses.
        let mut c = Cache::new(CacheConfig::new(1536 * 1024, 8, 128));
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4096 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            c.access(x >> 16, x & 1 == 1);
        }
        assert_eq!(c.stats().accesses(), 4096);
        c.access(0xdead_beef_0000, false);
        assert!(c.access(0xdead_beef_0000 + 64, false), "same 128B line");
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = small();
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}

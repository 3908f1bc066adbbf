//! Physically-tagged set-associative data caches (L1 per-SM, shared L2).

use crate::config::{CacheConfig, MAX_WAYS};
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

/// Dirty bit of a packed line key, just below [`RECENCY_VALID`]; the LRU
/// stamp fills the bits under it.
const DIRTY: u64 = 1 << 62;

/// Key of a padded way: valid with the largest stamp, so once the dirty
/// bit is masked out no real key exceeds it and a tie goes to the
/// earlier, real way. `flush` must skip it (invalid, it would undercut
/// every valid way), and `way_mask` keeps its tag out of the match.
const PAD_KEY: u64 = !DIRTY;

/// An LRU set-associative cache over physical line addresses.
///
/// The simulator tracks only line identities (no data), which is all the
/// timing model needs. One `Vec<u64>` holds the lines set by set: each
/// set's block is its tags, then one packed key per way (validity at bit
/// 63, dirtiness at bit 62, the LRU stamp below), so one access touches
/// one block. The probe compares every way's tag and valid bit into a
/// match mask, with no early exit, and `trailing_zeros` names the hit
/// way; an invalid way never matches whatever its stale tag, so no tag
/// value is reserved. A miss fills the first minimum of the keys with
/// the dirty bit masked out: an invalid way before any valid one (invalid
/// ways in stale-stamp order), then the least recently used. The probe
/// is specialized by way count (`probe::<W>` for `W` in 1, 2, 4, .., 64,
/// so the dac23 4-way L1 and 8-way L2 run fully unrolled); any other
/// associativity up to 64 pads each set to the next of those with ways
/// that never match and never win the victim search. A flush clears only
/// the validity bit, keeping each line's stale stamp for the victim
/// order.
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
    /// Set-major blocks of `ways` tags then `ways` packed keys. A tag is
    /// meaningful only where its key is valid; padded ways hold
    /// [`PAD_KEY`].
    lines: Vec<u64>,
    /// Ways per set block: the associativity rounded up to a power of
    /// two, which picks the `probe` specialization.
    ways: usize,
    /// One bit per real way, masking padded ways out of the match mask.
    way_mask: u64,
    clock: u64,
    stats: CacheStats,
    /// `log2(line_bytes)` for a power-of-two line size, splitting off
    /// the line offset with a shift (`None`: a division).
    line_shift: Option<u32>,
    /// `log2(sets)` for a power-of-two set count, splitting the line
    /// address with a mask and a shift (`None`: the multiply-high
    /// division by `set_magic`, e.g. for a 12-slice L2). Either way the
    /// `(set, tag)` pair is exactly that of plain div/mod.
    set_bits: Option<u32>,
    /// `floor(2^64 / sets)` for the multiply-high division on non-pow2
    /// set counts (zero, unused, when `set_bits` is `Some`).
    set_magic: u64,
    /// The set count, the divisor of the multiply-high split.
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
    ///
    /// # Panics
    ///
    /// Panics on a zero associativity or one above 64, which
    /// [`CacheConfig::new`] rejects already (its fields are public).
    pub fn new(config: CacheConfig) -> Self {
        let a = config.associativity;
        assert!(
            (1..=MAX_WAYS).contains(&a),
            "cache associativity must be 1..={MAX_WAYS}, got {a}"
        );
        let sets = config.sets();
        let set_bits = sets.is_power_of_two().then(|| sets.trailing_zeros());
        let set_magic = if set_bits.is_none() {
            u64::MAX / sets as u64
        } else {
            0
        };
        let ways = a.next_power_of_two();
        let mut block = vec![0; 2 * ways];
        block[ways + a..].fill(PAD_KEY);
        Cache {
            lines: block.repeat(sets),
            ways,
            way_mask: u64::MAX >> (64 - a),
            config,
            clock: 0,
            stats: CacheStats::default(),
            line_shift: config
                .line_bytes
                .is_power_of_two()
                .then(|| config.line_bytes.trailing_zeros()),
            set_bits,
            set_magic,
            sets: sets as u64,
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
        let line_addr = match self.line_shift {
            Some(shift) => pa >> shift,
            None => pa / self.config.line_bytes as u64,
        };
        let (set, tag) = match self.set_bits {
            Some(bits) => {
                // Mask in u64 before narrowing, as below.
                let set = (line_addr & ((1u64 << bits) - 1)) as usize; // simlint: allow(lossy-cast, reason = "mask in u64 precedes the narrowing")
                (set, line_addr >> bits)
            }
            None => {
                let (tag, set) = divmod_by_magic(line_addr, self.sets, self.set_magic);
                // The remainder sits below the set count, so the
                // narrowing is exact.
                (set as usize, tag)
            }
        };
        match self.ways {
            1 => self.probe::<1>(set, tag, write),
            2 => self.probe::<2>(set, tag, write),
            4 => self.probe::<4>(set, tag, write),
            8 => self.probe::<8>(set, tag, write),
            16 => self.probe::<16>(set, tag, write),
            32 => self.probe::<32>(set, tag, write),
            // `new` rounds the associativity up to a power of two no
            // larger than MAX_WAYS.
            _ => self.probe::<MAX_WAYS>(set, tag, write),
        }
    }

    /// Hit probe and LRU fill of `tag` in `set`, whose block is `W` ways
    /// wide.
    #[inline(always)]
    fn probe<const W: usize>(&mut self, set: usize, tag: u64, write: bool) -> bool {
        let clock = self.clock;
        debug_assert!(clock < DIRTY, "LRU stamp overflows the line key");
        let (tags, keys) = self.lines[set * 2 * W..][..2 * W].split_at_mut(W);
        let mut hits = 0u64;
        for w in 0..W {
            hits |= (u64::from(tags[w] == tag) & (keys[w] >> 63)) << w;
        }
        hits &= self.way_mask;
        let dirty = u64::from(write) << 62;
        if hits != 0 {
            let w = hits.trailing_zeros() as usize;
            keys[w] = recency_key(true, clock) | (keys[w] & DIRTY) | dirty;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Fill, evicting LRU.
        let victim = first_min(keys.iter().map(|&k| k & !DIRTY).enumerate())
            .expect("associativity is non-zero");
        let old = keys[victim];
        self.stats.evictions += old >> 63;
        self.stats.writebacks += (old >> 63) & (old >> 62);
        tags[victim] = tag;
        keys[victim] = recency_key(true, clock) | dirty;
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
        let (ways, a) = (self.ways, self.config.associativity);
        for block in self.lines.chunks_exact_mut(2 * ways) {
            for k in &mut block[ways..ways + a] {
                *k &= !RECENCY_VALID;
            }
        }
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        let (ways, a) = (self.ways, self.config.associativity);
        self.lines
            .chunks_exact(2 * ways)
            .flat_map(|block| &block[ways..ways + a])
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

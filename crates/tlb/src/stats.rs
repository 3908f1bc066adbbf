//! TLB access statistics.

use std::fmt;
use std::ops::{Add, AddAssign};
use vmem::Asid;

/// Hit/miss counters for a TLB.
///
/// # Example
///
/// ```
/// use tlb::TlbStats;
///
/// let mut s = TlbStats::default();
/// s.record(true);
/// s.record(false);
/// assert_eq!(s.accesses(), 2);
/// assert!((s.hit_rate() - 0.5).abs() < 1e-12);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that found the translation.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Valid entries displaced by insertion.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Total lookups, counted independently of the hit/miss split so the
    /// identity `hits + misses == lookups` is a checkable invariant (the
    /// sanitizer and `SimReport` aggregation both assert it).
    pub lookups: u64,
}

impl TlbStats {
    /// Records one lookup outcome.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.lookups += 1;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Checks the counter identity `hits + misses == lookups`.
    ///
    /// Every lookup must be classified as exactly one of hit or miss; a
    /// TLB implementation that bumps `hits`/`misses` without going through
    /// [`TlbStats::record`] (or vice versa) breaks this and is reported.
    pub fn check(&self) -> Result<(), String> {
        if self.hits + self.misses != self.lookups {
            return Err(format!(
                "hits ({}) + misses ({}) != lookups ({})",
                self.hits, self.misses, self.lookups
            ));
        }
        Ok(())
    }

    /// Hit rate in `[0, 1]`; `0.0` when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Miss rate in `[0, 1]`; `0.0` when no accesses were made (so an idle
    /// TLB never looks like it is thrashing — the paper's scheduler probes
    /// miss rates and must prefer idle SMs).
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

impl Add for TlbStats {
    type Output = TlbStats;

    fn add(self, rhs: TlbStats) -> TlbStats {
        TlbStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            evictions: self.evictions + rhs.evictions,
            insertions: self.insertions + rhs.insertions,
            lookups: self.lookups + rhs.lookups,
        }
    }
}

impl AddAssign for TlbStats {
    fn add_assign(&mut self, rhs: TlbStats) {
        *self = *self + rhs;
    }
}

/// Per-address-space [`TlbStats`] table, indexed by raw ASID and grown on
/// demand. Organizations that tag entries with ASIDs keep one of these
/// alongside the aggregate counters; the multi-tenant invariant checked by
/// the sanitizer and the proptests is that [`PerAsidStats::sum`] equals
/// the aggregate exactly.
///
/// # Example
///
/// ```
/// use tlb::PerAsidStats;
/// use vmem::Asid;
///
/// let mut p = PerAsidStats::default();
/// p.entry(Asid::new(1)).record(true);
/// p.entry(Asid::new(3)).record(false);
/// assert_eq!(p.sum().lookups, 2);
/// assert_eq!(p.non_empty().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PerAsidStats {
    table: Vec<TlbStats>,
}

impl PerAsidStats {
    /// The mutable counters for `asid`, growing the table as needed.
    #[inline]
    pub fn entry(&mut self, asid: Asid) -> &mut TlbStats {
        let i = asid.index();
        if i >= self.table.len() {
            self.table.resize(i + 1, TlbStats::default());
        }
        &mut self.table[i]
    }

    /// The counters for `asid` (zero if it never issued traffic).
    pub fn get(&self, asid: Asid) -> TlbStats {
        self.table.get(asid.index()).copied().unwrap_or_default()
    }

    /// Sum over all ASIDs; the multi-tenant accounting identity requires
    /// this to equal the owning TLB's aggregate [`TlbStats`].
    pub fn sum(&self) -> TlbStats {
        self.table.iter().fold(TlbStats::default(), |a, s| a + *s)
    }

    /// `(asid, stats)` pairs for every ASID with at least one counter set.
    pub fn non_empty(&self) -> Vec<(Asid, TlbStats)> {
        self.table
            .iter()
            .enumerate()
            .filter(|(_, s)| **s != TlbStats::default())
            .map(|(i, s)| (Asid::new(i as u16), *s))
            .collect()
    }

    /// Clears every ASID's counters.
    pub fn clear(&mut self) {
        self.table.clear();
    }
}

impl fmt::Display for TlbStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} hits ({:.1}%), {} evictions",
            self.accesses(),
            self.hits,
            self.hit_rate() * 100.0,
            self.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_on_empty_stats_are_zero() {
        let s = TlbStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.accesses(), 0);
    }

    #[test]
    fn record_accumulates() {
        let mut s = TlbStats::default();
        for _ in 0..3 {
            s.record(true);
        }
        s.record(false);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn add_combines_all_fields() {
        let a = TlbStats {
            hits: 1,
            misses: 2,
            evictions: 3,
            insertions: 4,
            lookups: 3,
        };
        let b = TlbStats {
            hits: 10,
            misses: 20,
            evictions: 30,
            insertions: 40,
            lookups: 30,
        };
        let c = a + b;
        assert_eq!(c.hits, 11);
        assert_eq!(c.misses, 22);
        assert_eq!(c.evictions, 33);
        assert_eq!(c.insertions, 44);
        assert_eq!(c.lookups, 33);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn record_maintains_lookup_identity() {
        let mut s = TlbStats::default();
        for i in 0..10 {
            s.record(i % 3 == 0);
        }
        assert_eq!(s.lookups, 10);
        assert!(s.check().is_ok());
    }

    #[test]
    fn check_reports_broken_identity() {
        let mut s = TlbStats::default();
        s.record(true);
        s.hits += 1; // bypasses record(): identity now broken
        let err = s.check().unwrap_err();
        assert!(err.contains("lookups"), "unexpected message: {err}");
    }

    #[test]
    fn display_shows_percentage() {
        let mut s = TlbStats::default();
        s.record(true);
        s.record(true);
        assert!(s.to_string().contains("100.0%"));
    }

    #[test]
    fn per_asid_table_sums_and_filters() {
        let mut p = PerAsidStats::default();
        p.entry(Asid::new(0)).record(true);
        p.entry(Asid::new(2)).record(false);
        p.entry(Asid::new(2)).insertions += 1;
        assert_eq!(p.get(Asid::new(0)).hits, 1);
        assert_eq!(p.get(Asid::new(1)), TlbStats::default());
        assert_eq!(p.get(Asid::new(2)).insertions, 1);
        let sum = p.sum();
        assert_eq!(sum.lookups, 2);
        assert_eq!(sum.insertions, 1);
        let pairs = p.non_empty();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, Asid::new(0));
        assert_eq!(pairs[1].0, Asid::new(2));
        p.clear();
        assert_eq!(p.sum(), TlbStats::default());
    }
}

//! LRU victim selection over packed recency keys.
//!
//! Every LRU structure in the simulator (the TLB organizations here, the
//! partitioned TLBs, the data caches) picks its victim the same way: an
//! invalid way before any valid one, the least-recently-stamped way
//! among equals, and the first way on a full tie. Packing validity above
//! the stamp, `recency_key(valid, stamp) = valid << 63 | stamp`, turns
//! that rule into a single integer minimum, which [`first_min`] finds
//! without branching on the keys. A flushed way keeps its stale stamp,
//! so invalid ways are ordered by the stamp they had when last valid —
//! the same order the `(valid, stamp)` tuple compare gave.

pub use vmem::first_min;

/// The validity bit of a packed recency key.
pub const RECENCY_VALID: u64 = 1 << 63;

/// Packs a way's validity and LRU stamp into one key whose integer order
/// is the victim order: invalid ways first, then older stamps.
///
/// Stamps are per-structure access counters and stay far below `2^63`.
///
/// # Example
///
/// ```
/// use tlb::{first_min, recency_key};
///
/// // Way 2 is invalid and wins despite its newer stale stamp.
/// let ways = [(true, 4u64), (true, 2), (false, 9)];
/// let keys = ways.iter().map(|&(v, s)| recency_key(v, s)).enumerate();
/// assert_eq!(first_min(keys), Some(2));
/// ```
#[inline]
pub const fn recency_key(valid: bool, stamp: u64) -> u64 {
    debug_assert!(stamp < RECENCY_VALID, "LRU stamp overflows the recency key");
    (valid as u64) << 63 | stamp
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Victim among `(valid, stamp)` ways, through the packed key.
    fn victim(ways: &[(bool, u64)]) -> Option<usize> {
        first_min(ways.iter().map(|&(v, s)| recency_key(v, s)).enumerate())
    }

    /// The tuple compare every victim site used before the packed key.
    fn tuple_victim(ways: &[(bool, u64)]) -> Option<usize> {
        ways.iter()
            .enumerate()
            .min_by_key(|&(_, &w)| w)
            .map(|(i, _)| i)
    }

    #[test]
    fn ties_go_to_the_first_way() {
        assert_eq!(victim(&[(true, 5), (true, 3), (true, 3)]), Some(1));
        // Equal stale stamps on invalid ways: still the first.
        assert_eq!(victim(&[(true, 1), (false, 7), (false, 7)]), Some(1));
    }

    #[test]
    fn all_invalid_picks_the_oldest_stale_stamp() {
        // A flushed set keeps its stamps; the least recently used way
        // is refilled first, as the tuple compare did.
        assert_eq!(victim(&[(false, 8), (false, 2), (false, 5)]), Some(1));
        // A never-used set is all zero keys: way 0.
        assert_eq!(victim(&[(false, 0); 16]), Some(0));
    }

    #[test]
    fn invalid_beats_any_valid_stamp() {
        assert_eq!(victim(&[(true, 0), (false, 1 << 40)]), Some(1));
    }

    #[test]
    fn one_way_sets_always_pick_way_zero() {
        assert_eq!(victim(&[(true, 99)]), Some(0));
        assert_eq!(victim(&[(false, 99)]), Some(0));
        assert_eq!(victim(&[]), None);
    }

    #[test]
    fn packed_key_matches_the_tuple_compare() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for ways in 1..=16usize {
            for _ in 0..64 {
                let set: Vec<(bool, u64)> = (0..ways)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x & 1 == 1, (x >> 1) % 6)
                    })
                    .collect();
                assert_eq!(victim(&set), tuple_victim(&set), "set {set:?}");
            }
        }
    }
}

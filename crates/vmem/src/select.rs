//! Branch-free first-minimum selection, shared by every replacement
//! decision in the simulator.
//!
//! LRU victim searches (data caches, every TLB organization) and the
//! walker pool's earliest-free pick all ask the same question: which of a
//! handful of candidates carries the smallest key, the first one on
//! ties? [`first_min`] answers it with two conditional selects per
//! candidate instead of a data-dependent branch, so unpredictable keys
//! (LRU stamps, walker free cycles) cost no mispredictions. The result
//! equals `min_by_key`'s, which also keeps the first of equal minima.

/// Returns the item paired with the smallest key, the first such item
/// on ties, or `None` for an empty sequence.
///
/// # Example
///
/// ```
/// use vmem::first_min;
///
/// let keys = [7u64, 3, 9, 3];
/// assert_eq!(first_min(keys.iter().copied().enumerate()), Some(1));
/// assert_eq!(first_min(std::iter::empty::<(usize, u64)>()), None);
/// ```
#[inline]
pub fn first_min<T: Copy>(items: impl IntoIterator<Item = (T, u64)>) -> Option<T> {
    let mut items = items.into_iter();
    let (mut best, mut best_key) = items.next()?;
    for (item, key) in items {
        // Strictly less: an equal key never displaces an earlier item.
        let less = key < best_key;
        best = std::hint::select_unpredictable(less, item, best);
        best_key = best_key.min(key);
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pick(keys: &[u64]) -> Option<usize> {
        first_min(keys.iter().copied().enumerate())
    }

    #[test]
    fn ties_go_to_the_first_item() {
        assert_eq!(pick(&[5, 2, 2, 9, 2]), Some(1));
        assert_eq!(pick(&[4, 4, 4, 4]), Some(0));
        assert_eq!(pick(&[u64::MAX, u64::MAX]), Some(0));
    }

    #[test]
    fn single_item_and_empty() {
        assert_eq!(pick(&[42]), Some(0));
        assert_eq!(pick(&[]), None);
    }

    #[test]
    fn matches_min_by_key_on_scrambled_keys() {
        let mut x = 0x853c_49e6_748f_ea9bu64;
        for len in 1..40usize {
            let keys: Vec<u64> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    // A small key range forces many ties.
                    x >> 61
                })
                .collect();
            let want = keys
                .iter()
                .enumerate()
                .min_by_key(|&(_, &k)| k)
                .map(|(i, _)| i);
            assert_eq!(pick(&keys), want, "keys {keys:?}");
        }
    }

    #[test]
    fn returns_the_paired_item_not_the_position() {
        let ways = [(10usize, 8u64), (11, 1), (20, 1), (21, 0)];
        assert_eq!(first_min(ways), Some(21));
        assert_eq!(first_min(ways[..3].iter().copied()), Some(11));
    }
}

//! Shared page-table-walker pool.
//!
//! Table III of the paper configures **8 shared page-table walkers with a
//! 500-cycle walk latency**. The pool is modeled analytically: each walker
//! has a next-free cycle; a walk submitted at cycle `t` starts on the
//! earliest-free walker (no earlier than `t`) and completes a fixed latency
//! later. Concurrent walks for the *same* VPN coalesce onto the in-flight
//! walk, as the MSHR-style merging in MASK/gem5-gpu does.

use crate::addr::Vpn;
use crate::select::first_min;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A submitted walk request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WalkRequest {
    /// Cycle at which the request reached the walker pool.
    pub issue_cycle: u64,
    /// Virtual page being translated.
    pub vpn: Vpn,
}

/// Counters describing walker-pool activity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkerStats {
    /// Walks actually performed by a walker.
    pub walks: u64,
    /// Requests that coalesced onto an in-flight walk for the same VPN.
    pub coalesced: u64,
    /// Total cycles requests spent waiting for a free walker.
    pub queue_wait_cycles: u64,
    /// Maximum observed queue wait for a single request.
    pub max_queue_wait: u64,
}

impl WalkerStats {
    /// Total requests that reached the pool (performed + coalesced).
    pub fn requests(&self) -> u64 {
        self.walks + self.coalesced
    }

    /// Internal consistency: the max single-request wait can never
    /// exceed the total wait, and waits require walks.
    pub fn check(&self) -> Result<(), String> {
        if self.max_queue_wait > self.queue_wait_cycles {
            return Err(format!(
                "max_queue_wait {} exceeds total queue_wait_cycles {}",
                self.max_queue_wait, self.queue_wait_cycles
            ));
        }
        if self.walks == 0 && (self.queue_wait_cycles > 0 || self.coalesced > 0) {
            return Err(String::from("activity recorded without any walks"));
        }
        Ok(())
    }
}

/// Raw VPN marking a free [`WalkIndex`] slot. Real VPNs are at most 52
/// bits (a 64-bit VA over a 4 KiB page), so none collides with it.
const EMPTY: u64 = u64::MAX;

/// Open-addressed VPN -> completion-cycle table (linear probing,
/// backshift deletion, power-of-two capacity at most half full).
///
/// A plain `Vec` rather than a `HashMap`: the walker pool sits on the
/// simulated-result path, where a per-process hash seed must not reach
/// anything observable. Nothing iterates the table except the heap
/// rebuild, whose output order does not matter (see
/// [`WalkerPool::compact_heap`]).
#[derive(Debug, Clone)]
struct WalkIndex {
    /// `(raw VPN, done)` per slot; `EMPTY` VPN = free slot.
    slots: Vec<(u64, u64)>,
    len: usize,
}

impl WalkIndex {
    const INITIAL_SLOTS: usize = 64;

    fn new() -> Self {
        WalkIndex {
            slots: vec![(EMPTY, 0); Self::INITIAL_SLOTS],
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Home slot of `vpn`: Fibonacci hashing, top bits of the product.
    fn home(&self, vpn: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        // The shift leaves `bits` bits, so the narrowing is exact.
        (vpn.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize // simlint: allow(lossy-cast, reason = "shift leaves fewer bits than the slot count")
    }

    /// Slot holding `vpn`, or the free slot ending its probe sequence.
    fn probe(&self, vpn: u64) -> usize {
        let mask = self.mask();
        let mut i = self.home(vpn);
        while self.slots[i].0 != vpn && self.slots[i].0 != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    fn get(&self, vpn: u64) -> Option<u64> {
        let (v, done) = self.slots[self.probe(vpn)];
        (v != EMPTY).then_some(done)
    }

    /// Inserts or overwrites `vpn`'s completion cycle.
    fn set(&mut self, vpn: u64, done: u64) {
        let mut i = self.probe(vpn);
        if self.slots[i].0 == EMPTY {
            if 2 * (self.len + 1) > self.slots.len() {
                self.grow();
                i = self.probe(vpn);
            }
            self.len += 1;
        }
        self.slots[i] = (vpn, done);
    }

    /// Removes `vpn` if its entry still records `done`; a mismatch means
    /// the heap entry naming it is stale (the VPN was walked again).
    fn remove_if(&mut self, vpn: u64, done: u64) {
        let mut hole = self.probe(vpn);
        if self.slots[hole] != (vpn, done) {
            return;
        }
        // Backshift: pull later members of the probe run into the hole
        // whenever the hole lies between their home and their slot.
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (v, _) = self.slots[j];
            if v == EMPTY {
                break;
            }
            let home = self.home(v);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = (EMPTY, 0);
        self.len -= 1;
    }

    fn grow(&mut self) {
        let doubled = vec![(EMPTY, 0); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        for (v, done) in old {
            if v != EMPTY {
                let i = self.probe(v);
                self.slots[i] = (v, done);
            }
        }
    }

    /// Live `(raw VPN, done)` entries, in slot order.
    fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slots.iter().copied().filter(|&(v, _)| v != EMPTY)
    }

    fn clear(&mut self) {
        self.slots.fill((EMPTY, 0));
        self.len = 0;
    }
}

/// A pool of hardware page-table walkers with fixed walk latency.
///
/// # Example
///
/// ```
/// use vmem::{Vpn, WalkerPool};
///
/// let mut pool = WalkerPool::new(8, 500);
/// let done = pool.submit(100, Vpn::new(7));
/// assert_eq!(done, 600);
/// // A second request for the same page while the walk is in flight
/// // coalesces and completes at the same time.
/// assert_eq!(pool.submit(200, Vpn::new(7)), 600);
/// ```
#[derive(Debug, Clone)]
pub struct WalkerPool {
    /// Next-free cycle per walker.
    free_at: Vec<u64>,
    latency: u64,
    /// Completion cycle of the latest walk per VPN. Entries are pruned
    /// lazily (see `submit_with_latency`), so the index also holds walks
    /// that already finished; under queueing it holds hundreds of entries
    /// (mean 300–500, max about 900 on bfs and the mvt+bfs co-run at
    /// `--scale large` with 8 walkers), far more than the walker count.
    in_flight: WalkIndex,
    /// Min-heap of `(done, raw VPN)` over the indexed walks, so a prune
    /// removes exactly the finished walks without scanning the live ones.
    /// Lazy: re-walking a VPN leaves its old entry behind, and the prune
    /// skips entries the index no longer records.
    by_done: BinaryHeap<Reverse<(u64, u64)>>,
    stats: WalkerStats,
}

impl WalkerPool {
    /// Creates a pool of `walkers` walkers, each walk taking `latency`
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `walkers == 0`.
    pub fn new(walkers: usize, latency: u64) -> Self {
        assert!(walkers > 0, "walker pool must have at least one walker");
        WalkerPool {
            free_at: vec![0; walkers],
            latency,
            in_flight: WalkIndex::new(),
            by_done: BinaryHeap::new(),
            stats: WalkerStats::default(),
        }
    }

    /// Submits a walk at `cycle` and returns its completion cycle.
    ///
    /// Requests for a VPN that already has a walk in flight return that
    /// walk's completion cycle without occupying a walker.
    pub fn submit(&mut self, cycle: u64, vpn: Vpn) -> u64 {
        self.submit_with_latency(cycle, vpn, self.latency)
    }

    /// Like [`WalkerPool::submit`] with an explicit per-walk latency
    /// (e.g. radix walks whose cost depends on the levels touched).
    pub fn submit_with_latency(&mut self, cycle: u64, vpn: Vpn, latency: u64) -> u64 {
        // Drop completed walks lazily, once the index outgrows four times
        // the walker count. "Completed" is judged against *this* request's
        // cycle; requests need not arrive in cycle order, so a later
        // request at an earlier cycle can miss a walk pruned here that was
        // still in flight at its own cycle (a known model artifact, see
        // DESIGN.md).
        if self.in_flight.len > 4 * self.free_at.len() {
            while let Some(&Reverse((done, v))) = self.by_done.peek() {
                if done > cycle {
                    break;
                }
                self.by_done.pop();
                self.in_flight.remove_if(v, done);
            }
        }
        assert_ne!(
            vpn.raw(),
            EMPTY,
            "VPN collides with the walk index's free-slot marker"
        );
        let prev = self.in_flight.get(vpn.raw());
        if let Some(done) = prev {
            if done > cycle {
                self.stats.coalesced += 1;
                return done;
            }
        }
        // Pick the earliest-free walker (the first on ties).
        let idx = first_min(self.free_at.iter().copied().enumerate()).expect("pool is non-empty");
        let begin = self.free_at[idx].max(cycle);
        let wait = begin - cycle;
        let done = begin + latency;
        self.free_at[idx] = done;
        // One entry per VPN: a finished walk's entry is overwritten, and
        // its heap entry goes stale.
        self.in_flight.set(vpn.raw(), done);
        self.by_done.push(Reverse((done, vpn.raw())));
        if self.by_done.len() > 2 * self.in_flight.len + WalkIndex::INITIAL_SLOTS {
            self.compact_heap();
        }
        self.stats.walks += 1;
        self.stats.queue_wait_cycles += wait;
        self.stats.max_queue_wait = self.stats.max_queue_wait.max(wait);
        done
    }

    /// Rebuilds `by_done` from the index, dropping stale entries. Without
    /// it, VPNs re-walked while the index stays under the prune threshold
    /// would grow the heap without bound. The prune only asks which
    /// walks have `done <= cycle`, so the rebuilt heap's internal order
    /// (which follows the index's slot order) is unobservable.
    fn compact_heap(&mut self) {
        let mut heap = std::mem::take(&mut self.by_done).into_vec();
        heap.clear();
        heap.extend(self.in_flight.entries().map(|(v, done)| Reverse((done, v))));
        self.by_done = BinaryHeap::from(heap);
    }

    /// Fixed per-walk latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Number of walkers in the pool.
    pub fn walkers(&self) -> usize {
        self.free_at.len()
    }

    /// Activity counters.
    pub fn stats(&self) -> WalkerStats {
        self.stats
    }

    /// Resets walker occupancy and statistics (keeps configuration).
    pub fn reset(&mut self) {
        self.free_at.fill(0);
        self.in_flight.clear();
        self.by_done.clear();
        self.stats = WalkerStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_walk_takes_latency() {
        let mut p = WalkerPool::new(1, 500);
        assert_eq!(p.submit(0, Vpn::new(1)), 500);
        assert_eq!(p.stats().walks, 1);
    }

    #[test]
    fn pool_parallelism() {
        let mut p = WalkerPool::new(2, 100);
        // Two distinct walks at the same cycle proceed in parallel.
        assert_eq!(p.submit(0, Vpn::new(1)), 100);
        assert_eq!(p.submit(0, Vpn::new(2)), 100);
        // Third queues behind one of them.
        assert_eq!(p.submit(0, Vpn::new(3)), 200);
        assert_eq!(p.stats().queue_wait_cycles, 100);
        assert_eq!(p.stats().max_queue_wait, 100);
    }

    #[test]
    fn same_vpn_coalesces() {
        let mut p = WalkerPool::new(8, 500);
        let d1 = p.submit(10, Vpn::new(42));
        let d2 = p.submit(20, Vpn::new(42));
        assert_eq!(d1, d2);
        assert_eq!(p.stats().walks, 1);
        assert_eq!(p.stats().coalesced, 1);
    }

    #[test]
    fn completed_walk_does_not_coalesce() {
        let mut p = WalkerPool::new(8, 500);
        let d1 = p.submit(0, Vpn::new(42));
        let d2 = p.submit(d1 + 1, Vpn::new(42));
        assert_eq!(d2, d1 + 1 + 500);
        assert_eq!(p.stats().walks, 2);
    }

    #[test]
    fn eight_walkers_saturate_like_paper_config() {
        let mut p = WalkerPool::new(8, 500);
        // 16 distinct walks at cycle 0: first 8 finish at 500, next 8 at 1000.
        let mut completions: Vec<u64> = (0..16).map(|i| p.submit(0, Vpn::new(i))).collect();
        completions.sort_unstable();
        assert_eq!(&completions[..8], &[500; 8]);
        assert_eq!(&completions[8..], &[1000; 8]);
    }

    #[test]
    fn explicit_latency_overrides_default() {
        let mut p = WalkerPool::new(2, 500);
        assert_eq!(p.submit_with_latency(0, Vpn::new(1), 50), 50);
        assert_eq!(p.submit(0, Vpn::new(2)), 500);
    }

    #[test]
    fn reset_clears_state() {
        let mut p = WalkerPool::new(1, 500);
        p.submit(0, Vpn::new(1));
        p.reset();
        assert_eq!(p.stats(), WalkerStats::default());
        assert_eq!(p.submit(0, Vpn::new(1)), 500);
    }

    #[test]
    #[should_panic(expected = "at least one walker")]
    fn zero_walkers_rejected() {
        let _ = WalkerPool::new(0, 500);
    }

    #[test]
    fn stats_requests_and_check() {
        let mut p = WalkerPool::new(1, 100);
        p.submit(0, Vpn::new(1));
        p.submit(50, Vpn::new(1)); // coalesces
        p.submit(0, Vpn::new(2)); // queues 100 cycles
        let s = p.stats();
        assert_eq!(s.requests(), 3);
        assert!(s.check().is_ok());
        let bad = WalkerStats {
            max_queue_wait: 10,
            queue_wait_cycles: 5,
            walks: 1,
            ..Default::default()
        };
        assert!(bad.check().is_err());
        let phantom = WalkerStats {
            coalesced: 1,
            ..Default::default()
        };
        assert!(phantom.check().is_err());
    }

    #[test]
    fn in_flight_map_pruned() {
        let mut p = WalkerPool::new(1, 10);
        for i in 0..1000u64 {
            p.submit(i * 100, Vpn::new(i));
        }
        // Lazy pruning keeps the index bounded (the 4x walker count
        // threshold triggers a prune; afterwards only live walks remain),
        // every indexed walk still has its heap entry, and the heap holds
        // nothing beyond the indexed walks once they are all distinct.
        assert!(p.in_flight.len <= 8);
        assert_eq!(p.in_flight.entries().count(), p.in_flight.len);
        let mut heap: Vec<(u64, u64)> = p.by_done.iter().map(|&Reverse(e)| e).collect();
        let mut indexed: Vec<(u64, u64)> = p.in_flight.entries().map(|(v, d)| (d, v)).collect();
        heap.sort_unstable();
        indexed.sort_unstable();
        assert_eq!(heap, indexed);
    }

    #[test]
    fn heap_stays_bounded_without_prunes() {
        // Five VPNs re-walked after each walk finished: the index never
        // passes the 4 x walkers threshold, so no prune ever pops the
        // stale heap entries, and only compaction bounds the heap.
        let mut p = WalkerPool::new(2, 10);
        for i in 0..10_000u64 {
            assert_eq!(p.submit(i * 100, Vpn::new(i % 5)), i * 100 + 10);
        }
        assert_eq!(p.in_flight.len, 5);
        assert!(p.by_done.len() <= 2 * 5 + WalkIndex::INITIAL_SLOTS + 1);
        assert_eq!(p.stats().walks, 10_000);
    }

    #[test]
    fn walk_index_matches_btreemap_through_growth_and_deletes() {
        use std::collections::BTreeMap;
        let mut index = WalkIndex::new();
        let mut model = BTreeMap::new();
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for step in 0..50_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Clustered keys collide in the hash's top bits, so probe
            // runs are long and deletes must backshift across them.
            let vpn = (x >> 20) % 700 * 64;
            if x & 3 == 0 {
                let done = model.get(&vpn).copied().unwrap_or(x >> 40);
                index.remove_if(vpn, done);
                model.remove(&vpn);
            } else {
                index.set(vpn, step);
                model.insert(vpn, step);
            }
            assert_eq!(index.len, model.len());
            assert_eq!(index.get(vpn), model.get(&vpn).copied());
        }
        assert!(index.slots.len() > WalkIndex::INITIAL_SLOTS);
        let mut entries: Vec<(u64, u64)> = index.entries().collect();
        entries.sort_unstable();
        assert_eq!(entries, model.into_iter().collect::<Vec<_>>());
        // A stale `done` leaves the entry in place.
        index.set(7, 70);
        index.remove_if(7, 69);
        assert_eq!(index.get(7), Some(70));
    }

    /// Pins a known model artifact (DESIGN.md §6, "Known model artifact:
    /// walker coalescing depends on the prune threshold"): the prune triggered by a request at cycle
    /// 15 removes a walk that a later-submitted request at cycle 5 would
    /// have coalesced onto. Whether it coalesces depends only on how many
    /// fillers pushed the index past the `4 x walkers` threshold.
    #[test]
    fn out_of_order_coalescing_depends_on_prune_threshold() {
        let last_completion = |fillers: u64| {
            let mut p = WalkerPool::new(1, 10);
            assert_eq!(p.submit(0, Vpn::new(1)), 10);
            for f in 0..fillers {
                p.submit(0, Vpn::new(100 + f));
            }
            p.submit(15, Vpn::new(2));
            p.submit(5, Vpn::new(1))
        };
        // Below the threshold the walk of VPN 1 (done at 10) is still
        // indexed, so the request at cycle 5 coalesces onto it.
        assert_eq!(last_completion(2), 10);
        // Above it, the cycle-15 prune dropped that walk: the request at
        // cycle 5 starts a fresh walk behind the queued ones.
        assert_eq!(last_completion(4), 70);
    }
}

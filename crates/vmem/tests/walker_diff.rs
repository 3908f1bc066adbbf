//! Differential test of the walker pool's in-flight index.
//!
//! `WalkerPool` indexes in-flight walks in an open-addressed VPN table
//! and a lazy min-heap by completion cycle. `LinearPool` below is the
//! straightforward model it must match exactly:
//! an unordered `(vpn, done)` list scanned linearly on every submit and
//! pruned with `retain` once it outgrows four times the walker count.
//! Both are driven with the same random submit sequences — including
//! requests whose cycles run backwards (the engine's shared stage does not
//! submit in cycle order) and queues far deeper than the walker count —
//! and must agree on every completion cycle and on the final stats.

use proptest::prelude::*;
use vmem::{Vpn, WalkerPool, WalkerStats};

/// Reference model: the linear in-flight list.
struct LinearPool {
    free_at: Vec<u64>,
    in_flight: Vec<(Vpn, u64)>,
    stats: WalkerStats,
    /// Coverage: the largest the in-flight list grew.
    max_len: usize,
    /// Coverage: walks removed by prunes.
    pruned: u64,
    /// Coverage: walks of a VPN whose earlier walk was still indexed but
    /// finished (the indexed pool's heap keeps a stale entry for it).
    rewalks: u64,
}

impl LinearPool {
    fn new(walkers: usize) -> Self {
        LinearPool {
            free_at: vec![0; walkers],
            in_flight: Vec::new(),
            stats: WalkerStats::default(),
            max_len: 0,
            pruned: 0,
            rewalks: 0,
        }
    }

    fn submit_with_latency(&mut self, cycle: u64, vpn: Vpn, latency: u64) -> u64 {
        if self.in_flight.len() > 4 * self.free_at.len() {
            let before = self.in_flight.len();
            self.in_flight.retain(|&(_, done)| done > cycle);
            self.pruned += (before - self.in_flight.len()) as u64;
        }
        let slot = self.in_flight.iter().position(|&(v, _)| v == vpn);
        if let Some(i) = slot {
            let done = self.in_flight[i].1;
            if done > cycle {
                self.stats.coalesced += 1;
                return done;
            }
        }
        let (idx, &start) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| c)
            .unwrap();
        let begin = start.max(cycle);
        let wait = begin - cycle;
        let done = begin + latency;
        self.free_at[idx] = done;
        match slot {
            Some(i) => {
                self.in_flight[i].1 = done;
                self.rewalks += 1;
            }
            None => self.in_flight.push((vpn, done)),
        }
        self.max_len = self.max_len.max(self.in_flight.len());
        self.stats.walks += 1;
        self.stats.queue_wait_cycles += wait;
        self.stats.max_queue_wait = self.stats.max_queue_wait.max(wait);
        done
    }
}

/// One submit: cycle advance, how far the request lags behind the
/// advancing cycle (0 = in order), VPN, latency.
type Op = (u64, u64, u64, u64);

/// Replays `ops` on both pools and asserts they agree on every completion
/// and on the final stats. Returns the stats for coverage checks.
fn replay(walkers: usize, vpns: u64, ops: &[Op]) -> WalkerStats {
    replay_with_reference(walkers, vpns, ops).stats
}

/// [`replay`], returning the reference model for its coverage counters.
fn replay_with_reference(walkers: usize, vpns: u64, ops: &[Op]) -> LinearPool {
    let mut fast = WalkerPool::new(walkers, 500);
    let mut reference = LinearPool::new(walkers);
    let mut now = 0u64;
    for (i, &(step, lag, vpn, latency)) in ops.iter().enumerate() {
        now += step;
        let cycle = now.saturating_sub(lag);
        let vpn = Vpn::new(vpn % vpns);
        let got = fast.submit_with_latency(cycle, vpn, latency);
        let want = reference.submit_with_latency(cycle, vpn, latency);
        assert_eq!(
            got, want,
            "submit {i} (cycle {cycle}, {vpn:?}, latency {latency}) with {walkers} walkers"
        );
    }
    assert_eq!(fast.stats(), reference.stats);
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random sequences over a small VPN space (forcing coalescing and
    /// stale-entry refreshes), with about a third of the requests lagging
    /// behind the cycle front.
    #[test]
    fn indexed_pool_matches_linear_reference(
        walkers in 1usize..=8,
        vpns in 1u64..48,
        ops in collection::vec(
            (
                0u64..40,
                prop_oneof![Just(0u64), Just(0u64), 0u64..3000],
                0u64..1_000,
                1u64..=600,
            ),
            1..600,
        ),
    ) {
        let s = replay(walkers, vpns, &ops);
        prop_assert_eq!(s.requests(), ops.len() as u64);
        prop_assert!(s.check().is_ok());
    }

    /// Deep oversubscription: bursts at nearly the same cycle keep
    /// hundreds of walks queued behind few walkers, so every submit runs
    /// a prune.
    #[test]
    fn indexed_pool_matches_linear_reference_when_oversubscribed(
        walkers in 1usize..=8,
        ops in collection::vec((0u64..2, 0u64..50, 0u64..100_000, 100u64..=600), 200..800),
    ) {
        let s = replay(walkers, 4096, &ops);
        prop_assert!(s.max_queue_wait > 0);
    }
}

/// A long fixed sequence exercising every branch at once: thousands of
/// submits, half of them out of order, over a VPN space of 64 pages.
#[test]
fn long_mixed_sequence_matches_reference() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let ops: Vec<Op> = (0..20_000)
        .map(|_| {
            let r = next();
            let lag = if r & 1 == 0 { (r >> 8) % 4000 } else { 0 };
            (r >> 1 & 7, lag, (r >> 24) % 64, 1 + (r >> 40) % 600)
        })
        .collect();
    let s = replay(8, 64, &ops);
    assert!(s.coalesced > 0 && s.walks > 0 && s.max_queue_wait > 0);
}

/// Prune-heavy script for the flat index. Each wave:
/// - the front jumps past every completion, so the next prune empties
///   the table through backshift deletes;
/// - a quiet phase re-walks six VPNs, each after its last walk finished,
///   below the prune threshold, so finished entries are overwritten and
///   their heap entries go stale;
/// - a burst of a few hundred VPNs (the six among them) queues behind
///   two walkers, growing the index far past its initial slot count,
///   with a quarter of the requests lagging behind the front. Its first
///   prunes pop the stale entries while the latest re-walks are still
///   in flight, and later burst requests must coalesce onto those.
#[test]
fn prune_heavy_waves_match_reference() {
    let mut x = 0x6a09_e667_f3bc_c908u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut ops: Vec<Op> = Vec::new();
    for wave in 0..12u64 {
        // Jump the front past the previous wave's queue.
        ops.push((400_000, 0, 1_000_000 + wave, 500));
        for _ in 0..40 {
            let r = next();
            ops.push((400, 0, (r >> 24) % 6, 100 + (r >> 40) % 500));
        }
        for _ in 0..300 {
            let r = next();
            let lag = if r & 3 == 0 { (r >> 8) % 3000 } else { 0 };
            ops.push((r >> 2 & 3, lag, (r >> 24) % 400, 100 + (r >> 40) % 500));
        }
    }
    let reference = replay_with_reference(2, u64::MAX, &ops);
    assert!(
        // The indexed pool starts with 64 slots and keeps them at most
        // half full, so this forces at least two doublings.
        reference.max_len > 64,
        "index peaked at {} entries; the script must outgrow the initial table",
        reference.max_len
    );
    assert!(
        reference.pruned > 1_000,
        "only {} walks pruned",
        reference.pruned
    );
    assert!(
        reference.rewalks > 100,
        "only {} finished VPNs re-walked",
        reference.rewalks
    );
    assert!(reference.stats.coalesced > 0);
}

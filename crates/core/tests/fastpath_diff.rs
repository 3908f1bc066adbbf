//! Differential proof that the lookup memo is *exact* in every TLB
//! organization that has one: `SetAssocTlb`, `CompressedTlb` and
//! `PartitionedTlb`. Each runs as a memo-on twin and a memo-off twin
//! (`set_fastpath(false)`, the reference) driven by the same random
//! stream of multi-app lookups and inserts, flushes, TB finishes and
//! concurrency changes. After every step the twins must agree on the
//! outcome, the aggregate and per-ASID stats, the resident contents
//! (`probe`) and the full dumped state (LRU stamps, runs, sharing flags
//! and owners included), and both must pass `check_invariants`. Any
//! divergence, such as a stale memo serving an evicted entry, a skipped
//! LRU touch or a missed stats update, fails here long before it could
//! perturb a simulation.
//!
//! A second stream pairs every lookup with the fill for the same key
//! and puts other traffic and TB events between the two, so the
//! partitioned TLB's miss hint (a fill right after the miss for the same
//! app, page and TB skips its refresh probe) is checked against the same
//! memo-off reference, which never uses the hint.
//!
//! The test lives in `core` because `tlb` cannot see `PartitionedTlb`.

use orchestrated_tlb::{PartitionedTlb, PartitionedTlbConfig, SharingPolicy};
use proptest::prelude::*;
use tlb::{
    CompressedTlb, CompressionConfig, SetAssocTlb, TlbConfig, TlbRequest, TranslationBuffer,
};
use vmem::{Asid, Ppn, Vpn};

/// Address spaces in the stream.
const ASIDS: u16 = 3;
/// VPNs in the stream: a narrow range maximizes refresh collisions.
const VPNS: u64 = 64;

/// One step of the driving stream. Lookup dominates (the memo's producer
/// and consumer); inserts churn residency, runs and sharing flags; TB
/// events re-home entries and reset flags; flush wipes everything. The
/// organizations without TB slots ignore the slot and the TB events.
#[derive(Clone, Debug)]
enum Op {
    Lookup(u16, u64, u8),
    /// Repeats the latest lookup, as a warp re-touching its page does:
    /// the memo serves it unless an op in between staled the hint.
    Again,
    Insert(u16, u64, u8, u64),
    TbFinish(u16, u8),
    SetTbs(u8),
    Flush,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let lookup = || (0..ASIDS, 0..VPNS, 0u8..8).prop_map(|(a, v, t)| Op::Lookup(a, v, t));
    // A few hot pages on two TB slots, so their entries and the hints
    // pointing at them are evicted, spilled and refilled often.
    let hot = || (0..ASIDS, 0u64..4, 0u8..2).prop_map(|(a, v, t)| Op::Lookup(a, v, t));
    // The compat `prop_oneof!` is unweighted; repeating arms biases the
    // stream toward the path under test. Inserts come with a scattered
    // frame (often not expressible as a run member) or a contiguous one
    // (the frame follows the VPN, so runs compress).
    let op = prop_oneof![
        lookup(),
        hot(),
        hot(),
        Just(Op::Again),
        Just(Op::Again),
        (0..ASIDS, 0..VPNS, 0u8..8, 0u64..16).prop_map(|(a, v, t, p)| Op::Insert(a, v, t, p)),
        (0..ASIDS, 0..VPNS, 0u8..8).prop_map(|(a, v, t)| Op::Insert(a, v, t, v + 64)),
        (0..ASIDS, 0u64..4, 0u8..2, 0u64..16).prop_map(|(a, v, t, p)| Op::Insert(a, v, t, p)),
        (0..ASIDS, 0u8..8).prop_map(|(a, t)| Op::TbFinish(a, t)),
        (0..ASIDS, 0u8..3).prop_map(|(a, t)| Op::TbFinish(a, t)),
        (1u8..9).prop_map(Op::SetTbs),
        Just(Op::Flush),
    ];
    proptest::collection::vec(op, 1..300)
}

/// Lookup-then-fill pairs for one key, with zero to three ops between
/// the two. Most gap ops touch the pair's own page from another TB slot
/// or another app (the keys the hint must not be mistaken for); the rest
/// are unrelated lookups, TB finishes, concurrency changes and flushes.
/// An empty gap is the path the miss hint serves; every other gap must
/// invalidate the hint or leave it true.
fn miss_fill_pairs() -> impl Strategy<Value = Vec<Op>> {
    let gap = prop_oneof![
        Just(Vec::new()),
        Just(Vec::new()),
        proptest::collection::vec((0u8..8, 1u8..8, 0u64..16), 1..4),
    ];
    let pair = (0..ASIDS, 0u64..16, 0u8..8, gap, 0u64..32).prop_map(|(a, v, t, gap, p)| {
        // Half the fills follow the VPN (runs compress), half scatter.
        let fill = |p: u64| if p < 16 { p } else { v + 64 };
        let other_slot = |d: u8| (t + d) % 8;
        let other_app = |d: u8| (a + u16::from(d)) % ASIDS;
        let mut ops = vec![Op::Lookup(a, v, t)];
        ops.extend(gap.into_iter().map(|(kind, d, x)| match kind {
            0 => Op::Lookup(a, v, other_slot(d)),
            1 => Op::Insert(a, v, other_slot(d), fill(x)),
            2 => Op::Lookup(other_app(d), v, t),
            3 => Op::Insert(other_app(d), v, t, fill(x)),
            4 => Op::Lookup(other_app(d), x, d),
            5 => Op::TbFinish(other_app(d), d),
            6 => Op::SetTbs(d + 1),
            _ => Op::Flush,
        }));
        ops.push(Op::Insert(a, v, t, fill(p)));
        ops
    });
    proptest::collection::vec(pair, 1..120).prop_map(|pairs| pairs.concat())
}

/// Replaces each [`Op::Again`] with the lookup it repeats (dropping those
/// before the first lookup).
fn resolve(stream: &[Op]) -> Vec<Op> {
    let mut last = None;
    stream
        .iter()
        .filter_map(|op| match op {
            Op::Again => last.clone(),
            Op::Lookup(..) => {
                last = Some(op.clone());
                last.clone()
            }
            _ => Some(op.clone()),
        })
        .collect()
}

fn req(asid: u16, vpn: u64, tb: u8) -> TlbRequest {
    TlbRequest::new(Vpn::new(vpn), tb).with_asid(Asid::new(asid))
}

/// Applies one op to both twins and asserts bit-equality of everything
/// observable after it.
fn step<T: TranslationBuffer>(fast: &mut T, slow: &mut T, op: &Op) {
    let (asid, tb) = match *op {
        Op::Lookup(a, v, tb) => {
            let r = req(a, v, tb);
            assert_eq!(fast.lookup(&r), slow.lookup(&r), "{op:?} diverged");
            (a, tb)
        }
        Op::Insert(a, v, tb, p) => {
            let r = req(a, v, tb);
            fast.insert(&r, Ppn::new(p));
            slow.insert(&r, Ppn::new(p));
            (a, tb)
        }
        Op::TbFinish(a, tb) => {
            fast.on_tb_finish(Asid::new(a), tb);
            slow.on_tb_finish(Asid::new(a), tb);
            (a, tb)
        }
        Op::SetTbs(n) => {
            fast.set_concurrent_tbs(n);
            slow.set_concurrent_tbs(n);
            (0, 0)
        }
        Op::Flush => {
            fast.flush();
            slow.flush();
            (0, 0)
        }
        Op::Again => unreachable!("resolved before stepping"),
    };
    assert_eq!(fast.stats(), slow.stats(), "{op:?}: stats diverged");
    assert_eq!(
        fast.stats_by_asid(),
        slow.stats_by_asid(),
        "{op:?}: per-ASID stats diverged"
    );
    // Resident contents as the op's app and TB see them, probed
    // non-perturbingly where the organization supports it.
    for v in 0..VPNS {
        let r = req(asid, v, tb);
        assert_eq!(
            fast.probe(&r),
            slow.probe(&r),
            "{op:?}: resident state diverged at {r:?}"
        );
    }
    assert_eq!(
        fast.dump_state(),
        slow.dump_state(),
        "{op:?}: state diverged"
    );
    fast.check_invariants()
        .unwrap_or_else(|v| panic!("memo-on twin after {op:?}: {v}"));
    slow.check_invariants()
        .unwrap_or_else(|v| panic!("memo-off twin after {op:?}: {v}"));
}

/// Drives `fast` and its memo-off twin `slow` through `stream`.
fn assert_exact<T: TranslationBuffer>(mut fast: T, mut slow: T, stream: &[Op]) {
    for op in stream {
        step(&mut fast, &mut slow, op);
    }
    assert_eq!(
        slow.fastpath_hits(),
        0,
        "the memo-off twin served from its memo"
    );
}

/// The organizations under test, as fresh memo-on / memo-off twins. Tiny
/// geometries maximize evictions, spills and flag churn: everything that
/// could silently stale a memo.
fn set_assoc_twins() -> (SetAssocTlb, SetAssocTlb) {
    let fast = SetAssocTlb::new(TlbConfig::new(8, 2, 1));
    let mut slow = fast.clone();
    slow.set_fastpath(false);
    (fast, slow)
}

fn compressed_twins(degree: usize) -> (CompressedTlb, CompressedTlb) {
    let cfg = CompressionConfig {
        degree,
        decompress_latency: 1,
    };
    let fast = CompressedTlb::new(TlbConfig::new(8, 2, 1), cfg);
    let mut slow = fast.clone();
    slow.set_fastpath(false);
    (fast, slow)
}

fn partitioned_twins(
    sharing: SharingPolicy,
    compression: Option<CompressionConfig>,
) -> (PartitionedTlb, PartitionedTlb) {
    let mut fast = PartitionedTlb::new(PartitionedTlbConfig {
        geometry: TlbConfig::new(16, 2, 1),
        sharing,
        per_set_lookup_overhead: true,
        displacement_margin: 8,
        compression,
    });
    fast.set_concurrent_tbs(8);
    let mut slow = fast.clone();
    slow.set_fastpath(false);
    (fast, slow)
}

proptest! {
    /// Memo lookup ≡ tag walk in every organization and configuration,
    /// down to the last LRU stamp, on one shared stream.
    #[test]
    fn memo_is_exact_in_every_organization(stream in ops()) {
        let stream = resolve(&stream);
        let (fast, slow) = set_assoc_twins();
        assert_exact(fast, slow, &stream);
        for degree in [2, 4, 8] {
            let (fast, slow) = compressed_twins(degree);
            assert_exact(fast, slow, &stream);
        }
        for sharing in [
            SharingPolicy::None,
            SharingPolicy::Adjacent,
            SharingPolicy::AdjacentCounter { threshold: 2 },
            SharingPolicy::AllToAll,
        ] {
            for compression in [None, Some(CompressionConfig::pact20())] {
                let (fast, slow) = partitioned_twins(sharing, compression);
                assert_exact(fast, slow, &stream);
            }
        }
    }

    /// The miss hint is exact: a fill that skips its refresh probe leaves
    /// the same state as one that probes, whatever ran between the miss
    /// and the fill, with compression on and off.
    #[test]
    fn miss_hint_is_exact_across_interleavings(stream in miss_fill_pairs()) {
        for sharing in [
            SharingPolicy::None,
            SharingPolicy::Adjacent,
            SharingPolicy::AdjacentCounter { threshold: 2 },
            SharingPolicy::AllToAll,
        ] {
            for compression in [None, Some(CompressionConfig::pact20())] {
                let (fast, slow) = partitioned_twins(sharing, compression);
                assert_exact(fast, slow, &stream);
            }
        }
    }
}

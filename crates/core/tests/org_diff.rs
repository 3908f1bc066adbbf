//! Differential test of the three TLB organizations the oracle does not
//! model: `CompressedTlb`, `SubEntryTlb` and `WayPartitionedTlb`.
//!
//! Each is checked against an array-of-structs reference below: one
//! struct per way (validity, ASID, VPN, payload and LRU stamp side by
//! side), written as the organizations were before they shared a way
//! array, with the lookup memo, the invariant checks and the dumps left
//! out. Both are driven by the same random stream of lookups and fills
//! from three address spaces (flushes, remaps to a new frame, frames that
//! underflow a run's base, TB slots and concurrency changes included).
//! After every op they must agree on the outcome, the aggregate and
//! per-ASID stats, the resident translation at the op's key (wherever
//! the organization supports `probe`) and every counter the organization
//! reports; the organization must also pass `check_invariants`.
//!
//! The way-partitioned leg drives one address space: its reference
//! compares VPNs alone, as the organization did before its tags carried
//! the ASID.

use orchestrated_tlb::WayPartitionedTlb;
use proptest::prelude::*;
use tlb::{
    first_min, recency_key, CompressedTlb, CompressionConfig, PerAsidStats, SubEntryTlb, TlbConfig,
    TlbOutcome, TlbRequest, TlbStats, TranslationBuffer,
};
use vmem::{Asid, Ppn, Vpn};

/// Address spaces in the multi-app streams.
const ASIDS: u16 = 3;
/// VPNs in the stream: a narrow range keeps runs and sets colliding.
const VPNS: u64 = 48;

#[derive(Clone, Debug)]
enum Op {
    Lookup(u16, u64, u8),
    Insert(u16, u64, u8, u64),
    SetTbs(u8),
    Flush,
}

/// A stream over `asids` address spaces. Fills come with a small frame
/// (below the page's run offset often enough to take the literal path),
/// a frame that follows the VPN (runs compress) or a frame a fixed
/// stride away (a remap of a resident contiguous page).
fn ops(asids: u16) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0..asids, 0..VPNS, 0u8..8).prop_map(|(a, v, t)| Op::Lookup(a, v, t)),
        (0..asids, 0..VPNS, 0u8..8).prop_map(|(a, v, t)| Op::Lookup(a, v, t)),
        (0..asids, 0u64..6, 0u8..4).prop_map(|(a, v, t)| Op::Lookup(a, v, t)),
        (0..asids, 0..VPNS, 0u8..8, 0u64..8).prop_map(|(a, v, t, p)| Op::Insert(a, v, t, p)),
        (0..asids, 0..VPNS, 0u8..8).prop_map(|(a, v, t)| Op::Insert(a, v, t, v + 64)),
        (0..asids, 0..VPNS, 0u8..8).prop_map(|(a, v, t)| Op::Insert(a, v, t, v + 64)),
        (0..asids, 0..VPNS, 0u8..8).prop_map(|(a, v, t)| Op::Insert(a, v, t, v + 512)),
        (0..asids, 0u64..6, 0u8..4, 0u64..4).prop_map(|(a, v, t, p)| Op::Insert(a, v, t, p)),
        (1u8..9).prop_map(Op::SetTbs),
        Just(Op::Flush),
    ];
    proptest::collection::vec(op, 1..300)
}

fn req(asid: u16, vpn: u64, tb: u8) -> TlbRequest {
    TlbRequest::new(Vpn::new(vpn), tb).with_asid(Asid::new(asid))
}

/// The per-ASID stats with all-zero rows dropped: a single-tenant
/// organization may report its idle ASID 0 row or leave it out.
fn nonzero(rows: Vec<(Asid, TlbStats)>) -> Vec<(Asid, TlbStats)> {
    rows.into_iter()
        .filter(|(_, s)| *s != TlbStats::default())
        .collect()
}

/// A reference organization: the plain operations plus a non-perturbing
/// probe and the counters its organization reports.
trait Reference {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome;
    fn insert(&mut self, req: &TlbRequest, ppn: Ppn);
    fn flush(&mut self);
    fn set_concurrent_tbs(&mut self, _tbs: u8) {}
    fn stats(&self) -> TlbStats;
    fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)>;
    fn peek(&self, req: &TlbRequest) -> Option<Ppn>;
}

/// Applies `stream` to `org` and `reference` in lockstep; `counters`
/// reads the organization-specific counters of each side.
fn run<T: TranslationBuffer, R: Reference, C: PartialEq + std::fmt::Debug>(
    mut org: T,
    mut reference: R,
    stream: &[Op],
    counters: impl Fn(&T, &R) -> (C, C),
) {
    for (i, op) in stream.iter().enumerate() {
        let key = match *op {
            Op::Lookup(a, v, t) => {
                let r = req(a, v, t);
                assert_eq!(org.lookup(&r), reference.lookup(&r), "op {i} {op:?}");
                Some(r)
            }
            Op::Insert(a, v, t, p) => {
                let r = req(a, v, t);
                org.insert(&r, Ppn::new(p));
                reference.insert(&r, Ppn::new(p));
                Some(r)
            }
            Op::SetTbs(n) => {
                org.set_concurrent_tbs(n);
                reference.set_concurrent_tbs(n);
                None
            }
            Op::Flush => {
                org.flush();
                reference.flush();
                None
            }
        };
        assert_eq!(org.stats(), reference.stats(), "op {i} {op:?}: stats");
        assert_eq!(
            nonzero(org.stats_by_asid()),
            nonzero(reference.stats_by_asid()),
            "op {i} {op:?}: per-ASID stats"
        );
        if let Some(r) = key {
            if let Some(got) = org.probe(&r) {
                assert_eq!(got, reference.peek(&r), "op {i} {op:?}: resident");
            }
        }
        let (got, want) = counters(&org, &reference);
        assert_eq!(got, want, "op {i} {op:?}: counters");
        if let Err(v) = org.check_invariants() {
            panic!("op {i} {op:?}: {v}");
        }
    }
}

/// Victim among `(valid, stamp)` ways: an invalid way first, then the
/// oldest stamp, then the first way.
fn lru(ways: impl Iterator<Item = (usize, bool, u64)>) -> usize {
    first_min(ways.map(|(w, valid, stamp)| (w, recency_key(valid, stamp)))).expect("ways")
}

// ---------------------------------------------------------------------
// CompressedTlb reference.

#[derive(Copy, Clone, Debug, Default)]
struct CompressedWay {
    valid: bool,
    asid: Asid,
    base_vpn: Vpn,
    base_ppn: Ppn,
    mask: u32,
    literal: bool,
    stamp: u64,
}

impl CompressedWay {
    fn holds(&self, asid: Asid, base: Vpn, off: u32) -> bool {
        self.valid && self.asid == asid && self.base_vpn == base && self.mask & (1 << off) != 0
    }
}

struct RefCompressed {
    config: TlbConfig,
    compression: CompressionConfig,
    ways: Vec<CompressedWay>,
    clock: u64,
    stats: TlbStats,
    per_asid: PerAsidStats,
    compressed_fills: u64,
    occupied: usize,
    resident: u32,
}

impl RefCompressed {
    fn new(config: TlbConfig, compression: CompressionConfig) -> Self {
        RefCompressed {
            config,
            compression,
            ways: vec![CompressedWay::default(); config.entries],
            clock: 0,
            stats: TlbStats::default(),
            per_asid: PerAsidStats::default(),
            compressed_fills: 0,
            occupied: 0,
            resident: 0,
        }
    }

    fn run_base(&self, vpn: Vpn) -> Vpn {
        Vpn::new(vpn.raw() & !(self.compression.degree as u64 - 1))
    }

    fn run_offset(&self, vpn: Vpn) -> u32 {
        (vpn.raw() & (self.compression.degree as u64 - 1)) as u32
    }

    fn set_range(&self, vpn: Vpn) -> std::ops::Range<usize> {
        let run = vpn.raw() / self.compression.degree as u64;
        let set = (run % self.config.sets() as u64) as usize;
        let a = self.config.associativity;
        set * a..(set + 1) * a
    }

    fn insert_singleton(&mut self, asid: Asid, vpn: Vpn, ppn: Ppn) {
        self.clock += 1;
        let range = self.set_range(vpn);
        let base = self.run_base(vpn);
        let off = self.run_offset(vpn);
        self.clear_page(range.clone(), asid, base, off, |_| true);
        let stamp = self.clock;
        self.allocate(
            range,
            CompressedWay {
                valid: true,
                asid,
                base_vpn: base,
                base_ppn: ppn,
                mask: 1 << off,
                literal: true,
                stamp,
            },
        );
    }

    fn clear_page(
        &mut self,
        range: std::ops::Range<usize>,
        asid: Asid,
        base: Vpn,
        off: u32,
        stale: impl Fn(&CompressedWay) -> bool,
    ) {
        for way in &mut self.ways[range] {
            if way.holds(asid, base, off) && stale(way) {
                way.mask &= !(1 << off);
                self.resident -= 1;
                if way.mask == 0 {
                    way.valid = false;
                    self.occupied -= 1;
                }
            }
        }
    }

    fn allocate(&mut self, range: std::ops::Range<usize>, entry: CompressedWay) {
        self.stats.insertions += 1;
        self.per_asid.entry(entry.asid).insertions += 1;
        let widx = lru(range.map(|w| (w, self.ways[w].valid, self.ways[w].stamp)));
        let victim = self.ways[widx];
        if victim.valid {
            self.stats.evictions += 1;
            self.resident -= victim.mask.count_ones();
            self.per_asid.entry(victim.asid).evictions += 1;
        } else {
            self.occupied += 1;
        }
        self.resident += 1;
        self.ways[widx] = entry;
    }
}

impl Reference for RefCompressed {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        self.clock += 1;
        let base = self.run_base(req.vpn);
        let off = self.run_offset(req.vpn);
        let range = self.set_range(req.vpn);
        let Some(w) = range
            .clone()
            .find(|&w| self.ways[w].holds(req.asid, base, off))
        else {
            self.stats.record(false);
            self.per_asid.entry(req.asid).record(false);
            return TlbOutcome::miss(self.config.lookup_latency);
        };
        let way = &mut self.ways[w];
        way.stamp = self.clock;
        self.stats.record(true);
        self.per_asid.entry(req.asid).record(true);
        let ppn = if way.literal {
            way.base_ppn
        } else {
            Ppn::new(way.base_ppn.raw() + off as u64)
        };
        let decompress = u64::from(way.mask.count_ones() > 1) * self.compression.decompress_latency;
        TlbOutcome::hit(ppn, self.config.lookup_latency + decompress)
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        self.clock += 1;
        let base = self.run_base(req.vpn);
        let off = self.run_offset(req.vpn);
        let Some(expected_base_ppn) = ppn.raw().checked_sub(off as u64) else {
            return self.insert_singleton(req.asid, req.vpn, ppn);
        };
        let range = self.set_range(req.vpn);
        let clock = self.clock;
        self.clear_page(range.clone(), req.asid, base, off, |w| {
            w.literal || w.base_ppn != Ppn::new(expected_base_ppn)
        });
        if let Some(way) = self.ways[range.clone()].iter_mut().find(|w| {
            w.valid
                && !w.literal
                && w.asid == req.asid
                && w.base_vpn == base
                && w.base_ppn == Ppn::new(expected_base_ppn)
        }) {
            if way.mask & (1 << off) == 0 {
                way.mask |= 1 << off;
                self.compressed_fills += 1;
                self.resident += 1;
            }
            way.stamp = clock;
            return;
        }
        self.allocate(
            range,
            CompressedWay {
                valid: true,
                asid: req.asid,
                base_vpn: base,
                base_ppn: Ppn::new(expected_base_ppn),
                mask: 1 << off,
                literal: false,
                stamp: clock,
            },
        );
    }

    fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
            w.mask = 0;
        }
        self.occupied = 0;
        self.resident = 0;
    }

    fn stats(&self) -> TlbStats {
        self.stats
    }

    fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        self.per_asid.non_empty()
    }

    fn peek(&self, req: &TlbRequest) -> Option<Ppn> {
        let base = self.run_base(req.vpn);
        let off = self.run_offset(req.vpn);
        let way = self.ways[self.set_range(req.vpn)]
            .iter()
            .find(|w| w.holds(req.asid, base, off))?;
        Some(if way.literal {
            way.base_ppn
        } else {
            Ppn::new(way.base_ppn.raw() + off as u64)
        })
    }
}

// ---------------------------------------------------------------------
// SubEntryTlb reference.

#[derive(Copy, Clone, Debug, Default)]
struct SubSlot {
    valid: bool,
    asid: Asid,
    ppn: Ppn,
}

#[derive(Clone, Debug)]
struct SubWay {
    valid: bool,
    vpn: Vpn,
    stamp: u64,
    next_victim: u8,
    slots: Vec<SubSlot>,
}

impl SubWay {
    fn live_subs(&self) -> usize {
        self.slots.iter().filter(|s| s.valid).count()
    }

    fn slot_of(&self, asid: Asid) -> Option<usize> {
        self.slots.iter().position(|s| s.valid && s.asid == asid)
    }
}

struct RefSubEntry {
    config: TlbConfig,
    subs: usize,
    ways: Vec<SubWay>,
    clock: u64,
    stats: TlbStats,
    per_asid: PerAsidStats,
    shared_hits: u64,
    sub_conflicts: u64,
}

impl RefSubEntry {
    fn new(config: TlbConfig, subs: usize) -> Self {
        let empty = SubWay {
            valid: false,
            vpn: Vpn::default(),
            stamp: 0,
            next_victim: 0,
            slots: vec![SubSlot::default(); subs],
        };
        RefSubEntry {
            config,
            subs,
            ways: vec![empty; config.entries],
            clock: 0,
            stats: TlbStats::default(),
            per_asid: PerAsidStats::default(),
            shared_hits: 0,
            sub_conflicts: 0,
        }
    }

    fn set_range(&self, vpn: Vpn) -> std::ops::Range<usize> {
        let set = (vpn.raw() % self.config.sets() as u64) as usize;
        let a = self.config.associativity;
        set * a..(set + 1) * a
    }

    fn resident_of(&self, asid: Asid) -> usize {
        self.ways
            .iter()
            .filter(|w| w.valid)
            .flat_map(|w| w.slots.iter())
            .filter(|s| s.valid && s.asid == asid)
            .count()
    }

    fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

impl Reference for RefSubEntry {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        self.clock += 1;
        let range = self.set_range(req.vpn);
        let clock = self.clock;
        if let Some(way) = self.ways[range]
            .iter_mut()
            .find(|w| w.valid && w.vpn == req.vpn)
        {
            if let Some(i) = way.slot_of(req.asid) {
                way.stamp = clock;
                if way.live_subs() > 1 {
                    self.shared_hits += 1;
                }
                self.stats.record(true);
                self.per_asid.entry(req.asid).record(true);
                return TlbOutcome::hit(way.slots[i].ppn, self.config.lookup_latency);
            }
        }
        self.stats.record(false);
        self.per_asid.entry(req.asid).record(false);
        TlbOutcome::miss(self.config.lookup_latency)
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        self.clock += 1;
        let range = self.set_range(req.vpn);
        let clock = self.clock;
        if let Some(wi) = self.ways[range.clone()]
            .iter()
            .position(|w| w.valid && w.vpn == req.vpn)
        {
            let widx = range.start + wi;
            if let Some(i) = self.ways[widx].slot_of(req.asid) {
                self.ways[widx].slots[i].ppn = ppn;
                self.ways[widx].stamp = clock;
                return;
            }
            self.stats.insertions += 1;
            self.per_asid.entry(req.asid).insertions += 1;
            let slot = if let Some(free) = self.ways[widx].slots.iter().position(|s| !s.valid) {
                free
            } else {
                let v = self.ways[widx].next_victim as usize % self.subs;
                self.ways[widx].next_victim = ((v + 1) % self.subs) as u8;
                let victim_asid = self.ways[widx].slots[v].asid;
                self.stats.evictions += 1;
                self.per_asid.entry(victim_asid).evictions += 1;
                self.sub_conflicts += 1;
                v
            };
            self.ways[widx].slots[slot] = SubSlot {
                valid: true,
                asid: req.asid,
                ppn,
            };
            self.ways[widx].stamp = clock;
            return;
        }
        self.stats.insertions += 1;
        self.per_asid.entry(req.asid).insertions += 1;
        let widx = lru(range.map(|w| (w, self.ways[w].valid, self.ways[w].stamp)));
        if self.ways[widx].valid {
            for victim in self.ways[widx].slots.iter().filter(|s| s.valid) {
                self.stats.evictions += 1;
                self.per_asid.entry(victim.asid).evictions += 1;
            }
        }
        let way = &mut self.ways[widx];
        way.valid = true;
        way.vpn = req.vpn;
        way.stamp = clock;
        way.next_victim = 0;
        for s in &mut way.slots {
            s.valid = false;
        }
        way.slots[0] = SubSlot {
            valid: true,
            asid: req.asid,
            ppn,
        };
    }

    fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
            for s in &mut w.slots {
                s.valid = false;
            }
        }
    }

    fn stats(&self) -> TlbStats {
        self.stats
    }

    fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        self.per_asid.non_empty()
    }

    fn peek(&self, req: &TlbRequest) -> Option<Ppn> {
        self.ways[self.set_range(req.vpn)]
            .iter()
            .find(|w| w.valid && w.vpn == req.vpn)
            .and_then(|w| w.slot_of(req.asid).map(|i| w.slots[i].ppn))
    }
}

// ---------------------------------------------------------------------
// WayPartitionedTlb reference (ASID-blind: one address space only).

#[derive(Copy, Clone, Debug, Default)]
struct Way {
    valid: bool,
    vpn: Vpn,
    ppn: Ppn,
    stamp: u64,
}

struct RefWayPartitioned {
    config: TlbConfig,
    ways: Vec<Way>,
    concurrent_tbs: u8,
    clock: u64,
    stats: TlbStats,
}

impl RefWayPartitioned {
    fn new(config: TlbConfig) -> Self {
        RefWayPartitioned {
            ways: vec![Way::default(); config.entries],
            config,
            concurrent_tbs: 16,
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    fn set_range(&self, vpn: Vpn) -> std::ops::Range<usize> {
        let set = (vpn.raw() % self.config.sets() as u64) as usize;
        let a = self.config.associativity;
        set * a..(set + 1) * a
    }

    fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

impl Reference for RefWayPartitioned {
    fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        self.clock += 1;
        let range = self.set_range(req.vpn);
        let clock = self.clock;
        for way in &mut self.ways[range] {
            if way.valid && way.vpn == req.vpn {
                way.stamp = clock;
                self.stats.record(true);
                return TlbOutcome::hit(way.ppn, self.config.lookup_latency);
            }
        }
        self.stats.record(false);
        TlbOutcome::miss(self.config.lookup_latency)
    }

    fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(req.vpn);
        if let Some(way) = self.ways[range.clone()]
            .iter_mut()
            .find(|w| w.valid && w.vpn == req.vpn)
        {
            way.ppn = ppn;
            way.stamp = clock;
            return;
        }
        self.stats.insertions += 1;
        let g = (self.concurrent_tbs as usize).clamp(1, self.config.associativity);
        let owner = req.tb_slot as usize % g;
        let owned = range.filter(|w| w % g == owner);
        let victim = lru(owned.map(|w| (w, self.ways[w].valid, self.ways[w].stamp)));
        if self.ways[victim].valid {
            self.stats.evictions += 1;
        }
        self.ways[victim] = Way {
            valid: true,
            vpn: req.vpn,
            ppn,
            stamp: clock,
        };
    }

    fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
        }
    }

    fn set_concurrent_tbs(&mut self, tbs: u8) {
        self.concurrent_tbs = tbs.max(1);
    }

    fn stats(&self) -> TlbStats {
        self.stats
    }

    fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        vec![(Asid::default(), self.stats)]
    }

    fn peek(&self, req: &TlbRequest) -> Option<Ppn> {
        self.ways[self.set_range(req.vpn)]
            .iter()
            .find(|w| w.valid && w.vpn == req.vpn)
            .map(|w| w.ppn)
    }
}

// ---------------------------------------------------------------------

/// Small geometries keep every set under eviction pressure.
const GEOMETRIES: [(usize, usize); 3] = [(8, 2), (16, 4), (6, 3)];

proptest! {
    #[test]
    fn compressed_matches_its_reference(stream in ops(ASIDS)) {
        for (entries, assoc) in GEOMETRIES {
            for degree in [2, 4, 8] {
                let geometry = TlbConfig::new(entries, assoc, 1);
                let cfg = CompressionConfig { degree, decompress_latency: 1 };
                run(
                    CompressedTlb::new(geometry, cfg),
                    RefCompressed::new(geometry, cfg),
                    &stream,
                    |t, r| (
                        (t.compressed_fills(), t.occupied_entries(), t.resident_translations()),
                        (r.compressed_fills, r.occupied, r.resident),
                    ),
                );
            }
        }
    }

    #[test]
    fn sub_entry_matches_its_reference(stream in ops(ASIDS)) {
        for (entries, assoc) in GEOMETRIES {
            for subs in [1, 2, 4] {
                let geometry = TlbConfig::new(entries, assoc, 1);
                run(
                    SubEntryTlb::new(geometry, subs),
                    RefSubEntry::new(geometry, subs),
                    &stream,
                    |t, r| {
                        let of = |f: &dyn Fn(Asid) -> usize| {
                            (0..ASIDS).map(|a| f(Asid::new(a))).collect::<Vec<_>>()
                        };
                        (
                            (t.shared_hits(), t.sub_conflicts(), t.occupancy(),
                             of(&|a| t.resident_of(a))),
                            (r.shared_hits, r.sub_conflicts, r.occupancy(),
                             of(&|a| r.resident_of(a))),
                        )
                    },
                );
            }
        }
    }

    #[test]
    fn way_partitioned_matches_its_reference(stream in ops(1)) {
        for (entries, assoc) in GEOMETRIES {
            let geometry = TlbConfig::new(entries, assoc, 1);
            run(
                WayPartitionedTlb::new(geometry),
                RefWayPartitioned::new(geometry),
                &stream,
                |t, r| (t.occupancy(), r.occupancy()),
            );
        }
    }
}

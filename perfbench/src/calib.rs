//! The host's speed at the moment, from a fixed reference workload timed
//! between repetitions.
//!
//! On a shared host the same repetition's time moves by 1.5x or more in
//! regimes lasting seconds to minutes, with what other tenants run on the
//! same physical cores. CPU time moves with it, and no steal time shows:
//! the cores run slower, they are not taken away. So each timed stretch
//! is divided by the time of a reference pass taken just before and just
//! after it. The reference does the kind of work the simulator does
//! (set-associative tag search with LRU update over a few MiB of tables,
//! hash-map traffic, a sort and binary searches) and never changes, so
//! the ratio moves with the simulator's code and far less with the host.
//!
//! On the two-core host the figures come from, one reference pass takes
//! about [`NOMINAL_S`] with the host quiet; a normalised time is the
//! measured time rescaled to that speed (see [`normalised_s`]).

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::clock::Stopwatch;

/// One reference pass's time on a quiet host (Intel Xeon, 2.1 GHz,
/// virtualized, two cores: about the fastest pass seen there). A fixed
/// scale, not a measurement: it turns the ratio of a stretch to the
/// reference back into seconds.
pub const NOMINAL_S: f64 = 0.11;

/// Sets of the reference cache model (8 ways: 2 MiB of tags).
const SETS_LOG2: u32 = 15;
/// Ways per set.
const WAYS: usize = 8;
/// Lookups through the cache model per pass.
const LOOKUPS: u64 = 4_000_000;
/// Keys inserted into, then looked up in, the map and the sorted list.
const KEYS: usize = 200_000;

/// A xorshift generator; the reference's inputs are the same every pass.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// One thread's reference tables, allocated once and reused by every
/// pass, so passes leave nothing behind in the allocator for the peak
/// RSS of the repetitions between them to include.
#[derive(Debug)]
struct Tables {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    hashed: HashMap<u64, u64>,
    sorted: Vec<u64>,
}

impl Tables {
    fn new() -> Self {
        Tables {
            tags: vec![u64::MAX; WAYS << SETS_LOG2],
            stamps: vec![0; WAYS << SETS_LOG2],
            hashed: HashMap::with_capacity(KEYS),
            sorted: Vec::with_capacity(KEYS),
        }
    }

    /// An LRU set-associative cache model over an address stream that
    /// mostly stays near a base and sometimes jumps: a mix of hits and
    /// misses like a TLB's. Returns its hit count.
    fn cache_model(&mut self) -> u64 {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let mut base = 0u64;
        let mut hits = 0u64;
        for i in 0..LOOKUPS {
            let r = rng.next();
            if r & 0xFF == 0 {
                base = r >> 20;
            }
            let page = base.wrapping_add((r >> 8) & ((1 << (SETS_LOG2 + 2)) - 1));
            let hash = (page ^ (page >> 15)).wrapping_mul(0x2545_F491_4F6C_DD1D);
            let first = (hash >> (64 - SETS_LOG2)) as usize * WAYS;
            let ways = first..first + WAYS;
            let stamp = i as u32;
            match self.tags[ways.clone()].iter().position(|&t| t == page) {
                Some(w) => {
                    hits += 1;
                    self.stamps[first + w] = stamp;
                }
                None => {
                    let victim = ways.min_by_key(|&j| self.stamps[j]).unwrap_or(first);
                    self.tags[victim] = page;
                    self.stamps[victim] = stamp;
                }
            }
        }
        hits
    }

    /// Hash-map inserts, a sort, then hash-map lookups and binary
    /// searches. Returns a checksum.
    fn collections(&mut self) -> u64 {
        self.hashed.clear();
        self.sorted.clear();
        let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
        let range = 5 * KEYS as u64;
        for _ in 0..KEYS {
            let k = rng.next() % range;
            self.hashed.insert(k, k);
            self.sorted.push(k);
        }
        self.sorted.sort_unstable();
        let mut sum = 0u64;
        for _ in 0..KEYS {
            let k = rng.next() % range;
            let found = self.sorted.binary_search(&k).map_or(1, |i| i as u64);
            sum = sum
                .wrapping_add(self.hashed.get(&k).copied().unwrap_or(1))
                .wrapping_add(found);
        }
        sum
    }

    /// One reference pass; returns its seconds.
    fn pass(&mut self) -> f64 {
        let t = Stopwatch::start();
        std::hint::black_box(self.cache_model());
        std::hint::black_box(self.collections());
        t.secs()
    }
}

/// A helper thread that runs a reference pass each time it is asked.
#[derive(Debug)]
struct Helper {
    go: Option<Sender<()>>,
    done: Receiver<f64>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn launch() -> Self {
        let (go, go_rx) = channel::<()>();
        let (done_tx, done) = channel();
        // simlint: allow(engine-spawn, reason = "reference passes load the host's cores; they share no state with any simulation")
        let thread = std::thread::spawn(move || {
            let mut tables = Tables::new();
            for () in go_rx {
                if done_tx.send(tables.pass()).is_err() {
                    break;
                }
            }
        });
        Helper {
            go: Some(go),
            done,
            thread: Some(thread),
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        drop(self.go.take()); // ends the thread's loop
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The reference workload, on as many threads as the workload it is
/// compared with uses, so a workload on two cores is compared with both
/// cores' speed. The calling thread runs one pass; helper threads,
/// started once and kept, run the others, so passes neither start
/// threads nor allocate while the workload runs between them.
#[derive(Debug)]
pub struct Reference {
    tables: Tables,
    helpers: Vec<Helper>,
}

impl Reference {
    /// Allocates the tables and starts the helpers for `threads` threads
    /// (at least one).
    pub fn new(threads: usize) -> Self {
        Reference {
            tables: Tables::new(),
            helpers: (1..threads).map(|_| Helper::launch()).collect(),
        }
    }

    /// Runs one pass on every thread at once; returns the mean pass time
    /// in seconds.
    pub fn measure_s(&mut self) -> f64 {
        for go in self.helpers.iter().filter_map(|h| h.go.as_ref()) {
            // A helper that has ended fails its `recv` below.
            let _ = go.send(());
        }
        let mut total = self.tables.pass();
        for h in &self.helpers {
            total += h.done.recv().unwrap_or(f64::NAN);
        }
        total / (1 + self.helpers.len()) as f64
    }
}

/// `measured_s` rescaled from the host speed the references around it
/// show to the nominal speed: `measured_s × NOMINAL_S / mean(refs)`.
pub fn normalised_s(measured_s: f64, ref_before_s: f64, ref_after_s: f64) -> f64 {
    measured_s * NOMINAL_S * 2.0 / (ref_before_s + ref_after_s)
}

/// Times a reference pass between consecutive timed stretches and keeps
/// each repetition's normalised time. A repetition is one stretch (a
/// simulation) or several (a grid pass, one stretch per figure, so the
/// host's speed is sampled every half second or so). A disabled pacer
/// (a warm-up or a traced run, whose end-to-end times are not reported)
/// only adds up the raw times.
#[derive(Debug)]
pub struct Pacer {
    reference: Option<Reference>,
    last_ref_s: Option<f64>,
    rep_raw_s: f64,
    rep_normalised_s: f64,
    /// Every reference pass time, in order.
    pub refs_s: Vec<f64>,
    /// Every finished repetition's normalised time, in order.
    pub normalised_s: Vec<f64>,
}

impl Pacer {
    /// A pacer whose references run on `threads` threads, or one that
    /// times no reference when `enabled` is false.
    pub fn new(threads: usize, enabled: bool) -> Self {
        Pacer {
            reference: enabled.then(|| Reference::new(threads)),
            last_ref_s: None,
            rep_raw_s: 0.0,
            rep_normalised_s: 0.0,
            refs_s: Vec::new(),
            normalised_s: Vec::new(),
        }
    }

    fn measure(&mut self) -> Option<f64> {
        let r = self.reference.as_mut()?.measure_s();
        self.refs_s.push(r);
        Some(r)
    }

    /// Call before a timed stretch: times a reference unless the previous
    /// stretch's closing reference is still the latest thing run.
    pub fn before(&mut self) {
        if self.last_ref_s.is_none() {
            self.last_ref_s = self.measure();
        }
    }

    /// Call after a timed stretch that measured `secs`: times the closing
    /// reference and adds the stretch to the current repetition.
    pub fn add(&mut self, secs: f64) {
        self.rep_raw_s += secs;
        if let Some(before) = self.last_ref_s {
            if let Some(after) = self.measure() {
                self.rep_normalised_s += normalised_s(secs, before, after);
                self.last_ref_s = Some(after);
            }
        }
    }

    /// Runs `f` as one timed stretch between references.
    pub fn stretch<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.before();
        let t = Stopwatch::start();
        let out = f();
        self.add(t.secs());
        out
    }

    /// Ends the current repetition: records its normalised time and
    /// returns its raw seconds.
    pub fn finish(&mut self) -> f64 {
        if self.reference.is_some() {
            self.normalised_s.push(self.rep_normalised_s);
        }
        let raw = self.rep_raw_s;
        self.rep_raw_s = 0.0;
        self.rep_normalised_s = 0.0;
        raw
    }

    /// Drops the current repetition (it failed) and makes the next
    /// stretch time a fresh reference first, since other work ran.
    pub fn discard(&mut self) {
        self.rep_raw_s = 0.0;
        self.rep_normalised_s = 0.0;
        self.last_ref_s = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed() {
        let mut t = Tables::new();
        let (hits, sum) = (t.cache_model(), t.collections());
        assert!(hits > 0);
        assert_eq!((t.cache_model(), t.collections()), (hits, sum));
    }

    #[test]
    fn a_two_thread_reference_times_both_and_stops_its_helper() {
        let mut r = Reference::new(2);
        assert!(r.measure_s() > 0.0);
        assert_eq!(r.helpers.len(), 1);
        drop(r); // joins the helper
    }

    #[test]
    fn normalising_by_a_reference_at_nominal_speed_is_the_identity() {
        assert_eq!(normalised_s(1.5, NOMINAL_S, NOMINAL_S), 1.5);
        // A host running at half speed doubles both times.
        assert!((normalised_s(3.0, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_pacer_only_adds_raw_times() {
        let mut p = Pacer::new(1, false);
        p.before();
        p.add(0.25);
        p.add(0.5);
        assert_eq!(p.finish(), 0.75);
        assert!(p.refs_s.is_empty() && p.normalised_s.is_empty());
    }
}

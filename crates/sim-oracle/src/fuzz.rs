//! The deterministic, coverage-biased workload fuzzer.
//!
//! Everything is a pure function of the seed: configuration choices,
//! scenario selection and every operation come from a `SmallRng` seeded
//! with `seed * 1_000_003 + iteration`, and nothing reads the clock, so
//! a fuzzing campaign is byte-identical across reruns and machines —
//! which is what lets CI assert "zero divergences over seeds 0..N" as a
//! regression test.
//!
//! Rather than sampling uniformly (which would mostly produce traces
//! that never fill a set), each iteration picks one of eight adversarial
//! scenarios aimed at the paper's interesting regimes: TB churn with
//! slot reuse, single-set pressure, neighbour-spill storms, pathological
//! strides, concurrency reshaping, plain uniform churn as a control, and
//! two multi-tenant regimes — cross-app set pressure (several address
//! spaces hammering the same dense VPN range, each mapping it to its own
//! frames) and ASID-striped TB churn (apps interleaved across TB slots
//! with (asid, tb)-keyed finishes).

use crate::case::{Case, EngineCase, ModelKind, Mutation, Op, TraceCase, TraceRef};
use crate::diff::{run_case, Divergence};
use crate::shrink::shrink;
use orchestrated_tlb::{Mechanism, SharingPolicy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::OnceLock;

/// The campaign-wide trace cache directory (`fuzz --trace-cache DIR`).
static TRACE_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Routes every subsequent engine case through an on-disk `trace/v1`
/// cache: `gen_engine` writes (or reuses) the workload's trace file
/// under `dir` and attaches a hash-verified [`TraceRef`], so the
/// engine-equivalence replays stream from disk exactly like a
/// `--trace-cache` grid run. Set-once per process; later calls are
/// ignored.
pub fn set_trace_dir(dir: impl Into<PathBuf>) {
    let _ = TRACE_DIR.set(dir.into());
}

/// Outcome of one fuzzing seed.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzReport {
    /// Operation traces generated and replayed.
    pub traces: u64,
    /// Whole-simulation sanitizer-equivalence cases replayed.
    pub engine_runs: u64,
    /// The first divergence found, already shrunk, with its case.
    pub divergence: Option<(Case, Divergence)>,
}

const GEOMETRIES: [(usize, usize, u64); 5] =
    [(8, 2, 1), (16, 2, 1), (16, 4, 1), (32, 4, 1), (64, 4, 1)];
const SHARINGS: [SharingPolicy; 5] = [
    SharingPolicy::None,
    SharingPolicy::Adjacent,
    SharingPolicy::AdjacentCounter { threshold: 1 },
    SharingPolicy::AdjacentCounter { threshold: 3 },
    SharingPolicy::AllToAll,
];
const MARGINS: [u64; 4] = [0, 2, 64, 512];
const COMPRESSIONS: [Option<(usize, u64)>; 3] = [None, Some((8, 1)), Some((4, 2))];
const CONCURRENCIES: [u8; 7] = [1, 2, 3, 4, 8, 16, 20];

/// Fuzzes one seed: `iters` generated traces (plus one engine case when
/// `engine` is set), stopping at — and shrinking — the first
/// divergence.
pub fn fuzz_seed(seed: u64, iters: u64, mutation: Mutation, engine: bool) -> FuzzReport {
    let mut report = FuzzReport {
        traces: 0,
        engine_runs: 0,
        divergence: None,
    };
    for iter in 0..iters {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(iter));
        let case = Case::Trace(gen_trace(&mut rng, mutation));
        report.traces += 1;
        if let Some(d) = run_case(&case) {
            report.divergence = Some(shrink_divergence(&case, d));
            return report;
        }
    }
    if engine {
        let case = Case::Engine(gen_engine(seed));
        report.engine_runs += 1;
        if let Some(d) = run_case(&case) {
            report.divergence = Some(shrink_divergence(&case, d));
        }
    }
    report
}

/// Shrinks a diverging case while holding the divergence *field* fixed,
/// so op removal cannot morph the failure into an unrelated one (e.g.
/// deleting the picks of an intermediate machine size would splice two
/// counter streams into an impossible regression and trip an invariant
/// instead of the original disagreement).
fn shrink_divergence(case: &Case, d: Divergence) -> (Case, Divergence) {
    let field = d.field.clone();
    let small = shrink(case, |c| {
        run_case(c).is_some_and(|cand| cand.field == field)
    });
    let d = run_case(&small).unwrap_or(d);
    (small, d)
}

/// One whole-simulation case per seed, rotating through the registry
/// and the §V mechanism list. Every fourth seed becomes a co-run case:
/// two or three registry apps sharing the machine under distinct ASIDs
/// (trace streaming does not apply to co-runs, so those regenerate).
fn gen_engine(seed: u64) -> EngineCase {
    let benches = workloads::registry();
    let mechanisms = Mechanism::all();
    let spec = &benches[(seed % benches.len() as u64) as usize];
    let apps = if seed % 4 == 3 {
        let n = benches.len() as u64;
        let width = 2 + (seed / 4 % 2) as usize;
        (0..width)
            .map(|k| benches[((seed + 1 + 3 * k as u64) % n) as usize].name.to_owned())
            .collect()
    } else {
        Vec::new()
    };
    let corun = !apps.is_empty();
    EngineCase {
        bench: spec.name.to_owned(),
        apps,
        mechanism: mechanisms[(seed / benches.len() as u64 % mechanisms.len() as u64) as usize]
            .label()
            .to_owned(),
        sms: [2, 4, 8][(seed % 3) as usize],
        seed,
        trace: if corun { None } else { trace_ref_for(spec, seed) },
    }
}

/// The [`TraceRef`] for an engine case when a trace directory is set:
/// ensures the trace file exists (writing it on first use) and records
/// its content hash. Any disk failure falls back to generated replay
/// with a warning — the campaign's results never depend on the disk.
fn trace_ref_for(spec: &workloads::BenchmarkSpec, seed: u64) -> Option<TraceRef> {
    let dir = TRACE_DIR.get()?;
    let cache = workloads::WorkloadCache::with_disk(dir);
    let ensured = cache
        .ensure_trace_file(spec, workloads::Scale::Test, seed, vmem::PageSize::Small)
        .and_then(|path| Ok((workloads::format::file_hash(&path)?, path)));
    match ensured {
        Ok((hash, path)) => Some(TraceRef {
            hash,
            path: path.display().to_string(),
        }),
        Err(e) => {
            eprintln!(
                "warning: trace cache unusable for engine case {} seed {seed}: {e}; \
                 falling back to generated replay",
                spec.name
            );
            None
        }
    }
}

fn gen_trace(rng: &mut SmallRng, mutation: Mutation) -> TraceCase {
    let model = match mutation {
        Mutation::EvictMru => ModelKind::SetAssoc,
        Mutation::DropAsidTag => ModelKind::SetAssoc,
        Mutation::SkipFlagReset => ModelKind::Partitioned,
        Mutation::None => match rng.gen_range(0u32..5) {
            0 => ModelKind::SetAssoc,
            4 => ModelKind::Scheduler,
            _ => ModelKind::Partitioned,
        },
    };
    let mut case = TraceCase {
        model,
        geometry: GEOMETRIES[rng.gen_range(0..GEOMETRIES.len())],
        sharing: SHARINGS[rng.gen_range(0..SHARINGS.len())],
        overhead: rng.gen_bool(0.8),
        margin: MARGINS[rng.gen_range(0..MARGINS.len())],
        compression: COMPRESSIONS[rng.gen_range(0..COMPRESSIONS.len())],
        concurrency: CONCURRENCIES[rng.gen_range(0..CONCURRENCIES.len())],
        mutation,
        ops: Vec::new(),
    };
    if mutation == Mutation::SkipFlagReset {
        // The dropped notification only matters once a spill engaged a
        // flag, so bias towards regimes where spills and finishes occur.
        if case.sharing == SharingPolicy::None || case.sharing == SharingPolicy::AllToAll {
            case.sharing = SharingPolicy::Adjacent;
        }
        case.concurrency = [2, 4, 8, 16][rng.gen_range(0..4usize)];
    }
    if model == ModelKind::Scheduler {
        gen_scheduler_ops(rng, &mut case);
    } else {
        gen_tlb_ops(rng, &mut case);
    }
    case
}

fn gen_scheduler_ops(rng: &mut SmallRng, case: &mut TraceCase) {
    let decisions = 24 + rng.gen_range(0u64..56);
    let mut machine = rng.gen_range(2usize..=8);
    // Per-SM cumulative `<hits, accesses>` counters. Like the hardware
    // counters they model, they only grow, and hits never outpace
    // accesses — the subject's invariants are entitled to assume that.
    let mut counters: Vec<(u64, u64)> = vec![(0, 0); machine];
    for _ in 0..decisions {
        if rng.gen_bool(0.06) {
            case.ops.push(Op::SchedReset);
        }
        if rng.gen_bool(0.04) {
            // Table rebuild path. The subject re-latches its counter
            // baseline only when the SM count changes, and that is the
            // only situation in which real hardware counters restart —
            // so a rebuild here must genuinely change the machine size.
            let next = rng.gen_range(2usize..=7);
            machine = if next >= machine { next + 1 } else { next };
            counters = vec![(0, 0); machine];
        }
        let sms = counters
            .iter_mut()
            .map(|(hits, accesses)| {
                let da = rng.gen_range(0u64..60);
                let dh = rng.gen_range(0..=da);
                *accesses += da;
                *hits += dh;
                (rng.gen_range(0u8..=2), *hits, *accesses)
            })
            .collect();
        case.ops.push(Op::Pick { sms });
    }
}

/// The adversarial scenarios (see module docs). Each returns the
/// `(vpn, tb, asid)` for one step; churn/concurrency side effects are
/// pushed directly.
fn gen_tlb_ops(rng: &mut SmallRng, case: &mut TraceCase) {
    let scenario = match case.mutation {
        // Spill storms and TB churn corner the skip-flag-reset mutant.
        Mutation::SkipFlagReset => [1, 3][rng.gen_range(0..2usize)],
        // Only co-runs can expose a dropped ASID tag.
        Mutation::DropAsidTag => [6, 7][rng.gen_range(0..2usize)],
        _ => rng.gen_range(0u32..8),
    };
    // Co-running address spaces: always ≥ 2 for the multi-tenant
    // scenarios, occasionally sprinkled into the classic ones so every
    // regime also runs tagged.
    let napps: u16 = if scenario >= 6 {
        rng.gen_range(2u16..=4)
    } else if case.mutation == Mutation::None && rng.gen_bool(0.25) {
        rng.gen_range(2u16..=3)
    } else {
        1
    };
    let n_ops = 48 + rng.gen_range(0u64..112);
    let vpn_space = 1 + rng.gen_range(0u64..64);
    let hot_tb = rng.gen_range(0u8..4);
    let stride = [1u64, 2, 4, 8, 16][rng.gen_range(0..5usize)];
    for i in 0..n_ops {
        let (vpn, tb) = match scenario {
            // Single-set pressure: one hot TB hammers a dense range.
            2 => (rng.gen_range(0..vpn_space.min(16)), hot_tb),
            // Neighbour-spill storm: one TB overfills its partition
            // while its successor looks on.
            3 => {
                if rng.gen_bool(0.75) {
                    (rng.gen_range(0..vpn_space), hot_tb)
                } else {
                    (rng.gen_range(0..vpn_space), hot_tb.wrapping_add(1))
                }
            }
            // Pathological strides across the set index space.
            4 => ((i * stride) % 64, (i % 4) as u8),
            // Cross-app set pressure: every app hammers the same dense
            // VPN range, so the same (set, tag-sans-ASID) keeps
            // colliding across address spaces.
            6 => (rng.gen_range(0..vpn_space.min(8)), hot_tb),
            // Uniform churn (0), TB churn (1), concurrency churn (5),
            // ASID-striped TB churn (7).
            _ => (rng.gen_range(0..vpn_space), rng.gen_range(0u8..20)),
        };
        let asid: u16 = match scenario {
            // Stripe apps across TB slots: finishes below use the same
            // keying, so (asid, tb) licence resets get exercised.
            7 => u16::from(tb) % napps,
            _ if napps > 1 => rng.gen_range(0..napps),
            _ => 0,
        };
        if rng.gen_bool(0.45) {
            // Mostly identity-plus-offset mappings, *per address space* —
            // apps map the same VPN to different frames, so a cross-app
            // leak surfaces as a wrong PPN rather than a lucky match. A
            // sprinkle of remaps exercises the incoherent-refresh path
            // (and under compression, run-breaking literals).
            let ppn = if rng.gen_bool(0.08) {
                rng.gen_range(5000u64..6000) + 10_000 * u64::from(asid)
            } else {
                1000 + vpn + 7777 * u64::from(asid)
            };
            case.ops.push(Op::Insert { vpn, tb, ppn, asid });
        } else {
            case.ops.push(Op::Lookup { vpn, tb, asid });
        }
        if (scenario == 1 || scenario == 7) && rng.gen_bool(0.1) {
            let ftb = rng.gen_range(0u8..20);
            case.ops.push(Op::Finish {
                tb: ftb,
                asid: if napps > 1 { u16::from(ftb) % napps } else { 0 },
            });
        }
        if scenario == 5 && rng.gen_bool(0.05) {
            case.ops.push(Op::Concurrency {
                tbs: CONCURRENCIES[rng.gen_range(0..CONCURRENCIES.len())],
            });
        }
        if rng.gen_bool(0.015) {
            case.ops.push(Op::Flush);
        }
        if i % 16 == 15 {
            case.ops.push(Op::Check);
        }
    }
    case.ops.push(Op::Check);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The harness's own sensitivity proof: every deliberately-broken
    /// subject is caught by fuzzing and shrinks to a replayable case.
    #[test]
    fn mutants_are_caught_and_shrunk() {
        for mutation in [
            Mutation::EvictMru,
            Mutation::SkipFlagReset,
            Mutation::DropAsidTag,
        ] {
            let mut found = None;
            for seed in 0..4u64 {
                let report = fuzz_seed(seed, 40, mutation, false);
                if report.divergence.is_some() {
                    found = report.divergence;
                    break;
                }
            }
            let (case, d) = found.unwrap_or_else(|| panic!("{mutation:?} must be caught"));
            // The shrunk case is a standalone reproducer...
            assert!(run_case(&case).is_some(), "{mutation:?} shrunk case replays");
            // ...that round-trips through the text format.
            let reparsed = Case::parse(&case.serialize()).expect("serializes");
            assert_eq!(run_case(&reparsed).as_ref(), Some(&d));
        }
    }

    /// The real implementations survive a quick fuzz burst.
    #[test]
    fn clean_implementations_are_quiet() {
        for seed in 0..4u64 {
            let report = fuzz_seed(seed, 30, Mutation::None, false);
            assert_eq!(
                report.divergence.as_ref().map(|(c, d)| (c.serialize(), d.to_string())),
                None,
                "seed {seed}"
            );
        }
    }

    /// Byte-for-byte determinism: the same seed yields the same report.
    #[test]
    fn fuzzing_is_deterministic() {
        let a = fuzz_seed(3, 20, Mutation::EvictMru, false);
        let b = fuzz_seed(3, 20, Mutation::EvictMru, false);
        assert_eq!(a, b);
    }
}

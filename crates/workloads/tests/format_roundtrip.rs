//! Property-based round-trip tests for the `trace/v1` binary format:
//! `Workload` → `TraceWriter` → `TraceReader` must reproduce the
//! original exactly (ops, per-TB boundaries, summaries, buffer table),
//! and random corruption must surface as offset-tagged errors, never
//! panics.

use std::path::PathBuf;

use proptest::prelude::*;
use vmem::{AddressSpace, PageSize, VirtAddr};
use workloads::format::{write_workload, TraceError, TraceReader};
use workloads::{KernelTrace, LaneAccesses, TbTrace, WarpOp, Workload};

/// Raw op stream: per kernel, per TB, per warp, a list of encoded ops.
/// kind 0: compute; kind 1: contiguous load; kind 2: strided store
/// (negative stride when payload is odd); kind 3: gather load; kind 4:
/// broadcast store.
type RawOps = Vec<Vec<Vec<Vec<(u8, u64)>>>>;

fn arb_workload() -> impl Strategy<Value = (RawOps, u8, u64)> {
    let op = (0u8..5, 0u64..1 << 16);
    let warp = proptest::collection::vec(op, 0..8);
    let tb = proptest::collection::vec(warp, 1..4);
    let tbs = proptest::collection::vec(tb, 1..6);
    let kernels = proptest::collection::vec(tbs, 1..3);
    (kernels, 1u8..16, any::<u64>())
}

fn build(spec: &RawOps, max_tbs: u8) -> Workload {
    let mut space = AddressSpace::new(PageSize::Small);
    let buf = space.allocate("data", 1 << 20).expect("fresh space");
    let lo = 64 * 128u64;
    let span = (1 << 20) - 2 * lo;
    let mut kernels = Vec::new();
    for (k, kernel_spec) in spec.iter().enumerate() {
        let mut tbs = Vec::new();
        for tb_spec in kernel_spec {
            let mut tb = TbTrace::with_warps(tb_spec.len());
            for (w, warp_spec) in tb_spec.iter().enumerate() {
                let warp = tb.warp_mut(w);
                for &(kind, payload) in warp_spec {
                    let offset = lo + payload % span;
                    match kind {
                        0 => warp.push(WarpOp::Compute {
                            cycles: (payload % 50 + 1) as u32,
                        }),
                        1 => warp.push(WarpOp::Load(LaneAccesses::contiguous(
                            buf.addr_of(offset),
                            4,
                            (payload % 32 + 1) as u8,
                        ))),
                        2 => warp.push(WarpOp::Store(LaneAccesses::Strided {
                            base: buf.addr_of(offset),
                            stride: if payload % 2 == 1 { -128 } else { 128 },
                            active_lanes: 16,
                        })),
                        3 => {
                            let lanes: Vec<VirtAddr> = (0..(payload % 32 + 1))
                                .map(|i| buf.addr_of(lo + (payload ^ (i * 0x9e37)) % span))
                                .collect();
                            warp.push(WarpOp::Load(LaneAccesses::Gather(lanes)));
                        }
                        _ => warp.push(WarpOp::Store(LaneAccesses::broadcast(buf.addr_of(offset)))),
                    }
                }
            }
            tbs.push(tb);
        }
        kernels.push(KernelTrace {
            name: format!("k{k}"),
            tbs,
            max_concurrent_tbs_per_sm: max_tbs,
            threads_per_tb: 32 * 4,
        });
    }
    Workload::new("random", kernels, space)
}

fn temp_path(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "otlb-roundtrip-{tag}-{}-{case}.trace",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Write → read reproduces ops, per-TB boundaries, and summaries.
    #[test]
    fn round_trip_preserves_everything((spec, max_tbs, seed) in arb_workload()) {
        let wl = build(&spec, max_tbs);
        let path = temp_path("rt", seed);
        let written = write_workload(&path, &wl, "random", None, seed).unwrap();
        prop_assert_eq!(written, wl.summary());

        let reader = TraceReader::open(&path).unwrap();
        prop_assert_eq!(reader.summary(), wl.summary());
        prop_assert_eq!(reader.seed(), seed);
        prop_assert_eq!(reader.scale(), None);
        reader.verify().unwrap();

        // Streaming preserves per-TB boundaries and op equality.
        prop_assert_eq!(reader.kernels().len(), wl.kernels().len());
        for (k, kernel) in wl.kernels().iter().enumerate() {
            prop_assert_eq!(reader.kernels()[k].tb_count as usize, kernel.tbs.len());
            let mut stream = reader.stream_kernel(k).unwrap();
            for tb in &kernel.tbs {
                let got = stream.next_tb().unwrap();
                prop_assert_eq!(got.as_ref(), Some(tb));
            }
            prop_assert!(stream.next_tb().unwrap().is_none());
        }

        // Materializing reproduces the workload (including the space).
        let back = reader.read_workload().unwrap();
        prop_assert_eq!(back.summary(), wl.summary());
        for (a, b) in back.kernels().iter().zip(wl.kernels()) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.threads_per_tb, b.threads_per_tb);
            prop_assert_eq!(a.max_concurrent_tbs_per_sm, b.max_concurrent_tbs_per_sm);
            prop_assert_eq!(&a.tbs, &b.tbs);
        }
        let bufs: Vec<(String, u64, u64)> = back
            .space()
            .buffers()
            .map(|b| (b.name().to_owned(), b.base().raw(), b.size()))
            .collect();
        let orig: Vec<(String, u64, u64)> = wl
            .space()
            .buffers()
            .map(|b| (b.name().to_owned(), b.base().raw(), b.size()))
            .collect();
        prop_assert_eq!(bufs, orig);
        std::fs::remove_file(&path).unwrap();
    }

    /// Truncating a valid trace anywhere fails with an error, never a
    /// panic — and never yields a *wrong* successful read.
    #[test]
    fn truncation_never_panics((spec, max_tbs, seed) in arb_workload(), cut in 0u32..1000) {
        let wl = build(&spec, max_tbs);
        let path = temp_path("trunc", seed);
        write_workload(&path, &wl, "random", None, seed).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let keep = (bytes.len() - 1) * cut as usize / 1000;
        std::fs::write(&path, &bytes[..keep]).unwrap();
        match TraceReader::open(&path) {
            // Footer opened (cut landed inside a block): every stream
            // must still fail cleanly, since blocks are missing bytes.
            Ok(reader) => {
                let mut failed = false;
                'outer: for k in 0..reader.kernels().len() {
                    let mut stream = reader.stream_kernel(k).unwrap();
                    loop {
                        match stream.next_tb() {
                            Err(_) => { failed = true; break 'outer; }
                            Ok(None) => break,
                            Ok(Some(_)) => {}
                        }
                    }
                }
                prop_assert!(failed, "truncated file streamed to completion");
            }
            Err(TraceError::Io { .. })
            | Err(TraceError::NotATrace { .. })
            | Err(TraceError::Corrupt { .. })
            | Err(TraceError::Version { .. })
            | Err(TraceError::Space { .. }) => {}
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Flipping a single byte anywhere fails with an error or decodes
    /// to the untouched regions only — never a panic. (A flip inside a
    /// block must be caught by its checksum; a flip in the footer by the
    /// footer checksum; a flip in the magic/version by the header
    /// checks.)
    #[test]
    fn single_byte_corruption_never_panics(
        (spec, max_tbs, seed) in arb_workload(),
        pos in 0u32..1000,
        flip in 1u8..=255,
    ) {
        let wl = build(&spec, max_tbs);
        let path = temp_path("flip", seed);
        write_workload(&path, &wl, "random", None, seed).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = (bytes.len() - 1) * pos as usize / 1000;
        bytes[at] ^= flip;
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(reader) = TraceReader::open(&path) {
            // The flip landed in a block: full verification must fail.
            prop_assert!(
                reader.verify().is_err(),
                "flipped byte at {at} survived verification"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}

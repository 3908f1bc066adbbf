//! Differential test of the coalescer: `coalesce_into` (whose strided
//! accesses compare each line only with the last one pushed) against
//! the plain first-touch scan below, which checks every lane's line
//! against every line pushed so far.

use gpu_sim::coalesce_into;
use proptest::prelude::*;
use vmem::VirtAddr;
use workloads::LaneAccesses;

/// The reference: one `contains` scan per lane.
fn reference(accesses: &LaneAccesses, line_bytes: u64) -> Vec<VirtAddr> {
    let mask = !(line_bytes - 1);
    let mut lines = Vec::new();
    for addr in accesses.addresses() {
        let line = VirtAddr::new(addr.raw() & mask);
        if !lines.contains(&line) {
            lines.push(line);
        }
    }
    lines
}

/// Strides of every regime against a 128-byte line: zero (broadcast),
/// sub-line, exactly a line, multi-line, each of either sign.
fn arb_stride() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0i64),
        1i64..128,
        -127i64..0,
        Just(128i64),
        Just(-128i64),
        129i64..1 << 20,
        -(1i64 << 20)..-128,
    ]
}

/// Bases at and just above 0, just below 0 (addresses that go negative
/// as `i64` and wrap as `u64`) and in the middle of the space.
fn arb_base() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4096,
        (u64::MAX - 4095)..=u64::MAX,
        0x7f00_0000_0000u64..0x7f00_0010_0000,
    ]
}

fn arb_line() -> impl Strategy<Value = u64> {
    prop_oneof![Just(32u64), Just(64), Just(128), Just(256)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn strided_lines_match_the_scan(
        base in arb_base(),
        stride in arb_stride(),
        active_lanes in 1u8..=32,
        line_bytes in arb_line(),
    ) {
        let acc = LaneAccesses::Strided {
            base: VirtAddr::new(base),
            stride,
            active_lanes,
        };
        let mut lines = vec![VirtAddr::new(1)]; // cleared by the call
        coalesce_into(&acc, line_bytes, &mut lines);
        prop_assert_eq!(lines, reference(&acc, line_bytes), "{:?}", acc);
    }

    #[test]
    fn gathers_match_the_scan(
        addrs in proptest::collection::vec(0u64..1 << 14, 1..33),
        line_bytes in arb_line(),
    ) {
        let acc = LaneAccesses::Gather(addrs.into_iter().map(VirtAddr::new).collect());
        let mut lines = Vec::new();
        coalesce_into(&acc, line_bytes, &mut lines);
        prop_assert_eq!(lines, reference(&acc, line_bytes));
    }
}

//! The memory coalescing unit (step ① of the paper's Figure 1).
//!
//! The 32 per-lane addresses of a warp memory instruction are merged into
//! the minimal set of 128-byte line transactions, preserving
//! first-occurrence order. Contiguous warp accesses coalesce into one or
//! two transactions; a stride-`N` column slice or an irregular gather
//! expands into up to 32.

use vmem::VirtAddr;
use workloads::LaneAccesses;

/// Coalesces one warp access into distinct line-aligned transactions.
///
/// Returns the base virtual address of each 128-byte line touched, in
/// first-touch lane order.
///
/// # Example
///
/// ```
/// use gpu_sim::coalesce;
/// use workloads::LaneAccesses;
/// use vmem::VirtAddr;
///
/// // 32 contiguous f32 lanes span exactly one 128-byte line.
/// let acc = LaneAccesses::contiguous(VirtAddr::new(0x1000), 4, 32);
/// assert_eq!(coalesce(&acc, 128).len(), 1);
/// ```
pub fn coalesce(accesses: &LaneAccesses, line_bytes: u64) -> Vec<VirtAddr> {
    let mut lines = Vec::with_capacity(4);
    coalesce_into(accesses, line_bytes, &mut lines);
    lines
}

/// [`coalesce`] into a caller-provided buffer (cleared first).
///
/// The engine issues one coalesce per warp memory instruction — hundreds
/// of millions per run — so it reuses one scratch buffer instead of
/// allocating a fresh `Vec` each time.
///
/// A strided access whose lane addresses do not overflow `i64` is
/// monotone in lane order, and so are its lines, so a line repeats only
/// right after itself: each lane is compared with the last line pushed.
/// A gather (or an overflowing stride) scans every line pushed so far.
/// The two cases keep separate loops: one loop branching per lane on
/// the case made gathers about 8% slower to coalesce.
pub fn coalesce_into(accesses: &LaneAccesses, line_bytes: u64, lines: &mut Vec<VirtAddr>) {
    debug_assert!(line_bytes.is_power_of_two());
    let mask = !(line_bytes - 1);
    lines.clear();
    if is_monotone(accesses) {
        for addr in accesses.addresses() {
            let line = VirtAddr::new(addr.raw() & mask);
            if lines.last() != Some(&line) {
                lines.push(line);
            }
        }
        return;
    }
    for addr in accesses.addresses() {
        let line = VirtAddr::new(addr.raw() & mask);
        // The lane count is <= 32, so a linear scan beats a hash set.
        if !lines.contains(&line) {
            lines.push(line);
        }
    }
}

/// Whether `accesses` is strided and its last lane's address,
/// `base + (lanes - 1) * stride` as `i64`, does not overflow (then no
/// lane's does, and the addresses are monotone in lane order).
fn is_monotone(accesses: &LaneAccesses) -> bool {
    match *accesses {
        LaneAccesses::Strided {
            base,
            stride,
            active_lanes,
        } => i64::from(active_lanes.saturating_sub(1))
            .checked_mul(stride)
            .and_then(|span| (base.raw() as i64).checked_add(span))
            .is_some(),
        LaneAccesses::Gather(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_floats_fully_coalesce() {
        let acc = LaneAccesses::contiguous(VirtAddr::new(0x2000), 4, 32);
        assert_eq!(coalesce(&acc, 128).len(), 1);
    }

    #[test]
    fn misaligned_contiguous_spans_two_lines() {
        let acc = LaneAccesses::contiguous(VirtAddr::new(0x2040), 4, 32);
        let lines = coalesce(&acc, 128);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], VirtAddr::new(0x2000));
        assert_eq!(lines[1], VirtAddr::new(0x2080));
    }

    #[test]
    fn broadcast_is_one_transaction() {
        let acc = LaneAccesses::broadcast(VirtAddr::new(0x1234));
        assert_eq!(coalesce(&acc, 128).len(), 1);
    }

    #[test]
    fn column_stride_explodes() {
        // Stride of 1 KiB: every lane in its own line.
        let acc = LaneAccesses::Strided {
            base: VirtAddr::new(0),
            stride: 1024,
            active_lanes: 32,
        };
        assert_eq!(coalesce(&acc, 128).len(), 32);
    }

    #[test]
    fn gather_dedups_lines() {
        let addrs = vec![
            VirtAddr::new(0x100),
            VirtAddr::new(0x104),
            VirtAddr::new(0x900),
            VirtAddr::new(0x108),
        ];
        let lines = coalesce(&LaneAccesses::Gather(addrs), 128);
        assert_eq!(lines, vec![VirtAddr::new(0x100), VirtAddr::new(0x900)]);
    }

    #[test]
    fn only_non_overflowing_strides_are_monotone() {
        let strided = |base: u64, stride: i64| LaneAccesses::Strided {
            base: VirtAddr::new(base),
            stride,
            active_lanes: 32,
        };
        assert!(is_monotone(&strided(0, -4)), "negative as i64, no overflow");
        assert!(is_monotone(&strided(i64::MAX as u64 - 31 * 128, 128)));
        assert!(!is_monotone(&strided(i64::MAX as u64 - 30 * 128, 128)));
        assert!(!is_monotone(&strided(i64::MIN as u64 + 64, -128)));
        assert!(!is_monotone(&strided(0, i64::MAX)));
        assert!(!is_monotone(&LaneAccesses::Gather(vec![VirtAddr::new(0)])));
    }

    #[test]
    fn order_is_first_touch() {
        let acc = LaneAccesses::Strided {
            base: VirtAddr::new(0x1000),
            stride: -256,
            active_lanes: 3,
        };
        let lines = coalesce(&acc, 128);
        assert_eq!(
            lines,
            vec![
                VirtAddr::new(0x1000),
                VirtAddr::new(0xf00),
                VirtAddr::new(0xe00)
            ]
        );
    }
}

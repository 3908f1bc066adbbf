//! Packed probe tags, shared by the TLB organizations that store their
//! tags structure-of-arrays (`SetAssocTlb` here, the partitioned TLB in
//! `orchestrated-tlb`).

use vmem::{Asid, Vpn};

/// Bit position of the ASID field inside a packed probe tag.
const TAG_ASID_SHIFT: u32 = 53;

/// Packed probe tag: `(asid << 53) | (vpn << 1) | 1` for a valid way, `0`
/// for invalid. VPNs are at most 52 bits (64-bit VA minus the 12-bit
/// small-page offset) and ASIDs at most 11 bits ([`Asid::MAX_ASIDS`]), so
/// the whole tag packs losslessly in a `u64` and a single integer compare
/// covers validity, the page and the owning address space — a cross-ASID
/// hit is impossible by construction.
///
/// # Example
///
/// ```
/// use tlb::{tag_asid, tag_of, tag_vpn};
/// use vmem::{Asid, Vpn};
///
/// let t = tag_of(Asid::new(3), Vpn::new(0x42));
/// assert_ne!(t, 0);
/// assert_eq!((tag_asid(t), tag_vpn(t)), (Asid::new(3), 0x42));
/// ```
#[inline]
pub fn tag_of(asid: Asid, vpn: Vpn) -> u64 {
    debug_assert_eq!(
        vpn.raw() >> (TAG_ASID_SHIFT - 1),
        0,
        "VPN uses bits above 52; tag encoding would alias with the ASID field"
    );
    ((asid.raw() as u64) << TAG_ASID_SHIFT) | (vpn.raw() << 1) | 1
}

/// Recovers the owning ASID from a packed (valid) probe tag.
#[inline]
pub fn tag_asid(tag: u64) -> Asid {
    Asid::new((tag >> TAG_ASID_SHIFT) as u16)
}

/// Recovers the VPN from a packed (valid) probe tag.
#[inline]
pub fn tag_vpn(tag: u64) -> u64 {
    (tag & ((1u64 << TAG_ASID_SHIFT) - 1)) >> 1
}

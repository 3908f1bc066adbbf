//! Translation-reuse intensity (the paper's Equation 1, Figures 3 and 4).

use gpu_sim::coalesce_into;
use vmem::{PageSize, VirtAddr};
use workloads::{WarpOp, WarpTrace, Workload};

/// The translation stream of one thread block: VPNs in program order,
/// one per post-coalescing line transaction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TbStream {
    /// VPNs in issue order.
    pub vpns: Vec<u64>,
}

impl TbStream {
    /// Number of translations issued.
    pub fn len(&self) -> usize {
        self.vpns.len()
    }

    /// Whether the TB issued no translations.
    pub fn is_empty(&self) -> bool {
        self.vpns.is_empty()
    }
}

/// Extracts per-TB translation streams from a workload trace.
///
/// Warp lanes are coalesced into `line_bytes` transactions and then into
/// per-instruction page translations, exactly as the simulator's
/// coalescer + per-instruction TLB coalescer (Power et al., HPCA'14) do:
/// each warp memory instruction contributes one translation per distinct
/// page it touches. TBs from all kernels are concatenated (each TB keeps
/// its own stream).
pub fn tb_translation_streams(workload: &Workload, line_bytes: u64) -> Vec<TbStream> {
    let page_size = workload.space().page_size();
    let mut lines = Vec::new();
    let mut streams = Vec::new();
    for kernel in workload.kernels() {
        for tb in &kernel.tbs {
            let mut stream = TbStream::default();
            for warp in tb.warps() {
                push_translations(warp, line_bytes, page_size, &mut lines, &mut stream.vpns);
            }
            streams.push(stream);
        }
    }
    streams
}

/// Extracts per-*warp* translation streams (the paper's §VII
/// warp-granularity future work): like [`tb_translation_streams`] but one
/// stream per warp instead of per TB.
pub fn warp_translation_streams(workload: &Workload, line_bytes: u64) -> Vec<TbStream> {
    let page_size = workload.space().page_size();
    let mut lines = Vec::new();
    let mut streams = Vec::new();
    for kernel in workload.kernels() {
        for tb in &kernel.tbs {
            for warp in tb.warps() {
                let mut stream = TbStream::default();
                push_translations(warp, line_bytes, page_size, &mut lines, &mut stream.vpns);
                streams.push(stream);
            }
        }
    }
    streams
}

/// Appends `warp`'s translations to `vpns`: each memory instruction's
/// lines (coalesced into the reused `lines` buffer) become one VPN per
/// distinct page, in first-touch order. An instruction's pages are the
/// tail of `vpns` it has pushed so far, so the dedup scans only them.
fn push_translations(
    warp: &WarpTrace,
    line_bytes: u64,
    page_size: PageSize,
    lines: &mut Vec<VirtAddr>,
    vpns: &mut Vec<u64>,
) {
    for acc in warp.ops().iter().filter_map(WarpOp::accesses) {
        coalesce_into(acc, line_bytes, lines);
        let op_start = vpns.len();
        for line in lines.iter() {
            let vpn = line.vpn(page_size).raw();
            if !vpns[op_start..].contains(&vpn) {
                vpns.push(vpn);
            }
        }
    }
}

/// Intra-TB reuse intensity per TB: the fraction of a TB's translations
/// that target a page the TB translates more than once ("translations
/// being reused at least once", Figure 4).
///
/// Empty streams are skipped. Each stream is sorted once into its page
/// runs: `O(n log n)` per TB.
pub fn intra_intensities(streams: &[TbStream]) -> Vec<f64> {
    streams
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| {
            let reused: usize = page_runs(&s.vpns)
                .iter()
                .map(|&(_, count)| count)
                .filter(|&count| count > 1)
                .sum();
            reused as f64 / s.len() as f64
        })
        .collect()
}

/// Inter-TB reuse intensity over TB pairs (Equation 1 with `c1 != c2`):
/// for each ordered pair, the fraction of `c1`'s translations whose page
/// is also touched by `c2`.
///
/// Rows come out in pair order: `c1` ascending, then `c2` ascending,
/// skipping `c1 == c2`. Each TB's stream is sorted once into
/// `(page, count)` runs, and each pair costs one merge of two run lists,
/// linear in their distinct pages.
///
/// The paper enumerates all pairs of its 10-TB examples. At thousands of
/// TBs the pair count itself is quadratic, so `max_tbs` subsamples the
/// non-empty streams evenly: `Some(k)` keeps `k` of them (all when there
/// are at most `k`), `Some(0)` keeps none and returns no rows, and `None`
/// enumerates every pair.
pub fn inter_intensities(streams: &[TbStream], max_tbs: Option<usize>) -> Vec<f64> {
    let nonempty: Vec<&TbStream> = streams.iter().filter(|s| !s.is_empty()).collect();
    let picked: Vec<&TbStream> = match max_tbs {
        Some(cap) if nonempty.len() > cap => {
            let stride = nonempty.len() as f64 / cap as f64;
            (0..cap)
                .map(|i| nonempty[(i as f64 * stride) as usize])
                .collect()
        }
        _ => nonempty,
    };
    let runs: Vec<Vec<(u64, usize)>> = picked.iter().map(|s| page_runs(&s.vpns)).collect();
    let mut out = Vec::with_capacity(picked.len().saturating_sub(1).pow(2));
    for (i, (s1, runs1)) in picked.iter().zip(&runs).enumerate() {
        for (j, runs2) in runs.iter().enumerate() {
            if i == j {
                continue;
            }
            out.push(shared_translations(runs1, runs2) as f64 / s1.len() as f64);
        }
    }
    out
}

/// `vpns`' distinct pages in ascending order, each with the number of
/// times it occurs.
fn page_runs(vpns: &[u64]) -> Vec<(u64, usize)> {
    let mut sorted = vpns.to_vec();
    sorted.sort_unstable();
    sorted
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len()))
        .collect()
}

/// How many of `a`'s translations target a page `b` also touches: the
/// sum of `a`'s counts over the pages both run lists share.
fn shared_translations(a: &[(u64, usize)], b: &[(u64, usize)]) -> usize {
    let (mut x, mut y, mut shared) = (0, 0, 0);
    while x < a.len() && y < b.len() {
        match a[x].0.cmp(&b[y].0) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                shared += a[x].1;
                x += 1;
                y += 1;
            }
        }
    }
    shared
}

/// The paper's five 20%-wide reuse-intensity bins (b1..b5).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ReuseBins {
    counts: [u64; 5],
}

impl ReuseBins {
    /// Buckets intensities in `[0, 1]` into b1..b5.
    ///
    /// b1 = `[0, 0.2)`, b2 = `[0.2, 0.4)`, …, b5 = `[0.8, 1.0]`.
    pub fn from_intensities(intensities: &[f64]) -> Self {
        let mut counts = [0u64; 5];
        for &x in intensities {
            let bin = ((x * 5.0) as usize).min(4);
            counts[bin] += 1;
        }
        ReuseBins { counts }
    }

    /// Raw counts per bin.
    pub fn counts(&self) -> [u64; 5] {
        self.counts
    }

    /// Fractions per bin (each in `[0, 1]`, summing to 1 when non-empty;
    /// all zeros when empty).
    pub fn fractions(&self) -> [f64; 5] {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return [0.0; 5];
        }
        let mut f = [0.0; 5];
        for (i, &c) in self.counts.iter().enumerate() {
            f[i] = c as f64 / total as f64;
        }
        f
    }

    /// Expected intensity under the bin midpoints (a scalar summary used
    /// in tests and reports).
    pub fn mean_midpoint(&self) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (0.1 + 0.2 * i as f64) * c as f64)
            .sum::<f64>()
            / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use workloads::{registry, Scale};

    /// The tree- and allocation-based implementations that the functions
    /// above replaced, kept verbatim as the reference they must equal.
    mod reference {
        use super::TbStream;
        use gpu_sim::coalesce;
        use std::collections::{BTreeMap, BTreeSet};
        use workloads::Workload;

        pub fn tb_translation_streams(workload: &Workload, line_bytes: u64) -> Vec<TbStream> {
            let page_size = workload.space().page_size();
            let mut streams = Vec::new();
            for kernel in workload.kernels() {
                for tb in &kernel.tbs {
                    let mut stream = TbStream::default();
                    let mut op_pages: Vec<u64> = Vec::with_capacity(8);
                    for warp in tb.warps() {
                        for op in warp.ops() {
                            if let Some(acc) = op.accesses() {
                                op_pages.clear();
                                for line in coalesce(acc, line_bytes) {
                                    let vpn = line.vpn(page_size).raw();
                                    if !op_pages.contains(&vpn) {
                                        op_pages.push(vpn);
                                    }
                                }
                                stream.vpns.extend_from_slice(&op_pages);
                            }
                        }
                    }
                    streams.push(stream);
                }
            }
            streams
        }

        pub fn warp_translation_streams(workload: &Workload, line_bytes: u64) -> Vec<TbStream> {
            let page_size = workload.space().page_size();
            let mut streams = Vec::new();
            for kernel in workload.kernels() {
                for tb in &kernel.tbs {
                    for warp in tb.warps() {
                        let mut stream = TbStream::default();
                        let mut op_pages: Vec<u64> = Vec::with_capacity(8);
                        for op in warp.ops() {
                            if let Some(acc) = op.accesses() {
                                op_pages.clear();
                                for line in coalesce(acc, line_bytes) {
                                    let vpn = line.vpn(page_size).raw();
                                    if !op_pages.contains(&vpn) {
                                        op_pages.push(vpn);
                                    }
                                }
                                stream.vpns.extend_from_slice(&op_pages);
                            }
                        }
                        streams.push(stream);
                    }
                }
            }
            streams
        }

        pub fn intra_intensities(streams: &[TbStream]) -> Vec<f64> {
            streams
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| {
                    let mut counts: BTreeMap<u64, u32> = BTreeMap::new();
                    for &v in &s.vpns {
                        *counts.entry(v).or_default() += 1;
                    }
                    let reused: usize = s.vpns.iter().filter(|v| counts[v] > 1).count();
                    reused as f64 / s.len() as f64
                })
                .collect()
        }

        /// Note the `cap > 0` guard: this reference runs the exhaustive
        /// path for `Some(0)`, which the new code answers with no rows.
        pub fn inter_intensities(streams: &[TbStream], max_tbs: Option<usize>) -> Vec<f64> {
            let nonempty: Vec<&TbStream> = streams.iter().filter(|s| !s.is_empty()).collect();
            let picked: Vec<&TbStream> = match max_tbs {
                Some(cap) if nonempty.len() > cap && cap > 0 => {
                    let stride = nonempty.len() as f64 / cap as f64;
                    (0..cap)
                        .map(|i| nonempty[(i as f64 * stride) as usize])
                        .collect()
                }
                _ => nonempty,
            };
            let uniqs: Vec<BTreeSet<u64>> = picked
                .iter()
                .map(|s| s.vpns.iter().copied().collect())
                .collect();
            let mut out = Vec::with_capacity(picked.len().saturating_sub(1).pow(2));
            for (i, s1) in picked.iter().enumerate() {
                for (j, uniq2) in uniqs.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let shared: usize = s1.vpns.iter().filter(|v| uniq2.contains(v)).count();
                    out.push(shared as f64 / s1.len() as f64);
                }
            }
            out
        }
    }

    fn stream(vpns: &[u64]) -> TbStream {
        TbStream {
            vpns: vpns.to_vec(),
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Both intensities equal the reference bit for bit, in length and
    /// order; `Some(0)` must give no rows.
    fn assert_matches_reference(streams: &[TbStream], max_tbs: Option<usize>) {
        assert_eq!(
            bits(&intra_intensities(streams)),
            bits(&reference::intra_intensities(streams)),
            "intra, {streams:?}"
        );
        let inter = inter_intensities(streams, max_tbs);
        if max_tbs == Some(0) {
            assert!(inter.is_empty(), "Some(0) gave {} rows", inter.len());
        } else {
            assert_eq!(
                bits(&inter),
                bits(&reference::inter_intensities(streams, max_tbs)),
                "inter, max_tbs {max_tbs:?}, {streams:?}"
            );
        }
    }

    /// `None`, `Some(0)`, and `Some(k)` below, at and above the count of
    /// non-empty streams.
    fn caps(streams: &[TbStream]) -> Vec<Option<usize>> {
        let n = streams.iter().filter(|s| !s.is_empty()).count();
        let mut caps = vec![None, Some(0), Some(n), Some(n + 1), Some(n + 7)];
        caps.extend((1..n).map(Some));
        caps
    }

    #[test]
    fn edge_cases_match_the_reference() {
        let cases: Vec<Vec<TbStream>> = vec![
            vec![],
            vec![TbStream::default()],
            vec![TbStream::default(), TbStream::default()],
            vec![stream(&[3, 1, 3, 2])],
            vec![stream(&[4, 4, 4]); 5],
            (0..6)
                .map(|i| stream(&[10 * i, 10 * i + 1, 10 * i]))
                .collect(),
            vec![
                stream(&[1, 2]),
                TbStream::default(),
                stream(&[2, 2, 9]),
                TbStream::default(),
                stream(&[u64::MAX, 0, u64::MAX]),
            ],
        ];
        for streams in &cases {
            for max_tbs in caps(streams) {
                assert_matches_reference(streams, max_tbs);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sorted_runs_match_the_tree_reference(
            raw in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..24), 0..14),
            pages in 1u64..64,
            cap in 0usize..18,
        ) {
            // A small page domain makes repeats and cross-TB sharing
            // common; a large one makes streams mostly disjoint.
            let streams: Vec<TbStream> = raw
                .iter()
                .map(|vpns| TbStream { vpns: vpns.iter().map(|v| v % pages).collect() })
                .collect();
            assert_matches_reference(&streams, (cap < 16).then_some(cap));
        }
    }

    #[test]
    fn streams_match_the_allocating_reference() {
        for spec in registry() {
            let wl = spec.generate(Scale::Test, 42);
            assert_eq!(
                tb_translation_streams(&wl, 128),
                reference::tb_translation_streams(&wl, 128),
                "{} tb streams",
                spec.name
            );
            assert_eq!(
                warp_translation_streams(&wl, 128),
                reference::warp_translation_streams(&wl, 128),
                "{} warp streams",
                spec.name
            );
        }
    }

    #[test]
    fn intra_intensity_counts_repeats() {
        // Pages 1 and 2 repeat; page 3 is touched once: 4/5 reused.
        let s = stream(&[1, 2, 1, 2, 3]);
        let i = intra_intensities(&[s]);
        assert!((i[0] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn intra_intensity_extremes() {
        assert_eq!(intra_intensities(&[stream(&[1, 2, 3])])[0], 0.0);
        assert_eq!(intra_intensities(&[stream(&[7, 7, 7])])[0], 1.0);
        assert!(intra_intensities(&[TbStream::default()]).is_empty());
    }

    #[test]
    fn inter_intensity_is_asymmetric() {
        // c1 touches {1,2,3,4}; c2 touches {1}. R(c1,c2)=1/4, R(c2,c1)=1.
        let s1 = stream(&[1, 2, 3, 4]);
        let s2 = stream(&[1]);
        let r = inter_intensities(&[s1, s2], None);
        assert_eq!(r.len(), 2);
        assert!((r[0] - 0.25).abs() < 1e-12);
        assert!((r[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inter_sampling_caps_pairs() {
        let streams: Vec<TbStream> = (0..50).map(|i| stream(&[i])).collect();
        let all = inter_intensities(&streams, None);
        assert_eq!(all.len(), 50 * 49);
        let capped = inter_intensities(&streams, Some(10));
        assert_eq!(capped.len(), 10 * 9);
        // Asking for no TBs samples none, not every pair.
        assert!(inter_intensities(&streams, Some(0)).is_empty());
    }

    #[test]
    fn bins_cover_unit_interval() {
        let b = ReuseBins::from_intensities(&[0.0, 0.1, 0.25, 0.5, 0.79, 0.8, 1.0]);
        assert_eq!(b.counts(), [2, 1, 1, 1, 2]);
        let f = b.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(b.mean_midpoint() > 0.0);
        assert_eq!(ReuseBins::default().fractions(), [0.0; 5]);
    }

    #[test]
    fn warp_streams_partition_tb_streams() {
        let wl = registry()[8].generate(Scale::Test, 42);
        let tb_streams = tb_translation_streams(&wl, 128);
        let warp_streams = warp_translation_streams(&wl, 128);
        // One stream per warp, and translation volume is conserved.
        let warps: usize = wl
            .kernels()
            .iter()
            .flat_map(|k| k.tbs.iter())
            .map(|tb| tb.warps().len())
            .sum();
        assert_eq!(warp_streams.len(), warps);
        assert_eq!(
            tb_streams.iter().map(TbStream::len).sum::<usize>(),
            warp_streams.iter().map(TbStream::len).sum::<usize>()
        );
        // Warp-level intensities are at most slightly below TB-level ones
        // on gemm (warps own their rows): both should be high.
        let warp_intra = ReuseBins::from_intensities(&intra_intensities(&warp_streams));
        assert!(warp_intra.mean_midpoint() > 0.5);
    }

    #[test]
    fn streams_from_gemm_have_reuse() {
        let wl = registry()[8].generate(Scale::Test, 42);
        let streams = tb_translation_streams(&wl, 128);
        assert_eq!(
            streams.len(),
            wl.kernels().iter().map(|k| k.tbs.len()).sum::<usize>()
        );
        let intra = intra_intensities(&streams);
        let bins = ReuseBins::from_intensities(&intra);
        // gemm re-walks its tile rows every k step: strong intra-TB reuse.
        assert!(
            bins.mean_midpoint() > 0.6,
            "gemm intra reuse should be high, got {:.2}",
            bins.mean_midpoint()
        );
    }

    #[test]
    fn graph_apps_have_low_inter_tb_reuse() {
        // Needs a graph whose arrays span many pages; Test scale's 4 KiB
        // arrays make every TB alias onto the same page.
        let bfs = registry()[0].generate(Scale::Small, 42);
        let streams = tb_translation_streams(&bfs, 128);
        let inter = ReuseBins::from_intensities(&inter_intensities(&streams, Some(40)));
        let intra = ReuseBins::from_intensities(&intra_intensities(&streams));
        // Observation 1: intra-TB reuse dominates inter-TB reuse.
        assert!(
            intra.mean_midpoint() > inter.mean_midpoint(),
            "intra {:.2} should exceed inter {:.2}",
            intra.mean_midpoint(),
            inter.mean_midpoint()
        );
    }
}

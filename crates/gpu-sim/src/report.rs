//! Simulation results.

use mem_hier::{CacheStats, LatencyBreakdown};
use std::fmt;
use tlb::TlbStats;
use vmem::WalkerStats;

/// One recorded L1 TLB access (used by the characterization figures).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TranslationEvent {
    /// SM whose private L1 TLB was probed.
    pub sm: u8,
    /// Global TB id (within the kernel) that issued the access.
    pub tb_global: u32,
    /// Warp index within the TB that issued the access.
    pub warp: u16,
    /// Kernel index within the workload.
    pub kernel: u16,
    /// Virtual page number probed.
    pub vpn: u64,
}

/// Per-application results of a run (one entry per ASID, in ASID
/// order). Solo runs carry a single entry; co-runs
/// ([`crate::Simulator::run_corun`]) one per co-running app.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AppReport {
    /// The app's address-space id (its index in the co-run).
    pub asid: u16,
    /// The app's workload name.
    pub workload: String,
    /// Completion cycle of the app's last warp.
    pub cycles: u64,
    /// The app's L1 TLB counters, summed over SMs (eviction counts
    /// attribute to the victim's ASID, everything else to the
    /// requester's).
    pub l1_tlb: TlbStats,
    /// The app's shared L2 TLB counters, summed over slices.
    pub l2_tlb: TlbStats,
}

/// Everything a simulation run produces.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Workload name.
    pub workload: String,
    /// TB scheduling policy name.
    pub scheduler: String,
    /// Total execution cycles across all kernel launches.
    pub total_cycles: u64,
    /// Per-kernel `(name, cycles)`.
    pub kernel_cycles: Vec<(String, u64)>,
    /// Per-SM private L1 TLB statistics.
    pub l1_tlb: Vec<TlbStats>,
    /// Shared L2 TLB statistics.
    pub l2_tlb: TlbStats,
    /// Per-SM L1 data-cache statistics.
    pub l1_cache: Vec<CacheStats>,
    /// Shared L2 data-cache statistics.
    pub l2_cache: CacheStats,
    /// Page-table walker activity.
    pub walker: WalkerStats,
    /// Warp instructions issued.
    pub instructions: u64,
    /// Warp instructions issued per SM (execution balance).
    pub sm_instructions: Vec<u64>,
    /// Memory transactions after coalescing.
    pub transactions: u64,
    /// UVM demand-paging faults taken.
    pub demand_faults: u64,
    /// TBs placed on each SM (scheduling balance).
    pub tb_placements: Vec<u32>,
    /// Per-level translation-latency attribution (L1 TLB / interconnect /
    /// L2 TLB queueing / L2 TLB lookup / walk / fault), accumulated by the
    /// mem-hier pipeline. `latency.check()` holds: the stage cycles sum to
    /// the independently measured end-to-end translation cycles.
    pub latency: LatencyBreakdown,
    /// Recorded L1 TLB access stream (only when tracing was enabled).
    pub translation_trace: Vec<TranslationEvent>,
    /// Always 0: the engine is serial and has no sharded drain. Retained
    /// (with its CSV column) for the benchmark harness, which still reads
    /// it; the next benchmark change removes it (see DESIGN.md,
    /// "Retained for the benchmark harness").
    pub sharded_rounds: u64,
    /// TLB lookups (all levels) served by the exact MRU memo fast path
    /// instead of a tag walk. Pure wall-clock accounting: the fast path
    /// is byte-identical to the walk it skips.
    pub fastpath_hits: u64,
    /// Per-application results in ASID order (a single entry for solo
    /// runs). Populated by the engine from per-ASID counter merges.
    pub per_app: Vec<AppReport>,
}

impl SimReport {
    /// Per-SM L1 TLB stats with the counter identity cross-checked: every
    /// rate this report derives flows through here, so a TLB model that
    /// misclassifies a lookup (breaking `hits + misses == lookups`) trips
    /// a debug assertion instead of silently skewing Figure 10/11 numbers.
    fn l1_tlb_checked(&self) -> impl Iterator<Item = &TlbStats> {
        self.l1_tlb.iter().inspect(|s| {
            debug_assert!(
                s.check().is_ok(),
                "per-SM L1 TLB stats violate the lookup identity: {:?} ({})",
                s,
                s.check().unwrap_err()
            );
        })
    }

    /// The paper's L1 TLB hit-rate metric: the average of the per-SM hit
    /// rates over SMs that saw traffic ("the average hit rate across all
    /// SMs as the L1 TLBs are SM private"). Each per-SM rate is derived
    /// from the raw counters by [`TlbStats::hit_rate`] — the single
    /// derivation point — after the identity cross-check.
    pub fn l1_tlb_hit_rate(&self) -> f64 {
        let active: Vec<f64> = self
            .l1_tlb_checked()
            .filter(|s| s.accesses() > 0)
            .map(TlbStats::hit_rate)
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }

    /// Aggregate L1 TLB counters summed over SMs (identity-checked per SM
    /// and on the sum).
    pub fn l1_tlb_aggregate(&self) -> TlbStats {
        let agg = self
            .l1_tlb_checked()
            .copied()
            .fold(TlbStats::default(), |a, b| a + b);
        debug_assert!(
            agg.check().is_ok(),
            "aggregated L1 TLB stats violate the lookup identity: {agg:?}"
        );
        agg
    }

    /// Execution time of `self` normalized to `baseline` (< 1 is faster).
    pub fn normalized_time(&self, baseline: &SimReport) -> f64 {
        self.total_cycles as f64 / baseline.total_cycles as f64
    }

    /// Speedup of `self` over `baseline` (> 1 is faster).
    pub fn speedup(&self, baseline: &SimReport) -> f64 {
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// Per-app slowdowns vs. the matching solo runs: entry `k` is the
    /// app's co-run completion divided by `solo_cycles[k]` (> 1 means
    /// sharing hurt it).
    ///
    /// # Panics
    ///
    /// Panics if `solo_cycles` does not match `per_app` in length.
    pub fn per_app_slowdowns(&self, solo_cycles: &[u64]) -> Vec<f64> {
        assert_eq!(
            solo_cycles.len(),
            self.per_app.len(),
            "one solo baseline per co-running app"
        );
        self.per_app
            .iter()
            .zip(solo_cycles)
            .map(|(app, &solo)| app.cycles as f64 / solo.max(1) as f64)
            .collect()
    }

    /// Per-app normalized progress vs. solo (`1/slowdown` each): the
    /// input for [`crate::jain_fairness`] and
    /// [`crate::system_throughput`].
    pub fn per_app_progress(&self, solo_cycles: &[u64]) -> Vec<f64> {
        self.per_app_slowdowns(solo_cycles)
            .into_iter()
            .map(|s| if s > 0.0 { 1.0 / s } else { 0.0 })
            .collect()
    }

    /// Header row for [`SimReport::to_csv_row`].
    ///
    /// The first 12 columns are the pre-mem-hier schema and must stay in
    /// place (downstream notebooks index them by position); new counters
    /// are appended after `demand_faults` only.
    pub fn csv_header() -> &'static str {
        concat!(
            "workload,scheduler,cycles,instructions,transactions,",
            "l1_tlb_hit_rate,l2_tlb_hit_rate,l1_cache_hit_rate,",
            "l2_cache_hit_rate,walks,walker_wait_cycles,demand_faults,",
            "walker_coalesced,walker_max_queue_wait,translations,",
            "l1_tlb_cycles,icnt_cycles,l2_tlb_queue_cycles,",
            "l2_tlb_lookup_cycles,walk_cycles,fault_cycles,translate_cycles,",
            "sharded_rounds,fastpath_hits"
        )
    }

    /// [`SimReport::csv_header`] extended with the per-app columns a
    /// co-run of `n_apps` appends after `fastpath_hits` (append-only:
    /// the solo schema is the `n_apps <= 1` prefix, byte-identical to
    /// [`SimReport::csv_header`]).
    pub fn csv_header_for_apps(n_apps: usize) -> String {
        let mut header = String::from(Self::csv_header());
        if n_apps > 1 {
            for k in 0..n_apps {
                header.push_str(&format!(
                    ",app{k}_name,app{k}_cycles,app{k}_l1_tlb_hit_rate,app{k}_l2_tlb_hit_rate"
                ));
            }
        }
        header
    }

    /// One CSV row of the headline counters (matches
    /// [`SimReport::csv_header`]).
    pub fn to_csv_row(&self) -> String {
        let l1d = self
            .l1_cache
            .iter()
            .fold(CacheStats::default(), |a, b| CacheStats {
                hits: a.hits + b.hits,
                misses: a.misses + b.misses,
                evictions: a.evictions + b.evictions,
                writebacks: a.writebacks + b.writebacks,
            });
        let lat = &self.latency;
        let mut row = format!(
            "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.workload,
            self.scheduler,
            self.total_cycles,
            self.instructions,
            self.transactions,
            self.l1_tlb_hit_rate(),
            self.l2_tlb.hit_rate(),
            l1d.hit_rate(),
            self.l2_cache.hit_rate(),
            self.walker.walks,
            self.walker.queue_wait_cycles,
            self.demand_faults,
            self.walker.coalesced,
            self.walker.max_queue_wait,
            lat.translations,
            lat.l1_tlb_cycles,
            lat.icnt_cycles,
            lat.l2_tlb_queue_cycles,
            lat.l2_tlb_lookup_cycles,
            lat.walk_cycles,
            lat.fault_cycles,
            lat.end_to_end_cycles,
            self.sharded_rounds,
            self.fastpath_hits
        );
        // Per-app columns appended only for co-runs, so solo rows stay
        // byte-identical to the pre-multi-tenant schema (golden CSVs
        // pin this).
        if self.per_app.len() > 1 {
            for app in &self.per_app {
                row.push_str(&format!(
                    ",{},{},{:.6},{:.6}",
                    app.workload,
                    app.cycles,
                    app.l1_tlb.hit_rate(),
                    app.l2_tlb.hit_rate()
                ));
            }
        }
        row
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{}]: {} cycles, {} instructions, {} transactions",
            self.workload, self.scheduler, self.total_cycles, self.instructions, self.transactions
        )?;
        writeln!(
            f,
            "  L1 TLB hit rate (avg/SM): {:.1}%  L2 TLB: {:.1}%  walks: {}  faults: {}",
            self.l1_tlb_hit_rate() * 100.0,
            self.l2_tlb.hit_rate() * 100.0,
            self.walker.walks,
            self.demand_faults
        )?;
        writeln!(
            f,
            "  L1 D$ hit: {:.1}%  L2 D$ hit: {:.1}%",
            self.l1_cache
                .iter()
                .fold(CacheStats::default(), |a, b| CacheStats {
                    hits: a.hits + b.hits,
                    misses: a.misses + b.misses,
                    evictions: a.evictions + b.evictions,
                    writebacks: a.writebacks + b.writebacks,
                })
                .hit_rate()
                * 100.0,
            self.l2_cache.hit_rate() * 100.0
        )?;
        write!(f, "  {}", self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(hits: u64, misses: u64) -> TlbStats {
        TlbStats {
            hits,
            misses,
            lookups: hits + misses,
            ..Default::default()
        }
    }

    #[test]
    fn hit_rate_averages_only_active_sms() {
        let r = SimReport {
            l1_tlb: vec![stats(9, 1), stats(0, 0), stats(1, 9)],
            ..Default::default()
        };
        // (0.9 + 0.1) / 2, ignoring the idle SM.
        assert!((r.l1_tlb_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_zero_when_idle() {
        let r = SimReport::default();
        assert_eq!(r.l1_tlb_hit_rate(), 0.0);
    }

    #[test]
    fn aggregate_sums() {
        let r = SimReport {
            l1_tlb: vec![stats(1, 2), stats(3, 4)],
            ..Default::default()
        };
        let agg = r.l1_tlb_aggregate();
        assert_eq!(agg.hits, 4);
        assert_eq!(agg.misses, 6);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lookup identity")]
    fn broken_lookup_identity_trips_aggregation_check() {
        let r = SimReport {
            // hits + misses = 3, but lookups says 7: a TLB model lied.
            l1_tlb: vec![TlbStats {
                hits: 1,
                misses: 2,
                lookups: 7,
                ..Default::default()
            }],
            ..Default::default()
        };
        let _ = r.l1_tlb_aggregate();
    }

    #[test]
    fn normalized_time_and_speedup() {
        let fast = SimReport {
            total_cycles: 500,
            ..Default::default()
        };
        let slow = SimReport {
            total_cycles: 1000,
            ..Default::default()
        };
        assert!((fast.normalized_time(&slow) - 0.5).abs() < 1e-12);
        assert!((fast.speedup(&slow) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let r = SimReport {
            workload: "gemm".into(),
            scheduler: "baseline".into(),
            total_cycles: 10,
            l1_tlb: vec![stats(1, 1)],
            l1_cache: vec![CacheStats::default()],
            ..Default::default()
        };
        let header_cols = SimReport::csv_header().split(',').count();
        let row = r.to_csv_row();
        assert_eq!(row.split(',').count(), header_cols);
        assert!(row.starts_with("gemm,baseline,10,"));
        // No stray whitespace or quoting (names are plain tokens).
        assert!(!row.contains(' '));
        assert!(!SimReport::csv_header().contains(' '));
    }

    #[test]
    fn walker_and_breakdown_counters_round_trip_through_csv() {
        let r = SimReport {
            workload: "bfs".into(),
            scheduler: "baseline".into(),
            walker: WalkerStats {
                walks: 10,
                coalesced: 7,
                queue_wait_cycles: 40,
                max_queue_wait: 13,
            },
            latency: LatencyBreakdown {
                translations: 3,
                l1_tlb_cycles: 3,
                icnt_cycles: 40,
                l2_tlb_queue_cycles: 5,
                l2_tlb_lookup_cycles: 10,
                walk_cycles: 500,
                fault_cycles: 2000,
                end_to_end_cycles: 2558,
            },
            sharded_rounds: 21,
            fastpath_hits: 4242,
            ..Default::default()
        };
        let header: Vec<&str> = SimReport::csv_header().split(',').collect();
        let row = r.to_csv_row();
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols.len(), header.len());
        let field = |name: &str| {
            let i = header
                .iter()
                .position(|h| *h == name)
                .unwrap_or_else(|| panic!("missing column {name}"));
            cols[i].parse::<u64>().unwrap()
        };
        // Walker export (satellite 1): coalesced and max queue wait.
        assert_eq!(field("walker_coalesced"), 7);
        assert_eq!(field("walker_max_queue_wait"), 13);
        // Per-level breakdown columns round-trip exactly.
        assert_eq!(field("translations"), 3);
        assert_eq!(field("l1_tlb_cycles"), 3);
        assert_eq!(field("icnt_cycles"), 40);
        assert_eq!(field("l2_tlb_queue_cycles"), 5);
        assert_eq!(field("l2_tlb_lookup_cycles"), 10);
        assert_eq!(field("walk_cycles"), 500);
        assert_eq!(field("fault_cycles"), 2000);
        assert_eq!(field("translate_cycles"), 2558);
        // Host-engine counters (appended columns) round-trip exactly.
        assert_eq!(field("sharded_rounds"), 21);
        assert_eq!(field("fastpath_hits"), 4242);
        // And the recovered row still satisfies the stage-sum identity.
        assert!(r.latency.check().is_ok());
    }

    #[test]
    fn per_app_columns_append_only_and_round_trip() {
        // A 2-app co-run appends exactly the per-app columns after the
        // frozen solo schema; the solo prefix stays byte-identical.
        let solo = SimReport {
            workload: "gemm".into(),
            scheduler: "baseline".into(),
            total_cycles: 10,
            l1_tlb: vec![stats(1, 1)],
            l1_cache: vec![CacheStats::default()],
            ..Default::default()
        };
        let mut corun = solo.clone();
        corun.workload = "gemm+bfs".into();
        corun.per_app = vec![
            AppReport {
                asid: 0,
                workload: "gemm".into(),
                cycles: 8,
                l1_tlb: stats(3, 1),
                l2_tlb: stats(1, 1),
            },
            AppReport {
                asid: 1,
                workload: "bfs".into(),
                cycles: 10,
                l1_tlb: stats(1, 3),
                l2_tlb: stats(0, 2),
            },
        ];
        let header: Vec<String> = SimReport::csv_header_for_apps(2)
            .split(',')
            .map(str::to_owned)
            .collect();
        let row = corun.to_csv_row();
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols.len(), header.len());
        // The solo schema is the exact prefix.
        let base_cols = SimReport::csv_header().split(',').count();
        assert_eq!(&header[..base_cols].join(","), SimReport::csv_header());
        assert_eq!(SimReport::csv_header_for_apps(1), SimReport::csv_header());
        let field = |name: &str| {
            let i = header
                .iter()
                .position(|h| h == name)
                .unwrap_or_else(|| panic!("missing column {name}"));
            cols[i]
        };
        // Round trip: every appended per-app value parses back exactly.
        assert_eq!(field("app0_name"), "gemm");
        assert_eq!(field("app0_cycles").parse::<u64>().unwrap(), 8);
        assert!((field("app0_l1_tlb_hit_rate").parse::<f64>().unwrap() - 0.75).abs() < 1e-9);
        assert_eq!(field("app1_name"), "bfs");
        assert_eq!(field("app1_cycles").parse::<u64>().unwrap(), 10);
        assert!((field("app1_l2_tlb_hit_rate").parse::<f64>().unwrap() - 0.0).abs() < 1e-9);
        // Solo rows carry no per-app columns at all.
        assert_eq!(
            solo.to_csv_row().split(',').count(),
            base_cols,
            "solo schema must stay frozen"
        );
    }

    #[test]
    fn slowdowns_and_progress_vs_solo() {
        let corun = SimReport {
            per_app: vec![
                AppReport {
                    asid: 0,
                    workload: "a".into(),
                    cycles: 200,
                    ..Default::default()
                },
                AppReport {
                    asid: 1,
                    workload: "b".into(),
                    cycles: 150,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let slow = corun.per_app_slowdowns(&[100, 100]);
        assert!((slow[0] - 2.0).abs() < 1e-12);
        assert!((slow[1] - 1.5).abs() < 1e-12);
        let prog = corun.per_app_progress(&[100, 100]);
        assert!((prog[0] - 0.5).abs() < 1e-12);
        assert!((prog[1] - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let r = SimReport {
            workload: "gemm".into(),
            scheduler: "round-robin".into(),
            total_cycles: 100,
            l1_tlb: vec![stats(1, 1)],
            l1_cache: vec![CacheStats::default()],
            ..Default::default()
        };
        let s = r.to_string();
        assert!(s.contains("gemm"));
        assert!(s.contains("50.0%"));
    }
}

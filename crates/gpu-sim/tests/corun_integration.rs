//! Engine-level multi-tenancy contract: per-app accounting of co-runs of
//! concurrent address spaces sums back to the aggregate counters, and
//! every shared-L2-TLB policy
//! (plain sharing, MASK-style fill tokens, sub-entry sharing) survives a
//! sanitized co-run.

use gpu_sim::{GpuConfig, Simulator};
use mem_hier::L2Policy;
use tlb::TlbStats;
use workloads::{extended_registry, Scale, Workload};

fn app(name: &str) -> Workload {
    extended_registry()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap()
        .generate(Scale::Test, 42)
}

fn mix() -> Vec<Workload> {
    vec![app("gemm"), app("bfs")]
}

fn sum(stats: impl IntoIterator<Item = TlbStats>) -> TlbStats {
    stats.into_iter().fold(TlbStats::default(), |a, b| a + b)
}

/// Per-app L1/L2 TLB counters partition the aggregate exactly: the
/// eviction-to-victim attribution convention conserves every counter,
/// so fairness figures never double- or under-count traffic.
#[test]
fn per_app_tlb_stats_sum_to_aggregate() {
    let report = Simulator::new(GpuConfig::dac23_baseline())
        .with_sanitizer(true)
        .run_corun(mix());
    assert_eq!(report.per_app.len(), 2);
    assert_eq!(report.per_app[0].workload, "gemm");
    assert_eq!(report.per_app[1].workload, "bfs");
    assert_eq!(
        sum(report.per_app.iter().map(|a| a.l1_tlb)),
        sum(report.l1_tlb.iter().copied()),
        "per-app L1 TLB stats must partition the per-SM aggregate"
    );
    assert_eq!(
        sum(report.per_app.iter().map(|a| a.l2_tlb)),
        report.l2_tlb,
        "per-app L2 TLB stats must partition the shared aggregate"
    );
    // Both apps saw traffic, and each finished no later than the run.
    for a in &report.per_app {
        assert!(a.l1_tlb.lookups > 0, "{} issued no lookups", a.workload);
        assert!(a.cycles > 0 && a.cycles <= report.total_cycles);
    }
}

/// Every shared-L2 policy co-runs with the sanitizer's ASID-aware
/// invariants enabled throughout, and per-app L2 counters still partition
/// the aggregate. The MASK quota here is deliberately tiny so the token
/// gate actually starves fills.
#[test]
fn l2_policies_corun_sanitized() {
    for policy in [
        L2Policy::Shared,
        L2Policy::MaskTokens { quota: 4 },
        L2Policy::SubEntry { subs: 2 },
    ] {
        let report = Simulator::new(GpuConfig::dac23_baseline().with_l2_policy(policy))
            .with_sanitizer(true)
            .run_corun(mix());
        assert_eq!(
            sum(report.per_app.iter().map(|a| a.l2_tlb)),
            report.l2_tlb,
            "{policy:?} per-app L2 stats must still partition the aggregate"
        );
    }
}

/// A starved MASK quota changes timing but never correctness: the run
/// completes, both apps finish, and translation accounting still checks.
#[test]
fn mask_token_starvation_completes_soundly() {
    let report = Simulator::new(
        GpuConfig::dac23_baseline().with_l2_policy(L2Policy::MaskTokens { quota: 1 }),
    )
    .with_sanitizer(true)
    .run_corun(mix());
    assert_eq!(report.per_app.len(), 2);
    report
        .latency
        .check()
        .expect("latency attribution must survive token bypass");
    for a in &report.per_app {
        assert!(a.cycles > 0, "{} never finished under starvation", a.workload);
    }
}

/// Co-runs scale to wider mixes (4 and 8 apps) and keep the per-app
/// partition identity at every width.
#[test]
fn wide_mixes_keep_per_app_identities() {
    let names = ["gemm", "bfs", "mvt", "atax", "bicg", "mlp", "pagerank", "nw"];
    for width in [4usize, 8] {
        let apps: Vec<Workload> = names[..width].iter().map(|n| app(n)).collect();
        let report = Simulator::new(GpuConfig::dac23_baseline()).run_corun(apps);
        assert_eq!(report.per_app.len(), width);
        for (k, a) in report.per_app.iter().enumerate() {
            assert_eq!(a.asid as usize, k, "per-app entries are in ASID order");
            assert_eq!(a.workload, names[k]);
        }
        assert_eq!(
            sum(report.per_app.iter().map(|a| a.l1_tlb)),
            sum(report.l1_tlb.iter().copied()),
            "{width}-app L1 partition identity"
        );
        assert_eq!(
            sum(report.per_app.iter().map(|a| a.l2_tlb)),
            report.l2_tlb,
            "{width}-app L2 partition identity"
        );
    }
}

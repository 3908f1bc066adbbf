//! The timing decorators must be invisible to the simulation: for every
//! mechanism, serial and at two threads, the decorated simulator's CSV
//! row (which carries `sharded_rounds` and `fastpath_hits`) equals the
//! plain one's. A decorator that dropped a defaulted trait method would
//! switch off the sharded drain or the memo fast path and show here.

use gpu_sim::{GpuConfig, SimReport, Simulator};
use orchestrated_tlb::Mechanism;
use perfbench::decor::{decorated_simulator, Ledger};
use workloads::{registry, Scale, Workload};

fn generate(name: &str) -> Workload {
    registry()
        .into_iter()
        .find(|s| s.name == name)
        .expect("benchmark in the registry")
        .generate(Scale::Test, 42)
}

/// Runs the solo and the co-run input, returning both CSV rows and the
/// co-run's report.
fn rows(mut sim: Simulator, solo: &Workload, corun: &[Workload]) -> (String, String, SimReport) {
    let a = sim.run(solo.clone()).to_csv_row();
    let report = sim.run_corun(corun.to_vec());
    (a, report.to_csv_row(), report)
}

#[test]
fn decorated_simulator_matches_plain_for_every_mechanism() {
    let solo = generate("bfs");
    let corun = vec![generate("mvt"), generate("bfs")];
    // Shard every phase-B round, so at two threads the deferred-fill
    // path (`supports_deferred_fill` + `patch_ppn`) really runs.
    let config = GpuConfig {
        shard_threshold: 1,
        shard_lane_overhead: 0,
        ..GpuConfig::dac23_baseline()
    };
    for mechanism in Mechanism::all() {
        for threads in [1, 2] {
            let plain = mechanism
                .simulator(config.clone())
                .with_sim_threads(threads)
                .with_sanitizer(false);
            let ledger = Ledger::default();
            let decorated = decorated_simulator(mechanism, config.clone(), &ledger)
                .with_sim_threads(threads)
                .with_sanitizer(false);
            let (solo_plain, corun_plain, report) = rows(plain, &solo, &corun);
            let (solo_dec, corun_dec, _) = rows(decorated, &solo, &corun);
            assert_eq!(
                solo_plain, solo_dec,
                "{mechanism} solo at {threads} threads"
            );
            assert_eq!(
                corun_plain, corun_dec,
                "{mechanism} co-run at {threads} threads"
            );

            let c = ledger.totals();
            assert!(
                c.l1_lookups > 0 && c.tb_picks > 0 && c.warp_picks > 0,
                "{mechanism}: {c:?}"
            );
            if threads == 2 && report.sharded_rounds > 0 {
                assert!(
                    c.l1_patch_ppn_calls > 0,
                    "{mechanism}: sharded rounds ran without deferred-fill patches"
                );
            }
        }
    }
}

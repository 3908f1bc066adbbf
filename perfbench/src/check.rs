//! Output checks every timed run must pass. A failure is counted as a
//! failed run, never dropped.

use gpu_sim::SimReport;
use tlb::TlbStats;

/// Checks one report's internal identities:
/// - the per-level latency breakdown sums to the end-to-end latency;
/// - every TLB counter set satisfies `hits + misses == lookups`;
/// - the per-app counters sum to the aggregates (solo runs included);
/// - every warp op issued once (`instructions` equals the input's ops).
pub fn check_report(r: &SimReport, expected_instructions: u64) -> Result<(), String> {
    if r.total_cycles == 0 {
        return Err("zero simulated cycles".into());
    }
    r.latency
        .check()
        .map_err(|e| format!("latency breakdown: {e}"))?;
    for (sm, s) in r.l1_tlb.iter().enumerate() {
        s.check().map_err(|e| format!("L1 TLB of SM {sm}: {e}"))?;
    }
    r.l2_tlb.check().map_err(|e| format!("L2 TLB: {e}"))?;
    let mut l1_sum = TlbStats::default();
    let mut l2_sum = TlbStats::default();
    for app in &r.per_app {
        app.l1_tlb
            .check()
            .map_err(|e| format!("app {} L1 TLB: {e}", app.workload))?;
        app.l2_tlb
            .check()
            .map_err(|e| format!("app {} L2 TLB: {e}", app.workload))?;
        if app.cycles > r.total_cycles {
            return Err(format!(
                "app {} finished at cycle {} after the run's {}",
                app.workload, app.cycles, r.total_cycles
            ));
        }
        l1_sum += app.l1_tlb;
        l2_sum += app.l2_tlb;
    }
    let l1_total = r.l1_tlb.iter().fold(TlbStats::default(), |a, &b| a + b);
    if l1_sum != l1_total {
        return Err(format!(
            "per-app L1 TLB sum {l1_sum:?} != aggregate {l1_total:?}"
        ));
    }
    if l2_sum != r.l2_tlb {
        return Err(format!(
            "per-app L2 TLB sum {l2_sum:?} != aggregate {:?}",
            r.l2_tlb
        ));
    }
    if r.instructions != expected_instructions {
        return Err(format!(
            "{} warp instructions issued, the input has {expected_instructions}",
            r.instructions
        ));
    }
    Ok(())
}

/// Everything a report models, for exact comparison across repetitions
/// and between the traced and untraced runs: cycles and every TLB,
/// walker, cache and per-app counter.
pub fn fingerprint(r: &SimReport) -> String {
    format!("{r:?}")
}

/// Holds the first fingerprint seen and compares every later one to it.
#[derive(Debug, Default)]
pub struct SameEveryRep(Option<String>);

impl SameEveryRep {
    /// Records `fp`; errs when it differs from the first one recorded.
    pub fn check(&mut self, fp: String) -> Result<(), String> {
        match &self.0 {
            None => {
                self.0 = Some(fp);
                Ok(())
            }
            Some(first) if *first == fp => Ok(()),
            Some(_) => Err("output differs from the first repetition's".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_a_broken_lookup_identity() {
        let r = SimReport {
            total_cycles: 10,
            l1_tlb: vec![TlbStats {
                hits: 1,
                misses: 1,
                lookups: 3,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!(check_report(&r, 0).unwrap_err().contains("SM 0"));
    }

    #[test]
    fn first_fingerprint_is_the_reference() {
        let mut same = SameEveryRep::default();
        assert!(same.check("a".into()).is_ok());
        assert!(same.check("a".into()).is_ok());
        assert!(same.check("b".into()).is_err());
    }
}

//! The benchmark's metric catalogue (mirrored by `BENCHMARK.json`) and
//! the result line every run prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("norm_wall_s", "s"),
    ("norm_sim_instr_per_s", "instr/s"),
    ("sim_cycles", "cycles"),
    ("paper_gap_pp", "pp"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`. A
/// metric of a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("workloads.generate_s", "s"),
    ("workloads.trace_write_s", "s"),
    ("workloads.decoded_ops", "count"),
    ("workloads.decode_ns_per_op", "ns/op"),
    ("workloads.cache_requests", "count"),
    ("workloads.cache_generations", "count"),
    ("tlb.l1_lookups", "count"),
    ("tlb.l1_lookup_s", "s"),
    ("tlb.l1_inserts", "count"),
    ("tlb.l1_insert_s", "s"),
    ("tlb.l1_fastpath_ratio", "ratio"),
    ("tlb.l1_patch_ppn_calls", "count"),
    ("tlb.l1_hit_rate", "ratio"),
    ("sched.tb_picks", "count"),
    ("sched.tb_pick_s", "s"),
    ("sched.warp_picks", "count"),
    ("sched.warp_pick_s", "s"),
    ("gpu_sim.run_s", "s"),
    ("gpu_sim.self_s", "s"),
    ("gpu_sim.sharded_rounds", "count"),
    ("mem_hier.l2_tlb_hit_rate", "ratio"),
    ("mem_hier.l2_tlb_queue_cycles", "cycles"),
    ("mem_hier.walker_wait_cycles", "cycles"),
    ("vmem.walks", "count"),
    ("vmem.demand_faults", "count"),
    ("mem_hier.translate_ns_l1", "ns/call"),
    ("mem_hier.translate_calls_l1", "count"),
    ("mem_hier.translate_ns_l2", "ns/call"),
    ("mem_hier.translate_calls_l2", "count"),
    ("mem_hier.translate_ns_walk", "ns/call"),
    ("mem_hier.translate_calls_walk", "count"),
    ("mem_hier.walk_share", "ratio"),
    ("mem_hier.data_access_ns", "ns/call"),
    ("mem_hier.data_access_calls", "count"),
    ("analysis.fig3_4_s", "s"),
    ("bench.fig2_s", "s"),
    ("bench.fig5_6_s", "s"),
    ("bench.fig10_11_s", "s"),
    ("bench.fig12_s", "s"),
    ("bench.hugepage_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Metric values; catalogue metrics missing here are reported as 0.
    pub values: Values,
    /// Timed runs attempted.
    pub attempted: u64,
    /// Runs that panicked, returned an error or failed an output check.
    pub failed: u64,
}

impl RunResult {
    /// The `catalogue` metrics as `name = value unit` lines, then the
    /// JSON result object (the run's last line of output).
    pub fn render(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        let mut json = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            // `+ 0.0` turns the -0 of an empty float sum into 0.
            let v = if v.is_finite() { v + 0.0 } else { 0.0 };
            let _ = writeln!(out, "{name} = {v} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_line_is_last_and_lists_every_metric() {
        let mut r = RunResult {
            attempted: 3,
            ..Default::default()
        };
        r.values.insert("norm_wall_s", 0.25);
        let text = r.render(&END_TO_END);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(last.contains("\"norm_wall_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(last.matches("\"unit\"").count(), END_TO_END.len());
    }
}

//! `sweep` — architectural sensitivity sweeps around the Table III
//! baseline, printed as CSV.
//!
//! ```text
//! sweep --param l1-entries|l2-entries|walkers|walk-latency|l2-ports|
//!               l2-port-occupancy|l2-slices|sms
//!       [--scale test|small|paper] [--bench <name>]...
//!       [--mechanism full|baseline] [--jobs N]
//!       [--sanitize] [--trace-cache DIR] [--trace FILE]...
//! ```
//!
//! `--jobs N` runs up to `N` sweep cells (parameter value × benchmark)
//! in parallel; the default is the machine's available parallelism and
//! the CSV rows come out in the same order for every `N`.
//!
//! `--sanitize` turns on the engine's runtime invariant checks (see
//! `gpu_sim::sanitize`) for every cell; the first violation aborts with
//! a state dump. The CSV is unchanged when no violation fires.
//!
//! `--trace-cache DIR` backs the sweep's workload cache with an on-disk
//! `trace/v1` directory and `--trace FILE` preloads specific trace
//! files (see `repro` / `trace-gen`); the CSV is byte-identical to the
//! in-memory run either way.
//!
//! Example: how sensitive is the proposal's win to the number of
//! page-table walkers?
//!
//! ```text
//! cargo run --release -p bench --bin sweep -- --param walkers --bench atax
//! ```

use bench::cli::{exit_usage, select, Args, RunFlags};
use bench::SEED;
use gpu_sim::GpuConfig;
use orchestrated_tlb::{run_benchmark_cached, Mechanism};
use tlb::TlbConfig;
use workloads::registry;

/// One sweepable parameter.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Param {
    L1Entries,
    L2Entries,
    Walkers,
    WalkLatency,
    L2Ports,
    L2PortOccupancy,
    L2Slices,
    Sms,
}

impl Param {
    fn parse(s: &str) -> Option<Param> {
        Some(match s {
            "l1-entries" => Param::L1Entries,
            "l2-entries" => Param::L2Entries,
            "walkers" => Param::Walkers,
            "walk-latency" => Param::WalkLatency,
            "l2-ports" => Param::L2Ports,
            "l2-port-occupancy" => Param::L2PortOccupancy,
            "l2-slices" => Param::L2Slices,
            "sms" => Param::Sms,
            _ => return None,
        })
    }

    fn values(self) -> Vec<u64> {
        match self {
            Param::L1Entries => vec![16, 32, 64, 128, 256],
            Param::L2Entries => vec![128, 256, 512, 1024, 2048],
            Param::Walkers => vec![1, 2, 4, 8, 16, 32],
            Param::WalkLatency => vec![100, 250, 500, 1000, 2000],
            Param::L2Ports => vec![1, 2, 4, 8],
            // 1 = pipelined baseline; 10 = a port held for the full
            // lookup latency (unpipelined L2 TLB).
            Param::L2PortOccupancy => vec![1, 2, 5, 10],
            Param::L2Slices => vec![1, 2, 4, 8, 16],
            Param::Sms => vec![4, 8, 16, 32],
        }
    }

    fn apply(self, value: u64) -> GpuConfig {
        let base = GpuConfig::dac23_baseline();
        match self {
            Param::L1Entries => base.with_l1_tlb(TlbConfig::new(value as usize, 4, 1)),
            Param::L2Entries => GpuConfig {
                l2_tlb: TlbConfig::new(value as usize, 16, 10),
                ..base
            },
            Param::Walkers => GpuConfig {
                walkers: value as usize,
                ..base
            },
            Param::WalkLatency => GpuConfig {
                walk_latency: value,
                ..base
            },
            Param::L2Ports => GpuConfig {
                l2_tlb_ports: value as usize,
                ..base
            },
            Param::L2PortOccupancy => GpuConfig {
                l2_tlb_port_occupancy: value,
                ..base
            },
            Param::L2Slices => GpuConfig {
                l2_tlb_slices: value as usize,
                ..base
            },
            Param::Sms => GpuConfig {
                num_sms: value as usize,
                ..base
            },
        }
    }

    fn name(self) -> &'static str {
        match self {
            Param::L1Entries => "l1_entries",
            Param::L2Entries => "l2_entries",
            Param::Walkers => "walkers",
            Param::WalkLatency => "walk_latency",
            Param::L2Ports => "l2_ports",
            Param::L2PortOccupancy => "l2_port_occupancy",
            Param::L2Slices => "l2_slices",
            Param::Sms => "sms",
        }
    }
}

fn main() {
    let mut args = Args::from_env();
    let mut run = RunFlags::default();
    let mut param = None;
    let mut mechanism = Mechanism::Full;
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--param" => {
                param = Some(Param::parse(&args.value(&flag)).unwrap_or_else(|| {
                    exit_usage(
                        "--param must be one of l1-entries|l2-entries|walkers|walk-latency|l2-ports|l2-port-occupancy|l2-slices|sms",
                    )
                }))
            }
            "--mechanism" => {
                mechanism = match args.value(&flag).as_str() {
                    "full" => Mechanism::Full,
                    "baseline" => Mechanism::Baseline,
                    "sched" => Mechanism::Scheduling,
                    "sched+part" => Mechanism::SchedPartition,
                    other => exit_usage(&format!("unknown mechanism {other:?}")),
                };
            }
            other => run.accept(other, &mut args),
        }
    }
    let Some(param) = param else {
        exit_usage("--param is required");
    };
    let specs = select(registry(), &run.benches);
    let (scale, grid) = (run.scale, run.grid());

    println!(concat!(
        "param,value,bench,mechanism,cycles,l1_tlb_hit_rate,l2_tlb_hit_rate,walks,walker_wait,",
        "walker_coalesced,walker_max_queue_wait,translations,l1_tlb_cycles,icnt_cycles,",
        "l2_tlb_queue_cycles,l2_tlb_lookup_cycles,walk_cycles,fault_cycles,translate_cycles"
    ));
    // One sweep cell per parameter value × benchmark; the grid preserves
    // cell order, so the CSV comes out value-major like the serial loop.
    let cells: Vec<(u64, usize)> = param
        .values()
        .iter()
        .flat_map(|&value| (0..specs.len()).map(move |i| (value, i)))
        .collect();
    let rows = grid.map(&cells, |&(value, i)| {
        let spec = &specs[i];
        let r = run_benchmark_cached(
            grid.cache(),
            spec,
            scale,
            SEED,
            mechanism,
            param.apply(value),
        );
        format!(
            "{},{},{},{},{},{:.6},{:.6},{},{},{},{},{},{},{},{},{},{},{},{}",
            param.name(),
            value,
            spec.name,
            mechanism.label(),
            r.total_cycles,
            r.l1_tlb_hit_rate(),
            r.l2_tlb.hit_rate(),
            r.walker.walks,
            r.walker.queue_wait_cycles,
            r.walker.coalesced,
            r.walker.max_queue_wait,
            r.latency.translations,
            r.latency.l1_tlb_cycles,
            r.latency.icnt_cycles,
            r.latency.l2_tlb_queue_cycles,
            r.latency.l2_tlb_lookup_cycles,
            r.latency.walk_cycles,
            r.latency.fault_cycles,
            r.latency.end_to_end_cycles
        )
    });
    for row in rows {
        println!("{row}");
    }
}

//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API surface the workspace's benches use — [`Criterion`],
//! benchmark groups, [`Throughput`], the [`criterion_group!`] /
//! [`criterion_main!`] macros and `Bencher::iter` — backed by a simple
//! wall-clock measurement instead of criterion's full statistical
//! machinery. After one warm-up call, `iter` calibrates once how many
//! calls fill a sample of at least 5 ms, then times that many calls per
//! sample, so a sub-microsecond routine is not timed at the clock's
//! resolution. Results print as
//! `name  time: [median per iter]  thrpt: [elements/s]  min: [..]  mad: [..]`:
//! the median stays in the `time` field so existing scrapers keep
//! parsing it, followed by the fastest sample and the median absolute
//! deviation, both per call.
//!
//! `cargo bench` passes harness flags like `--bench`; unknown flags are
//! ignored. A positional filter argument restricts which benchmarks run,
//! mirroring criterion's CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark group.
#[derive(Copy, Clone, Debug)]
pub enum Throughput {
    /// Number of logical elements processed per iteration.
    Elements(u64),
    /// Number of bytes processed per iteration.
    Bytes(u64),
}

/// Each sample times enough calls to take at least this long.
const MIN_SAMPLE: Duration = Duration::from_millis(5);

/// The measurement driver handed to bench closures.
pub struct Bencher {
    /// Per-call time of each sample, in nanoseconds.
    samples: Vec<f64>,
    sample_size: usize,
    /// Calls per sample, as calibrated by the last `iter`.
    calls: u64,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            samples: Vec::with_capacity(sample_size),
            sample_size,
            calls: 1,
        }
    }

    /// Times `routine`: one warm-up call, a calibration of how many
    /// calls fill a sample of at least 5 ms, then `sample_size` samples
    /// of that many calls each.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        std::hint::black_box(routine());
        let mut batch = 1;
        self.calls = loop {
            let elapsed = time_calls(&mut routine, batch);
            match calibrate(batch, elapsed, MIN_SAMPLE) {
                Ok(calls) => break calls,
                Err(next) => batch = next,
            }
        };
        for _ in 0..self.sample_size {
            let elapsed = time_calls(&mut routine, self.calls);
            self.samples
                .push(elapsed.as_nanos() as f64 / self.calls as f64);
        }
    }
}

/// Wall time of `calls` back-to-back calls of `routine`.
fn time_calls<O, R: FnMut() -> O>(routine: &mut R, calls: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(routine());
    }
    start.elapsed()
}

/// One calibration step: `calls` calls took `elapsed`. Returns
/// `Ok(n)` when `n` calls fill a sample of at least `target`, or
/// `Err(m)` when the batch was too short to extrapolate from and `m`
/// calls should be timed next. A batch of at least a tenth of `target`
/// is extrapolated; shorter ones grow tenfold, so no calibration batch
/// runs longer than `target`.
fn calibrate(calls: u64, elapsed: Duration, target: Duration) -> Result<u64, u64> {
    if elapsed >= target {
        Ok(calls)
    } else if elapsed >= target / 10 {
        let per_call = elapsed.as_nanos() as f64 / calls as f64;
        Ok((target.as_nanos() as f64 / per_call).ceil() as u64)
    } else {
        Err(calls.saturating_mul(10))
    }
}

/// Minimum, median and median absolute deviation of per-call times.
#[derive(Debug, PartialEq)]
struct Summary {
    /// The fastest sample.
    min: Duration,
    /// The middle sample (the mean of the middle two for an even count).
    median: Duration,
    /// The median of the samples' absolute distances from the median.
    mad: Duration,
}

/// Summarises per-call sample times in nanoseconds; `None` when there
/// are no samples.
fn summarize(samples_ns: &[f64]) -> Option<Summary> {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let min = *sorted.first()?;
    let median = median_of_sorted(&sorted);
    let mut deviations: Vec<f64> = sorted.iter().map(|x| (x - median).abs()).collect();
    deviations.sort_unstable_by(f64::total_cmp);
    let ns = |x: f64| Duration::from_secs_f64(x / 1e9);
    Some(Summary {
        min: ns(min),
        median: ns(median),
        mad: ns(median_of_sorted(&deviations)),
    })
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Top-level benchmark harness state.
pub struct Criterion {
    sample_size: usize,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // Positional (non-flag) argument = benchmark name filter.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion {
            sample_size: 50,
            filter,
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Accepted for API compatibility; the stand-in's run length is
    /// governed by [`Criterion::sample_size`] and the 5 ms sample
    /// calibration alone.
    pub fn measurement_time(self, _d: Duration) -> Self {
        self
    }

    /// Accepted for API compatibility (one warm-up call is always made,
    /// then the calibration).
    pub fn warm_up_time(self, _d: Duration) -> Self {
        self
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.run_one(id, None, f);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_owned(),
            throughput: None,
        }
    }

    fn run_one<F: FnMut(&mut Bencher)>(
        &mut self,
        id: &str,
        throughput: Option<Throughput>,
        mut f: F,
    ) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        match summarize(&b.samples) {
            Some(Summary { min, median, mad }) => {
                let thrpt = throughput.map(|t| match t {
                    Throughput::Elements(n) => {
                        format!(
                            "  thrpt: {:.3} Kelem/s",
                            n as f64 / median.as_secs_f64() / 1e3
                        )
                    }
                    Throughput::Bytes(n) => {
                        format!(
                            "  thrpt: {:.3} MiB/s",
                            n as f64 / median.as_secs_f64() / (1 << 20) as f64
                        )
                    }
                });
                println!(
                    "{id:<50} time: [{median:?}]{}  min: [{min:?}]  mad: [{mad:?}]",
                    thrpt.unwrap_or_default()
                );
            }
            None => println!("{id:<50} (no samples)"),
        }
    }

    /// Prints the closing summary (no-op; kept for API compatibility).
    pub fn final_summary(&mut self) {}
}

/// A group of related benchmarks sharing a throughput annotation.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput annotation for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(1);
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        let throughput = self.throughput;
        self.criterion.run_one(&full, throughput, f);
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Re-export for `use criterion::black_box`.
pub use std::hint::black_box;

/// Declares a benchmark group: either `criterion_group!(name, f1, f2)` or
/// the `name = ...; config = ...; targets = ...` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench `main` that runs the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default().sample_size(3);
        c.filter = None;
        let mut runs = 0u64;
        c.bench_function("smoke", |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        // A warm-up, the calibration batches, then 3 calibrated samples.
        assert!(runs > 1 + 3, "{runs} calls");
    }

    #[test]
    fn iter_times_calibrated_samples() {
        let mut b = Bencher::new(4);
        let mut runs = 0u64;
        b.iter(|| runs += 1);
        assert_eq!(b.samples.len(), 4);
        // The warm-up and at least one calibration batch come first.
        assert!(
            runs >= 2 + 4 * b.calls,
            "{runs} calls, {} per sample",
            b.calls
        );
    }

    #[test]
    fn a_routine_slower_than_a_sample_runs_once_per_sample() {
        let mut b = Bencher::new(2);
        let mut runs = 0;
        b.iter(|| {
            runs += 1;
            std::thread::sleep(MIN_SAMPLE + Duration::from_millis(1));
        });
        assert_eq!(b.calls, 1);
        // The warm-up, one calibration call, two samples.
        assert_eq!(runs, 4);
        assert!(b.samples.iter().all(|&ns| ns >= 6e6));
    }

    #[test]
    fn calibrate_grows_short_batches_tenfold() {
        let target = Duration::from_millis(5);
        assert_eq!(calibrate(1, Duration::from_nanos(40), target), Err(10));
        assert_eq!(
            calibrate(1000, Duration::from_micros(499), target),
            Err(10_000)
        );
        assert_eq!(calibrate(u64::MAX, Duration::ZERO, target), Err(u64::MAX));
    }

    #[test]
    fn calibrate_extrapolates_from_a_tenth_of_the_target() {
        let target = Duration::from_millis(5);
        // 1000 calls in 0.5 ms: 500 ns each, so 10,000 fill 5 ms.
        assert_eq!(
            calibrate(1000, Duration::from_micros(500), target),
            Ok(10_000)
        );
        // 3 ns per call: 5 ms / 3 ns rounds up.
        assert_eq!(
            calibrate(1_000_000, Duration::from_millis(3), target),
            Ok(1_666_667)
        );
    }

    #[test]
    fn calibrate_keeps_a_batch_that_fills_the_target() {
        let target = Duration::from_millis(5);
        assert_eq!(calibrate(1, Duration::from_millis(5), target), Ok(1));
        assert_eq!(calibrate(7, Duration::from_secs(2), target), Ok(7));
    }

    #[test]
    fn summarize_reports_min_median_and_mad() {
        assert_eq!(summarize(&[]), None);
        let ns = Duration::from_nanos;
        // Sorted: 1 2 3 4 100; median 3; deviations 2 1 0 1 97 -> MAD 1.
        let s = summarize(&[4.0, 100.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.min, s.median, s.mad), (ns(1), ns(3), ns(1)));
        // An even count takes the mean of the middle two.
        let s = summarize(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!((s.min, s.median, s.mad), (ns(10), ns(25), ns(10)));
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.min, s.median, s.mad), (ns(7), ns(7), ns(0)));
    }

    #[test]
    fn groups_respect_throughput_and_finish() {
        let mut c = Criterion::default().sample_size(2);
        c.filter = None;
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Elements(100));
        group.bench_function("inner", |b| b.iter(|| 1 + 1));
        group.finish();
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c = Criterion::default().sample_size(2);
        c.filter = Some("nomatch".into());
        let mut runs = 0;
        c.bench_function("other", |b| {
            b.iter(|| {
                runs += 1;
            })
        });
        assert_eq!(runs, 0);
    }
}

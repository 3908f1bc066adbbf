//! Host-side facts: peak memory, core count, source revision, and the
//! statistics reported timings use.

use std::path::Path;

/// Median of `xs` (mean of the middle two for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Resets the kernel's peak-RSS mark for this process, so a later
/// [`peak_rss_mib`] covers only what ran after the reset. Returns false
/// where the kernel does not offer the reset; the peak then includes
/// set-up.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's peak resident set (`VmHWM`) in MiB, if the kernel
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The peak resident set of each repetition of a run: the kernel's peak
/// mark is reset when a repetition starts and read when it ends, so work
/// between repetitions (set-up, reference passes) is left out.
#[derive(Debug, Default)]
pub struct PeakRss {
    peaks_mib: Vec<f64>,
    all_reset: bool,
}

impl PeakRss {
    /// Starts a repetition.
    pub fn start(&mut self) {
        let reset = reset_peak_rss();
        self.all_reset = reset && (self.all_reset || self.peaks_mib.is_empty());
    }

    /// Ends the repetition started last.
    pub fn stop(&mut self) {
        if let Some(now) = peak_rss_mib() {
            self.peaks_mib.push(now);
        }
    }

    /// The median repetition's peak, in MiB (0 if the kernel reports
    /// none): a grid pass's peak moves with which simulations its two
    /// workers happen to overlap, and the median of the passes' peaks
    /// repeats across runs where their maximum does not. Warns when the
    /// mark could not be reset, so the peak includes what ran before.
    pub fn median_peak_mib(&self) -> f64 {
        if !self.all_reset {
            eprintln!("perfbench: peak RSS could not be reset; it includes set-up");
        }
        median(&self.peaks_mib)
    }
}

/// Cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` under `root`, or `unknown`
/// when `root` is not a git checkout.
pub fn git_rev(root: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let git = root.join(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn git_rev_is_unknown_outside_a_checkout() {
        assert_eq!(git_rev(Path::new("no-such-directory")), "unknown");
    }
}

//! Small measurement helpers: order statistics, a seeded generator for
//! the benchmark's own inputs, and the peak-RSS readers.

use std::time::Duration;

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); 0 for
/// an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The sample median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The lower median: always one of the samples, so the median of
/// integer counts stays an integer.
pub fn low_median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Seconds as `f64`, milliseconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: derives every input of a run (hunt seeds, campaign base
/// seeds, think times, re-execution samples) from `--seed`, so the same
/// seed always generates the same inputs. Independent of the program's
/// own generator on purpose: the program receives only the values.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A program seed small enough to stay clear of `base_seed + k`
    /// overflow checks.
    pub fn seed(&mut self) -> u64 {
        self.next_u64() >> 24
    }
}

/// `VmHWM` (peak resident set) of a process, in MB, read from
/// `/proc/<pid>/status`; `None` if the process is gone or the field is
/// missing.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The highest `VmHWM` of this process over chosen calls only: [`Self::start`]
/// resets the mark to the current resident set (`5` written to
/// `/proc/self/clear_refs`) before a call and [`Self::stop`] reads it
/// after, so output checks between the calls never count.
#[derive(Default)]
pub struct PeakRss {
    mb: f64,
}

impl PeakRss {
    pub fn start(&self) -> Result<(), String> {
        std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset VmHWM: {e}"))
    }

    pub fn stop(&mut self) -> Result<(), String> {
        let mb = peak_rss_mb("self").ok_or("cannot read VmHWM")?;
        self.mb = self.mb.max(mb);
        Ok(())
    }

    pub fn mb(&self) -> f64 {
        self.mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(low_median(&v), 2.0);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(SplitMix::new(7).next_u64(), SplitMix::new(8).next_u64());
    }
}

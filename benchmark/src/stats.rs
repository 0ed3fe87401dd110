//! Order statistics for timed samples, and the process's peak memory.
//!
//! Every timing the benchmark reports is a median with its quartiles
//! and sample count. A tail percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a "p99" is never one or two
//! outliers on a noisy 2-vCPU box.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median, quartiles and count of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median and quartiles. The quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), the rule the
/// benchmark's acceptance check uses; a single sample is its own
/// quartiles.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let n = v.len();
    let median = median(&v)?;
    let quartile = |i: usize| {
        if n < 2 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative for two or three samples, where Python extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Summary {
        n,
        median,
        q1: quartile(1),
        q3: quartile(3),
    })
}

/// The `p`-th percentile (nearest rank), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..100.0).contains(&p), "percentile out of range: {p}");
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| v[rank - 1])
}

/// The highest of p99.9 / p99 / p95 / p90 that [`percentile`] accepts,
/// as `(p, value)`.
pub fn highest_percentile(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find_map(|p| percentile(values, p).map(|v| (p, v)))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let one = summarize(&[7.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert_eq!(one.spread(), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // 1000 samples leave only one beyond p99.9.
        assert_eq!(percentile(&v, 99.9), None);
        assert_eq!(highest_percentile(&v), Some((99.0, 990.0)));
        // 100 samples: p90 has exactly ten beyond it, p95 only five.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), None);
        assert_eq!(highest_percentile(&v), Some((90.0, 90.0)));
        // Too few samples for any tail at all.
        assert_eq!(highest_percentile(&v[..50]), None);
    }

    #[test]
    fn vm_hwm_is_parsed_and_readable() {
        assert_eq!(
            parse_vm_hwm_kib("VmPeak:\t 10 kB\nVmHWM:\t  192176 kB\n"),
            Some(192_176)
        );
        assert_eq!(parse_vm_hwm_kib("VmRSS: 1 kB\n"), None);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}

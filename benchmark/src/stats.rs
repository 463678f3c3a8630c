//! Order statistics, the output digest, and the peak-memory reading the
//! harness reports. Quartiles use the same "exclusive" rule as Python's
//! `statistics.quantiles(values, n=4)`, so a spread computed here agrees
//! with one computed from the printed values by a script.

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
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

/// The `p`-quantile (0 < p < 1) of already-sorted data by the exclusive
/// method: position `p·(n+1)`, linearly interpolated, clamped to the data.
fn quantile_sorted(data: &[f64], p: f64) -> f64 {
    match data.len() {
        0 => f64::NAN,
        1 => data[0],
        n => {
            let pos = p * (n as f64 + 1.0);
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let delta = (pos - j as f64).clamp(0.0, 1.0);
            data[j - 1] + delta * (data[j] - data[j - 1])
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The 95th percentile; with ≥ 200 samples at least ten lie beyond it.
pub fn p95(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.95)
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
        min: s.first().copied().unwrap_or(f64::NAN),
        max: s.last().copied().unwrap_or(f64::NAN),
        n: s.len(),
    }
}

/// 64-bit FNV-1a over a workload's output bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn digest_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// The `VmHWM` line of a `/proc/<pid>/status` document, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; clamped
        // to the data here, because a time below the fastest run was never
        // measured.
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p95_interpolates_near_the_top() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // position 0.95 · 201 = 190.95 → between the 190th and 191st value.
        assert!((p95(&v) - 190.95).abs() < 1e-9);
        assert_eq!(p95(&[1.0, 2.0]), 2.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[9.0, 10.0, 11.0]);
        assert!((s.spread() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(digest_hex(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn vm_hwm_is_parsed_from_a_status_document() {
        let doc = "Name:\tbenchmark\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(doc), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots\n"), None);
        assert!(peak_rss_mb().expect("linux procfs") > 0.0);
    }
}

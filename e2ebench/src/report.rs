//! Order statistics, the process's peak memory, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank percentile of `values` (`p` in `[0, 1]`); `0.0` when
/// empty.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64 * p).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median of `durations` in microseconds.
pub fn median_us(durations: impl IntoIterator<Item = Duration>) -> f64 {
    let mut us: Vec<f64> = durations.into_iter().map(|d| d.as_secs_f64() * 1e6).collect();
    percentile(&mut us, 0.5)
}

/// Quartiles `(q1, median, q3)` the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method); `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        data[j - 1] + (data[j] - data[j - 1]) * delta / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("unavailable: /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("unavailable: no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unavailable: unreadable {line:?}"))?;
    Ok(kb / 1024.0)
}

/// Named metrics in the order they were added.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(&'static str, Result<f64, String>, &'static str)>,
}

impl Metrics {
    /// Adds a measured value.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.entries.push((name, Ok(value), unit));
    }

    /// Adds a value that may be unavailable on this platform.
    pub fn put_maybe(
        &mut self,
        name: &'static str,
        value: Result<f64, String>,
        unit: &'static str,
    ) {
        self.entries.push((name, value, unit));
    }

    /// One line per metric, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = match value {
                Ok(v) => writeln!(out, "  {name:<28} {v:>16.6} {unit}"),
                Err(why) => writeln!(out, "  {name:<28} {why}"),
            };
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit. An unavailable value is `null` with the
    /// reason beside it.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| match value {
                Ok(v) if v.is_finite() => {
                    format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
                }
                Ok(v) => {
                    format!("\"{name}\":{{\"value\":null,\"unit\":\"{unit}\",\"note\":\"{v}\"}}")
                }
                Err(why) => format!(
                    "\"{name}\":{{\"value\":null,\"unit\":\"{unit}\",\"note\":\"{}\"}}",
                    why.replace('"', "'")
                ),
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), Some((1.25, 3.0, 7.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }
}

//! Latency samples, percentiles and process memory.

use std::time::Duration;

/// Operations per latency window: each window's p99 then has ten
/// samples beyond it.
pub const WINDOW: usize = 1000;

/// The percentiles each window reports: p50 and p99.
const QUANTILES: [f64; 2] = [0.50, 0.99];

/// Per-operation latencies of one timed phase, summarised window by
/// window. A window is a run of whole rounds with at least [`WINDOW`]
/// operations; a shorter tail joins the last window. Only the open
/// window's samples are kept, so the benchmark's own memory does not
/// grow with the number of operations (it would show in `peak_rss_mb`).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    open: Vec<u64>,
    /// The last full window, held back in case a short tail joins it.
    held: Vec<u64>,
    /// Per closed window, one value per entry of [`QUANTILES`].
    windows: Vec<[Option<f64>; 2]>,
    count: u64,
    sum_ns: u64,
}

/// Nearest-rank percentile `q` of `ns` in microseconds, or `None` when
/// fewer than ten samples lie beyond it (it would not be a tail).
fn percentile_us(ns: &mut [u64], q: f64) -> Option<f64> {
    let n = ns.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 && q > 0.5 {
        return None;
    }
    let (_, x, _) = ns.select_nth_unstable(rank - 1);
    Some(*x as f64 * 1e-3)
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.open.push(ns);
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Marks the end of a round: the open window closes once it holds
    /// [`WINDOW`] samples.
    pub fn end_round(&mut self) {
        if self.open.len() >= WINDOW {
            let mut held = std::mem::take(&mut self.held);
            self.close(&mut held);
            self.held = std::mem::replace(&mut self.open, held);
        }
    }

    /// Closes the last window; call once after the timed phase.
    pub fn finish(&mut self) {
        let mut held = std::mem::take(&mut self.held);
        let mut open = std::mem::take(&mut self.open);
        if open.len() >= WINDOW || held.is_empty() {
            self.close(&mut held);
            self.close(&mut open);
        } else {
            held.append(&mut open);
            self.close(&mut held);
        }
    }

    fn close(&mut self, ns: &mut Vec<u64>) {
        if !ns.is_empty() {
            self.windows.push(QUANTILES.map(|q| percentile_us(ns, q)));
            ns.clear();
        }
    }

    pub fn len(&self) -> u64 {
        self.count
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.count as f64 * 1e-3
    }

    /// The median over windows of p50 (`p99 == false`) or p99, with the
    /// number of windows; `None` if a window has no such percentile.
    pub fn percentile_us(&self, p99: bool) -> Option<(f64, usize)> {
        let per_window: Option<Vec<f64>> = self.windows.iter().map(|w| w[usize::from(p99)]).collect();
        let per_window = per_window.filter(|v| !v.is_empty())?;
        Some((median(&per_window), per_window.len()))
    }
}

/// The median of `xs` (the mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path}: bad VmHWM line {line:?}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut ns: Vec<u64> = (1..=999).map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&mut ns, 0.99), None);
        let mut ns: Vec<u64> = (1..=1000).map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&mut ns, 0.99), Some(990.0));
        assert_eq!(percentile_us(&mut ns, 0.5), Some(500.0));
    }

    /// Rounds of `size` samples numbered on from 1 us.
    fn rounds(sizes: &[u64]) -> Samples {
        let mut s = Samples::default();
        let mut next = 1;
        for &size in sizes {
            for _ in 0..size {
                s.push(Duration::from_micros(next));
                next += 1;
            }
            s.end_round();
        }
        s.finish();
        s
    }

    #[test]
    fn windows_close_at_round_ends_and_a_short_tail_joins_the_last() {
        // Windows [1, 1200] and [1201, 2400]; the 600-sample tail joins
        // the second, whose p50 is then 1200 + 900.
        let s = rounds(&[1200, 1200, 600]);
        assert_eq!(s.percentile_us(false), Some(((600.0 + 2100.0) / 2.0, 2)));
        assert_eq!(s.len(), 3000);
        // Too few samples for one full window: one window, no p99.
        let s = rounds(&[500, 400]);
        assert_eq!(s.percentile_us(false), Some((450.0, 1)));
        assert_eq!(s.percentile_us(true), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

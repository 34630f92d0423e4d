//! Sample statistics shared by every workload: nearest-rank quantiles
//! with a sample-count guard, time windows, medians, the seed mixer,
//! and the process's peak resident set.

use std::time::{Duration, Instant};

/// Fewest samples a percentile may have beyond it before it is
/// reported: p90 needs at least 100 samples, p50 at least 20.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A set of latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty set with room for `n` samples.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            ns: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Adds one elapsed duration.
    pub fn push_duration(&mut self, d: Duration) {
        self.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether no sample was taken.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Sum of all samples, in seconds.
    #[must_use]
    pub fn sum_s(&self) -> f64 {
        self.ns.iter().map(|&n| n as f64).sum::<f64>() / 1e9
    }

    /// Lowers each sample to the one at the same position in `other`
    /// where that is smaller. Both sets must hold the same operations in
    /// the same order (repeated passes over one input), so the result
    /// is each operation's time in its quietest pass.
    ///
    /// # Panics
    ///
    /// Panics when the sets differ in length or one was sorted by a
    /// quantile already.
    pub fn keep_fastest(&mut self, other: &Samples) {
        assert_eq!(self.ns.len(), other.ns.len(), "passes differ in length");
        assert!(
            self.ns.len() < 2 || !(self.sorted || other.sorted),
            "pass samples lost their order"
        );
        for (m, &t) in self.ns.iter_mut().zip(&other.ns) {
            *m = (*m).min(t);
        }
    }

    /// Nearest-rank `q`-quantile in microseconds, or `None` when fewer
    /// than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
    pub fn quantile_us(&mut self, q: f64) -> Option<f64> {
        let n = self.ns.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n == 0 || n - rank < MIN_TAIL_SAMPLES {
            return None;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        Some(self.ns[rank - 1] as f64 / 1e3)
    }
}

/// Windows a timed run is cut into. Figures of work that cannot be
/// repeated (`broker-rate`) come from the best quarter of the windows
/// ([`best_quartile`]), so host noise that spoils up to three quarters
/// of a run leaves them unchanged.
pub const WINDOWS: u32 = 10;

/// Measurements of one time window of a run.
#[derive(Debug, Default)]
pub struct Window {
    /// Operations completed in the window.
    pub ops: u64,
    /// Time those operations took.
    pub busy: Duration,
    /// Per-operation latency samples.
    pub samples: Samples,
}

impl Window {
    /// Records one timed operation (or a batch of `ops`).
    pub fn record(&mut self, ops: u64, took: Duration) {
        self.ops += ops;
        self.busy += took;
        self.samples.push_duration(took);
    }
}

/// A run cut into [`WINDOWS`] consecutive windows of equal length;
/// operations land in the window the clock is in when they end.
#[derive(Debug)]
pub struct Windows {
    started: Instant,
    len: Duration,
    /// The windows so far, oldest first.
    pub list: Vec<Window>,
}

impl Windows {
    /// Windows covering `total` from now.
    #[must_use]
    pub fn over(total: Duration) -> Self {
        Self {
            started: Instant::now(),
            len: (total / WINDOWS).max(Duration::from_nanos(1)),
            list: Vec::new(),
        }
    }

    /// One window for a run of fixed work.
    #[must_use]
    pub fn single() -> Self {
        Self {
            started: Instant::now(),
            len: Duration::MAX,
            list: Vec::new(),
        }
    }

    /// Sets each window's busy time to the wall time it covered, for
    /// loops that count operations without timing each one.
    pub fn close(&mut self) {
        let elapsed = self.started.elapsed();
        let last = self.list.len().saturating_sub(1);
        for (k, w) in self.list.iter_mut().enumerate() {
            let start = self.len.saturating_mul(k as u32);
            w.busy = if k == last {
                elapsed.saturating_sub(start)
            } else {
                self.len
            };
        }
    }

    /// The window the clock is in now; overrun past the last window
    /// stays in the last one.
    pub fn current(&mut self) -> &mut Window {
        let k = (self.started.elapsed().as_nanos() / self.len.as_nanos())
            .min(u128::from(WINDOWS - 1)) as usize;
        while self.list.len() <= k {
            self.list.push(Window::default());
        }
        &mut self.list[k]
    }
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value a quarter of the way from the best end of `values`: the
/// `ceil(n / 4)`-th smallest when lower is better, the `ceil(n / 4)`-th
/// largest otherwise (the best of up to four values).
///
/// Host noise only makes a window slower, and on the host this
/// benchmark was sized on it comes in episodes of tens of seconds that
/// can cover most of a run; a program change moves every window.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn best_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best quartile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    v[v.len().div_ceil(4) - 1]
}

/// SplitMix64 finalizer: derives independent stream seeds from the
/// benchmark seed.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails when `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank_and_guarded() {
        let mut s = Samples::default();
        for ns in 1..=100u64 {
            s.push(ns * 1000);
        }
        assert_eq!(s.quantile_us(0.5), Some(50.0));
        assert_eq!(s.quantile_us(0.9), Some(90.0));
        // Only one sample lies beyond p99 of 100.
        assert_eq!(s.quantile_us(0.99), None);
        assert_eq!(Samples::default().quantile_us(0.5), None);
    }

    #[test]
    fn keep_fastest_takes_each_operations_minimum() {
        let mut a = Samples::default();
        let mut b = Samples::default();
        for (x, y) in [(5, 3), (1, 4), (7, 7)] {
            a.push(x * 1000);
            b.push(y * 1000);
        }
        let mut m = a.clone();
        m.keep_fastest(&b);
        assert_eq!(m.sum_s(), 11e-6);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn best_quartile_counts_from_the_best_end() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(best_quartile(&ten, true), 3.0);
        assert_eq!(best_quartile(&ten, false), 8.0);
        assert_eq!(best_quartile(&[5.0, 2.0, 9.0], true), 2.0);
        assert_eq!(best_quartile(&[5.0, 2.0, 9.0], false), 9.0);
        assert_eq!(best_quartile(&[4.0], true), 4.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().expect("linux /proc") > 0.0);
    }
}

//! The estimator every workload shares: a seeded generator for inputs
//! and arrival schedules, nearest-rank percentiles, and the
//! median-across-windows summary that keeps one machine stall from
//! moving a reported number.

/// SplitMix64: small, seedable, and good enough for arrival gaps and
/// class draws. The program under test never sees it — only the
/// inputs it generates.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }
}

/// Due times (ns from the schedule's origin) of a Poisson arrival
/// process: exponential gaps with mean `1 / rate_per_s`.
pub struct PoissonSchedule {
    rng: Rng,
    mean_gap_ns: f64,
    due_ns: f64,
}

impl PoissonSchedule {
    pub fn new(seed: u64, rate_per_s: f64) -> Self {
        PoissonSchedule {
            rng: Rng::new(seed),
            mean_gap_ns: 1e9 / rate_per_s,
            due_ns: 0.0,
        }
    }
}

impl Iterator for PoissonSchedule {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.due_ns += -(1.0 - self.rng.unit()).ln() * self.mean_gap_ns;
        Some(self.due_ns as u64)
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`);
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// A reported number: the median of its samples with the quartiles and
/// the sample count beside it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// The same samples in another unit.
    pub fn scaled(self, factor: f64) -> Self {
        Summary {
            value: self.value * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
            n: self.n,
        }
    }

    /// The same samples with a constant added.
    pub fn shifted(self, by: f64) -> Self {
        Summary {
            value: self.value + by,
            q1: self.q1 + by,
            q3: self.q3 + by,
            n: self.n,
        }
    }

    /// A count or computed figure that has no spread.
    pub fn exact(value: f64) -> Self {
        Summary {
            value,
            n: 1,
            q1: value,
            q3: value,
        }
    }
}

/// Median and quartiles (linear interpolation between ranks).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let at = |p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let pos = p * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    Summary {
        value: at(0.5),
        n: sorted.len(),
        q1: at(0.25),
        q3: at(0.75),
    }
}

/// Fewest samples a window needs for its p99 to count (5 lie beyond
/// it). The Interactive class of `serve_overload` gets ~780 correct
/// replies per 2-s window, the sparsest stream that still reports a
/// per-window p99.
pub const P99_MIN_SAMPLES: usize = 500;

/// The measured phase cut into fixed windows, by the time an operation
/// was due (open loop) or completed (closed loop, offline). Every rate
/// and percentile is computed per window and reported as the median
/// across windows.
pub struct Windows {
    window_ns: u64,
    /// One latency sample (µs) per correct operation.
    latency_us: Vec<Vec<f64>>,
    /// Work items the correct operations of each window produced.
    items: Vec<u64>,
    /// Time the operations of each window kept the caller busy; only
    /// back-to-back (offline) loops record it.
    busy_ns: Vec<u64>,
}

impl Windows {
    pub fn new(window_ns: u64, count: usize) -> Self {
        Windows {
            window_ns,
            latency_us: vec![Vec::new(); count],
            items: vec![0; count],
            busy_ns: vec![0; count],
        }
    }

    /// Records one correct reply at `t_ns` from the start of the
    /// measured phase; times outside the phase are dropped.
    pub fn record_ok(&mut self, t_ns: u64, latency_us: f64) {
        let i = (t_ns / self.window_ns) as usize;
        if i < self.items.len() {
            self.latency_us[i].push(latency_us);
            self.items[i] += 1;
        }
    }

    /// Records one correct back-to-back call that ended at `t_ns`, ran
    /// for `busy_ns` and produced `items` work items; its latency
    /// sample is the time per item.
    pub fn record_call(&mut self, t_ns: u64, busy_ns: u64, items: u64) {
        let i = (t_ns / self.window_ns) as usize;
        if i < self.items.len() {
            self.latency_us[i].push(busy_ns as f64 / 1e3 / items.max(1) as f64);
            self.items[i] += items;
            self.busy_ns[i] += busy_ns;
        }
    }

    /// Work items per second of wall time, per window.
    pub fn goodput_rps(&self) -> Summary {
        let secs = self.window_ns as f64 / 1e9;
        let rates: Vec<f64> = self.items.iter().map(|&n| n as f64 / secs).collect();
        summarize(&rates)
    }

    /// Work items per second of busy time, per window: the rate of a
    /// back-to-back loop, free of the quantisation a long call
    /// straddling a window edge would add.
    pub fn busy_rate_per_s(&self) -> Summary {
        let rates: Vec<f64> = self
            .items
            .iter()
            .zip(&self.busy_ns)
            .filter(|(_, &busy)| busy > 0)
            .map(|(&n, &busy)| n as f64 * 1e9 / busy as f64)
            .collect();
        summarize(&rates)
    }

    /// Median across windows of the per-window percentile. A window
    /// with fewer than `min_samples` samples cannot resolve the
    /// percentile; if no window can, all windows are pooled into one
    /// sample (and `n` reads 1).
    pub fn latency_us(&self, p: f64, min_samples: usize) -> Summary {
        let per_window: Vec<f64> = self
            .latency_us
            .iter()
            .filter(|w| w.len() >= min_samples.max(1))
            .map(|w| {
                let mut sorted = w.clone();
                sort(&mut sorted);
                percentile(&sorted, p)
            })
            .collect();
        if !per_window.is_empty() {
            return summarize(&per_window);
        }
        let mut pooled: Vec<f64> = self.latency_us.iter().flatten().copied().collect();
        sort(&mut pooled);
        Summary::exact(percentile(&pooled, p))
    }

    pub fn total_items(&self) -> u64 {
        self.items.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_is_median_with_quartiles() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.value, s.n, s.q1, s.q3), (3.0, 5, 2.0, 4.0));
        let even = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.value, 2.5);
    }

    /// One stalled window must not move the reported numbers: that is
    /// the whole reason for the median across windows.
    #[test]
    fn one_stalled_window_does_not_move_the_median() {
        let mut w = Windows::new(1_000, 5);
        for window in 0..5u64 {
            for i in 0..100u64 {
                let latency = if window == 2 {
                    700.0
                } else {
                    5.0 + i as f64 / 100.0
                };
                w.record_ok(window * 1_000 + i, latency);
            }
        }
        let p99 = w.latency_us(0.99, 1);
        assert!(p99.value < 6.0, "{p99:?}");
        assert_eq!(p99.n, 5);
        assert_eq!(w.goodput_rps().value, 100.0 / 1e-6);
        assert_eq!(w.total_items(), 500);
        // Out-of-phase samples are dropped, not folded into an edge window.
        w.record_ok(5_000, 1.0);
        assert_eq!(w.total_items(), 500);
    }

    #[test]
    fn sparse_windows_pool_their_samples() {
        let mut w = Windows::new(1_000, 2);
        w.record_ok(10, 1.0);
        w.record_ok(1_010, 3.0);
        let p = w.latency_us(0.99, P99_MIN_SAMPLES);
        assert_eq!((p.value, p.n), (3.0, 1));
    }

    #[test]
    fn busy_rate_ignores_window_edges() {
        let mut w = Windows::new(1_000_000_000, 2);
        w.record_call(500_000_000, 250_000_000, 16);
        w.record_call(900_000_000, 250_000_000, 16);
        let r = w.busy_rate_per_s();
        assert_eq!((r.value, r.n), (64.0, 1));
        // One latency sample per call: the time per item.
        assert_eq!(w.latency_us(0.5, 1).value, 250_000.0 / 16.0);
    }

    #[test]
    fn poisson_schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let a: Vec<u64> = PoissonSchedule::new(7, 800.0).take(1000).collect();
        let b: Vec<u64> = PoissonSchedule::new(7, 800.0).take(1000).collect();
        let c: Vec<u64> = PoissonSchedule::new(8, 800.0).take(1000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        // 1000 arrivals at 800/s span about 1.25 s.
        let span_s = a[999] as f64 / 1e9;
        assert!((1.0..1.5).contains(&span_s), "{span_s}");
    }
}

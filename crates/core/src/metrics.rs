//! Lightweight metrics: counters, gauges and latency histograms behind
//! one snapshot type.
//!
//! Every layer of the stack reports through the same structure: the
//! Table 1 accelerator row ([`crate::deploy::AcceleratorMetrics`])
//! converts into a [`MetricsSnapshot`], and the `condor-serve`
//! inference server maintains a live [`MetricsRegistry`] whose
//! `snapshot()` produces the same type — so benches, examples and
//! operational tooling print and compare one format.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Cap on retained histogram samples; recording keeps a uniform random
/// reservoir past this point so long-running servers stay bounded.
const RESERVOIR_CAP: usize = 8192;

/// What kind of instrument a registered metric name denominates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event count ([`MetricsRegistry::incr`]).
    Counter,
    /// Instantaneous value ([`MetricsRegistry::set_gauge`]).
    Gauge,
    /// Distribution of observations ([`MetricsRegistry::observe`]).
    Histogram,
}

impl MetricKind {
    /// Lower-case label used in documentation and audit output.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One registered metric name (or name template: `{}` stands for a run
/// of decimal digits, e.g. a per-instance index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    /// Canonical name; `{}` matches one-or-more decimal digits.
    pub name: &'static str,
    /// The instrument the name belongs to.
    pub kind: MetricKind,
    /// What the metric measures.
    pub help: &'static str,
}

/// The canonical metric-name registry.
///
/// Every name recorded into (or asserted against) a [`MetricsRegistry`]
/// or [`MetricsSnapshot`] must come from this table; `cargo run -p
/// xtask audit` enforces it statically (diagnostics `X010`–`X012`), so
/// a typo'd counter can no longer silently fork a metric. Append-only:
/// renaming an entry breaks every dashboard and test that reads it.
pub const METRICS: &[MetricSpec] = &[
    // Serving ledger: accepted == completed + failed + timed_out.
    MetricSpec {
        name: "requests_accepted",
        kind: MetricKind::Counter,
        help: "requests admitted into the queue",
    },
    MetricSpec {
        name: "requests_completed",
        kind: MetricKind::Counter,
        help: "requests answered successfully",
    },
    MetricSpec {
        name: "requests_failed",
        kind: MetricKind::Counter,
        help: "requests answered with a terminal error",
    },
    MetricSpec {
        name: "requests_timed_out",
        kind: MetricKind::Counter,
        help: "requests that exceeded their deadline",
    },
    MetricSpec {
        name: "requests_rejected_overloaded",
        kind: MetricKind::Counter,
        help: "requests rejected at admission (queue full)",
    },
    MetricSpec {
        name: "requests_dropped_worker_died",
        kind: MetricKind::Counter,
        help: "requests failed because a lane worker died",
    },
    MetricSpec {
        name: "requests_migrated",
        kind: MetricKind::Counter,
        help: "in-flight requests moved to another fleet instance",
    },
    // Lane / backend resilience.
    MetricSpec {
        name: "backend_retries",
        kind: MetricKind::Counter,
        help: "in-worker retries against a backend lane",
    },
    MetricSpec {
        name: "lane_marked_unhealthy",
        kind: MetricKind::Counter,
        help: "lanes quarantined after repeated failures",
    },
    MetricSpec {
        name: "lane_recovered",
        kind: MetricKind::Counter,
        help: "quarantined lanes that passed a re-probe",
    },
    // Fleet supervision.
    MetricSpec {
        name: "instance_failed_over",
        kind: MetricKind::Counter,
        help: "fleet instances declared dead and routed around",
    },
    MetricSpec {
        name: "instance_reprovisioned",
        kind: MetricKind::Counter,
        help: "fleet instances replaced by the supervisor",
    },
    MetricSpec {
        name: "instance_reprovision_failed",
        kind: MetricKind::Counter,
        help: "supervisor re-provisioning attempts that failed",
    },
    MetricSpec {
        name: "instance{}_completed",
        kind: MetricKind::Counter,
        help: "requests completed by one fleet instance",
    },
    // Table 1 accelerator row (AcceleratorMetrics::snapshot).
    MetricSpec {
        name: "bram_pct",
        kind: MetricKind::Gauge,
        help: "BRAM utilisation percent",
    },
    MetricSpec {
        name: "dsp_pct",
        kind: MetricKind::Gauge,
        help: "DSP utilisation percent",
    },
    MetricSpec {
        name: "ff_pct",
        kind: MetricKind::Gauge,
        help: "flip-flop utilisation percent",
    },
    MetricSpec {
        name: "lut_pct",
        kind: MetricKind::Gauge,
        help: "LUT utilisation percent",
    },
    MetricSpec {
        name: "freq_mhz",
        kind: MetricKind::Gauge,
        help: "achieved clock frequency",
    },
    MetricSpec {
        name: "gflops",
        kind: MetricKind::Gauge,
        help: "sustained throughput",
    },
    MetricSpec {
        name: "power_w",
        kind: MetricKind::Gauge,
        help: "estimated power draw",
    },
    MetricSpec {
        name: "gflops_per_w",
        kind: MetricKind::Gauge,
        help: "energy efficiency",
    },
    MetricSpec {
        name: "mean_us_per_image",
        kind: MetricKind::Gauge,
        help: "mean per-image latency",
    },
    // Server-side gauges and distributions.
    MetricSpec {
        name: "throughput_rps",
        kind: MetricKind::Gauge,
        help: "completed requests per second since start",
    },
    MetricSpec {
        name: "queue_depth",
        kind: MetricKind::Histogram,
        help: "queue depth sampled at admission",
    },
    MetricSpec {
        name: "batch_size",
        kind: MetricKind::Histogram,
        help: "dispatched batch sizes",
    },
    MetricSpec {
        name: "latency_us",
        kind: MetricKind::Histogram,
        help: "end-to-end request latency in microseconds",
    },
    // Durable admission (condor-queue wired through condor-serve).
    MetricSpec {
        name: "requests_redelivered",
        kind: MetricKind::Counter,
        help: "unacked durable records replayed after a restart",
    },
    MetricSpec {
        name: "disk_queue_depth",
        kind: MetricKind::Gauge,
        help: "records appended but not yet acked in the disk queue",
    },
    MetricSpec {
        name: "ack_latency_us",
        kind: MetricKind::Histogram,
        help: "admission to ack written for durable requests (durable at the next group sync)",
    },
    // Overload control & graceful degradation.
    MetricSpec {
        name: "requests_shed",
        kind: MetricKind::Counter,
        help: "accepted requests shed under overload (CoDel or breaker)",
    },
    MetricSpec {
        name: "requests_shed_interactive",
        kind: MetricKind::Counter,
        help: "Interactive-class requests shed under overload",
    },
    MetricSpec {
        name: "requests_shed_standard",
        kind: MetricKind::Counter,
        help: "Standard-class requests shed under overload",
    },
    MetricSpec {
        name: "requests_shed_batch",
        kind: MetricKind::Counter,
        help: "Batch-class requests shed under overload",
    },
    MetricSpec {
        name: "breaker{}_state",
        kind: MetricKind::Gauge,
        help: "circuit-breaker state of one fleet instance (0 closed, 1 open, 2 half-open)",
    },
    MetricSpec {
        name: "brownout_active",
        kind: MetricKind::Gauge,
        help: "1 while the INT8 brownout lane is serving, else 0",
    },
    MetricSpec {
        name: "queue_sojourn_us",
        kind: MetricKind::Histogram,
        help: "time requests spend in the classed admission queue",
    },
];

#[derive(Debug, Default)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    reservoir: Vec<f64>,
    /// xorshift state for reservoir replacement (seeded on first use).
    rng: u64,
}

impl Histogram {
    fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
            self.rng = 0x9e3779b97f4a7c15;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        if self.reservoir.len() < RESERVOIR_CAP {
            self.reservoir.push(value);
        } else {
            // Vitter's algorithm R: keep each sample with equal probability.
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let slot = (self.rng % self.count) as usize;
            if slot < RESERVOIR_CAP {
                self.reservoir[slot] = value;
            }
        }
    }

    fn summary(&self) -> HistogramSummary {
        let mut sorted = self.reservoir.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("histogram values are finite"));
        let q = |p: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx]
        };
        HistogramSummary {
            count: self.count,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            },
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
        }
    }
}

/// Distribution summary of one histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Thread-safe registry of named counters, gauges and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a counter (creating it at zero).
    pub fn incr(&self, name: &str, delta: u64) {
        *self.counters.lock().entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets a gauge to an instantaneous value.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.gauges.lock().insert(name.to_string(), value);
    }

    /// Records one observation into a histogram.
    pub fn observe(&self, name: &str, value: f64) {
        self.histograms
            .lock()
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Records a duration in microseconds.
    pub fn observe_duration(&self, name: &str, d: Duration) {
        self.observe(name, d.as_secs_f64() * 1e6);
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.lock().get(name).copied().unwrap_or(0)
    }

    /// Consistent point-in-time snapshot of everything recorded.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.lock().clone(),
            gauges: self.gauges.lock().clone(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }
}

/// Point-in-time metrics view: the one reporting structure shared by
/// the deployment layer, the benches and the inference server.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous values (utilisation %, GFLOPS, …).
    pub gauges: BTreeMap<String, f64>,
    /// Distribution summaries (latencies in µs, batch sizes, …).
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Sets a gauge on the snapshot itself — the named-metric API every
    /// layer that decorates a snapshot (the Table 1 accelerator row,
    /// the server throughput gauge) goes through, so the metric-name
    /// audit sees the name.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Convenience: a gauge value, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Convenience: a counter value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Convenience: a histogram summary, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Merges another snapshot into this one (counters add, gauges and
    /// histograms overwrite), for combining layers into one report.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            self.histograms.insert(k.clone(), v.clone());
        }
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.counters {
            writeln!(f, "counter   {name:<28} {value}")?;
        }
        for (name, value) in &self.gauges {
            writeln!(f, "gauge     {name:<28} {value:.3}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "histogram {name:<28} n={} mean={:.1} p50={:.1} p95={:.1} p99={:.1} max={:.1}",
                h.count, h.mean, h.p50, h.p95, h.p99, h.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut names: Vec<_> = METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len());
        for m in METRICS {
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_{}".contains(c)),
                "metric {} has unexpected characters",
                m.name
            );
            assert!(!m.help.is_empty());
        }
    }

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.incr("requests", 1);
        m.incr("requests", 2);
        assert_eq!(m.counter("requests"), 3);
        assert_eq!(m.snapshot().counter("requests"), 3);
        assert_eq!(m.snapshot().counter("missing"), 0);
    }

    #[test]
    fn histogram_quantiles_on_uniform_data() {
        let m = MetricsRegistry::new();
        for i in 1..=1000 {
            m.observe("latency_us", i as f64);
        }
        let snap = m.snapshot();
        let h = snap.histogram("latency_us").unwrap();
        assert_eq!(h.count, 1000);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 1000.0);
        assert!((h.mean - 500.5).abs() < 1e-9);
        assert!((h.p50 - 500.0).abs() <= 2.0, "p50 {}", h.p50);
        assert!((h.p95 - 950.0).abs() <= 2.0, "p95 {}", h.p95);
        assert!((h.p99 - 990.0).abs() <= 2.0, "p99 {}", h.p99);
    }

    #[test]
    fn reservoir_stays_bounded_and_representative() {
        let m = MetricsRegistry::new();
        for i in 0..100_000 {
            m.observe("x", (i % 100) as f64);
        }
        let snap = m.snapshot();
        let h = snap.histogram("x").unwrap();
        assert_eq!(h.count, 100_000);
        assert!(h.p50 > 25.0 && h.p50 < 75.0, "p50 {}", h.p50);
    }

    #[test]
    fn merge_adds_counters_and_overwrites_gauges() {
        let a = MetricsRegistry::new();
        a.incr("n", 2);
        a.set_gauge("g", 1.0);
        let b = MetricsRegistry::new();
        b.incr("n", 3);
        b.set_gauge("g", 9.0);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("n"), 5);
        assert_eq!(snap.gauge("g"), Some(9.0));
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let m = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        m.incr("ops", 1);
                        m.observe("v", i as f64);
                    }
                });
            }
        });
        assert_eq!(m.counter("ops"), 8000);
        assert_eq!(m.snapshot().histogram("v").unwrap().count, 8000);
    }

    #[test]
    fn display_is_line_per_metric() {
        let m = MetricsRegistry::new();
        m.incr("done", 7);
        m.set_gauge("gflops", 3.35);
        m.observe("lat", 10.0);
        let text = m.snapshot().to_string();
        assert!(text.contains("counter"));
        assert!(text.contains("done"));
        assert!(text.contains("gauge"));
        assert!(text.contains("histogram"));
    }
}

//! Per-instance circuit breakers: closed → open on a failure-rate
//! threshold → half-open probe → closed.
//!
//! The fleet used to count consecutive failures and fail an instance
//! over once the count crossed a threshold — a one-way door with no recovery short of reprovisioning, and no
//! memory: one success reset the count even when 9 of the last 10
//! dispatches failed. A [`CircuitBreaker`] replaces the counter with
//! the classic three-state machine:
//!
//! * **Closed** — traffic flows. Failures feed both a consecutive
//!   counter and a rolling failure-rate window
//!   ([`BreakerConfig::window`]); crossing either threshold trips the
//!   breaker to Open. The window is a fixed ring of time buckets, so a
//!   breaker's memory does not grow with its request rate.
//! * **Open** — traffic is refused outright (shed as `BreakerOpen`,
//!   no dispatch, no retry hammering). After
//!   [`BreakerConfig::open_timeout`] the breaker admits probes.
//! * **HalfOpen** — up to [`BreakerConfig::half_open_probes`] live
//!   requests are admitted as probes. That many consecutive probe
//!   successes close the breaker; any probe failure reopens it and
//!   restarts the timeout.
//!
//! The breaker reads time through the mockable [`Clock`] so every
//! transition is unit-testable with a manually advanced
//! [`MockClock`](condor_faults::retry::MockClock) — the deterministic
//! closed→open→half-open→closed trace below is the acceptance test.

use condor_faults::retry::{Clock, SystemClock};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Buckets of the failure-rate window: outcomes age out one bucket
/// (`window / WINDOW_BUCKETS`) at a time.
const WINDOW_BUCKETS: u64 = 10;

/// Tuning knobs of one circuit breaker.
#[derive(Clone, Debug, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker regardless of rate
    /// (at least 1).
    pub consecutive_failures: u32,
    /// Failure rate over [`BreakerConfig::window`] that trips the
    /// breaker (clamped to `(0, 1]`).
    pub failure_rate: f64,
    /// Samples the window must hold before the rate applies, so one
    /// failure out of one sample does not trip a fresh breaker.
    pub min_samples: u32,
    /// Width of the rolling failure-rate window. The rate counts the
    /// outcomes of the current bucket and the nine before it, so an
    /// outcome never counts once it is older than `window`.
    pub window: Duration,
    /// How long an open breaker refuses traffic before admitting
    /// half-open probes.
    pub open_timeout: Duration,
    /// Consecutive probe successes required to close (at least 1).
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            consecutive_failures: 3,
            failure_rate: 0.5,
            min_samples: 8,
            window: Duration::from_secs(10),
            open_timeout: Duration::from_secs(2),
            half_open_probes: 2,
        }
    }
}

impl BreakerConfig {
    /// Sets the consecutive-failure trip threshold.
    pub fn with_consecutive_failures(mut self, n: u32) -> Self {
        self.consecutive_failures = n;
        self
    }

    /// Sets the open → half-open timeout.
    pub fn with_open_timeout(mut self, d: Duration) -> Self {
        self.open_timeout = d;
        self
    }

    /// The config with every bound invariant enforced, applied once at
    /// breaker construction so runtime paths can rely on it.
    fn normalized(mut self) -> Self {
        self.consecutive_failures = self.consecutive_failures.max(1);
        self.failure_rate = if self.failure_rate.is_finite() {
            self.failure_rate.clamp(0.01, 1.0)
        } else {
            1.0
        };
        self.min_samples = self.min_samples.max(1);
        self.half_open_probes = self.half_open_probes.max(1);
        self
    }
}

/// The breaker's externally visible state (also the `breaker{}_state`
/// gauge encoding).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows normally.
    Closed,
    /// Traffic is refused; the instance is cooling off.
    Open,
    /// A bounded number of probes are testing recovery.
    HalfOpen,
}

impl BreakerState {
    /// Stable gauge encoding: 0 closed, 1 open, 2 half-open.
    pub fn as_gauge(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// The outcomes of one bucket-wide stretch of time.
#[derive(Clone, Copy, Default)]
struct Bucket {
    /// Clock reading divided by the bucket width.
    epoch: u64,
    successes: u32,
    failures: u32,
}

struct BreakerInner {
    state: BreakerState,
    /// Clock reading when the breaker last opened.
    opened_at: Duration,
    consecutive_failures: u32,
    /// The failure-rate window: epoch `e` counts in slot
    /// `e % WINDOW_BUCKETS`.
    window: [Bucket; WINDOW_BUCKETS as usize],
    /// Probes admitted but not yet reported while half-open.
    probes_in_flight: u32,
    probe_successes: u32,
    trips: u64,
}

/// One instance's circuit breaker. Thread-safe; a dispatcher calls
/// [`CircuitBreaker::admit`] before dispatch, and whichever thread
/// learns the outcome calls [`CircuitBreaker::on_success`] /
/// [`CircuitBreaker::on_failure`] after.
pub struct CircuitBreaker {
    config: BreakerConfig,
    clock: Arc<dyn Clock + Send + Sync>,
    inner: Mutex<BreakerInner>,
}

impl std::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("CircuitBreaker")
            .field("state", &inner.state)
            .field("trips", &inner.trips)
            .field("config", &self.config)
            .finish()
    }
}

impl CircuitBreaker {
    /// A breaker on an explicit clock (tests pass a
    /// [`MockClock`](condor_faults::retry::MockClock)).
    pub fn new(config: BreakerConfig, clock: Arc<dyn Clock + Send + Sync>) -> Self {
        CircuitBreaker {
            config: config.normalized(),
            clock,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                opened_at: Duration::ZERO,
                consecutive_failures: 0,
                window: Default::default(),
                probes_in_flight: 0,
                probe_successes: 0,
                trips: 0,
            }),
        }
    }

    /// A breaker on the real clock.
    pub fn with_system_clock(config: BreakerConfig) -> Self {
        CircuitBreaker::new(config, Arc::new(SystemClock))
    }

    /// The current state, advancing Open → HalfOpen when the timeout
    /// has elapsed (reads are transitions too, so a gauge scrape and a
    /// dispatcher see the same state).
    pub fn state(&self) -> BreakerState {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        self.tick(&mut inner, now);
        inner.state
    }

    /// Asks to dispatch one request. `true` means go (either the
    /// breaker is closed, or this request is admitted as a half-open
    /// probe); `false` means the request must be refused without
    /// touching the instance. Every admitted request must be reported
    /// back through [`CircuitBreaker::on_success`] or
    /// [`CircuitBreaker::on_failure`].
    pub fn admit(&self) -> bool {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        self.tick(&mut inner, now);
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if inner.probes_in_flight < self.config.half_open_probes {
                    inner.probes_in_flight += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Reports one admitted request's success. Returns `true` when
    /// this report closed a half-open breaker.
    pub fn on_success(&self) -> bool {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        self.tick(&mut inner, now);
        inner.consecutive_failures = 0;
        self.push_sample(&mut inner, now, false);
        if inner.state == BreakerState::HalfOpen {
            inner.probes_in_flight = inner.probes_in_flight.saturating_sub(1);
            inner.probe_successes += 1;
            if inner.probe_successes >= self.config.half_open_probes {
                inner.state = BreakerState::Closed;
                inner.window = Default::default();
                inner.probes_in_flight = 0;
                inner.probe_successes = 0;
                return true;
            }
        }
        false
    }

    /// Reports one admitted request's failure. Returns `true` when
    /// this report tripped the breaker open (from closed or from a
    /// failed half-open probe) — the caller's cue to schedule
    /// recovery.
    pub fn on_failure(&self) -> bool {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        self.tick(&mut inner, now);
        match inner.state {
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                // A probe failed: the instance is still sick.
                self.trip(&mut inner, now);
                true
            }
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                self.push_sample(&mut inner, now, true);
                let live = self.epoch(now).saturating_sub(WINDOW_BUCKETS - 1);
                let (mut failed, mut total) = (0u32, 0u32);
                for b in inner.window.iter().filter(|b| b.epoch >= live) {
                    failed = failed.saturating_add(b.failures);
                    total = total.saturating_add(b.failures).saturating_add(b.successes);
                }
                let rate_tripped = total >= self.config.min_samples
                    && f64::from(failed) >= self.config.failure_rate * f64::from(total);
                if inner.consecutive_failures >= self.config.consecutive_failures || rate_tripped {
                    self.trip(&mut inner, now);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Forces the breaker back to Closed with an empty window — the
    /// instance behind it was replaced (reprovisioned), so its failure
    /// history no longer describes anything live. The trip count is
    /// preserved for observability.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.window = Default::default();
        inner.probes_in_flight = 0;
        inner.probe_successes = 0;
    }

    fn trip(&self, inner: &mut BreakerInner, now: Duration) {
        inner.state = BreakerState::Open;
        inner.opened_at = now;
        inner.consecutive_failures = 0;
        inner.probes_in_flight = 0;
        inner.probe_successes = 0;
        inner.window = Default::default();
        inner.trips += 1;
    }

    fn tick(&self, inner: &mut BreakerInner, now: Duration) {
        if inner.state == BreakerState::Open
            && now.saturating_sub(inner.opened_at) >= self.config.open_timeout
        {
            inner.state = BreakerState::HalfOpen;
            inner.probes_in_flight = 0;
            inner.probe_successes = 0;
        }
    }

    /// The clock reading in bucket widths.
    fn epoch(&self, now: Duration) -> u64 {
        let width = (self.config.window.as_nanos() / u128::from(WINDOW_BUCKETS)).max(1);
        (now.as_nanos() / width) as u64
    }

    fn push_sample(&self, inner: &mut BreakerInner, now: Duration, failed: bool) {
        let epoch = self.epoch(now);
        let bucket = &mut inner.window[(epoch % WINDOW_BUCKETS) as usize];
        // A slot still holding an older epoch is reused; a reading
        // taken before a newer one got the lock counts with the newer.
        if bucket.epoch < epoch {
            *bucket = Bucket {
                epoch,
                ..Bucket::default()
            };
        }
        if failed {
            bucket.failures = bucket.failures.saturating_add(1);
        } else {
            bucket.successes = bucket.successes.saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_faults::retry::MockClock;

    fn breaker(clock: &Arc<MockClock>) -> CircuitBreaker {
        CircuitBreaker::new(
            BreakerConfig {
                consecutive_failures: 3,
                failure_rate: 0.5,
                min_samples: 4,
                window: Duration::from_secs(10),
                open_timeout: Duration::from_millis(500),
                half_open_probes: 2,
            },
            Arc::clone(clock) as Arc<dyn Clock + Send + Sync>,
        )
    }

    /// The acceptance-criteria trace: every transition of
    /// closed→open→half-open→closed driven by an explicit mock clock,
    /// the whole trajectory a pure function of the event sequence.
    #[test]
    fn deterministic_closed_open_half_open_closed_trace() {
        let clock = Arc::new(MockClock::new());
        let b = breaker(&clock);
        let mut trace = vec![(b.state(), b.admit())];

        // Two failures stay closed; the third trips.
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        assert!(b.on_failure());
        trace.push((b.state(), b.admit()));

        // Open refuses everything until the timeout.
        clock.advance(Duration::from_millis(499));
        trace.push((b.state(), b.admit()));

        // Timeout elapsed: half-open admits exactly two probes.
        clock.advance(Duration::from_millis(1));
        trace.push((b.state(), b.admit()));
        trace.push((b.state(), b.admit()));
        trace.push((b.state(), b.admit())); // third is refused

        // Both probes succeed: the second closes the breaker.
        assert!(!b.on_success());
        assert!(b.on_success());
        trace.push((b.state(), b.admit()));

        assert_eq!(
            trace,
            vec![
                (BreakerState::Closed, true),
                (BreakerState::Open, false),
                (BreakerState::Open, false),
                (BreakerState::HalfOpen, true),
                (BreakerState::HalfOpen, true),
                (BreakerState::HalfOpen, false),
                (BreakerState::Closed, true),
            ]
        );
        assert_eq!(b.inner.lock().trips, 1);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_the_timeout() {
        let clock = Arc::new(MockClock::new());
        let b = breaker(&clock);
        for _ in 0..3 {
            b.on_failure();
        }
        clock.advance(Duration::from_millis(500));
        assert!(b.admit(), "half-open probe admitted");
        assert!(b.on_failure(), "probe failure re-trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.inner.lock().trips, 2);
        // The timeout restarts from the re-trip.
        clock.advance(Duration::from_millis(499));
        assert!(!b.admit());
        clock.advance(Duration::from_millis(1));
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn failure_rate_trips_without_consecutive_failures() {
        let clock = Arc::new(MockClock::new());
        let b = CircuitBreaker::new(
            BreakerConfig {
                consecutive_failures: 100,
                failure_rate: 0.5,
                min_samples: 4,
                window: Duration::from_secs(10),
                ..BreakerConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock + Send + Sync>,
        );
        // Alternating outcomes never build a consecutive streak, but
        // the window rate reaches 2/4 on the fourth sample.
        assert!(!b.on_failure());
        b.on_success();
        assert!(!b.on_failure());
        b.on_success();
        assert!(b.on_failure(), "3 failures of 5 samples ≥ 0.5 rate");
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn stale_samples_age_out_of_the_window() {
        let clock = Arc::new(MockClock::new());
        let b = CircuitBreaker::new(
            BreakerConfig {
                consecutive_failures: 100,
                failure_rate: 0.5,
                min_samples: 2,
                window: Duration::from_millis(100),
                ..BreakerConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock + Send + Sync>,
        );
        assert!(!b.on_failure());
        clock.advance(Duration::from_millis(200));
        // The old failure has aged out; this is 1 failure of 1 sample,
        // below min_samples.
        assert!(!b.on_failure());
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn the_window_rolls_a_bucket_at_a_time() {
        let clock = Arc::new(MockClock::new());
        // 100 ms buckets; only the rate path can trip.
        let b = CircuitBreaker::new(
            BreakerConfig {
                consecutive_failures: 100,
                failure_rate: 0.5,
                min_samples: 4,
                window: Duration::from_secs(1),
                ..BreakerConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock + Send + Sync>,
        );
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        // 950 ms later the first bucket is still in the window: the
        // fourth failure of four samples trips.
        clock.advance(Duration::from_millis(950));
        assert!(!b.on_failure());
        assert!(b.on_failure());
        b.reset();
        // Two failures, then a whole window later two more land in the
        // same ring slot: the slot starts over, so 2 of 2 stay closed.
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        clock.advance(Duration::from_secs(1));
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn success_resets_the_consecutive_streak() {
        let clock = Arc::new(MockClock::new());
        // Rate path disabled (min_samples out of reach): only the
        // consecutive streak can trip.
        let b = CircuitBreaker::new(
            BreakerConfig {
                consecutive_failures: 3,
                min_samples: 100,
                ..BreakerConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock + Send + Sync>,
        );
        b.on_failure();
        b.on_failure();
        b.on_success();
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn reset_closes_an_open_breaker_but_keeps_the_trip_count() {
        let clock = Arc::new(MockClock::new());
        let b = breaker(&clock);
        for _ in 0..3 {
            b.on_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        b.reset();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
        assert_eq!(b.inner.lock().trips, 1, "history survives the reset");
        // The window restarts empty: two failures are not enough to
        // re-trip via the consecutive path (threshold 3).
        b.on_failure();
        assert!(!b.on_failure());
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn config_normalization_enforces_bounds() {
        let b = CircuitBreaker::with_system_clock(BreakerConfig {
            consecutive_failures: 0,
            failure_rate: f64::NAN,
            half_open_probes: 0,
            ..BreakerConfig::default()
        });
        // consecutive_failures floored to 1: one failure trips.
        assert!(b.on_failure());
        assert_eq!(b.state(), BreakerState::Open);
    }
}

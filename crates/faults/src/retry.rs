//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! The consuming half of the fault layer: cloud deployment retries
//! transient S3/AFI/slot failures, the serving dispatcher retries
//! transient backend failures. Both use one [`RetryPolicy`] shape so
//! the attempt bound, backoff curve and jitter envelope are testable in
//! isolation — against a [`MockClock`] that records sleeps instead of
//! performing them.
//!
//! Transient-vs-permanent classification comes from the [`Retryable`]
//! trait, which every substrate error type implements; permanent errors
//! are returned immediately, never retried.

use crate::{splitmix64, unit_f64};
use parking_lot::Mutex;
use std::time::Duration;

/// Errors that know whether retrying can help.
pub trait Retryable {
    /// True when the failure is transient (a retry may succeed).
    fn is_transient(&self) -> bool;
}

/// The time source retries sleep on; mockable for tests.
///
/// Beyond sleeping, consumers that make *rate* decisions (the circuit
/// breaker in `condor-queue`) also need to read elapsed
/// time, so the trait carries a monotonic [`Clock::now`] with a real
/// default; [`MockClock`] overrides it with a manually advanced
/// counter, which is what makes controller tests deterministic.
pub trait Clock {
    /// Waits for `d` (or records that it would have).
    fn sleep(&self, d: Duration);

    /// Elapsed time since an arbitrary fixed epoch (monotonic).
    fn now(&self) -> Duration {
        static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
        EPOCH.get_or_init(std::time::Instant::now).elapsed()
    }
}

/// The real clock: `std::thread::sleep`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A clock that records every requested sleep and never blocks. Its
/// [`Clock::now`] reading starts at zero and advances only through
/// [`MockClock::advance`] and recorded sleeps, so time-dependent logic
/// under test is fully deterministic.
#[derive(Debug, Default)]
pub struct MockClock {
    slept: Mutex<Vec<Duration>>,
    now: Mutex<Duration>,
}

impl MockClock {
    /// A fresh recording clock (its `now` starts at zero).
    pub fn new() -> Self {
        MockClock::default()
    }

    /// Every sleep requested so far, in order.
    pub fn slept(&self) -> Vec<Duration> {
        self.slept.lock().clone()
    }

    /// Moves the mock time forward by `d`.
    pub fn advance(&self, d: Duration) {
        let mut now = self.now.lock();
        *now = now.saturating_add(d);
    }
}

impl Clock for MockClock {
    fn sleep(&self, d: Duration) {
        self.slept.lock().push(d);
        self.advance(d);
    }

    fn now(&self) -> Duration {
        *self.now.lock()
    }
}

/// Bounded exponential backoff with deterministic jitter.
///
/// Attempt `n` (0-based) sleeps `base · 2ⁿ` capped at `cap`, scaled by
/// a jitter factor drawn deterministically from `seed` in
/// `[1 − jitter, 1]` — so two runs of the same policy sleep the same
/// amounts, and tests can assert the envelope exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first call included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled into
    /// `[(1 − jitter)·d, d]`.
    pub jitter: f64,
    /// Seed for the deterministic jitter sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            jitter: 0.5,
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no sleeping).
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Same policy, different attempt bound.
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Same policy, different base backoff.
    pub fn with_base(mut self, base: Duration) -> Self {
        self.base = base;
        self
    }

    /// Same policy, different backoff cap.
    pub fn with_cap(mut self, cap: Duration) -> Self {
        self.cap = cap;
        self
    }

    /// Same policy, different jitter fraction (clamped to `[0, 1]`).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    /// Same policy, different jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The backoff slept after failed attempt `attempt` (0-based):
    /// exponential, capped, jittered into `[(1 − jitter)·d, d]`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.cap);
        let frac = unit_f64(splitmix64(
            self.seed ^ (attempt as u64).wrapping_mul(0x9e37),
        ));
        exp.mul_f64(1.0 - self.jitter * frac)
    }

    /// Runs `op` under this policy on the real clock.
    pub fn run<T, E: Retryable>(&self, op: impl FnMut() -> Result<T, E>) -> Result<T, E> {
        self.run_with_clock(&SystemClock, op)
    }

    /// Runs `op` up to `max_attempts` times: permanent errors return
    /// immediately; transient errors sleep the jittered backoff and
    /// retry until the attempt budget is spent.
    pub fn run_with_clock<T, E: Retryable>(
        &self,
        clock: &dyn Clock,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let attempts = self.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    attempt += 1;
                    if !e.is_transient() || attempt >= attempts {
                        return Err(e);
                    }
                    clock.sleep(self.backoff(attempt - 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use std::cell::Cell;

    #[derive(Clone, Debug, PartialEq)]
    struct TestError {
        transient: bool,
    }

    impl Retryable for TestError {
        fn is_transient(&self) -> bool {
            self.transient
        }
    }

    #[test]
    fn transient_errors_retry_up_to_the_attempt_bound() {
        let clock = MockClock::new();
        let calls = Cell::new(0u32);
        let policy = RetryPolicy::default().with_max_attempts(4);
        let out: Result<(), TestError> = policy.run_with_clock(&clock, || {
            calls.set(calls.get() + 1);
            Err(TestError { transient: true })
        });
        assert!(out.is_err());
        assert_eq!(calls.get(), 4, "exactly max_attempts calls");
        assert_eq!(clock.slept().len(), 3, "sleeps between attempts only");
    }

    #[test]
    fn permanent_errors_are_never_retried() {
        let clock = MockClock::new();
        let calls = Cell::new(0u32);
        let policy = RetryPolicy::default().with_max_attempts(10);
        let out: Result<(), TestError> = policy.run_with_clock(&clock, || {
            calls.set(calls.get() + 1);
            Err(TestError { transient: false })
        });
        assert!(out.is_err());
        assert_eq!(calls.get(), 1);
        assert!(clock.slept().is_empty());
    }

    #[test]
    fn success_after_transient_failures_stops_retrying() {
        let clock = MockClock::new();
        let calls = Cell::new(0u32);
        let policy = RetryPolicy::default().with_max_attempts(5);
        let out: Result<u32, TestError> = policy.run_with_clock(&clock, || {
            calls.set(calls.get() + 1);
            if calls.get() < 3 {
                Err(TestError { transient: true })
            } else {
                Ok(99)
            }
        });
        assert_eq!(out.unwrap(), 99);
        assert_eq!(calls.get(), 3);
        assert_eq!(clock.slept().len(), 2);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy::default()
            .with_base(Duration::from_millis(10))
            .with_cap(Duration::from_millis(50))
            .with_jitter(0.0);
        assert_eq!(policy.backoff(0), Duration::from_millis(10));
        assert_eq!(policy.backoff(1), Duration::from_millis(20));
        assert_eq!(policy.backoff(2), Duration::from_millis(40));
        assert_eq!(policy.backoff(3), Duration::from_millis(50), "capped");
        assert_eq!(policy.backoff(10), Duration::from_millis(50));
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let policy = RetryPolicy::default()
            .with_base(Duration::from_millis(8))
            .with_cap(Duration::from_secs(10))
            .with_jitter(0.5)
            .with_seed(1234);
        for attempt in 0..8 {
            let full = Duration::from_millis(8).saturating_mul(1 << attempt);
            let d = policy.backoff(attempt);
            assert!(d <= full, "attempt {attempt}: {d:?} > {full:?}");
            assert!(
                d >= full.mul_f64(0.5),
                "attempt {attempt}: {d:?} below jitter floor {:?}",
                full.mul_f64(0.5)
            );
            // Deterministic: same policy, same value.
            assert_eq!(d, policy.backoff(attempt));
        }
        // A different seed produces a different jitter sequence.
        let other = policy.clone().with_seed(4321);
        assert!((0..8).any(|a| other.backoff(a) != policy.backoff(a)));
    }

    #[test]
    fn mock_clock_records_the_exact_backoff_sequence() {
        let clock = MockClock::new();
        let policy = RetryPolicy::default()
            .with_max_attempts(4)
            .with_base(Duration::from_millis(3))
            .with_jitter(0.25)
            .with_seed(77);
        let _: Result<(), TestError> =
            policy.run_with_clock(&clock, || Err(TestError { transient: true }));
        let expected: Vec<Duration> = (0..3).map(|a| policy.backoff(a)).collect();
        assert_eq!(clock.slept(), expected);
    }

    #[test]
    fn no_retry_policy_makes_one_attempt() {
        let clock = MockClock::new();
        let calls = Cell::new(0u32);
        let out: Result<(), TestError> = RetryPolicy::no_retry().run_with_clock(&clock, || {
            calls.set(calls.get() + 1);
            Err(TestError { transient: true })
        });
        assert!(out.is_err());
        assert_eq!(calls.get(), 1);
    }
}

//! AIMD adaptive concurrency: additive increase, multiplicative
//! decrease over observed per-backend latency.
//!
//! Static `router_threads`/`queue_capacity` settings encode a guess
//! about how much concurrency a backend sustains; the guess goes stale
//! the moment an instance degrades. An [`AimdController`] replaces the
//! trust with a probe: every completed dispatch reports its latency,
//! samples above [`AimdConfig::latency_threshold`] (or outright
//! failures) multiply the concurrency limit down by
//! [`AimdConfig::decrease_factor`], and a sustained quiet period adds
//! [`AimdConfig::increase_step`] back — the classic TCP-style sawtooth,
//! here applied to in-flight requests per backend (the shape used by
//! Vector's adaptive request concurrency).
//!
//! The controller reads time through the mockable
//! [`Clock`](condor_faults::retry::Clock), so every transition is unit
//! testable with a manually advanced
//! [`MockClock`](condor_faults::retry::MockClock): no sleeps, no
//! flakiness. Invariants, enforced unconditionally:
//!
//! * the limit never falls below [`AimdConfig::min_limit`] (≥ 1, so
//!   progress is always possible);
//! * the limit never exceeds [`AimdConfig::max_limit`];
//! * decreases are rate-limited by [`AimdConfig::cooldown`], so one
//!   slow *batch* costs one halving, not one per request in it.

use condor_faults::retry::{Clock, SystemClock};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs of the AIMD controller.
#[derive(Clone, Debug, PartialEq)]
pub struct AimdConfig {
    /// Concurrency limit a fresh controller starts at (clamped into
    /// `[min_limit, max_limit]`).
    pub initial_limit: usize,
    /// Floor of the limit; at least 1 so the backend is never starved.
    pub min_limit: usize,
    /// Ceiling of the limit.
    pub max_limit: usize,
    /// Latency above this is a congestion signal.
    pub latency_threshold: Duration,
    /// Multiplier applied on congestion (clamped to `[0.1, 0.9]`).
    pub decrease_factor: f64,
    /// Additive recovery step after a quiet period.
    pub increase_step: usize,
    /// How long the controller must sit below the threshold before it
    /// probes upward.
    pub quiet_period: Duration,
    /// Minimum spacing between two decreases.
    pub cooldown: Duration,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            initial_limit: 8,
            min_limit: 1,
            max_limit: 64,
            latency_threshold: Duration::from_millis(250),
            decrease_factor: 0.5,
            increase_step: 1,
            quiet_period: Duration::from_millis(500),
            cooldown: Duration::from_millis(500),
        }
    }
}

impl AimdConfig {
    /// Sets the starting limit.
    pub fn with_initial_limit(mut self, n: usize) -> Self {
        self.initial_limit = n;
        self
    }

    /// Sets the limit floor and ceiling (floor raised to at least 1,
    /// ceiling to at least the floor).
    pub fn with_limits(mut self, min: usize, max: usize) -> Self {
        self.min_limit = min.max(1);
        self.max_limit = max.max(self.min_limit);
        self
    }

    /// Sets the congestion latency threshold.
    pub fn with_latency_threshold(mut self, t: Duration) -> Self {
        self.latency_threshold = t;
        self
    }

    /// Sets the quiet period before an additive increase.
    pub fn with_quiet_period(mut self, d: Duration) -> Self {
        self.quiet_period = d;
        self
    }

    /// Sets the minimum spacing between decreases.
    pub fn with_cooldown(mut self, d: Duration) -> Self {
        self.cooldown = d;
        self
    }

    /// The config with every bound invariant enforced, applied once at
    /// controller construction so runtime paths can rely on it.
    fn normalized(mut self) -> Self {
        self.min_limit = self.min_limit.max(1);
        self.max_limit = self.max_limit.max(self.min_limit);
        self.initial_limit = self.initial_limit.clamp(self.min_limit, self.max_limit);
        self.decrease_factor = self.decrease_factor.clamp(0.1, 0.9);
        self.increase_step = self.increase_step.max(1);
        self
    }
}

#[derive(Debug)]
struct AimdState {
    limit: usize,
    /// Clock reading of the last decrease (`None` before the first).
    last_decrease: Option<Duration>,
    /// Clock reading of the last limit change in either direction;
    /// the quiet period is measured from here.
    last_change: Duration,
    decreases: u64,
    increases: u64,
}

/// One backend's adaptive concurrency limit.
///
/// Thread-safe: routers read [`AimdController::limit`] before
/// dispatching and call [`AimdController::observe`] /
/// [`AimdController::on_congestion`] after.
pub struct AimdController {
    config: AimdConfig,
    clock: Arc<dyn Clock + Send + Sync>,
    state: Mutex<AimdState>,
}

impl std::fmt::Debug for AimdController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("AimdController")
            .field("limit", &state.limit)
            .field("decreases", &state.decreases)
            .field("increases", &state.increases)
            .field("config", &self.config)
            .finish()
    }
}

impl AimdController {
    /// A controller on an explicit clock (tests pass a
    /// [`MockClock`](condor_faults::retry::MockClock)).
    pub fn new(config: AimdConfig, clock: Arc<dyn Clock + Send + Sync>) -> Self {
        let config = config.normalized();
        let now = clock.now();
        AimdController {
            state: Mutex::new(AimdState {
                limit: config.initial_limit,
                last_decrease: None,
                last_change: now,
                decreases: 0,
                increases: 0,
            }),
            config,
            clock,
        }
    }

    /// A controller on the real clock.
    pub fn with_system_clock(config: AimdConfig) -> Self {
        AimdController::new(config, Arc::new(SystemClock))
    }

    /// The current concurrency limit.
    pub fn limit(&self) -> usize {
        self.state.lock().limit
    }

    /// How many multiplicative decreases have happened.
    pub fn decreases(&self) -> u64 {
        self.state.lock().decreases
    }

    /// How many additive increases have happened.
    pub fn increases(&self) -> u64 {
        self.state.lock().increases
    }

    /// Feeds one completed dispatch's latency; returns the limit after
    /// any adjustment.
    pub fn observe(&self, latency: Duration) -> usize {
        if latency > self.config.latency_threshold {
            self.congest()
        } else {
            let now = self.clock.now();
            let mut state = self.state.lock();
            if now.saturating_sub(state.last_change) >= self.config.quiet_period
                && state.limit < self.config.max_limit
            {
                state.limit = (state.limit + self.config.increase_step).min(self.config.max_limit);
                state.last_change = now;
                state.increases += 1;
            }
            state.limit
        }
    }

    /// Feeds one congestion signal (a failed or shed dispatch counts
    /// like an over-threshold latency); returns the limit after any
    /// adjustment.
    pub fn on_congestion(&self) -> usize {
        self.congest()
    }

    /// Collapses the limit straight to [`AimdConfig::min_limit`],
    /// bypassing the cooldown — the composition point with a circuit
    /// breaker: when the instance's breaker trips open there is no
    /// point stepping the sawtooth down a halving at a time, the
    /// instance is sick *now*. Recovery still climbs additively, so a
    /// reopened instance is re-trusted gradually, not all at once.
    pub fn collapse(&self) -> usize {
        let now = self.clock.now();
        let mut state = self.state.lock();
        if state.limit > self.config.min_limit {
            state.limit = self.config.min_limit;
            state.decreases += 1;
        }
        state.last_decrease = Some(now);
        state.last_change = now;
        state.limit
    }

    fn congest(&self) -> usize {
        let now = self.clock.now();
        let mut state = self.state.lock();
        let cooled = match state.last_decrease {
            None => true,
            Some(at) => now.saturating_sub(at) >= self.config.cooldown,
        };
        if cooled {
            let cut = (state.limit as f64 * self.config.decrease_factor).floor() as usize;
            state.limit = cut.max(self.config.min_limit);
            state.last_decrease = Some(now);
            state.last_change = now;
            state.decreases += 1;
        }
        state.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_faults::retry::MockClock;

    fn controller(clock: &Arc<MockClock>) -> AimdController {
        AimdController::new(
            AimdConfig::default()
                .with_initial_limit(16)
                .with_limits(1, 32)
                .with_latency_threshold(Duration::from_millis(10))
                .with_quiet_period(Duration::from_millis(100))
                .with_cooldown(Duration::from_millis(100)),
            Arc::clone(clock) as Arc<dyn Clock + Send + Sync>,
        )
    }

    #[test]
    fn latency_step_up_halves_the_limit() {
        let clock = Arc::new(MockClock::new());
        let ctl = controller(&clock);
        assert_eq!(ctl.limit(), 16);
        // One over-threshold sample: 16 -> 8.
        assert_eq!(ctl.observe(Duration::from_millis(50)), 8);
        // Inside the cooldown further congestion is absorbed.
        assert_eq!(ctl.observe(Duration::from_millis(50)), 8);
        assert_eq!(ctl.decreases(), 1);
        // Past the cooldown the next slow sample halves again.
        clock.advance(Duration::from_millis(150));
        assert_eq!(ctl.observe(Duration::from_millis(50)), 4);
        assert_eq!(ctl.decreases(), 2);
    }

    #[test]
    fn quiet_period_recovers_additively() {
        let clock = Arc::new(MockClock::new());
        let ctl = controller(&clock);
        ctl.observe(Duration::from_millis(50)); // 16 -> 8
                                                // Fast samples inside the quiet period change nothing.
        assert_eq!(ctl.observe(Duration::from_millis(1)), 8);
        // After a quiet period each fast sample adds one step.
        clock.advance(Duration::from_millis(120));
        assert_eq!(ctl.observe(Duration::from_millis(1)), 9);
        assert_eq!(ctl.increases(), 1);
        // The quiet timer restarts from the increase.
        assert_eq!(ctl.observe(Duration::from_millis(1)), 9);
        clock.advance(Duration::from_millis(120));
        assert_eq!(ctl.observe(Duration::from_millis(1)), 10);
    }

    #[test]
    fn limit_never_starves_below_min_or_exceeds_max() {
        let clock = Arc::new(MockClock::new());
        let ctl = controller(&clock);
        // Hammer congestion far past where halving would hit zero.
        for _ in 0..20 {
            clock.advance(Duration::from_millis(150));
            ctl.on_congestion();
        }
        assert_eq!(ctl.limit(), 1, "floor holds");
        // Recover far past the ceiling.
        for _ in 0..100 {
            clock.advance(Duration::from_millis(150));
            ctl.observe(Duration::ZERO);
        }
        assert_eq!(ctl.limit(), 32, "ceiling holds");
    }

    #[test]
    fn failures_count_as_congestion() {
        let clock = Arc::new(MockClock::new());
        let ctl = controller(&clock);
        assert_eq!(ctl.on_congestion(), 8);
        assert_eq!(ctl.decreases(), 1);
    }

    #[test]
    fn collapse_drops_to_the_floor_and_recovers_additively() {
        let clock = Arc::new(MockClock::new());
        let ctl = controller(&clock);
        assert_eq!(ctl.limit(), 16);
        assert_eq!(ctl.collapse(), 1, "straight to min, no cooldown");
        assert_eq!(ctl.decreases(), 1);
        // A second collapse at the floor changes nothing.
        assert_eq!(ctl.collapse(), 1);
        assert_eq!(ctl.decreases(), 1);
        // Recovery is the usual additive climb from the floor.
        clock.advance(Duration::from_millis(120));
        assert_eq!(ctl.observe(Duration::from_millis(1)), 2);
    }

    #[test]
    fn config_normalization_enforces_bounds() {
        let ctl = AimdController::with_system_clock(
            AimdConfig::default()
                .with_initial_limit(1000)
                .with_limits(0, 0),
        );
        // min raised to 1, max raised to min, initial clamped.
        assert_eq!(ctl.limit(), 1);
    }

    #[test]
    fn deterministic_trace_on_the_mock_clock() {
        // The acceptance-criteria trace: the limit demonstrably adapts
        // under an injected slowdown, and the whole trajectory is a
        // pure function of the sample sequence.
        let clock = Arc::new(MockClock::new());
        let ctl = controller(&clock);
        let mut trace = vec![ctl.limit()];
        let samples = [1u64, 1, 50, 1, 50, 1, 1, 1];
        for ms in samples {
            clock.advance(Duration::from_millis(110));
            trace.push(ctl.observe(Duration::from_millis(ms)));
        }
        assert_eq!(trace, vec![16, 17, 18, 9, 10, 5, 6, 7, 8]);
    }
}

//! Brownout mode: graceful degradation from f32 to INT8 inference.
//!
//! When overload control starts shedding requests, dropping work is
//! the last resort — serving *cheaper* work is better. The quantized
//! engine executes the same network at a bounded accuracy cost and was
//! meant to be the cheaper lane (today `perf` measures it at ≈ 0.4× the
//! f32 rate on `vgg56`; ROADMAP, first open item): under sustained
//! shedding the [`BrownoutController`] latches *active* and every
//! [`DegradableBackend`] switches its CPU lane from [`FastEngine`] to
//! [`QuantizedEngine`]; once the queue has been quiet for a while it
//! switches back.
//!
//! The two thresholds are deliberately asymmetric (engage on a burst
//! of sheds inside a short window, disengage only after a long quiet
//! period) so the controller has hysteresis: a single marginal
//! overload episode cannot make it flap between precisions.
//!
//! Replies produced while the controller is active carry
//! `degraded: true` (see `ServeReply`), and the batcher exports the
//! `brownout_active` gauge. The fault site `brownout.switch` forces
//! the controller active, which is how tests and chaos drills exercise
//! the quantized lane without manufacturing real overload.

use condor::{CondorError, ExecutionBackend};
use condor_dataflow::{PipelineModel, PlanBuilder};
use condor_faults::retry::{Clock, SystemClock};
use condor_faults::FaultHandle;
use condor_nn::{FastEngine, Network, QuantizedEngine};
use condor_tensor::Tensor;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Engage/disengage thresholds for brownout mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// Sheds inside `engage_window` that trip brownout on.
    pub engage_sheds: u32,
    /// Sliding window over which sheds are counted.
    pub engage_window: Duration,
    /// Quiet time (no sheds) required before brownout releases —
    /// the long side of the hysteresis.
    pub disengage_quiet: Duration,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            engage_sheds: 4,
            engage_window: Duration::from_secs(1),
            disengage_quiet: Duration::from_secs(5),
        }
    }
}

impl BrownoutConfig {
    /// Default thresholds (4 sheds / 1 s on, 5 s quiet off).
    pub fn new() -> Self {
        BrownoutConfig::default()
    }

    /// Sets the shed count that engages brownout.
    pub fn with_engage_sheds(mut self, sheds: u32) -> Self {
        self.engage_sheds = sheds;
        self
    }

    /// Sets the sliding window for the shed count.
    pub fn with_engage_window(mut self, window: Duration) -> Self {
        self.engage_window = window;
        self
    }

    /// Sets the quiet period that releases brownout.
    pub fn with_disengage_quiet(mut self, quiet: Duration) -> Self {
        self.disengage_quiet = quiet;
        self
    }

    /// Clamps into a sane region: at least one shed to engage, and a
    /// disengage period no shorter than the engage window (otherwise
    /// the hysteresis would invert).
    pub(crate) fn normalized(mut self) -> Self {
        self.engage_sheds = self.engage_sheds.max(1);
        if self.disengage_quiet < self.engage_window {
            self.disengage_quiet = self.engage_window;
        }
        self
    }
}

struct BrownoutInner {
    /// Clock readings of recent sheds, pruned to `engage_window`.
    sheds: VecDeque<Duration>,
    last_shed: Duration,
    active: bool,
    engages: u64,
}

/// Latches brownout on under sustained shedding, off after quiet.
///
/// One controller is shared (via `Arc`) between the server — which
/// reports sheds and polls for the gauge — and every
/// [`DegradableBackend`], which consults it per batch to pick the
/// engine.
pub struct BrownoutController {
    config: BrownoutConfig,
    clock: Arc<dyn Clock + Send + Sync>,
    faults: FaultHandle,
    inner: Mutex<BrownoutInner>,
}

impl std::fmt::Debug for BrownoutController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrownoutController")
            .field("config", &self.config)
            .field("active", &self.active())
            .finish()
    }
}

impl BrownoutController {
    /// A controller over an explicit clock and fault handle — the
    /// deterministic form the hysteresis tests use.
    pub fn new(
        config: BrownoutConfig,
        clock: Arc<dyn Clock + Send + Sync>,
        faults: FaultHandle,
    ) -> Self {
        BrownoutController {
            config: config.normalized(),
            clock,
            faults,
            inner: Mutex::new(BrownoutInner {
                sheds: VecDeque::new(),
                last_shed: Duration::ZERO,
                active: false,
                engages: 0,
            }),
        }
    }

    /// A controller on the real clock with faults disabled.
    pub fn with_system_clock(config: BrownoutConfig) -> Self {
        BrownoutController::new(config, Arc::new(SystemClock), FaultHandle::disabled())
    }

    /// Records one shed; returns true when this shed newly engaged
    /// brownout.
    pub fn on_shed(&self) -> bool {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        let horizon = now.saturating_sub(self.config.engage_window);
        while inner.sheds.front().is_some_and(|t| *t < horizon) {
            inner.sheds.pop_front();
        }
        inner.sheds.push_back(now);
        inner.last_shed = now;
        if !inner.active && inner.sheds.len() >= self.config.engage_sheds as usize {
            inner.active = true;
            inner.engages += 1;
            return true;
        }
        false
    }

    /// Evaluates transitions (including the forced `brownout.switch`
    /// fault site) and returns whether brownout is active. Called by
    /// backends per batch and by the batcher for the gauge.
    pub fn poll(&self) -> bool {
        let forced = self.faults.check("brownout.switch").is_some();
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        if forced {
            if !inner.active {
                inner.active = true;
                inner.engages += 1;
            }
            inner.last_shed = now;
        } else if inner.active && now.saturating_sub(inner.last_shed) >= self.config.disengage_quiet
        {
            inner.active = false;
            inner.sheds.clear();
        }
        inner.active
    }

    /// Current latch, with no transition evaluation and no fault
    /// consultation — what the worker stamps onto `ServeReply`.
    pub fn active(&self) -> bool {
        self.inner.lock().active
    }

    /// How many times brownout has engaged since construction.
    pub fn engages(&self) -> u64 {
        self.inner.lock().engages
    }
}

/// A CPU serving lane with two precision gears: `FastEngine` (f32)
/// normally, `QuantizedEngine` (INT8) while its controller reports
/// brownout. The pipeline model and label behave exactly like
/// [`CpuBackend`](crate::CpuBackend)'s, so the lane is a drop-in
/// replacement in any server.
pub struct DegradableBackend {
    fast: Mutex<FastEngine>,
    quant: Mutex<QuantizedEngine>,
    model: PipelineModel,
    label: String,
    controller: Arc<BrownoutController>,
}

impl std::fmt::Debug for DegradableBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DegradableBackend")
            .field("label", &self.label)
            .finish()
    }
}

impl DegradableBackend {
    /// Builds one degradable lane: the INT8 gear is calibrated from
    /// `calib` (exact min/max observers, as in PR 8).
    pub fn new(
        net: &Network,
        calib: &[Tensor],
        controller: Arc<BrownoutController>,
    ) -> Result<Self, CondorError> {
        let quant = QuantizedEngine::calibrate(net, calib)?;
        DegradableBackend::from_parts(Arc::new(net.clone()), quant, 0, controller)
    }

    /// Builds `n` lanes sharing one network handle and one calibrated
    /// quantized plan (calibration runs once; clones share the plan
    /// with fresh arenas), all listening to the same controller.
    pub fn replicas(
        net: &Network,
        n: usize,
        calib: &[Tensor],
        controller: Arc<BrownoutController>,
    ) -> Result<Vec<Box<dyn ExecutionBackend>>, CondorError> {
        let net = Arc::new(net.clone());
        let quant = QuantizedEngine::calibrate(&net, calib)?;
        (0..n.max(1))
            .map(|i| {
                DegradableBackend::from_parts(
                    Arc::clone(&net),
                    quant.clone(),
                    i,
                    Arc::clone(&controller),
                )
                .map(|b| Box::new(b) as Box<dyn ExecutionBackend>)
            })
            .collect()
    }

    fn from_parts(
        net: Arc<Network>,
        quant: QuantizedEngine,
        lane: usize,
        controller: Arc<BrownoutController>,
    ) -> Result<Self, CondorError> {
        let label = format!("{}/lane{lane}", net.name);
        let plan = PlanBuilder::new(&net).build()?;
        let fast = FastEngine::from_shared(net)?;
        Ok(DegradableBackend {
            fast: Mutex::new(fast),
            quant: Mutex::new(quant),
            model: PipelineModel::from_plan(&plan),
            label,
            controller,
        })
    }
}

impl ExecutionBackend for DegradableBackend {
    fn infer_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
        if self.controller.poll() {
            let mut quant = self.quant.lock();
            let mut out = Vec::with_capacity(images.len());
            for img in images {
                out.push(quant.infer(img)?);
            }
            Ok(out)
        } else {
            Ok(self.fast.lock().infer_batch(images)?)
        }
    }

    fn pipeline(&self) -> PipelineModel {
        self.model.clone()
    }

    fn location(&self) -> String {
        format!("cpu-degradable:{}", self.label)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_faults::retry::MockClock;
    use condor_faults::{FaultPlan, FaultRule};
    use condor_nn::{dataset, zoo, GoldenEngine};
    use condor_tensor::AllClose;

    fn mock_controller(config: BrownoutConfig) -> (Arc<BrownoutController>, Arc<MockClock>) {
        let clock = Arc::new(MockClock::new());
        let ctl = Arc::new(BrownoutController::new(
            config,
            clock.clone(),
            FaultHandle::disabled(),
        ));
        (ctl, clock)
    }

    /// The deterministic hysteresis trace the issue asks for: a burst
    /// of sheds engages, sustained sheds hold, and only a full quiet
    /// period releases.
    #[test]
    fn brownout_engages_and_disengages_with_hysteresis() {
        let config = BrownoutConfig::new()
            .with_engage_sheds(3)
            .with_engage_window(Duration::from_secs(1))
            .with_disengage_quiet(Duration::from_secs(5));
        let (ctl, clock) = mock_controller(config);
        assert!(!ctl.poll());

        // Two sheds in the window: below threshold, still off.
        assert!(!ctl.on_shed());
        clock.advance(Duration::from_millis(100));
        assert!(!ctl.on_shed());
        assert!(!ctl.poll());

        // Third shed inside the window trips it on.
        clock.advance(Duration::from_millis(100));
        assert!(ctl.on_shed(), "third shed in the window engages");
        assert!(ctl.active());
        assert_eq!(ctl.engages(), 1);

        // Short quiet is not enough: hysteresis holds it on.
        clock.advance(Duration::from_secs(4));
        assert!(ctl.poll(), "4s quiet < 5s disengage: still active");

        // A shed during the hold resets the quiet timer.
        ctl.on_shed();
        clock.advance(Duration::from_secs(4));
        assert!(ctl.poll());

        // A full quiet period releases it.
        clock.advance(Duration::from_secs(2));
        assert!(!ctl.poll(), "6s quiet >= 5s disengage: released");
        assert!(!ctl.active());

        // Re-engaging needs a fresh burst, not a stale window.
        assert!(!ctl.on_shed());
        assert!(!ctl.on_shed());
        assert!(ctl.on_shed());
        assert_eq!(ctl.engages(), 2);
    }

    #[test]
    fn stale_sheds_age_out_of_the_window() {
        let config = BrownoutConfig::new()
            .with_engage_sheds(3)
            .with_engage_window(Duration::from_millis(500))
            .with_disengage_quiet(Duration::from_secs(5));
        let (ctl, clock) = mock_controller(config);
        // Three sheds, but spread wider than the window each time.
        for _ in 0..3 {
            assert!(!ctl.on_shed(), "sparse sheds must not engage");
            clock.advance(Duration::from_secs(1));
        }
        assert!(!ctl.poll());
    }

    #[test]
    fn fault_site_forces_brownout_active() {
        let clock = Arc::new(MockClock::new());
        let faults = FaultPlan::new(3)
            .rule(
                FaultRule::at("brownout.switch")
                    .first_calls(2)
                    .fail_transient(),
            )
            .install();
        let ctl = BrownoutController::new(BrownoutConfig::new(), clock.clone(), faults);
        assert!(ctl.poll(), "forced active by the fault site");
        assert_eq!(ctl.engages(), 1);
        // Rule expired: released after the quiet period.
        clock.advance(Duration::from_secs(60));
        assert!(ctl.poll(), "second forced poll");
        clock.advance(Duration::from_secs(60));
        assert!(!ctl.poll(), "rule exhausted + quiet: released");
    }

    #[test]
    fn degradable_backend_switches_engines_with_the_controller() {
        let net = zoo::lenet_weighted(17);
        let calib: Vec<Tensor> = dataset::mnist_like(8, 5)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let (ctl, _clock) = mock_controller(BrownoutConfig::new().with_engage_sheds(1));
        let backend = DegradableBackend::new(&net, &calib, Arc::clone(&ctl)).unwrap();
        let imgs: Vec<Tensor> = dataset::mnist_like(3, 9)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let golden = GoldenEngine::new(&net).unwrap().infer_batch(&imgs).unwrap();

        // Normal gear: bit-identical to the f32 reference path.
        let fast_out = backend.infer_batch(&imgs).unwrap();
        for (a, g) in fast_out.iter().zip(&golden) {
            assert!(a.all_close(g));
        }

        // Brownout gear: the quantized engine answers — close to the
        // reference, and byte-for-byte what a standalone INT8 engine
        // produces.
        ctl.on_shed();
        assert!(ctl.active());
        let degraded_out = backend.infer_batch(&imgs).unwrap();
        let mut reference = QuantizedEngine::calibrate(&net, &calib).unwrap();
        for (a, img) in degraded_out.iter().zip(&imgs) {
            let q = reference.infer(img).unwrap();
            assert_eq!(a.as_slice(), q.as_slice());
        }
        assert!(backend.location().starts_with("cpu-degradable:"));
        assert!(backend.pipeline().batch(1).total_cycles > 0);
    }

    #[test]
    fn replicas_share_one_calibrated_plan() {
        let net = zoo::lenet_weighted(17);
        let calib: Vec<Tensor> = dataset::mnist_like(4, 5)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let (ctl, _) = mock_controller(BrownoutConfig::new());
        let lanes = DegradableBackend::replicas(&net, 3, &calib, ctl).unwrap();
        assert_eq!(lanes.len(), 3);
        assert!(lanes
            .iter()
            .all(|l| l.location().starts_with("cpu-degradable:")));
    }
}

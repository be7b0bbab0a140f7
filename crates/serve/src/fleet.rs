//! Fleet-level resilience: N independent F1 deployments behind one
//! priority-classed admission queue, with per-instance circuit
//! breakers, automatic failover of in-flight requests, and background
//! re-provisioning of failed instances.
//!
//! The paper deploys one AFI on one F1 instance; a production service
//! runs several, because an instance can be lost whole — a crashed
//! host, a wedged FPGA slot, a revoked spot reservation — taking every
//! one of its lanes with it. This module promotes the health model one
//! level: where a replica's batcher quarantines a *lane*, the [`Fleet`]
//! quarantines an *instance* behind a [`CircuitBreaker`], migrates the
//! requests that were riding on it to a healthy peer, and asks its
//! [`InstanceProvisioner`] for a fresh deployment in the background.
//!
//! An instance is a `replica` — a batcher and its lanes, the code the
//! single server runs behind its intake — not a second server: it has
//! no queue, shedding law or registry of its own.
//!
//! Lifecycle of a failure:
//!
//! 1. a router thread hands instance *k* a *hop* (the tensor, due at
//!    the remaining deadline, with its own reply channel) through the
//!    replica's bounded inbox, and the verdict is a terminal backend
//!    error (the lane already burned its in-worker retries);
//! 2. the fleet reports the failure to *k*'s breaker — stale reports
//!    against an already-replaced generation are ignored — and when
//!    the breaker trips (consecutive failures or window failure rate),
//!    the instance is marked unhealthy (`instance_failed_over`), its
//!    AIMD limit collapses to the floor, and the supervisor is asked
//!    for a replacement;
//! 3. the request migrates to the healthiest remaining instance
//!    (`requests_migrated`) and completes there; while a breaker is
//!    Open its instance is refused outright, and once every routable
//!    path is refused the request is shed as
//!    [`ShedReason::BreakerOpen`] instead of burning its deadline;
//! 4. an Open breaker times out into HalfOpen and the routers admit a
//!    bounded number of *probes* (suppressed by the `breaker.probe`
//!    fault site); enough probe successes close the breaker in place —
//!    otherwise the supervisor thread drains the dead replica, waits
//!    [`FleetConfig::reprovision_backoff`], provisions generation
//!    *g+1*, resets the breaker and swaps the replacement in healthy
//!    (`instance_reprovisioned`).
//!
//! Every instance generation gets a unique fault-site prefix,
//! `fleet{replica}g{generation}.`, so a chaos plan can kill exactly
//! one incarnation: a rule at `fleet0g0.serve.` fails instance 0's
//! first generation and leaves its replacement alone.
//!
//! Admission is not the fleet's own: it is the same `intake` the single
//! server sits behind — strict-priority with aging, CoDel shedding on
//! sojourn time (`requests_shed{class}`, lowest class first), and, in
//! disk-queue mode, durable-before-admission, ack-after-reply and
//! priority-then-FIFO redelivery of the recovered backlog with expired
//! records failed and acked instead of served late. The fleet adds one
//! check in front of it (the [`FleetConfig::min_healthy`] floor) and
//! everything behind it: routers that carry a popped request across
//! instances, and hand it back through the intake's `resolve`. That
//! intake is the only place a fleet request is queued, shed (feeding
//! [`ServeConfig::brownout`]), aged, made durable or counted; replicas
//! write their lane metrics to its registry.
//!
//! The ledger invariant of the single server carries over: every
//! accepted request is answered exactly once, and
//! `requests_accepted == requests_completed + requests_failed +
//! requests_timed_out + requests_shed` holds on the final snapshot.

use crate::intake::{count_shed, resolve, Intake, Popped, Request};
use crate::replica::Replica;
use crate::{PendingInference, ServeConfig, ServeError, ShedReason};
use condor::{CondorError, ExecutionBackend, MetricsRegistry, MetricsSnapshot};
use condor_faults::FaultHandle;
use condor_queue::{
    AimdConfig, AimdController, BreakerConfig, BreakerState, CircuitBreaker, Priority, QueueBackend,
};
use condor_tensor::Tensor;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Provisions one instance of the fleet: returns the execution
/// backends (FPGA slots) of a freshly deployed accelerator for
/// `replica`, at re-provisioning round `generation`.
///
/// Implemented by closures, so a test fleet is one line:
///
/// ```ignore
/// let fleet = Fleet::new(
///     |_replica, _generation| Ok(deploy().into_backend_boxes()),
///     FleetConfig::default(),
/// )?;
/// ```
pub trait InstanceProvisioner: Send + Sync {
    /// Deploys (or re-deploys) one instance.
    fn provision(
        &self,
        replica: usize,
        generation: u64,
    ) -> Result<Vec<Box<dyn ExecutionBackend>>, CondorError>;
}

impl<F> InstanceProvisioner for F
where
    F: Fn(usize, u64) -> Result<Vec<Box<dyn ExecutionBackend>>, CondorError> + Send + Sync,
{
    fn provision(
        &self,
        replica: usize,
        generation: u64,
    ) -> Result<Vec<Box<dyn ExecutionBackend>>, CondorError> {
        self(replica, generation)
    }
}

/// Tuning knobs of the fleet supervisor.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Independent instances to provision.
    pub replicas: usize,
    /// Fewest healthy instances required to accept new requests; below
    /// this, [`Fleet::submit`] sheds load with
    /// [`ShedReason::MinHealthyFloor`].
    pub min_healthy: usize,
    /// Pause before re-provisioning a failed instance (real AFIs load
    /// in seconds; tests use milliseconds).
    pub reprovision_backoff: Duration,
    /// Consecutive terminal failures before an instance fails over —
    /// the trip threshold of the default circuit breaker when
    /// [`FleetConfig::breaker`] is unset. Must be ≥ 1: the builder
    /// clamps, and a struct-literal constructor is responsible for
    /// keeping it so (debug builds assert at startup).
    pub instance_failure_threshold: usize,
    /// Router threads draining the fleet queue (each carries one
    /// request end-to-end, migrating it on failure). Must be ≥ 1: the
    /// builder clamps, and a struct-literal constructor is responsible
    /// for keeping it so (debug builds assert at startup).
    pub router_threads: usize,
    /// Bound on the fleet request queue. Must be ≥ 1: the builder
    /// clamps, and a struct-literal constructor is responsible for
    /// keeping it so (debug builds assert at startup).
    pub queue_capacity: usize,
    /// Serving configuration: the dispatch knobs of every replica's
    /// batcher and lanes (`site_prefix` is overwritten per instance
    /// generation), plus `codel`, `aging_limit`, `brownout` and
    /// `default_timeout` for the fleet's one admission queue. Unused by
    /// a fleet: `serve.queue` and `serve.queue_capacity` — a replica has
    /// no queue; [`FleetConfig::queue`] / `queue_capacity` are the only
    /// ones.
    pub serve: ServeConfig,
    /// Which admission queue backs [`Fleet::submit`]: in-memory
    /// (default) or a crash-safe disk queue.
    pub queue: QueueBackend,
    /// When set, per-instance AIMD controllers replace static trust in
    /// `router_threads`/`queue_capacity`: each instance's concurrency
    /// limit shrinks multiplicatively on slow or failed dispatches and
    /// recovers additively while it stays fast. A tripped breaker
    /// collapses its instance's limit to the floor.
    pub adaptive: Option<AimdConfig>,
    /// Explicit per-instance circuit-breaker tuning. When unset, a
    /// default breaker trips after `instance_failure_threshold`
    /// consecutive failures (the legacy semantics, plus rate tripping
    /// and half-open recovery).
    pub breaker: Option<BreakerConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 2,
            min_healthy: 1,
            reprovision_backoff: Duration::from_millis(10),
            instance_failure_threshold: 1,
            router_threads: 4,
            queue_capacity: 256,
            serve: ServeConfig::default(),
            queue: QueueBackend::InMemory,
            adaptive: None,
            breaker: None,
        }
    }
}

impl FleetConfig {
    /// Sets the instance count.
    pub fn with_replicas(mut self, n: usize) -> Self {
        self.replicas = n.max(1);
        self
    }

    /// Sets the healthy-instance floor for admission.
    pub fn with_min_healthy(mut self, n: usize) -> Self {
        self.min_healthy = n;
        self
    }

    /// Sets the pause before re-provisioning a failed instance.
    pub fn with_reprovision_backoff(mut self, d: Duration) -> Self {
        self.reprovision_backoff = d;
        self
    }

    /// Sets the consecutive-failure threshold for instance failover.
    pub fn with_instance_failure_threshold(mut self, n: usize) -> Self {
        self.instance_failure_threshold = n.max(1);
        self
    }

    /// Sets the router thread count.
    pub fn with_router_threads(mut self, n: usize) -> Self {
        self.router_threads = n.max(1);
        self
    }

    /// Sets the fleet queue bound.
    pub fn with_queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Sets the per-instance serving configuration.
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Selects the fleet admission queue (disk = durable admission).
    pub fn with_queue(mut self, queue: QueueBackend) -> Self {
        self.queue = queue;
        self
    }

    /// Enables AIMD adaptive per-instance concurrency.
    pub fn with_adaptive(mut self, config: AimdConfig) -> Self {
        self.adaptive = Some(config);
        self
    }

    /// Sets explicit per-instance circuit-breaker tuning.
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(config);
        self
    }

    /// The breaker config every instance starts with: the explicit one
    /// when set, otherwise the legacy consecutive-failure threshold.
    fn breaker_config(&self) -> BreakerConfig {
        self.breaker.clone().unwrap_or_else(|| {
            BreakerConfig::default().with_consecutive_failures(
                u32::try_from(self.instance_failure_threshold).unwrap_or(u32::MAX),
            )
        })
    }
}

/// One fleet slot: the live replica (absent while re-provisioning), its
/// generation and health record.
struct InstanceSlot {
    server: Option<Arc<Replica>>,
    generation: u64,
    healthy: bool,
}

enum SupervisorMsg {
    /// Replace the named replica if its generation still matches.
    Reprovision {
        replica: usize,
        generation: u64,
    },
    Shutdown,
}

/// State shared by routers, the supervisor and the fleet handle.
struct FleetShared {
    slots: Vec<Mutex<InstanceSlot>>,
    inflight: Vec<AtomicUsize>,
    /// The intake's registry: admission and dispatch keep one ledger.
    metrics: Arc<MetricsRegistry>,
    supervisor_tx: Sender<SupervisorMsg>,
    rr: AtomicUsize,
    /// One circuit breaker per replica, surviving generations (reset
    /// by the supervisor when a replacement swaps in).
    breakers: Vec<CircuitBreaker>,
    faults: FaultHandle,
    /// One AIMD controller per replica when adaptive concurrency is on.
    aimd: Option<Vec<AimdController>>,
}

impl FleetShared {
    fn healthy_instances(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| {
                let s = s.lock();
                s.healthy && s.server.is_some()
            })
            .count()
    }

    /// Publishes one replica's breaker state as the `breaker{}_state`
    /// gauge (0 closed, 1 open, 2 half-open).
    fn breaker_gauge(&self, replica: usize) {
        let state = self.breakers[replica].state();
        self.metrics
            .set_gauge(&format!("breaker{replica}_state"), state.as_gauge() as f64);
    }

    /// Picks the healthy instance with the least in-flight work
    /// (round-robin tie-break). An Open breaker refuses its instance
    /// outright — not even as a fallback; a HalfOpen breaker admits it
    /// only as a last-resort *probe* (bounded by the breaker, and
    /// suppressed while the `breaker.probe` fault site fires). Among
    /// the closed-breaker instances, unhealthy or AIMD-saturated ones
    /// are demoted to fallbacks — liveness beats health when there is
    /// no healthy choice. Returns the slot index, its server, its
    /// generation, and whether this dispatch is a breaker probe.
    fn pick(&self, avoid: Option<usize>) -> Option<(usize, Arc<Replica>, u64, bool)> {
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let n = self.slots.len();
        let mut best: Option<(usize, Arc<Replica>, u64, usize)> = None;
        let mut fallback: Option<(usize, Arc<Replica>, u64)> = None;
        let mut half_open: Option<(usize, Arc<Replica>, u64)> = None;
        for off in 0..n {
            let i = (start + off) % n;
            let slot = self.slots[i].lock();
            let Some(server) = slot.server.as_ref() else {
                continue;
            };
            if Some(i) == avoid && n > 1 {
                continue;
            }
            match self.breakers[i].state() {
                BreakerState::Open => continue,
                BreakerState::HalfOpen => {
                    if half_open.is_none() {
                        half_open = Some((i, Arc::clone(server), slot.generation));
                    }
                    continue;
                }
                BreakerState::Closed => {}
            }
            if !slot.healthy {
                if fallback.is_none() {
                    fallback = Some((i, Arc::clone(server), slot.generation));
                }
                continue;
            }
            let load = self.inflight[i].load(Ordering::SeqCst);
            // Adaptive concurrency: an instance at its AIMD limit is
            // saturated — demote it to a last-resort fallback so load
            // steers to instances with headroom (liveness still beats
            // the limit when every instance is saturated).
            if let Some(controllers) = &self.aimd {
                if load >= controllers[i].limit() {
                    if fallback.is_none() {
                        fallback = Some((i, Arc::clone(server), slot.generation));
                    }
                    continue;
                }
            }
            if best.as_ref().is_none_or(|b| load < b.3) {
                best = Some((i, Arc::clone(server), slot.generation, load));
            }
        }
        if let Some((i, server, generation, _)) = best {
            return Some((i, server, generation, false));
        }
        if let Some((i, server, generation)) = fallback {
            return Some((i, server, generation, false));
        }
        // Last resort: ask a half-open breaker for a probe slot. The
        // admit happens only here, when the probe will actually be
        // dispatched, so probe slots cannot leak.
        if let Some((i, server, generation)) = half_open {
            if self.faults.check("breaker.probe").is_none() && self.breakers[i].admit() {
                return Some((i, server, generation, true));
            }
        }
        None
    }

    /// Reports a terminal failure against `(replica, generation)` to
    /// its breaker. A stale generation (the instance was already
    /// replaced) is ignored. A trip marks the instance unhealthy,
    /// collapses its AIMD limit to the floor, and asks the supervisor
    /// for a replacement.
    fn record_failure(&self, replica: usize, generation: u64) {
        let mut slot = self.slots[replica].lock();
        if slot.generation != generation {
            return;
        }
        if self.breakers[replica].on_failure() {
            slot.healthy = false;
            self.metrics.incr("instance_failed_over", 1);
            if let Some(controllers) = &self.aimd {
                controllers[replica].collapse();
            }
            drop(slot);
            self.breaker_gauge(replica);
            let _ = self.supervisor_tx.send(SupervisorMsg::Reprovision {
                replica,
                generation,
            });
        }
    }

    /// Reports a success on `(replica, generation)` to its breaker.
    /// When a half-open probe run closes the breaker, the instance
    /// recovered in place — mark it healthy without reprovisioning.
    fn record_success(&self, replica: usize, generation: u64) {
        let mut slot = self.slots[replica].lock();
        if slot.generation != generation {
            return;
        }
        if self.breakers[replica].on_success() {
            slot.healthy = true;
            drop(slot);
            self.breaker_gauge(replica);
        }
    }
}

/// A supervisor over N independent accelerator instances.
///
/// See the module docs for the failure lifecycle. Metrics (on
/// [`Fleet::metrics`] / [`Fleet::shutdown`]):
///
/// * ledger — `requests_accepted`, `requests_completed`,
///   `requests_failed`, `requests_timed_out`, `requests_shed` (plus
///   per-class `requests_shed_*`), `requests_rejected_overloaded`;
/// * resilience — `instance_failed_over`, `instance_reprovisioned`,
///   `requests_migrated`, per-replica `breaker{k}_state` gauges;
/// * placement — `instance{k}_completed` per replica, `queue_depth`
///   seen by each admitted request, `queue_sojourn_us` admission
///   latency.
pub struct Fleet {
    shared: Arc<FleetShared>,
    intake: Intake,
    running: Arc<AtomicBool>,
    routers: Vec<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    config: FleetConfig,
}

/// Starts the replica of one instance generation: the shared serve
/// config under this generation's fault-site prefix, writing to the
/// fleet's registry, fed through an inbox that holds one forming batch.
/// A full inbox blocks the routers, backing pressure up into the fleet
/// queue the way the capacity-1 lane channel does for the batcher.
fn start_instance(
    backends: Vec<Box<dyn ExecutionBackend>>,
    serve: &ServeConfig,
    metrics: &Arc<MetricsRegistry>,
    replica: usize,
    generation: u64,
) -> Result<Arc<Replica>, ServeError> {
    let config = serve
        .clone()
        .with_site_prefix(format!("fleet{replica}g{generation}."));
    let (inbox, rx) = sync_channel(config.max_batch.max(1));
    let next = move |timeout| rx.recv_timeout(timeout);
    Replica::start(backends, &config, Arc::clone(metrics), Some(inbox), next).map(Arc::new)
}

impl Fleet {
    /// Provisions `config.replicas` instances and starts routing.
    pub fn new(
        provisioner: impl InstanceProvisioner + 'static,
        config: FleetConfig,
    ) -> Result<Self, ServeError> {
        Fleet::with_provisioner(Box::new(provisioner), config)
    }

    fn with_provisioner(
        provisioner: Box<dyn InstanceProvisioner>,
        config: FleetConfig,
    ) -> Result<Self, ServeError> {
        if config.replicas == 0 {
            return Err(ServeError::NoBackends);
        }
        // The builders clamp these to ≥ 1; a struct-literal constructor
        // owns the same contract, checked here once instead of being
        // silently re-clamped at every use site.
        debug_assert!(config.router_threads >= 1, "router_threads must be ≥ 1");
        debug_assert!(config.queue_capacity >= 1, "queue_capacity must be ≥ 1");
        debug_assert!(
            config.instance_failure_threshold >= 1,
            "instance_failure_threshold must be ≥ 1"
        );
        // Before any instance is provisioned: a failed open must leave
        // no replica, router or supervisor running. The queue is the
        // same classed one the single server uses — strict priority
        // with aging, plus CoDel shedding when the serve config enables
        // it — and the only one a fleet request ever waits in.
        let intake = Intake::open(&config.queue, config.queue_capacity, &config.serve)?;
        let metrics = intake.metrics();
        let (supervisor_tx, supervisor_rx) = channel::<SupervisorMsg>();
        let mut slots = Vec::with_capacity(config.replicas);
        let mut inflight = Vec::with_capacity(config.replicas);
        for replica in 0..config.replicas {
            let backends = provisioner
                .provision(replica, 0)
                .map_err(ServeError::Backend)?;
            let server = start_instance(backends, &config.serve, &metrics, replica, 0)?;
            slots.push(Mutex::new(InstanceSlot {
                server: Some(server),
                generation: 0,
                healthy: true,
            }));
            inflight.push(AtomicUsize::new(0));
        }
        let breaker_config = config.breaker_config();
        let shared = Arc::new(FleetShared {
            slots,
            inflight,
            metrics,
            supervisor_tx,
            rr: AtomicUsize::new(0),
            breakers: (0..config.replicas)
                .map(|_| CircuitBreaker::with_system_clock(breaker_config.clone()))
                .collect(),
            faults: config.serve.faults.clone(),
            aimd: config.adaptive.clone().map(|aimd_config| {
                (0..config.replicas)
                    .map(|_| AimdController::with_system_clock(aimd_config.clone()))
                    .collect()
            }),
        });

        let running = Arc::new(AtomicBool::new(true));
        let routers = (0..config.router_threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let pop = intake.consumer();
                std::thread::spawn(move || router_loop(shared, pop))
            })
            .collect();

        let supervisor = {
            let shared = Arc::clone(&shared);
            let running = Arc::clone(&running);
            let serve = config.serve.clone();
            let backoff = config.reprovision_backoff;
            std::thread::spawn(move || {
                supervisor_loop(shared, supervisor_rx, provisioner, serve, backoff, running)
            })
        };

        Ok(Fleet {
            shared,
            intake,
            running,
            routers,
            supervisor: Some(supervisor),
            config,
        })
    }

    /// Instances currently healthy and serving.
    pub fn healthy_instances(&self) -> usize {
        self.shared.healthy_instances()
    }

    /// Submits one image with the default timeout at `Standard`
    /// priority.
    pub fn submit(&self, tensor: Tensor) -> Result<PendingInference, ServeError> {
        self.submit_with_class(
            tensor,
            self.config.serve.default_timeout,
            Priority::Standard,
        )
    }

    /// Submits one image with an explicit deadline and priority class.
    /// Sheds load when the fleet queue is full
    /// ([`ShedReason::QueueFull`]) or fewer than
    /// [`FleetConfig::min_healthy`] instances are healthy
    /// ([`ShedReason::MinHealthyFloor`]).
    pub fn submit_with_class(
        &self,
        tensor: Tensor,
        timeout: Duration,
        class: Priority,
    ) -> Result<PendingInference, ServeError> {
        if self.shared.healthy_instances() < self.config.min_healthy {
            self.shared.metrics.incr("requests_rejected_overloaded", 1);
            return Err(ServeError::Overloaded(ShedReason::MinHealthyFloor));
        }
        self.intake.submit(tensor, timeout, class)
    }

    /// Submits one image and blocks for its result.
    pub fn infer(&self, tensor: Tensor) -> Result<Tensor, ServeError> {
        self.submit(tensor)?.wait()
    }

    /// Live fleet metrics (ledger, resilience counters, throughput,
    /// breaker states, adaptive-concurrency and durable-queue gauges).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.intake.snapshot();
        for (i, breaker) in self.shared.breakers.iter().enumerate() {
            snap.set_gauge(
                &format!("breaker{i}_state"),
                breaker.state().as_gauge() as f64,
            );
        }
        if let Some(controllers) = &self.shared.aimd {
            let mut total = 0usize;
            for (i, controller) in controllers.iter().enumerate() {
                let limit = controller.limit();
                total += limit;
                snap.set_gauge(&format!("instance{i}_concurrency_limit"), limit as f64);
            }
            snap.set_gauge("concurrency_limit", total as f64);
        }
        snap
    }

    /// Stops accepting requests, drains the queue (every accepted
    /// request still gets its reply), retires every instance and
    /// returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop();
        self.metrics()
    }

    fn stop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        self.intake.close();
        for r in self.routers.drain(..) {
            let _ = r.join();
        }
        let _ = self.shared.supervisor_tx.send(SupervisorMsg::Shutdown);
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        for slot in self.shared.slots.iter() {
            let server = slot.lock().server.take();
            // The last Arc drop drains the replica (its Drop joins all
            // threads after answering every hop it was handed).
            drop(server);
        }
        self.intake.checkpoint();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if self.supervisor.is_some() || !self.routers.is_empty() {
            self.stop();
        }
    }
}

/// One router thread: carries each fleet request end-to-end, failing
/// over to another instance when the serving one dies under it.
fn router_loop(shared: Arc<FleetShared>, mut pop: impl FnMut(Duration) -> Popped) {
    loop {
        match pop(Duration::from_millis(20)) {
            Ok((request, class)) => route_one(&shared, request, class),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn route_one(shared: &Arc<FleetShared>, request: Request, class: Priority) {
    // One try per replica plus one: enough to walk off a dying instance
    // onto every peer without looping forever under a total outage.
    let budget = shared.slots.len() + 1;
    let mut avoid: Option<usize> = None;
    let mut last_err = ServeError::Timeout;
    let mut dispatched = false;
    for attempt in 0..budget {
        let now = Instant::now();
        if now >= request.deadline {
            resolve(request, Err(ServeError::Timeout), &shared.metrics);
            return;
        }
        let Some((idx, server, generation, probing)) = shared.pick(avoid) else {
            // Nothing routable right now (everything mid-reprovision or
            // breaker-refused): wait a beat and retry.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        dispatched = true;
        shared.inflight[idx].fetch_add(1, Ordering::SeqCst);
        let started = Instant::now();
        // A hop, not the request: this router keeps the admitted
        // request (ticket, ledger term) until some hop settles it.
        let outcome = server.hop(request.tensor.clone(), request.deadline - now);
        shared.inflight[idx].fetch_sub(1, Ordering::SeqCst);
        drop(server);
        match outcome {
            Ok(reply) => {
                // Adaptive concurrency: a fast dispatch lets the limit
                // creep back up; a slow one (over the AIMD latency
                // threshold) cuts it multiplicatively.
                if let Some(controllers) = &shared.aimd {
                    controllers[idx].observe(started.elapsed());
                }
                shared.record_success(idx, generation);
                shared.metrics.incr(&format!("instance{idx}_completed"), 1);
                resolve(request, Ok(reply), &shared.metrics);
                return;
            }
            Err(e) => {
                let (congested, failed) = match &e {
                    // The instance failed the request outright: feed
                    // its breaker and fail over.
                    ServeError::Backend(_) | ServeError::Disconnected => (true, true),
                    // Congestion: cut this instance's limit and migrate
                    // without a breaker penalty.
                    ServeError::Overloaded(_) | ServeError::Timeout => (true, false),
                    // A draining replica: migrate without penalty.
                    ServeError::ShuttingDown | ServeError::NoBackends => (false, false),
                };
                if let (true, Some(controllers)) = (congested, &shared.aimd) {
                    controllers[idx].on_congestion();
                }
                // A half-open probe always reports, releasing its slot.
                if failed || probing {
                    shared.record_failure(idx, generation);
                }
                if attempt + 1 < budget {
                    shared.metrics.incr("requests_migrated", 1);
                }
                avoid = Some(idx);
                last_err = e;
            }
        }
    }
    // The budget ran out without a single dispatch while a breaker was
    // refusing traffic: this is the breaker shedding, not a timeout —
    // answer with the typed reason so clients back off deliberately.
    if !dispatched
        && shared
            .breakers
            .iter()
            .any(|b| b.state() != BreakerState::Closed)
    {
        count_shed(&shared.metrics, class);
        resolve(
            request,
            Err(ServeError::Overloaded(ShedReason::BreakerOpen)),
            &shared.metrics,
        );
        return;
    }
    resolve(request, Err(last_err), &shared.metrics);
}

/// The supervisor thread: retires failed instances and provisions
/// their replacements, resetting the replica's breaker when the
/// replacement swaps in.
fn supervisor_loop(
    shared: Arc<FleetShared>,
    rx: Receiver<SupervisorMsg>,
    provisioner: Box<dyn InstanceProvisioner>,
    serve: ServeConfig,
    backoff: Duration,
    running: Arc<AtomicBool>,
) {
    while let Ok(msg) = rx.recv() {
        let (replica, generation) = match msg {
            SupervisorMsg::Shutdown => break,
            SupervisorMsg::Reprovision {
                replica,
                generation,
            } => (replica, generation),
        };
        // Retire the failed generation. A stale message (the slot moved
        // on) is dropped, as is one for an instance a half-open probe
        // already recovered in place.
        let old = {
            let mut slot = shared.slots[replica].lock();
            if slot.generation != generation || slot.healthy {
                continue;
            }
            slot.server.take()
        };
        // Routers may still hold clones; the drain runs when the last
        // one lets go.
        drop(old);

        let next_gen = generation + 1;
        loop {
            if !running.load(Ordering::SeqCst) {
                return;
            }
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            match provisioner
                .provision(replica, next_gen)
                .map_err(ServeError::Backend)
                .and_then(|b| start_instance(b, &serve, &shared.metrics, replica, next_gen))
            {
                Ok(server) => {
                    {
                        let mut slot = shared.slots[replica].lock();
                        slot.server = Some(server);
                        slot.generation = next_gen;
                        slot.healthy = true;
                    }
                    // The replacement starts with a clean slate: the
                    // old generation's failure history describes
                    // hardware that no longer exists.
                    shared.breakers[replica].reset();
                    shared.breaker_gauge(replica);
                    shared.metrics.incr("instance_reprovisioned", 1);
                    break;
                }
                Err(_) => {
                    shared.metrics.incr("instance_reprovision_failed", 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::CpuBackend;
    use condor_nn::{dataset, zoo};
    use condor_queue::DiskQueue;

    fn quick_config() -> FleetConfig {
        FleetConfig::default().with_serve(
            ServeConfig::default()
                .with_batch_window(Duration::from_millis(1))
                .with_default_timeout(Duration::from_secs(20)),
        )
    }

    /// `accepted == completed + failed + timed_out + shed`.
    fn assert_ledger_balances(snap: &MetricsSnapshot) {
        assert_eq!(
            snap.counter("requests_accepted"),
            snap.counter("requests_completed")
                + snap.counter("requests_failed")
                + snap.counter("requests_timed_out")
                + snap.counter("requests_shed")
        );
    }

    #[test]
    fn fleet_spreads_requests_and_balances_the_ledger() {
        let net = zoo::tc1_weighted(3);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config().with_replicas(2),
        )
        .unwrap();
        assert_eq!(fleet.healthy_instances(), 2);
        for s in dataset::usps_like(8, 3) {
            let out = fleet.infer(s.image).unwrap();
            assert_eq!(out.shape().c, 10);
        }
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_accepted"), 8);
        assert_eq!(snap.counter("requests_completed"), 8);
        assert_eq!(snap.counter("instance_failed_over"), 0);
        assert_eq!(snap.counter("requests_migrated"), 0);
        assert_eq!(snap.gauge("breaker0_state"), Some(0.0));
        assert_eq!(snap.gauge("breaker1_state"), Some(0.0));
    }

    #[test]
    fn fleet_priority_classes_round_trip() {
        let net = zoo::tc1_weighted(9);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config(),
        )
        .unwrap();
        let mut samples = dataset::usps_like(2, 9);
        let timeout = Duration::from_secs(20);
        let fast = fleet
            .submit_with_class(samples.remove(0).image, timeout, Priority::Interactive)
            .unwrap();
        let slow = fleet
            .submit_with_class(samples.remove(0).image, timeout, Priority::Batch)
            .unwrap();
        let fast = fast.wait_reply().unwrap();
        let slow = slow.wait_reply().unwrap();
        assert!(!fast.degraded);
        assert!(!slow.degraded);
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_completed"), 2);
        assert_eq!(snap.counter("requests_shed"), 0);
        assert!(snap.histogram("queue_sojourn_us").is_some());
    }

    #[test]
    fn min_healthy_floor_sheds_new_load() {
        let net = zoo::tc1_weighted(4);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config().with_replicas(1).with_min_healthy(2),
        )
        .unwrap();
        // One healthy instance < floor of two: admission sheds.
        let err = fleet.submit(dataset::usps_like(1, 4).remove(0).image);
        assert!(matches!(
            err,
            Err(ServeError::Overloaded(ShedReason::MinHealthyFloor))
        ));
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_accepted"), 0);
        assert!(snap.counter("requests_rejected_overloaded") >= 1);
    }

    #[test]
    fn zero_replicas_is_rejected() {
        let net = zoo::tc1_weighted(5);
        let config = FleetConfig {
            replicas: 0,
            ..quick_config()
        };
        let err = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            config,
        );
        assert!(matches!(err, Err(ServeError::NoBackends)));
    }

    #[test]
    fn provisioner_failure_at_startup_surfaces() {
        let err = Fleet::new(
            |_: usize, _: u64| Err(CondorError::new("deploy", "no capacity")),
            quick_config(),
        );
        assert!(matches!(err, Err(ServeError::Backend(e)) if e.message.contains("no capacity")));
    }

    #[test]
    fn dropping_a_fleet_drains_without_shutdown() {
        let net = zoo::tc1_weighted(6);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config(),
        )
        .unwrap();
        let pending = fleet
            .submit(dataset::usps_like(1, 6).remove(0).image)
            .unwrap();
        drop(fleet);
        // The dropped fleet still answered the accepted request.
        assert!(pending.wait().is_ok());
    }

    #[test]
    fn breaker_trips_fails_over_and_reprovision_resets_it() {
        use condor_faults::{FaultPlan, FaultRule};
        // Instance 0's first generation fails every dispatch
        // terminally; its replacement (generation 1) is clean.
        let handle = FaultPlan::new(0xB1)
            .rule(
                FaultRule::at("fleet0g0.serve.backend0")
                    .always()
                    .fail_permanent(),
            )
            .install();
        let net = zoo::tc1_weighted(11);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config().with_replicas(2).with_serve(
                ServeConfig::default()
                    .with_batch_window(Duration::from_millis(1))
                    .with_default_timeout(Duration::from_secs(20))
                    .with_faults(handle.clone()),
            ),
        )
        .unwrap();
        // Every request completes: ones that land on instance 0 fail
        // there, trip its breaker (threshold 1) and migrate.
        for s in dataset::usps_like(8, 11) {
            fleet.infer(s.image).unwrap();
        }
        // Wait for the supervisor to swap in generation 1.
        let deadline = Instant::now() + Duration::from_secs(5);
        while fleet.healthy_instances() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(fleet.healthy_instances(), 2, "replacement never arrived");
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_completed"), 8);
        assert!(snap.counter("instance_failed_over") >= 1);
        assert!(snap.counter("requests_migrated") >= 1);
        assert!(snap.counter("instance_reprovisioned") >= 1);
        // The reset breaker reads Closed on the final snapshot.
        assert_eq!(snap.gauge("breaker0_state"), Some(0.0));
        handle.clear();
    }

    #[test]
    fn open_breaker_sheds_with_the_typed_reason() {
        use condor_faults::{FaultPlan, FaultRule};
        // A single instance whose only generation fails terminally, a
        // breaker that stays Open for an hour, and a provisioner that
        // cannot build a replacement: after the trip, nothing is
        // routable and requests shed as BreakerOpen.
        let handle = FaultPlan::new(0xB2)
            .rule(
                FaultRule::at("fleet0g0.serve.backend0")
                    .always()
                    .fail_permanent(),
            )
            .install();
        let net = zoo::tc1_weighted(12);
        let fleet = Fleet::new(
            move |_: usize, generation: u64| {
                if generation == 0 {
                    CpuBackend::replicas(&net, 1)
                } else {
                    Err(CondorError::new("deploy", "no capacity"))
                }
            },
            quick_config()
                .with_replicas(1)
                .with_min_healthy(0)
                .with_reprovision_backoff(Duration::from_secs(5))
                .with_breaker(
                    BreakerConfig::default()
                        .with_consecutive_failures(1)
                        .with_open_timeout(Duration::from_secs(3600)),
                )
                .with_serve(
                    ServeConfig::default()
                        .with_batch_window(Duration::from_millis(1))
                        .with_default_timeout(Duration::from_secs(20))
                        .with_faults(handle.clone()),
                ),
        )
        .unwrap();
        let mut samples = dataset::usps_like(2, 12);
        // The first request trips the breaker and fails terminally.
        let first = fleet.submit(samples.remove(0).image).unwrap().wait();
        assert!(matches!(first, Err(ServeError::Backend(_))));
        // The next request finds every path breaker-refused.
        let second = fleet.submit(samples.remove(0).image).unwrap().wait();
        assert!(matches!(
            second,
            Err(ServeError::Overloaded(ShedReason::BreakerOpen))
        ));
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_accepted"), 2);
        assert_eq!(snap.counter("requests_shed"), 1);
        assert_eq!(snap.counter("requests_shed_standard"), 1);
        assert_eq!(snap.counter("instance_failed_over"), 1);
        assert_ledger_balances(&snap);
        assert_eq!(snap.gauge("breaker0_state"), Some(1.0));
        handle.clear();
    }

    #[test]
    fn codel_sheds_behind_a_fleet_drive_brownout() {
        use crate::{BrownoutConfig, BrownoutController, DegradableBackend};
        use condor_faults::{FaultPlan, FaultRule};
        // `shed.codel` forced on: the one queue a fleet request waits in
        // sheds it, and that shed must reach the shared controller — one
        // consult of the site per request, since there is one queue.
        let controller = Arc::new(BrownoutController::with_system_clock(
            BrownoutConfig::new()
                .with_engage_sheds(2)
                .with_disengage_quiet(Duration::from_secs(60)),
        ));
        let handle = FaultPlan::new(0xB0)
            .rule(FaultRule::at("shed.codel").always().fail_transient())
            .install();
        let net = zoo::tc1_weighted(13);
        let calib: Vec<Tensor> = dataset::usps_like(4, 13)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let lanes = Arc::clone(&controller);
        let fleet = Fleet::new(
            move |_: usize, _: u64| {
                DegradableBackend::replicas(&net, 1, &calib, Arc::clone(&lanes))
            },
            quick_config().with_replicas(1).with_serve(
                ServeConfig::default()
                    .with_batch_window(Duration::from_millis(1))
                    .with_default_timeout(Duration::from_secs(20))
                    .with_brownout(Arc::clone(&controller))
                    .with_faults(handle.clone()),
            ),
        )
        .unwrap();
        let samples = dataset::usps_like(3, 14);
        let requests = samples.len();
        for s in samples {
            match fleet.submit(s.image).unwrap().wait() {
                Err(ServeError::Overloaded(ShedReason::CoDelShed { retry_after })) => {
                    assert!(retry_after > Duration::ZERO);
                }
                other => panic!("expected a CoDel shed, got {other:?}"),
            }
        }
        assert!(controller.active(), "sustained sheds engage brownout");
        assert_eq!(controller.engages(), 1);
        // The replica's idle batcher exports the gauge every 20 ms.
        let deadline = Instant::now() + Duration::from_secs(5);
        while fleet.metrics().gauge("brownout_active") != Some(1.0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = fleet.shutdown();
        assert_eq!(snap.gauge("brownout_active"), Some(1.0));
        assert_eq!(snap.counter("requests_shed"), requests as u64);
        assert_eq!(
            handle.fired(),
            requests,
            "one queue, one consult per request"
        );
        assert_ledger_balances(&snap);
        handle.clear();
    }

    #[test]
    fn lane_metrics_behind_a_fleet_land_in_the_fleet_registry() {
        use condor_faults::{FaultPlan, FaultRule};
        // Replica 0's first dispatch fails transiently and is retried in
        // its worker: that retry, the batches and every completion's
        // latency must be readable from the fleet's own snapshot.
        let handle = FaultPlan::new(0xC1)
            .rule(
                FaultRule::at("fleet0g0.serve.backend0")
                    .nth_call(0)
                    .fail_transient(),
            )
            .install();
        let net = zoo::tc1_weighted(15);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config().with_replicas(2).with_serve(
                ServeConfig::default()
                    .with_batch_window(Duration::from_millis(1))
                    .with_default_timeout(Duration::from_secs(20))
                    .with_faults(handle.clone()),
            ),
        )
        .unwrap();
        for s in dataset::usps_like(8, 15) {
            fleet.infer(s.image).unwrap();
        }
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("backend_retries"), 1);
        assert!(snap.histogram("batch_size").unwrap().count >= 1);
        assert_eq!(snap.counter("requests_accepted"), 8);
        assert_eq!(snap.counter("requests_completed"), 8);
        assert_eq!(snap.histogram("latency_us").unwrap().count, 8);
        assert_eq!(snap.counter("requests_migrated"), 0);
        assert_ledger_balances(&snap);
        handle.clear();
    }

    /// Fresh scratch directory for the disk-queue tests.
    fn tmp_queue_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU64;
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "condor-fleet-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_fleet_acks_every_request_and_drains() {
        let dir = tmp_queue_dir("ledger");
        let net = zoo::tc1_weighted(7);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config()
                .with_replicas(2)
                .with_queue(QueueBackend::Disk(crate::DiskQueueConfig::new(&dir))),
        )
        .unwrap();
        for s in dataset::usps_like(8, 7) {
            let out = fleet.infer(s.image).unwrap();
            assert_eq!(out.shape().c, 10);
        }
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_accepted"), 8);
        assert_eq!(snap.counter("requests_completed"), 8);
        assert_eq!(snap.histogram("ack_latency_us").unwrap().count, 8);
        assert_eq!(snap.gauge("disk_queue_depth"), Some(0.0));
        let (_, report) = DiskQueue::open(crate::DiskQueueConfig::new(&dir)).unwrap();
        assert!(report.pending.is_empty());
        assert_eq!(report.double_acks, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aimd_limit_shrinks_under_slow_backends() {
        use condor_faults::{FaultPlan, FaultRule};
        // Every dispatch to instance 0's first generation is delayed
        // well past the AIMD latency threshold, so each completion is a
        // congestion signal: 8 → 4 → 2 → 1 with a zero cooldown.
        let handle = FaultPlan::new(0xA1)
            .rule(
                FaultRule::at("fleet0g0.serve.backend0")
                    .always()
                    .delay(Duration::from_millis(15)),
            )
            .install();
        let net = zoo::tc1_weighted(8);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config()
                .with_replicas(1)
                .with_adaptive(
                    AimdConfig::default()
                        .with_initial_limit(8)
                        .with_limits(1, 8)
                        .with_latency_threshold(Duration::from_millis(5))
                        .with_cooldown(Duration::ZERO),
                )
                .with_serve(
                    ServeConfig::default()
                        .with_batch_window(Duration::from_millis(1))
                        .with_default_timeout(Duration::from_secs(20))
                        .with_faults(handle.clone()),
                ),
        )
        .unwrap();
        for s in dataset::usps_like(6, 8) {
            fleet.infer(s.image).unwrap();
        }
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_completed"), 6);
        let limit = snap.gauge("concurrency_limit").unwrap();
        assert!(
            limit < 8.0,
            "AIMD limit must shrink under sustained slow dispatches, still at {limit}"
        );
        assert!(
            limit <= 2.0,
            "three congested dispatches should multiplicatively cut 8 to ≤2, got {limit}"
        );
        assert_eq!(snap.gauge("instance0_concurrency_limit"), Some(limit));
        assert!(handle.fired() >= 6);
        handle.clear();
    }
}

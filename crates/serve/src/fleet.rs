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
//! Lifecycle of a request, and of a failure:
//!
//! 1. the fleet's one dispatcher thread pops the intake only while some
//!    instance has *room* — fewer requests handed to it and not yet
//!    settled than `serve.max_batch` × its lane count — and hands the
//!    admitted request itself to the least-loaded healthy instance *k*
//!    through a non-blocking send into *k*'s inbox. Nothing is copied
//!    and nothing waits on a reply: the instance's batcher sees as many
//!    requests as it has room for, so it can batch;
//! 2. the lane that answers runs the settle callback of *k*'s current
//!    generation on its own thread. A success feeds *k*'s breaker,
//!    counts `instance{k}_completed` and resolves the request there —
//!    reply, then (disk mode) ack. A terminal backend error is reported
//!    to *k*'s breaker — stale reports against an already-replaced
//!    generation are ignored — and when the breaker trips (consecutive
//!    failures or window failure rate) the instance is marked unhealthy
//!    (`instance_failed_over`) and the supervisor is asked for a
//!    replacement;
//! 3. a failed request migrates (`requests_migrated`): the settle puts
//!    it on a retry list that the dispatcher serves before the intake,
//!    re-offering it away from *k* within its budget of one attempt per
//!    instance plus one. While a breaker is Open its instance is
//!    refused outright, and once every routable path is refused the
//!    request is shed as [`ShedReason::BreakerOpen`] instead of burning
//!    its deadline;
//! 4. an Open breaker times out into HalfOpen and the dispatcher admits
//!    a bounded number of *probes* (suppressed by the `breaker.probe`
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
//! everything behind it: a dispatcher that places each popped request,
//! and settles that carry it across instances and hand it back through
//! the intake's `resolve`. That intake is the only place a fleet
//! request is queued, shed, aged, made durable or counted; replicas
//! write their lane metrics to its registry.
//!
//! The ledger invariant of the single server carries over: every
//! accepted request is answered exactly once, and
//! `requests_accepted == requests_completed + requests_failed +
//! requests_timed_out + requests_shed` holds on the final snapshot.

use crate::intake::{count_shed, resolve, Intake, Popped, Request};
use crate::replica::{Replica, Settle};
use crate::{PendingInference, ServeConfig, ServeError, ServeReply, ShedReason};
use condor::{CondorError, ExecutionBackend, MetricsRegistry, MetricsSnapshot};
use condor_queue::{BreakerConfig, BreakerState, CircuitBreaker, Priority, QueueBackend};
use condor_tensor::Tensor;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
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
    /// Not read. A fleet dispatches from one thread that never waits on
    /// a reply, and an instance's concurrency is its room
    /// (`serve.max_batch` × its lanes), not a thread count. Kept so
    /// callers that set it (the `perf` benchmark's `sut.rs`) still
    /// compile; it is due for removal.
    pub router_threads: usize,
    /// Bound on the fleet request queue. Must be ≥ 1: the builder
    /// clamps, and a struct-literal constructor is responsible for
    /// keeping it so (debug builds assert at startup).
    pub queue_capacity: usize,
    /// Serving configuration: the dispatch knobs of every replica's
    /// batcher and lanes (`site_prefix` is overwritten per instance
    /// generation, and `max_batch` also sizes each instance's room),
    /// plus `codel`, `aging_limit` and `default_timeout`
    /// for the fleet's one admission queue. Unused by a fleet:
    /// `serve.queue` and `serve.queue_capacity` — a replica has no
    /// queue; [`FleetConfig::queue`] / `queue_capacity` are the only
    /// ones.
    pub serve: ServeConfig,
    /// Which admission queue backs [`Fleet::submit`]: in-memory
    /// (default) or a crash-safe disk queue.
    pub queue: QueueBackend,
    /// Per-instance circuit-breaker tuning. The default trips after one
    /// consecutive terminal failure, so an instance fails over on its
    /// first, and otherwise keeps [`BreakerConfig::default`]'s rate
    /// tripping and half-open recovery.
    pub breaker: BreakerConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 2,
            min_healthy: 1,
            reprovision_backoff: Duration::from_millis(10),
            router_threads: 4,
            queue_capacity: 256,
            serve: ServeConfig::default(),
            queue: QueueBackend::InMemory,
            breaker: BreakerConfig::default().with_consecutive_failures(1),
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

    /// Sets [`FleetConfig::router_threads`], which a fleet does not
    /// read.
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

    /// Sets the per-instance circuit-breaker tuning.
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = config;
        self
    }
}

/// A fleet request's routing record. It rides on the [`Request`]
/// itself — through an inbox, a batch and the settle that answers it —
/// so a migration re-offers the very request, ticket and ledger term
/// included.
#[derive(Default)]
pub(crate) struct Route {
    /// The class it was popped at (a `BreakerOpen` shed counts it).
    class: Priority,
    /// Attempts used: dispatches, plus tries that found nothing
    /// routable.
    attempts: usize,
    /// The instance that last failed it, refused by the next pick;
    /// `None` while no instance was ever handed it.
    avoid: Option<usize>,
    /// True while the current dispatch is a half-open breaker probe.
    probing: bool,
}

/// One fleet slot: the live replica (absent while re-provisioning), its
/// generation, health record, load and room.
#[derive(Default)]
struct InstanceSlot {
    server: Option<Arc<Replica>>,
    generation: u64,
    healthy: bool,
    /// Requests handed to this slot's replicas and not yet settled
    /// (a retired generation's stragglers included).
    inflight: usize,
    /// Most requests the replica may hold unsettled: `serve.max_batch`
    /// × its lanes, which is also its inbox bound.
    room: usize,
}

/// What [`FleetShared::pick`] found for one request.
enum Pick {
    /// Hand it to this slot's replica (`true`: as a half-open probe).
    Go(usize, Arc<Replica>, bool),
    /// A routable instance exists, but none has room.
    Full,
    /// Every instance is absent, avoided or breaker-refused.
    Refused,
}

enum SupervisorMsg {
    /// Replace `(replica, generation)` if that generation is current.
    Reprovision(usize, u64),
    Shutdown,
}

/// State shared by the dispatcher, the settles, the supervisor and the
/// fleet handle.
struct FleetShared {
    slots: Vec<Mutex<InstanceSlot>>,
    /// Requests to re-offer, each with the error that sent it back;
    /// served before the intake. Its lock is also the one the
    /// dispatcher waits under, and is taken before any slot's.
    retry: std::sync::Mutex<VecDeque<(Request, ServeError)>>,
    /// Signalled, under `retry`'s lock, when a settle frees room or
    /// queues a retry, and when a replica swaps in.
    wake: Condvar,
    /// Returns the dispatcher from a blocking intake pop, so a retry is
    /// served as soon as it is queued.
    interrupt_pop: Box<dyn Fn() + Send + Sync>,
    /// The intake's registry: admission and dispatch keep one ledger.
    metrics: Arc<MetricsRegistry>,
    supervisor_tx: Sender<SupervisorMsg>,
    rr: AtomicUsize,
    /// One circuit breaker per replica, surviving generations (reset
    /// when a replacement swaps in).
    breakers: Vec<CircuitBreaker>,
    provisioner: Box<dyn InstanceProvisioner>,
    /// What every replica is started with, under its generation's
    /// fault-site prefix.
    serve: ServeConfig,
    /// Cleared at shutdown: the supervisor stops re-provisioning.
    running: AtomicBool,
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

    fn retry(&self) -> MutexGuard<'_, VecDeque<(Request, ServeError)>> {
        self.retry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Provisions generation `generation` of instance `replica`, makes
    /// it the slot's healthy replica with a reset breaker, and wakes the
    /// dispatcher for its room.
    fn provision(self: &Arc<Self>, replica: usize, generation: u64) -> Result<(), ServeError> {
        let provisioned = self.provisioner.provision(replica, generation);
        let backends = provisioned.map_err(ServeError::Backend)?;
        let prefix = format!("fleet{replica}g{generation}.");
        let config = self.serve.clone().with_site_prefix(prefix);
        let room = config.max_batch.max(1) * backends.len();
        let (inbox, rx) = sync_channel(room);
        let next = move |timeout| rx.recv_timeout(timeout);
        // Held weakly: a settle owning its own replica would make the
        // last drop join that replica's threads from one of them. The
        // upgrade cannot fail — replica threads, the only callers, are
        // joined before the fleet's last handle lets go.
        let fleet = Arc::downgrade(self);
        let settle: Settle = Arc::new(move |request, result| {
            if let Some(fleet) = fleet.upgrade() {
                fleet.settle(replica, generation, request, result);
            }
        });
        let metrics = Arc::clone(&self.metrics);
        let server = Replica::start(backends, &config, metrics, Some(inbox), next, settle)?;
        {
            let mut slot = self.slots[replica].lock();
            slot.server = Some(Arc::new(server));
            slot.generation = generation;
            slot.healthy = true;
            slot.room = room;
        }
        // The replacement starts with a clean slate: the old
        // generation's failure history describes hardware that no
        // longer exists.
        self.breakers[replica].reset();
        drop(self.retry());
        self.wake.notify_one();
        Ok(())
    }

    /// True while popping the intake can make progress: some live
    /// replica has room, or none is live at all (a popped request is
    /// then shed at once instead of waiting for a replacement).
    fn can_take(&self) -> bool {
        let mut live = false;
        for slot in &self.slots {
            let slot = slot.lock();
            live |= slot.server.is_some();
            if slot.server.is_some() && slot.inflight < slot.room {
                return true;
            }
        }
        !live
    }

    /// Picks the healthy instance with room and the least in-flight
    /// work (round-robin tie-break). An Open breaker refuses its
    /// instance outright — not even as a fallback; a HalfOpen breaker
    /// admits it only as a last-resort *probe* (bounded by the breaker,
    /// and suppressed while the `breaker.probe` fault site fires).
    /// Among the closed-breaker instances, unhealthy ones are demoted
    /// to fallbacks — liveness beats health when there is no healthy
    /// choice.
    fn pick(&self, avoid: Option<usize>) -> Pick {
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let n = self.slots.len();
        let mut best: Option<(usize, Arc<Replica>, usize)> = None;
        let (mut fallback, mut half_open, mut full) = (None, None, false);
        for off in 0..n {
            let i = (start + off) % n;
            let slot = self.slots[i].lock();
            let Some(server) = slot.server.as_ref() else {
                continue;
            };
            let state = self.breakers[i].state();
            if (Some(i) == avoid && n > 1) || state == BreakerState::Open {
                continue;
            }
            if slot.inflight >= slot.room {
                full = true;
            } else if state == BreakerState::HalfOpen {
                half_open.get_or_insert((i, Arc::clone(server)));
            } else if !slot.healthy {
                fallback.get_or_insert((i, Arc::clone(server)));
            } else if best.as_ref().is_none_or(|b| slot.inflight < b.2) {
                best = Some((i, Arc::clone(server), slot.inflight));
            }
        }
        if let Some((i, server)) = best.map(|(i, s, _)| (i, s)).or(fallback) {
            return Pick::Go(i, server, false);
        }
        // Last resort: ask a half-open breaker for a probe slot. The
        // admit happens only here, when the probe will actually be
        // dispatched, so probe slots cannot leak.
        if let Some((i, server)) = half_open {
            if self.serve.faults.check("breaker.probe").is_none() && self.breakers[i].admit() {
                return Pick::Go(i, server, true);
            }
        }
        if full {
            Pick::Full
        } else {
            Pick::Refused
        }
    }

    /// Places one request, on the dispatcher thread: hands it to a
    /// replica with room, waits for room while every routable replica
    /// is full, and answers it here once its deadline passed or its
    /// attempts ran out.
    fn route(&self, mut request: Request, last_err: ServeError) {
        // One try per replica plus one: enough to walk off a dying
        // instance onto every peer without looping under a total outage.
        let budget = self.slots.len() + 1;
        let mut retry = self.retry();
        let server = loop {
            let now = Instant::now();
            if now >= request.deadline || request.route.attempts >= budget {
                drop(retry);
                return self.give_up(request, last_err, now);
            }
            match self.pick(request.route.avoid) {
                Pick::Go(idx, server, probing) => {
                    request.route.probing = probing;
                    self.slots[idx].lock().inflight += 1;
                    break server;
                }
                Pick::Full => {
                    let woken = self.wake.wait_timeout(retry, request.deadline - now);
                    retry = woken.unwrap_or_else(PoisonError::into_inner).0;
                }
                Pick::Refused => request.route.attempts += 1,
            }
        };
        request.route.attempts += 1;
        drop(retry);
        server.offer(request);
    }

    /// Answers a request the dispatcher cannot place: past its deadline
    /// at `now`, or out of attempts. One never dispatched while a
    /// breaker was refusing traffic is the breaker shedding, not a
    /// timeout — answered with the typed reason so clients back off
    /// deliberately.
    fn give_up(&self, request: Request, last_err: ServeError, now: Instant) {
        let refused = self
            .breakers
            .iter()
            .any(|b| b.state() != BreakerState::Closed);
        let error = if now >= request.deadline {
            ServeError::Timeout
        } else if request.route.avoid.is_none() && refused {
            count_shed(&self.metrics, request.route.class);
            ServeError::Overloaded(ShedReason::BreakerOpen)
        } else {
            last_err
        };
        resolve(request, Err(error), &self.metrics);
    }

    /// Settles a request generation `generation` of instance `replica`
    /// answered, on the thread that has the verdict (a lane, its
    /// batcher, or the dispatcher when the inbox refused it). Never
    /// blocks on another replica: a failed request goes to the retry
    /// list. A success is resolved before its room is freed, so when
    /// nothing is in flight every reply and ack has landed.
    fn settle(
        &self,
        replica: usize,
        generation: u64,
        mut request: Request,
        result: Result<ServeReply, ServeError>,
    ) {
        match result {
            Ok(reply) => {
                self.record_success(replica, generation);
                self.metrics
                    .incr(&format!("instance{replica}_completed"), 1);
                resolve(request, Ok(reply), &self.metrics);
                self.slots[replica].lock().inflight -= 1;
                drop(self.retry());
            }
            Err(e) => {
                // The instance failed the request outright: feed its
                // breaker. Congestion (`Overloaded`, `Timeout`) and a
                // draining replica migrate without a penalty. A
                // half-open probe always reports, releasing its slot.
                let failed = matches!(e, ServeError::Backend(_) | ServeError::Disconnected);
                if failed || request.route.probing {
                    self.record_failure(replica, generation);
                }
                if request.route.attempts < self.slots.len() + 1 {
                    self.metrics.incr("requests_migrated", 1);
                }
                request.route.avoid = Some(replica);
                let mut retry = self.retry();
                retry.push_back((request, e));
                self.slots[replica].lock().inflight -= 1;
                drop(retry);
                (self.interrupt_pop)();
            }
        }
        self.wake.notify_one();
    }

    /// Reports a terminal failure against `(replica, generation)` to
    /// its breaker. A stale generation (the instance was already
    /// replaced) is ignored. A trip marks the instance unhealthy and
    /// asks the supervisor for a replacement.
    fn record_failure(&self, replica: usize, generation: u64) {
        let mut slot = self.slots[replica].lock();
        if slot.generation != generation {
            return;
        }
        if self.breakers[replica].on_failure() {
            slot.healthy = false;
            self.metrics.incr("instance_failed_over", 1);
            let _ = (self.supervisor_tx).send(SupervisorMsg::Reprovision(replica, generation));
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
        }
    }
}

/// A supervisor over N independent accelerator instances.
///
/// See the module docs for the request and failure lifecycle. Metrics
/// (on [`Fleet::metrics`] / [`Fleet::shutdown`]):
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
    dispatcher: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    config: FleetConfig,
}

impl Fleet {
    /// Provisions `config.replicas` instances and starts dispatching.
    pub fn new(
        provisioner: impl InstanceProvisioner + 'static,
        config: FleetConfig,
    ) -> Result<Self, ServeError> {
        if config.replicas == 0 {
            return Err(ServeError::NoBackends);
        }
        // The builders clamp these to ≥ 1; a struct-literal constructor
        // owns the same contract, checked here once instead of being
        // silently re-clamped at every use site.
        debug_assert!(config.queue_capacity >= 1, "queue_capacity must be ≥ 1");
        // Before any instance is provisioned: a failed open must leave
        // no replica, dispatcher or supervisor running. The queue is
        // the same classed one the single server uses — strict priority
        // with aging, plus CoDel shedding when the serve config enables
        // it — and the only one a fleet request ever waits in.
        let intake = Intake::open(&config.queue, config.queue_capacity, &config.serve)?;
        let (supervisor_tx, supervisor_rx) = channel::<SupervisorMsg>();
        let shared = Arc::new(FleetShared {
            slots: (0..config.replicas)
                .map(|_| Mutex::new(InstanceSlot::default()))
                .collect(),
            retry: std::sync::Mutex::default(),
            wake: Condvar::new(),
            interrupt_pop: Box::new(intake.interrupter()),
            metrics: intake.metrics(),
            supervisor_tx,
            rr: AtomicUsize::new(0),
            breakers: (0..config.replicas)
                .map(|_| CircuitBreaker::with_system_clock(config.breaker.clone()))
                .collect(),
            provisioner: Box::new(provisioner),
            serve: config.serve.clone(),
            running: AtomicBool::new(true),
        });
        // A failure here drops `shared`, and with it every replica
        // already started: their settles hold it only weakly.
        for replica in 0..config.replicas {
            shared.provision(replica, 0)?;
        }

        let dispatcher = {
            let shared = Arc::clone(&shared);
            let pop = intake.consumer();
            std::thread::spawn(move || dispatcher_loop(shared, pop))
        };
        let supervisor = {
            let shared = Arc::clone(&shared);
            let backoff = config.reprovision_backoff;
            std::thread::spawn(move || supervisor_loop(shared, supervisor_rx, backoff))
        };

        Ok(Fleet {
            shared,
            intake,
            dispatcher: Some(dispatcher),
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
    /// breaker states and durable-queue gauges).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.intake.snapshot();
        for (i, breaker) in self.shared.breakers.iter().enumerate() {
            snap.set_gauge(
                &format!("breaker{i}_state"),
                breaker.state().as_gauge() as f64,
            );
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
        self.shared.running.store(false, Ordering::SeqCst);
        self.intake.close();
        // Returns once the intake is drained, no retry waits and no
        // replica holds an unsettled request: every accepted request
        // has been answered (and, in disk mode, acked).
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        let _ = self.shared.supervisor_tx.send(SupervisorMsg::Shutdown);
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        for slot in self.shared.slots.iter() {
            let server = slot.lock().server.take();
            // The last Arc drop joins the (idle) replica's threads.
            drop(server);
        }
        self.intake.checkpoint();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if self.supervisor.is_some() || self.dispatcher.is_some() {
            self.stop();
        }
    }
}

/// The fleet's one dispatcher thread: serves the retry list first and
/// pops the intake only while [`FleetShared::can_take`] — a request
/// that cannot be placed waits in the admission queue, under its
/// priority and CoDel law, not in a replica. Exits once the intake is
/// closed and drained, no retry waits and nothing is in flight.
fn dispatcher_loop(shared: Arc<FleetShared>, mut pop: impl FnMut(Duration) -> Popped) {
    let mut intake_open = true;
    loop {
        let retry = {
            let mut retry = shared.retry();
            loop {
                if let Some(request) = retry.pop_front() {
                    break Some(request);
                }
                if intake_open && shared.can_take() {
                    break None;
                }
                if !intake_open && shared.slots.iter().all(|s| s.lock().inflight == 0) {
                    return;
                }
                retry = shared
                    .wake
                    .wait(retry)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let (request, last_err) = match retry {
            Some(retry) => retry,
            // New work, a close and an interrupt (a queued retry) all
            // end this wait early; its length only paces an idle loop.
            None => match pop(Duration::from_millis(100)) {
                Ok((mut request, class)) => {
                    request.route.class = class;
                    (request, ServeError::Timeout)
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    intake_open = false;
                    continue;
                }
            },
        };
        shared.route(request, last_err);
    }
}

/// The supervisor thread: retires failed instances and swaps their
/// replacements in, until told to shut down.
fn supervisor_loop(shared: Arc<FleetShared>, rx: Receiver<SupervisorMsg>, backoff: Duration) {
    while let Ok(SupervisorMsg::Reprovision(replica, generation)) = rx.recv() {
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
        // Drains the old replica: every request it holds is settled
        // (failing over) before its threads exit. The dispatcher may
        // still hold a clone for an instant; the drain then runs when
        // it lets go.
        drop(old);

        loop {
            if !shared.running.load(Ordering::SeqCst) {
                return;
            }
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            match shared.provision(replica, generation + 1) {
                Ok(()) => {
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
    use crate::tests::with_watchdog;
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
        assert_eq!(fast.wait_reply().unwrap().output.shape().c, 10);
        assert_eq!(slow.wait_reply().unwrap().output.shape().c, 10);
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
    fn default_breaker_fails_an_instance_over_after_one_terminal_failure() {
        use condor_faults::{FaultPlan, FaultRule};
        assert_eq!(FleetConfig::default().breaker.consecutive_failures, 1);
        // One instance whose only generation fails terminally, on the
        // default breaker: the first failure fails it over, so the
        // second request is refused without a dispatch.
        let handle = FaultPlan::new(0xB3)
            .rule(
                FaultRule::at("fleet0g0.serve.backend0")
                    .always()
                    .fail_permanent(),
            )
            .install();
        let net = zoo::tc1_weighted(13);
        let fleet = Fleet::new(
            move |_: usize, generation: u64| {
                if generation == 0 {
                    CpuBackend::replicas(&net, 1)
                } else {
                    Err(CondorError::new("deploy", "no capacity"))
                }
            },
            FleetConfig::default()
                .with_replicas(1)
                .with_min_healthy(0)
                .with_reprovision_backoff(Duration::from_millis(50))
                .with_serve(
                    ServeConfig::default()
                        .with_batch_window(Duration::from_millis(1))
                        .with_default_timeout(Duration::from_secs(20))
                        .with_faults(handle.clone()),
                ),
        )
        .unwrap();
        let mut samples = dataset::usps_like(2, 13);
        let first = fleet.submit(samples.remove(0).image).unwrap().wait();
        assert!(matches!(first, Err(ServeError::Backend(_))));
        let second = fleet.submit(samples.remove(0).image).unwrap().wait();
        assert!(matches!(
            second,
            Err(ServeError::Overloaded(ShedReason::BreakerOpen))
        ));
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("instance_failed_over"), 1);
        assert_eq!(snap.counter("requests_failed"), 1);
        assert_ledger_balances(&snap);
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
    fn codel_sheds_behind_a_fleet_once_per_request() {
        use condor_faults::{FaultPlan, FaultRule};
        // `shed.codel` forced on: the one queue a fleet request waits in
        // sheds it — one consult of the site per request, since there is
        // one queue.
        let handle = FaultPlan::new(0xB0)
            .rule(FaultRule::at("shed.codel").always().fail_transient())
            .install();
        let net = zoo::tc1_weighted(13);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config().with_replicas(1).with_serve(
                ServeConfig::default()
                    .with_batch_window(Duration::from_millis(1))
                    .with_default_timeout(Duration::from_secs(20))
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
        let snap = fleet.shutdown();
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

    /// A CPU lane whose first batch blocks inside `infer_batch` until
    /// the test releases it (or drops the release end).
    struct HeldBackend {
        inner: CpuBackend,
        entered: Mutex<Option<Sender<()>>>,
        release: Mutex<Option<Receiver<()>>>,
    }

    impl ExecutionBackend for HeldBackend {
        fn infer_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
            if let Some(entered) = self.entered.lock().take() {
                let _ = entered.send(());
                if let Some(release) = self.release.lock().take() {
                    let _ = release.recv();
                }
            }
            self.inner.infer_batch(images)
        }
        fn pipeline(&self) -> condor_dataflow::PipelineModel {
            self.inner.pipeline()
        }
        fn location(&self) -> String {
            self.inner.location()
        }
    }

    #[test]
    fn a_fleet_batches_beyond_its_router_count() {
        with_watchdog(|| {
            let (entered_tx, entered) = channel();
            let (release, release_rx) = channel();
            let held: Box<dyn ExecutionBackend> = Box::new(HeldBackend {
                inner: CpuBackend::new(&zoo::tc1_weighted(16)).unwrap(),
                entered: Mutex::new(Some(entered_tx)),
                release: Mutex::new(Some(release_rx)),
            });
            let held = Mutex::new(Some(held));
            let fleet = Fleet::new(
                move |_: usize, _: u64| {
                    let lane = held.lock().take();
                    lane.map(|lane| vec![lane])
                        .ok_or_else(|| CondorError::new("deploy", "one generation only"))
                },
                quick_config()
                    .with_replicas(1)
                    .with_router_threads(1)
                    .with_serve(
                        ServeConfig::default()
                            .with_max_batch(8)
                            .with_batch_window(Duration::from_millis(200))
                            .with_default_timeout(Duration::from_secs(30)),
                    ),
            )
            .unwrap();
            let mut images = dataset::usps_like(8, 16).into_iter().map(|s| s.image);
            // The first request's batch holds the only lane...
            let mut pending = vec![fleet.submit(images.next().unwrap()).unwrap()];
            entered.recv().unwrap();
            // ...while seven more arrive: the replica has room for them
            // whatever `router_threads` says, so they reach its batcher
            // while the lane is held and leave as one batch.
            pending.extend(images.map(|image| fleet.submit(image).unwrap()));
            release.send(()).unwrap();
            for reply in pending {
                reply.wait().unwrap();
            }
            let snap = fleet.shutdown();
            assert_eq!(snap.counter("requests_completed"), 8);
            let batches = snap.histogram("batch_size").unwrap();
            assert!(
                batches.max >= 2.0,
                "every batch held one request: {batches:?}"
            );
        });
    }

    /// Two one-lane replicas with room for 4 requests each, whose
    /// instance 0 fails every batch after its second for good.
    fn dying_fleet(seed: u64, queue: QueueBackend) -> (Fleet, condor_faults::FaultHandle) {
        use condor_faults::{FaultPlan, FaultRule};
        let handle = FaultPlan::new(seed)
            .rule(
                FaultRule::at("fleet0g0.serve.")
                    .after_calls(2)
                    .fail_permanent(),
            )
            .install();
        let net = zoo::tc1_weighted(seed);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            FleetConfig::default()
                .with_replicas(2)
                .with_reprovision_backoff(Duration::from_millis(5))
                .with_queue(queue)
                .with_serve(
                    ServeConfig::default()
                        .with_max_batch(4)
                        .with_batch_window(Duration::from_millis(1))
                        .with_default_timeout(Duration::from_secs(30))
                        .with_faults(handle.clone()),
                ),
        )
        .unwrap();
        (fleet, handle)
    }

    fn submit_all(fleet: &Fleet, n: usize, seed: u64) -> Vec<PendingInference> {
        dataset::usps_like(n, seed)
            .into_iter()
            .map(|s| fleet.submit(s.image).unwrap())
            .collect()
    }

    #[test]
    fn saturated_replicas_fail_over_without_losing_a_request() {
        with_watchdog(|| {
            // 64 requests against room for 8: the intake holds the rest
            // while instance 0 dies under its share and migrates it.
            let (fleet, handle) = dying_fleet(0x5A7, QueueBackend::InMemory);
            for reply in submit_all(&fleet, 64, 17) {
                reply.wait().unwrap();
            }
            let snap = fleet.shutdown();
            assert_eq!(snap.counter("requests_completed"), 64);
            assert!(snap.counter("requests_migrated") >= 1);
            assert_eq!(
                snap.counter("instance0_completed") + snap.counter("instance1_completed"),
                snap.counter("requests_completed")
            );
            assert_ledger_balances(&snap);
            handle.clear();
        });
    }

    #[test]
    fn shutdown_mid_migration_answers_and_acks_every_request() {
        with_watchdog(|| {
            let dir = tmp_queue_dir("migrate");
            let queue = QueueBackend::Disk(crate::DiskQueueConfig::new(&dir));
            let (fleet, handle) = dying_fleet(0x5A8, queue);
            let pending = submit_all(&fleet, 64, 18);
            let snap = fleet.shutdown();
            for reply in pending {
                reply.wait().unwrap();
            }
            assert_eq!(snap.counter("requests_completed"), 64);
            assert!(snap.counter("requests_migrated") >= 1);
            assert_ledger_balances(&snap);
            assert_eq!(snap.gauge("disk_queue_depth"), Some(0.0));
            let (_, report) = DiskQueue::open(crate::DiskQueueConfig::new(&dir)).unwrap();
            assert!(report.pending.is_empty());
            assert_eq!(report.double_acks, 0);
            handle.clear();
            let _ = std::fs::remove_dir_all(&dir);
        });
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
}

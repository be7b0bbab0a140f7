//! # condor-serve
//!
//! A multi-threaded inference server over deployed Condor accelerators.
//!
//! The paper deploys one accelerator and hands the caller a host handle;
//! production use puts that handle behind a service. This crate provides
//! the serving layer: concurrent clients submit single images, and one
//! lane thread per [`ExecutionBackend`] — all FPGA slots of an F1
//! instance, several on-premise deployments, or pure-CPU [`CpuBackend`]
//! lanes running `condor_nn::FastEngine` (see [`cpu`]) — takes them
//! from the priority queue as hardware batches whenever it is free (the
//! Figure 5 effect: FPGA pipelines only reach their sustained rate when
//! batches keep every PE busy).
//!
//! Operational behaviour:
//!
//! * **Dynamic batching** — late-bound: a lane pops only when it is
//!   free. It blocks for the first request, takes what is already
//!   queued behind it (up to [`ServeConfig::max_batch`]) and runs the
//!   batch at once, so a request is bound to a batch only when a lane
//!   can run it, and an urgent request that arrives while every lane is
//!   busy rides the next batch. A backlog still leaves in full batches.
//!   On `perf` (2 vCPUs, 10 alternating pairs per seed) this took
//!   `serve_overload`'s `latency_p50_us` (one 2000 req/s lane offered
//!   3000 req/s) from 15.4 to 7.1 ms and `serve_open`'s (one CPU lane
//!   at a third of capacity) from 0.59 to 0.47 ms, against a batcher
//!   thread that bound batches ahead of the lanes; `goodput_rps` held.
//!   A quarantined lane takes nothing while a healthy peer can.
//! * **Priority classes** — every request carries a
//!   [`Priority`] (`Interactive`/`Standard`/`Batch`); the admission
//!   queue dispatches strict-priority with aging, so interactive
//!   traffic goes first but batch work can never starve (see the
//!   private `admission` module).
//! * **Backpressure & shedding** — the request queue is bounded; when
//!   it is full, [`InferenceServer::submit`] fails fast with
//!   [`ServeError::Overloaded`]`(`[`ShedReason::QueueFull`]`)`. With
//!   [`ServeConfig::with_codel`] the queue additionally sheds under
//!   sustained sojourn-time overload, lowest class first, attaching a
//!   `retry_after` hint ([`ShedReason::CoDelShed`]).
//! * **Timeouts** — every request carries a deadline; requests that expire
//!   while queued are answered with [`ServeError::Timeout`]. A caller
//!   hears it at the deadline even while every lane is busy
//!   ([`PendingInference::wait`]); the lane that later pops the request
//!   answers it without running it, and the ledger counts it then.
//! * **Graceful drain** — [`InferenceServer::shutdown`] stops accepting
//!   new work, drains everything already accepted, joins all threads and
//!   returns the final [`MetricsSnapshot`].
//! * **Resilience** — lanes retry transiently-failed batches (bounded
//!   by [`ServeConfig::backend_attempts`] and the requests' remaining
//!   deadlines); a lane that fails [`ServeConfig::failure_threshold`]
//!   consecutive batches is quarantined for [`ServeConfig::quarantine`]
//!   and traffic sheds to the healthy lanes until its re-probe
//!   succeeds. Fault injection (`condor-faults`, sites
//!   `serve.backend{i}`) drives the chaos suite in
//!   `tests/chaos.rs`.
//! * **Durable admission (opt-in)** — with
//!   [`ServeConfig::with_queue`]`(`[`QueueBackend::Disk`]`)` every
//!   accepted request is appended and fsynced to a crash-safe
//!   `condor-queue` log before admission, acked only after its reply is
//!   delivered, and redelivered on restart if the process dies in
//!   between — `accepted ⇒ eventually resolved-or-failed` survives
//!   `kill -9` (see `tests/crash.rs`).
//!
//! Structure: a front end is an intake plus a dispatcher. The private
//! `intake` module owns everything [`InferenceServer`] and [`Fleet`]
//! must agree on — admission, the one pop, the durable record,
//! redelivery, the one place a request is counted, answered and acked —
//! and the private `replica` module is the lanes, which take their
//! batches from one shared source.
//! [`InferenceServer`] is an intake whose queue one replica pops;
//! [`Fleet`] is an intake whose queue one dispatcher pops, handing each
//! request to one of N replicas with room and settling it on the lane
//! that answers, plus breakers and a supervisor ([`fleet`]).
//!
//! Every accepted request receives exactly one reply, and outputs are
//! bit-identical to calling `infer_batch` directly on the deployment:
//! the threaded runtime computes each image independently, so batch
//! composition cannot change the numbers.
//!
//! ```
//! use condor::{Condor, DeployTarget};
//! use condor_nn::{dataset, zoo};
//! use condor_serve::{InferenceServer, ServeConfig};
//!
//! let deployed = Condor::from_network(zoo::lenet_weighted(7))
//!     .board("aws-f1")
//!     .build()
//!     .unwrap()
//!     .deploy(&DeployTarget::OnPremise)
//!     .unwrap();
//! let server = InferenceServer::from_deployment(deployed, ServeConfig::default()).unwrap();
//! let image = dataset::mnist_like(1, 1).remove(0).image;
//! let probs = server.infer(image).unwrap();
//! assert_eq!(probs.shape().c, 10);
//! let metrics = server.shutdown();
//! assert_eq!(metrics.counter("requests_completed"), 1);
//! ```

#![forbid(unsafe_code)]

mod admission;
pub mod cpu;
mod durable;
pub mod fleet;
mod intake;
mod replica;

pub use admission::CodelConfig;
pub use condor_queue::{BreakerConfig, BreakerState, DiskQueueConfig, Priority, QueueBackend};
pub use cpu::CpuBackend;
pub use fleet::{Fleet, FleetConfig, InstanceProvisioner};

use condor::{CondorError, DeployedAccelerator, ExecutionBackend, MetricsSnapshot};
use condor_faults::{FaultHandle, FaultPlan};
use condor_tensor::Tensor;
use intake::{resolve, Intake};
use replica::Replica;
use std::fmt;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of the serving layer.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Largest hardware batch a lane takes.
    pub max_batch: usize,
    /// Read by nothing: a lane takes its batch only when it is free, so
    /// no batch waits for company. Kept until the benchmark stops
    /// setting it.
    pub batch_window: Duration,
    /// Bound on the request queue; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to requests submitted without an explicit
    /// timeout.
    pub default_timeout: Duration,
    /// Consecutive batch failures before a lane is quarantined.
    pub failure_threshold: usize,
    /// How long a quarantined lane sits out before it is re-probed.
    pub quarantine: Duration,
    /// Total attempts a worker makes per batch when the backend fails
    /// transiently (1 = never retry).
    pub backend_attempts: u32,
    /// Pause between in-worker retry attempts.
    pub backend_backoff: Duration,
    /// Fault injection over the dispatch path (sites
    /// `serve.backend{i}`; disabled by default).
    pub faults: FaultHandle,
    /// Prefix prepended to every fault site this server consults
    /// (empty by default). A fleet supervisor sets
    /// `fleet{replica}g{generation}.` so one plan can target a single
    /// instance generation — e.g. `fleet0g0.serve.backend1`.
    pub site_prefix: String,
    /// Which admission queue backs `submit`: the in-memory channel
    /// (default) or a crash-safe disk queue that redelivers accepted
    /// requests after a restart.
    pub queue: QueueBackend,
    /// CoDel-style shedding law over admission-queue sojourn time
    /// (disabled by default: only a full queue rejects).
    pub codel: Option<CodelConfig>,
    /// Pops a lower class may be bypassed before it jumps the strict
    /// priority order (starvation freedom).
    pub aging_limit: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            batch_window: Duration::from_millis(2),
            queue_capacity: 256,
            default_timeout: Duration::from_secs(1),
            failure_threshold: 3,
            quarantine: Duration::from_millis(50),
            backend_attempts: 2,
            backend_backoff: Duration::from_micros(500),
            faults: FaultHandle::disabled(),
            site_prefix: String::new(),
            queue: QueueBackend::InMemory,
            codel: None,
            aging_limit: 16,
        }
    }
}

impl ServeConfig {
    /// Sets the maximum hardware batch size.
    pub fn with_max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    /// Sets [`batch_window`](Self::batch_window), which nothing reads.
    pub fn with_batch_window(mut self, w: Duration) -> Self {
        self.batch_window = w;
        self
    }

    /// Sets the request queue bound.
    pub fn with_queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Sets the default per-request deadline.
    pub fn with_default_timeout(mut self, t: Duration) -> Self {
        self.default_timeout = t;
        self
    }

    /// Sets the consecutive-failure threshold for lane quarantine.
    pub fn with_failure_threshold(mut self, n: usize) -> Self {
        self.failure_threshold = n.max(1);
        self
    }

    /// Sets the quarantine duration for unhealthy lanes.
    pub fn with_quarantine(mut self, q: Duration) -> Self {
        self.quarantine = q;
        self
    }

    /// Sets the total in-worker attempts per batch (1 = never retry).
    pub fn with_backend_attempts(mut self, n: u32) -> Self {
        self.backend_attempts = n.max(1);
        self
    }

    /// Sets the pause between in-worker retry attempts.
    pub fn with_backend_backoff(mut self, b: Duration) -> Self {
        self.backend_backoff = b;
        self
    }

    /// Installs a fault plan over the dispatch path.
    pub fn with_fault_plan(self, plan: FaultPlan) -> Self {
        self.with_faults(plan.install())
    }

    /// Shares an already-installed fault handle.
    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    /// Prefixes every fault site this server consults.
    pub fn with_site_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.site_prefix = prefix.into();
        self
    }

    /// Selects the admission queue backend (disk = durable admission).
    pub fn with_queue(mut self, queue: QueueBackend) -> Self {
        self.queue = queue;
        self
    }

    /// Enables CoDel-style shedding with the given law (clamped once
    /// here: non-zero target, interval ≥ target).
    pub fn with_codel(mut self, codel: CodelConfig) -> Self {
        self.codel = Some(codel.normalized());
        self
    }
}

/// Why an overloaded server refused (or abandoned) a request — the
/// typed payload of [`ServeError::Overloaded`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded admission queue was full at submission.
    QueueFull,
    /// A fleet refused admission because fewer than `min_healthy`
    /// instances were live.
    MinHealthyFloor,
    /// The CoDel law shed this already-admitted request because queue
    /// sojourn stayed above target; retrying sooner than `retry_after`
    /// lands inside the same overload episode.
    CoDelShed {
        /// The law's current drop spacing.
        retry_after: Duration,
    },
    /// Every routable instance sat behind an open circuit breaker.
    BreakerOpen,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "request queue is full"),
            ShedReason::MinHealthyFloor => write!(f, "below the minimum healthy-instance floor"),
            ShedReason::CoDelShed { retry_after } => {
                write!(f, "shed by CoDel; retry after {retry_after:?}")
            }
            ShedReason::BreakerOpen => write!(f, "all instance circuit breakers are open"),
        }
    }
}

/// Why a request did not produce an output.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The server shed the request under overload; the reason says
    /// where in the degradation ladder it was refused.
    Overloaded(ShedReason),
    /// The request's deadline expired before it reached the hardware.
    Timeout,
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The server went away without answering (it was dropped).
    Disconnected,
    /// No execution backends were provided.
    NoBackends,
    /// The accelerator itself failed the batch.
    Backend(CondorError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded(reason) => write!(f, "server overloaded: {reason}"),
            ServeError::Timeout => write!(f, "request timed out before execution"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Disconnected => write!(f, "server disconnected without replying"),
            ServeError::NoBackends => write!(f, "no execution backends provided"),
            ServeError::Backend(e) => write!(f, "backend failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// True when resubmitting the request may succeed: transient
    /// backend failures, timeouts and overload are worth retrying;
    /// shutdown, disconnection and misconfiguration are not.
    pub fn is_transient(&self) -> bool {
        match self {
            ServeError::Overloaded(_) | ServeError::Timeout => true,
            ServeError::Backend(e) => e.transient,
            ServeError::ShuttingDown | ServeError::Disconnected | ServeError::NoBackends => false,
        }
    }
}

/// A completed inference.
#[derive(Clone, Debug)]
pub struct ServeReply {
    /// The network's output tensor.
    pub output: Tensor,
}

/// A ticket for a request the server accepted.
#[derive(Debug)]
pub struct PendingInference {
    rx: Receiver<Result<ServeReply, ServeError>>,
    deadline: Instant,
    claim: intake::Claim,
}

impl PendingInference {
    /// Blocks until the server answers, returning just the output
    /// tensor. Every accepted request is answered exactly once
    /// (output, timeout, or backend error), so this returns as soon
    /// as the request's batch completes — or at the request's deadline
    /// with [`ServeError::Timeout`] if no lane has taken it by then.
    /// The ledger counts such a timeout when a lane pops the request.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        self.wait_reply().map(|r| r.output)
    }

    /// Blocks until the server answers, returning the full reply.
    pub fn wait_reply(self) -> Result<ServeReply, ServeError> {
        self.wait_until(None)
    }

    /// Like [`wait`](Self::wait) but gives up after `timeout` (the
    /// request keeps running; its eventual reply is discarded).
    pub fn wait_timeout(self, timeout: Duration) -> Result<Tensor, ServeError> {
        self.wait_reply_timeout(timeout).map(|r| r.output)
    }

    /// Like [`wait_reply`](Self::wait_reply) with a deadline.
    pub fn wait_reply_timeout(self, timeout: Duration) -> Result<ServeReply, ServeError> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    /// Waits for the reply until `give_up`, if given. At the request's
    /// deadline a request no lane has taken is given up on: it can only
    /// time out, so it is not left waiting behind busy lanes.
    fn wait_until(self, give_up: Option<Instant>) -> Result<ServeReply, ServeError> {
        let mut deadline = Some(self.deadline);
        loop {
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                if let Ok(reply) = self.rx.try_recv() {
                    return reply;
                }
                if self.claim.abandon() {
                    return Err(ServeError::Timeout);
                }
                // Taken: its reply is on the way.
                deadline = None;
            }
            let received = match deadline.into_iter().chain(give_up).min() {
                None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(wake) => self.rx.recv_timeout(wake.saturating_duration_since(now)),
            };
            match received {
                Ok(reply) => return reply,
                Err(RecvTimeoutError::Disconnected) => return Err(ServeError::Disconnected),
                Err(RecvTimeoutError::Timeout) => {
                    if give_up.is_some_and(|g| Instant::now() >= g) {
                        return Err(ServeError::Timeout);
                    }
                }
            }
        }
    }
}

/// The dynamic-batching inference server.
///
/// See the crate docs for the threading model. Construct with
/// [`InferenceServer::new`] over any set of [`ExecutionBackend`]s, or
/// [`InferenceServer::from_deployment`] to serve from every FPGA slot of
/// one deployment.
pub struct InferenceServer {
    config: ServeConfig,
    intake: Intake,
    /// `None` once stopped: dropping the replica is what joins it.
    replica: Option<Replica>,
    locations: Vec<String>,
}

impl fmt::Debug for InferenceServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InferenceServer")
            .field("backends", &self.locations)
            .field("config", &self.config)
            .finish()
    }
}

impl InferenceServer {
    /// Starts a server dispatching over the given backends (one lane
    /// thread per backend).
    pub fn new(
        backends: Vec<Box<dyn ExecutionBackend>>,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        // Before any thread exists: a failed open must leave nothing
        // running that owns a backend.
        let intake = Intake::open(&config.queue, config.queue_capacity, &config)?;
        let locations = backends.iter().map(|b| b.location()).collect();
        let mut pop = intake.consumer();
        let next = move |timeout| pop(timeout).map(|(request, _class)| request);
        let metrics = intake.metrics();
        let settle = Arc::new(move |request, result| resolve(request, result, &metrics));
        let replica = Replica::start(backends, &config, intake.metrics(), None, next, settle)?;
        Ok(InferenceServer {
            config,
            intake,
            replica: Some(replica),
            locations,
        })
    }

    /// Starts a server over every FPGA slot of one deployment (a
    /// multi-slot F1 instance serves from all its FPGAs; an on-premise
    /// board serves from one).
    pub fn from_deployment(
        deployed: DeployedAccelerator,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        let backends = deployed
            .into_replicas()
            .into_iter()
            .map(|r| Box::new(r) as Box<dyn ExecutionBackend>)
            .collect();
        InferenceServer::new(backends, config)
    }

    /// Where the server's backends run.
    pub fn backend_locations(&self) -> &[String] {
        &self.locations
    }

    /// Submits one image with the default timeout at [`Priority::Standard`].
    /// Returns a ticket, or fails fast when the queue is full
    /// ([`ServeError::Overloaded`]) or the server is draining
    /// ([`ServeError::ShuttingDown`]).
    pub fn submit(&self, tensor: Tensor) -> Result<PendingInference, ServeError> {
        self.submit_with_class(tensor, self.config.default_timeout, Priority::Standard)
    }

    /// Submits one image with an explicit deadline and priority class.
    pub fn submit_with_class(
        &self,
        tensor: Tensor,
        timeout: Duration,
        class: Priority,
    ) -> Result<PendingInference, ServeError> {
        self.intake.submit(tensor, timeout, class)
    }

    /// Submits one image and blocks for its result.
    pub fn infer(&self, tensor: Tensor) -> Result<Tensor, ServeError> {
        self.submit(tensor)?.wait()
    }

    /// Live metrics: request counters, queue-depth and batch-size
    /// distributions, latency percentiles, and the throughput gauge.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.intake.snapshot()
    }

    /// Stops accepting new requests, drains every request already
    /// accepted (each still gets its reply), joins all threads, and
    /// returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop();
        self.metrics()
    }

    fn stop(&mut self) {
        // Closing the intake lets the replica's lanes drain what is
        // left and observe the close.
        self.intake.close();
        self.replica = None;
        self.intake.checkpoint();
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        // A dropped server still drains: threads only exit after the
        // queue empties, and every in-flight request is answered.
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor::deploy::DeployTarget;
    use condor::Condor;
    use condor_dataflow::PipelineModel;
    use condor_nn::{dataset, zoo};
    use condor_queue::DiskQueue;
    use std::sync::{Condvar, Mutex};

    fn deployed_lenet() -> DeployedAccelerator {
        Condor::from_network(zoo::lenet_weighted(11))
            .board("aws-f1")
            .freq_mhz(180.0)
            .build()
            .unwrap()
            .deploy(&DeployTarget::OnPremise)
            .unwrap()
    }

    fn images(n: usize, seed: u64) -> Vec<Tensor> {
        dataset::mnist_like(n, seed)
            .into_iter()
            .map(|s| s.image)
            .collect()
    }

    /// Wraps a backend behind a gate so tests can hold batches in
    /// flight deterministically.
    pub(crate) struct GatedBackend {
        pub(crate) inner: Box<dyn ExecutionBackend>,
        pub(crate) gate: Arc<(Mutex<bool>, Condvar)>,
    }

    impl GatedBackend {
        pub(crate) fn open(gate: &Arc<(Mutex<bool>, Condvar)>) {
            let (lock, cv) = gate.as_ref();
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
    }

    impl ExecutionBackend for GatedBackend {
        fn infer_batch(&self, imgs: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
            let (lock, cv) = self.gate.as_ref();
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            drop(open);
            self.inner.infer_batch(imgs)
        }
        fn pipeline(&self) -> PipelineModel {
            self.inner.pipeline()
        }
        fn location(&self) -> String {
            format!("gated:{}", self.inner.location())
        }
    }

    /// Runs `scenario` on its own thread and fails if it has not
    /// finished within a minute: a dispatcher or lane deadlock fails
    /// the test instead of hanging the suite.
    pub(crate) fn with_watchdog(scenario: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            scenario();
            let _ = done.send(());
        });
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60)) {
            panic!("scenario exceeded the 60 s watchdog (deadlock?)");
        }
        if let Err(panic) = worker.join() {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn single_request_roundtrip_matches_direct_inference() {
        let deployed = deployed_lenet();
        let img = images(1, 5).remove(0);
        let expect = deployed.infer_batch(std::slice::from_ref(&img)).unwrap();
        let server = InferenceServer::from_deployment(deployed, ServeConfig::default()).unwrap();
        let got = server.infer(img).unwrap();
        assert_eq!(got.as_slice(), expect[0].as_slice());
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_accepted"), 1);
        assert_eq!(snap.counter("requests_completed"), 1);
    }

    #[test]
    fn partial_batches_leave_without_filling_max_batch() {
        // max_batch far above what we submit, so every batch is partial:
        // a free lane takes what is queued and runs it. All requests
        // complete.
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_max_batch(1000)
                .with_default_timeout(Duration::from_secs(30)),
        )
        .unwrap();
        let handles: Vec<_> = images(4, 6)
            .into_iter()
            .map(|img| server.submit(img).unwrap())
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_completed"), 4);
        let batches = snap.histogram("batch_size").unwrap();
        // The partial batches carried exactly the four requests.
        assert_eq!((batches.mean * batches.count as f64).round(), 4.0);
        assert!(batches.max >= 1.0 && batches.max <= 4.0);
    }

    #[test]
    fn max_batch_caps_dispatch_size() {
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_max_batch(2)
                .with_default_timeout(Duration::from_secs(30)),
        )
        .unwrap();
        let handles: Vec<_> = images(6, 7)
            .into_iter()
            .map(|img| server.submit(img).unwrap())
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_completed"), 6);
        assert!(snap.histogram("batch_size").unwrap().max <= 2.0);
    }

    #[test]
    fn expired_requests_time_out_instead_of_executing() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let replicas = deployed_lenet().into_replicas();
        let backend = Box::new(GatedBackend {
            inner: Box::new(replicas.into_iter().next().unwrap()),
            gate: Arc::clone(&gate),
        });
        let server =
            InferenceServer::new(vec![backend], ServeConfig::default().with_max_batch(1)).unwrap();

        // First request occupies the (gated) worker.
        let occupier = server
            .submit_with_class(
                images(1, 8).remove(0),
                Duration::from_secs(30),
                Priority::Standard,
            )
            .unwrap();
        // Second request gets a zero deadline: it can only expire.
        let doomed = server
            .submit_with_class(images(1, 9).remove(0), Duration::ZERO, Priority::Standard)
            .unwrap();
        assert_eq!(doomed.wait(), Err(ServeError::Timeout));

        GatedBackend::open(&gate);
        occupier.wait().unwrap();
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_timed_out"), 1);
        assert_eq!(snap.counter("requests_completed"), 1);
    }

    #[test]
    fn a_caller_gives_up_at_the_deadline_only_on_a_request_nothing_took() {
        with_watchdog(|| {
            use crate::intake::Request;
            let image = || condor_tensor::constant(condor_tensor::Shape::vector(1), 1.0);
            // Nothing took it: at its deadline the caller hears Timeout, and
            // a lane that pops it later may not run it.
            let (request, pending) = Request::detached(image(), Duration::ZERO);
            assert_eq!(pending.wait(), Err(ServeError::Timeout));
            assert!(!request.take());
            // A lane took it in time and answers after the deadline: the
            // caller gets the reply, not a Timeout for a request that ran.
            let (request, mut pending) = Request::detached(image(), Duration::from_secs(60));
            assert!(request.take());
            pending.deadline = Instant::now();
            let lane = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                let output = request.tensor.clone();
                resolve(
                    request,
                    Ok(ServeReply { output }),
                    &condor::MetricsRegistry::new(),
                );
            });
            assert_eq!(pending.wait().unwrap().as_slice(), [1.0]);
            lane.join().unwrap();
        });
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let replicas = deployed_lenet().into_replicas();
        let backend = Box::new(GatedBackend {
            inner: Box::new(replicas.into_iter().next().unwrap()),
            gate: Arc::clone(&gate),
        });
        let server = InferenceServer::new(
            vec![backend],
            ServeConfig::default()
                .with_max_batch(1)
                .with_queue_capacity(2)
                .with_default_timeout(Duration::from_secs(60)),
        )
        .unwrap();

        // With the lane gated shut, the pipeline can hold only a
        // bounded number of requests (the lane's one batch + queue).
        // Keep submitting: we must hit Overloaded well before 100.
        let mut handles = Vec::new();
        let mut overloaded = false;
        for img in images(100, 10) {
            match server.submit(img) {
                Ok(h) => handles.push(h),
                Err(ServeError::Overloaded(ShedReason::QueueFull)) => {
                    overloaded = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
            // Give the lane a moment to pop before deciding the queue
            // is truly full rather than momentarily busy.
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(overloaded, "bounded queue never rejected");
        assert!(handles.len() < 100);

        // Release the gate: every accepted request still completes.
        GatedBackend::open(&gate);
        for h in handles {
            h.wait().unwrap();
        }
        let snap = server.shutdown();
        assert!(snap.counter("requests_rejected_overloaded") >= 1);
        assert_eq!(snap.counter("requests_failed"), 0);
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default().with_default_timeout(Duration::from_secs(30)),
        )
        .unwrap();
        let handles: Vec<_> = images(10, 12)
            .into_iter()
            .map(|img| server.submit(img).unwrap())
            .collect();
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_completed"), 10);
        // Replies are still deliverable after shutdown returned.
        for h in handles {
            h.wait().unwrap();
        }
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let deployed = deployed_lenet();
        let img = images(1, 13).remove(0);
        let mut server =
            InferenceServer::from_deployment(deployed, ServeConfig::default()).unwrap();
        // `shutdown` consumes the server, so no caller can submit to
        // one that has stopped; close the intake the way `stop` does
        // and probe the refusal directly. The drop that follows closes
        // it a second time, which must be harmless.
        server.intake.close();
        assert_eq!(server.submit(img).unwrap_err(), ServeError::ShuttingDown);
    }

    #[test]
    fn empty_backend_set_is_rejected() {
        assert_eq!(
            InferenceServer::new(Vec::new(), ServeConfig::default()).unwrap_err(),
            ServeError::NoBackends
        );
    }

    #[test]
    fn backend_errors_propagate_to_the_caller() {
        // An unweighted network deploys but cannot execute; the server
        // must surface that as a Backend error, not hang.
        let deployed = Condor::from_network(zoo::lenet())
            .board("aws-f1")
            .build()
            .unwrap()
            .deploy(&DeployTarget::OnPremise)
            .unwrap();
        let server = InferenceServer::from_deployment(deployed, ServeConfig::default()).unwrap();
        let err = server.infer(images(1, 14).remove(0)).unwrap_err();
        match err {
            ServeError::Backend(e) => assert!(e.message.contains("no weights")),
            other => panic!("expected backend error, got {other:?}"),
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_failed"), 1);
    }

    #[test]
    fn transient_backend_faults_are_retried_in_the_worker() {
        use condor_faults::{FaultPlan, FaultRule};
        // Every first attempt on the single lane fails transiently; the
        // in-worker retry must absorb it without the caller noticing.
        let handle = FaultPlan::new(21)
            .rule(FaultRule::at("serve.backend0").nth_call(0).fail_transient())
            .install();
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_default_timeout(Duration::from_secs(30))
                .with_faults(handle.clone()),
        )
        .unwrap();
        server.infer(images(1, 20).remove(0)).unwrap();
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_completed"), 1);
        assert_eq!(snap.counter("requests_failed"), 0);
        assert_eq!(snap.counter("backend_retries"), 1);
        assert_eq!(handle.fired(), 1);
    }

    #[test]
    fn permanent_faults_fail_without_retry() {
        use condor_faults::{FaultPlan, FaultRule};
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_default_timeout(Duration::from_secs(30))
                .with_fault_plan(
                    FaultPlan::new(22)
                        .rule(FaultRule::at("serve.backend0").nth_call(0).fail_permanent()),
                ),
        )
        .unwrap();
        let err = server.infer(images(1, 23).remove(0)).unwrap_err();
        assert!(matches!(&err, ServeError::Backend(e) if !e.transient));
        assert!(!err.is_transient());
        let snap = server.shutdown();
        assert_eq!(snap.counter("backend_retries"), 0);
        assert_eq!(snap.counter("requests_failed"), 1);
    }

    #[test]
    fn failing_lane_is_quarantined_and_recovers() {
        use condor_faults::{FaultPlan, FaultRule};
        // Two lanes; the fault window covers exactly the whole retry
        // budget of the first batch, on whichever lane takes it, so
        // that batch fails. Threshold 1 quarantines that lane; later
        // traffic sheds to its peer, and its eventual re-probe (faults
        // exhausted) brings it back.
        let handle = FaultPlan::new(31)
            .rule(
                FaultRule::at("serve.backend")
                    .first_calls(2)
                    .fail_transient()
                    .max_fires(2),
            )
            .install();
        let backends: Vec<Box<dyn ExecutionBackend>> = deployed_lenet()
            .into_replicas()
            .into_iter()
            .map(|r| Box::new(r) as Box<dyn ExecutionBackend>)
            .chain(
                deployed_lenet()
                    .into_replicas()
                    .into_iter()
                    .map(|r| Box::new(r) as Box<dyn ExecutionBackend>),
            )
            .collect();
        let server = InferenceServer::new(
            backends,
            ServeConfig::default()
                .with_max_batch(1)
                .with_default_timeout(Duration::from_secs(30))
                .with_failure_threshold(1)
                .with_backend_attempts(2)
                .with_quarantine(Duration::from_millis(20))
                .with_faults(handle.clone()),
        )
        .unwrap();

        // The first request burns both attempts on the lane that takes
        // it, fails, and quarantines that lane.
        let first = server.infer(images(1, 30).remove(0));
        assert!(first.is_err());
        // Subsequent requests shed to the healthy lane and succeed.
        for img in images(4, 31) {
            server.infer(img).unwrap();
        }
        // After the quarantine expires the re-probe must succeed.
        std::thread::sleep(Duration::from_millis(25));
        for img in images(4, 32) {
            server.infer(img).unwrap();
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("lane_marked_unhealthy"), 1);
        assert_eq!(snap.counter("requests_completed"), 8);
        assert!(snap.counter("lane_recovered") <= 1);
    }

    #[test]
    fn empty_fault_plan_leaves_serving_unchanged() {
        use condor_faults::FaultPlan;
        let handle = FaultPlan::new(99).install();
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_default_timeout(Duration::from_secs(30))
                .with_faults(handle.clone()),
        )
        .unwrap();
        for img in images(3, 40) {
            server.infer(img).unwrap();
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_completed"), 3);
        assert_eq!(snap.counter("backend_retries"), 0);
        assert_eq!(handle.fired(), 0);
    }

    #[test]
    fn metrics_expose_latency_and_throughput() {
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default().with_default_timeout(Duration::from_secs(30)),
        )
        .unwrap();
        for img in images(5, 15) {
            server.infer(img).unwrap();
        }
        let snap = server.metrics();
        let latency = snap.histogram("latency_us").unwrap();
        assert_eq!(latency.count, 5);
        assert!(latency.p50 > 0.0 && latency.p99 >= latency.p50);
        assert!(snap.gauge("throughput_rps").unwrap() > 0.0);
        server.shutdown();
    }

    /// Fresh scratch directory for the disk-queue tests.
    fn tmp_queue_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "condor-serve-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Starts each front end in turn over the disk queue `seed` left
    /// behind and shuts it straight down, handing `check` the final
    /// snapshot: recovery is intake policy, so whatever the backlog
    /// held must resolve the same way behind either dispatcher.
    fn drain_recovered_backlog(
        tag: &str,
        seed: impl Fn(&DiskQueue),
        check: impl Fn(&MetricsSnapshot),
    ) {
        for front_end in ["server", "fleet"] {
            let dir = tmp_queue_dir(&format!("{tag}-{front_end}"));
            {
                let (queue, _) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
                seed(&queue);
            }
            let queue = QueueBackend::Disk(DiskQueueConfig::new(&dir));
            let serve = ServeConfig::default().with_default_timeout(Duration::from_secs(30));
            let snap = if front_end == "server" {
                InferenceServer::from_deployment(deployed_lenet(), serve.with_queue(queue))
                    .unwrap()
                    .shutdown()
            } else {
                Fleet::new(
                    |_: usize, _: u64| CpuBackend::replicas(&zoo::lenet_weighted(11), 1),
                    FleetConfig::default()
                        .with_replicas(1)
                        .with_serve(serve)
                        .with_queue(queue),
                )
                .unwrap()
                .shutdown()
            };
            check(&snap);
            // A redelivered record has no caller, but it was served: its
            // latency is observed like any completion, from re-admission.
            assert_eq!(
                snap.histogram("latency_us").map_or(0, |h| h.count),
                snap.counter("requests_completed"),
                "{front_end}: one latency sample per completion"
            );
            let (_, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
            assert!(
                report.pending.is_empty(),
                "{front_end}: every recovered record must ack"
            );
            assert_eq!(report.double_acks, 0, "{front_end}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn disk_queue_mode_serves_and_drains_durably() {
        let dir = tmp_queue_dir("roundtrip");
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_default_timeout(Duration::from_secs(30))
                .with_queue(QueueBackend::Disk(DiskQueueConfig::new(&dir))),
        )
        .unwrap();
        for img in images(4, 21) {
            server.infer(img).unwrap();
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_completed"), 4);
        assert_eq!(snap.counter("requests_redelivered"), 0);
        // Every completion acked its durable record end to end.
        assert_eq!(snap.histogram("ack_latency_us").unwrap().count, 4);
        assert_eq!(snap.gauge("disk_queue_depth"), Some(0.0));
        // A fresh recovery finds nothing pending and no double acks.
        let (_, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        assert!(report.pending.is_empty());
        assert_eq!(report.double_acks, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_records_are_redelivered_and_resolved() {
        // Simulate a crashed predecessor: durable records exist on disk
        // with no live caller, one of them poisoned. Startup must
        // replay all five: four infer to completion (their replies go
        // nowhere, their acks land), the poisoned one is failed and
        // acked rather than looping or crashing the thread.
        drain_recovered_backlog(
            "redeliver",
            |queue| {
                for img in images(4, 22) {
                    let payload = durable::encode_request(
                        &img,
                        Duration::from_secs(30),
                        durable::deadline_epoch_us(Duration::from_secs(30)),
                    );
                    queue.append(&payload, Priority::Standard).unwrap();
                }
                queue
                    .append(b"not a request payload", Priority::Batch)
                    .unwrap();
            },
            |snap| {
                assert_eq!(snap.counter("requests_redelivered"), 5);
                assert_eq!(snap.counter("requests_completed"), 4);
                assert_eq!(snap.counter("requests_failed"), 1);
                assert_eq!(snap.counter("requests_accepted"), 0);
            },
        );
    }

    #[test]
    fn interactive_class_round_trips_through_wait_reply() {
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default().with_default_timeout(Duration::from_secs(30)),
        )
        .unwrap();
        let reply = server
            .submit_with_class(
                images(1, 50).remove(0),
                Duration::from_secs(30),
                Priority::Interactive,
            )
            .unwrap()
            .wait_reply()
            .unwrap();
        assert_eq!(reply.output.shape().c, 10);
        server.shutdown();
    }

    #[test]
    fn forced_codel_sheds_reject_with_retry_hint_before_batching() {
        use condor_faults::{FaultPlan, FaultRule};
        // `shed.codel` forced on: every admitted request is shed before
        // it can batch, with the typed reason and per-class counters.
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_default_timeout(Duration::from_secs(30))
                .with_fault_plan(
                    FaultPlan::new(41).rule(FaultRule::at("shed.codel").always().fail_transient()),
                ),
        )
        .unwrap();
        for img in images(3, 51) {
            let pending = server.submit(img).unwrap();
            match pending.wait() {
                Err(ServeError::Overloaded(ShedReason::CoDelShed { retry_after })) => {
                    assert!(retry_after > Duration::ZERO);
                }
                other => panic!("expected a CoDel shed, got {other:?}"),
            }
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_shed"), 3);
        assert_eq!(snap.counter("requests_shed_standard"), 3);
        assert_eq!(snap.counter("requests_shed_interactive"), 0);
        assert_eq!(snap.counter("requests_completed"), 0);
        assert!(snap.histogram("queue_sojourn_us").is_none());
    }

    #[test]
    fn expired_recovered_records_fail_and_ack_as_timed_out() {
        drain_recovered_backlog(
            "expired",
            |queue| {
                // Deadline already in the past: must never execute.
                let stale = durable::encode_request(&images(1, 23)[0], Duration::from_secs(30), 1);
                queue.append(&stale, Priority::Interactive).unwrap();
                // Deadline far in the future: must complete normally.
                let fresh = durable::encode_request(
                    &images(1, 24)[0],
                    Duration::from_secs(30),
                    durable::deadline_epoch_us(Duration::from_secs(30)),
                );
                queue.append(&fresh, Priority::Batch).unwrap();
            },
            |snap| {
                assert_eq!(snap.counter("requests_redelivered"), 2);
                assert_eq!(snap.counter("requests_timed_out"), 1);
                assert_eq!(snap.counter("requests_completed"), 1);
            },
        );
    }
}

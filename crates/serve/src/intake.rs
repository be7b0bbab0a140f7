//! The request front half shared by [`InferenceServer`] and [`Fleet`]:
//! everything between a caller's `submit` and a consumer thread's pop,
//! and everything between a consumer's verdict and the caller's reply.
//!
//! The policy both front ends must agree on lives here and nowhere
//! else:
//!
//! * **durable before admission** — in disk-queue mode a request is
//!   appended and fsynced before it can enter the admission queue, so
//!   no request is ever in flight without its record;
//! * **ack strictly after the reply lands** — [`resolve`] is the only
//!   way a [`Request`] is answered and the only place a live request's
//!   record is retired (the reply channel and the ticket are private to
//!   this module, so a dispatcher cannot do either by hand);
//! * **redelivery** — the backlog recovered at [`Intake::open`]
//!   re-enters priority-then-FIFO, with deadline-expired and poisoned
//!   records failed and acked instead of served;
//! * **one pop** — the closure [`Intake::consumer`] returns is the only
//!   way a request leaves the queue: it resolves the CoDel sheds the
//!   pop produced and observes `queue_sojourn_us`;
//! * **one ledger** — `requests_accepted`, the rejection and shed
//!   counters, `queue_depth`, `ack_latency_us` and `disk_queue_depth`
//!   are written here, and [`resolve`] derives the closing terms
//!   (`requests_completed`, `requests_failed`, `requests_timed_out`,
//!   `latency_us`) from the result it delivers.
//!
//! What is *not* here is dispatch: the server's replica and the
//! fleet's dispatcher pop on their own threads, and every lane hands
//! each request back through [`resolve`] (behind a fleet, after the
//! fleet's breaker and migration bookkeeping).
//!
//! [`InferenceServer`]: crate::InferenceServer
//! [`Fleet`]: crate::Fleet

use crate::admission::{AdmissionQueue, PopOutcome, PushError, Shed};
use crate::fleet::Route;
use crate::{durable, PendingInference, ServeConfig, ServeError, ServeReply, ShedReason};
use condor::{CondorError, MetricsRegistry, MetricsSnapshot};
use condor_faults::retry::SystemClock;
use condor_queue::{DiskQueue, Priority, QueueBackend, RecoveryReport};
use condor_tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One admitted inference request. Its priority class lives in the
/// admission queue's lane (and, durably, the CQR2 frame), not here — a
/// consumer that needs it takes it from the pop (the fleet keeps it in
/// `route`).
pub(crate) struct Request {
    pub(crate) tensor: Tensor,
    enqueued: Instant,
    pub(crate) deadline: Instant,
    reply: SyncSender<Result<ServeReply, ServeError>>,
    claim: Claim,
    /// Present in disk-queue mode: the durable record backing this
    /// request, acked only when the request is resolved.
    ticket: Option<Ticket>,
    /// True for a request an [`Intake`] admitted or redelivered: its
    /// resolution is a ledger term. False for a refused submission.
    ledger: bool,
    /// Where a fleet has tried to serve it; unused behind a server.
    pub(crate) route: Route,
}

/// Who answers a request: a lane that took it into a batch, or the
/// resolution that answered it some other way — or else its caller,
/// who gives up on it at its deadline rather than wait behind busy
/// lanes for one to pop it. Whichever side claims it first decides;
/// the other then knows what to do.
#[derive(Clone, Debug, Default)]
pub(crate) struct Claim(Arc<AtomicU8>);

const WAITING: u8 = 0;
const TAKEN: u8 = 1;
const ABANDONED: u8 = 2;

impl Claim {
    /// Takes the request for a lane or a resolution: false if its
    /// caller has already given up on it. Taking it again is a no-op.
    fn take(&self) -> bool {
        let state = self
            .0
            .compare_exchange(WAITING, TAKEN, Ordering::AcqRel, Ordering::Acquire);
        state != Err(ABANDONED)
    }

    /// The caller gives up on a request nothing has taken yet: false if
    /// something has, and its reply is on the way.
    pub(crate) fn abandon(&self) -> bool {
        self.0
            .compare_exchange(WAITING, ABANDONED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// The durable record behind one accepted request.
struct Ticket {
    queue: Arc<DiskQueue>,
    id: u64,
}

impl Request {
    /// A request due `timeout` from now, plus the caller's end of its
    /// reply channel.
    fn new(
        tensor: Tensor,
        timeout: Duration,
        ticket: Option<Ticket>,
        ledger: bool,
    ) -> (Request, PendingInference) {
        let (reply, rx) = sync_channel(1);
        let now = Instant::now();
        let claim = Claim::default();
        let request = Request {
            tensor,
            enqueued: now,
            deadline: now + timeout,
            reply,
            claim: claim.clone(),
            ticket,
            ledger,
            route: Route::default(),
        };
        let pending = PendingInference {
            rx,
            deadline: request.deadline,
            claim,
        };
        (request, pending)
    }

    /// Takes the request into a lane's batch: false, and it must be
    /// answered [`ServeError::Timeout`] instead, once its deadline has
    /// passed or its caller gave up on it there.
    pub(crate) fn take(&self) -> bool {
        Instant::now() < self.deadline && self.claim.take()
    }
}

/// Counts, answers and — in disk-queue mode — acks a request, in that
/// order: callers read counters right after `wait()`. The ledger term
/// is derived from `result` (a shed is `Overloaded` and was counted,
/// with its class, where it was decided). The ack is written strictly
/// after the reply is delivered to the caller's channel, so `accepted ⇒
/// eventually resolved-or-failed` holds across a `kill -9` anywhere (a
/// crash between reply and ack redelivers; a crash before the reply
/// redelivers; nothing is ever dropped).
pub(crate) fn resolve(
    request: Request,
    result: Result<ServeReply, ServeError>,
    metrics: &MetricsRegistry,
) {
    if request.ledger {
        match &result {
            Ok(_) => {
                metrics.incr("requests_completed", 1);
                metrics.observe_duration("latency_us", request.enqueued.elapsed());
            }
            Err(ServeError::Timeout) => metrics.incr("requests_timed_out", 1),
            Err(ServeError::Overloaded(_)) => {}
            Err(_) => metrics.incr("requests_failed", 1),
        }
    }
    // Claimed before the send, so a caller at its deadline waits for
    // this answer instead of giving up on a request already answered.
    request.claim.take();
    let _ = request.reply.send(result);
    if let Some(ticket) = request.ticket {
        // A refused double ack (redelivery raced the original) or a
        // failed ack write (the record legally redelivers after the
        // next restart) both leave the ledger consistent.
        if let Ok(true) = ticket.queue.ack(ticket.id) {
            metrics.observe_duration("ack_latency_us", request.enqueued.elapsed());
            metrics.set_gauge("disk_queue_depth", ticket.queue.depth() as f64);
        }
    }
}

/// Per-class shed accounting: the aggregate counter plus one counter
/// per priority class (so dashboards can verify Batch absorbs the
/// sheds).
pub(crate) fn count_shed(metrics: &MetricsRegistry, class: Priority) {
    metrics.incr("requests_shed", 1);
    match class {
        Priority::Interactive => metrics.incr("requests_shed_interactive", 1),
        Priority::Standard => metrics.incr("requests_shed_standard", 1),
        Priority::Batch => metrics.incr("requests_shed_batch", 1),
    }
}

/// Resolves every request the admission queue shed since the last pop:
/// shed counters tick (aggregate and per class) and the caller gets the
/// typed rejection with its retry hint.
fn resolve_sheds(sheds: &mut Vec<Shed<Request>>, metrics: &MetricsRegistry) {
    for shed in sheds.drain(..) {
        count_shed(metrics, shed.class);
        resolve(
            shed.item,
            Err(ServeError::Overloaded(ShedReason::CoDelShed {
                retry_after: shed.retry_after,
            })),
            metrics,
        );
    }
}

/// What a consumer's pop yields: the next request and its class;
/// `Timeout` when idle or when sheds were just resolved; `Disconnected`
/// once the intake is closed and drained.
pub(crate) type Popped = Result<(Request, Priority), RecvTimeoutError>;

/// Maps a queue failure onto the serving error surface.
fn queue_err(e: condor_queue::QueueError) -> ServeError {
    ServeError::Backend(CondorError::new("queue", e.to_string()))
}

/// The admission side of a front end: the accepting flag, the classed
/// admission queue, the metrics registry and — in disk-queue mode — the
/// durable log with its redelivery thread.
pub(crate) struct Intake {
    accepting: AtomicBool,
    queue: Arc<AdmissionQueue<Request>>,
    metrics: Arc<MetricsRegistry>,
    started: Instant,
    durable: Option<Arc<DiskQueue>>,
    redelivery: Option<JoinHandle<()>>,
}

impl Intake {
    /// Opens the intake: `backend` and `capacity` are the front end's
    /// own, the aging, CoDel and fault knobs come from `serve`.
    ///
    /// In disk-queue mode this opens the log (running crash recovery)
    /// and starts re-injecting every record the previous process
    /// accepted but never resolved. It must run before the front end
    /// spawns any consumer thread: the open is the one step of a
    /// constructor that can fail on its environment, and a consumer
    /// started ahead of it would outlive the failed constructor, its
    /// backends with it.
    pub(crate) fn open(
        backend: &QueueBackend,
        capacity: usize,
        serve: &ServeConfig,
    ) -> Result<Intake, ServeError> {
        let queue = Arc::new(AdmissionQueue::new(
            capacity,
            serve.aging_limit,
            serve.codel.clone(),
            Arc::new(SystemClock),
            serve.faults.clone(),
        ));
        let metrics = Arc::new(MetricsRegistry::new());
        let (durable, redelivery) = match backend {
            QueueBackend::InMemory => (None, None),
            QueueBackend::Disk(config) => {
                let (log, report) = DiskQueue::open(config.clone()).map_err(queue_err)?;
                let log = Arc::new(log);
                let thread = spawn_redelivery(
                    Arc::clone(&log),
                    report,
                    Arc::clone(&queue),
                    Arc::clone(&metrics),
                );
                (Some(log), Some(thread))
            }
        };
        Ok(Intake {
            accepting: AtomicBool::new(true),
            queue,
            metrics,
            started: Instant::now(),
            durable,
            redelivery,
        })
    }

    /// One consumer thread's pop, waiting up to the `timeout` it is
    /// called with: sheds are resolved and `queue_sojourn_us` observed
    /// before the dispatcher sees a request.
    pub(crate) fn consumer(&self) -> impl FnMut(Duration) -> Popped + Send + 'static {
        let queue = Arc::clone(&self.queue);
        let metrics = Arc::clone(&self.metrics);
        let mut sheds = Vec::new();
        move |timeout| {
            let outcome = queue.pop(timeout, &mut sheds);
            resolve_sheds(&mut sheds, &metrics);
            match outcome {
                PopOutcome::Popped {
                    item,
                    class,
                    sojourn,
                } => {
                    metrics.observe_duration("queue_sojourn_us", sojourn);
                    Ok((item, class))
                }
                PopOutcome::TimedOut => Err(RecvTimeoutError::Timeout),
                PopOutcome::Closed => Err(RecvTimeoutError::Disconnected),
            }
        }
    }

    /// Makes a consumer blocked in its pop return idle at once: how the
    /// fleet's dispatcher is woken for a migration it must re-offer.
    pub(crate) fn interrupter(&self) -> impl Fn() + Send + Sync + 'static {
        let queue = Arc::clone(&self.queue);
        move || queue.interrupt()
    }

    /// The registry the intake and its dispatcher both write to.
    pub(crate) fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Admits one request, or refuses it: [`ServeError::ShuttingDown`]
    /// once closed, [`ShedReason::QueueFull`] at capacity, a `queue`
    /// backend error when the durable append fails.
    pub(crate) fn submit(
        &self,
        tensor: Tensor,
        timeout: Duration,
        class: Priority,
    ) -> Result<PendingInference, ServeError> {
        if !self.accepting.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        // Disk-queue mode: the request is durable *before* admission —
        // a crash from here on redelivers it, same class (CQR2 frame),
        // against its absolute deadline (payload).
        let ticket = match &self.durable {
            None => None,
            Some(log) => {
                let payload =
                    durable::encode_request(&tensor, timeout, durable::deadline_epoch_us(timeout));
                let id = log.append(&payload, class).map_err(queue_err)?;
                self.metrics
                    .set_gauge("disk_queue_depth", log.depth() as f64);
                Some(Ticket {
                    queue: Arc::clone(log),
                    id,
                })
            }
        };
        let (request, pending) = Request::new(tensor, timeout, ticket, true);
        // A refused request is resolved, not dropped: its durable
        // record (if any) is acked as rejected and will not redeliver.
        // It was never accepted, so it closes no ledger term either.
        let (mut request, error) = match self.queue.try_push(request, class) {
            Ok(()) => {
                self.metrics.incr("requests_accepted", 1);
                self.metrics.observe("queue_depth", self.queue.len() as f64);
                return Ok(pending);
            }
            Err(PushError::Full(request)) => {
                self.metrics.incr("requests_rejected_overloaded", 1);
                (request, ServeError::Overloaded(ShedReason::QueueFull))
            }
            Err(PushError::Closed(request)) => (request, ServeError::ShuttingDown),
        };
        request.ledger = false;
        resolve(request, Err(error.clone()), &self.metrics);
        Err(error)
    }

    /// Live metrics: everything in the registry plus the lifetime
    /// `throughput_rps` and the current `disk_queue_depth`.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let elapsed = self.started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            let rps = snap.counter("requests_completed") as f64 / elapsed;
            snap.set_gauge("throughput_rps", rps);
        }
        if let Some(log) = &self.durable {
            snap.set_gauge("disk_queue_depth", log.depth() as f64);
        }
        snap
    }

    /// Stops admission while the consumers are still running. The
    /// redelivery thread pushes into the queue, so it is joined first —
    /// every recovered record is back in flight — and only then is the
    /// queue closed, so the consumers drain what is left and observe
    /// the close.
    pub(crate) fn close(&mut self) {
        self.accepting.store(false, Ordering::SeqCst);
        if let Some(r) = self.redelivery.take() {
            let _ = r.join();
        }
        self.queue.close();
    }

    /// Folds the acks into a final checkpoint so the next open starts
    /// clean. Call once the consumers are joined: everything accepted
    /// is resolved and acked by then. Best-effort — a failure only
    /// means a longer journal replay.
    pub(crate) fn checkpoint(&self) {
        if let Some(log) = &self.durable {
            let _ = log.checkpoint();
        }
    }
}

impl Drop for Intake {
    fn drop(&mut self) {
        // Still open here only when the front end's constructor failed
        // after `open`: no consumer will ever drain the queue, so it is
        // closed *before* the join — a redelivery push blocked on a
        // full queue fails, and its record stays pending for the next
        // start.
        self.queue.close();
        if let Some(r) = self.redelivery.take() {
            let _ = r.join();
        }
    }
}

/// Starts the redelivery thread: recovered records are re-injected in
/// priority-then-FIFO order (classes come from the CQR2 frames, FIFO
/// from the recovery scan), fire-and-forget (the original caller died
/// with the previous process; the record's obligation is resolution,
/// not reply delivery). Records whose embedded absolute deadline
/// already expired are failed-and-acked as timed out instead of
/// burning backend time; poisoned records — payloads that no longer
/// decode — are counted failed and acked so they cannot loop forever.
fn spawn_redelivery(
    log: Arc<DiskQueue>,
    report: RecoveryReport,
    queue: Arc<AdmissionQueue<Request>>,
    metrics: Arc<MetricsRegistry>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut pending = report.pending;
        // Stable sort: Interactive re-enters first, FIFO within class.
        pending.sort_by_key(|record| record.class.index());
        for record in pending {
            metrics.incr("requests_redelivered", 1);
            let Some((tensor, timeout, deadline_epoch_us)) =
                durable::decode_request(&record.payload)
            else {
                metrics.incr("requests_failed", 1);
                let _ = log.ack(record.id);
                continue;
            };
            let now_epoch = durable::epoch_micros_now();
            if deadline_epoch_us != 0 && now_epoch >= deadline_epoch_us {
                // The caller's deadline passed while the record sat on
                // disk: fail-and-ack, never execute.
                metrics.incr("requests_timed_out", 1);
                let _ = log.ack(record.id);
                continue;
            }
            let remaining = if deadline_epoch_us == 0 {
                timeout
            } else {
                Duration::from_micros(deadline_epoch_us - now_epoch).min(timeout)
            };
            let ticket = Ticket {
                queue: Arc::clone(&log),
                id: record.id,
            };
            // The caller's side is dropped: replies go nowhere, but
            // resolve() still counts the outcome and acks the record.
            let (request, _) = Request::new(tensor, remaining, Some(ticket), true);
            // Blocking push: redelivery yields to live traffic when
            // the queue is full. A push failure means the front end is
            // already gone; the record stays pending for the next
            // restart.
            if queue.push(request, record.class).is_err() {
                return;
            }
        }
        metrics.set_gauge("disk_queue_depth", log.depth() as f64);
    })
}

#[cfg(test)]
impl Request {
    /// A request no intake admitted (no ticket, no ledger term), for
    /// driving a replica directly.
    pub(crate) fn detached(tensor: Tensor, timeout: Duration) -> (Request, PendingInference) {
        Request::new(tensor, timeout, None, false)
    }
}

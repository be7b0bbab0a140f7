//! What a replica is: one batcher thread and the lanes it feeds.
//!
//! [`InferenceServer`](crate::InferenceServer) is an intake plus one
//! replica whose batcher pops the intake; a [`Fleet`](crate::Fleet) slot
//! is a replica whose batcher receives from a bounded inbox the fleet's
//! dispatcher fills. Nothing is queued, shed, aged or made durable here
//! — that happened once, in the front end's `intake` — and the lane
//! metrics go to the front end's registry. The batcher is written
//! against "the next request, or idle, or closed, within `timeout`": a
//! closure returning what `Receiver::recv_timeout` returns; and every
//! request is answered through the front end's [`Settle`] callback.

use crate::intake::Request;
use crate::{ServeConfig, ServeError, ServeReply};
use condor::{CondorError, ExecutionBackend, MetricsRegistry};
use condor_tensor::Tensor;
use parking_lot::Mutex;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Load and health of one dispatch lane, shared between its worker
/// (which updates it after every batch) and the batcher (which reads it
/// when picking a lane).
#[derive(Clone, Copy, Default)]
struct LaneState {
    /// Requests handed to the lane and not yet answered.
    inflight: usize,
    /// Consecutive failed batches.
    consecutive_failures: usize,
    /// Set while the lane is quarantined; an expired instant means the
    /// lane is due for a re-probe.
    unhealthy_until: Option<Instant>,
}

impl LaneState {
    /// A lane is selectable when healthy or when its quarantine has
    /// expired (the next batch is its re-probe).
    fn selectable(&self, now: Instant) -> bool {
        match self.unhealthy_until {
            None => true,
            Some(until) => now >= until,
        }
    }
}

/// How a replica answers every request it took: a server hands it to
/// the intake's ledger, a fleet settles it against the instance that
/// answered (which may re-offer it elsewhere). Runs on the thread that
/// has the verdict — a lane, the batcher, or an offerer whose request
/// the inbox refused — and must not block on another replica.
pub(crate) type Settle = Arc<dyn Fn(Request, Result<ServeReply, ServeError>) + Send + Sync>;

/// The batcher's end of one dispatch lane.
struct WorkerHandle {
    tx: SyncSender<Vec<Request>>,
    state: Arc<Mutex<LaneState>>,
}

/// A running batcher and its lane threads.
pub(crate) struct Replica {
    /// The fleet's end of the hand-off; absent on a server's replica,
    /// whose batcher pops the intake instead.
    inbox: Option<SyncSender<Request>>,
    settle: Settle,
    threads: Vec<JoinHandle<()>>,
}

impl Replica {
    /// Starts one worker thread per backend and the batcher that feeds
    /// them from `next`; `config`'s queue fields are not read. `inbox`
    /// is the sending end of `next` when that is a channel of requests.
    pub(crate) fn start(
        backends: Vec<Box<dyn ExecutionBackend>>,
        config: &ServeConfig,
        metrics: Arc<MetricsRegistry>,
        inbox: Option<SyncSender<Request>>,
        next: impl FnMut(Duration) -> Result<Request, RecvTimeoutError> + Send + 'static,
        settle: Settle,
    ) -> Result<Replica, ServeError> {
        if backends.is_empty() {
            return Err(ServeError::NoBackends);
        }
        let mut handles = Vec::with_capacity(backends.len());
        let mut threads = Vec::with_capacity(backends.len() + 1);
        for (idx, backend) in backends.into_iter().enumerate() {
            // Capacity 1 keeps at most one batch queued per lane, so a
            // stalled backend pushes back into the request queue instead
            // of hoarding work a faster lane could take.
            let (tx, rx) = sync_channel(1);
            let state = Arc::new(Mutex::new(LaneState::default()));
            handles.push(WorkerHandle {
                tx,
                state: Arc::clone(&state),
            });
            let (config, metrics) = (config.clone(), Arc::clone(&metrics));
            let settle = Arc::clone(&settle);
            threads.push(std::thread::spawn(move || {
                worker_loop(idx, backend, rx, state, config, metrics, settle);
            }));
        }
        let config = config.clone();
        let batcher_settle = Arc::clone(&settle);
        threads.push(std::thread::spawn(move || {
            batcher_loop(next, handles, config, metrics, batcher_settle);
        }));
        Ok(Replica {
            inbox,
            settle,
            threads,
        })
    }

    /// Hands this replica `request` without blocking. A full or closed
    /// inbox settles it at once as [`ServeError::ShuttingDown`] — a
    /// draining replica — on the caller's thread.
    pub(crate) fn offer(&self, request: Request) {
        let refused = match &self.inbox {
            Some(inbox) => match inbox.try_send(request) {
                Ok(()) => return,
                Err(TrySendError::Full(request) | TrySendError::Disconnected(request)) => request,
            },
            None => request,
        };
        (self.settle)(refused, Err(ServeError::ShuttingDown));
    }
}

impl Drop for Replica {
    /// Joins every thread, so a dropped replica still drains. The
    /// batcher exits once its source reports closed — the inbox is
    /// closed here, a server closes its intake before the drop — and
    /// drops the lanes, whose workers drain and exit.
    fn drop(&mut self) {
        self.inbox = None;
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Adds a request to the batch, or answers it with `Timeout` if its
/// deadline passed while it waited (in the source, or on a lane).
fn admit(request: Request, batch: &mut Vec<Request>, settle: &Settle) {
    if Instant::now() >= request.deadline {
        settle(request, Err(ServeError::Timeout));
    } else {
        batch.push(request);
    }
}

/// Polls the brownout controller (time-based disengage) and exports its
/// state as the `brownout_active` gauge.
fn publish_brownout(config: &ServeConfig, metrics: &MetricsRegistry) {
    if let Some(brownout) = &config.brownout {
        let active = brownout.poll();
        metrics.set_gauge("brownout_active", if active { 1.0 } else { 0.0 });
    }
}

/// Picks the lane for the next batch from one look at each lane's
/// state: the least-loaded *selectable* lane — quarantined lanes are
/// shed until their quarantine expires, and the next batch sent to an
/// expired lane is its re-probe — or, if every lane is quarantined, the
/// one whose quarantine ends soonest: liveness beats health when there
/// is no healthy choice. Also says whether that lane is idle
/// (selectable, nothing in flight); a quarantined fallback never is.
fn pick_lane(workers: &[WorkerHandle]) -> (usize, bool) {
    let now = Instant::now();
    let lanes: Vec<LaneState> = workers.iter().map(|w| *w.state.lock()).collect();
    let healthy = (0..lanes.len())
        .filter(|&i| lanes[i].selectable(now))
        .min_by_key(|&i| lanes[i].inflight);
    match healthy {
        Some(i) => (i, lanes[i].inflight == 0),
        None => {
            let soonest = (0..lanes.len())
                .min_by_key(|&i| lanes[i].unhealthy_until.unwrap_or(now))
                .expect("replica has at least one backend");
            (soonest, false)
        }
    }
}

/// The batcher thread: coalesces requests into batches and hands each
/// batch to the least-loaded worker lane. It is work-conserving: while
/// a lane is idle a batch takes only what the source already holds and
/// leaves at once; only while every lane is busy does it wait up to
/// `batch_window` for more.
fn batcher_loop(
    mut next: impl FnMut(Duration) -> Result<Request, RecvTimeoutError>,
    workers: Vec<WorkerHandle>,
    config: ServeConfig,
    metrics: Arc<MetricsRegistry>,
    settle: Settle,
) {
    'serve: loop {
        // Block for the first request of the next batch; a closed and
        // drained source means the front end is shutting down.
        let first = loop {
            match next(Duration::from_millis(20)) {
                Ok(request) => break request,
                Err(RecvTimeoutError::Timeout) => publish_brownout(&config, &metrics),
                Err(RecvTimeoutError::Disconnected) => break 'serve,
            }
        };
        let mut batch = Vec::with_capacity(config.max_batch);
        admit(first, &mut batch, &settle);

        // Only this thread raises a lane's `inflight`, so a lane found
        // idle here is still idle when the batch is sent to it.
        let (mut lane, idle) = pick_lane(&workers);
        let window = if idle {
            Duration::ZERO
        } else {
            config.batch_window
        };
        let window_closes = Instant::now() + window;

        // Keep coalescing until the batch fills or the source has
        // nothing more to give before the window closes; a closed
        // window still takes what the source already holds.
        while batch.len() < config.max_batch.max(1) {
            match next(window_closes.saturating_duration_since(Instant::now())) {
                Ok(request) => admit(request, &mut batch, &settle),
                Err(_) => break,
            }
        }
        publish_brownout(&config, &metrics);
        if batch.is_empty() {
            continue;
        }
        if !idle {
            // Lanes drained while the window was open: look again.
            lane = pick_lane(&workers).0;
        }

        // The bounded lane makes this send block when every lane is
        // busy, which is what backs pressure up into the source.
        let lane = &workers[lane];
        lane.state.lock().inflight += batch.len();
        metrics.observe("batch_size", batch.len() as f64);
        if let Err(failed) = lane.tx.send(batch) {
            // Worker died. Resolve every request in the failed batch —
            // callers see Disconnected, and in disk-queue mode the
            // records are acked rather than left to redeliver forever.
            metrics.incr("requests_dropped_worker_died", 1);
            for request in failed.0 {
                settle(request, Err(ServeError::Disconnected));
            }
        }
    }
    // Dropping `workers` here closes every lane; workers drain whatever
    // is still queued on their channel and exit.
}

/// One worker thread: executes batches on its backend (retrying
/// transient failures while some request still has deadline left),
/// answers every request in the batch, and maintains the lane's health
/// record.
fn worker_loop(
    idx: usize,
    backend: Box<dyn ExecutionBackend>,
    rx: Receiver<Vec<Request>>,
    state: Arc<Mutex<LaneState>>,
    config: ServeConfig,
    metrics: Arc<MetricsRegistry>,
    settle: Settle,
) {
    let site = format!("{}serve.backend{idx}", config.site_prefix);
    while let Ok(queued) = rx.recv() {
        let n = queued.len();
        // Deadline escalation: requests that expired while waiting on
        // this lane's channel time out instead of burning backend time.
        let mut batch = Vec::with_capacity(n);
        for request in queued {
            admit(request, &mut batch, &settle);
        }
        if batch.is_empty() {
            state.lock().inflight -= n;
            continue;
        }

        let tensors: Vec<Tensor> = batch.iter().map(|r| r.tensor.clone()).collect();
        let mut attempt = 0u32;
        let result = loop {
            attempt += 1;
            let res = config
                .faults
                .gate(&site)
                .map_err(CondorError::from)
                .and_then(|()| backend.infer_batch(&tensors));
            match res {
                Ok(outputs) => break Ok(outputs),
                Err(e) => {
                    // Retry only transient failures, only while attempts
                    // remain, and only if someone is still waiting.
                    let worth_retrying = e.transient
                        && attempt < config.backend_attempts.max(1)
                        && batch.iter().any(|r| Instant::now() < r.deadline);
                    if !worth_retrying {
                        break Err(e);
                    }
                    metrics.incr("backend_retries", 1);
                    if !config.backend_backoff.is_zero() {
                        std::thread::sleep(config.backend_backoff);
                    }
                }
            }
        };

        match result {
            Ok(outputs) => {
                {
                    let mut lane = state.lock();
                    if lane.unhealthy_until.is_some() {
                        metrics.incr("lane_recovered", 1);
                    }
                    lane.consecutive_failures = 0;
                    lane.unhealthy_until = None;
                }
                let degraded = config
                    .brownout
                    .as_ref()
                    .is_some_and(|brownout| brownout.active());
                for (request, output) in batch.into_iter().zip(outputs) {
                    settle(request, Ok(ServeReply { output, degraded }));
                }
            }
            Err(e) => {
                {
                    let mut lane = state.lock();
                    lane.consecutive_failures += 1;
                    if lane.consecutive_failures >= config.failure_threshold.max(1) {
                        if lane.unhealthy_until.is_none() {
                            metrics.incr("lane_marked_unhealthy", 1);
                        }
                        lane.unhealthy_until = Some(Instant::now() + config.quarantine);
                    }
                }
                for request in batch {
                    settle(request, Err(ServeError::Backend(e.clone())));
                }
            }
        }
        state.lock().inflight -= n;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::intake::resolve;
    use crate::tests::{with_watchdog, GatedBackend};
    use crate::{CpuBackend, PendingInference};
    use condor_dataflow::PipelineModel;
    use condor_nn::{dataset, zoo};
    use std::collections::VecDeque;

    /// A CPU lane that records the size of every batch it is handed.
    /// `sizes` doubles as the liveness witness: the lane thread owns the
    /// backend, so a strong count of 1 means that thread has exited.
    struct RecordingBackend {
        inner: CpuBackend,
        sizes: Arc<Mutex<Vec<usize>>>,
    }

    impl ExecutionBackend for RecordingBackend {
        fn infer_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
            self.sizes.lock().push(images.len());
            self.inner.infer_batch(images)
        }
        fn pipeline(&self) -> PipelineModel {
            self.inner.pipeline()
        }
        fn location(&self) -> String {
            self.inner.location()
        }
    }

    /// Answers every request straight to its caller.
    fn answer() -> Settle {
        let metrics = MetricsRegistry::new();
        Arc::new(move |request, result| resolve(request, result, &metrics))
    }

    /// One step of a scripted source.
    enum Step {
        /// A request the source already holds.
        Ready(Request),
        /// A request that arrives during the next wait: a zero-wait pop
        /// finds the source empty, any longer one returns it.
        Arriving(Request),
        /// Nothing arrives: the source blocks for as long as allowed.
        Idle,
        /// Nothing arrives until this request has been answered.
        Answered(PendingInference),
    }

    /// A scripted source's steps, and the callers' ends of the requests
    /// in it in script order.
    #[derive(Default)]
    struct Script {
        steps: VecDeque<Step>,
        pending: Vec<PendingInference>,
    }

    impl Script {
        /// Appends `n` requests with deadline `timeout`, each as `step`.
        fn requests(mut self, n: usize, timeout: Duration, step: fn(Request) -> Step) -> Self {
            for sample in dataset::usps_like(n, 3) {
                let (request, reply) = Request::detached(sample.image, timeout);
                self.steps.push_back(step(request));
                self.pending.push(reply);
            }
            self
        }

        /// Appends an idle wait.
        fn idle(mut self) -> Self {
            self.steps.push_back(Step::Idle);
            self
        }

        /// Holds the source idle until the last request so far has been
        /// answered; its caller's end moves into the script.
        fn until_answered(mut self) -> Self {
            let reply = self.pending.pop().unwrap();
            self.steps.push_back(Step::Answered(reply));
            self
        }
    }

    /// Starts a one-lane replica over `script`; the source reports
    /// closed once the script runs out. A `gated` lane holds its batches
    /// until the source first idles or closes, so it is busy from its
    /// first batch until then; it can hold two (one in the lane's
    /// channel), and a third send blocks. Returns the replica, the
    /// callers' ends and the lane's batch record.
    fn scripted(
        script: Script,
        config: &ServeConfig,
        gated: bool,
    ) -> (Replica, Vec<PendingInference>, Arc<Mutex<Vec<usize>>>) {
        let Script { mut steps, pending } = script;
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new((std::sync::Mutex::new(!gated), std::sync::Condvar::new()));
        let backend = GatedBackend {
            inner: Box::new(RecordingBackend {
                inner: CpuBackend::new(&zoo::tc1_weighted(3)).unwrap(),
                sizes: Arc::clone(&sizes),
            }),
            gate: Arc::clone(&gate),
        };
        let replica = Replica::start(
            vec![Box::new(backend)],
            config,
            Arc::new(MetricsRegistry::new()),
            None,
            move |timeout: Duration| match steps.pop_front() {
                Some(Step::Ready(request)) => Ok(request),
                Some(Step::Arriving(request)) if !timeout.is_zero() => Ok(request),
                Some(Step::Idle) => {
                    GatedBackend::open(&gate);
                    std::thread::sleep(timeout);
                    Err(RecvTimeoutError::Timeout)
                }
                Some(Step::Answered(reply)) => {
                    if let Err(RecvTimeoutError::Timeout) = reply.rx.recv_timeout(timeout) {
                        steps.push_front(Step::Answered(reply));
                    }
                    Err(RecvTimeoutError::Timeout)
                }
                Some(arriving) => {
                    steps.push_front(arriving);
                    Err(RecvTimeoutError::Timeout)
                }
                None => {
                    GatedBackend::open(&gate);
                    Err(RecvTimeoutError::Disconnected)
                }
            },
            answer(),
        )
        .unwrap();
        (replica, pending, sizes)
    }

    /// Runs `script` to its end through a gated lane and checks that
    /// every request got an output and the lane was handed batches of
    /// `expected` sizes. Under the watchdog: a batcher that sends a
    /// third batch while the lane is held blocks for good.
    fn assert_gated_batches(script: Script, config: ServeConfig, expected: &'static [usize]) {
        with_watchdog(move || {
            let (replica, pending, sizes) = scripted(script, &config, true);
            drop(replica);
            for reply in pending {
                assert_eq!(reply.wait().unwrap().shape().c, 10);
            }
            assert_eq!(*sizes.lock(), expected);
        });
    }

    const LIVE: Duration = Duration::from_secs(30);

    #[test]
    fn max_batch_caps_a_batch_and_an_idle_source_flushes_at_the_window() {
        // Five requests the source holds under max_batch 2: the first
        // batch finds the lane idle, the next finds it held busy, and
        // the window is a scheduler stall away, so only the cap closes
        // either. The fifth request's batch, at the still-busy lane, is
        // flushed when the source idles through the rest of its window;
        // the last leaves when the source closes.
        let config = ServeConfig::default()
            .with_max_batch(2)
            .with_batch_window(Duration::from_millis(100));
        let script = Script::default()
            .requests(5, LIVE, Step::Ready)
            .idle()
            .requests(1, LIVE, Step::Ready);
        assert_gated_batches(script, config, &[2, 2, 1, 1]);
    }

    #[test]
    fn an_idle_lane_answers_a_lone_request_without_waiting_out_the_window() {
        // The source stays open and idle behind the request: only the
        // window could hold it back, and an idle lane skips the window.
        let config = ServeConfig::default().with_batch_window(Duration::from_secs(30));
        let script = Script::default().requests(1, LIVE, Step::Ready).idle();
        let (_replica, mut pending, _) = scripted(script, &config, false);
        pending
            .remove(0)
            .wait_timeout(Duration::from_secs(5))
            .unwrap();
    }

    #[test]
    fn requests_arriving_while_the_only_lane_is_busy_leave_as_one_batch() {
        // The first request leaves alone at once; the lane then stays
        // busy, so the four that arrive meanwhile wait under the window
        // and leave together when the source closes.
        let config = ServeConfig::default().with_batch_window(Duration::from_secs(30));
        let script =
            Script::default()
                .requests(1, LIVE, Step::Ready)
                .requests(4, LIVE, Step::Arriving);
        assert_gated_batches(script, config, &[1, 4]);
    }

    #[test]
    fn a_backlog_at_an_idle_lane_leaves_as_a_full_batch() {
        let config = ServeConfig::default()
            .with_max_batch(4)
            .with_batch_window(Duration::from_secs(30));
        let script = Script::default().requests(6, LIVE, Step::Ready);
        assert_gated_batches(script, config, &[4, 2]);
    }

    #[test]
    fn a_quarantined_lane_with_nothing_in_flight_is_not_idle() {
        use condor_faults::{FaultPlan, FaultRule};
        // The first batch fails for good and quarantines the only lane
        // for longer than the test runs. Once it is answered the lane
        // holds nothing, yet the next request still waits under the
        // window for the one arriving behind it; both then go to the
        // quarantined lane as the last resort.
        let config = ServeConfig::default()
            .with_batch_window(Duration::from_secs(30))
            .with_failure_threshold(1)
            .with_quarantine(Duration::from_secs(60))
            .with_fault_plan(
                FaultPlan::new(5)
                    .rule(FaultRule::at("serve.backend0").nth_call(0).fail_permanent()),
            );
        let script = Script::default()
            .requests(1, LIVE, Step::Ready)
            .until_answered()
            .requests(1, LIVE, Step::Ready)
            .requests(1, LIVE, Step::Arriving);
        let (replica, pending, sizes) = scripted(script, &config, false);
        drop(replica);
        for reply in pending {
            reply.wait().unwrap();
        }
        // The failed batch never reached the backend.
        assert_eq!(*sizes.lock(), vec![2]);
    }

    #[test]
    fn closed_source_drains_then_drop_joins_every_lane() {
        let config = ServeConfig::default().with_batch_window(Duration::from_secs(30));
        let script = Script::default().requests(3, LIVE, Step::Ready);
        let (replica, pending, sizes) = scripted(script, &config, false);
        drop(replica);
        // Everything the source held before closing was served — in one
        // batch, since the lane was idle and the source held all three —
        // and the lane thread is gone: it owned the backend's `sizes`
        // clone.
        assert_eq!(*sizes.lock(), vec![3]);
        assert_eq!(Arc::strong_count(&sizes), 1);
        for reply in pending {
            reply.wait_timeout(Duration::ZERO).unwrap();
        }
    }

    #[test]
    fn request_expired_in_the_source_times_out_before_the_backend() {
        let script = Script::default().requests(1, Duration::ZERO, Step::Ready);
        let (replica, mut pending, sizes) = scripted(script, &ServeConfig::default(), false);
        drop(replica);
        assert_eq!(pending.remove(0).wait(), Err(ServeError::Timeout));
        assert!(sizes.lock().is_empty(), "an expired request never executes");
    }

    #[test]
    fn a_replica_without_an_inbox_refuses_hops() {
        // A server's replica pops its intake: a request offered to it
        // is settled at once, as if the replica were draining.
        let (replica, _, _) = scripted(Script::default(), &ServeConfig::default(), false);
        let image = dataset::usps_like(1, 4).remove(0).image;
        let (request, pending) = Request::detached(image, Duration::from_secs(1));
        replica.offer(request);
        assert_eq!(
            pending.wait_timeout(Duration::ZERO).unwrap_err(),
            ServeError::ShuttingDown
        );
    }
}

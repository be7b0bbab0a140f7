//! What a replica is: lanes that each take their own batches from one
//! shared source.
//!
//! [`InferenceServer`](crate::InferenceServer) is an intake plus one
//! replica whose lanes pop the intake; a [`Fleet`](crate::Fleet) slot
//! is a replica whose lanes receive from a bounded inbox the fleet's
//! dispatcher fills. Nothing is queued, shed, aged or made durable here
//! — that happened once, in the front end's `intake` — and the lane
//! metrics go to the front end's registry. A lane pops only when it is
//! free to run what it pops, so no request is bound to a lane while a
//! later, more urgent one could still overtake it. The source is
//! written against "the next request, or idle, or closed, within
//! `timeout`": a closure returning what `Receiver::recv_timeout`
//! returns; and every request is answered through the front end's
//! [`Settle`] callback.

use crate::intake::Request;
use crate::{ServeConfig, ServeError, ServeReply};
use condor::{CondorError, ExecutionBackend, MetricsRegistry};
use condor_tensor::Tensor;
use std::sync::mpsc::{RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Health of one lane: the lane writes it after every batch, and every
/// lane reads it before taking one.
#[derive(Clone, Copy, Default)]
struct LaneState {
    /// Consecutive failed batches.
    consecutive_failures: usize,
    /// Set while the lane is quarantined; an expired instant means the
    /// lane is due for a re-probe.
    unhealthy_until: Option<Instant>,
}

impl LaneState {
    /// A lane is selectable when healthy or when its quarantine has
    /// expired (its next batch is its re-probe).
    fn selectable(&self, now: Instant) -> bool {
        match self.unhealthy_until {
            None => true,
            Some(until) => now >= until,
        }
    }
}

/// Every lane's health, and whether the source has closed.
struct Health {
    lanes: Vec<LaneState>,
    closed: bool,
}

impl Health {
    /// Until when lane `idx` must sit out: `None` if it may take a batch
    /// now — it is selectable, or every lane is quarantined and its
    /// quarantine ends soonest (liveness beats health when there is no
    /// healthy choice) — else the end of its own quarantine.
    fn sits_out_until(&self, idx: usize, now: Instant) -> Option<Instant> {
        let until = match self.lanes[idx].unhealthy_until {
            Some(until) if now < until => until,
            _ => return None,
        };
        let soonest = (0..self.lanes.len())
            .min_by_key(|&i| self.lanes[i].unhealthy_until.unwrap_or(now))
            .expect("replica has at least one lane");
        let no_peer = !self.lanes.iter().any(|lane| lane.selectable(now));
        if no_peer && soonest == idx {
            None
        } else {
            Some(until)
        }
    }
}

/// What the lanes of one replica share.
struct Lanes<N> {
    /// The one source. A lane holds this lock while it forms its batch,
    /// so two lanes never split what the source holds between them.
    source: Mutex<N>,
    health: Mutex<Health>,
    /// Signalled when a lane is quarantined and when the source closes:
    /// what a lane sitting out its quarantine waits for.
    changed: Condvar,
}

impl<N: FnMut(Duration) -> Result<Request, RecvTimeoutError>> Lanes<N> {
    /// Every lane's health, locked.
    fn health(&self) -> MutexGuard<'_, Health> {
        self.health.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until lane `idx` may take a batch; false once the source
    /// has closed.
    fn wait_turn(&self, idx: usize) -> bool {
        let mut health = self.health();
        loop {
            if health.closed {
                return false;
            }
            let now = Instant::now();
            let Some(until) = health.sits_out_until(idx, now) else {
                return true;
            };
            health = self
                .changed
                .wait_timeout(health, until - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Lane `idx`'s next batch, taken now that the lane is free: it
    /// blocks for the first request, then takes what the source already
    /// holds, up to `max_batch`, with zero-wait pops. `None` once the
    /// source is closed and drained.
    fn take(&self, idx: usize, max_batch: usize, settle: &Settle) -> Option<Vec<Request>> {
        while self.wait_turn(idx) {
            let mut next = self.source.lock().unwrap_or_else(PoisonError::into_inner);
            // Bounded, so a lane serving as the last resort looks again
            // at whether a peer has come out of quarantine.
            let first = match next(Duration::from_millis(20)) {
                Ok(request) => request,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    self.health().closed = true;
                    self.changed.notify_all();
                    return None;
                }
            };
            let mut batch = Vec::with_capacity(max_batch);
            admit(first, &mut batch, settle);
            while batch.len() < max_batch {
                match next(Duration::ZERO) {
                    Ok(request) => admit(request, &mut batch, settle),
                    Err(_) => break,
                }
            }
            if !batch.is_empty() {
                return Some(batch);
            }
        }
        None
    }

    /// Records how lane `idx`'s batch went.
    fn record(&self, idx: usize, ok: bool, config: &ServeConfig, metrics: &MetricsRegistry) {
        let mut health = self.health();
        let lane = &mut health.lanes[idx];
        if ok {
            if lane.unhealthy_until.take().is_some() {
                metrics.incr("lane_recovered", 1);
            }
            lane.consecutive_failures = 0;
        } else {
            lane.consecutive_failures += 1;
            if lane.consecutive_failures >= config.failure_threshold.max(1) {
                if lane.unhealthy_until.is_none() {
                    metrics.incr("lane_marked_unhealthy", 1);
                }
                lane.unhealthy_until = Some(Instant::now() + config.quarantine);
                self.changed.notify_all();
            }
        }
    }
}

/// How a replica answers every request it took: a server hands it to
/// the intake's ledger, a fleet settles it against the instance that
/// answered (which may re-offer it elsewhere). Runs on the thread that
/// has the verdict — a lane, or an offerer whose request the inbox
/// refused — and must not block on another replica.
pub(crate) type Settle = Arc<dyn Fn(Request, Result<ServeReply, ServeError>) + Send + Sync>;

/// A replica's running lanes.
pub(crate) struct Replica {
    /// The fleet's end of the hand-off; absent on a server's replica,
    /// whose lanes pop the intake instead.
    inbox: Option<SyncSender<Request>>,
    settle: Settle,
    threads: Vec<JoinHandle<()>>,
}

impl Replica {
    /// Starts one lane thread per backend, each taking its batches from
    /// `next`; `config`'s queue fields are not read. `inbox` is the
    /// sending end of `next` when that is a channel of requests.
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
        let lanes = Arc::new(Lanes {
            source: Mutex::new(next),
            health: Mutex::new(Health {
                lanes: vec![LaneState::default(); backends.len()],
                closed: false,
            }),
            changed: Condvar::new(),
        });
        let threads = backends
            .into_iter()
            .enumerate()
            .map(|(idx, backend)| {
                let lanes = Arc::clone(&lanes);
                let (config, metrics) = (config.clone(), Arc::clone(&metrics));
                let settle = Arc::clone(&settle);
                std::thread::spawn(move || {
                    lane_loop(idx, backend, &lanes, &config, &metrics, &settle);
                })
            })
            .collect();
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
    /// Joins every lane, so a dropped replica still drains. Lanes exit
    /// once the source reports closed — the inbox is closed here, a
    /// server closes its intake before the drop — and a lane sitting
    /// out its quarantine is woken by the close.
    fn drop(&mut self) {
        self.inbox = None;
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Adds a request to the batch, or answers it with `Timeout` if its
/// deadline passed while it waited in the source (its caller may have
/// heard so already).
fn admit(request: Request, batch: &mut Vec<Request>, settle: &Settle) {
    if request.take() {
        batch.push(request);
    } else {
        settle(request, Err(ServeError::Timeout));
    }
}

/// One lane thread: takes a batch whenever it is free, executes it on
/// its backend (retrying transient failures while some request still
/// has deadline left), records the lane's health and answers every
/// request in the batch.
fn lane_loop<N: FnMut(Duration) -> Result<Request, RecvTimeoutError>>(
    idx: usize,
    backend: Box<dyn ExecutionBackend>,
    lanes: &Lanes<N>,
    config: &ServeConfig,
    metrics: &MetricsRegistry,
    settle: &Settle,
) {
    let site = format!("{}serve.backend{idx}", config.site_prefix);
    while let Some(batch) = lanes.take(idx, config.max_batch.max(1), settle) {
        metrics.observe("batch_size", batch.len() as f64);
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
        lanes.record(idx, result.is_ok(), config, metrics);
        match result {
            Ok(outputs) => {
                for (request, output) in batch.into_iter().zip(outputs) {
                    settle(request, Ok(ServeReply { output }));
                }
            }
            Err(e) => {
                for request in batch {
                    settle(request, Err(ServeError::Backend(e.clone())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::intake::{resolve, Intake};
    use crate::tests::{with_watchdog, GatedBackend};
    use crate::{PendingInference, Priority, QueueBackend};
    use condor_dataflow::PipelineModel;
    use condor_faults::{FaultPlan, FaultRule};
    use condor_tensor::Shape;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// Holds a lane's batches while closed; see [`GatedBackend::open`].
    type Gate = Arc<(Mutex<bool>, Condvar)>;

    fn gate(open: bool) -> Gate {
        Arc::new((Mutex::new(open), Condvar::new()))
    }

    /// A batch a probe lane ran: the lane, and its requests' markers.
    type Ran = (usize, Vec<f32>);

    /// A lane that reports every batch it is handed, then waits at its
    /// gate and echoes its images back — or fails the batch for good if
    /// a marker is negative. The report `Sender` doubles as the liveness
    /// witness: the lane thread owns the backend, so once every lane has
    /// exited the report channel disconnects.
    struct Probe {
        lane: usize,
        ran: Sender<Ran>,
        gate: Gate,
    }

    impl ExecutionBackend for Probe {
        fn infer_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
            let markers: Vec<f32> = images.iter().map(|image| image.as_slice()[0]).collect();
            let fails = markers.iter().any(|&m| m < 0.0);
            let _ = self.ran.send((self.lane, markers));
            let (lock, cv) = self.gate.as_ref();
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            if fails {
                return Err(CondorError::new("probe", "negative marker"));
            }
            Ok(images.to_vec())
        }
        fn pipeline(&self) -> PipelineModel {
            PipelineModel::from_stage_cycles(vec![1], 100.0)
        }
        fn location(&self) -> String {
            format!("probe{}", self.lane)
        }
    }

    const LIVE: Duration = Duration::from_secs(30);

    /// A request whose image is the single value `marker`, and its
    /// caller's end.
    fn marked(marker: f32, timeout: Duration) -> (Request, PendingInference) {
        Request::detached(condor_tensor::constant(Shape::vector(1), marker), timeout)
    }

    /// Answers every request straight to its caller.
    fn answer() -> Settle {
        let metrics = MetricsRegistry::new();
        Arc::new(move |request, result| resolve(request, result, &metrics))
    }

    /// Starts one probe lane per gate over `next`, answering through
    /// `settle`; returns the replica and the batches its lanes run.
    fn probed(
        config: &ServeConfig,
        gates: &[Gate],
        metrics: Arc<MetricsRegistry>,
        next: impl FnMut(Duration) -> Result<Request, RecvTimeoutError> + Send + 'static,
        settle: Settle,
    ) -> (Replica, Receiver<Ran>) {
        let (ran, batches) = channel();
        let lanes = gates
            .iter()
            .enumerate()
            .map(|(lane, gate)| {
                let ran = ran.clone();
                let gate = Arc::clone(gate);
                Box::new(Probe { lane, ran, gate }) as Box<dyn ExecutionBackend>
            })
            .collect();
        let replica = Replica::start(lanes, config, metrics, None, next, settle).unwrap();
        (replica, batches)
    }

    /// A replica of probe lanes over a channel of requests that already
    /// holds one request per marker in `queued`: the channel's sending
    /// end (dropping it closes the source), the callers' ends of the
    /// queued requests, the replica and the batches its lanes run.
    fn over_channel(
        config: &ServeConfig,
        gates: &[Gate],
        queued: &[f32],
    ) -> (
        Sender<Request>,
        Vec<PendingInference>,
        Replica,
        Receiver<Ran>,
    ) {
        let (tx, rx) = channel();
        let pending = queued.iter().map(|&m| send(&tx, m)).collect();
        let next = move |timeout| rx.recv_timeout(timeout);
        let metrics = Arc::new(MetricsRegistry::new());
        let (replica, batches) = probed(config, gates, metrics, next, answer());
        (tx, pending, replica, batches)
    }

    /// A replica of probe lanes popping `intake`, as a server's does.
    fn over_intake(
        config: &ServeConfig,
        gates: &[Gate],
        intake: &Intake,
    ) -> (Replica, Receiver<Ran>) {
        let mut pop = intake.consumer();
        let next = move |timeout| pop(timeout).map(|(request, _class)| request);
        let metrics = intake.metrics();
        let settle: Settle = Arc::new(move |request, result| resolve(request, result, &metrics));
        probed(config, gates, intake.metrics(), next, settle)
    }

    /// Admits a live request carrying `marker` at `class`.
    fn submit(intake: &Intake, marker: f32, class: Priority) -> PendingInference {
        let image = condor_tensor::constant(Shape::vector(1), marker);
        intake.submit(image, LIVE, class).unwrap()
    }

    /// Puts a live request carrying `marker` into a channel source.
    fn send(tx: &Sender<Request>, marker: f32) -> PendingInference {
        let (request, pending) = marked(marker, LIVE);
        tx.send(request).unwrap();
        pending
    }

    /// Waits for every reply and checks it echoes its own marker.
    fn assert_echoed(pending: Vec<PendingInference>, markers: impl IntoIterator<Item = f32>) {
        for (reply, marker) in pending.into_iter().zip(markers) {
            assert_eq!(reply.wait().unwrap().as_slice(), [marker]);
        }
    }

    #[test]
    fn max_batch_caps_a_batch_and_an_idle_source_flushes_a_partial_one() {
        // Five requests wait under max_batch 2: the cap closes the first
        // two batches, and the fifth leaves alone because the source
        // holds nothing more. So does a sixth that comes later.
        let config = ServeConfig::default().with_max_batch(2);
        let (tx, pending, replica, batches) =
            over_channel(&config, &[gate(true)], &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_echoed(pending, [0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_echoed(vec![send(&tx, 5.0)], [5.0]);
        drop((tx, replica));
        let sizes: Vec<usize> = batches.iter().map(|(_, m)| m.len()).collect();
        assert_eq!(sizes, [2, 2, 1, 1]);
    }

    #[test]
    fn a_free_lane_answers_a_lone_request_at_once() {
        // The source stays open and idle behind the request: a lane that
        // waited for company would hold it back.
        let (tx, mut pending, replica, batches) =
            over_channel(&ServeConfig::default(), &[gate(true)], &[7.0]);
        pending
            .remove(0)
            .wait_timeout(Duration::from_secs(5))
            .unwrap();
        assert_eq!(batches.recv().unwrap(), (0, vec![7.0]));
        drop((tx, replica));
    }

    #[test]
    fn requests_arriving_while_the_only_lane_is_busy_leave_as_one_batch() {
        with_watchdog(|| {
            let held = gate(false);
            let (tx, mut pending, replica, batches) =
                over_channel(&ServeConfig::default(), &[Arc::clone(&held)], &[0.0]);
            // The first request leaves alone and holds the lane; the four
            // that arrive meanwhile leave together once it is free.
            assert_eq!(batches.recv().unwrap(), (0, vec![0.0]));
            pending.extend((1..5).map(|m| send(&tx, m as f32)));
            GatedBackend::open(&held);
            assert_eq!(batches.recv().unwrap(), (0, vec![1.0, 2.0, 3.0, 4.0]));
            assert_echoed(pending, [0.0, 1.0, 2.0, 3.0, 4.0]);
            drop((tx, replica));
        });
    }

    #[test]
    fn a_backlog_at_an_idle_lane_leaves_as_a_full_batch() {
        let config = ServeConfig::default().with_max_batch(4);
        let (tx, pending, replica, batches) =
            over_channel(&config, &[gate(true)], &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_echoed(pending, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        drop((tx, replica));
        let sizes: Vec<usize> = batches.iter().map(|(_, m)| m.len()).collect();
        assert_eq!(sizes, [4, 2]);
    }

    #[test]
    fn an_only_lane_in_quarantine_still_serves() {
        // The first batch fails for good and quarantines the only lane
        // for longer than the test runs. With no healthy peer the lane
        // still takes the next request: liveness beats health.
        let config = ServeConfig::default()
            .with_failure_threshold(1)
            .with_quarantine(Duration::from_secs(60))
            .with_fault_plan(
                FaultPlan::new(5)
                    .rule(FaultRule::at("serve.backend0").nth_call(0).fail_permanent()),
            );
        with_watchdog(move || {
            let (tx, mut pending, replica, batches) = over_channel(&config, &[gate(true)], &[0.0]);
            assert!(matches!(
                pending.remove(0).wait(),
                Err(ServeError::Backend(_))
            ));
            assert_echoed(vec![send(&tx, 1.0)], [1.0]);
            drop((tx, replica));
            // The failed batch never reached the backend.
            assert_eq!(batches.iter().collect::<Vec<_>>(), [(0, vec![1.0])]);
        });
    }

    #[test]
    fn a_quarantined_lane_with_nothing_in_flight_is_not_idle() {
        // A quarantined lane with a healthy peer takes no batch until its
        // quarantine ends, though it holds nothing and the peer is busy.
        let quarantine = Duration::from_millis(100);
        let config = ServeConfig::default()
            .with_failure_threshold(1)
            .with_quarantine(quarantine);
        with_watchdog(move || {
            let gates = [gate(false), gate(false)];
            let metrics = Arc::new(MetricsRegistry::new());
            let (tx, rx) = channel();
            let next = move |timeout| rx.recv_timeout(timeout);
            let (replica, batches) = probed(&config, &gates, Arc::clone(&metrics), next, answer());
            // Whichever lane takes the doomed batch is held on it, so the
            // next request goes to its peer, which is then held too.
            let doomed = send(&tx, -1.0);
            let (sick, _) = batches.recv().unwrap();
            let healthy = 1 - sick;
            let mut pending = vec![send(&tx, 1.0)];
            assert_eq!(batches.recv().unwrap(), (healthy, vec![1.0]));
            // The sick lane fails and is quarantined; the request behind
            // it waits out the quarantine rather than go to the free but
            // quarantined lane, and is its re-probe.
            pending.push(send(&tx, 2.0));
            let start = Instant::now();
            GatedBackend::open(&gates[sick]);
            assert!(matches!(doomed.wait(), Err(ServeError::Backend(_))));
            assert_eq!(batches.recv().unwrap(), (sick, vec![2.0]));
            assert!(start.elapsed() >= quarantine);
            GatedBackend::open(&gates[healthy]);
            assert_echoed(pending, [1.0, 2.0]);
            drop((tx, replica));
            let snap = metrics.snapshot();
            assert_eq!(snap.counter("lane_marked_unhealthy"), 1);
            assert_eq!(snap.counter("lane_recovered"), 1);
        });
    }

    #[test]
    fn an_interactive_request_behind_a_backlog_rides_the_next_batch() {
        // The only lane is held on the first four of eight queued Batch
        // requests when an Interactive one arrives. A lane pops only
        // when it is free, so nothing was bound to it meanwhile: the
        // next batch it runs opens with the Interactive request.
        with_watchdog(|| {
            let config = ServeConfig::default().with_max_batch(4);
            let mut intake = Intake::open(&QueueBackend::InMemory, 64, &config).unwrap();
            let mut pending: Vec<_> = (0..8)
                .map(|m| submit(&intake, m as f32, Priority::Batch))
                .collect();
            let held = gate(false);
            let (replica, batches) = over_intake(&config, &[Arc::clone(&held)], &intake);
            assert_eq!(batches.recv().unwrap(), (0, vec![0.0, 1.0, 2.0, 3.0]));
            pending.push(submit(&intake, 8.0, Priority::Interactive));
            GatedBackend::open(&held);
            assert_eq!(batches.recv().unwrap(), (0, vec![8.0, 4.0, 5.0, 6.0]));
            assert_eq!(batches.recv().unwrap(), (0, vec![7.0]));
            assert_echoed(pending, (0..9).map(|m| m as f32));
            intake.close();
            drop(replica);
            let snap = intake.snapshot();
            assert_eq!(snap.counter("requests_accepted"), 9);
            assert_eq!(snap.counter("requests_completed"), 9);
        });
    }

    #[test]
    fn a_request_expiring_behind_a_held_lane_times_out_at_its_deadline() {
        // The only lane is held on a batch when a Batch-class request
        // with a short deadline queues behind it. Its caller hears
        // Timeout at the deadline, while the lane is still held; the
        // lane, once free, answers it without running it, and the
        // ledger counts it then.
        with_watchdog(|| {
            let config = ServeConfig::default();
            let mut intake = Intake::open(&QueueBackend::InMemory, 64, &config).unwrap();
            let held = gate(false);
            let (replica, batches) = over_intake(&config, &[Arc::clone(&held)], &intake);
            let occupier = submit(&intake, 0.0, Priority::Standard);
            assert_eq!(batches.recv().unwrap(), (0, vec![0.0]));
            let image = condor_tensor::constant(Shape::vector(1), 1.0);
            let doomed = intake
                .submit(image, Duration::from_millis(20), Priority::Batch)
                .unwrap();
            assert_eq!(doomed.wait(), Err(ServeError::Timeout));
            GatedBackend::open(&held);
            assert_echoed(vec![occupier], [0.0]);
            intake.close();
            drop(replica);
            assert!(batches.recv().is_err(), "an expired request never executes");
            let snap = intake.snapshot();
            assert_eq!(snap.counter("requests_accepted"), 2);
            assert_eq!(snap.counter("requests_completed"), 1);
            assert_eq!(snap.counter("requests_timed_out"), 1);
        });
    }

    #[test]
    fn two_lanes_share_one_source_and_serve_a_backlog_exactly_once() {
        with_watchdog(|| {
            let config = ServeConfig::default().with_max_batch(4);
            let mut intake = Intake::open(&QueueBackend::InMemory, 64, &config).unwrap();
            let pending: Vec<_> = (0..12)
                .map(|m| submit(&intake, m as f32, Priority::Standard))
                .collect();
            let (replica, batches) = over_intake(&config, &[gate(true), gate(true)], &intake);
            assert_echoed(pending, (0..12).map(|m| m as f32));
            intake.close();
            drop(replica);
            // Each lane popped under the source's lock, so the backlog
            // left in full batches and no request ran twice.
            let mut served = Vec::new();
            for (_, markers) in batches.iter() {
                assert_eq!(markers.len(), 4);
                served.extend(markers);
            }
            served.sort_by(f32::total_cmp);
            assert_eq!(served, (0..12).map(|m| m as f32).collect::<Vec<_>>());
            let snap = intake.snapshot();
            assert_eq!(snap.counter("requests_accepted"), 12);
            assert_eq!(snap.counter("requests_completed"), 12);
            assert_eq!(snap.counter("requests_failed"), 0);
            assert_eq!(snap.counter("requests_timed_out"), 0);
        });
    }

    #[test]
    fn closed_source_drains_then_drop_joins_every_lane() {
        let (tx, pending, replica, batches) = over_channel(
            &ServeConfig::default(),
            &[gate(true), gate(true)],
            &[0.0, 1.0, 2.0],
        );
        drop(tx);
        drop(replica);
        // Everything the source held before closing was served — in one
        // batch, since it was all there when a lane first popped — and
        // every lane thread is gone: each owned a report sender.
        let (_, markers) = batches.recv().unwrap();
        assert_eq!(markers, [0.0, 1.0, 2.0]);
        assert!(batches.recv().is_err());
        for reply in pending {
            reply.wait_timeout(Duration::ZERO).unwrap();
        }
    }

    #[test]
    fn request_expired_in_the_source_times_out_before_the_backend() {
        let (tx, rx) = channel();
        let (request, pending) = marked(0.0, Duration::ZERO);
        tx.send(request).unwrap();
        drop(tx);
        let next = move |timeout| rx.recv_timeout(timeout);
        let metrics = Arc::new(MetricsRegistry::new());
        let (replica, batches) = probed(
            &ServeConfig::default(),
            &[gate(true)],
            metrics,
            next,
            answer(),
        );
        drop(replica);
        assert_eq!(pending.wait(), Err(ServeError::Timeout));
        assert!(batches.recv().is_err(), "an expired request never executes");
    }

    #[test]
    fn a_replica_without_an_inbox_refuses_hops() {
        // A server's replica pops its intake: a request offered to it
        // is settled at once, as if the replica were draining.
        let (tx, _, replica, _) = over_channel(&ServeConfig::default(), &[gate(true)], &[]);
        let (request, pending) = marked(0.0, Duration::from_secs(1));
        replica.offer(request);
        assert_eq!(
            pending.wait_timeout(Duration::ZERO).unwrap_err(),
            ServeError::ShuttingDown
        );
        drop((tx, replica));
    }
}

//! Priority-classed admission queue: strict-priority dispatch with
//! aging, plus CoDel-style adaptive shedding keyed on sojourn time.
//!
//! The queue replaces the flat bounded channel between `submit` and
//! the lanes (and between the fleet front door and its dispatcher).
//! Three [`Priority`] classes each get a FIFO lane; dispatch is
//! strict-priority — `Interactive` before `Standard` before `Batch` —
//! with an aging escape hatch: every time a non-empty class is
//! bypassed its aging counter ticks, and once the counter reaches
//! `aging_limit` that class takes the next slot. The bypass run of any
//! waiting class is therefore bounded by `aging_limit + 2`, which is
//! what the starvation-freedom property test pins down.
//!
//! Shedding follows the CoDel control law (Nichols & Jacobson, 2012)
//! in simplified form: the *sojourn time* of the head-of-line request
//! is sampled at every dequeue. When it stays above `target` for a
//! full `interval` the queue enters a dropping state and sheds one
//! request, then again after `interval/√count`, tightening as the
//! overload persists. Unlike classic CoDel the victim is not the
//! sampled head but the oldest request of the *lowest-priority*
//! non-empty class — Batch absorbs the sheds so Interactive latency
//! recovers first. Each shed carries a `retry_after` hint (the current
//! drop spacing), which the server surfaces in
//! `ServeError::Overloaded(ShedReason::CoDelShed { .. })`.
//!
//! The fault site `shed.codel` forces a shed decision on the next
//! dequeue regardless of sojourn, which is how the chaos suite drives
//! the shed path deterministically.

use condor_faults::retry::Clock;
use condor_faults::FaultHandle;
use condor_queue::Priority;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Knobs for the CoDel shedding law. Disabled unless installed via
/// `ServeConfig::with_codel` / carried into the fleet front door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodelConfig {
    /// Acceptable standing sojourn time; below this the queue is
    /// considered healthy and the dropping state is left.
    pub target: Duration,
    /// How long sojourn must stay above `target` before the first
    /// shed; also the base of the `interval/√count` drop spacing.
    pub interval: Duration,
}

impl Default for CodelConfig {
    fn default() -> Self {
        CodelConfig {
            target: Duration::from_millis(20),
            interval: Duration::from_millis(100),
        }
    }
}

impl CodelConfig {
    /// Default law (20 ms target, 100 ms interval).
    pub fn new() -> Self {
        CodelConfig::default()
    }

    /// Sets the acceptable standing sojourn time.
    pub fn with_target(mut self, target: Duration) -> Self {
        self.target = target;
        self
    }

    /// Sets the observation interval / base drop spacing.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Clamps the law into a sane region: a non-zero target and an
    /// interval no shorter than the target.
    pub(crate) fn normalized(mut self) -> Self {
        if self.target < Duration::from_micros(100) {
            self.target = Duration::from_micros(100);
        }
        if self.interval < self.target {
            self.interval = self.target;
        }
        self
    }
}

/// Pure CoDel state machine: feed it `(now, head_sojourn)` at every
/// dequeue and it answers "shed one now?". Deterministic, no clock of
/// its own — which is what makes the unit tests exact.
#[derive(Debug)]
pub(crate) struct CodelState {
    config: CodelConfig,
    /// When the sojourn first exceeded target plus one interval —
    /// the earliest instant a shed may fire.
    first_above: Option<Duration>,
    /// Next scheduled shed while in the dropping state.
    drop_next: Duration,
    dropping: bool,
    /// Sheds in the current dropping episode; controls the
    /// `interval/√count` spacing.
    count: u32,
}

impl CodelState {
    pub(crate) fn new(config: CodelConfig) -> Self {
        CodelState {
            config: config.normalized(),
            first_above: None,
            drop_next: Duration::ZERO,
            dropping: false,
            count: 0,
        }
    }

    /// Samples one head-of-line sojourn; returns true when one
    /// request should be shed right now.
    pub(crate) fn on_dequeue(&mut self, now: Duration, sojourn: Duration) -> bool {
        if sojourn < self.config.target {
            // Healthy again: leave the dropping state entirely.
            self.first_above = None;
            self.dropping = false;
            self.count = 0;
            return false;
        }
        let first = *self
            .first_above
            .get_or_insert(now.saturating_add(self.config.interval));
        if !self.dropping {
            if now >= first {
                self.dropping = true;
                self.count = self.count.max(1);
                self.drop_next = now.saturating_add(self.spacing());
                return true;
            }
            return false;
        }
        if now >= self.drop_next {
            self.count = self.count.saturating_add(1);
            self.drop_next = now.saturating_add(self.spacing());
            return true;
        }
        false
    }

    /// The control law's current drop spacing, `interval/√count` —
    /// also the `retry_after` hint attached to shed replies: a client
    /// retrying sooner than this lands inside the same overload
    /// episode.
    pub(crate) fn spacing(&self) -> Duration {
        let c = f64::from(self.count.max(1));
        Duration::from_secs_f64(self.config.interval.as_secs_f64() / c.sqrt())
    }
}

/// One request shed by the queue, handed back to the caller of
/// [`AdmissionQueue::pop`] for resolution.
pub(crate) struct Shed<T> {
    pub item: T,
    pub class: Priority,
    /// Hint for the client: the current CoDel drop spacing.
    pub retry_after: Duration,
}

/// Why a push was refused.
pub(crate) enum PushError<T> {
    /// Queue at capacity; the item is handed back.
    Full(T),
    /// Queue closed for shutdown; the item is handed back.
    Closed(T),
}

/// Outcome of a [`AdmissionQueue::pop`].
pub(crate) enum PopOutcome<T> {
    Popped {
        item: T,
        /// Class the item was queued under: items do not carry their
        /// own, so a consumer that needs it (the fleet's dispatcher)
        /// reads it here.
        class: Priority,
        /// Time the item spent queued (per the queue's clock).
        sojourn: Duration,
    },
    /// Timeout expired, or sheds were produced and need resolving
    /// before blocking again.
    TimedOut,
    /// Queue closed and fully drained.
    Closed,
}

struct Entry<T> {
    item: T,
    enqueued: Duration,
}

struct Inner<T> {
    queues: [VecDeque<Entry<T>>; Priority::COUNT],
    /// Bypass counters: `aging[c]` pops went to other classes while
    /// class `c` had a waiting item.
    aging: [u32; Priority::COUNT],
    len: usize,
    closed: bool,
    /// Set by [`AdmissionQueue::interrupt`]; the next pop that would
    /// block returns instead.
    interrupted: bool,
    codel: Option<CodelState>,
}

/// The classed admission queue. Multi-producer, multi-consumer;
/// consumers call [`pop`](AdmissionQueue::pop) in a loop and resolve
/// any [`Shed`]s it reports.
pub(crate) struct AdmissionQueue<T> {
    capacity: usize,
    aging_limit: u32,
    clock: Arc<dyn Clock + Send + Sync>,
    faults: FaultHandle,
    inner: Mutex<Inner<T>>,
    /// Signalled when an item arrives or the queue closes.
    ready: Condvar,
    /// Signalled when capacity frees up or the queue closes.
    space: Condvar,
}

impl<T> AdmissionQueue<T> {
    pub(crate) fn new(
        capacity: usize,
        aging_limit: u32,
        codel: Option<CodelConfig>,
        clock: Arc<dyn Clock + Send + Sync>,
        faults: FaultHandle,
    ) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            aging_limit: aging_limit.max(1),
            clock,
            faults,
            inner: Mutex::new(Inner {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                aging: [0; Priority::COUNT],
                len: 0,
                closed: false,
                interrupted: false,
                codel: codel.map(CodelState::new),
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current depth across all classes.
    pub(crate) fn len(&self) -> usize {
        self.lock().len
    }

    /// Non-blocking enqueue; refuses when full or closed.
    pub(crate) fn try_push(&self, item: T, class: Priority) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.len >= self.capacity {
            return Err(PushError::Full(item));
        }
        let enqueued = self.clock.now();
        inner.queues[class.index()].push_back(Entry { item, enqueued });
        inner.len += 1;
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking enqueue for redelivery: waits for capacity, fails
    /// only when the queue closes (the item is handed back).
    pub(crate) fn push(&self, item: T, class: Priority) -> Result<(), T> {
        let mut inner = self.lock();
        loop {
            if inner.closed {
                return Err(item);
            }
            if inner.len < self.capacity {
                let enqueued = self.clock.now();
                inner.queues[class.index()].push_back(Entry { item, enqueued });
                inner.len += 1;
                drop(inner);
                self.ready.notify_one();
                return Ok(());
            }
            inner = self.space.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: pushes fail from now on; pops drain what is
    /// left and then report [`PopOutcome::Closed`].
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Makes the pop blocked now — or, if none is, the next pop that
    /// would block — return [`PopOutcome::TimedOut`] at once.
    pub(crate) fn interrupt(&self) {
        self.lock().interrupted = true;
        self.ready.notify_all();
    }

    /// Picks the class for the next pop: the *most-aged* class over
    /// the limit jumps the line (ties to higher priority), otherwise
    /// strict priority. Most-aged — not highest-priority-aged — is
    /// load-bearing: were the highest-priority aged class preferred,
    /// two classes could ping-pong their counters (each pop re-ages
    /// the other) while a third grew without bound, which is exactly
    /// the starvation the counter exists to prevent.
    fn select_class(inner: &Inner<T>, aging_limit: u32) -> usize {
        let mut aged: Option<(usize, u32)> = None;
        for i in 0..Priority::COUNT {
            if !inner.queues[i].is_empty()
                && inner.aging[i] >= aging_limit
                && aged.is_none_or(|(_, a)| inner.aging[i] > a)
            {
                aged = Some((i, inner.aging[i]));
            }
        }
        if let Some((i, _)) = aged {
            return i;
        }
        for i in 0..Priority::COUNT {
            if !inner.queues[i].is_empty() {
                return i;
            }
        }
        0
    }

    /// Dequeues one item, waiting up to `timeout`. CoDel sheds taken
    /// along the way are appended to `sheds`; when sheds drained the
    /// queue (or were produced with nothing left to return) the call
    /// returns [`PopOutcome::TimedOut`] early so the caller resolves
    /// them promptly, as it does when [`interrupt`](Self::interrupt)ed.
    pub(crate) fn pop(&self, timeout: Duration, sheds: &mut Vec<Shed<T>>) -> PopOutcome<T> {
        let wait_deadline = std::time::Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            if inner.len > 0 {
                let now = self.clock.now();
                let class = Self::select_class(&inner, self.aging_limit);
                let sojourn = inner.queues[class]
                    .front()
                    .map(|e| now.saturating_sub(e.enqueued))
                    .unwrap_or(Duration::ZERO);
                let forced = self.faults.check("shed.codel").is_some();
                let (drop_now, retry_after) = match inner.codel.as_mut() {
                    Some(codel) => {
                        let drop = codel.on_dequeue(now, sojourn);
                        (drop || forced, codel.spacing())
                    }
                    None => (forced, CodelConfig::default().interval),
                };
                if drop_now {
                    // Shed the oldest request of the lowest class.
                    if let Some(victim) = (0..Priority::COUNT)
                        .rev()
                        .find(|&i| !inner.queues[i].is_empty())
                    {
                        if let Some(entry) = inner.queues[victim].pop_front() {
                            inner.len -= 1;
                            sheds.push(Shed {
                                item: entry.item,
                                class: Priority::ALL[victim],
                                retry_after,
                            });
                            self.space.notify_one();
                            continue;
                        }
                    }
                }
                if let Some(entry) = inner.queues[class].pop_front() {
                    inner.len -= 1;
                    inner.aging[class] = 0;
                    for i in 0..Priority::COUNT {
                        if i != class && !inner.queues[i].is_empty() {
                            inner.aging[i] = inner.aging[i].saturating_add(1);
                        }
                    }
                    self.space.notify_one();
                    return PopOutcome::Popped {
                        item: entry.item,
                        class: Priority::ALL[class],
                        sojourn,
                    };
                }
            }
            if inner.closed {
                return PopOutcome::Closed;
            }
            if !sheds.is_empty() || std::mem::take(&mut inner.interrupted) {
                // Don't sit on shed requests (or an interrupt) while
                // blocking for more work: let the caller act first.
                return PopOutcome::TimedOut;
            }
            let now = std::time::Instant::now();
            if now >= wait_deadline {
                return PopOutcome::TimedOut;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(inner, wait_deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

    use super::*;
    use condor_faults::retry::MockClock;
    use condor_faults::{FaultPlan, FaultRule};
    use proptest::prelude::*;

    fn mock_queue(
        capacity: usize,
        aging_limit: u32,
        codel: Option<CodelConfig>,
    ) -> (AdmissionQueue<u32>, Arc<MockClock>) {
        let clock = Arc::new(MockClock::new());
        let queue = AdmissionQueue::new(
            capacity,
            aging_limit,
            codel,
            clock.clone(),
            FaultHandle::disabled(),
        );
        (queue, clock)
    }

    fn pop_now(queue: &AdmissionQueue<u32>, sheds: &mut Vec<Shed<u32>>) -> PopOutcome<u32> {
        queue.pop(Duration::ZERO, sheds)
    }

    #[test]
    fn strict_priority_orders_pops() {
        let (queue, _) = mock_queue(8, 100, None);
        queue.try_push(30, Priority::Batch).map_err(|_| ()).unwrap();
        queue
            .try_push(20, Priority::Standard)
            .map_err(|_| ())
            .unwrap();
        queue
            .try_push(10, Priority::Interactive)
            .map_err(|_| ())
            .unwrap();
        let mut sheds = Vec::new();
        let order: Vec<u32> = (0..3)
            .map(|_| match pop_now(&queue, &mut sheds) {
                PopOutcome::Popped { item, .. } => item,
                _ => panic!("expected an item"),
            })
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert!(sheds.is_empty());
    }

    #[test]
    fn aging_promotes_a_starved_class() {
        let aging_limit = 3;
        let (queue, _) = mock_queue(64, aging_limit, None);
        queue.try_push(99, Priority::Batch).map_err(|_| ()).unwrap();
        let mut sheds = Vec::new();
        let mut bypasses = 0;
        // Keep the interactive lane saturated: batch must still get a
        // slot within the aging bound.
        for i in 0..16 {
            queue
                .try_push(i, Priority::Interactive)
                .map_err(|_| ())
                .unwrap();
            match pop_now(&queue, &mut sheds) {
                PopOutcome::Popped { item: 99, .. } => {
                    assert!(
                        bypasses <= aging_limit + 2,
                        "batch waited {bypasses} pops (limit {aging_limit})"
                    );
                    return;
                }
                PopOutcome::Popped { .. } => bypasses += 1,
                _ => panic!("expected an item"),
            }
        }
        panic!("batch request starved");
    }

    #[test]
    fn codel_sheds_lowest_class_first_with_retry_hint() {
        let codel = CodelConfig::new()
            .with_target(Duration::from_millis(10))
            .with_interval(Duration::from_millis(20));
        let (queue, clock) = mock_queue(8, 100, Some(codel));
        queue
            .try_push(1, Priority::Interactive)
            .map_err(|_| ())
            .unwrap();
        queue.try_push(2, Priority::Batch).map_err(|_| ()).unwrap();
        queue.try_push(3, Priority::Batch).map_err(|_| ()).unwrap();
        // Sojourn far above target: first dequeue only arms the law.
        clock.advance(Duration::from_millis(50));
        let mut sheds = Vec::new();
        match pop_now(&queue, &mut sheds) {
            PopOutcome::Popped {
                item: 1, sojourn, ..
            } => {
                assert!(sojourn >= Duration::from_millis(50));
            }
            _ => panic!("interactive request should pop first"),
        }
        assert!(sheds.is_empty(), "the law needs a full interval first");
        // A full interval later the queue is still above target: the
        // dropping state engages and Batch absorbs the shed.
        clock.advance(Duration::from_millis(25));
        match pop_now(&queue, &mut sheds) {
            PopOutcome::Popped { item: 3, .. } => {}
            _ => panic!("remaining batch request should pop"),
        }
        assert_eq!(sheds.len(), 1);
        assert_eq!(sheds[0].item, 2);
        assert_eq!(sheds[0].class, Priority::Batch);
        assert!(sheds[0].retry_after > Duration::ZERO);
    }

    #[test]
    fn codel_state_disarms_when_sojourn_recovers() {
        let mut law = CodelState::new(
            CodelConfig::new()
                .with_target(Duration::from_millis(10))
                .with_interval(Duration::from_millis(20)),
        );
        let ms = Duration::from_millis;
        assert!(!law.on_dequeue(ms(0), ms(50)));
        assert!(law.on_dequeue(ms(25), ms(50)), "armed after an interval");
        assert!(!law.on_dequeue(ms(26), ms(50)), "spaced by interval/sqrt");
        assert!(law.on_dequeue(ms(50), ms(50)), "drops again on schedule");
        assert!(!law.on_dequeue(ms(51), ms(1)), "below target: disarms");
        assert!(!law.on_dequeue(ms(80), ms(50)), "must re-arm from scratch");
    }

    #[test]
    fn fault_site_forces_sheds() {
        let clock = Arc::new(MockClock::new());
        let faults = FaultPlan::new(7)
            .rule(FaultRule::at("shed.codel").always().fail_transient())
            .install();
        let queue: AdmissionQueue<u32> = AdmissionQueue::new(8, 100, None, clock, faults);
        queue
            .try_push(1, Priority::Interactive)
            .map_err(|_| ())
            .unwrap();
        queue
            .try_push(2, Priority::Standard)
            .map_err(|_| ())
            .unwrap();
        let mut sheds = Vec::new();
        match queue.pop(Duration::ZERO, &mut sheds) {
            PopOutcome::TimedOut => {}
            _ => panic!("everything should shed"),
        }
        assert_eq!(sheds.len(), 2);
        assert_eq!(sheds[0].class, Priority::Standard, "lowest class first");
        assert_eq!(sheds[1].class, Priority::Interactive);
    }

    #[test]
    fn try_push_refuses_when_full_or_closed() {
        let (queue, _) = mock_queue(1, 4, None);
        queue
            .try_push(1, Priority::Standard)
            .map_err(|_| ())
            .unwrap();
        match queue.try_push(2, Priority::Standard) {
            Err(PushError::Full(2)) => {}
            _ => panic!("expected Full"),
        }
        queue.close();
        match queue.try_push(3, Priority::Standard) {
            Err(PushError::Closed(3)) => {}
            _ => panic!("expected Closed"),
        }
        // Drains the remaining item, then reports Closed.
        let mut sheds = Vec::new();
        match pop_now(&queue, &mut sheds) {
            PopOutcome::Popped { item: 1, .. } => {}
            _ => panic!("expected drain"),
        }
        match pop_now(&queue, &mut sheds) {
            PopOutcome::Closed => {}
            _ => panic!("expected Closed"),
        }
    }

    proptest! {
        /// Starvation freedom: however pushes are classed and
        /// interleaved with pops, no waiting class is bypassed more
        /// than `aging_limit + 2` consecutive times.
        #[test]
        fn no_class_is_ever_starved(
            classes in prop::collection::vec(0usize..3, 1..60),
            aging_limit in 1u32..6,
        ) {
            let (queue, _) = mock_queue(128, aging_limit, None);
            for (i, c) in classes.iter().enumerate() {
                prop_assert!(queue
                    .try_push(i as u32, Priority::ALL[*c])
                    .map_err(|_| ())
                    .is_ok());
            }
            let mut waiting = [0usize; Priority::COUNT];
            for c in &classes {
                waiting[*c] += 1;
            }
            let mut bypass = [0u32; Priority::COUNT];
            let mut sheds = Vec::new();
            for _ in 0..classes.len() {
                let popped = match queue.pop(Duration::ZERO, &mut sheds) {
                    PopOutcome::Popped { class, .. } => Some(class),
                    _ => None,
                };
                prop_assert!(popped.is_some(), "queue drained early");
                let class = popped.expect("checked above");
                waiting[class.index()] -= 1;
                bypass[class.index()] = 0;
                for i in 0..Priority::COUNT {
                    if i != class.index() && waiting[i] > 0 {
                        bypass[i] += 1;
                        prop_assert!(
                            bypass[i] <= aging_limit + 2,
                            "class {i} bypassed {} times (aging limit {aging_limit})",
                            bypass[i]
                        );
                    }
                }
            }
            prop_assert!(sheds.is_empty());
        }
    }
}

//! Overload scenario: offered load above capacity with mixed priority
//! classes, the acceptance bar for the degradation ladder.
//!
//! One deliberately slow lane (a 4 ms injected delay per dispatch)
//! receives a burst far larger than it can absorb inside the CoDel
//! target. The server must degrade *in order*:
//!
//! 1. **Interactive stays fast** — strict-priority dispatch keeps every
//!    Interactive request under its deadline (p99 asserted), and the
//!    CoDel law never picks an Interactive victim.
//! 2. **Batch absorbs the sheds** — victims are the oldest request of
//!    the lowest non-empty class, so ≥ 90 % of sheds land on Batch and
//!    every shed carries the typed [`ShedReason::CoDelShed`] with its
//!    `retry_after` hint.
//! 3. **Overload never changes an answer** — every completed reply is
//!    bit-identical to a standalone `FastEngine` run on the same image:
//!    the ladder sheds work, it never serves a cheaper approximation.
//! 4. **The ledger balances** — accepted = completed + failed +
//!    timed out + shed. Nothing vanishes under overload.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor_faults::{FaultPlan, FaultRule};
use condor_nn::{dataset, zoo, FastEngine};
use condor_serve::{
    CodelConfig, CpuBackend, InferenceServer, Priority, ServeConfig, ServeError, ShedReason,
};
use condor_tensor::Tensor;
use std::time::{Duration, Instant};

const SEED: u64 = 0x0DE1;
const REQUESTS: usize = 240;
const SERVICE_DELAY: Duration = Duration::from_millis(4);
const INTERACTIVE_DEADLINE: Duration = Duration::from_secs(10);
const WATCHDOG: Duration = Duration::from_secs(60);

fn with_watchdog(f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(()) => worker.join().expect("scenario thread panicked"),
        Err(_) => panic!("overload scenario exceeded the {WATCHDOG:?} watchdog (deadlock?)"),
    }
}

/// The class mix: 10 % Interactive, 10 % Standard, 80 % Batch. Batch
/// deep enough that the shedding episode cannot exhaust its lane —
/// the CoDel victim rule then keeps every shed on Batch regardless of
/// how slow the machine runs the 4 ms service loop.
fn class_of(i: usize) -> Priority {
    match i % 10 {
        0 => Priority::Interactive,
        1 => Priority::Standard,
        _ => Priority::Batch,
    }
}

#[test]
fn overload_sheds_batch_first_and_keeps_interactive_under_deadline() {
    with_watchdog(|| {
        // Capacity: one lane, one request per dispatch, 4 ms each
        // (~250 req/s). Offered: 240 requests in one burst — roughly a
        // second of backlog against a 2 ms sojourn target. The 50 ms
        // interval paces the law at ~100·√n ms for the n-th shed, so
        // the 192-deep Batch lane outlives the episode even if the
        // machine runs the service loop 10× slower than the injected
        // delay.
        let handle = FaultPlan::new(SEED)
            .rule(
                FaultRule::at("serve.backend0")
                    .always()
                    .delay(SERVICE_DELAY),
            )
            .install();

        let net = zoo::tc1_weighted(SEED);
        let server = InferenceServer::new(
            CpuBackend::replicas(&net, 1).unwrap(),
            ServeConfig::default()
                .with_max_batch(1)
                .with_queue_capacity(512)
                .with_default_timeout(Duration::from_secs(30))
                .with_codel(
                    CodelConfig::new()
                        .with_target(Duration::from_millis(2))
                        .with_interval(Duration::from_millis(50)),
                )
                .with_faults(handle),
        )
        .unwrap();

        // Submit the whole burst before waiting on anything, so the
        // queue genuinely backs up across all three classes.
        let images: Vec<Tensor> = dataset::usps_like(REQUESTS, SEED)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let mut accepted = 0u64;
        let mut interactive = Vec::new();
        let mut rest = Vec::new();
        for (i, img) in images.iter().cloned().enumerate() {
            let class = class_of(i);
            let timeout = match class {
                Priority::Interactive => INTERACTIVE_DEADLINE,
                _ => Duration::from_secs(30),
            };
            let submitted = Instant::now();
            match server.submit_with_class(img, timeout, class) {
                Ok(pending) if class == Priority::Interactive => {
                    accepted += 1;
                    interactive.push((i, submitted, pending));
                }
                Ok(pending) => {
                    accepted += 1;
                    rest.push((i, pending));
                }
                Err(ServeError::Overloaded(_)) => {} // typed, immediate, not accepted
                Err(other) => panic!("request {i} rejected with {other:?}"),
            }
        }

        // 1. Interactive: strict priority means these resolve first, so
        // draining them first keeps the recv-side latency honest. Every
        // one must complete — never shed, never timed out.
        let mut latencies: Vec<Duration> = Vec::new();
        let mut completed: Vec<(usize, Tensor)> = Vec::new();
        for (i, submitted, pending) in interactive {
            let reply = pending
                .wait_reply_timeout(INTERACTIVE_DEADLINE)
                .unwrap_or_else(|e| panic!("interactive request {i} did not complete: {e}"));
            assert_eq!(reply.output.shape().c, 10);
            latencies.push(submitted.elapsed());
            completed.push((i, reply.output));
        }
        latencies.sort_unstable();
        let p99 = latencies[latencies.len().saturating_sub(1) * 99 / 100];
        assert!(
            p99 < INTERACTIVE_DEADLINE,
            "interactive p99 {p99:?} breached the {INTERACTIVE_DEADLINE:?} deadline"
        );

        // 2. Standard/Batch: completions, or typed CoDel sheds with a
        // retry hint.
        for (i, pending) in rest {
            match pending.wait_reply_timeout(Duration::from_secs(30)) {
                Ok(reply) => {
                    assert_eq!(reply.output.shape().c, 10);
                    completed.push((i, reply.output));
                }
                Err(ServeError::Overloaded(ShedReason::CoDelShed { retry_after })) => {
                    assert!(
                        retry_after > Duration::ZERO,
                        "request {i}: shed without a retry hint"
                    );
                }
                Err(other) => panic!("request {i} lost with {other:?}"),
            }
        }

        let snap = server.shutdown();

        // 3. Every completed reply is the f32 engine's answer, bit for
        // bit: overload shed some requests but changed no answer.
        let mut engine = FastEngine::new(&net).unwrap();
        for (i, output) in &completed {
            let expected = engine.infer(&images[*i]).unwrap();
            assert_eq!(output.shape(), expected.shape(), "request {i}");
            assert!(
                output
                    .as_slice()
                    .iter()
                    .zip(expected.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "request {i}: served output differs from FastEngine"
            );
        }

        // 4. The extended ledger balances: accepted requests either
        // resolved (completed / failed / timed out) or were shed with a
        // typed reason — nothing vanished.
        let shed = snap.counter("requests_shed");
        assert_eq!(
            snap.counter("requests_accepted"),
            snap.counter("requests_completed")
                + snap.counter("requests_failed")
                + snap.counter("requests_timed_out")
                + shed,
            "overload ledger does not balance"
        );
        assert_eq!(snap.counter("requests_accepted"), accepted);

        // The overload actually tripped the CoDel law, and Batch
        // absorbed ≥ 90 % of the sheds (here: all of them — Interactive
        // drains first, and Batch outlives Standard in the queue).
        assert!(shed >= 1, "the overload never shed anything");
        let batch_sheds = snap.counter("requests_shed_batch");
        assert!(
            batch_sheds * 10 >= shed * 9,
            "batch absorbed only {batch_sheds}/{shed} sheds"
        );
        assert_eq!(
            snap.counter("requests_shed_interactive"),
            0,
            "an interactive request was shed"
        );

        // Sojourn-time histogram fed the CoDel law.
        assert!(snap.histogram("queue_sojourn_us").is_some());
    });
}

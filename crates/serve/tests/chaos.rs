//! Chaos suite: the server under randomized, seeded fault plans.
//!
//! Each scenario derives a fault plan deterministically from one seed,
//! runs a live server under it, and checks the three resilience
//! invariants from the design notes:
//!
//! 1. **No deadlock** — every scenario finishes under a watchdog.
//! 2. **No lost request** — every accepted request resolves with an
//!    output or a typed error; never `Disconnected`, never a silent
//!    hang.
//! 3. **Recovery** — once the fault window clears
//!    ([`FaultHandle::clear`]), new requests succeed.
//!
//! The default matrix is seeds `0..64`. `CONDOR_CHAOS_SEEDS` overrides
//! it (`"256"` for `0..256`, `"100-163"` for an inclusive range), which
//! is how the CI chaos job widens the sweep. On failure the fault log
//! is written to `target/tmp/chaos/{test}-seed-{seed}.json` for artifact upload.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor_faults::{FaultHandle, FaultPlan, FaultRule};
use condor_nn::{dataset, zoo};
use condor_queue::{DiskQueue, DiskQueueConfig, QueueBackend};
use condor_serve::{CpuBackend, InferenceServer, ServeConfig, ServeError};
use condor_tensor::Tensor;
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

const LANES: usize = 3;
const REQUESTS: usize = 16;
const WATCHDOG: Duration = Duration::from_secs(60);

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform-ish value in `[0, 1)` from a seed and stream index.
fn unit(seed: u64, stream: u64) -> f64 {
    (splitmix64(seed ^ splitmix64(stream)) >> 11) as f64 / (1u64 << 53) as f64
}

/// The seed matrix: `0..64` by default, overridden by
/// `CONDOR_CHAOS_SEEDS` as either a count (`"256"`) or an inclusive
/// range (`"100-163"`).
fn seed_matrix() -> Vec<u64> {
    match std::env::var("CONDOR_CHAOS_SEEDS") {
        Err(_) => (0..64).collect(),
        Ok(spec) => match spec.split_once('-') {
            Some((a, b)) => {
                let a: u64 = a.trim().parse().expect("CONDOR_CHAOS_SEEDS range start");
                let b: u64 = b.trim().parse().expect("CONDOR_CHAOS_SEEDS range end");
                (a..=b).collect()
            }
            None => {
                let n: u64 = spec.trim().parse().expect("CONDOR_CHAOS_SEEDS count");
                (0..n).collect()
            }
        },
    }
}

/// A randomized fault plan over the serving lanes: every lane gets a
/// probabilistic transient-failure rule, some lanes also stall, and an
/// occasional bounded permanent-failure window exercises the
/// no-retry-on-permanent path.
fn chaos_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for lane in 0..LANES as u64 {
        let p = 0.05 + 0.4 * unit(seed, 10 + lane);
        plan = plan.rule(
            FaultRule::at(format!("serve.backend{lane}"))
                .probability(p)
                .fail_transient(),
        );
        if unit(seed, 20 + lane) < 0.5 {
            let ms = 1 + (unit(seed, 30 + lane) * 3.0) as u64;
            plan = plan.rule(
                FaultRule::at(format!("serve.backend{lane}"))
                    .probability(0.3)
                    .delay(Duration::from_millis(ms)),
            );
        }
    }
    if unit(seed, 40) < 0.25 {
        let lane = (unit(seed, 41) * LANES as f64) as u64;
        plan = plan.rule(
            FaultRule::at(format!("serve.backend{lane}"))
                .probability(0.5)
                .fail_permanent()
                .max_fires(2),
        );
    }
    plan
}

/// Runs one full chaos scenario for a seed; panics (after dumping the
/// fault log) when an invariant breaks. With a `queue_dir` the server
/// admits through the disk-backed durable queue, and the scenario
/// additionally asserts the durability ledger after shutdown: a fresh
/// recovery of the directory finds nothing pending (every accepted
/// request was acked end to end) and zero double acks.
fn chaos_scenario(test: &str, seed: u64, queue_dir: Option<PathBuf>) {
    let handle = chaos_plan(seed).install();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        chaos_scenario_inner(seed, handle.clone(), queue_dir);
    }));
    if let Err(panic) = result {
        dump_fault_log(test, seed, &handle);
        std::panic::resume_unwind(panic);
    }
}

fn chaos_scenario_inner(seed: u64, handle: FaultHandle, queue_dir: Option<PathBuf>) {
    let net = zoo::tc1_weighted(splitmix64(seed));
    let backends = CpuBackend::replicas(&net, LANES).unwrap();
    let mut config = ServeConfig::default()
        .with_max_batch(4)
        .with_default_timeout(Duration::from_secs(20))
        .with_backend_attempts(3)
        .with_backend_backoff(Duration::from_micros(200))
        .with_failure_threshold(2)
        .with_quarantine(Duration::from_millis(5))
        .with_faults(handle.clone());
    if let Some(dir) = &queue_dir {
        let _ = std::fs::remove_dir_all(dir);
        config = config.with_queue(QueueBackend::Disk(DiskQueueConfig::new(dir)));
    }
    let server = InferenceServer::new(backends, config).unwrap();

    // Phase 1: submit under fire. Every accepted request must resolve
    // with an output or a *typed* error — Disconnected or a wait-side
    // timeout means the server lost it.
    let images: Vec<Tensor> = dataset::usps_like(REQUESTS, seed ^ 0x0D15_EA5E)
        .into_iter()
        .map(|s| s.image)
        .collect();
    let mut accepted = 0u64;
    let handles: Vec<_> = images
        .iter()
        .map(|img| server.submit(img.clone()))
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let Ok(pending) = h else {
            continue; // Overloaded rejections are typed and immediate.
        };
        accepted += 1;
        match pending.wait_timeout(Duration::from_secs(10)) {
            Ok(out) => assert_eq!(out.shape().c, 10, "seed {seed}: bad output for request {i}"),
            Err(ServeError::Backend(_)) | Err(ServeError::Timeout) => {}
            Err(other) => panic!("seed {seed}: request {i} lost with {other:?}"),
        }
    }

    // Phase 2: the fault window ends; the server must recover and
    // serve new requests cleanly (quarantined lanes re-probe).
    handle.clear();
    std::thread::sleep(Duration::from_millis(10));
    for (i, img) in dataset::usps_like(6, seed ^ 0xFEED).into_iter().enumerate() {
        let out = server
            .submit(img.image)
            .unwrap()
            .wait_timeout(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("seed {seed}: post-clear request {i} failed: {e}"));
        assert_eq!(out.shape().c, 10);
        accepted += 1;
    }

    // Drain and check the ledger: accepted = completed + failed +
    // timed out, i.e. nothing vanished.
    let snap = server.shutdown();
    let resolved = snap.counter("requests_completed")
        + snap.counter("requests_failed")
        + snap.counter("requests_timed_out");
    assert_eq!(
        snap.counter("requests_accepted"),
        resolved,
        "seed {seed}: accepted requests not all resolved"
    );
    assert_eq!(snap.counter("requests_accepted"), accepted);

    // Durable mode: the admission ledger on disk agrees with the
    // metrics ledger — every accepted request's record was acked.
    if let Some(dir) = &queue_dir {
        let (_, report) = DiskQueue::open(DiskQueueConfig::new(dir)).unwrap();
        assert!(
            report.pending.is_empty(),
            "seed {seed}: {} durable records unresolved after a clean shutdown",
            report.pending.len()
        );
        assert_eq!(report.double_acks, 0, "seed {seed}: double ack journaled");
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Dump names are unique per `(test, seed)` so two suites sweeping the
/// same seed window cannot clobber each other's artifacts, and
/// `create_dir_all` makes the directory race-free under `cargo test`'s
/// parallel runners (concurrent creation is not an error). The dumps
/// live under the *workspace* target dir (`CARGO_TARGET_TMPDIR`), not
/// the package-relative `target/` cargo runs tests in, so the CI
/// artifact glob finds them.
fn dump_fault_log(test: &str, seed: u64, handle: &FaultHandle) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{test}-seed-{seed}.json"));
        let _ = std::fs::write(&path, handle.log_json());
        eprintln!("chaos: fault log written to {}", path.display());
    }
}

/// Runs a scenario under a watchdog so a deadlocked server fails the
/// suite instead of hanging it.
fn with_watchdog(seed: u64, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(()) => worker.join().expect("scenario thread panicked"),
        Err(_) => {
            // The worker is stuck; there is no safe way to reap it.
            panic!("seed {seed}: chaos scenario exceeded the {WATCHDOG:?} watchdog (deadlock?)");
        }
    }
}

#[test]
fn chaos_seed_matrix_resolves_every_request() {
    for seed in seed_matrix() {
        with_watchdog(seed, move || chaos_scenario("seed-matrix", seed, None));
    }
}

#[test]
fn chaos_seed_matrix_with_disk_queue_stays_durable() {
    // The same seed matrix, admitted through the disk-backed durable
    // queue: the resilience invariants must hold unchanged, and the
    // on-disk ledger must drain to empty with zero double acks.
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-durable");
    for seed in seed_matrix() {
        let dir = root.join(format!("queue-seed-{seed}"));
        with_watchdog(seed, move || {
            chaos_scenario("seed-matrix-durable", seed, Some(dir));
        });
    }
}

#[test]
fn chaos_dataflow_faults_surface_and_recover() {
    // Faults inside the accelerator pipeline (dropped frames, dead PE
    // workers) must surface as transient Backend errors at the serving
    // layer and clear with the window.
    use condor::deploy::DeployTarget;
    use condor::{Condor, OnPremiseContext};

    let ctx = OnPremiseContext::new().with_fault_plan(
        FaultPlan::new(0xDF)
            .rule(
                FaultRule::at("dataflow.pe0")
                    .probability(0.4)
                    .fail_transient()
                    .max_fires(4),
            )
            .rule(
                FaultRule::at("dataflow.pe1")
                    .nth_call(3)
                    .abort()
                    .max_fires(1),
            ),
    );
    let deployed = Condor::from_network(zoo::lenet_weighted(5))
        .board("aws-f1")
        .build()
        .unwrap()
        .deploy(&DeployTarget::OnPremiseWith(&ctx))
        .unwrap();
    let handle = ctx.faults.clone();
    let server = InferenceServer::from_deployment(
        deployed,
        ServeConfig::default()
            .with_max_batch(2)
            .with_default_timeout(Duration::from_secs(20))
            .with_backend_attempts(3),
    )
    .unwrap();

    let images: Vec<Tensor> = dataset::mnist_like(12, 77)
        .into_iter()
        .map(|s| s.image)
        .collect();
    for (i, img) in images.iter().enumerate() {
        match server.infer(img.clone()) {
            Ok(out) => assert_eq!(out.shape().c, 10),
            Err(ServeError::Backend(e)) => {
                assert!(
                    e.transient,
                    "request {i}: dataflow fault must be transient, got {e}"
                );
            }
            Err(other) => panic!("request {i}: unexpected {other:?}"),
        }
    }
    // Window over (max_fires exhausted or cleared): all clean.
    handle.clear();
    for img in &images[..4] {
        server.infer(img.clone()).unwrap();
    }
    server.shutdown();
}

#[test]
fn chaos_empty_plan_is_invisible() {
    // An installed-but-empty plan must not change serving behaviour —
    // the guarantee that keeps benchmark numbers honest.
    let handle = FaultPlan::new(12345).install();
    let net = zoo::tc1_weighted(9);
    let server = InferenceServer::new(
        CpuBackend::replicas(&net, 2).unwrap(),
        ServeConfig::default()
            .with_default_timeout(Duration::from_secs(20))
            .with_faults(handle.clone()),
    )
    .unwrap();
    for img in dataset::usps_like(8, 3) {
        server.infer(img.image).unwrap();
    }
    let snap = server.shutdown();
    assert_eq!(snap.counter("requests_completed"), 8);
    assert_eq!(snap.counter("requests_failed"), 0);
    assert_eq!(snap.counter("backend_retries"), 0);
    assert_eq!(handle.fired(), 0);
}

proptest! {
    /// Any 32-bit seed yields a scenario that terminates with every
    /// request resolved (the same invariants as the fixed matrix, over
    /// proptest's own case generation).
    #[test]
    fn chaos_any_seed_resolves(seed in 0u64..(1 << 32)) {
        with_watchdog(seed, move || chaos_scenario("any-seed", seed, None));
    }
}

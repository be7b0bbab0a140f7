//! Fleet failover under chaos: a fault plan permanently kills one
//! instance mid-stream and the fleet must absorb it.
//!
//! The scenario the design notes call the acceptance bar: replicas = 3,
//! a rule at `fleet0g0.serve.` turns instance 0's first generation
//! permanently faulty after its 4th batch. The fleet must
//!
//! 1. complete every accepted request (failed-over requests migrate to
//!    a healthy peer — the ledger balances),
//! 2. record at least one `instance_failed_over`,
//! 3. re-provision the killed instance (generation 1 carries the
//!    prefix `fleet0g1.`, which the plan does not match) and route new
//!    traffic to it before the test ends,
//! 4. leave a parseable `condor-faultlog/2` journal whose replayed
//!    plan re-fires the identical `(site, call, action)` sequence —
//!    even when the journal is torn mid-record, the prefix survives.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor_faults::journal;
use condor_faults::{FaultPlan, FaultRule};
use condor_nn::{dataset, zoo};
use condor_serve::{BreakerConfig, CpuBackend, Fleet, FleetConfig, ServeConfig, ServeError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const SEED: u64 = 0xF1EE7;
const WATCHDOG: Duration = Duration::from_secs(60);

fn journal_path(test: &str) -> PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos");
    std::fs::create_dir_all(&dir).expect("chaos dump dir");
    dir.join(format!("{test}-seed-{SEED}.journal"))
}

fn with_watchdog(f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(()) => worker.join().expect("scenario thread panicked"),
        Err(_) => panic!("fleet chaos scenario exceeded the {WATCHDOG:?} watchdog (deadlock?)"),
    }
}

#[test]
fn fleet_survives_a_permanent_instance_kill_mid_stream() {
    with_watchdog(|| {
        let path = journal_path("fleet-failover");
        // Kill instance 0, generation 0, permanently, after its 4th
        // dispatched batch — mid-stream, not at startup.
        let handle = FaultPlan::new(SEED)
            .rule(
                FaultRule::at("fleet0g0.serve.")
                    .after_calls(4)
                    .fail_permanent(),
            )
            .install_with_journal(&path)
            .expect("journal file");

        let net = zoo::tc1_weighted(SEED);
        let fleet = Fleet::new(
            move |_replica: usize, _generation: u64| CpuBackend::replicas(&net, 1),
            FleetConfig::default()
                .with_replicas(REPLICAS)
                .with_min_healthy(1)
                .with_reprovision_backoff(Duration::from_millis(5))
                .with_breaker(BreakerConfig::default().with_consecutive_failures(1))
                .with_serve(
                    ServeConfig::default()
                        .with_max_batch(4)
                        .with_default_timeout(Duration::from_secs(20))
                        .with_backend_attempts(2)
                        .with_failure_threshold(1)
                        .with_quarantine(Duration::from_millis(5))
                        .with_faults(handle.clone()),
                ),
        )
        .unwrap();
        assert_eq!(fleet.healthy_instances(), REPLICAS);

        // Phase 1: a stream long enough to walk instance 0 into its
        // fault window while requests are still in flight. Every
        // accepted request must complete — failover, not failure.
        let images: Vec<_> = dataset::usps_like(24, SEED)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let mut accepted = 0u64;
        for (i, img) in images.into_iter().enumerate() {
            match fleet.submit(img) {
                Ok(pending) => {
                    accepted += 1;
                    let out = pending
                        .wait_timeout(Duration::from_secs(20))
                        .unwrap_or_else(|e| panic!("request {i} not failed over: {e}"));
                    assert_eq!(out.shape().c, 10);
                }
                Err(ServeError::Overloaded(_)) => {} // typed shed, not a loss
                Err(other) => panic!("request {i} rejected with {other:?}"),
            }
        }
        let mid = fleet.metrics();
        assert!(
            mid.counter("instance_failed_over") >= 1,
            "the killed instance never failed over"
        );
        assert!(
            mid.counter("requests_migrated") >= 1,
            "no request migrated off the dying instance"
        );

        // Phase 2: the supervisor must bring instance 0 back (as
        // generation 1, outside the fault plan's site prefix).
        let deadline = Instant::now() + Duration::from_secs(10);
        while fleet.healthy_instances() < REPLICAS {
            assert!(
                Instant::now() < deadline,
                "killed instance was never re-provisioned"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let served_before = fleet.metrics().counter("instance0_completed");
        for (i, s) in dataset::usps_like(12, SEED ^ 0xBEEF)
            .into_iter()
            .enumerate()
        {
            let out = fleet
                .submit(s.image)
                .unwrap()
                .wait_timeout(Duration::from_secs(20))
                .unwrap_or_else(|e| panic!("post-reprovision request {i} failed: {e}"));
            assert_eq!(out.shape().c, 10);
            accepted += 1;
        }

        let snap = fleet.shutdown();
        assert!(
            snap.counter("instance_reprovisioned") >= 1,
            "supervisor never replaced the instance"
        );
        assert!(
            snap.counter("instance0_completed") > served_before,
            "re-provisioned instance 0 never served again"
        );
        // The ledger balances: nothing accepted went unanswered.
        assert_eq!(
            snap.counter("requests_accepted"),
            snap.counter("requests_completed")
                + snap.counter("requests_failed")
                + snap.counter("requests_timed_out"),
        );
        assert_eq!(snap.counter("requests_accepted"), accepted);
        assert_eq!(snap.counter("requests_completed"), accepted);

        // Part 4: the journal round-trips. What the handle holds in
        // memory is what the file holds on disk, and the replayed plan
        // re-fires the identical sequence.
        let dump = journal::read_dump(&path).expect("parse journal");
        assert_eq!(dump.schema_version, 2);
        assert!(!dump.truncated);
        assert_eq!(dump.seed, SEED);
        let live = handle.log();
        assert!(!live.is_empty(), "the kill rule never fired");
        assert_eq!(dump.records.len(), live.len());
        for (a, b) in dump.records.iter().zip(&live) {
            assert_eq!(
                (a.site.as_str(), a.call, a.action),
                (b.site.as_str(), b.call, b.action)
            );
        }
        assert!(dump
            .records
            .iter()
            .all(|r| r.site.starts_with("fleet0g0.serve.")));
        assert_replay_matches(&dump);

        // An aborted run leaves a readable prefix: tear the journal
        // mid-record and the parser must return everything before the
        // torn tail, flagged truncated.
        let text = std::fs::read_to_string(&path).unwrap();
        let torn = &text[..text.trim_end().len() - 5];
        let prefix = journal::parse_dump(torn).expect("parse torn journal");
        assert!(prefix.truncated);
        assert_eq!(prefix.records.len(), dump.records.len() - 1);
        assert_replay_matches(&prefix);
    });
}

/// Drives the replayed plan through each site's call sequence and
/// checks it fires exactly the recorded `(site, call, action)` events.
fn assert_replay_matches(dump: &journal::FaultDump) {
    let replay = dump.replay_plan().install();
    let mut next_call: BTreeMap<&str, u64> = BTreeMap::new();
    for rec in &dump.records {
        let counter = next_call.entry(rec.site.as_str()).or_insert(0);
        // Calls between fires must stay silent (they did not fire in
        // the recorded run). One consult per call: check() and
        // timing() both advance the same per-site counter.
        while *counter < rec.call {
            assert!(
                replay.check(&rec.site).is_none(),
                "replay fired early at {} call {counter}",
                rec.site
            );
            *counter += 1;
        }
        let is_timing = matches!(rec.action, "slowdown" | "stall" | "jitter");
        let fired = if is_timing {
            replay.timing(&rec.site).is_some()
        } else {
            replay.check(&rec.site).is_some()
        };
        assert!(fired, "replay missed {} call {}", rec.site, rec.call);
        *counter += 1;
    }
    let replayed = replay.log();
    assert_eq!(replayed.len(), dump.records.len());
    for (a, b) in replayed.iter().zip(&dump.records) {
        assert_eq!(
            (a.site.as_str(), a.call, a.action),
            (b.site.as_str(), b.call, b.action),
            "replayed sequence diverged"
        );
    }
}

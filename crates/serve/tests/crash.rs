//! Kill-9 crash-recovery suite for the fleet's durable admission queue.
//!
//! The queue crate's own crash matrix (`condor-queue/tests/crash.rs`)
//! proves the *storage* invariant in isolation. This suite proves the
//! *serving* contract end to end: a fleet accepting live traffic over
//! a disk-backed queue is SIGKILLed inside a durability-critical
//! window, and a fresh fleet over the same directory must redeliver
//! every accepted-but-unresolved request and resolve each exactly once
//! — `accepted ⇒ eventually resolved-or-failed`, across the crash.
//!
//! Each seed re-runs this test binary as a child process with a
//! [`CrashPoint`] armed through [`CRASH_POINT_ENV`]; the child
//! fire-and-forget submits until the crash point kills it mid-append,
//! mid-fsync, mid-checkpoint or mid-rotation. The parent recovers,
//! drains the backlog through a second fleet, and checks the ledger.
//!
//! Seed selection matches the other matrices: `CONDOR_CRASH_SEEDS` is
//! a count (`"8"`) or a range (`"8-15"`). Queue directories live under
//! `CARGO_TARGET_TMPDIR/crash/` and are removed on success, so a
//! failed run leaves exactly the artifacts CI uploads.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor_nn::{dataset, zoo};
use condor_queue::{CrashOp, DiskQueue, DiskQueueConfig, QueueBackend, CRASH_POINT_ENV};
use condor_serve::{CpuBackend, Fleet, FleetConfig, ServeConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// Child-mode switch: set to the queue directory by the parent.
const CHILD_ENV: &str = "CONDOR_FLEET_CRASH_CHILD";

fn queue_config(dir: &Path) -> DiskQueueConfig {
    // Small segments so rotation happens every few requests (a USPS
    // image encodes to ~1 KiB), frequent checkpoints so the checkpoint
    // crash window is actually hit.
    DiskQueueConfig::new(dir)
        .with_segment_bytes(8192)
        .with_checkpoint_every(4)
}

fn fleet_on(dir: &Path) -> Fleet {
    let net = zoo::tc1_weighted(42);
    Fleet::new(
        move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
        FleetConfig::default()
            .with_replicas(2)
            .with_queue(QueueBackend::Disk(queue_config(dir)))
            .with_serve(ServeConfig::default().with_default_timeout(Duration::from_secs(20))),
    )
    .unwrap()
}

fn seeds() -> Vec<u64> {
    match std::env::var("CONDOR_CRASH_SEEDS") {
        Ok(spec) => {
            let spec = spec.trim();
            if let Some((lo, hi)) = spec.split_once('-') {
                let lo: u64 = lo.trim().parse().expect("CONDOR_CRASH_SEEDS range start");
                let hi: u64 = hi.trim().parse().expect("CONDOR_CRASH_SEEDS range end");
                (lo..=hi).collect()
            } else {
                let n: u64 = spec.parse().expect("CONDOR_CRASH_SEEDS count");
                (0..n).collect()
            }
        }
        Err(_) => (0..8).collect(),
    }
}

/// The workload the child runs until its armed crash point kills it:
/// fire-and-forget submissions (the handles are dropped, like callers
/// that died with the process), so every durability window — append,
/// fsync, ack-journal write, auto-checkpoint, segment rotation — is
/// crossed every few requests.
#[test]
fn fleet_crash_child() {
    let Some(dir) = std::env::var_os(CHILD_ENV) else {
        return; // not in child mode: nothing to do
    };
    let fleet = fleet_on(Path::new(&dir));
    for sample in dataset::usps_like(2000, 0xC0FFEE) {
        // Overloaded rejections are fine: they resolve (and ack) their
        // durable record immediately.
        let _ = fleet.submit(sample.image);
    }
    // Reaching here means the armed crash never fired; the child exits
    // cleanly and the parent flags the scenario as broken.
}

#[test]
fn fleet_kill9_matrix_redelivers_every_accepted_request() {
    if std::env::var_os(CHILD_ENV).is_some() {
        return; // child mode runs only the workload
    }
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("crash");
    let exe = std::env::current_exe().unwrap();
    for seed in seeds() {
        let op = CrashOp::ALL[(seed % 4) as usize];
        let nth = 1 + (seed / 4) * 5;
        let dir = root.join(format!("fleet-seed-{seed}"));
        let _ = fs::remove_dir_all(&dir);

        let status = Command::new(&exe)
            .args(["--exact", "fleet_crash_child", "--test-threads=1"])
            .env(CHILD_ENV, &dir)
            .env(CRASH_POINT_ENV, format!("{}:{nth}", op.as_str()))
            .status()
            .unwrap();
        assert!(
            status.code().is_none(),
            "seed {seed} ({op:?} #{nth}): child must die by SIGKILL, got exit {status:?}"
        );

        // Post-mortem: recover the ledger the dead fleet left behind.
        let backlog = {
            let (_, report) = DiskQueue::open(queue_config(&dir)).unwrap();
            assert_eq!(
                report.double_acks, 0,
                "seed {seed}: a double ack reached the journal"
            );
            report.pending.len() as u64
        };

        // A fresh fleet over the same directory must redeliver the
        // whole backlog and resolve every record exactly once, with no
        // live caller attached.
        let fleet = fleet_on(&dir);
        let snap = fleet.shutdown();
        assert_eq!(
            snap.counter("requests_redelivered"),
            backlog,
            "seed {seed}: backlog not fully redelivered"
        );
        assert_eq!(
            snap.counter("requests_accepted"),
            0,
            "seed {seed}: redelivery must not count as fresh admission"
        );
        let resolved = snap.counter("requests_completed")
            + snap.counter("requests_failed")
            + snap.counter("requests_timed_out");
        assert_eq!(
            resolved, backlog,
            "seed {seed}: redelivered requests not all resolved"
        );

        // The drained directory recovers empty: nothing lost, nothing
        // duplicated, nothing resurfacing.
        let (_, report) = DiskQueue::open(queue_config(&dir)).unwrap();
        assert!(
            report.pending.is_empty(),
            "seed {seed}: records resurfaced after the drain: {:?}",
            report.pending.iter().map(|p| p.id).collect::<Vec<_>>()
        );
        assert_eq!(report.double_acks, 0, "seed {seed}");

        let _ = fs::remove_dir_all(&dir); // keep artifacts only on failure
    }
}

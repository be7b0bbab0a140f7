//! Kill-9 crash-recovery matrix for the disk queue.
//!
//! Each seed re-executes this test binary as a child process running
//! the [`crash_child`] workload with a [`CrashPoint`] armed through
//! [`CRASH_POINT_ENV`]: the child SIGKILLs itself *inside* a
//! durability-critical window — mid-append (half a frame on disk),
//! mid-fsync, mid-checkpoint (tmp written, rename pending) or
//! mid-rotation (half a successor header). The parent then recovers
//! the directory and asserts the ledger invariant: every durable
//! record is either acked or pending (none lost, none duplicated),
//! no double ack ever reached the journal, and the torn tails read
//! back cleanly truncated.
//!
//! Seed selection mirrors the chaos suite: `CONDOR_CRASH_SEEDS` is
//! either a count (`"8"` → seeds 0..8) or a range (`"8-15"`), so CI
//! shards the matrix across jobs. Seed → scenario mapping is fixed:
//! op = seed % 4, crash occurrence = 1 + (seed / 4) * 7.
//!
//! Queue directories live under `CARGO_TARGET_TMPDIR/crash/` and are
//! removed on success — whatever survives a failed run is exactly the
//! artifact set CI uploads for post-mortem.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

mod common;

use common::{child_config, seeds, CHILD_ENV};
use condor_queue::{CrashOp, DiskQueue, Priority, CRASH_POINT_ENV};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Deterministic payload so the parent can verify integrity byte for
/// byte after the crash.
fn payload_for(id: u64) -> Vec<u8> {
    let len = 16 + (id % 48) as usize;
    (0..len).map(|k| (id as usize * 31 + k) as u8).collect()
}

/// Deterministic class per id, cycling all three, so recovery can also
/// verify the CQR2 class byte survived the crash.
fn class_for(id: u64) -> Priority {
    Priority::ALL[(id % 3) as usize]
}

/// The workload the child runs until its armed crash point kills it:
/// ack half of any recovered backlog, then append/ack with a lag so
/// every operation type (append, fsync, ack-journal write, checkpoint,
/// rotation) occurs every few iterations.
#[test]
fn crash_child() {
    let Some(dir) = std::env::var_os(CHILD_ENV) else {
        return; // not in child mode: nothing to do
    };
    let (queue, report) = DiskQueue::open(child_config(Path::new(&dir))).unwrap();
    for (i, rec) in report.pending.iter().enumerate() {
        if i % 2 == 0 {
            let _ = queue.ack(rec.id);
        }
    }
    for _ in 0..2000 {
        let id = queue.stats().next_id;
        let appended = queue.append(&payload_for(id), class_for(id)).unwrap();
        assert_eq!(appended, id);
        if id >= 3 {
            // Refused double acks of recovered ids return Ok(false);
            // only fresh acks reach the journal.
            let _ = queue.ack(id - 3);
        }
    }
    // Reaching here means the armed crash never fired; the child exits
    // cleanly and the parent flags the scenario as broken.
}

#[test]
fn kill9_matrix_recovers_cleanly() {
    if std::env::var_os(CHILD_ENV).is_some() {
        return; // child mode runs only the workload
    }
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("crash");
    let exe = std::env::current_exe().unwrap();
    for seed in seeds() {
        let op = CrashOp::ALL[(seed % 4) as usize];
        let nth = 1 + (seed / 4) * 7;
        let dir = root.join(format!("queue-seed-{seed}"));
        let _ = fs::remove_dir_all(&dir);

        let status = Command::new(&exe)
            .args(["--exact", "crash_child", "--test-threads=1"])
            .env(CHILD_ENV, &dir)
            .env(CRASH_POINT_ENV, format!("{}:{nth}", op.as_str()))
            .status()
            .unwrap();
        assert!(
            status.code().is_none(),
            "seed {seed} ({op:?} #{nth}): child must die by SIGKILL, got exit {status:?}"
        );

        // Recovery: the ledger invariant. Every durable record is
        // acked or pending, ids strictly ordered, payloads intact,
        // zero double acks in the journal.
        let (queue, report) = DiskQueue::open(child_config(&dir)).unwrap();
        assert_eq!(
            report.double_acks, 0,
            "seed {seed}: a double ack reached the journal"
        );
        let ids: Vec<u64> = report.pending.iter().map(|p| p.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "seed {seed}: pending ids ordered and unique");
        for rec in &report.pending {
            assert_eq!(
                rec.payload,
                payload_for(rec.id),
                "seed {seed}: payload of record {} corrupted",
                rec.id
            );
            assert_eq!(
                rec.class,
                class_for(rec.id),
                "seed {seed}: priority class of record {} not preserved",
                rec.id
            );
        }

        // Drain the backlog: every pending record acks exactly once,
        // the depth hits zero, and a fresh recovery finds nothing.
        for rec in &report.pending {
            assert!(
                queue.ack(rec.id).unwrap(),
                "seed {seed}: pending record {} was already acked (double delivery)",
                rec.id
            );
        }
        assert_eq!(queue.depth(), 0, "seed {seed}");
        queue.checkpoint().unwrap();
        drop(queue);
        let (_, report2) = DiskQueue::open(child_config(&dir)).unwrap();
        assert!(
            report2.pending.is_empty(),
            "seed {seed}: records resurfaced after a full drain: {:?}",
            report2.pending.iter().map(|p| p.id).collect::<Vec<_>>()
        );
        assert_eq!(report2.double_acks, 0, "seed {seed}");

        let _ = fs::remove_dir_all(&dir); // keep artifacts only on failure
    }
}

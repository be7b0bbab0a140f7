//! Kill-9 inside a half-written commit group.
//!
//! Each seed re-executes this test binary as a child process running
//! [`group_crash_child`]: four threads append at once, so commit groups
//! hold several frames, and each logs every id `append` returned. A
//! [`CRASH_POINT_ENV`] of `fsync:<n>` SIGKILLs the child inside the
//! `n`-th group sync — its frames written, its leader (or the ack
//! committer) mid-sync. The parent recovers the directory and asserts
//! that every returned id is pending or acked, exactly once, with its
//! payload and class intact.
//!
//! Seeds as in `crash.rs` (`common::seeds`); seed `s` crashes at fsync
//! occurrence `1 + 5·s`.
//! Queue directories live under `CARGO_TARGET_TMPDIR/crash/` and are
//! removed on success. The child's output is captured (and shown only
//! on failure) so its cut-off lines do not mix into the suite's.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

mod common;

use common::{child_config, seeds, CHILD_ENV};
use condor_queue::{DiskQueue, Priority, CRASH_POINT_ENV};
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

/// Appending threads in the child.
const THREADS: u64 = 4;

/// Payload of the `k`-th append of thread `t`: `(t, k)` leads, so the
/// parent can check any recovered record, returned or not, byte for
/// byte.
fn payload(t: u64, k: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(48);
    p.extend_from_slice(&t.to_le_bytes());
    p.extend_from_slice(&k.to_le_bytes());
    p.extend((0..(k % 32) as usize).map(|i| (t * 131 + k * 7 + i as u64) as u8));
    p
}

fn class(t: u64, k: u64) -> Priority {
    Priority::ALL[((t + k) % 3) as usize]
}

/// Decodes `(t, k)` from a recovered record, or `None` if the record
/// is not exactly what thread `t` appended as its `k`-th.
fn origin(record: &[u8], record_class: Priority) -> Option<(u64, u64)> {
    let t = u64::from_le_bytes(record.get(0..8)?.try_into().ok()?);
    let k = u64::from_le_bytes(record.get(8..16)?.try_into().ok()?);
    (record == payload(t, k) && record_class == class(t, k)).then_some((t, k))
}

/// The workload the child runs until its armed crash point kills it:
/// [`THREADS`] threads append at once; each logs every id `append`
/// returned (one write per line, before its next append) and acks its
/// own id from three appends earlier, so the ack committer and
/// checkpoints run beside the commit groups.
#[test]
fn group_crash_child() {
    let Some(dir) = std::env::var_os(CHILD_ENV) else {
        return; // not in child mode: nothing to do
    };
    let dir = PathBuf::from(dir);
    let (queue, _) = DiskQueue::open(child_config(&dir)).unwrap();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (queue, dir) = (&queue, &dir);
            s.spawn(move || {
                let mut log = fs::File::create(dir.join(format!("returned-{t}.log"))).unwrap();
                let mut ids = Vec::new();
                for k in 0..500 {
                    let id = queue.append(&payload(t, k), class(t, k)).unwrap();
                    // One write per line: the kill cannot tear it.
                    log.write_all(format!("{id} {k}\n").as_bytes()).unwrap();
                    ids.push(id);
                    if k >= 3 {
                        queue.ack(ids[k as usize - 3]).unwrap();
                    }
                }
            });
        }
    });
    // Reaching here means the armed crash never fired; the child exits
    // cleanly and the parent flags the scenario as broken.
}

#[test]
fn kill9_inside_a_commit_group_keeps_every_returned_append() {
    if std::env::var_os(CHILD_ENV).is_some() {
        return; // child mode runs only the workload
    }
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("crash");
    let exe = std::env::current_exe().unwrap();
    for seed in seeds() {
        let nth = 1 + seed * 5;
        let dir = root.join(format!("group-seed-{seed}"));
        let _ = fs::remove_dir_all(&dir);

        let child = Command::new(&exe)
            .args(["--exact", "group_crash_child", "--test-threads=1"])
            .env(CHILD_ENV, &dir)
            .env(CRASH_POINT_ENV, format!("fsync:{nth}"))
            .output()
            .unwrap();
        assert!(
            child.status.code().is_none(),
            "seed {seed} (fsync #{nth}): child must die by SIGKILL, got exit {:?}\n{}",
            child.status,
            String::from_utf8_lossy(&child.stdout)
        );

        // (id, k, thread) for every append that returned and was logged.
        let mut returned: Vec<(u64, u64, u64)> = Vec::new();
        for t in 0..THREADS {
            let log = fs::read_to_string(dir.join(format!("returned-{t}.log"))).unwrap();
            for line in log.lines() {
                let (id, k) = line.split_once(' ').unwrap();
                returned.push((id.parse().unwrap(), k.parse().unwrap(), t));
            }
        }
        let mut ids: Vec<u64> = returned.iter().map(|r| r.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            returned.len(),
            "seed {seed}: an id returned twice"
        );

        let (queue, report) = DiskQueue::open(child_config(&dir)).unwrap();
        assert_eq!(
            report.double_acks, 0,
            "seed {seed}: a double ack reached the journal"
        );
        let pending: Vec<u64> = report.pending.iter().map(|p| p.id).collect();
        let mut sorted = pending.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            pending, sorted,
            "seed {seed}: pending ids ordered and unique"
        );
        // Every recovered record, returned or cut off mid-group, holds
        // exactly what its thread appended.
        for rec in &report.pending {
            assert!(
                origin(&rec.payload, rec.class).is_some(),
                "seed {seed}: record {} corrupted",
                rec.id
            );
        }
        for &(id, k, t) in &returned {
            match report.pending.iter().find(|p| p.id == id) {
                Some(rec) => assert_eq!(
                    origin(&rec.payload, rec.class),
                    Some((t, k)),
                    "seed {seed}: record {id} is not thread {t}'s append {k}"
                ),
                // Not pending: it must already be acked, which a
                // second ack reports by refusing.
                None => assert!(
                    !queue.ack(id).unwrap(),
                    "seed {seed}: returned record {id} lost"
                ),
            }
        }

        let _ = fs::remove_dir_all(&dir); // keep artifacts only on failure
    }
}

//! The disk-backed admission queue: segmented append-only records, an
//! fsynced ack journal, and an atomically renamed checkpoint.
//!
//! Write path (group commit): [`DiskQueue::append`] frames the payload
//! ([`crate::frame`]) and appends it to the tail segment under the
//! queue's lock, then leaves the lock to wait for a sync that covers
//! its frame. The first waiter with no sync in progress becomes the
//! group's leader and runs one `sync_data` for every frame written so
//! far; the others wait until the durable watermark passes their id.
//! `append` returns the record id only once its frame is durable — only
//! then may the caller consider the request accepted. A failed sync
//! fails every waiting append whose frame was written before it
//! returned: fsync reports a writeback error once and may leave the
//! failed pages clean, so a later sync that succeeds proves nothing
//! about them. Segments rotate at [`DiskQueueConfig::segment_bytes`]
//! and are deleted once every record they hold is folded into the
//! acked prefix.
//!
//! Ack path: [`DiskQueue::ack`] refuses a double ack and appends the id
//! to the ack journal under the lock, then returns without waiting for
//! a sync. One committer thread per queue syncs the journal in groups
//! and runs the checkpoint, so no caller of `ack` waits on an fsync. An
//! ack is durable at the committer's next sync. When that sync fails
//! the committer checkpoints at once (the compaction rewrites the
//! journal), and a failed checkpoint is retried after every later ack;
//! a power cut before one succeeds can only redeliver the acked records
//! (at-least-once), never lose one. Acks arrive out of order (whichever
//! lane finishes first), so the queue keeps the contiguous prefix bound
//! `acked_below` plus the sparse set above it. Every
//! [`DiskQueueConfig::checkpoint_every`] acks the committer rewrites the
//! checkpoint blob (tmp + rename, the only atomic publish primitive a
//! filesystem gives), compacts the journal to the sparse set, and
//! reclaims fully-acked segments. Dropping the queue
//! drains the committer (pending syncs and a due checkpoint) and joins
//! it.
//!
//! No fsync runs under the queue's state lock except where the file
//! set changes: rotation syncs the old tail before frames land in the
//! new one, and the checkpoint syncs its blob and the compacted journal
//! before publishing them. Rotation waits out a group sync in flight,
//! so no two syncs of the tail overlap and each writeback error reaches
//! the sync that publishes it.
//!
//! Recovery ([`DiskQueue::open`]) tolerates a `kill -9` at any point:
//! torn segment/journal tails are truncated to their last clean frame,
//! a torn checkpoint tmp is discarded, a half-written successor
//! segment from a crashed rotation is reset, and every record that is
//! not provably acked comes back as [`RecoveryReport::pending`] for
//! redelivery — at-least-once, never silently dropped.

use crate::crash::{die, CrashOp, CrashPoint};
use crate::frame;
use crate::{Priority, QueueError};
use condor_faults::FaultHandle;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// Tuning knobs of one disk queue.
#[derive(Clone, Debug)]
pub struct DiskQueueConfig {
    /// Directory holding segments, the ack journal and the checkpoint.
    pub dir: PathBuf,
    /// Rotation threshold for data segments.
    pub segment_bytes: u64,
    /// Acks between checkpoints (journal compaction + reclamation).
    pub checkpoint_every: u64,
    /// Whether the queue fsyncs (on by default; turning it off trades
    /// crash durability for throughput). On, `append` returns only
    /// after a group sync covers its frame, and the committer thread
    /// syncs the ack journal in groups behind `ack`. Off, every sync is
    /// skipped.
    pub fsync: bool,
    /// Fault injection over the queue's own sites (`queue.append`,
    /// `queue.fsync`, `queue.checkpoint`, `queue.segment_rotate`).
    pub faults: FaultHandle,
}

impl DiskQueueConfig {
    /// A config with defaults for everything but the directory.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskQueueConfig {
            dir: dir.into(),
            segment_bytes: 1 << 20,
            checkpoint_every: 64,
            fsync: true,
            faults: FaultHandle::disabled(),
        }
    }

    /// Sets the segment rotation threshold (floored to one file
    /// header plus one record header, so a segment can always hold at
    /// least one frame).
    pub fn with_segment_bytes(mut self, n: u64) -> Self {
        self.segment_bytes = n.max((frame::FILE_HEADER_LEN + frame::RECORD_HEADER_LEN) as u64);
        self
    }

    /// Sets the ack count between checkpoints (at least 1).
    pub fn with_checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n.max(1);
        self
    }

    /// Enables or disables fsync on the write/ack paths.
    pub fn with_fsync(mut self, on: bool) -> Self {
        self.fsync = on;
        self
    }

    /// Shares an installed fault handle over the queue sites.
    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
    }
}

/// One durable record recovered as unacked: it must be redelivered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingRecord {
    /// The record id [`DiskQueue::append`] returned.
    pub id: u64,
    /// The priority class the record was accepted at.
    pub class: Priority,
    /// The payload exactly as appended.
    pub payload: Vec<u8>,
}

/// What [`DiskQueue::open`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Durable records with no durable ack, in id order.
    pub pending: Vec<PendingRecord>,
    /// The contiguous acked prefix: every id below this is resolved.
    pub acked_below: u64,
    /// Out-of-order acked ids above `acked_below` found in the journal.
    pub acked_above: u64,
    /// Duplicate ack-journal entries (should always be 0: the ack path
    /// refuses double acks before writing).
    pub double_acks: u64,
    /// Torn bytes truncated from segment/journal tails.
    pub truncated_bytes: u64,
    /// Data segments live after recovery and reclamation.
    pub segments: usize,
}

/// Point-in-time queue counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Records appended since open.
    pub appended: u64,
    /// Records acked since open.
    pub acked: u64,
    /// Records appended but not yet acked (counted from the frame
    /// write; an append whose sync fails is uncounted).
    pub depth: u64,
    /// The contiguous acked prefix bound.
    pub acked_below: u64,
    /// The next record id to be assigned.
    pub next_id: u64,
    /// Live data segments.
    pub segments: usize,
    /// Segment rotations since open.
    pub rotations: u64,
    /// Checkpoints written since open.
    pub checkpoints: u64,
    /// Checkpoint attempts that failed (retried on later acks).
    pub checkpoint_failures: u64,
    /// Refused duplicate acks since open.
    pub double_acks: u64,
    /// Group fsyncs run since open: one per append commit group and one
    /// per ack-journal group (rotation and checkpoint syncs excluded;
    /// always 0 with fsync off).
    pub syncs: u64,
}

/// Ids strictly below `next_after` are at or before this segment.
struct SegmentMeta {
    index: u64,
    next_after: u64,
}

/// The queue's state, behind its one state lock.
struct Inner {
    tail: Arc<File>,
    tail_index: u64,
    tail_len: u64,
    segments: Vec<SegmentMeta>,
    next_id: u64,
    ack_file: Arc<File>,
    acked_below: u64,
    acked: BTreeSet<u64>,
    acks_since_checkpoint: u64,
    live: u64,
    appended: u64,
    acked_total: u64,
    double_acks: u64,
    rotations: u64,
    checkpoints: u64,
    checkpoint_failures: u64,
}

/// What append leaders, the committer thread and the writers under
/// [`Inner`] agree on. Lock order: `Inner` before `Commit`, never the
/// reverse, and no fsync runs while `Commit` is held.
struct Commit {
    /// The tail segment appends sync (swapped by rotation).
    tail: Arc<File>,
    /// Every record id below this has its whole frame in a segment.
    /// A frame is written with `Commit` held, so a tail sync that reads
    /// this after it returns counts every frame it may have carried.
    written_below: u64,
    /// Records from `failed_below` up to this are durable.
    durable_below: u64,
    /// A tail sync failed once every record below this was written:
    /// any of them not durable by then never will be (the failed pages
    /// may be clean), and their appends fail.
    failed_below: u64,
    /// A tail sync is in flight (an append leader's or rotation's).
    tail_syncing: bool,
    /// The ack journal the committer syncs (swapped by checkpoint
    /// compaction).
    journal: Arc<File>,
    /// Ack frames written to the journal since open.
    acks_written: u64,
    /// Ack frames a journal sync (or compaction) has covered.
    acks_synced: u64,
    /// The acks since the last checkpoint reached `checkpoint_every`.
    checkpoint_due: bool,
    /// The queue is dropping: the committer drains and exits.
    closing: bool,
}

/// Everything the committer thread needs. It holds this, never the
/// [`DiskQueue`], so the queue's last drop joins a thread that owns no
/// handle to the queue itself.
struct Shared {
    config: DiskQueueConfig,
    crash: Option<CrashPoint>,
    inner: Mutex<Inner>,
    commit: Mutex<Commit>,
    /// Wakes append followers and a waiting rotation when a tail sync
    /// ends.
    durable: Condvar,
    /// Wakes the committer: acks written, a checkpoint due, closing.
    work: Condvar,
    /// Statistic only (publishes no data): `Relaxed` throughout.
    syncs: AtomicU64,
}

/// The crash-safe disk queue. Shared across threads behind an `Arc`.
/// Appends and acks write their frames under one state lock, which is
/// held across an fsync only to rotate a segment or write a checkpoint:
/// appends are durable in commit groups, and acks are synced in groups
/// by the queue's committer thread.
pub struct DiskQueue {
    shared: Arc<Shared>,
    committer: Option<JoinHandle<()>>,
}

fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, Commit>) -> MutexGuard<'a, Commit> {
    // Non-poisoning, like every lock in this crate.
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

fn seg_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}.cq"))
}

fn parse_seg_index(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(".cq")?.parse().ok()
}

fn fault_err(f: condor_faults::InjectedFault) -> QueueError {
    QueueError::Fault(f.to_string())
}

impl DiskQueue {
    /// Opens (or creates) the queue at `config.dir`, running full
    /// recovery: torn tails truncated, the checkpoint loaded, acks
    /// replayed, fully-acked segments reclaimed. The report carries
    /// every unacked record for the caller to redeliver.
    pub fn open(config: DiskQueueConfig) -> Result<(Self, RecoveryReport), QueueError> {
        let dir = config.dir.clone();
        fs::create_dir_all(&dir)?;
        let crash = CrashPoint::from_env();

        // Checkpoint: the only file published by rename, so it is
        // either the previous blob or the new one — a torn tmp from a
        // crashed checkpoint is simply discarded.
        let (ckpt_acked_below, ckpt_next_id) = fs::read(dir.join("checkpoint.cq"))
            .ok()
            .and_then(|b| frame::decode_checkpoint(&b))
            .unwrap_or((0, 0));
        let _ = fs::remove_file(dir.join("checkpoint.tmp"));
        let _ = fs::remove_file(dir.join("acks.tmp"));

        // Data segments, in index order, each truncated to its clean
        // prefix. A header-less file (crashed rotation) resets to a
        // valid empty segment — but a file that names a *different
        // format version* is an old queue, not a crash artifact:
        // refuse it as a typed error rather than wiping real records.
        let mut indices: Vec<u64> = fs::read_dir(&dir)?
            .flatten()
            .filter_map(|e| parse_seg_index(&e.file_name().to_string_lossy()))
            .collect();
        indices.sort_unstable();
        let mut truncated_bytes = 0u64;
        let mut records: Vec<(u64, u8, Vec<u8>)> = Vec::new();
        let mut segments: Vec<SegmentMeta> = Vec::new();
        for index in indices {
            let path = seg_path(&dir, index);
            let data = fs::read(&path)?;
            let scan = frame::scan_segment(&data);
            if !scan.header_ok && scan.version != 0 {
                return Err(QueueError::Corrupt(format!(
                    "segment {} has on-disk format version {}; this build reads \
                     version {} — drain it with a matching build or point the \
                     queue at a fresh directory",
                    path.display(),
                    scan.version,
                    frame::FORMAT_VERSION
                )));
            }
            if scan.clean_len < data.len() {
                truncated_bytes += (data.len() - scan.clean_len) as u64;
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.clean_len as u64)?;
                let _ = f.sync_all();
            }
            if !scan.header_ok {
                let mut f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(0)?;
                f.write_all(&frame::encode_segment_header(index))?;
                let _ = f.sync_all();
            }
            let next_after = scan.records.last().map(|(id, _, _)| id + 1).unwrap_or(0);
            records.extend(scan.records);
            segments.push(SegmentMeta { index, next_after });
        }
        // Empty segments inherit the running bound so reclamation
        // stays monotonic.
        let mut run = 0u64;
        for seg in &mut segments {
            run = run.max(seg.next_after);
            seg.next_after = run;
        }

        // Ack journal: truncate the torn tail, replay ids.
        let ack_path = dir.join("acks.cq");
        let mut acked = BTreeSet::new();
        let mut double_acks = 0u64;
        let mut acked_below = ckpt_acked_below;
        match fs::read(&ack_path) {
            Ok(data) => {
                let scan = frame::scan_acks(&data);
                if !scan.header_ok && scan.version != 0 {
                    return Err(QueueError::Corrupt(format!(
                        "ack journal {} has on-disk format version {}; this build \
                         reads version {}",
                        ack_path.display(),
                        scan.version,
                        frame::FORMAT_VERSION
                    )));
                }
                if scan.clean_len < data.len() {
                    truncated_bytes += (data.len() - scan.clean_len) as u64;
                    let f = OpenOptions::new().write(true).open(&ack_path)?;
                    f.set_len(scan.clean_len as u64)?;
                    let _ = f.sync_all();
                }
                if !scan.header_ok {
                    let mut f = OpenOptions::new().write(true).open(&ack_path)?;
                    f.set_len(0)?;
                    f.write_all(&frame::encode_ack_header())?;
                    let _ = f.sync_all();
                }
                for id in scan.ids {
                    // Ids below the checkpoint bound are stale journal
                    // entries from before a compaction that crashed
                    // mid-way; they are already resolved, not doubles.
                    if id < acked_below {
                        continue;
                    }
                    if !acked.insert(id) {
                        double_acks += 1;
                    }
                }
            }
            Err(_) => {
                let mut f = File::create(&ack_path)?;
                f.write_all(&frame::encode_ack_header())?;
                if config.fsync {
                    let _ = f.sync_all();
                }
            }
        }
        loop {
            let bound = acked_below;
            if acked.remove(&bound) {
                acked_below = bound + 1;
            } else {
                break;
            }
        }

        // Derive the pending set and the id horizon.
        records.sort_by_key(|(id, _, _)| *id);
        records.dedup_by_key(|(id, _, _)| *id);
        let next_id = ckpt_next_id.max(records.last().map(|(id, _, _)| id + 1).unwrap_or(0));
        let pending: Vec<PendingRecord> = records
            .into_iter()
            .filter(|(id, _, _)| *id >= acked_below && !acked.contains(id))
            .map(|(id, class, payload)| PendingRecord {
                id,
                class: Priority::from_class(class),
                payload,
            })
            .collect();

        // Reclaim segments wholly below the acked prefix (keep the
        // last one: it becomes the append tail).
        let tail_keep = segments.last().map(|s| s.index);
        segments.retain(|seg| {
            if Some(seg.index) == tail_keep || seg.next_after > acked_below {
                true
            } else {
                let _ = fs::remove_file(seg_path(&dir, seg.index));
                false
            }
        });

        // Open the tail for appending (creating segment 0 on a fresh
        // directory).
        let (tail, tail_index) = match segments.last() {
            Some(last) => {
                let f = OpenOptions::new()
                    .append(true)
                    .open(seg_path(&dir, last.index))?;
                (f, last.index)
            }
            None => {
                let mut f = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(seg_path(&dir, 0))?;
                f.write_all(&frame::encode_segment_header(0))?;
                if config.fsync {
                    let _ = f.sync_all();
                }
                segments.push(SegmentMeta {
                    index: 0,
                    next_after: next_id,
                });
                (f, 0)
            }
        };
        let tail_len = tail.metadata()?.len();
        let tail = Arc::new(tail);
        let ack_file = Arc::new(OpenOptions::new().append(true).open(&ack_path)?);

        let report = RecoveryReport {
            acked_below,
            acked_above: acked.len() as u64,
            double_acks,
            truncated_bytes,
            segments: segments.len(),
            pending,
        };
        let shared = Arc::new(Shared {
            commit: Mutex::new(Commit {
                tail: Arc::clone(&tail),
                written_below: next_id,
                durable_below: next_id,
                failed_below: 0,
                tail_syncing: false,
                journal: Arc::clone(&ack_file),
                acks_written: 0,
                acks_synced: 0,
                checkpoint_due: false,
                closing: false,
            }),
            inner: Mutex::new(Inner {
                tail,
                tail_index,
                tail_len,
                segments,
                next_id,
                ack_file,
                acked_below,
                acked,
                acks_since_checkpoint: 0,
                live: report.pending.len() as u64,
                appended: 0,
                acked_total: 0,
                double_acks: 0,
                rotations: 0,
                checkpoints: 0,
                checkpoint_failures: 0,
            }),
            durable: Condvar::new(),
            work: Condvar::new(),
            syncs: AtomicU64::new(0),
            config,
            crash,
        });
        let committer = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("condor-queue-commit".into())
                .spawn(move || shared.commit_loop())?
        };
        let queue = DiskQueue {
            shared,
            committer: Some(committer),
        };
        Ok((queue, report))
    }

    /// Appends one record durably at a priority class and returns its
    /// id. Only after this returns may the request be reported as
    /// accepted: the frame is written and (by default) a group sync
    /// covering it has completed. On an fsync error the record state is
    /// *unknown* — the caller must fail the request, and the record may
    /// legally reappear as pending after a restart (at-least-once).
    pub fn append(&self, payload: &[u8], class: Priority) -> Result<u64, QueueError> {
        let s = &*self.shared;
        s.config.faults.gate("queue.append").map_err(fault_err)?;
        let id = s.write_record(payload, class)?;
        if let Err(e) = s.await_durable(id) {
            let mut inner = s.inner.lock();
            inner.appended -= 1;
            inner.live = inner.live.saturating_sub(1);
            return Err(e);
        }
        Ok(id)
    }

    /// Acknowledges one delivered record: the ack frame is in the
    /// journal when this returns, and durable at the committer's next
    /// group sync. Returns `Ok(false)` — without writing anything —
    /// when the id is already acked: the double-ack guard the crash
    /// suite asserts on.
    pub fn ack(&self, id: u64) -> Result<bool, QueueError> {
        let s = &*self.shared;
        let mut inner = s.inner.lock();
        if id >= inner.next_id {
            return Err(QueueError::Corrupt(format!(
                "ack of unknown record {id} (next id {})",
                inner.next_id
            )));
        }
        if id < inner.acked_below || inner.acked.contains(&id) {
            inner.double_acks += 1;
            return Ok(false);
        }
        (&*inner.ack_file).write_all(&frame::encode_ack(id))?;
        inner.acked.insert(id);
        loop {
            let bound = inner.acked_below;
            if inner.acked.remove(&bound) {
                inner.acked_below = bound + 1;
            } else {
                break;
            }
        }
        inner.live = inner.live.saturating_sub(1);
        inner.acked_total += 1;
        inner.acks_since_checkpoint += 1;
        let mut commit = s.commit.lock();
        commit.acks_written += 1;
        // A failed checkpoint stays due and is retried after later
        // acks; the journal keeps the full truth meanwhile.
        commit.checkpoint_due |= inner.acks_since_checkpoint >= s.config.checkpoint_every;
        s.work.notify_one();
        Ok(true)
    }

    /// Forces a checkpoint now (the committer also runs one every
    /// [`DiskQueueConfig::checkpoint_every`] acks).
    pub fn checkpoint(&self) -> Result<(), QueueError> {
        let mut inner = self.shared.inner.lock();
        self.shared.checkpoint_locked(&mut inner)
    }

    /// Records appended but not yet acked (live depth).
    pub fn depth(&self) -> u64 {
        self.shared.inner.lock().live
    }

    /// The contiguous acked prefix bound.
    pub fn acked_below(&self) -> u64 {
        self.shared.inner.lock().acked_below
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> QueueStats {
        let inner = self.shared.inner.lock();
        QueueStats {
            appended: inner.appended,
            acked: inner.acked_total,
            depth: inner.live,
            acked_below: inner.acked_below,
            next_id: inner.next_id,
            segments: inner.segments.len(),
            rotations: inner.rotations,
            checkpoints: inner.checkpoints,
            checkpoint_failures: inner.checkpoint_failures,
            double_acks: inner.double_acks,
            syncs: self.shared.syncs.load(Ordering::Relaxed),
        }
    }

    /// The queue directory.
    pub fn dir(&self) -> &Path {
        &self.shared.config.dir
    }
}

impl Drop for DiskQueue {
    /// Drains the committer — the last journal group is synced and a
    /// due checkpoint runs — and joins it.
    fn drop(&mut self) {
        self.shared.commit.lock().closing = true;
        self.shared.work.notify_one();
        if let Some(committer) = self.committer.take() {
            // A panicked committer has nothing left to drain; `Drop`
            // must not panic in turn.
            let _ = committer.join();
        }
    }
}

impl Shared {
    /// Writes one record frame to the tail (rotating first if the frame
    /// would overflow it) and returns its id; not yet durable.
    fn write_record(&self, payload: &[u8], class: Priority) -> Result<u64, QueueError> {
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        let frame_bytes = frame::encode_record(id, class.as_class(), payload);
        if inner.tail_len + frame_bytes.len() as u64 > self.config.segment_bytes
            && inner.tail_len > frame::FILE_HEADER_LEN as u64
        {
            self.rotate(&mut inner)?;
        }
        if let Some(crash) = &self.crash {
            if crash.should_crash(CrashOp::Append) {
                // A real torn tail: half the frame reaches the file.
                let _ = (&*inner.tail).write_all(&frame_bytes[..frame_bytes.len() / 2]);
                let _ = (&*inner.tail).flush();
                die();
            }
        }
        {
            // Held across the write: see `Commit::written_below`.
            let mut commit = self.commit.lock();
            (&*inner.tail).write_all(&frame_bytes)?;
            commit.written_below = id + 1;
        }
        inner.tail_len += frame_bytes.len() as u64;
        inner.next_id = id + 1;
        if let Some(seg) = inner.segments.last_mut() {
            seg.next_after = id + 1;
        }
        inner.appended += 1;
        inner.live += 1;
        Ok(id)
    }

    /// Returns once record `id` (already written) is durable. The first
    /// caller to find no tail sync in flight leads: one sync covers
    /// every frame written so far, then the followers it covered
    /// return. A failed sync fails every waiter it may have covered,
    /// the leader with its own error.
    fn await_durable(&self, id: u64) -> Result<(), QueueError> {
        let mut commit = self.commit.lock();
        loop {
            if id < commit.failed_below {
                return Err(QueueError::Io(io::Error::other(
                    "a group sync that may have covered this record failed",
                )));
            }
            if id < commit.durable_below {
                return Ok(());
            }
            if commit.tail_syncing {
                commit = wait(&self.durable, commit);
                continue;
            }
            let (guard, synced) = self.sync_tail(commit, |tail| self.sync(tail));
            commit = guard;
            synced?;
        }
    }

    /// Runs `sync` on the tail as the only tail sync in flight (the
    /// caller saw none) and publishes the outcome: on success every
    /// frame written before it began is durable; on failure every frame
    /// written before it returned is failed.
    fn sync_tail<'a>(
        &'a self,
        mut commit: MutexGuard<'a, Commit>,
        sync: impl FnOnce(&File) -> Result<(), QueueError>,
    ) -> (MutexGuard<'a, Commit>, Result<(), QueueError>) {
        commit.tail_syncing = true;
        let target = commit.written_below;
        let tail = Arc::clone(&commit.tail);
        drop(commit);
        let synced = sync(&tail);
        let mut commit = self.commit.lock();
        commit.tail_syncing = false;
        if synced.is_ok() {
            commit.durable_below = commit.durable_below.max(target);
        } else {
            commit.failed_below = commit.written_below;
        }
        self.durable.notify_all();
        (commit, synced)
    }

    /// The committer thread: syncs the ack journal in groups and runs
    /// the due checkpoint, until `Drop` asks it to drain and exit.
    fn commit_loop(&self) {
        let mut commit = self.commit.lock();
        loop {
            if commit.acks_synced < commit.acks_written {
                let target = commit.acks_written;
                let journal = Arc::clone(&commit.journal);
                drop(commit);
                if self.sync(&journal).is_err() {
                    // The failed pages may be clean, so no later sync of
                    // this journal covers them: checkpoint now, which
                    // rewrites it. Until a checkpoint succeeds (a failed
                    // one is retried after every later ack), a power cut
                    // may lose these acks and redeliver their records.
                    let mut inner = self.inner.lock();
                    inner.acks_since_checkpoint = inner
                        .acks_since_checkpoint
                        .max(self.config.checkpoint_every);
                    let _ = self.checkpoint_locked(&mut inner);
                }
                commit = self.commit.lock();
                commit.acks_synced = commit.acks_synced.max(target);
            } else if commit.checkpoint_due {
                commit.checkpoint_due = false;
                drop(commit);
                {
                    let mut inner = self.inner.lock();
                    if inner.acks_since_checkpoint >= self.config.checkpoint_every {
                        let _ = self.checkpoint_locked(&mut inner);
                    }
                }
                commit = self.commit.lock();
            } else if commit.closing {
                return;
            } else {
                commit = wait(&self.work, commit);
            }
        }
    }

    /// One group sync of the tail or the journal; never called under a
    /// lock.
    fn sync(&self, file: &File) -> Result<(), QueueError> {
        self.config.faults.gate("queue.fsync").map_err(fault_err)?;
        if let Some(crash) = &self.crash {
            if crash.should_crash(CrashOp::Fsync) {
                // Bytes written, durability not yet promised.
                die();
            }
        }
        if self.config.fsync {
            file.sync_data()?;
            self.syncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn rotate(&self, inner: &mut Inner) -> Result<(), QueueError> {
        if self.config.faults.gate("queue.segment_rotate").is_err() {
            // Injected rotation failure: keep appending to the
            // oversized tail and retry on the next append. Durability
            // is unaffected; only the rotation bound slips.
            return Ok(());
        }
        let next_index = inner.tail_index + 1;
        let path = seg_path(&self.config.dir, next_index);
        if let Some(crash) = &self.crash {
            if crash.should_crash(CrashOp::Rotate) {
                // The successor exists with half a header; recovery
                // must reset it, not trip over it.
                let header = frame::encode_segment_header(next_index);
                if let Ok(mut f) = File::create(&path) {
                    let _ = f.write_all(&header[..frame::FILE_HEADER_LEN / 2]);
                    let _ = f.flush();
                }
                die();
            }
        }
        // Close out the old tail durably before frames land in the new
        // one, so the id order across segments is also the durability
        // order. A group sync in flight finishes first: two overlapping
        // syncs of one file could hand its writeback error to the one
        // that does not publish it.
        let mut commit = self.commit.lock();
        while commit.tail_syncing {
            commit = wait(&self.durable, commit);
        }
        let (commit, synced) = self.sync_tail(commit, |tail| {
            if self.config.fsync {
                tail.sync_data()?;
            }
            Ok(())
        });
        drop(commit);
        synced?;
        let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
        f.write_all(&frame::encode_segment_header(next_index))?;
        if self.config.fsync {
            f.sync_all()?;
        }
        let f = Arc::new(f);
        inner.tail = Arc::clone(&f);
        // Group commits continue on the new tail.
        self.commit.lock().tail = f;
        inner.tail_index = next_index;
        inner.tail_len = frame::FILE_HEADER_LEN as u64;
        let next_after = inner.next_id;
        inner.segments.push(SegmentMeta {
            index: next_index,
            next_after,
        });
        inner.rotations += 1;
        Ok(())
    }

    fn checkpoint_locked(&self, inner: &mut Inner) -> Result<(), QueueError> {
        match self.checkpoint_attempt(inner) {
            Ok(()) => {
                inner.checkpoints += 1;
                inner.acks_since_checkpoint = 0;
                Ok(())
            }
            Err(e) => {
                inner.checkpoint_failures += 1;
                Err(e)
            }
        }
    }

    fn checkpoint_attempt(&self, inner: &mut Inner) -> Result<(), QueueError> {
        self.config
            .faults
            .gate("queue.checkpoint")
            .map_err(fault_err)?;
        let dir = &self.config.dir;
        let tmp = dir.join("checkpoint.tmp");
        let blob = frame::encode_checkpoint(inner.acked_below, inner.next_id);
        let mut f = File::create(&tmp)?;
        f.write_all(&blob)?;
        if self.config.fsync {
            f.sync_all()?;
        }
        if let Some(crash) = &self.crash {
            if crash.should_crash(CrashOp::Checkpoint) {
                // The tmp blob exists; the rename never happens. The
                // previous checkpoint must win on recovery.
                die();
            }
        }
        fs::rename(&tmp, dir.join("checkpoint.cq"))?;

        // Compact the journal to the sparse set above the prefix.
        let ack_tmp = dir.join("acks.tmp");
        let mut buf = frame::encode_ack_header().to_vec();
        for id in &inner.acked {
            buf.extend_from_slice(&frame::encode_ack(*id));
        }
        let mut f = File::create(&ack_tmp)?;
        f.write_all(&buf)?;
        if self.config.fsync {
            f.sync_all()?;
        }
        let ack_path = dir.join("acks.cq");
        fs::rename(&ack_tmp, &ack_path)?;
        let journal = Arc::new(OpenOptions::new().append(true).open(&ack_path)?);
        inner.ack_file = Arc::clone(&journal);
        if self.config.fsync {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        {
            // The synced blob and compacted journal hold every ack
            // written so far.
            let mut commit = self.commit.lock();
            commit.journal = journal;
            commit.acks_synced = commit.acks_written;
        }

        // Reclaim segments wholly below the acked prefix.
        let tail_index = inner.tail_index;
        let acked_below = inner.acked_below;
        inner.segments.retain(|seg| {
            if seg.index == tail_index || seg.next_after > acked_below {
                true
            } else {
                let _ = fs::remove_file(seg_path(dir, seg.index));
                false
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_faults::{FaultPlan, FaultRule};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "condor-queue-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_config(dir: &Path) -> DiskQueueConfig {
        DiskQueueConfig::new(dir)
            .with_segment_bytes(160)
            .with_checkpoint_every(4)
    }

    #[test]
    fn append_ack_recover_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let (queue, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        assert!(report.pending.is_empty());
        for i in 0u8..5 {
            let id = queue.append(&[i; 8], Priority::Standard).unwrap();
            assert_eq!(id, i as u64);
        }
        assert_eq!(queue.depth(), 5);
        assert!(queue.ack(0).unwrap());
        assert!(queue.ack(1).unwrap());
        assert!(queue.ack(3).unwrap());
        assert_eq!(queue.acked_below(), 2);
        drop(queue);

        let (queue, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        assert_eq!(report.acked_below, 2);
        assert_eq!(report.double_acks, 0);
        let ids: Vec<u64> = report.pending.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![2, 4]);
        assert_eq!(report.pending[0].payload, vec![2u8; 8]);
        // New ids continue after the recovered horizon.
        assert_eq!(queue.append(b"next", Priority::Standard).unwrap(), 5);
        assert!(queue.ack(2).unwrap());
        assert!(queue.ack(4).unwrap());
        assert!(queue.ack(5).unwrap());
        assert_eq!(queue.depth(), 0);
        assert_eq!(queue.acked_below(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn double_ack_is_refused_without_a_journal_write() {
        let dir = tmp_dir("double");
        let (queue, _) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        let id = queue.append(b"x", Priority::Standard).unwrap();
        assert!(queue.ack(id).unwrap());
        assert!(!queue.ack(id).unwrap());
        assert_eq!(queue.stats().double_acks, 1);
        assert!(matches!(queue.ack(999), Err(QueueError::Corrupt(_))));
        drop(queue);
        let (_, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        assert_eq!(report.double_acks, 0, "the refusal never reached disk");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_fully_acked_ones_are_reclaimed() {
        let dir = tmp_dir("rotate");
        let (queue, _) = DiskQueue::open(small_config(&dir)).unwrap();
        let ids: Vec<u64> = (0..12)
            .map(|_| queue.append(&[7u8; 40], Priority::Batch).unwrap())
            .collect();
        let stats = queue.stats();
        assert!(stats.rotations >= 2, "tiny segments must rotate: {stats:?}");
        for id in &ids {
            assert!(queue.ack(*id).unwrap());
        }
        queue.checkpoint().unwrap();
        let stats = queue.stats();
        assert_eq!(stats.depth, 0);
        assert_eq!(
            stats.segments, 1,
            "only the tail survives full reclamation: {stats:?}"
        );
        let on_disk = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| parse_seg_index(&e.file_name().to_string_lossy()).is_some())
            .count();
        assert_eq!(on_disk, 1);
        drop(queue);
        let (_, report) = DiskQueue::open(small_config(&dir)).unwrap();
        assert!(report.pending.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_segment_tail_is_truncated_on_recovery() {
        let dir = tmp_dir("torn");
        let (queue, _) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        for i in 0u8..3 {
            queue.append(&[i; 16], Priority::Standard).unwrap();
        }
        drop(queue);
        // Simulate a torn final frame: garbage after the clean prefix.
        let path = seg_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"CQR1torn-mid-frame").unwrap();
        drop(f);
        let before = fs::metadata(&path).unwrap().len();
        let (queue, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        assert_eq!(report.pending.len(), 3, "clean records survive");
        assert!(report.truncated_bytes > 0);
        assert!(fs::metadata(&path).unwrap().len() < before);
        // Appending after the repair keeps working and recovering.
        queue.append(b"after-repair", Priority::Standard).unwrap();
        drop(queue);
        let (_, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        assert_eq!(report.pending.len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_faults_fail_the_matching_operation() {
        let dir = tmp_dir("faults");
        let handle = FaultPlan::new(0xF1)
            .rule(FaultRule::at("queue.append").nth_call(1).fail_transient())
            .rule(FaultRule::at("queue.checkpoint").always().fail_transient())
            .install();
        let (queue, _) =
            DiskQueue::open(DiskQueueConfig::new(&dir).with_faults(handle.clone())).unwrap();
        assert!(queue.append(b"ok", Priority::Standard).is_ok());
        assert!(matches!(
            queue.append(b"boom", Priority::Standard),
            Err(QueueError::Fault(_))
        ));
        assert!(queue.append(b"ok-again", Priority::Standard).is_ok());
        assert!(matches!(queue.checkpoint(), Err(QueueError::Fault(_))));
        assert_eq!(queue.stats().checkpoint_failures, 1);
        // The failed checkpoint changed nothing durable: recovery still
        // sees both successful appends.
        drop(queue);
        let (_, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        assert_eq!(report.pending.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn priority_class_survives_recovery() {
        let dir = tmp_dir("class");
        let (queue, _) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        queue.append(b"ui", Priority::Interactive).unwrap();
        queue.append(b"api", Priority::Standard).unwrap();
        queue.append(b"etl", Priority::Batch).unwrap();
        drop(queue);
        let (_, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        let classes: Vec<Priority> = report.pending.iter().map(|p| p.class).collect();
        assert_eq!(
            classes,
            vec![Priority::Interactive, Priority::Standard, Priority::Batch]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_directory_is_refused_not_wiped() {
        let dir = tmp_dir("v1");
        fs::create_dir_all(&dir).unwrap();
        // A CQR1-era segment: same magic, version 1, one legacy frame.
        let mut file = frame::encode_segment_header(0).to_vec();
        file[4..8].copy_from_slice(&1u32.to_le_bytes());
        file.extend_from_slice(b"CQR1legacy-frame-bytes");
        let path = seg_path(&dir, 0);
        fs::write(&path, &file).unwrap();
        let before = fs::read(&path).unwrap();
        match DiskQueue::open(DiskQueueConfig::new(&dir)) {
            Err(QueueError::Corrupt(msg)) => assert!(msg.contains("version 1"), "{msg}"),
            Err(other) => panic!("v1 segment must refuse with Corrupt: {other}"),
            Ok(_) => panic!("v1 segment must refuse to open"),
        }
        // The refusal must not have modified the old data.
        assert_eq!(fs::read(&path).unwrap(), before);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_faults_surface_on_the_append_path() {
        let dir = tmp_dir("fsync-fault");
        let handle = FaultPlan::new(0xF2)
            .rule(FaultRule::at("queue.fsync").nth_call(0).fail_transient())
            .install();
        let (queue, _) = DiskQueue::open(DiskQueueConfig::new(&dir).with_faults(handle)).unwrap();
        assert!(matches!(
            queue.append(b"unsure", Priority::Standard),
            Err(QueueError::Fault(_))
        ));
        // The record's durability was unknown; recovery may surface it
        // (at-least-once), and the queue must keep serving new appends.
        let id = queue.append(b"sure", Priority::Standard).unwrap();
        assert!(queue.ack(id).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_group_sync_fails_every_frame_written_before_it() {
        let dir = tmp_dir("group-fault");
        let handle = FaultPlan::new(0xF4)
            .rule(FaultRule::at("queue.fsync").nth_call(0).fail_transient())
            .install();
        let (queue, _) = DiskQueue::open(DiskQueueConfig::new(&dir).with_faults(handle)).unwrap();
        let s = &*queue.shared;
        // Two frames in one group: the leader's sync fails, and the
        // follower must not lead a retry that could report success for
        // pages the failed writeback left clean.
        let leader = s.write_record(b"leader", Priority::Standard).unwrap();
        let follower = s.write_record(b"follower", Priority::Standard).unwrap();
        assert!(matches!(s.await_durable(leader), Err(QueueError::Fault(_))));
        assert!(matches!(s.await_durable(follower), Err(QueueError::Io(_))));
        assert_eq!(queue.stats().syncs, 0, "no retry sync ran for the group");
        // Frames written after the failure commit normally.
        let id = queue.append(b"after", Priority::Standard).unwrap();
        assert_eq!(id, follower + 1);
        assert_eq!(queue.stats().syncs, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_appends_get_contiguous_ids_from_fewer_syncs() {
        let dir = tmp_dir("group");
        let (queue, _) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        let start = std::sync::Barrier::new(8);
        let mut ids: Vec<u64> = thread::scope(|s| {
            let threads: Vec<_> = (0..8u8)
                .map(|t| {
                    let (queue, start) = (&queue, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..64)
                            .map(|_| queue.append(&[t; 24], Priority::Standard).unwrap())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect()
        });
        ids.sort_unstable();
        assert_eq!(ids, (0..512).collect::<Vec<u64>>(), "contiguous and unique");
        let stats = queue.stats();
        assert_eq!(stats.appended, 512);
        assert!(
            stats.syncs > 0 && stats.syncs < 512,
            "appends must share group syncs: {stats:?}"
        );
        drop(queue);
        let (_, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        assert_eq!(report.pending.len(), 512);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_ack_whose_group_sync_fails_still_counts_and_survives_reopen() {
        let dir = tmp_dir("ack-sync-fault");
        // Sync call 0 is the append's group; every later one (the ack
        // journal's) fails.
        let handle = FaultPlan::new(0xF3)
            .rule(FaultRule::at("queue.fsync").after_calls(1).fail_transient())
            .install();
        let (queue, _) =
            DiskQueue::open(DiskQueueConfig::new(&dir).with_faults(handle.clone())).unwrap();
        let id = queue.append(b"served", Priority::Standard).unwrap();
        assert!(queue.ack(id).unwrap());
        let stats = queue.stats();
        assert_eq!((stats.acked, stats.depth, stats.acked_below), (1, 0, 1));
        drop(queue);
        assert_eq!(handle.fired(), 1, "the ack's group sync hit the fault");
        // A later sync of that journal would prove nothing, so the
        // committer checkpointed at once, well before `checkpoint_every`.
        let blob = fs::read(dir.join("checkpoint.cq")).unwrap();
        assert_eq!(frame::decode_checkpoint(&blob), Some((1, 1)));
        let (queue, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        assert!(report.pending.is_empty());
        assert!(!queue.ack(id).unwrap(), "still acked after reopen");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_the_queue_drains_the_committer() {
        let dir = tmp_dir("drain");
        let config = || DiskQueueConfig::new(&dir).with_checkpoint_every(4);
        let (queue, _) = DiskQueue::open(config()).unwrap();
        for i in 0u8..4 {
            let id = queue.append(&[i; 8], Priority::Standard).unwrap();
            assert!(queue.ack(id).unwrap());
        }
        drop(queue);
        // The fourth ack made a checkpoint due; it ran on the committer
        // before `drop` returned: blob published, journal compacted.
        let blob = fs::read(dir.join("checkpoint.cq")).unwrap();
        assert_eq!(frame::decode_checkpoint(&blob), Some((4, 4)));
        let journal = fs::metadata(dir.join("acks.cq")).unwrap().len();
        assert_eq!(journal, frame::FILE_HEADER_LEN as u64);
        let (_, report) = DiskQueue::open(config()).unwrap();
        assert!(report.pending.is_empty());
        assert_eq!(report.acked_below, 4);
        fs::remove_dir_all(&dir).unwrap();
    }
}

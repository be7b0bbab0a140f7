//! The disk-backed admission queue: segmented append-only records, an
//! fsynced ack journal, and an atomically renamed checkpoint.
//!
//! Write path: [`DiskQueue::append`] frames the payload
//! ([`crate::frame`]), appends it to the tail segment and fsyncs before
//! returning the record id — only then may the caller consider the
//! request accepted. Segments rotate at
//! [`DiskQueueConfig::segment_bytes`] and are deleted once every record
//! they hold is folded into the acked prefix.
//!
//! Ack path: [`DiskQueue::ack`] appends the id to the ack journal and
//! fsyncs. Acks arrive out of order (whichever lane finishes first),
//! so the queue keeps the contiguous prefix bound `acked_below` plus
//! the sparse set above it. Every [`DiskQueueConfig::checkpoint_every`]
//! acks the checkpoint blob is rewritten (tmp + rename, the only
//! atomic publish primitive a filesystem gives), the journal is
//! compacted to the sparse set, and fully-acked segments are reclaimed.
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
use std::io::Write;
use std::path::{Path, PathBuf};

/// Tuning knobs of one disk queue.
#[derive(Clone, Debug)]
pub struct DiskQueueConfig {
    /// Directory holding segments, the ack journal and the checkpoint.
    pub dir: PathBuf,
    /// Rotation threshold for data segments.
    pub segment_bytes: u64,
    /// Acks between checkpoints (journal compaction + reclamation).
    pub checkpoint_every: u64,
    /// Whether writes fsync before acceptance/ack (on by default;
    /// turning it off trades crash durability for throughput).
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
    /// Records durable but not yet acked.
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
}

/// Ids strictly below `next_after` are at or before this segment.
struct SegmentMeta {
    index: u64,
    next_after: u64,
}

struct Inner {
    tail: File,
    tail_index: u64,
    tail_len: u64,
    segments: Vec<SegmentMeta>,
    next_id: u64,
    ack_file: File,
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

/// The crash-safe disk queue. Shared across threads behind an `Arc`;
/// all operations take one internal lock (admission is fsync-bound,
/// not lock-bound).
pub struct DiskQueue {
    config: DiskQueueConfig,
    crash: Option<CrashPoint>,
    inner: Mutex<Inner>,
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
        let ack_file = OpenOptions::new().append(true).open(&ack_path)?;

        let report = RecoveryReport {
            acked_below,
            acked_above: acked.len() as u64,
            double_acks,
            truncated_bytes,
            segments: segments.len(),
            pending,
        };
        let queue = DiskQueue {
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
            config,
            crash,
        };
        Ok((queue, report))
    }

    /// Appends one record durably at a priority class and returns its
    /// id. Only after this returns may the request be reported as
    /// accepted: the frame is written and (by default) fsynced. On an
    /// fsync error the record state is *unknown* — the caller must
    /// fail the request, and the record may legally reappear as
    /// pending after a restart (at-least-once).
    pub fn append(&self, payload: &[u8], class: Priority) -> Result<u64, QueueError> {
        self.config.faults.gate("queue.append").map_err(fault_err)?;
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
                let _ = inner.tail.write_all(&frame_bytes[..frame_bytes.len() / 2]);
                let _ = inner.tail.flush();
                die();
            }
        }
        inner.tail.write_all(&frame_bytes)?;
        inner.tail_len += frame_bytes.len() as u64;
        inner.next_id = id + 1;
        if let Some(seg) = inner.segments.last_mut() {
            seg.next_after = id + 1;
        }
        self.sync(&inner.tail)?;
        inner.appended += 1;
        inner.live += 1;
        Ok(id)
    }

    /// Durably acknowledges one delivered record. Returns `Ok(false)`
    /// — without writing anything — when the id is already acked: the
    /// double-ack guard the crash suite asserts on.
    pub fn ack(&self, id: u64) -> Result<bool, QueueError> {
        let mut inner = self.inner.lock();
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
        let frame_bytes = frame::encode_ack(id);
        inner.ack_file.write_all(&frame_bytes)?;
        self.sync(&inner.ack_file)?;
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
        if inner.acks_since_checkpoint >= self.config.checkpoint_every {
            // A failed checkpoint is retried after later acks; the
            // journal keeps the full truth meanwhile.
            let _ = self.checkpoint_locked(&mut inner);
        }
        Ok(true)
    }

    /// Forces a checkpoint now (also runs automatically every
    /// [`DiskQueueConfig::checkpoint_every`] acks).
    pub fn checkpoint(&self) -> Result<(), QueueError> {
        let mut inner = self.inner.lock();
        self.checkpoint_locked(&mut inner)
    }

    /// Records appended but not yet acked (live depth).
    pub fn depth(&self) -> u64 {
        self.inner.lock().live
    }

    /// The contiguous acked prefix bound.
    pub fn acked_below(&self) -> u64 {
        self.inner.lock().acked_below
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> QueueStats {
        let inner = self.inner.lock();
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
        }
    }

    /// The queue directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

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
        // order.
        if self.config.fsync {
            inner.tail.sync_data()?;
        }
        let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
        f.write_all(&frame::encode_segment_header(next_index))?;
        if self.config.fsync {
            f.sync_all()?;
        }
        inner.tail = f;
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
        inner.ack_file = OpenOptions::new().append(true).open(&ack_path)?;
        if self.config.fsync {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
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
}

//! `condor-queue` — crash-safe disk-backed admission for the Condor
//! serving tier.
//!
//! The serving stack (`condor-serve`) admits a request the moment it
//! lands in an in-memory channel; a crash between admission and reply
//! silently drops it. This crate makes admission *durable*: a request
//! is accepted only after its payload is framed, appended to a
//! segmented on-disk log and fsynced, and it is retired only by an
//! explicit acknowledgement written after the caller has its result —
//! so `accepted ⇒ eventually resolved-or-failed` survives `kill -9`
//! at any instruction.
//!
//! Three pieces:
//!
//! * [`frame`] — the pure byte-level format: checksummed record
//!   frames, the ack journal, the checkpoint blob, and the scanners
//!   that recover the longest clean prefix of a torn file.
//! * [`DiskQueue`] — the segmented log + ack journal + checkpoint
//!   state machine: append/ack/checkpoint at runtime, full recovery
//!   (torn-tail truncation, journal replay, segment reclamation) at
//!   [`DiskQueue::open`].
//! * [`CircuitBreaker`] — per-instance closed → open → half-open
//!   health for the fleet, on a mockable clock.
//!
//! Fault injection reaches the queue through `condor-faults` sites
//! (`queue.append`, `queue.fsync`, `queue.checkpoint`,
//! `queue.segment_rotate`), and the [`crash`] module arms real
//! self-SIGKILLs inside those windows for the crash-recovery suite.

#![forbid(unsafe_code)]

pub mod breaker;
pub mod crash;
pub mod disk;
pub mod frame;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use crash::{CrashOp, CrashPoint, CRASH_POINT_ENV};
pub use disk::{DiskQueue, DiskQueueConfig, PendingRecord, QueueStats, RecoveryReport};

/// The priority class of one admitted request.
///
/// Classes order dispatch (`Interactive` first) and shedding
/// (`Batch` first) — the latency-driven vs throughput-driven axis of
/// the fpgaConvNet design space, applied at admission time. The class
/// is durable: it rides inside the `CQR2` record frame under the
/// checksum, so a redelivered request re-enters at the class it was
/// accepted at.
///
/// The derived `Ord` ranks by *urgency*: `Interactive < Standard <
/// Batch`, so "lowest class" (shed first) is the `Ord`-largest value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Latency-sensitive traffic: dispatched first, shed last.
    Interactive,
    /// The default class.
    #[default]
    Standard,
    /// Throughput traffic: dispatched under aging, shed first.
    Batch,
}

impl Priority {
    /// Every class, most-urgent first.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// Number of classes (array-index bound for per-class state).
    pub const COUNT: usize = 3;

    /// The class's dense index (0 = most urgent).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The on-disk class byte of the `CQR2` record frame.
    pub fn as_class(self) -> u8 {
        self as u8
    }

    /// Decodes an on-disk class byte. Unknown bytes (a future class
    /// this build does not know) degrade to `Standard` rather than
    /// failing the record: the payload is still checksum-clean.
    pub fn from_class(class: u8) -> Priority {
        match class {
            0 => Priority::Interactive,
            2 => Priority::Batch,
            _ => Priority::Standard,
        }
    }

    /// Stable lower-case label (metrics and logs).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }
}

/// Which admission queue a server or fleet runs on.
#[derive(Clone, Debug, Default)]
pub enum QueueBackend {
    /// The original in-memory channel: fastest, loses queued requests
    /// on crash. The default.
    #[default]
    InMemory,
    /// The disk-backed queue: every accepted request is durable and
    /// redelivered after a restart.
    Disk(DiskQueueConfig),
}

/// Errors out of the disk queue.
#[derive(Debug)]
pub enum QueueError {
    /// Filesystem failure underneath the queue.
    Io(std::io::Error),
    /// An injected fault fired at a queue site.
    Fault(String),
    /// A structurally impossible request or on-disk state (distinct
    /// from a torn tail, which recovery repairs silently).
    Corrupt(String),
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::Io(e) => write!(f, "queue i/o error: {e}"),
            QueueError::Fault(msg) => write!(f, "queue fault injected: {msg}"),
            QueueError::Corrupt(msg) => write!(f, "queue corruption: {msg}"),
        }
    }
}

impl std::error::Error for QueueError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueueError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for QueueError {
    fn from(e: std::io::Error) -> Self {
        QueueError::Io(e)
    }
}

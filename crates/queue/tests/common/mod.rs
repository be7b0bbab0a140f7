//! What the kill-9 suites (`crash.rs`, `group_crash.rs`) share: the
//! child-mode switch, the queue config the child and the recovering
//! parent both open, and the seed window.

use condor_queue::DiskQueueConfig;
use std::path::Path;

/// Child-mode switch: set to the queue directory by the parent.
pub const CHILD_ENV: &str = "CONDOR_QUEUE_CRASH_CHILD";

/// Small segments and frequent checkpoints, so rotation and compaction
/// happen every few operations.
pub fn child_config(dir: &Path) -> DiskQueueConfig {
    DiskQueueConfig::new(dir)
        .with_segment_bytes(256)
        .with_checkpoint_every(8)
}

/// `CONDOR_CRASH_SEEDS` is either a count (`"8"` → seeds 0..8) or a
/// range (`"8-15"`); unset, seeds 0..8.
pub fn seeds() -> Vec<u64> {
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

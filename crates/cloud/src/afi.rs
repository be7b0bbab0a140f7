//! Amazon FPGA Image (AFI) registry.
//!
//! Paper step 8: "using the AWS command line interface the AFI generation
//! process is started. The framework automatically generates the AFI
//! inside a user-specified Amazon S3 Bucket and returns the AFI global
//! ID, which is used to refer to an AFI from within an F1 instance. Once
//! the AFI generation completes, it can be loaded on an FPGA slot of an
//! F1 instance and executed."
//!
//! The registry validates the staged xclbin (it must exist in S3 and
//! target the F1 device), assigns `afi-`/`agfi-` identifiers and walks
//! the real pending → available lifecycle. Generation time is modelled
//! in deterministic "ticks" so tests control it explicitly.

use crate::s3::S3Client;
use crate::sdaccel::Xclbin;
use crate::CloudError;
use condor_faults::{FaultAction, FaultHandle};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Lifecycle state of an AFI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AfiState {
    /// Generation in progress (the multi-hour phase on real AWS).
    Pending,
    /// Ready to load on an F1 slot.
    Available,
    /// Generation failed validation.
    Failed,
}

#[derive(Clone, Debug)]
struct AfiRecord {
    afi_id: String,
    agfi_id: String,
    name: String,
    state: AfiState,
    ticks_remaining: u32,
    part: String,
}

/// The per-region AFI registry.
///
/// Fault sites: `afi.create_fpga_image` gates the `create-fpga-image`
/// call itself; `afi.generation` intercepts the generation outcome — a
/// `Fail*` action turns the image `Failed` (real AWS's ingestion
/// failure) and a `Delay` action stretches generation by one tick per
/// millisecond of delay.
pub struct AfiRegistry {
    records: Mutex<BTreeMap<String, AfiRecord>>,
    counter: Mutex<u64>,
    /// Ticks a generation takes before becoming available.
    generation_ticks: u32,
    faults: FaultHandle,
}

/// Device part AFIs must target (the F1 instance FPGA).
pub const F1_PART: &str = "xcvu9p";

impl Default for AfiRegistry {
    fn default() -> Self {
        AfiRegistry {
            records: Mutex::new(BTreeMap::new()),
            counter: Mutex::new(0),
            generation_ticks: 3,
            faults: FaultHandle::disabled(),
        }
    }
}

impl AfiRegistry {
    /// Creates a registry with the default generation latency (3 ticks).
    pub fn new() -> Self {
        AfiRegistry::default()
    }

    /// Creates a registry whose generations take `ticks` advances.
    pub fn with_generation_ticks(ticks: u32) -> Self {
        AfiRegistry {
            generation_ticks: ticks,
            ..AfiRegistry::default()
        }
    }

    /// Starts AFI generation from an xclbin staged in S3 (the
    /// `create-fpga-image` call). Returns `(afi_id, agfi_id)`.
    /// Arms fault injection on this registry (disabled by default).
    pub fn set_faults(&mut self, faults: FaultHandle) {
        self.faults = faults;
    }

    pub fn create_fpga_image(
        &self,
        s3: &S3Client,
        bucket: &str,
        key: &str,
        name: &str,
    ) -> Result<(String, String), CloudError> {
        self.faults.gate("afi.create_fpga_image")?;
        let payload = s3
            .get_object(bucket, key)
            .map_err(|e| CloudError::new("afi", format!("cannot stage design: {e}")))?;
        let part = Xclbin::parse_part(&payload)
            .map_err(|e| CloudError::new("afi", format!("invalid design checkpoint: {e}")))?;

        let mut counter = self.counter.lock();
        *counter += 1;
        let afi_id = format!("afi-{:017x}", *counter);
        let agfi_id = format!("agfi-{:016x}", *counter);
        drop(counter);

        let (state, ticks) = if part == F1_PART {
            if self.generation_ticks == 0 {
                (AfiState::Available, 0)
            } else {
                (AfiState::Pending, self.generation_ticks)
            }
        } else {
            // Real AWS fails the ingestion of a non-VU9P design.
            (AfiState::Failed, 0)
        };
        // Injected generation outcomes: fail the image outright, or
        // stretch the pending phase (1 extra tick per ms of delay).
        let (state, ticks) = match self.faults.check("afi.generation") {
            Some(FaultAction::FailTransient)
            | Some(FaultAction::FailPermanent)
            | Some(FaultAction::Abort) => (AfiState::Failed, 0),
            Some(FaultAction::Delay(d)) => (
                state,
                ticks.saturating_add(d.as_millis().min(u32::MAX as u128) as u32),
            ),
            // Timing actions only fire at DES timing consults.
            Some(_) | None => (state, ticks),
        };
        self.records.lock().insert(
            afi_id.clone(),
            AfiRecord {
                afi_id: afi_id.clone(),
                agfi_id: agfi_id.clone(),
                name: name.to_string(),
                state,
                ticks_remaining: ticks,
                part,
            },
        );
        Ok((afi_id, agfi_id))
    }

    /// Advances simulated time by one tick (one poll of
    /// `describe-fpga-images` on real AWS).
    pub fn tick(&self) {
        for rec in self.records.lock().values_mut() {
            if rec.state == AfiState::Pending {
                rec.ticks_remaining = rec.ticks_remaining.saturating_sub(1);
                if rec.ticks_remaining == 0 {
                    rec.state = AfiState::Available;
                }
            }
        }
    }

    /// Polls until the AFI leaves `Pending`, up to `max_ticks`.
    pub fn wait_available(&self, afi_id: &str, max_ticks: u32) -> Result<AfiState, CloudError> {
        for _ in 0..=max_ticks {
            match self.describe(afi_id)? {
                AfiState::Pending => self.tick(),
                done => return Ok(done),
            }
        }
        Err(CloudError::new(
            "afi",
            format!("timed out waiting for {afi_id} to become available"),
        ))
    }

    /// State of an AFI.
    pub fn describe(&self, afi_id: &str) -> Result<AfiState, CloudError> {
        self.records
            .lock()
            .get(afi_id)
            .map(|r| r.state)
            .ok_or_else(|| CloudError::new("afi", format!("no such AFI: {afi_id}")))
    }

    /// The global (`agfi-`) id for an AFI, used from within an instance.
    pub fn agfi_of(&self, afi_id: &str) -> Result<String, CloudError> {
        self.records
            .lock()
            .get(afi_id)
            .map(|r| r.agfi_id.clone())
            .ok_or_else(|| CloudError::new("afi", format!("no such AFI: {afi_id}")))
    }

    /// Resolves an `agfi-` id to its state (what an F1 slot load checks).
    pub fn describe_by_agfi(&self, agfi_id: &str) -> Result<AfiState, CloudError> {
        self.records
            .lock()
            .values()
            .find(|r| r.agfi_id == agfi_id)
            .map(|r| r.state)
            .ok_or_else(|| CloudError::new("afi", format!("no such AGFI: {agfi_id}")))
    }

    /// The FPGA part an AFI was built for.
    pub fn part_of(&self, afi_id: &str) -> Result<String, CloudError> {
        self.records
            .lock()
            .get(afi_id)
            .map(|r| r.part.clone())
            .ok_or_else(|| CloudError::new("afi", format!("no such AFI: {afi_id}")))
    }

    /// Lists `(afi_id, name, state)` for all images.
    pub fn list(&self) -> Vec<(String, String, AfiState)> {
        self.records
            .lock()
            .values()
            .map(|r| (r.afi_id.clone(), r.name.clone(), r.state))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::sdaccel::{xocc_link, XoFile};

    fn staged_xclbin(s3: &S3Client, board: &str) -> (String, String) {
        let xo = XoFile::package("k", "v", b"IP".as_slice().into()).unwrap();
        let xclbin = xocc_link(&xo, board).unwrap();
        s3.create_bucket("condor-bucket").ok();
        let key = format!("designs/{board}.xclbin");
        s3.put_object("condor-bucket", &key, xclbin.bytes).unwrap();
        ("condor-bucket".to_string(), key)
    }

    #[test]
    fn lifecycle_pending_to_available() {
        let s3 = S3Client::new();
        let (bucket, key) = staged_xclbin(&s3, "aws-f1");
        let reg = AfiRegistry::with_generation_ticks(2);
        let (afi, agfi) = reg.create_fpga_image(&s3, &bucket, &key, "lenet").unwrap();
        assert!(afi.starts_with("afi-"));
        assert!(agfi.starts_with("agfi-"));
        assert_eq!(reg.describe(&afi).unwrap(), AfiState::Pending);
        reg.tick();
        assert_eq!(reg.describe(&afi).unwrap(), AfiState::Pending);
        reg.tick();
        assert_eq!(reg.describe(&afi).unwrap(), AfiState::Available);
        assert_eq!(reg.describe_by_agfi(&agfi).unwrap(), AfiState::Available);
    }

    #[test]
    fn wait_available_polls() {
        let s3 = S3Client::new();
        let (bucket, key) = staged_xclbin(&s3, "aws-f1");
        let reg = AfiRegistry::with_generation_ticks(3);
        let (afi, _) = reg.create_fpga_image(&s3, &bucket, &key, "n").unwrap();
        assert_eq!(reg.wait_available(&afi, 10).unwrap(), AfiState::Available);
    }

    #[test]
    fn wait_times_out() {
        let s3 = S3Client::new();
        let (bucket, key) = staged_xclbin(&s3, "aws-f1");
        let reg = AfiRegistry::with_generation_ticks(100);
        let (afi, _) = reg.create_fpga_image(&s3, &bucket, &key, "n").unwrap();
        assert!(reg.wait_available(&afi, 3).is_err());
    }

    #[test]
    fn wrong_device_fails_generation() {
        let s3 = S3Client::new();
        let (bucket, key) = staged_xclbin(&s3, "pynq-z1"); // xc7z020
        let reg = AfiRegistry::new();
        let (afi, _) = reg.create_fpga_image(&s3, &bucket, &key, "zynq").unwrap();
        assert_eq!(reg.describe(&afi).unwrap(), AfiState::Failed);
    }

    #[test]
    fn missing_object_rejected() {
        let s3 = S3Client::new();
        s3.create_bucket("condor-bucket").unwrap();
        let reg = AfiRegistry::new();
        let err = reg
            .create_fpga_image(&s3, "condor-bucket", "nope.xclbin", "x")
            .unwrap_err();
        assert!(err.message.contains("cannot stage design"));
    }

    #[test]
    fn garbage_payload_rejected() {
        let s3 = S3Client::new();
        s3.create_bucket("condor-bucket").unwrap();
        s3.put_object(
            "condor-bucket",
            "bad.bin",
            b"not-an-xclbin".as_slice().into(),
        )
        .unwrap();
        let reg = AfiRegistry::new();
        let err = reg
            .create_fpga_image(&s3, "condor-bucket", "bad.bin", "x")
            .unwrap_err();
        assert!(err.message.contains("invalid design checkpoint"));
    }

    #[test]
    fn ids_are_unique_and_listed() {
        let s3 = S3Client::new();
        let (bucket, key) = staged_xclbin(&s3, "aws-f1");
        let reg = AfiRegistry::with_generation_ticks(0);
        let (a, _) = reg.create_fpga_image(&s3, &bucket, &key, "one").unwrap();
        let (b, _) = reg.create_fpga_image(&s3, &bucket, &key, "two").unwrap();
        assert_ne!(a, b);
        assert_eq!(reg.list().len(), 2);
        // Zero-tick registries publish immediately.
        assert_eq!(reg.describe(&a).unwrap(), AfiState::Available);
        assert_eq!(reg.part_of(&a).unwrap(), F1_PART);
    }

    #[test]
    fn unknown_ids_error() {
        let reg = AfiRegistry::new();
        assert!(reg.describe("afi-ffff").is_err());
        assert!(reg.describe_by_agfi("agfi-ffff").is_err());
        assert!(reg.agfi_of("afi-ffff").is_err());
    }
}

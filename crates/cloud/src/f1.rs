//! Amazon EC2 F1 instance management.
//!
//! F1 instances expose one or more FPGA *slots*; an available AFI is
//! loaded onto a slot by its global (`agfi-`) id and the host then talks
//! to the loaded accelerator through the SDAccel runtime (paper steps
//! 7–8).

use crate::afi::{AfiRegistry, AfiState};
use crate::CloudError;
use condor_faults::FaultHandle;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// The F1 instance sizes Amazon offers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum F1InstanceType {
    /// 1 FPGA slot.
    F1_2xlarge,
    /// 2 FPGA slots.
    F1_4xlarge,
    /// 8 FPGA slots.
    F1_16xlarge,
}

impl F1InstanceType {
    /// Number of FPGA slots on this instance size.
    pub fn slots(&self) -> usize {
        match self {
            F1InstanceType::F1_2xlarge => 1,
            F1InstanceType::F1_4xlarge => 2,
            F1InstanceType::F1_16xlarge => 8,
        }
    }

    /// The API name of the instance type.
    pub fn api_name(&self) -> &'static str {
        match self {
            F1InstanceType::F1_2xlarge => "f1.2xlarge",
            F1InstanceType::F1_4xlarge => "f1.4xlarge",
            F1InstanceType::F1_16xlarge => "f1.16xlarge",
        }
    }
}

/// A running F1 instance with its FPGA slots.
#[derive(Clone, Debug, PartialEq)]
pub struct F1Instance {
    /// EC2-style instance id.
    pub instance_id: String,
    /// Instance size.
    pub instance_type: F1InstanceType,
    /// Loaded AGFI per slot (`None` = empty slot).
    pub slots: Vec<Option<String>>,
}

/// Launches and tracks F1 instances.
///
/// Fault sites: `f1.load_afi` gates `fpga-load-local-image` (a slot
/// failing to program) and `f1.clear_slot` gates
/// `fpga-clear-local-image`.
#[derive(Default)]
pub struct F1Manager {
    instances: Mutex<BTreeMap<String, F1Instance>>,
    counter: Mutex<u64>,
    faults: FaultHandle,
}

impl F1Manager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        F1Manager::default()
    }

    /// Arms fault injection on this manager (disabled by default).
    pub fn set_faults(&mut self, faults: FaultHandle) {
        self.faults = faults;
    }

    /// Launches an instance and returns its id.
    pub fn launch(&self, instance_type: F1InstanceType) -> String {
        let mut counter = self.counter.lock();
        *counter += 1;
        let id = format!("i-{:017x}", *counter);
        drop(counter);
        self.instances.lock().insert(
            id.clone(),
            F1Instance {
                instance_id: id.clone(),
                instance_type,
                slots: vec![None; instance_type.slots()],
            },
        );
        id
    }

    /// Loads an AFI (by global id) onto a slot — the
    /// `fpga-load-local-image` step. The AFI must be `Available`.
    pub fn load_afi(
        &self,
        registry: &AfiRegistry,
        instance_id: &str,
        slot: usize,
        agfi_id: &str,
    ) -> Result<(), CloudError> {
        self.faults.gate("f1.load_afi")?;
        match registry.describe_by_agfi(agfi_id)? {
            AfiState::Available => {}
            AfiState::Pending => {
                return Err(CloudError::new(
                    "f1",
                    format!("AFI {agfi_id} is still pending; wait for generation to complete"),
                ))
            }
            AfiState::Failed => {
                return Err(CloudError::new(
                    "f1",
                    format!("AFI {agfi_id} failed generation and cannot be loaded"),
                ))
            }
        }
        let mut instances = self.instances.lock();
        let inst = instances
            .get_mut(instance_id)
            .ok_or_else(|| CloudError::new("f1", format!("no such instance: {instance_id}")))?;
        let slot_ref = inst.slots.get_mut(slot).ok_or_else(|| {
            CloudError::new(
                "f1",
                format!(
                    "slot {slot} out of range for {} ({} slots)",
                    inst.instance_type.api_name(),
                    inst.instance_type.slots()
                ),
            )
        })?;
        *slot_ref = Some(agfi_id.to_string());
        Ok(())
    }

    /// The AGFI currently loaded on a slot, if any.
    pub fn loaded_afi(&self, instance_id: &str, slot: usize) -> Result<Option<String>, CloudError> {
        let instances = self.instances.lock();
        let inst = instances
            .get(instance_id)
            .ok_or_else(|| CloudError::new("f1", format!("no such instance: {instance_id}")))?;
        inst.slots
            .get(slot)
            .cloned()
            .ok_or_else(|| CloudError::new("f1", format!("slot {slot} out of range")))
    }

    /// Clears a slot (`fpga-clear-local-image`).
    pub fn clear_slot(&self, instance_id: &str, slot: usize) -> Result<(), CloudError> {
        self.faults.gate("f1.clear_slot")?;
        let mut instances = self.instances.lock();
        let inst = instances
            .get_mut(instance_id)
            .ok_or_else(|| CloudError::new("f1", format!("no such instance: {instance_id}")))?;
        let slot_ref = inst
            .slots
            .get_mut(slot)
            .ok_or_else(|| CloudError::new("f1", format!("slot {slot} out of range")))?;
        *slot_ref = None;
        Ok(())
    }

    /// Snapshot of an instance.
    pub fn describe(&self, instance_id: &str) -> Result<F1Instance, CloudError> {
        self.instances
            .lock()
            .get(instance_id)
            .cloned()
            .ok_or_else(|| CloudError::new("f1", format!("no such instance: {instance_id}")))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::s3::S3Client;
    use crate::sdaccel::{xocc_link, XoFile};

    fn available_agfi(reg: &AfiRegistry) -> String {
        let s3 = S3Client::new();
        s3.create_bucket("condor-bucket").unwrap();
        let xo = XoFile::package("k", "v", b"IP".as_slice().into()).unwrap();
        let xclbin = xocc_link(&xo, "aws-f1").unwrap();
        s3.put_object("condor-bucket", "d.xclbin", xclbin.bytes)
            .unwrap();
        let (afi, agfi) = reg
            .create_fpga_image(&s3, "condor-bucket", "d.xclbin", "n")
            .unwrap();
        reg.wait_available(&afi, 10).unwrap();
        agfi
    }

    #[test]
    fn slot_counts_match_instance_types() {
        assert_eq!(F1InstanceType::F1_2xlarge.slots(), 1);
        assert_eq!(F1InstanceType::F1_4xlarge.slots(), 2);
        assert_eq!(F1InstanceType::F1_16xlarge.slots(), 8);
        assert_eq!(F1InstanceType::F1_2xlarge.api_name(), "f1.2xlarge");
    }

    #[test]
    fn load_available_afi_on_slot() {
        let reg = AfiRegistry::new();
        let agfi = available_agfi(&reg);
        let mgr = F1Manager::new();
        let id = mgr.launch(F1InstanceType::F1_2xlarge);
        mgr.load_afi(&reg, &id, 0, &agfi).unwrap();
        assert_eq!(mgr.loaded_afi(&id, 0).unwrap(), Some(agfi));
    }

    #[test]
    fn pending_afi_cannot_load() {
        let reg = AfiRegistry::with_generation_ticks(100);
        let s3 = S3Client::new();
        s3.create_bucket("condor-bucket").unwrap();
        let xo = XoFile::package("k", "v", b"IP".as_slice().into()).unwrap();
        let xclbin = xocc_link(&xo, "aws-f1").unwrap();
        s3.put_object("condor-bucket", "d.xclbin", xclbin.bytes)
            .unwrap();
        let (_, agfi) = reg
            .create_fpga_image(&s3, "condor-bucket", "d.xclbin", "n")
            .unwrap();
        let mgr = F1Manager::new();
        let id = mgr.launch(F1InstanceType::F1_2xlarge);
        let err = mgr.load_afi(&reg, &id, 0, &agfi).unwrap_err();
        assert!(err.message.contains("still pending"));
    }

    #[test]
    fn slot_out_of_range() {
        let reg = AfiRegistry::new();
        let agfi = available_agfi(&reg);
        let mgr = F1Manager::new();
        let id = mgr.launch(F1InstanceType::F1_2xlarge);
        let err = mgr.load_afi(&reg, &id, 1, &agfi).unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn clear_slot_unloads_the_afi() {
        let reg = AfiRegistry::new();
        let agfi = available_agfi(&reg);
        let mgr = F1Manager::new();
        let id = mgr.launch(F1InstanceType::F1_4xlarge);
        mgr.load_afi(&reg, &id, 1, &agfi).unwrap();
        mgr.clear_slot(&id, 1).unwrap();
        assert_eq!(mgr.loaded_afi(&id, 1).unwrap(), None);
    }

    #[test]
    fn load_on_all_slots() {
        let reg = AfiRegistry::new();
        let agfi = available_agfi(&reg);
        let mgr = F1Manager::new();
        let id = mgr.launch(F1InstanceType::F1_16xlarge);
        let slots = mgr.describe(&id).unwrap().slots.len();
        assert_eq!(slots, 8);
        for slot in 0..slots {
            mgr.load_afi(&reg, &id, slot, &agfi).unwrap();
        }
        for slot in 0..slots {
            assert_eq!(
                mgr.loaded_afi(&id, slot).unwrap().as_deref(),
                Some(agfi.as_str())
            );
        }
    }

    #[test]
    fn instance_ids_unique() {
        let mgr = F1Manager::new();
        let a = mgr.launch(F1InstanceType::F1_2xlarge);
        let b = mgr.launch(F1InstanceType::F1_16xlarge);
        assert_ne!(a, b);
        assert_eq!(mgr.describe(&b).unwrap().slots.len(), 8);
    }
}

//! Fault-injection behaviour of the simulated cloud services: every
//! site fires where armed, errors carry the transient/permanent
//! classification, and an empty plan leaves the services untouched.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor_cloud::{xocc_link, AfiRegistry, AfiState, F1InstanceType, F1Manager, S3Client, XoFile};
use condor_faults::{FaultPlan, FaultRule};
use std::time::Duration;

fn stage(s3: &S3Client) -> (String, String) {
    let xo = XoFile::package("k", "v", b"IP".as_slice().into()).unwrap();
    let xclbin = xocc_link(&xo, "aws-f1").unwrap();
    s3.create_bucket("condor-bucket").ok();
    s3.put_object("condor-bucket", "d.xclbin", xclbin.bytes)
        .unwrap();
    ("condor-bucket".to_string(), "d.xclbin".to_string())
}

#[test]
fn s3_transfer_faults_are_transient_and_logged() {
    let handle = FaultPlan::new(5)
        .rule(FaultRule::at("s3.put_object").nth_call(0).fail_transient())
        .rule(FaultRule::at("s3.get_object").nth_call(1).fail_permanent())
        .install();
    let mut s3 = S3Client::new();
    s3.set_faults(handle.clone());
    s3.create_bucket("b-1").unwrap();

    let err = s3
        .put_object("b-1", "k", b"x".as_slice().into())
        .unwrap_err();
    assert_eq!(err.service, "s3");
    assert!(err.transient);
    // Second attempt (the retry) succeeds.
    s3.put_object("b-1", "k", b"x".as_slice().into()).unwrap();

    assert!(s3.get_object("b-1", "k").is_ok());
    let err = s3.get_object("b-1", "k").unwrap_err();
    assert!(!err.transient);

    let log = handle.log();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].site, "s3.put_object");
    assert_eq!(log[1].site, "s3.get_object");
}

#[test]
fn injected_generation_failure_fails_the_afi() {
    let s3 = S3Client::new();
    let (bucket, key) = stage(&s3);
    let mut reg = AfiRegistry::new();
    reg.set_faults(
        FaultPlan::new(1)
            .rule(FaultRule::at("afi.generation").nth_call(0).fail_permanent())
            .install(),
    );
    let (afi, _) = reg.create_fpga_image(&s3, &bucket, &key, "n").unwrap();
    assert_eq!(reg.describe(&afi).unwrap(), AfiState::Failed);
    // The window was one call: the next generation succeeds.
    let (afi2, _) = reg.create_fpga_image(&s3, &bucket, &key, "n2").unwrap();
    assert_eq!(reg.wait_available(&afi2, 10).unwrap(), AfiState::Available);
}

#[test]
fn injected_generation_delay_stretches_the_pending_phase() {
    let s3 = S3Client::new();
    let (bucket, key) = stage(&s3);
    let mut reg = AfiRegistry::with_generation_ticks(1);
    reg.set_faults(
        FaultPlan::new(1)
            .rule(
                FaultRule::at("afi.generation")
                    .nth_call(0)
                    .delay(Duration::from_millis(4)),
            )
            .install(),
    );
    let (afi, _) = reg.create_fpga_image(&s3, &bucket, &key, "n").unwrap();
    // 1 base tick + 4 injected: still pending after 3 ticks.
    for _ in 0..3 {
        reg.tick();
    }
    assert_eq!(reg.describe(&afi).unwrap(), AfiState::Pending);
    assert_eq!(reg.wait_available(&afi, 10).unwrap(), AfiState::Available);
}

#[test]
fn slot_load_faults_fire_and_clear() {
    let s3 = S3Client::new();
    let (bucket, key) = stage(&s3);
    let reg = AfiRegistry::new();
    let (afi, agfi) = reg.create_fpga_image(&s3, &bucket, &key, "n").unwrap();
    reg.wait_available(&afi, 10).unwrap();

    let mut mgr = F1Manager::new();
    mgr.set_faults(
        FaultPlan::new(2)
            .rule(FaultRule::at("f1.load_afi").first_calls(2).fail_transient())
            .install(),
    );
    let id = mgr.launch(F1InstanceType::F1_2xlarge);
    assert!(mgr.load_afi(&reg, &id, 0, &agfi).unwrap_err().transient);
    assert!(mgr.load_afi(&reg, &id, 0, &agfi).is_err());
    // Window cleared: third attempt programs the slot.
    mgr.load_afi(&reg, &id, 0, &agfi).unwrap();
    assert_eq!(mgr.loaded_afi(&id, 0).unwrap(), Some(agfi));
}

#[test]
fn empty_plan_changes_nothing() {
    let handle = FaultPlan::new(1234).install();
    let mut s3 = S3Client::new();
    s3.set_faults(handle.clone());
    let (bucket, key) = stage(&s3);
    let mut reg = AfiRegistry::new();
    reg.set_faults(handle.clone());
    let mut mgr = F1Manager::new();
    mgr.set_faults(handle.clone());

    let (afi, agfi) = reg.create_fpga_image(&s3, &bucket, &key, "n").unwrap();
    reg.wait_available(&afi, 10).unwrap();
    let id = mgr.launch(F1InstanceType::F1_4xlarge);
    mgr.load_afi(&reg, &id, 0, &agfi).unwrap();
    mgr.load_afi(&reg, &id, 1, &agfi).unwrap();
    mgr.clear_slot(&id, 1).unwrap();
    assert_eq!(handle.fired(), 0, "empty plan must never fire");
}

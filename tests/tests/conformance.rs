//! Conformance: one model, every execution path, identical answers —
//! with and without faults in the substrate.
//!
//! The pipeline under test is the full paper workflow: prototxt +
//! synthetic caffemodel → frontend → build (static checks pass) →
//! deploy on-premise AND cloud → infer. All four execution paths
//! (GoldenEngine, FastEngine, on-premise runtime, cloud runtime) must
//! agree within the workspace tolerance (1e-4), the two runtimes must
//! match FastEngine bit for bit, and a mild fault plan
//! over the deployment steps must change *nothing* about the numbers —
//! retries absorb the faults.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor::{CloudContext, Condor, DeployTarget, Deployment, OnPremiseContext};
use condor_faults::{FaultPlan, FaultRule};
use condor_integration_tests::fabricate_lenet_caffemodel;
use condor_nn::{dataset, zoo, FastEngine, GoldenEngine};
use condor_tensor::{AllClose, Tensor};

const SEED: u64 = 71;

fn build_from_caffe() -> condor::BuiltAccelerator {
    let (_, caffemodel) = fabricate_lenet_caffemodel(SEED);
    let built = Condor::from_caffe(zoo::lenet_prototxt(), Some(&caffemodel))
        .unwrap()
        .board("aws-f1")
        .freq_mhz(180.0)
        .build()
        .unwrap();
    assert!(
        built.check.passed(),
        "static checks must pass:\n{}",
        built.check.render()
    );
    built
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn test_images() -> Vec<Tensor> {
    dataset::mnist_like(6, 42)
        .into_iter()
        .map(|s| s.image)
        .collect()
}

/// All four paths agree within 1e-4 on a clean substrate, and both
/// hardware paths compute FastEngine's bits.
#[test]
fn every_execution_path_agrees_clean() {
    let (reference, _) = fabricate_lenet_caffemodel(SEED);
    let images = test_images();
    let golden = GoldenEngine::new(&reference)
        .unwrap()
        .infer_batch(&images)
        .unwrap();
    let fast = FastEngine::new(&reference)
        .unwrap()
        .infer_batch(&images)
        .unwrap();

    let onprem = build_from_caffe()
        .deploy(&DeployTarget::OnPremise)
        .unwrap()
        .infer_batch(&images)
        .unwrap();
    let ctx = CloudContext::new("conformance-bucket");
    let cloud = build_from_caffe()
        .deploy(&DeployTarget::Cloud(&ctx))
        .unwrap()
        .infer_batch(&images)
        .unwrap();

    for i in 0..images.len() {
        assert!(fast[i].all_close(&golden[i]), "fast vs golden, image {i}");
        assert!(
            onprem[i].all_close(&golden[i]),
            "onprem vs golden, image {i}"
        );
        assert!(cloud[i].all_close(&golden[i]), "cloud vs golden, image {i}");
        // Both hardware paths run FastEngine's own steps in their PEs.
        assert_eq!(
            bits(&onprem[i]),
            bits(&fast[i]),
            "onprem vs fast, image {i}"
        );
        assert_eq!(bits(&cloud[i]), bits(&fast[i]), "cloud vs fast, image {i}");
    }
}

/// The same pipeline under a mild fault plan: transient faults fire on
/// the staging upload, the toolchain and a slot load, retries absorb
/// every one, and the numbers do not move.
#[test]
fn deployment_survives_mild_faults_with_identical_results() {
    let (reference, _) = fabricate_lenet_caffemodel(SEED);
    let images = test_images();
    let golden = GoldenEngine::new(&reference)
        .unwrap()
        .infer_batch(&images)
        .unwrap();

    // Cloud path under fire.
    let ctx = CloudContext::new("conformance-bucket").with_fault_plan(
        FaultPlan::new(0xC04F)
            .rule(FaultRule::at("s3.put_object").nth_call(0).fail_transient())
            .rule(
                FaultRule::at("sdaccel.xocc_link")
                    .nth_call(0)
                    .fail_transient(),
            )
            .rule(FaultRule::at("f1.load_afi").nth_call(0).fail_transient()),
    );
    let deployed = build_from_caffe()
        .deploy(&DeployTarget::Cloud(&ctx))
        .unwrap();
    assert!(
        ctx.faults.fired() >= 3,
        "the mild plan must actually have fired, got {}",
        ctx.faults.fired()
    );
    let Deployment::Cloud { slots, .. } = &deployed.deployment else {
        panic!("expected cloud deployment");
    };
    assert!(!slots.is_empty());
    let cloud = deployed.infer_batch(&images).unwrap();

    // On-premise path under fire.
    let onprem_ctx = OnPremiseContext::new().with_fault_plan(
        FaultPlan::new(0x04EF)
            .rule(
                FaultRule::at("sdaccel.xocc_link")
                    .nth_call(0)
                    .fail_transient(),
            )
            .rule(
                FaultRule::at("sdaccel.program")
                    .nth_call(0)
                    .fail_transient(),
            ),
    );
    let onprem = build_from_caffe()
        .deploy(&DeployTarget::OnPremiseWith(&onprem_ctx))
        .unwrap()
        .infer_batch(&images)
        .unwrap();
    assert_eq!(onprem_ctx.faults.fired(), 2);

    for i in 0..images.len() {
        assert!(
            cloud[i].all_close(&golden[i]),
            "faulted cloud deploy changed the numbers: image {i}"
        );
        assert!(
            onprem[i].all_close(&golden[i]),
            "faulted on-premise deploy changed the numbers: image {i}"
        );
    }
}

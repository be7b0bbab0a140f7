//! The weights of a Caffe import reach the deployed accelerator bit for
//! bit, and neither network representation on the way carries a copy.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor::frontend::{analyze, network_to_caffe};
use condor::{
    CloudContext, Condor, DeployTarget, FrontendInput, HardwareConfig, NetworkRepresentation,
};
use condor_nn::{zoo, Network};
use condor_tensor::Tensor;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `got` carries exactly the weights and biases of `want`, in shape and
/// in every bit.
fn assert_same_weights(want: &Network, got: &Network) {
    assert_eq!(
        got.weights.keys().collect::<Vec<_>>(),
        want.weights.keys().collect::<Vec<_>>(),
        "{}: weighted layers",
        want.name
    );
    for (name, w) in &want.weights {
        let g = got.weights_of(name).unwrap();
        assert_eq!(g.weights.shape(), w.weights.shape(), "{name} weight shape");
        assert_eq!(bits(&g.weights), bits(&w.weights), "{name} weights");
        match (&g.bias, &w.bias) {
            (Some(gb), Some(wb)) => {
                assert_eq!(gb.shape(), wb.shape(), "{name} bias shape");
                assert_eq!(bits(gb), bits(wb), "{name} bias");
            }
            (None, None) => {}
            _ => panic!("{name}: bias present on one side only"),
        }
    }
}

/// Exports `source` to Caffe files and runs them through input analysis,
/// the build and a cloud deployment.
fn caffe_through_the_flow(source: Network) {
    let proto = network_to_caffe(&source);
    let prototxt = proto.to_prototxt();
    let caffemodel = proto.encode();

    let loaded = analyze(FrontendInput::Caffe {
        prototxt: prototxt.clone(),
        caffemodel: Some(caffemodel.clone()),
    })
    .unwrap();
    assert_same_weights(&source, &loaded.network);
    assert!(loaded.representation.network.weights.is_empty());
    assert_eq!(loaded.representation.network, loaded.network.topology());
    // The document a representation of the weighted network emits.
    let weighted_repr = NetworkRepresentation::new(loaded.network, HardwareConfig::default());
    assert_eq!(loaded.representation.to_text(), weighted_repr.to_text());

    let built = Condor::from_caffe(&prototxt, Some(&caffemodel))
        .unwrap()
        .build()
        .unwrap();
    assert!(built.representation.network.weights.is_empty());
    let weighted_repr =
        NetworkRepresentation::new(built.network.clone(), built.representation.hardware.clone());
    assert_eq!(built.representation.to_text(), weighted_repr.to_text());

    let ctx = CloudContext::new("weights-bucket");
    let deployed = built.deploy(&DeployTarget::Cloud(&ctx)).unwrap();
    assert_same_weights(&source, &deployed.built().network);
}

#[test]
fn lenet_weights_reach_the_cloud_bit_for_bit() {
    caffe_through_the_flow(zoo::lenet_weighted(36));
}

#[test]
fn tc1_weights_reach_the_cloud_bit_for_bit() {
    caffe_through_the_flow(zoo::tc1_weighted(36));
}

#[test]
fn resnet_block_weights_reach_the_cloud_bit_for_bit() {
    caffe_through_the_flow(zoo::resnet_block_weighted(36));
}

//! Shared fixtures for the cross-crate integration tests.

#![forbid(unsafe_code)]

use condor_caffe::{BlobProto, NetParameter};
use condor_nn::{zoo, Network};

/// Fabricates `caffemodel` bytes for any zoo network whose prototxt we
/// ship: the topology with deterministic weight blobs attached.
pub fn fabricate_lenet_caffemodel(seed: u64) -> (Network, Vec<u8>) {
    let trained = lenet_weighted(seed);
    let mut proto =
        NetParameter::from_prototxt(zoo::lenet_prototxt()).expect("reference prototxt parses");
    for lp in &mut proto.layer {
        if let Some(lw) = trained.weights_of(&lp.name) {
            lp.blobs.push(BlobProto::from_tensor(&lw.weights));
            if let Some(b) = &lw.bias {
                lp.blobs.push(BlobProto::from_tensor(b));
            }
        }
    }
    (trained, proto.encode())
}

/// Deterministically weighted LeNet (re-exported for convenience).
pub fn lenet_weighted(seed: u64) -> Network {
    zoo::lenet_weighted(seed)
}

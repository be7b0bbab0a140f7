//! Model zoo: the three networks the paper's evaluation uses.
//!
//! * **TC1** — "the CNN used in \[25\] trained on the USPS dataset". The
//!   paper never prints TC1's topology, so we reconstruct a USPS-scale
//!   CNN consistent with the earlier work's description (16×16 grey
//!   input, two small convolution/pooling stages, a compact MLP, 10
//!   classes). The reconstruction is documented in DESIGN.md; all Table 1
//!   comparisons treat it as such.
//! * **LeNet** — the Caffe MNIST reference model the paper links
//!   (`examples/mnist/lenet.prototxt`), inference layers only.
//! * **VGG-16** — the standard 13-convolution configuration-D network,
//!   used by Table 2 for the feature-extraction throughput study.
//! * **ResNet block** — a hand-written residual block (conv → conv →
//!   eltwise-add skip), the workspace's conformance fixture for
//!   DAG-shaped networks across the frontend, check, deploy and
//!   inference paths.

use crate::graph::NetworkBuilder;
use crate::layer::{EltwiseOp, Layer, LayerKind, PoolKind};
use crate::network::Network;
use condor_tensor::Shape;

fn conv(name: &str, num_output: usize, kernel: usize, stride: usize, pad: usize) -> Layer {
    Layer::new(
        name,
        LayerKind::Convolution {
            num_output,
            kernel,
            stride,
            pad,
            bias: true,
        },
    )
}

fn maxpool(name: &str, kernel: usize, stride: usize) -> Layer {
    Layer::new(
        name,
        LayerKind::Pooling {
            method: PoolKind::Max,
            kernel,
            stride,
            pad: 0,
        },
    )
}

fn relu(name: &str) -> Layer {
    Layer::new(
        name,
        LayerKind::ReLU {
            negative_slope: 0.0,
        },
    )
}

fn ip(name: &str, num_output: usize) -> Layer {
    Layer::new(
        name,
        LayerKind::InnerProduct {
            num_output,
            bias: true,
        },
    )
}

/// TC1: the USPS network of the authors' earlier work (reconstructed —
/// see module docs). Input `1×16×16`, 10 classes.
pub fn tc1() -> Network {
    Network::new(
        "TC1",
        Shape::chw(1, 16, 16),
        vec![
            Layer::new("data", LayerKind::Input),
            conv("conv1", 8, 5, 1, 0), // 8×12×12
            relu("relu1"),
            maxpool("pool1", 2, 2),     // 8×6×6
            conv("conv2", 16, 5, 1, 0), // 16×2×2
            relu("relu2"),
            ip("ip1", 32),
            relu("relu3"),
            ip("ip2", 10),
            Layer::new("prob", LayerKind::Softmax { log: true }),
        ],
    )
    .expect("TC1 topology is valid")
}

/// LeNet, the Caffe MNIST reference model (inference layers). Input
/// `1×28×28`, 10 classes.
pub fn lenet() -> Network {
    Network::new(
        "LeNet",
        Shape::chw(1, 28, 28),
        vec![
            Layer::new("data", LayerKind::Input),
            conv("conv1", 20, 5, 1, 0), // 20×24×24
            maxpool("pool1", 2, 2),     // 20×12×12
            conv("conv2", 50, 5, 1, 0), // 50×8×8
            maxpool("pool2", 2, 2),     // 50×4×4
            ip("ip1", 500),
            relu("relu1"),
            ip("ip2", 10),
            Layer::new("prob", LayerKind::Softmax { log: false }),
        ],
    )
    .expect("LeNet topology is valid")
}

/// VGG-16 (configuration D). Input `3×224×224`, 1000 classes.
///
/// The paper notes that "the fully-connected layers of VGG-16 would not
/// be synthesizable with the current methodology"; the DSE reproduces
/// that failure, and Table 2 uses [`Network::feature_extraction_prefix`].
pub fn vgg16() -> Network {
    let mut layers = vec![Layer::new("data", LayerKind::Input)];
    // (block, convs, channels)
    let blocks: [(usize, usize, usize); 5] = [
        (1, 2, 64),
        (2, 2, 128),
        (3, 3, 256),
        (4, 3, 512),
        (5, 3, 512),
    ];
    for (block, convs, channels) in blocks {
        for i in 1..=convs {
            layers.push(conv(&format!("conv{block}_{i}"), channels, 3, 1, 1));
            layers.push(relu(&format!("relu{block}_{i}")));
        }
        layers.push(maxpool(&format!("pool{block}"), 2, 2));
    }
    layers.push(ip("fc6", 4096));
    layers.push(relu("relu6"));
    layers.push(ip("fc7", 4096));
    layers.push(relu("relu7"));
    layers.push(ip("fc8", 1000));
    layers.push(Layer::new("prob", LayerKind::Softmax { log: false }));
    Network::new("VGG-16", Shape::chw(3, 224, 224), layers).expect("VGG-16 topology is valid")
}

/// A hand-written residual block: `conv1 → conv2 → eltwise-add` with a
/// skip edge from `conv1`, then ReLU and a small classifier. Input
/// `3×8×8`, 10 classes.
///
/// This is the canonical branchy conformance fixture: the smallest
/// network that is *not* a linear chain, exercising fan-out (conv1
/// feeds both conv2 and the join) and fan-in (the eltwise merge) through
/// every subsystem.
pub fn resnet_block() -> Network {
    let mut b = NetworkBuilder::new("ResNetBlock", Shape::chw(3, 8, 8));
    let data = b
        .add(Layer::new("data", LayerKind::Input), &[])
        .expect("input");
    let c1 = b.add(conv("conv1", 8, 3, 1, 1), &[data]).expect("conv1");
    let c2 = b.add(conv("conv2", 8, 3, 1, 1), &[c1]).expect("conv2");
    let join = b
        .add(
            Layer::new("join", LayerKind::Eltwise { op: EltwiseOp::Sum }),
            &[c1, c2],
        )
        .expect("join");
    let r1 = b.add(relu("relu1"), &[join]).expect("relu1");
    let fc = b.add(ip("ip1", 10), &[r1]).expect("ip1");
    b.add(Layer::new("prob", LayerKind::Softmax { log: false }), &[fc])
        .expect("prob");
    b.build().expect("ResNet block topology is valid")
}

/// TC1 with deterministic stand-in weights.
pub fn tc1_weighted(seed: u64) -> Network {
    let mut net = tc1();
    net.attach_random_weights(seed).expect("TC1 weights attach");
    net
}

/// LeNet with deterministic stand-in weights.
pub fn lenet_weighted(seed: u64) -> Network {
    let mut net = lenet();
    net.attach_random_weights(seed)
        .expect("LeNet weights attach");
    net
}

/// [`resnet_block`] with deterministic stand-in weights.
pub fn resnet_block_weighted(seed: u64) -> Network {
    let mut net = resnet_block();
    net.attach_random_weights(seed)
        .expect("ResNet block weights attach");
    net
}

/// The Caffe `lenet.prototxt` (inference form) used to exercise the
/// prototxt frontend path end-to-end.
pub fn lenet_prototxt() -> &'static str {
    r#"name: "LeNet"
layer {
  name: "data"
  type: "Input"
  top: "data"
  input_param { shape: { dim: 64 dim: 1 dim: 28 dim: 28 } }
}
layer {
  name: "conv1"
  type: "Convolution"
  bottom: "data"
  top: "conv1"
  convolution_param {
    num_output: 20
    kernel_size: 5
    stride: 1
  }
}
layer {
  name: "pool1"
  type: "Pooling"
  bottom: "conv1"
  top: "pool1"
  pooling_param {
    pool: MAX
    kernel_size: 2
    stride: 2
  }
}
layer {
  name: "conv2"
  type: "Convolution"
  bottom: "pool1"
  top: "conv2"
  convolution_param {
    num_output: 50
    kernel_size: 5
    stride: 1
  }
}
layer {
  name: "pool2"
  type: "Pooling"
  bottom: "conv2"
  top: "pool2"
  pooling_param {
    pool: MAX
    kernel_size: 2
    stride: 2
  }
}
layer {
  name: "ip1"
  type: "InnerProduct"
  bottom: "pool2"
  top: "ip1"
  inner_product_param {
    num_output: 500
  }
}
layer {
  name: "relu1"
  type: "ReLU"
  bottom: "ip1"
  top: "ip1"
}
layer {
  name: "ip2"
  type: "InnerProduct"
  bottom: "ip1"
  top: "ip2"
  inner_product_param {
    num_output: 10
  }
}
layer {
  name: "prob"
  type: "Softmax"
  bottom: "ip2"
  top: "prob"
}
"#
}

/// The ResNet-block prototxt (inference form) used to exercise the
/// branchy frontend path end-to-end: repeated `bottom` entries on the
/// eltwise join, a skip edge out of `conv1`, and an in-place ReLU
/// (`bottom == top`).
pub fn resnet_block_prototxt() -> &'static str {
    r#"name: "ResNetBlock"
layer {
  name: "data"
  type: "Input"
  top: "data"
  input_param { shape: { dim: 1 dim: 3 dim: 8 dim: 8 } }
}
layer {
  name: "conv1"
  type: "Convolution"
  bottom: "data"
  top: "conv1"
  convolution_param {
    num_output: 8
    kernel_size: 3
    stride: 1
    pad: 1
  }
}
layer {
  name: "conv2"
  type: "Convolution"
  bottom: "conv1"
  top: "conv2"
  convolution_param {
    num_output: 8
    kernel_size: 3
    stride: 1
    pad: 1
  }
}
layer {
  name: "join"
  type: "Eltwise"
  bottom: "conv1"
  bottom: "conv2"
  top: "join"
  eltwise_param {
    operation: SUM
  }
}
layer {
  name: "relu1"
  type: "ReLU"
  bottom: "join"
  top: "join"
}
layer {
  name: "ip1"
  type: "InnerProduct"
  bottom: "join"
  top: "ip1"
  inner_product_param {
    num_output: 10
  }
}
layer {
  name: "prob"
  type: "Softmax"
  bottom: "ip1"
  top: "prob"
}
"#
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::layer::Stage;

    #[test]
    fn tc1_shapes() {
        let net = tc1();
        let outs = net.output_shapes().unwrap();
        assert_eq!(outs[1], Shape::new(1, 8, 12, 12)); // conv1
        assert_eq!(outs[3], Shape::new(1, 8, 6, 6)); // pool1
        assert_eq!(outs[4], Shape::new(1, 16, 2, 2)); // conv2
        assert_eq!(net.output_shape().unwrap(), Shape::vector(10));
    }

    #[test]
    fn lenet_shapes_match_caffe_reference() {
        let net = lenet();
        let outs = net.output_shapes().unwrap();
        assert_eq!(outs[1], Shape::new(1, 20, 24, 24)); // conv1
        assert_eq!(outs[2], Shape::new(1, 20, 12, 12)); // pool1
        assert_eq!(outs[3], Shape::new(1, 50, 8, 8)); // conv2
        assert_eq!(outs[4], Shape::new(1, 50, 4, 4)); // pool2
        assert_eq!(outs[5], Shape::vector(500)); // ip1
        assert_eq!(net.output_shape().unwrap(), Shape::vector(10));
    }

    #[test]
    fn lenet_parameter_count_matches_reference() {
        // Well-known LeNet (Caffe variant) parameter count: 431,080.
        assert_eq!(lenet().total_params().unwrap(), 431_080);
    }

    #[test]
    fn vgg16_shapes_and_params() {
        let net = vgg16();
        let outs = net.output_shapes().unwrap();
        // After block 5 pooling: 512×7×7.
        let pool5_idx = net.layers.iter().position(|l| l.name == "pool5").unwrap();
        assert_eq!(outs[pool5_idx], Shape::new(1, 512, 7, 7));
        assert_eq!(net.output_shape().unwrap(), Shape::vector(1000));
        // VGG-16 has ~138.36M parameters.
        let params = net.total_params().unwrap();
        assert!((138_000_000..139_000_000).contains(&params), "{params}");
    }

    #[test]
    fn vgg16_feature_extraction_flops_scale() {
        // Conv stack of VGG-16 is ~30.7 GFLOP (2 FLOPs per MAC, ~15.3G MACs).
        let fe = vgg16().feature_extraction_flops().unwrap();
        assert!((29_000_000_000..32_000_000_000).contains(&fe), "{fe}");
    }

    #[test]
    fn lenet_flops_scale() {
        // conv1 0.576M + conv2 3.2M + fc 0.81M ≈ 4.6M FLOPs.
        let f = lenet().total_flops().unwrap();
        assert!((4_400_000..4_800_000).contains(&f), "{f}");
    }

    #[test]
    fn weighted_models_run() {
        let net = tc1_weighted(11);
        assert!(net.fully_weighted());
        let net = lenet_weighted(11);
        assert!(net.fully_weighted());
    }

    #[test]
    fn prototxt_is_parseable_text() {
        // Full frontend integration is tested in the caffe/core crates;
        // here just guard the fixture against accidental truncation.
        let text = lenet_prototxt();
        assert!(text.contains("num_output: 500"));
        assert!(text.matches("layer {").count() == 9);
    }

    #[test]
    fn stage_split_counts() {
        let net = lenet();
        let stages = net.stages();
        let fe = stages
            .iter()
            .filter(|s| **s == Stage::FeatureExtraction)
            .count();
        let cl = stages
            .iter()
            .filter(|s| **s == Stage::Classification)
            .count();
        assert_eq!(fe, 5); // data conv1 pool1 conv2 pool2
        assert_eq!(cl, 4); // ip1 relu1 ip2 prob
    }

    #[test]
    fn resnet_block_is_branchy_and_runs_on_both_engines() {
        use crate::{FastEngine, GoldenEngine, NodeId};
        use condor_tensor::{AllClose, TensorRng};

        let net = resnet_block();
        assert!(!net.is_linear_chain());
        let c1 = net.node_id_of("conv1").unwrap();
        let join = net.node_id_of("join").unwrap();
        assert_eq!(net.inputs_of(join).len(), 2);
        assert!(net.consumers_of(c1).contains(&join));
        let outs = net.output_shapes().unwrap();
        assert_eq!(outs[join.index()], Shape::new(1, 8, 8, 8));
        assert_eq!(net.output_shape().unwrap(), Shape::vector(10));
        let _ = NodeId::from_index(0);

        let net = resnet_block_weighted(13);
        let mut fast = FastEngine::new(&net).unwrap();
        let golden = GoldenEngine::new(&net).unwrap();
        let img = TensorRng::seeded(5).uniform(net.input_shape, -1.0, 1.0);
        let f = fast.infer(&img).unwrap();
        let g = golden.infer(&img).unwrap();
        assert!(f.all_close_tol(&g, 1e-4, 1e-4));
    }

    #[test]
    fn resnet_block_prototxt_is_parseable_text() {
        let text = resnet_block_prototxt();
        assert_eq!(text.matches("layer {").count(), 7);
        // The join names both of its producers.
        assert_eq!(text.matches("bottom: \"conv1\"").count(), 2);
        assert!(text.contains("operation: SUM"));
    }

    #[test]
    fn tc1_is_smaller_than_lenet() {
        assert!(tc1().total_flops().unwrap() < lenet().total_flops().unwrap());
        assert!(tc1().total_params().unwrap() < lenet().total_params().unwrap());
    }
}

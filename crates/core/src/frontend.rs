//! Frontend tier: input analysis (paper Section 3.1.1 and flow step 1).
//!
//! "The user can either specify all the input files manually, according
//! to the Condor internal specification or use a pre-trained Caffe model,
//! providing the caffemodel and prototxt files. … The files from an
//! external deep learning library, only Caffe as of now, are translated
//! in the Condor format."
//!
//! Weights stay external: "Weights and biases are kept as external files
//! and are loaded dynamically at runtime. This enables the update of the
//! network … without the need for re-synthesizing the accelerator."

use crate::error::CondorError;
use crate::repr::{HardwareConfig, NetworkRepresentation};
use condor_caffe::{LayerParameter, NetParameter};
use condor_nn::{EltwiseOp, Layer, LayerKind, Network, NetworkBuilder, NodeId, PoolKind};
use condor_tensor::{Shape, Tensor};
use std::collections::BTreeMap;

/// The supported frontend input methods.
pub enum FrontendInput {
    /// A pre-trained Caffe model: prototxt topology text and, optionally,
    /// the binary `caffemodel` bytes carrying the weights.
    Caffe {
        /// `*.prototxt` contents.
        prototxt: String,
        /// `*.caffemodel` contents, when available.
        caffemodel: Option<Vec<u8>>,
    },
    /// The Condor internal specification: the JSON network
    /// representation and, optionally, the external weights file.
    Condor {
        /// Condor JSON document text.
        representation: String,
        /// Condor weights file bytes (see [`write_weights`]).
        weights: Option<Vec<u8>>,
    },
}

/// The result of input analysis: a network representation (topology +
/// hardware directives) with weights installed when they were provided.
#[derive(Debug)]
pub struct LoadedModel {
    /// Topology and hardware directives.
    pub representation: NetworkRepresentation,
    /// The network, weighted if weights were supplied.
    pub network: Network,
}

/// Runs input analysis over either input method.
pub fn analyze(input: FrontendInput) -> Result<LoadedModel, CondorError> {
    match input {
        FrontendInput::Caffe {
            prototxt,
            caffemodel,
        } => analyze_caffe(&prototxt, caffemodel.as_deref()),
        FrontendInput::Condor {
            representation,
            weights,
        } => analyze_condor(&representation, weights.as_deref()),
    }
}

/// Caffe input analysis over borrowed files. The weights are decoded
/// once, straight into the tensors the network keeps; the
/// representation gets the topology only.
pub(crate) fn analyze_caffe(
    prototxt: &str,
    caffemodel: Option<&[u8]>,
) -> Result<LoadedModel, CondorError> {
    let proto = NetParameter::from_prototxt(prototxt)?;
    let mut network = caffe_to_network(&proto)?;
    within_size(&network)?;
    if let Some(bytes) = caffemodel {
        install_caffe_weights(&mut network, NetParameter::decode(bytes)?)?;
    }
    Ok(LoadedModel {
        representation: NetworkRepresentation::new(network.topology(), HardwareConfig::default()),
        network,
    })
}

/// Condor-format input analysis over borrowed files.
pub(crate) fn analyze_condor(
    representation: &str,
    weights: Option<&[u8]>,
) -> Result<LoadedModel, CondorError> {
    let representation = NetworkRepresentation::parse(representation)?;
    within_size(&representation.network)?;
    let mut network = representation.network.clone();
    if let Some(bytes) = weights {
        read_weights(&mut network, bytes)?;
    }
    Ok(LoadedModel {
        representation,
        network,
    })
}

/// The size gate ([`condor_check::shape::check_size`]): every model
/// passes it before its weights are read or its extents multiplied, so
/// `condor info`, `check` and `build` refuse a hostile shape with C017.
fn within_size(network: &Network) -> Result<(), CondorError> {
    condor_check::shape::check_size(network).map_err(|d| CondorError::new("frontend", d.render()))
}

/// Resolves a layer's `bottom` blob names to producing node indices.
///
/// Layers in minimal hand-written prototxts often omit `bottom`/`top`
/// entirely; those fall back to the historical chain interpretation and
/// read the most recently added node (or the network input if none).
fn resolve_bottoms(
    lp: &LayerParameter,
    blobs: &BTreeMap<String, usize>,
    prev: Option<usize>,
) -> Result<Vec<usize>, CondorError> {
    if lp.bottom.is_empty() {
        return Ok(prev.into_iter().collect());
    }
    lp.bottom
        .iter()
        .map(|b| {
            blobs.get(b.as_str()).copied().ok_or_else(|| {
                CondorError::new(
                    "frontend",
                    format!(
                        "layer '{}' reads blob '{b}' which no earlier layer produces",
                        lp.name
                    ),
                )
            })
        })
        .collect()
}

/// Translates a Caffe `NetParameter` into the Condor network IR.
///
/// Caffe wires layers by *blob name*: each layer reads its `bottom` blobs
/// and writes its `top` blobs, and in-place layers reuse the same name for
/// both. This function replays that dataflow to recover the explicit graph
/// — branchy topologies (`Eltwise` joins, `Concat` merges) translate to
/// DAG-shaped [`Network`]s, while plain chains canonicalise to the linear
/// representation exactly as before.
fn caffe_to_network(proto: &NetParameter) -> Result<Network, CondorError> {
    let mut input_shape: Option<Shape> = None;
    // Nodes in insertion (topological) order with resolved input indices.
    let mut nodes: Vec<(Layer, Vec<usize>)> = Vec::new();
    // Blob name -> index of the node that most recently produced it.
    // In-place layers (bottom == top) rebind the name to themselves.
    let mut blobs: BTreeMap<String, usize> = BTreeMap::new();
    // Chain fallback for layers that declare no bottoms at all.
    let mut prev: Option<usize> = None;

    // Legacy top-level inputs.
    if !proto.input.is_empty() {
        if let Some(shape) = proto.input_shape.first() {
            input_shape = Some(shape.to_shape()?.with_n(1));
        } else if proto.input_dim.len() >= 4 {
            input_shape = Some(Shape::chw(
                proto.input_dim[1] as usize,
                proto.input_dim[2] as usize,
                proto.input_dim[3] as usize,
            ));
        }
        let name = proto.input.first().map(String::as_str).unwrap_or("data");
        nodes.push((Layer::new(name, LayerKind::Input), Vec::new()));
        blobs.insert(name.to_string(), 0);
        prev = Some(0);
    }

    for lp in &proto.layer {
        let layer = match lp.type_.as_str() {
            "Input" => {
                let ip = lp.input_param.as_ref().ok_or_else(|| {
                    CondorError::new(
                        "frontend",
                        format!("layer '{}': missing input_param", lp.name),
                    )
                })?;
                let shape = ip
                    .shape
                    .first()
                    .ok_or_else(|| {
                        CondorError::new(
                            "frontend",
                            format!("layer '{}': input_param has no shape", lp.name),
                        )
                    })?
                    .to_shape()?;
                input_shape = Some(shape.with_n(1));
                Layer::new(&lp.name, LayerKind::Input)
            }
            "Convolution" => {
                let p = lp.convolution_param.as_ref().ok_or_else(|| {
                    CondorError::new(
                        "frontend",
                        format!("layer '{}': missing convolution_param", lp.name),
                    )
                })?;
                Layer::new(
                    &lp.name,
                    LayerKind::Convolution {
                        num_output: p.num_output as usize,
                        kernel: p.kernel_size as usize,
                        stride: p.stride as usize,
                        pad: p.pad as usize,
                        bias: p.bias_term,
                    },
                )
            }
            "Pooling" => {
                let p = lp.pooling_param.as_ref().ok_or_else(|| {
                    CondorError::new(
                        "frontend",
                        format!("layer '{}': missing pooling_param", lp.name),
                    )
                })?;
                Layer::new(
                    &lp.name,
                    LayerKind::Pooling {
                        method: match p.pool {
                            condor_caffe::PoolMethod::Max => PoolKind::Max,
                            condor_caffe::PoolMethod::Ave => PoolKind::Average,
                        },
                        kernel: p.kernel_size as usize,
                        stride: p.stride as usize,
                        pad: p.pad as usize,
                    },
                )
            }
            "ReLU" => Layer::new(
                &lp.name,
                LayerKind::ReLU {
                    negative_slope: lp.relu_negative_slope,
                },
            ),
            "Sigmoid" => Layer::new(&lp.name, LayerKind::Sigmoid),
            "TanH" => Layer::new(&lp.name, LayerKind::TanH),
            "InnerProduct" => {
                let p = lp.inner_product_param.as_ref().ok_or_else(|| {
                    CondorError::new(
                        "frontend",
                        format!("layer '{}': missing inner_product_param", lp.name),
                    )
                })?;
                Layer::new(
                    &lp.name,
                    LayerKind::InnerProduct {
                        num_output: p.num_output as usize,
                        bias: p.bias_term,
                    },
                )
            }
            "Softmax" | "SoftmaxWithLoss" => {
                Layer::new(&lp.name, LayerKind::Softmax { log: false })
            }
            "LogSoftmax" => Layer::new(&lp.name, LayerKind::Softmax { log: true }),
            "Eltwise" => {
                let op = match lp
                    .eltwise_param
                    .as_ref()
                    .map(|p| p.operation)
                    .unwrap_or_default()
                {
                    condor_caffe::EltwiseOperation::Prod => EltwiseOp::Prod,
                    condor_caffe::EltwiseOperation::Sum => EltwiseOp::Sum,
                    condor_caffe::EltwiseOperation::Max => EltwiseOp::Max,
                };
                Layer::new(&lp.name, LayerKind::Eltwise { op })
            }
            "Concat" => {
                if let Some(p) = &lp.concat_param {
                    if p.axis != 1 {
                        return Err(CondorError::new(
                            "frontend",
                            format!(
                                "layer '{}': only channel concatenation (axis 1) is \
                                 supported, got axis {}",
                                lp.name, p.axis
                            ),
                        ));
                    }
                }
                Layer::new(&lp.name, LayerKind::Concat)
            }
            // Inference no-ops in common Caffe models. They still move
            // blobs, so alias their top name(s) to whichever node produced
            // their input — downstream bottoms resolve straight through.
            "Dropout" | "Flatten" => {
                let ins = resolve_bottoms(lp, &blobs, prev)?;
                if let Some(&src) = ins.first() {
                    for top in &lp.top {
                        blobs.insert(top.clone(), src);
                    }
                    prev = Some(src);
                }
                continue;
            }
            // Training-only layers a user might forget to strip.
            "Accuracy" | "Data" => {
                return Err(CondorError::new(
                    "frontend",
                    format!(
                        "layer '{}' has training-time type '{}'; provide an inference \
                         (deploy) prototxt",
                        lp.name, lp.type_
                    ),
                ))
            }
            other => {
                return Err(CondorError::new(
                    "frontend",
                    format!(
                        "layer '{}': unsupported Caffe layer type '{other}'",
                        lp.name
                    ),
                ))
            }
        };
        let inputs = if matches!(layer.kind, LayerKind::Input) {
            Vec::new()
        } else {
            resolve_bottoms(lp, &blobs, prev)?
        };
        let idx = nodes.len();
        nodes.push((layer, inputs));
        for top in &lp.top {
            blobs.insert(top.clone(), idx);
        }
        if lp.top.is_empty() {
            // Bare test prototxts omit tops; expose the layer under its
            // own name, matching Caffe's usual top-equals-name convention.
            blobs.insert(lp.name.clone(), idx);
        }
        prev = Some(idx);
    }

    let input_shape = input_shape.ok_or_else(|| {
        CondorError::new(
            "frontend",
            "network declares no input (need an Input layer or top-level input fields)",
        )
    })?;
    let name = if proto.name.is_empty() {
        "unnamed".to_string()
    } else {
        proto.name.clone()
    };
    let mut b = NetworkBuilder::new(name, input_shape);
    for (layer, inputs) in nodes {
        let ids: Vec<NodeId> = inputs.into_iter().map(NodeId::from_index).collect();
        b.add(layer, &ids)?;
    }
    Ok(b.build()?)
}

/// Installs the blobs of a trained `caffemodel` into the network, moving
/// each blob's decoded values into its tensor.
fn install_caffe_weights(net: &mut Network, mut trained: NetParameter) -> Result<(), CondorError> {
    net.install_weights(|name, _, _| {
        let lp = trained
            .layer
            .iter_mut()
            .find(|l| l.name == name)
            .ok_or_else(|| {
                CondorError::new(
                    "frontend",
                    format!("caffemodel has no weights for layer '{name}'"),
                )
            })?;
        let mut blobs = std::mem::take(&mut lp.blobs).into_iter();
        let weights = blobs.next().ok_or_else(|| {
            CondorError::new(
                "frontend",
                format!("caffemodel layer '{name}' carries no blobs"),
            )
        })?;
        // Conv blobs are 4-D `F×C×K×K`; IP blobs come as `[out, in]`,
        // which `BlobShape` right-aligns into `out×in×1×1`. Both are
        // already our convention.
        let weights = weights.into_tensor()?;
        let bias = match blobs.next() {
            Some(b) => Some(reshape_bias_blob(b.into_tensor()?)),
            None => None,
        };
        Ok((weights, bias))
    })
}

/// Bias blobs are 1-D `[out]` → `1×out×1×1`, our vector convention.
fn reshape_bias_blob(t: Tensor) -> Tensor {
    let len = t.len();
    t.reshape(Shape::vector(len))
}

/// Exports a network back to Caffe artifacts: the topology as a
/// `NetParameter` (serialisable to prototxt or, with the installed
/// weights attached as blobs, to `caffemodel` bytes). This is the
/// inverse of [`analyze`]'s Caffe import and closes the
/// interoperability loop: models authored in the Condor format can be
/// handed back to Caffe users.
pub fn network_to_caffe(net: &Network) -> NetParameter {
    use condor_caffe::{BlobProto, BlobShape, InputParameter};
    let mut proto = NetParameter {
        name: net.name.clone(),
        ..NetParameter::default()
    };
    // Each node writes a top blob named after itself; bottoms are the
    // producing nodes' names, read straight off the network's edge table.
    // Nodes that read the network input reference the input blob.
    let input_blob = net
        .layers
        .iter()
        .find(|l| matches!(l.kind, LayerKind::Input))
        .map(|l| l.name.clone())
        .unwrap_or_else(|| "data".to_string());
    let mut saw_input_layer = false;
    for id in net.node_ids() {
        let layer = match net.node(id) {
            Some(l) => l,
            None => continue,
        };
        let mut lp = LayerParameter {
            name: layer.name.clone(),
            type_: layer.kind.caffe_type().to_string(),
            top: vec![layer.name.clone()],
            ..LayerParameter::default()
        };
        let preds = net.inputs_of(id);
        if !matches!(layer.kind, LayerKind::Input) {
            lp.bottom = if preds.is_empty() {
                vec![input_blob.clone()]
            } else {
                preds
                    .iter()
                    .filter_map(|&p| net.node(p).map(|l| l.name.clone()))
                    .collect()
            };
        }
        match layer.kind {
            LayerKind::Input => {
                saw_input_layer = true;
                let s = net.input_shape;
                lp.input_param = Some(InputParameter {
                    shape: vec![BlobShape::nchw(1, s.c, s.h, s.w)],
                });
            }
            LayerKind::Convolution {
                num_output,
                kernel,
                stride,
                pad,
                bias,
            } => {
                lp.convolution_param = Some(condor_caffe::ConvolutionParameter {
                    num_output: num_output as u32,
                    bias_term: bias,
                    pad: pad as u32,
                    kernel_size: kernel as u32,
                    stride: stride as u32,
                });
            }
            LayerKind::Pooling {
                method,
                kernel,
                stride,
                pad,
            } => {
                lp.pooling_param = Some(condor_caffe::PoolingParameter {
                    pool: match method {
                        PoolKind::Max => condor_caffe::PoolMethod::Max,
                        PoolKind::Average => condor_caffe::PoolMethod::Ave,
                    },
                    kernel_size: kernel as u32,
                    stride: stride as u32,
                    pad: pad as u32,
                });
            }
            LayerKind::ReLU { negative_slope } => {
                lp.relu_negative_slope = negative_slope;
            }
            LayerKind::Sigmoid | LayerKind::TanH => {}
            LayerKind::InnerProduct { num_output, bias } => {
                lp.inner_product_param = Some(condor_caffe::InnerProductParameter {
                    num_output: num_output as u32,
                    bias_term: bias,
                });
            }
            LayerKind::Softmax { .. } => {}
            LayerKind::Concat => {}
            LayerKind::Eltwise { op } => {
                lp.eltwise_param = Some(condor_caffe::EltwiseParameter {
                    operation: match op {
                        EltwiseOp::Prod => condor_caffe::EltwiseOperation::Prod,
                        EltwiseOp::Sum => condor_caffe::EltwiseOperation::Sum,
                        EltwiseOp::Max => condor_caffe::EltwiseOperation::Max,
                    },
                });
            }
        }
        if let Some(lw) = net.weights_of(&layer.name) {
            lp.blobs.push(BlobProto::from_tensor(&lw.weights));
            if let Some(b) = &lw.bias {
                lp.blobs.push(BlobProto::from_tensor(b));
            }
        }
        proto.layer.push(lp);
    }
    if !saw_input_layer {
        // Fall back to the legacy top-level input declaration.
        let s = net.input_shape;
        proto.input = vec!["data".to_string()];
        proto.input_dim = vec![1, s.c as i64, s.h as i64, s.w as i64];
    }
    proto
}

/// Magic prefix of the Condor external weights file.
pub const WEIGHTS_MAGIC: &[u8; 4] = b"CNDW";

/// Serialises a network's weights to the Condor external weights format:
/// `magic, u32 count, then per layer: name, weight tensor, optional bias`
/// (little-endian throughout).
pub fn write_weights(net: &Network) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(WEIGHTS_MAGIC);
    let entries: Vec<(&String, &condor_nn::network::LayerWeights)> = net.weights.iter().collect();
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, lw) in entries {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        write_tensor(&mut out, &lw.weights);
        match &lw.bias {
            Some(b) => {
                out.push(1);
                write_tensor(&mut out, b);
            }
            None => out.push(0),
        }
    }
    out
}

fn write_tensor(out: &mut Vec<u8>, t: &Tensor) {
    let s = t.shape();
    for d in [s.n, s.c, s.h, s.w] {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &v in t.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Loads a Condor external weights file into the network, validating
/// layer names and tensor shapes.
pub fn read_weights(net: &mut Network, bytes: &[u8]) -> Result<(), CondorError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let magic = cur.take(4)?;
    if magic != WEIGHTS_MAGIC {
        return Err(CondorError::new(
            "frontend",
            "not a Condor weights file (bad magic)",
        ));
    }
    let count = cur.u32()? as usize;
    for _ in 0..count {
        let name_len = cur.u32()? as usize;
        let name_bytes = cur.take(name_len)?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| CondorError::new("frontend", "invalid layer name encoding"))?
            .to_string();
        let weights = cur.tensor()?;
        let has_bias = cur.take(1)?[0] != 0;
        let bias = if has_bias { Some(cur.tensor()?) } else { None };
        net.set_weights(&name, weights, bias)?;
    }
    if cur.pos != bytes.len() {
        return Err(CondorError::new(
            "frontend",
            "trailing bytes after weights payload",
        ));
    }
    Ok(())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CondorError> {
        if self.pos + n > self.bytes.len() {
            return Err(CondorError::new("frontend", "truncated weights file"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CondorError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn tensor(&mut self) -> Result<Tensor, CondorError> {
        let n = self.u32()? as usize;
        let c = self.u32()? as usize;
        let h = self.u32()? as usize;
        let w = self.u32()? as usize;
        let shape = Shape::new(n, c, h, w);
        let len = shape
            .checked_len()
            .filter(|&len| len <= 512 * 1024 * 1024)
            .ok_or_else(|| CondorError::new("frontend", "weights tensor implausibly large"))?;
        let raw = self.take(len * 4)?;
        let data = raw
            .chunks_exact(4)
            .map(|ch| f32::from_le_bytes(ch.try_into().expect("4 bytes")))
            .collect();
        Ok(Tensor::from_vec(shape, data))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_caffe::BlobProto;
    use condor_nn::zoo;
    use condor_tensor::AllClose;

    #[test]
    fn lenet_prototxt_imports_to_expected_topology() {
        let model = analyze(FrontendInput::Caffe {
            prototxt: zoo::lenet_prototxt().to_string(),
            caffemodel: None,
        })
        .unwrap();
        let net = model.network;
        assert_eq!(net.name, "LeNet");
        assert_eq!(net.input_shape, Shape::chw(1, 28, 28));
        // Same topology as the hand-built zoo LeNet.
        let zoo_net = zoo::lenet();
        assert_eq!(net.layers, zoo_net.layers);
    }

    #[test]
    fn caffemodel_weights_install_and_match() {
        // Fabricate a caffemodel from the weighted zoo LeNet, then import
        // through the full frontend path.
        let trained = zoo::lenet_weighted(77);
        let mut proto = NetParameter::from_prototxt(zoo::lenet_prototxt()).unwrap();
        for lp in &mut proto.layer {
            if let Some(lw) = trained.weights_of(&lp.name) {
                lp.blobs.push(BlobProto::from_tensor(&lw.weights));
                if let Some(b) = &lw.bias {
                    lp.blobs.push(BlobProto::from_tensor(b));
                }
            }
        }
        let bytes = proto.encode();
        let model = analyze(FrontendInput::Caffe {
            prototxt: zoo::lenet_prototxt().to_string(),
            caffemodel: Some(bytes),
        })
        .unwrap();
        assert!(model.network.fully_weighted());
        assert!(model
            .network
            .weights_of("conv1")
            .unwrap()
            .weights
            .all_close(&trained.weights_of("conv1").unwrap().weights));
    }

    #[test]
    fn missing_caffemodel_layer_is_reported() {
        let proto = NetParameter::from_prototxt(zoo::lenet_prototxt()).unwrap();
        let empty_model = proto.encode(); // no blobs inside
        let err = analyze(FrontendInput::Caffe {
            prototxt: zoo::lenet_prototxt().to_string(),
            caffemodel: Some(empty_model),
        })
        .unwrap_err();
        assert!(err.message.contains("no blobs") || err.message.contains("no weights"));
    }

    #[test]
    fn training_prototxt_is_rejected_with_guidance() {
        let prototxt = r#"
name: "train"
layer { name: "data" type: "Data" top: "data" }
"#;
        let err = analyze(FrontendInput::Caffe {
            prototxt: prototxt.to_string(),
            caffemodel: None,
        })
        .unwrap_err();
        assert!(err.message.contains("inference"));
    }

    #[test]
    fn unsupported_caffe_type_is_named() {
        let prototxt = r#"
name: "x"
layer { name: "data" type: "Input" input_param { shape: { dim: 1 dim: 1 dim: 8 dim: 8 } } }
layer { name: "bn" type: "BatchNorm" }
"#;
        let err = analyze(FrontendInput::Caffe {
            prototxt: prototxt.to_string(),
            caffemodel: None,
        })
        .unwrap_err();
        assert!(err.message.contains("BatchNorm"));
    }

    #[test]
    fn legacy_input_dim_prototxt_supported() {
        let prototxt = r#"
name: "legacy"
input: "data"
input_dim: 1
input_dim: 3
input_dim: 8
input_dim: 8
layer { name: "conv1" type: "Convolution" convolution_param { num_output: 2 kernel_size: 3 } }
"#;
        let model = analyze(FrontendInput::Caffe {
            prototxt: prototxt.to_string(),
            caffemodel: None,
        })
        .unwrap();
        assert_eq!(model.network.input_shape, Shape::chw(3, 8, 8));
    }

    #[test]
    fn resnet_block_prototxt_imports_as_dag() {
        let model = analyze(FrontendInput::Caffe {
            prototxt: zoo::resnet_block_prototxt().to_string(),
            caffemodel: None,
        })
        .unwrap();
        let net = model.network;
        assert!(!net.is_linear_chain());
        // bottom/top wiring reproduces the hand-built DAG exactly,
        // including the in-place ReLU rebinding the "join" blob.
        assert_eq!(net, zoo::resnet_block());
    }

    #[test]
    fn concat_axis_other_than_channels_is_rejected() {
        let prototxt = r#"
name: "x"
layer { name: "data" type: "Input" top: "data" input_param { shape: { dim: 1 dim: 1 dim: 8 dim: 8 } } }
layer { name: "cat" type: "Concat" bottom: "data" bottom: "data" top: "cat" concat_param { axis: 2 } }
"#;
        let err = analyze(FrontendInput::Caffe {
            prototxt: prototxt.to_string(),
            caffemodel: None,
        })
        .unwrap_err();
        assert!(err.message.contains("axis"));
    }

    #[test]
    fn undeclared_bottom_blob_is_reported() {
        // Bypass the prototxt-level wiring check by building the
        // NetParameter directly, as a caffemodel decode would.
        let mut proto = NetParameter::from_prototxt(zoo::lenet_prototxt()).unwrap();
        proto.layer[1].bottom = vec!["nonexistent".to_string()];
        let err = caffe_to_network(&proto).unwrap_err();
        assert!(err.message.contains("nonexistent"));
    }

    #[test]
    fn dropout_and_flatten_are_skipped() {
        let prototxt = r#"
name: "d"
layer { name: "data" type: "Input" input_param { shape: { dim: 1 dim: 1 dim: 8 dim: 8 } } }
layer { name: "flat" type: "Flatten" }
layer { name: "ip" type: "InnerProduct" inner_product_param { num_output: 4 } }
layer { name: "drop" type: "Dropout" }
layer { name: "prob" type: "Softmax" }
"#;
        let model = analyze(FrontendInput::Caffe {
            prototxt: prototxt.to_string(),
            caffemodel: None,
        })
        .unwrap();
        assert_eq!(model.network.layers.len(), 3); // data ip prob
    }

    #[test]
    fn in_place_dropout_aliases_its_blob() {
        let prototxt = r#"
name: "d"
layer { name: "data" type: "Input" top: "data" input_param { shape: { dim: 1 dim: 1 dim: 8 dim: 8 } } }
layer { name: "ip" type: "InnerProduct" bottom: "data" top: "ip" inner_product_param { num_output: 4 } }
layer { name: "drop" type: "Dropout" bottom: "ip" top: "ip" }
layer { name: "prob" type: "Softmax" bottom: "ip" top: "prob" }
"#;
        let model = analyze(FrontendInput::Caffe {
            prototxt: prototxt.to_string(),
            caffemodel: None,
        })
        .unwrap();
        let net = model.network;
        assert_eq!(net.layers.len(), 3); // data ip prob
        assert!(net.is_linear_chain());
    }

    #[test]
    fn condor_weights_roundtrip() {
        let trained = zoo::tc1_weighted(5);
        let bytes = write_weights(&trained);
        let mut fresh = zoo::tc1();
        read_weights(&mut fresh, &bytes).unwrap();
        assert!(fresh.fully_weighted());
        for name in ["conv1", "conv2", "ip1", "ip2"] {
            assert_eq!(
                fresh.weights_of(name).unwrap().weights,
                trained.weights_of(name).unwrap().weights,
                "{name}"
            );
        }
    }

    #[test]
    fn condor_weights_reject_corruption() {
        let trained = zoo::tc1_weighted(5);
        let mut bytes = write_weights(&trained);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(read_weights(&mut zoo::tc1(), &bad).is_err());
        // Truncation.
        bytes.truncate(bytes.len() - 7);
        assert!(read_weights(&mut zoo::tc1(), &bytes).is_err());
        // Trailing garbage.
        let mut padded = write_weights(&trained);
        padded.push(0);
        assert!(read_weights(&mut zoo::tc1(), &padded).is_err());
    }

    #[test]
    fn condor_weights_reject_overflowing_tensor_dimensions() {
        // 65536⁴ = 2⁶⁴ wraps to 0 elements unless the product is
        // checked, and would then match the empty body that follows.
        for dim in [65_536u32, u32::MAX] {
            let mut bytes = WEIGHTS_MAGIC.to_vec();
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(&5u32.to_le_bytes());
            bytes.extend_from_slice(b"conv1");
            for _ in 0..4 {
                bytes.extend_from_slice(&dim.to_le_bytes());
            }
            let err = read_weights(&mut zoo::tc1(), &bytes).unwrap_err();
            assert!(err.message.contains("implausibly large"), "{dim}: {err}");
        }
    }

    #[test]
    fn condor_weights_reject_wrong_network() {
        let trained = zoo::tc1_weighted(5);
        let bytes = write_weights(&trained);
        let mut lenet = zoo::lenet();
        // TC1 layer names exist in LeNet (conv1 …) but shapes differ.
        assert!(read_weights(&mut lenet, &bytes).is_err());
    }

    #[test]
    fn condor_input_path_loads_weights() {
        let trained = zoo::tc1_weighted(9);
        let repr = NetworkRepresentation::new(zoo::tc1(), HardwareConfig::default());
        let model = analyze(FrontendInput::Condor {
            representation: repr.to_text(),
            weights: Some(write_weights(&trained)),
        })
        .unwrap();
        assert!(model.network.fully_weighted());
    }
}

#[cfg(test)]
mod export_tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_nn::zoo;
    use condor_tensor::AllClose;

    #[test]
    fn caffe_export_import_roundtrip() {
        let trained = zoo::lenet_weighted(91);
        let proto = network_to_caffe(&trained);
        // Topology survives via prototxt…
        let text = proto.to_prototxt();
        let reparsed = caffe_to_network(&NetParameter::from_prototxt(&text).unwrap()).unwrap();
        assert_eq!(reparsed.layers, trained.layers);
        assert_eq!(reparsed.input_shape, trained.input_shape);
        // …and weights survive via caffemodel.
        let bytes = proto.encode();
        let model = analyze(FrontendInput::Caffe {
            prototxt: text,
            caffemodel: Some(bytes.to_vec()),
        })
        .unwrap();
        assert!(model.network.fully_weighted());
        assert!(model
            .network
            .weights_of("ip1")
            .unwrap()
            .weights
            .all_close(&trained.weights_of("ip1").unwrap().weights));
    }

    #[test]
    fn branchy_export_import_roundtrip() {
        let net = zoo::resnet_block_weighted(13);
        let proto = network_to_caffe(&net);
        let text = proto.to_prototxt();
        let back = caffe_to_network(&NetParameter::from_prototxt(&text).unwrap()).unwrap();
        assert!(!back.is_linear_chain());
        assert_eq!(back, zoo::resnet_block());
        // Weights survive the caffemodel path.
        let model = analyze(FrontendInput::Caffe {
            prototxt: text,
            caffemodel: Some(proto.encode()),
        })
        .unwrap();
        assert!(model.network.fully_weighted());
        assert!(model
            .network
            .weights_of("conv2")
            .unwrap()
            .weights
            .all_close(&net.weights_of("conv2").unwrap().weights));
    }

    #[test]
    fn export_of_random_dags_reimports() {
        for seed in 0..20u64 {
            let net = condor_nn::arbitrary::random_dag(seed);
            let proto = network_to_caffe(&net);
            let text = proto.to_prototxt();
            let back = caffe_to_network(&NetParameter::from_prototxt(&text).unwrap()).unwrap();
            assert_eq!(back, net, "seed {seed}");
        }
    }

    #[test]
    fn export_of_random_networks_reimports() {
        for seed in 0..30u64 {
            let net = condor_nn::arbitrary::random_weighted_chain(seed);
            let proto = network_to_caffe(&net);
            let text = proto.to_prototxt();
            let back = caffe_to_network(&NetParameter::from_prototxt(&text).unwrap()).unwrap();
            assert_eq!(back.layers, net.layers, "seed {seed}");
        }
    }

    #[test]
    fn export_without_input_layer_uses_legacy_fields() {
        let net = condor_nn::Network::new(
            "noinput",
            condor_tensor::Shape::chw(2, 6, 6),
            vec![condor_nn::Layer::new(
                "relu",
                condor_nn::LayerKind::ReLU {
                    negative_slope: 0.0,
                },
            )],
        )
        .unwrap();
        let proto = network_to_caffe(&net);
        assert_eq!(proto.input_dim, vec![1, 2, 6, 6]);
        let back = caffe_to_network(&proto).unwrap();
        assert_eq!(back.input_shape, net.input_shape);
    }
}

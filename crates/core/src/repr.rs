//! The Condor-specific JSON network representation.
//!
//! Paper Section 3.1.1: "the core-logic tier uses an internal JSON to
//! describe the topology of the network. It resembles the caffe prototxt
//! file but contains more information about the underlying hardware of
//! the accelerator, such as the desired board, the operating frequency
//! and desired level of parallelism of each layer."

use crate::error::CondorError;
use condor_cjson::{access, to_string_pretty, Value};
use condor_dataflow::{PeParallelism, Precision};
use condor_nn::{EltwiseOp, Layer, LayerKind, Network, NetworkBuilder, NodeId, PoolKind};
use condor_tensor::Shape;
use std::collections::BTreeMap;

/// Where the accelerator will be deployed (paper "Deployment Option").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeploymentTarget {
    /// A locally accessible board, programmed with an `xclbin`.
    OnPremise,
    /// The Amazon F1 instances, through an AFI.
    Cloud,
}

impl DeploymentTarget {
    fn as_str(&self) -> &'static str {
        match self {
            DeploymentTarget::OnPremise => "on-premise",
            DeploymentTarget::Cloud => "cloud",
        }
    }

    fn parse(s: &str) -> Result<Self, CondorError> {
        match s {
            "on-premise" => Ok(DeploymentTarget::OnPremise),
            "cloud" => Ok(DeploymentTarget::Cloud),
            other => Err(CondorError::new(
                "frontend",
                format!("unknown deployment option '{other}' (expected on-premise or cloud)"),
            )),
        }
    }
}

/// The hardware directives carried alongside the topology.
#[derive(Clone, Debug, PartialEq)]
pub struct HardwareConfig {
    /// Target board name from the `condor-fpga` catalog.
    pub board: String,
    /// Requested operating frequency in MHz.
    pub freq_mhz: f64,
    /// Deployment option.
    pub deployment: DeploymentTarget,
    /// Layer-fusion factor (1 = one PE per anchor layer).
    pub fusion: usize,
    /// Feature-map parallelism applied to every PE.
    pub parallelism: PeParallelism,
    /// Per-layer parallelism overrides — the paper's "desired level of
    /// parallelism of each layer". Keyed by layer name.
    pub layer_overrides: BTreeMap<String, PeParallelism>,
    /// Datapath precision applied to every PE. Serialised only when it
    /// differs from the f32 default, so historical documents stay
    /// byte-identical.
    pub precision: Precision,
    /// Per-layer precision overrides, keyed by layer name.
    pub layer_precisions: BTreeMap<String, Precision>,
}

impl Default for HardwareConfig {
    fn default() -> Self {
        HardwareConfig {
            board: "aws-f1".to_string(),
            freq_mhz: 100.0,
            deployment: DeploymentTarget::OnPremise,
            fusion: 1,
            parallelism: PeParallelism::default(),
            layer_overrides: BTreeMap::new(),
            precision: Precision::F32,
            layer_precisions: BTreeMap::new(),
        }
    }
}

/// A parsed Condor network-representation document: topology + hardware
/// directives (weights stay in their own external file).
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkRepresentation {
    /// The (unweighted) network topology.
    pub network: Network,
    /// Hardware directives.
    pub hardware: HardwareConfig,
}

impl NetworkRepresentation {
    /// Wraps a network with hardware directives.
    pub fn new(network: Network, hardware: HardwareConfig) -> Self {
        NetworkRepresentation { network, hardware }
    }

    /// Serialises to the Condor JSON document.
    ///
    /// Linear chains emit schema version 1 exactly as they always have
    /// (byte-for-byte — edges are implicit in layer order). DAG-shaped
    /// networks emit version 2, where every layer carries an `inputs`
    /// array naming the layers it reads.
    pub fn to_json(&self) -> Value {
        let version = if self.network.is_linear_chain() { 1 } else { 2 };
        let mut layers = Vec::new();
        for (i, layer) in self.network.layers.iter().enumerate() {
            let mut doc = layer_to_json(layer);
            if let Value::Object(map) = &mut doc {
                if version == 2 {
                    let inputs: Vec<Value> = self
                        .network
                        .inputs_of(NodeId::from_index(i))
                        .into_iter()
                        .filter_map(|p| self.network.node(p))
                        .map(|l| Value::str(&l.name))
                        .collect();
                    map.insert("inputs".to_string(), Value::Array(inputs));
                }
                if let Some(p) = self.hardware.layer_overrides.get(&layer.name) {
                    map.insert("parallelism".to_string(), parallelism_to_json(p));
                }
                if let Some(p) = self.hardware.layer_precisions.get(&layer.name) {
                    map.insert("precision".to_string(), Value::str(p.as_str()));
                }
            }
            layers.push(doc);
        }
        let input = self.network.input_shape;
        let mut fields = vec![
            ("condor_version".to_string(), Value::int(version)),
            ("name".to_string(), Value::str(&self.network.name)),
            ("board".to_string(), Value::str(&self.hardware.board)),
            (
                "frequency_mhz".to_string(),
                Value::float(self.hardware.freq_mhz),
            ),
            (
                "deployment".to_string(),
                Value::str(self.hardware.deployment.as_str()),
            ),
            ("fusion".to_string(), Value::from(self.hardware.fusion)),
        ];
        // Default-omitted so f32 documents serialise exactly as before
        // the precision field existed.
        if self.hardware.precision != Precision::F32 {
            fields.push((
                "precision".to_string(),
                Value::str(self.hardware.precision.as_str()),
            ));
        }
        fields.extend([
            (
                "parallelism".to_string(),
                parallelism_to_json(&self.hardware.parallelism),
            ),
            (
                "input_shape".to_string(),
                Value::object([
                    ("channels".to_string(), Value::from(input.c)),
                    ("height".to_string(), Value::from(input.h)),
                    ("width".to_string(), Value::from(input.w)),
                ]),
            ),
            ("layers".to_string(), Value::Array(layers)),
        ]);
        Value::object(fields)
    }

    /// Pretty-printed document text (the on-disk artifact).
    pub fn to_text(&self) -> String {
        to_string_pretty(&self.to_json())
    }

    /// Parses a Condor JSON document.
    pub fn parse(text: &str) -> Result<Self, CondorError> {
        let doc = condor_cjson::parse(text)?;
        Self::from_json(&doc)
    }

    /// Builds from a parsed JSON value.
    fn from_json(doc: &Value) -> Result<Self, CondorError> {
        let version = access::usize_or(doc, "", "condor_version", 1)?;
        if version != 1 && version != 2 {
            return Err(CondorError::new(
                "frontend",
                format!("unsupported condor_version {version} (expected 1 or 2)"),
            ));
        }
        let name = access::req_str(doc, "", "name")?.to_string();
        let board = access::opt_str(doc, "", "board")?
            .unwrap_or("aws-f1")
            .to_string();
        let freq_mhz = access::f64_or(doc, "", "frequency_mhz", 100.0)?;
        if !(freq_mhz.is_finite() && freq_mhz > 0.0) {
            return Err(CondorError::new(
                "frontend",
                format!("frequency_mhz must be positive, got {freq_mhz}"),
            ));
        }
        let deployment = DeploymentTarget::parse(
            access::opt_str(doc, "", "deployment")?.unwrap_or("on-premise"),
        )?;
        let fusion = access::usize_or(doc, "", "fusion", 1)?.max(1);
        let precision = precision_from_json(doc, "")?.unwrap_or_default();
        let parallelism = match doc.get("parallelism") {
            None => PeParallelism::default(),
            Some(p) => parallelism_from_json(p, "parallelism")?,
        };
        let ishape = access::req(doc, "", "input_shape")?;
        let input_shape = Shape::chw(
            access::req_usize(ishape, "input_shape", "channels")?,
            access::req_usize(ishape, "input_shape", "height")?,
            access::req_usize(ishape, "input_shape", "width")?,
        );
        let layer_docs = access::req_array(doc, "", "layers")?;
        let mut layers = Vec::with_capacity(layer_docs.len());
        // Per-layer `inputs` arrays (version 2). `None` means the layer
        // declared none and falls back to chaining off its predecessor —
        // which is also how every version-1 document reads.
        let mut layer_inputs: Vec<Option<Vec<String>>> = Vec::with_capacity(layer_docs.len());
        let mut layer_overrides = BTreeMap::new();
        let mut layer_precisions = BTreeMap::new();
        for (i, ld) in layer_docs.iter().enumerate() {
            let path = access::elem_path("", "layers", i);
            let layer = layer_from_json(ld, &path)?;
            if let Some(p) = ld.get("parallelism") {
                layer_overrides.insert(
                    layer.name.clone(),
                    parallelism_from_json(p, &format!("{path}.parallelism"))?,
                );
            }
            if let Some(p) = precision_from_json(ld, &path)? {
                layer_precisions.insert(layer.name.clone(), p);
            }
            layer_inputs.push(match ld.get("inputs") {
                None => None,
                Some(v) => {
                    let items = v.as_array().ok_or_else(|| {
                        CondorError::new("frontend", format!("{path}.inputs: expected an array"))
                    })?;
                    let mut names = Vec::with_capacity(items.len());
                    for item in items {
                        names.push(
                            item.as_str()
                                .ok_or_else(|| {
                                    CondorError::new(
                                        "frontend",
                                        format!("{path}.inputs: expected layer-name strings"),
                                    )
                                })?
                                .to_string(),
                        );
                    }
                    Some(names)
                }
            });
            layers.push(layer);
        }
        let network = if layer_inputs.iter().all(Option::is_none) {
            // Version 1 (or an inputs-free version-2 document): the
            // historical chain semantics, bit-identical to before.
            Network::new(name, input_shape, layers)?
        } else {
            let mut b = NetworkBuilder::new(name, input_shape);
            let mut ids: BTreeMap<String, NodeId> = BTreeMap::new();
            for (i, (layer, inputs)) in layers.into_iter().zip(layer_inputs).enumerate() {
                let resolved: Vec<NodeId> = match inputs {
                    Some(names) => {
                        let mut r = Vec::with_capacity(names.len());
                        for n in &names {
                            r.push(*ids.get(n.as_str()).ok_or_else(|| {
                                CondorError::new(
                                    "frontend",
                                    format!(
                                        "layers[{i}]: input '{n}' does not name an \
                                         earlier layer"
                                    ),
                                )
                            })?);
                        }
                        r
                    }
                    // No `inputs` field: chain off the previous layer.
                    None => i
                        .checked_sub(1)
                        .map(NodeId::from_index)
                        .into_iter()
                        .collect(),
                };
                let lname = layer.name.clone();
                let id = b.add(layer, &resolved)?;
                ids.insert(lname, id);
            }
            b.build()?
        };
        Ok(NetworkRepresentation {
            network,
            hardware: HardwareConfig {
                board,
                freq_mhz,
                deployment,
                fusion,
                parallelism,
                layer_overrides,
                precision,
                layer_precisions,
            },
        })
    }
}

/// Reads an optional `precision` field off `doc`, rejecting unknown
/// names so a typo cannot silently fall back to f32.
fn precision_from_json(doc: &Value, path: &str) -> Result<Option<Precision>, CondorError> {
    match access::opt_str(doc, path, "precision")? {
        None => Ok(None),
        Some(s) => Precision::parse(s).map(Some).ok_or_else(|| {
            CondorError::new(
                "frontend",
                format!("{path}.precision: unknown precision '{s}' (expected f32 or int8)"),
            )
        }),
    }
}

fn parallelism_to_json(p: &PeParallelism) -> Value {
    Value::object([
        ("input_maps".to_string(), Value::from(p.parallel_in)),
        ("output_maps".to_string(), Value::from(p.parallel_out)),
        ("fc_simd".to_string(), Value::from(p.fc_simd)),
    ])
}

fn parallelism_from_json(p: &Value, path: &str) -> Result<PeParallelism, CondorError> {
    Ok(PeParallelism {
        parallel_in: access::usize_or(p, path, "input_maps", 1)?.max(1),
        parallel_out: access::usize_or(p, path, "output_maps", 1)?.max(1),
        fc_simd: access::usize_or(p, path, "fc_simd", 1)?.max(1),
    })
}

fn layer_to_json(layer: &Layer) -> Value {
    let mut fields: Vec<(String, Value)> = vec![
        ("name".to_string(), Value::str(&layer.name)),
        ("type".to_string(), Value::str(layer.kind.caffe_type())),
    ];
    match layer.kind {
        LayerKind::Input => {}
        LayerKind::Convolution {
            num_output,
            kernel,
            stride,
            pad,
            bias,
        } => {
            fields.push(("num_output".to_string(), Value::from(num_output)));
            fields.push(("kernel_size".to_string(), Value::from(kernel)));
            fields.push(("stride".to_string(), Value::from(stride)));
            fields.push(("pad".to_string(), Value::from(pad)));
            fields.push(("bias".to_string(), Value::Bool(bias)));
        }
        LayerKind::Pooling {
            method,
            kernel,
            stride,
            pad,
        } => {
            fields.push((
                "pool".to_string(),
                Value::str(match method {
                    PoolKind::Max => "MAX",
                    PoolKind::Average => "AVE",
                }),
            ));
            fields.push(("kernel_size".to_string(), Value::from(kernel)));
            fields.push(("stride".to_string(), Value::from(stride)));
            fields.push(("pad".to_string(), Value::from(pad)));
        }
        LayerKind::ReLU { negative_slope } => {
            fields.push((
                "negative_slope".to_string(),
                Value::float(negative_slope as f64),
            ));
        }
        LayerKind::Sigmoid | LayerKind::TanH => {}
        LayerKind::InnerProduct { num_output, bias } => {
            fields.push(("num_output".to_string(), Value::from(num_output)));
            fields.push(("bias".to_string(), Value::Bool(bias)));
        }
        LayerKind::Softmax { log } => {
            fields.push(("log".to_string(), Value::Bool(log)));
        }
        LayerKind::Concat => {}
        LayerKind::Eltwise { op } => {
            fields.push(("operation".to_string(), Value::str(op.caffe_name())));
        }
    }
    Value::object(fields)
}

fn layer_from_json(doc: &Value, path: &str) -> Result<Layer, CondorError> {
    let name = access::req_str(doc, path, "name")?.to_string();
    let type_ = access::req_str(doc, path, "type")?;
    let kind = match type_ {
        "Input" => LayerKind::Input,
        "Convolution" => LayerKind::Convolution {
            num_output: access::req_usize(doc, path, "num_output")?,
            kernel: access::req_usize(doc, path, "kernel_size")?,
            stride: access::usize_or(doc, path, "stride", 1)?,
            pad: access::usize_or(doc, path, "pad", 0)?,
            bias: access::bool_or(doc, path, "bias", true)?,
        },
        "Pooling" => LayerKind::Pooling {
            method: match access::opt_str(doc, path, "pool")?.unwrap_or("MAX") {
                "MAX" => PoolKind::Max,
                "AVE" => PoolKind::Average,
                other => {
                    return Err(CondorError::new(
                        "frontend",
                        format!("{path}: unsupported pool method '{other}'"),
                    ))
                }
            },
            kernel: access::req_usize(doc, path, "kernel_size")?,
            stride: access::usize_or(doc, path, "stride", 1)?,
            pad: access::usize_or(doc, path, "pad", 0)?,
        },
        "ReLU" => LayerKind::ReLU {
            negative_slope: access::f64_or(doc, path, "negative_slope", 0.0)? as f32,
        },
        "Sigmoid" => LayerKind::Sigmoid,
        "TanH" => LayerKind::TanH,
        "InnerProduct" => LayerKind::InnerProduct {
            num_output: access::req_usize(doc, path, "num_output")?,
            bias: access::bool_or(doc, path, "bias", true)?,
        },
        "Softmax" => LayerKind::Softmax {
            log: access::bool_or(doc, path, "log", false)?,
        },
        "LogSoftmax" => LayerKind::Softmax { log: true },
        "Concat" => LayerKind::Concat,
        "Eltwise" => LayerKind::Eltwise {
            op: match access::opt_str(doc, path, "operation")?.unwrap_or("SUM") {
                "PROD" => EltwiseOp::Prod,
                "SUM" => EltwiseOp::Sum,
                "MAX" => EltwiseOp::Max,
                other => {
                    return Err(CondorError::new(
                        "frontend",
                        format!("{path}: unsupported eltwise operation '{other}'"),
                    ))
                }
            },
        },
        other => {
            return Err(CondorError::new(
                "frontend",
                format!("{path}: unsupported layer type '{other}'"),
            ))
        }
    };
    Ok(Layer::new(name, kind))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_nn::zoo;

    fn lenet_repr() -> NetworkRepresentation {
        NetworkRepresentation::new(
            zoo::lenet(),
            HardwareConfig {
                board: "aws-f1".to_string(),
                freq_mhz: 180.0,
                deployment: DeploymentTarget::Cloud,
                fusion: 1,
                parallelism: PeParallelism {
                    parallel_in: 1,
                    parallel_out: 1,
                    fc_simd: 2,
                },
                layer_overrides: BTreeMap::new(),
                precision: Precision::F32,
                layer_precisions: BTreeMap::new(),
            },
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let repr = lenet_repr();
        let text = repr.to_text();
        let back = NetworkRepresentation::parse(&text).unwrap();
        assert_eq!(back, repr);
    }

    #[test]
    fn f32_documents_omit_the_precision_field() {
        let text = lenet_repr().to_text();
        assert!(!text.contains("precision"));
    }

    #[test]
    fn precision_roundtrips_globally_and_per_layer() {
        let mut repr = lenet_repr();
        repr.hardware.precision = Precision::Int8;
        repr.hardware
            .layer_precisions
            .insert("conv2".to_string(), Precision::F32);
        let text = repr.to_text();
        assert!(text.contains("\"precision\": \"int8\""));
        assert!(text.contains("\"precision\": \"f32\""));
        let back = NetworkRepresentation::parse(&text).unwrap();
        assert_eq!(back, repr);
    }

    #[test]
    fn unknown_precision_is_rejected() {
        let mut text = lenet_repr().to_text();
        text = text.replace(
            "\"fusion\": 1,",
            "\"fusion\": 1,\n  \"precision\": \"fp16\",",
        );
        let err = NetworkRepresentation::parse(&text).unwrap_err();
        assert!(err.message.contains("unknown precision"), "{}", err.message);
    }

    #[test]
    fn document_carries_hardware_fields() {
        let text = lenet_repr().to_text();
        assert!(text.contains("\"board\": \"aws-f1\""));
        assert!(text.contains("\"frequency_mhz\": 180.0"));
        assert!(text.contains("\"deployment\": \"cloud\""));
        assert!(text.contains("\"fc_simd\": 2"));
        assert!(text.contains("\"type\": \"Convolution\""));
    }

    #[test]
    fn defaults_apply_for_missing_hardware_fields() {
        let doc = r#"{
            "name": "mini",
            "input_shape": {"channels": 1, "height": 8, "width": 8},
            "layers": [
                {"name": "conv1", "type": "Convolution", "num_output": 2, "kernel_size": 3}
            ]
        }"#;
        let repr = NetworkRepresentation::parse(doc).unwrap();
        assert_eq!(repr.hardware.board, "aws-f1");
        assert_eq!(repr.hardware.freq_mhz, 100.0);
        assert_eq!(repr.hardware.deployment, DeploymentTarget::OnPremise);
        assert_eq!(repr.hardware.parallelism, PeParallelism::default());
        // Caffe-style defaults on the layer too.
        match repr.network.layers[0].kind {
            LayerKind::Convolution {
                stride, pad, bias, ..
            } => {
                assert_eq!((stride, pad, bias), (1, 0, true));
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn unsupported_layer_type_is_reported_with_path() {
        let doc = r#"{
            "name": "bad",
            "input_shape": {"channels": 1, "height": 8, "width": 8},
            "layers": [{"name": "l", "type": "LSTM"}]
        }"#;
        let err = NetworkRepresentation::parse(doc).unwrap_err();
        assert!(err.message.contains("layers[0]"));
        assert!(err.message.contains("LSTM"));
    }

    #[test]
    fn invalid_frequency_rejected() {
        let doc = r#"{
            "name": "bad",
            "frequency_mhz": -5,
            "input_shape": {"channels": 1, "height": 8, "width": 8},
            "layers": [{"name": "r", "type": "ReLU"}]
        }"#;
        let err = NetworkRepresentation::parse(doc).unwrap_err();
        assert!(err.message.contains("frequency_mhz"));
    }

    #[test]
    fn unknown_deployment_rejected() {
        let doc = r#"{
            "name": "bad",
            "deployment": "orbit",
            "input_shape": {"channels": 1, "height": 8, "width": 8},
            "layers": [{"name": "r", "type": "ReLU"}]
        }"#;
        let err = NetworkRepresentation::parse(doc).unwrap_err();
        assert!(err.message.contains("orbit"));
    }

    #[test]
    fn future_version_rejected() {
        let doc = r#"{
            "condor_version": 9,
            "name": "x",
            "input_shape": {"channels": 1, "height": 8, "width": 8},
            "layers": [{"name": "r", "type": "ReLU"}]
        }"#;
        let err = NetworkRepresentation::parse(doc).unwrap_err();
        assert!(err.message.contains("condor_version"));
    }

    #[test]
    fn chains_still_emit_version_1() {
        let text = lenet_repr().to_text();
        assert!(text.contains("\"condor_version\": 1"));
        assert!(!text.contains("\"inputs\""));
    }

    #[test]
    fn dags_roundtrip_through_version_2() {
        let repr = NetworkRepresentation::new(zoo::resnet_block(), HardwareConfig::default());
        let text = repr.to_text();
        assert!(text.contains("\"condor_version\": 2"));
        assert!(text.contains("\"inputs\""));
        let back = NetworkRepresentation::parse(&text).unwrap();
        assert_eq!(back, repr);
        assert!(!back.network.is_linear_chain());
    }

    #[test]
    fn random_dags_roundtrip_through_version_2() {
        for seed in 0..20u64 {
            let repr = NetworkRepresentation::new(
                condor_nn::arbitrary::random_dag(seed),
                HardwareConfig::default(),
            );
            let back = NetworkRepresentation::parse(&repr.to_text()).unwrap();
            assert_eq!(back, repr, "seed {seed}");
        }
    }

    #[test]
    fn unknown_input_name_is_reported() {
        let doc = r#"{
            "condor_version": 2,
            "name": "bad",
            "input_shape": {"channels": 1, "height": 8, "width": 8},
            "layers": [
                {"name": "data", "type": "Input", "inputs": []},
                {"name": "r", "type": "ReLU", "inputs": ["ghost"]}
            ]
        }"#;
        let err = NetworkRepresentation::parse(doc).unwrap_err();
        assert!(err.message.contains("ghost"));
    }

    #[test]
    fn topology_errors_bubble_up() {
        // Kernel larger than input fails network validation.
        let doc = r#"{
            "name": "bad",
            "input_shape": {"channels": 1, "height": 4, "width": 4},
            "layers": [
                {"name": "conv1", "type": "Convolution", "num_output": 2, "kernel_size": 9}
            ]
        }"#;
        assert!(NetworkRepresentation::parse(doc).is_err());
    }
}

#[cfg(test)]
mod layer_override_tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_nn::zoo;

    #[test]
    fn per_layer_parallelism_roundtrips() {
        let mut hw = HardwareConfig::default();
        hw.layer_overrides.insert(
            "conv2".to_string(),
            PeParallelism {
                parallel_in: 4,
                parallel_out: 10,
                fc_simd: 1,
            },
        );
        let repr = NetworkRepresentation::new(zoo::lenet(), hw);
        let text = repr.to_text();
        assert!(text.contains("\"output_maps\": 10"));
        let back = NetworkRepresentation::parse(&text).unwrap();
        assert_eq!(back, repr);
        assert_eq!(
            back.hardware
                .layer_overrides
                .get("conv2")
                .unwrap()
                .parallel_in,
            4
        );
    }

    #[test]
    fn per_layer_parallelism_reaches_the_plan() {
        let doc = r#"{
            "name": "mini",
            "input_shape": {"channels": 1, "height": 12, "width": 12},
            "layers": [
                {"name": "conv1", "type": "Convolution", "num_output": 8,
                 "kernel_size": 3,
                 "parallelism": {"output_maps": 4}},
                {"name": "conv2", "type": "Convolution", "num_output": 8,
                 "kernel_size": 3}
            ]
        }"#;
        let built = crate::Condor::from_condor_files(doc, None)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(built.plan.pes[0].parallelism.parallel_out, 4);
        assert_eq!(built.plan.pes[1].parallelism.parallel_out, 1);
    }
}

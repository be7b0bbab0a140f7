//! Feed-forward network container: validation, shape inference, weights
//! and per-layer cost accounting.
//!
//! Since the graph redesign a network is a DAG of nodes in topological
//! order (see [`crate::graph`]); the linear chain every earlier release
//! supported is the special case with no explicit edge table. Construct
//! networks through [`crate::NetworkBuilder`] (canonical) or
//! [`Network::new`] for plain chains.

use crate::graph::{NetworkBuilder, NodeId};
use crate::layer::{Layer, LayerKind, ShapeError, ShapeErrorKind, Stage};
use condor_tensor::{Shape, Tensor, TensorRng};
use std::collections::BTreeMap;
use std::fmt;

/// Machine-readable classification of an [`NnError`]. `condor-check`
/// maps these onto its stable diagnostic codes, so new variants must be
/// added rather than repurposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NnErrorKind {
    /// The network has no computational layers.
    NoComputeLayers,
    /// A layer has an empty name.
    EmptyLayerName,
    /// Two layers share a name.
    DuplicateLayerName,
    /// An `Input` layer appears after position 0.
    InputNotFirst,
    /// Shape inference failed (see the wrapped [`ShapeErrorKind`]).
    Shape(ShapeErrorKind),
    /// A layer name was looked up but does not exist.
    UnknownLayer,
    /// Installed weights/bias disagree with the declared layer shape.
    WeightShape,
    /// Inference requested on a layer with no weights installed.
    MissingWeights,
    /// Runtime input does not match the network's input shape.
    InputMismatch,
    /// A node's fan-in is impossible for its kind (e.g. an `Input` layer
    /// given predecessors). Arity violations discovered during shape
    /// inference carry `Shape(WrongArity)` instead.
    BadFanIn,
    /// Unclassified error (external constructors).
    Other,
}

/// Error raised while building or validating a network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NnError {
    /// Machine-readable failure class.
    pub kind: NnErrorKind,
    /// Name of the offending layer, when known.
    pub layer: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl NnError {
    /// Error tied to a layer.
    pub fn at(layer: &str, message: impl Into<String>) -> Self {
        NnError {
            kind: NnErrorKind::Other,
            layer: Some(layer.to_string()),
            message: message.into(),
        }
    }

    /// Network-level error.
    pub fn net(message: impl Into<String>) -> Self {
        NnError {
            kind: NnErrorKind::Other,
            layer: None,
            message: message.into(),
        }
    }

    /// Wraps a typed shape-inference failure at a layer.
    pub fn shape(layer: &str, err: ShapeError) -> Self {
        NnError {
            kind: NnErrorKind::Shape(err.kind),
            layer: Some(layer.to_string()),
            message: err.message,
        }
    }

    /// Tags the error with a machine-readable kind.
    #[must_use]
    pub fn with_kind(mut self, kind: NnErrorKind) -> Self {
        self.kind = kind;
        self
    }
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.layer {
            Some(l) => write!(f, "layer '{l}': {}", self.message),
            None => write!(f, "network: {}", self.message),
        }
    }
}

impl std::error::Error for NnError {}

/// Learned parameters of one layer.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerWeights {
    /// Convolution: `F × C_in × K × K`; inner product:
    /// `num_output × in_features × 1 × 1`.
    pub weights: Tensor,
    /// `1 × num_output × 1 × 1`, present when the layer has a bias term.
    pub bias: Option<Tensor>,
}

/// Per-layer cost summary used by the performance model and the paper's
/// GFLOPS accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerCost {
    /// Graph node this cost row describes.
    pub node: NodeId,
    /// Layer name.
    pub name: String,
    /// Input shape (single item).
    pub input: Shape,
    /// Output shape (single item).
    pub output: Shape,
    /// Multiply-accumulates per image.
    pub macs: u64,
    /// Floating-point ops per image.
    pub flops: u64,
    /// Stage the layer belongs to.
    pub stage: Stage,
    /// Learned parameter count (weights + biases).
    pub params: u64,
}

/// A validated feed-forward CNN: a DAG of layers in topological order.
///
/// The common case — and the only topology Condor's accelerator template
/// originally supported — is a linear chain (each PE's output feeds the
/// next PE); chains carry no explicit edge table (`edges` is `None`) and
/// node `i` implicitly reads node `i - 1`. Branchy topologies (built with
/// [`crate::NetworkBuilder`]) store an explicit predecessor list per node.
#[derive(Clone, Debug, PartialEq)]
pub struct Network {
    /// Network name.
    pub name: String,
    /// Shape of one input item (`n` is forced to 1).
    pub input_shape: Shape,
    /// Layers in topological execution order; the first layer may be
    /// `Input`.
    pub layers: Vec<Layer>,
    /// Weights per layer name for layers that carry them.
    pub weights: BTreeMap<String, LayerWeights>,
    /// Predecessor lists per node; `None` means the implicit linear
    /// chain (node `i` reads node `i - 1`, node 0 reads the network
    /// input). Kept private so direct `layers` mutation — which the
    /// defect corpus and tests rely on for chains — cannot desync an
    /// explicit edge table.
    pub(crate) edges: Option<Vec<Vec<NodeId>>>,
}

impl Network {
    /// Creates a linear-chain network and validates its structure.
    ///
    /// This is a thin wrapper over [`NetworkBuilder::chain`]; use
    /// [`crate::NetworkBuilder`] directly to build branchy (DAG)
    /// topologies.
    pub fn new(
        name: impl Into<String>,
        input_shape: Shape,
        layers: Vec<Layer>,
    ) -> Result<Self, NnError> {
        NetworkBuilder::chain(name, input_shape, layers)
    }

    /// Structural validation: non-empty, unique names, well-formed edge
    /// table, inferable shapes.
    pub fn validate(&self) -> Result<(), NnError> {
        if self.layers.iter().filter(|l| l.kind.is_compute()).count() == 0 {
            return Err(NnError::net("network has no computational layers")
                .with_kind(NnErrorKind::NoComputeLayers));
        }
        let mut seen = std::collections::BTreeSet::new();
        for layer in &self.layers {
            if layer.name.is_empty() {
                return Err(
                    NnError::net("layer with empty name").with_kind(NnErrorKind::EmptyLayerName)
                );
            }
            if !seen.insert(&layer.name) {
                return Err(
                    NnError::net(format!("duplicate layer name '{}'", layer.name))
                        .with_kind(NnErrorKind::DuplicateLayerName),
                );
            }
        }
        for (i, layer) in self.layers.iter().enumerate() {
            if matches!(layer.kind, LayerKind::Input) && i != 0 {
                return Err(NnError::at(&layer.name, "Input layer must come first")
                    .with_kind(NnErrorKind::InputNotFirst));
            }
        }
        if let Some(edges) = &self.edges {
            if edges.len() != self.layers.len() {
                return Err(NnError::net(format!(
                    "edge table covers {} nodes but the network has {} layers",
                    edges.len(),
                    self.layers.len()
                )));
            }
            for (i, (layer, preds)) in self.layers.iter().zip(edges).enumerate() {
                for p in preds {
                    if p.index() >= i {
                        return Err(NnError::at(
                            &layer.name,
                            format!("input {p} is not topologically earlier than node n{i}"),
                        )
                        .with_kind(NnErrorKind::BadFanIn));
                    }
                }
                if matches!(layer.kind, LayerKind::Input) && !preds.is_empty() {
                    return Err(NnError::at(&layer.name, "Input layers take no inputs")
                        .with_kind(NnErrorKind::BadFanIn));
                }
            }
        }
        self.output_shapes()?; // shape inference as validation
        Ok(())
    }

    /// Number of nodes in the graph (= layers).
    pub fn node_count(&self) -> usize {
        self.layers.len()
    }

    /// All node ids in topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.layers.len()).map(NodeId::from_index)
    }

    /// The layer at a node, if the id is in range.
    pub fn node(&self, id: NodeId) -> Option<&Layer> {
        self.layers.get(id.index())
    }

    /// The node carrying the layer with the given name.
    pub fn node_id_of(&self, name: &str) -> Option<NodeId> {
        self.layers
            .iter()
            .position(|l| l.name == name)
            .map(NodeId::from_index)
    }

    /// Predecessor nodes of a node, in input order. An empty list means
    /// the node reads the network input.
    pub fn inputs_of(&self, id: NodeId) -> Vec<NodeId> {
        match &self.edges {
            Some(edges) => edges.get(id.index()).cloned().unwrap_or_default(),
            None => {
                if id.index() == 0 || id.index() >= self.layers.len() {
                    Vec::new()
                } else {
                    vec![NodeId::from_index(id.index() - 1)]
                }
            }
        }
    }

    /// Nodes that consume this node's output, in topological order.
    pub fn consumers_of(&self, id: NodeId) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.inputs_of(n).contains(&id))
            .collect()
    }

    /// True when the network is a plain linear chain (every node reads
    /// the preceding node). [`crate::NetworkBuilder`] canonicalises
    /// chain-shaped edge tables away, so this is equivalent to "no
    /// explicit edge table".
    pub fn is_linear_chain(&self) -> bool {
        self.edges.is_none()
    }

    /// Output shape of every node (single-item), in topological order.
    pub fn output_shapes(&self) -> Result<Vec<Shape>, NnError> {
        let mut shapes: Vec<Shape> = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let preds = self.inputs_of(NodeId::from_index(i));
            let ins: Vec<Shape> = if preds.is_empty() {
                vec![self.input_shape]
            } else {
                let mut v = Vec::with_capacity(preds.len());
                for p in &preds {
                    v.push(*shapes.get(p.index()).ok_or_else(|| {
                        NnError::at(&layer.name, format!("input {p} out of range"))
                            .with_kind(NnErrorKind::BadFanIn)
                    })?);
                }
                v
            };
            let out = layer
                .kind
                .output_shape_multi(&ins)
                .map_err(|e| NnError::shape(&layer.name, e))?;
            shapes.push(out);
        }
        Ok(shapes)
    }

    /// Primary (first) input shape of every node, in topological order.
    /// For merge nodes this is the first predecessor's output; use
    /// [`Network::input_shapes_multi`] for the full fan-in.
    pub fn input_shapes(&self) -> Result<Vec<Shape>, NnError> {
        Ok(self
            .input_shapes_multi()?
            .into_iter()
            .map(|ins| ins.first().copied().unwrap_or(self.input_shape))
            .collect())
    }

    /// All input shapes of every node, in topological order and input
    /// order. Nodes reading the network input get a one-element list.
    pub fn input_shapes_multi(&self) -> Result<Vec<Vec<Shape>>, NnError> {
        let outs = self.output_shapes()?;
        let mut ins = Vec::with_capacity(self.layers.len());
        for i in 0..self.layers.len() {
            let preds = self.inputs_of(NodeId::from_index(i));
            if preds.is_empty() {
                ins.push(vec![self.input_shape]);
            } else {
                ins.push(preds.iter().map(|p| outs[p.index()]).collect());
            }
        }
        Ok(ins)
    }

    /// Shape of the final output (single item).
    pub fn output_shape(&self) -> Result<Shape, NnError> {
        self.output_shapes()?.last().copied().ok_or_else(|| {
            NnError::net("network has no layers").with_kind(NnErrorKind::NoComputeLayers)
        })
    }

    /// Stage of every layer (feature extraction vs classification).
    pub fn stages(&self) -> Vec<Stage> {
        let mut after_fc = false;
        self.layers
            .iter()
            .map(|l| {
                let s = l.kind.stage(after_fc);
                if matches!(l.kind, LayerKind::InnerProduct { .. }) {
                    after_fc = true;
                }
                s
            })
            .collect()
    }

    /// Expected weight/bias shapes for a node, `None` for weight-less
    /// layers.
    pub fn node_weight_shapes(
        &self,
        node: NodeId,
    ) -> Result<Option<(Shape, Option<Shape>)>, NnError> {
        let index = node.index();
        let ins = self.input_shapes()?;
        let layer = self.layers.get(index).ok_or_else(|| {
            NnError::net(format!("node {node} out of range")).with_kind(NnErrorKind::UnknownLayer)
        })?;
        Ok(match layer.kind {
            LayerKind::Convolution {
                num_output,
                kernel,
                bias,
                ..
            } => Some((
                Shape::new(num_output, ins[index].c, kernel, kernel),
                bias.then(|| Shape::vector(num_output)),
            )),
            LayerKind::InnerProduct { num_output, bias } => Some((
                Shape::new(num_output, ins[index].item_len(), 1, 1),
                bias.then(|| Shape::vector(num_output)),
            )),
            _ => None,
        })
    }

    /// Installs weights for a layer after shape-checking them.
    pub fn set_weights(
        &mut self,
        layer_name: &str,
        weights: Tensor,
        bias: Option<Tensor>,
    ) -> Result<(), NnError> {
        let index = self
            .layers
            .iter()
            .position(|l| l.name == layer_name)
            .ok_or_else(|| {
                NnError::net(format!("no layer named '{layer_name}'"))
                    .with_kind(NnErrorKind::UnknownLayer)
            })?;
        let expected = self
            .node_weight_shapes(NodeId::from_index(index))?
            .ok_or_else(|| {
                NnError::at(layer_name, "layer does not take weights")
                    .with_kind(NnErrorKind::WeightShape)
            })?;
        if weights.shape() != expected.0 {
            return Err(NnError::at(
                layer_name,
                format!(
                    "weight shape {} does not match expected {}",
                    weights.shape(),
                    expected.0
                ),
            )
            .with_kind(NnErrorKind::WeightShape));
        }
        match (&bias, expected.1) {
            (Some(b), Some(eb)) if b.shape() != eb => {
                return Err(NnError::at(
                    layer_name,
                    format!("bias shape {} does not match expected {eb}", b.shape()),
                )
                .with_kind(NnErrorKind::WeightShape));
            }
            (Some(_), None) => {
                return Err(NnError::at(layer_name, "layer has bias_term: false")
                    .with_kind(NnErrorKind::WeightShape));
            }
            (None, Some(_)) => {
                return Err(NnError::at(layer_name, "missing bias tensor")
                    .with_kind(NnErrorKind::WeightShape));
            }
            _ => {}
        }
        self.weights
            .insert(layer_name.to_string(), LayerWeights { weights, bias });
        Ok(())
    }

    /// Installed weights for a layer, if any.
    pub fn weights_of(&self, layer_name: &str) -> Option<&LayerWeights> {
        self.weights.get(layer_name)
    }

    /// Weights for a layer; a typed error (rather than a panic) if the
    /// network was mutated to drop them after an engine was built.
    pub(crate) fn weights_or_err(&self, layer_name: &str) -> Result<&LayerWeights, NnError> {
        self.weights_of(layer_name).ok_or_else(|| {
            NnError::at(layer_name, "no weights installed").with_kind(NnErrorKind::MissingWeights)
        })
    }

    /// True when every weight-bearing layer has weights installed.
    pub fn fully_weighted(&self) -> bool {
        self.layers
            .iter()
            .filter(|l| l.kind.has_weights())
            .all(|l| self.weights.contains_key(&l.name))
    }

    /// Installs deterministic Xavier weights for every weight-bearing
    /// layer — the stand-in for a trained `caffemodel` (see DESIGN.md).
    pub fn attach_random_weights(&mut self, seed: u64) -> Result<(), NnError> {
        let mut rng = TensorRng::seeded(seed);
        let mut plans: Vec<(String, Shape, Option<Shape>)> = Vec::new();
        for (i, l) in self.layers.iter().enumerate() {
            if let Some((w, b)) = self.node_weight_shapes(NodeId::from_index(i))? {
                plans.push((l.name.clone(), w, b));
            }
        }
        for (name, wshape, bshape) in plans {
            let fan_in = wshape.item_len();
            let weights = rng.xavier(wshape, fan_in.max(1));
            let bias = bshape.map(|bs| rng.uniform(bs, -0.05, 0.05));
            self.set_weights(&name, weights, bias)?;
        }
        Ok(())
    }

    /// Per-node cost table, in topological order.
    pub fn costs(&self) -> Result<Vec<LayerCost>, NnError> {
        let ins = self.input_shapes()?;
        let ins_multi = self.input_shapes_multi()?;
        let outs = self.output_shapes()?;
        let stages = self.stages();
        let mut costs = Vec::with_capacity(self.layers.len());
        for (i, l) in self.layers.iter().enumerate() {
            let node = NodeId::from_index(i);
            let params = match self.node_weight_shapes(node)? {
                Some((w, b)) => w.len() as u64 + b.map_or(0, |s| s.len() as u64),
                None => 0,
            };
            // Eltwise cost scales with the actual fan-in: n inputs take
            // n - 1 element-wise ops per output element.
            let flops = match l.kind {
                LayerKind::Eltwise { .. } => {
                    (ins_multi[i].len().saturating_sub(1) as u64) * outs[i].item_len() as u64
                }
                _ => l.kind.flops(ins[i]),
            };
            costs.push(LayerCost {
                node,
                name: l.name.clone(),
                input: ins[i],
                output: outs[i],
                macs: l.kind.macs(ins[i]),
                flops,
                stage: stages[i],
                params,
            });
        }
        Ok(costs)
    }

    /// Total FLOPs per image.
    pub fn total_flops(&self) -> Result<u64, NnError> {
        Ok(self.costs()?.iter().map(|c| c.flops).sum())
    }

    /// Total FLOPs per image of the feature-extraction stage only — the
    /// quantity Table 2 of the paper reports GFLOPS for.
    pub fn feature_extraction_flops(&self) -> Result<u64, NnError> {
        Ok(self
            .costs()?
            .iter()
            .filter(|c| c.stage == Stage::FeatureExtraction)
            .map(|c| c.flops)
            .sum())
    }

    /// Total learned parameter count.
    pub fn total_params(&self) -> Result<u64, NnError> {
        Ok(self.costs()?.iter().map(|c| c.params).sum())
    }

    /// Number of compute layers (what the paper calls "the total number
    /// of layers of the network" for the Figure 5 convergence knee).
    pub fn compute_layer_count(&self) -> usize {
        self.layers.iter().filter(|l| l.kind.is_compute()).count()
    }

    /// The sub-network containing only the feature-extraction stage —
    /// used by the Table 2 experiments on "the sole features extraction
    /// part".
    pub fn feature_extraction_prefix(&self) -> Result<Network, NnError> {
        let stages = self.stages();
        let layers: Vec<Layer> = self
            .layers
            .iter()
            .zip(&stages)
            .take_while(|(_, s)| **s == Stage::FeatureExtraction)
            .map(|(l, _)| l.clone())
            .collect();
        // A topological prefix is closed under predecessors, so the edge
        // table truncates cleanly for DAG networks.
        let prefix_len = layers.len();
        let mut net = Network {
            name: format!("{}-features", self.name),
            input_shape: self.input_shape,
            layers,
            weights: BTreeMap::new(),
            edges: self.edges.as_ref().and_then(|e| {
                crate::graph::canonicalize_edges(e.iter().take(prefix_len).cloned().collect())
            }),
        };
        net.validate()?;
        for l in &net.layers.clone() {
            if let Some(w) = self.weights.get(&l.name) {
                net.weights.insert(l.name.clone(), w.clone());
            }
        }
        Ok(net)
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} (input {})", self.name, self.input_shape)?;
        if let Ok(outs) = self.output_shapes() {
            for (l, s) in self.layers.iter().zip(outs) {
                writeln!(f, "  {l} -> {s}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::layer::PoolKind;

    fn tiny_net() -> Network {
        Network::new(
            "tiny",
            Shape::chw(1, 8, 8),
            vec![
                Layer::new("data", LayerKind::Input),
                Layer::new(
                    "conv1",
                    LayerKind::Convolution {
                        num_output: 4,
                        kernel: 3,
                        stride: 1,
                        pad: 0,
                        bias: true,
                    },
                ),
                Layer::new(
                    "relu1",
                    LayerKind::ReLU {
                        negative_slope: 0.0,
                    },
                ),
                Layer::new(
                    "pool1",
                    LayerKind::Pooling {
                        method: PoolKind::Max,
                        kernel: 2,
                        stride: 2,
                        pad: 0,
                    },
                ),
                Layer::new(
                    "ip1",
                    LayerKind::InnerProduct {
                        num_output: 10,
                        bias: true,
                    },
                ),
                Layer::new("prob", LayerKind::Softmax { log: false }),
            ],
        )
        .unwrap()
    }

    #[test]
    fn shape_inference_chains() {
        let net = tiny_net();
        let shapes = net.output_shapes().unwrap();
        assert_eq!(shapes[1], Shape::new(1, 4, 6, 6)); // conv
        assert_eq!(shapes[3], Shape::new(1, 4, 3, 3)); // pool
        assert_eq!(shapes[4], Shape::vector(10)); // ip
        assert_eq!(net.output_shape().unwrap(), Shape::vector(10));
    }

    #[test]
    fn duplicate_layer_names_rejected() {
        let e = Network::new(
            "dup",
            Shape::chw(1, 8, 8),
            vec![
                Layer::new(
                    "a",
                    LayerKind::ReLU {
                        negative_slope: 0.0,
                    },
                ),
                Layer::new("a", LayerKind::Sigmoid),
            ],
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn input_must_be_first() {
        let e = Network::new(
            "bad",
            Shape::chw(1, 8, 8),
            vec![
                Layer::new(
                    "relu",
                    LayerKind::ReLU {
                        negative_slope: 0.0,
                    },
                ),
                Layer::new("data", LayerKind::Input),
            ],
        )
        .unwrap_err();
        assert!(e.message.contains("first"));
    }

    #[test]
    fn empty_network_rejected() {
        assert!(Network::new("empty", Shape::chw(1, 8, 8), vec![]).is_err());
        assert!(Network::new(
            "only-input",
            Shape::chw(1, 8, 8),
            vec![Layer::new("data", LayerKind::Input)]
        )
        .is_err());
    }

    #[test]
    fn weight_shapes_for_conv_and_fc() {
        let net = tiny_net();
        let shapes = |i: usize| net.node_weight_shapes(NodeId::from_index(i)).unwrap();
        let (w, b) = shapes(1).unwrap();
        assert_eq!(w, Shape::new(4, 1, 3, 3));
        assert_eq!(b, Some(Shape::vector(4)));
        let (w, b) = shapes(4).unwrap();
        assert_eq!(w, Shape::new(10, 4 * 3 * 3, 1, 1));
        assert_eq!(b, Some(Shape::vector(10)));
        assert!(shapes(2).is_none());
    }

    #[test]
    fn set_weights_validates_shapes() {
        let mut net = tiny_net();
        let bad = Tensor::zeros(Shape::new(4, 1, 5, 5));
        assert!(net.set_weights("conv1", bad, None).is_err());
        let good_w = Tensor::zeros(Shape::new(4, 1, 3, 3));
        // Missing bias.
        assert!(net.set_weights("conv1", good_w.clone(), None).is_err());
        let good_b = Tensor::zeros(Shape::vector(4));
        net.set_weights("conv1", good_w, Some(good_b)).unwrap();
        assert!(net.weights_of("conv1").is_some());
        assert!(!net.fully_weighted()); // ip1 still missing
    }

    #[test]
    fn attach_random_weights_covers_all_layers() {
        let mut net = tiny_net();
        net.attach_random_weights(42).unwrap();
        assert!(net.fully_weighted());
        // Deterministic across runs.
        let mut net2 = tiny_net();
        net2.attach_random_weights(42).unwrap();
        assert_eq!(
            net.weights_of("conv1").unwrap().weights,
            net2.weights_of("conv1").unwrap().weights
        );
    }

    #[test]
    fn costs_and_totals() {
        let net = tiny_net();
        let costs = net.costs().unwrap();
        // conv1: 4*1*6*6*9 MACs.
        assert_eq!(costs[1].macs, 4 * 36 * 9);
        assert_eq!(costs[1].flops, 2 * 4 * 36 * 9 + 4 * 36);
        // ip1: 10 * 36 MACs.
        assert_eq!(costs[4].macs, 360);
        assert_eq!(costs[4].params, 10 * 36 + 10);
        assert_eq!(
            net.total_flops().unwrap(),
            costs.iter().map(|c| c.flops).sum::<u64>()
        );
        assert!(net.feature_extraction_flops().unwrap() < net.total_flops().unwrap());
    }

    #[test]
    fn stages_split_at_first_fc() {
        let net = tiny_net();
        let stages = net.stages();
        assert_eq!(stages[1], Stage::FeatureExtraction); // conv1
        assert_eq!(stages[3], Stage::FeatureExtraction); // pool1
        assert_eq!(stages[4], Stage::Classification); // ip1
        assert_eq!(stages[5], Stage::Classification); // prob
    }

    #[test]
    fn feature_extraction_prefix_drops_mlp() {
        let mut net = tiny_net();
        net.attach_random_weights(1).unwrap();
        let fe = net.feature_extraction_prefix().unwrap();
        assert_eq!(fe.layers.len(), 4); // data conv relu pool
        assert!(fe.weights_of("conv1").is_some());
        assert!(fe.weights_of("ip1").is_none());
        assert_eq!(fe.output_shape().unwrap(), Shape::new(1, 4, 3, 3));
    }

    #[test]
    fn compute_layer_count_excludes_input() {
        assert_eq!(tiny_net().compute_layer_count(), 5);
    }
}

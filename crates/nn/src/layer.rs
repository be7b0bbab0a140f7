//! The CNN layer vocabulary (paper Section 2).

use condor_tensor::Shape;
use std::fmt;

/// Why shape inference failed for a layer (see [`ShapeError`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShapeErrorKind {
    /// A hyper-parameter makes the layer meaningless (zero kernel,
    /// zero output maps, ...).
    BadHyperParam,
    /// The sliding window does not fit inside the (padded) input extent.
    WindowExceedsInput,
    /// The layer needs a flat `1×1` spatial stream but got a feature map.
    NonFlatStream,
    /// A merge layer's input shapes disagree (concat extents, eltwise
    /// operand shapes).
    MergeMismatch,
    /// A layer received the wrong number of inputs for its kind.
    WrongArity,
}

/// Typed shape-inference failure; wrapped by `NnError` (and by
/// `condor-check` diagnostics) with the offending layer attached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapeError {
    /// Failure class, stable across message rewording.
    pub kind: ShapeErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl ShapeError {
    fn new(kind: ShapeErrorKind, message: impl Into<String>) -> Self {
        ShapeError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ShapeError {}

/// Pooling operator of a sub-sampling layer (paper Section 2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max-pooling — "substituting the input sub-matrix with ... its
    /// maximum".
    Max,
    /// Average pooling — "... with its average".
    Average,
}

/// Element-wise merge operator of an [`LayerKind::Eltwise`] layer,
/// following Caffe's `EltwiseParameter.EltwiseOp` (`PROD = 0`, `SUM = 1`,
/// `MAX = 2`; `SUM` is the Caffe default and the operator ResNet-style
/// skip connections use).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EltwiseOp {
    /// Element-wise product.
    Prod,
    /// Element-wise sum (the default).
    #[default]
    Sum,
    /// Element-wise maximum.
    Max,
}

impl EltwiseOp {
    /// Caffe prototxt identifier for this operator.
    pub fn caffe_name(self) -> &'static str {
        match self {
            EltwiseOp::Prod => "PROD",
            EltwiseOp::Sum => "SUM",
            EltwiseOp::Max => "MAX",
        }
    }
}

/// The two phases the paper identifies within a CNN (Section 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// "Alternating convolutional and sub-sampling layers".
    FeatureExtraction,
    /// "A classical Multi-Layer Perceptron" of fully-connected layers.
    Classification,
}

/// One layer's operator and hyper-parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum LayerKind {
    /// The network input (Caffe `Input` layer); carries no computation.
    Input,
    /// Convolutional layer (paper Eq. (1)).
    Convolution {
        /// Output feature maps `F`.
        num_output: usize,
        /// Square kernel extent (`M_f = N_f`).
        kernel: usize,
        /// Sliding-window stride.
        stride: usize,
        /// Symmetric zero padding.
        pad: usize,
        /// Whether the optional bias `b_φ` is added.
        bias: bool,
    },
    /// Sub-sampling layer (paper Eq. (3)).
    Pooling {
        /// Pooling operator.
        method: PoolKind,
        /// Window extent.
        kernel: usize,
        /// Window stride (ρ in Eq. (3)).
        stride: usize,
        /// Symmetric zero padding.
        pad: usize,
    },
    /// Rectified Linear Unit, `f(x) = max(0, x)`; a non-zero
    /// `negative_slope` gives the leaky variant Caffe supports.
    ReLU {
        /// Slope applied to negative inputs (0 for plain ReLU).
        negative_slope: f32,
    },
    /// Logistic sigmoid `f(x) = 1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent `f(x) = tanh(x)`.
    TanH,
    /// Fully-connected layer (paper Eq. (4)); input is flattened.
    InnerProduct {
        /// Output neurons.
        num_output: usize,
        /// Whether the optional bias `b_l` is added.
        bias: bool,
    },
    /// Softmax normalisation (paper Eq. (5)); `log = true` gives the
    /// LogSoftMax operator the paper mentions.
    Softmax {
        /// Apply `ln` after normalising.
        log: bool,
    },
    /// Channel-axis concatenation of several inputs (Caffe `Concat` with
    /// `axis = 1`); the junction layer GoogLeNet-style branch merges use.
    /// All inputs must agree on spatial extent.
    Concat,
    /// Element-wise merge of several identically-shaped inputs (Caffe
    /// `Eltwise`); `Sum` realises ResNet-style skip connections.
    Eltwise {
        /// Merge operator.
        op: EltwiseOp,
    },
}

impl LayerKind {
    /// Caffe layer type string for this kind.
    pub fn caffe_type(&self) -> &'static str {
        match self {
            LayerKind::Input => "Input",
            LayerKind::Convolution { .. } => "Convolution",
            LayerKind::Pooling { .. } => "Pooling",
            LayerKind::ReLU { .. } => "ReLU",
            LayerKind::Sigmoid => "Sigmoid",
            LayerKind::TanH => "TanH",
            LayerKind::InnerProduct { .. } => "InnerProduct",
            LayerKind::Softmax { log } => {
                if *log {
                    "LogSoftmax"
                } else {
                    "Softmax"
                }
            }
            LayerKind::Concat => "Concat",
            LayerKind::Eltwise { .. } => "Eltwise",
        }
    }

    /// True for merge layers that accept (and usually require) more than
    /// one input edge in the network graph.
    pub fn is_merge(&self) -> bool {
        matches!(self, LayerKind::Concat | LayerKind::Eltwise { .. })
    }

    /// True when the layer carries learned weights.
    pub fn has_weights(&self) -> bool {
        matches!(
            self,
            LayerKind::Convolution { .. } | LayerKind::InnerProduct { .. }
        )
    }

    /// True for layers mapped to hardware PEs (everything but `Input`).
    /// Activation and normalisation operators fuse into the producing PE
    /// in the hardware flow, but still count as computation here.
    pub fn is_compute(&self) -> bool {
        !matches!(self, LayerKind::Input)
    }

    /// Which of the paper's two phases this layer belongs to, given
    /// whether a fully-connected layer has already been seen upstream
    /// (activations after the first `InnerProduct` belong to the MLP).
    pub fn stage(&self, after_fc: bool) -> Stage {
        match self {
            LayerKind::InnerProduct { .. } | LayerKind::Softmax { .. } => Stage::Classification,
            _ if after_fc => Stage::Classification,
            _ => Stage::FeatureExtraction,
        }
    }

    /// Output shape for a single-item input shape — the paper's Eq. (2)
    /// (convolution) and Eq. (3) (sub-sampling).
    pub fn output_shape(&self, input: Shape) -> Result<Shape, ShapeError> {
        match *self {
            LayerKind::Input => Ok(input),
            LayerKind::Convolution {
                num_output,
                kernel,
                stride,
                pad,
                ..
            } => {
                if kernel == 0 || stride == 0 || num_output == 0 {
                    return Err(ShapeError::new(
                        ShapeErrorKind::BadHyperParam,
                        "convolution needs kernel_size, stride and num_output > 0",
                    ));
                }
                if input.h + 2 * pad < kernel || input.w + 2 * pad < kernel {
                    return Err(ShapeError::new(
                        ShapeErrorKind::WindowExceedsInput,
                        format!(
                            "kernel {kernel} exceeds padded input {}x{}",
                            input.h + 2 * pad,
                            input.w + 2 * pad
                        ),
                    ));
                }
                Ok(Shape::new(
                    input.n,
                    num_output,
                    Shape::conv_out_dim(input.h, kernel, stride, pad),
                    Shape::conv_out_dim(input.w, kernel, stride, pad),
                ))
            }
            LayerKind::Pooling {
                kernel,
                stride,
                pad,
                ..
            } => {
                if kernel == 0 || stride == 0 {
                    return Err(ShapeError::new(
                        ShapeErrorKind::BadHyperParam,
                        "pooling needs kernel_size > 0 and stride > 0",
                    ));
                }
                if input.h + 2 * pad < kernel || input.w + 2 * pad < kernel {
                    return Err(ShapeError::new(
                        ShapeErrorKind::WindowExceedsInput,
                        format!(
                            "pool window {kernel} exceeds padded input {}x{}",
                            input.h + 2 * pad,
                            input.w + 2 * pad
                        ),
                    ));
                }
                Ok(Shape::new(
                    input.n,
                    input.c,
                    Shape::pool_out_dim(input.h, kernel, stride, pad),
                    Shape::pool_out_dim(input.w, kernel, stride, pad),
                ))
            }
            LayerKind::ReLU { .. } | LayerKind::Sigmoid | LayerKind::TanH => Ok(input),
            LayerKind::InnerProduct { num_output, .. } => {
                if num_output == 0 {
                    return Err(ShapeError::new(
                        ShapeErrorKind::BadHyperParam,
                        "inner product needs num_output > 0",
                    ));
                }
                Ok(Shape::new(input.n, num_output, 1, 1))
            }
            LayerKind::Softmax { .. } => {
                if input.h != 1 || input.w != 1 {
                    return Err(ShapeError::new(
                        ShapeErrorKind::NonFlatStream,
                        format!(
                            "softmax expects a flat vector, got {}x{} spatial extent",
                            input.h, input.w
                        ),
                    ));
                }
                Ok(input)
            }
            // A merge of a single input is a pass-through; the general
            // multi-input case lives in `output_shape_multi`.
            LayerKind::Concat | LayerKind::Eltwise { .. } => Ok(input),
        }
    }

    /// Output shape for a multi-input node. Merge layers (`Concat`,
    /// `Eltwise`) combine all inputs; every other kind requires exactly
    /// one input and defers to [`LayerKind::output_shape`].
    pub fn output_shape_multi(&self, inputs: &[Shape]) -> Result<Shape, ShapeError> {
        let first = *inputs
            .first()
            .ok_or_else(|| ShapeError::new(ShapeErrorKind::WrongArity, "layer has no inputs"))?;
        match *self {
            LayerKind::Concat => {
                let mut channels = 0usize;
                for s in inputs {
                    if (s.n, s.h, s.w) != (first.n, first.h, first.w) {
                        return Err(ShapeError::new(
                            ShapeErrorKind::MergeMismatch,
                            format!("concat inputs disagree on spatial extent: {s} vs {first}"),
                        ));
                    }
                    channels += s.c;
                }
                Ok(Shape::new(first.n, channels, first.h, first.w))
            }
            LayerKind::Eltwise { .. } => {
                for s in inputs {
                    if *s != first {
                        return Err(ShapeError::new(
                            ShapeErrorKind::MergeMismatch,
                            format!("eltwise inputs disagree on shape: {s} vs {first}"),
                        ));
                    }
                }
                Ok(first)
            }
            _ => {
                if inputs.len() != 1 {
                    return Err(ShapeError::new(
                        ShapeErrorKind::WrongArity,
                        format!(
                            "{} expects exactly one input, got {}",
                            self.caffe_type(),
                            inputs.len()
                        ),
                    ));
                }
                self.output_shape(first)
            }
        }
    }

    /// Multiply-accumulate count per batch item, given the input shape.
    /// Activations, pooling and softmax perform no MACs; the evaluation's
    /// GFLOPS figures (like the paper's) count convolution and
    /// fully-connected arithmetic.
    pub fn macs(&self, input: Shape) -> u64 {
        match *self {
            LayerKind::Convolution {
                num_output, kernel, ..
            } => {
                let out = self.output_shape(input).expect("validated");
                (num_output * input.c * out.h * out.w * kernel * kernel) as u64
            }
            LayerKind::InnerProduct { num_output, .. } => (num_output * input.item_len()) as u64,
            _ => 0,
        }
    }

    /// Floating-point operations per batch item (2 per MAC, plus bias
    /// adds where enabled). `Eltwise` counts one op per output element
    /// (the two-input case; each further input adds the same again —
    /// [`crate::Network::costs`] accounts the exact fan-in). `Concat` is
    /// pure routing and costs nothing.
    pub fn flops(&self, input: Shape) -> u64 {
        if let LayerKind::Eltwise { .. } = *self {
            return input.item_len() as u64;
        }
        let macs = self.macs(input);
        let bias_adds = match *self {
            LayerKind::Convolution {
                bias: true,
                num_output,
                ..
            } => {
                let out = self.output_shape(input).expect("validated");
                (num_output * out.h * out.w) as u64
            }
            LayerKind::InnerProduct {
                bias: true,
                num_output,
                ..
            } => num_output as u64,
            _ => 0,
        };
        2 * macs + bias_adds
    }
}

/// A named layer of the network.
#[derive(Clone, Debug, PartialEq)]
pub struct Layer {
    /// Unique layer name (Caffe convention, e.g. `conv1`).
    pub name: String,
    /// Operator and hyper-parameters.
    pub kind: LayerKind,
}

impl Layer {
    /// Creates a named layer.
    pub fn new(name: impl Into<String>, kind: LayerKind) -> Self {
        Layer {
            name: name.into(),
            kind,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.kind.caffe_type())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn conv(num_output: usize, kernel: usize) -> LayerKind {
        LayerKind::Convolution {
            num_output,
            kernel,
            stride: 1,
            pad: 0,
            bias: true,
        }
    }

    #[test]
    fn conv_shape_matches_eq2() {
        let out = conv(20, 5).output_shape(Shape::new(1, 1, 28, 28)).unwrap();
        assert_eq!(out, Shape::new(1, 20, 24, 24));
    }

    #[test]
    fn conv_same_padding() {
        let k = LayerKind::Convolution {
            num_output: 64,
            kernel: 3,
            stride: 1,
            pad: 1,
            bias: true,
        };
        let out = k.output_shape(Shape::new(1, 3, 224, 224)).unwrap();
        assert_eq!(out, Shape::new(1, 64, 224, 224));
    }

    #[test]
    fn pool_shape_matches_eq3() {
        let k = LayerKind::Pooling {
            method: PoolKind::Max,
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        assert_eq!(
            k.output_shape(Shape::new(1, 20, 24, 24)).unwrap(),
            Shape::new(1, 20, 12, 12)
        );
    }

    #[test]
    fn inner_product_flattens() {
        let k = LayerKind::InnerProduct {
            num_output: 500,
            bias: true,
        };
        assert_eq!(
            k.output_shape(Shape::new(2, 50, 4, 4)).unwrap(),
            Shape::new(2, 500, 1, 1)
        );
    }

    #[test]
    fn activations_preserve_shape() {
        let s = Shape::new(1, 20, 24, 24);
        assert_eq!(
            LayerKind::ReLU {
                negative_slope: 0.0
            }
            .output_shape(s)
            .unwrap(),
            s
        );
        assert_eq!(LayerKind::Sigmoid.output_shape(s).unwrap(), s);
        assert_eq!(LayerKind::TanH.output_shape(s).unwrap(), s);
    }

    #[test]
    fn softmax_requires_flat_input() {
        let k = LayerKind::Softmax { log: false };
        assert!(k.output_shape(Shape::new(1, 10, 1, 1)).is_ok());
        assert!(k.output_shape(Shape::new(1, 10, 2, 2)).is_err());
    }

    #[test]
    fn oversized_kernel_rejected() {
        assert!(conv(8, 5).output_shape(Shape::new(1, 1, 4, 4)).is_err());
        assert!(conv(0, 5).output_shape(Shape::new(1, 1, 8, 8)).is_err());
    }

    /// A zero stride is a C010 hyper-parameter error, not the panic of
    /// `Shape::conv_out_dim`'s assertion.
    #[test]
    fn zero_stride_rejected() {
        let conv = LayerKind::Convolution {
            num_output: 2,
            kernel: 3,
            stride: 0,
            pad: 0,
            bias: true,
        };
        let pool = LayerKind::Pooling {
            method: PoolKind::Max,
            kernel: 2,
            stride: 0,
            pad: 0,
        };
        for kind in [conv, pool] {
            let err = kind.output_shape(Shape::new(1, 1, 8, 8)).unwrap_err();
            assert_eq!(err.kind, ShapeErrorKind::BadHyperParam);
        }
    }

    #[test]
    fn macs_lenet_conv2() {
        // LeNet conv2: 50 outputs, 20 inputs, 5x5 kernel, 12x12 -> 8x8.
        let macs = conv(50, 5).macs(Shape::new(1, 20, 12, 12));
        assert_eq!(macs, 50 * 20 * 8 * 8 * 25);
    }

    #[test]
    fn flops_count_bias() {
        let k = LayerKind::InnerProduct {
            num_output: 10,
            bias: true,
        };
        assert_eq!(k.flops(Shape::vector(500)), 2 * 5000 + 10);
        let nb = LayerKind::InnerProduct {
            num_output: 10,
            bias: false,
        };
        assert_eq!(nb.flops(Shape::vector(500)), 2 * 5000);
    }

    #[test]
    fn pooling_has_no_macs() {
        let k = LayerKind::Pooling {
            method: PoolKind::Max,
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        assert_eq!(k.macs(Shape::new(1, 20, 24, 24)), 0);
    }

    #[test]
    fn stage_classification_rules() {
        assert_eq!(conv(8, 3).stage(false), Stage::FeatureExtraction);
        assert_eq!(
            LayerKind::InnerProduct {
                num_output: 10,
                bias: true
            }
            .stage(false),
            Stage::Classification
        );
        // ReLU after the first FC belongs to the MLP.
        let relu = LayerKind::ReLU {
            negative_slope: 0.0,
        };
        assert_eq!(relu.stage(false), Stage::FeatureExtraction);
        assert_eq!(relu.stage(true), Stage::Classification);
        assert_eq!(
            LayerKind::Softmax { log: true }.stage(false),
            Stage::Classification
        );
    }

    #[test]
    fn caffe_type_strings() {
        assert_eq!(conv(1, 1).caffe_type(), "Convolution");
        assert_eq!(LayerKind::Softmax { log: true }.caffe_type(), "LogSoftmax");
        assert_eq!(LayerKind::Softmax { log: false }.caffe_type(), "Softmax");
    }
}

//! Golden reference inference engine.
//!
//! A direct, loop-nest transcription of the paper's equations — Eq. (1)
//! for convolution, Eq. (3)'s windowing for sub-sampling, Eq. (4) for the
//! fully-connected layers and Eq. (5) for (Log)SoftMax. No tiling, no
//! fusion, no cleverness: this is the functional oracle the dataflow
//! hardware simulator is validated against, so it optimises for
//! obviousness over speed.

use crate::graph::NodeId;
use crate::layer::{EltwiseOp, LayerKind, PoolKind};
use crate::network::{Network, NnError, NnErrorKind};
use condor_tensor::{Shape, Tensor};

/// Reference CPU inference engine over a [`Network`].
///
/// ```
/// use condor_nn::{zoo, GoldenEngine};
/// use condor_tensor::{Shape, Tensor};
///
/// let net = zoo::lenet_weighted(7);
/// let engine = GoldenEngine::new(&net).unwrap();
/// let digit = Tensor::zeros(Shape::chw(1, 28, 28));
/// let probs = engine.infer(&digit).unwrap();
/// assert_eq!(probs.shape(), Shape::vector(10));
/// let sum: f32 = probs.as_slice().iter().sum();
/// assert!((sum - 1.0).abs() < 1e-4); // softmax output
/// ```
pub struct GoldenEngine<'a> {
    net: &'a Network,
}

impl<'a> GoldenEngine<'a> {
    /// Wraps a fully-weighted network.
    pub fn new(net: &'a Network) -> Result<Self, NnError> {
        if !net.fully_weighted() {
            return Err(NnError::net(
                "cannot run inference: some layers have no weights installed",
            )
            .with_kind(NnErrorKind::MissingWeights));
        }
        Ok(GoldenEngine { net })
    }

    /// Runs one image (`1×c×h×w`) through the whole network.
    pub fn infer(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let outputs = self.infer_all_layers(input)?;
        Ok(outputs.into_iter().last().expect("validated non-empty"))
    }

    /// Runs one image, returning every node's output in topological
    /// order (for layer-by-layer comparison against the hardware
    /// simulator). Nodes read their predecessors' stored outputs, so a
    /// linear chain behaves exactly as it always has while branchy
    /// graphs get correct fan-out for free.
    pub fn infer_all_layers(&self, input: &Tensor) -> Result<Vec<Tensor>, NnError> {
        if input.shape() != self.net.input_shape {
            return Err(NnError::net(format!(
                "input shape {} does not match network input {}",
                input.shape(),
                self.net.input_shape
            ))
            .with_kind(NnErrorKind::InputMismatch));
        }
        let mut outputs: Vec<Tensor> = Vec::with_capacity(self.net.layers.len());
        for (i, layer) in self.net.layers.iter().enumerate() {
            let preds = self.net.inputs_of(NodeId::from_index(i));
            let next = if layer.kind.is_merge() && preds.len() > 1 {
                let ins: Vec<&Tensor> = preds.iter().map(|p| &outputs[p.index()]).collect();
                match layer.kind {
                    LayerKind::Concat => concat(&ins),
                    LayerKind::Eltwise { op } => eltwise(op, &ins),
                    _ => unreachable!("is_merge covers exactly these kinds"),
                }
            } else {
                // Single-input merges (including a merge reading the
                // network input) are shape-preserving pass-throughs,
                // mirroring `output_shape_multi`.
                // Borrow the predecessor's stored output instead of
                // keeping a cloned running copy: each output tensor is
                // allocated once and moved into `outputs`.
                let current = match preds.first() {
                    None => input,
                    Some(p) => &outputs[p.index()],
                };
                self.forward_layer(&layer.kind, &layer.name, current)?
            };
            outputs.push(next);
        }
        Ok(outputs)
    }

    /// Runs a batch of images one after another, preserving order.
    pub fn infer_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, NnError> {
        inputs.iter().map(|img| self.infer(img)).collect()
    }

    fn forward_layer(
        &self,
        kind: &LayerKind,
        name: &str,
        input: &Tensor,
    ) -> Result<Tensor, NnError> {
        let out_shape = kind
            .output_shape(input.shape())
            .map_err(|e| NnError::shape(name, e))?;
        Ok(match *kind {
            LayerKind::Input => input.clone(),
            LayerKind::Convolution {
                num_output,
                kernel,
                stride,
                pad,
                bias,
            } => {
                let lw = self.net.weights_or_err(name)?;
                convolve(
                    input,
                    &lw.weights,
                    lw.bias.as_ref(),
                    out_shape,
                    num_output,
                    kernel,
                    stride,
                    pad,
                    bias,
                )
            }
            LayerKind::Pooling {
                method,
                kernel,
                stride,
                pad,
            } => pool(input, out_shape, method, kernel, stride, pad),
            LayerKind::ReLU { negative_slope } => {
                let mut out = input.clone();
                out.map_inplace(|v| if v > 0.0 { v } else { negative_slope * v });
                out
            }
            LayerKind::Sigmoid => {
                let mut out = input.clone();
                out.map_inplace(|v| 1.0 / (1.0 + (-v).exp()));
                out
            }
            LayerKind::TanH => {
                let mut out = input.clone();
                out.map_inplace(f32::tanh);
                out
            }
            LayerKind::InnerProduct { bias, .. } => {
                let lw = self.net.weights_or_err(name)?;
                inner_product(input, &lw.weights, lw.bias.as_ref(), out_shape, bias).map_err(
                    |mut e| {
                        e.layer.get_or_insert_with(|| name.to_string());
                        e
                    },
                )?
            }
            LayerKind::Softmax { log } => softmax(input, log),
            // Single-input merges are pass-throughs; the multi-input
            // case is handled in `infer_all_layers`.
            LayerKind::Concat => input.clone(),
            LayerKind::Eltwise { .. } => input.clone(),
        })
    }
}

/// Paper Eq. (1): `o[i,j,φ] = Σ_m Σ_n w[m,n,φ]·x[i+m, j+n] + b_φ`,
/// summed over all input feature maps, generalised with stride/padding.
/// Public so the hardware runtime can share the reference arithmetic.
#[allow(clippy::too_many_arguments)]
pub fn convolve(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&Tensor>,
    out_shape: Shape,
    num_output: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    use_bias: bool,
) -> Tensor {
    let mut out = Tensor::zeros(out_shape);
    let in_c = input.shape().c;
    for phi in 0..num_output {
        for i in 0..out_shape.h {
            for j in 0..out_shape.w {
                let mut acc = 0.0f32;
                for c in 0..in_c {
                    for m in 0..kernel {
                        for n in 0..kernel {
                            let x = input.at_padded(
                                0,
                                c,
                                (i * stride + m) as isize,
                                (j * stride + n) as isize,
                                pad,
                            );
                            acc += weights.at(phi, c, m, n) * x;
                        }
                    }
                }
                if use_bias {
                    acc += bias.expect("bias enabled").at(0, phi, 0, 0);
                }
                *out.at_mut(0, phi, i, j) = acc;
            }
        }
    }
    out
}

/// Sub-sampling: max or average over each window (paper Section 2.2).
pub fn pool(
    input: &Tensor,
    out_shape: Shape,
    method: PoolKind,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let mut out = Tensor::zeros(out_shape);
    let in_shape = input.shape();
    for c in 0..out_shape.c {
        for i in 0..out_shape.h {
            for j in 0..out_shape.w {
                let mut max = f32::NEG_INFINITY;
                let mut sum = 0.0f32;
                let mut count = 0usize;
                for m in 0..kernel {
                    for n in 0..kernel {
                        let hh = (i * stride + m) as isize - pad as isize;
                        let ww = (j * stride + n) as isize - pad as isize;
                        // Caffe excludes out-of-range positions from the
                        // window rather than treating them as zeros.
                        if hh < 0
                            || ww < 0
                            || hh >= in_shape.h as isize
                            || ww >= in_shape.w as isize
                        {
                            continue;
                        }
                        let v = input.at(0, c, hh as usize, ww as usize);
                        max = max.max(v);
                        sum += v;
                        count += 1;
                    }
                }
                *out.at_mut(0, c, i, j) = match method {
                    PoolKind::Max => max,
                    PoolKind::Average => sum / count.max(1) as f32,
                };
            }
        }
    }
    out
}

/// Paper Eq. (4): `o_l = Σ_h w[h,l]·x_h + b_l` over the flattened input.
///
/// # Errors
/// Returns a [`NnErrorKind::WeightShape`] error when the weight fan-in
/// does not match the flattened input length (previously a
/// `debug_assert!`, which release builds silently skipped before reading
/// out of bounds through `Tensor::at`'s panic).
fn inner_product(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&Tensor>,
    out_shape: Shape,
    use_bias: bool,
) -> Result<Tensor, NnError> {
    let x = input.as_slice();
    let w_shape = weights.shape();
    if w_shape.c != x.len() {
        return Err(NnError::net(format!(
            "weight fan-in {} does not match flattened input {}",
            w_shape.c,
            x.len()
        ))
        .with_kind(NnErrorKind::WeightShape));
    }
    let mut out = Tensor::zeros(out_shape);
    for l in 0..out_shape.c {
        let mut acc = 0.0f32;
        for (h, &xv) in x.iter().enumerate() {
            acc += weights.at(l, h, 0, 0) * xv;
        }
        if use_bias {
            acc += bias.expect("bias enabled").at(0, l, 0, 0);
        }
        *out.at_mut(0, l, 0, 0) = acc;
    }
    Ok(out)
}

/// Channel-axis concatenation (Caffe `Concat`, `axis = 1`): stacks the
/// input maps in input order. Callers guarantee at least one input and
/// matching spatial extents (enforced by shape inference).
pub fn concat(inputs: &[&Tensor]) -> Tensor {
    let first = inputs.first().expect("concat needs at least one input");
    let channels: usize = inputs.iter().map(|t| t.shape().c).sum();
    let s = first.shape();
    let mut data = Vec::with_capacity(channels * s.h * s.w);
    for t in inputs {
        data.extend_from_slice(t.as_slice());
    }
    Tensor::from_vec(Shape::new(s.n, channels, s.h, s.w), data)
}

/// Element-wise merge (Caffe `Eltwise`): folds the inputs with the
/// operator, left to right. Callers guarantee at least one input and
/// identical shapes (enforced by shape inference).
fn eltwise(op: EltwiseOp, inputs: &[&Tensor]) -> Tensor {
    let first = inputs.first().expect("eltwise needs at least one input");
    let mut out = (*first).clone();
    for t in &inputs[1..] {
        for (o, &v) in out.as_mut_slice().iter_mut().zip(t.as_slice()) {
            *o = match op {
                EltwiseOp::Sum => *o + v,
                EltwiseOp::Prod => *o * v,
                EltwiseOp::Max => o.max(v),
            };
        }
    }
    out
}

/// Paper Eq. (5): `σ(o)_y = e^{o_y} / Σ e^{o_y}`, optionally followed by
/// `ln` (LogSoftMax). Uses the standard max-subtraction for stability.
pub fn softmax(input: &Tensor, log: bool) -> Tensor {
    let x = input.as_slice();
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = x.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let data = if log {
        x.iter().map(|&v| (v - max) - sum.ln()).collect()
    } else {
        exps.iter().map(|&e| e / sum).collect()
    };
    Tensor::from_vec(input.shape(), data)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::layer::Layer;
    use condor_tensor::{constant, linspace, AllClose};

    fn conv_net(kernel: usize, pad: usize, stride: usize) -> Network {
        let mut net = Network::new(
            "conv-only",
            Shape::chw(2, 5, 5),
            vec![Layer::new(
                "conv",
                LayerKind::Convolution {
                    num_output: 3,
                    kernel,
                    stride,
                    pad,
                    bias: true,
                },
            )],
        )
        .unwrap();
        net.attach_random_weights(7).unwrap();
        net
    }

    #[test]
    fn identity_kernel_convolution() {
        // 1x1 kernel with weight 1 and zero bias copies the input map.
        let mut net = Network::new(
            "identity",
            Shape::chw(1, 3, 3),
            vec![Layer::new(
                "conv",
                LayerKind::Convolution {
                    num_output: 1,
                    kernel: 1,
                    stride: 1,
                    pad: 0,
                    bias: true,
                },
            )],
        )
        .unwrap();
        net.set_weights(
            "conv",
            constant(Shape::new(1, 1, 1, 1), 1.0),
            Some(constant(Shape::vector(1), 0.0)),
        )
        .unwrap();
        let input = linspace(Shape::chw(1, 3, 3), 0.0, 1.0);
        let out = GoldenEngine::new(&net).unwrap().infer(&input).unwrap();
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn hand_computed_convolution() {
        // 2x2 input, 2x2 kernel, known values.
        let mut net = Network::new(
            "hand",
            Shape::chw(1, 2, 2),
            vec![Layer::new(
                "conv",
                LayerKind::Convolution {
                    num_output: 1,
                    kernel: 2,
                    stride: 1,
                    pad: 0,
                    bias: true,
                },
            )],
        )
        .unwrap();
        net.set_weights(
            "conv",
            Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]),
            Some(constant(Shape::vector(1), 0.5)),
        )
        .unwrap();
        let input = Tensor::from_vec(Shape::chw(1, 2, 2), vec![5.0, 6.0, 7.0, 8.0]);
        let out = GoldenEngine::new(&net).unwrap().infer(&input).unwrap();
        // 1*5 + 2*6 + 3*7 + 4*8 + 0.5 = 70.5
        assert_eq!(out.as_slice(), &[70.5]);
    }

    #[test]
    fn convolution_sums_over_input_maps() {
        let mut net = Network::new(
            "sum-maps",
            Shape::chw(2, 1, 1),
            vec![Layer::new(
                "conv",
                LayerKind::Convolution {
                    num_output: 1,
                    kernel: 1,
                    stride: 1,
                    pad: 0,
                    bias: false,
                },
            )],
        )
        .unwrap();
        net.set_weights(
            "conv",
            Tensor::from_vec(Shape::new(1, 2, 1, 1), vec![10.0, 100.0]),
            None,
        )
        .unwrap();
        let input = Tensor::from_vec(Shape::chw(2, 1, 1), vec![1.0, 2.0]);
        let out = GoldenEngine::new(&net).unwrap().infer(&input).unwrap();
        assert_eq!(out.as_slice(), &[210.0]);
    }

    #[test]
    fn padding_matches_manual_zero_halo() {
        // Conv with pad=1 equals conv of the explicitly zero-padded image.
        let net = conv_net(3, 1, 1);
        let input = linspace(Shape::chw(2, 5, 5), -1.0, 0.1);
        let out = GoldenEngine::new(&net).unwrap().infer(&input).unwrap();
        assert_eq!(out.shape(), Shape::new(1, 3, 5, 5));

        // Manual pad: 7x7 image with zeros around.
        let mut padded = Tensor::zeros(Shape::chw(2, 7, 7));
        for c in 0..2 {
            for h in 0..5 {
                for w in 0..5 {
                    *padded.at_mut(0, c, h + 1, w + 1) = input.at(0, c, h, w);
                }
            }
        }
        let mut net2 = Network::new(
            "nopad",
            Shape::chw(2, 7, 7),
            vec![Layer::new(
                "conv",
                LayerKind::Convolution {
                    num_output: 3,
                    kernel: 3,
                    stride: 1,
                    pad: 0,
                    bias: true,
                },
            )],
        )
        .unwrap();
        let lw = net.weights_of("conv").unwrap();
        net2.set_weights("conv", lw.weights.clone(), lw.bias.clone())
            .unwrap();
        let out2 = GoldenEngine::new(&net2).unwrap().infer(&padded).unwrap();
        assert!(out.all_close(&out2));
    }

    #[test]
    fn strided_convolution_subsamples() {
        let net = conv_net(3, 0, 2);
        let input = linspace(Shape::chw(2, 5, 5), 0.0, 1.0);
        let out = GoldenEngine::new(&net).unwrap().infer(&input).unwrap();
        assert_eq!(out.shape(), Shape::new(1, 3, 2, 2));
    }

    #[test]
    fn max_pool_hand_values() {
        let net = Network::new(
            "pool",
            Shape::chw(1, 4, 4),
            vec![Layer::new(
                "pool",
                LayerKind::Pooling {
                    method: PoolKind::Max,
                    kernel: 2,
                    stride: 2,
                    pad: 0,
                },
            )],
        )
        .unwrap();
        let input = Tensor::from_vec(
            Shape::chw(1, 4, 4),
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.0, //
                -3.0, -4.0, 0.0, 9.0,
            ],
        );
        let out = GoldenEngine::new(&net).unwrap().infer(&input).unwrap();
        assert_eq!(out.as_slice(), &[4.0, 8.0, -1.0, 9.0]);
    }

    #[test]
    fn average_pool_hand_values() {
        let net = Network::new(
            "pool",
            Shape::chw(1, 2, 2),
            vec![Layer::new(
                "pool",
                LayerKind::Pooling {
                    method: PoolKind::Average,
                    kernel: 2,
                    stride: 2,
                    pad: 0,
                },
            )],
        )
        .unwrap();
        let input = Tensor::from_vec(Shape::chw(1, 2, 2), vec![1.0, 2.0, 3.0, 6.0]);
        let out = GoldenEngine::new(&net).unwrap().infer(&input).unwrap();
        assert_eq!(out.as_slice(), &[3.0]);
    }

    #[test]
    fn relu_and_leaky_relu() {
        let mk = |slope| {
            Network::new(
                "relu",
                Shape::vector(4),
                vec![Layer::new(
                    "r",
                    LayerKind::ReLU {
                        negative_slope: slope,
                    },
                )],
            )
            .unwrap()
        };
        let input = Tensor::from_vec(Shape::vector(4), vec![-2.0, -0.5, 0.0, 3.0]);
        let out = GoldenEngine::new(&mk(0.0)).unwrap().infer(&input).unwrap();
        assert_eq!(out.as_slice(), &[0.0, 0.0, 0.0, 3.0]);
        let leaky = GoldenEngine::new(&mk(0.1)).unwrap().infer(&input).unwrap();
        assert!(leaky.all_close(&Tensor::from_vec(
            Shape::vector(4),
            vec![-0.2, -0.05, 0.0, 3.0]
        )));
    }

    #[test]
    fn sigmoid_and_tanh_known_points() {
        let net = Network::new(
            "sig",
            Shape::vector(2),
            vec![Layer::new("s", LayerKind::Sigmoid)],
        )
        .unwrap();
        let input = Tensor::from_vec(Shape::vector(2), vec![0.0, 100.0]);
        let out = GoldenEngine::new(&net).unwrap().infer(&input).unwrap();
        assert!((out.as_slice()[0] - 0.5).abs() < 1e-6);
        assert!((out.as_slice()[1] - 1.0).abs() < 1e-6);

        let net = Network::new(
            "tanh",
            Shape::vector(1),
            vec![Layer::new("t", LayerKind::TanH)],
        )
        .unwrap();
        let out = GoldenEngine::new(&net)
            .unwrap()
            .infer(&Tensor::from_vec(Shape::vector(1), vec![0.0]))
            .unwrap();
        assert_eq!(out.as_slice(), &[0.0]);
    }

    #[test]
    fn inner_product_hand_values() {
        let mut net = Network::new(
            "fc",
            Shape::vector(3),
            vec![Layer::new(
                "ip",
                LayerKind::InnerProduct {
                    num_output: 2,
                    bias: true,
                },
            )],
        )
        .unwrap();
        net.set_weights(
            "ip",
            Tensor::from_vec(Shape::new(2, 3, 1, 1), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            Some(Tensor::from_vec(Shape::vector(2), vec![0.5, -0.5])),
        )
        .unwrap();
        let input = Tensor::from_vec(Shape::vector(3), vec![1.0, 1.0, 1.0]);
        let out = GoldenEngine::new(&net).unwrap().infer(&input).unwrap();
        assert_eq!(out.as_slice(), &[6.5, 14.5]);
    }

    #[test]
    fn inner_product_fan_in_mismatch_is_typed_error() {
        let weights = Tensor::zeros(Shape::new(2, 5, 1, 1)); // expects 5 inputs
        let input = Tensor::from_vec(Shape::vector(3), vec![1.0, 2.0, 3.0]);
        let err = inner_product(&input, &weights, None, Shape::vector(2), false).unwrap_err();
        assert_eq!(err.kind, NnErrorKind::WeightShape);
        assert!(err.message.contains("fan-in"));
    }

    #[test]
    fn softmax_normalises_eq5() {
        let net = Network::new(
            "sm",
            Shape::vector(3),
            vec![Layer::new("prob", LayerKind::Softmax { log: false })],
        )
        .unwrap();
        let input = Tensor::from_vec(Shape::vector(3), vec![1.0, 2.0, 3.0]);
        let out = GoldenEngine::new(&net).unwrap().infer(&input).unwrap();
        let sum: f32 = out.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(out.as_slice().windows(2).all(|w| w[0] < w[1]));
        // Invariant to constant shifts.
        let shifted = Tensor::from_vec(Shape::vector(3), vec![101.0, 102.0, 103.0]);
        let out2 = GoldenEngine::new(&net).unwrap().infer(&shifted).unwrap();
        assert!(out.all_close(&out2));
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let mk = |log| {
            Network::new(
                "sm",
                Shape::vector(4),
                vec![Layer::new("prob", LayerKind::Softmax { log })],
            )
            .unwrap()
        };
        let input = Tensor::from_vec(Shape::vector(4), vec![0.5, -1.0, 2.0, 0.0]);
        let p = GoldenEngine::new(&mk(false))
            .unwrap()
            .infer(&input)
            .unwrap();
        let lp = GoldenEngine::new(&mk(true)).unwrap().infer(&input).unwrap();
        for (a, b) in p.as_slice().iter().zip(lp.as_slice()) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn batch_matches_sequential() {
        let net = conv_net(3, 1, 1);
        let engine = GoldenEngine::new(&net).unwrap();
        let imgs: Vec<Tensor> = (0..8)
            .map(|i| linspace(Shape::chw(2, 5, 5), i as f32, 0.01))
            .collect();
        let batch = engine.infer_batch(&imgs).unwrap();
        for (img, out) in imgs.iter().zip(&batch) {
            assert_eq!(&engine.infer(img).unwrap(), out);
        }
    }

    #[test]
    fn unweighted_network_refused() {
        let net = Network::new(
            "noweights",
            Shape::chw(1, 4, 4),
            vec![Layer::new(
                "conv",
                LayerKind::Convolution {
                    num_output: 2,
                    kernel: 3,
                    stride: 1,
                    pad: 0,
                    bias: true,
                },
            )],
        )
        .unwrap();
        assert!(GoldenEngine::new(&net).is_err());
    }

    #[test]
    fn wrong_input_shape_refused() {
        let net = conv_net(3, 0, 1);
        let engine = GoldenEngine::new(&net).unwrap();
        let bad = Tensor::zeros(Shape::chw(1, 5, 5));
        assert!(engine.infer(&bad).is_err());
    }
}

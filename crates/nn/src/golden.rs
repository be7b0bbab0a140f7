//! Golden reference inference engine.
//!
//! A transcription of the paper's equations — Eq. (1) for convolution,
//! Eq. (3)'s windowing for sub-sampling, Eq. (4) for the fully-connected
//! layers and Eq. (5) for (Log)SoftMax. No tiling, no fusion, no threads
//! and no kernel library: this is the functional oracle the fast engines,
//! the int8 calibration and the dataflow simulator are checked against.
//! Each output is summed one product at a time, in the equations' order;
//! the loops only choose which outputs advance together (a convolution
//! tap sweeps whole output rows), so every value equals, bit for bit, the
//! per-element loop nest the tests keep as its specification.
//!
//! The engine steps through the nodes in topological order and keeps a
//! node's output only until its last reader has run, so an image holds
//! the live values of the graph (two on a chain), not every layer's.
//! Calibration and the int8 accuracy check observe each value as it
//! streams past; only [`GoldenEngine::infer_all_layers`] keeps them all.

use crate::graph::NodeId;
use crate::layer::{EltwiseOp, LayerKind, PoolKind};
use crate::network::{Network, NnError, NnErrorKind};
use condor_tensor::{Shape, Tensor};
use std::ops::Range;

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
    /// Every node's predecessors, in fan-in order.
    preds: Vec<Vec<NodeId>>,
    /// The last node that reads each node's output (the node itself when
    /// none does): its value is dropped once that node has run.
    last_use: Vec<usize>,
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
        let preds: Vec<Vec<NodeId>> = net.node_ids().map(|id| net.inputs_of(id)).collect();
        let mut last_use: Vec<usize> = (0..preds.len()).collect();
        for (i, ins) in preds.iter().enumerate() {
            for p in ins {
                last_use[p.index()] = i;
            }
        }
        Ok(GoldenEngine {
            net,
            preds,
            last_use,
        })
    }

    /// Runs one image (`1×c×h×w`) through the whole network.
    pub fn infer(&self, input: &Tensor) -> Result<Tensor, NnError> {
        self.for_each_layer(input, |_, _| {})
    }

    /// Runs one image, returning every node's output in topological
    /// order (for layer-by-layer comparison against the hardware
    /// simulator). Unlike [`GoldenEngine::infer`] this keeps every
    /// layer's output, a copy of each value as it streams past.
    pub fn infer_all_layers(&self, input: &Tensor) -> Result<Vec<Tensor>, NnError> {
        let mut outputs: Vec<Tensor> = Vec::with_capacity(self.net.layers.len());
        self.for_each_layer(input, |_, out| outputs.push(out.clone()))?;
        Ok(outputs)
    }

    /// Runs one image and hands each node's output to `f` with the
    /// node's index, in topological order; returns the last node's
    /// output. Nodes read their predecessors' outputs, each of which is
    /// dropped after its last reader has run, so only the values still
    /// to be read are alive at any step.
    pub(crate) fn for_each_layer(
        &self,
        input: &Tensor,
        mut f: impl FnMut(usize, &Tensor),
    ) -> Result<Tensor, NnError> {
        if input.shape() != self.net.input_shape {
            return Err(NnError::net(format!(
                "input shape {} does not match network input {}",
                input.shape(),
                self.net.input_shape
            ))
            .with_kind(NnErrorKind::InputMismatch));
        }
        let mut values: Vec<Option<Tensor>> = vec![None; self.net.layers.len()];
        for (i, layer) in self.net.layers.iter().enumerate() {
            let preds = &self.preds[i];
            let next = if layer.kind.is_merge() && preds.len() > 1 {
                let ins: Vec<&Tensor> = preds.iter().map(|&p| live(&values, p)).collect();
                match layer.kind {
                    LayerKind::Concat => concat(&ins),
                    LayerKind::Eltwise { op } => eltwise(op, &ins),
                    _ => unreachable!("is_merge covers exactly these kinds"),
                }
            } else {
                // Single-input merges (including a merge reading the
                // network input) are shape-preserving pass-throughs,
                // mirroring `output_shape_multi`.
                let current = match preds.first() {
                    None => input,
                    Some(&p) => live(&values, p),
                };
                self.forward_layer(&layer.kind, &layer.name, current)?
            };
            f(i, &next);
            for p in preds {
                if self.last_use[p.index()] == i {
                    values[p.index()] = None;
                }
            }
            if self.last_use[i] != i || i + 1 == values.len() {
                values[i] = Some(next);
            }
        }
        Ok(values
            .pop()
            .flatten()
            .expect("validated non-empty: the last value is kept"))
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

/// The stored output of node `p`, which must not have been dropped yet.
fn live(values: &[Option<Tensor>], p: NodeId) -> &Tensor {
    values[p.index()]
        .as_ref()
        .expect("a value lives until its last reader")
}

/// Paper Eq. (1): `o[i,j,φ] = Σ_m Σ_n w[m,n,φ]·x[i+m, j+n] + b_φ`,
/// summed over all input feature maps, generalised with stride/padding.
///
/// Each filter tap `(φ, c, m, n)` adds `w·x` across whole output rows,
/// so the innermost loop is a contiguous row. Every output still sums
/// the same products in the same `(c, m, n)` order, starting from
/// `+0.0`: a tap on the zero-padding halo, columns and whole rows alike,
/// adds an explicit `w·0.0` (NaN when `w` is infinite), and the bias
/// comes after the last tap. Rust never fuses a multiply and an add, so
/// each output equals, bit for bit, the per-element loop `acc += w·x`.
///
/// Public for the property tests and benchmarks that compare a kernel
/// against the reference arithmetic of one layer.
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
    let in_shape = input.shape();
    let (map_len, plane_len) = (in_shape.map_len(), out_shape.map_len());
    for phi in 0..num_output {
        let plane = &mut out.as_mut_slice()[phi * plane_len..(phi + 1) * plane_len];
        for c in 0..in_shape.c {
            let map = &input.as_slice()[c * map_len..(c + 1) * map_len];
            for m in 0..kernel {
                let rows = inside(m, stride, pad, in_shape.h, out_shape.h);
                for n in 0..kernel {
                    let w = weights.at(phi, c, m, n);
                    let halo = w * 0.0;
                    let cols = inside(n, stride, pad, in_shape.w, out_shape.w);
                    let first = (cols.start * stride + n)
                        .saturating_sub(pad)
                        .min(in_shape.w);
                    // `max(1)`: a zero-width map has no rows to walk.
                    for (i, row) in plane.chunks_exact_mut(out_shape.w.max(1)).enumerate() {
                        if !rows.contains(&i) {
                            row.iter_mut().for_each(|o| *o += halo);
                            continue;
                        }
                        let r = i * stride + m - pad;
                        let src = &map[r * in_shape.w + first..(r + 1) * in_shape.w];
                        let (left, rest) = row.split_at_mut(cols.start);
                        let (mid, right) = rest.split_at_mut(cols.len());
                        left.iter_mut().chain(right).for_each(|o| *o += halo);
                        if stride == 1 {
                            mid.iter_mut().zip(src).for_each(|(o, &x)| *o += w * x);
                        } else {
                            let xs = src.iter().step_by(stride);
                            mid.iter_mut().zip(xs).for_each(|(o, &x)| *o += w * x);
                        }
                    }
                }
            }
        }
        if use_bias {
            let b = bias.expect("bias enabled").at(0, phi, 0, 0);
            plane.iter_mut().for_each(|o| *o += b);
        }
    }
    out
}

/// The output positions `j < out_len` whose tap at offset `n` reads
/// inside the input, `pad <= j·stride + n < pad + in_len`: one run, with
/// the halo on either side.
fn inside(n: usize, stride: usize, pad: usize, in_len: usize, out_len: usize) -> Range<usize> {
    let lo = pad.saturating_sub(n).div_ceil(stride).min(out_len);
    let hi = (pad + in_len).saturating_sub(n).div_ceil(stride);
    lo..hi.clamp(lo, out_len)
}

/// The input positions a pooling window starting at padded position
/// `start` covers: Caffe leaves out-of-range positions out of the window
/// rather than treating them as zeros.
fn window(start: usize, kernel: usize, pad: usize, in_len: usize) -> Range<usize> {
    let lo = (start.max(pad) - pad).min(in_len);
    let hi = (start + kernel).min(pad + in_len).saturating_sub(pad);
    lo..hi.max(lo)
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
    let map_len = in_shape.map_len();
    let plane_len = out_shape.map_len();
    for c in 0..out_shape.c {
        let map = &input.as_slice()[c * map_len..(c + 1) * map_len];
        let plane = &mut out.as_mut_slice()[c * plane_len..(c + 1) * plane_len];
        for (i, row) in plane.chunks_exact_mut(out_shape.w.max(1)).enumerate() {
            let rows = window(i * stride, kernel, pad, in_shape.h);
            for (j, o) in row.iter_mut().enumerate() {
                let cols = window(j * stride, kernel, pad, in_shape.w);
                let mut max = f32::NEG_INFINITY;
                let mut sum = 0.0f32;
                let mut count = 0usize;
                for hh in rows.clone() {
                    for &v in &map[hh * in_shape.w..][cols.clone()] {
                        max = max.max(v);
                        sum += v;
                        count += 1;
                    }
                }
                *o = match method {
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
    let fan_in = weights.shape().item_len();
    if fan_in != x.len() {
        return Err(NnError::net(format!(
            "weight fan-in {fan_in} does not match flattened input {}",
            x.len()
        ))
        .with_kind(NnErrorKind::WeightShape));
    }
    let mut out = Tensor::zeros(out_shape);
    for l in 0..out_shape.c {
        let row = &weights.as_slice()[l * fan_in..(l + 1) * fan_in];
        let mut acc = 0.0f32;
        for (&w, &xv) in row.iter().zip(x) {
            acc += w * xv;
        }
        if use_bias {
            acc += bias.expect("bias enabled").at(0, l, 0, 0);
        }
        out.as_mut_slice()[l] = acc;
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
    use condor_tensor::{constant, linspace, AllClose, TensorRng};

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

    /// The per-element loop nests that `convolve`, `pool` and
    /// `inner_product` replaced, kept as their specification: each output
    /// sums its window in `(c, m, n)` order, one product at a time.
    mod spec {
        use super::*;

        #[allow(clippy::too_many_arguments)]
        pub(super) fn convolve(
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
            for phi in 0..num_output {
                for i in 0..out_shape.h {
                    for j in 0..out_shape.w {
                        let mut acc = 0.0f32;
                        for c in 0..input.shape().c {
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
                            acc += bias.unwrap().at(0, phi, 0, 0);
                        }
                        *out.at_mut(0, phi, i, j) = acc;
                    }
                }
            }
            out
        }

        pub(super) fn pool(
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

        pub(super) fn inner_product(
            input: &Tensor,
            weights: &Tensor,
            bias: Option<&Tensor>,
            out_shape: Shape,
            use_bias: bool,
        ) -> Tensor {
            let mut out = Tensor::zeros(out_shape);
            for l in 0..out_shape.c {
                let mut acc = 0.0f32;
                for (h, &xv) in input.as_slice().iter().enumerate() {
                    acc += weights.at(l, h, 0, 0) * xv;
                }
                if use_bias {
                    acc += bias.unwrap().at(0, l, 0, 0);
                }
                *out.at_mut(0, l, 0, 0) = acc;
            }
            out
        }
    }

    fn assert_same_bits(got: &Tensor, want: &Tensor, case: &str) {
        assert_eq!(got.shape(), want.shape(), "{case}");
        for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{case}: element {k}: {g} vs {w}");
        }
    }

    /// Uniform values in `[-1, 1)` with about one in eight replaced by a
    /// signed zero, so `-0.0` products and sums are exercised too.
    fn values(rng: &mut TensorRng, shape: Shape) -> Tensor {
        let mut t = rng.uniform(shape, -1.0, 1.0);
        for v in t.as_mut_slice() {
            match rng.index(16) {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
        t
    }

    /// Runs `cases` seeded geometries through the row-wise code and the
    /// per-element spec: kernel 1–5, stride 1–3, pad `0..=kernel`, maps
    /// of 1–12 (narrower than the kernel where the padding allows), up
    /// to 8 input channels and 5 filters, bias on and off.
    fn check_against_spec(seed: u64, cases: usize) {
        let mut rng = TensorRng::seeded(seed);
        for case in 0..cases {
            let kernel = 1 + rng.index(5);
            let stride = 1 + rng.index(3);
            let pad = rng.index(kernel + 1);
            let min_len = kernel.saturating_sub(2 * pad).max(1);
            let h = min_len + rng.index(13 - min_len);
            let w = min_len + rng.index(13 - min_len);
            let (c, f) = (1 + rng.index(8), 1 + rng.index(5));
            let use_bias = rng.index(2) == 0;
            let label = format!(
                "seed {seed:#x} case {case}: c{c} {h}x{w} f{f} k{kernel} s{stride} p{pad} bias {use_bias}"
            );
            let input = values(&mut rng, Shape::chw(c, h, w));
            let weights = values(&mut rng, Shape::new(f, c, kernel, kernel));
            let bias = values(&mut rng, Shape::vector(f));

            let out_shape = Shape::chw(
                f,
                Shape::conv_out_dim(h, kernel, stride, pad),
                Shape::conv_out_dim(w, kernel, stride, pad),
            );
            let args = (out_shape, f, kernel, stride, pad, use_bias);
            assert_same_bits(
                &convolve(
                    &input,
                    &weights,
                    Some(&bias),
                    args.0,
                    args.1,
                    args.2,
                    args.3,
                    args.4,
                    args.5,
                ),
                &spec::convolve(
                    &input,
                    &weights,
                    Some(&bias),
                    args.0,
                    args.1,
                    args.2,
                    args.3,
                    args.4,
                    args.5,
                ),
                &format!("conv {label}"),
            );

            let pool_shape = Shape::chw(
                c,
                Shape::pool_out_dim(h, kernel, stride, pad),
                Shape::pool_out_dim(w, kernel, stride, pad),
            );
            for method in [PoolKind::Max, PoolKind::Average] {
                assert_same_bits(
                    &pool(&input, pool_shape, method, kernel, stride, pad),
                    &spec::pool(&input, pool_shape, method, kernel, stride, pad),
                    &format!("{method:?} pool {label}"),
                );
            }

            let fc_weights = values(&mut rng, Shape::new(f, input.len(), 1, 1));
            let got = inner_product(&input, &fc_weights, Some(&bias), Shape::vector(f), use_bias);
            assert_same_bits(
                &got.unwrap(),
                &spec::inner_product(&input, &fc_weights, Some(&bias), Shape::vector(f), use_bias),
                &format!("fc {label}"),
            );
        }
    }

    #[test]
    fn row_loops_match_the_per_element_spec_bit_for_bit() {
        check_against_spec(0x601d, 64);
    }

    /// The long sweep of the test above; CI runs it in a release build.
    #[test]
    #[ignore = "2 000 geometries; run with --release -- --ignored"]
    fn row_loops_match_the_per_element_spec_long_sweep() {
        check_against_spec(0x601d_5eed, 2000);
    }

    /// `inf·0.0` is NaN, so a padded tap under an infinite weight poisons
    /// its outputs: this fails if the halo's explicit `w·0.0` terms are
    /// skipped. A NaN input reaches every window that covers it.
    #[test]
    fn infinite_weight_and_nan_input_match_the_spec() {
        let mut rng = TensorRng::seeded(45);
        let (c, h, w, f, kernel, pad) = (2, 5, 6, 3, 3, 1);
        let out_shape = Shape::chw(f, h, w);
        let mut weights = values(&mut rng, Shape::new(f, c, kernel, kernel));
        let mut input = values(&mut rng, Shape::chw(c, h, w));
        let bias = values(&mut rng, Shape::vector(f));

        *weights.at_mut(1, 0, 0, 0) = f32::INFINITY;
        let got = convolve(
            &input,
            &weights,
            Some(&bias),
            out_shape,
            f,
            kernel,
            1,
            pad,
            true,
        );
        let want = spec::convolve(
            &input,
            &weights,
            Some(&bias),
            out_shape,
            f,
            kernel,
            1,
            pad,
            true,
        );
        assert_same_bits(&got, &want, "+inf weight");
        // Output (0, 0) of filter 1 reads the halo under the infinite tap.
        assert!(got.at(0, 1, 0, 0).is_nan());

        *weights.at_mut(1, 0, 0, 0) = 0.5;
        *input.at_mut(0, 1, 2, 3) = f32::NAN;
        let got = convolve(
            &input,
            &weights,
            Some(&bias),
            out_shape,
            f,
            kernel,
            1,
            pad,
            true,
        );
        let want = spec::convolve(
            &input,
            &weights,
            Some(&bias),
            out_shape,
            f,
            kernel,
            1,
            pad,
            true,
        );
        assert_same_bits(&got, &want, "NaN input");
        assert!(got.at(0, 0, 2, 3).is_nan() && !got.at(0, 0, 0, 0).is_nan());
        for method in [PoolKind::Max, PoolKind::Average] {
            let shape = Shape::chw(c, 3, 3);
            assert_same_bits(
                &pool(&input, shape, method, 2, 2, 0),
                &spec::pool(&input, shape, method, 2, 2, 0),
                &format!("NaN input, {method:?} pool"),
            );
        }
    }

    /// The engine's loop as it was before values were dropped: every
    /// node's output stored until the image ends, predecessors read from
    /// the store.
    fn store_everything(engine: &GoldenEngine, input: &Tensor) -> Vec<Tensor> {
        let net = engine.net;
        let mut outputs: Vec<Tensor> = Vec::with_capacity(net.layers.len());
        for (i, layer) in net.layers.iter().enumerate() {
            let preds = net.inputs_of(NodeId::from_index(i));
            let next = if layer.kind.is_merge() && preds.len() > 1 {
                let ins: Vec<&Tensor> = preds.iter().map(|p| &outputs[p.index()]).collect();
                match layer.kind {
                    LayerKind::Concat => concat(&ins),
                    LayerKind::Eltwise { op } => eltwise(op, &ins),
                    _ => unreachable!(),
                }
            } else {
                let current = match preds.first() {
                    None => input,
                    Some(p) => &outputs[p.index()],
                };
                engine
                    .forward_layer(&layer.kind, &layer.name, current)
                    .unwrap()
            };
            outputs.push(next);
        }
        outputs
    }

    /// Dropping values after their last reader changes no bit of any
    /// node's output, on the zoo and on random DAGs whose skip edges
    /// read values many nodes back (a value dropped too early fails).
    #[test]
    fn dropping_dead_values_changes_no_output() {
        let nets = [
            crate::zoo::lenet_weighted(3),
            crate::zoo::tc1_weighted(4),
            crate::zoo::resnet_block_weighted(5),
        ]
        .into_iter()
        .chain((0..64).map(crate::arbitrary::random_weighted_dag));
        for net in nets {
            let engine = GoldenEngine::new(&net).unwrap();
            let input = TensorRng::seeded(9).uniform(net.input_shape, -1.0, 1.0);
            let want = store_everything(&engine, &input);
            let got = engine.infer_all_layers(&input).unwrap();
            assert_eq!(got.len(), want.len(), "{}", net.name);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.shape(), w.shape(), "{} node {i}", net.name);
                assert_eq!(bits(g), bits(w), "{} node {i}", net.name);
            }
            let last = engine.infer(&input).unwrap();
            assert_eq!(bits(&last), bits(&want[want.len() - 1]), "{}", net.name);
        }
    }
}

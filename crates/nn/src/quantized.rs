//! INT8 quantized inference engine with calibration and error budgets.
//!
//! [`QuantizedEngine`] runs whole networks through the packed INT8
//! kernels of `condor-kernels`: symmetric per-channel weight
//! quantization, per-tensor activation scales chosen by calibration
//! observers, and the patch-major `i8` GEMM with fused
//! requantize/clamp/ReLU epilogues. It is the software model of the
//! paper's narrow-precision hardware path — the same network that runs
//! on f32 PEs can run on int8 PEs at half the DSP cost (see
//! `condor-hls`), and this engine answers the accuracy side of that
//! trade.
//!
//! ## Calibration
//!
//! [`QuantizedEngine::calibrate`] drives the golden engine over a sample
//! batch, observes every node's exact activation range with a
//! [`MinMaxObserver`] and freezes one [`QuantParams`] per node value. Weights are quantized
//! **per output channel**.
//!
//! ## Compilation
//!
//! The engine runs the shared compiled schedule (DESIGN.md §4c) through
//! the schedule's step loop over an `i8` arena; ReLU folding is
//! restricted to `negative_slope == 0`, the form the integer epilogue
//! clamp realises exactly. Each step compiles to a resolved op: conv/FC
//! steps own their `i8` weight blobs, accumulator-unit biases,
//! per-channel requantize multipliers and geometry; pointwise
//! activations (standalone ReLU, Sigmoid, TanH) compile to 256-entry
//! `i8 → i8` lookup tables (the dequantize → f(x) → requantize map is a
//! pure function of one quantized input); merges requantize every input
//! onto the node's common output scale, so Concat/Eltwise joins of
//! differently-scaled branches stay well defined.
//!
//! ## Error budgets
//!
//! Compilation also derives an explicit per-layer error budget: an
//! analytic bound on `|dequantized − golden|` accumulated from input
//! quantization, weight quantization and every requantize rounding along
//! the way (conv/FC amplify upstream error by at most the ℓ₁ norm of
//! their filter rows; pooling, ReLU and merges are 1-Lipschitz). The
//! [`QuantizedEngine::accuracy_report`] harness replays inputs through
//! both engines and checks every layer against its declared budget —
//! the bounds hold for inputs within the calibrated ranges (saturating
//! requantization projects onto the observed interval, which can only
//! shrink the error), so min/max-calibrated engines satisfy them on
//! their calibration batch by construction.

use crate::layer::{EltwiseOp, LayerKind, PoolKind};
use crate::network::{Network, NnError, NnErrorKind};
use crate::schedule::{conv_geometry, grown, layer_weights, pool_method, Arena, Schedule, Source};
use crate::GoldenEngine;
use condor_kernels::{
    dequantize_into, qconv2d, qgemv_i8, qpool2d, quantize_into, quantize_weights_per_channel,
    softmax, ConvGeometry, MinMaxObserver, PoolMethod, QWorkspace, QuantParams, QMAX,
};
use condor_tensor::Tensor;
use std::sync::Arc;

/// A conv filter bank or FC matrix (both `F × k` row-major) quantized
/// per channel: `i8` weights, accumulator-unit bias, per-channel
/// requantize multipliers, and whether a plain ReLU is folded in.
#[derive(Debug)]
struct Linear {
    weights: Vec<i8>,
    bias: Option<Vec<i32>>,
    multipliers: Vec<f32>,
    relu: bool,
}

/// One step of the int8 engine with its kernel, geometry and scales
/// resolved at compile time.
#[derive(Debug)]
enum QOp {
    /// Input staging and single-input merges: a quantized copy.
    Copy,
    Conv {
        num_output: usize,
        geo: ConvGeometry,
        linear: Linear,
    },
    /// Fully-connected layer: an `m × k` GEMV.
    Gemv { m: usize, k: usize, linear: Linear },
    Pool {
        method: PoolMethod,
        geo: ConvGeometry,
    },
    /// Pointwise unary op compiled to a 256-entry `i8 → i8` table
    /// (standalone ReLU, Sigmoid, TanH).
    Lut(Vec<i8>),
    /// (Log)SoftMax in f32 between the input's and the output's scale.
    Softmax { log: bool, input: QuantParams },
    /// Concatenation of two or more inputs, each requantized by the
    /// ratio of its scale to the output's.
    Concat(Vec<f64>),
    /// Element-wise left fold in f32 of two or more inputs, each
    /// dequantized at its own scale.
    Eltwise {
        op: EltwiseOp,
        inputs: Vec<QuantParams>,
    },
}

/// What the engine compiles for one scheduled step.
#[derive(Debug)]
struct QStep {
    out_params: QuantParams,
    op: QOp,
    /// Declared bound on `|dequantized − golden|` for this step's output
    /// on inputs within the calibrated ranges.
    budget: f32,
}

/// The immutable, shareable part of a calibrated engine.
#[derive(Debug)]
struct QPlan {
    net: Arc<Network>,
    schedule: Schedule,
    /// One entry per `schedule.steps` entry.
    steps: Vec<QStep>,
    input_params: QuantParams,
}

/// Multiplies the analytic bound by a hair and adds an absolute epsilon,
/// covering f32 multiplier storage and non-associative float folds that
/// the integer analysis does not model.
fn slacked(bound: f32) -> f32 {
    bound * 1.001 + 1e-5
}

impl QPlan {
    fn compile(net: Arc<Network>, calib: &[Tensor]) -> Result<Self, NnError> {
        if calib.is_empty() {
            return Err(
                NnError::net("quantized calibration needs at least one sample input")
                    .with_kind(NnErrorKind::InputMismatch),
            );
        }
        let golden = GoldenEngine::new(&net)?;
        let n = net.layers.len();

        // Observe every node's activation range (and the input's) over
        // the calibration batch.
        let mut node_obs = vec![MinMaxObserver::new(); n];
        let mut input_obs = MinMaxObserver::new();
        for img in calib {
            input_obs.observe(img.as_slice());
            golden.for_each_layer(img, |i, out| node_obs[i].observe(out.as_slice()))?;
        }
        let node_params: Vec<QuantParams> = node_obs.iter().map(MinMaxObserver::params).collect();
        let input_params = input_obs.params();

        // Plain ReLU only: the one form the integer epilogue's
        // clamp-at-zero realises exactly.
        let schedule = Schedule::compile(&net, |slope| slope == 0.0)?;
        let input_err = slacked(input_params.scale / 2.0);
        let mut steps: Vec<QStep> = Vec::with_capacity(schedule.steps.len());

        for step in &schedule.steps {
            let layer = &net.layers[step.node];
            // Scale and error bound of each value this step reads.
            let (in_scales, in_errs): (Vec<QuantParams>, Vec<f32>) = step
                .inputs
                .iter()
                .map(|&(_, _, source)| match source {
                    Source::NetworkInput => (input_params, input_err),
                    Source::Step(i) => (steps[i].out_params, steps[i].budget),
                })
                .unzip();
            let in_abs = |k: usize| in_scales[k].scale * QMAX as f32;
            // The node whose golden output this step's output represents.
            let golden_index = step.fused_relu.unwrap_or(step.node);
            let in_params = in_scales[0];
            let s_in = in_params.scale;

            let input = step.inputs[0].1;
            let conv_geo =
                |kernel, stride, pad| conv_geometry(kernel, stride, pad, input, step.output);

            // Per-kind op, output scale and error budget.
            let (op, out_params, budget) = match layer.kind {
                LayerKind::Input => (QOp::Copy, in_params, in_errs[0]),
                // A single-input merge is a quantized copy.
                LayerKind::Concat | LayerKind::Eltwise { .. } if step.inputs.len() == 1 => {
                    (QOp::Copy, in_params, in_errs[0])
                }
                LayerKind::Convolution { num_output, .. }
                | LayerKind::InnerProduct { num_output, .. } => {
                    let (weights, bias) = layer_weights(&net, &layer.name, &layer.kind, input)?;
                    let p_out = node_params[golden_index];
                    let (mut linear, bound) = quantize_linear_layer(
                        weights,
                        bias,
                        num_output,
                        in_params,
                        p_out,
                        in_errs[0],
                        in_abs(0),
                    );
                    linear.relu = step.fused_relu.is_some();
                    let op = match layer.kind {
                        LayerKind::Convolution {
                            kernel,
                            stride,
                            pad,
                            ..
                        } => QOp::Conv {
                            num_output,
                            geo: conv_geo(kernel, stride, pad),
                            linear,
                        },
                        _ => QOp::Gemv {
                            m: step.output.item_len(),
                            k: input.item_len(),
                            linear,
                        },
                    };
                    (op, p_out, bound)
                }
                LayerKind::Pooling {
                    method,
                    kernel,
                    stride,
                    pad,
                } => {
                    let extra = match method {
                        // Max commutes with monotone dequantization:
                        // exact on the input's scale.
                        PoolKind::Max => 0.0,
                        // Average rounds its quotient once.
                        PoolKind::Average => s_in / 2.0,
                    };
                    let op = QOp::Pool {
                        method: pool_method(method),
                        geo: conv_geo(kernel, stride, pad),
                    };
                    (op, in_params, slacked(in_errs[0] + extra))
                }
                LayerKind::ReLU { negative_slope } => {
                    // Scale-preserving: plain ReLU is exact in the
                    // quantized domain; the leaky variant rounds once.
                    let lut = build_lut(
                        |x| {
                            if x >= 0.0 {
                                x
                            } else {
                                x * negative_slope
                            }
                        },
                        in_params,
                        in_params,
                    );
                    let extra = if negative_slope == 0.0 {
                        0.0
                    } else {
                        s_in / 2.0
                    };
                    let amp = negative_slope.abs().max(1.0);
                    (QOp::Lut(lut), in_params, slacked(in_errs[0] * amp + extra))
                }
                LayerKind::Sigmoid => {
                    let p_out = node_params[step.node];
                    let lut = build_lut(|x| 1.0 / (1.0 + (-x).exp()), in_params, p_out);
                    // Sigmoid is 1/4-Lipschitz.
                    (
                        QOp::Lut(lut),
                        p_out,
                        slacked(in_errs[0] / 4.0 + p_out.scale / 2.0),
                    )
                }
                LayerKind::TanH => {
                    let p_out = node_params[step.node];
                    let lut = build_lut(f32::tanh, in_params, p_out);
                    (
                        QOp::Lut(lut),
                        p_out,
                        slacked(in_errs[0] + p_out.scale / 2.0),
                    )
                }
                LayerKind::Softmax { log } => {
                    let p_out = node_params[step.node];
                    // (Log)SoftMax is 2-Lipschitz in the ∞-norm.
                    (
                        QOp::Softmax {
                            log,
                            input: in_params,
                        },
                        p_out,
                        slacked(2.0 * in_errs[0] + p_out.scale / 2.0),
                    )
                }
                LayerKind::Concat => {
                    let p_out = node_params[step.node];
                    let s_out = p_out.scale as f64;
                    let ratios = in_scales.iter().map(|p| p.scale as f64 / s_out).collect();
                    let worst = in_errs.iter().fold(0.0f32, |m, &e| m.max(e));
                    (
                        QOp::Concat(ratios),
                        p_out,
                        slacked(worst + p_out.scale / 2.0),
                    )
                }
                LayerKind::Eltwise { op } => {
                    let p_out = node_params[step.node];
                    let bound = match op {
                        EltwiseOp::Sum => in_errs.iter().sum::<f32>(),
                        EltwiseOp::Max => in_errs.iter().fold(0.0f32, |m, &e| m.max(e)),
                        EltwiseOp::Prod => {
                            // Fold |ab − a′b′| ≤ |a|·err_b + (|b| + err_b)·err_a.
                            let mut err = in_errs[0];
                            let mut abs = in_abs(0);
                            for (k, &e) in in_errs.iter().enumerate().skip(1) {
                                let a = in_abs(k);
                                err = abs * e + (a + e) * err;
                                abs *= a;
                            }
                            err
                        }
                    };
                    let inputs = in_scales.clone();
                    let op = QOp::Eltwise { op, inputs };
                    (op, p_out, slacked(bound + p_out.scale / 2.0))
                }
            };
            steps.push(QStep {
                out_params,
                op,
                budget,
            });
        }
        Ok(QPlan {
            net,
            schedule,
            steps,
            input_params,
        })
    }
}

/// Quantizes one linear layer (conv filter bank or FC weight matrix) into
/// its [`Linear`] form, with no ReLU folded in, and the analytic error
/// bound.
fn quantize_linear_layer(
    weights: &[f32],
    bias: Option<&[f32]>,
    num_output: usize,
    p_in: QuantParams,
    p_out: QuantParams,
    err_in: f32,
    abs_in: f32,
) -> (Linear, f32) {
    let mut qw = vec![0i8; weights.len()];
    let wparams = quantize_weights_per_channel(weights, num_output, &mut qw);
    let s_in = p_in.scale as f64;
    let multipliers: Vec<f32> = wparams
        .iter()
        .map(|pw| (s_in * pw.scale as f64 / p_out.scale as f64) as f32)
        .collect();
    let bias = bias.map(|b| {
        b.iter()
            .zip(&wparams)
            .map(|(&bv, pw)| (bv as f64 / (s_in * pw.scale as f64)).round() as i32)
            .collect()
    });

    // Per-channel bound: requantize rounding + upstream error amplified
    // by the filter row's ℓ₁ norm + weight-quantization error across the
    // fan-in + bias rounding; worst channel declares the budget.
    let k = weights.len() / num_output.max(1);
    let mut worst = 0.0f32;
    for (f, pw) in wparams.iter().enumerate() {
        let l1: f32 = weights[f * k..(f + 1) * k].iter().map(|v| v.abs()).sum();
        let e = l1 * err_in
            + (pw.scale / 2.0) * k as f32 * (abs_in + err_in)
            + p_in.scale * pw.scale / 2.0;
        worst = worst.max(e);
    }
    let linear = Linear {
        weights: qw,
        bias,
        multipliers,
        relu: false,
    };
    (linear, slacked(p_out.scale / 2.0 + worst))
}

/// Compiles a pointwise unary op into a 256-entry `i8 → i8` table:
/// `lut[q + 128] = requantize(f(dequantize(q)))`. Entry 0 (`q = -128`,
/// unreachable for symmetric quantization) repeats `q = -127`.
fn build_lut(f: impl Fn(f32) -> f32, p_in: QuantParams, p_out: QuantParams) -> Vec<i8> {
    (-128i32..=127)
        .map(|q| {
            let x = q.max(-QMAX) as f32 * p_in.scale;
            p_out.quantize(f(x))
        })
        .collect()
}

/// Per-layer outcome of a golden-vs-quantized accuracy run.
#[derive(Clone, Debug)]
pub struct LayerAccuracy {
    /// Layer name (of the step's producer).
    pub name: String,
    /// Declared error budget from compilation.
    pub budget: f32,
    /// Largest `|dequantized − golden|` observed over the batch.
    pub max_abs_err: f32,
}

impl LayerAccuracy {
    /// Whether the observed error stayed within the declared budget.
    pub fn within_budget(&self) -> bool {
        self.max_abs_err <= self.budget
    }
}

/// Golden-vs-quantized accuracy report over a batch of inputs.
#[derive(Clone, Debug, Default)]
pub struct QuantAccuracyReport {
    /// One row per compiled step, in execution order.
    pub layers: Vec<LayerAccuracy>,
}

impl QuantAccuracyReport {
    /// True when every layer stayed within its declared budget.
    pub fn within_budget(&self) -> bool {
        self.layers.iter().all(LayerAccuracy::within_budget)
    }

    /// The layer with the largest budget overshoot (or closest call).
    pub fn worst(&self) -> Option<&LayerAccuracy> {
        self.layers.iter().max_by(|a, b| {
            (a.max_abs_err / a.budget.max(f32::MIN_POSITIVE))
                .total_cmp(&(b.max_abs_err / b.budget.max(f32::MIN_POSITIVE)))
        })
    }
}

/// INT8 quantized inference engine: calibrated scales, packed int8
/// kernels, and per-layer accuracy budgets.
///
/// ```
/// use condor_nn::{zoo, QuantizedEngine};
/// use condor_tensor::{Shape, Tensor, TensorRng};
///
/// let net = zoo::lenet_weighted(7);
/// let calib: Vec<Tensor> = (0..2)
///     .map(|i| TensorRng::seeded(i).uniform(net.input_shape, -1.0, 1.0))
///     .collect();
/// let mut q = QuantizedEngine::calibrate(&net, &calib).unwrap();
/// let report = q.accuracy_report(&calib).unwrap();
/// assert!(report.within_budget());
/// ```
#[derive(Debug)]
pub struct QuantizedEngine {
    plan: Arc<QPlan>,
    arena: Arena<i8>,
    scratch: QScratch,
}

/// Per-engine scratch beside the arena: the kernel workspace and the
/// f32 pair SoftMax and Eltwise steps compute in, grown on first use.
#[derive(Debug)]
struct QScratch {
    ws: QWorkspace,
    fbuf_a: Vec<f32>,
    fbuf_b: Vec<f32>,
}

impl QuantizedEngine {
    /// Calibrates with exact min/max observers over the sample batch and
    /// compiles the quantized plan.
    pub fn calibrate(net: &Network, calib: &[Tensor]) -> Result<Self, NnError> {
        let plan = QPlan::compile(Arc::new(net.clone()), calib)?;
        Ok(QuantizedEngine {
            arena: Arena::new(&plan.schedule),
            scratch: QScratch {
                ws: QWorkspace::new(),
                fbuf_a: Vec::new(),
                fbuf_b: Vec::new(),
            },
            plan: Arc::new(plan),
        })
    }

    /// Number of `i8` activation slots the arena holds (2 for chains —
    /// the same ping-pong pair as the f32 engine).
    pub fn arena_slot_count(&self) -> usize {
        self.plan.schedule.slot_count
    }

    /// Runs one image through the quantized network, returning the
    /// dequantized f32 output.
    pub fn infer(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let shape = self.plan.schedule.output_shape;
        let params = self.plan.steps[self.plan.steps.len() - 1].out_params;
        let mut out = vec![0.0f32; shape.len()];
        dequantize_into(self.run(input, |_, _| {})?, params, &mut out);
        Ok(Tensor::from_vec(shape, out))
    }

    /// Replays a batch through both engines and reports every layer's
    /// worst absolute error against its declared budget. Per image, the
    /// int8 run keeps a copy of every step's `i8` output; the golden
    /// replay then streams its values past them, so no layer's f32
    /// output outlives its last reader.
    pub fn accuracy_report(&mut self, inputs: &[Tensor]) -> Result<QuantAccuracyReport, NnError> {
        let plan = Arc::clone(&self.plan);
        let golden = GoldenEngine::new(&plan.net)?;
        // The steps whose output each golden node's value represents (a
        // fused step's output is the folded ReLU node's value).
        let mut steps_of = vec![Vec::new(); plan.net.layers.len()];
        for (si, step) in plan.schedule.steps.iter().enumerate() {
            steps_of[step.fused_relu.unwrap_or(step.node)].push(si);
        }
        let mut outs: Vec<Vec<i8>> = vec![Vec::new(); plan.steps.len()];
        let mut max_err = vec![0.0f32; plan.steps.len()];
        for img in inputs {
            self.run(img, |si, out_q| {
                outs[si].clear();
                outs[si].extend_from_slice(out_q);
            })?;
            golden.for_each_layer(img, |node, g| {
                for &si in &steps_of[node] {
                    let s = plan.steps[si].out_params.scale;
                    for (&q, &gv) in outs[si].iter().zip(g.as_slice()) {
                        let e = (q as f32 * s - gv).abs();
                        if e > max_err[si] {
                            max_err[si] = e;
                        }
                    }
                }
            })?;
        }
        Ok(QuantAccuracyReport {
            layers: plan
                .schedule
                .steps
                .iter()
                .zip(&plan.steps)
                .zip(&max_err)
                .map(|((step, q), &e)| LayerAccuracy {
                    name: plan.net.layers[step.node].name.clone(),
                    budget: q.budget,
                    max_abs_err: e,
                })
                .collect(),
        })
    }

    /// Quantizes the input and runs every step through the schedule's
    /// step loop, handing each step's quantized output to `hook`;
    /// returns the network output.
    fn run(&mut self, input: &Tensor, hook: impl FnMut(usize, &[i8])) -> Result<&[i8], NnError> {
        let plan = &*self.plan;
        plan.schedule.check_input(input)?;
        let scratch = &mut self.scratch;
        let stage = |x: &[f32], slot: &mut [i8]| quantize_into(x, plan.input_params, slot);
        let exec = |si: usize, ins: &[&[i8]], out: &mut [i8]| {
            let step = &plan.steps[si];
            step.op.run(ins, out, step.out_params, scratch);
        };
        let steps = 0..plan.steps.len();
        Ok(self.arena.run(
            &plan.schedule,
            steps,
            &[input.as_slice()],
            stage,
            exec,
            hook,
        ))
    }
}

impl QOp {
    /// Computes the step from `ins` (fan-in order) into `out`, which is
    /// quantized at `out_params`.
    fn run(&self, ins: &[&[i8]], out: &mut [i8], out_params: QuantParams, scratch: &mut QScratch) {
        let input = ins[0];
        match self {
            QOp::Copy => out.copy_from_slice(input),
            QOp::Conv {
                num_output,
                geo,
                linear: l,
            } => qconv2d(
                input,
                &l.weights,
                l.bias.as_deref(),
                *num_output,
                geo,
                &l.multipliers,
                l.relu,
                out,
                &mut scratch.ws,
            ),
            QOp::Gemv { m, k, linear: l } => qgemv_i8(
                *m,
                *k,
                &l.weights,
                input,
                l.bias.as_deref(),
                &l.multipliers,
                l.relu,
                out,
                &mut scratch.ws,
            ),
            QOp::Pool { method, geo } => {
                let (c, h, w) = (geo.in_c, geo.in_h, geo.in_w);
                let (kernel, stride, pad) = (geo.kernel, geo.stride, geo.pad);
                qpool2d(
                    input, c, h, w, *method, kernel, stride, pad, geo.out_h, geo.out_w, out,
                )
            }
            QOp::Lut(table) => {
                for (o, &q) in out.iter_mut().zip(input) {
                    *o = table[(q as i16 + 128) as usize];
                }
            }
            QOp::Softmax { log, input: p_in } => {
                let n = input.len();
                let x = grown(&mut scratch.fbuf_a, n);
                let y = grown(&mut scratch.fbuf_b, n);
                dequantize_into(input, *p_in, x);
                softmax(x, *log, y);
                quantize_into(y, out_params, out);
            }
            QOp::Concat(ratios) => {
                let mut off = 0;
                for (part, &ratio) in ins.iter().zip(ratios) {
                    for (o, &q) in out[off..off + part.len()].iter_mut().zip(*part) {
                        *o = ((q as f64 * ratio).round()).clamp(-127.0, 127.0) as i8;
                    }
                    off += part.len();
                }
                assert_eq!(off, out.len(), "concat output length mismatch");
            }
            QOp::Eltwise { op, inputs } => {
                let acc = grown(&mut scratch.fbuf_a, out.len());
                dequantize_into(input, inputs[0], acc);
                for (part, p) in ins.iter().zip(inputs).skip(1) {
                    let pairs = acc.iter_mut().zip(*part);
                    let scale = p.scale;
                    match op {
                        EltwiseOp::Sum => pairs.for_each(|(a, &q)| *a += q as f32 * scale),
                        EltwiseOp::Prod => pairs.for_each(|(a, &q)| *a *= q as f32 * scale),
                        EltwiseOp::Max => pairs.for_each(|(a, &q)| *a = a.max(q as f32 * scale)),
                    }
                }
                quantize_into(acc, out_params, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::arbitrary::{random_weighted_chain, random_weighted_dag};
    use crate::zoo;
    use condor_tensor::{Shape, TensorRng};

    fn calib_batch(shape: Shape, count: u64, seed: u64) -> Vec<Tensor> {
        (0..count)
            .map(|i| TensorRng::seeded(seed + i).uniform(shape, -1.0, 1.0))
            .collect()
    }

    #[test]
    fn lenet_stays_within_declared_budgets() {
        let net = zoo::lenet_weighted(5);
        let calib = calib_batch(net.input_shape, 3, 40);
        let mut q = QuantizedEngine::calibrate(&net, &calib).unwrap();
        let report = q.accuracy_report(&calib).unwrap();
        assert!(report.within_budget(), "worst layer: {:?}", report.worst());
        // Budgets are meaningful, not vacuous: every budget is finite
        // and the final layer's is small relative to the output range.
        for row in &report.layers {
            assert!(row.budget.is_finite() && row.budget > 0.0, "{}", row.name);
        }
    }

    #[test]
    fn tc1_stays_within_declared_budgets() {
        let net = zoo::tc1_weighted(9);
        let calib = calib_batch(net.input_shape, 2, 77);
        let mut q = QuantizedEngine::calibrate(&net, &calib).unwrap();
        let report = q.accuracy_report(&calib).unwrap();
        assert!(report.within_budget(), "worst: {:?}", report.worst());
    }

    #[test]
    fn quantized_fuses_plain_relu_like_the_fast_engine() {
        // Every ReLU in these networks is plain (slope 0), so the two
        // engines' fusion predicates yield the identical schedule.
        for net in [zoo::tc1(), zoo::lenet(), zoo::resnet_block()] {
            let fast = Schedule::compile(&net, |_| true).unwrap();
            let int8 = Schedule::compile(&net, |slope| slope == 0.0).unwrap();
            assert_eq!(fast, int8, "{}", net.name);
        }
    }

    #[test]
    fn chains_keep_the_ping_pong_arena() {
        for net in [zoo::lenet_weighted(1), zoo::tc1_weighted(1)] {
            let calib = calib_batch(net.input_shape, 1, 8);
            let q = QuantizedEngine::calibrate(&net, &calib).unwrap();
            assert_eq!(q.arena_slot_count(), 2, "{}", net.name);
        }
    }

    #[test]
    fn empty_calibration_batch_refused() {
        let net = zoo::lenet_weighted(1);
        assert!(QuantizedEngine::calibrate(&net, &[]).is_err());
    }

    #[test]
    fn repeated_inference_reuses_the_arena_without_leaking_state() {
        let net = zoo::lenet_weighted(3);
        let calib = calib_batch(net.input_shape, 2, 11);
        let mut q = QuantizedEngine::calibrate(&net, &calib).unwrap();
        assert!(q.scratch.fbuf_a.is_empty() && q.scratch.fbuf_b.is_empty());
        let a = q.infer(&calib[0]).unwrap();
        let b = q.infer(&calib[0]).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        // The kernel scratch grew on the first image only. The f32 pair
        // grew, on first use, to the SoftMax.
        let bytes = q.scratch.ws.bytes();
        assert!(bytes > 0);
        q.infer(&calib[1]).unwrap();
        assert_eq!(q.scratch.ws.bytes(), bytes);
        assert_eq!(q.scratch.fbuf_a.len(), 10);
        assert_eq!(q.scratch.fbuf_b.len(), 10);
    }

    /// The int8 scratch holds no plane proportional to a layer's patch
    /// count: after a `vgg56` inference it is the widened weights of the
    /// largest layer (`conv2_2`, 128 × 1152 `i16`; this net has no GEMV
    /// input), under 0.5 MB where the patch planes took 5.4 MB. The
    /// per-band patch tiles are freed by each call and not counted.
    #[test]
    fn vgg56_int8_scratch_is_the_widened_weights() {
        let net = crate::fast::tests::vgg_prefix(1, Shape::chw(3, 56, 56), "pool2");
        let calib = calib_batch(net.input_shape, 1, 5);
        let mut q = QuantizedEngine::calibrate(&net, &calib).unwrap();
        q.infer(&calib[0]).unwrap();
        let (m, k) = (128, 128 * 9);
        let bytes = q.scratch.ws.bytes();
        assert!(bytes >= m * k * 2, "{bytes}");
        assert!(bytes < 500_000, "{bytes}");
    }

    #[test]
    fn wrong_input_shape_refused() {
        let net = zoo::lenet_weighted(2);
        let calib = calib_batch(net.input_shape, 1, 1);
        let mut q = QuantizedEngine::calibrate(&net, &calib).unwrap();
        let err = q.infer(&Tensor::zeros(Shape::chw(3, 28, 28))).unwrap_err();
        assert_eq!(err.kind, NnErrorKind::InputMismatch);
    }

    #[test]
    fn random_chains_stay_within_budget() {
        for seed in 0..12u64 {
            let net = random_weighted_chain(seed);
            let calib = calib_batch(net.input_shape, 2, seed ^ 0x5151);
            let mut q = QuantizedEngine::calibrate(&net, &calib).unwrap();
            let report = q.accuracy_report(&calib).unwrap();
            assert!(
                report.within_budget(),
                "seed {seed}, worst: {:?}",
                report.worst()
            );
        }
    }

    #[test]
    fn random_dags_requantize_merges_within_budget() {
        for seed in 0..12u64 {
            let net = random_weighted_dag(seed);
            let calib = calib_batch(net.input_shape, 2, seed ^ 0xd06);
            let mut q = QuantizedEngine::calibrate(&net, &calib).unwrap();
            let report = q.accuracy_report(&calib).unwrap();
            assert!(
                report.within_budget(),
                "seed {seed}, worst: {:?}",
                report.worst()
            );
        }
    }
}

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
//! The engine executes the shared compiled schedule (DESIGN.md §4c) over
//! an `i8` arena; ReLU folding is restricted to `negative_slope == 0`,
//! the form the integer epilogue clamp realises exactly. Each step
//! carries its quantized payload: conv/FC steps own their `i8` weight
//! blobs, accumulator-unit biases and per-channel requantize
//! multipliers; pointwise activations (standalone ReLU, Sigmoid, TanH)
//! compile to 256-entry `i8 → i8` lookup tables (the dequantize → f(x)
//! → requantize map is a pure function of one quantized input); merges
//! requantize every input onto the node's common output scale, so
//! Concat/Eltwise joins of differently-scaled branches stay well
//! defined.
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
use crate::network::{LayerWeights, Network, NnError, NnErrorKind};
use crate::schedule::{conv_geometry, pool_method, Arena, Schedule, ScheduledStep, Source};
use crate::GoldenEngine;
use condor_kernels::{
    dequantize_into, qconv2d, qgemv_i8, qpool2d, quantize_into, quantize_weights_per_channel,
    softmax, MinMaxObserver, QWorkspace, QuantParams, QMAX,
};
use condor_tensor::Tensor;
use std::sync::Arc;

/// What compilation precomputes for a step beyond its layer kind.
#[derive(Debug)]
enum QPayload {
    /// Nothing: the kind says it all (input staging, pooling, SoftMax,
    /// merges).
    None,
    /// Conv filter bank or FC matrix (both `F × k` row-major):
    /// per-channel `i8` weights, accumulator-unit bias and per-channel
    /// requantize multipliers.
    Linear {
        weights: Vec<i8>,
        bias: Option<Vec<i32>>,
        multipliers: Vec<f32>,
    },
    /// Pointwise unary op compiled to a 256-entry `i8 → i8` table
    /// (standalone ReLU, Sigmoid, TanH).
    Lut(Vec<i8>),
}

/// What the engine adds to one [`ScheduledStep`].
#[derive(Debug)]
struct QStep {
    out_params: QuantParams,
    payload: QPayload,
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
    max_cols: usize,
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
            let all = golden.infer_all_layers(img)?;
            for (obs, out) in node_obs.iter_mut().zip(&all) {
                obs.observe(out.as_slice());
            }
        }
        let node_params: Vec<QuantParams> = node_obs.iter().map(MinMaxObserver::params).collect();
        let input_params = input_obs.params();

        // Plain ReLU only: the one form the integer epilogue's
        // clamp-at-zero realises exactly.
        let schedule = Schedule::compile(&net, |slope| slope == 0.0)?;
        let input_err = slacked(input_params.scale / 2.0);
        let mut steps: Vec<QStep> = Vec::with_capacity(schedule.steps.len());
        let mut max_cols = 0usize;

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

            // Per-kind payload, output scale and error budget.
            let (payload, out_params, budget) = match layer.kind {
                LayerKind::Input => (QPayload::None, in_params, in_errs[0]),
                // A single-input merge is a quantized copy.
                LayerKind::Concat | LayerKind::Eltwise { .. } if step.inputs.len() == 1 => {
                    (QPayload::None, in_params, in_errs[0])
                }
                LayerKind::Convolution { num_output, .. }
                | LayerKind::InnerProduct { num_output, .. } => {
                    let lw = net.weights_or_err(&layer.name)?;
                    let k = step.inputs[0].1.item_len();
                    let is_fc = matches!(layer.kind, LayerKind::InnerProduct { .. });
                    if is_fc && lw.weights.shape().c != k {
                        return Err(NnError::at(
                            &layer.name,
                            format!(
                                "weight fan-in {} does not match flattened input {k}",
                                lw.weights.shape().c
                            ),
                        )
                        .with_kind(NnErrorKind::WeightShape));
                    }
                    let p_out = node_params[golden_index];
                    let (payload, bound) = quantize_linear_layer(
                        lw,
                        num_output,
                        in_params,
                        p_out,
                        in_errs[0],
                        in_abs(0),
                    );
                    (payload, p_out, bound)
                }
                LayerKind::Pooling { method, .. } => {
                    let extra = match method {
                        // Max commutes with monotone dequantization:
                        // exact on the input's scale.
                        PoolKind::Max => 0.0,
                        // Average rounds its quotient once.
                        PoolKind::Average => s_in / 2.0,
                    };
                    (QPayload::None, in_params, slacked(in_errs[0] + extra))
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
                    (
                        QPayload::Lut(lut),
                        in_params,
                        slacked(in_errs[0] * amp + extra),
                    )
                }
                LayerKind::Sigmoid => {
                    let p_out = node_params[step.node];
                    let lut = build_lut(|x| 1.0 / (1.0 + (-x).exp()), in_params, p_out);
                    // Sigmoid is 1/4-Lipschitz.
                    (
                        QPayload::Lut(lut),
                        p_out,
                        slacked(in_errs[0] / 4.0 + p_out.scale / 2.0),
                    )
                }
                LayerKind::TanH => {
                    let p_out = node_params[step.node];
                    let lut = build_lut(f32::tanh, in_params, p_out);
                    (
                        QPayload::Lut(lut),
                        p_out,
                        slacked(in_errs[0] + p_out.scale / 2.0),
                    )
                }
                LayerKind::Softmax { .. } => {
                    let p_out = node_params[step.node];
                    // (Log)SoftMax is 2-Lipschitz in the ∞-norm.
                    (
                        QPayload::None,
                        p_out,
                        slacked(2.0 * in_errs[0] + p_out.scale / 2.0),
                    )
                }
                LayerKind::Concat => {
                    let p_out = node_params[step.node];
                    let worst = in_errs.iter().fold(0.0f32, |m, &e| m.max(e));
                    (QPayload::None, p_out, slacked(worst + p_out.scale / 2.0))
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
                    (QPayload::None, p_out, slacked(bound + p_out.scale / 2.0))
                }
            };

            if let LayerKind::Convolution {
                kernel,
                stride,
                pad,
                ..
            } = layer.kind
            {
                let geo = conv_geometry(kernel, stride, pad, step.inputs[0].1, step.output);
                max_cols = max_cols.max(geo.lowered_len());
            }
            steps.push(QStep {
                out_params,
                payload,
                budget,
            });
        }
        Ok(QPlan {
            net,
            schedule,
            steps,
            input_params,
            max_cols,
        })
    }

    /// Scale of the value a step input carries.
    fn params_of(&self, source: Source) -> QuantParams {
        match source {
            Source::NetworkInput => self.input_params,
            Source::Step(i) => self.steps[i].out_params,
        }
    }
}

/// Quantizes one linear layer (conv filter bank or FC weight matrix) into
/// its [`QPayload::Linear`] and the analytic error bound.
fn quantize_linear_layer(
    lw: &LayerWeights,
    num_output: usize,
    p_in: QuantParams,
    p_out: QuantParams,
    err_in: f32,
    abs_in: f32,
) -> (QPayload, f32) {
    let weights = lw.weights.as_slice();
    let mut qw = vec![0i8; weights.len()];
    let wparams = quantize_weights_per_channel(weights, num_output, &mut qw);
    let s_in = p_in.scale as f64;
    let multipliers: Vec<f32> = wparams
        .iter()
        .map(|pw| (s_in * pw.scale as f64 / p_out.scale as f64) as f32)
        .collect();
    let bias = lw.bias.as_ref().map(|b| {
        b.as_slice()
            .iter()
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
    let payload = QPayload::Linear {
        weights: qw,
        bias,
        multipliers,
    };
    (payload, slacked(p_out.scale / 2.0 + worst))
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
/// f32 pair SoftMax and Eltwise steps compute in.
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
        Ok(QuantizedEngine::from_plan(Arc::new(plan)))
    }

    fn from_plan(plan: Arc<QPlan>) -> Self {
        let max_elems = plan.schedule.max_elems;
        QuantizedEngine {
            arena: Arena::new(&plan.schedule),
            scratch: QScratch {
                ws: QWorkspace::with_capacity(plan.max_cols),
                fbuf_a: vec![0.0; max_elems],
                fbuf_b: vec![0.0; max_elems],
            },
            plan,
        }
    }

    /// The network this engine executes.
    pub fn network(&self) -> &Network {
        &self.plan.net
    }

    /// Number of `i8` activation slots the arena holds (2 for chains —
    /// the same ping-pong pair as the f32 engine).
    pub fn arena_slot_count(&self) -> usize {
        self.plan.schedule.slot_count
    }

    /// Runs one image through the quantized network, returning the
    /// dequantized f32 output.
    pub fn infer(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        self.run(input, |_, _| {})?;
        let schedule = &self.plan.schedule;
        let mut out = vec![0.0f32; schedule.output_shape.len()];
        dequantize_into(
            self.arena.value(&schedule.steps[schedule.output_step]),
            self.plan.steps[schedule.output_step].out_params,
            &mut out,
        );
        Ok(Tensor::from_vec(schedule.output_shape, out))
    }

    /// Replays a batch through both engines and reports every layer's
    /// worst absolute error against its declared budget.
    pub fn accuracy_report(&mut self, inputs: &[Tensor]) -> Result<QuantAccuracyReport, NnError> {
        let plan = Arc::clone(&self.plan);
        let golden = GoldenEngine::new(&plan.net)?;
        let mut max_err = vec![0.0f32; plan.steps.len()];
        for img in inputs {
            let all = golden.infer_all_layers(img)?;
            self.run(img, |si, out_q| {
                let step = &plan.schedule.steps[si];
                // A fused step's output is the folded ReLU node's value.
                let g = all[step.fused_relu.unwrap_or(step.node)].as_slice();
                let s = plan.steps[si].out_params.scale;
                for (&q, &gv) in out_q.iter().zip(g) {
                    let e = (q as f32 * s - gv).abs();
                    if e > max_err[si] {
                        max_err[si] = e;
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

    /// Quantizes the input, executes every step, and hands each step's
    /// quantized output to `hook`.
    fn run(&mut self, input: &Tensor, mut hook: impl FnMut(usize, &[i8])) -> Result<(), NnError> {
        let plan = &*self.plan;
        plan.schedule.check_input(input)?;
        let staged = self.arena.slot_mut(plan.schedule.input_slot, input.len());
        quantize_into(input.as_slice(), plan.input_params, staged);
        for (si, (step, q)) in plan.schedule.steps.iter().zip(&plan.steps).enumerate() {
            let scratch = &mut self.scratch;
            self.arena.run_step(step, |ins, out| {
                plan.execute(step, q, ins, out, scratch);
                hook(si, out);
            });
        }
        Ok(())
    }
}

impl QPlan {
    fn execute(
        &self,
        step: &ScheduledStep,
        q: &QStep,
        ins: &[&[i8]],
        out: &mut [i8],
        scratch: &mut QScratch,
    ) {
        let (_, in_shape, in_source) = step.inputs[0];
        let in_params = self.params_of(in_source);
        let input = ins[0];
        let fused_relu = step.fused_relu.is_some();
        match (&self.net.layers[step.node].kind, &q.payload) {
            (
                LayerKind::Convolution {
                    num_output,
                    kernel,
                    stride,
                    pad,
                    ..
                },
                QPayload::Linear {
                    weights,
                    bias,
                    multipliers,
                },
            ) => {
                let geo = conv_geometry(*kernel, *stride, *pad, in_shape, step.output);
                qconv2d(
                    input,
                    weights,
                    bias.as_deref(),
                    *num_output,
                    &geo,
                    multipliers,
                    fused_relu,
                    out,
                    &mut scratch.ws,
                );
            }
            (
                LayerKind::InnerProduct { .. },
                QPayload::Linear {
                    weights,
                    bias,
                    multipliers,
                },
            ) => {
                let (m, k) = (step.output.item_len(), in_shape.item_len());
                qgemv_i8(
                    m,
                    k,
                    weights,
                    input,
                    bias.as_deref(),
                    multipliers,
                    fused_relu,
                    out,
                    &mut scratch.ws,
                );
            }
            (
                LayerKind::Pooling {
                    method,
                    kernel,
                    stride,
                    pad,
                },
                _,
            ) => qpool2d(
                input,
                in_shape.c,
                in_shape.h,
                in_shape.w,
                pool_method(*method),
                *kernel,
                *stride,
                *pad,
                step.output.h,
                step.output.w,
                out,
            ),
            (_, QPayload::Lut(table)) => {
                for (o, &q) in out.iter_mut().zip(input) {
                    *o = table[(q as i16 + 128) as usize];
                }
            }
            (LayerKind::Softmax { log }, _) => {
                let n = in_shape.len();
                dequantize_into(input, in_params, &mut scratch.fbuf_a[..n]);
                softmax(&scratch.fbuf_a[..n], *log, &mut scratch.fbuf_b[..n]);
                quantize_into(&scratch.fbuf_b[..n], q.out_params, out);
            }
            (LayerKind::Concat, _) if ins.len() > 1 => {
                let mut off = 0;
                let s_out = q.out_params.scale as f64;
                for (part, &(_, _, source)) in ins.iter().zip(&step.inputs) {
                    let ratio = self.params_of(source).scale as f64 / s_out;
                    for (o, &q) in out[off..off + part.len()].iter_mut().zip(*part) {
                        *o = ((q as f64 * ratio).round()).clamp(-127.0, 127.0) as i8;
                    }
                    off += part.len();
                }
                assert_eq!(off, out.len(), "concat output length mismatch");
            }
            (LayerKind::Eltwise { op }, _) if ins.len() > 1 => {
                let acc = &mut scratch.fbuf_a[..step.output.len()];
                dequantize_into(input, in_params, acc);
                for (part, &(_, _, source)) in ins.iter().zip(&step.inputs).skip(1) {
                    let scale = self.params_of(source).scale;
                    match op {
                        EltwiseOp::Sum => {
                            for (a, &q) in acc.iter_mut().zip(*part) {
                                *a += q as f32 * scale;
                            }
                        }
                        EltwiseOp::Prod => {
                            for (a, &q) in acc.iter_mut().zip(*part) {
                                *a *= q as f32 * scale;
                            }
                        }
                        EltwiseOp::Max => {
                            for (a, &q) in acc.iter_mut().zip(*part) {
                                *a = a.max(q as f32 * scale);
                            }
                        }
                    }
                }
                quantize_into(acc, q.out_params, out);
            }
            // Input staging and single-input merges: a quantized copy.
            (LayerKind::Input | LayerKind::Concat | LayerKind::Eltwise { .. }, _) => {
                out.copy_from_slice(input)
            }
            _ => unreachable!("compile attaches a payload to every Conv/FC/activation step"),
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
        let a = q.infer(&calib[0]).unwrap();
        let b = q.infer(&calib[0]).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        // The lowering plane was sized at construction; inference never
        // grows it.
        assert!(q.plan.max_cols > 0);
        assert_eq!(q.scratch.ws.cols_capacity(), q.plan.max_cols);
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

//! Fast inference engine over the `condor-kernels` compute layer.
//!
//! [`FastEngine`] runs whole networks through im2col + blocked-GEMM
//! kernels instead of the golden engine's naive loop nests. It executes
//! the shared compiled schedule (DESIGN.md §4c: ReLUs folded into their
//! Conv/FC producer's GEMM epilogue, activation slots assigned at
//! compile time) over an `f32` arena plus an im2col workspace, all sized
//! to the network's high-water mark at construction. Steady-state
//! inference therefore performs **zero heap allocation per layer** (only
//! the returned output tensor is allocated).
//!
//! The slice-level primitive, [`forward_layer_fast`], is shared with the
//! dataflow hardware runtime: its PEs run the same kernels over the same
//! buffers-in/buffers-out contract, so the functional simulation and the
//! production CPU path cannot drift apart.
//!
//! [`GoldenEngine`](crate::GoldenEngine) remains the functional oracle;
//! the workspace property suites assert `FastEngine == GoldenEngine`
//! within 1e-4 on random networks. The two engines accumulate sums in
//! different association orders (ascending-`k` GEMM vs `(c, m, n)` loop
//! nest), so agreement is approximate, not bitwise.

use crate::layer::{EltwiseOp, LayerKind};
use crate::network::{Network, NnError, NnErrorKind};
use crate::schedule::{conv_geometry, pool_method, Arena, Schedule};
use condor_kernels::{activate, conv2d, gemv, pool2d, softmax, Activation, Workspace};
use condor_tensor::{Shape, Tensor};
use std::sync::Arc;

/// The immutable, shareable part of a compiled engine: network handle,
/// schedule and the im2col high-water mark.
#[derive(Debug)]
struct EnginePlan {
    net: Arc<Network>,
    schedule: Schedule,
    /// Largest im2col patch-matrix length (workspace size).
    max_cols: usize,
}

impl EnginePlan {
    fn compile(net: Arc<Network>) -> Result<Self, NnError> {
        if !net.fully_weighted() {
            return Err(NnError::net(
                "cannot run inference: some layers have no weights installed",
            )
            .with_kind(NnErrorKind::MissingWeights));
        }
        // The GEMM epilogue realises any slope, so every foldable ReLU folds.
        let schedule = Schedule::compile(&net, |_| true)?;
        let mut max_cols = 0usize;
        for step in &schedule.steps {
            if let LayerKind::Convolution {
                kernel,
                stride,
                pad,
                ..
            } = net.layers[step.node].kind
            {
                let geo = conv_geometry(kernel, stride, pad, step.inputs[0].1, step.output);
                if !geo.is_identity() {
                    max_cols = max_cols.max(geo.lowered_len());
                }
            }
        }
        Ok(EnginePlan {
            net,
            schedule,
            max_cols,
        })
    }

    /// Negative slope of the ReLU node folded into a step's epilogue
    /// (`Some(0.0)` for plain ReLU).
    fn fused_slope(&self, fused_relu: Option<usize>) -> Option<f32> {
        match self.net.layers[fused_relu?].kind {
            LayerKind::ReLU { negative_slope } => Some(negative_slope),
            _ => None,
        }
    }
}

/// Fast CPU inference engine: im2col + blocked GEMM with a per-engine
/// scratch arena.
///
/// ```
/// use condor_nn::{zoo, FastEngine, GoldenEngine};
/// use condor_tensor::{AllClose, Shape, Tensor};
///
/// let net = zoo::lenet_weighted(7);
/// let mut fast = FastEngine::new(&net).unwrap();
/// let digit = Tensor::zeros(Shape::chw(1, 28, 28));
/// let probs = fast.infer(&digit).unwrap();
/// let golden = GoldenEngine::new(&net).unwrap().infer(&digit).unwrap();
/// assert!(probs.all_close(&golden));
/// ```
#[derive(Debug)]
pub struct FastEngine {
    plan: Arc<EnginePlan>,
    arena: Arena<f32>,
    ws: Workspace,
}

impl Clone for FastEngine {
    /// Clones share the compiled plan (and network weights) but get a
    /// fresh scratch arena, so each clone can run on its own thread.
    fn clone(&self) -> Self {
        FastEngine::from_plan(Arc::clone(&self.plan))
    }
}

impl FastEngine {
    /// Compiles an engine for a fully-weighted network (cloned into a
    /// shared handle).
    pub fn new(net: &Network) -> Result<Self, NnError> {
        FastEngine::from_shared(Arc::new(net.clone()))
    }

    /// Compiles an engine from a shared network handle without copying
    /// weights.
    pub fn from_shared(net: Arc<Network>) -> Result<Self, NnError> {
        Ok(FastEngine::from_plan(Arc::new(EnginePlan::compile(net)?)))
    }

    fn from_plan(plan: Arc<EnginePlan>) -> Self {
        FastEngine {
            arena: Arena::new(&plan.schedule),
            ws: Workspace::with_capacity(plan.max_cols),
            plan,
        }
    }

    /// The network this engine executes.
    pub fn network(&self) -> &Network {
        &self.plan.net
    }

    /// Number of compiled steps (< layer count when ReLUs were fused
    /// into their producers).
    pub fn step_count(&self) -> usize {
        self.plan.schedule.steps.len()
    }

    /// Number of activation slots the compile-time refcounting scan
    /// settled on: 2 for every linear chain (the classic ping-pong
    /// pair), more for branchy graphs whose widest live cut is wider.
    pub fn arena_slot_count(&self) -> usize {
        self.plan.schedule.slot_count
    }

    /// Runs one image (`1×c×h×w`) through the whole network.
    ///
    /// Steady-state this allocates only the returned tensor: all
    /// intermediate activations live in the engine's slot-pool arena and
    /// the im2col workspace is reused across layers and calls.
    pub fn infer(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let plan = &*self.plan;
        plan.schedule.check_input(input)?;
        self.arena.input_mut().copy_from_slice(input.as_slice());
        for step in &plan.schedule.steps {
            let layer = &plan.net.layers[step.node];
            let ws = &mut self.ws;
            self.arena.run_step(step, |ins, out| {
                if layer.kind.is_merge() && ins.len() > 1 {
                    merge_fast(&layer.kind, ins, out);
                    return Ok(());
                }
                forward_layer_fast(
                    &plan.net,
                    &layer.name,
                    &layer.kind,
                    plan.fused_slope(step.fused_relu),
                    ins[0],
                    step.inputs[0].1,
                    step.output,
                    out,
                    ws,
                )
            })?;
        }
        Ok(Tensor::from_vec(
            plan.schedule.output_shape,
            self.arena.output().to_vec(),
        ))
    }

    /// Runs a batch sequentially on this engine's arena (zero per-layer
    /// allocation), preserving order.
    pub fn infer_batch(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>, NnError> {
        inputs.iter().map(|img| self.infer(img)).collect()
    }

    /// Runs a batch in parallel across threads, each with its own scratch
    /// arena, preserving order. Falls back to the sequential path for
    /// single-image batches.
    pub fn par_infer_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, NnError> {
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        if inputs.len() <= 1 || threads <= 1 {
            return self.clone().infer_batch(inputs);
        }
        let per = inputs.len().div_ceil(threads.min(inputs.len()));
        let chunk_results = std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .chunks(per)
                .map(|chunk| {
                    let mut engine = self.clone();
                    scope.spawn(move || engine.infer_batch(chunk))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("inference worker panicked"))
                .collect::<Vec<_>>()
        });
        let mut outputs = Vec::with_capacity(inputs.len());
        for r in chunk_results {
            outputs.extend(r?);
        }
        Ok(outputs)
    }
}

/// Computes one layer from `input` (length `in_shape.len()`) into `out`
/// (length `out_shape.len()`) using the `condor-kernels` compute layer.
///
/// `fused_relu` folds a following ReLU's negative slope into the GEMM
/// epilogue of a Conv/FC layer (ignored for other kinds). This is the
/// slice-level primitive shared by [`FastEngine`] and the dataflow
/// hardware runtime's PEs.
///
/// # Errors
/// Typed [`NnError`]s for missing weights or weight-shape mismatches.
///
/// # Panics
/// Panics when the slice lengths disagree with the declared shapes.
#[allow(clippy::too_many_arguments)]
pub fn forward_layer_fast(
    net: &Network,
    name: &str,
    kind: &LayerKind,
    fused_relu: Option<f32>,
    input: &[f32],
    in_shape: Shape,
    out_shape: Shape,
    out: &mut [f32],
    ws: &mut Workspace,
) -> Result<(), NnError> {
    assert_eq!(input.len(), in_shape.len(), "input length mismatch");
    assert_eq!(out.len(), out_shape.len(), "output length mismatch");
    match *kind {
        LayerKind::Input => out.copy_from_slice(input),
        LayerKind::Convolution {
            num_output,
            kernel,
            stride,
            pad,
            ..
        } => {
            let lw = net.weights_or_err(name)?;
            let geo = conv_geometry(kernel, stride, pad, in_shape, out_shape);
            conv2d(
                input,
                lw.weights.as_slice(),
                lw.bias.as_ref().map(|b| b.as_slice()),
                num_output,
                &geo,
                fused_relu,
                out,
                ws,
            );
        }
        LayerKind::Pooling {
            method,
            kernel,
            stride,
            pad,
        } => pool2d(
            input,
            in_shape.c,
            in_shape.h,
            in_shape.w,
            pool_method(method),
            kernel,
            stride,
            pad,
            out_shape.h,
            out_shape.w,
            out,
        ),
        LayerKind::ReLU { negative_slope } => {
            activate(input, Activation::Relu(negative_slope), out)
        }
        LayerKind::Sigmoid => activate(input, Activation::Sigmoid, out),
        LayerKind::TanH => activate(input, Activation::Tanh, out),
        LayerKind::InnerProduct { .. } => {
            let lw = net.weights_or_err(name)?;
            let (m, k) = (out_shape.item_len(), in_shape.item_len());
            if lw.weights.shape().c != k {
                return Err(NnError::at(
                    name,
                    format!(
                        "weight fan-in {} does not match flattened input {k}",
                        lw.weights.shape().c
                    ),
                )
                .with_kind(NnErrorKind::WeightShape));
            }
            gemv(
                m,
                k,
                lw.weights.as_slice(),
                input,
                lw.bias.as_ref().map(|b| b.as_slice()),
                fused_relu,
                out,
            );
        }
        LayerKind::Softmax { log } => softmax(input, log, out),
        // Single-input merges are shape-preserving pass-throughs
        // (mirroring `output_shape_multi`); fan-in ≥ 2 merges are
        // executed by the engine's dedicated merge path, which reads
        // several arena slots at once.
        LayerKind::Concat | LayerKind::Eltwise { .. } => out.copy_from_slice(input),
    }
    Ok(())
}

/// Executes a fan-in ≥ 2 merge over arena slices: channel-axis
/// concatenation (inputs are contiguous `1×c×h×w` items, so stacking
/// channels is appending slices) or an element-wise left fold.
///
/// Both paths match [`crate::golden`]'s merge semantics bit-for-bit —
/// same copy order, same fold order.
///
/// # Panics
/// Panics when the input lengths do not add up to (Concat) or equal
/// (Eltwise) the output length.
pub fn merge_fast(kind: &LayerKind, inputs: &[&[f32]], out: &mut [f32]) {
    match *kind {
        LayerKind::Concat => {
            let mut off = 0;
            for part in inputs {
                out[off..off + part.len()].copy_from_slice(part);
                off += part.len();
            }
            assert_eq!(off, out.len(), "concat output length mismatch");
        }
        LayerKind::Eltwise { op } => {
            out.copy_from_slice(inputs[0]);
            for part in &inputs[1..] {
                match op {
                    EltwiseOp::Sum => out.iter_mut().zip(*part).for_each(|(o, &v)| *o += v),
                    EltwiseOp::Prod => out.iter_mut().zip(*part).for_each(|(o, &v)| *o *= v),
                    EltwiseOp::Max => out.iter_mut().zip(*part).for_each(|(o, &v)| *o = o.max(v)),
                }
            }
        }
        _ => unreachable!("is_merge covers exactly these kinds"),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::arbitrary::random_weighted_chain;
    use crate::{zoo, GoldenEngine};
    use condor_tensor::{AllClose, TensorRng};

    #[test]
    fn lenet_matches_golden() {
        let net = zoo::lenet_weighted(5);
        let mut fast = FastEngine::new(&net).unwrap();
        let golden = GoldenEngine::new(&net).unwrap();
        let imgs: Vec<Tensor> = (0..4)
            .map(|i| TensorRng::seeded(i).uniform(net.input_shape, -1.0, 1.0))
            .collect();
        for img in &imgs {
            let f = fast.infer(img).unwrap();
            let g = golden.infer(img).unwrap();
            assert!(f.all_close(&g));
        }
    }

    #[test]
    fn relu_fusion_shrinks_step_count() {
        let net = zoo::lenet_weighted(1);
        let fast = FastEngine::new(&net).unwrap();
        // LeNet has no standalone ReLU after conv, but TC1 does; at
        // minimum the step count never exceeds the layer count.
        assert!(fast.step_count() <= net.layers.len());

        let tc1 = zoo::tc1_weighted(1);
        let fused = FastEngine::new(&tc1).unwrap();
        let relu_after_weighted = tc1
            .layers
            .windows(2)
            .filter(|w| {
                matches!(
                    w[0].kind,
                    LayerKind::Convolution { .. } | LayerKind::InnerProduct { .. }
                ) && matches!(w[1].kind, LayerKind::ReLU { .. })
            })
            .count();
        assert_eq!(fused.step_count(), tc1.layers.len() - relu_after_weighted);
    }

    #[test]
    fn linear_chain_degenerates_to_ping_pong_arena() {
        for net in [zoo::lenet_weighted(1), zoo::tc1_weighted(1)] {
            let fast = FastEngine::new(&net).unwrap();
            assert_eq!(fast.arena_slot_count(), 2, "{}", net.name);
        }
    }

    #[test]
    fn branchy_network_matches_golden() {
        use crate::layer::{EltwiseOp, Layer};
        use crate::NetworkBuilder;

        let conv = |name: &str, c: usize| {
            Layer::new(
                name,
                LayerKind::Convolution {
                    num_output: c,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    bias: true,
                },
            )
        };
        let mut b = NetworkBuilder::new("branchy", Shape::chw(3, 8, 8));
        let data = b.add(Layer::new("data", LayerKind::Input), &[]).unwrap();
        let c1 = b.add(conv("conv1", 4), &[data]).unwrap();
        let c2 = b.add(conv("conv2", 4), &[c1]).unwrap();
        let join = b
            .add(
                Layer::new("join", LayerKind::Eltwise { op: EltwiseOp::Sum }),
                &[c1, c2],
            )
            .unwrap();
        let cat = b
            .add(Layer::new("cat", LayerKind::Concat), &[c1, join])
            .unwrap();
        b.add(conv("conv3", 2), &[cat]).unwrap();
        let mut net = b.build().unwrap();
        net.attach_random_weights(11).unwrap();

        let mut fast = FastEngine::new(&net).unwrap();
        // conv1's value stays live across conv2, join and cat, so the
        // arena needs more than the chain's ping-pong pair.
        assert!(fast.arena_slot_count() > 2);
        let golden = GoldenEngine::new(&net).unwrap();
        for seed in 0..4u64 {
            let img = TensorRng::seeded(seed).uniform(net.input_shape, -1.0, 1.0);
            let f = fast.infer(&img).unwrap();
            let g = golden.infer(&img).unwrap();
            assert!(f.all_close_tol(&g, 1e-4, 1e-4), "seed {seed}");
        }
    }

    #[test]
    fn fusion_refused_when_relu_producer_feeds_a_skip_edge() {
        use crate::layer::{EltwiseOp, Layer};
        use crate::NetworkBuilder;

        // conv1 feeds both relu1 and the eltwise join: folding the ReLU
        // into conv1's epilogue would corrupt the skip branch, so the
        // compiler must keep them separate (step per layer).
        let mut b = NetworkBuilder::new("skip", Shape::chw(1, 6, 6));
        let data = b.add(Layer::new("data", LayerKind::Input), &[]).unwrap();
        let c1 = b
            .add(
                Layer::new(
                    "conv1",
                    LayerKind::Convolution {
                        num_output: 2,
                        kernel: 3,
                        stride: 1,
                        pad: 1,
                        bias: true,
                    },
                ),
                &[data],
            )
            .unwrap();
        let r1 = b
            .add(
                Layer::new(
                    "relu1",
                    LayerKind::ReLU {
                        negative_slope: 0.0,
                    },
                ),
                &[c1],
            )
            .unwrap();
        b.add(
            Layer::new("join", LayerKind::Eltwise { op: EltwiseOp::Sum }),
            &[c1, r1],
        )
        .unwrap();
        let mut net = b.build().unwrap();
        net.attach_random_weights(3).unwrap();
        let mut fast = FastEngine::new(&net).unwrap();
        assert_eq!(fast.step_count(), net.layers.len(), "no fusion expected");
        let img = TensorRng::seeded(9).uniform(net.input_shape, -1.0, 1.0);
        let f = fast.infer(&img).unwrap();
        let g = GoldenEngine::new(&net).unwrap().infer(&img).unwrap();
        assert!(f.all_close_tol(&g, 1e-4, 1e-4));
    }

    #[test]
    fn random_networks_match_golden() {
        for seed in 0..40u64 {
            let net = random_weighted_chain(seed);
            let mut fast = FastEngine::new(&net).unwrap();
            let golden = GoldenEngine::new(&net).unwrap();
            let input = TensorRng::seeded(seed ^ 0xabcd).uniform(net.input_shape, -1.0, 1.0);
            let f = fast.infer(&input).unwrap();
            let g = golden.infer(&input).unwrap();
            assert!(
                f.all_close_tol(&g, 1e-4, 1e-4),
                "seed {seed}: fast and golden disagree"
            );
        }
    }

    #[test]
    fn batch_and_parallel_batch_match_sequential() {
        let net = zoo::tc1_weighted(9);
        let mut fast = FastEngine::new(&net).unwrap();
        let imgs: Vec<Tensor> = (0..6)
            .map(|i| TensorRng::seeded(100 + i).uniform(net.input_shape, -1.0, 1.0))
            .collect();
        let seq = fast.infer_batch(&imgs).unwrap();
        let par = fast.par_infer_batch(&imgs).unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "parallel batch must be bit-identical"
            );
        }
    }

    #[test]
    fn repeated_inference_reuses_buffers() {
        let net = zoo::lenet_weighted(3);
        let mut fast = FastEngine::new(&net).unwrap();
        let img = TensorRng::seeded(0).uniform(net.input_shape, -1.0, 1.0);
        let a = fast.infer(&img).unwrap();
        let b = fast.infer(&img).unwrap();
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "arena reuse must not leak state"
        );
    }

    #[test]
    fn unweighted_network_refused() {
        let net = zoo::lenet();
        assert!(FastEngine::new(&net).is_err());
    }

    #[test]
    fn wrong_input_shape_refused() {
        let net = zoo::lenet_weighted(2);
        let mut fast = FastEngine::new(&net).unwrap();
        let bad = Tensor::zeros(Shape::chw(3, 28, 28));
        let err = fast.infer(&bad).unwrap_err();
        assert_eq!(err.kind, NnErrorKind::InputMismatch);
    }
}

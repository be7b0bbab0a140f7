//! Fast inference engine over the `condor-kernels` compute layer.
//!
//! [`FastEngine`] runs whole networks through implicit-GEMM convolution
//! and register-tiled GEMM kernels instead of the golden engine's naive
//! loop nests. It executes the shared compiled schedule (DESIGN.md §4c:
//! ReLUs folded into their Conv/FC producer's GEMM epilogue, activation
//! slots assigned at compile time) over one `f32` arena whose slots grow
//! on first use to the largest value they hold; convolution packs its
//! GEMM operand straight from the arena, so there is no lowering buffer.
//! Wide 3×3, stride-1 convolutions (the kernels' `takes_winograd`: at
//! least 32 input channels and 25 output tiles of 4×4) run through
//! Winograd F(4×4, 3×3) instead, on filters transformed once at
//! construction and in block scratch that likewise grows on first use.
//! Steady-state inference therefore performs **no heap allocation for
//! activations or scratch** (only the returned output tensor and, per
//! Winograd layer, the short table of output row slices each of its
//! threads writes are allocated).
//!
//! The dataflow hardware runtime runs this same step loop: each of its
//! PE threads holds a clone of one engine and calls
//! [`FastEngine::run_nodes`] over the PE's run of nodes, so the
//! functional simulation computes the production CPU path's bits on
//! every layer, Winograd ones included.
//!
//! [`GoldenEngine`](crate::GoldenEngine) remains the functional oracle;
//! the workspace property suites assert `FastEngine == GoldenEngine`
//! within 1e-4 on random networks. The two engines accumulate sums in
//! different association orders (ascending-`k` GEMM vs `(c, m, n)` loop
//! nest), so agreement is approximate, not bitwise.

use crate::layer::{EltwiseOp, LayerKind};
use crate::network::{Network, NnError, NnErrorKind};
use crate::schedule::{conv_geometry, pool_method, Arena, Schedule, ScheduledStep};
use condor_kernels::{
    activate, conv2d, conv2d_winograd, gemv, pool2d, softmax, takes_winograd, winograd_scratch_len,
    Activation, ConvGeometry, WinogradFilters, Workspace,
};
use condor_tensor::{Shape, Tensor};
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

/// The immutable, shareable part of a compiled engine: network handle,
/// schedule and the Winograd form of the convolutions that take it.
#[derive(Debug)]
struct EnginePlan {
    net: Arc<Network>,
    schedule: Schedule,
    /// Per step: the Winograd form of a convolution that takes it.
    winograd: Vec<Option<WinogradStep>>,
}

/// A convolution step run through Winograd F(4×4, 3×3): its transformed
/// filters (36/9 of the 3×3 weights) and bias stand in for the layer's
/// weights.
#[derive(Debug)]
struct WinogradStep {
    filters: WinogradFilters,
    bias: Option<Vec<f32>>,
    geo: ConvGeometry,
    scratch_len: usize,
}

impl WinogradStep {
    /// The Winograd form of `step`, when it is a convolution that takes
    /// it.
    fn of(net: &Network, step: &ScheduledStep) -> Result<Option<Self>, NnError> {
        let layer = &net.layers[step.node];
        let LayerKind::Convolution {
            num_output,
            kernel,
            stride,
            pad,
            ..
        } = layer.kind
        else {
            return Ok(None);
        };
        let geo = conv_geometry(kernel, stride, pad, step.inputs[0].1, step.output);
        if !takes_winograd(&geo) {
            return Ok(None);
        }
        let lw = net.weights_or_err(&layer.name)?;
        Ok(Some(WinogradStep {
            filters: WinogradFilters::new(lw.weights.as_slice(), num_output, geo.in_c),
            bias: lw.bias.as_ref().map(|b| b.as_slice().to_vec()),
            scratch_len: winograd_scratch_len(&geo, num_output),
            geo,
        }))
    }
}

impl EnginePlan {
    /// Lowers `net` and transforms the filters of every convolution that
    /// takes Winograd; `hold` then gets the names of those layers and
    /// returns the network the plan keeps.
    fn compile(net: &Network, hold: impl FnOnce(&[&str]) -> Arc<Network>) -> Result<Self, NnError> {
        if !net.fully_weighted() {
            return Err(NnError::net(
                "cannot run inference: some layers have no weights installed",
            )
            .with_kind(NnErrorKind::MissingWeights));
        }
        // The GEMM epilogue realises any slope, so every foldable ReLU folds.
        let schedule = Schedule::compile(net, |_| true)?;
        let winograd = schedule
            .steps
            .iter()
            .map(|step| WinogradStep::of(net, step))
            .collect::<Result<Vec<_>, _>>()?;
        let replaced: Vec<&str> = schedule
            .steps
            .iter()
            .zip(&winograd)
            .filter(|(_, w)| w.is_some())
            .map(|(step, _)| net.layers[step.node].name.as_str())
            .collect();
        Ok(EnginePlan {
            net: hold(&replaced),
            schedule,
            winograd,
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

/// Fast CPU inference engine: implicit-GEMM convolution and
/// register-tiled GEMM over a per-engine activation arena.
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
    /// Winograd block scratch, shared by the steps in turn and grown to
    /// the largest step's need on first use.
    scratch: Vec<f32>,
}

impl Clone for FastEngine {
    /// Clones share the compiled plan (and network weights) but get a
    /// fresh scratch arena, so each clone can run on its own thread.
    fn clone(&self) -> Self {
        FastEngine::from_plan(Arc::clone(&self.plan))
    }
}

impl FastEngine {
    /// Compiles an engine for a fully-weighted network. The engine keeps
    /// its own copy of the weights, except those of the convolutions it
    /// runs through Winograd, whose transformed filters replace them.
    pub fn new(net: &Network) -> Result<Self, NnError> {
        let plan = EnginePlan::compile(net, |replaced| {
            Arc::new(net.clone_without_weights(|name| replaced.contains(&name)))
        })?;
        Ok(FastEngine::from_plan(Arc::new(plan)))
    }

    /// Compiles an engine from a shared network handle without copying
    /// weights.
    pub fn from_shared(net: Arc<Network>) -> Result<Self, NnError> {
        let plan = EnginePlan::compile(&net, |_| Arc::clone(&net))?;
        Ok(FastEngine::from_plan(Arc::new(plan)))
    }

    fn from_plan(plan: Arc<EnginePlan>) -> Self {
        FastEngine {
            arena: Arena::new(&plan.schedule),
            scratch: Vec::new(),
            plan,
        }
    }

    /// Number of activation slots the compile-time refcounting scan
    /// settled on: 2 for every linear chain (the classic ping-pong
    /// pair), more for branchy graphs whose widest live cut is wider.
    pub fn arena_slot_count(&self) -> usize {
        self.plan.schedule.slot_count
    }

    /// Runs one image (`1×c×h×w`) through the whole network.
    ///
    /// Steady-state this allocates only the returned tensor and, per
    /// Winograd layer, a table of output rows per thread: all
    /// intermediate activations live in the engine's slot-pool arena,
    /// reused across layers and calls, and Winograd convolutions block
    /// their work inside the engine's scratch.
    pub fn infer(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        self.plan.schedule.check_input(input)?;
        let shape = self.plan.schedule.output_shape;
        let out = self.run_steps(0..self.plan.schedule.steps.len(), &[input.as_slice()])?;
        Ok(Tensor::from_vec(shape, out.to_vec()))
    }

    /// Runs the compiled steps of the contiguous node run `nodes` (node
    /// indices in topological order) and returns the value of its last
    /// node. `inputs` are the values the run's first node reads, in
    /// fan-in order; they are staged into that step's arena slots. This
    /// is [`FastEngine::infer`]'s own step loop, so a pipeline of
    /// engines, each running one run of nodes, computes exactly the
    /// bits `infer` does.
    ///
    /// The run is checked before `inputs` are, so a call with no inputs
    /// checks a run and computes nothing.
    ///
    /// # Errors
    /// `BadFanIn` when the run is empty, cuts a ReLU from the producer
    /// it is folded into, or has a later node that reads a value from
    /// outside the run that its first node does not; `InputMismatch`
    /// when `inputs` disagree in number or length with what the first
    /// node reads.
    pub fn run_nodes(
        &mut self,
        nodes: RangeInclusive<usize>,
        inputs: &[&[f32]],
    ) -> Result<&[f32], NnError> {
        let steps = self.plan.schedule.steps_of(&nodes)?;
        let reads = &self.plan.schedule.steps[steps.start].inputs;
        if inputs.len() != reads.len()
            || inputs.iter().zip(reads).any(|(x, r)| x.len() != r.1.len())
        {
            return Err(NnError::net(format!(
                "nodes {nodes:?} read {} values; the inputs given differ in number or length",
                reads.len()
            ))
            .with_kind(NnErrorKind::InputMismatch));
        }
        self.run_steps(steps, inputs)
    }

    /// Stages `inputs` into the slots the first of `steps` reads, runs
    /// the steps and returns the last one's output. The caller has
    /// checked that the steps form a run (`Schedule::steps_of`) and that
    /// `inputs` match the first step's reads.
    fn run_steps(&mut self, steps: Range<usize>, inputs: &[&[f32]]) -> Result<&[f32], NnError> {
        let plan = &*self.plan;
        let run = &plan.schedule.steps[steps.clone()];
        for (x, &(slot, _, _)) in inputs.iter().zip(&run[0].inputs) {
            self.arena.slot_mut(slot, x.len()).copy_from_slice(x);
        }
        let scratch = &mut self.scratch;
        for (step, winograd) in run.iter().zip(&plan.winograd[steps]) {
            let layer = &plan.net.layers[step.node];
            self.arena.run_step(step, |ins, out| {
                if let Some(w) = winograd {
                    scratch.resize(scratch.len().max(w.scratch_len), 0.0);
                    let slope = plan.fused_slope(step.fused_relu);
                    let bias = w.bias.as_deref();
                    conv2d_winograd(ins[0], &w.filters, bias, &w.geo, slope, out, scratch);
                    return Ok(());
                }
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
                    &mut Workspace::new(),
                )
            })?;
        }
        Ok(self.arena.value(&run[run.len() - 1]))
    }

    /// Runs a batch sequentially on this engine's arena (zero per-layer
    /// allocation), preserving order.
    pub fn infer_batch(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>, NnError> {
        inputs.iter().map(|img| self.infer(img)).collect()
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
fn merge_fast(kind: &LayerKind, inputs: &[&[f32]], out: &mut [f32]) {
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
    use condor_tensor::{max_abs_diff, AllClose, TensorRng};

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
        assert!(fast.plan.schedule.steps.len() <= net.layers.len());

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
        assert_eq!(
            fused.plan.schedule.steps.len(),
            tc1.layers.len() - relu_after_weighted
        );
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
        assert_eq!(
            fast.plan.schedule.steps.len(),
            net.layers.len(),
            "no fusion expected"
        );
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

    /// The layers of `zoo::vgg16()` up to `last`, rebuilt at `input`
    /// with random weights; up to `pool2` at 3×56×56 it is the `perf`
    /// benchmark's `vgg56`.
    fn vgg_prefix(seed: u64, input: Shape, last: &str) -> Network {
        let full = zoo::vgg16();
        let end = full.layers.iter().position(|l| l.name == last).unwrap();
        let layers = full.layers[..=end].to_vec();
        let mut net = crate::NetworkBuilder::chain("vgg", input, layers).unwrap();
        net.attach_random_weights(seed).unwrap();
        net
    }

    /// Names of the layers the engine runs through Winograd.
    fn winograd_layers(engine: &FastEngine) -> Vec<&str> {
        let plan = &engine.plan;
        plan.schedule
            .steps
            .iter()
            .zip(&plan.winograd)
            .filter(|(_, w)| w.is_some())
            .map(|(step, _)| plan.net.layers[step.node].name.as_str())
            .collect()
    }

    /// On the `vgg16` prefix exactly the three wide 3×3 convolutions take
    /// Winograd, and the engine keeps none of their 3×3 weights. LeNet
    /// and TC1 (the serving lanes' networks) take none and, after an
    /// inference, still hold no scratch.
    #[test]
    fn winograd_routing_on_zoo_networks() {
        let net = vgg_prefix(1, Shape::chw(3, 56, 56), "pool2");
        let mut fast = FastEngine::new(&net).unwrap();
        let wide = ["conv1_2", "conv2_1", "conv2_2"];
        assert_eq!(winograd_layers(&fast), wide);
        for name in wide {
            assert!(!fast.plan.net.weights.contains_key(name), "{name} kept");
        }
        assert!(fast.plan.net.weights.contains_key("conv1_1"));
        fast.infer(&Tensor::zeros(net.input_shape)).unwrap();
        let needs = fast.plan.winograd.iter().flatten().map(|w| w.scratch_len);
        assert_eq!(Some(fast.scratch.len()), needs.max());
        for net in [zoo::lenet_weighted(1), zoo::tc1_weighted(1)] {
            let mut fast = FastEngine::new(&net).unwrap();
            assert!(winograd_layers(&fast).is_empty(), "{}", net.name);
            fast.infer(&Tensor::zeros(net.input_shape)).unwrap();
            assert!(fast.scratch.is_empty(), "{}", net.name);
        }
    }

    /// `FastEngine` against the golden oracle within 1e-4 (the `perf`
    /// set-up check) where Winograd runs: a net with odd map sizes, pad
    /// 0 and 1, F not a multiple of 4 and a leaky ReLU, whose Winograd
    /// tiles overhang the right and bottom edges (its outputs of 23×21,
    /// 21×19 and 21×19 are 36, 30 and 30 tiles of 4×4, enough to take
    /// Winograd, and no side is a multiple of 4), and the three
    /// Winograd layers of the `vgg16` prefix with their own channel
    /// counts. Those run on a 3×2×194 strip up to `relu2_2`: conv1_2 on
    /// 2×194 is 49 tiles, conv2_1 and conv2_2 on 1×97 are 25, the least
    /// that takes Winograd. In an unoptimised build the golden engine's
    /// loop nests take ≈ 2 s over it, against 17 s over the square
    /// 3×56×56 prefix and 9.6 s over 3×40×40 (conv2_x at 20×20).
    #[test]
    fn winograd_layers_match_golden() {
        use crate::layer::Layer;
        let conv = |name: &str, f: usize, pad: usize| {
            Layer::new(
                name,
                LayerKind::Convolution {
                    num_output: f,
                    kernel: 3,
                    stride: 1,
                    pad,
                    bias: true,
                },
            )
        };
        let leaky = LayerKind::ReLU {
            negative_slope: 0.1,
        };
        let layers = vec![
            Layer::new("data", LayerKind::Input),
            conv("conv1", 37, 1),
            Layer::new("relu1", leaky.clone()),
            conv("conv2", 33, 0),
            Layer::new("relu2", leaky),
            conv("conv3", 6, 1),
        ];
        let mut odd = crate::NetworkBuilder::chain("odd", Shape::chw(35, 23, 21), layers).unwrap();
        odd.attach_random_weights(4).unwrap();
        let mut fast = FastEngine::new(&odd).unwrap();
        assert_eq!(winograd_layers(&fast), ["conv1", "conv2", "conv3"]);
        let golden = GoldenEngine::new(&odd).unwrap();
        for seed in 0..3 {
            let img = TensorRng::seeded(seed).uniform(odd.input_shape, -1.0, 1.0);
            let diff = max_abs_diff(&fast.infer(&img).unwrap(), &golden.infer(&img).unwrap());
            assert!(diff <= 1e-4, "odd maps, image {seed}: max |diff| {diff}");
        }

        let net = vgg_prefix(2, Shape::chw(3, 2, 194), "relu2_2");
        let mut fast = FastEngine::new(&net).unwrap();
        assert_eq!(winograd_layers(&fast), ["conv1_2", "conv2_1", "conv2_2"]);
        let img = TensorRng::seeded(3).uniform(net.input_shape, 0.0, 1.0);
        let g = GoldenEngine::new(&net).unwrap().infer(&img).unwrap();
        let diff = max_abs_diff(&fast.infer(&img).unwrap(), &g);
        assert!(diff <= 1e-4, "vgg strip: max |diff| {diff}");
    }

    /// `run_nodes` refuses a run that cuts a folded ReLU from its
    /// producer, at either end, and a reversed or out-of-range run.
    #[test]
    fn run_nodes_refuses_a_run_that_splits_a_step() {
        let net = zoo::tc1_weighted(1);
        let mut fast = FastEngine::new(&net).unwrap();
        let step = fast
            .plan
            .schedule
            .steps
            .iter()
            .find(|s| s.fused_relu.is_some());
        let (conv, relu) = (step.unwrap().node, step.unwrap().fused_relu.unwrap());
        let x = vec![0.0; net.input_shapes().unwrap()[conv].len()];
        let last = net.layers.len() - 1;
        for nodes in [conv..=conv, relu..=relu + 1, last..=0, last + 1..=last + 1] {
            let err = fast.run_nodes(nodes.clone(), &[&x]).unwrap_err();
            assert_eq!(err.kind, NnErrorKind::BadFanIn, "{nodes:?}");
        }
        assert!(fast.run_nodes(conv..=relu, &[&x]).is_ok());
    }

    /// `run_nodes` refuses a run whose later node reads a value from
    /// outside the run that its first node does not read; runs that
    /// read only staged or inner values agree with `infer` in bits.
    #[test]
    fn run_nodes_refuses_a_read_from_outside_the_run() {
        use crate::layer::{EltwiseOp, Layer};
        use crate::NetworkBuilder;

        let conv = |name: &str| {
            let kind = LayerKind::Convolution {
                num_output: 2,
                kernel: 3,
                stride: 1,
                pad: 1,
                bias: true,
            };
            Layer::new(name, kind)
        };
        let mut b = NetworkBuilder::new("fork", Shape::chw(1, 6, 6));
        let data = b.add(Layer::new("data", LayerKind::Input), &[]).unwrap();
        let c1 = b.add(conv("conv1"), &[data]).unwrap();
        let c2 = b.add(conv("conv2"), &[data]).unwrap();
        let sum = LayerKind::Eltwise { op: EltwiseOp::Sum };
        b.add(Layer::new("join", sum), &[c1, c2]).unwrap();
        let mut net = b.build().unwrap();
        net.attach_random_weights(5).unwrap();
        let mut fast = FastEngine::new(&net).unwrap();
        let img = TensorRng::seeded(2).uniform(net.input_shape, -1.0, 1.0);
        // conv2 reads `data`, but `join` also reads conv1, outside 2..=3.
        let err = fast.run_nodes(2..=3, &[img.as_slice()]).unwrap_err();
        assert_eq!(err.kind, NnErrorKind::BadFanIn);
        let err = fast.run_nodes(0..=3, &[]).unwrap_err();
        assert_eq!(err.kind, NnErrorKind::InputMismatch);

        let want = fast.infer(&img).unwrap();
        let a = fast.run_nodes(1..=1, &[img.as_slice()]).unwrap().to_vec();
        let b = fast.run_nodes(2..=2, &[img.as_slice()]).unwrap().to_vec();
        let got = fast.run_nodes(3..=3, &[&a, &b]).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want.as_slice()));
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

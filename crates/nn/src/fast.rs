//! Fast inference engine over the `condor-kernels` compute layer.
//!
//! [`FastEngine`] runs whole networks through implicit-GEMM convolution
//! and register-tiled GEMM kernels instead of the golden engine's
//! one-product-at-a-time sums. It compiles each step of the shared schedule (DESIGN.md
//! §4c: ReLUs folded into their Conv/FC producer's GEMM epilogue,
//! activation slots assigned at compile time) once into a resolved op
//! that holds its geometry and fused slope, and runs the schedule's step
//! loop over one `f32` arena whose slots grow on first use to the
//! largest value they hold; convolution packs its GEMM operand straight
//! from the arena, so there is no lowering buffer. Wide 3×3, stride-1
//! convolutions (the kernels' `takes_winograd`: at least 32 input
//! channels and 25 output tiles of 4×4) resolve to Winograd F(4×4, 3×3)
//! instead, on filters transformed once at construction and in block
//! scratch that likewise grows on first use. Steady-state inference
//! therefore performs **no heap allocation for activations or scratch**
//! (only the returned output tensor and, per Winograd layer, the short
//! table of output row slices each of its threads writes are allocated).
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
use crate::schedule::{conv_geometry, grown, layer_weights, pool_method, Arena, Schedule};
use condor_kernels::{
    activate, conv2d, conv2d_winograd, gemv, pool2d, softmax, takes_winograd, winograd_scratch_len,
    Activation, ConvGeometry, PoolMethod, WinogradFilters, Workspace,
};
use condor_tensor::{Shape, Tensor};
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

/// One step of the f32 engine with its kernel, geometry and fused ReLU
/// slope resolved. Its code reads the layer's weights by reference
/// ([`Op::run`]).
#[derive(Debug)]
enum Op {
    /// Input staging and single-input merges.
    Copy,
    /// Implicit-GEMM convolution.
    Conv {
        num_output: usize,
        geo: ConvGeometry,
        slope: Option<f32>,
    },
    /// Winograd F(4×4, 3×3) convolution; its transformed filters (36/9
    /// of the 3×3 weights) stand in for the layer's weights.
    Winograd {
        filters: WinogradFilters,
        geo: ConvGeometry,
        slope: Option<f32>,
        scratch_len: usize,
    },
    /// Fully-connected layer: an `m × k` GEMV.
    Gemv {
        m: usize,
        k: usize,
        slope: Option<f32>,
    },
    Pool {
        method: PoolMethod,
        geo: ConvGeometry,
    },
    Activate(Activation),
    Softmax {
        log: bool,
    },
    /// Channel-axis concatenation of two or more inputs.
    Concat,
    /// Element-wise left fold of two or more inputs.
    Eltwise(EltwiseOp),
}

impl Op {
    /// The op of a layer with `fan_in` inputs, the first of shape
    /// `input`. `slope` is a ReLU folded into a Conv/FC epilogue (ignored
    /// for other kinds). Convolutions resolve to the direct form.
    fn resolve(
        kind: &LayerKind,
        slope: Option<f32>,
        fan_in: usize,
        input: Shape,
        output: Shape,
    ) -> Op {
        match *kind {
            LayerKind::Convolution {
                num_output,
                kernel,
                stride,
                pad,
                ..
            } => Op::Conv {
                num_output,
                geo: conv_geometry(kernel, stride, pad, input, output),
                slope,
            },
            LayerKind::InnerProduct { .. } => Op::Gemv {
                m: output.item_len(),
                k: input.item_len(),
                slope,
            },
            LayerKind::Pooling {
                method,
                kernel,
                stride,
                pad,
            } => Op::Pool {
                method: pool_method(method),
                geo: conv_geometry(kernel, stride, pad, input, output),
            },
            LayerKind::ReLU { negative_slope } => Op::Activate(Activation::Relu(negative_slope)),
            LayerKind::Sigmoid => Op::Activate(Activation::Sigmoid),
            LayerKind::TanH => Op::Activate(Activation::Tanh),
            LayerKind::Softmax { log } => Op::Softmax { log },
            LayerKind::Concat if fan_in > 1 => Op::Concat,
            LayerKind::Eltwise { op } if fan_in > 1 => Op::Eltwise(op),
            // Single-input merges are shape-preserving pass-throughs
            // (mirroring `output_shape_multi`).
            LayerKind::Input | LayerKind::Concat | LayerKind::Eltwise { .. } => Op::Copy,
        }
    }

    /// Computes the step from `ins` (fan-in order) into `out` with the
    /// layer's `weights` and `bias`. Merges match [`crate::golden`]'s
    /// semantics bit for bit: same copy order, same fold order.
    fn run(
        &self,
        weights: &[f32],
        bias: Option<&[f32]>,
        ins: &[&[f32]],
        out: &mut [f32],
        ws: &mut Workspace,
        winograd: &mut Vec<f32>,
    ) {
        let input = ins[0];
        match *self {
            Op::Copy => out.copy_from_slice(input),
            Op::Conv {
                num_output,
                ref geo,
                slope,
            } => conv2d(input, weights, bias, num_output, geo, slope, out, ws),
            Op::Winograd {
                ref filters,
                ref geo,
                slope,
                scratch_len,
            } => {
                let scratch = grown(winograd, scratch_len);
                conv2d_winograd(input, filters, bias, geo, slope, out, scratch);
            }
            Op::Gemv { m, k, slope } => gemv(m, k, weights, input, bias, slope, out),
            Op::Pool { method, ref geo } => {
                let (c, h, w) = (geo.in_c, geo.in_h, geo.in_w);
                let (kernel, stride, pad) = (geo.kernel, geo.stride, geo.pad);
                pool2d(
                    input, c, h, w, method, kernel, stride, pad, geo.out_h, geo.out_w, out,
                )
            }
            Op::Activate(act) => activate(input, act, out),
            Op::Softmax { log } => softmax(input, log, out),
            // Inputs are contiguous `1×c×h×w` items, so stacking channels
            // is appending slices.
            Op::Concat => {
                let mut off = 0;
                for part in ins {
                    out[off..off + part.len()].copy_from_slice(part);
                    off += part.len();
                }
                assert_eq!(off, out.len(), "concat output length mismatch");
            }
            Op::Eltwise(op) => {
                out.copy_from_slice(input);
                for part in &ins[1..] {
                    let pairs = out.iter_mut().zip(*part);
                    match op {
                        EltwiseOp::Sum => pairs.for_each(|(o, &v)| *o += v),
                        EltwiseOp::Prod => pairs.for_each(|(o, &v)| *o *= v),
                        EltwiseOp::Max => pairs.for_each(|(o, &v)| *o = o.max(v)),
                    }
                }
            }
        }
    }
}

/// A resolved op with the weights and bias it reads: empty for ops
/// without weights, and for Winograd, whose filters replace them.
#[derive(Debug)]
struct Step {
    op: Op,
    weights: Vec<f32>,
    bias: Option<Vec<f32>>,
}

/// The immutable, shareable part of a compiled engine: the schedule and
/// one resolved step per scheduled step.
#[derive(Debug)]
struct EnginePlan {
    schedule: Schedule,
    steps: Vec<Step>,
}

impl EnginePlan {
    /// Lowers `net`, resolves every step and copies each layer's weights
    /// once, except those of the convolutions that take Winograd, whose
    /// transformed filters replace them. A layer without weights is
    /// refused (`MissingWeights`).
    fn compile(net: &Network) -> Result<Self, NnError> {
        // The GEMM epilogue realises any slope, so every riding ReLU folds.
        let schedule = Schedule::compile(net, |_| true)?;
        let steps = schedule.steps.iter().map(|step| {
            let layer = &net.layers[step.node];
            let input = step.inputs[0].1;
            let slope = step.fused_relu.and_then(|r| match net.layers[r].kind {
                LayerKind::ReLU { negative_slope } => Some(negative_slope),
                _ => None,
            });
            let (weights, bias) = layer_weights(net, &layer.name, &layer.kind, input)?;
            let op = match Op::resolve(&layer.kind, slope, step.inputs.len(), input, step.output) {
                Op::Conv {
                    num_output,
                    geo,
                    slope,
                } if takes_winograd(&geo) => Op::Winograd {
                    filters: WinogradFilters::new(weights, num_output, geo.in_c),
                    scratch_len: winograd_scratch_len(&geo, num_output),
                    geo,
                    slope,
                },
                op => op,
            };
            let weights = match op {
                Op::Winograd { .. } => Vec::new(),
                _ => weights.to_vec(),
            };
            let bias = bias.map(<[f32]>::to_vec);
            Ok(Step { op, weights, bias })
        });
        Ok(EnginePlan {
            steps: steps.collect::<Result<_, NnError>>()?,
            schedule,
        })
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
    ws: Workspace,
    /// Winograd block scratch, shared by the steps in turn and grown to
    /// the largest step's need on first use.
    winograd: Vec<f32>,
}

impl Clone for FastEngine {
    /// Clones share the compiled plan (and weights) but get a fresh
    /// arena and scratch, so each clone can run on its own thread.
    fn clone(&self) -> Self {
        FastEngine::from_plan(Arc::clone(&self.plan))
    }
}

impl FastEngine {
    /// Compiles an engine for a fully-weighted network. The engine keeps
    /// its own copy of the weights, except those of the convolutions it
    /// runs through Winograd, whose transformed filters replace them.
    pub fn new(net: &Network) -> Result<Self, NnError> {
        Ok(FastEngine::from_plan(Arc::new(EnginePlan::compile(net)?)))
    }

    fn from_plan(plan: Arc<EnginePlan>) -> Self {
        FastEngine {
            arena: Arena::new(&plan.schedule),
            ws: Workspace::new(),
            winograd: Vec::new(),
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
        let out = self.run(0..self.plan.steps.len(), &[input.as_slice()]);
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
        Ok(self.run(steps, inputs))
    }

    /// The schedule's step loop over this engine's arena, each step run
    /// by its resolved op.
    fn run(&mut self, steps: Range<usize>, inputs: &[&[f32]]) -> &[f32] {
        let plan = &*self.plan;
        let (ws, winograd) = (&mut self.ws, &mut self.winograd);
        let exec = |i: usize, ins: &[&[f32]], out: &mut [f32]| {
            let step = &plan.steps[i];
            let bias = step.bias.as_deref();
            step.op.run(&step.weights, bias, ins, out, ws, winograd);
        };
        let stage = |x: &[f32], slot: &mut [f32]| slot.copy_from_slice(x);
        self.arena
            .run(&plan.schedule, steps, inputs, stage, exec, |_, _| {})
    }

    /// Runs a batch sequentially on this engine's arena (zero per-layer
    /// allocation), preserving order.
    pub fn infer_batch(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>, NnError> {
        inputs.iter().map(|img| self.infer(img)).collect()
    }
}

/// Computes one layer from `input` (length `in_shape.len()`) into `out`
/// (length `out_shape.len()`) by the op code [`FastEngine`] runs, on the
/// network's own weights, with the direct (not Winograd) convolution.
///
/// `fused_relu` folds a following ReLU's negative slope into the GEMM
/// epilogue of a Conv/FC layer (ignored for other kinds). A merge reads
/// its one `input` as a pass-through.
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
    let (weights, bias) = layer_weights(net, name, kind, in_shape)?;
    let op = Op::resolve(kind, fused_relu, 1, in_shape, out_shape);
    op.run(weights, bias, &[input], out, ws, &mut Vec::new());
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// Fork/join networks against the golden oracle: `branchy`, whose
    /// conv1 value stays live across conv2, join and cat, and `skip`,
    /// whose conv1 feeds both relu1 and the join, so the ReLU keeps its
    /// own step and the raw pre-activation value reaches the join.
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
        let sum = || Layer::new("join", LayerKind::Eltwise { op: EltwiseOp::Sum });
        let mut b = NetworkBuilder::new("branchy", Shape::chw(3, 8, 8));
        let data = b.add(Layer::new("data", LayerKind::Input), &[]).unwrap();
        let c1 = b.add(conv("conv1", 4), &[data]).unwrap();
        let c2 = b.add(conv("conv2", 4), &[c1]).unwrap();
        let join = b.add(sum(), &[c1, c2]).unwrap();
        let cat = b
            .add(Layer::new("cat", LayerKind::Concat), &[c1, join])
            .unwrap();
        b.add(conv("conv3", 2), &[cat]).unwrap();
        let mut branchy = b.build().unwrap();
        branchy.attach_random_weights(11).unwrap();

        let mut b = NetworkBuilder::new("skip", Shape::chw(1, 6, 6));
        let data = b.add(Layer::new("data", LayerKind::Input), &[]).unwrap();
        let c1 = b.add(conv("conv1", 2), &[data]).unwrap();
        let relu = LayerKind::ReLU {
            negative_slope: 0.0,
        };
        let r1 = b.add(Layer::new("relu1", relu), &[c1]).unwrap();
        b.add(sum(), &[c1, r1]).unwrap();
        let mut skip = b.build().unwrap();
        skip.attach_random_weights(3).unwrap();

        for net in [branchy, skip] {
            let mut fast = FastEngine::new(&net).unwrap();
            // A value live past its consumer's step needs more than the
            // chain's ping-pong pair.
            assert!(fast.arena_slot_count() > 2, "{}", net.name);
            let golden = GoldenEngine::new(&net).unwrap();
            for seed in 0..4u64 {
                let img = TensorRng::seeded(seed).uniform(net.input_shape, -1.0, 1.0);
                let f = fast.infer(&img).unwrap();
                let g = golden.infer(&img).unwrap();
                assert!(f.all_close_tol(&g, 1e-4, 1e-4), "{} seed {seed}", net.name);
            }
        }
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
    pub(crate) fn vgg_prefix(seed: u64, input: Shape, last: &str) -> Network {
        let full = zoo::vgg16();
        let end = full.layers.iter().position(|l| l.name == last).unwrap();
        let layers = full.layers[..=end].to_vec();
        let mut net = crate::NetworkBuilder::chain("vgg", input, layers).unwrap();
        net.attach_random_weights(seed).unwrap();
        net
    }

    /// Names of the layers of `net` the engine runs through Winograd.
    fn winograd_layers<'a>(engine: &FastEngine, net: &'a Network) -> Vec<&'a str> {
        let plan = &engine.plan;
        plan.schedule
            .steps
            .iter()
            .zip(&plan.steps)
            .filter(|(_, s)| matches!(s.op, Op::Winograd { .. }))
            .map(|(step, _)| net.layers[step.node].name.as_str())
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
        assert_eq!(
            winograd_layers(&fast, &net),
            ["conv1_2", "conv2_1", "conv2_2"]
        );
        for step in &fast.plan.steps {
            let winograd = matches!(step.op, Op::Winograd { .. });
            let conv = matches!(step.op, Op::Conv { .. });
            assert_eq!(step.weights.is_empty(), !conv, "{:?}", step.op);
            assert_eq!(step.bias.is_some(), conv || winograd, "{:?}", step.op);
        }
        fast.infer(&Tensor::zeros(net.input_shape)).unwrap();
        let needs = fast.plan.steps.iter().map(|s| match s.op {
            Op::Winograd { scratch_len, .. } => scratch_len,
            _ => 0,
        });
        assert_eq!(Some(fast.winograd.len()), needs.max());
        for net in [zoo::lenet_weighted(1), zoo::tc1_weighted(1)] {
            let mut fast = FastEngine::new(&net).unwrap();
            assert!(winograd_layers(&fast, &net).is_empty(), "{}", net.name);
            fast.infer(&Tensor::zeros(net.input_shape)).unwrap();
            assert!(fast.winograd.is_empty(), "{}", net.name);
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
    /// that takes Winograd. In an unoptimised build the golden engine
    /// takes ≈ 0.6 s over it, against ≈ 6 s over the square 3×56×56
    /// prefix.
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
        assert_eq!(winograd_layers(&fast, &odd), ["conv1", "conv2", "conv3"]);
        let golden = GoldenEngine::new(&odd).unwrap();
        for seed in 0..3 {
            let img = TensorRng::seeded(seed).uniform(odd.input_shape, -1.0, 1.0);
            let diff = max_abs_diff(&fast.infer(&img).unwrap(), &golden.infer(&img).unwrap());
            assert!(diff <= 1e-4, "odd maps, image {seed}: max |diff| {diff}");
        }

        let net = vgg_prefix(2, Shape::chw(3, 2, 194), "relu2_2");
        let mut fast = FastEngine::new(&net).unwrap();
        assert_eq!(
            winograd_layers(&fast, &net),
            ["conv1_2", "conv2_1", "conv2_2"]
        );
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

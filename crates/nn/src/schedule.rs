//! The compiled schedule both CPU engines execute, and the slot arena
//! they execute it over (DESIGN.md §4c).
//!
//! [`Schedule::compile`] lowers a network once: it decides which ReLUs
//! fold into their producer, refcounts every value and assigns arena
//! slots by a linear scan over the topological order. `FastEngine` and
//! `QuantizedEngine` differ only in the fusion predicate they pass and
//! in the per-step payload they attach; [`Arena`] is the one place a
//! slot buffer is lifted out for writing and put back.

use crate::graph::NodeId;
use crate::layer::{LayerKind, PoolKind};
use crate::network::{Network, NnError, NnErrorKind};
use condor_kernels::{ConvGeometry, PoolMethod};
use condor_tensor::{Shape, Tensor};

/// Where the value a step reads was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Source {
    /// The network input, staged into [`Schedule::input_slot`].
    NetworkInput,
    /// The output of `Schedule::steps[i]`.
    Step(usize),
}

/// One scheduled node (or node plus folded ReLU).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ScheduledStep {
    /// Index of the network node this step executes.
    pub node: usize,
    /// Index of a sole-consumer ReLU node folded into this step's
    /// epilogue; the step's output is then that node's value.
    pub fused_relu: Option<usize>,
    /// Arena slot, single-item shape and producer of each input, in
    /// fan-in order.
    pub inputs: Vec<(usize, Shape, Source)>,
    /// Single-item output shape (a folded ReLU preserves it).
    pub output: Shape,
    /// Arena slot the output is written to; never one of `inputs`.
    pub out_slot: usize,
}

/// A network lowered to a topologically-ordered step list with arena
/// slots assigned.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Schedule {
    pub steps: Vec<ScheduledStep>,
    /// Number of arena slots the scan settled on (2 for any linear
    /// chain — the ping-pong pair).
    pub slot_count: usize,
    /// Slot the network input is staged into before the first step.
    pub input_slot: usize,
    /// Index in `steps` of the step whose output is the network output.
    pub output_step: usize,
    /// Largest single-node activation length (per-slot buffer size).
    pub max_elems: usize,
    pub input_shape: Shape,
    pub output_shape: Shape,
}

/// Lowering geometry of a convolution, from its declared
/// hyper-parameters and inferred shapes.
pub(crate) fn conv_geometry(
    kernel: usize,
    stride: usize,
    pad: usize,
    input: Shape,
    output: Shape,
) -> ConvGeometry {
    ConvGeometry {
        in_c: input.c,
        in_h: input.h,
        in_w: input.w,
        kernel,
        stride,
        pad,
        out_h: output.h,
        out_w: output.w,
    }
}

/// The kernel layer's name for a pooling method.
pub(crate) fn pool_method(kind: PoolKind) -> PoolMethod {
    match kind {
        PoolKind::Max => PoolMethod::Max,
        PoolKind::Average => PoolMethod::Average,
    }
}

/// Pops a recycled arena slot or mints a new one.
fn alloc_slot(free: &mut Vec<usize>, slot_count: &mut usize) -> usize {
    free.pop().unwrap_or_else(|| {
        *slot_count += 1;
        *slot_count - 1
    })
}

impl Schedule {
    /// Lowers `net`. `fuse` is asked, with the ReLU's negative slope,
    /// whether a foldable ReLU may be folded into its producer's
    /// epilogue.
    pub(crate) fn compile(net: &Network, fuse: impl Fn(f32) -> bool) -> Result<Self, NnError> {
        let ins_multi = net.input_shapes_multi()?;
        let outs = net.output_shapes()?;
        let n = net.layers.len();
        let output_shape = outs.last().copied().ok_or_else(|| {
            NnError::net("network has no layers").with_kind(NnErrorKind::NoComputeLayers)
        })?;

        // A ReLU folds into a Conv/FC producer's epilogue exactly when
        // it is that producer's *sole* consumer and reads nothing else —
        // on a linear chain this is "ReLU directly after Conv/FC", and
        // on a branchy graph it refuses to fuse a ReLU whose producer
        // also feeds a skip edge (the raw pre-activation value must stay
        // observable).
        let mut fused_into: Vec<Option<usize>> = vec![None; n];
        let mut fused_relu: Vec<Option<usize>> = vec![None; n];
        for (i, layer) in net.layers.iter().enumerate() {
            if !matches!(
                layer.kind,
                LayerKind::Convolution { .. } | LayerKind::InnerProduct { .. }
            ) {
                continue;
            }
            if let [j] = net.consumers_of(NodeId::from_index(i)).as_slice() {
                let j = j.index();
                if let LayerKind::ReLU { negative_slope } = net.layers[j].kind {
                    if fuse(negative_slope) && net.inputs_of(NodeId::from_index(j)).len() == 1 {
                        fused_into[j] = Some(i);
                        fused_relu[i] = Some(j);
                    }
                }
            }
        }
        // Node whose step produces node `k`'s value: its fused producer
        // for folded ReLUs, itself otherwise.
        let value_src: Vec<usize> = (0..n).map(|k| fused_into[k].unwrap_or(k)).collect();

        // Refcount every value (and the network input) by the number of
        // step reads; the final output takes one extra reference so its
        // slot survives to the end of the run.
        let mut refs = vec![0usize; n];
        let mut input_live = 0usize;
        for (j, fused) in fused_into.iter().enumerate() {
            if fused.is_some() {
                continue;
            }
            let preds = net.inputs_of(NodeId::from_index(j));
            if preds.is_empty() {
                input_live += 1;
            }
            for p in &preds {
                refs[value_src[p.index()]] += 1;
            }
        }
        refs[value_src[n - 1]] += 1;

        // Linear-scan slot assignment over the topological order: the
        // output slot is allocated while the step's inputs are still
        // live (so it can never alias them), then inputs whose last
        // consumer this step was are recycled. A chain settles on two
        // alternating slots — the classic ping-pong pair.
        let mut slot_count = 0usize;
        let mut free: Vec<usize> = Vec::new();
        let input_slot = alloc_slot(&mut free, &mut slot_count);
        let mut step_of = vec![usize::MAX; n];
        let mut steps: Vec<ScheduledStep> = Vec::with_capacity(n);
        let mut max_elems = net.input_shape.len();
        for j in 0..n {
            if fused_into[j].is_some() {
                continue;
            }
            let preds = net.inputs_of(NodeId::from_index(j));
            let inputs: Vec<(usize, Shape, Source)> = if preds.is_empty() {
                vec![(input_slot, net.input_shape, Source::NetworkInput)]
            } else {
                preds
                    .iter()
                    .zip(&ins_multi[j])
                    .map(|(p, &shape)| {
                        let src = step_of[value_src[p.index()]];
                        (steps[src].out_slot, shape, Source::Step(src))
                    })
                    .collect()
            };
            for &(_, shape, _) in &inputs {
                max_elems = max_elems.max(shape.len());
            }
            max_elems = max_elems.max(outs[j].len());
            let out_slot = alloc_slot(&mut free, &mut slot_count);
            step_of[j] = steps.len();
            steps.push(ScheduledStep {
                node: j,
                fused_relu: fused_relu[j],
                inputs,
                output: outs[j],
                out_slot,
            });
            // Recycle inputs whose last read this step performed.
            if preds.is_empty() {
                input_live -= 1;
                if input_live == 0 {
                    free.push(input_slot);
                }
            }
            for p in &preds {
                let src = value_src[p.index()];
                refs[src] -= 1;
                if refs[src] == 0 {
                    free.push(steps[step_of[src]].out_slot);
                }
            }
            // A dangling node's output is never read; hand its slot
            // straight back.
            if refs[j] == 0 {
                free.push(out_slot);
            }
        }
        Ok(Schedule {
            steps,
            slot_count,
            input_slot,
            output_step: step_of[value_src[n - 1]],
            max_elems,
            input_shape: net.input_shape,
            output_shape,
        })
    }

    /// Refuses an input whose shape is not the network's.
    pub(crate) fn check_input(&self, input: &Tensor) -> Result<(), NnError> {
        if input.shape() == self.input_shape {
            return Ok(());
        }
        Err(NnError::net(format!(
            "input shape {} does not match network input {}",
            input.shape(),
            self.input_shape
        ))
        .with_kind(NnErrorKind::InputMismatch))
    }
}

/// The activation slots a [`Schedule`] runs over, each sized to the
/// network's largest activation so steady-state inference allocates
/// nothing per layer.
#[derive(Debug)]
pub(crate) struct Arena<T> {
    slots: Vec<Vec<T>>,
    /// Slot and length of the staged network input / the final output.
    input: (usize, usize),
    output: (usize, usize),
}

impl<T: Copy + Default> Arena<T> {
    pub(crate) fn new(schedule: &Schedule) -> Self {
        Arena {
            slots: (0..schedule.slot_count)
                .map(|_| vec![T::default(); schedule.max_elems])
                .collect(),
            input: (schedule.input_slot, schedule.input_shape.len()),
            output: (
                schedule.steps[schedule.output_step].out_slot,
                schedule.output_shape.len(),
            ),
        }
    }

    /// Where the network input is staged before the first step.
    pub(crate) fn input_mut(&mut self) -> &mut [T] {
        &mut self.slots[self.input.0][..self.input.1]
    }

    /// The network output, valid once every step has run.
    pub(crate) fn output(&self) -> &[T] {
        &self.slots[self.output.0][..self.output.1]
    }

    /// Runs `f` over the step's input slices (fan-in order) and its
    /// output slice. The output buffer is lifted out of the arena for
    /// the call so the inputs stay borrowable; an output slot aliasing
    /// an input would leave that input empty and panic here.
    pub(crate) fn run_step<R>(
        &mut self,
        step: &ScheduledStep,
        f: impl FnOnce(&[&[T]], &mut [T]) -> R,
    ) -> R {
        let mut out_buf = std::mem::take(&mut self.slots[step.out_slot]);
        let out = &mut out_buf[..step.output.len()];
        let slice = |&(slot, shape, _): &(usize, Shape, Source)| &self.slots[slot][..shape.len()];
        let result = match step.inputs.as_slice() {
            // Every non-merge step: no allocation.
            [one] => f(&[slice(one)], out),
            many => f(&many.iter().map(slice).collect::<Vec<_>>(), out),
        };
        self.slots[step.out_slot] = out_buf;
        result
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::arbitrary::{random_chain, random_dag};
    use crate::layer::{EltwiseOp, Layer};
    use crate::{zoo, NetworkBuilder};

    const ALWAYS: fn(f32) -> bool = |_| true;
    const PLAIN_ONLY: fn(f32) -> bool = |slope| slope == 0.0;

    fn conv(name: &str, c: usize) -> Layer {
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
    }

    #[test]
    fn chains_use_exactly_two_slots() {
        for net in [zoo::lenet(), zoo::tc1()] {
            let schedule = Schedule::compile(&net, ALWAYS).unwrap();
            assert_eq!(schedule.slot_count, 2, "{}", net.name);
        }
    }

    #[test]
    fn branchy_dag_needs_more_than_two_slots() {
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
        b.add(Layer::new("cat", LayerKind::Concat), &[c1, join])
            .unwrap();
        let net = b.build().unwrap();
        // conv1's value stays live across conv2, join and cat.
        assert!(Schedule::compile(&net, ALWAYS).unwrap().slot_count > 2);
    }

    #[test]
    fn fusion_refused_when_relu_producer_feeds_a_skip_edge() {
        // conv1 feeds both relu1 and the join: folding the ReLU into
        // conv1's epilogue would corrupt the skip branch.
        let mut b = NetworkBuilder::new("skip", Shape::chw(1, 6, 6));
        let data = b.add(Layer::new("data", LayerKind::Input), &[]).unwrap();
        let c1 = b.add(conv("conv1", 2), &[data]).unwrap();
        let relu = LayerKind::ReLU {
            negative_slope: 0.0,
        };
        let r1 = b.add(Layer::new("relu1", relu), &[c1]).unwrap();
        b.add(
            Layer::new("join", LayerKind::Eltwise { op: EltwiseOp::Sum }),
            &[c1, r1],
        )
        .unwrap();
        let net = b.build().unwrap();
        let schedule = Schedule::compile(&net, ALWAYS).unwrap();
        assert_eq!(schedule.steps.len(), net.layers.len());
        assert!(schedule.steps.iter().all(|s| s.fused_relu.is_none()));
    }

    #[test]
    #[should_panic]
    fn arena_refuses_a_step_whose_output_aliases_its_input() {
        let shape = Shape::vector(4);
        let step = ScheduledStep {
            node: 0,
            fused_relu: None,
            inputs: vec![(0, shape, Source::NetworkInput)],
            output: shape,
            out_slot: 0,
        };
        let schedule = Schedule {
            steps: vec![step],
            slot_count: 1,
            input_slot: 0,
            output_step: 0,
            max_elems: 4,
            input_shape: shape,
            output_shape: shape,
        };
        let mut arena = Arena::<f32>::new(&schedule);
        arena.run_step(&schedule.steps[0], |ins, out| out.copy_from_slice(ins[0]));
    }

    /// Replays the slot assignment: which step's value each slot holds.
    fn simulate(net: &Network, fuse: fn(f32) -> bool, label: &str) {
        let schedule = Schedule::compile(net, fuse).unwrap();
        // The step producing each node's value, as the steps name it.
        let mut producer = vec![None; net.layers.len()];
        for (si, step) in schedule.steps.iter().enumerate() {
            producer[step.node] = Some(Source::Step(si));
            if let Some(r) = step.fused_relu {
                producer[r] = Some(Source::Step(si));
            }
        }
        let mut holds = vec![None; schedule.slot_count];
        holds[schedule.input_slot] = Some(Source::NetworkInput);
        for (si, step) in schedule.steps.iter().enumerate() {
            let preds = net.inputs_of(NodeId::from_index(step.node));
            assert_eq!(step.inputs.len(), preds.len().max(1), "{label} step {si}");
            for (k, &(slot, _, source)) in step.inputs.iter().enumerate() {
                let expected = match preds.get(k) {
                    Some(p) => producer[p.index()],
                    None => Some(Source::NetworkInput),
                };
                assert_eq!(Some(source), expected, "{label} step {si} input {k}");
                assert_eq!(
                    holds[slot], expected,
                    "{label} step {si} reads a stale slot"
                );
                assert_ne!(slot, step.out_slot, "{label} step {si} aliases its input");
            }
            holds[step.out_slot] = Some(Source::Step(si));
        }
        let last = producer[net.layers.len() - 1];
        assert_eq!(last, Some(Source::Step(schedule.output_step)), "{label}");
        let output_slot = schedule.steps[schedule.output_step].out_slot;
        assert_eq!(holds[output_slot], last, "{label}: output overwritten");
    }

    #[test]
    fn every_read_finds_its_value_and_no_step_aliases_its_inputs() {
        for seed in 0..64u64 {
            for (kind, net) in [("chain", random_chain(seed)), ("dag", random_dag(seed))] {
                simulate(&net, ALWAYS, &format!("{kind} {seed} fuse-all"));
                simulate(&net, PLAIN_ONLY, &format!("{kind} {seed} fuse-plain"));
            }
        }
    }
}

//! The compiled schedule both CPU engines execute, the slot arena they
//! execute it over, and the one step loop they run (DESIGN.md §4c).
//!
//! [`Schedule::compile`] lowers a network once: it folds into a Conv/FC
//! producer each ReLU that rides with it
//! ([`Network::rides_with_producer`], the grouping the dataflow plan's
//! PEs follow too), refcounts every value and assigns arena slots by a
//! linear scan over the topological order. `FastEngine` and
//! `QuantizedEngine` differ only in the fusion predicate they pass and
//! in the op they resolve per step; [`Arena::run`] is the step loop both
//! run, and the one place a slot buffer is lifted out for writing and put
//! back. The dataflow runtime's PEs run the same steps, cut by node run
//! ([`Schedule::steps_of`]).

use crate::graph::NodeId;
use crate::layer::{LayerKind, PoolKind};
use crate::network::{Network, NnError, NnErrorKind};
use condor_kernels::{ConvGeometry, PoolMethod};
use condor_tensor::{Shape, Tensor};
use std::ops::{Range, RangeInclusive};

/// Where the value a step reads was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Source {
    /// The network input, staged into the first step's input slot.
    NetworkInput,
    /// The output of `Schedule::steps[i]`.
    Step(usize),
}

/// One scheduled node (or node plus folded ReLU).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ScheduledStep {
    /// Index of the network node this step executes.
    pub node: usize,
    /// Index of a ReLU node folded into this step's epilogue (always
    /// `node + 1`); the step's output is then that node's value.
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
    pub input_shape: Shape,
    pub output_shape: Shape,
}

/// Lowering geometry of a convolution or pooling window, from its
/// declared hyper-parameters and inferred shapes.
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

/// The weights and bias of layer `name` reading `input`: empty for a
/// layer without weights. Refused when a Conv/FC layer has none
/// installed, or an FC layer's fan-in is not its flattened input.
pub(crate) fn layer_weights<'a>(
    net: &'a Network,
    name: &str,
    kind: &LayerKind,
    input: Shape,
) -> Result<(&'a [f32], Option<&'a [f32]>), NnError> {
    if !kind.has_weights() {
        return Ok((&[], None));
    }
    let lw = net.weights_or_err(name)?;
    let (fan_in, k) = (lw.weights.shape().c, input.item_len());
    if matches!(kind, LayerKind::InnerProduct { .. }) && fan_in != k {
        return Err(NnError::at(
            name,
            format!("weight fan-in {fan_in} does not match flattened input {k}"),
        )
        .with_kind(NnErrorKind::WeightShape));
    }
    Ok((
        lw.weights.as_slice(),
        lw.bias.as_ref().map(Tensor::as_slice),
    ))
}

/// The first `len` values of `buf`, which grows on first use to the
/// largest length asked of it.
pub(crate) fn grown<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
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
    /// whether a ReLU that rides with a Conv/FC producer may be folded
    /// into its epilogue.
    pub(crate) fn compile(net: &Network, fuse: impl Fn(f32) -> bool) -> Result<Self, NnError> {
        let ins_multi = net.input_shapes_multi()?;
        let outs = net.output_shapes()?;
        let n = net.layers.len();
        let output_shape = outs.last().copied().ok_or_else(|| {
            NnError::net("network has no layers").with_kind(NnErrorKind::NoComputeLayers)
        })?;

        // A riding ReLU directly follows its producer and is its sole
        // consumer, so a step is a contiguous node run inside one PE of
        // the dataflow plan; a ReLU whose producer also feeds a skip edge
        // keeps its own step (the raw pre-activation value must stay
        // observable).
        let rides = net.rides_with_producer();
        let mut fused_into: Vec<Option<usize>> = vec![None; n];
        let mut fused_relu: Vec<Option<usize>> = vec![None; n];
        for j in 1..n {
            if let LayerKind::ReLU { negative_slope } = net.layers[j].kind {
                if rides[j] && net.layers[j - 1].kind.has_weights() && fuse(negative_slope) {
                    fused_into[j] = Some(j - 1);
                    fused_relu[j - 1] = Some(j);
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
            input_shape: net.input_shape,
            output_shape,
        })
    }

    /// The steps that compute the contiguous node run `nodes`; the last
    /// of them outputs the value of the run's last node.
    ///
    /// The run reads from outside only through its first step's inputs;
    /// a later step may read a value computed earlier in the run or one
    /// the first step reads. Refused (`BadFanIn`) when the run cuts a
    /// folded ReLU from its producer, is empty or out of range, or has a
    /// step that reads any other value.
    pub(crate) fn steps_of(&self, nodes: &RangeInclusive<usize>) -> Result<Range<usize>, NnError> {
        let (start, end) = (*nodes.start(), *nodes.end());
        let lo = self.steps.partition_point(|s| s.node < start);
        let hi = self.steps.partition_point(|s| s.node <= end);
        let run = self.steps.get(lo..hi).unwrap_or_default();
        // A folded ReLU directly follows its producer, so a run keeps
        // every step whole exactly when it starts on a step's own node
        // and ends on the value of its last step.
        let whole = run.first().is_some_and(|s| s.node == start)
            && run
                .last()
                .is_some_and(|s| s.fused_relu.unwrap_or(s.node) == end);
        if !whole {
            return Err(NnError::net(format!(
                "nodes {start}..={end} are empty or cut a folded ReLU from its producer"
            ))
            .with_kind(NnErrorKind::BadFanIn));
        }
        let staged = &run[0].inputs;
        for (i, step) in run.iter().enumerate().skip(1) {
            for &(_, _, src) in &step.inputs {
                let inside = matches!(src, Source::Step(k) if (lo..lo + i).contains(&k));
                if !inside && !staged.iter().any(|&(_, _, s)| s == src) {
                    return Err(NnError::net(format!(
                        "node {} reads a value from outside nodes {start}..={end}",
                        step.node
                    ))
                    .with_kind(NnErrorKind::BadFanIn));
                }
            }
        }
        Ok(lo..hi)
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

/// The activation slots a [`Schedule`] runs over. A slot grows, on its
/// first use, to the largest value written into it, so steady-state
/// inference allocates nothing per layer, and an arena that runs only
/// some of the steps holds only the values those steps touch.
#[derive(Debug)]
pub(crate) struct Arena<T> {
    slots: Vec<Vec<T>>,
}

impl<T: Copy + Default> Arena<T> {
    pub(crate) fn new(schedule: &Schedule) -> Self {
        Arena {
            slots: vec![Vec::new(); schedule.slot_count],
        }
    }

    /// The step loop of both engines. Stages `inputs`, the values the
    /// first of `steps` reads in fan-in order, into its slots through
    /// `stage`; runs each step through `exec` (step index, input slices,
    /// output slice); hands each output to `hook`; and returns the last
    /// step's value. The caller has checked that `steps` form a run
    /// ([`Schedule::steps_of`]) and that `inputs` match its first reads.
    pub(crate) fn run<S>(
        &mut self,
        schedule: &Schedule,
        steps: Range<usize>,
        inputs: &[&[S]],
        stage: impl Fn(&[S], &mut [T]),
        mut exec: impl FnMut(usize, &[&[T]], &mut [T]),
        mut hook: impl FnMut(usize, &[T]),
    ) -> &[T] {
        let run = &schedule.steps[steps.clone()];
        for (x, &(slot, _, _)) in inputs.iter().zip(&run[0].inputs) {
            stage(x, grown(&mut self.slots[slot], x.len()));
        }
        for (i, step) in steps.zip(run) {
            self.run_step(step, |ins, out| {
                exec(i, ins, out);
                hook(i, out);
            });
        }
        let last = &run[run.len() - 1];
        &self.slots[last.out_slot][..last.output.len()]
    }

    /// Runs `f` over the step's input slices (fan-in order) and its
    /// output slice. The output buffer is lifted out of the arena for
    /// the call so the inputs stay borrowable; an output slot aliasing
    /// an input would leave that input empty and panic here.
    fn run_step(&mut self, step: &ScheduledStep, f: impl FnOnce(&[&[T]], &mut [T])) {
        let mut out_buf = std::mem::take(&mut self.slots[step.out_slot]);
        let out = grown(&mut out_buf, step.output.len());
        let slice = |&(slot, shape, _): &(usize, Shape, Source)| &self.slots[slot][..shape.len()];
        match step.inputs.as_slice() {
            // Every non-merge step: no allocation.
            [one] => f(&[slice(one)], out),
            many => f(&many.iter().map(slice).collect::<Vec<_>>(), out),
        }
        self.slots[step.out_slot] = out_buf;
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
        holds[schedule.steps[0].inputs[0].0] = Some(Source::NetworkInput);
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
        // The last step outputs the network's value.
        let output_step = schedule.steps.len() - 1;
        assert_eq!(last, Some(Source::Step(output_step)), "{label}");
        let output_slot = schedule.steps[output_step].out_slot;
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

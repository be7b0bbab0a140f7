//! Threaded functional runtime: the accelerator as concurrent processes.
//!
//! "The accelerator is a composition of … simple and independent elements
//! communicating over FIFOs" using "blocking reads and writes" (paper
//! Sections Abstract / 3.2). This runtime realises that structure in
//! software: the datamover and every PE run as their own OS thread and
//! exchange *frame-sized* chunks — one `Vec<f32>` per feature-map payload,
//! the software analogue of a DMA burst — over bounded blocking channels,
//! so back-pressure propagates exactly as in the hardware pipeline. All
//! PEs are "concurrently active", which is what makes batched execution
//! pipeline across layers (Figure 5).
//!
//! Frame chunking replaced the original element-at-a-time streams: sending
//! every `f32` through a channel cost a synchronised handoff per element,
//! which dwarfed the arithmetic. A frame per send keeps the FIFO semantics
//! (blocking, bounded, order-preserving) at per-image granularity.
//!
//! The runtime compiles the network once into a [`FastEngine`]. Each PE
//! thread runs its own clone (shared plan and weights, private arena)
//! over the PE's run of nodes through [`FastEngine::run_nodes`], the
//! engine's own step loop: ReLUs folded into epilogues, Winograd on the
//! wide 3×3 layers. The pipeline therefore computes `FastEngine`'s bits
//! exactly, and a full-network run cross-checks the plan's topology,
//! fusion grouping, stream wiring and ordering against it.

use crate::plan::{AcceleratorPlan, DataflowError, DataflowErrorKind};
use condor_faults::{FaultAction, FaultHandle};
use condor_nn::{FastEngine, Network, NnErrorKind};
use condor_tensor::{Shape, Tensor};
use std::ops::RangeInclusive;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// The threaded accelerator runtime.
///
/// One wired runtime can be cached and reused across batches (and shared
/// between concurrent callers — `run_batch` takes `&self` and each call
/// spawns its own channel pipeline, so overlapping batches do not
/// interfere).
pub struct ThreadedRuntime {
    /// The compiled network each PE thread runs a clone of.
    engine: FastEngine,
    plan: AcceleratorPlan,
    input_shape: Shape,
    /// Per PE: the run of nodes it computes.
    runs: Vec<RangeInclusive<usize>>,
    /// Per PE: the stage feeding each input of its first layer, in
    /// fan-in order — the producing PE, or the datamover (`None`).
    feeds: Vec<Vec<Option<usize>>>,
    /// Inter-PE channel depth, measured in *frames* (feature-map
    /// payloads).
    channel_depth: usize,
    faults: FaultHandle,
}

impl std::fmt::Debug for ThreadedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedRuntime")
            .field("network", &self.plan.network)
            .field("pes", &self.plan.pes.len())
            .field("channel_depth", &self.channel_depth)
            .finish()
    }
}

impl ThreadedRuntime {
    /// Wires a runtime for a fully-weighted network and its plan.
    /// Refuses a plan whose PE runs nodes the engine cannot run alone,
    /// such as a ReLU apart from the producer it is folded into.
    pub fn new(net: &Network, plan: &AcceleratorPlan) -> Result<Self, DataflowError> {
        if plan.pes.is_empty() {
            return Err(DataflowError::new("plan has no PEs"));
        }
        if plan.pes.iter().any(|pe| pe.layers.is_empty()) {
            return Err(DataflowError::new("plan has a PE with no layers"));
        }
        let mut pe_of_node = vec![None; net.node_count()];
        for (pi, pe) in plan.pes.iter().enumerate() {
            for layer in &pe.layers {
                let node = layer.node.index();
                if net.layers.get(node).map(|l| &l.name) != Some(&layer.name) {
                    return Err(DataflowError::new(format!(
                        "plan layer '{}' is not node {} of the network",
                        layer.name, layer.node
                    )));
                }
                pe_of_node[node] = Some(pi);
            }
        }
        // Which stage feeds each input position of each PE: the PE
        // hosting the first layer's predecessor node, or the datamover
        // when the predecessor is the network input or an `Input` node.
        // On a linear chain this is `[[None], [Some(0)], [Some(1)], …]`.
        let feeds = plan
            .pes
            .iter()
            .map(|pe| match net.inputs_of(pe.layers[0].node).as_slice() {
                [] => vec![None],
                preds => preds.iter().map(|p| pe_of_node[p.index()]).collect(),
            })
            .collect();
        let mut engine = FastEngine::new(net).map_err(|e| match e.kind {
            NnErrorKind::MissingWeights => {
                DataflowError::kinded(DataflowErrorKind::Execution, e.to_string())
            }
            _ => e.into(),
        })?;
        // `run_nodes` checks a run before its inputs, so a call with none
        // only checks that the engine can run the PE's nodes alone.
        let mut runs = Vec::with_capacity(plan.pes.len());
        for pe in &plan.pes {
            let nodes = pe.layers[0].node.index()..=pe.layers[pe.layers.len() - 1].node.index();
            match engine.run_nodes(nodes.clone(), &[]) {
                Err(e) if e.kind != NnErrorKind::InputMismatch => return Err(e.into()),
                _ => runs.push(nodes),
            }
        }
        Ok(ThreadedRuntime {
            engine,
            plan: plan.clone(),
            runs,
            input_shape: net.input_shape,
            feeds,
            channel_depth: 4,
            faults: FaultHandle::disabled(),
        })
    }

    /// The plan this runtime executes.
    pub fn plan(&self) -> &AcceleratorPlan {
        &self.plan
    }

    /// Arms fault injection (disabled by default). Sites:
    /// `dataflow.datamover` fires per input frame (`Delay` = DMA stall,
    /// `FailTransient` = dropped frame, `Abort`/`FailPermanent` = the
    /// datamover dies); `dataflow.pe{i}` fires per frame inside PE *i*
    /// with the same action mapping (a stalled FIFO, a dropped frame, a
    /// dead worker). Dropped frames and dead workers surface as a
    /// *transient* "pipeline terminated early" error from `run_batch`.
    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    /// Streams a batch of images through the PE pipeline and collects
    /// the outputs in order.
    pub fn run_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, DataflowError> {
        for img in images {
            if img.shape() != self.input_shape {
                return Err(DataflowError::kinded(
                    DataflowErrorKind::Execution,
                    format!(
                        "input shape {} does not match network input {}",
                        img.shape(),
                        self.input_shape
                    ),
                ));
            }
        }
        if images.is_empty() {
            return Ok(Vec::new());
        }

        let n_pes = self.plan.pes.len();
        let last = &self.plan.pes[n_pes - 1].layers;
        let out_shape = last[last.len() - 1].output;

        // One bounded channel per graph edge: each (PE, input position)
        // pair gets its own FIFO, registered with the producing stage.
        // Each message is one whole frame.
        let mut pe_rxs: Vec<Vec<Receiver<Vec<f32>>>> = Vec::with_capacity(n_pes);
        let mut dm_txs: Vec<SyncSender<Vec<f32>>> = Vec::new();
        let mut pe_txs: Vec<Vec<SyncSender<Vec<f32>>>> = vec![Vec::new(); n_pes];
        for feed in &self.feeds {
            let mut rxs = Vec::with_capacity(feed.len());
            for &src in feed {
                let (tx, rx) = sync_channel::<Vec<f32>>(self.channel_depth);
                rxs.push(rx);
                match src {
                    None => dm_txs.push(tx),
                    Some(s) => pe_txs[s].push(tx),
                }
            }
            pe_rxs.push(rxs);
        }
        // The collector is one more consumer of the final PE.
        let (col_tx, col_rx) = sync_channel::<Vec<f32>>(self.channel_depth);
        pe_txs[n_pes - 1].push(col_tx);

        let batch = images.len();
        let mut result: Result<Vec<Tensor>, DataflowError> = Ok(Vec::new());

        std::thread::scope(|scope| {
            // Datamover: streams each image as one input frame to every
            // input-fed position (a fork at the network input replays
            // the frame once per branch).
            let images_ref = images;
            let dm_faults = self.faults.clone();
            scope.spawn(move || {
                for img in images_ref {
                    match dm_faults.check("dataflow.datamover") {
                        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                        Some(FaultAction::FailTransient) => continue, // dropped frame
                        Some(FaultAction::FailPermanent) | Some(FaultAction::Abort) => return,
                        // Timing actions belong to the DES; `check`
                        // never returns them on the functional path.
                        Some(_) => {}
                        None => {}
                    }
                    if send_to_all(&dm_txs, img.as_slice().to_vec()).is_err() {
                        return; // downstream failed; unwind quietly
                    }
                }
                // Dropping dm_txs closes the streams.
            });

            // PEs: receive one frame per image and input position, run
            // the PE's nodes on an engine clone, send the output frame to
            // every consumer.
            let mut rx_iter = pe_rxs.into_iter();
            let mut tx_iter = pe_txs.into_iter();
            for (idx, nodes) in self.runs.iter().enumerate() {
                let rxs = rx_iter.next().expect("one rx set per PE");
                let txs = tx_iter.next().expect("one tx set per PE");
                let nodes = nodes.clone();
                let engine = self.engine.clone();
                let faults = self.faults.clone();
                let site = format!("dataflow.pe{idx}");
                scope.spawn(move || pe_worker(engine, nodes, &rxs, &txs, batch, &faults, &site));
            }

            // Collector (this thread): assemble the batch outputs.
            let rx = col_rx;
            let mut outs = Vec::with_capacity(batch);
            for i in 0..batch {
                match rx
                    .recv()
                    .ok()
                    .filter(|frame| frame.len() == out_shape.len())
                {
                    Some(frame) => outs.push(Tensor::from_vec(out_shape, frame)),
                    None => {
                        let err = DataflowError::kinded(
                            DataflowErrorKind::Execution,
                            format!("pipeline terminated early at image {i}"),
                        );
                        // Truncation caused by an injected dataflow fault
                        // is transient: re-running the batch may succeed.
                        let injected = self
                            .faults
                            .log()
                            .iter()
                            .any(|r| r.site.starts_with("dataflow."));
                        result = Err(if injected { err.mark_transient() } else { err });
                        return;
                    }
                }
            }
            result = Ok(outs);
        });

        result
    }
}

/// Sends one frame to every consumer, cloning for all but the last (the
/// common single-consumer chain case moves the frame without a copy).
/// `Err` when every consumer hung up; a dangling PE (no consumers)
/// drops the frame, mirroring hardware where an unread stream idles.
fn send_to_all(txs: &[SyncSender<Vec<f32>>], frame: Vec<f32>) -> Result<(), ()> {
    let Some((last, rest)) = txs.split_last() else {
        return Ok(());
    };
    for tx in rest {
        let _ = tx.send(frame.clone()); // one dead branch must not kill the fork
    }
    last.send(frame).map_err(|_| ())
}

/// One PE thread: drains `batch` frames from each input position (a
/// merge head receives one per upstream branch), runs the PE's `nodes`
/// on its engine clone, and forwards output frames to every consumer.
/// Returns early (closing its channels) on upstream termination,
/// downstream termination or a typed engine error — the collector
/// reports the resulting truncation.
fn pe_worker(
    mut engine: FastEngine,
    nodes: RangeInclusive<usize>,
    rxs: &[Receiver<Vec<f32>>],
    txs: &[SyncSender<Vec<f32>>],
    batch: usize,
    faults: &FaultHandle,
    site: &str,
) {
    let mut frames: Vec<Vec<f32>> = Vec::with_capacity(rxs.len());
    for _ in 0..batch {
        frames.clear();
        for rx in rxs {
            let Ok(frame) = rx.recv() else {
                return; // upstream closed early
            };
            frames.push(frame);
        }
        // Injected FIFO faults: stall, drop the frame, or kill the PE.
        match faults.check(site) {
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::FailTransient) => continue, // frame dropped
            Some(FaultAction::FailPermanent) | Some(FaultAction::Abort) => return,
            // Timing actions belong to the DES, not this thread.
            Some(_) => {}
            None => {}
        }
        let inputs: Vec<&[f32]> = frames.iter().map(Vec::as_slice).collect();
        let Ok(value) = engine.run_nodes(nodes.clone(), &inputs) else {
            return; // typed engine error ⇒ truncate the stream
        };
        // Recycle an incoming frame's allocation for the outgoing one.
        let mut out = frames.swap_remove(0);
        out.clear();
        out.extend_from_slice(value);
        if send_to_all(txs, out).is_err() {
            return; // every downstream consumer closed
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::plan::{PeParallelism, PlanBuilder};
    use condor_nn::{dataset, zoo, GoldenEngine};
    use condor_tensor::{AllClose, TensorRng};

    fn lenet_setup() -> (Network, AcceleratorPlan) {
        let net = zoo::lenet_weighted(21);
        let plan = PlanBuilder::new(&net).build().unwrap();
        (net, plan)
    }

    #[test]
    fn lenet_runtime_matches_golden_engine() {
        let (net, plan) = lenet_setup();
        let rt = ThreadedRuntime::new(&net, &plan).unwrap();
        let images: Vec<Tensor> = dataset::mnist_like(4, 5)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let hw = rt.run_batch(&images).unwrap();
        let golden = GoldenEngine::new(&net)
            .unwrap()
            .infer_batch(&images)
            .unwrap();
        assert_eq!(hw.len(), 4);
        for (h, g) in hw.iter().zip(&golden) {
            assert!(h.all_close(g));
        }
    }

    #[test]
    fn tc1_runtime_matches_golden_engine() {
        let net = zoo::tc1_weighted(33);
        let plan = PlanBuilder::new(&net)
            .parallelism(PeParallelism {
                parallel_in: 1,
                parallel_out: 1,
                fc_simd: 2,
            })
            .build()
            .unwrap();
        let rt = ThreadedRuntime::new(&net, &plan).unwrap();
        let images: Vec<Tensor> = dataset::usps_like(6, 9)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let hw = rt.run_batch(&images).unwrap();
        let golden = GoldenEngine::new(&net)
            .unwrap()
            .infer_batch(&images)
            .unwrap();
        for (h, g) in hw.iter().zip(&golden) {
            assert!(h.all_close(g));
        }
    }

    #[test]
    fn resnet_block_runtime_matches_golden_engine() {
        let net = zoo::resnet_block_weighted(17);
        for fusion in [1, 4] {
            let plan = PlanBuilder::new(&net).fusion(fusion).build().unwrap();
            let rt = ThreadedRuntime::new(&net, &plan).unwrap();
            let images: Vec<Tensor> = (0..4u64)
                .map(|i| condor_tensor::xavier(net.input_shape, 4, 40 + i))
                .collect();
            let hw = rt.run_batch(&images).unwrap();
            let golden = GoldenEngine::new(&net)
                .unwrap()
                .infer_batch(&images)
                .unwrap();
            for (h, g) in hw.iter().zip(&golden) {
                assert!(
                    h.all_close(g),
                    "fusion {fusion}: fork/join wiring broke values"
                );
            }
        }
    }

    #[test]
    fn random_dag_runtimes_match_golden_engine() {
        for seed in 0..8u64 {
            let net = condor_nn::arbitrary::random_weighted_dag(seed);
            let plan = PlanBuilder::new(&net).build().unwrap();
            let rt = ThreadedRuntime::new(&net, &plan).unwrap();
            let images: Vec<Tensor> = (0..2u64)
                .map(|i| condor_tensor::xavier(net.input_shape, 4, seed * 10 + i))
                .collect();
            let hw = rt.run_batch(&images).unwrap();
            let golden = GoldenEngine::new(&net)
                .unwrap()
                .infer_batch(&images)
                .unwrap();
            for (h, g) in hw.iter().zip(&golden) {
                assert!(h.all_close(g), "seed {seed}: DAG runtime diverged");
            }
        }
    }

    /// Values whose bits differ between two equally long outputs.
    fn differing_bits(a: &Tensor, b: &Tensor) -> usize {
        assert_eq!(a.shape(), b.shape());
        let pairs = a.as_slice().iter().zip(b.as_slice());
        pairs.filter(|(x, y)| x.to_bits() != y.to_bits()).count()
    }

    /// The layers of `zoo::vgg16()` up to `pool2`, rebuilt at 3×56×56
    /// with random weights: `conv1_2`, `conv2_1` and `conv2_2` take
    /// Winograd in `FastEngine`.
    fn vgg56(seed: u64) -> Network {
        let full = zoo::vgg16();
        let end = full.layers.iter().position(|l| l.name == "pool2").unwrap();
        let layers = full.layers[..=end].to_vec();
        let shape = Shape::chw(3, 56, 56);
        let mut net = condor_nn::NetworkBuilder::chain("vgg56", shape, layers).unwrap();
        net.attach_random_weights(seed).unwrap();
        net
    }

    /// Runs `images` through `FastEngine` and through the runtime at
    /// each fusion factor, and asserts the outputs agree in every bit.
    fn assert_bit_identical(label: &str, net: &Network, images: &[Tensor], fusions: &[usize]) {
        let sw = FastEngine::new(net).unwrap().infer_batch(images).unwrap();
        for &fusion in fusions {
            let plan = PlanBuilder::new(net).fusion(fusion).build().unwrap();
            let rt = ThreadedRuntime::new(net, &plan).unwrap();
            let hw = rt.run_batch(images).unwrap();
            assert_eq!(hw.len(), sw.len(), "{label}");
            for (i, (h, s)) in hw.iter().zip(&sw).enumerate() {
                let n = differing_bits(h, s);
                assert_eq!(n, 0, "{label} fusion {fusion} image {i}: {n} values differ");
            }
        }
    }

    /// Each PE runs `FastEngine`'s own steps over its run of nodes, so
    /// the pipeline computes the engine's bits: ReLUs folded into
    /// epilogues, Winograd on the wide 3×3 layers, fork/join wiring,
    /// at every fusion factor.
    #[test]
    fn runtime_is_bit_identical_to_fast_engine() {
        let images = |set: Vec<dataset::Sample>| -> Vec<Tensor> {
            set.into_iter().map(|s| s.image).collect()
        };
        let lenet = zoo::lenet_weighted(21);
        assert_bit_identical(
            "lenet",
            &lenet,
            &images(dataset::mnist_like(3, 11)),
            &[1, 4],
        );
        let tc1 = zoo::tc1_weighted(33);
        assert_bit_identical("tc1", &tc1, &images(dataset::usps_like(3, 9)), &[1, 4]);
        let resnet = zoo::resnet_block_weighted(17);
        let xavier = |net: &Network, seed: u64| condor_tensor::xavier(net.input_shape, 4, seed);
        let imgs: Vec<Tensor> = (40..43).map(|s| xavier(&resnet, s)).collect();
        assert_bit_identical("resnet block", &resnet, &imgs, &[1, 4]);
        let vgg = vgg56(2);
        let img = TensorRng::seeded(3).uniform(vgg.input_shape, 0.0, 1.0);
        assert_bit_identical("vgg56", &vgg, &[img], &[1, 4]);
        for seed in 0..8u64 {
            let net = condor_nn::arbitrary::random_weighted_dag(seed);
            let imgs: Vec<Tensor> = (0..2).map(|i| xavier(&net, seed * 10 + i)).collect();
            assert_bit_identical(&format!("dag {seed}"), &net, &imgs, &[1, 2, 4]);
        }
    }

    /// Building the runtime checks every PE's node run against the engine
    /// and starts no thread, so it accepts the default plan of a network
    /// at a fusion factor exactly when every PE keeps the engine's folded
    /// ReLUs whole.
    #[test]
    fn runtime_accepts_the_default_plan_of_every_random_network() {
        use condor_nn::arbitrary::{random_weighted_chain, random_weighted_dag};
        let dags = (0..64).map(|seed| (format!("dag {seed}"), random_weighted_dag(seed)));
        let chains = (0..16).map(|seed| (format!("chain {seed}"), random_weighted_chain(seed)));
        for (label, net) in dags.chain(chains) {
            for fusion in [1, 2, 4] {
                let plan = PlanBuilder::new(&net).fusion(fusion).build().unwrap();
                if let Err(e) = ThreadedRuntime::new(&net, &plan) {
                    panic!("{label} at fusion {fusion}: {e}");
                }
            }
        }
    }

    /// `relu_a` reads `conv_a`, but `conv_b` sits between them in node
    /// order: the plan gives `relu_a` its own PE and the engine keeps it
    /// out of `conv_a`'s epilogue, so every PE's node run is whole.
    #[test]
    fn relu_apart_from_its_producer_runs_at_every_fusion() {
        use condor_nn::{EltwiseOp, Layer, LayerKind};
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
        let mut b = condor_nn::NetworkBuilder::new("interleaved", Shape::chw(1, 6, 6));
        let data = b.add(Layer::new("data", LayerKind::Input), &[]).unwrap();
        let conv_a = b.add(conv("conv_a"), &[data]).unwrap();
        let conv_b = b.add(conv("conv_b"), &[data]).unwrap();
        let relu = LayerKind::ReLU {
            negative_slope: 0.0,
        };
        let relu_a = b.add(Layer::new("relu_a", relu), &[conv_a]).unwrap();
        let sum = LayerKind::Eltwise { op: EltwiseOp::Sum };
        b.add(Layer::new("join", sum), &[relu_a, conv_b]).unwrap();
        let mut net = b.build().unwrap();
        net.attach_random_weights(6).unwrap();
        let imgs: Vec<Tensor> = (0..3)
            .map(|i| TensorRng::seeded(i).uniform(net.input_shape, -1.0, 1.0))
            .collect();
        assert_bit_identical("interleaved", &net, &imgs, &[1, 4]);
    }

    /// A plan whose PE cuts a folded ReLU from its producer is refused
    /// when the runtime is built, not per batch.
    #[test]
    fn plan_that_splits_a_folded_relu_is_refused() {
        let (net, mut plan) = lenet_setup();
        let pe = plan.pes.iter().position(|pe| pe.layers.len() > 1).unwrap();
        assert!(pe + 1 < plan.pes.len());
        let relu = plan.pes[pe].layers.pop().unwrap();
        plan.pes[pe + 1].layers.insert(0, relu);
        let err = ThreadedRuntime::new(&net, &plan).unwrap_err();
        assert_eq!(err.kind, DataflowErrorKind::Nn(NnErrorKind::BadFanIn));
    }

    #[test]
    fn fused_plan_gives_same_answers_as_unfused() {
        let net = zoo::lenet_weighted(8);
        let unfused = PlanBuilder::new(&net).build().unwrap();
        let fused = PlanBuilder::new(&net).fusion(10).build().unwrap();
        assert!(fused.pes.len() < unfused.pes.len());
        let images: Vec<Tensor> = dataset::mnist_like(3, 2)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let a = ThreadedRuntime::new(&net, &unfused)
            .unwrap()
            .run_batch(&images)
            .unwrap();
        let b = ThreadedRuntime::new(&net, &fused)
            .unwrap()
            .run_batch(&images)
            .unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(differing_bits(x, y), 0);
        }
    }

    #[test]
    fn tiny_channels_still_complete() {
        // Depth-1 channels maximise back-pressure but must not deadlock:
        // the channels are blocking, not lossy, the pipeline is acyclic
        // and every consumer drains its input.
        let net = zoo::tc1_weighted(3);
        let plan = PlanBuilder::new(&net).build().unwrap();
        let mut rt = ThreadedRuntime::new(&net, &plan).unwrap();
        rt.channel_depth = 1;
        let images: Vec<Tensor> = dataset::usps_like(2, 4)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let out = rt.run_batch(&images).unwrap();
        let golden = GoldenEngine::new(&net)
            .unwrap()
            .infer_batch(&images)
            .unwrap();
        for (h, g) in out.iter().zip(&golden) {
            assert!(h.all_close(g));
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let (net, plan) = lenet_setup();
        let rt = ThreadedRuntime::new(&net, &plan).unwrap();
        assert!(rt.run_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let (net, plan) = lenet_setup();
        let rt = ThreadedRuntime::new(&net, &plan).unwrap();
        let bad = Tensor::zeros(Shape::chw(1, 16, 16));
        assert!(rt.run_batch(&[bad]).is_err());
    }

    #[test]
    fn unweighted_network_rejected() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        assert!(ThreadedRuntime::new(&net, &plan).is_err());
    }

    #[test]
    fn dropped_pe_frame_truncates_with_transient_error() {
        use condor_faults::{FaultPlan, FaultRule};
        let (net, plan) = lenet_setup();
        let handle = FaultPlan::new(7)
            .rule(FaultRule::at("dataflow.pe0").nth_call(1).fail_transient())
            .install();
        let rt = ThreadedRuntime::new(&net, &plan)
            .unwrap()
            .with_faults(handle.clone());
        let images: Vec<Tensor> = dataset::mnist_like(3, 5)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let err = rt.run_batch(&images).unwrap_err();
        assert!(err.message.contains("pipeline terminated early"));
        assert!(err.transient, "injected drop must classify as transient");
        assert_eq!(handle.fired(), 1);
        // The fault window was one frame: a re-run succeeds.
        assert_eq!(rt.run_batch(&images).unwrap().len(), 3);
    }

    #[test]
    fn dead_datamover_truncates_the_stream() {
        use condor_faults::{FaultPlan, FaultRule};
        let (net, plan) = lenet_setup();
        let handle = FaultPlan::new(9)
            .rule(FaultRule::at("dataflow.datamover").nth_call(2).abort())
            .install();
        let rt = ThreadedRuntime::new(&net, &plan)
            .unwrap()
            .with_faults(handle);
        let images: Vec<Tensor> = dataset::mnist_like(4, 6)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let err = rt.run_batch(&images).unwrap_err();
        assert!(err.message.contains("terminated early at image 2"));
        assert!(err.transient);
    }

    #[test]
    fn stalled_fifo_still_computes_correctly() {
        use condor_faults::{FaultPlan, FaultRule};
        use std::time::Duration;
        let (net, plan) = lenet_setup();
        let handle = FaultPlan::new(3)
            .rule(
                FaultRule::at("dataflow.pe1")
                    .first_calls(2)
                    .delay(Duration::from_millis(2)),
            )
            .install();
        let rt = ThreadedRuntime::new(&net, &plan)
            .unwrap()
            .with_faults(handle.clone());
        let images: Vec<Tensor> = dataset::mnist_like(3, 8)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let stalled = rt.run_batch(&images).unwrap();
        let golden = GoldenEngine::new(&net)
            .unwrap()
            .infer_batch(&images)
            .unwrap();
        for (h, g) in stalled.iter().zip(&golden) {
            assert!(h.all_close(g), "stalls must not corrupt values");
        }
        assert_eq!(handle.fired(), 2);
    }

    #[test]
    fn empty_fault_plan_leaves_runtime_unchanged() {
        use condor_faults::FaultPlan;
        let (net, plan) = lenet_setup();
        let handle = FaultPlan::new(0xC0).install();
        let rt = ThreadedRuntime::new(&net, &plan)
            .unwrap()
            .with_faults(handle.clone());
        let images: Vec<Tensor> = dataset::mnist_like(2, 1)
            .into_iter()
            .map(|s| s.image)
            .collect();
        assert_eq!(rt.run_batch(&images).unwrap().len(), 2);
        assert_eq!(handle.fired(), 0);
    }
}

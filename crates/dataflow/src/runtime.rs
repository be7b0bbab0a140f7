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
//! Numerical behaviour per PE uses the `condor-kernels` compute layer via
//! [`condor_nn::fast::forward_layer_fast`] — the same slice-level
//! primitive `FastEngine` is built on — applied layer-by-layer over the
//! PE's fused layers. A full-network run therefore cross-checks the plan's
//! topology, fusion grouping, stream wiring and ordering against
//! [`condor_nn::GoldenEngine`], which the kernels are property-tested
//! against.

use crate::plan::{AcceleratorPlan, DataflowError, DataflowErrorKind, PePlan};
use condor_faults::{FaultAction, FaultHandle};
use condor_kernels::Workspace;
use condor_nn::fast::{forward_layer_fast, merge_fast};
use condor_nn::Network;
use condor_tensor::Tensor;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// The threaded accelerator runtime.
///
/// Owns shared handles to the network and plan so one wired runtime can
/// be cached and reused across batches (and shared between concurrent
/// callers — `run_batch` takes `&self` and each call spawns its own
/// channel pipeline, so overlapping batches do not interfere).
pub struct ThreadedRuntime {
    net: Arc<Network>,
    plan: Arc<AcceleratorPlan>,
    channel_depth: usize,
    faults: FaultHandle,
}

impl std::fmt::Debug for ThreadedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedRuntime")
            .field("network", &self.net.name)
            .field("pes", &self.plan.pes.len())
            .field("channel_depth", &self.channel_depth)
            .finish()
    }
}

impl ThreadedRuntime {
    /// Wires a runtime for a fully-weighted network and its plan.
    pub fn new(net: &Network, plan: &AcceleratorPlan) -> Result<Self, DataflowError> {
        ThreadedRuntime::from_shared(Arc::new(net.clone()), Arc::new(plan.clone()))
    }

    /// Wires a runtime from shared handles without copying weights —
    /// the constructor for callers that keep the runtime alive across
    /// many batches (deployment handles, the inference server).
    pub fn from_shared(
        net: Arc<Network>,
        plan: Arc<AcceleratorPlan>,
    ) -> Result<Self, DataflowError> {
        if !net.fully_weighted() {
            return Err(DataflowError::kinded(
                DataflowErrorKind::Execution,
                "network must be fully weighted before hardware execution",
            ));
        }
        if plan.pes.is_empty() {
            return Err(DataflowError::new("plan has no PEs"));
        }
        if plan.pes.iter().any(|pe| pe.layers.is_empty()) {
            return Err(DataflowError::new("plan has a PE with no layers"));
        }
        for pe in &plan.pes {
            for layer in &pe.layers {
                if layer.kind.has_weights() && net.weights_of(&layer.name).is_none() {
                    return Err(DataflowError::kinded(
                        DataflowErrorKind::Execution,
                        format!("plan layer '{}' has no weights in the network", layer.name),
                    ));
                }
            }
        }
        Ok(ThreadedRuntime {
            net,
            plan,
            channel_depth: 4,
            faults: FaultHandle::disabled(),
        })
    }

    /// The network this runtime executes.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The plan this runtime executes.
    pub fn plan(&self) -> &AcceleratorPlan {
        &self.plan
    }

    /// Overrides the inter-PE channel depth, measured in *frames*
    /// (feature-map payloads), default 4. Depth 1 still completes — the
    /// channels are blocking, not lossy — just with maximal back-pressure.
    pub fn with_channel_depth(mut self, depth: usize) -> Self {
        self.channel_depth = depth.max(1);
        self
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
            if img.shape() != self.net.input_shape {
                return Err(DataflowError::kinded(
                    DataflowErrorKind::Execution,
                    format!(
                        "input shape {} does not match network input {}",
                        img.shape(),
                        self.net.input_shape
                    ),
                ));
            }
        }
        if images.is_empty() {
            return Ok(Vec::new());
        }

        let n_pes = self.plan.pes.len();
        let out_shape = self
            .plan
            .pes
            .last()
            .expect("non-empty")
            .layers
            .last()
            .expect("PE has layers")
            .output;

        // Which stage feeds each input position of each PE: the PE
        // hosting the first layer's predecessor node, or the datamover
        // (`None`) when the predecessor is the network input. On a
        // linear chain this is `[[None], [Some(0)], [Some(1)], …]`.
        let mut pe_of_node = vec![usize::MAX; self.net.node_count()];
        for (pi, pe) in self.plan.pes.iter().enumerate() {
            for l in &pe.layers {
                pe_of_node[l.node.index()] = pi;
            }
        }
        let feeds: Vec<Vec<Option<usize>>> = self
            .plan
            .pes
            .iter()
            .map(|pe| {
                let first = pe.layers.first().expect("PE has layers");
                let preds = self.net.inputs_of(first.node);
                if preds.is_empty() {
                    vec![None]
                } else {
                    preds
                        .iter()
                        .map(|p| {
                            let src = pe_of_node.get(p.index()).copied().unwrap_or(usize::MAX);
                            (src != usize::MAX).then_some(src)
                        })
                        .collect()
                }
            })
            .collect();
        // Per-position frame lengths (a join receives one frame per
        // upstream branch, each with its own shape).
        let ins_multi = self
            .net
            .input_shapes_multi()
            .map_err(|e| DataflowError::kinded(DataflowErrorKind::Execution, e.message.clone()))?;
        let in_lens: Vec<Vec<usize>> = self
            .plan
            .pes
            .iter()
            .map(|pe| {
                let first = pe.layers.first().expect("PE has layers");
                ins_multi
                    .get(first.node.index())
                    .map(|shapes| shapes.iter().map(|s| s.len()).collect())
                    .unwrap_or_else(|| vec![first.input.len()])
            })
            .collect();

        // One bounded channel per graph edge: each (PE, input position)
        // pair gets its own FIFO, registered with the producing stage.
        // Each message is one whole frame.
        let mut pe_rxs: Vec<Vec<Receiver<Vec<f32>>>> = Vec::with_capacity(n_pes);
        let mut dm_txs: Vec<SyncSender<Vec<f32>>> = Vec::new();
        let mut pe_txs: Vec<Vec<SyncSender<Vec<f32>>>> = vec![Vec::new(); n_pes];
        for feed in &feeds {
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

            // PEs: receive one frame per image and input position, apply
            // the fused layers through the kernel compute layer, send the
            // output frame to every consumer. Scratch (ping-pong
            // activations + im2col workspace) is allocated once per PE
            // and reused across the batch.
            let mut rx_iter = pe_rxs.into_iter();
            let mut tx_iter = pe_txs.into_iter();
            for (idx, pe) in self.plan.pes.iter().enumerate() {
                let rxs = rx_iter.next().expect("one rx set per PE");
                let txs = tx_iter.next().expect("one tx set per PE");
                let lens = in_lens[idx].clone();
                let net = self.net.as_ref();
                let faults = self.faults.clone();
                let site = format!("dataflow.pe{idx}");
                scope.spawn(move || pe_worker(pe, net, &rxs, &txs, &lens, batch, &faults, &site));
            }

            // Collector (this thread): assemble the batch outputs.
            let rx = col_rx;
            let mut outs = Vec::with_capacity(batch);
            for i in 0..batch {
                match recv_frame(&rx, out_shape.len()) {
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

/// Receives exactly one frame of the expected length, or `None` if the
/// channel closes first (or an upstream stage sent a malformed frame).
fn recv_frame(rx: &Receiver<Vec<f32>>, len: usize) -> Option<Vec<f32>> {
    let frame = rx.recv().ok()?;
    (frame.len() == len).then_some(frame)
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

/// One PE thread: drains `batch` frames from each input position, runs
/// the PE's fused layers over its private scratch arena, and forwards
/// output frames to every consumer. A PE whose first layer is a
/// multi-input merge (`Concat`/`Eltwise`) receives one frame per
/// upstream branch and combines them before the remaining fused layers
/// run. Returns early (closing its channels) on upstream termination,
/// downstream termination or a compute error — the collector reports
/// the resulting truncation.
#[allow(clippy::too_many_arguments)]
fn pe_worker(
    pe: &PePlan,
    net: &Network,
    rxs: &[Receiver<Vec<f32>>],
    txs: &[SyncSender<Vec<f32>>],
    in_lens: &[usize],
    batch: usize,
    faults: &FaultHandle,
    site: &str,
) {
    let first = pe.layers.first().expect("PE has layers");
    let out_len = pe.layers.last().expect("PE has layers").output.len();
    let merge_head = rxs.len() > 1;
    let max_len = pe
        .layers
        .iter()
        .map(|l| l.input.len().max(l.output.len()))
        .max()
        .expect("PE has layers");
    let mut ping = vec![0.0f32; max_len];
    let mut pong = vec![0.0f32; max_len];
    let mut ws = Workspace::new();
    let mut frames: Vec<Vec<f32>> = Vec::with_capacity(rxs.len());

    for _ in 0..batch {
        frames.clear();
        for (rx, &len) in rxs.iter().zip(in_lens) {
            let Some(frame) = recv_frame(rx, len) else {
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
        let mut src = &mut ping;
        let mut dst = &mut pong;
        let rest = if merge_head {
            // The join combines its branch frames into the first
            // layer's output, then the fused tail runs as usual.
            let inputs: Vec<&[f32]> = frames.iter().map(Vec::as_slice).collect();
            merge_fast(&first.kind, &inputs, &mut src[..first.output.len()]);
            &pe.layers[1..]
        } else {
            src[..in_lens[0]].copy_from_slice(&frames[0]);
            &pe.layers[..]
        };
        for layer in rest {
            // Standalone activation layers stay unfused here: the plan
            // already groups layers into PEs, and the runtime mirrors
            // the plan's structure one filter at a time.
            if forward_layer_fast(
                net,
                &layer.name,
                &layer.kind,
                None,
                &src[..layer.input.len()],
                layer.input,
                layer.output,
                &mut dst[..layer.output.len()],
                &mut ws,
            )
            .is_err()
            {
                return; // typed compute error ⇒ truncate the stream
            }
            std::mem::swap(&mut src, &mut dst);
        }
        // Recycle an incoming frame's allocation for the outgoing one.
        let mut out = frames.swap_remove(0);
        out.resize(out_len, 0.0);
        out.copy_from_slice(&src[..out_len]);
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
    use condor_tensor::{AllClose, Shape};

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

    #[test]
    fn runtime_matches_fast_engine_bitwise() {
        // The PEs and FastEngine share `forward_layer_fast`, so modulo
        // ReLU fusion (which changes no values for exact ReLU epilogue
        // math) the runtime should reproduce the fast engine exactly on
        // unfused plans.
        let (net, plan) = lenet_setup();
        let rt = ThreadedRuntime::new(&net, &plan).unwrap();
        let mut fast = condor_nn::FastEngine::new(&net).unwrap();
        let images: Vec<Tensor> = dataset::mnist_like(3, 11)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let hw = rt.run_batch(&images).unwrap();
        let sw = fast.infer_batch(&images).unwrap();
        for (h, s) in hw.iter().zip(&sw) {
            assert!(h.all_close(s));
        }
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
            assert!(x.all_close(y));
        }
    }

    #[test]
    fn tiny_channels_still_complete() {
        // Depth-1 channels maximise back-pressure but must not deadlock:
        // the pipeline is acyclic and every consumer drains its input.
        let net = zoo::tc1_weighted(3);
        let plan = PlanBuilder::new(&net).build().unwrap();
        let rt = ThreadedRuntime::new(&net, &plan)
            .unwrap()
            .with_channel_depth(1);
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

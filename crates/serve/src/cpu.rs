//! CPU execution backend: `FastEngine` behind the deployment API.
//!
//! The paper's serving story assumes an FPGA on the other side of the
//! [`ExecutionBackend`] trait; this module provides the software
//! equivalent so the same server can fall back to (or be benchmarked
//! against) the host CPU. Each [`CpuBackend`] owns one [`FastEngine`] —
//! implicit-GEMM convolution with a reusable activation arena — behind a
//! mutex, so a backend is exactly one serving lane: the server's
//! one-worker-per-backend model provides the cross-lane parallelism,
//! while each lane's engine reuses its arena across every batch it
//! executes (no steady-state allocation).
//!
//! [`CpuBackend::replicas`] mirrors
//! [`DeployedAccelerator::into_replicas`](condor::DeployedAccelerator):
//! it compiles one engine and one accelerator plan and yields N lanes
//! that share the compiled engine (its resolved steps and weights are
//! behind an `Arc`, not copied), each with its own arena: the CPU
//! analogue of serving from every FPGA slot of an F1 instance.

use condor::{CondorError, ExecutionBackend};
use condor_dataflow::{PipelineModel, PlanBuilder};
use condor_nn::{FastEngine, Network};
use condor_tensor::Tensor;
use parking_lot::Mutex;

/// One CPU serving lane: a fast engine plus the pipeline timing model of
/// the network's default accelerator plan (so `pipeline()` reports what
/// the hardware *would* do for the same model, keeping dashboards
/// comparable across backend kinds).
pub struct CpuBackend {
    engine: Mutex<FastEngine>,
    model: PipelineModel,
    label: String,
}

impl std::fmt::Debug for CpuBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuBackend")
            .field("label", &self.label)
            .finish()
    }
}

impl CpuBackend {
    /// Builds a single CPU lane for a fully-weighted network.
    pub fn new(net: &Network) -> Result<Self, CondorError> {
        let plan = PlanBuilder::new(net).build()?;
        Ok(CpuBackend {
            engine: Mutex::new(FastEngine::new(net)?),
            model: PipelineModel::from_plan(&plan),
            label: format!("{}/lane0", net.name),
        })
    }

    /// Builds `n` lanes over one compiled engine and plan — one backend
    /// (and therefore one server worker thread) per requested lane.
    pub fn replicas(
        net: &Network,
        n: usize,
    ) -> Result<Vec<Box<dyn ExecutionBackend>>, CondorError> {
        let first = CpuBackend::new(net)?;
        let mut lanes: Vec<Box<dyn ExecutionBackend>> = (1..n.max(1))
            .map(|lane| {
                Box::new(CpuBackend {
                    engine: Mutex::new(first.engine.lock().clone()),
                    model: first.model.clone(),
                    label: format!("{}/lane{lane}", net.name),
                }) as Box<dyn ExecutionBackend>
            })
            .collect();
        lanes.insert(0, Box::new(first));
        Ok(lanes)
    }
}

impl ExecutionBackend for CpuBackend {
    fn infer_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
        Ok(self.engine.lock().infer_batch(images)?)
    }

    fn pipeline(&self) -> PipelineModel {
        self.model.clone()
    }

    fn location(&self) -> String {
        format!("cpu:{}", self.label)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::{InferenceServer, ServeConfig};
    use condor_nn::{dataset, zoo, GoldenEngine};
    use condor_tensor::AllClose;

    #[test]
    fn cpu_backend_matches_golden_engine() {
        let net = zoo::lenet_weighted(17);
        let backend = CpuBackend::new(&net).unwrap();
        let imgs: Vec<Tensor> = dataset::mnist_like(3, 4)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let out = backend.infer_batch(&imgs).unwrap();
        let golden = GoldenEngine::new(&net).unwrap().infer_batch(&imgs).unwrap();
        for (a, g) in out.iter().zip(&golden) {
            assert!(a.all_close(g));
        }
        assert!(backend.location().starts_with("cpu:"));
        assert!(backend.pipeline().batch(1).total_cycles > 0);
    }

    /// Three lanes over one compiled engine, run from three threads at
    /// once, compute `FastEngine::infer`'s bits: the lanes share the
    /// resolved steps and weights, and each has its own arena. `odd`
    /// runs all three of its convolutions through Winograd, so the lanes
    /// also share transformed filters and each grows its own scratch.
    #[test]
    fn concurrent_lanes_match_one_engine_bit_for_bit() {
        use condor_nn::{Layer, LayerKind, NetworkBuilder};
        use condor_tensor::{Shape, TensorRng};
        use std::sync::Barrier;

        let conv = |name: &str, num_output: usize, pad: usize| {
            let kind = LayerKind::Convolution {
                num_output,
                kernel: 3,
                stride: 1,
                pad,
                bias: true,
            };
            Layer::new(name, kind)
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
        let mut odd = NetworkBuilder::chain("odd", Shape::chw(35, 23, 21), layers).unwrap();
        odd.attach_random_weights(4).unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for net in [zoo::lenet_weighted(17), odd] {
            let imgs: Vec<Tensor> = (0..2)
                .map(|i| TensorRng::seeded(i).uniform(net.input_shape, -1.0, 1.0))
                .collect();
            let mut engine = FastEngine::new(&net).unwrap();
            let want: Vec<Vec<u32>> = imgs
                .iter()
                .map(|x| bits(&engine.infer(x).unwrap()))
                .collect();
            let lanes = CpuBackend::replicas(&net, 3).unwrap();
            let start = Barrier::new(lanes.len());
            std::thread::scope(|s| {
                for lane in &lanes {
                    let (imgs, want, start) = (&imgs, &want, &start);
                    s.spawn(move || {
                        start.wait();
                        let got = lane.infer_batch(imgs).unwrap();
                        let got: Vec<Vec<u32>> = got.iter().map(bits).collect();
                        assert!(got == *want, "{} differs from FastEngine", lane.location());
                    });
                }
            });
        }
    }

    #[test]
    fn unweighted_network_is_refused() {
        assert!(CpuBackend::new(&zoo::lenet()).is_err());
    }

    #[test]
    fn server_over_cpu_replicas_completes_a_batch() {
        let net = zoo::lenet_weighted(17);
        let reference = CpuBackend::new(&net).unwrap();
        let backends = CpuBackend::replicas(&net, 3).unwrap();
        assert_eq!(backends.len(), 3);
        let server = InferenceServer::new(backends, ServeConfig::default()).unwrap();
        assert!(server
            .backend_locations()
            .iter()
            .all(|l| l.starts_with("cpu:")));
        let imgs: Vec<Tensor> = dataset::mnist_like(8, 20)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let expect = reference.infer_batch(&imgs).unwrap();
        let handles: Vec<_> = imgs
            .into_iter()
            .map(|img| server.submit(img).unwrap())
            .collect();
        for (h, e) in handles.into_iter().zip(&expect) {
            // Lanes share the plan and kernels are deterministic, so any
            // lane's answer is bit-identical to the reference lane's.
            assert_eq!(h.wait().unwrap().as_slice(), e.as_slice());
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_completed"), 8);
    }
}

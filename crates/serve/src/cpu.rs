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
//! it yields N lanes sharing one network (weights are behind an `Arc`,
//! not copied), the CPU analogue of serving from every FPGA slot of an
//! F1 instance.

use condor::{CondorError, ExecutionBackend};
use condor_dataflow::{PipelineModel, PlanBuilder};
use condor_nn::{FastEngine, Network};
use condor_tensor::Tensor;
use parking_lot::Mutex;
use std::sync::Arc;

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
        CpuBackend::from_shared(Arc::new(net.clone()), 0)
    }

    /// Builds `n` lanes sharing one network handle — one backend (and
    /// therefore one server worker thread) per requested lane.
    pub fn replicas(
        net: &Network,
        n: usize,
    ) -> Result<Vec<Box<dyn ExecutionBackend>>, CondorError> {
        let net = Arc::new(net.clone());
        (0..n.max(1))
            .map(|i| {
                CpuBackend::from_shared(Arc::clone(&net), i)
                    .map(|b| Box::new(b) as Box<dyn ExecutionBackend>)
            })
            .collect()
    }

    fn from_shared(net: Arc<Network>, lane: usize) -> Result<Self, CondorError> {
        let label = format!("{}/lane{lane}", net.name);
        let plan = PlanBuilder::new(&net).build()?;
        let engine = FastEngine::from_shared(net)?;
        Ok(CpuBackend {
            engine: Mutex::new(engine),
            model: PipelineModel::from_plan(&plan),
            label,
        })
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

//! Backend tier: deployment (paper steps 7–8) and the host runtime.
//!
//! On-premise: "the framework uses the Xilinx OpenCL Compiler (XOCC) to
//! produce the Xilinx OpenCL Compute Unit Binary (xclbin) file needed to
//! configure the target board directly."
//!
//! Cloud: "it is not possible to load a bitstream directly onto the FPGAs
//! of an F1 instance; it is instead necessary to create an Amazon FPGA
//! Image (AFI) first … The framework automatically generates the AFI
//! inside a user-specified Amazon S3 Bucket and returns the AFI global
//! ID … Once the AFI generation completes, it can be loaded on an FPGA
//! slot of an F1 instance and executed."
//!
//! Both paths go through one entry point —
//! [`crate::flow::BuiltAccelerator::deploy`] with a [`DeployTarget`] —
//! and both produce a [`DeployedAccelerator`], the handle the generated
//! host code would wrap: it executes batches on the threaded hardware
//! runtime (real values), reports batch timing from the pipeline model,
//! and produces the Table 1 metric row (utilisation, GFLOPS, GFLOPS/W).
//! Anything that can run a batch implements [`ExecutionBackend`]; a
//! multi-slot cloud deployment splits into per-slot
//! [`AcceleratorReplica`]s so a serving layer can dispatch across every
//! FPGA of an F1 instance.

use crate::error::CondorError;
use crate::flow::BuiltAccelerator;
use crate::metrics::MetricsSnapshot;
pub use condor_cloud::F1InstanceType;
use condor_cloud::{xocc_link, AfiRegistry, Environment, F1Manager, S3Client, Xclbin};
use condor_dataflow::runtime::ThreadedRuntime;
use condor_dataflow::{BatchTiming, PipelineModel};
use condor_faults::retry::RetryPolicy;
use condor_faults::{FaultHandle, FaultPlan};
use condor_fpga::{PowerModel, Utilization};
use condor_tensor::Tensor;
use std::sync::{Arc, OnceLock};

/// Where to deploy a built accelerator (paper step 7 or 8).
#[derive(Clone, Copy)]
pub enum DeployTarget<'a> {
    /// A locally accessible board, programmed directly with the xclbin.
    OnPremise,
    /// On-premise with an explicit context: fault injection on the
    /// SDAccel toolchain steps and a retry policy for transient faults.
    OnPremiseWith(&'a OnPremiseContext),
    /// The Amazon F1 instances, through S3 → AFI → FPGA slots.
    Cloud(&'a CloudContext),
}

impl std::fmt::Debug for DeployTarget<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployTarget::OnPremise => write!(f, "OnPremise"),
            DeployTarget::OnPremiseWith(_) => write!(f, "OnPremiseWith"),
            DeployTarget::Cloud(ctx) => write!(f, "Cloud(bucket={:?})", ctx.bucket),
        }
    }
}

/// Context for a fault-aware on-premise deployment: where injected
/// faults fire (`sdaccel.xocc_link`, `sdaccel.program`) and how
/// transient ones are retried. The default context has injection
/// disabled and never retries, matching [`DeployTarget::OnPremise`].
#[derive(Debug, Default)]
pub struct OnPremiseContext {
    /// Fault injection over the toolchain steps (disabled by default).
    pub faults: FaultHandle,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
}

impl OnPremiseContext {
    /// A context with injection disabled and the default retry policy.
    pub fn new() -> Self {
        OnPremiseContext::default()
    }

    /// Installs a fault plan over the deployment steps.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan.install();
        self
    }

    /// Shares an already-installed fault handle.
    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
    }
}

/// Anything that can execute inference batches: a whole deployment or a
/// single FPGA slot of one. The serving layer dispatches over a set of
/// these without caring where each one runs.
pub trait ExecutionBackend: Send + Sync {
    /// Runs a batch and returns the outputs in input order.
    fn infer_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, CondorError>;
    /// The pipeline timing model of the underlying design.
    fn pipeline(&self) -> PipelineModel;
    /// Human-readable placement (board name, or instance/slot).
    fn location(&self) -> String;
}

/// Where and how the accelerator ended up deployed.
#[derive(Clone, Debug, PartialEq)]
pub enum Deployment {
    /// Programmed directly with an xclbin.
    OnPremise {
        /// Target board name.
        board: String,
    },
    /// Running on the FPGA slots of an F1 instance through an AFI.
    Cloud {
        /// The AFI id returned by `create-fpga-image`.
        afi_id: String,
        /// The global id used from within the instance.
        agfi_id: String,
        /// The S3 location of the staged design.
        s3_key: String,
        /// The F1 instance hosting the slots.
        instance_id: String,
        /// Every FPGA slot the AFI was loaded on (all slots of the
        /// instance, so an f1.16xlarge serves from 8 FPGAs at once).
        slots: Vec<usize>,
    },
}

/// The simulated AWS account the cloud deployment runs against.
pub struct CloudContext {
    /// S3 endpoint.
    pub s3: S3Client,
    /// AFI registry.
    pub afi: AfiRegistry,
    /// F1 fleet manager.
    pub f1: F1Manager,
    /// Execution environment of the framework itself.
    pub environment: Environment,
    /// Bucket the framework stages designs into ("a user-specified
    /// Amazon S3 Bucket").
    pub bucket: String,
    /// Instance size to launch.
    pub instance_type: F1InstanceType,
    /// Polling budget for AFI generation.
    pub max_wait_ticks: u32,
    /// Fault injection shared across the account's services (disabled
    /// by default).
    pub faults: FaultHandle,
    /// Retry policy for transient deployment failures.
    pub retry: RetryPolicy,
}

impl CloudContext {
    /// A fresh account, running inside the FPGA Developer AMI.
    pub fn new(bucket: impl Into<String>) -> Self {
        CloudContext {
            s3: S3Client::new(),
            afi: AfiRegistry::new(),
            f1: F1Manager::new(),
            environment: Environment::developer_ami(),
            bucket: bucket.into(),
            instance_type: F1InstanceType::F1_2xlarge,
            max_wait_ticks: 16,
            faults: FaultHandle::disabled(),
            retry: RetryPolicy::default(),
        }
    }

    /// Same account, different execution environment.
    pub fn with_environment(mut self, env: Environment) -> Self {
        self.environment = env;
        self
    }

    /// Same account, different instance size.
    pub fn with_instance_type(mut self, t: F1InstanceType) -> Self {
        self.instance_type = t;
        self
    }

    /// Installs a fault plan across every service of this account (S3,
    /// the AFI registry, the F1 fleet and the deployment steps share one
    /// injector, so per-site call counters stay globally consistent).
    pub fn with_fault_plan(self, plan: FaultPlan) -> Self {
        self.with_faults(plan.install())
    }

    /// Shares an already-installed fault handle across the services.
    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.s3.set_faults(faults.clone());
        self.afi.set_faults(faults.clone());
        self.f1.set_faults(faults.clone());
        self.faults = faults;
        self
    }
}

/// A deployed, runnable accelerator.
#[derive(Debug)]
pub struct DeployedAccelerator {
    built: BuiltAccelerator,
    /// The linked kernel binary.
    pub xclbin: Xclbin,
    /// Deployment record.
    pub deployment: Deployment,
    /// Wired hardware runtime, built on first inference and reused for
    /// every batch after (and shared by all replicas of this
    /// deployment).
    runtime: OnceLock<ThreadedRuntime>,
    /// Fault handle inherited from the deployment context; armed
    /// runtimes keep injecting at the `dataflow.*` sites.
    faults: FaultHandle,
}

/// Dispatches a deployment to the matching backend path.
pub(crate) fn deploy(
    built: BuiltAccelerator,
    target: &DeployTarget<'_>,
) -> Result<DeployedAccelerator, CondorError> {
    match target {
        DeployTarget::OnPremise => deploy_onpremise(built),
        DeployTarget::OnPremiseWith(ctx) => deploy_onpremise_with(built, ctx),
        DeployTarget::Cloud(ctx) => deploy_cloud(built, ctx),
    }
}

/// Step 7 — on-premise deployment.
pub(crate) fn deploy_onpremise(
    built: BuiltAccelerator,
) -> Result<DeployedAccelerator, CondorError> {
    deploy_onpremise_with(built, &OnPremiseContext::default())
}

/// Step 7 with a fault/retry context: the XOCC link and the board
/// programming step are individually gated and transient failures are
/// retried under the context's policy.
pub(crate) fn deploy_onpremise_with(
    built: BuiltAccelerator,
    ctx: &OnPremiseContext,
) -> Result<DeployedAccelerator, CondorError> {
    let board = built.board();
    let xclbin = ctx.retry.run(|| -> Result<Xclbin, CondorError> {
        ctx.faults.gate("sdaccel.xocc_link")?;
        Ok(xocc_link(&built.xo, board.name)?)
    })?;
    ctx.retry
        .run(|| -> Result<(), CondorError> { Ok(ctx.faults.gate("sdaccel.program")?) })?;
    Ok(DeployedAccelerator {
        deployment: Deployment::OnPremise {
            board: board.name.to_string(),
        },
        xclbin,
        built,
        runtime: OnceLock::new(),
        faults: ctx.faults.clone(),
    })
}

/// Step 8 — cloud deployment on the F1 instances.
pub(crate) fn deploy_cloud(
    built: BuiltAccelerator,
    ctx: &CloudContext,
) -> Result<DeployedAccelerator, CondorError> {
    // The framework must run inside the FPGA Developer AMI.
    ctx.environment.check_cloud_deploy()?;
    let board = built.board();
    if !board.cloud {
        return Err(CondorError::new(
            "backend",
            format!(
                "board '{}' is not a cloud target; use DeployTarget::OnPremise or select aws-f1",
                board.name
            ),
        ));
    }
    // Link for the F1 platform and stage into S3. Transient transport
    // faults are retried under the context's policy.
    let xclbin = ctx.retry.run(|| -> Result<Xclbin, CondorError> {
        ctx.faults.gate("sdaccel.xocc_link")?;
        Ok(xocc_link(&built.xo, board.name)?)
    })?;
    if !ctx.s3.bucket_exists(&ctx.bucket) {
        ctx.s3.create_bucket(&ctx.bucket)?;
    }
    let key = format!("designs/{}.xclbin", built.accelerator.name);
    ctx.retry.run(|| {
        Ok::<_, CondorError>(ctx.s3.put_object(&ctx.bucket, &key, xclbin.bytes.clone())?)
    })?;

    // Start AFI generation and wait for availability. An image that
    // fails generation despite targeting the right part was killed by
    // an injected fault — regenerating it (a fresh `create-fpga-image`)
    // is the retryable path; a wrong-part failure is permanent.
    let (afi_id, agfi_id) = ctx.retry.run(|| -> Result<(String, String), CondorError> {
        let (afi_id, agfi_id) =
            ctx.afi
                .create_fpga_image(&ctx.s3, &ctx.bucket, &key, &built.accelerator.name)?;
        let state = ctx.afi.wait_available(&afi_id, ctx.max_wait_ticks)?;
        if state != condor_cloud::AfiState::Available {
            let right_part = ctx
                .afi
                .part_of(&afi_id)
                .map(|p| p == condor_cloud::afi::F1_PART)
                .unwrap_or(false);
            let msg = format!("AFI {afi_id} ended in state {state:?}");
            return Err(if right_part {
                CondorError::transient("backend", msg)
            } else {
                CondorError::new("backend", msg)
            });
        }
        Ok((afi_id, agfi_id))
    })?;

    // Launch an instance and load the AFI on each slot it has. A slot
    // that keeps failing after retries is skipped — the deployment
    // degrades to the slots that did program — and only a fully
    // unloadable instance fails the deployment.
    let instance_id = ctx.f1.launch(ctx.instance_type);
    let n_slots = ctx.f1.describe(&instance_id)?.slots.len();
    let mut slots = Vec::with_capacity(n_slots);
    let mut last_err = None;
    for slot in 0..n_slots {
        match ctx.retry.run(|| {
            Ok::<_, CondorError>(ctx.f1.load_afi(&ctx.afi, &instance_id, slot, &agfi_id)?)
        }) {
            Ok(()) => slots.push(slot),
            Err(e) => last_err = Some(e),
        }
    }
    if slots.is_empty() {
        return Err(last_err.unwrap_or_else(|| {
            CondorError::new("backend", format!("{instance_id} has no FPGA slots"))
        }));
    }

    Ok(DeployedAccelerator {
        deployment: Deployment::Cloud {
            afi_id,
            agfi_id,
            s3_key: key,
            instance_id,
            slots,
        },
        xclbin,
        built,
        runtime: OnceLock::new(),
        faults: ctx.faults.clone(),
    })
}

/// The Table 1 metric row for one deployed design.
#[derive(Clone, Debug)]
pub struct AcceleratorMetrics {
    /// Utilisation against the full device.
    pub utilization: Utilization,
    /// Clock the design runs at (MHz).
    pub freq_mhz: f64,
    /// Sustained GFLOPS at the measurement batch size.
    pub gflops: f64,
    /// Modelled power draw in watts.
    pub power_w: f64,
    /// Energy efficiency.
    pub gflops_per_w: f64,
    /// Mean time per image at the measurement batch size (µs).
    pub mean_us_per_image: f64,
}

impl AcceleratorMetrics {
    /// The Table 1 row as the shared snapshot format, so accelerator
    /// metrics and serving metrics print and merge uniformly.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.set_gauge("bram_pct", self.utilization.bram_pct);
        snap.set_gauge("dsp_pct", self.utilization.dsp_pct);
        snap.set_gauge("ff_pct", self.utilization.ff_pct);
        snap.set_gauge("lut_pct", self.utilization.lut_pct);
        snap.set_gauge("freq_mhz", self.freq_mhz);
        snap.set_gauge("gflops", self.gflops);
        snap.set_gauge("power_w", self.power_w);
        snap.set_gauge("gflops_per_w", self.gflops_per_w);
        snap.set_gauge("mean_us_per_image", self.mean_us_per_image);
        snap
    }
}

impl DeployedAccelerator {
    /// The build this deployment came from.
    pub fn built(&self) -> &BuiltAccelerator {
        &self.built
    }

    /// The plan timed at the achieved clock.
    fn timed_plan(&self) -> condor_dataflow::AcceleratorPlan {
        let mut plan = self.built.plan.clone();
        plan.freq_mhz = self.built.synthesis.achieved_fmax_mhz;
        plan
    }

    /// The pipeline timing model of the deployed design.
    pub fn pipeline(&self) -> PipelineModel {
        PipelineModel::from_plan(&self.timed_plan())
    }

    /// The wired runtime, built once and reused for every batch.
    fn runtime(&self) -> Result<&ThreadedRuntime, CondorError> {
        if !self.built.network.fully_weighted() {
            return Err(CondorError::new(
                "backend",
                "network has no weights loaded; provide a caffemodel or weights file",
            ));
        }
        if let Some(rt) = self.runtime.get() {
            return Ok(rt);
        }
        let rt = ThreadedRuntime::from_shared(
            Arc::new(self.built.network.clone()),
            Arc::new(self.built.plan.clone()),
        )?
        .with_faults(self.faults.clone());
        // A concurrent caller may have won the race; either runtime is
        // equivalent, so keep whichever landed first.
        Ok(self.runtime.get_or_init(|| rt))
    }

    /// Runs a batch on the accelerator (threaded hardware runtime) and
    /// returns the outputs in order.
    pub fn infer_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
        Ok(self.runtime()?.run_batch(images)?)
    }

    /// Classifies one image (argmax over the final layer).
    pub fn classify(&self, image: &Tensor) -> Result<usize, CondorError> {
        let out = self.infer_batch(std::slice::from_ref(image))?;
        Ok(out[0].argmax())
    }

    /// Batch timing at a given batch size (Figure 5's y-axis).
    pub fn timing(&self, batch: usize) -> BatchTiming {
        self.pipeline().batch(batch)
    }

    /// The Figure 5 sweep.
    pub fn batch_sweep(&self, batches: &[usize]) -> Vec<BatchTiming> {
        self.pipeline().batch_sweep(batches)
    }

    /// The Table 1 metric row, measured at `batch`.
    pub fn metrics(&self, batch: usize) -> Result<AcceleratorMetrics, CondorError> {
        let flops = self.built.network.total_flops()?;
        let model = self.pipeline();
        let timing = model.batch(batch);
        let gflops = model.gflops(flops, batch);
        let power = PowerModel::default();
        let freq = self.built.synthesis.achieved_fmax_mhz;
        let power_w = power.power_w(&self.built.synthesis.total, freq);
        Ok(AcceleratorMetrics {
            utilization: self.built.utilization(),
            freq_mhz: freq,
            gflops,
            power_w,
            gflops_per_w: gflops / power_w,
            mean_us_per_image: timing.mean_us_per_image,
        })
    }

    /// The FPGA slots this deployment serves from (on-premise boards
    /// count as one).
    pub fn replica_count(&self) -> usize {
        match &self.deployment {
            Deployment::OnPremise { .. } => 1,
            Deployment::Cloud { slots, .. } => slots.len().max(1),
        }
    }

    /// Splits the deployment into one [`AcceleratorReplica`] per FPGA
    /// slot, each an independent [`ExecutionBackend`] sharing this
    /// deployment (and its cached runtime). An on-premise deployment
    /// yields a single replica.
    pub fn into_replicas(self) -> Vec<AcceleratorReplica> {
        let slots: Vec<usize> = match &self.deployment {
            Deployment::OnPremise { .. } => vec![0],
            Deployment::Cloud { slots, .. } => {
                if slots.is_empty() {
                    vec![0]
                } else {
                    slots.clone()
                }
            }
        };
        let shared = Arc::new(self);
        slots
            .into_iter()
            .map(|slot| AcceleratorReplica {
                acc: Arc::clone(&shared),
                slot,
            })
            .collect()
    }
}

impl ExecutionBackend for DeployedAccelerator {
    fn infer_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
        DeployedAccelerator::infer_batch(self, images)
    }

    fn pipeline(&self) -> PipelineModel {
        DeployedAccelerator::pipeline(self)
    }

    fn location(&self) -> String {
        match &self.deployment {
            Deployment::OnPremise { board } => format!("onpremise:{board}"),
            Deployment::Cloud {
                instance_id, slots, ..
            } => {
                format!("cloud:{instance_id}[{} slots]", slots.len())
            }
        }
    }
}

/// One FPGA slot of a deployment, usable as an independent execution
/// backend. Replicas of the same deployment share the accelerator (and
/// its wired runtime) through an [`Arc`].
#[derive(Clone, Debug)]
pub struct AcceleratorReplica {
    acc: Arc<DeployedAccelerator>,
    slot: usize,
}

impl AcceleratorReplica {
    /// The deployment this replica belongs to.
    pub fn accelerator(&self) -> &DeployedAccelerator {
        &self.acc
    }

    /// The FPGA slot index this replica represents.
    pub fn slot(&self) -> usize {
        self.slot
    }
}

impl ExecutionBackend for AcceleratorReplica {
    fn infer_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
        self.acc.infer_batch(images)
    }

    fn pipeline(&self) -> PipelineModel {
        self.acc.pipeline()
    }

    fn location(&self) -> String {
        match &self.acc.deployment {
            Deployment::OnPremise { board } => format!("onpremise:{board}/slot{}", self.slot),
            Deployment::Cloud { instance_id, .. } => {
                format!("cloud:{instance_id}/slot{}", self.slot)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::flow::Condor;
    use condor_nn::{dataset, zoo, GoldenEngine};
    use condor_tensor::AllClose;

    fn built_lenet() -> BuiltAccelerator {
        Condor::from_network(zoo::lenet_weighted(4))
            .board("aws-f1")
            .freq_mhz(180.0)
            .build()
            .unwrap()
    }

    #[test]
    fn onpremise_deployment_runs_inference() {
        let deployed = built_lenet().deploy(&DeployTarget::OnPremise).unwrap();
        assert!(matches!(deployed.deployment, Deployment::OnPremise { .. }));
        let imgs: Vec<Tensor> = dataset::mnist_like(3, 3)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let out = deployed.infer_batch(&imgs).unwrap();
        let net = zoo::lenet_weighted(4);
        let golden = GoldenEngine::new(&net).unwrap().infer_batch(&imgs).unwrap();
        for (h, g) in out.iter().zip(&golden) {
            assert!(h.all_close(g));
        }
    }

    #[test]
    fn cloud_deployment_walks_the_full_afi_workflow() {
        let ctx = CloudContext::new("condor-bucket");
        let deployed = built_lenet().deploy(&DeployTarget::Cloud(&ctx)).unwrap();
        match &deployed.deployment {
            Deployment::Cloud {
                afi_id,
                agfi_id,
                s3_key,
                instance_id,
                slots,
            } => {
                assert!(afi_id.starts_with("afi-"));
                assert!(agfi_id.starts_with("agfi-"));
                assert_eq!(s3_key, "designs/condor_lenet.xclbin");
                // f1.2xlarge exposes exactly one FPGA slot.
                assert_eq!(slots, &vec![0]);
                // The design really is staged in S3.
                assert!(ctx.s3.get_object("condor-bucket", s3_key).is_ok());
                // The slot really holds the AFI.
                assert_eq!(
                    ctx.f1.loaded_afi(instance_id, 0).unwrap().as_deref(),
                    Some(agfi_id.as_str())
                );
            }
            other => panic!("expected cloud deployment, got {other:?}"),
        }
        // And it still executes.
        let img = dataset::mnist_like(1, 9).remove(0).image;
        let class = deployed.classify(&img).unwrap();
        assert!(class < 10);
    }

    #[test]
    fn multi_slot_instance_loads_afi_everywhere() {
        let ctx =
            CloudContext::new("condor-bucket").with_instance_type(F1InstanceType::F1_16xlarge);
        let deployed = built_lenet().deploy(&DeployTarget::Cloud(&ctx)).unwrap();
        let Deployment::Cloud {
            instance_id,
            agfi_id,
            slots,
            ..
        } = &deployed.deployment
        else {
            panic!("expected cloud deployment");
        };
        assert_eq!(slots.len(), 8);
        for &slot in slots {
            assert_eq!(
                ctx.f1.loaded_afi(instance_id, slot).unwrap().as_deref(),
                Some(agfi_id.as_str())
            );
        }
        assert_eq!(deployed.replica_count(), 8);
    }

    #[test]
    fn replicas_share_one_deployment_and_agree_with_it() {
        let ctx = CloudContext::new("condor-bucket").with_instance_type(F1InstanceType::F1_4xlarge);
        let deployed = built_lenet().deploy(&DeployTarget::Cloud(&ctx)).unwrap();
        let imgs: Vec<Tensor> = dataset::mnist_like(2, 7)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let reference = deployed.infer_batch(&imgs).unwrap();
        let replicas = deployed.into_replicas();
        assert_eq!(replicas.len(), 2);
        assert_eq!(replicas[0].slot(), 0);
        assert_eq!(replicas[1].slot(), 1);
        for replica in &replicas {
            let out = ExecutionBackend::infer_batch(replica, &imgs).unwrap();
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(
                    a.as_slice(),
                    b.as_slice(),
                    "replica output must be bit-identical"
                );
            }
            assert!(replica.location().contains("/slot"));
        }
    }

    #[test]
    fn onpremise_deployment_yields_one_replica() {
        let replicas = built_lenet()
            .deploy(&DeployTarget::OnPremise)
            .unwrap()
            .into_replicas();
        assert_eq!(replicas.len(), 1);
        assert!(replicas[0].location().starts_with("onpremise:aws-f1"));
    }

    #[test]
    fn cloud_deployment_requires_developer_ami() {
        let ctx = CloudContext::new("condor-bucket").with_environment(Environment::workstation());
        let err = built_lenet()
            .deploy(&DeployTarget::Cloud(&ctx))
            .unwrap_err();
        assert!(err.message.contains("FPGA Developer AMI"));
    }

    #[test]
    fn cloud_deployment_rejects_local_boards() {
        let built = Condor::from_network(zoo::tc1_weighted(1))
            .board("vc709")
            .build()
            .unwrap();
        let ctx = CloudContext::new("condor-bucket");
        let err = built.deploy(&DeployTarget::Cloud(&ctx)).unwrap_err();
        assert!(err.message.contains("not a cloud target"));
    }

    #[test]
    fn metrics_land_in_table1_regime() {
        let deployed = built_lenet().deploy(&DeployTarget::OnPremise).unwrap();
        let m = deployed.metrics(64).unwrap();
        assert!(m.utilization.feasible());
        assert!(m.gflops > 0.5 && m.gflops < 50.0, "gflops {}", m.gflops);
        assert!(m.power_w > 3.0 && m.power_w < 10.0, "power {}", m.power_w);
        assert!(m.gflops_per_w > 0.1, "eff {}", m.gflops_per_w);
        assert_eq!(m.freq_mhz, 180.0);
    }

    #[test]
    fn metrics_snapshot_carries_table1_gauges() {
        let deployed = built_lenet().deploy(&DeployTarget::OnPremise).unwrap();
        let snap = deployed.metrics(64).unwrap().snapshot();
        assert_eq!(snap.gauge("freq_mhz"), Some(180.0));
        assert!(snap.gauge("gflops").unwrap() > 0.0);
        assert!(snap.gauge("gflops_per_w").unwrap() > 0.0);
        assert!(snap.to_string().contains("gflops"));
    }

    #[test]
    fn batch_sweep_mirrors_figure5_shape() {
        let deployed = built_lenet().deploy(&DeployTarget::OnPremise).unwrap();
        let sweep = deployed.batch_sweep(&[1, 2, 4, 8, 16, 32, 64]);
        for pair in sweep.windows(2) {
            assert!(pair[1].mean_us_per_image <= pair[0].mean_us_per_image);
        }
    }

    #[test]
    fn unweighted_network_cannot_run() {
        let built = Condor::from_network(zoo::lenet())
            .board("aws-f1")
            .build()
            .unwrap();
        let deployed = built.deploy(&DeployTarget::OnPremise).unwrap();
        let img = dataset::mnist_like(1, 1).remove(0).image;
        let err = deployed.infer_batch(&[img]).unwrap_err();
        assert!(err.message.contains("no weights"));
    }

    #[test]
    fn cloud_deploy_retries_transient_upload_faults() {
        use condor_faults::FaultRule;
        let ctx = CloudContext::new("condor-bucket").with_fault_plan(
            FaultPlan::new(11)
                .rule(
                    FaultRule::at("s3.put_object")
                        .first_calls(2)
                        .fail_transient(),
                )
                .rule(FaultRule::at("f1.load_afi").nth_call(0).fail_transient()),
        );
        let deployed = built_lenet().deploy(&DeployTarget::Cloud(&ctx)).unwrap();
        assert!(matches!(deployed.deployment, Deployment::Cloud { .. }));
        assert_eq!(ctx.faults.fired(), 3, "all three injected faults fired");
    }

    #[test]
    fn cloud_deploy_regenerates_a_fault_killed_afi() {
        use condor_faults::FaultRule;
        let ctx = CloudContext::new("condor-bucket").with_fault_plan(
            FaultPlan::new(4).rule(FaultRule::at("afi.generation").nth_call(0).fail_permanent()),
        );
        let deployed = built_lenet().deploy(&DeployTarget::Cloud(&ctx)).unwrap();
        let Deployment::Cloud { afi_id, .. } = &deployed.deployment else {
            panic!("expected cloud deployment");
        };
        // The first image died; the retry generated a second one.
        assert_eq!(afi_id, "afi-00000000000000002");
    }

    #[test]
    fn cloud_deploy_degrades_to_loadable_slots() {
        use condor_faults::FaultRule;
        // Slot 0's loads all fail (initial attempt + every retry);
        // deployment must degrade to slot 1 instead of failing.
        let ctx = CloudContext::new("condor-bucket")
            .with_instance_type(F1InstanceType::F1_4xlarge)
            .with_fault_plan(
                FaultPlan::new(2)
                    .rule(FaultRule::at("f1.load_afi").first_calls(4).fail_transient()),
            );
        let deployed = built_lenet().deploy(&DeployTarget::Cloud(&ctx)).unwrap();
        let Deployment::Cloud { slots, .. } = &deployed.deployment else {
            panic!("expected cloud deployment");
        };
        assert_eq!(slots, &vec![1]);
        assert_eq!(deployed.replica_count(), 1);
    }

    #[test]
    fn cloud_deploy_fails_when_no_slot_loads() {
        use condor_faults::FaultRule;
        let ctx = CloudContext::new("condor-bucket").with_fault_plan(
            FaultPlan::new(2).rule(FaultRule::at("f1.load_afi").always().fail_transient()),
        );
        let err = built_lenet()
            .deploy(&DeployTarget::Cloud(&ctx))
            .unwrap_err();
        assert!(err.transient);
        assert!(err.message.contains("injected transient fault"));
    }

    #[test]
    fn permanent_faults_are_not_retried() {
        use condor_faults::FaultRule;
        let ctx = CloudContext::new("condor-bucket").with_fault_plan(
            FaultPlan::new(8).rule(FaultRule::at("s3.put_object").always().fail_permanent()),
        );
        let err = built_lenet()
            .deploy(&DeployTarget::Cloud(&ctx))
            .unwrap_err();
        assert!(!err.transient);
        assert_eq!(ctx.faults.fired(), 1, "no retry after a permanent fault");
    }

    #[test]
    fn onpremise_context_retries_toolchain_faults() {
        use condor_faults::FaultRule;
        let ctx = OnPremiseContext::new().with_fault_plan(
            FaultPlan::new(6)
                .rule(
                    FaultRule::at("sdaccel.xocc_link")
                        .nth_call(0)
                        .fail_transient(),
                )
                .rule(
                    FaultRule::at("sdaccel.program")
                        .nth_call(0)
                        .fail_transient(),
                ),
        );
        let deployed = built_lenet()
            .deploy(&DeployTarget::OnPremiseWith(&ctx))
            .unwrap();
        assert!(matches!(deployed.deployment, Deployment::OnPremise { .. }));
        assert_eq!(ctx.faults.fired(), 2);
        // Exhausted retries surface the transient error.
        let ctx = OnPremiseContext::new().with_fault_plan(
            FaultPlan::new(6).rule(FaultRule::at("sdaccel.xocc_link").always().fail_transient()),
        );
        let err = built_lenet()
            .deploy(&DeployTarget::OnPremiseWith(&ctx))
            .unwrap_err();
        assert!(err.transient);
    }

    #[test]
    fn deployment_faults_reach_the_runtime() {
        use condor_faults::FaultRule;
        let ctx = OnPremiseContext::new().with_fault_plan(
            FaultPlan::new(13).rule(FaultRule::at("dataflow.pe0").nth_call(0).fail_transient()),
        );
        let deployed = built_lenet()
            .deploy(&DeployTarget::OnPremiseWith(&ctx))
            .unwrap();
        let imgs: Vec<Tensor> = dataset::mnist_like(2, 5)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let err = deployed.infer_batch(&imgs).unwrap_err();
        assert!(err.transient);
        assert!(err.message.contains("terminated early"));
        // The fault window was one frame: the deployment recovers.
        assert_eq!(deployed.infer_batch(&imgs).unwrap().len(), 2);
    }
}

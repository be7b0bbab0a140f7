//! The pinned surface: every call the benchmark makes into the system
//! under test goes through this module, so a refactor of a public
//! signature listed in README.md breaks exactly one file — and knows
//! that a benchmark change must come first.
//!
//! Nothing here measures; callers wrap these functions in spans.

use crate::stats::Rng;
use crate::trace::{Span, Tracer};
use condor::dse::DseConfig;
use condor::{
    CloudContext, Condor, CondorError, DeployTarget, ExecutionBackend, FrontendInput,
    MetricsRegistry, MetricsSnapshot, NetworkRepresentation,
};
use condor_dataflow::layersim::simulate_conv_layer;
use condor_dataflow::runtime::ThreadedRuntime;
use condor_dataflow::{
    AcceleratorPlan, LayerSimConfig, PeParallelism, PipelineModel, PlanBuilder, Precision,
};
use condor_kernels::{
    conv2d, gemm_f32, gemm_i8_requant, gemv, im2col, im2col_i8_patches, qconv2d, ConvGeometry,
    Epilogue, GemmBlocking, QWorkspace, Workspace,
};
use condor_nn::fast::forward_layer_fast;
use condor_nn::{
    dataset, zoo, FastEngine, GoldenEngine, LayerKind, Network, NetworkBuilder, QuantizedEngine,
};
use condor_serve::fleet::{Fleet, FleetConfig};
use condor_serve::{
    CodelConfig, CpuBackend, DiskQueueConfig, InferenceServer, PendingInference, Priority,
    QueueBackend, ServeConfig, ServeError,
};
use condor_tensor::{max_abs_diff, Shape, Tensor, TensorRng};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------- inputs

pub fn lenet(seed: u64) -> Network {
    zoo::lenet_weighted(seed)
}

pub fn lenet_images(n: usize, seed: u64) -> Vec<Tensor> {
    dataset::mnist_like(n, seed)
        .into_iter()
        .map(|s| s.image)
        .collect()
}

/// The layers of `zoo::vgg16()` up to `pool2`, rebuilt at `3×hw×hw`
/// with random weights. At `hw = 56` its `conv1_2` is the same 64→64
/// 3×3 @56×56 layer as the `*_vgg56` rows of `BENCH_kernels.json`.
pub fn vgg_prefix(seed: u64, hw: usize) -> Network {
    let full = zoo::vgg16();
    let end = full
        .layers
        .iter()
        .position(|l| l.name == "pool2")
        .expect("zoo VGG-16 has a pool2 layer");
    let layers = full.layers[..=end].to_vec();
    let mut net = NetworkBuilder::chain(format!("vgg{hw}"), Shape::chw(3, hw, hw), layers)
        .expect("a prefix of a valid chain is a valid chain");
    net.attach_random_weights(seed)
        .expect("every conv layer takes random weights");
    net
}

pub fn random_images(n: usize, shape: Shape, seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seeded(seed);
    (0..n).map(|_| rng.uniform(shape, 0.0, 1.0)).collect()
}

// --------------------------------------------------------------- engines

pub fn fast_engine(net: &Network) -> FastEngine {
    FastEngine::new(net).expect("benchmark networks are fully weighted")
}

pub fn fast_infer_batch(engine: &mut FastEngine, images: &[Tensor]) -> Vec<Tensor> {
    engine
        .infer_batch(images)
        .expect("inputs match the network's input shape")
}

pub fn int8_engine(net: &Network, calib: &[Tensor]) -> QuantizedEngine {
    QuantizedEngine::calibrate(net, calib).expect("benchmark networks calibrate")
}

pub fn int8_infer(engine: &mut QuantizedEngine, image: &Tensor) -> Tensor {
    engine
        .infer(image)
        .expect("inputs match the network's input shape")
}

/// Largest absolute difference between `outputs` and the golden
/// engine's outputs for `images`.
pub fn golden_max_diff(net: &Network, images: &[Tensor], outputs: &[Tensor]) -> f32 {
    let golden = GoldenEngine::new(net).expect("benchmark networks are fully weighted");
    images
        .iter()
        .zip(outputs)
        .map(|(img, out)| {
            let want = golden.infer(img).expect("golden inference");
            max_abs_diff(&want, out)
        })
        .fold(0.0, f32::max)
}

pub fn int8_within_budget(engine: &mut QuantizedEngine, images: &[Tensor]) -> bool {
    engine
        .accuracy_report(images)
        .expect("accuracy replay")
        .within_budget()
}

/// One step of a network as `FastEngine` executes it: the node, the
/// ReLU slope fused into it, its real input and its output shape.
pub struct LayerStep {
    pub name: String,
    kind: LayerKind,
    fused_relu: Option<f32>,
    input: Vec<f32>,
    in_shape: Shape,
    out_shape: Shape,
}

/// Splits a linear-chain network into the steps the fast engine runs
/// (a ReLU directly after a conv/FC layer is fused into it), feeding
/// each step the real activation its predecessor produces for `image`.
pub fn layer_steps(net: &Network, image: &Tensor) -> Vec<LayerStep> {
    let ins = net.input_shapes().expect("valid network");
    let outs = net.output_shapes().expect("valid network");
    let mut ws = Workspace::new();
    let mut steps = Vec::new();
    let mut activation = image.as_slice().to_vec();
    let mut i = 0;
    while i < net.layers.len() {
        let layer = &net.layers[i];
        let weighted = matches!(
            layer.kind,
            LayerKind::Convolution { .. } | LayerKind::InnerProduct { .. }
        );
        let fused_relu = match net.layers.get(i + 1).map(|l| &l.kind) {
            Some(LayerKind::ReLU { negative_slope }) if weighted => Some(*negative_slope),
            _ => None,
        };
        let step = LayerStep {
            name: layer.name.clone(),
            kind: layer.kind.clone(),
            fused_relu,
            input: activation.clone(),
            in_shape: ins[i],
            out_shape: outs[i],
        };
        let mut out = vec![0.0f32; step.out_shape.len()];
        run_layer_step(net, &step, &mut out, &mut ws);
        activation = out;
        if !matches!(layer.kind, LayerKind::Input) {
            steps.push(step);
        }
        i += if fused_relu.is_some() { 2 } else { 1 };
    }
    steps
}

pub fn run_layer_step(net: &Network, step: &LayerStep, out: &mut [f32], ws: &mut Workspace) {
    forward_layer_fast(
        net,
        &step.name,
        &step.kind,
        step.fused_relu,
        &step.input,
        step.in_shape,
        step.out_shape,
        out,
        ws,
    )
    .expect("weighted layer with matching shapes");
}

impl LayerStep {
    pub fn out_len(&self) -> usize {
        self.out_shape.len()
    }
}

// --------------------------------------------------------------- kernels

/// The VGG-style 64→64 3×3 same-convolution (at `hw = 56` the layer of
/// the `*_vgg56` rows of `BENCH_kernels.json`), in both datapaths,
/// with the operands of its bare GEMM pre-lowered.
pub struct KernelCase {
    pub geo: ConvGeometry,
    pub num_output: usize,
    input: Vec<f32>,
    weights: Vec<f32>,
    bias: Vec<f32>,
    cols: Vec<f32>,
    qinput: Vec<i8>,
    qweights: Vec<i8>,
    qbias: Vec<i32>,
    multipliers: Vec<f32>,
    qpatches: Vec<i8>,
    /// LeNet `ip1` as a GEMV: 500×800.
    fc_weights: Vec<f32>,
    fc_input: Vec<f32>,
}

pub fn kernel_case(seed: u64, hw: usize) -> KernelCase {
    let (c, k, f) = (64usize, 3usize, 64usize);
    let geo = ConvGeometry {
        in_c: c,
        in_h: hw,
        in_w: hw,
        kernel: k,
        stride: 1,
        pad: 1,
        out_h: hw,
        out_w: hw,
    };
    let mut rng = Rng::new(seed);
    let mut f32s = |n: usize, amp: f32| -> Vec<f32> {
        (0..n)
            .map(|_| (rng.unit() as f32 * 2.0 - 1.0) * amp)
            .collect()
    };
    let input = f32s(c * hw * hw, 1.0);
    let weights = f32s(f * c * k * k, 0.2);
    let bias = f32s(f, 0.5);
    let fc_weights = f32s(500 * 800, 0.1);
    let fc_input = f32s(800, 1.0);
    // Timing operands only: a fixed symmetric scale, no calibration.
    let quant = |v: &[f32], scale: f32| -> Vec<i8> {
        v.iter()
            .map(|x| (x / scale).round().clamp(-127.0, 127.0) as i8)
            .collect()
    };
    let qinput = quant(&input, 1.0 / 127.0);
    let qweights = quant(&weights, 0.2 / 127.0);
    let mut cols = vec![0.0f32; geo.lowered_len()];
    im2col(&input, &geo, &mut cols);
    let mut qpatches = vec![0i8; geo.lowered_len()];
    im2col_i8_patches(&qinput, &geo, &mut qpatches);
    KernelCase {
        geo,
        num_output: f,
        input,
        weights,
        bias,
        cols,
        qinput,
        qweights,
        qbias: vec![0; f],
        multipliers: vec![1e-3; f],
        qpatches,
        fc_weights,
        fc_input,
    }
}

/// Reused output buffers and lowering workspaces of the kernel calls.
pub struct KernelScratch {
    out: Vec<f32>,
    qout: Vec<i8>,
    cols: Vec<f32>,
    fc_out: Vec<f32>,
    ws: Workspace,
    qws: QWorkspace,
}

impl KernelCase {
    pub fn scratch(&self) -> KernelScratch {
        let out_len = self.num_output * self.geo.lowered_cols();
        KernelScratch {
            out: vec![0.0; out_len],
            qout: vec![0; out_len],
            cols: vec![0.0; self.geo.lowered_len()],
            fc_out: vec![0.0; 500],
            ws: Workspace::with_capacity(self.geo.lowered_len()),
            qws: QWorkspace::new(),
        }
    }

    fn mnk(&self) -> (usize, usize, usize) {
        (
            self.num_output,
            self.geo.lowered_cols(),
            self.geo.lowered_rows(),
        )
    }

    pub fn gemm_f32(&self, s: &mut KernelScratch) -> f32 {
        let (m, n, k) = self.mnk();
        gemm_f32(
            m,
            n,
            k,
            &self.weights,
            &self.cols,
            &mut s.out,
            GemmBlocking::default(),
            Epilogue::Bias(&self.bias),
        );
        s.out[s.out.len() - 1]
    }

    pub fn gemm_i8(&self, s: &mut KernelScratch) -> i8 {
        let (m, n, k) = self.mnk();
        gemm_i8_requant(
            m,
            n,
            k,
            &self.qweights,
            &self.qpatches,
            &mut s.qout,
            GemmBlocking::default(),
            Some(&self.qbias),
            &self.multipliers,
            false,
            &mut s.qws,
        );
        s.qout[s.qout.len() - 1]
    }

    pub fn im2col(&self, s: &mut KernelScratch) -> f32 {
        im2col(&self.input, &self.geo, &mut s.cols);
        s.cols[s.cols.len() - 1]
    }

    pub fn conv2d(&self, s: &mut KernelScratch) -> f32 {
        conv2d(
            &self.input,
            &self.weights,
            Some(&self.bias),
            self.num_output,
            &self.geo,
            None,
            &mut s.out,
            &mut s.ws,
        );
        s.out[s.out.len() - 1]
    }

    pub fn qconv2d(&self, s: &mut KernelScratch) -> i8 {
        qconv2d(
            &self.qinput,
            &self.qweights,
            Some(&self.qbias),
            self.num_output,
            &self.geo,
            &self.multipliers,
            false,
            &mut s.qout,
            &mut s.qws,
        );
        s.qout[s.qout.len() - 1]
    }

    pub fn gemv_ip1(&self, s: &mut KernelScratch) -> f32 {
        gemv(
            500,
            800,
            &self.fc_weights,
            &self.fc_input,
            None,
            Some(0.0),
            &mut s.fc_out,
        );
        s.fc_out[499]
    }

    /// Floating-point operations of the convolution, computed from the
    /// tensor sizes (2 per multiply-accumulate).
    pub fn conv_flops(&self) -> u64 {
        let (m, n, k) = self.mnk();
        2 * (m * n * k) as u64
    }

    /// Bytes the f32 convolution must move at least once, computed
    /// from the tensor sizes: input, weights, bias and output.
    pub fn conv_bytes(&self) -> u64 {
        let (m, n, _) = self.mnk();
        4 * (self.input.len() + self.weights.len() + self.bias.len() + m * n) as u64
    }
}

// --------------------------------------------------------------- serving

/// A lane that takes a fixed time per batch and returns a constant
/// tensor: compute is removed, so only `condor-serve` can move a
/// workload built on it.
pub struct SleepBackend {
    pub base: Duration,
    pub per_item: Duration,
    pub output: Tensor,
}

impl ExecutionBackend for SleepBackend {
    fn infer_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
        std::thread::sleep(self.base + self.per_item * images.len() as u32);
        Ok(vec![self.output.clone(); images.len()])
    }

    fn pipeline(&self) -> PipelineModel {
        PipelineModel::from_stage_cycles(vec![1], 100.0)
    }

    fn location(&self) -> String {
        "perf/fixed-latency".to_string()
    }
}

/// Decorator recording one span per backend call; installed around
/// each lane in traced runs only.
pub struct TracedBackend {
    inner: Box<dyn ExecutionBackend>,
    tracer: Arc<Tracer>,
}

pub const BACKEND_SPAN: &str = "serve.backend_call";

impl ExecutionBackend for TracedBackend {
    fn infer_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
        let start_ns = self.tracer.now_ns();
        let out = self.inner.infer_batch(images);
        self.tracer.record(Span {
            id: self.tracer.alloc_id(),
            name: BACKEND_SPAN,
            layer: "serve",
            start_ns,
            end_ns: self.tracer.now_ns(),
            parent: None,
            request: None,
            items: images.len() as u64,
        });
        out
    }

    fn pipeline(&self) -> PipelineModel {
        self.inner.pipeline()
    }

    fn location(&self) -> String {
        self.inner.location()
    }
}

pub type Lanes = Vec<Box<dyn ExecutionBackend>>;

pub fn cpu_lanes(net: &Network, n: usize) -> Lanes {
    CpuBackend::replicas(net, n).expect("benchmark networks are fully weighted")
}

pub fn traced(lanes: Lanes, tracer: &Arc<Tracer>) -> Lanes {
    if !tracer.enabled() {
        return lanes;
    }
    lanes
        .into_iter()
        .map(|inner| {
            Box::new(TracedBackend {
                inner,
                tracer: Arc::clone(tracer),
            }) as Box<dyn ExecutionBackend>
        })
        .collect()
}

pub use condor_serve::Priority as Class;

pub struct ServerParams {
    pub max_batch: usize,
    pub batch_window: Duration,
    pub queue_capacity: usize,
    /// CoDel `(target, interval)`.
    pub codel: Option<(Duration, Duration)>,
    /// Directory of a durable (fsync'd) admission queue.
    pub disk_queue: Option<std::path::PathBuf>,
}

fn serve_config(p: &ServerParams) -> ServeConfig {
    let mut cfg = ServeConfig::default()
        .with_max_batch(p.max_batch)
        .with_batch_window(p.batch_window)
        .with_queue_capacity(p.queue_capacity)
        .with_default_timeout(REQUEST_TIMEOUT);
    if let Some((target, interval)) = p.codel {
        cfg = cfg.with_codel(
            CodelConfig::new()
                .with_target(target)
                .with_interval(interval),
        );
    }
    cfg
}

fn disk_queue(dir: &Path) -> QueueBackend {
    QueueBackend::Disk(DiskQueueConfig::new(dir))
}

/// Long enough that no request of a healthy run times out; a timeout
/// is then a failure, not a workload property.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Either request pipeline of `condor-serve`, behind the three calls
/// the load generators need.
pub enum Front {
    Server(Box<InferenceServer>),
    Fleet(Box<Fleet>),
}

pub fn server(lanes: Lanes, p: &ServerParams) -> Front {
    let mut cfg = serve_config(p);
    if let Some(dir) = &p.disk_queue {
        cfg = cfg.with_queue(disk_queue(dir));
    }
    Front::Server(Box::new(
        InferenceServer::new(lanes, cfg).expect("server starts with ≥ 1 lane"),
    ))
}

/// `replicas` instances behind `routers` router threads;
/// `make_lanes()` provisions the lanes of one instance.
pub fn fleet(
    make_lanes: impl Fn() -> Lanes + Send + Sync + 'static,
    replicas: usize,
    routers: usize,
    p: &ServerParams,
) -> Front {
    let mut cfg = FleetConfig::default()
        .with_replicas(replicas)
        .with_router_threads(routers)
        .with_queue_capacity(p.queue_capacity)
        .with_serve(serve_config(p));
    if let Some(dir) = &p.disk_queue {
        cfg = cfg.with_queue(disk_queue(dir));
    }
    Front::Fleet(Box::new(
        Fleet::new(
            move |_replica: usize, _generation: u64| Ok(make_lanes()),
            cfg,
        )
        .expect("fleet provisions its instances"),
    ))
}

/// How one request ended, as the caller saw it.
pub enum Reply {
    Ok(Tensor),
    /// Refused by admission control (queue full, CoDel shed): the
    /// designed answer under overload.
    Refused,
    TimedOut,
    Failed(String),
}

fn classify(err: ServeError) -> Reply {
    match err {
        ServeError::Overloaded(_) => Reply::Refused,
        ServeError::Timeout => Reply::TimedOut,
        other => Reply::Failed(other.to_string()),
    }
}

pub struct Pending(PendingInference);

impl Pending {
    pub fn wait(self) -> Reply {
        match self.0.wait_reply() {
            Ok(reply) => Reply::Ok(reply.output),
            Err(e) => classify(e),
        }
    }
}

impl Front {
    pub fn submit(&self, image: Tensor, class: Priority) -> Result<Pending, Reply> {
        let pending = match self {
            Front::Server(s) => s.submit_with_class(image, REQUEST_TIMEOUT, class),
            // The fleet workload is single-class; `Fleet::submit` is
            // its pinned entry point.
            Front::Fleet(f) => f.submit(image),
        };
        pending.map(Pending).map_err(classify)
    }

    pub fn shutdown(self) -> MetricsSnapshot {
        match self {
            Front::Server(s) => s.shutdown(),
            Front::Fleet(f) => f.shutdown(),
        }
    }
}

// ------------------------------------------------------ metrics registry

pub fn registry() -> MetricsRegistry {
    MetricsRegistry::new()
}

pub fn registry_incr(r: &MetricsRegistry) {
    r.incr("requests_accepted", 1);
}

pub fn registry_observe(r: &MetricsRegistry, v: f64) {
    r.observe("latency_us", v);
}

pub fn registry_snapshot(r: &MetricsRegistry) -> MetricsSnapshot {
    r.snapshot()
}

// -------------------------------------------------------------- toolflow

pub const BOARD: &str = "aws-f1";
pub const LENET_MHZ: f64 = 180.0;
/// The Table 1 design point: sequential feature maps, FC SIMD 2.
pub const TABLE1_PARALLELISM: PeParallelism = PeParallelism {
    parallel_in: 1,
    parallel_out: 1,
    fc_simd: 2,
};
pub const SWEEP_BATCHES: [usize; 6] = [1, 2, 4, 8, 16, 64];

pub fn lenet_prototxt() -> &'static str {
    zoo::lenet_prototxt()
}

/// The binary `caffemodel` a user would hand the framework: the
/// network's topology with its weight blobs, protobuf-encoded.
pub fn caffemodel(net: &Network) -> Vec<u8> {
    condor::frontend::network_to_caffe(net).encode().to_vec()
}

/// What one Caffe→cloud flow produced, for the output checks.
pub struct FlowResult {
    pub plan: AcceleratorPlan,
    pub utilization: condor_fpga::Utilization,
    /// `(batch, mean µs per image)` of the Fig. 5 sweep.
    pub sweep: Vec<(usize, f64)>,
    pub gflops: f64,
}

/// The paper's product, one span per framework call: Caffe files in,
/// accelerator deployed on a (simulated) F1 instance out.
pub fn caffe_to_cloud(prototxt: &str, caffemodel: &[u8], tracer: &Tracer) -> FlowResult {
    let root = tracer.enabled().then(|| tracer.alloc_id());
    let start_ns = tracer.now_ns();
    let (flow, _) = tracer.span("core.from_caffe", "core", root, 1, || {
        Condor::from_caffe(prototxt, Some(caffemodel)).expect("generated caffemodel loads")
    });
    let (built, _) = tracer.span("core.build", "core", root, 1, || build_table1(flow));
    let plan = built.plan.clone();
    let (deployed, _) = tracer.span("cloud.deploy", "cloud", root, 1, || deploy_cloud(built));
    let ((metrics, sweep), _) = tracer.span("core.metrics", "core", root, 1, || {
        (
            deployed.metrics(64).expect("metrics at batch 64"),
            deployed.batch_sweep(&SWEEP_BATCHES),
        )
    });
    if let Some(id) = root {
        tracer.record(Span {
            id,
            name: "toolflow.caffe_to_cloud",
            layer: "core",
            start_ns,
            end_ns: tracer.now_ns(),
            parent: None,
            request: None,
            items: 1,
        });
    }
    FlowResult {
        plan,
        utilization: metrics.utilization,
        sweep: sweep
            .iter()
            .map(|t| (t.batch, t.mean_us_per_image))
            .collect(),
        gflops: metrics.gflops,
    }
}

pub fn frontend_analyze(prototxt: &str, caffemodel: &[u8]) -> Network {
    condor::frontend::analyze(FrontendInput::Caffe {
        prototxt: prototxt.to_string(),
        caffemodel: Some(caffemodel.to_vec()),
    })
    .expect("generated caffemodel loads")
    .network
}

/// The Table 1 design point of LeNet on the F1 board.
fn build_table1(flow: Condor) -> condor::BuiltAccelerator {
    flow.board(BOARD)
        .freq_mhz(LENET_MHZ)
        .parallelism(TABLE1_PARALLELISM)
        .build()
        .expect("LeNet is synthesizable on aws-f1")
}

pub fn build(net: Network) -> condor::BuiltAccelerator {
    build_table1(Condor::from_network(net))
}

pub fn deploy_cloud(built: condor::BuiltAccelerator) -> condor::DeployedAccelerator {
    let ctx = CloudContext::new("condor-perf-bucket");
    built
        .deploy(&DeployTarget::Cloud(&ctx))
        .expect("simulated account deploys")
}

pub fn plan_table1(net: &Network) -> AcceleratorPlan {
    PlanBuilder::new(net)
        .board(BOARD)
        .freq_mhz(LENET_MHZ)
        .parallelism(TABLE1_PARALLELISM)
        .build()
        .expect("LeNet plans cleanly")
}

pub fn plan_default(net: &Network) -> AcceleratorPlan {
    PlanBuilder::new(net).build().expect("LeNet plans cleanly")
}

pub fn synthesize(plan: &AcceleratorPlan) -> condor_hls::PlanSynthesis {
    let board = condor_fpga::board(BOARD).expect("catalog has aws-f1");
    condor_hls::synthesize_plan(plan, board.device())
}

pub fn package_ips(plan: &AcceleratorPlan) -> usize {
    plan.pes
        .iter()
        .map(condor_hls::package_layer_ip)
        .map(|ip| ip.sources.len())
        .sum()
}

/// Text → representation → text; returns the text length.
pub fn repr_roundtrip(net: &Network) -> usize {
    let text = NetworkRepresentation::new(net.clone(), Default::default()).to_text();
    NetworkRepresentation::parse(&text)
        .expect("the writer's output parses")
        .to_text()
        .len()
}

/// The network and space the `toolflow` workload explores: the
/// VGG-16 feature-extraction prefix over 1800 points (5 clocks × 3
/// fusions × 4 × 5 parallelism × 3 fc_simd × 2 precisions, prefilter
/// on). `smoke` swaps in LeNet over 8 points.
pub fn dse_case(smoke: bool) -> (Network, DseConfig) {
    let mut space = DseConfig {
        freqs_mhz: vec![100.0, 150.0, 200.0, 250.0, 300.0],
        fusions: vec![1, 2, 3],
        parallel_in: vec![1, 2, 4, 8],
        parallel_out: vec![1, 2, 4, 8, 16],
        fc_simd: vec![1, 2, 4],
        precisions: vec![Precision::F32, Precision::Int8],
        eval_batch: 64,
        prefilter: true,
    };
    if !smoke {
        let vgg = zoo::vgg16()
            .feature_extraction_prefix()
            .expect("VGG-16 has a feature-extraction stage");
        return (vgg, space);
    }
    space.freqs_mhz.truncate(1);
    space.fusions.truncate(1);
    space.parallel_in.truncate(2);
    space.parallel_out.truncate(2);
    space.fc_simd.truncate(1);
    (zoo::lenet(), space)
}

/// `(points evaluated, feasible points, best GFLOPS bits)`.
pub fn dse_explore(net: &Network, cfg: &DseConfig) -> (usize, usize, u64) {
    let board = condor_fpga::board(BOARD).expect("catalog has aws-f1");
    let outcome = condor::dse::explore(net, board, cfg).expect("exploration runs");
    let feasible = outcome.points.iter().filter(|p| p.feasible()).count();
    let best = outcome.require_best().map_or(0, |p| p.gflops.to_bits());
    (outcome.points.len(), feasible, best)
}

/// Operands of the cycle-level simulation of LeNet `conv2`.
pub struct Conv2Sim {
    input: Tensor,
    weights: Tensor,
    bias: Option<Tensor>,
}

pub fn conv2_sim(net: &Network, seed: u64) -> Conv2Sim {
    let lw = net
        .weights_of("conv2")
        .expect("LeNet conv2 carries weights");
    let mut rng = TensorRng::seeded(seed);
    Conv2Sim {
        input: rng.uniform(Shape::chw(lw.weights.shape().c, 12, 12), 0.0, 1.0),
        weights: lw.weights.clone(),
        bias: lw.bias.clone(),
    }
}

/// `(cycles, pe_stall_cycles, output checksum bits)`.
pub fn simulate_conv2(sim: &Conv2Sim) -> (u64, u64, u64) {
    let report = simulate_conv_layer(
        &sim.input,
        &sim.weights,
        sim.bias.as_ref(),
        1,
        0,
        false,
        &LayerSimConfig::default(),
    )
    .expect("conv2 operands are consistent");
    (
        report.cycles,
        report.pe_stall_cycles,
        report.output.sum().to_bits(),
    )
}

/// `(total cycles at batch 64, initiation interval, latency)`.
pub fn des_batch64(plan: &AcceleratorPlan) -> (u64, u64, u64) {
    let model = PipelineModel::from_plan(plan);
    (
        model.batch(64).total_cycles,
        model.initiation_interval(),
        model.latency(),
    )
}

pub fn threaded_runtime(net: &Network, plan: &AcceleratorPlan) -> ThreadedRuntime {
    ThreadedRuntime::new(net, plan).expect("runtime wires")
}

pub fn runtime_run_batch(rt: &ThreadedRuntime, images: &[Tensor]) -> Vec<Tensor> {
    rt.run_batch(images).expect("runtime batch")
}

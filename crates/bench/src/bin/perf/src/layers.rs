//! Per-layer probes: each module timed from outside, through its
//! public functions, on fixed inputs. They run in every traced run
//! whatever the workload, so the layer table is always complete; the
//! numbers a workload derives from its own spans are added beside them.
//!
//! Host time is what the code takes to run here; the `*_cycles` and
//! `*_pct` numbers are *simulated* — outputs of the hardware model —
//! and must repeat exactly.

use crate::report::{metric, Metric};
use crate::serving;
use crate::stats::{summarize, Summary};
use crate::sut;
use crate::workload::Opts;
use condor_kernels::Workspace;
use condor_nn::Network;
use condor_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Times `f` `reps` times after one untimed call; µs per call.
fn time_us(reps: usize, mut f: impl FnMut()) -> Summary {
    f();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    summarize(&samples)
}

struct Probe<'a> {
    out: Vec<Metric>,
    opts: &'a Opts,
}

impl Probe<'_> {
    fn reps(&self, full: usize) -> usize {
        if self.opts.smoke {
            1
        } else {
            full
        }
    }

    fn push(&mut self, name: impl Into<String>, s: Summary) {
        self.out.push(metric(name, s));
    }

    fn exact(&mut self, name: impl Into<String>, v: f64) {
        self.push(name, Summary::exact(v));
    }
}

fn core_metrics(p: &mut Probe<'_>) {
    let ops = if p.opts.smoke { 1_000 } else { 100_000 };
    let per_op_ns = |f: &mut dyn FnMut()| time_us(5, f).scaled(1e3 / ops as f64);
    let registry = sut::registry();
    let incr = per_op_ns(&mut || (0..ops).for_each(|_| sut::registry_incr(&registry)));
    p.push("core.metrics_incr_ns", incr);
    let observe = per_op_ns(&mut || {
        (0..ops).for_each(|i| sut::registry_observe(&registry, i as f64));
    });
    p.push("core.metrics_observe_ns", observe);
    // Two threads observing at once, as a submitter and a lane do.
    let contended = per_op_ns(&mut || {
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| (0..ops).for_each(|i| sut::registry_observe(&registry, i as f64)));
            }
        });
    });
    p.push("core.metrics_observe_contended_ns", contended);
    let snapshot = time_us(p.reps(20), || {
        black_box(sut::registry_snapshot(&registry));
    });
    p.push("core.metrics_snapshot_us", snapshot);
}

fn flow_steps(p: &mut Probe<'_>) {
    let net = sut::lenet(p.opts.seed);
    let caffemodel = sut::caffemodel(&net);
    let reps = p.reps(20);
    p.exact("caffe.caffemodel_bytes", caffemodel.len() as f64);
    let analyze = time_us(reps, || {
        black_box(sut::frontend_analyze(sut::lenet_prototxt(), &caffemodel));
    });
    p.push("core.frontend_analyze_us", analyze);
    let roundtrip = time_us(reps, || {
        black_box(sut::repr_roundtrip(&net));
    });
    p.push("cjson.repr_roundtrip_us", roundtrip);

    let plan_build = time_us(reps, || {
        black_box(sut::plan_table1(&net));
    });
    let plan = sut::plan_table1(&net);
    let synth = time_us(reps, || {
        black_box(sut::synthesize(&plan));
    });
    let package = time_us(reps, || {
        black_box(sut::package_ips(&plan));
    });
    // `build` consumes its network: clone outside the timed call.
    let mut build_samples = Vec::new();
    let mut deploy_samples = Vec::new();
    let mut utilization = None;
    for _ in 0..=reps {
        let input = net.clone();
        let t = Instant::now();
        let built = sut::build(input);
        build_samples.push(t.elapsed().as_nanos() as f64 / 1e3);
        utilization = Some(built.utilization());
        let t = Instant::now();
        black_box(sut::deploy_cloud(built));
        deploy_samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let build = summarize(&build_samples[1..]);
    p.push("dataflow.plan_build_us", plan_build);
    p.push("hls.synthesize_plan_us", synth);
    p.push("hls.ip_package_us", package);
    p.push("core.build_us", build);
    // What `build` spends outside the three steps timed above: the
    // static-check gate and the .xo packaging.
    p.push(
        "core.build_residual_us",
        Summary {
            value: build.value - plan_build.value - synth.value - package.value,
            n: build.n,
            ..Summary::default()
        },
    );
    p.push("cloud.deploy_us", summarize(&deploy_samples[1..]));
    let u = utilization.expect("at least one build");
    p.exact("hls.lenet_lut_pct", u.lut_pct);
    p.exact("hls.lenet_ff_pct", u.ff_pct);
    p.exact("hls.lenet_dsp_pct", u.dsp_pct);
    p.exact("hls.lenet_bram_pct", u.bram_pct);
}

fn dse(p: &mut Probe<'_>) {
    let (net, space) = sut::dse_case(p.opts.smoke);
    let mut result = (0, 0, 0);
    let explore = time_us(p.reps(3), || result = sut::dse_explore(&net, &space));
    p.push("core.dse_explore_ms", explore.scaled(1e-3));
    p.exact("core.dse_points", result.0 as f64);
    p.exact("core.dse_feasible", result.1 as f64);
}

fn dataflow(p: &mut Probe<'_>) {
    let net = sut::lenet(p.opts.seed);
    let plan = sut::plan_default(&net);
    let calls = if p.opts.smoke { 10 } else { 1000 };
    let des = time_us(5, || {
        (0..calls).for_each(|_| {
            black_box(sut::des_batch64(black_box(&plan)));
        });
    });
    p.push("dataflow.des_batch64_ns", des.scaled(1e3 / calls as f64));
    let (total, ii, latency) = sut::des_batch64(&plan);
    p.exact("dataflow.des_lenet_total_cycles_b64", total as f64);
    p.exact("dataflow.des_lenet_ii_cycles", ii as f64);
    p.exact("dataflow.des_lenet_latency_cycles", latency as f64);
    for pe in &plan.pes {
        p.exact(
            format!("dataflow.plan.lenet.{}_cycles", pe.name),
            pe.cycles_per_image() as f64,
        );
    }

    let sim = sut::conv2_sim(&net, p.opts.seed);
    let mut counts = (0, 0, 0);
    let layersim = time_us(p.reps(10), || counts = sut::simulate_conv2(&sim));
    p.push("dataflow.layersim_conv2_ms", layersim.scaled(1e-3));
    p.exact("dataflow.layersim_conv2_cycles", counts.0 as f64);
    p.exact("dataflow.layersim_conv2_pe_stall_cycles", counts.1 as f64);

    // One OS thread per PE: on two cores this mostly measures the
    // scheduler, which is why it is a per-layer number only.
    let runtime = sut::threaded_runtime(&net, &plan);
    let images = sut::lenet_images(16, p.opts.seed);
    let run = time_us(p.reps(10), || {
        black_box(sut::runtime_run_batch(&runtime, &images));
    });
    p.push("dataflow.runtime_lenet_b16_ms", run.scaled(1e-3));
}

/// Each node of `net` timed alone, through `forward_layer_fast`, on
/// the activation its predecessor really produces. The nodes run in
/// network order within each repetition, so every node finds the
/// caches as the engine would leave them, not warm from its own last
/// call.
fn node_times(p: &mut Probe<'_>, tag: &str, net: &Network, image: &Tensor, reps: usize) {
    let mut ws = Workspace::new();
    let steps = sut::layer_steps(net, image);
    let mut outs: Vec<Vec<f32>> = steps.iter().map(|s| vec![0.0; s.out_len()]).collect();
    let mut samples = vec![Vec::new(); steps.len()];
    for rep in 0..=p.reps(reps) {
        for (i, step) in steps.iter().enumerate() {
            let t = Instant::now();
            sut::run_layer_step(net, step, &mut outs[i], &mut ws);
            black_box(outs[i].last().copied());
            if rep > 0 {
                samples[i].push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
    }
    for (step, samples) in steps.iter().zip(&samples) {
        p.push(
            format!("nn.fast.{tag}.{}_us", step.name),
            summarize(samples),
        );
    }
}

fn nn(p: &mut Probe<'_>) {
    let lenet = sut::lenet(p.opts.seed);
    let images = sut::lenet_images(16, p.opts.seed);
    node_times(p, "lenet", &lenet, &images[0], 200);
    let hw = if p.opts.smoke { 8 } else { 56 };
    let vgg = sut::vgg_prefix(p.opts.seed, hw);
    let vgg_image = sut::random_images(1, vgg.input_shape, p.opts.seed).remove(0);
    node_times(p, "vgg56", &vgg, &vgg_image, 10);

    let build = time_us(p.reps(10), || {
        black_box(sut::fast_engine(&lenet));
    });
    p.push("nn.fast.engine_build_ms", build.scaled(1e-3));
    let calib = &images[..if p.opts.smoke { 1 } else { 16 }];
    let calibrate = time_us(p.reps(5), || {
        black_box(sut::int8_engine(&lenet, calib));
    });
    p.push("nn.int8.calibrate_ms", calibrate.scaled(1e-3));

    let mut engine = sut::fast_engine(&lenet);
    let reps = p.reps(50);
    let single = time_us(reps, || {
        black_box(sut::fast_infer_batch(&mut engine, &images[..1]));
    });
    let batch = time_us(reps, || {
        black_box(sut::fast_infer_batch(&mut engine, &images));
    });
    p.exact(
        "nn.fast.lenet_batch_gain",
        images.len() as f64 * single.value / batch.value,
    );
}

fn kernels(p: &mut Probe<'_>) {
    let case = sut::kernel_case(p.opts.seed, if p.opts.smoke { 8 } else { 56 });
    let mut s = case.scratch();
    let reps = p.reps(10);
    let gemm_f32 = time_us(reps, || {
        black_box(case.gemm_f32(&mut s));
    });
    p.push("kernels.gemm_f32_vgg56_us", gemm_f32);
    let gemm_i8 = time_us(reps, || {
        black_box(case.gemm_i8(&mut s));
    });
    p.push("kernels.gemm_i8_vgg56_us", gemm_i8);
    let im2col = time_us(reps, || {
        black_box(case.im2col(&mut s));
    });
    p.push("kernels.im2col_vgg56_us", im2col);
    let conv = time_us(reps, || {
        black_box(case.conv2d(&mut s));
    });
    p.push("kernels.conv2d_vgg56_us", conv);
    let qconv = time_us(reps, || {
        black_box(case.qconv2d(&mut s));
    });
    p.push("kernels.qconv2d_vgg56_us", qconv);
    let gemv = time_us(p.reps(200), || {
        black_box(case.gemv_ip1(&mut s));
    });
    p.push("kernels.gemv_ip1_us", gemv);
    // Computed from the tensor sizes, not measured.
    p.exact("kernels.conv2d_vgg56_flops", case.conv_flops() as f64);
    p.exact("kernels.conv2d_vgg56_bytes", case.conv_bytes() as f64);
    p.exact(
        "kernels.conv2d_vgg56_gflops",
        case.conv_flops() as f64 / conv.value / 1e3,
    );
}

pub fn probe_all(opts: &Opts) -> Vec<Metric> {
    let mut p = Probe {
        out: Vec::new(),
        opts,
    };
    core_metrics(&mut p);
    flow_steps(&mut p);
    dse(&mut p);
    dataflow(&mut p);
    nn(&mut p);
    kernels(&mut p);
    let requests = if opts.smoke { 5 } else { 200 };
    p.push(
        "queue.durable_submit_extra_us_p50",
        serving::durable_submit_extra_us(opts, requests),
    );
    p.out
}

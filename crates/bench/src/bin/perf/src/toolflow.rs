//! `toolflow`: the paper's product. Three streams taking turns through
//! the measured phase — the complete Caffe→cloud flow (headline),
//! the design space exploration, and the cycle-level simulation of one
//! layer. Everything here is deterministic, so every repeat inside a
//! run must produce the identical plan, counts and cycles.

use crate::report::metric;
use crate::sut::{self, FlowResult};
use crate::trace::Tracer;
use crate::workload::{run_streams, timed_setups, Opts, Outcome, Stream};
use condor::dse::DseConfig;
use condor_dataflow::PipelineModel;
use condor_nn::Network;
use std::sync::Arc;

struct Setup {
    lenet: Network,
    caffemodel: Vec<u8>,
    dse_net: Network,
    dse_space: DseConfig,
    conv2: sut::Conv2Sim,
}

fn setup(opts: &Opts) -> Setup {
    let lenet = sut::lenet(opts.seed);
    let (dse_net, dse_space) = sut::dse_case(opts.smoke);
    Setup {
        caffemodel: sut::caffemodel(&lenet),
        conv2: sut::conv2_sim(&lenet, opts.seed),
        lenet,
        dse_net,
        dse_space,
    }
}

/// Points the exploration must report: the whole cross-product, pruned
/// points included.
fn space_size(s: &DseConfig) -> usize {
    s.freqs_mhz.len()
        * s.fusions.len()
        * s.parallel_in.len()
        * s.parallel_out.len()
        * s.fc_simd.len()
        * s.precisions.len()
}

/// The claims one flow result must meet on its own: the Fig. 5 series
/// falls with batch size, and the DES latency is the plan's.
fn check_flow(flow: &FlowResult) -> Result<(), String> {
    if !flow.sweep.windows(2).all(|p| p[1].1 <= p[0].1 + 1e-9) {
        return Err(format!("batch sweep is not monotone: {:?}", flow.sweep));
    }
    let des = PipelineModel::from_plan(&flow.plan).latency();
    if des != flow.plan.image_latency() {
        return Err(format!(
            "DES latency {des} != plan.image_latency() {}",
            flow.plan.image_latency()
        ));
    }
    Ok(())
}

fn same_flow(a: &FlowResult, b: &FlowResult) -> bool {
    a.plan == b.plan && a.utilization == b.utilization && a.sweep == b.sweep && a.gflops == b.gflops
}

/// Wraps a deterministic operation: the first result is the reference
/// and every repeat must equal it.
fn repeatable<'a, T: PartialEq + 'a>(
    mut op: impl FnMut() -> T + 'a,
    items: impl Fn(&T) -> u64 + 'a,
) -> Box<dyn FnMut() -> Result<u64, String> + 'a> {
    let first = op();
    Box::new(move || {
        let again = op();
        if again == first {
            Ok(items(&again))
        } else {
            Err("result changed between identical calls".to_string())
        }
    })
}

pub fn run(opts: &Opts, tracer: &Arc<Tracer>) -> Outcome {
    let (s, setup_s) = timed_setups(opts.setup_reps, |_| setup(opts));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };

    // Once, before timing: the flow's own claims, and the deployed
    // accelerator computing what the fast engine computes.
    let reference = sut::caffe_to_cloud(sut::lenet_prototxt(), &s.caffemodel, &Tracer::new(false));
    if let Err(why) = check_flow(&reference) {
        out.errors.push(why);
    }
    let images = sut::lenet_images(4, opts.seed);
    let want = sut::fast_infer_batch(&mut sut::fast_engine(&s.lenet), &images);
    let deployed = sut::deploy_cloud(sut::build(sut::frontend_analyze(
        sut::lenet_prototxt(),
        &s.caffemodel,
    )));
    let got = deployed
        .infer_batch(&images)
        .expect("deployed accelerator infers");
    let diff = got
        .iter()
        .zip(&want)
        .map(|(g, w)| condor_tensor::max_abs_diff(g, w))
        .fold(0.0, f32::max);
    out.require(diff <= 1e-4, || {
        format!("deployed accelerator vs FastEngine: max |diff| {diff}")
    });
    let points = space_size(&s.dse_space);
    let (explored, _, _) = sut::dse_explore(&s.dse_net, &s.dse_space);
    out.require(explored == points, || {
        format!("DSE reported {explored} points of a {points}-point space")
    });

    let mut streams = [
        Stream {
            name: "caffe_to_cloud_per_s",
            span: "toolflow.flow",
            layer: "core",
            eighths: 4,
            call: {
                let flow = || sut::caffe_to_cloud(sut::lenet_prototxt(), &s.caffemodel, tracer);
                Box::new(move || {
                    let again = flow();
                    check_flow(&again)?;
                    if same_flow(&again, &reference) {
                        Ok(1)
                    } else {
                        Err("flow result changed between identical calls".to_string())
                    }
                })
            },
        },
        Stream {
            name: "dse_points_per_s",
            span: "core.dse_explore",
            layer: "core",
            eighths: 2,
            call: repeatable(
                || sut::dse_explore(&s.dse_net, &s.dse_space),
                |r| r.0 as u64,
            ),
        },
        Stream {
            name: "des_mcycles_per_s",
            span: "dataflow.layersim_conv2",
            layer: "dataflow",
            eighths: 2,
            call: repeatable(|| sut::simulate_conv2(&s.conv2), |r| r.0),
        },
    ];
    let windows = run_streams(&mut streams, opts, tracer, &mut out);
    out.goodput_rps = windows[0].busy_rate_per_s();
    out.latency_p50_us = windows[0].latency_us(0.50, 1);
    // Per slot, never pooled: with under a hundred calls in a slot this
    // is the slot's slowest call, and the median across slots keeps one
    // slow episode of the machine out of it.
    out.latency_p99_us = windows[0].latency_us(0.99, 1);
    for (stream, w) in streams.iter().zip(&windows) {
        let per = if stream.name == "des_mcycles_per_s" {
            1e-6
        } else {
            1.0
        };
        out.layers
            .push(metric(stream.name, w.busy_rate_per_s().scaled(per)));
    }
    out
}

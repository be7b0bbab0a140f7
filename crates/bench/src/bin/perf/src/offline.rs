//! `offline_batch`: the engines with no server in front. Four streams
//! take turns through the measured phase; the f32 VGG prefix is the
//! headline stream (it is where convolution kernels dominate), the
//! other three are reported beside it.

use crate::report::metric;
use crate::sut;
use crate::trace::Tracer;
use crate::workload::{run_streams, same, timed_setups, Opts, Outcome, Stream};
use condor_nn::{FastEngine, Network, QuantizedEngine};
use condor_tensor::Tensor;
use std::sync::Arc;

/// LeNet batch per `FastEngine::infer_batch` call.
const LENET_BATCH: usize = 16;
const LENET_POOL: usize = 64;
const VGG_POOL: usize = 4;
/// Largest |fast − golden| accepted on any output element.
const GOLDEN_TOLERANCE: f32 = 1e-4;

struct Setup {
    lenet: Network,
    lenet_images: Vec<Tensor>,
    vgg: Network,
    vgg_images: Vec<Tensor>,
    fast_lenet: FastEngine,
    int8_lenet: QuantizedEngine,
    fast_vgg: FastEngine,
    int8_vgg: QuantizedEngine,
}

fn vgg_hw(opts: &Opts) -> usize {
    if opts.smoke {
        4
    } else {
        56
    }
}

fn lenet_pool(opts: &Opts) -> usize {
    if opts.smoke {
        LENET_BATCH
    } else {
        LENET_POOL
    }
}

/// LeNet images the golden engine replays (calibration, checks): it is
/// the slow oracle, so a smoke run gives it two.
fn golden_images(opts: &Opts) -> usize {
    if opts.smoke {
        2
    } else {
        LENET_BATCH
    }
}

fn setup(opts: &Opts) -> Setup {
    let lenet = sut::lenet(opts.seed);
    let lenet_images = sut::lenet_images(lenet_pool(opts), opts.seed);
    let vgg = sut::vgg_prefix(opts.seed, vgg_hw(opts));
    let vgg_images = sut::random_images(VGG_POOL, vgg.input_shape, opts.seed);
    Setup {
        fast_lenet: sut::fast_engine(&lenet),
        int8_lenet: sut::int8_engine(&lenet, &lenet_images[..golden_images(opts)]),
        fast_vgg: sut::fast_engine(&vgg),
        // Calibration replays the golden engine, ~1 s per VGG image.
        int8_vgg: sut::int8_engine(&vgg, &vgg_images[..1]),
        lenet,
        lenet_images,
        vgg,
        vgg_images,
    }
}

/// A stream operation that walks `pool` images in steps of `batch`:
/// the first pass over the pool fixes the reference outputs, and every
/// later call must reproduce them bit for bit.
fn cycling<'a>(
    pool: usize,
    batch: usize,
    mut infer: impl FnMut(usize) -> Vec<Tensor> + 'a,
) -> Box<dyn FnMut() -> Result<u64, String> + 'a> {
    let want: Vec<Tensor> = (0..pool).step_by(batch).flat_map(&mut infer).collect();
    let mut at = 0;
    Box::new(move || {
        let got = infer(at);
        let correct = got.len() == batch && got.iter().zip(&want[at..]).all(|(g, w)| same(g, w));
        at = (at + batch) % pool;
        if correct {
            Ok(batch as u64)
        } else {
            Err("output changed between identical calls".to_string())
        }
    })
}

pub fn run(opts: &Opts, tracer: &Arc<Tracer>) -> Outcome {
    let (mut s, setup_s) = timed_setups(opts.setup_reps, |_| setup(opts));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };

    // Correctness once, before anything is timed: the fast engines
    // against the golden oracle, the int8 engines against their budgets.
    let lenet_probe = &s.lenet_images[..golden_images(opts)];
    let got = sut::fast_infer_batch(&mut s.fast_lenet, lenet_probe);
    let diff = sut::golden_max_diff(&s.lenet, lenet_probe, &got);
    out.require(diff <= GOLDEN_TOLERANCE, || {
        format!("FastEngine vs GoldenEngine on LeNet: max |diff| {diff}")
    });
    let vgg_probe = &s.vgg_images[..1];
    let got = sut::fast_infer_batch(&mut s.fast_vgg, vgg_probe);
    let diff = sut::golden_max_diff(&s.vgg, vgg_probe, &got);
    out.require(diff <= GOLDEN_TOLERANCE, || {
        format!("FastEngine vs GoldenEngine on the VGG prefix: max |diff| {diff}")
    });
    out.require(
        sut::int8_within_budget(&mut s.int8_lenet, lenet_probe),
        || "QuantizedEngine exceeds its error budget on LeNet".to_string(),
    );
    out.require(sut::int8_within_budget(&mut s.int8_vgg, vgg_probe), || {
        "QuantizedEngine exceeds its error budget on the VGG prefix".to_string()
    });

    let Setup {
        lenet_images,
        vgg_images,
        fast_lenet,
        int8_lenet,
        fast_vgg,
        int8_vgg,
        ..
    } = &mut s;
    let mut streams = [
        Stream {
            name: "fast_vgg56_ips",
            span: "nn.fast.infer_batch",
            layer: "nn",
            eighths: 4,
            call: cycling(VGG_POOL, 1, |at| {
                sut::fast_infer_batch(fast_vgg, &vgg_images[at..at + 1])
            }),
        },
        Stream {
            name: "int8_vgg56_ips",
            span: "nn.int8.infer",
            layer: "nn",
            eighths: 2,
            call: cycling(VGG_POOL, 1, |at| {
                vec![sut::int8_infer(int8_vgg, &vgg_images[at])]
            }),
        },
        Stream {
            name: "fast_lenet_ips",
            span: "nn.fast.infer_batch",
            layer: "nn",
            eighths: 1,
            call: cycling(lenet_pool(opts), LENET_BATCH, |at| {
                sut::fast_infer_batch(fast_lenet, &lenet_images[at..at + LENET_BATCH])
            }),
        },
        Stream {
            name: "int8_lenet_ips",
            span: "nn.int8.infer",
            layer: "nn",
            eighths: 1,
            call: cycling(lenet_pool(opts), 1, |at| {
                vec![sut::int8_infer(int8_lenet, &lenet_images[at])]
            }),
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
        out.layers.push(metric(stream.name, w.busy_rate_per_s()));
    }
    out
}

//! Kernel-layer cross-check: every fast compute path — implicit-GEMM
//! convolution, the f32 and int8 engines, the threaded runtime — against the
//! golden loop nests, as one `cargo test` case. Timing these paths is the
//! `perf` package's job (`kernels.*` / `nn.*` rows, see `BENCHMARK.json`).

use condor_dataflow::runtime::ThreadedRuntime;
use condor_dataflow::PlanBuilder;
use condor_kernels::{
    conv2d, qconv2d, quantize_into, quantize_weights_per_channel, ConvGeometry, QWorkspace,
    QuantParams, Workspace,
};
use condor_nn::{dataset, golden, zoo, FastEngine, GoldenEngine, QuantizedEngine};
use condor_tensor::{AllClose, Shape, Tensor, TensorRng};

/// A VGG-style 3×3 same-convolution, 16→22 channels at 14×14: small
/// enough for a debug build, and as a GEMM (22×196×144) it has a partial
/// register tile on both edges (22 = 5·4 + 2 rows, 196 = 12·16 + 4
/// columns).
struct ConvCase {
    input: Tensor,
    weights: Tensor,
    bias: Tensor,
    geo: ConvGeometry,
    num_output: usize,
}

impl ConvCase {
    fn new() -> Self {
        let (c, h, w, k, f) = (16usize, 14usize, 14usize, 3usize, 22usize);
        let geo = ConvGeometry {
            in_c: c,
            in_h: h,
            in_w: w,
            kernel: k,
            stride: 1,
            pad: 1,
            out_h: Shape::conv_out_dim(h, k, 1, 1),
            out_w: Shape::conv_out_dim(w, k, 1, 1),
        };
        let mut rng = TensorRng::seeded(42);
        ConvCase {
            input: rng.uniform(Shape::chw(c, h, w), -1.0, 1.0),
            weights: rng.uniform(Shape::new(f, c, k, k), -0.2, 0.2),
            bias: rng.uniform(Shape::vector(f), -0.5, 0.5),
            geo,
            num_output: f,
        }
    }

    fn out_shape(&self) -> Shape {
        Shape::new(1, self.num_output, self.geo.out_h, self.geo.out_w)
    }
}

/// [`ConvCase`] lowered to the symmetric INT8 scheme:
/// quantized operands, bias in accumulator units, per-channel requantize
/// multipliers, and the analytic per-channel error bound the quantized
/// output must honour against the f32 golden result.
struct QuantConvCase {
    /// Quantized input feature maps.
    input: Vec<i8>,
    /// Per-channel quantized filter bank.
    weights: Vec<i8>,
    /// Bias in accumulator units: `round(b[f] / (s_in · s_w[f]))`.
    bias: Vec<i32>,
    /// Requantize multipliers: `s_in · s_w[f] / s_out`.
    multipliers: Vec<f32>,
    /// Output quantization parameters.
    out_params: QuantParams,
    /// Analytic per-channel absolute error bound vs the f32 golden
    /// output (input rounding · weight L1 + weight rounding · patch
    /// magnitude + cross term + output rounding).
    bound: Vec<f32>,
}

/// Quantizes [`ConvCase`] end to end: min-max input calibration,
/// per-channel weight scales, and output scale observed from the f32
/// golden result (exactly how the quantized engine calibrates).
fn quantize_case(case: &ConvCase, golden_out: &Tensor) -> QuantConvCase {
    let abs_in = case
        .input
        .as_slice()
        .iter()
        .fold(0.0f32, |m, &x| m.max(x.abs()));
    let in_params = QuantParams::from_abs_max(abs_in);
    let mut input = vec![0i8; case.input.len()];
    quantize_into(case.input.as_slice(), in_params, &mut input);

    let mut weights = vec![0i8; case.weights.len()];
    let wparams =
        quantize_weights_per_channel(case.weights.as_slice(), case.num_output, &mut weights);

    let abs_out = golden_out
        .as_slice()
        .iter()
        .fold(0.0f32, |m, &x| m.max(x.abs()));
    let out_params = QuantParams::from_abs_max(abs_out);

    let row = case.weights.len() / case.num_output;
    let err_in = in_params.scale / 2.0;
    let mut bias = Vec::with_capacity(case.num_output);
    let mut multipliers = Vec::with_capacity(case.num_output);
    let mut bound = Vec::with_capacity(case.num_output);
    for (f, wp) in wparams.iter().enumerate() {
        let s_w = wp.scale;
        let acc_unit = in_params.scale as f64 * s_w as f64;
        bias.push((case.bias.as_slice()[f] as f64 / acc_unit).round() as i32);
        multipliers.push((acc_unit / out_params.scale as f64) as f32);
        let l1: f32 = case.weights.as_slice()[f * row..(f + 1) * row]
            .iter()
            .map(|w| w.abs())
            .sum();
        let k = row as f32;
        let layer_err =
            l1 * err_in + (s_w / 2.0) * k * (abs_in + err_in) + in_params.scale * s_w / 2.0;
        bound.push((layer_err + out_params.scale / 2.0) * 1.01 + 1e-5);
    }
    QuantConvCase {
        input,
        weights,
        bias,
        multipliers,
        out_params,
        bound,
    }
}

mod tests {
    use super::*;

    /// Cross-checks every fast path against the golden oracle, so a
    /// kernel regression fails `cargo test` without any timing loop.
    #[test]
    fn smoke_checks_pass() {
        // Single layer: implicit GEMM vs the sliding-window loop nest.
        let case = ConvCase::new();
        let want = golden::convolve(
            &case.input,
            &case.weights,
            Some(&case.bias),
            case.out_shape(),
            case.num_output,
            case.geo.kernel,
            case.geo.stride,
            case.geo.pad,
            true,
        );
        let mut out = vec![0.0f32; case.out_shape().len()];
        conv2d(
            case.input.as_slice(),
            case.weights.as_slice(),
            Some(case.bias.as_slice()),
            case.num_output,
            &case.geo,
            None,
            &mut out,
            &mut Workspace::new(),
        );
        let got = Tensor::from_vec(case.out_shape(), out);
        assert!(
            got.all_close_tol(&want, 1e-4, 1e-4),
            "implicit-GEMM convolution diverged from the golden loop nest"
        );

        // Whole networks: fast engine vs golden engine.
        for net in [zoo::tc1_weighted(3), zoo::lenet_weighted(3)] {
            let golden_engine = GoldenEngine::new(&net).expect("weighted");
            let mut fast = FastEngine::new(&net).expect("weighted");
            let mut rng = TensorRng::seeded(99);
            for _ in 0..3 {
                let img = rng.uniform(net.input_shape, -1.0, 1.0);
                let want = golden_engine.infer(&img).expect("golden runs");
                let got = fast.infer(&img).expect("fast runs");
                assert!(
                    got.all_close_tol(&want, 1e-4, 1e-4),
                    "fast engine diverged from golden on {}",
                    net.name
                );
            }
        }

        // INT8 convolution (no fused ReLU, as above): dequantized output
        // must sit inside the analytic per-channel error bound of the f32
        // golden result.
        let qcase = quantize_case(&case, &want);
        let mut qout = vec![0i8; case.out_shape().len()];
        qconv2d(
            &qcase.input,
            &qcase.weights,
            Some(&qcase.bias),
            case.num_output,
            &case.geo,
            &qcase.multipliers,
            false,
            &mut qout,
            &mut QWorkspace::new(),
        );
        let pixels = case.geo.out_h * case.geo.out_w;
        for (f, (chunk, want_chunk)) in qout
            .chunks_exact(pixels)
            .zip(want.as_slice().chunks_exact(pixels))
            .enumerate()
        {
            for (&q, &w) in chunk.iter().zip(want_chunk) {
                let err = (qcase.out_params.dequantize(q) - w).abs();
                assert!(
                    err <= qcase.bound[f],
                    "int8 convolution error {err} exceeds the analytic bound {} on channel {f}",
                    qcase.bound[f]
                );
            }
        }

        // Quantized engines: every layer inside its declared error budget
        // on the calibration inputs (the guaranteed regime).
        for net in [zoo::tc1_weighted(3), zoo::lenet_weighted(3)] {
            let mut rng = TensorRng::seeded(7);
            let calib: Vec<Tensor> = (0..4)
                .map(|_| rng.uniform(net.input_shape, -1.0, 1.0))
                .collect();
            let mut q = QuantizedEngine::calibrate(&net, &calib).expect("calibrates");
            let report = q.accuracy_report(&calib).expect("runs");
            assert!(
                report.within_budget(),
                "quantized engine exceeded its error budget on {}: {:?}",
                net.name,
                report.worst()
            );
        }

        // Threaded runtime (LeNet, one PE per layer, frame-sized chunks
        // between PE threads) vs golden batch.
        let net = zoo::lenet_weighted(5);
        let plan = PlanBuilder::new(&net)
            .build()
            .expect("zoo network plans cleanly");
        let runtime = ThreadedRuntime::new(&net, &plan).expect("runtime wires");
        let images: Vec<Tensor> = dataset::mnist_like(4, 7)
            .into_iter()
            .map(|s| s.image)
            .collect();
        let got = runtime.run_batch(&images).expect("runtime runs");
        let golden_engine = GoldenEngine::new(&net).expect("weighted");
        let want = golden_engine.infer_batch(&images).expect("golden runs");
        for (g, w) in got.iter().zip(&want) {
            assert!(
                g.all_close_tol(w, 1e-4, 1e-4),
                "threaded runtime diverged from golden"
            );
        }
    }
}

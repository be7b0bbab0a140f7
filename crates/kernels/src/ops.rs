//! Layer-level kernels assembled from the lowering and GEMM primitives.
//!
//! Every kernel writes into a caller-provided output slice and borrows
//! scratch space from a [`Workspace`], so a steady-state inference loop
//! performs no heap allocation per layer. Numerical results agree with
//! the golden loop-nest reference within f32 reassociation tolerance
//! (the GEMM accumulates each output in ascending-`k` order, the golden
//! engine in `(c, m, n)` order — same multiset of products).

use crate::gemm::{self, Epilogue, GemmBlocking};
use crate::im2col::{im2col, ConvGeometry};

/// Reusable scratch buffers for the lowering stage.
///
/// One workspace serves one inference thread: buffers grow to the
/// high-water mark of the network and are reused for every subsequent
/// layer and image.
#[derive(Debug, Default)]
pub struct Workspace {
    cols: Vec<f32>,
}

impl Workspace {
    /// A workspace with no buffers allocated yet.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A workspace pre-sized so the first inference already runs
    /// allocation-free.
    pub fn with_capacity(cols_len: usize) -> Self {
        Workspace {
            cols: vec![0.0; cols_len],
        }
    }

    /// Scratch slice of exactly `len` elements, growing the buffer on
    /// first use.
    fn cols(&mut self, len: usize) -> &mut [f32] {
        if self.cols.len() < len {
            self.cols.resize(len, 0.0);
        }
        &mut self.cols[..len]
    }

    /// Current high-water capacity of the lowering buffer.
    pub fn cols_capacity(&self) -> usize {
        self.cols.len()
    }
}

/// Elementwise activation operators.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Activation {
    /// Leaky ReLU with the given negative slope (0.0 = plain ReLU).
    Relu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

/// Convolution via im2col + tiled GEMM with a fused bias(+ReLU)
/// epilogue.
///
/// * `input` — `C×H×W` row-major (one image),
/// * `weights` — `F×C×K×K` row-major, which *is* the `F × (C·K·K)` GEMM
///   operand, so no weight repacking is needed,
/// * `out` — `F×outH×outW` row-major, exactly the GEMM result layout.
///
/// A 1×1/stride-1/no-pad convolution skips the lowering entirely: the
/// input already is the patch matrix.
///
/// # Panics
/// Panics when slice lengths disagree with the geometry.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    input: &[f32],
    weights: &[f32],
    bias: Option<&[f32]>,
    num_output: usize,
    geo: &ConvGeometry,
    fused_relu: Option<f32>,
    out: &mut [f32],
    ws: &mut Workspace,
) {
    let k_depth = geo.lowered_rows();
    let n_cols = geo.lowered_cols();
    assert_eq!(weights.len(), num_output * k_depth, "weight blob mismatch");
    assert_eq!(out.len(), num_output * n_cols, "output length mismatch");

    let epilogue = match (bias, fused_relu) {
        (Some(b), Some(slope)) => Epilogue::BiasRelu(b, slope),
        (Some(b), None) => Epilogue::Bias(b),
        (None, Some(slope)) => Epilogue::Relu(slope),
        (None, None) => Epilogue::None,
    };
    let blocking = GemmBlocking::default();
    if geo.is_identity() {
        gemm::gemm(
            num_output, n_cols, k_depth, weights, input, out, blocking, epilogue,
        );
    } else {
        let cols = ws.cols(geo.lowered_len());
        im2col(input, geo, cols);
        gemm::gemm(
            num_output, n_cols, k_depth, weights, cols, out, blocking, epilogue,
        );
    }
}

/// Pooling method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolMethod {
    /// Window maximum.
    Max,
    /// Window average over in-range positions (Caffe semantics: the
    /// divisor counts only positions inside the image).
    Average,
}

/// Sub-sampling over each feature map with direct slice arithmetic (no
/// per-element coordinate asserts).
///
/// # Panics
/// Panics when slice lengths disagree with the geometry.
#[allow(clippy::too_many_arguments)]
pub fn pool2d(
    input: &[f32],
    channels: usize,
    in_h: usize,
    in_w: usize,
    method: PoolMethod,
    kernel: usize,
    stride: usize,
    pad: usize,
    out_h: usize,
    out_w: usize,
    out: &mut [f32],
) {
    assert_eq!(input.len(), channels * in_h * in_w, "input length mismatch");
    assert_eq!(
        out.len(),
        channels * out_h * out_w,
        "output length mismatch"
    );
    let dims = (
        (channels, in_h, in_w),
        (kernel, stride, pad),
        (out_h, out_w),
    );
    let average = |sum, count: usize| sum / count.max(1) as f32;
    match method {
        PoolMethod::Max => {
            pool_windows(input, dims, out, f32::NEG_INFINITY, f32::max, |max, _| max)
        }
        PoolMethod::Average => pool_windows(input, dims, out, 0.0, |sum, v| sum + v, average),
    }
}

/// `(C, H, W)` of the input, `(kernel, stride, pad)`, `(H, W)` of the output.
type PoolDims = ((usize, usize, usize), (usize, usize, usize), (usize, usize));

/// Reduces every pooling window (clipped to the image) of every feature
/// map: `finish(fold(… fold(init, v0) …, vn), in-range count)`. Generic
/// over the reduction, so each pooling method gets its own loop nest
/// with exactly one reduction in it.
fn pool_windows(
    input: &[f32],
    ((channels, in_h, in_w), (kernel, stride, pad), (out_h, out_w)): PoolDims,
    out: &mut [f32],
    init: f32,
    fold: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32, usize) -> f32,
) {
    for c in 0..channels {
        let map = &input[c * in_h * in_w..(c + 1) * in_h * in_w];
        let omap = &mut out[c * out_h * out_w..(c + 1) * out_h * out_w];
        for i in 0..out_h {
            let h_lo = (i * stride) as isize - pad as isize;
            let hh_lo = h_lo.max(0) as usize;
            let hh_hi = (h_lo + kernel as isize).clamp(0, in_h as isize) as usize;
            for j in 0..out_w {
                let w_lo = (j * stride) as isize - pad as isize;
                let ww_lo = w_lo.max(0) as usize;
                let ww_hi = (w_lo + kernel as isize).clamp(0, in_w as isize) as usize;
                let mut acc = init;
                for hh in hh_lo..hh_hi {
                    for &v in &map[hh * in_w + ww_lo..hh * in_w + ww_hi] {
                        acc = fold(acc, v);
                    }
                }
                let count = (hh_hi.saturating_sub(hh_lo)) * (ww_hi.saturating_sub(ww_lo));
                omap[i * out_w + j] = finish(acc, count);
            }
        }
    }
}

/// Applies an activation out-of-place (`out[i] = f(input[i])`).
///
/// # Panics
/// Panics on length mismatch.
pub fn activate(input: &[f32], act: Activation, out: &mut [f32]) {
    assert_eq!(input.len(), out.len(), "activation length mismatch");
    match act {
        Activation::Relu(slope) => {
            for (o, &v) in out.iter_mut().zip(input) {
                *o = if v > 0.0 { v } else { slope * v };
            }
        }
        Activation::Sigmoid => {
            for (o, &v) in out.iter_mut().zip(input) {
                *o = 1.0 / (1.0 + (-v).exp());
            }
        }
        Activation::Tanh => {
            for (o, &v) in out.iter_mut().zip(input) {
                *o = v.tanh();
            }
        }
    }
}

/// Numerically-stable (log-)softmax into `out`.
///
/// # Panics
/// Panics on length mismatch.
pub fn softmax(input: &[f32], log: bool, out: &mut [f32]) {
    assert_eq!(input.len(), out.len(), "softmax length mismatch");
    let max = input.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (o, &v) in out.iter_mut().zip(input) {
        let e = (v - max).exp();
        *o = e;
        sum += e;
    }
    if log {
        let ln_sum = sum.ln();
        for (o, &v) in out.iter_mut().zip(input) {
            *o = (v - max) - ln_sum;
        }
    } else {
        for o in out.iter_mut() {
            *o /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_tensor::Shape;

    fn geo(in_c: usize, in_h: usize, in_w: usize, k: usize, s: usize, p: usize) -> ConvGeometry {
        ConvGeometry {
            in_c,
            in_h,
            in_w,
            kernel: k,
            stride: s,
            pad: p,
            out_h: Shape::conv_out_dim(in_h, k, s, p),
            out_w: Shape::conv_out_dim(in_w, k, s, p),
        }
    }

    #[test]
    fn hand_convolution() {
        // Same case as the golden engine's hand test: 2×2 input, 2×2
        // kernel, bias 0.5 → 70.5.
        let g = geo(1, 2, 2, 2, 1, 0);
        let mut out = [0.0f32];
        let mut ws = Workspace::new();
        conv2d(
            &[5.0, 6.0, 7.0, 8.0],
            &[1.0, 2.0, 3.0, 4.0],
            Some(&[0.5]),
            1,
            &g,
            None,
            &mut out,
            &mut ws,
        );
        assert_eq!(out, [70.5]);
    }

    #[test]
    fn one_by_one_conv_skips_lowering() {
        let g = geo(2, 3, 3, 1, 1, 0);
        assert!(g.is_identity());
        let input: Vec<f32> = (0..18).map(|v| v as f32).collect();
        let weights = [10.0, 100.0]; // one output map summing both inputs
        let mut out = [0.0f32; 9];
        let mut ws = Workspace::new();
        conv2d(&input, &weights, None, 1, &g, None, &mut out, &mut ws);
        assert_eq!(ws.cols_capacity(), 0, "identity lowering must not allocate");
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 10.0 * i as f32 + 100.0 * (i + 9) as f32);
        }
    }

    #[test]
    fn fused_relu_matches_separate_relu() {
        let g = geo(2, 5, 5, 3, 1, 1);
        let input: Vec<f32> = (0..50).map(|v| (v as f32 - 25.0) * 0.2).collect();
        let weights: Vec<f32> = (0..3 * 18).map(|v| ((v % 7) as f32 - 3.0) * 0.3).collect();
        let bias = [0.1, -0.2, 0.3];
        let mut ws = Workspace::new();
        let mut fused = vec![0.0; 3 * 25];
        conv2d(
            &input,
            &weights,
            Some(&bias),
            3,
            &g,
            Some(0.0),
            &mut fused,
            &mut ws,
        );
        let mut plain = vec![0.0; 3 * 25];
        conv2d(
            &input,
            &weights,
            Some(&bias),
            3,
            &g,
            None,
            &mut plain,
            &mut ws,
        );
        let mut relu = vec![0.0; 3 * 25];
        activate(&plain, Activation::Relu(0.0), &mut relu);
        assert_eq!(fused, relu);
    }

    #[test]
    fn max_pool_hand_values() {
        let input = [
            1.0, 2.0, 5.0, 6.0, //
            3.0, 4.0, 7.0, 8.0, //
            -1.0, -2.0, 0.0, 0.0, //
            -3.0, -4.0, 0.0, 9.0,
        ];
        let mut out = [0.0f32; 4];
        pool2d(&input, 1, 4, 4, PoolMethod::Max, 2, 2, 0, 2, 2, &mut out);
        assert_eq!(out, [4.0, 8.0, -1.0, 9.0]);
        pool2d(
            &input,
            1,
            4,
            4,
            PoolMethod::Average,
            2,
            2,
            0,
            2,
            2,
            &mut out,
        );
        assert_eq!(out, [2.5, 6.5, -2.5, 2.25]);
    }

    #[test]
    fn average_pool_excludes_padding_from_divisor() {
        // 2×2 input, 2×2 window, stride 2, pad 1 → 2×2 output where each
        // window sees exactly one in-range value.
        let input = [1.0, 2.0, 3.0, 6.0];
        let mut out = [0.0f32; 4];
        pool2d(
            &input,
            1,
            2,
            2,
            PoolMethod::Average,
            2,
            2,
            1,
            2,
            2,
            &mut out,
        );
        assert_eq!(out, [1.0, 2.0, 3.0, 6.0]);
    }

    #[test]
    fn activations_match_closed_forms() {
        let input = [-2.0, -0.5, 0.0, 3.0];
        let mut out = [0.0f32; 4];
        activate(&input, Activation::Relu(0.0), &mut out);
        assert_eq!(out, [0.0, 0.0, 0.0, 3.0]);
        activate(&input, Activation::Relu(0.1), &mut out);
        assert!((out[0] + 0.2).abs() < 1e-6);
        activate(&input, Activation::Sigmoid, &mut out);
        assert!((out[2] - 0.5).abs() < 1e-6);
        activate(&input, Activation::Tanh, &mut out);
        assert_eq!(out[2], 0.0);
    }

    #[test]
    fn softmax_normalises_and_logs() {
        let input = [1.0, 2.0, 3.0];
        let mut p = [0.0f32; 3];
        softmax(&input, false, &mut p);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        let mut lp = [0.0f32; 3];
        softmax(&input, true, &mut lp);
        for (a, b) in p.iter().zip(&lp) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn workspace_reuses_high_water_buffer() {
        let mut ws = Workspace::new();
        let g = geo(2, 6, 6, 3, 1, 1);
        let input = vec![0.5; 72];
        let weights = vec![0.1; 4 * 18];
        let mut out = vec![0.0; 4 * 36];
        conv2d(&input, &weights, None, 4, &g, None, &mut out, &mut ws);
        let cap = ws.cols_capacity();
        assert_eq!(cap, g.lowered_len());
        // A smaller layer must not shrink or grow the buffer.
        let g2 = geo(1, 4, 4, 3, 1, 0);
        let mut out2 = vec![0.0; 4];
        conv2d(
            &input[..16],
            &weights[..9],
            None,
            1,
            &g2,
            None,
            &mut out2,
            &mut ws,
        );
        assert_eq!(ws.cols_capacity(), cap);
    }
}

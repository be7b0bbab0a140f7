//! Layer-level kernels assembled from the GEMM primitive.
//!
//! Every kernel writes into a caller-provided output slice, so a
//! steady-state inference loop performs no heap allocation per layer.
//! Convolution is an implicit GEMM: the GEMM packs its `B` operand
//! straight from the input feature maps ([`conv2d`]), so no patch matrix
//! and no scratch buffer exist. Numerical results agree with the golden
//! loop-nest reference within f32 reassociation tolerance (the GEMM
//! accumulates each output in ascending-`k` order, the golden engine in
//! `(c, m, n)` order — same multiset of products).

use crate::gemm::{self, Epilogue, GemmBlocking, SliceB, NR};
use crate::im2col::ConvGeometry;

/// Scratch space for the f32 layer kernels, which need none.
///
/// Convolution packs its GEMM operand straight from the input, so a
/// workspace holds nothing and costs nothing to create. The type and its
/// constructors stay only because callers of [`conv2d`] — `condor-nn`'s
/// `forward_layer_fast` and the `perf` benchmark — still pass one.
#[derive(Debug, Default)]
pub struct Workspace {}

impl Workspace {
    /// An (empty) workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// An (empty) workspace; `cols_len` is ignored, since convolution
    /// no longer lowers into a buffer.
    pub fn with_capacity(cols_len: usize) -> Self {
        let _ = cols_len;
        Workspace::default()
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

/// Convolution as an implicit GEMM with a fused bias(+ReLU) epilogue.
///
/// * `input` — `C×H×W` row-major (one image),
/// * `weights` — `F×C×K×K` row-major, which *is* the `F × (C·K·K)` GEMM
///   operand, so no weight repacking is needed,
/// * `out` — `F×outH×outW` row-major, exactly the GEMM result layout.
///
/// The `(C·K·K) × (outH·outW)` patch matrix is never written: the GEMM
/// packs each `kc × 24` slice of it straight from `input`. A slice row
/// `(c, kh, kw)` over 24 output positions splits into runs at output-row
/// ends; a run inside the image is one copy of part of an input row, and
/// only runs that touch the padding, or use stride > 1, are gathered
/// element by element. The packed values are the ones
/// [`im2col`](crate::im2col::im2col) would write, so the result is bit
/// for bit that of `im2col` followed by [`gemm`](crate::gemm::gemm), for
/// every geometry including 1×1. `ws` is unused (see [`Workspace`]).
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
    let _ = ws;
    let patches = ConvPatches::new(input, geo);
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
    gemm::gemm_packed(
        num_output,
        n_cols,
        k_depth,
        weights,
        &patches,
        out,
        GemmBlocking::default(),
        epilogue,
    );
}

/// The patch matrix of a convolution, read from its `C×H×W` input as the
/// GEMM packs it: row `(c·K + kh)·K + kw`, column `oi·outW + oj` is the
/// zero-padded `x[c, oi·stride + kh − pad, oj·stride + kw − pad]`.
struct ConvPatches<'a> {
    input: &'a [f32],
    geo: &'a ConvGeometry,
}

impl<'a> ConvPatches<'a> {
    fn new(input: &'a [f32], geo: &'a ConvGeometry) -> Self {
        assert_eq!(
            input.len(),
            geo.in_c * geo.in_h * geo.in_w,
            "input length does not match geometry"
        );
        ConvPatches { input, geo }
    }
}

impl SliceB for ConvPatches<'_> {
    fn slice<'s>(
        &'s self,
        kb: usize,
        jb: usize,
        depth: usize,
        buf: &'s mut [[f32; NR]],
    ) -> &'s [[f32; NR]] {
        let dst = &mut buf[..depth];
        // A reduction depth of 0 still packs one empty slice, and a 0×0
        // kernel would divide by zero below.
        if dst.is_empty() {
            return dst;
        }
        let g = self.geo;
        let (k, stride, pad) = (g.kernel, g.stride, g.pad);
        let (in_h, in_w, out_w) = (g.in_h, g.in_w, g.out_w);
        let jw = NR.min(g.lowered_cols() - jb);
        // (first slice column, output row, output column, length).
        let mut runs = [(0, 0, 0, 0); NR];
        let mut count = 0;
        let (mut at, mut oi, mut oj) = (0, jb / out_w, jb % out_w);
        while at < jw {
            let len = (out_w - oj).min(jw - at);
            runs[count] = (at, oi, oj, len);
            (count, at, oi, oj) = (count + 1, at + len, oi + 1, 0);
        }
        let runs = &runs[..count];

        let map_len = in_h * in_w;
        let (mut c, mut kh, mut kw) = (kb / (k * k), kb / k % k, kb % k);
        for row in dst.iter_mut() {
            let map = &self.input[c * map_len..(c + 1) * map_len];
            for &(at, oi, oj, len) in runs {
                let out = &mut row[at..at + len];
                // A coordinate above or left of the image wraps to a huge
                // value, so one comparison tests both edges.
                let ih = (oi * stride + kh).wrapping_sub(pad);
                if ih >= in_h {
                    out.fill(0.0);
                    continue;
                }
                let line = &map[ih * in_w..(ih + 1) * in_w];
                let iw = (oj * stride + kw).wrapping_sub(pad);
                if stride == 1 && iw < in_w && in_w - iw >= len {
                    out.copy_from_slice(&line[iw..iw + len]);
                } else {
                    for (t, v) in out.iter_mut().enumerate() {
                        let x = iw.wrapping_add(t * stride);
                        *v = if x < in_w { line[x] } else { 0.0 };
                    }
                }
            }
            row[jw..].fill(0.0);
            kw += 1;
            if kw == k {
                kw = 0;
                kh += 1;
                if kh == k {
                    kh = 0;
                    c += 1;
                }
            }
        }
        dst
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
/// map: `finish(fold(… fold(init, v0) …, vn), in-range count)`, the
/// window's values folded in row-major order. Generic over the
/// reduction, so each pooling method gets its own loop nest with
/// exactly one reduction in it.
///
/// Non-overlapping windows that all lie inside the image (kernel ==
/// stride, no padding: every zoo pooling layer on an even map) take a
/// row path: an output row reads its `K` input rows as `K` slices, and
/// its loop over windows has no clipping arithmetic in it, so LLVM
/// vectorises it across windows. Each window still folds its values in
/// row-major order, so the output is the general loop's bit for bit.
fn pool_windows(
    input: &[f32],
    dims: PoolDims,
    out: &mut [f32],
    init: f32,
    fold: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32, usize) -> f32,
) {
    let ((_, in_h, in_w), (kernel, stride, pad), (out_h, out_w)) = dims;
    let tiles = kernel == stride && pad == 0 && out_h * kernel <= in_h && out_w * kernel <= in_w;
    match kernel {
        2 if tiles => pool_rows::<2>(input, dims, out, init, fold, finish),
        3 if tiles => pool_rows::<3>(input, dims, out, init, fold, finish),
        _ => pool_clipped(input, dims, out, init, fold, finish),
    }
}

/// [`pool_windows`]' row path for `K×K` windows at stride `K`, none of
/// them clipped.
fn pool_rows<const K: usize>(
    input: &[f32],
    ((channels, in_h, in_w), _, (out_h, out_w)): PoolDims,
    out: &mut [f32],
    init: f32,
    fold: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32, usize) -> f32,
) {
    let maps = input.chunks_exact(in_h * in_w).take(channels);
    for (map, omap) in maps.zip(out.chunks_exact_mut(out_h * out_w)) {
        for (i, orow) in omap.chunks_exact_mut(out_w).enumerate() {
            let lines: [&[f32]; K] =
                std::array::from_fn(|r| &map[(i * K + r) * in_w..][..out_w * K]);
            for (j, o) in orow.iter_mut().enumerate() {
                let mut acc = init;
                for line in &lines {
                    for &v in &line[j * K..j * K + K] {
                        acc = fold(acc, v);
                    }
                }
                *o = finish(acc, K * K);
            }
        }
    }
}

/// [`pool_windows`]' general loop: any kernel, stride and padding, each
/// window clipped to the image.
fn pool_clipped(
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
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 10.0 * i as f32 + 100.0 * (i + 9) as f32);
        }
    }

    /// `im2col` followed by the dense GEMM: the explicit lowering the
    /// implicit one must reproduce bit for bit.
    fn lowered(
        input: &[f32],
        weights: &[f32],
        f: usize,
        g: &ConvGeometry,
        ep: Epilogue,
    ) -> Vec<u32> {
        let mut cols = vec![0.0; g.lowered_len()];
        crate::im2col::im2col(input, g, &mut cols);
        let (n, k) = (g.lowered_cols(), g.lowered_rows());
        let mut out = vec![f32::NAN; f * n];
        gemm::gemm(
            f,
            n,
            k,
            weights,
            &cols,
            &mut out,
            GemmBlocking::default(),
            ep,
        );
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// Every conv shape of `zoo::lenet`, `zoo::tc1`, the `vgg16` prefix
    /// at 56×56 and `zoo::resnet_block` (`condor-nn` depends on this
    /// crate, so the shapes are listed here), on 1, 2 and 3 row bands.
    /// The `vgg56` layers run with 12 filters instead of 64/128: the
    /// packed values depend only on the geometry, and 12 rows still make
    /// three bands of one tile each.
    #[test]
    fn implicit_gemm_matches_im2col_on_zoo_shapes() {
        // (C, H, W, K, stride, pad, F)
        let shapes = [
            (1, 28, 28, 5, 1, 0, 20),   // lenet conv1
            (20, 12, 12, 5, 1, 0, 50),  // lenet conv2
            (1, 16, 16, 5, 1, 0, 8),    // tc1 conv1
            (8, 6, 6, 5, 1, 0, 16),     // tc1 conv2
            (3, 56, 56, 3, 1, 1, 12),   // vgg56 conv1_1
            (64, 56, 56, 3, 1, 1, 12),  // vgg56 conv1_2
            (64, 28, 28, 3, 1, 1, 12),  // vgg56 conv2_1
            (128, 28, 28, 3, 1, 1, 12), // vgg56 conv2_2
            (3, 8, 8, 3, 1, 1, 8),      // resnet_block conv1
            (8, 8, 8, 3, 1, 1, 8),      // resnet_block conv2
        ];
        for (c, h, w, k, s, p, f) in shapes {
            let g = geo(c, h, w, k, s, p);
            let input: Vec<f32> = (0..c * h * w)
                .map(|v| ((v * 7 % 23) as f32 - 11.0) * 0.1)
                .collect();
            let weights: Vec<f32> = (0..f * g.lowered_rows())
                .map(|v| ((v * 5 % 17) as f32 - 8.0) * 0.03)
                .collect();
            let bias: Vec<f32> = (0..f).map(|v| v as f32 * 0.01 - 0.05).collect();
            let ep = Epilogue::BiasRelu(&bias, 0.1);
            let want = lowered(&input, &weights, f, &g, ep);
            let patches = ConvPatches::new(&input, &g);
            let (n, kd) = (g.lowered_cols(), g.lowered_rows());
            for bands in 1..=3 {
                let mut out = vec![f32::NAN; f * n];
                let bl = GemmBlocking::default();
                gemm::gemm_on(bands, f, n, kd, &weights, &patches, &mut out, bl, ep);
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert!(got == want, "({c},{h},{w}) k{k} s{s} p{p} on {bands} bands");
            }
        }
    }

    #[test]
    #[should_panic(expected = "input length does not match geometry")]
    fn short_input_is_rejected() {
        let g = geo(2, 4, 4, 3, 1, 0);
        let mut out = [0.0f32; 4];
        conv2d(
            &[0.0; 31],
            &[0.0; 18],
            None,
            1,
            &g,
            None,
            &mut out,
            &mut Workspace::new(),
        );
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

    /// The row path of non-overlapping pooling against the general loop,
    /// bit for bit: max and average, 2×2 and 3×3 windows at stride =
    /// kernel, on maps that tile exactly and on odd sizes whose last
    /// window is clipped (which must fall back to the general loop).
    #[test]
    fn pool_row_path_matches_general_loop() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for k in [2, 3] {
            for (h, w) in [(4 * k, 6 * k), (2 * k, 2 * k), (2 * k + 1, 3 * k), (5, 7)] {
                let c = 3;
                let input: Vec<f32> = (0..c * h * w)
                    .map(|v| ((v * 37 % 101) as f32 - 50.0) * 0.013)
                    .collect();
                let (oh, ow) = (
                    Shape::pool_out_dim(h, k, k, 0),
                    Shape::pool_out_dim(w, k, k, 0),
                );
                let dims = ((c, h, w), (k, k, 0), (oh, ow));
                let average = |sum, count: usize| sum / count.max(1) as f32;
                for method in [PoolMethod::Max, PoolMethod::Average] {
                    let mut got = vec![f32::NAN; c * oh * ow];
                    pool2d(&input, c, h, w, method, k, k, 0, oh, ow, &mut got);
                    let mut want = vec![f32::NAN; c * oh * ow];
                    match method {
                        PoolMethod::Max => pool_clipped(
                            &input,
                            dims,
                            &mut want,
                            f32::NEG_INFINITY,
                            f32::max,
                            |max, _| max,
                        ),
                        PoolMethod::Average => {
                            pool_clipped(&input, dims, &mut want, 0.0, |s, v| s + v, average)
                        }
                    }
                    assert_eq!(bits(&got), bits(&want), "{method:?} k{k} {h}×{w}");
                }
            }
        }
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
}

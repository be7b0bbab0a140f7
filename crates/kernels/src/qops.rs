//! Quantized layer kernels assembled from the INT8 lowering and GEMM.
//!
//! Mirrors [`crate::ops`] for the `i8` domain: every kernel writes into
//! a caller-provided slice and borrows scratch from a [`QWorkspace`],
//! so steady-state quantized inference allocates nothing. Convolution
//! lowers with the patch-major [`im2col_i8_patches`] (symmetric
//! quantization maps real 0 to quantized 0, so zero padding carries over
//! unchanged) and runs the packed `i8` GEMM, which requantizes its `i32`
//! accumulators through the fused bias/clamp(/ReLU) epilogue.

use crate::im2col::{im2col_i8_patches, ConvGeometry};
use crate::qgemm::{gemm_i8_requant, QWorkspace};
use crate::GemmBlocking;
use crate::PoolMethod;

/// Quantized convolution: patch-major int8 im2col + packed GEMM + fused
/// requantize.
///
/// * `input` — `C×H×W` row-major `i8` (one image),
/// * `weights` — `F×C×K×K` row-major `i8` (per-channel quantized),
/// * `bias` — per output channel, in accumulator units
///   (`round(b[f] / (s_in · s_w[f]))`),
/// * `multipliers` — per output channel, `s_in · s_w[f] / s_out`,
/// * `out` — `F×outH×outW` row-major `i8`.
///
/// The lowering emits patches in the transposed (patch-major) layout the
/// packed GEMM consumes directly, so there is no repack between lowering
/// and compute (see [`crate::qgemm`]).
///
/// # Panics
/// Panics when slice lengths disagree with the geometry.
#[allow(clippy::too_many_arguments)]
pub fn qconv2d(
    input: &[i8],
    weights: &[i8],
    bias: Option<&[i32]>,
    num_output: usize,
    geo: &ConvGeometry,
    multipliers: &[f32],
    relu: bool,
    out: &mut [i8],
    ws: &mut QWorkspace,
) {
    let k_depth = geo.lowered_rows();
    let n_cols = geo.lowered_cols();
    assert_eq!(weights.len(), num_output * k_depth, "weight blob mismatch");
    assert_eq!(out.len(), num_output * n_cols, "output length mismatch");

    // Detach the lowering buffer so the workspace's widening and
    // accumulator planes stay borrowable for the GEMM.
    let mut cols = ws.take_cols();
    let len = geo.lowered_len();
    cols.resize(len, 0);
    im2col_i8_patches(input, geo, &mut cols[..len]);
    gemm_i8_requant(
        num_output,
        n_cols,
        k_depth,
        weights,
        &cols[..len],
        out,
        GemmBlocking::default(),
        bias,
        multipliers,
        relu,
        ws,
    );
    ws.put_cols(cols);
}

/// Quantized sub-sampling over each `i8` feature map.
///
/// Max pooling is exact in the quantized domain (max commutes with the
/// monotone dequantization). Average pooling sums into `i32` and rounds
/// the quotient to nearest, so the output stays on the input's scale
/// with at most half a step of additional rounding error.
///
/// # Panics
/// Panics when slice lengths disagree with the geometry.
#[allow(clippy::too_many_arguments)]
pub fn qpool2d(
    input: &[i8],
    channels: usize,
    in_h: usize,
    in_w: usize,
    method: PoolMethod,
    kernel: usize,
    stride: usize,
    pad: usize,
    out_h: usize,
    out_w: usize,
    out: &mut [i8],
) {
    assert_eq!(input.len(), channels * in_h * in_w, "input length mismatch");
    assert_eq!(
        out.len(),
        channels * out_h * out_w,
        "output length mismatch"
    );
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
                let mut max = i8::MIN;
                let mut sum = 0i32;
                for hh in hh_lo..hh_hi {
                    let row = &map[hh * in_w + ww_lo..hh * in_w + ww_hi];
                    for &v in row {
                        max = max.max(v);
                        sum += v as i32;
                    }
                }
                let count = (hh_hi.saturating_sub(hh_lo)) * (ww_hi.saturating_sub(ww_lo));
                omap[i * out_w + j] = match method {
                    PoolMethod::Max => max,
                    PoolMethod::Average => {
                        let q = (sum as f64 / count.max(1) as f64).round();
                        q.clamp(-127.0, 127.0) as i8
                    }
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::quant::{quantize_weights_per_channel, QuantParams};
    use crate::{conv2d, pool2d, Workspace};
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

    /// End-to-end sanity: quantize a small conv layer, run qconv2d and
    /// check the dequantized output tracks the f32 kernel within the
    /// analytic bound (requant step + weight-quant + input-quant terms).
    #[test]
    fn quantized_conv_tracks_f32_conv() {
        let g = geo(2, 6, 6, 3, 1, 1);
        let input: Vec<f32> = (0..72)
            .map(|v| ((v * 31 % 17) as f32 - 8.0) * 0.1)
            .collect();
        let weights: Vec<f32> = (0..4 * 18)
            .map(|v| ((v * 13 % 11) as f32 - 5.0) * 0.05)
            .collect();
        let bias = [0.05f32, -0.1, 0.2, 0.0];

        let mut want = vec![0.0f32; 4 * 36];
        let mut ws_f = Workspace::new();
        conv2d(
            &input,
            &weights,
            Some(&bias),
            4,
            &g,
            None,
            &mut want,
            &mut ws_f,
        );

        // Quantize operands.
        let in_absmax = input.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let p_in = QuantParams::from_abs_max(in_absmax);
        let mut q_in = vec![0i8; input.len()];
        crate::quant::quantize_into(&input, p_in, &mut q_in);
        let mut q_w = vec![0i8; weights.len()];
        let p_w = quantize_weights_per_channel(&weights, 4, &mut q_w);
        let out_absmax = want.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let p_out = QuantParams::from_abs_max(out_absmax);
        let q_bias: Vec<i32> = bias
            .iter()
            .zip(&p_w)
            .map(|(&b, pw)| (b as f64 / (p_in.scale as f64 * pw.scale as f64)).round() as i32)
            .collect();
        let mult: Vec<f32> = p_w
            .iter()
            .map(|pw| (p_in.scale as f64 * pw.scale as f64 / p_out.scale as f64) as f32)
            .collect();

        let mut q_out = vec![0i8; 4 * 36];
        let mut ws = QWorkspace::new();
        qconv2d(
            &q_in,
            &q_w,
            Some(&q_bias),
            4,
            &g,
            &mult,
            false,
            &mut q_out,
            &mut ws,
        );

        let k_row = g.lowered_rows() as f32;
        for (o, (q, &w)) in q_out.iter().zip(&want).enumerate() {
            let ch = o / 36;
            let got = *q as f32 * p_out.scale;
            let budget = p_out.scale / 2.0
                + weights[ch * 18..(ch + 1) * 18]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f32>()
                    * (p_in.scale / 2.0)
                + (p_w[ch].scale / 2.0) * k_row * in_absmax
                + p_in.scale * p_w[ch].scale
                + 1e-4;
            assert!(
                (got - w).abs() <= budget,
                "elem {o}: |{got} - {w}| > {budget}"
            );
        }
    }

    #[test]
    fn quantized_max_pool_is_exact() {
        let q: Vec<i8> = (0..32).map(|v| (v * 29 % 255 - 127) as i8).collect();
        let f: Vec<f32> = q.iter().map(|&v| v as f32).collect();
        let mut qo = vec![0i8; 8];
        qpool2d(&q, 2, 4, 4, PoolMethod::Max, 2, 2, 0, 2, 2, &mut qo);
        let mut fo = vec![0.0f32; 8];
        pool2d(&f, 2, 4, 4, PoolMethod::Max, 2, 2, 0, 2, 2, &mut fo);
        for (a, b) in qo.iter().zip(&fo) {
            assert_eq!(*a as f32, *b);
        }
    }

    #[test]
    fn quantized_average_pool_rounds_within_half_a_step() {
        let q: Vec<i8> = (0..16).map(|v| (v * 7 - 60) as i8).collect();
        let f: Vec<f32> = q.iter().map(|&v| v as f32).collect();
        let mut qo = vec![0i8; 4];
        qpool2d(&q, 1, 4, 4, PoolMethod::Average, 2, 2, 0, 2, 2, &mut qo);
        let mut fo = vec![0.0f32; 4];
        pool2d(&f, 1, 4, 4, PoolMethod::Average, 2, 2, 0, 2, 2, &mut fo);
        for (a, b) in qo.iter().zip(&fo) {
            assert!((*a as f32 - b).abs() <= 0.5, "{a} vs {b}");
        }
    }

    #[test]
    fn average_pool_divisor_excludes_padding() {
        // Same Caffe semantics as the f32 kernel: pad 1, stride 2 on a
        // 2×2 input — each window sees exactly one in-range value.
        let q = [10i8, 20, 30, 60];
        let mut out = [0i8; 4];
        qpool2d(&q, 1, 2, 2, PoolMethod::Average, 2, 2, 1, 2, 2, &mut out);
        assert_eq!(out, [10, 20, 30, 60]);
    }
}

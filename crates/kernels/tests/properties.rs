//! Property tests for the compute-kernel layer: the tiled GEMM bit for
//! bit against a textbook triple loop, the implicit-GEMM convolution bit
//! for bit against im2col + GEMM, the Winograd convolution against the
//! implicit-GEMM one within a rounding bound, and the im2col lowering
//! against per-element padded gathers, across randomly drawn shapes and
//! geometries.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor_kernels::{
    conv2d, conv2d_winograd, gemm_f32, gemv, im2col, winograd_scratch_len, ConvGeometry, Epilogue,
    GemmBlocking, WinogradFilters, Workspace, WINOGRAD_MIN_CHANNELS,
};
use condor_tensor::{Shape, Tensor, TensorRng};
use proptest::prelude::*;

/// Textbook `C = epilogue(A·B)`: ascending `k`, one fused multiply-add
/// per product, the epilogue as its own pass — the exact reduction the
/// tiled kernel guarantees, so comparisons against it are bit for bit.
fn naive_matmul(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    epilogue: Epilogue<'_>,
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                c[i * n + j] = a[i * k + p].mul_add(b[p * n + j], c[i * n + j]);
            }
        }
        let (bias, slope) = match epilogue {
            Epilogue::None => (None, None),
            Epilogue::Bias(bias) => (Some(bias[i]), None),
            Epilogue::Relu(slope) => (None, Some(slope)),
            Epilogue::BiasRelu(bias, slope) => (Some(bias[i]), Some(slope)),
        };
        for v in &mut c[i * n..(i + 1) * n] {
            if let Some(bv) = bias {
                *v += bv;
            }
            if let Some(slope) = slope {
                if *v < 0.0 {
                    *v *= slope;
                }
            }
        }
    }
    c
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Largest |Winograd − direct| accepted on an output, per unit of the
/// magnitude Σ|w·x| (+ |bias|) it was summed from: 16 ulps of 1. Over
/// 256 random cases the worst seen was 10.2 ulps (7.1 over the default
/// 64); both convolutions round, and the direct one's share of that is
/// not Winograd's (against an `f64` reference, F(4×4, 3×3) alone stays
/// within 8 ulps: `winograd::tests::error_within_8_ulps_of_f64`).
const WINOGRAD_TOLERANCE: f32 = 16.0 * f32::EPSILON;

fn geometry(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> ConvGeometry {
    ConvGeometry {
        in_c: c,
        in_h: h,
        in_w: w,
        kernel: k,
        stride: s,
        pad: p,
        out_h: Shape::conv_out_dim(h, k, s, p),
        out_w: Shape::conv_out_dim(w, k, s, p),
    }
}

proptest! {
    /// The tiled GEMM is bit-identical to the naive triple loop for
    /// every shape (tiles of 4×24: `m`, `n` reach past two of each),
    /// every blocking (`kc` below `k` cuts the reduction into slices) and
    /// every epilogue.
    #[test]
    fn gemm_matches_naive_matmul(
        seed in any::<u64>(),
        m in 1usize..24,
        n in 1usize..56,
        k in 1usize..40,
        mc in 0usize..8,
        nc in 0usize..8,
        kc in 0usize..12,
        variant in 0usize..4,
        slope in 0.0f32..0.5,
    ) {
        let mut rng = TensorRng::seeded(seed);
        let a = rng.uniform(Shape::vector(m * k), -1.0, 1.0);
        let b = rng.uniform(Shape::vector(k * n), -1.0, 1.0);
        let bias = rng.uniform(Shape::vector(m), -0.5, 0.5);
        let epilogue = match variant {
            0 => Epilogue::None,
            1 => Epilogue::Bias(bias.as_slice()),
            2 => Epilogue::Relu(slope),
            _ => Epilogue::BiasRelu(bias.as_slice(), slope),
        };
        let want = naive_matmul(m, n, k, a.as_slice(), b.as_slice(), epilogue);
        for blocking in [GemmBlocking::default(), GemmBlocking { mc, nc, kc }] {
            let mut c = vec![f32::NAN; m * n];
            gemm_f32(m, n, k, a.as_slice(), b.as_slice(), &mut c, blocking, epilogue);
            prop_assert_eq!(bits(&c), bits(&want), "({},{},{}) {:?}", m, n, k, blocking);
        }
    }

    /// Fused epilogues equal the plain GEMM followed by an explicit
    /// bias-add and leaky-ReLU pass, bit for bit.
    #[test]
    fn fused_epilogue_matches_separate_pass(
        seed in any::<u64>(),
        m in 1usize..12,
        n in 1usize..12,
        k in 1usize..12,
        slope in 0.0f32..0.5,
    ) {
        let mut rng = TensorRng::seeded(seed);
        let a = rng.uniform(Shape::vector(m * k), -1.0, 1.0);
        let b = rng.uniform(Shape::vector(k * n), -1.0, 1.0);
        let bias = rng.uniform(Shape::vector(m), -0.5, 0.5);
        let mut fused = vec![0.0f32; m * n];
        gemm_f32(
            m, n, k,
            a.as_slice(), b.as_slice(), &mut fused,
            GemmBlocking::default(), Epilogue::BiasRelu(bias.as_slice(), slope),
        );
        let mut plain = vec![0.0f32; m * n];
        gemm_f32(
            m, n, k,
            a.as_slice(), b.as_slice(), &mut plain,
            GemmBlocking::default(), Epilogue::None,
        );
        for i in 0..m {
            for j in 0..n {
                let v = plain[i * n + j] + bias.as_slice()[i];
                plain[i * n + j] = if v >= 0.0 { v } else { slope * v };
            }
        }
        prop_assert_eq!(fused, plain);
    }

    /// Convolution packs its GEMM operand straight from the input; the
    /// output must be bit for bit that of the explicit im2col + GEMM.
    /// `out_w` falls below, at and above the 24-column tile, so slices
    /// span several output rows and part of one; with `deep`, `C·K·K`
    /// exceeds the 256-row `k`-slice, which then starts partway through
    /// a channel when `K` is odd.
    #[test]
    fn conv2d_matches_im2col_then_gemm(
        seed in any::<u64>(),
        f in 1usize..10,
        c in 1usize..4,
        deep in any::<bool>(),
        h in 1usize..6,
        out_w in prop_oneof![1usize..24, Just(24usize), 25usize..48],
        slack in 0usize..3,
        k in 1usize..=5,
        s in 1usize..=3,
        p in 0usize..=2,
        variant in 0usize..4,
        slope in 0.0f32..0.5,
    ) {
        // The input width that gives `out_w` columns (any of the `s`
        // widths that do).
        let wide = (out_w - 1) * s + k + slack % s;
        prop_assume!(wide > 2 * p && h + 2 * p >= k);
        let c = if deep { 256 / (k * k) + c } else { c };
        let geo = geometry(c, h, wide - 2 * p, k, s, p);
        prop_assert_eq!(geo.out_w, out_w);
        let mut rng = TensorRng::seeded(seed);
        let input = rng.uniform(Shape::chw(c, geo.in_h, geo.in_w), -1.0, 1.0);
        let weights = rng.uniform(Shape::vector(f * geo.lowered_rows()), -1.0, 1.0);
        let bias = rng.uniform(Shape::vector(f), -0.5, 0.5);
        let (bias_arg, relu) = match variant {
            0 => (None, None),
            1 => (Some(bias.as_slice()), None),
            2 => (None, Some(slope)),
            _ => (Some(bias.as_slice()), Some(slope)),
        };
        let epilogue = match (bias_arg, relu) {
            (Some(b), Some(r)) => Epilogue::BiasRelu(b, r),
            (Some(b), None) => Epilogue::Bias(b),
            (None, Some(r)) => Epilogue::Relu(r),
            (None, None) => Epilogue::None,
        };
        let (n, kd) = (geo.lowered_cols(), geo.lowered_rows());
        let mut cols = vec![f32::NAN; geo.lowered_len()];
        im2col(input.as_slice(), &geo, &mut cols);
        let mut want = vec![f32::NAN; f * n];
        gemm_f32(
            f, n, kd,
            weights.as_slice(), &cols, &mut want,
            GemmBlocking::default(), epilogue,
        );
        let mut got = vec![f32::NAN; f * n];
        conv2d(
            input.as_slice(), weights.as_slice(), bias_arg, f, &geo, relu,
            &mut got, &mut Workspace::new(),
        );
        prop_assert_eq!(bits(&got), bits(&want), "{:?}", geo);
    }

    /// Winograd F(4×4, 3×3) against the direct convolution, with C at
    /// and above the threshold, odd and even output sizes (partial tiles
    /// at the right and bottom edges), pad 0 and 1, F not a multiple of
    /// 4 and every epilogue. The two round differently, so each output
    /// may differ by [`WINOGRAD_TOLERANCE`] times the magnitude it was
    /// summed from: Σ|w·x| over its window, plus |bias|.
    #[test]
    fn winograd_matches_conv2d_within_bound(
        seed in any::<u64>(),
        extra_c in 0usize..40,
        f in 1usize..14,
        h in 3usize..14,
        w in 3usize..14,
        p in 0usize..=1,
        variant in 0usize..4,
        slope in 0.0f32..0.5,
    ) {
        let c = WINOGRAD_MIN_CHANNELS + extra_c;
        let geo = geometry(c, h, w, 3, 1, p);
        let mut rng = TensorRng::seeded(seed);
        let input = rng.uniform(Shape::chw(c, h, w), -1.0, 1.0);
        let weights = rng.uniform(Shape::vector(f * c * 9), -1.0, 1.0);
        let bias = rng.uniform(Shape::vector(f), -0.5, 0.5);
        let (bias_arg, relu) = match variant {
            0 => (None, None),
            1 => (Some(bias.as_slice()), None),
            2 => (None, Some(slope)),
            _ => (Some(bias.as_slice()), Some(slope)),
        };
        let n = geo.lowered_cols();
        let mut ws = Workspace::new();
        let mut want = vec![f32::NAN; f * n];
        conv2d(
            input.as_slice(), weights.as_slice(), bias_arg, f, &geo, relu,
            &mut want, &mut ws,
        );
        let filters = WinogradFilters::new(weights.as_slice(), f, c);
        let mut scratch = vec![f32::NAN; winograd_scratch_len(&geo, f)];
        let mut got = vec![f32::NAN; f * n];
        conv2d_winograd(
            input.as_slice(), &filters, bias_arg, &geo, relu, &mut got, &mut scratch,
        );
        // Σ|w·x| per output: the direct convolution of |x| by |w|.
        let abs = |t: &Tensor| t.as_slice().iter().map(|v| v.abs()).collect::<Vec<_>>();
        let mut mass = vec![0.0f32; f * n];
        conv2d(&abs(&input), &abs(&weights), None, f, &geo, None, &mut mass, &mut ws);
        for (i, ((g, w), m)) in got.iter().zip(&want).zip(&mass).enumerate() {
            let b = bias_arg.map_or(0.0, |b| b[i / n].abs());
            prop_assert!(
                (g - w).abs() <= WINOGRAD_TOLERANCE * (m + b),
                "{:?} F {}: output {} is {} by Winograd, {} direct (Σ|w·x| {})",
                geo, f, i, g, w, m
            );
        }
    }

    /// The fully-connected GEMV agrees with the naive per-row dot
    /// product within accumulation-order tolerance.
    #[test]
    fn gemv_matches_naive_dot(
        seed in any::<u64>(),
        m in 1usize..20,
        k in 1usize..64,
    ) {
        let mut rng = TensorRng::seeded(seed);
        let w = rng.uniform(Shape::vector(m * k), -1.0, 1.0);
        let x = rng.uniform(Shape::vector(k), -1.0, 1.0);
        let mut y = vec![f32::NAN; m];
        gemv(m, k, w.as_slice(), x.as_slice(), None, None, &mut y);
        for (i, got) in y.iter().enumerate() {
            let want: f32 = (0..k)
                .map(|p| w.as_slice()[i * k + p] * x.as_slice()[p])
                .sum();
            prop_assert!((got - want).abs() < 1e-4, "row {i}: {got} vs {want}");
        }
    }

    /// Every im2col element equals the corresponding zero-padded read of
    /// the input tensor, for arbitrary geometry.
    #[test]
    fn im2col_matches_padded_gather(
        seed in any::<u64>(),
        c in 1usize..4,
        h in 3usize..10,
        w in 3usize..10,
        k in 1usize..5,
        s in 1usize..4,
        p in 0usize..3,
    ) {
        prop_assume!(h + 2 * p >= k && w + 2 * p >= k);
        let geo = geometry(c, h, w, k, s, p);
        let input = TensorRng::seeded(seed).uniform(Shape::chw(c, h, w), -1.0, 1.0);
        let mut cols = vec![f32::NAN; geo.lowered_len()];
        im2col(input.as_slice(), &geo, &mut cols);
        let n_cols = geo.lowered_cols();
        for ci in 0..c {
            for m_ in 0..k {
                for n_ in 0..k {
                    let row = (ci * k + m_) * k + n_;
                    for i in 0..geo.out_h {
                        for j in 0..geo.out_w {
                            let got = cols[row * n_cols + i * geo.out_w + j];
                            let want = input.at_padded(
                                0,
                                ci,
                                (i * s + m_) as isize,
                                (j * s + n_) as isize,
                                p,
                            );
                            prop_assert_eq!(got, want, "row {} col ({},{})", row, i, j);
                        }
                    }
                }
            }
        }
    }

    /// The identity geometry (1×1 kernel, unit stride, no padding)
    /// round-trips: the lowered matrix *is* the input, so the lowering
    /// can be skipped without changing results.
    #[test]
    fn identity_lowering_round_trips(
        seed in any::<u64>(),
        c in 1usize..5,
        h in 1usize..9,
        w in 1usize..9,
    ) {
        let geo = geometry(c, h, w, 1, 1, 0);
        prop_assert!(geo.is_identity());
        let input = TensorRng::seeded(seed).uniform(Shape::chw(c, h, w), -1.0, 1.0);
        let mut cols = vec![f32::NAN; geo.lowered_len()];
        im2col(input.as_slice(), &geo, &mut cols);
        prop_assert_eq!(cols.as_slice(), input.as_slice());
        let back = Tensor::from_vec(Shape::chw(c, h, w), cols);
        prop_assert_eq!(back.as_slice(), input.as_slice());
    }
}

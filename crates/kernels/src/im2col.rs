//! im2col lowering: convolution as matrix multiplication.
//!
//! `im2col` unrolls every sliding-window patch of a `C×H×W` feature-map
//! stack into one column of a `(C·K·K) × (outH·outW)` matrix. With the
//! filter bank viewed as an `F × (C·K·K)` row-major matrix (exactly the
//! layout of a Caffe weight blob), convolution becomes a single GEMM —
//! the lowering fpgaConvNet and Caffeinated FPGAs treat as the central
//! dataflow for convolutional layers, realised here in software.
//!
//! The output buffer is caller-provided so a per-engine workspace can be
//! reused across layers and images with zero steady-state allocation.
//!
//! The f32 convolution ([`crate::ops::conv2d`]) does not lower: its GEMM
//! packs the same values straight from the input. The f32 [`im2col`]
//! stays as the reference that path is tested against bit for bit. The
//! int8 convolution ([`crate::qops::qconv2d`]) does not lower either: it
//! gathers each patch into its GEMM tile with the same clipped row copies
//! (`patch_into`) that [`im2col_i8_patches`] runs, and the explicit
//! lowering stays as the reference it is tested against.

/// Geometry of one convolution lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Sliding-window stride.
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
    /// Output height (`conv_out_dim(in_h, ...)`).
    pub out_h: usize,
    /// Output width (`conv_out_dim(in_w, ...)`).
    pub out_w: usize,
}

impl ConvGeometry {
    /// Rows of the lowered patch matrix (`C·K·K` — the GEMM reduction
    /// depth).
    pub fn lowered_rows(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// Columns of the lowered patch matrix (`outH·outW` — one per output
    /// pixel).
    pub fn lowered_cols(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Elements the lowering workspace must hold.
    pub fn lowered_len(&self) -> usize {
        self.lowered_rows() * self.lowered_cols()
    }

    /// True when the lowering is the identity (1×1 kernel, unit stride,
    /// no padding) and the input itself already is the patch matrix.
    pub fn is_identity(&self) -> bool {
        self.kernel == 1 && self.stride == 1 && self.pad == 0
    }
}

/// Lowers `input` (a `C×H×W` stack in row-major NCHW order) into `cols`,
/// the `(C·K·K) × (outH·outW)` row-major patch matrix.
///
/// Row `(c·K + m)·K + n`, column `i·outW + j` holds the zero-padded read
/// `x[c, i·stride + m − pad, j·stride + n − pad]`. Unit-stride rows are
/// copied with `copy_from_slice` (the patch row is contiguous in the
/// input); other strides fall back to a per-element gather.
///
/// # Panics
/// Panics when `input` or `cols` disagree with the geometry.
pub fn im2col(input: &[f32], geo: &ConvGeometry, cols: &mut [f32]) {
    assert_eq!(
        input.len(),
        geo.in_c * geo.in_h * geo.in_w,
        "input length does not match geometry"
    );
    assert_eq!(cols.len(), geo.lowered_len(), "workspace length mismatch");
    let (k, stride, pad) = (geo.kernel, geo.stride, geo.pad);
    let (in_h, in_w) = (geo.in_h, geo.in_w);
    let (out_h, out_w) = (geo.out_h, geo.out_w);
    let n_cols = geo.lowered_cols();

    for c in 0..geo.in_c {
        let map = &input[c * in_h * in_w..(c + 1) * in_h * in_w];
        for m in 0..k {
            for n in 0..k {
                let row = (c * k + m) * k + n;
                let dst_row = &mut cols[row * n_cols..(row + 1) * n_cols];
                for i in 0..out_h {
                    let dst = &mut dst_row[i * out_w..(i + 1) * out_w];
                    let ih = (i * stride + m) as isize - pad as isize;
                    if ih < 0 || ih >= in_h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let src_row = &map[ih as usize * in_w..(ih as usize + 1) * in_w];
                    if stride == 1 {
                        // iw = j + n - pad: a contiguous slice of the
                        // input row, with zero fringes where it leaves
                        // the image.
                        let shift = n as isize - pad as isize;
                        let j_lo = (-shift).max(0) as usize;
                        let j_hi = (in_w as isize - shift).clamp(0, out_w as isize) as usize;
                        dst[..j_lo.min(out_w)].fill(0.0);
                        if j_lo < j_hi {
                            let src_lo = (j_lo as isize + shift) as usize;
                            dst[j_lo..j_hi]
                                .copy_from_slice(&src_row[src_lo..src_lo + (j_hi - j_lo)]);
                        }
                        dst[j_hi.max(j_lo).min(out_w)..].fill(0.0);
                    } else {
                        for (j, v) in dst.iter_mut().enumerate() {
                            let iw = (j * stride + n) as isize - pad as isize;
                            *v = if iw < 0 || iw >= in_w as isize {
                                0.0
                            } else {
                                src_row[iw as usize]
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Patch-major int8 lowering: writes the **transposed** patch matrix,
/// `(outH·outW) × (C·K·K)` row-major, where each output pixel's patch is
/// one contiguous `C·K·K` slice — exactly the `b_t` operand of the
/// packed GEMM ([`crate::qgemm::gemm_i8_requant`]).
///
/// Unlike the row-major lowering, the identity geometry (1×1 kernel) is
/// *not* a copy here — the patch layout is the input's transpose.
///
/// The int8 convolution ([`crate::qops::qconv2d`]) does not call this:
/// its GEMM gathers each tile of patches straight from the input with
/// the same row copies (`patch_into`). This lowering stays as the
/// reference that path is tested against.
///
/// # Panics
/// Panics when `input` or `patches` disagree with the geometry.
pub fn im2col_i8_patches(input: &[i8], geo: &ConvGeometry, patches: &mut [i8]) {
    assert_eq!(
        input.len(),
        geo.in_c * geo.in_h * geo.in_w,
        "input length does not match geometry"
    );
    assert_eq!(
        patches.len(),
        geo.lowered_len(),
        "workspace length mismatch"
    );
    for (col, patch) in patches.chunks_mut(geo.lowered_rows().max(1)).enumerate() {
        patch_into(input, geo, col, patch);
    }
}

/// Writes patch `col` (output pixel `col / outW`, `col % outW`) of the
/// `C×H×W` `input` into `dst`, `C·K·K` values in `(c, kh, kw)` order,
/// converted to `T`: the zero-padded reads
/// `x[c, oi·stride + kh − pad, oj·stride + kw − pad]`. Kernel-row runs
/// are contiguous in the input for any stride (stride only moves the
/// patch origin). The window's in-range rows and columns are the same
/// for every channel, so they are clipped once: a patch that overhangs
/// the input is zeroed whole, then each in-range `(c, kh)` run is one
/// copy (most patches overhang nothing and skip the zeroing).
pub(crate) fn patch_into<T: Copy + Default + From<i8>>(
    input: &[i8],
    geo: &ConvGeometry,
    col: usize,
    dst: &mut [T],
) {
    let (k, stride, pad) = (geo.kernel, geo.stride, geo.pad);
    let (in_h, in_w) = (geo.in_h, geo.in_w);
    let (oi, oj) = (col / geo.out_w, col % geo.out_w);
    let h0 = (oi * stride) as isize - pad as isize;
    let w0 = (oj * stride) as isize - pad as isize;
    let n_lo = ((-w0).max(0) as usize).min(k);
    let n_hi = (in_w as isize - w0).clamp(0, k as isize) as usize;
    let m_lo = ((-h0).max(0) as usize).min(k);
    let m_hi = (in_h as isize - h0).clamp(0, k as isize) as usize;
    if m_lo > 0 || m_hi < k || n_lo > 0 || n_hi < k {
        dst.fill(T::default());
    }
    if m_lo >= m_hi || n_lo >= n_hi {
        return;
    }
    let map_len = in_h * in_w;
    let first = (h0 + m_lo as isize) as usize * in_w + (w0 + n_lo as isize) as usize;
    let width = n_hi - n_lo;
    for (c, plane) in dst.chunks_exact_mut((k * k).max(1)).enumerate() {
        let map = &input[c * map_len..(c + 1) * map_len];
        let rows = plane[m_lo * k..m_hi * k].chunks_exact_mut(k);
        for (run, src) in rows.zip(map[first..].chunks(in_w)) {
            for (d, &q) in run[n_lo..n_hi].iter_mut().zip(&src[..width]) {
                *d = T::from(q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_tensor::{Shape, Tensor, TensorRng};

    fn geometry(
        in_c: usize,
        in_h: usize,
        in_w: usize,
        k: usize,
        s: usize,
        p: usize,
    ) -> ConvGeometry {
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

    /// Reference lowering through `Tensor::at_padded`.
    fn reference(input: &Tensor, geo: &ConvGeometry) -> Vec<f32> {
        let mut cols = vec![0.0; geo.lowered_len()];
        let n_cols = geo.lowered_cols();
        for c in 0..geo.in_c {
            for m in 0..geo.kernel {
                for n in 0..geo.kernel {
                    let row = (c * geo.kernel + m) * geo.kernel + n;
                    for i in 0..geo.out_h {
                        for j in 0..geo.out_w {
                            cols[row * n_cols + i * geo.out_w + j] = input.at_padded(
                                0,
                                c,
                                (i * geo.stride + m) as isize,
                                (j * geo.stride + n) as isize,
                                geo.pad,
                            );
                        }
                    }
                }
            }
        }
        cols
    }

    #[test]
    fn identity_geometry_is_a_copy() {
        let geo = geometry(3, 4, 5, 1, 1, 0);
        assert!(geo.is_identity());
        let input: Vec<f32> = (0..60).map(|v| v as f32).collect();
        let mut cols = vec![0.0; geo.lowered_len()];
        im2col(&input, &geo, &mut cols);
        assert_eq!(cols, input);
    }

    #[test]
    fn matches_padded_reads_across_geometries() {
        let mut rng = TensorRng::seeded(11);
        for (c, h, w, k, s, p) in [
            (1, 5, 5, 3, 1, 0),
            (2, 6, 7, 3, 1, 1),
            (3, 8, 8, 5, 1, 2),
            (2, 9, 9, 3, 2, 1),
            (1, 7, 4, 2, 3, 0),
            (4, 6, 6, 2, 2, 1),
        ] {
            let geo = geometry(c, h, w, k, s, p);
            let t = rng.uniform(Shape::chw(c, h, w), -1.0, 1.0);
            let mut cols = vec![f32::NAN; geo.lowered_len()];
            im2col(t.as_slice(), &geo, &mut cols);
            assert_eq!(
                cols,
                reference(&t, &geo),
                "geometry ({c},{h},{w},k{k},s{s},p{p})"
            );
        }
    }

    #[test]
    fn patch_major_lowering_is_the_transpose_of_row_major() {
        for (c, h, w, k, s, p) in [
            (2, 6, 7, 3, 1, 1),
            (2, 9, 9, 3, 2, 1),
            (1, 7, 4, 2, 3, 0),
            (3, 4, 5, 1, 1, 0), // identity geometry: patches = inputᵀ
        ] {
            let geo = geometry(c, h, w, k, s, p);
            let input: Vec<i8> = (0..c * h * w)
                .map(|v| ((v * 41 % 255) as i32 - 127) as i8)
                .collect();
            // The f32 lowering over the same values, exactly
            // representable, is the row-major reference.
            let input_f: Vec<f32> = input.iter().map(|&q| q as f32).collect();
            let mut rows = vec![f32::NAN; geo.lowered_len()];
            im2col(&input_f, &geo, &mut rows);
            let mut patches = vec![1i8; geo.lowered_len()];
            im2col_i8_patches(&input, &geo, &mut patches);
            let (kd, nc) = (geo.lowered_rows(), geo.lowered_cols());
            for row in 0..kd {
                for col in 0..nc {
                    assert_eq!(
                        patches[col * kd + row] as f32,
                        rows[row * nc + col],
                        "geometry ({c},{h},{w},k{k},s{s},p{p}) at ({row},{col})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "workspace length mismatch")]
    fn short_workspace_is_rejected() {
        let geo = geometry(1, 4, 4, 3, 1, 0);
        im2col(&[0.0; 16], &geo, &mut [0.0; 3]);
    }
}

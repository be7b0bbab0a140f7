//! Packed INT8 GEMM with fused requantize/clamp/ReLU epilogues.
//!
//! Computes `C = A · B` for row-major `A: m×k` and **transposed**
//! `B` (`b_t: n×k` row-major — row `j` of `b_t` is column `j` of `B`)
//! of `i8` into exact `i32` accumulators. The transposed operand is the
//! **patch-major** layout the int8 im2col emits for free
//! ([`crate::im2col::im2col_i8_patches`]): each output pixel's patch is
//! one contiguous `k`-length slice, so the kernel needs no transpose or
//! panel repack in the hot loop. Operand storage is 4× denser than f32;
//! compute staging widens both sides once into contiguous `i16` planes
//! (still 2× denser than f32) so the reduction is the one shape LLVM's
//! x86 backend combines to `pmaddwd`:
//!
//! ```text
//! sum += a[p] as i32 * b[p] as i32      // a, b: &[i16]
//! ```
//!
//! — 8 multiply-accumulates per instruction at the x86-64-v3 baseline
//! the workspace pins in `.cargo/config.toml` (the combine does not fire
//! at baseline SSE2 codegen, where this kernel would *lose* to f32; see
//! that file). Quantized values never exceed ±127 (see [`crate::quant`]),
//! so a pair of products is at most `2·127² = 32258 < 2¹⁵` and the packed
//! pairwise adds cannot overflow `i16` lanes; the `i32` accumulator is
//! exact for any practical `k` (`k ≤ 2¹⁷` stays below `i32::MAX`).
//! Integer addition is associative, so results are bit-identical across
//! blocking parameters and thread counts for free.
//!
//! Blocking and parallelism reuse the f32 kernel's machinery a tier
//! down: the [`GemmBlocking`] `nc` extent drives the patch-staging width
//! (at most `nc` widened patches are resident at once, keeping the `i16`
//! staging plane L2-sized for arbitrarily wide layers), and large
//! problems split across threads by `C` row bands under
//! `std::thread::scope` exactly as in [`crate::gemm`]. `mc`/`kc` are
//! accepted but idle here: with both operands pre-packed contiguous, one
//! weight row plus one patch is L1-resident for every practical `k`, so
//! further tiling of the reduction only adds loop overhead (measured, not
//! assumed — an Mc×Kc panel variant ran 1.5× slower on the VGG layer).
//!
//! The fused epilogue maps `i32` accumulators back to `i8`:
//! `out = clamp(round((acc + bias) · multiplier), -127, 127)`, with the
//! per-row multiplier `s_in · s_w[row] / s_out` carrying the scale
//! change and an optional ReLU folded into the clamp. The multiply runs
//! in `f64`: accumulators reach ~10⁸, beyond `f32`'s 24-bit exact
//! integer range, and `f64` keeps the rounding decision exact.

use crate::gemm::{available_threads, GemmBlocking};

/// Work threshold (in multiply-accumulates) below which spawning threads
/// costs more than it saves; matches the f32 kernel.
const PAR_MACS_THRESHOLD: usize = 1 << 21;

/// Patch-tile width of the inner loops: every weight row is re-read once
/// per tile instead of once per patch, cutting L2 traffic ~`TILE_J`-fold
/// while a tile of widened patches (`16 × 2k` bytes) stays L1-resident.
/// Measured ~20% faster than the untiled loop on the VGG-56 layer.
const TILE_J: usize = 16;

/// Reusable scratch for the quantized path: im2col output and the `i16`
/// widening planes. Grown on demand, never shrunk, so steady-state
/// inference allocates nothing.
#[derive(Debug, Default)]
pub struct QWorkspace {
    cols: Vec<i8>,
    apack: Vec<i16>,
    bpack: Vec<i16>,
}

impl QWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        QWorkspace::default()
    }

    /// Pre-sizes the im2col plane (e.g. to a network's high-water mark)
    /// so inference never reallocates it.
    pub fn with_capacity(cols_len: usize) -> Self {
        QWorkspace {
            cols: Vec::with_capacity(cols_len),
            ..QWorkspace::default()
        }
    }

    /// Current im2col capacity in elements (diagnostic).
    pub fn cols_capacity(&self) -> usize {
        self.cols.capacity()
    }

    /// Detaches the im2col buffer so it can be borrowed alongside the
    /// widening planes; return it with
    /// [`QWorkspace::put_cols`].
    pub(crate) fn take_cols(&mut self) -> Vec<i8> {
        std::mem::take(&mut self.cols)
    }

    /// Reattaches the im2col buffer after [`QWorkspace::take_cols`].
    pub(crate) fn put_cols(&mut self, cols: Vec<i8>) {
        self.cols = cols;
    }
}

/// Widens an `i8` slice into an `i16` plane (resizing it to fit).
fn widen_into(src: &[i8], dst: &mut Vec<i16>) {
    dst.resize(src.len(), 0);
    for (d, &q) in dst.iter_mut().zip(src) {
        *d = q as i16;
    }
}

/// `C = A · B` over `i8` operands into exact `i32` accumulators, with
/// `B` supplied transposed (`b_t: n×k` row-major, i.e. patch-major).
///
/// `c` (`m×n` row-major) is overwritten. Large problems split across
/// threads by rows of `C`; integer accumulation makes the result
/// identical either way.
///
/// # Panics
/// Panics when a slice length disagrees with its `m`/`n`/`k` extent.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8(
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    b_t: &[i8],
    c: &mut [i32],
    blocking: GemmBlocking,
    ws: &mut QWorkspace,
) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b_t.len(), n * k, "B (transposed) must be n×k");
    assert_eq!(c.len(), m * n, "C must be m×n");
    if m == 0 || n == 0 {
        return;
    }
    let nc = blocking.nc.max(1);

    widen_into(a, &mut ws.apack);
    let threads = available_threads();
    if threads > 1 && m * n * k >= PAR_MACS_THRESHOLD && m >= 2 {
        // Row-partitioned bands as in the f32 kernel. The whole patch
        // matrix is widened once up front so every band can share it
        // immutably (this path is only taken on multi-core machines for
        // large layers, where the staging plane is sized like the f32
        // kernel's im2col workspace anyway).
        widen_into(b_t, &mut ws.bpack);
        let (apack, bpack) = (&ws.apack[..m * k], &ws.bpack[..n * k]);
        let bands = threads.min(m);
        let rows_per = m.div_ceil(bands);
        std::thread::scope(|scope| {
            for (band, c_band) in c.chunks_mut(rows_per * n).enumerate() {
                let row0 = band * rows_per;
                let rows = c_band.len() / n;
                let a_band = &apack[row0 * k..(row0 + rows) * k];
                scope.spawn(move || {
                    let mut jt = 0;
                    while jt < n {
                        let tw = TILE_J.min(n - jt);
                        for i in 0..rows {
                            let row = &a_band[i * k..(i + 1) * k];
                            let crow = &mut c_band[i * n + jt..i * n + jt + tw];
                            for (j, cv) in crow.iter_mut().enumerate() {
                                *cv = dot_i16(row, &bpack[(jt + j) * k..(jt + j + 1) * k]);
                            }
                        }
                        jt += tw;
                    }
                });
            }
        });
    } else {
        // Serial: stage at most `nc` widened patches at a time so the
        // i16 plane stays cache-sized however wide the layer is.
        let apack = &ws.apack[..m * k];
        ws.bpack.resize(nc.min(n) * k.max(1), 0);
        let mut jb = 0;
        while jb < n {
            let jw = nc.min(n - jb);
            for (d, &q) in ws.bpack.iter_mut().zip(&b_t[jb * k..(jb + jw) * k]) {
                *d = q as i16;
            }
            let mut jt = 0;
            while jt < jw {
                let tw = TILE_J.min(jw - jt);
                for i in 0..m {
                    let row = &apack[i * k..(i + 1) * k];
                    let crow = &mut c[i * n + jb + jt..i * n + jb + jt + tw];
                    for (j, cv) in crow.iter_mut().enumerate() {
                        *cv = dot_i16(row, &ws.bpack[(jt + j) * k..(jt + j + 1) * k]);
                    }
                }
                jt += tw;
            }
            jb += jw;
        }
    }
}

/// `C = requantize(A · B)` — the full quantized-layer kernel: packed
/// `i8` GEMM with the bias/requantize/clamp(/ReLU) epilogue fused into
/// the tile loop, storing straight back to `i8`. `B` is supplied
/// transposed (patch-major), as in [`gemm_i8`].
///
/// Fusing the epilogue requantizes each `C` tile while its accumulators
/// are still register-resident, so the `m×n` `i32` accumulator plane of
/// the two-pass formulation is never written or re-read — for a VGG-
/// sized layer that deletes ~1.6 MB of round-trip traffic per call. The
/// result is bit-identical to [`gemm_i8`] followed by
/// [`requantize_into`] (pinned by a test).
///
/// `multipliers[i]` rescales row `i`'s accumulator into the output
/// quantization domain (`s_in · s_w[i] / s_out`); `bias` is per-row in
/// accumulator units (`round(b[i] / (s_in · s_w[i]))`).
///
/// # Panics
/// Panics on extent mismatches, or when `bias`/`multipliers` are
/// shorter than `m`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_requant(
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    b_t: &[i8],
    out: &mut [i8],
    blocking: GemmBlocking,
    bias: Option<&[i32]>,
    multipliers: &[f32],
    relu: bool,
    ws: &mut QWorkspace,
) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b_t.len(), n * k, "B (transposed) must be n×k");
    assert_eq!(out.len(), m * n, "out must be m×n");
    assert!(multipliers.len() >= m, "multipliers shorter than rows");
    if let Some(b) = bias {
        assert!(b.len() >= m, "bias shorter than rows");
    }
    if m == 0 || n == 0 {
        return;
    }
    let lo = if relu { 0.0 } else { -127.0 };

    widen_into(a, &mut ws.apack);
    let threads = available_threads();
    if threads > 1 && m * n * k >= PAR_MACS_THRESHOLD && m >= 2 {
        // Row bands as in `gemm_i8`; each band requantizes its own rows.
        widen_into(b_t, &mut ws.bpack);
        let (apack, bpack) = (&ws.apack[..m * k], &ws.bpack[..n * k]);
        let bands = threads.min(m);
        let rows_per = m.div_ceil(bands);
        std::thread::scope(|scope| {
            for (band, o_band) in out.chunks_mut(rows_per * n).enumerate() {
                let row0 = band * rows_per;
                let rows = o_band.len() / n;
                let a_band = &apack[row0 * k..(row0 + rows) * k];
                scope.spawn(move || {
                    let mut acc_t = [0i32; TILE_J];
                    let mut jt = 0;
                    while jt < n {
                        let tw = TILE_J.min(n - jt);
                        for i in 0..rows {
                            let row = &a_band[i * k..(i + 1) * k];
                            for (j, av) in acc_t[..tw].iter_mut().enumerate() {
                                *av = dot_i16(row, &bpack[(jt + j) * k..(jt + j + 1) * k]);
                            }
                            let badd = bias.map_or(0, |b| b[row0 + i]) as i64;
                            let mult = multipliers[row0 + i] as f64;
                            let orow = &mut o_band[i * n + jt..i * n + jt + tw];
                            for (o, &v) in orow.iter_mut().zip(&acc_t[..tw]) {
                                let q = ((v as i64 + badd) as f64 * mult).round();
                                *o = q.clamp(lo, 127.0) as i8;
                            }
                        }
                        jt += tw;
                    }
                });
            }
        });
        return;
    }

    // Serial: stage `nc`-wide widened patch blocks exactly as in
    // `gemm_i8`, requantizing each tile row as it is produced. The tile
    // accumulators live in a stack buffer so the dot loop stays the
    // clean `pmaddwd` shape and the requantize mini-loop vectorizes
    // (`vroundpd`) separately.
    let nc = blocking.nc.max(1);
    let apack = &ws.apack[..m * k];
    ws.bpack.resize(nc.min(n) * k.max(1), 0);
    let mut acc_t = [0i32; TILE_J];
    let mut jb = 0;
    while jb < n {
        let jw = nc.min(n - jb);
        for (d, &q) in ws.bpack.iter_mut().zip(&b_t[jb * k..(jb + jw) * k]) {
            *d = q as i16;
        }
        let mut jt = 0;
        while jt < jw {
            let tw = TILE_J.min(jw - jt);
            for i in 0..m {
                let row = &apack[i * k..(i + 1) * k];
                for (j, av) in acc_t[..tw].iter_mut().enumerate() {
                    *av = dot_i16(row, &ws.bpack[(jt + j) * k..(jt + j + 1) * k]);
                }
                let badd = bias.map_or(0, |b| b[i]) as i64;
                let mult = multipliers[i] as f64;
                let orow = &mut out[i * n + jb + jt..i * n + jb + jt + tw];
                for (o, &v) in orow.iter_mut().zip(&acc_t[..tw]) {
                    let q = ((v as i64 + badd) as f64 * mult).round();
                    *o = q.clamp(lo, 127.0) as i8;
                }
            }
            jt += tw;
        }
        jb += jw;
    }
}

/// Maps a plane of `i32` accumulators to `i8` outputs:
/// `out = clamp(round((acc + bias[row]) · multipliers[row]), -127, 127)`,
/// then `max(out, 0)` when `relu` is set. The multiply runs in `f64` so
/// rounding is exact for full-magnitude accumulators.
///
/// # Panics
/// Panics when `acc`/`out` lengths differ, `n` does not divide them, or
/// `bias`/`multipliers` are shorter than the row count.
pub fn requantize_into(
    acc: &[i32],
    n: usize,
    bias: Option<&[i32]>,
    multipliers: &[f32],
    relu: bool,
    out: &mut [i8],
) {
    assert_eq!(acc.len(), out.len(), "acc/out length mismatch");
    if acc.is_empty() {
        return;
    }
    assert!(
        n > 0 && acc.len().is_multiple_of(n),
        "n must divide the plane"
    );
    let rows = acc.len() / n;
    assert!(multipliers.len() >= rows, "multipliers shorter than rows");
    if let Some(b) = bias {
        assert!(b.len() >= rows, "bias shorter than rows");
    }
    let lo = if relu { 0.0 } else { -127.0 };
    for i in 0..rows {
        let badd = bias.map_or(0, |b| b[i]) as i64;
        let mult = multipliers[i] as f64;
        let arow = &acc[i * n..(i + 1) * n];
        let orow = &mut out[i * n..(i + 1) * n];
        for (o, &v) in orow.iter_mut().zip(arow) {
            let q = ((v as i64 + badd) as f64 * mult).round();
            *o = q.clamp(lo, 127.0) as i8;
        }
    }
}

/// Quantized matrix-vector product with the fused requantize tail — the
/// fully-connected layer kernel. `w` is `m × k` row-major `i8`.
///
/// # Panics
/// Panics on extent mismatches, or when `bias`/`multipliers` are
/// shorter than `m`.
#[allow(clippy::too_many_arguments)]
pub fn qgemv_i8(
    m: usize,
    k: usize,
    w: &[i8],
    x: &[i8],
    bias: Option<&[i32]>,
    multipliers: &[f32],
    relu: bool,
    y: &mut [i8],
    ws: &mut QWorkspace,
) {
    assert_eq!(w.len(), m * k, "W must be m×k");
    assert_eq!(x.len(), k, "x must have k elements");
    assert_eq!(y.len(), m, "y must have m elements");
    assert!(multipliers.len() >= m, "multipliers shorter than m");
    if let Some(b) = bias {
        assert!(b.len() >= m, "bias shorter than m");
    }
    // Widen x once and each weight row on the fly; FC rows are short
    // enough that the extra pass is noise, and the widened slices let
    // the same pmaddwd dot product do the work.
    widen_into(x, &mut ws.bpack);
    ws.apack.resize(k, 0);
    let lo = if relu { 0.0 } else { -127.0 };
    for i in 0..m {
        for (av, &q) in ws.apack.iter_mut().zip(&w[i * k..(i + 1) * k]) {
            *av = q as i16;
        }
        let acc = dot_i16(&ws.apack[..k], &ws.bpack[..k]);
        let badd = bias.map_or(0, |b| b[i]) as i64;
        let q = ((acc as i64 + badd) as f64 * multipliers[i] as f64).round();
        y[i] = q.clamp(lo, 127.0) as i8;
    }
}

/// Widening i16 dot product in the exact (single-reduction) shape
/// LLVM's x86 backend combines to `pmaddwd` — 8 multiply-accumulates
/// per instruction at the pinned x86-64-v3 baseline. Multi-accumulator
/// and hand-paired formulations defeat the combine; keep this one
/// canonical.
#[inline]
fn dot_i16(a: &[i16], b: &[i16]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut sum = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        sum += x as i32 * y as i32;
    }
    sum
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    /// Textbook triple loop in i32 over row-major B for cross-checking.
    fn naive(m: usize, n: usize, k: usize, a: &[i8], b: &[i8]) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] as i32 * b[p * n + j] as i32;
                }
            }
        }
        c
    }

    /// Row-major `k×n` B → patch-major `n×k` transpose.
    fn transpose(n: usize, k: usize, b: &[i8]) -> Vec<i8> {
        let mut bt = vec![0i8; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        bt
    }

    fn ramp_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (((state >> 33) % 255) as i32 - 127) as i8
            })
            .collect()
    }

    #[test]
    fn matches_naive_exactly_across_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 16),
            (5, 9, 3),
            (17, 33, 29),
            (64, 70, 65),
        ] {
            let a = ramp_i8(m * k, 7 + m as u64);
            let b = ramp_i8(k * n, 11 + n as u64);
            let bt = transpose(n, k, &b);
            let mut c = vec![9i32; m * n];
            let mut ws = QWorkspace::new();
            gemm_i8(m, n, k, &a, &bt, &mut c, GemmBlocking::default(), &mut ws);
            assert_eq!(c, naive(m, n, k, &a, &b), "({m},{n},{k})");
        }
    }

    #[test]
    fn blocking_does_not_change_results() {
        let (m, n, k) = (9, 11, 13);
        let a = ramp_i8(m * k, 3);
        let bt = ramp_i8(n * k, 5);
        let mut c1 = vec![0i32; m * n];
        let mut c2 = vec![0i32; m * n];
        let mut ws = QWorkspace::new();
        gemm_i8(m, n, k, &a, &bt, &mut c1, GemmBlocking::default(), &mut ws);
        let tiny = GemmBlocking {
            mc: 2,
            nc: 3,
            kc: 4,
        };
        gemm_i8(m, n, k, &a, &bt, &mut c2, tiny, &mut ws);
        assert_eq!(c1, c2);
    }

    #[test]
    fn requantize_rounds_clamps_and_relus() {
        let acc = [400i32, -400, 100, -100, 63, -63];
        let mult = [0.01f32, 1.0, 1.0];
        let mut out = [0i8; 6];
        requantize_into(&acc, 2, None, &mult, false, &mut out);
        assert_eq!(out, [4, -4, 100, -100, 63, -63]);
        requantize_into(&acc, 2, None, &mult, true, &mut out);
        assert_eq!(out, [4, 0, 100, 0, 63, 0]);
        // Saturation at ±127.
        let hot = [i32::MAX, i32::MIN];
        let mut out2 = [0i8; 2];
        requantize_into(&hot, 1, None, &[1.0, 1.0], false, &mut out2);
        assert_eq!(out2, [127, -127]);
    }

    #[test]
    fn requantize_bias_is_in_accumulator_units() {
        let acc = [10i32, 20];
        let bias = [5i32, -30];
        let mut out = [0i8; 2];
        requantize_into(&acc, 1, Some(&bias), &[1.0, 0.5], false, &mut out);
        assert_eq!(out, [15, -5]);
    }

    #[test]
    fn qgemv_matches_gemm_column() {
        let (m, k) = (7, 19);
        let w = ramp_i8(m * k, 21);
        let x = ramp_i8(k, 22);
        let bias: Vec<i32> = (0..m as i32).map(|i| i * 10 - 30).collect();
        let mult = vec![0.005f32; m];
        let mut ws = QWorkspace::new();
        let mut y = vec![0i8; m];
        qgemv_i8(m, k, &w, &x, Some(&bias), &mult, false, &mut y, &mut ws);
        // With n = 1 the transposed B *is* the x vector (1×k patch).
        let mut acc = vec![0i32; m];
        gemm_i8(m, 1, k, &w, &x, &mut acc, GemmBlocking::default(), &mut ws);
        let mut want = vec![0i8; m];
        requantize_into(&acc, 1, Some(&bias), &mult, false, &mut want);
        assert_eq!(y, want);
    }

    #[test]
    fn fused_requant_equals_separate_passes() {
        let (m, n, k) = (6, 10, 12);
        let a = ramp_i8(m * k, 31);
        let bt = ramp_i8(n * k, 37);
        let bias: Vec<i32> = (0..m as i32).map(|i| i * 7 - 20).collect();
        let mult: Vec<f32> = (0..m).map(|i| 0.001 + i as f32 * 0.0005).collect();
        let mut ws = QWorkspace::new();
        let mut fused = vec![0i8; m * n];
        gemm_i8_requant(
            m,
            n,
            k,
            &a,
            &bt,
            &mut fused,
            GemmBlocking::default(),
            Some(&bias),
            &mult,
            true,
            &mut ws,
        );
        let mut acc = vec![0i32; m * n];
        gemm_i8(m, n, k, &a, &bt, &mut acc, GemmBlocking::default(), &mut ws);
        let mut want = vec![0i8; m * n];
        requantize_into(&acc, n, Some(&bias), &mult, true, &mut want);
        assert_eq!(fused, want);
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let mut c: Vec<i32> = vec![];
        let mut ws = QWorkspace::new();
        gemm_i8(0, 0, 3, &[], &[], &mut c, GemmBlocking::default(), &mut ws);
        assert!(c.is_empty());
    }

    #[test]
    fn zero_depth_yields_pure_bias() {
        let (m, n) = (2, 3);
        let mut out = vec![7i8; m * n];
        let mut ws = QWorkspace::new();
        gemm_i8_requant(
            m,
            n,
            0,
            &[],
            &[],
            &mut out,
            GemmBlocking::default(),
            Some(&[5, -9]),
            &[1.0, 1.0],
            false,
            &mut ws,
        );
        assert_eq!(out, [5, 5, 5, -9, -9, -9]);
    }
}

//! Packed INT8 GEMM with a fused requantize/clamp/ReLU epilogue.
//!
//! Computes `C = A · B` for row-major `A: m×k` and **transposed**
//! `B` (`b_t: n×k` row-major — row `j` of `b_t` is column `j` of `B`)
//! of `i8` into exact `i32` accumulators. The transposed operand is the
//! **patch-major** layout of a convolution: each output pixel's patch is
//! one contiguous `k`-length slice
//! ([`crate::im2col::im2col_i8_patches`]). Operand storage is 4× denser
//! than f32. The reduction runs on `i16` values, the one shape LLVM's
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
//! thread counts for free.
//!
//! One band routine, `qgemm_band`, computes every output: over all rows
//! of `C` on one thread, or over one row band per thread for large
//! problems. `A` (the weights) is widened once per call into the
//! workspace's `m×k` `i16` plane, which the bands share read-only. `B`
//! is never widened whole: the band routine takes it one tile of
//! `TILE_J` patches at a time from a source, into a `TILE_J×k` `i16`
//! buffer of its own, which each call allocates once per band (at most
//! `2·TILE_J·k` bytes: 18 KiB at `k = 576`) and frees on return; the
//! workspace does not keep it. There are two sources: the dense `b_t`
//! of [`gemm_i8_requant`], widened tile by tile, and the convolution's
//! patches, gathered straight from its `i8` input
//! ([`crate::qops::qconv2d`]). So no plane proportional to `n` exists;
//! each band re-reads its tiles of `B`, about `1/rows` of its
//! multiply-accumulates. There is no cache blocking of the reduction:
//! one weight row plus one tile of patches is L1-resident for every
//! practical `k`, so tiling the reduction only adds loop overhead
//! (measured, not assumed — an Mc×Kc panel variant ran 1.5× slower on
//! the VGG layer).
//!
//! The fused epilogue maps `i32` accumulators back to `i8`:
//! `out = clamp(round((acc + bias) · multiplier), -127, 127)`, with the
//! per-row multiplier `s_in · s_w[row] / s_out` carrying the scale
//! change and an optional ReLU folded into the clamp. The multiply runs
//! in `f64`: accumulators reach ~10⁸, beyond `f32`'s 24-bit exact
//! integer range, and `f64` keeps the rounding decision exact.

use crate::gemm::{row_bands, threads_for, GemmBlocking};

/// Patch-tile width of the inner loops: every weight row is re-read once
/// per tile instead of once per patch, cutting L2 traffic ~`TILE_J`-fold
/// while a tile of widened patches (`16 × 2k` bytes) stays L1-resident.
/// Measured ~20% faster than the untiled loop on the VGG-56 layer.
const TILE_J: usize = 16;

/// Reusable scratch for the quantized path: the widened weights of the
/// last GEMM and the widened input of the last GEMV. Grown on demand,
/// never shrunk. Patches are not kept here: each band widens or gathers
/// them a tile at a time into a buffer it allocates per call.
#[derive(Debug, Default)]
pub struct QWorkspace {
    apack: Vec<i16>,
    bpack: Vec<i16>,
}

impl QWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        QWorkspace::default()
    }

    /// Bytes the workspace holds (diagnostic): its capacity, not only
    /// what the last call used.
    pub fn bytes(&self) -> usize {
        (self.apack.capacity() + self.bpack.capacity()) * std::mem::size_of::<i16>()
    }
}

/// Widens an `i8` slice into an `i16` plane (resizing it to fit).
fn widen_into(src: &[i8], dst: &mut Vec<i16>) {
    dst.resize(src.len(), 0);
    widen(src, dst);
}

/// Widens `src` into `dst`, element by element.
fn widen(src: &[i8], dst: &mut [i16]) {
    for (d, &q) in dst.iter_mut().zip(src) {
        *d = q as i16;
    }
}

/// A source of the transposed `B` for the band routine. `tile` writes
/// patches `j0..j0 + dst.len() / k` of `B`, each `k` values widened to
/// `i16`, into `dst`. Every source must give the same values for the
/// same matrix, so the result does not depend on where `B` comes from.
pub(crate) trait TileB: Sync {
    fn tile(&self, j0: usize, k: usize, dst: &mut [i16]);
}

/// A dense transposed `B`: `n×k` row-major `i8`.
struct Transposed<'a>(&'a [i8]);

impl TileB for Transposed<'_> {
    fn tile(&self, j0: usize, k: usize, dst: &mut [i16]) {
        widen(&self.0[j0 * k..j0 * k + dst.len()], dst);
    }
}

/// `clamp(round((acc + bias) · mult), lo, 127)` as `i8`, with `lo` = 0
/// under a fused ReLU and −127 without: one `i32` accumulator back to
/// the output's quantization. `bias` is in accumulator units; the
/// multiply runs in `f64`, so rounding is exact for full-magnitude
/// accumulators.
#[inline(always)]
fn requant(acc: i32, bias: i32, mult: f32, relu: bool) -> i8 {
    let lo = if relu { 0.0 } else { -127.0 };
    let q = ((acc as i64 + bias as i64) as f64 * mult as f64).round();
    q.clamp(lo, 127.0) as i8
}

/// `C = requantize(A · B)` — the full quantized-layer kernel: packed
/// `i8` GEMM with the bias/requantize/clamp(/ReLU) epilogue fused into
/// the tile loop, storing straight back to `i8`. `B` is supplied
/// transposed (`b_t: n×k` row-major, i.e. patch-major).
///
/// Fusing the epilogue requantizes each `C` tile while its accumulators
/// are still register-resident, so no `m×n` `i32` accumulator plane is
/// ever written or re-read — for a VGG-sized layer that is ~1.6 MB of
/// round-trip traffic per call. Large problems split across threads by
/// rows of `C`; integer accumulation makes the result identical either
/// way.
///
/// `multipliers[i]` rescales row `i`'s accumulator into the output
/// quantization domain (`s_in · s_w[i] / s_out`); `bias` is per-row in
/// accumulator units (`round(b[i] / (s_in · s_w[i]))`). `blocking` is
/// read by nothing: no blocking changes this kernel (see the module
/// docs). Kept until the benchmark stops passing it.
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
    let _ = blocking;
    assert_eq!(b_t.len(), n * k, "B (transposed) must be n×k");
    let threads = threads_for(m * n * k);
    qgemm_on(
        threads,
        m,
        n,
        k,
        a,
        &Transposed(b_t),
        out,
        bias,
        multipliers,
        relu,
        ws,
    );
}

/// `out = requantize(a · Bᵀ)` with the transposed `B` from `b`, over
/// at most `threads` row bands.
#[allow(clippy::too_many_arguments)]
pub(crate) fn qgemm_on(
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    b: &impl TileB,
    out: &mut [i8],
    bias: Option<&[i32]>,
    multipliers: &[f32],
    relu: bool,
    ws: &mut QWorkspace,
) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(out.len(), m * n, "out must be m×n");
    assert!(multipliers.len() >= m, "multipliers shorter than rows");
    if let Some(b) = bias {
        assert!(b.len() >= m, "bias shorter than rows");
    }
    if m == 0 || n == 0 {
        return;
    }
    widen_into(a, &mut ws.apack);
    let a = &ws.apack[..];
    row_bands(threads, 1, n, out, |row0, band| {
        let rows = row0..row0 + band.len() / n;
        let bias = bias.map(|b| &b[rows.clone()]);
        let a_band = &a[rows.start * k..rows.end * k];
        qgemm_band(n, k, a_band, b, bias, &multipliers[rows], relu, band)
    });
}

/// `out = requantize(a · Bᵀ)` for one band of rows, `a`, `bias` and
/// `multipliers` starting at the band's first row: for each tile of
/// [`TILE_J`] patches, the tile from `b` into the band's own buffer
/// (allocated once per call), then every row's dot products into a
/// stack tile, then that tile requantized into the row. The tile keeps the dot loop the clean
/// `pmaddwd` shape and lets the requantize loop vectorise (`vroundpd`)
/// on its own. One copy is compiled per source of `B`, each kept out of
/// line so that it has a symbol, which `xtask asm` reads.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn qgemm_band(
    n: usize,
    k: usize,
    a: &[i16],
    b: &impl TileB,
    bias: Option<&[i32]>,
    multipliers: &[f32],
    relu: bool,
    out: &mut [i8],
) {
    let mut tile = vec![0i16; TILE_J.min(n) * k];
    let mut acc_t = [0i32; TILE_J];
    for jt in (0..n).step_by(TILE_J) {
        let tw = TILE_J.min(n - jt);
        let tile = &mut tile[..tw * k];
        b.tile(jt, k, tile);
        for (i, orow) in out.chunks_exact_mut(n).enumerate() {
            let row = &a[i * k..(i + 1) * k];
            for (j, av) in acc_t[..tw].iter_mut().enumerate() {
                *av = dot_i16(row, &tile[j * k..(j + 1) * k]);
            }
            let (badd, mult) = (bias.map_or(0, |b| b[i]), multipliers[i]);
            for (o, &v) in orow[jt..jt + tw].iter_mut().zip(&acc_t[..tw]) {
                *o = requant(v, badd, mult, relu);
            }
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
    for i in 0..m {
        for (av, &q) in ws.apack.iter_mut().zip(&w[i * k..(i + 1) * k]) {
            *av = q as i16;
        }
        let acc = dot_i16(&ws.apack[..k], &ws.bpack[..k]);
        y[i] = requant(acc, bias.map_or(0, |b| b[i]), multipliers[i], relu);
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
pub(crate) mod tests {
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

    /// The epilogue as its own scalar pass over an `m×n` accumulator
    /// plane, written out independently of `requant`.
    pub(crate) fn requantize(
        acc: &[i32],
        n: usize,
        bias: Option<&[i32]>,
        mult: &[f32],
        relu: bool,
    ) -> Vec<i8> {
        acc.iter()
            .enumerate()
            .map(|(at, &v)| {
                let i = at / n;
                let real = (v as f64 + bias.map_or(0, |b| b[i]) as f64) * mult[i] as f64;
                let q = real.round().clamp(-127.0, 127.0) as i8;
                if relu {
                    q.max(0)
                } else {
                    q
                }
            })
            .collect()
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

    pub(crate) fn ramp_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (((state >> 33) % 255) as i32 - 127) as i8
            })
            .collect()
    }

    /// Every thread count computes the naive product followed by the
    /// scalar epilogue, with a bias and a multiplier that differ on
    /// every row, so a band that reads another band's rows shows: bands
    /// of uneven height (7 rows over 2 and 3 bands), patch counts off
    /// the tile width, and an empty reduction.
    #[test]
    fn matches_naive_exactly_across_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 16),
            (5, 9, 3),
            (7, 17, 29),
            (7, 33, 0),
            (17, 33, 29),
            (64, 70, 65),
        ] {
            let a = ramp_i8(m * k, 7 + m as u64);
            let b = ramp_i8(k * n, 11 + n as u64);
            let bt = transpose(n, k, &b);
            let bias: Vec<i32> = (0..m as i32).map(|i| i * 97 - 300).collect();
            // About 1/(128·k): most outputs stay off the clamp.
            let mult: Vec<f32> = (0..m)
                .map(|i| (1.0 + i as f32 * 0.1) / (128.0 * k.max(1) as f32))
                .collect();
            let acc = naive(m, n, k, &a, &b);
            for relu in [false, true] {
                let want = requantize(&acc, n, Some(&bias), &mult, relu);
                for threads in 1..=3 {
                    let mut out = vec![9i8; m * n];
                    let mut ws = QWorkspace::new();
                    qgemm_on(
                        threads,
                        m,
                        n,
                        k,
                        &a,
                        &Transposed(&bt),
                        &mut out,
                        Some(&bias),
                        &mult,
                        relu,
                        &mut ws,
                    );
                    assert_eq!(out, want, "({m},{n},{k}) threads {threads} relu {relu}");
                }
            }
        }
    }

    #[test]
    fn requantize_rounds_clamps_and_relus() {
        // Rounding to nearest, halves away from zero, in both signs.
        assert_eq!(requant(400, 0, 0.01, false), 4);
        assert_eq!(requant(-400, 0, 0.01, false), -4);
        assert_eq!(requant(5, 0, 0.5, false), 3);
        assert_eq!(requant(-5, 0, 0.5, false), -3);
        assert_eq!(requant(63, 0, 1.0, false), 63);
        // ReLU clamps negatives to zero and leaves positives alone.
        assert_eq!(requant(-400, 0, 0.01, true), 0);
        assert_eq!(requant(-63, 0, 1.0, true), 0);
        assert_eq!(requant(100, 0, 1.0, true), 100);
        // Saturation at ±127, never -128.
        assert_eq!(requant(i32::MAX, 0, 1.0, false), 127);
        assert_eq!(requant(i32::MIN, 0, 1.0, false), -127);
        assert_eq!(requant(i32::MAX, i32::MAX, 1.0, true), 127);
    }

    /// The bias is added to the accumulator before the multiplier
    /// scales it, through the fused kernel as well as the helper.
    #[test]
    fn requantize_bias_is_in_accumulator_units() {
        assert_eq!(requant(10, 5, 1.0, false), 15);
        assert_eq!(requant(20, -30, 0.5, false), -5);
        // k = 1: the accumulators are a[i] · b[j] = [10, 20] · [1].
        let mut out = [0i8; 2];
        let mut ws = QWorkspace::new();
        gemm_i8_requant(
            2,
            1,
            1,
            &[10, 20],
            &[1],
            &mut out,
            GemmBlocking::default(),
            Some(&[5, -30]),
            &[1.0, 0.5],
            false,
            &mut ws,
        );
        assert_eq!(out, [15, -5]);
    }

    #[test]
    fn qgemv_matches_gemm_column() {
        let (m, k) = (7, 19);
        let w = ramp_i8(m * k, 21);
        let x = ramp_i8(k, 22);
        let bias: Vec<i32> = (0..m as i32).map(|i| i * 10 - 30).collect();
        let mult: Vec<f32> = (0..m).map(|i| 0.004 + i as f32 * 0.001).collect();
        for relu in [false, true] {
            let mut ws = QWorkspace::new();
            let mut y = vec![0i8; m];
            qgemv_i8(m, k, &w, &x, Some(&bias), &mult, relu, &mut y, &mut ws);
            // With n = 1 the transposed B *is* the x vector (1×k patch).
            let mut want = vec![0i8; m];
            gemm_i8_requant(
                m,
                1,
                k,
                &w,
                &x,
                &mut want,
                GemmBlocking::default(),
                Some(&bias),
                &mult,
                relu,
                &mut ws,
            );
            assert_eq!(y, want, "relu {relu}");
        }
    }

    #[test]
    fn fused_requant_equals_separate_passes() {
        let (m, n, k) = (6, 10, 12);
        let a = ramp_i8(m * k, 31);
        let b = ramp_i8(k * n, 37);
        let bt = transpose(n, k, &b);
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
        let want = requantize(&naive(m, n, k, &a, &b), n, Some(&bias), &mult, true);
        assert_eq!(fused, want);
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let mut out: Vec<i8> = vec![];
        let mut ws = QWorkspace::new();
        let d = GemmBlocking::default();
        gemm_i8_requant(0, 0, 3, &[], &[], &mut out, d, None, &[], false, &mut ws);
        assert!(out.is_empty());
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

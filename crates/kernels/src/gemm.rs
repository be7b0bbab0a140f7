//! Register-tiled single-precision GEMM with fused epilogues.
//!
//! Computes `C = A · B` for row-major matrices (`A: m×k`, `B: k×n`,
//! `C: m×n`) one `MR×NR` tile of `C` at a time. The tile's accumulators
//! are a local `[[f32; NR]; MR]` that LLVM keeps in vector registers for
//! a whole `k`-slice, so the inner loop is one broadcast of `A` per row,
//! one load of `B` and `MR·NR` fused multiply-adds per `k` step with no
//! traffic to `C`; the bias/ReLU epilogue is applied to those registers
//! before the tile's only store. All of it is safe Rust over fixed-size
//! arrays.
//!
//! Tile sizes. `NR = 24` is three AVX2 vectors and `MR = 4` rows, so
//! the twelve accumulators, the three `B` vectors of a `k` step and the
//! broadcast of `A` fill the sixteen `ymm` registers of the `x86-64-v3`
//! level the workspace compiles for. A fused multiply-add leaves no
//! product temporary, which is what makes room for the third column
//! vector. Measured on the `vgg56` conv1_2 shape (64×3136×576, one and
//! two threads), 4×24 beats 4×16, 6×16 and 2×32, and 8×16 spills (see
//! DESIGN.md §4c); 4 also divides the zoo's channel counts more often
//! than 6 does.
//!
//! Packing. A column of tiles reads the `kc×NR` slice of `B` under it
//! as one contiguous, `NR`-wide, k-major panel, zero-padded to `NR`
//! columns at the right edge; every row tile of the column reads it. A
//! `SliceB` source hands that slice to the band loop as a borrowed
//! slice. `Dense` (the public [`gemm`]) copies it out of a row-major `B`
//! into a stack array (`KC_MAX·NR·4 B` = 24 KiB) and lends that, and
//! convolution ([`crate::ops::conv2d`]) fills the array straight from
//! its `C×H×W` input, so no patch matrix is ever written. Winograd's
//! transformed filters ([`crate::winograd`]) are stored in this layout
//! when an engine compiles, so they lend their own memory and their
//! GEMMs copy nothing. Unpacked, a dense slice is `kc` separate 96-byte
//! pieces a whole row of `B` apart: at `n = 3136` (a 56×56 feature map)
//! the row stride is 12 544 B = 196 lines, 196 mod 64 = 4, so the 512
//! lines of one slice fall onto 32 of an 8-way L1's 64 sets — room for
//! 256 — and evict each other on every pass. Packed, the slice is
//! contiguous and L1-resident. The array lives on the stack because its
//! size is a compile-time constant and each worker thread needs its
//! own: no heap, no workspace, nothing to size or share.
//!
//! Determinism: each output element accumulates its `k` products in
//! strictly ascending `k` order, each as one fused multiply-add
//! (`acc = a.mul_add(b, acc)`: one rounding per product-sum, not two) —
//! regardless of blocking parameters or thread count (threads partition
//! *rows*, never the reduction), so results are bit-identical across
//! configurations and to the ascending-`k` `mul_add` triple loop.
//! `mul_add` is correctly rounded on every target, so the bits do not
//! depend on the CPU level either; only its speed needs FMA hardware.

use std::sync::OnceLock;

/// Rows of the register tile.
const MR: usize = 4;
/// Columns of the register tile (three 8-lane vectors).
pub(crate) const NR: usize = 24;
/// Deepest `k`-slice the packed `B` tile holds: `KC_MAX × NR` floats =
/// 24 KiB of stack.
pub(crate) const KC_MAX: usize = 256;

/// Accumulators of one `MR×NR` tile of `C`.
type Tile = [[f32; NR]; MR];

/// Loop-blocking parameters, shared by the f32 and int8 GEMMs.
///
/// The f32 [`gemm`] reads only `kc`: the depth of the `k`-slice whose
/// `kc × 24` piece of `B` is packed into the L1-resident stack tile,
/// honoured up to that tile's cap of 256. Its row and column steps are
/// fixed by the register tile and every row tile reuses one packed
/// slice, so `mc` and `nc` are idle there. The int8 GEMM
/// ([`crate::qgemm`]) reads only `nc`, the width of its widening plane.
/// `mc` is read by neither and stays because callers name the struct.
/// No value of any field changes a result bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmBlocking {
    /// Idle (was: rows of `C` per macro-kernel panel).
    pub mc: usize,
    /// Columns per staged block of the int8 GEMM; idle in the f32 one.
    pub nc: usize,
    /// Depth of the reduction slice per packed `B` tile of the f32 GEMM
    /// (1 ..= 256); idle in the int8 one.
    pub kc: usize,
}

impl Default for GemmBlocking {
    fn default() -> Self {
        GemmBlocking {
            mc: 64,
            nc: 512,
            kc: 256,
        }
    }
}

/// What to apply to each finished output element, fused into the final
/// store instead of a separate pass over `C`.
#[derive(Clone, Copy, Debug)]
pub enum Epilogue<'a> {
    /// Plain store: `C = A·B`.
    None,
    /// Per-row bias: `C[i][j] += bias[i]` (row = output channel).
    Bias(&'a [f32]),
    /// Leaky-ReLU with the given negative slope (0.0 = plain ReLU).
    Relu(f32),
    /// Bias then leaky-ReLU, the common convolution tail.
    BiasRelu(&'a [f32], f32),
}

impl<'a> Epilogue<'a> {
    /// The same epilogue for a band of `C` that starts at row `row0`.
    fn for_band(self, row0: usize) -> Self {
        match self {
            Epilogue::Bias(bias) => Epilogue::Bias(&bias[row0..]),
            Epilogue::BiasRelu(bias, slope) => Epilogue::BiasRelu(&bias[row0..], slope),
            other => other,
        }
    }

    /// Finishes the first `rows` rows of a tile whose top row is `ib`.
    fn apply(self, acc: &mut Tile, ib: usize, rows: usize) {
        let (bias, slope) = match self {
            Epilogue::None => return,
            Epilogue::Bias(bias) => (Some(bias), None),
            Epilogue::Relu(slope) => (None, Some(slope)),
            Epilogue::BiasRelu(bias, slope) => (Some(bias), Some(slope)),
        };
        for (r, row) in acc.iter_mut().enumerate().take(rows) {
            if let Some(bias) = bias {
                let bv = bias[ib + r];
                for v in row.iter_mut() {
                    *v += bv;
                }
            }
            if let Some(slope) = slope {
                for v in row.iter_mut() {
                    *v = if *v < 0.0 { *v * slope } else { *v };
                }
            }
        }
    }
}

/// Work threshold (in multiply-accumulates) below which spawning threads
/// costs more than it saves.
pub(crate) const PAR_MACS_THRESHOLD: usize = 1 << 21;

/// `C = A · B` with an optional fused epilogue.
///
/// All matrices are dense row-major; `C` is overwritten (not
/// accumulated into). Large problems are split across threads by rows of
/// `C`, so the reduction order — and therefore the result — is identical
/// in the serial and parallel paths.
///
/// # Panics
/// Panics when a slice length disagrees with its `m`/`n`/`k` extent, or
/// when an epilogue bias is shorter than `m`.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    blocking: GemmBlocking,
    epilogue: Epilogue<'_>,
) {
    assert_eq!(b.len(), k * n, "B must be k×n");
    gemm_packed(m, n, k, a, &Dense { b, n, ld: n }, c, blocking, epilogue);
}

/// A source of `B` for the band loop. `slice` returns the `kw × NR`
/// slice of the `k × n` matrix `B` at rows `kb..` and columns `jb..`,
/// zero past column `n`: written into `buf` (at least `kw` rows) and
/// borrowed from it, or borrowed from the source's own memory when it
/// holds `B` in that layout. Every source must give the same values for
/// the same matrix, so the result does not depend on where `B` comes
/// from.
pub(crate) trait SliceB: Sync {
    fn slice<'s>(
        &'s self,
        kb: usize,
        jb: usize,
        kw: usize,
        buf: &'s mut [[f32; NR]],
    ) -> &'s [[f32; NR]];
}

/// A dense row-major `k × n` matrix `B` whose rows lie `ld` floats
/// apart.
pub(crate) struct Dense<'a> {
    pub(crate) b: &'a [f32],
    pub(crate) n: usize,
    pub(crate) ld: usize,
}

impl SliceB for Dense<'_> {
    fn slice<'s>(
        &'s self,
        kb: usize,
        jb: usize,
        kw: usize,
        buf: &'s mut [[f32; NR]],
    ) -> &'s [[f32; NR]] {
        let dst = &mut buf[..kw];
        let jw = NR.min(self.n - jb);
        for (p, row) in dst.iter_mut().enumerate() {
            let src = (kb + p) * self.ld + jb;
            // As for the stores of `C`: a fixed width copies inline.
            if jw == NR {
                row.copy_from_slice(&self.b[src..src + NR]);
            } else {
                row[..jw].copy_from_slice(&self.b[src..src + jw]);
                row[jw..].fill(0.0);
            }
        }
        dst
    }
}

/// [`gemm`] with `B` supplied slice by slice by a source.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &impl SliceB,
    c: &mut [f32],
    blocking: GemmBlocking,
    epilogue: Epilogue<'_>,
) {
    let threads = if m * n * k >= PAR_MACS_THRESHOLD {
        available_threads()
    } else {
        1
    };
    gemm_on(threads, m, n, k, a, b, c, blocking, epilogue);
}

/// [`gemm_packed`] over at most `threads` row bands.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_on(
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &impl SliceB,
    c: &mut [f32],
    blocking: GemmBlocking,
    epilogue: Epilogue<'_>,
) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(c.len(), m * n, "C must be m×n");
    if let Epilogue::Bias(bias) | Epilogue::BiasRelu(bias, _) = epilogue {
        assert!(bias.len() >= m, "bias shorter than m");
    }
    if m == 0 || n == 0 {
        return;
    }
    let kc = blocking.kc.clamp(1, KC_MAX);

    // Each thread owns a horizontal band of C and the matching band of
    // A; B is shared read-only. Bands are whole register tiles, so only
    // the last one can end in a partial tile.
    let rows_per = m.div_ceil(threads.clamp(1, m)).next_multiple_of(MR);
    if rows_per >= m {
        let mut packed = [[0.0; NR]; KC_MAX];
        return gemm_band(m, n, k, a, b, c, n, kc, epilogue, &mut packed);
    }
    run_split(
        c.chunks_mut(rows_per * n)
            .enumerate()
            .map(|(band, c_band)| {
                let row0 = band * rows_per;
                let rows = c_band.len() / n;
                let a_band = &a[row0 * k..(row0 + rows) * k];
                let epilogue = epilogue.for_band(row0);
                move || {
                    let mut packed = [[0.0; NR]; KC_MAX];
                    gemm_band(rows, n, k, a_band, b, c_band, n, kc, epilogue, &mut packed)
                }
            }),
    );
}

/// Runs the first of `parts` on the calling thread and each other one
/// on a scoped thread of its own, and returns when all have finished:
/// the caller computes a share instead of sleeping on a thread it had
/// to spawn.
pub(crate) fn run_split<F: FnOnce() + Send>(mut parts: impl Iterator<Item = F>) {
    std::thread::scope(|scope| {
        let first = parts.next();
        for part in parts {
            scope.spawn(part);
        }
        if let Some(part) = first {
            part();
        }
    });
}

/// The number of worker threads worth using on this machine. Asked once:
/// `available_parallelism` re-reads the cgroup files on every call
/// (≈ 9 µs here), and every GEMM and GEMV asks.
pub(crate) fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Single-threaded GEMM over the whole of `c`, whose rows lie `ldc`
/// floats apart: for each `NR`-wide column of tiles and each `kc`-deep
/// slice, take that piece of `B` once from its source and run every row
/// tile against it. A source that packs writes into `packed`, which must
/// then hold `kc` rows; one that lends its own memory takes an empty
/// one. One copy is compiled per source of `B`, each kept out of line
/// so that it has a symbol, which `xtask asm` reads.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub(crate) fn gemm_band(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &impl SliceB,
    c: &mut [f32],
    ldc: usize,
    kc: usize,
    epilogue: Epilogue<'_>,
    packed: &mut [[f32; NR]],
) {
    for jb in (0..n).step_by(NR) {
        let jw = NR.min(n - jb);
        let mut kb = 0;
        // `k = 0` still runs one (empty) slice: C = epilogue(0).
        loop {
            let kw = kc.min(k - kb);
            let bp = b.slice(kb, jb, kw, packed);
            let (first, last) = (kb == 0, kb + kw == k);
            for ib in (0..m).step_by(MR) {
                let iw = MR.min(m - ib);
                // Rows past the bottom edge alias the last real row;
                // their accumulators are computed and never stored.
                let a_rows: [&[f32]; MR] = std::array::from_fn(|r| {
                    let at = (ib + r.min(iw - 1)) * k + kb;
                    &a[at..at + kw]
                });
                let mut acc = [[0.0f32; NR]; MR];
                if !first {
                    for (r, row) in acc.iter_mut().enumerate().take(iw) {
                        let at = (ib + r) * ldc + jb;
                        row[..jw].copy_from_slice(&c[at..at + jw]);
                    }
                }
                let mut acc = micro_kernel(&a_rows, bp, acc);
                if last {
                    epilogue.apply(&mut acc, ib, iw);
                }
                for (r, row) in acc.iter().enumerate().take(iw) {
                    let at = (ib + r) * ldc + jb;
                    // A full-width row stores as three vectors, where a
                    // copy of run-time length is a call to `memcpy`.
                    if jw == NR {
                        c[at..at + NR].copy_from_slice(row);
                    } else {
                        c[at..at + jw].copy_from_slice(&row[..jw]);
                    }
                }
            }
            kb += kw;
            if kb >= k {
                break;
            }
        }
    }
}

/// `acc[r][j] + Σ_p a_rows[r][p] · bp[p][j]`, ascending `p`, one fused
/// multiply-add per product. The tile is taken and returned by value: a
/// local that is only ever indexed by the (fully unrolled) constant
/// loops below is promoted to `MR·NR/8` vector registers for the whole
/// `p` loop, which a `&mut Tile` the caller also slices dynamically
/// would not be.
#[inline(always)]
fn micro_kernel(a_rows: &[&[f32]; MR], bp: &[[f32; NR]], mut acc: Tile) -> Tile {
    for (p, brow) in bp.iter().enumerate() {
        for (arow, crow) in a_rows.iter().zip(acc.iter_mut()) {
            let x = arow[p];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv = x.mul_add(bv, *cv);
            }
        }
    }
    acc
}

/// Dense matrix-vector product `y = W · x (+ bias)` with an optional
/// fused leaky-ReLU — the fully-connected layer kernel. `w` is
/// `m × k` row-major.
///
/// Rows are reduced eight at a time, sharing each load of `x`. Each dot
/// product runs over eight partial accumulators so the reduction
/// vectorises; the accumulator combination order is fixed, so results
/// are deterministic and equal [`dot`] row by row.
///
/// # Panics
/// Panics when slice lengths disagree with `m`/`k`.
pub fn gemv(
    m: usize,
    k: usize,
    w: &[f32],
    x: &[f32],
    bias: Option<&[f32]>,
    relu_slope: Option<f32>,
    y: &mut [f32],
) {
    assert_eq!(w.len(), m * k, "W must be m×k");
    assert_eq!(x.len(), k, "x must have k elements");
    assert_eq!(y.len(), m, "y must have m elements");
    if let Some(b) = bias {
        assert!(b.len() >= m, "bias shorter than m");
    }

    let threads = available_threads();
    if threads > 1 && m * k >= PAR_MACS_THRESHOLD && m >= 2 {
        let bands = threads.min(m);
        let rows_per = m.div_ceil(bands);
        run_split(y.chunks_mut(rows_per).enumerate().map(|(band, y_band)| {
            let row0 = band * rows_per;
            let w_band = &w[row0 * k..(row0 + y_band.len()) * k];
            move || gemv_serial(k, w_band, x, bias, relu_slope, y_band, row0)
        }));
    } else {
        gemv_serial(k, w, x, bias, relu_slope, y, 0);
    }
}

/// Rows of `W` one pass of [`gemv_serial`] reduces together.
const GEMV_ROWS: usize = 8;
/// Partial sums of one dot product.
const DOT_LANES: usize = 8;

fn gemv_serial(
    k: usize,
    w: &[f32],
    x: &[f32],
    bias: Option<&[f32]>,
    relu_slope: Option<f32>,
    y: &mut [f32],
    row_off: usize,
) {
    let finish = |i: usize, mut acc: f32| {
        if let Some(b) = bias {
            acc += b[row_off + i];
        }
        if let Some(slope) = relu_slope {
            if acc < 0.0 {
                acc *= slope;
            }
        }
        acc
    };
    let mut bands = y.chunks_exact_mut(GEMV_ROWS);
    let mut i0 = 0;
    for band in &mut bands {
        let sums = dot_rows(k, &w[i0 * k..(i0 + GEMV_ROWS) * k], x);
        for (r, (yv, acc)) in band.iter_mut().zip(sums).enumerate() {
            *yv = finish(i0 + r, acc);
        }
        i0 += GEMV_ROWS;
    }
    for (i, yv) in (i0..).zip(bands.into_remainder()) {
        *yv = finish(i, dot(&w[i * k..(i + 1) * k], x));
    }
}

/// [`dot`] of each of the [`GEMV_ROWS`] `k`-long rows of `w` with `x`.
/// Every row is reduced exactly as [`dot`] reduces it — the same lanes,
/// tail and combination order — so each sum is bit-identical to it; the
/// rows share each load of `x`, and their partial sums stay in registers
/// for the whole pass. Kept out of line so that it has a symbol, which
/// `xtask asm` reads.
#[inline(never)]
fn dot_rows(k: usize, w: &[f32], x: &[f32]) -> [f32; GEMV_ROWS] {
    let rows: [&[f32]; GEMV_ROWS] = std::array::from_fn(|r| &w[r * k..(r + 1) * k]);
    let chunks = k / DOT_LANES;
    let mut acc = [[0.0f32; DOT_LANES]; GEMV_ROWS];
    for c in 0..chunks {
        let xv = &x[c * DOT_LANES..(c + 1) * DOT_LANES];
        for (lanes, row) in acc.iter_mut().zip(&rows) {
            let rv = &row[c * DOT_LANES..(c + 1) * DOT_LANES];
            for l in 0..DOT_LANES {
                lanes[l] = rv[l].mul_add(xv[l], lanes[l]);
            }
        }
    }
    std::array::from_fn(|r| {
        let mut tail = 0.0f32;
        for (p, q) in rows[r][chunks * DOT_LANES..]
            .iter()
            .zip(&x[chunks * DOT_LANES..])
        {
            tail = p.mul_add(*q, tail);
        }
        combine(&acc[r], tail)
    })
}

/// Vectorisable dot product: eight independent partial sums, each a
/// chain of fused multiply-adds in ascending order, combined in a fixed
/// order.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; DOT_LANES];
    let chunks = a.len() / DOT_LANES;
    for c in 0..chunks {
        let av = &a[c * DOT_LANES..(c + 1) * DOT_LANES];
        let bv = &b[c * DOT_LANES..(c + 1) * DOT_LANES];
        for l in 0..DOT_LANES {
            acc[l] = av[l].mul_add(bv[l], acc[l]);
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in a[chunks * DOT_LANES..].iter().zip(&b[chunks * DOT_LANES..]) {
        tail = x.mul_add(*y, tail);
    }
    combine(&acc, tail)
}

/// The fixed order in which a dot product's partial sums and tail are
/// added, for determinism.
#[inline(always)]
fn combine(acc: &[f32; DOT_LANES], tail: f32) -> f32 {
    (((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))) + tail
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    /// Textbook triple loop: ascending `k`, one fused multiply-add per
    /// product, then the epilogue as its own pass — the reduction the
    /// kernel must reproduce bit for bit.
    fn naive(
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

    fn ramp(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i % 13) as f32 - 6.0) * scale).collect()
    }

    #[test]
    fn matches_naive_across_shapes() {
        let kc = 8;
        let blocking = GemmBlocking {
            kc,
            ..GemmBlocking::default()
        };
        for m in [1, MR - 1, MR + 1, 50] {
            for n in [1, 4, NR - 1, NR + 1, 70] {
                for k in [0, 1, kc - 1, kc + 1, 2 * kc + 3] {
                    let a = ramp(m * k, 0.37);
                    let b = ramp(k * n, 0.53);
                    let bias = ramp(m, 0.11);
                    let epilogue = Epilogue::BiasRelu(&bias, 0.1);
                    let mut c = vec![9.0f32; m * n];
                    gemm(m, n, k, &a, &b, &mut c, blocking, epilogue);
                    let want = naive(m, n, k, &a, &b, epilogue);
                    assert_eq!(bits(&c), bits(&want), "({m},{n},{k})");
                }
            }
        }
    }

    #[test]
    fn tiny_blocking_matches_default() {
        let (m, n, k) = (9, 11, 13);
        let a = ramp(m * k, 0.3);
        let b = ramp(k * n, 0.7);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(
            m,
            n,
            k,
            &a,
            &b,
            &mut c1,
            GemmBlocking::default(),
            Epilogue::None,
        );
        let tiny = GemmBlocking {
            mc: 2,
            nc: 3,
            kc: 4,
        };
        gemm(m, n, k, &a, &b, &mut c2, tiny, Epilogue::None);
        assert_eq!(c1, c2, "blocking must not change the reduction order");
    }

    #[test]
    fn bias_and_relu_epilogues() {
        let (m, n, k) = (2, 3, 2);
        let a = vec![1.0, 0.0, 0.0, 1.0]; // identity-ish
        let b = vec![1.0, -2.0, 3.0, -4.0, 5.0, -6.0];
        let bias = vec![10.0, -10.0];
        let mut c = vec![0.0; m * n];
        gemm(
            m,
            n,
            k,
            &a,
            &b,
            &mut c,
            GemmBlocking::default(),
            Epilogue::Bias(&bias),
        );
        assert_eq!(c, vec![11.0, 8.0, 13.0, -14.0, -5.0, -16.0]);
        gemm(
            m,
            n,
            k,
            &a,
            &b,
            &mut c,
            GemmBlocking::default(),
            Epilogue::BiasRelu(&bias, 0.0),
        );
        assert_eq!(c, vec![11.0, 8.0, 13.0, 0.0, 0.0, 0.0]);
        gemm(
            m,
            n,
            k,
            &a,
            &b,
            &mut c,
            GemmBlocking::default(),
            Epilogue::Relu(0.5),
        );
        assert_eq!(c, vec![1.0, -1.0, 3.0, -2.0, 5.0, -3.0]);
    }

    #[test]
    fn large_parallel_path_matches_serial() {
        // 3 threads over 50 rows: bands of 20, 20 and 10 rows, the last
        // one ending in a 2-row tile; 17 rows per band before rounding.
        // 70 columns end in a 22-column tile.
        let (m, n, k) = (50, 70, 33);
        let a = ramp(m * k, 0.01);
        let b = ramp(k * n, 0.02);
        let bias = ramp(m, 0.3);
        let epilogue = Epilogue::BiasRelu(&bias, 0.2);
        let bl = GemmBlocking::default();
        let mut par = vec![0.0; m * n];
        let dense = Dense { b: &b, n, ld: n };
        gemm_on(3, m, n, k, &a, &dense, &mut par, bl, epilogue);
        let mut ser = vec![0.0; m * n];
        gemm_on(1, m, n, k, &a, &dense, &mut ser, bl, epilogue);
        assert_eq!(
            bits(&par),
            bits(&ser),
            "threaded row bands must be bit-identical"
        );
        assert_eq!(bits(&ser), bits(&naive(m, n, k, &a, &b, epilogue)));
    }

    #[test]
    fn gemv_matches_gemm_column() {
        let (m, k) = (7, 19);
        let w = ramp(m * k, 0.1);
        let x = ramp(k, 0.2);
        let bias = ramp(m, 1.0);
        let mut y = vec![0.0; m];
        gemv(m, k, &w, &x, Some(&bias), None, &mut y);
        let mut c = vec![0.0; m];
        gemm(
            m,
            1,
            k,
            &w,
            &x,
            &mut c,
            GemmBlocking::default(),
            Epilogue::Bias(&bias),
        );
        for (a, b) in y.iter().zip(&c) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    /// The multi-row pass reduces every row exactly as `dot` does: the
    /// full passes, the leftover rows and the `k` tails, with and without
    /// the fused bias and ReLU, bit for bit.
    #[test]
    fn gemv_rows_are_bit_identical_to_dot() {
        let noise = |len: usize, salt: usize| -> Vec<f32> {
            (0..len)
                .map(|i| ((i * 7919 + salt * 104_729) % 2003) as f32 / 1001.0 - 1.0)
                .collect()
        };
        for m in [1, 7, 8, 9, 500] {
            for k in [5, 8, 800, 803] {
                let w = noise(m * k, 1);
                let x = noise(k, 2);
                let b = noise(m, 3);
                for (bias, slope) in [
                    (None, None),
                    (Some(&b[..]), None),
                    (None, Some(0.0)),
                    (Some(&b[..]), Some(0.1)),
                ] {
                    let want: Vec<f32> = (0..m)
                        .map(|i| {
                            let mut acc = dot(&w[i * k..(i + 1) * k], &x);
                            if let Some(b) = bias {
                                acc += b[i];
                            }
                            match slope {
                                Some(s) if acc < 0.0 => acc * s,
                                _ => acc,
                            }
                        })
                        .collect();
                    let mut y = vec![f32::NAN; m];
                    gemv(m, k, &w, &x, bias, slope, &mut y);
                    assert_eq!(
                        bits(&y),
                        bits(&want),
                        "m {m}, k {k}, bias {}, slope {slope:?}",
                        bias.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn gemv_fused_relu_clamps() {
        let w = vec![1.0, -1.0];
        let x = vec![1.0];
        let mut y = vec![0.0; 2];
        gemv(2, 1, &w, &x, None, Some(0.0), &mut y);
        assert_eq!(y, vec![1.0, 0.0]);
    }

    #[test]
    fn dot_matches_sequential_sum() {
        let a = ramp(37, 0.3);
        let b = ramp(37, 0.4);
        let want: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - want).abs() < 1e-3);
    }

    /// `a · b` over `a = [1, 1 + 2⁻¹²]`, `b = [−(1 + 2⁻¹¹), 1 + 2⁻¹²]`.
    /// The second product is exactly `1 + 2⁻¹¹ + 2⁻²⁴`, half an ulp above
    /// `1 + 2⁻¹¹`: fused, the sum keeps that `2⁻²⁴`; multiply-then-add
    /// rounds the product to even first and the sum is `0`.
    const FUSED_A: [f32; 2] = [1.0, 1.0 + 1.0 / 4096.0];
    const FUSED_B: [f32; 2] = [-(1.0 + 1.0 / 2048.0), 1.0 + 1.0 / 4096.0];
    const FUSED_SUM: f32 = 1.0 / 16_777_216.0;

    /// Pins the fused contract by value, so that neither the kernels nor
    /// the `naive` reference can fall back to `acc += a * b` unnoticed.
    #[test]
    fn every_product_sum_rounds_once() {
        let unfused = FUSED_A[0] * FUSED_B[0] + FUSED_A[1] * FUSED_B[1];
        assert_eq!(unfused, 0.0, "the case must tell the roundings apart");

        // Every row of A is FUSED_A and every column of B is FUSED_B, so
        // every element of C is FUSED_SUM. Two tiles and one more row and
        // column: C has interior tiles and partial bottom/right ones.
        let (m, n, k) = (2 * MR + 1, 2 * NR + 1, 2);
        let a: Vec<f32> = (0..m).flat_map(|_| FUSED_A).collect();
        let b: Vec<f32> = FUSED_B.iter().flat_map(|&v| vec![v; n]).collect();
        for kc in [1, 256] {
            let blocking = GemmBlocking {
                kc,
                ..GemmBlocking::default()
            };
            let mut c = vec![f32::NAN; m * n];
            gemm(m, n, k, &a, &b, &mut c, blocking, Epilogue::None);
            for (i, j) in [(MR + 1, NR + 1), (m - 1, n - 1)] {
                assert_eq!(
                    c[i * n + j].to_bits(),
                    FUSED_SUM.to_bits(),
                    "C[{i}][{j}], kc {kc}"
                );
            }
        }

        let mut y = [f32::NAN];
        gemv(1, k, &FUSED_A, &FUSED_B, None, None, &mut y);
        assert_eq!(y[0].to_bits(), FUSED_SUM.to_bits(), "gemv");
        // Sixteen terms put both products in `dot`'s first lane, not its
        // tail.
        let (mut a16, mut b16) = ([0.0f32; 16], [0.0f32; 16]);
        (a16[0], a16[8], b16[0], b16[8]) = (FUSED_A[0], FUSED_A[1], FUSED_B[0], FUSED_B[1]);
        assert_eq!(dot(&a16, &b16).to_bits(), FUSED_SUM.to_bits(), "dot lane");
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let mut c: Vec<f32> = vec![];
        gemm(
            0,
            0,
            3,
            &[],
            &[],
            &mut c,
            GemmBlocking::default(),
            Epilogue::None,
        );
        assert!(c.is_empty());
    }
}

//! Register-tiled single-precision GEMM with fused epilogues.
//!
//! Computes `C = A · B` for row-major matrices (`A: m×k`, `B: k×n`,
//! `C: m×n`) one `MR×NR` tile of `C` at a time. The tile's accumulators
//! are a local `[[f32; NR]; MR]` that LLVM keeps in vector registers for
//! a whole `k`-slice, so the inner loop is one broadcast of `A`, one load
//! of `B` and `MR·NR` multiply-adds per `k` step with no traffic to `C`;
//! the bias/ReLU epilogue is applied to those registers before the
//! tile's only store. All of it is safe Rust over fixed-size arrays.
//!
//! Tile sizes. `NR = 16` is two AVX2 vectors; `MR = 4` gives eight
//! accumulator registers and leaves room for the two `B` vectors, the
//! broadcast and the product temporaries in the sixteen `ymm` registers
//! of the `x86-64-v3` level the workspace compiles for. Measured on the
//! `vgg56` conv1_2 shape (64×3136×576, one thread): 4×16 and 6×16 tie
//! within noise, 4×24 and 8×8 lose (see DESIGN.md §4c), and 4 divides
//! the zoo's channel counts more often than 6 does.
//!
//! Packing. Before a column of tiles is computed, the `kc×NR` slice of
//! `B` under it is copied into a stack array (`KC_MAX·NR·4 B` = 16 KiB),
//! zero-padded to `NR` columns at the right edge, and every row tile
//! reads that copy. Unpacked, the slice is `kc` separate cache lines a
//! whole row of `B` apart: at `n = 3136` (a 56×56 feature map) the row
//! stride is 12 544 B = 196 lines, 196 mod 64 = 4, so the 256 lines of
//! one slice fall onto 16 of an 8-way L1's 64 sets — room for 128 — and
//! evict each other on every pass. Packed, the slice is contiguous and
//! L1-resident. It lives on the stack because its size is a compile-time
//! constant and each worker thread needs its own: no heap, no
//! `Workspace` field, nothing to size or share.
//!
//! Determinism: each output element accumulates its `k` products in
//! strictly ascending `k` order as a separate multiply and add —
//! `acc += a * b`, never `mul_add`, which rounds once instead of twice
//! (different bits) and calls libm where the target lacks FMA —
//! regardless of blocking parameters or thread count (threads partition
//! *rows*, never the reduction), so results are bit-identical across
//! configurations and to the textbook triple loop.

use std::sync::OnceLock;

/// Rows of the register tile.
const MR: usize = 4;
/// Columns of the register tile (two 8-lane vectors).
const NR: usize = 16;
/// Deepest `k`-slice the packed `B` tile holds: `KC_MAX × NR` floats =
/// 16 KiB of stack.
const KC_MAX: usize = 256;

/// Accumulators of one `MR×NR` tile of `C`.
type Tile = [[f32; NR]; MR];

/// Loop-blocking parameters, shared by the f32 and int8 GEMMs.
///
/// The f32 [`gemm`] reads only `kc`: the depth of the `k`-slice whose
/// `kc × 16` piece of `B` is packed into the L1-resident stack tile,
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
const PAR_MACS_THRESHOLD: usize = 1 << 21;

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
    let threads = if m * n * k >= PAR_MACS_THRESHOLD {
        available_threads()
    } else {
        1
    };
    gemm_on(threads, m, n, k, a, b, c, blocking, epilogue);
}

/// [`gemm`] over at most `threads` row bands.
#[allow(clippy::too_many_arguments)]
fn gemm_on(
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    blocking: GemmBlocking,
    epilogue: Epilogue<'_>,
) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), k * n, "B must be k×n");
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
    // the last one can end in a partial tile. The caller computes the
    // first band itself instead of sleeping on a thread it had to spawn.
    let rows_per = m.div_ceil(threads.clamp(1, m)).next_multiple_of(MR);
    if rows_per >= m {
        return gemm_band(m, n, k, a, b, c, kc, epilogue);
    }
    std::thread::scope(|scope| {
        let mut bands = c
            .chunks_mut(rows_per * n)
            .enumerate()
            .map(|(band, c_band)| {
                let row0 = band * rows_per;
                let rows = c_band.len() / n;
                let a_band = &a[row0 * k..(row0 + rows) * k];
                let epilogue = epilogue.for_band(row0);
                move || gemm_band(rows, n, k, a_band, b, c_band, kc, epilogue)
            });
        let first = bands.next();
        for band in bands {
            scope.spawn(band);
        }
        if let Some(mut band) = first {
            band();
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

/// Single-threaded GEMM over the whole of `c`: for each `NR`-wide column
/// of tiles and each `kc`-deep slice, pack that piece of `B` once and run
/// every row tile against it.
#[allow(clippy::too_many_arguments)]
fn gemm_band(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    kc: usize,
    epilogue: Epilogue<'_>,
) {
    let mut packed = [[0.0f32; NR]; KC_MAX];
    for jb in (0..n).step_by(NR) {
        let jw = NR.min(n - jb);
        let mut kb = 0;
        // `k = 0` still runs one (empty) slice: C = epilogue(0).
        loop {
            let kw = kc.min(k - kb);
            let bp = &mut packed[..kw];
            for (p, row) in bp.iter_mut().enumerate() {
                let src = (kb + p) * n + jb;
                row[..jw].copy_from_slice(&b[src..src + jw]);
                row[jw..].fill(0.0);
            }
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
                        let at = (ib + r) * n + jb;
                        row[..jw].copy_from_slice(&c[at..at + jw]);
                    }
                }
                let mut acc = micro_kernel(&a_rows, bp, acc);
                if last {
                    epilogue.apply(&mut acc, ib, iw);
                }
                for (r, row) in acc.iter().enumerate().take(iw) {
                    let at = (ib + r) * n + jb;
                    c[at..at + jw].copy_from_slice(&row[..jw]);
                }
            }
            kb += kw;
            if kb >= k {
                break;
            }
        }
    }
}

/// `acc[r][j] + Σ_p a_rows[r][p] · bp[p][j]`, ascending `p`, multiply
/// then add. The tile is taken and returned by value: a local that is
/// only ever indexed by the (fully unrolled) constant loops below is
/// promoted to `MR·NR/8` vector registers for the whole `p` loop, which a
/// `&mut Tile` the caller also slices dynamically would not be.
#[inline(always)]
fn micro_kernel(a_rows: &[&[f32]; MR], bp: &[[f32; NR]], mut acc: Tile) -> Tile {
    for (p, brow) in bp.iter().enumerate() {
        for (arow, crow) in a_rows.iter().zip(acc.iter_mut()) {
            let x = arow[p];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += x * bv;
            }
        }
    }
    acc
}

/// Dense matrix-vector product `y = W · x (+ bias)` with an optional
/// fused leaky-ReLU — the fully-connected layer kernel. `w` is
/// `m × k` row-major.
///
/// Each dot product runs over eight partial accumulators so the
/// reduction vectorises; the accumulator combination order is fixed, so
/// results are deterministic.
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
        std::thread::scope(|scope| {
            for (band, y_band) in y.chunks_mut(rows_per).enumerate() {
                let row0 = band * rows_per;
                let w_band = &w[row0 * k..(row0 + y_band.len()) * k];
                scope.spawn(move || {
                    gemv_serial(k, w_band, x, bias, relu_slope, y_band, row0);
                });
            }
        });
    } else {
        gemv_serial(k, w, x, bias, relu_slope, y, 0);
    }
}

fn gemv_serial(
    k: usize,
    w: &[f32],
    x: &[f32],
    bias: Option<&[f32]>,
    relu_slope: Option<f32>,
    y: &mut [f32],
    row_off: usize,
) {
    for (i, yv) in y.iter_mut().enumerate() {
        let mut acc = dot(&w[i * k..(i + 1) * k], x);
        if let Some(b) = bias {
            acc += b[row_off + i];
        }
        if let Some(slope) = relu_slope {
            if acc < 0.0 {
                acc *= slope;
            }
        }
        *yv = acc;
    }
}

/// Vectorisable dot product: eight independent partial sums combined in
/// a fixed order.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for c in 0..chunks {
        let av = &a[c * LANES..(c + 1) * LANES];
        let bv = &b[c * LANES..(c + 1) * LANES];
        for l in 0..LANES {
            acc[l] += av[l] * bv[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in a[chunks * LANES..].iter().zip(&b[chunks * LANES..]) {
        tail += x * y;
    }
    // Fixed combination order for determinism.
    (((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))) + tail
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    /// Textbook triple loop: ascending `k`, multiply then add, then the
    /// epilogue as its own pass — the reduction the kernel must
    /// reproduce bit for bit.
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
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
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
        let (m, n, k) = (50, 70, 33);
        let a = ramp(m * k, 0.01);
        let b = ramp(k * n, 0.02);
        let bias = ramp(m, 0.3);
        let epilogue = Epilogue::BiasRelu(&bias, 0.2);
        let bl = GemmBlocking::default();
        let mut par = vec![0.0; m * n];
        gemm_on(3, m, n, k, &a, &b, &mut par, bl, epilogue);
        let mut ser = vec![0.0; m * n];
        gemm_on(1, m, n, k, &a, &b, &mut ser, bl, epilogue);
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

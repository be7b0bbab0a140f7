//! Winograd F(2×2, 3×3) convolution for the wide stride-1 3×3 layers.
//!
//! Each 2×2 block of a 3×3, stride-1 convolution's output is
//! `Y = Aᵀ [(G g Gᵀ) ⊙ (Bᵀ d B)] A`, where `d` is the 4×4 input tile
//! under the block and `g` the filter: 16 multiplies per (filter, input
//! channel) pair where the direct convolution needs 36, so 2.25× less
//! arithmetic. Summed over input channels, the elementwise products
//! become 16 independent GEMMs, one per tile position `ξ`: the `F×C`
//! transformed filters `U[ξ]` times the `C×tiles` transformed inputs
//! `V[ξ]`, giving the `F×tiles` planes `M[ξ]`. The multiplies therefore
//! run on the register-tiled GEMM (`gemm_band` with the dense packer,
//! no new micro-kernel), and both transforms are additions and
//! subtractions only.
//!
//! Layout and blocking. [`WinogradFilters`] holds the 16 `U[ξ]` planes,
//! transformed once when an engine compiles. The output's `⌈outH/2⌉ ×
//! ⌈outW/2⌉` tiles are numbered row-major, and their rows are split
//! across threads once per layer. Each thread walks its range in flat
//! blocks of tiles (a block may start and end mid tile row) sized to a
//! per-thread scratch budget, in multiples of the GEMM's 24-column
//! register tile and never fewer than 24. Per block it writes the
//! transformed input, runs the 16 GEMMs and applies the inverse
//! transform, with bias and leaky ReLU fused, straight into the output.
//! The block's `V[ξ]` rows are grouped by input channel and its `M[ξ]`
//! rows by output channel: channel `c`'s 16 rows of `V` are contiguous,
//! so the input transform writes, and the inverse transform reads, one
//! run of memory per channel and not 16 streams one plane apart (16
//! planes a multiple of 4 KiB apart all fall on one L1 set). The GEMMs
//! read and write those rows with a row stride of `16 × block`.
//!
//! Scratch is the caller's ([`winograd_scratch_len`] floats, split
//! across threads here), so a call allocates no buffer for it.
//! Transforms and GEMMs run per tile and per element, each product-sum
//! in ascending channel order, so the output is bit-identical across
//! thread counts and block sizes; it is not bit-identical to the direct
//! convolution ([`crate::ops::conv2d`]), and agrees with it within
//! rounding error.

use crate::gemm::{self, available_threads, Dense, Epilogue, KC_MAX, NR, PAR_MACS_THRESHOLD};
use crate::im2col::ConvGeometry;

/// Input channels at and above which a 3×3, stride-1 convolution takes
/// the Winograd path. Against the direct convolution, measured
/// in-process on 2 threads (Intel Xeon, 2 vCPUs), with F = 64 at 56×56:
/// C = 3 read 0.48×, C = 8 0.85× and C = 16 1.14×, but C = 16 lost on
/// 12×12 and 16×16 maps (0.87×, 0.92×); C = 32 tied at 12×12 (1.03×)
/// and won from 14×14 up (1.2× to 1.9×).
pub const WINOGRAD_MIN_CHANNELS: usize = 32;

/// Output tiles below which the direct convolution stays: an 8×8 map
/// (16 tiles) read 0.91× at C = F = 64 and a 7×7 one 0.89× at
/// C = F = 512, while 10×10 (25 tiles) read 1.31× at C = F = 64.
const MIN_TILES: usize = NR;

/// Tile positions of F(2×2, 3×3): one GEMM each.
const XI: usize = 16;

/// Scratch floats per thread that a block's `V` and `M` rows may fill:
/// 384 KiB, which holds 48 tiles of a 64→64 layer and 24 of a 128→128
/// one. A wider layer takes 24 tiles regardless: narrower blocks leave
/// most of the GEMM's register tile empty (C = F = 512 at 28×28 read
/// 0.6× in 6-tile blocks, 1.7× in 24-tile ones).
const BLOCK_BUDGET: usize = 96 * 1024;

/// Tiles per pass of the input transform, whose inner loops run over
/// stack arrays of this length.
const CHUNK: usize = 32;

/// Tiles per pass of the inverse transform's arithmetic, which does not
/// stop at tile-row ends.
const RUN: usize = 128;

/// Whether a convolution takes the Winograd path: a 3×3 kernel at
/// stride 1 over at least [`WINOGRAD_MIN_CHANNELS`] input channels, with
/// an output of at least 24 tiles of 2×2.
pub fn takes_winograd(geo: &ConvGeometry) -> bool {
    let tiles = geo.out_h.div_ceil(2) * geo.out_w.div_ceil(2);
    geo.kernel == 3 && geo.stride == 1 && geo.in_c >= WINOGRAD_MIN_CHANNELS && tiles >= MIN_TILES
}

/// A 3×3 filter bank transformed for F(2×2, 3×3): the 16 `F×C` planes
/// `U[ξ] = (G g Gᵀ)[ξ]`, each a GEMM's left operand.
#[derive(Clone, Debug)]
pub struct WinogradFilters {
    num_output: usize,
    in_c: usize,
    planes: Vec<f32>,
}

impl WinogradFilters {
    /// Transforms an `F×C×3×3` row-major weight blob.
    ///
    /// # Panics
    /// Panics when `weights` is not `num_output · in_c · 9` long.
    pub fn new(weights: &[f32], num_output: usize, in_c: usize) -> Self {
        assert_eq!(
            weights.len(),
            num_output * in_c * 9,
            "weight blob is not F×C×3×3"
        );
        let plane = num_output * in_c;
        let mut planes = vec![0.0; XI * plane];
        for (at, g) in weights.chunks_exact(9).enumerate() {
            // G·g: rows g0, (g0 + g1 + g2)/2, (g0 − g1 + g2)/2, g2.
            let row = |r: usize| [g[3 * r], g[3 * r + 1], g[3 * r + 2]];
            let (g0, g1, g2) = (row(0), row(1), row(2));
            let gg = [
                g0,
                std::array::from_fn(|j| (g0[j] + g1[j] + g2[j]) * 0.5),
                std::array::from_fn(|j| (g0[j] - g1[j] + g2[j]) * 0.5),
                g2,
            ];
            // (G·g)·Gᵀ, the same combination along each row.
            for (i, [a, b, c]) in gg.into_iter().enumerate() {
                let u = [a, (a + b + c) * 0.5, (a - b + c) * 0.5, c];
                for (j, v) in u.into_iter().enumerate() {
                    planes[(4 * i + j) * plane + at] = v;
                }
            }
        }
        WinogradFilters {
            num_output,
            in_c,
            planes,
        }
    }

    fn plane(&self, xi: usize) -> &[f32] {
        let len = self.num_output * self.in_c;
        &self.planes[xi * len..(xi + 1) * len]
    }
}

/// How one layer's tiles are split across threads and blocks, and how
/// much scratch a block takes.
#[derive(Clone, Copy, Debug)]
struct Plan {
    tiles_w: usize,
    tiles_h: usize,
    /// Tile rows per thread (the last thread may get fewer).
    rows_per: usize,
    /// Threads that get tiles.
    parts: usize,
    /// Tiles per block.
    block: usize,
    /// Floats of a block's `V` rows (`C × 16 × block`).
    v_len: usize,
    /// Floats of a block's `M` rows (`F × 16 × block`).
    m_len: usize,
}

impl Plan {
    /// `block` overrides the budget-sized block (tests only).
    fn new(geo: &ConvGeometry, num_output: usize, threads: usize, block: Option<usize>) -> Self {
        let (tiles_h, tiles_w) = (geo.out_h.div_ceil(2), geo.out_w.div_ceil(2));
        let rows_per = tiles_h.div_ceil(threads.clamp(1, tiles_h.max(1))).max(1);
        let per_tile = XI * (geo.in_c + num_output);
        let fit = (BLOCK_BUDGET / per_tile).max(NR);
        let budget = fit - fit % NR;
        let block = block
            .unwrap_or(budget)
            .clamp(1, (rows_per * tiles_w).max(1));
        Plan {
            tiles_w,
            tiles_h,
            rows_per,
            parts: tiles_h.div_ceil(rows_per),
            block,
            v_len: geo.in_c * XI * block,
            m_len: num_output * XI * block,
        }
    }

    /// Scratch floats one thread needs.
    fn part_len(&self) -> usize {
        self.v_len + self.m_len
    }
}

/// Threads a layer is split across: as many as the machine has once the
/// direct convolution's multiply-adds would make the GEMM split too.
fn threads_for(geo: &ConvGeometry, num_output: usize) -> usize {
    if num_output * geo.lowered_rows() * geo.lowered_cols() >= PAR_MACS_THRESHOLD {
        available_threads()
    } else {
        1
    }
}

/// Scratch floats [`conv2d_winograd`] needs for this layer, over all the
/// threads it will use.
pub fn winograd_scratch_len(geo: &ConvGeometry, num_output: usize) -> usize {
    let plan = Plan::new(geo, num_output, threads_for(geo, num_output), None);
    plan.parts * plan.part_len()
}

/// 3×3, stride-1 convolution through Winograd F(2×2, 3×3), with a fused
/// bias(+leaky-ReLU) epilogue.
///
/// `input` is `C×H×W` and `out` `F×outH×outW`, as for
/// [`conv2d`](crate::ops::conv2d); any padding works, odd output sizes
/// included. `scratch` must hold [`winograd_scratch_len`] floats; its
/// contents are overwritten.
///
/// # Panics
/// Panics when the geometry is not 3×3 at stride 1, when slice lengths
/// disagree with it or with the filters, or when `scratch` is short.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_winograd(
    input: &[f32],
    filters: &WinogradFilters,
    bias: Option<&[f32]>,
    geo: &ConvGeometry,
    fused_relu: Option<f32>,
    out: &mut [f32],
    scratch: &mut [f32],
) {
    let threads = threads_for(geo, filters.num_output);
    winograd_on(
        threads, None, input, filters, bias, geo, fused_relu, out, scratch,
    );
}

/// [`conv2d_winograd`] over at most `threads` threads, in blocks of
/// `block` tiles when given.
#[allow(clippy::too_many_arguments)]
fn winograd_on(
    threads: usize,
    block: Option<usize>,
    input: &[f32],
    filters: &WinogradFilters,
    bias: Option<&[f32]>,
    geo: &ConvGeometry,
    fused_relu: Option<f32>,
    out: &mut [f32],
    scratch: &mut [f32],
) {
    let f = filters.num_output;
    assert!(
        geo.kernel == 3 && geo.stride == 1,
        "Winograd F(2×2, 3×3) needs a 3×3 kernel at stride 1"
    );
    assert_eq!(geo.in_c, filters.in_c, "filters and input disagree on C");
    assert_eq!(
        input.len(),
        geo.in_c * geo.in_h * geo.in_w,
        "input length does not match geometry"
    );
    assert_eq!(out.len(), f * geo.lowered_cols(), "output length mismatch");
    if let Some(b) = bias {
        assert!(b.len() >= f, "bias shorter than F");
    }
    if out.is_empty() {
        return;
    }
    let plan = Plan::new(geo, f, threads, block);
    let part_len = plan.part_len();
    assert!(
        scratch.len() >= plan.parts * part_len,
        "Winograd scratch holds {} floats, the layer needs {}",
        scratch.len(),
        plan.parts * part_len
    );
    let epilogue = match (bias, fused_relu) {
        (Some(b), Some(slope)) => Epilogue::BiasRelu(b, slope),
        (Some(b), None) => Epilogue::Bias(b),
        (None, Some(slope)) => Epilogue::Relu(slope),
        (None, None) => Epilogue::None,
    };
    let layer = Layer {
        input,
        filters,
        geo,
        epilogue,
        plan,
    };

    // Thread `p` writes output rows [2·p·rows_per, 2·(p+1)·rows_per) of
    // every plane: one band per plane.
    let band_len = 2 * plan.rows_per * geo.out_w;
    let mut bands: Vec<Vec<&mut [f32]>> = (0..plan.parts).map(|_| Vec::with_capacity(f)).collect();
    for plane in out.chunks_mut(geo.lowered_cols()) {
        for (part, band) in plane.chunks_mut(band_len).enumerate() {
            bands[part].push(band);
        }
    }
    if let [only] = bands.as_mut_slice() {
        return layer.run_part(0, only, &mut scratch[..part_len]);
    }
    let layer = &layer;
    std::thread::scope(|scope| {
        let mut parts = bands
            .iter_mut()
            .zip(scratch.chunks_mut(part_len))
            .enumerate()
            .map(|(part, (bands, scratch))| move || layer.run_part(part, bands, scratch));
        let first = parts.next();
        for part in parts {
            scope.spawn(part);
        }
        if let Some(mut part) = first {
            part();
        }
    });
}

/// One layer's operands, shared read-only by its threads.
struct Layer<'a> {
    input: &'a [f32],
    filters: &'a WinogradFilters,
    geo: &'a ConvGeometry,
    epilogue: Epilogue<'a>,
    plan: Plan,
}

impl Layer<'_> {
    /// Computes thread `part`'s tile rows block by block. `bands[f]` is
    /// its band of output plane `f`.
    fn run_part(&self, part: usize, bands: &mut [&mut [f32]], scratch: &mut [f32]) {
        let plan = &self.plan;
        let (c, f) = (self.geo.in_c, self.filters.num_output);
        let first_row = part * plan.rows_per;
        let t_end = (first_row + plan.rows_per).min(plan.tiles_h) * plan.tiles_w;
        let (v, m) = scratch.split_at_mut(plan.v_len);
        let mut t0 = first_row * plan.tiles_w;
        while t0 < t_end {
            let n = plan.block.min(t_end - t0);
            let tiles = Tiles {
                t0,
                n,
                tiles_w: plan.tiles_w,
                first_row: 2 * first_row,
            };
            input_transform(self.input, self.geo, &tiles, v);
            for xi in 0..XI {
                // Row c of V[ξ] is row ξ of input channel c's group, and
                // row f of M[ξ] row ξ of output channel f's.
                let b = &v[xi * n..];
                let mp = &mut m[xi * n..];
                let dense = Dense { b, n, ld: XI * n };
                let a = self.filters.plane(xi);
                gemm::gemm_band(f, n, c, a, &dense, mp, XI * n, KC_MAX, Epilogue::None);
            }
            output_transform(m, &tiles, self.geo, self.epilogue, bands);
            t0 += n;
        }
    }
}

/// A block of `n` consecutive tiles from tile `t0`, and the first output
/// row of the band it is written into.
struct Tiles {
    t0: usize,
    n: usize,
    tiles_w: usize,
    first_row: usize,
}

impl Tiles {
    /// Tiles `from..from + len` of the block cut at tile-row ends and
    /// into runs of at most `max`: `(tile row, first tile column, block
    /// column, tiles)`. Dividing is slow, so only the start divides.
    fn runs(
        &self,
        from: usize,
        len: usize,
        max: usize,
    ) -> impl Iterator<Item = (usize, usize, usize, usize)> + Clone + '_ {
        let t = self.t0 + from;
        let (mut ty, mut tx, mut col) = (t / self.tiles_w, t % self.tiles_w, from);
        std::iter::from_fn(move || {
            if col >= from + len {
                return None;
            }
            let q = max.min(self.tiles_w - tx).min(from + len - col);
            let run = (ty, tx, col, q);
            (col, tx) = (col + q, tx + q);
            if tx == self.tiles_w {
                (ty, tx) = (ty + 1, 0);
            }
            Some(run)
        })
    }
}

/// Writes a block's `V[ξ] = (Bᵀ d B)[ξ]`: `V[ξ][c][k]`, for input
/// channel `c` and tile `k` of the block, at `v[(c·16 + ξ)·n + k]`.
///
/// Each input row under a pass is split into its even and odd columns
/// (`e`, `o`); tile `k`'s four columns are then `e[k]`, `o[k]`,
/// `e[k+1]`, `o[k+1]`, so every loop below reads contiguous slices.
#[inline(never)]
fn input_transform(input: &[f32], geo: &ConvGeometry, tiles: &Tiles, v: &mut [f32]) {
    let (in_h, in_w, pad) = (geo.in_h, geo.in_w, geo.pad);
    let n = tiles.n;
    let mut e = [[0.0f32; CHUNK + 1]; 4];
    let mut o = [[0.0f32; CHUNK + 1]; 4];
    for (ty, tx, col, q) in tiles.runs(0, tiles.n, CHUNK) {
        for (c, map) in input.chunks_exact(in_h * in_w).enumerate() {
            // Rows 2·ty − pad + i, columns from 2·tx − pad; zero outside
            // the image.
            for (i, (e, o)) in e.iter_mut().zip(o.iter_mut()).enumerate() {
                let (e, o) = (&mut e[..=q], &mut o[..=q]);
                let ih = (2 * ty + i).wrapping_sub(pad);
                if ih < in_h {
                    let line = &map[ih * in_w..(ih + 1) * in_w];
                    split_columns(line, 2 * tx as isize - pad as isize, e, o);
                } else {
                    e.fill(0.0);
                    o.fill(0.0);
                }
            }
            // Row c of each V[ξ]: row ξ of input channel c's 16 × n group.
            let mut planes = v[c * XI * n..(c + 1) * XI * n]
                .chunks_mut(n)
                .map(|row| &mut row[col..col + q]);
            // Row i of Bᵀ d combines rows a and b of d: d0 − d2, d1 + d2,
            // d2 − d1, d1 − d3.
            for (a, b) in [(0, 2), (1, 2), (2, 1), (1, 3)] {
                let (Some(v0), Some(v1), Some(v2), Some(v3)) =
                    (planes.next(), planes.next(), planes.next(), planes.next())
                else {
                    return;
                };
                let (rows_e, rows_o) = ([&e[a][..=q], &e[b][..=q]], [&o[a][..=q], &o[b][..=q]]);
                let v = [v0, v1, v2, v3];
                if (a, b) == (1, 2) {
                    bt_d_b(rows_e, rows_o, v, |x, y| x + y);
                } else {
                    bt_d_b(rows_e, rows_o, v, |x, y| x - y);
                }
            }
        }
    }
}

/// Row `i` of `Bᵀ d B` for a pass of `q` tiles: `v[j][k]` for tile `k`,
/// where row `i` of `Bᵀ d` is `comb` of two rows of `d`, given split
/// into even (`e`) and odd (`o`) columns, `q + 1` of each.
#[inline(always)]
fn bt_d_b(e: [&[f32]; 2], o: [&[f32]; 2], v: [&mut [f32]; 4], comb: impl Fn(f32, f32) -> f32) {
    let [v0, v1, v2, v3] = v;
    let q = v0.len();
    let (v1, v2, v3) = (&mut v1[..q], &mut v2[..q], &mut v3[..q]);
    let ([ea, eb], [oa, ob]) = (e.map(|r| &r[..=q]), o.map(|r| &r[..=q]));
    for k in 0..q {
        // Tile k's columns x0..x3 are e[k], o[k], e[k+1], o[k+1]; B
        // combines them into x0 − x2, x1 + x2, x2 − x1, x1 − x3.
        let (x0, x1) = (comb(ea[k], eb[k]), comb(oa[k], ob[k]));
        let (x2, x3) = (comb(ea[k + 1], eb[k + 1]), comb(oa[k + 1], ob[k + 1]));
        v0[k] = x0 - x2;
        v1[k] = x1 + x2;
        v2[k] = x2 - x1;
        v3[k] = x1 - x3;
    }
}

/// Splits `line[x0..]` into its even (`e[k] = line[x0 + 2k]`) and odd
/// (`o[k] = line[x0 + 2k + 1]`) columns, reading zero outside the line.
#[inline(always)]
fn split_columns(line: &[f32], x0: isize, e: &mut [f32], o: &mut [f32]) {
    let (w, pairs) = (line.len() as isize, e.len() as isize);
    // Pairs k_lo..k_hi lie wholly inside the line.
    let k_lo = ((1 - x0) / 2).clamp(0, pairs);
    let k_hi = ((w - x0) / 2).clamp(k_lo, pairs);
    let (lo, hi) = (k_lo as usize, k_hi as usize);
    if hi > lo {
        let src = &line[(x0 + 2 * k_lo) as usize..(x0 + 2 * k_hi) as usize];
        for ((pair, e), o) in src.chunks_exact(2).zip(&mut e[lo..hi]).zip(&mut o[lo..hi]) {
            *e = pair[0];
            *o = pair[1];
        }
    }
    let at = |x: isize| {
        if (0..w).contains(&x) {
            line[x as usize]
        } else {
            0.0
        }
    };
    for k in (0..lo).chain(hi..e.len()) {
        let x = x0 + 2 * k as isize;
        (e[k], o[k]) = (at(x), at(x + 1));
    }
}

/// Turns a block's `M[ξ]` (`M[ξ][f][k]` at `m[(f·16 + ξ)·n + k]`) into
/// its 2×2 output tiles, `Y = Aᵀ M A`, applies the epilogue and writes
/// them into each output channel's band, dropping the row and column of
/// an edge tile that fall outside an odd-sized output.
#[inline(never)]
fn output_transform(
    m: &[f32],
    tiles: &Tiles,
    geo: &ConvGeometry,
    epilogue: Epilogue<'_>,
    bands: &mut [&mut [f32]],
) {
    let (n, out_w) = (tiles.n, geo.out_w);
    // Every band of a thread spans the same output rows.
    let band_rows = bands.first().map_or(0, |band| band.len() / out_w);
    let mut y = [[0.0f32; RUN]; 4];
    for from in (0..n).step_by(RUN) {
        let len = RUN.min(n - from);
        let runs = tiles.runs(from, len, usize::MAX);
        for (f, band) in bands.iter_mut().enumerate() {
            let mp: [&[f32]; XI] = std::array::from_fn(|xi| &m[(f * XI + xi) * n + from..][..len]);
            let [y00, y01, y10, y11] = &mut y;
            let ys = [
                &mut y00[..len],
                &mut y01[..len],
                &mut y10[..len],
                &mut y11[..len],
            ];
            match epilogue {
                Epilogue::None => tile_outputs(&mp, ys, |v| v),
                Epilogue::Bias(bias) => {
                    let b = bias[f];
                    tile_outputs(&mp, ys, |v| v + b)
                }
                Epilogue::Relu(slope) => tile_outputs(&mp, ys, |v| relu(v, slope)),
                Epilogue::BiasRelu(bias, slope) => {
                    let b = bias[f];
                    tile_outputs(&mp, ys, |v| relu(v + b, slope))
                }
            }
            for (ty, tx, col, q) in runs.clone() {
                // Output columns 2·tx .. 2·(tx + q), cut at the right edge.
                let x0 = 2 * tx;
                let cols = (2 * (tx + q)).min(out_w) - x0;
                let pairs = cols / 2;
                let at = col - from;
                for (dr, [left, right]) in [[0, 1], [2, 3]].into_iter().enumerate() {
                    let row = 2 * ty + dr - tiles.first_row;
                    if row >= band_rows {
                        continue;
                    }
                    let (left, right) = (&y[left][at..at + q], &y[right][at..at + q]);
                    let line = &mut band[row * out_w + x0..][..cols];
                    let (full, last) = line.split_at_mut(2 * pairs);
                    for ((pair, &a), &b) in full.chunks_exact_mut(2).zip(left).zip(right) {
                        pair[0] = a;
                        pair[1] = b;
                    }
                    if let Some(v) = last.first_mut() {
                        *v = left[pairs];
                    }
                }
            }
        }
    }
}

/// The epilogue's leaky ReLU, as `Epilogue` applies it.
#[inline(always)]
fn relu(v: f32, slope: f32) -> f32 {
    if v < 0.0 {
        v * slope
    } else {
        v
    }
}

/// `Y = Aᵀ M A` for a pass of tiles: `m[ξ][k]` is tile `k`'s `M[ξ]`, and
/// `y` receives `finish` of its outputs `y00, y01, y10, y11`.
#[inline(always)]
fn tile_outputs(m: &[&[f32]; XI], y: [&mut [f32]; 4], finish: impl Fn(f32) -> f32) {
    let [y00, y01, y10, y11] = y;
    let q = y00.len();
    let [m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15] = m.map(|p| &p[..q]);
    let (y01, y10, y11) = (&mut y01[..q], &mut y10[..q], &mut y11[..q]);
    for k in 0..q {
        // Aᵀ M: rows m0 + m1 + m2 and m1 − m2 − m3 (row r of M is
        // m[4r..4r + 4]), per column.
        let t0 = (m0[k] + m4[k]) + m8[k];
        let t1 = (m1[k] + m5[k]) + m9[k];
        let t2 = (m2[k] + m6[k]) + m10[k];
        let t3 = (m3[k] + m7[k]) + m11[k];
        let b0 = (m4[k] - m8[k]) - m12[k];
        let b1 = (m5[k] - m9[k]) - m13[k];
        let b2 = (m6[k] - m10[k]) - m14[k];
        let b3 = (m7[k] - m11[k]) - m15[k];
        // (Aᵀ M) A: columns s0 + s1 + s2 and s1 − s2 − s3.
        y00[k] = finish((t0 + t1) + t2);
        y01[k] = finish((t1 - t2) - t3);
        y10[k] = finish((b0 + b1) + b2);
        y11[k] = finish((b1 - b2) - b3);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_tensor::Shape;

    fn geo(c: usize, h: usize, w: usize, pad: usize) -> ConvGeometry {
        ConvGeometry {
            in_c: c,
            in_h: h,
            in_w: w,
            kernel: 3,
            stride: 1,
            pad,
            out_h: Shape::conv_out_dim(h, 3, 1, pad),
            out_w: Shape::conv_out_dim(w, 3, 1, pad),
        }
    }

    fn ramp(len: usize, mul: usize, modulo: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|v| ((v * mul % modulo) as f32 - (modulo / 2) as f32) * scale)
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs the layer with an explicit thread count and block width, on
    /// scratch sized for exactly that split.
    #[allow(clippy::too_many_arguments)]
    fn run(
        threads: usize,
        block: Option<usize>,
        input: &[f32],
        filters: &WinogradFilters,
        bias: &[f32],
        g: &ConvGeometry,
        f: usize,
    ) -> Vec<f32> {
        let plan = Plan::new(g, f, threads, block);
        let mut scratch = vec![f32::NAN; plan.parts * plan.part_len()];
        let mut out = vec![f32::NAN; f * g.lowered_cols()];
        winograd_on(
            threads,
            block,
            input,
            filters,
            Some(bias),
            g,
            Some(0.1),
            &mut out,
            &mut scratch,
        );
        out
    }

    /// The same bits on 1, 2 and 3 threads and on flat blocks of 24 and
    /// 7 tiles (7 cuts blocks mid tile row), odd and even output sizes.
    #[test]
    fn bit_identical_across_threads_and_blocks() {
        for (c, h, w, pad, f) in [(8, 13, 11, 1, 6), (5, 12, 10, 0, 9), (64, 14, 14, 1, 12)] {
            let g = geo(c, h, w, pad);
            let input = ramp(c * h * w, 7, 23, 0.1);
            let weights = ramp(f * c * 9, 5, 17, 0.03);
            let bias = ramp(f, 1, 7, 0.01);
            let filters = WinogradFilters::new(&weights, f, c);
            let want = bits(&run(1, None, &input, &filters, &bias, &g, f));
            for threads in 1..=3 {
                for block in [Some(24), Some(7)] {
                    let got = run(threads, block, &input, &filters, &bias, &g, f);
                    assert!(
                        bits(&got) == want,
                        "({c},{h},{w}) pad {pad}, {threads} threads, block {block:?}"
                    );
                }
            }
        }
    }

    /// Hand case: a single 4×4 tile whose filter is the 3×3 identity
    /// tap (1 at the centre) reproduces the input's interior exactly.
    #[test]
    fn centre_tap_filter_copies_the_interior() {
        let g = geo(1, 4, 4, 0);
        let input: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let mut weights = [0.0f32; 9];
        weights[4] = 1.0;
        let filters = WinogradFilters::new(&weights, 1, 1);
        let mut out = [f32::NAN; 4];
        let mut scratch = vec![0.0; winograd_scratch_len(&g, 1)];
        conv2d_winograd(&input, &filters, None, &g, None, &mut out, &mut scratch);
        assert_eq!(out, [5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn selection_is_3x3_stride_1_wide_input_and_enough_tiles() {
        let mut g = geo(WINOGRAD_MIN_CHANNELS, 10, 10, 1);
        assert!(takes_winograd(&g), "25 tiles");
        g.in_c -= 1;
        assert!(!takes_winograd(&g), "too few channels");
        g.in_c += 1;
        g.stride = 2;
        assert!(!takes_winograd(&g), "stride 2");
        g.stride = 1;
        g.kernel = 5;
        assert!(!takes_winograd(&g), "5×5");
        assert!(!takes_winograd(&geo(512, 8, 8, 1)), "16 tiles");
    }

    /// Blocks are whole register tiles within the budget (48 tiles of
    /// `vgg56` conv1_2, 24 of conv2_1 and conv2_2), and never narrower
    /// than one register tile, whatever the layer's width.
    #[test]
    fn blocks_are_register_tile_multiples_within_the_budget() {
        for (c, h, f, block) in [(64, 56, 64, 48), (64, 28, 128, 24), (128, 28, 128, 24)] {
            let plan = Plan::new(&geo(c, h, h, 1), f, 2, None);
            assert_eq!(plan.block, block, "C {c} F {f}");
            assert!(plan.part_len() <= BLOCK_BUDGET, "C {c} F {f}");
        }
        let wide = Plan::new(&geo(512, 28, 28, 1), 512, 2, None);
        assert_eq!(wide.block, NR);
        // A thread with fewer tiles than a block gets a block of them all.
        let small = Plan::new(&geo(64, 10, 10, 1), 64, 2, None);
        assert_eq!((small.parts, small.block), (2, 15));
    }
}

//! Winograd F(4×4, 3×3) convolution for the wide stride-1 3×3 layers.
//!
//! Each 4×4 block of a 3×3, stride-1 convolution's output is
//! `Y = Aᵀ [(G g Gᵀ) ⊙ (Bᵀ d B)] A`, where `d` is the 6×6 input tile
//! under the block and `g` the filter: 36 multiplies per (filter, input
//! channel) pair where the direct convolution needs 144. Summed over
//! input channels, the elementwise products become 36 independent
//! GEMMs, one per tile position `ξ`. Each runs transposed,
//! `Mᵀ[ξ] = Vᵀ[ξ] · Uᵀ[ξ]`: the `tiles×C` transformed inputs times the
//! `C×F` transformed filters, so tiles run down the GEMM's 4-row side
//! and output channels along its 24-wide side, and a block of 25 tiles
//! wastes 3 of 28 rows where it would waste 23 of 48 columns the other
//! way round. The multiplies run on the register-tiled GEMM
//! (`gemm_band`, no new micro-kernel), whose `B` the filters already are:
//! [`WinogradFilters`] stores each `Uᵀ[ξ]` as the micro-kernel's 24-wide,
//! k-major panels, so a GEMM borrows its `kc×24` slices from them and
//! copies nothing.
//!
//! Points. The transforms interpolate at 0, 1, −1, 2, −½ and ∞, not at
//! Lavin and Gray's 0, ±1, ±2. The inverse transform scales the
//! rounding error of each `M` by its column of `Aᵀ`, and the last row
//! of `Aᵀ` holds the cubes of the points: 8 and −8 at 2 and −2, but 8
//! and −⅛ at 2 and −½.
//! Against an `f64` direct convolution the worst error of a layer falls
//! from 9.6 to 6.7 ulps of Σ|w·x| on the draws of
//! `error_within_8_ulps_of_f64`, and from 16.5 to 5.5 over 40 random
//! layers. Rows of `Bᵀ` and columns of `Aᵀ` are scaled to small
//! integers; `G` carries the fractions and is applied once, in `f64`,
//! when the filters are transformed.
//!
//! Threads and blocks. [`WinogradFilters`] holds the 36 `Uᵀ[ξ]`,
//! transformed and cut into panels once when an engine compiles. The
//! output's `⌈outH/4⌉ × ⌈outW/4⌉` tiles are numbered row-major and split
//! flat across threads, so 49 tiles go 25/24 (a thread's range may start and
//! end mid tile row; each thread writes its own slices of the output
//! rows). Each thread cuts its range into equal blocks that fit a
//! scratch budget. Per block it writes the transformed input `V`, then,
//! per group of 48 output channels, runs the 36 GEMMs into `M` and
//! applies the inverse transform, with bias and leaky ReLU fused,
//! straight into the output.
//!
//! Layout. `V[ξ]` is `tiles × C` and `M[ξ]` `tiles × group`, row-major,
//! as the GEMM reads and writes them. The transforms therefore run over
//! channels, 16 lanes at a time: the input transform first copies the
//! six input rows under a run of tiles channels last, and the inverse
//! transform writes each output row of a run as one piece. Both of
//! those moves are scalar, one float at a time: 8×8 transposes over
//! fixed-size arrays compile to vector shuffles, but as many of them as
//! there are floats, and measured no faster (DESIGN.md §4c). Every
//! plane starts an odd number of cache lines after the one before, so
//! the 36 streams a transform walks fall on different L1 sets, not onto
//! one as planes a multiple of 4 KiB apart would.
//!
//! Scratch is the caller's ([`winograd_scratch_len`] floats, split
//! across threads here), so a call allocates no buffer for it.
//! Transforms and GEMMs run per tile and per element, each product-sum
//! in ascending channel order, so the output is bit-identical across
//! thread counts and block sizes; it is not bit-identical to the direct
//! convolution ([`crate::ops::conv2d`]), and agrees with it within
//! rounding error.

use crate::gemm::{self, available_threads, Epilogue, SliceB, KC_MAX, NR, PAR_MACS_THRESHOLD};
use crate::im2col::ConvGeometry;

/// Input channels at and above which a 3×3, stride-1 convolution takes
/// the Winograd path. Against the direct convolution, measured
/// in-process on 2 threads (Intel Xeon, 2 vCPUs), with F = 64 at 56×56:
/// C = 3 read 0.5× to 0.6×, C = 8 0.75× to 1.3×, C = 16 1.1× to 1.6× and
/// C = 32 2.2× to 2.6×. C = 16 also won at 28×28 with F = 16 and F = 64
/// (1.6× to 1.9×), so a threshold of 16 would hold too; it stays at 32,
/// and layers of 16 to 31 channels keep the direct path.
pub const WINOGRAD_MIN_CHANNELS: usize = 32;

/// Output tiles below which the direct convolution stays. C = F = 512
/// read 0.3× to 0.4× at 7×7 (4 tiles) and 0.85× to 1.0× at 14×14 (16
/// tiles), then 1.4× to 1.5× at 20×20 (25 tiles) and 28×28 (49 tiles):
/// with so few tiles per thread the GEMMs run on a mostly empty 4-row
/// side and every thread streams all 38 MB of transformed filters.
/// Narrower layers won from 4 tiles up (C = 16 to 64, F = 64, 8×8 to
/// 16×16: 1.1× to 2.1×), and C = F = 256 at 14×14 read 1.3× to 1.5×,
/// but one threshold has to hold for the widest layers too.
const MIN_TILES: usize = 25;

/// Outputs per tile side.
const TILE: usize = 4;
/// Inputs per tile side: `TILE + 3 − 1`.
const ALPHA: usize = 6;
/// Tile positions of F(4×4, 3×3): one GEMM each.
const XI: usize = ALPHA * ALPHA;

/// `Bᵀ` for the points 0, 1, −1, 2, −½ and ∞, each row scaled to
/// integers (the scale moves into [`G`]).
const BT: [[f32; ALPHA]; ALPHA] = [
    [2.0, 3.0, -4.0, -3.0, 2.0, 0.0],
    [0.0, 2.0, 5.0, 1.0, -2.0, 0.0],
    [0.0, 2.0, 1.0, -5.0, 2.0, 0.0],
    [0.0, -1.0, -2.0, 1.0, 2.0, 0.0],
    [0.0, -2.0, 1.0, 2.0, -1.0, 0.0],
    [0.0, 2.0, 3.0, -4.0, -3.0, 2.0],
];

/// `Aᵀ`: row `i` holds each point to the power `i`, the −½ column
/// scaled by 8 to integers, and the ∞ column 1 in the last row.
const AT: [[f32; ALPHA]; TILE] = [
    [1.0, 1.0, 1.0, 1.0, 8.0, 0.0],
    [0.0, 1.0, -1.0, 2.0, -4.0, 0.0],
    [0.0, 1.0, 1.0, 4.0, 2.0, 0.0],
    [0.0, 1.0, -1.0, 8.0, -1.0, 1.0],
];

/// `G`: row `i` is `[1, p, p²]` at point `p` (`[0, 0, 1]` at ∞) over
/// the scales taken out of row `i` of [`BT`] and column `i` of [`AT`].
const G: [[f64; 3]; ALPHA] = [
    [1.0 / 2.0, 0.0, 0.0],
    [1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0],
    [1.0 / 6.0, -1.0 / 6.0, 1.0 / 6.0],
    [1.0 / 30.0, 1.0 / 15.0, 2.0 / 15.0],
    [2.0 / 15.0, -1.0 / 15.0, 1.0 / 30.0],
    [0.0, 0.0, 1.0 / 2.0],
];

/// Scratch floats per thread that a block's `V` and `M` planes may fill:
/// 416 KiB. On `vgg56` that is blocks of 25 tiles on conv1_2 and
/// conv2_1 and of 13 on conv2_2, and 811 KB of scratch on 2 threads,
/// where F(2×2, 3×3) took 786 KB. One block of conv2_2's 25 tiles per
/// thread would save streaming its 2.65 MB of filter panels a second
/// time, but would take 1.27 MB. Re-measured once the GEMMs stopped
/// packing (2 threads, four interleaved runs of 300 images): a budget of
/// 160 Ki floats, which gives that block, read conv2_2 at 1165–1241 µs
/// against 1205–1321, conv1_2 at 1470–1518 against 1378–1499 and a whole
/// image at 3664–3888 against 3521–3860, so the budget stays.
const BLOCK_BUDGET: usize = 104 * 1024;

/// The least the budget may cap a block at, however wide the layer:
/// smaller blocks leave the GEMMs' 4-row side mostly empty and stream
/// all of `U` once per handful of tiles. Against the direct convolution,
/// C = F = 512 at 28×28 read 0.6× to 0.7× in the 5-tile blocks the
/// budget alone gives and 1.4× to 1.6× in blocks of 13 (20×20: 0.5× to
/// 0.7× and 1.4× to 1.5×).
const MIN_BLOCK: usize = 16;

/// Output channels per pass of the GEMMs and the inverse transform: two
/// register tiles wide, so every group starts on a filter panel.
const GROUP: usize = 48;
const _: () = assert!(GROUP.is_multiple_of(NR));

/// Tiles per pass of either transform.
const RUN: usize = 8;

/// Channels per pass of either transform: the input channels the input
/// transform's arithmetic runs over, and the output channels of the
/// inverse one.
const LANES: usize = 16;

/// Floats per 64-byte cache line.
const LINE: usize = 16;

/// Whether a convolution takes the Winograd path: a 3×3 kernel at
/// stride 1 over at least [`WINOGRAD_MIN_CHANNELS`] input channels, with
/// an output of at least 25 tiles of 4×4.
pub fn takes_winograd(geo: &ConvGeometry) -> bool {
    let tiles = geo.out_h.div_ceil(TILE) * geo.out_w.div_ceil(TILE);
    geo.kernel == 3 && geo.stride == 1 && geo.in_c >= WINOGRAD_MIN_CHANNELS && tiles >= MIN_TILES
}

/// A 3×3 filter bank transformed for F(4×4, 3×3): the 36 `C×F`
/// matrices `Uᵀ[ξ]`, `U = G g Gᵀ`, each a GEMM's right operand, stored
/// as the GEMM's micro-kernel reads them. Each `Uᵀ[ξ]` is cut into
/// `⌈F/24⌉` panels of 24 output channels, the last one zero-padded; a
/// panel holds its `C` rows of 24 one after the other, so every
/// `kc`-deep slice of it is one contiguous piece the GEMM borrows.
#[derive(Clone, Debug)]
pub struct WinogradFilters {
    num_output: usize,
    in_c: usize,
    /// Row `c` of panel `j` of `Uᵀ[ξ]` at `panels[ξ][j·C + c]`: one
    /// allocation per `ξ` (at most 74 KB on `vgg56`), not one of 4.6 MB,
    /// which glibc maps on its own and, once it is freed, raises its mmap
    /// threshold to. With one block, `offline_batch`'s peak RSS read
    /// 1.6 MB above the planes' 29.7 MB; with 36, 0.4 MB.
    panels: Vec<Vec<[f32; NR]>>,
}

impl WinogradFilters {
    /// Transforms an `F×C×3×3` row-major weight blob, in `f64`, rounding
    /// each transformed weight once.
    ///
    /// # Panics
    /// Panics when `weights` is not `num_output · in_c · 9` long.
    pub fn new(weights: &[f32], num_output: usize, in_c: usize) -> Self {
        assert_eq!(
            weights.len(),
            num_output * in_c * 9,
            "weight blob is not F×C×3×3"
        );
        let per_xi = num_output.div_ceil(NR) * in_c;
        let mut panels = vec![vec![[0.0; NR]; per_xi]; XI];
        for (at, g) in weights.chunks_exact(9).enumerate() {
            let (f, c) = (at / in_c, at % in_c);
            let row = f / NR * in_c + c;
            // G·g, then (G·g)·Gᵀ.
            let gg: [[f64; 3]; ALPHA] = std::array::from_fn(|i| {
                std::array::from_fn(|j| (0..3).map(|k| G[i][k] * f64::from(g[3 * k + j])).sum())
            });
            for (i, ggi) in gg.iter().enumerate() {
                for (j, gj) in G.iter().enumerate() {
                    let u: f64 = ggi.iter().zip(gj).map(|(a, b)| a * b).sum();
                    panels[ALPHA * i + j][row][f % NR] = u as f32;
                }
            }
        }
        WinogradFilters {
            num_output,
            in_c,
            panels,
        }
    }

    /// Columns `g0..` of `Uᵀ[ξ]` as a GEMM's `B`; `g0` is a multiple of
    /// 24.
    fn panels(&self, xi: usize, g0: usize) -> Panels<'_> {
        Panels {
            panels: &self.panels[xi][g0 / NR * self.in_c..],
            in_c: self.in_c,
        }
    }
}

/// Panels of transformed filters, which lend each slice the GEMM asks
/// for from their own memory.
struct Panels<'a> {
    panels: &'a [[f32; NR]],
    in_c: usize,
}

impl SliceB for Panels<'_> {
    fn slice<'s>(
        &'s self,
        kb: usize,
        jb: usize,
        kw: usize,
        _: &'s mut [[f32; NR]],
    ) -> &'s [[f32; NR]] {
        &self.panels[jb / NR * self.in_c + kb..][..kw]
    }
}

/// How one layer's tiles are split across threads and blocks, and how
/// much scratch a block takes.
#[derive(Clone, Copy, Debug)]
struct Plan {
    tiles_w: usize,
    tiles: usize,
    /// Tiles per thread (the last thread may get fewer).
    per: usize,
    /// Threads that get tiles.
    parts: usize,
    /// Tiles per block.
    block: usize,
    /// Output channels per group.
    group: usize,
    /// Floats from one `V` plane (`block × C`) to the next.
    v_stride: usize,
    /// Floats from one `M` plane (`block` rows of `group` channels,
    /// rounded up to whole lane arrays) to the next.
    m_stride: usize,
}

impl Plan {
    /// `block` overrides the budget-sized block (tests only).
    fn new(geo: &ConvGeometry, num_output: usize, threads: usize, block: Option<usize>) -> Self {
        let tiles_w = geo.out_w.div_ceil(TILE);
        let tiles = geo.out_h.div_ceil(TILE) * tiles_w;
        let per = tiles.div_ceil(threads.clamp(1, tiles.max(1))).max(1);
        let group = num_output.clamp(1, GROUP);
        // The budget caps a block, but never below MIN_BLOCK tiles; the
        // thread's range is then cut into equal blocks, so 25 tiles
        // under a cap of 16 run as 13 + 12, not 16 + 9.
        let cap = (BLOCK_BUDGET / (XI * (geo.in_c + group.next_multiple_of(LANES)))).max(MIN_BLOCK);
        let equal = per.div_ceil(per.div_ceil(cap));
        let block = block.unwrap_or(equal).clamp(1, per);
        Plan {
            tiles_w,
            tiles,
            per,
            parts: tiles.div_ceil(per),
            block,
            group,
            v_stride: odd_lines(block * geo.in_c),
            m_stride: odd_lines(block * group.next_multiple_of(LANES)),
        }
    }

    /// Thread `part`'s tiles.
    fn range(&self, part: usize) -> (usize, usize) {
        (part * self.per, ((part + 1) * self.per).min(self.tiles))
    }

    /// Scratch floats one thread needs.
    fn part_len(&self) -> usize {
        XI * (self.v_stride + self.m_stride)
    }
}

/// `len` floats rounded up to an odd number of cache lines.
fn odd_lines(len: usize) -> usize {
    (len.div_ceil(LINE) | 1) * LINE
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

/// 3×3, stride-1 convolution through Winograd F(4×4, 3×3), with a fused
/// bias(+leaky-ReLU) epilogue.
///
/// `input` is `C×H×W` and `out` `F×outH×outW`, as for
/// [`conv2d`](crate::ops::conv2d); any padding works, output sizes that
/// are not multiples of 4 included. `scratch` must hold
/// [`winograd_scratch_len`] floats; its contents are overwritten.
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
        "Winograd F(4×4, 3×3) needs a 3×3 kernel at stride 1"
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
    let layer = Layer {
        input,
        filters,
        geo,
        bias,
        slope: fused_relu,
        plan,
    };
    let mut bands = layer.bands(out);
    if let [only] = bands.as_mut_slice() {
        return layer.run_part(0, only, &mut scratch[..part_len]);
    }
    let layer = &layer;
    gemm::run_split(
        bands
            .iter_mut()
            .zip(scratch.chunks_mut(part_len))
            .enumerate()
            .map(|(part, (band, scratch))| move || layer.run_part(part, band, scratch)),
    );
}

/// One layer's operands, shared read-only by its threads.
struct Layer<'a> {
    input: &'a [f32],
    filters: &'a WinogradFilters,
    geo: &'a ConvGeometry,
    bias: Option<&'a [f32]>,
    slope: Option<f32>,
    plan: Plan,
}

/// The part of the output one thread writes, as slices of each output
/// plane: one per output row of a tile row it shares with another
/// thread, and one for each run of rows it owns whole. Every plane is
/// cut the same way, so `rows` maps an output row to its slice for all
/// of them.
struct Band<'a> {
    /// Slice `i` of plane `f` at `pieces[f · per_plane + i]`.
    pieces: Vec<&'a mut [f32]>,
    per_plane: usize,
    /// First output row.
    y0: usize,
    /// Per output row from `y0`: its slice, where the row starts in it,
    /// and the output column the row's part of the slice starts at.
    rows: Vec<(usize, usize, usize)>,
}

impl Band<'_> {
    /// Output row `y` of channel `f` from the band's first column in it,
    /// and that column.
    fn row(&mut self, f: usize, y: usize) -> (&mut [f32], usize) {
        let (piece, at, x0) = self.rows[y - self.y0];
        (&mut self.pieces[f * self.per_plane + piece][at..], x0)
    }
}

impl Layer<'_> {
    /// Cuts `out` into each thread's [`Band`]: rows of a tile row two
    /// threads share are split at the column where the second thread's
    /// tiles begin, and rows one thread owns whole stay in one slice.
    fn bands<'o>(&self, out: &'o mut [f32]) -> Vec<Band<'o>> {
        let (plan, geo) = (&self.plan, self.geo);
        let (out_h, out_w, tw) = (geo.out_h, geo.out_w, plan.tiles_w);
        let mut bands: Vec<Band> = (0..plan.parts)
            .map(|part| Band {
                pieces: Vec::new(),
                per_plane: 0,
                y0: TILE * (plan.range(part).0 / tw),
                rows: Vec::new(),
            })
            .collect();
        // How every plane is cut: (thread, floats), in order.
        let mut cuts = Vec::new();
        let mut y = 0;
        while y < out_h {
            // The tile row's first tile, and the thread that owns it.
            let first = y / TILE * tw;
            let part = first / plan.per;
            let end = plan.range(part).1;
            // Rows the thread owns whole, up to its last whole tile row,
            // make one slice; a row it shares is cut between the threads,
            // each from its first tile's column.
            let rows = if end >= first + tw {
                (TILE * (end / tw)).min(out_h) - y
            } else {
                1
            };
            let column = |t: usize| (TILE * (t.clamp(first, first + tw) - first)).min(out_w);
            let owners = (part..)
                .map(|p| (p, column(plan.range(p).0), column(plan.range(p).1)))
                .take_while(|&(_, x0, _)| x0 < out_w);
            for (p, x0, x1) in owners {
                let band = &mut bands[p];
                band.rows
                    .extend((0..rows).map(|r| (band.per_plane, r * out_w, x0)));
                band.per_plane += 1;
                cuts.push((p, (rows - 1) * out_w + x1 - x0));
            }
            y += rows;
        }
        let planes = self.filters.num_output;
        for band in &mut bands {
            band.pieces.reserve_exact(band.per_plane * planes);
        }
        for plane in out.chunks_mut(out_h * out_w) {
            let mut rest = plane;
            for &(p, len) in &cuts {
                let (piece, tail) = std::mem::take(&mut rest).split_at_mut(len);
                bands[p].pieces.push(piece);
                rest = tail;
            }
        }
        bands
    }

    /// Computes thread `part`'s tiles block by block into its band.
    fn run_part(&self, part: usize, band: &mut Band, scratch: &mut [f32]) {
        let plan = &self.plan;
        let (c, f) = (self.geo.in_c, self.filters.num_output);
        let (t_start, t_end) = plan.range(part);
        let (v, m) = scratch.split_at_mut(XI * plan.v_stride);
        let mut t0 = t_start;
        while t0 < t_end {
            let n = plan.block.min(t_end - t0);
            let tiles = Tiles {
                t0,
                n,
                tiles_w: plan.tiles_w,
            };
            input_transform(self.input, self.geo, &tiles, v, plan.v_stride);
            for g0 in (0..f).step_by(plan.group) {
                let gw = plan.group.min(f - g0);
                // M rows are whole lane arrays wide.
                let ld = gw.next_multiple_of(LANES);
                for xi in 0..XI {
                    // Mᵀ[ξ] = Vᵀ[ξ] · Uᵀ[ξ], on this group's columns.
                    let a = &v[xi * plan.v_stride..][..n * c];
                    let b = self.filters.panels(xi, g0);
                    let mp = &mut m[xi * plan.m_stride..][..n * ld];
                    gemm::gemm_band(n, gw, c, a, &b, mp, ld, KC_MAX, Epilogue::None, &mut []);
                }
                let group = Group {
                    g0,
                    gw,
                    ld,
                    bias: self.bias,
                    slope: self.slope,
                };
                output_transform(m, plan.m_stride, &tiles, self.geo, &group, band);
            }
            t0 += n;
        }
    }
}

/// A block of `n` consecutive tiles from tile `t0`.
struct Tiles {
    t0: usize,
    n: usize,
    tiles_w: usize,
}

impl Tiles {
    /// The block's tiles cut at tile-row ends and into runs of at most
    /// `max`: `(tile row, first tile column, block column, tiles)`.
    /// Dividing is slow, so only the start divides.
    fn runs(&self, max: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        let (mut ty, mut tx, mut col) = (self.t0 / self.tiles_w, self.t0 % self.tiles_w, 0);
        std::iter::from_fn(move || {
            if col >= self.n {
                return None;
            }
            let q = max.min(self.tiles_w - tx).min(self.n - col);
            let run = (ty, tx, col, q);
            (col, tx) = (col + q, tx + q);
            if tx == self.tiles_w {
                (ty, tx) = (ty + 1, 0);
            }
            Some(run)
        })
    }
}

/// A value per lane: the channels a transform pass runs over.
type Lanes = [f32; LANES];

/// Writes a block's `Vᵀ[ξ] = (Bᵀ d B)[ξ]`: `V[ξ][c][k]`, for input
/// channel `c` and tile `k` of the block, at `v[ξ·stride + k·C + c]`.
///
/// A pass covers a run of at most [`RUN`] tiles of one tile row and
/// [`LANES`] channels. It first copies the six input rows under the run
/// into `p` channels last and column by column (`p[x][i][l]`: column
/// `x`, row `i`, channel `c0 + l`; zero outside the image), so that the
/// arithmetic runs over channels and each tile writes one contiguous run
/// of channels per `ξ`.
#[inline(never)]
fn input_transform(input: &[f32], geo: &ConvGeometry, tiles: &Tiles, v: &mut [f32], stride: usize) {
    let (in_h, in_w, pad, chans) = (geo.in_h, geo.in_w, geo.pad, geo.in_c);
    let mut p = [[[0.0f32; LANES]; ALPHA]; TILE * RUN + 2];
    let mut t = [[[0.0f32; LANES]; ALPHA]; ALPHA];
    let mut vrow = [[0.0f32; LANES]; ALPHA];
    for (ty, tx, col, q) in tiles.runs(RUN) {
        let width = TILE * q + 2;
        // Columns lo..hi of the pass lie inside the image.
        let x0 = (TILE * tx) as isize - pad as isize;
        let lo = (-x0).clamp(0, width as isize) as usize;
        let hi = (in_w as isize - x0).clamp(lo as isize, width as isize) as usize;
        let p = &mut p[..width];
        for c0 in (0..chans).step_by(LANES) {
            let lanes = LANES.min(chans - c0);
            let maps = input.chunks_exact(in_h * in_w).skip(c0).take(lanes);
            for (l, map) in maps.enumerate() {
                for i in 0..ALPHA {
                    let ih = (TILE * ty + i).wrapping_sub(pad);
                    if ih < in_h {
                        let line = &map[ih * in_w..(ih + 1) * in_w];
                        let src = &line[(x0 + lo as isize) as usize..][..hi - lo];
                        for (p, &x) in p[lo..hi].iter_mut().zip(src) {
                            p[i][l] = x;
                        }
                        let (head, tail) = p.split_at_mut(hi);
                        for p in head[..lo].iter_mut().chain(tail) {
                            p[i][l] = 0.0;
                        }
                    } else {
                        p.iter_mut().for_each(|p| p[i][l] = 0.0);
                    }
                }
            }
            for k in 0..q {
                // Bᵀ d column by column into t[a][j], then (Bᵀ d) B row by
                // row.
                for j in 0..ALPHA {
                    let [t0, t1, t2, t3, t4, t5] = &mut t;
                    let out = [t0, t1, t2, t3, t4, t5].map(|t| &mut t[j]);
                    b_t(&p[TILE * k + j], out);
                }
                for (a, t) in t.iter().enumerate() {
                    b_t(t, vrow.each_mut());
                    for (b, x) in vrow.iter().enumerate() {
                        let at = (ALPHA * a + b) * stride + (col + k) * chans + c0;
                        // A full lane array stores as two vectors; a copy
                        // of run-time length is a call to `memcpy`.
                        if lanes == LANES {
                            v[at..][..LANES].copy_from_slice(x);
                        } else {
                            v[at..][..lanes].copy_from_slice(&x[..lanes]);
                        }
                    }
                }
            }
        }
    }
}

/// One group of output channels for the inverse transform: channels
/// `g0..g0 + gw`, whose `M` rows lie `ld` floats apart, and the epilogue
/// to finish them with.
struct Group<'a> {
    g0: usize,
    gw: usize,
    ld: usize,
    bias: Option<&'a [f32]>,
    slope: Option<f32>,
}

/// Turns a block's `Mᵀ[ξ]` for one group of output channels (`M[ξ][f][k]`
/// at `m[ξ·stride + k·ld + f]`) into its 4×4 output tiles,
/// `Y = Aᵀ M A`, applies the epilogue and writes them into each output
/// channel's rows of the band, dropping the rows and columns of an edge
/// tile that fall outside the output. The arithmetic runs over
/// [`LANES`] output channels at a time, for a run of at most [`RUN`]
/// tiles of one tile row, and each output row of the run is then written
/// as one contiguous piece.
#[inline(never)]
fn output_transform(
    m: &[f32],
    stride: usize,
    tiles: &Tiles,
    geo: &ConvGeometry,
    group: &Group,
    band: &mut Band,
) {
    let (out_h, out_w) = (geo.out_h, geo.out_w);
    let mut mj = [[0.0f32; LANES]; ALPHA];
    let mut s = [[[0.0f32; LANES]; ALPHA]; TILE];
    let mut y = [[[[0.0f32; LANES]; TILE]; TILE]; RUN];
    for f0 in (0..group.gw).step_by(LANES) {
        let lanes = LANES.min(group.gw - f0);
        let first = group.g0 + f0;
        let bias: Lanes = std::array::from_fn(|l| {
            let b = group.bias.and_then(|b| b.get(first + l));
            b.copied().unwrap_or(0.0)
        });
        for (ty, tx, col, q) in tiles.runs(RUN) {
            for (k, y) in y[..q].iter_mut().enumerate() {
                let at = (col + k) * group.ld + f0;
                // Aᵀ M column by column into s[a][j], then (Aᵀ M) A row
                // by row.
                for j in 0..ALPHA {
                    for (i, x) in mj.iter_mut().enumerate() {
                        *x = *lanes_at(m, (ALPHA * i + j) * stride + at);
                    }
                    let [s0, s1, s2, s3] = &mut s;
                    a_t(&mj, [s0, s1, s2, s3].map(|s| &mut s[j]));
                }
                for (y, s) in y.iter_mut().zip(&s) {
                    a_t(s, y.each_mut());
                    for y in y.iter_mut() {
                        for (v, b) in y.iter_mut().zip(&bias) {
                            *v += b;
                        }
                        if let Some(slope) = group.slope {
                            y.iter_mut().for_each(|v| *v = relu(*v, slope));
                        }
                    }
                }
            }
            // Output rows and columns of the run, cut at the edges.
            let width = (TILE * q).min(out_w - TILE * tx);
            let rows = TILE * ty..out_h.min(TILE * (ty + 1));
            for (a, oy) in rows.enumerate() {
                for (l, f) in (first..first + lanes).enumerate() {
                    let (row, x0) = band.row(f, oy);
                    let line = &mut row[TILE * tx - x0..][..width];
                    for (x, d) in line.iter_mut().enumerate() {
                        *d = y[x / TILE][a][x % TILE][l];
                    }
                }
            }
        }
    }
}

/// The [`LANES`] floats of `m` from `at`.
#[inline(always)]
fn lanes_at(m: &[f32], at: usize) -> &Lanes {
    m[at..at + LANES]
        .try_into()
        .expect("a range of LANES floats")
}

/// `Bᵀ x`, lane by lane: row `a` into `out[a]`.
#[inline(always)]
fn b_t(x: &[Lanes; ALPHA], out: [&mut Lanes; ALPHA]) {
    let [b0, b1, b2, b3, b4, b5] = BT;
    let [o0, o1, o2, o3, o4, o5] = out;
    row(b0, x, o0);
    row(b1, x, o1);
    row(b2, x, o2);
    row(b3, x, o3);
    row(b4, x, o4);
    row(b5, x, o5);
}

/// `Aᵀ x`, lane by lane: row `a` into `out[a]`.
#[inline(always)]
fn a_t(x: &[Lanes; ALPHA], out: [&mut Lanes; TILE]) {
    let [a0, a1, a2, a3] = AT;
    let [o0, o1, o2, o3] = out;
    row(a0, x, o0);
    row(a1, x, o1);
    row(a2, x, o2);
    row(a3, x, o3);
}

/// `out = Σ_i coef[i] · x[i]`, lane by lane. Inlined with a constant
/// `coef`, it folds to that row's formula, and the loop over lanes
/// vectorises.
#[inline(always)]
fn row(coef: [f32; ALPHA], x: &[Lanes; ALPHA], out: &mut Lanes) {
    for (l, o) in out.iter_mut().enumerate() {
        *o = dot(
            &coef,
            &[x[0][l], x[1][l], x[2][l], x[3][l], x[4][l], x[5][l]],
        );
    }
}

/// `Σ_i coef[i] · x[i]` over the non-zero coefficients: the first
/// product rounded, then one fused multiply-add per further term, in
/// ascending `i`.
#[inline(always)]
fn dot(coef: &[f32; ALPHA], x: &[f32; ALPHA]) -> f32 {
    let mut acc = None;
    for (&c, &x) in coef.iter().zip(x) {
        if c != 0.0 {
            acc = Some(acc.map_or(c * x, |acc| c.mul_add(x, acc)));
        }
    }
    acc.unwrap_or(0.0)
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

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_tensor::{Shape, TensorRng};

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
        bias: Option<&[f32]>,
        g: &ConvGeometry,
        f: usize,
        slope: Option<f32>,
    ) -> Vec<f32> {
        let plan = Plan::new(g, f, threads, block);
        let mut scratch = vec![f32::NAN; plan.parts * plan.part_len()];
        let mut out = vec![f32::NAN; f * g.lowered_cols()];
        winograd_on(
            threads,
            block,
            input,
            filters,
            bias,
            g,
            slope,
            &mut out,
            &mut scratch,
        );
        out
    }

    /// The same bits on 1, 2 and 3 threads and on blocks of 24, 7 and 2
    /// tiles (threads and blocks both start and end mid tile row, and on
    /// the 6×30 map a thread's tiles can lie within one tile row), with
    /// output sizes that are and are not multiples of 4, with more
    /// output channels than one group, and with C = 300, whose GEMMs
    /// borrow two `kc` slices (256 + 44 rows) of each filter panel.
    #[test]
    fn bit_identical_across_threads_and_blocks() {
        for (c, h, w, pad, f) in [
            (8, 6, 30, 1, 5),
            (8, 13, 11, 1, 6),
            (5, 12, 10, 0, 9),
            (64, 14, 14, 1, 12),
            (33, 18, 17, 1, 53),
            (300, 6, 9, 1, 30),
        ] {
            let g = geo(c, h, w, pad);
            let input = ramp(c * h * w, 7, 23, 0.1);
            let weights = ramp(f * c * 9, 5, 17, 0.03);
            let bias = ramp(f, 1, 7, 0.01);
            let filters = WinogradFilters::new(&weights, f, c);
            let want = bits(&run(
                1,
                None,
                &input,
                &filters,
                Some(&bias),
                &g,
                f,
                Some(0.1),
            ));
            for threads in 1..=3 {
                for block in [Some(24), Some(7), Some(2)] {
                    let got = run(
                        threads,
                        block,
                        &input,
                        &filters,
                        Some(&bias),
                        &g,
                        f,
                        Some(0.1),
                    );
                    assert!(
                        bits(&got) == want,
                        "({c},{h},{w}) pad {pad}, {threads} threads, block {block:?}"
                    );
                }
            }
        }
    }

    /// The filters are the GEMM's panels and nothing beside them:
    /// 36 · C · ⌈F/24⌉ · 24 floats, with the columns past F zero.
    #[test]
    fn filters_hold_only_their_padded_panels() {
        for (f, c) in [(1, 1), (24, 3), (25, 2), (53, 33)] {
            let weights = ramp(f * c * 9, 5, 17, 0.03);
            let filters = WinogradFilters::new(&weights, f, c);
            let floats: usize = filters.panels.iter().map(|p| p.len() * NR).sum();
            assert_eq!(floats, XI * c * f.div_ceil(NR) * NR, "F {f} C {c}");
            let last = f.div_ceil(NR) - 1;
            for xi in 0..XI {
                let panels = filters.panels(xi, 0);
                let panel = panels.slice(0, last * NR, c, &mut []);
                let mut pad = panel.iter().flat_map(|row| &row[f - last * NR..]);
                assert!(pad.all(|&v| v == 0.0), "F {f} C {c} ξ {xi}");
            }
        }
    }

    /// C = 300: each GEMM borrows two `kc` slices of a filter panel, at
    /// rows 0 and 256, and the layer agrees with the direct convolution
    /// within rounding.
    #[test]
    fn two_kc_slices_agree_with_the_direct_convolution() {
        let (c, f) = (300, 30);
        let g = geo(c, 6, 9, 1);
        let input = ramp(c * 6 * 9, 7, 23, 0.1);
        let weights = ramp(f * c * 9, 5, 17, 0.03);
        let filters = WinogradFilters::new(&weights, f, c);
        let got = run(1, None, &input, &filters, None, &g, f, None);
        let mut want = vec![0.0; got.len()];
        let mut ws = crate::ops::Workspace::new();
        crate::ops::conv2d(&input, &weights, None, f, &g, None, &mut want, &mut ws);
        // Σ|w·x| over a window is at most 9·C·1.1·0.24.
        let tol = 64.0 * f32::EPSILON * (9 * c) as f32 * 1.1 * 0.24;
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() <= tol, "output {i}: {a} against {b}");
        }
    }

    /// Hand case: a single 6×6 tile whose filter is the 3×3 identity
    /// tap (1 at the centre) reproduces the input's interior, within the
    /// rounding of the transformed filter's thirds and fifths.
    #[test]
    fn centre_tap_filter_copies_the_interior() {
        let g = geo(1, 6, 6, 0);
        let input: Vec<f32> = (0..36).map(|v| v as f32).collect();
        let mut weights = [0.0f32; 9];
        weights[4] = 1.0;
        let filters = WinogradFilters::new(&weights, 1, 1);
        let mut out = [f32::NAN; 16];
        let mut scratch = vec![0.0; winograd_scratch_len(&g, 1)];
        conv2d_winograd(&input, &filters, None, &g, None, &mut out, &mut scratch);
        let interior = (1..5).flat_map(|y| (1..5).map(move |x| (6 * y + x) as f32));
        for (got, want) in out.into_iter().zip(interior) {
            assert!(
                (got - want).abs() <= 2.0 * f32::EPSILON * want,
                "{got} for {want}"
            );
        }
    }

    /// F(4×4, 3×3) against an `f64` direct convolution on fixed draws:
    /// C = 32, 64 and 71, pad 0 and 1, outputs of 13×11 and 9×15 (edge
    /// tiles cut on the right and at the bottom) and every epilogue
    /// term. Each output's error, in units of the magnitude Σ|w·x|
    /// (+ |bias|) it was summed from, stays within 8 ulps of 1; the
    /// points 0, 1, −1, 2, −½ reach ≈ 5.5, and Lavin and Gray's 0, ±1, ±2
    /// ≈ 16.5.
    #[test]
    fn error_within_8_ulps_of_f64() {
        let mut worst = 0.0f64;
        let shapes = [
            (32, 7, 13, 11, 1),
            (64, 5, 15, 17, 0),
            (71, 6, 11, 13, 0),
            (32, 9, 9, 15, 1),
            (64, 4, 17, 11, 1),
            (71, 3, 15, 9, 1),
        ];
        for (seed, (c, f, h, w, pad)) in (0..4).flat_map(|_| shapes).enumerate() {
            let g = geo(c, h, w, pad);
            let mut rng = TensorRng::seeded(seed as u64);
            let input = rng.uniform(Shape::chw(c, h, w), -1.0, 1.0);
            let weights = rng.uniform(Shape::vector(f * c * 9), -1.0, 1.0);
            let bias = rng.uniform(Shape::vector(f), -0.5, 0.5);
            let (x, wt, b) = (input.as_slice(), weights.as_slice(), bias.as_slice());
            let filters = WinogradFilters::new(wt, f, c);
            let got = run(1, None, x, &filters, Some(b), &g, f, None);
            let (oh, ow) = (g.out_h, g.out_w);
            for (i, &y) in got.iter().enumerate() {
                let (fo, oy, ox) = (i / (oh * ow), i / ow % oh, i % ow);
                let (mut sum, mut mass) = (f64::from(b[fo]), f64::from(b[fo].abs()));
                for ci in 0..c {
                    for ky in 0..3 {
                        for kx in 0..3 {
                            let (iy, ix) =
                                ((oy + ky).wrapping_sub(pad), (ox + kx).wrapping_sub(pad));
                            if iy < h && ix < w {
                                let p = f64::from(wt[((fo * c + ci) * 3 + ky) * 3 + kx])
                                    * f64::from(x[(ci * h + iy) * w + ix]);
                                sum += p;
                                mass += p.abs();
                            }
                        }
                    }
                }
                worst = worst.max((f64::from(y) - sum).abs() / mass / f64::from(f32::EPSILON));
            }
        }
        assert!(worst <= 8.0, "worst error {worst:.2} ulps of Σ|w·x|");
    }

    #[test]
    fn selection_is_3x3_stride_1_wide_input_and_enough_tiles() {
        let mut g = geo(WINOGRAD_MIN_CHANNELS, 17, 20, 1);
        assert!(takes_winograd(&g), "25 tiles");
        g.in_c -= 1;
        assert!(!takes_winograd(&g), "too few channels");
        g.in_c += 1;
        g.stride = 2;
        assert!(!takes_winograd(&g), "stride 2");
        g.stride = 1;
        g.kernel = 5;
        assert!(!takes_winograd(&g), "5×5");
        assert!(!takes_winograd(&geo(512, 14, 14, 1)), "16 tiles");
        assert!(!takes_winograd(&geo(64, 20, 16, 1)), "20 tiles");
    }

    /// Blocks fit the budget and cut a thread's range into equal parts:
    /// `vgg56` conv1_2's 98 tiles per thread run as four blocks of 25 or
    /// 24, conv2_1's 25 as one block and conv2_2's 25 as 13 + 12. However
    /// wide the layer, the cap stays at 16 tiles.
    #[test]
    fn blocks_split_each_thread_evenly_within_the_budget() {
        for (c, h, f, block) in [(64, 56, 64, 25), (64, 28, 128, 25), (128, 28, 128, 13)] {
            let plan = Plan::new(&geo(c, h, h, 1), f, 2, None);
            assert_eq!(
                (plan.per, plan.block),
                ((h * h / 16).div_ceil(2), block),
                "C {c} F {f}"
            );
            assert!(plan.part_len() <= BLOCK_BUDGET, "C {c} F {f}");
        }
        let wide = Plan::new(&geo(1024, 28, 28, 1), 512, 2, None);
        assert_eq!(wide.block, 13);
        // A thread with fewer tiles than a block gets a block of them all.
        let small = Plan::new(&geo(64, 10, 10, 1), 64, 2, None);
        assert_eq!((small.parts, small.block), (2, 5));
    }

    /// Plane strides are odd numbers of cache lines, so no two of the 36
    /// planes a transform walks share an L1 set.
    #[test]
    fn planes_are_an_odd_number_of_lines_apart() {
        for (c, f) in [(64, 64), (128, 128), (32, 6)] {
            let plan = Plan::new(&geo(c, 28, 28, 1), f, 2, None);
            for stride in [plan.v_stride, plan.m_stride] {
                assert_eq!(stride % LINE, 0);
                assert_eq!(stride / LINE % 2, 1, "C {c} F {f}");
            }
        }
    }
}

//! The filter-chain memory subsystem (non-uniform memory partitioning).
//!
//! Paper Section 3.2: "for each feature map read in parallel we create a
//! pipeline of filters interleaved by FIFOs … Within a pipeline, each
//! filter represents an access to the input feature map (a point of the
//! sliding window) and extract the elements from the input stream that
//! belong to its data domain, sending them to the PE. It also sends each
//! element read to the subsequent filter … The FIFOs between filters
//! realize the on-chip buffering and their size is equal to the spatial
//! distance between the two accesses … only the elements that are
//! spatially located in between the first and the last access are
//! buffered on-chip, at any point in time. For this pipeline to work
//! correctly without stalls, its filters are ordered in lexicographically
//! inverse order according to the polyhedral model."
//!
//! [`FilterChain`] is the behavioural model of that pipeline: elements of
//! one (padded) input feature map are pushed in row-major stream order;
//! whenever the element completing a sliding window arrives, the chain
//! emits the full K×K window — all taps concurrently, exactly what the
//! hardware presents to the PE in one cycle. Its buffer occupancy is,
//! by construction, the paper's `(K−1)·W + K` bound.

use std::collections::VecDeque;

/// One filter of the chain: the sliding-window access it represents and
/// its data domain. The domain is the set of stream coordinates `(i, j)`
/// of the padded input with `row ≤ i ≤ last_row`, `col ≤ j ≤ last_col`
/// and `i − row`, `j − col` multiples of `stride`;
/// [`FilterSpec::write_domain`] renders it as the C condition the HLS
/// code generator writes into the filter's source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilterSpec {
    /// Window-row offset of the access this filter represents.
    pub row: usize,
    /// Window-column offset.
    pub col: usize,
    /// Position in the chain (0 = receives the raw stream first). The
    /// chain is in lexicographically inverse access order, so position 0
    /// is the access `(K−1, K−1)`.
    pub position: usize,
    /// Depth of the FIFO feeding the *next* filter (`None` for the last).
    pub downstream_fifo_depth: Option<usize>,
    /// Window stride: the filter takes every `stride`-th row and column.
    pub stride: usize,
    /// Last stream row of the domain: `row + (out_h − 1)·stride`.
    pub last_row: usize,
    /// Last stream column of the domain: `col + (out_w − 1)·stride`.
    pub last_col: usize,
}

impl FilterSpec {
    /// Appends the data domain to `out` as the C condition the filter
    /// tests per stream element `(i, j)`:
    /// `(i >= 1) && (i <= 23) && ((i - 1) % 1 == 0) && (j >= 0) && …`.
    pub fn write_domain(&self, out: &mut String) {
        out.push_str("(i >= ");
        push_decimal(out, self.row);
        out.push_str(") && (i <= ");
        push_decimal(out, self.last_row);
        out.push_str(") && ((i - ");
        push_decimal(out, self.row);
        out.push_str(") % ");
        push_decimal(out, self.stride);
        out.push_str(" == 0) && (j >= ");
        push_decimal(out, self.col);
        out.push_str(") && (j <= ");
        push_decimal(out, self.last_col);
        out.push_str(") && ((j - ");
        push_decimal(out, self.col);
        out.push_str(") % ");
        push_decimal(out, self.stride);
        out.push_str(" == 0)");
    }
}

/// Appends `n` in decimal to `out`. Generated filter sources are static
/// text around a few integers, so their writers skip `fmt`'s
/// per-argument dispatch.
pub fn push_decimal(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// A completed sliding window, emitted in output row-major order.
#[derive(Clone, Debug, PartialEq)]
pub struct Window {
    /// Output row index.
    pub out_row: usize,
    /// Output column index.
    pub out_col: usize,
    /// The K×K elements in window row-major order (tap `(r, c)` at
    /// `r·K + c`).
    pub elems: Vec<f32>,
}

/// Behavioural model of one filter pipeline over one input feature map.
///
/// ```
/// use condor_dataflow::FilterChain;
///
/// // A 2x2 window sliding over a 3x3 map: 4 windows, row-major.
/// let mut chain = FilterChain::new(2, 3, 3, 1, 0);
/// let stream: Vec<f32> = (0..9).map(|v| v as f32).collect();
/// let windows = chain.run(&stream);
/// assert_eq!(windows.len(), 4);
/// assert_eq!(windows[0].elems, vec![0.0, 1.0, 3.0, 4.0]);
/// // On-chip buffering never exceeds the paper's (K-1)·W + K bound.
/// assert!(chain.high_water() <= chain.buffer_bound());
/// ```
#[derive(Clone, Debug)]
pub struct FilterChain {
    k: usize,
    stride: usize,
    padded_h: usize,
    padded_w: usize,
    out_h: usize,
    out_w: usize,
    /// Sliding buffer of the last `(K−1)·W_p + K` elements.
    buf: VecDeque<f32>,
    /// Elements received so far.
    received: usize,
    /// Peak buffer occupancy observed.
    high_water: usize,
}

impl FilterChain {
    /// Creates a chain for a `K×K` window sliding with `stride` over an
    /// `h×w` input with symmetric zero padding `pad`. The stream pushed
    /// into the chain must be the *padded* image, row-major.
    pub fn new(k: usize, h: usize, w: usize, stride: usize, pad: usize) -> Self {
        assert!(k >= 1 && stride >= 1, "degenerate window");
        let padded_h = h + 2 * pad;
        let padded_w = w + 2 * pad;
        assert!(
            padded_h >= k && padded_w >= k,
            "window {k} exceeds padded input {padded_h}x{padded_w}"
        );
        FilterChain {
            k,
            stride,
            padded_h,
            padded_w,
            out_h: (padded_h - k) / stride + 1,
            out_w: (padded_w - k) / stride + 1,
            buf: VecDeque::new(),
            received: 0,
            high_water: 0,
        }
    }

    /// Output extents `(out_h, out_w)`.
    pub fn out_dims(&self) -> (usize, usize) {
        (self.out_h, self.out_w)
    }

    /// On-chip buffer bound: `(K−1)·W_p + K` elements.
    pub fn buffer_bound(&self) -> usize {
        (self.k - 1) * self.padded_w + self.k
    }

    /// Total stream elements expected for one feature map.
    fn stream_len(&self) -> usize {
        self.padded_h * self.padded_w
    }

    /// Peak occupancy observed so far.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Pushes the next stream element; returns the window it completes,
    /// if any. (With stride 1 every element inside the valid region
    /// completes exactly one window; with larger strides some complete
    /// none — the filters' inequality conditions filter them out.)
    pub fn push(&mut self, v: f32) -> Option<Window> {
        assert!(
            self.received < self.stream_len(),
            "stream overrun: feature map already complete"
        );
        self.buf.push_back(v);
        self.received += 1;
        if self.buf.len() > self.buffer_bound() {
            self.buf.pop_front();
        }
        self.high_water = self.high_water.max(self.buf.len());

        // Which window does the element just received complete? The
        // completing element of window (oi, oj) is the bottom-right tap:
        // flat index (oi·s + K−1)·W_p + oj·s + K−1.
        let flat = self.received - 1;
        let r = flat / self.padded_w;
        let c = flat % self.padded_w;
        if r + 1 < self.k || c + 1 < self.k {
            return None;
        }
        let top = r + 1 - self.k;
        let left = c + 1 - self.k;
        if !top.is_multiple_of(self.stride) || !left.is_multiple_of(self.stride) {
            return None;
        }
        let out_row = top / self.stride;
        let out_col = left / self.stride;
        if out_row >= self.out_h || out_col >= self.out_w {
            return None;
        }

        // Assemble the window from the sliding buffer.
        let front_flat = self.received - self.buf.len();
        let mut elems = Vec::with_capacity(self.k * self.k);
        for tr in 0..self.k {
            for tc in 0..self.k {
                let tap_flat = (top + tr) * self.padded_w + (left + tc);
                elems.push(self.buf[tap_flat - front_flat]);
            }
        }
        Some(Window {
            out_row,
            out_col,
            elems,
        })
    }

    /// Runs a whole padded feature map through the chain, returning all
    /// windows in output row-major order.
    pub fn run(&mut self, padded_stream: &[f32]) -> Vec<Window> {
        assert_eq!(
            padded_stream.len(),
            self.stream_len(),
            "stream length mismatch"
        );
        padded_stream.iter().filter_map(|&v| self.push(v)).collect()
    }

    /// The filter specifications of this chain, in lexicographically
    /// inverse order with the paper's FIFO sizing.
    pub fn filter_specs(&self) -> Vec<FilterSpec> {
        let k = self.k;
        let s = self.stride;
        let mut specs = Vec::with_capacity(k * k);
        // Lexicographically inverse: (K−1,K−1), (K−1,K−2), …, (0,0).
        for (position, tap) in (0..k * k).rev().enumerate() {
            let row = tap / k;
            let col = tap % k;
            // FIFO depth to the next (lexicographically smaller) access:
            // distance 1 within a row, W_p − K + 1 across rows.
            let downstream_fifo_depth = if tap == 0 {
                None
            } else if col == 0 {
                Some(self.padded_w - k + 1)
            } else {
                Some(1)
            };
            specs.push(FilterSpec {
                row,
                col,
                position,
                downstream_fifo_depth,
                stride: s,
                last_row: row + (self.out_h - 1) * s,
                last_col: col + (self.out_w - 1) * s,
            });
        }
        specs
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    /// Brute-force window enumeration for cross-checking.
    fn naive_windows(img: &[f32], h: usize, w: usize, k: usize, stride: usize) -> Vec<Window> {
        let mut out = Vec::new();
        let out_h = (h - k) / stride + 1;
        let out_w = (w - k) / stride + 1;
        for oi in 0..out_h {
            for oj in 0..out_w {
                let mut elems = Vec::new();
                for r in 0..k {
                    for c in 0..k {
                        elems.push(img[(oi * stride + r) * w + oj * stride + c]);
                    }
                }
                out.push(Window {
                    out_row: oi,
                    out_col: oj,
                    elems,
                });
            }
        }
        out
    }

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|v| v as f32).collect()
    }

    #[test]
    fn windows_match_naive_enumeration_stride1() {
        let (h, w, k) = (6, 7, 3);
        let img = ramp(h * w);
        let mut chain = FilterChain::new(k, h, w, 1, 0);
        let got = chain.run(&img);
        assert_eq!(got, naive_windows(&img, h, w, k, 1));
    }

    #[test]
    fn windows_match_naive_enumeration_stride2() {
        let (h, w, k, s) = (8, 8, 2, 2);
        let img = ramp(h * w);
        let mut chain = FilterChain::new(k, h, w, s, 0);
        let got = chain.run(&img);
        assert_eq!(got, naive_windows(&img, h, w, k, s));
        assert_eq!(got.len(), 16); // 4x4 output
    }

    #[test]
    fn padding_is_callers_stream() {
        // pad=1 on a 3x3 image: the chain sees a 5x5 padded stream.
        let chain = FilterChain::new(3, 3, 3, 1, 1);
        assert_eq!(chain.out_dims(), (3, 3));
        assert_eq!(chain.stream_len(), 25);
    }

    #[test]
    fn buffer_never_exceeds_paper_bound() {
        let (h, w, k) = (12, 16, 5);
        let img = ramp(h * w);
        let mut chain = FilterChain::new(k, h, w, 1, 0);
        chain.run(&img);
        assert_eq!(chain.buffer_bound(), (k - 1) * w + k);
        assert!(chain.high_water() <= chain.buffer_bound());
        // And the bound is tight: a full-height window needs all of it.
        assert_eq!(chain.high_water(), chain.buffer_bound());
    }

    #[test]
    fn first_window_fill_latency() {
        let (h, w, k) = (5, 5, 3);
        let mut chain = FilterChain::new(k, h, w, 1, 0);
        let mut first_at = None;
        for (i, v) in ramp(h * w).into_iter().enumerate() {
            if chain.push(v).is_some() {
                first_at = Some(i + 1);
                break;
            }
        }
        // (K−1)·W + K elements must arrive before the first window.
        assert_eq!(first_at, Some((k - 1) * w + k));
    }

    #[test]
    fn one_window_per_cycle_after_fill_stride1() {
        let (h, w, k) = (6, 6, 3);
        let mut chain = FilterChain::new(k, h, w, 1, 0);
        let mut windows_at = Vec::new();
        for (i, v) in ramp(h * w).into_iter().enumerate() {
            if chain.push(v).is_some() {
                windows_at.push(i);
            }
        }
        // Within one output row, completions are on consecutive cycles.
        let (out_h, out_w) = chain.out_dims();
        assert_eq!(windows_at.len(), out_h * out_w);
        for row in 0..out_h {
            let row_slice = &windows_at[row * out_w..(row + 1) * out_w];
            assert!(row_slice.windows(2).all(|p| p[1] == p[0] + 1));
        }
    }

    #[test]
    fn filter_specs_are_lexicographically_inverse() {
        let chain = FilterChain::new(3, 6, 6, 1, 0);
        let specs = chain.filter_specs();
        assert_eq!(specs.len(), 9);
        assert_eq!((specs[0].row, specs[0].col), (2, 2));
        assert_eq!((specs[8].row, specs[8].col), (0, 0));
        assert!(specs.iter().enumerate().all(|(i, s)| s.position == i));
        // FIFO depths: distance 1 within rows, W−K+1 across rows, none
        // after the last access.
        assert_eq!(specs[8].downstream_fifo_depth, None);
        let row_crossings = specs
            .iter()
            .filter(|s| s.downstream_fifo_depth == Some(4))
            .count();
        assert_eq!(row_crossings, 2); // taps (2,0) and (1,0)
                                      // The FIFO depths sum to the spatial distance between the first
                                      // and the last access: one less than the on-chip buffer bound.
        let total: usize = specs.iter().filter_map(|s| s.downstream_fifo_depth).sum();
        assert_eq!(total, chain.buffer_bound() - 1);
    }

    #[test]
    fn filter_conditions_mention_domain() {
        // A 2×2 window at stride 2 over a 4×5 map: 2×2 outputs.
        let chain = FilterChain::new(2, 4, 5, 2, 0);
        let specs = chain.filter_specs();
        let f = specs.iter().find(|s| s.row == 0 && s.col == 1).unwrap();
        assert_eq!((f.stride, f.last_row, f.last_col), (2, 2, 3));
        let mut text = String::new();
        f.write_domain(&mut text);
        assert_eq!(
            text,
            "(i >= 0) && (i <= 2) && ((i - 0) % 2 == 0) && \
             (j >= 1) && (j <= 3) && ((j - 1) % 2 == 0)"
        );
        // The domain holds exactly the stream coordinates of the tap
        // (0, 1) in the windows the chain emits.
        let mut chain = FilterChain::new(2, 4, 5, 2, 0);
        let taps: Vec<(usize, usize)> = chain
            .run(&ramp(20))
            .iter()
            .map(|w| (w.out_row * 2, w.out_col * 2 + 1))
            .collect();
        let domain: Vec<(usize, usize)> = (0..4)
            .flat_map(|i| (0..5).map(move |j| (i, j)))
            .filter(|&(i, j)| {
                (f.row..=f.last_row).contains(&i)
                    && (f.col..=f.last_col).contains(&j)
                    && (i - f.row) % f.stride == 0
                    && (j - f.col) % f.stride == 0
            })
            .collect();
        assert_eq!(domain, taps);
    }

    #[test]
    fn push_decimal_writes_every_digit() {
        let mut out = String::from("n=");
        for n in [0, 7, 10, 4096, usize::MAX] {
            push_decimal(&mut out, n);
            out.push(' ');
        }
        assert_eq!(out, format!("n=0 7 10 4096 {} ", usize::MAX));
    }

    #[test]
    #[should_panic(expected = "stream overrun")]
    fn overrun_detected() {
        let mut chain = FilterChain::new(2, 2, 2, 1, 0);
        for v in 0..5 {
            chain.push(v as f32);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds padded input")]
    fn oversized_window_rejected() {
        FilterChain::new(5, 3, 3, 1, 0);
    }
}

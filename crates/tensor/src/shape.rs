//! 4-D NCHW shape arithmetic.
//!
//! A [`Shape`] records the four extents of a tensor. The convolution /
//! pooling output-size equations implemented here are exactly Eq. (2) and
//! Eq. (3) of the Condor paper (generalised with stride and zero padding,
//! which the paper mentions as selectable hyper-parameters).

use std::fmt;

/// Extents of a 4-D tensor in NCHW order.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Batch size (Caffe `num`).
    pub n: usize,
    /// Channels / feature maps.
    pub c: usize,
    /// Spatial height.
    pub h: usize,
    /// Spatial width.
    pub w: usize,
}

impl Shape {
    /// Creates a shape from the four NCHW extents.
    pub const fn new(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape { n, c, h, w }
    }

    /// Shape of a single feature-map stack: `1 × c × h × w`.
    pub const fn chw(c: usize, h: usize, w: usize) -> Self {
        Shape::new(1, c, h, w)
    }

    /// Shape of a flat vector `1 × c × 1 × 1` (fully-connected activations).
    pub const fn vector(c: usize) -> Self {
        Shape::new(1, c, 1, 1)
    }

    /// Total number of elements.
    pub const fn len(&self) -> usize {
        self.n * self.c * self.h * self.w
    }

    /// Total number of elements, or `None` when the product overflows
    /// `usize` — for shapes read from untrusted bytes.
    pub fn checked_len(&self) -> Option<usize> {
        self.n
            .checked_mul(self.c)?
            .checked_mul(self.h)?
            .checked_mul(self.w)
    }

    /// True when the shape holds no elements.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of elements in one batch item (`c·h·w`).
    pub const fn item_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Number of elements in one feature map (`h·w`).
    pub const fn map_len(&self) -> usize {
        self.h * self.w
    }

    /// Linear index of element `(n, c, h, w)` in row-major NCHW order.
    ///
    /// # Panics
    /// Panics when any coordinate is out of range (debug and release): the
    /// simulator relies on this to catch address-generation bugs early.
    #[inline]
    pub fn index(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        assert!(
            n < self.n && c < self.c && h < self.h && w < self.w,
            "index ({n},{c},{h},{w}) out of bounds for shape {self}"
        );
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Inverse of [`Shape::index`]: decomposes a linear offset.
    #[inline]
    pub fn coords(&self, mut idx: usize) -> (usize, usize, usize, usize) {
        assert!(idx < self.len(), "offset {idx} out of bounds for {self}");
        let w = idx % self.w;
        idx /= self.w;
        let h = idx % self.h;
        idx /= self.h;
        let c = idx % self.c;
        idx /= self.c;
        (idx, c, h, w)
    }

    /// Output spatial size of a valid convolution — Condor paper Eq. (2),
    /// generalised with stride `s` and symmetric zero padding `p`:
    /// `out = (in + 2p − k) / s + 1` (floor division, Caffe semantics).
    pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
        assert!(stride > 0, "stride must be positive");
        assert!(
            input + 2 * pad >= kernel,
            "kernel {kernel} larger than padded input {}",
            input + 2 * pad
        );
        (input + 2 * pad - kernel) / stride + 1
    }

    /// Output spatial size of a pooling window — Condor paper Eq. (3):
    /// `out = ceil((in + 2p − k) / s) + 1` (Caffe uses ceil for pooling).
    pub fn pool_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
        assert!(stride > 0, "stride must be positive");
        assert!(
            input + 2 * pad >= kernel,
            "pool window {kernel} larger than padded input {}",
            input + 2 * pad
        );
        let span = input + 2 * pad - kernel;
        span.div_ceil(stride) + 1
    }

    /// Returns this shape with a different batch size.
    pub const fn with_n(&self, n: usize) -> Self {
        Shape::new(n, self.c, self.h, self.w)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}x{}", self.n, self.c, self.h, self.w)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape({self})")
    }
}

impl From<(usize, usize, usize, usize)> for Shape {
    fn from((n, c, h, w): (usize, usize, usize, usize)) -> Self {
        Shape::new(n, c, h, w)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn len_and_item_len() {
        let s = Shape::new(2, 3, 4, 5);
        assert_eq!(s.len(), 120);
        assert_eq!(s.item_len(), 60);
        assert_eq!(s.map_len(), 20);
        assert!(!s.is_empty());
        assert!(Shape::new(0, 3, 4, 5).is_empty());
    }

    #[test]
    fn index_roundtrip() {
        let s = Shape::new(2, 3, 4, 5);
        let mut seen = vec![false; s.len()];
        for n in 0..2 {
            for c in 0..3 {
                for h in 0..4 {
                    for w in 0..5 {
                        let idx = s.index(n, c, h, w);
                        assert!(!seen[idx], "duplicate index");
                        seen[idx] = true;
                        assert_eq!(s.coords(idx), (n, c, h, w));
                    }
                }
            }
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        Shape::new(1, 1, 2, 2).index(0, 0, 2, 0);
    }

    #[test]
    fn conv_out_matches_paper_eq2() {
        // Paper Eq. (2): new = old − k + 1 (stride 1, no padding).
        assert_eq!(Shape::conv_out_dim(28, 5, 1, 0), 24); // LeNet conv1
        assert_eq!(Shape::conv_out_dim(12, 5, 1, 0), 8); // LeNet conv2
        assert_eq!(Shape::conv_out_dim(16, 5, 1, 0), 12); // TC1 conv1
    }

    #[test]
    fn conv_out_with_stride_and_pad() {
        assert_eq!(Shape::conv_out_dim(224, 3, 1, 1), 224); // VGG "same" conv
        assert_eq!(Shape::conv_out_dim(7, 3, 2, 0), 3);
        assert_eq!(Shape::conv_out_dim(7, 3, 2, 1), 4);
    }

    #[test]
    fn pool_out_matches_paper_eq3() {
        // Paper Eq. (3) with ρ = stride: 2×2/2 pooling halves the extent.
        assert_eq!(Shape::pool_out_dim(24, 2, 2, 0), 12);
        assert_eq!(Shape::pool_out_dim(8, 2, 2, 0), 4);
        // Caffe ceil semantics: 5 → ceil((5-2)/2)+1 = 3.
        assert_eq!(Shape::pool_out_dim(5, 2, 2, 0), 3);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn conv_kernel_too_large_panics() {
        Shape::conv_out_dim(4, 5, 1, 0);
    }

    #[test]
    fn with_n_replaces_batch() {
        assert_eq!(Shape::chw(3, 8, 8).with_n(16), Shape::new(16, 3, 8, 8));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(1, 2, 3, 4).to_string(), "1x2x3x4");
    }
}
